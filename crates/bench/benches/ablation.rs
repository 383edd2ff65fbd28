//! Ablation benchmarks for the paper's protocol parameters:
//!
//! * `l_sweep`       — diffusion fan-out L ∈ {1, 2, 3} (§III-B1 fixes L=2).
//! * `delta_sweep`   — δ (results per query) ∈ {1, 3, 5}.
//! * `sos_overhead`  — SoS on/off query traffic.
//!
//! Each bench runs the pipeline at bench scale and also records the
//! interesting scalar (match rate / traffic) via eprintln so the numbers
//! land in bench_output.txt.
#![expect(
    clippy::disallowed_methods,
    reason = "a bench seeds a local RNG for its inputs"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use soc_sim::{ProtocolChoice, Scenario};
use std::hint::black_box;

fn bench_scenario(p: ProtocolChoice) -> Scenario {
    let mut sc = Scenario::paper(p).nodes(150).hours(2).seed(1).lambda(0.5);
    sc.mean_arrival_s = 600.0;
    sc.mean_duration_s = 600.0;
    sc
}

fn bench_l_sweep(c: &mut Criterion) {
    // L only matters inside the protocol; run one diffusion-heavy scenario
    // per L by constructing PidCan directly at the unit level.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_can::CanOverlay;
    use soc_inscan::IndexTables;
    use soc_types::ResVec;

    let mut g = c.benchmark_group("l_sweep");
    let n = 512;
    let mut rng = SmallRng::seed_from_u64(7);
    let ov = CanOverlay::bootstrap(2, n, n, &mut rng);
    let mut tables = IndexTables::new(2, n, n);
    tables.refresh_all(&ov, &mut rng);
    let origin = ov.owner_of(&ResVec::splat(2, 1.0));
    for l in [1usize, 2, 3] {
        g.bench_with_input(BenchmarkId::new("hid_round", l), &l, |b, &l| {
            b.iter(|| {
                black_box(pidcan::simulate_diffusion(
                    &ov,
                    &tables,
                    origin,
                    pidcan::DiffusionMethod::Hopping,
                    l,
                    &mut rng,
                ))
            })
        });
        // Message count per round (ω growth) for the report.
        let mut msgs = 0usize;
        let mut cov = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let out = pidcan::simulate_diffusion(
                &ov,
                &tables,
                origin,
                pidcan::DiffusionMethod::Hopping,
                l,
                &mut rng,
            );
            msgs += out.messages;
            cov.extend(out.reached.iter().map(|(n, _)| *n));
        }
        eprintln!(
            "[ablation l_sweep] L={l}: {:.1} msgs/round, {} distinct nodes over 100 rounds",
            msgs as f64 / 100.0,
            cov.len()
        );
    }
    g.finish();
}

fn bench_delta_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("delta_sweep");
    g.sample_size(10);
    for delta in [1usize, 3, 5] {
        g.bench_with_input(BenchmarkId::new("hid", delta), &delta, |b, &delta| {
            b.iter(|| {
                let mut sc = bench_scenario(ProtocolChoice::Hid);
                sc.delta = delta;
                black_box(sc.run())
            })
        });
        let mut sc = bench_scenario(ProtocolChoice::Hid);
        sc.delta = delta;
        let r = sc.run();
        eprintln!(
            "[ablation delta_sweep] δ={delta}: T-Ratio {:.3}, F-Ratio {:.3}, rejected {}, msgs/node {:.0}",
            r.t_ratio, r.f_ratio, r.rejected, r.msg_per_node
        );
    }
    g.finish();
}

fn bench_sos_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("sos_overhead");
    g.sample_size(10);
    for (label, p) in [
        ("plain", ProtocolChoice::Hid),
        ("sos", ProtocolChoice::HidSos),
    ] {
        g.bench_with_input(BenchmarkId::new("hid", label), &p, |b, &p| {
            b.iter(|| black_box(bench_scenario(p).run()))
        });
        let r = bench_scenario(p).run();
        eprintln!(
            "[ablation sos_overhead] {label}: F-Ratio {:.3}, duty-query msgs {}, msgs/node {:.0}",
            r.f_ratio,
            r.msg_count(soc_net::MsgKind::DutyQuery),
            r.msg_per_node
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_l_sweep, bench_delta_sweep, bench_sos_overhead
}
criterion_main!(benches);
