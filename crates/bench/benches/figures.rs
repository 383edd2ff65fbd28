//! End-to-end figure benchmarks: every paper table & figure regenerated at
//! bench scale on each `cargo bench` run. Timing is secondary here — the
//! point is that the full experiment pipeline for each figure runs and its
//! qualitative shape is asserted (a regression in who-beats-whom fails the
//! bench).

use criterion::{criterion_group, criterion_main, Criterion};
use soc_bench::{fig4, fig5, fig8, sweep, table3, Scale};
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    c.bench_function("fig4_shape", |b| {
        b.iter(|| {
            let out = fig4(Scale::bench(), 1, sweep::thread_count());
            // λ = 0.84: SID-CAN beats Newscast (scarce resources need the
            // directed search).
            let (_, hi) = (&out[0].0, &out[0].1);
            let sid = hi.iter().find(|r| r.label == "SID-CAN").unwrap();
            let news = hi.iter().find(|r| r.label == "Newscast").unwrap();
            assert!(
                sid.t_ratio > news.t_ratio,
                "fig4(a) inverted: SID {} vs Newscast {}",
                sid.t_ratio,
                news.t_ratio
            );
            black_box(out)
        })
    });
}

fn bench_fig5(c: &mut Criterion) {
    c.bench_function("fig5_shape", |b| {
        b.iter(|| {
            let reports = fig5(Scale::bench(), 1.0, 1);
            // PID variants must beat Newscast on matching at λ = 1.
            let hid = reports.iter().find(|r| r.label == "HID-CAN").unwrap();
            let news = reports.iter().find(|r| r.label == "Newscast").unwrap();
            assert!(
                hid.f_ratio < news.f_ratio,
                "fig5(b) inverted: HID {} vs Newscast {}",
                hid.f_ratio,
                news.f_ratio
            );
            black_box(reports)
        })
    });
}

fn bench_fig7(c: &mut Criterion) {
    c.bench_function("fig7_shape", |b| {
        b.iter(|| {
            let reports = fig5(Scale::bench(), 0.25, 1);
            let hid = reports.iter().find(|r| r.label == "HID-CAN").unwrap();
            // Fig. 7(b): HID-CAN almost never fails at λ = 0.25.
            assert!(
                hid.f_ratio < 0.05,
                "fig7(b): HID F-Ratio should be ≈0, got {}",
                hid.f_ratio
            );
            black_box(reports)
        })
    });
}

fn bench_fig8(c: &mut Criterion) {
    c.bench_function("fig8_shape", |b| {
        b.iter(|| {
            let rows = fig8(Scale::bench(), 1);
            let t0 = rows[0].1.t_ratio;
            let t50 = rows[2].1.t_ratio;
            assert!(
                t50 > 0.4 * t0,
                "fig8: 50% churn collapsed throughput ({t50} vs static {t0})"
            );
            black_box(rows)
        })
    });
}

fn bench_table3(c: &mut Criterion) {
    c.bench_function("table3_shape", |b| {
        b.iter(|| {
            let rows = table3(Scale::bench(), 1, sweep::thread_count());
            // Per-node message cost grows sublinearly with n.
            let first = rows.first().unwrap().msg_per_node;
            let last = rows.last().unwrap().msg_per_node;
            let n_ratio = *Scale::bench().table3_nodes.last().unwrap() as f64
                / Scale::bench().table3_nodes[0] as f64;
            assert!(
                last / first.max(1.0) < n_ratio,
                "table3: per-node cost not sublinear ({first} → {last})"
            );
            black_box(rows)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig4, bench_fig5, bench_fig7, bench_fig8, bench_table3
}
criterion_main!(benches);
