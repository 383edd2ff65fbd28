//! Substrate micro-benchmarks: CAN routing vs INSCAN finger routing
//! (the machinery behind Table III's message-cost scaling), INSCAN-RQ
//! flooding (Fig. 1 strawman), index diffusion (Fig. 2–3) and the PSM
//! scheduler's hot operations.
#![expect(
    clippy::disallowed_methods,
    reason = "a bench seeds a local RNG for its inputs"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use soc_can::{route_path, CanOverlay};
use soc_inscan::{inscan_route, range_query, IndexTables};
use soc_psm::{NodeExec, PsmConfig, RunningTask};
use soc_types::{NodeId, ResVec, TaskId};
use std::hint::black_box;

fn setup(n: usize, dim: usize, seed: u64) -> (CanOverlay, IndexTables, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ov = CanOverlay::bootstrap(dim, n, n, &mut rng);
    let mut tables = IndexTables::new(dim, n, n);
    tables.refresh_all(&ov, &mut rng);
    (ov, tables, rng)
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    for &n in &[256usize, 1024] {
        let (ov, tables, mut rng) = setup(n, 2, 42);
        let points: Vec<ResVec> = (0..64)
            .map(|_| soc_can::overlay::random_point(2, &mut rng))
            .collect();
        g.bench_with_input(BenchmarkId::new("greedy_can", n), &n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % points.len();
                black_box(route_path(&ov, NodeId(0), &points[i], 10_000))
            })
        });
        g.bench_with_input(BenchmarkId::new("inscan_fingers", n), &n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % points.len();
                black_box(inscan_route(&ov, &tables, NodeId(0), &points[i], 10_000))
            })
        });
    }
    g.finish();
}

fn bench_next_hop(c: &mut Criterion) {
    // One INSCAN routing step, what the profile's `route` count counts
    // (`PidCan::route_toward` / `route_avoiding`, once per routed hop): a
    // run's routing cost is that count × this bench's ns. The
    // targets are what state updates are routed to: idle nodes'
    // availability points, Table I capacities over `cmax` — on split planes
    // in four dimensions, continuous in bandwidth.
    use soc_inscan::inscan_next_hop;
    use soc_workload::{cmax, NodeCapacitySampler};
    let mut g = c.benchmark_group("next_hop");
    for &n in &[256usize, 1024] {
        let (ov, tables, mut rng) = setup(n, 5, 48);
        let pairs: Vec<(NodeId, ResVec)> = (0..64)
            .map(|i| {
                let avail = NodeCapacitySampler.sample(&mut rng).normalize(&cmax());
                (NodeId((i * 7) % n as u32), avail)
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("inscan", n), &n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % pairs.len();
                let (from, p) = &pairs[i];
                black_box(inscan_next_hop(&ov, &tables, *from, p))
            })
        });
    }
    g.finish();
}

fn bench_inscan_rq(c: &mut Criterion) {
    // Fig. 1 / §III-A: INSCAN-RQ flood cost explodes as the range widens.
    let mut g = c.benchmark_group("inscan_rq");
    let (ov, tables, _rng) = setup(512, 2, 43);
    for &corner in &[0.9f64, 0.5, 0.1] {
        let v = ResVec::from_slice(&[corner, corner]);
        let hi = ResVec::splat(2, 1.0);
        g.bench_with_input(
            BenchmarkId::new("flood", format!("range_from_{corner}")),
            &corner,
            |b, _| b.iter(|| black_box(range_query(&ov, &tables, NodeId(0), &v, &hi))),
        );
    }
    g.finish();
}

fn bench_diffusion(c: &mut Criterion) {
    // Fig. 2/3: one diffusion round, SID vs HID.
    use pidcan::{simulate_diffusion, DiffusionMethod};
    let mut g = c.benchmark_group("diffusion");
    let (ov, tables, mut rng) = setup(512, 2, 44);
    let origin = ov.owner_of(&ResVec::splat(2, 1.0));
    g.bench_function("hid_round", |b| {
        b.iter(|| {
            black_box(simulate_diffusion(
                &ov,
                &tables,
                origin,
                DiffusionMethod::Hopping,
                2,
                &mut rng,
            ))
        })
    });
    g.bench_function("sid_round", |b| {
        b.iter(|| {
            black_box(simulate_diffusion(
                &ov,
                &tables,
                origin,
                DiffusionMethod::Spreading,
                2,
                &mut rng,
            ))
        })
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    // The simulator's innermost loop: hold a realistic pending-event
    // population and do schedule+pop round-trips with the runner's latency
    // mix (LAN 2–10 ms, WAN 150–250 ms, task/protocol timers in seconds).
    use soc_simcore::EventQueue;
    let mut g = c.benchmark_group("event_queue");
    let delays: Vec<u64> = {
        let mut rng = SmallRng::seed_from_u64(46);
        (0..1024)
            .map(|_| match rng.random_range(0..10u32) {
                0..=3 => rng.random_range(2..=10),       // LAN hop
                4..=7 => rng.random_range(150..=250),    // WAN hop
                8 => rng.random_range(1_000..=60_000),   // timeout/transfer
                _ => rng.random_range(60_000..=600_000), // protocol cycle
            })
            .collect()
    };
    g.bench_function("steady_state", |b| {
        let mut q: EventQueue<u32> = EventQueue::new();
        for (i, &d) in delays.iter().enumerate() {
            q.schedule_in(d * 16, i as u32);
        }
        let mut i = 0usize;
        b.iter(|| {
            // Alternating net +1 / net −1 iterations: the pending
            // population oscillates around its initial 1024 — a
            // steady-state simulation, never draining or ballooning.
            let ev = q.pop().expect("queue never drains");
            i = (i + 1) % delays.len();
            q.schedule_in(delays[i], ev.1);
            if i % 2 == 0 {
                q.schedule_in(delays[(i * 7) % delays.len()], ev.1);
            } else {
                q.pop();
            }
            black_box(ev)
        })
    });
    g.bench_function("proto_timer", |b| {
        // The queue half of the `proto_timer` phase: 2000 nodes, each with
        // one periodic timer (scaled state-update, diffusion, refresh and
        // gossip cycles, 12 … 600 s, first armed at a random phase) that
        // re-arms as it fires, over a message population that keeps the
        // clock moving and now and then arms a 60 s query timeout — timers
        // cross the ring, the coarse wheel and its horizon.
        const NODES: u32 = 2000;
        const CYCLES: [u64; 6] = [12_000, 60_000, 80_000, 120_000, 400_000, 600_000];
        let mut rng = SmallRng::seed_from_u64(49);
        let mut q: EventQueue<u32> = EventQueue::new();
        for node in 0..NODES {
            let period = CYCLES[node as usize % CYCLES.len()];
            q.schedule_in(rng.random_range(0..period), node);
        }
        for (i, &d) in delays.iter().enumerate() {
            q.schedule_in(d, NODES + i as u32);
        }
        let mut i = 0usize;
        b.iter(|| {
            let (t, ev) = q.pop().expect("queue never drains");
            if ev < NODES {
                q.schedule_in(CYCLES[ev as usize % CYCLES.len()], ev);
            } else {
                i = (i + 1) % delays.len();
                let delay = if i % 16 == 0 { 60_000 } else { delays[i] };
                q.schedule_in(delay, ev);
            }
            black_box(t)
        })
    });
    g.finish();
}

fn bench_record_cache(c: &mut Criterion) {
    // The per-query protocol hot path: `qualified_into` over a duty/jump
    // node's record cache — a walk that tests every record's age and
    // Inequality (2). In situ a duty cache holds tens of records; the
    // larger sizes show how the walk scales past that.
    use soc_overlay::{RecordCache, StateRecord};
    let mut g = c.benchmark_group("record_cache");
    let mut rng = SmallRng::seed_from_u64(47);
    for &n in &[64usize, 256, 1024] {
        let mut cache = RecordCache::new(600_000);
        for i in 0..n {
            let avail = ResVec::from_slice(&[
                rng.random::<f64>() * 25.6,
                rng.random::<f64>() * 80.0,
                rng.random::<f64>() * 10.0,
                rng.random::<f64>() * 240.0,
                rng.random::<f64>() * 4096.0,
            ]);
            cache.insert(StateRecord {
                subject: NodeId(i as u32),
                avail,
                stored_at: (i as u64 * 600_000) / n as u64,
            });
        }
        // A mid-corner demand: scarce but not hopeless — a few percent of
        // records qualify, like a λ≈0.5 duty-zone probe. `now` keeps ~half
        // the records fresh, exercising the TTL filter too.
        let demand = ResVec::from_slice(&[20.0, 60.0, 7.5, 180.0, 3000.0]);
        let now = 900_000;
        g.bench_with_input(BenchmarkId::new("qualified", n), &n, |b, _| {
            let mut buf = Vec::new();
            b.iter(|| {
                cache.qualified_into(&demand, now, &mut buf);
                black_box(buf.len())
            })
        });
    }
    g.finish();
}

fn bench_psm(c: &mut Criterion) {
    let mut g = c.benchmark_group("psm");
    let cap = ResVec::from_slice(&[25.6, 80.0, 10.0, 240.0, 4096.0]);
    g.bench_function("allocation_eq1", |b| {
        let mut node = NodeExec::new(cap, PsmConfig::default());
        for i in 0..8 {
            node.add_task(
                0,
                RunningTask::with_duration(
                    TaskId(i),
                    ResVec::from_slice(&[2.0, 8.0, 1.0, 20.0, 256.0]),
                    3000.0,
                    3,
                    0,
                    0,
                ),
            );
        }
        b.iter(|| black_box(node.allocations()))
    });
    g.bench_function("completion_prediction", |b| {
        // Steady-state path: repeated predictions within one epoch hit the
        // finish-time heap memo (the pre-PR-4 code rescanned tasks×dims and
        // allocated the Eq. (1) vector on every call).
        let mut node = NodeExec::new(cap, PsmConfig::default());
        for i in 0..8 {
            node.add_task(
                0,
                RunningTask::with_duration(
                    TaskId(i),
                    ResVec::from_slice(&[2.0, 8.0, 1.0, 20.0, 256.0]),
                    3000.0,
                    3,
                    0,
                    0,
                ),
            );
        }
        b.iter(|| black_box(node.next_completion(0)))
    });
    g.bench_function("completion_rebuild", |b| {
        // Worst-case path: every iteration admits a task (allocation
        // change ⇒ epoch bump), so each prediction rebuilds the heap.
        let mut node = NodeExec::new(cap, PsmConfig::default());
        let e = ResVec::from_slice(&[2.0, 8.0, 1.0, 20.0, 256.0]);
        let mut t = 0u64;
        let mut id = 0u64;
        b.iter(|| {
            if node.n_tasks() >= 16 {
                node.kill_all(t);
            }
            t += 1;
            node.add_task(
                t,
                RunningTask::with_duration(TaskId(id), e, 3000.0, 3, t, t),
            );
            id += 1;
            black_box(node.next_completion(t))
        })
    });
    g.bench_function("churn_join_leave", |b| {
        let mut rng = SmallRng::seed_from_u64(45);
        let mut ov = CanOverlay::bootstrap(5, 256, 257, &mut rng);
        // One spare id cycles through leave → re-join so the id space stays
        // bounded across Criterion's millions of iterations.
        let mut spare = NodeId(256);
        b.iter(|| {
            ov.join(spare, &soc_can::overlay::random_point(5, &mut rng));
            let victim_i = rng.random_range(0..ov.len());
            let victim = ov.live_nodes().nth(victim_i).unwrap();
            ov.leave(victim);
            spare = victim;
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_routing, bench_next_hop, bench_inscan_rq, bench_diffusion,
        bench_event_queue, bench_record_cache, bench_psm
}
criterion_main!(benches);
