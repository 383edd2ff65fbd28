//! Per-layer kernels: each layer's public functions timed from outside.
//!
//! Fixtures are sized from the workload's scenario (node count, overlay
//! dimension, λ, seed), so a kernel's number belongs to the workload it
//! is reported with. Every kernel runs batches of about [`BATCH_S`] until
//! [`BUSY_S`] of it has run; each batch is one span under its layer's
//! span, and the reported figure is the median over batches of time per
//! operation.

use crate::clock::timed;
use crate::measure::bootstrap_only;
use crate::span::Recorder;
use crate::stats::median;
use crate::verify::{check, run_caught, Ops};
use crate::Metric;
use pidcan::{simulate_diffusion, DiffusionMethod, PidCan, PidCanConfig};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use soc_can::overlay::random_point;
use soc_can::{CanOverlay, Point};
use soc_gossip::{GossipConfig, Newscast};
use soc_inscan::{inscan_route, IndexTables, Router};
use soc_khdn::{KhdnCan, KhdnConfig};
use soc_metrics::TaskTracker;
use soc_net::{LanTopology, LatencyConfig};
use soc_overlay::testkit::{TestHarness, TestHost};
use soc_overlay::{DiscoveryOverlay, QueryRequest, RecordCache, StateRecord};
use soc_psm::{NodeExec, PsmConfig, RunningTask};
use soc_scenario::{record_run, replay_run, ScenarioSpec, Trace};
use soc_sim::{build_source, ProtocolChoice, Scenario};
use soc_simcore::EventQueue;
use soc_types::{NodeId, QueryId, ResVec, TaskId, PERF_DIMS, SOC_DIMS};
use soc_workload::{cmax, WorkloadSource};
use std::hint::black_box;

/// Host seconds each kernel is kept busy for.
const BUSY_S: f64 = 0.2;
/// Host seconds one batch (one span) of a kernel lasts at least.
const BATCH_S: f64 = 0.01;
/// Fewest batches per kernel, so a median exists.
const MIN_BATCHES: usize = 3;
/// The protocol harnesses replay every node's timers to warm up, which is
/// quadratic-ish in practice; above this node count they use this many.
const HARNESS_MAX_N: usize = 2000;
/// Size of the pre-drawn input pools kernels cycle through.
const POOL: usize = 1024;

/// Median time per operation over a kernel's batches.
struct Sampled {
    secs_per_op: f64,
    ops: u64,
}

impl Sampled {
    fn ns(&self) -> f64 {
        self.secs_per_op * 1e9
    }
    fn us(&self) -> f64 {
        self.secs_per_op * 1e6
    }
    fn ms(&self) -> f64 {
        self.secs_per_op * 1e3
    }
}

/// The recorder and the op counter every kernel reports into.
pub struct Bench<'a> {
    /// Span sink.
    pub rec: &'a mut Recorder,
    /// Operation accounting.
    pub ops: &'a mut Ops,
}

impl Bench<'_> {
    /// Run `unit` (returns operations done and the seconds of it that
    /// count) in batches of about [`BATCH_S`], one span per batch, until
    /// the kernel has been busy for [`BUSY_S`].
    fn sample_inner(
        &mut self,
        name: &str,
        layer: &'static str,
        mut unit: impl FnMut() -> (u64, f64),
    ) -> Sampled {
        let mut per_op = Vec::new();
        let (mut busy, mut total_ops) = (0.0, 0u64);
        while per_op.len() < MIN_BATCHES || busy < BUSY_S {
            let id = self.rec.open(name, layer);
            let (mut n, mut secs) = (0u64, 0.0);
            while secs < BATCH_S {
                let (k, s) = unit();
                n += k;
                secs += s;
            }
            self.rec.close(id, n);
            self.ops.passed(1);
            per_op.push(secs / n.max(1) as f64);
            busy += secs;
            total_ops += n;
        }
        Sampled {
            secs_per_op: median(&per_op),
            ops: total_ops,
        }
    }

    /// [`Bench::sample_inner`] for a unit that is timed whole.
    fn sample(
        &mut self,
        name: &str,
        layer: &'static str,
        mut unit: impl FnMut() -> u64,
    ) -> Sampled {
        self.sample_inner(name, layer, || timed(&mut unit))
    }

    /// Open a layer span, run its kernels, close it. The layer's self
    /// time is its fixture building.
    fn layer<T>(&mut self, layer: &'static str, body: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.rec.open(layer, layer);
        let out = body(self);
        self.rec.close(id, 0);
        out
    }
}

/// Overlay key-space dimension the workload's protocol runs in.
fn overlay_dim(sc: &Scenario) -> usize {
    match sc.protocol {
        ProtocolChoice::Newscast | ProtocolChoice::Khdn => SOC_DIMS,
        ProtocolChoice::SidVd => PidCanConfig::sid_vd().overlay_dim(),
        _ => PidCanConfig::hid().overlay_dim(),
    }
}

/// Inputs drawn once from the workload's own generators.
///
/// Two kinds of randomness are kept apart. Fixtures (overlays, tables,
/// input pools) are built from [`Pools::fixture_rng`], a fresh stream per
/// fixture, so they are a function of `(workload, seed)` alone and the
/// counts measured on them repeat exactly. Timed loops draw from
/// `scratch`, which they consume for as long as the clock says.
struct Pools {
    seed: u64,
    scratch: SmallRng,
    points: Vec<Point>,
    /// Node capacity vectors (an idle node's availability).
    caps: Vec<ResVec>,
    /// Task expectation vectors at the scenario's λ.
    demands: Vec<ResVec>,
    durations: Vec<f64>,
}

impl Pools {
    fn new(sc: &Scenario, dim: usize) -> Self {
        let mut pools = Pools {
            seed: sc.seed,
            scratch: SmallRng::seed_from_u64(sc.seed ^ 0x5C2A_7C45),
            points: Vec::new(),
            caps: Vec::new(),
            demands: Vec::new(),
            durations: Vec::new(),
        };
        let mut rng = pools.fixture_rng(0);
        let mut source = build_source(sc);
        pools.points = (0..POOL).map(|_| random_point(dim, &mut rng)).collect();
        pools.caps = (0..sc.n_nodes.max(POOL))
            .map(|_| source.node_capacity(&mut rng))
            .collect();
        let tasks: Vec<_> = (0..POOL)
            .map(|i| source.next_task(NodeId((i % sc.n_nodes) as u32), 0, &mut rng))
            .collect();
        pools.demands = tasks.iter().map(|t| t.expect).collect();
        pools.durations = tasks.iter().map(|t| t.duration_s).collect();
        pools
    }

    /// The random stream fixture number `fixture` is built from.
    fn fixture_rng(&self, fixture: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ (0x5EED_BE7C + fixture))
    }
}

fn simcore(b: &mut Bench, n: usize, pools: &mut Pools, out: &mut Vec<Metric>) {
    // Hold model: a standing population of pending events (a few per node:
    // protocol timers, in-flight messages), each pop followed by one push
    // with the runner's latency mix — LAN and WAN hops, timeouts, cycles.
    let mut rng = pools.fixture_rng(1);
    let delays: Vec<u64> = (0..POOL)
        .map(|_| match rng.random_range(0..10u32) {
            0..=3 => rng.random_range(2..=10),
            4..=7 => rng.random_range(150..=250),
            8 => rng.random_range(1_000..=60_000),
            _ => rng.random_range(60_000..=600_000),
        })
        .collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..4 * n {
        q.schedule_at(delays[i % POOL] * 4, i as u32);
    }
    let mut i = 0usize;
    let hold = b.sample("simcore.queue_hold", "simcore", || {
        for _ in 0..100_000 {
            let (at, ev) = q.pop_until(u64::MAX).expect("hold model never drains");
            i = (i + 1) % POOL;
            q.schedule_at(at + delays[i], ev);
        }
        100_000
    });
    black_box(q.len());
    out.push(Metric::new("simcore.queue_hold_ns", hold.ns(), "ns"));
}

fn net(b: &mut Bench, sc: &Scenario, pools: &mut Pools, out: &mut Vec<Metric>) {
    let n = sc.n_nodes;
    let mut rng = pools.fixture_rng(2);
    let topo = LanTopology::new(n, sc.lan_size, LatencyConfig::default(), &mut rng);
    let pairs: Vec<(NodeId, NodeId)> = (0..POOL)
        .map(|_| {
            let from = rng.random_range(0..n as u32);
            // Half the sends stay inside the sender's LAN, like routed
            // traffic between overlay neighbours does not, but dispatch does.
            let to = if rng.random::<bool>() {
                (from / sc.lan_size as u32) * sc.lan_size as u32
            } else {
                rng.random_range(0..n as u32)
            };
            (NodeId(from), NodeId(to.min(n as u32 - 1)))
        })
        .collect();
    let rng = &mut pools.scratch;
    let lat = b.sample("net.latency", "net", || {
        let mut sum = 0u64;
        for _ in 0..100 {
            for &(from, to) in &pairs {
                sum += topo.latency(from, to, rng);
            }
        }
        black_box(sum);
        100 * POOL as u64
    });
    out.push(Metric::new("net.latency_ns", lat.ns(), "ns"));
}

/// The can layer's kernels; returns the overlay the later layers share.
fn can(
    b: &mut Bench,
    n: usize,
    dim: usize,
    pools: &mut Pools,
    out: &mut Vec<Metric>,
) -> CanOverlay {
    let ov = CanOverlay::bootstrap(dim, n, n, &mut pools.fixture_rng(3));
    // The timed bootstraps keep their last overlay for the churn kernel,
    // with one spare id so it can re-join what it removed.
    let mut last = None;
    let rng = &mut pools.scratch;
    let boot = b.sample("can.bootstrap", "can", || {
        last = Some(CanOverlay::bootstrap(dim, n, n + 1, rng));
        1
    });
    out.push(Metric::new("can.bootstrap_ms", boot.ms(), "ms"));
    let mut churned = last.expect("bootstrap ran");

    let points = &pools.points;
    let owner = b.sample("can.owner_lookup", "can", || {
        let mut acc = 0u32;
        for _ in 0..50 {
            for p in points {
                acc ^= ov.owner_of(p).0;
            }
        }
        black_box(acc);
        50 * POOL as u64
    });
    out.push(Metric::new("can.owner_lookup_ns", owner.ns(), "ns"));

    // The kernel keeps its own list of live ids so that picking a victim
    // costs nothing next to the leave + join it is timing.
    let mut live: Vec<NodeId> = churned.live_nodes().collect();
    let mut spare = NodeId(n as u32);
    let swap = b.sample("can.churn_swap", "can", || {
        for _ in 0..200 {
            churned.join(spare, &random_point(dim, rng));
            live.push(spare);
            spare = live.swap_remove(rng.random_range(0..live.len()));
            churned.leave(spare);
        }
        200
    });
    out.push(Metric::new("can.churn_swap_us", swap.us(), "us"));
    b.ops.record(
        "CanOverlay::validate after churn kernel",
        churned.validate(),
    );
    ov
}

fn inscan(
    b: &mut Bench,
    n: usize,
    ov: &CanOverlay,
    pools: &mut Pools,
    out: &mut Vec<Metric>,
) -> IndexTables {
    let dim = ov.dim();
    let mut rng = pools.fixture_rng(4);
    let mut tables = IndexTables::new(dim, n, n);
    tables.refresh_all(ov, &mut rng);

    let scratch = &mut pools.scratch;
    let mut refreshed = IndexTables::new(dim, n, n);
    let refresh = b.sample("inscan.refresh_all", "inscan", || {
        black_box(refreshed.refresh_all(ov, scratch));
        1
    });
    out.push(Metric::new("inscan.refresh_all_ms", refresh.ms(), "ms"));

    // Steady-state duty routing: a fixed pool of (sender, target) pairs
    // recurs, as Table II demand corners and unchanged availability points
    // do — the regime the default (cached) router is built for.
    let pairs: Vec<(NodeId, &Point)> = pools
        .points
        .iter()
        .map(|p| (NodeId(rng.random_range(0..n as u32)), p))
        .collect();
    let mut router = Router::from_env();
    let hop = b.sample("inscan.next_hop", "inscan", || {
        let mut acc = 0u32;
        for _ in 0..20 {
            for &(from, p) in &pairs {
                acc ^= router.next_hop(ov, &tables, from, p).map_or(0, |h| h.0);
            }
        }
        black_box(acc);
        20 * POOL as u64
    });
    let cache = router.cache_stats();
    out.push(Metric::new("inscan.next_hop_ns", hop.ns(), "ns"));
    out.push(Metric::new(
        "inscan.route_cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses) as f64,
        "ratio",
    ));

    let (mut hops, mut routes, mut lost) = (0u64, 0u64, 0u64);
    b.sample("inscan.route", "inscan", || {
        for &(from, p) in &pairs {
            let route = inscan_route(ov, &tables, from, p, 10_000);
            hops += route.hops() as u64;
            routes += 1;
            lost += u64::from(route.owner != Some(ov.owner_of(p)));
        }
        POOL as u64
    });
    out.push(Metric::new(
        "inscan.route_hops_mean",
        hops as f64 / routes as f64,
        "count",
    ));
    b.ops.record(
        "inscan_route reaches the target's owner",
        check(lost == 0, || {
            format!("{lost} of {routes} routes ended elsewhere")
        }),
    );
    tables
}

fn overlay(b: &mut Bench, n: usize, pools: &mut Pools, out: &mut Vec<Metric>) {
    // What a duty node holds within one TTL window grows with the
    // population reporting into its zone.
    let size = (n / 8).clamp(64, 1024);
    let ttl = RecordCache::paper().ttl_ms();
    let caps = &pools.caps;
    let record = |i: usize, stored_at: u64| StateRecord {
        subject: NodeId((i % size) as u32),
        avail: caps[i % caps.len()],
        stored_at,
    };

    let mut cache = RecordCache::paper();
    let mut i = 0usize;
    let insert = b.sample("overlay.insert", "overlay", || {
        for _ in 0..20_000 {
            // Time advances 1 ms per insert: steady re-publication.
            cache.insert(record(i, i as u64));
            i += 1;
        }
        20_000
    });
    out.push(Metric::new("overlay.insert_ns", insert.ns(), "ns"));

    // Probe a cache holding one fresh record per subject; demands come at
    // the scenario's λ.
    let mut cache = RecordCache::paper();
    for j in 0..size {
        cache.insert(record(j, j as u64));
    }
    let now = size as u64;
    let demands = &pools.demands;
    let mut found = 0u64;
    let mut buf = Vec::new();
    let probe = b.sample("overlay.probe", "overlay", || {
        for _ in 0..20 {
            for d in demands {
                cache.qualified_into(d, now, &mut buf);
                found += buf.len() as u64;
            }
        }
        20 * POOL as u64
    });
    out.push(Metric::new("overlay.probe_ns", probe.ns(), "ns"));
    out.push(Metric::new(
        "overlay.qualified_per_probe",
        found as f64 / probe.ops as f64,
        "count",
    ));

    // Purge: fill a cache (not timed), expire all of it in one call.
    let purge = b.sample_inner("overlay.purge", "overlay", || {
        let (mut secs, mut purged) = (0.0, 0u64);
        for _ in 0..50 {
            let mut c = RecordCache::paper();
            for j in 0..size {
                c.insert(record(j, j as u64));
            }
            let (k, s) = timed(|| c.purge_expired(size as u64 + ttl + 1));
            purged += k as u64;
            secs += s;
        }
        (purged, secs)
    });
    out.push(Metric::new("overlay.purge_ns", purge.ns(), "ns"));
}

fn psm(b: &mut Bench, pools: &mut Pools, out: &mut Vec<Metric>) {
    let cap = cmax();
    let demands = &pools.demands;
    let durations = &pools.durations;
    let task = |id: u64, t: u64| {
        let k = id as usize % POOL;
        RunningTask::with_duration(TaskId(id), demands[k], durations[k], PERF_DIMS, t, t)
    };

    // Admission alone, then admission followed by the prediction rebuild
    // the runner pays after every allocation change.
    for (name, metric, predict) in [
        ("psm.admit", "psm.admit_ns", false),
        ("psm.predict", "psm.predict_ns", true),
    ] {
        let mut node = NodeExec::new(cap, PsmConfig::default());
        let (mut t, mut id) = (0u64, 0u64);
        let s = b.sample(name, "psm", || {
            for _ in 0..20_000 {
                if node.n_tasks() >= 16 {
                    node.kill_all(t);
                }
                t += 1;
                node.add_task(t, task(id, t));
                id += 1;
                if predict {
                    black_box(node.next_completion(t));
                }
            }
            20_000
        });
        out.push(Metric::new(metric, s.ns(), "ns"));
    }

    // Collection: an 8-task node integrated forward 10 simulated seconds
    // per call, re-admitting as tasks finish.
    let mut node = NodeExec::new(cap, PsmConfig::default());
    let (mut t, mut id) = (0u64, 0u64);
    let collect = b.sample("psm.collect", "psm", || {
        for _ in 0..20_000 {
            while node.n_tasks() < 8 {
                node.add_task(t, task(id, t));
                id += 1;
            }
            t += 10_000;
            black_box(node.collect_finished(t));
        }
        20_000
    });
    out.push(Metric::new("psm.collect_ns", collect.ns(), "ns"));
}

fn workload(b: &mut Bench, sc: &Scenario, pools: &mut Pools, out: &mut Vec<Metric>) {
    let mut source = build_source(sc);
    let n = sc.n_nodes as u32;
    let rng = &mut pools.scratch;
    let mut now = 0u64;
    let draw = b.sample("workload.draw", "workload", || {
        for i in 0..20_000u32 {
            let node = NodeId(i % n);
            now += source.next_delay(node, now, rng) / u64::from(n);
            black_box(source.next_task(node, now, rng));
        }
        20_000
    });
    out.push(Metric::new("workload.draw_ns", draw.ns(), "ns"));
}

fn metrics(b: &mut Bench, out: &mut Vec<Metric>) {
    let mut tracker = TaskTracker::new();
    let mut i = 0u64;
    let sample = b.sample("metrics.sample", "metrics", || {
        for _ in 0..20_000 {
            tracker.task_generated();
            tracker.task_finished(0.5 + (i % 64) as f64 / 128.0);
            // Most samples land on the previous timestamp and replace it,
            // so the series stays short however long the kernel runs.
            black_box(tracker.sample(i / 4096));
            i += 1;
        }
        20_000
    });
    out.push(Metric::new("metrics.sample_us", sample.us(), "us"));
    b.ops
        .record("TaskTracker conservation", tracker.check_conservation());
}

/// A protocol test harness over idle nodes with the workload's capacities.
fn harness<P: DiscoveryOverlay>(
    proto: P,
    n: usize,
    dim: usize,
    pools: &Pools,
    fixture: u64,
    warm_up_ms: u64,
) -> TestHarness<P> {
    let mut rng = pools.fixture_rng(fixture);
    let can = CanOverlay::bootstrap(dim, n, n, &mut rng);
    let mut host = TestHost::uniform(n, cmax(), cmax());
    host.avails.copy_from_slice(&pools.caps[..n]);
    let mut h = TestHarness::new(proto, can, host, rng.random());
    h.run_until(warm_up_ms);
    h
}

/// Issue queries for pooled demands one at a time, each given 200
/// simulated ms (200 harness hops) to settle. Returns time per query,
/// messages per query, and checks every candidate against its demand.
fn query_kernel<P: DiscoveryOverlay>(
    b: &mut Bench,
    name: &str,
    layer: &'static str,
    h: &mut TestHarness<P>,
    n: usize,
    pools: &Pools,
) -> (Sampled, f64) {
    let msgs0 = h.stats.total();
    let mut next = 0u64;
    let mut unqualified = 0u64;
    let s = b.sample(name, layer, || {
        for _ in 0..50 {
            let demand = pools.demands[next as usize % POOL];
            let qid = QueryId(next);
            h.start_query(QueryRequest {
                qid,
                requester: NodeId((next * 7919 % n as u64) as u32),
                demand,
                wanted: 3,
            });
            let deadline = h.now() + 200;
            h.run_until(deadline);
            if let Some(found) = h.results.remove(&qid) {
                unqualified += found.iter().filter(|c| !c.avail.dominates(&demand)).count() as u64;
            }
            h.done.remove(&qid);
            next += 1;
        }
        50
    });
    b.ops.record(
        name,
        check(unqualified == 0, || {
            format!("{unqualified} candidates did not dominate their demand")
        }),
    );
    let msgs = (h.stats.total() - msgs0) as f64 / s.ops as f64;
    (s, msgs)
}

fn protocols(
    b: &mut Bench,
    sc: &Scenario,
    ov: &CanOverlay,
    tables: &IndexTables,
    pools: &mut Pools,
    out: &mut Vec<Metric>,
) {
    let dim = ov.dim();
    let n = sc.n_nodes.min(HARNESS_MAX_N);

    b.layer("pidcan", |b| {
        let origin = ov.owner_of(&ResVec::splat(dim, 0.999));
        let rng = &mut pools.scratch;
        let round = b.sample("pidcan.diffusion_round", "pidcan", || {
            for _ in 0..200 {
                black_box(simulate_diffusion(
                    ov,
                    tables,
                    origin,
                    DiffusionMethod::Hopping,
                    PidCanConfig::hid().fanout_l,
                    rng,
                ));
            }
            200
        });
        out.push(Metric::new("pidcan.diffusion_round_us", round.us(), "us"));
        // One state-update cycle plus two diffusion cycles fill the caches
        // and PILists the query path reads.
        let cfg = PidCanConfig::hid();
        let warm = cfg.state_update_ms + 2 * cfg.diffusion_ms;
        let mut h = harness(PidCan::new(cfg, dim, n, n), n, dim, pools, 5, warm);
        let (q, msgs) = query_kernel(b, "pidcan.query", "pidcan", &mut h, n, pools);
        out.push(Metric::new("pidcan.query_us", q.us(), "us"));
        out.push(Metric::new("pidcan.msgs_per_query", msgs, "count"));
    });

    b.layer("gossip", |b| {
        let cfg = GossipConfig::default();
        let cycle_ms = cfg.exchange_ms;
        let mut h = harness(Newscast::new(cfg, n, n), n, dim, pools, 6, cycle_ms);
        let cycle = b.sample("gossip.cycle", "gossip", || {
            let deadline = h.now() + cycle_ms;
            black_box(h.run_until(deadline));
            1
        });
        out.push(Metric::new("gossip.cycle_us", cycle.us(), "us"));
    });

    b.layer("khdn", |b| {
        let cfg = KhdnConfig::default();
        let warm = cfg.state_update_ms + cfg.state_update_ms / 4;
        let mut h = harness(KhdnCan::new(cfg, n, n), n, dim, pools, 7, warm);
        let (q, _) = query_kernel(b, "khdn.query", "khdn", &mut h, n, pools);
        out.push(Metric::new("khdn.query_us", q.us(), "us"));
    });
}

fn scenario(b: &mut Bench, sc: &Scenario, out: &mut Vec<Metric>) {
    let text = ScenarioSpec {
        name: "benchmark".to_string(),
        scenario: *sc,
    }
    .render();
    let parse = b.sample("scenario.parse", "scenario", || {
        for _ in 0..200 {
            black_box(ScenarioSpec::parse(&text).expect("rendered spec parses"));
        }
        200
    });
    out.push(Metric::new("scenario.parse_us", parse.us(), "us"));

    // Record → text → parse → replay on the workload's shape shrunk to a
    // size one round trip of which fits the kernel budget.
    let small = ScenarioSpec {
        name: "benchmark-replay".to_string(),
        scenario: Scenario {
            n_nodes: sc.n_nodes.min(200),
            duration_ms: sc.duration_ms.min(3_600_000),
            ..*sc
        },
    };
    let (mut record_s, mut replay_s) = (Vec::new(), Vec::new());
    let mut verdict = Ok(());
    b.sample("scenario.replay", "scenario", || {
        let ((report, trace), rec_s) = timed(|| record_run(&small));
        let text = trace.to_text();
        let (replayed, rep_s) = timed(|| Trace::from_text(&text).and_then(|t| replay_run(&t)));
        record_s.push(rec_s);
        replay_s.push(rep_s);
        match replayed {
            Ok(r) if r.fingerprint() == report.fingerprint() => {}
            Ok(_) => verdict = Err("replayed fingerprint differs".to_string()),
            Err(why) => verdict = Err(why),
        }
        1
    });
    b.ops.record("trace record/replay round trip", verdict);
    out.push(Metric::new(
        "scenario.replay_ratio",
        median(&replay_s) / median(&record_s),
        "ratio",
    ));
}

/// Run every layer's kernels for the workload scenario `sc`, in
/// `BENCHMARK.json` order.
pub fn run(b: &mut Bench, sc: &Scenario) -> Vec<Metric> {
    let mut out = Vec::new();
    let (n, dim) = (sc.n_nodes, overlay_dim(sc));
    let mut pools = Pools::new(sc, dim);
    b.layer("simcore", |b| simcore(b, n, &mut pools, &mut out));
    b.layer("net", |b| net(b, sc, &mut pools, &mut out));
    let ov = b.layer("can", |b| can(b, n, dim, &mut pools, &mut out));
    let tables = b.layer("inscan", |b| inscan(b, n, &ov, &mut pools, &mut out));
    b.layer("overlay", |b| overlay(b, n, &mut pools, &mut out));
    b.layer("psm", |b| psm(b, &mut pools, &mut out));
    b.layer("workload", |b| workload(b, sc, &mut pools, &mut out));
    b.layer("metrics", |b| metrics(b, &mut out));
    protocols(b, sc, &ov, &tables, &mut pools, &mut out);
    b.layer("scenario", |b| scenario(b, sc, &mut out));
    b.layer("soc", |b| {
        let boot = bootstrap_only(sc);
        let mut verdict = Ok(());
        let s = b.sample("soc.bootstrap", "soc", || {
            if let Err(why) = run_caught(&boot) {
                verdict = Err(why);
            }
            1
        });
        b.ops.record("bootstrap-only run", verdict);
        out.push(Metric::new("soc.bootstrap_ms", s.ms(), "ms"));
    });
    out
}
