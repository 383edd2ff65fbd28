//! The traced run: per-layer metrics and the span file.
//!
//! One untraced rep (the reference wall time and fingerprint), one rep
//! with the simulator's own observation-only profiler on and the counting
//! allocator armed, then the per-layer kernels. The benchmark adds no
//! probe to the program: in-situ numbers are read from
//! `RunReport::profile`. End-to-end metrics are never taken from here.

use crate::calib::{kernel_a, ChaseBuffer};
use crate::clock::timed;
use crate::kernels::{self, Bench};
use crate::span::Recorder;
use crate::verify::{check, conservation, run_caught, same_fingerprint, Ops};
use crate::workloads::Workload;
use crate::{alloc, host, Metric};
use soc_sim::ProtocolChoice;
use std::path::Path;

/// Everything one traced run produced.
pub struct Outcome {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub per_layer: Vec<Metric>,
    /// Where the spans were written.
    pub span_file: String,
    /// Operations attempted and failed.
    pub ops: Ops,
}

/// `(metric, profiler phase)` pairs reported as milliseconds.
const PHASE_MS: [(&str, &str); 16] = [
    ("soc.deliver_ms", "deliver"),
    ("soc.proto_timer_ms", "proto_timer"),
    ("soc.arrival_ms", "arrival"),
    ("soc.query_timeout_ms", "query_timeout"),
    ("soc.task_arrive_ms", "task_arrive"),
    ("soc.completion_ms", "completion"),
    ("soc.churn_swap_ms", "churn_swap"),
    ("soc.sample_ms", "sample"),
    ("soc.barrier_wait_ms", "barrier_wait"),
    ("simcore.queue_pop_ms", "queue_pop"),
    ("inscan.route_ms", "route"),
    ("overlay.cache_probe_ms", "cache_probe"),
    ("psm.predict_ms", "psm_predict"),
    ("net.latency_ms", "latency"),
    ("net.fault_ms", "fault"),
    ("net.stats_flush_ms", "stats_flush"),
];

/// `(metric, profiler phase)` pairs reported as invocation counts.
const PHASE_COUNT: [(&str, &str); 7] = [
    ("simcore.queue_pops", "queue_pop"),
    ("simcore.queue_pushes", "queue_push"),
    ("inscan.route_calls", "route"),
    ("overlay.cache_probes", "cache_probe"),
    ("psm.predicts", "psm_predict"),
    ("net.sends", "latency"),
    ("can.churn_swaps", "churn_swap"),
];

/// `num / den`; a ratio over zero reads as 0 (see [`Metric::new`]).
fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// Run the traced run of `workload` for `seed`.
pub fn run(workload: &Workload, seed: u64) -> Result<Outcome, String> {
    let sc = workload.scenario(seed);
    let mut ops = Ops::default();
    let mut out: Vec<Metric> = Vec::new();
    let steal0 = host::steal_ticks();

    // The box's speed right now, so a reader can tell a slow layer from a
    // slow afternoon.
    let chase = ChaseBuffer::new();
    let calib_a_s = timed(kernel_a).1;
    let calib_b_s = timed(|| chase.kernel_b()).1;
    drop(chase);

    let mut rec = Recorder::new();
    let root = rec.open(&format!("workload:{}", workload.name), "soc");

    let id = rec.open("rep.untraced", "soc");
    let plain = run_caught(&sc).map_err(|e| format!("untraced rep {e}"))?;
    let untraced_s = rec.close(id, 1);
    ops.record("untraced rep", conservation(&plain));
    let fingerprint = plain.fingerprint();

    let id = rec.open("rep", "soc");
    std::env::set_var("SOC_PROFILE", "on");
    alloc::arm();
    let traced = run_caught(&sc);
    let heap = alloc::disarm();
    std::env::remove_var("SOC_PROFILE");
    let traced_s = rec.close(id, 1);
    let traced = traced.map_err(|e| format!("traced rep {e}"))?;
    // The profiler is observation-only: same bits as the untraced rep.
    ops.record("traced rep", same_fingerprint(&traced, &fingerprint));
    let profile = traced
        .profile
        .as_ref()
        .ok_or("the traced rep carried no profile")?;
    for p in &profile.phases {
        rec.attr(id, p.label, p.ns, p.count);
    }
    let traced_ns = (traced_s * 1e9) as u64;
    let dispatch_ns = profile.dispatch_ns();
    ops.record(
        "dispatch phases fit inside the traced wall",
        check(dispatch_ns <= traced_ns, || {
            format!("dispatch {dispatch_ns} ns > traced wall {traced_ns} ns")
        }),
    );
    let unattributed_ns = traced_ns.saturating_sub(dispatch_ns);
    rec.attr(id, "unattributed", unattributed_ns, 0);

    let events = profile.dispatch_count();
    let tasks = traced.generated + traced.local_generated;
    out.push(Metric::new("soc.events", events as f64, "count"));
    out.push(Metric::new(
        "soc.ns_per_event",
        untraced_s * 1e9 / events.max(1) as f64,
        "ns",
    ));
    for (metric, phase) in PHASE_MS {
        out.push(Metric::new(metric, profile.ns(phase) as f64 / 1e6, "ms"));
    }
    out.push(Metric::new(
        "soc.unattributed_ms",
        unattributed_ns as f64 / 1e6,
        "ms",
    ));
    out.push(Metric::new(
        "soc.trace_overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    ));
    for (metric, phase) in PHASE_COUNT {
        out.push(Metric::new(metric, profile.count(phase) as f64, "count"));
    }
    out.push(Metric::new(
        "simcore.pops_per_event",
        ratio(profile.count("queue_pop"), events),
        "ratio",
    ));
    out.push(Metric::new(
        "psm.dead_pop_ratio",
        ratio(traced.completion_dead_pops, traced.completion_scheduled),
        "ratio",
    ));
    out.push(Metric::new(
        "soc.query_fail_ratio",
        ratio(traced.failed, traced.generated),
        "ratio",
    ));
    out.push(Metric::new(
        "soc.reject_ratio",
        ratio(traced.rejected, traced.generated),
        "ratio",
    ));
    out.push(Metric::new(
        "net.msgs_total",
        traced.msg_total as f64,
        "count",
    ));
    out.push(Metric::new(
        "soc.allocs_per_task",
        ratio(heap.calls, tasks),
        "count",
    ));
    out.push(Metric::new(
        "soc.alloc_kb_per_task",
        ratio(heap.bytes, tasks) / 1024.0,
        "KB",
    ));
    out.push(Metric::new(
        "soc.peak_heap_mb",
        heap.peak_live_bytes as f64 / (1 << 20) as f64,
        "MB",
    ));
    if sc.protocol == ProtocolChoice::Newscast {
        // The bypass workload must really bypass what it claims to.
        let (routes, probes) = (profile.count("route"), profile.count("cache_probe"));
        ops.record(
            "gossip bypasses inscan routing and the record cache",
            check(routes == 0 && probes == 0, || {
                format!("{routes} route calls, {probes} cache probes")
            }),
        );
    }

    let id = rec.open("kernels", "soc");
    let mut bench = Bench {
        rec: &mut rec,
        ops: &mut ops,
    };
    out.extend(kernels::run(&mut bench, &sc));
    rec.close(id, 0);
    rec.close(root, 0);

    out.push(Metric::new("host.nproc", host::nproc() as f64, "count"));
    out.push(Metric::new("host.wall_raw_s", untraced_s, "s"));
    out.push(Metric::new("host.calib_a_ms", calib_a_s * 1e3, "ms"));
    out.push(Metric::new("host.calib_b_ms", calib_b_s * 1e3, "ms"));
    out.push(Metric::new(
        "host.steal_ticks",
        (host::steal_ticks() - steal0) as f64,
        "count",
    ));

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("{}.trace.json", workload.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, rec.to_json(workload.name, seed)))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;

    Ok(Outcome {
        per_layer: out,
        span_file: file.display().to_string(),
        ops,
    })
}
