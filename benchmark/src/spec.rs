//! What the benchmark promises to report: the same lists `BENCHMARK.json`
//! carries at the repo root (a test keeps the two identical).

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use crate::Metric;
use Better::{Higher, Lower};

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening (share of the median).
    pub bound: f64,
    /// A simulated statistic: a function of `(workload, seed)` alone, so
    /// two runs of one seed must agree to the last bit.
    pub exact: bool,
}

/// The end-to-end metrics every workload's timed run reports.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.05,
        exact: false,
    },
    EndToEnd {
        name: "t_ratio",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "msgs_per_node",
        unit: "count",
        better: Lower,
        bound: 0.15,
        exact: true,
    },
];

/// A per-layer metric: name, unit, direction, and whether it is a count
/// that must repeat exactly between two traced runs of one seed (the rest
/// are host measurements and carry the box's noise).
pub struct PerLayer {
    /// Metric name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Must repeat exactly for a given `(workload, seed)`.
    pub exact: bool,
}

const fn measured(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// The per-layer metrics every workload's traced run reports, in order.
pub const PER_LAYER: [PerLayer; 66] = [
    // In situ: the simulator's own profiler, one traced rep.
    count("soc.events", "count", Lower),
    measured("soc.ns_per_event", "ns"),
    measured("soc.deliver_ms", "ms"),
    measured("soc.proto_timer_ms", "ms"),
    measured("soc.arrival_ms", "ms"),
    measured("soc.query_timeout_ms", "ms"),
    measured("soc.task_arrive_ms", "ms"),
    measured("soc.completion_ms", "ms"),
    measured("soc.churn_swap_ms", "ms"),
    measured("soc.sample_ms", "ms"),
    measured("soc.barrier_wait_ms", "ms"),
    measured("simcore.queue_pop_ms", "ms"),
    measured("inscan.route_ms", "ms"),
    measured("overlay.cache_probe_ms", "ms"),
    measured("psm.predict_ms", "ms"),
    measured("net.latency_ms", "ms"),
    measured("net.fault_ms", "ms"),
    measured("net.stats_flush_ms", "ms"),
    measured("soc.unattributed_ms", "ms"),
    measured("soc.trace_overhead_pct", "%"),
    count("simcore.queue_pops", "count", Lower),
    count("simcore.queue_pushes", "count", Lower),
    count("inscan.route_calls", "count", Lower),
    count("overlay.cache_probes", "count", Lower),
    count("psm.predicts", "count", Lower),
    count("net.sends", "count", Lower),
    count("can.churn_swaps", "count", Lower),
    count("simcore.pops_per_event", "ratio", Lower),
    count("psm.dead_pop_ratio", "ratio", Lower),
    count("soc.query_fail_ratio", "ratio", Lower),
    count("soc.reject_ratio", "ratio", Lower),
    count("net.msgs_total", "count", Lower),
    // The counting allocator, same rep. Counts, but not exact ones: under
    // churn they differ by a few calls in millions between two runs of
    // one seed (std's per-process hash seeds change the order some maps
    // are walked in, and so what the sorts behind them allocate).
    measured("soc.allocs_per_task", "count"),
    measured("soc.alloc_kb_per_task", "KB"),
    measured("soc.peak_heap_mb", "MB"),
    // From outside: kernels over each layer's public functions.
    measured("simcore.queue_hold_ns", "ns"),
    measured("net.latency_ns", "ns"),
    measured("can.bootstrap_ms", "ms"),
    measured("can.owner_lookup_ns", "ns"),
    measured("can.churn_swap_us", "us"),
    measured("inscan.refresh_all_ms", "ms"),
    measured("inscan.next_hop_ns", "ns"),
    PerLayer {
        name: "inscan.route_cache_hit_ratio",
        unit: "ratio",
        better: Higher,
        exact: false,
    },
    count("inscan.route_hops_mean", "count", Lower),
    measured("overlay.insert_ns", "ns"),
    measured("overlay.probe_ns", "ns"),
    count("overlay.qualified_per_probe", "count", Higher),
    measured("overlay.purge_ns", "ns"),
    measured("psm.admit_ns", "ns"),
    measured("psm.predict_ns", "ns"),
    measured("psm.collect_ns", "ns"),
    measured("workload.draw_ns", "ns"),
    measured("metrics.sample_us", "us"),
    measured("pidcan.diffusion_round_us", "us"),
    measured("pidcan.query_us", "us"),
    measured("pidcan.msgs_per_query", "count"),
    measured("gossip.cycle_us", "us"),
    measured("khdn.query_us", "us"),
    measured("scenario.parse_us", "us"),
    measured("scenario.replay_ratio", "ratio"),
    measured("soc.bootstrap_ms", "ms"),
    // The box.
    PerLayer {
        name: "host.nproc",
        unit: "count",
        better: Higher,
        exact: false,
    },
    measured("host.wall_raw_s", "s"),
    measured("host.calib_a_ms", "ms"),
    measured("host.calib_b_ms", "ms"),
    measured("host.steal_ticks", "count"),
];

/// Direction and (for end-to-end metrics) bound of a listed metric.
pub fn describe(name: &str) -> Option<(Better, Option<f64>)> {
    let e2e = END_TO_END.iter().find(|e| e.name == name);
    let layer = PER_LAYER.iter().find(|p| p.name == name);
    e2e.map(|e| (e.better, Some(e.bound)))
        .or(layer.map(|p| (p.better, None)))
}

/// A run must report exactly the listed metrics, in order, with the
/// listed units; anything else would be refused by the driver anyway.
pub fn check_listed<'a>(
    reported: &[Metric],
    listed: impl ExactSizeIterator<Item = (&'a str, &'a str)>,
) -> Result<(), String> {
    if reported.len() != listed.len() {
        return Err(format!(
            "{} metrics reported, {} listed",
            reported.len(),
            listed.len()
        ));
    }
    for (m, (name, unit)) in reported.iter().zip(listed) {
        if m.name != name || m.unit != unit {
            return Err(format!(
                "reported {} [{}] where {name} [{unit}] is listed",
                m.name, m.unit
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use soc_sim::json::{self, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("no {key}"))
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_code_reports() {
        let m = manifest();
        let listed = |key: &str| {
            m.get(key)
                .and_then(Value::as_array)
                .expect("a list")
                .to_vec()
        };

        let wl = listed("workloads");
        assert_eq!(wl.len(), workloads::ALL.len());
        for (j, w) in wl.iter().zip(&workloads::ALL) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }

        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), e.name);
            assert_eq!(field(j, "unit"), e.unit);
            assert_eq!(field(j, "better"), e.better.label());
            assert_eq!(
                j.get("bound").and_then(Value::as_f64),
                Some(e.bound),
                "{}",
                e.name
            );
        }

        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, p) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), p.name);
            assert_eq!(field(j, "unit"), p.unit);
            assert_eq!(field(j, "better"), p.better.label());
        }

        assert_eq!(
            m.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        names.extend(workloads::ALL.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END
            .iter()
            .all(|e| e.bound <= setup.bound && e.bound <= 0.25));
    }
}
