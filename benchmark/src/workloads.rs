//! The four workloads. Each is a closed loop with one client: the next
//! simulation starts when the previous one has returned its report.

use soc_sim::{ProtocolChoice, Scenario};

/// One benchmark workload: a scenario shape whose seed is an argument.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why this workload is in the set (which layers it loads or bypasses).
    pub why: &'static str,
    build: fn() -> Scenario,
}

impl Workload {
    /// The scenario this workload simulates for `seed`.
    pub fn scenario(&self, seed: u64) -> Scenario {
        (self.build)().seed(seed)
    }
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Every workload, in `BENCHMARK.json` order.
pub static ALL: [Workload; 4] = [
    Workload {
        name: "paper-cell",
        why: "Table III n=2000 HID-CAN cell, first 2 simulated hours: steady-state \
              deliver + proto_timer dispatch over a ~40 MB footprint; the reference \
              point for any per-event optimisation",
        build: || {
            Scenario::paper(ProtocolChoice::Hid)
                .nodes(2000)
                .lambda(0.5)
                .hours(2)
        },
    },
    Workload {
        name: "large-n",
        why: "n=10000 HID-CAN in 32-node LANs, 8 inline shards, ~155 MB: footprint far \
              beyond cache, largest routing, bootstrap and engine-tax share; shows what \
              paper-cell hides",
        build: || Scenario {
            n_nodes: 10_000,
            lan_size: 32,
            mean_arrival_s: 600.0,
            mean_duration_s: 600.0,
            sample_ms: 600_000,
            duration_ms: 7 * 60_000,
            ..Scenario::paper(ProtocolChoice::Hid)
        },
    },
    Workload {
        name: "churn-storm",
        why: "HID-CAN n=600 under churn 0.9: joins/leaves, table refresh, route-cache \
              invalidation and PSM kills write the can/inscan/overlay layers, so a \
              read-path gain that taxes mutation is caught",
        build: || Scenario {
            n_nodes: 600,
            churn_degree: 0.9,
            mean_arrival_s: 1200.0,
            mean_duration_s: 1200.0,
            sample_ms: 1_800_000,
            duration_ms: 4 * 3_600_000,
            ..Scenario::paper(ProtocolChoice::Hid)
        },
    },
    Workload {
        name: "gossip-baseline",
        why: "Newscast n=2000 for 24 h: bypasses can routing, inscan and the record \
              cache and has 12x the tasks per event; a PID-CAN/INSCAN optimisation must \
              show no change here",
        build: || {
            Scenario::paper(ProtocolChoice::Newscast)
                .nodes(2000)
                .lambda(0.5)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_seed_reaches_the_scenario() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(ALL[..i].iter().all(|p| p.name != w.name));
            assert_eq!(w.scenario(7).seed, 7);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(by_name(w.name).is_some());
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn gossip_baseline_is_the_only_non_can_protocol() {
        for w in &ALL {
            let newscast = w.scenario(1).protocol == ProtocolChoice::Newscast;
            assert_eq!(newscast, w.name == "gossip-baseline");
        }
    }
}
