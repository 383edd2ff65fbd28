use super::boot::bootstrap;
use super::build_source;
use super::event::Ev;
use super::nodes::Nodes;
use crate::report::RunReport;
use crate::scenario::{ProtocolChoice, Scenario};
use pidcan::{PidCan, PidCanConfig};
use soc_net::FaultConfig;
use soc_overlay::HostInfo;
use soc_types::NodeId;
use soc_workload::WorkloadSource;

// These tests run with the defence off (the `[fault] defense` default;
// the defended A/B lives in the bench suite).

fn hostile(seed: u64, f: FaultConfig) -> RunReport {
    Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .seed(seed)
        .fault(f)
        .run()
}

#[test]
fn clean_run_reports_no_fault_activity() {
    let r = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .seed(31)
        .run();
    assert!(
        !r.faults.any(),
        "clean run moved fault counters: {:?}",
        r.faults
    );
}

#[test]
fn explicit_zero_fault_config_is_bitwise_clean() {
    // `[fault]` with all-zero fractions must equal no fault model at
    // all — the zero-fault identity, in-crate.
    let clean = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .seed(32)
        .run();
    let zeroed = hostile(32, FaultConfig::default());
    assert_eq!(clean.fingerprint(), zeroed.fingerprint());
}

#[test]
fn blackholes_swallow_messages_and_hurt_discovery() {
    let clean = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .seed(33)
        .run();
    let r = hostile(
        33,
        FaultConfig {
            blackhole_frac: 0.3,
            ..FaultConfig::default()
        },
    );
    assert!(r.faults.blackhole_nodes > 0, "no blackholes sampled");
    assert!(r.faults.drops_blackhole > 0, "blackholes dropped nothing");
    assert_eq!(r.faults.retries, 0, "defence off must never retry");
    assert!(
        r.t_ratio < clean.t_ratio,
        "30% blackholes should depress T-Ratio: {} vs clean {}",
        r.t_ratio,
        clean.t_ratio
    );
}

#[test]
fn liars_attract_dispatches_that_get_rejected() {
    let clean = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .seed(34)
        .run();
    let r = hostile(
        34,
        FaultConfig {
            liar_frac: 0.25,
            ..FaultConfig::default()
        },
    );
    assert!(r.faults.liar_nodes > 0);
    assert!(
        r.rejected > clean.rejected,
        "corrupt adverts should spike rejections: {} vs clean {}",
        r.rejected,
        clean.rejected
    );
}

#[test]
fn loss_channels_count_their_drops() {
    let r = hostile(
        35,
        FaultConfig {
            loss: 0.05,
            burst_loss: 0.8,
            burst_len: 20,
            burst_gap: 200,
            ..FaultConfig::default()
        },
    );
    assert!(r.faults.drops_loss > 0, "iid channel dropped nothing");
    assert!(r.faults.drops_burst > 0, "burst channel dropped nothing");
}

#[test]
fn partitions_cut_cross_half_traffic_in_windows() {
    let r = hostile(
        36,
        FaultConfig {
            partition_period_ms: 1_800_000,
            partition_ms: 600_000,
            ..FaultConfig::default()
        },
    );
    assert!(r.faults.drops_partition > 0, "partition cut nothing");
    assert_eq!(r.faults.drops_loss + r.faults.drops_burst, 0);
}

#[test]
fn fault_runs_preserve_task_conservation() {
    let r = hostile(
        37,
        FaultConfig {
            blackhole_frac: 0.15,
            loss: 0.02,
            ..FaultConfig::default()
        },
    );
    assert!(r.generated > 0);
    assert!(
        r.finished + r.failed + r.killed + r.rejected <= r.generated,
        "conservation under faults"
    );
}

/// A started HID run of `sc`, for a test that pops and handles its events
/// itself.
fn started_hid<'s>(sc: &Scenario, source: &'s mut dyn WorkloadSource) -> Nodes<'s, PidCan> {
    // Cycles scaled as `run_scenario_with` scales them.
    let cfg = PidCanConfig::hid().scale_cycles((sc.mean_duration_s / 3000.0).min(1.0));
    let dim = cfg.overlay_dim();
    let make = |max_nodes| PidCan::new(cfg, dim, sc.n_nodes, max_nodes);
    let mut nodes = bootstrap(sc, source, make, dim);
    nodes.start();
    nodes
}

#[test]
fn message_slots_track_the_queued_deliveries() {
    // Churn kills receivers in flight, blackholes swallow deliveries and
    // lossy channels drop sends before they are queued: no path may leak a
    // slot or free one twice.
    let sc = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .seed(38)
        .churn(0.6)
        .fault(FaultConfig {
            blackhole_frac: 0.15,
            loss: 0.05,
            ..FaultConfig::default()
        });
    let mut source = build_source(&sc);
    let mut nodes = started_hid(&sc, &mut source);
    // Deliveries pending: the sends no fault dropped, less those popped.
    let (mut popped, mut to_dead, mut peak) = (0u64, 0u64, 0u64);
    loop {
        let f = &nodes.hosts.fault;
        let dropped = f.drops_loss + f.drops_burst + f.drops_partition;
        let pending = nodes.counters.sends - dropped - popped;
        assert_eq!(
            nodes.msgs.live() as u64,
            pending,
            "at {} ms",
            nodes.queue.now()
        );
        peak = peak.max(pending);
        let Some((_, ev)) = nodes.queue.pop_until(sc.duration_ms) else {
            break;
        };
        if let Ev::Deliver { to, .. } = ev {
            popped += 1;
            to_dead += u64::from(!nodes.hosts.is_alive(to));
        }
        nodes.handle(ev);
    }
    let f = &nodes.hosts.fault;
    assert!(to_dead > 0, "no delivery met a dead receiver");
    assert!(f.drops_blackhole > 0 && f.drops_loss > 0, "no fault drop");
    assert!(
        nodes.msgs.len() as u64 <= peak,
        "{} slots for at most {peak} pending deliveries",
        nodes.msgs.len()
    );
    let mut queued = 0;
    while let Some((_, ev)) = nodes.queue.pop() {
        queued += usize::from(matches!(ev, Ev::Deliver { .. }));
    }
    assert_eq!(nodes.msgs.live(), queued);
}

#[test]
fn churn_keeps_the_live_list_equal_to_the_overlay() {
    // The overlay's partition tree says who is alive; the runner's `live`
    // list only orders them for churn's draws. Every swap must leave the
    // two holding the same ids, and the queue's clock must only advance.
    let mut sc = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .seed(39)
        .churn(0.9);
    sc.checkpointing = true;
    let mut source = build_source(&sc);
    let mut nodes = started_hid(&sc, &mut source);
    let (mut swaps, mut last) = (0u32, nodes.queue.now());
    while let Some((t, ev)) = nodes.queue.pop_until(sc.duration_ms) {
        assert!(t >= last, "clock went back from {last} to {t} ms");
        assert_eq!(nodes.queue.now(), t);
        last = t;
        let swap = matches!(ev, Ev::ChurnSwap);
        nodes.handle(ev);
        if swap {
            swaps += 1;
            let mut live = nodes.live.clone();
            live.sort();
            let can: Vec<NodeId> = nodes.hosts.can.live_nodes().collect();
            assert_eq!(live, can, "after churn swap {swaps} at {t} ms");
            assert!(live.iter().all(|&n| nodes.hosts.is_alive(n)));
        }
    }
    assert!(swaps > 10, "only {swaps} churn swaps");
    assert!(nodes.checkpoint_resubmits > 0, "no checkpoint resubmitted");
}
