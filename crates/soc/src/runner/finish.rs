//! Tear-down: assemble the report.

use super::nodes::Nodes;
use crate::profile::Phase;
use crate::report::{FaultSummary, RunReport};
use soc_overlay::DiscoveryOverlay;

/// Take the final sample and assemble the report.
#[expect(
    clippy::disallowed_types,
    reason = "wall_ms is diagnostic-only: fingerprint() ignores it by name"
)]
pub(super) fn finish<P: DiscoveryOverlay>(
    mut nodes: Nodes<'_, P>,
    wall_start: std::time::Instant,
) -> RunReport {
    let sc = nodes.sc;
    let deadline = sc.duration_ms;

    // The work inside the loop's arms is counted, not timed: the runner's
    // counters and the queue's own scheduling counter.
    let (hosts, counters) = (&nodes.hosts, &nodes.counters);
    for (phase, n) in [
        (Phase::Route, counters.routes),
        (Phase::CacheProbe, counters.probes),
        (Phase::PsmPredict, counters.predicts),
        (Phase::QueuePush, nodes.queue.scheduled_total()),
        (Phase::Latency, counters.sends),
    ] {
        nodes.prof.add_count(phase, n);
    }
    let faults = FaultSummary {
        blackhole_nodes: hosts.fault.blackhole_count(),
        liar_nodes: hosts.fault.liar_count(),
        blacklisted: hosts.blacklist.blacklisted_total,
        blacklist_peak: nodes
            .blacklist_peak
            .max(hosts.blacklist.active_total(deadline)),
        drops_blackhole: hosts.fault.drops_blackhole,
        drops_loss: hosts.fault.drops_loss,
        drops_burst: hosts.fault.drops_burst,
        drops_partition: hosts.fault.drops_partition,
        retries: counters.retries,
        suspicions: counters.suspicions,
        suspected_evil: counters.suspected_evil,
        suspected_honest: counters.suspected_honest,
    };

    // Final sample exactly at the deadline. When the periodic chain
    // already sampled there (duration an exact multiple of sample_ms),
    // the point is replaced rather than duplicated — and the replacement
    // matters: events tied at t=deadline may have run after the in-loop
    // Sample, so only a re-sample taken here is guaranteed to agree with
    // the aggregate counts reported below.
    let tracker = &mut nodes.tracker;
    tracker.sample(deadline);
    tracker
        .check_conservation()
        .expect("task conservation violated");

    let stats = &nodes.stats;
    let breakdown = stats
        .breakdown()
        .into_iter()
        .map(|(k, c)| (k.label().to_string(), c))
        .collect();

    RunReport {
        label: nodes.proto.name().to_string(),
        scenario: sc.descriptor(),
        series: tracker.series().to_vec(),
        generated: tracker.generated(),
        finished: tracker.finished(),
        failed: tracker.failed(),
        killed: tracker.killed(),
        rejected: tracker.rejected(),
        checkpoint_resubmits: nodes.checkpoint_resubmits,
        completion_scheduled: counters.comp_scheduled,
        completion_dedup_skips: counters.comp_dedup_skips,
        completion_dead_pops: counters.comp_dead_pops,
        local_generated: tracker.local_generated(),
        local_finished: tracker.local_finished(),
        oracle_matchable: sc.oracle.then_some(counters.oracle_matchable),
        oracle_record_matchable: sc.oracle.then_some(counters.oracle_record_matchable),
        oracle_mean_matching: (sc.oracle && tracker.generated() > 0)
            .then(|| counters.oracle_match_sum as f64 / tracker.generated() as f64),
        t_ratio: tracker.t_ratio(),
        f_ratio: tracker.f_ratio(),
        fairness: tracker.fairness(),
        mean_efficiency: tracker.mean_efficiency(),
        msg_total: stats.total(),
        msg_per_node: stats.total() as f64 / sc.n_nodes as f64,
        msg_breakdown: breakdown,
        faults,
        wall_ms: wall_start.elapsed().as_millis(),
        profile: nodes.prof.summary(),
        diag: nodes.proto.diag_string(),
    }
}
