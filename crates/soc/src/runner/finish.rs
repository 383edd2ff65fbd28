//! Tear-down: fold the shards into one report.

use super::coord::{push_point, Coord};
use super::shard::{Shard, ShardCounters};
use crate::report::{FaultSummary, RunReport};
use soc_metrics::TaskTracker;
use soc_net::MsgStats;
use soc_overlay::{DiscoveryOverlay, Phase};

/// Tear down the shards and assemble the report.
pub(super) fn finish<P: DiscoveryOverlay>(
    mut coord: Coord<'_>,
    mut shs: Vec<Shard<P>>,
    wall_start: std::time::Instant,
) -> RunReport {
    let deadline = coord.sc.duration_ms;

    // One fold over the shards, in shard order, of everything they tally.
    // Queue pushes are too fine-grained to time individually; the queues'
    // own scheduling counters give the invocation count for free.
    let mut agg = TaskTracker::new();
    let mut active = 0u64;
    let mut stats = MsgStats::new(shs[0].hosts.alive.len());
    let mut pushes = coord.cq.scheduled_total();
    let mut counters = ShardCounters::default();
    let mut faults = FaultSummary {
        blackhole_nodes: coord.fault_master.blackhole_count(),
        liar_nodes: coord.fault_master.liar_count(),
        ..FaultSummary::default()
    };
    for sh in &shs {
        agg.absorb(&sh.tracker);
        active += sh.hosts.blacklist.active_total(deadline);
        stats.absorb(&sh.stats);
        coord.prof.absorb(&sh.prof);
        pushes += sh.queue.scheduled_total();
        counters.absorb(&sh.counters);
        faults.blacklisted += sh.hosts.blacklist.blacklisted_total;
        faults.drops_blackhole += sh.hosts.fault.drops_blackhole;
        faults.drops_loss += sh.hosts.fault.drops_loss;
        faults.drops_burst += sh.hosts.fault.drops_burst;
        faults.drops_partition += sh.hosts.fault.drops_partition;
    }
    coord.prof.add_count(Phase::QueuePush, pushes);
    faults.retries = counters.retries;
    faults.suspicions = counters.suspicions;
    faults.suspected_evil = counters.suspected_evil;
    faults.suspected_honest = counters.suspected_honest;
    faults.blacklist_peak = coord.blacklist_peak.max(active);

    // Final sample exactly at the deadline. When the periodic chain
    // already sampled there (duration an exact multiple of sample_ms),
    // the point is replaced rather than duplicated — and the replacement
    // matters: events tied at t=deadline may have run after the in-loop
    // Sample, so only a re-sample taken here is guaranteed to agree with
    // the aggregate counts reported below.
    let p = agg.sample(deadline);
    push_point(&mut coord.series, p);
    agg.set_series(std::mem::take(&mut coord.series));
    agg.check_conservation()
        .expect("task conservation violated");

    let breakdown = stats
        .breakdown()
        .into_iter()
        .map(|(k, c)| (k.label().to_string(), c))
        .collect();

    // Protocol diagnostics: shard 0's instance absorbs the others'.
    let mut first = shs.remove(0);
    for sh in &shs {
        first.proto.absorb_diag(&sh.proto);
    }
    let sc = coord.sc;

    RunReport {
        label: first.proto.name().to_string(),
        scenario: sc.descriptor(),
        series: agg.series().to_vec(),
        generated: agg.generated(),
        finished: agg.finished(),
        failed: agg.failed(),
        killed: agg.killed(),
        rejected: agg.rejected(),
        checkpoint_resubmits: coord.checkpoint_resubmits,
        completion_scheduled: counters.comp_scheduled,
        completion_dedup_skips: counters.comp_dedup_skips,
        completion_dead_pops: counters.comp_dead_pops,
        local_generated: agg.local_generated(),
        local_finished: agg.local_finished(),
        oracle_matchable: sc.oracle.then_some(counters.oracle_matchable),
        oracle_record_matchable: sc.oracle.then_some(counters.oracle_record_matchable),
        oracle_mean_matching: (sc.oracle && agg.generated() > 0)
            .then(|| counters.oracle_match_sum as f64 / agg.generated() as f64),
        t_ratio: agg.t_ratio(),
        f_ratio: agg.f_ratio(),
        fairness: agg.fairness(),
        mean_efficiency: agg.mean_efficiency(),
        msg_total: stats.total(),
        msg_per_node: stats.total() as f64 / sc.n_nodes as f64,
        msg_breakdown: breakdown,
        faults,
        wall_ms: wall_start.elapsed().as_millis(),
        profile: coord.prof.summary(),
        diag: first.proto.diag_string(),
    }
}
