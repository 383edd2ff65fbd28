//! The coordinator: churn, sampling and everything else that acts on the
//! system as a whole rather than on one node's event.

use super::nodes::Nodes;
use crate::scenario::Scenario;
use rand::rngs::SmallRng;
use rand::RngExt;
use soc_overlay::{DiscoveryOverlay, Phase};
use soc_psm::{NodeExec, PsmConfig};
use soc_simcore::EventQueue;
use soc_types::{NodeId, QueryId, ResVec, SimMillis, PERF_DIMS};
use std::collections::VecDeque;

/// Coordinator events: whole-system concerns. At equal instants they run
/// before node events.
pub(super) enum CoEv {
    ChurnSwap,
    Sample,
}

/// The coordinator: whole-system state no node owns — the live-node set,
/// id recycling, the master RNG streams (capacities, overlay points,
/// churn, fault flags) and the blacklist peak.
pub(super) struct Coord<'s> {
    pub(super) sc: &'s Scenario,
    pub(super) cq: EventQueue<CoEv>,
    pub(super) rng_caps: SmallRng,
    pub(super) rng_churn: SmallRng,
    pub(super) rng_overlay: SmallRng,
    pub(super) rng_fault: SmallRng,
    pub(super) free_ids: VecDeque<NodeId>,
    pub(super) live: Vec<NodeId>,
    pub(super) live_pos: Vec<usize>,
    pub(super) checkpoint_resubmits: u64,
    /// Peak simultaneously-active blacklist entries, sampled at every
    /// metric sample instant.
    pub(super) blacklist_peak: u64,
}

impl Coord<'_> {
    fn live_add(&mut self, node: NodeId) {
        self.live_pos[node.idx()] = self.live.len();
        self.live.push(node);
    }

    fn live_remove(&mut self, node: NodeId) {
        let pos = self.live_pos[node.idx()];
        debug_assert_ne!(pos, usize::MAX);
        let last = *self.live.last().expect("non-empty live set");
        self.live.swap_remove(pos);
        if last != node {
            self.live_pos[last.idx()] = pos;
        }
        self.live_pos[node.idx()] = usize::MAX;
    }

    fn random_live(&mut self) -> NodeId {
        self.live[self.rng_churn.random_range(0..self.live.len())]
    }

    pub(super) fn schedule_next_churn(&mut self, now: SimMillis) {
        if self.sc.churn_degree <= 0.0 {
            return;
        }
        // churn_degree × n swaps per 3000 s window.
        let swaps_per_window = self.sc.churn_degree * self.sc.n_nodes as f64;
        let interval = (3_000_000.0 / swaps_per_window).max(1.0) as SimMillis;
        // Jitter to avoid lockstep with other periodic events.
        let jitter = self.rng_churn.random_range(0..=interval / 4 + 1);
        self.cq
            .schedule_at(now + interval + jitter, CoEv::ChurnSwap);
    }

    /// Run one coordinator event at `now`; node handlers and protocol
    /// hooks it calls read `now` too.
    pub(super) fn handle_coev<P: DiscoveryOverlay>(
        &mut self,
        nodes: &mut Nodes<'_, P>,
        now: SimMillis,
        ev: CoEv,
    ) {
        nodes.now = now;
        let t = nodes.prof.start();
        match ev {
            CoEv::ChurnSwap => {
                self.churn_swap(now, nodes);
                nodes.prof.stop(Phase::ChurnSwap, t);
            }
            CoEv::Sample => {
                self.sample(now, nodes);
                nodes.prof.stop(Phase::Sample, t);
            }
        }
    }

    fn churn_swap<P: DiscoveryOverlay>(&mut self, now: SimMillis, nodes: &mut Nodes<'_, P>) {
        // One departure + one join, uniformly spread over time (§IV-B).
        let victim = if self.live.len() > 1 {
            Some(self.random_live())
        } else {
            None
        };
        let newcomer = self.free_ids.front().copied();
        nodes.source.note_churn(now, victim, newcomer);
        if let Some(victim) = victim {
            self.node_leave(victim, now, nodes);
        }
        if let Some(newcomer) = self.free_ids.pop_front() {
            self.node_join(newcomer, nodes);
        }
        self.schedule_next_churn(now);
    }

    fn node_leave<P: DiscoveryOverlay>(
        &mut self,
        victim: NodeId,
        now: SimMillis,
        nodes: &mut Nodes<'_, P>,
    ) {
        // Phase 1 — drain the victim's executor. Resident tasks are lost
        // with the node, unless checkpointing (§VI future work) captures
        // their progress and re-submits the residual work to the overlay.
        // Tasks the departed node ran for itself have no surviving owner to
        // resubmit them, so they die either way.
        let mut resubmits: Vec<(ResVec, f64, SimMillis)> = Vec::new();
        let drained = nodes.hosts.execs[victim.idx()].drain_tasks(now);
        // Its scheduled completion (if any) dies with it; clearing the
        // memo also stops a later incarnation of the id from matching
        // the leftover event through an epoch collision.
        nodes.comp_sched[victim.idx()] = None;
        for t in drained {
            let (_, is_local) = nodes
                .task_info
                .remove(&t.id)
                .expect("resident task has no expectation record");
            if is_local {
                nodes.tracker.task_local_killed();
                continue;
            }
            if !self.sc.checkpointing {
                nodes.tracker.task_killed();
                continue;
            }
            let remaining_s = NodeExec::remaining_nominal_s(&t, PERF_DIMS).max(1.0);
            resubmits.push((t.expect, remaining_s, t.submitted_at));
        }
        // Phase 2 — re-submit checkpointed residuals. A surviving node acts
        // as the resubmitter (the original requester may itself have
        // churned; SOC users re-attach).
        for (demand, remaining_s, submitted_at) in resubmits {
            self.checkpoint_resubmits += 1;
            let resubmitter = self.random_live();
            nodes.submit_query(resubmitter, demand, remaining_s, submitted_at);
        }
        // Phase 3 — abandon the victim's outstanding discoveries. Swept
        // after the resubmission loop on purpose: the victim is still live
        // at resubmission time, so a residual routed through the victim
        // itself is caught and killed right here.
        let dead_queries: Vec<QueryId> = nodes
            .pending
            .iter()
            .filter(|(_, p)| p.requester == victim)
            .map(|(&q, _)| q)
            .collect();
        for q in dead_queries {
            nodes.pending.remove(&q);
            nodes.tracker.task_killed();
        }
        // Phase 4 — structural removal, then protocol notifications.
        let reass = nodes.can.leave(victim);
        let affected: Vec<NodeId> = reass.iter().map(|&(n, _)| n).collect();
        nodes.hosts.alive[victim.idx()] = false;
        self.live_remove(victim);
        nodes.with_proto(|p, ctx| p.on_node_left(ctx, victim));
        nodes.with_proto(|p, ctx| p.on_zones_reassigned(ctx, &affected));
        // The machine behind this id is gone: its suspicions and everyone's
        // suspicions about it must not leak onto the slot's next occupant.
        nodes.hosts.blacklist.clear_node(victim);
        self.free_ids.push_back(victim);
    }

    fn node_join<P: DiscoveryOverlay>(&mut self, newcomer: NodeId, nodes: &mut Nodes<'_, P>) {
        let point = soc_can::overlay::random_point(nodes.can.dim(), &mut self.rng_overlay);
        let splitter = nodes.can.join(newcomer, &point);
        // Churn replacements are as likely to be hostile as the original
        // population (internally gated per fraction — no draw when clean).
        nodes.hosts.alive[newcomer.idx()] = true;
        nodes.hosts.fault.on_join(newcomer, &mut self.rng_fault);
        // Fresh machine: new capacity, idle scheduler.
        let cap = nodes.source.node_capacity(&mut self.rng_caps);
        nodes.hosts.execs[newcomer.idx()] = NodeExec::new(cap, PsmConfig::default());
        nodes.comp_sched[newcomer.idx()] = None;
        self.live_add(newcomer);
        nodes.with_proto(|p, ctx| p.on_node_joined(ctx, newcomer));
        nodes.with_proto(|p, ctx| p.on_zones_reassigned(ctx, &[splitter]));
        // Restart the arrival chain.
        nodes.schedule_arrival(newcomer);
    }

    /// Metric sample: record the point on the tracker's series. Also the
    /// blacklist-peak observation point.
    fn sample<P: DiscoveryOverlay>(&mut self, now: SimMillis, nodes: &mut Nodes<'_, P>) {
        nodes.tracker.sample(now);
        let active = nodes.hosts.blacklist.active_total(now);
        self.blacklist_peak = self.blacklist_peak.max(active);
        if now + self.sc.sample_ms <= self.sc.duration_ms {
            self.cq.schedule_at(now + self.sc.sample_ms, CoEv::Sample);
        }
    }
}
