//! Whole-system events: the start of a run, churn swaps and metric
//! samples. They act on the system as a whole rather than on one node, and
//! ride the same queue as every node event.

use super::event::Ev;
use super::nodes::Nodes;
use rand::RngExt;
use soc_overlay::DiscoveryOverlay;
use soc_psm::{NodeExec, PsmConfig};
use soc_types::{NodeId, QueryId, ResVec, SimMillis, PERF_DIMS};

impl<P: DiscoveryOverlay> Nodes<'_, P> {
    /// Protocol start-up, then the arrival chains over the live nodes in id
    /// order, then the first sample and the first churn swap.
    pub(super) fn start(&mut self) {
        let live = std::mem::take(&mut self.live);
        self.with_proto(|p, ctx| p.on_start(ctx, &live));
        // `on_start` emits for every node in one callback; dropped here, the
        // recycled buffers regrow to the size of one steady-state event's
        // effects instead of keeping start-up's.
        self.fx_buf = Vec::new();
        self.fx_next = Vec::new();
        for &node in &live {
            self.schedule_arrival(node);
        }
        self.live = live;
        self.queue.schedule_at(self.sc.sample_ms, Ev::Sample);
        self.schedule_next_churn();
    }

    /// A position in `live`, drawn uniformly from `rng_churn`.
    fn random_live_pos(&mut self) -> usize {
        self.rng_churn.random_range(0..self.live.len())
    }

    fn schedule_next_churn(&mut self) {
        if self.sc.churn_degree <= 0.0 {
            return;
        }
        // churn_degree × n swaps per 3000 s window.
        let swaps_per_window = self.sc.churn_degree * self.sc.n_nodes as f64;
        let interval = (3_000_000.0 / swaps_per_window).max(1.0) as SimMillis;
        // Jitter to avoid lockstep with other periodic events.
        let jitter = self.rng_churn.random_range(0..=interval / 4 + 1);
        self.queue
            .schedule_at(self.queue.now() + interval + jitter, Ev::ChurnSwap);
    }

    pub(super) fn churn_swap(&mut self) {
        // One departure + one join, uniformly spread over time (§IV-B).
        let victim_pos = (self.live.len() > 1).then(|| self.random_live_pos());
        let victim = victim_pos.map(|pos| self.live[pos]);
        let newcomer = self.free_ids.front().copied();
        let now = self.queue.now();
        self.source.note_churn(now, victim, newcomer);
        if let Some(pos) = victim_pos {
            self.node_leave(pos);
        }
        if let Some(newcomer) = self.free_ids.pop_front() {
            self.node_join(newcomer);
        }
        self.schedule_next_churn();
    }

    /// The node at `pos` in `live` departs.
    fn node_leave(&mut self, pos: usize) {
        let victim = self.live[pos];
        // Phase 1 — drain the victim's executor. Resident tasks are lost
        // with the node, unless checkpointing (§VI future work) captures
        // their progress and re-submits the residual work to the overlay.
        // Tasks the departed node ran for itself have no surviving owner to
        // resubmit them, so they die either way.
        let mut resubmits: Vec<(ResVec, f64, SimMillis)> = Vec::new();
        let drained = self.hosts.execs[victim.idx()].drain_tasks(self.queue.now());
        // Its scheduled completion (if any) dies with it; clearing the
        // memo also stops a later incarnation of the id from matching
        // the leftover event through an epoch collision.
        self.comp_sched[victim.idx()] = None;
        for t in drained {
            let (_, is_local) = self
                .task_info
                .remove(&t.id)
                .expect("resident task has no expectation record");
            if is_local {
                self.tracker.task_local_killed();
                continue;
            }
            if !self.sc.checkpointing {
                self.tracker.task_killed();
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
            let pos = self.random_live_pos();
            let resubmitter = self.live[pos];
            self.submit_query(resubmitter, demand, remaining_s, submitted_at);
        }
        // Phase 3 — abandon the victim's outstanding discoveries. Swept
        // after the resubmission loop on purpose: the victim is still live
        // at resubmission time, so a residual routed through the victim
        // itself is caught and killed right here.
        let dead_queries: Vec<QueryId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.requester == victim)
            .map(|(&q, _)| q)
            .collect();
        for q in dead_queries {
            self.pending.remove(&q);
            self.tracker.task_killed();
        }
        // Phase 4 — structural removal, then protocol notifications.
        let reass = self.hosts.can.leave(victim);
        let affected: Vec<NodeId> = reass.iter().map(|&(n, _)| n).collect();
        let gone = self.live.swap_remove(pos);
        debug_assert_eq!(gone, victim, "live moved under a departure");
        self.with_proto(|p, ctx| p.on_node_left(ctx, victim));
        self.with_proto(|p, ctx| p.on_zones_reassigned(ctx, &affected));
        // The machine behind this id is gone: its suspicions and everyone's
        // suspicions about it must not leak onto the slot's next occupant.
        self.hosts.blacklist.clear_node(victim);
        self.free_ids.push_back(victim);
    }

    fn node_join(&mut self, newcomer: NodeId) {
        let point = soc_can::overlay::random_point(self.hosts.can.dim(), &mut self.rng_overlay);
        let splitter = self.hosts.can.join(newcomer, &point);
        // Churn replacements are as likely to be hostile as the original
        // population (internally gated per fraction — no draw when clean).
        self.hosts.fault.on_join(newcomer, &mut self.rng_fault_plan);
        // Fresh machine: new capacity, idle scheduler.
        let cap = self.source.node_capacity(&mut self.rng_caps);
        self.hosts.execs[newcomer.idx()] = NodeExec::new(cap, PsmConfig::default());
        self.comp_sched[newcomer.idx()] = None;
        self.live.push(newcomer);
        self.with_proto(|p, ctx| p.on_node_joined(ctx, newcomer));
        self.with_proto(|p, ctx| p.on_zones_reassigned(ctx, &[splitter]));
        // Restart the arrival chain.
        self.schedule_arrival(newcomer);
    }

    /// Metric sample: record the point on the tracker's series. Also the
    /// blacklist-peak observation point.
    pub(super) fn sample(&mut self) {
        let now = self.queue.now();
        self.tracker.sample(now);
        let active = self.hosts.blacklist.active_total(now);
        self.blacklist_peak = self.blacklist_peak.max(active);
        if now + self.sc.sample_ms <= self.sc.duration_ms {
            self.queue.schedule_at(now + self.sc.sample_ms, Ev::Sample);
        }
    }
}
