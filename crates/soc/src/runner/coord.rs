//! The coordinator: churn, sampling and everything else that needs every
//! shard at once, between windows.

use super::shard::Shard;
use super::World;
use crate::scenario::Scenario;
use rand::rngs::SmallRng;
use rand::RngExt;
use soc_metrics::{MetricPoint, TaskTracker};
use soc_net::FaultPlan;
use soc_overlay::{DiscoveryOverlay, Phase, Profiler};
use soc_psm::{NodeExec, PsmConfig};
use soc_simcore::EventQueue;
use soc_types::{NodeId, QueryId, ResVec, SimMillis, PERF_DIMS};
use soc_workload::WorkloadSource;
use std::collections::VecDeque;

/// Coordinator events: whole-system concerns that need every shard at
/// once. Processed between windows.
pub(super) enum CoEv {
    ChurnSwap,
    Sample,
}

/// Append a sample point, replacing the last point when it carries the
/// same timestamp (the coordinator's final deadline sample can coincide
/// with the periodic chain's last tick, and the re-sample wins).
pub(super) fn push_point(series: &mut Vec<MetricPoint>, p: MetricPoint) {
    if series.last().map(|q| q.t_ms) == Some(p.t_ms) {
        *series.last_mut().expect("non-empty series") = p;
    } else {
        series.push(p);
    }
}

/// Shard `sid`, set up for coordinator work at the between-windows instant
/// `now` (the time its handlers and protocol hooks will read).
fn shard_at<P: DiscoveryOverlay>(
    shards: &mut [Shard<P>],
    sid: usize,
    now: SimMillis,
) -> &mut Shard<P> {
    let sh = &mut shards[sid];
    sh.now = now;
    sh
}

/// The coordinator: whole-system state no shard may own — the live-node
/// set, id recycling, the master RNG streams (capacities, overlay points,
/// churn, fault flags), the master fault plan, and the sampled series.
/// Runs only between windows, when no shard is mid-event.
pub(super) struct Coord<'s> {
    pub(super) sc: &'s Scenario,
    /// The master workload source: bootstrap + churn capacity draws (the
    /// shards' forks serve every delay and task).
    pub(super) source: &'s mut dyn WorkloadSource,
    pub(super) cq: EventQueue<CoEv>,
    pub(super) rng_caps: SmallRng,
    pub(super) rng_churn: SmallRng,
    pub(super) rng_overlay: SmallRng,
    pub(super) rng_fault: SmallRng,
    /// Authoritative fault-flag assignment; shards hold synced mirrors.
    pub(super) fault_master: FaultPlan,
    pub(super) free_ids: VecDeque<NodeId>,
    pub(super) live: Vec<NodeId>,
    pub(super) live_pos: Vec<usize>,
    pub(super) series: Vec<MetricPoint>,
    pub(super) checkpoint_resubmits: u64,
    /// Peak simultaneously-active blacklist entries, sampled at every
    /// metric sample instant (summed across per-shard blacklists with all
    /// shards quiescent between windows — a deterministic definition that
    /// replaces the serial engine's strike-time bookkeeping).
    pub(super) blacklist_peak: u64,
    pub(super) prof: Profiler,
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

    pub(super) fn handle_coev<P: DiscoveryOverlay>(
        &mut self,
        world: &mut World,
        shards: &mut [Shard<P>],
        now: SimMillis,
        ev: CoEv,
    ) {
        match ev {
            CoEv::ChurnSwap => {
                let t = self.prof.start();
                self.churn_swap(now, world, shards);
                self.prof.stop(Phase::ChurnSwap, t);
            }
            CoEv::Sample => {
                let t = self.prof.start();
                self.sample(now, shards);
                self.prof.stop(Phase::Sample, t);
            }
        }
    }

    fn churn_swap<P: DiscoveryOverlay>(
        &mut self,
        now: SimMillis,
        world: &mut World,
        shards: &mut [Shard<P>],
    ) {
        // One departure + one join, uniformly spread over time (§IV-B).
        let victim = if self.live.len() > 1 {
            Some(self.random_live())
        } else {
            None
        };
        let newcomer = self.free_ids.front().copied();
        // Churn notifications reach the master and every fork, in shard-id
        // order — the canonical sequence the fork contract promises.
        self.source.note_churn(now, victim, newcomer);
        for s in shards.iter_mut() {
            s.source.note_churn(now, victim, newcomer);
        }
        if let Some(victim) = victim {
            self.node_leave(victim, now, world, shards);
        }
        if let Some(newcomer) = self.free_ids.pop_front() {
            self.node_join(newcomer, now, world, shards);
        }
        self.schedule_next_churn(now);
    }

    fn node_leave<P: DiscoveryOverlay>(
        &mut self,
        victim: NodeId,
        now: SimMillis,
        w: &mut World,
        shards: &mut [Shard<P>],
    ) {
        let vshard = w.shard_of[victim.idx()];
        // Phase 1 — drain the victim's executor (its shard owns the rows).
        // Resident tasks are lost with the node, unless checkpointing (§VI
        // future work) captures their progress and re-submits the residual
        // work to the overlay. Tasks the departed node ran for itself have
        // no surviving owner to resubmit them, so they die either way.
        let mut resubmits: Vec<(ResVec, f64, SimMillis)> = Vec::new();
        let vs = shard_at(shards, vshard, now);
        let drained = vs.hosts.execs[victim].drain_tasks(now);
        // Its scheduled completion (if any) dies with it; clearing the
        // memo also stops a later incarnation of the id from matching
        // the leftover event through an epoch collision.
        vs.comp_sched[victim] = None;
        for t in drained {
            let (_, is_local) = vs
                .task_info
                .remove(&t.id)
                .expect("resident task has no expectation record");
            if is_local {
                vs.tracker.task_local_killed();
                continue;
            }
            if !self.sc.checkpointing {
                vs.tracker.task_killed();
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
            shard_at(shards, w.shard_of[resubmitter.idx()], now).submit_query(
                resubmitter,
                demand,
                remaining_s,
                submitted_at,
                w,
            );
        }
        // Phase 3 — abandon the victim's outstanding discoveries. Swept
        // after the resubmission loop on purpose: the victim is still live
        // at resubmission time (serial semantics), so a residual routed
        // through the victim itself is caught and killed right here.
        let vs = shard_at(shards, vshard, now);
        let dead_queries: Vec<QueryId> = vs
            .pending
            .iter()
            .filter(|(_, p)| p.requester == victim)
            .map(|(&q, _)| q)
            .collect();
        for q in dead_queries {
            vs.pending.remove(&q);
            vs.tracker.task_killed();
        }
        // Phase 4 — structural removal, then protocol notifications.
        let reass = w.can.leave(victim);
        let affected: Vec<NodeId> = reass.iter().map(|&(n, _)| n).collect();
        for s in shards.iter_mut() {
            s.hosts.alive[victim.idx()] = false;
        }
        self.live_remove(victim);
        // The victim's rows and the queries it requested live on its own
        // shard's protocol instance; no other instance has anything of it
        // to drop (the hook is local bookkeeping by contract: no sends, no
        // RNG).
        shard_at(shards, vshard, now).with_proto(w, |p, ctx| p.on_node_left(ctx, victim));
        // Zone-reassignment notifications go to each affected node's own
        // shard (the hook draws per-node randomness and sends adverts).
        for sid in 0..shards.len() {
            let own: Vec<NodeId> = affected
                .iter()
                .copied()
                .filter(|n| w.shard_of[n.idx()] == sid)
                .collect();
            shard_at(shards, sid, now).with_proto(w, |p, ctx| p.on_zones_reassigned(ctx, &own));
        }
        // The machine behind this id is gone: its suspicions (a row on its
        // own shard) and everyone's suspicions about it (entries in any
        // shard's rows) must not leak onto the slot's next occupant.
        for s in shards.iter_mut() {
            s.hosts.blacklist.clear_node(victim);
        }
        self.free_ids.push_back(victim);
    }

    fn node_join<P: DiscoveryOverlay>(
        &mut self,
        newcomer: NodeId,
        now: SimMillis,
        w: &mut World,
        shards: &mut [Shard<P>],
    ) {
        let point = soc_can::overlay::random_point(w.can.dim(), &mut self.rng_overlay);
        let splitter = w.can.join(newcomer, &point);
        // Churn replacements are as likely to be hostile as the original
        // population (internally gated per fraction — no draw when clean).
        // The master plan draws; every shard mirror gets the verdict.
        self.fault_master.on_join(newcomer, &mut self.rng_fault);
        let evil = self.fault_master.is_blackhole(newcomer);
        let liar = self.fault_master.is_liar(newcomer);
        for sh in shards.iter_mut() {
            sh.hosts.alive[newcomer.idx()] = true;
            sh.hosts.fault.set_flags(newcomer, evil, liar);
        }
        // Fresh machine: new capacity, idle scheduler. The capacity draw
        // stays on the master source/stream; only the owner shard's
        // executor row is authoritative, so only it is rebuilt.
        let cap = self.source.node_capacity(&mut self.rng_caps);
        let oshard = w.shard_of[newcomer.idx()];
        let os = shard_at(shards, oshard, now);
        os.hosts.execs[newcomer] = NodeExec::new(cap, PsmConfig::default());
        os.comp_sched[newcomer] = None;
        self.live_add(newcomer);
        os.with_proto(w, |p, ctx| p.on_node_joined(ctx, newcomer));
        shard_at(shards, w.shard_of[splitter.idx()], now)
            .with_proto(w, |p, ctx| p.on_zones_reassigned(ctx, &[splitter]));
        // Restart the arrival chain on the owner shard's workload fork.
        shard_at(shards, oshard, now).schedule_arrival(newcomer);
    }

    /// Metric sample between windows: fold every shard's tracker into a
    /// fresh aggregate (fixed shard order) and record the point on the
    /// coordinator's series. Also the blacklist-peak observation point.
    fn sample<P: DiscoveryOverlay>(&mut self, now: SimMillis, shards: &[Shard<P>]) {
        let mut agg = TaskTracker::new();
        let mut active = 0u64;
        for sh in shards {
            agg.absorb(&sh.tracker);
            active += sh.hosts.blacklist.active_total(now);
        }
        let p = agg.sample(now);
        push_point(&mut self.series, p);
        self.blacklist_peak = self.blacklist_peak.max(active);
        if now + self.sc.sample_ms <= self.sc.duration_ms {
            self.cq.schedule_at(now + self.sc.sample_ms, CoEv::Sample);
        }
    }
}
