//! The state of a run — every node's host state, the overlay and network
//! they sit on, the event queue — and the handlers of node events.

use super::event::{dispatch_phase, DispatchSpec, Ev, Msgs};
use crate::defense::{Blacklist, DefenseParams};
use crate::profile::{Phase, Profiler};
use crate::scenario::Scenario;
use rand::rngs::SmallRng;
use rand::RngExt;
use soc_can::CanOverlay;
use soc_metrics::TaskTracker;
use soc_net::{FaultPlan, LanTopology, MsgKind, MsgStats};
use soc_overlay::{Candidate, Ctx, DiscoveryOverlay, Effect, HostInfo, QueryRequest};
use soc_psm::{NodeExec, RunningTask};
use soc_simcore::EventQueue;
use soc_types::{NodeId, QueryId, ResVec, SimMillis, TaskId, PERF_DIMS};
use soc_workload::WorkloadSource;
use std::collections::{BTreeMap, VecDeque};

/// Host-side state visible to protocols: the CAN overlay, whose partition
/// tree is the one record of which ids are alive, and one row per node id,
/// indexed by [`NodeId::idx`]. Churn swaps are the only writer of the
/// overlay and the fault flags.
pub(super) struct Hosts {
    pub(super) can: CanOverlay,
    pub(super) execs: Vec<NodeExec>,
    pub(super) cmax: ResVec,
    /// Injected-fault state: which nodes are blackholes/liars, loss
    /// channels, drop counters. All-zero config = cooperative network.
    pub(super) fault: FaultPlan,
    /// Per-node suspicion blacklists (defence layer; empty when off), one
    /// row per observer (`by`).
    pub(super) blacklist: Blacklist,
}

impl HostInfo for Hosts {
    fn availability(&self, node: NodeId) -> ResVec {
        if self.fault.is_liar(node) {
            // Corrupt index advert: the liar claims the global capacity
            // ceiling, attracting dispatches that then fail the real
            // qualification re-check on arrival. Ground-truth paths (the
            // oracle, local exec, arrival re-checks) read `execs` directly
            // and see the real availability.
            return self.cmax;
        }
        self.execs[node.idx()].availability()
    }
    fn cmax(&self) -> &ResVec {
        &self.cmax
    }
    #[inline]
    fn is_alive(&self, node: NodeId) -> bool {
        self.can.is_alive(node)
    }
    fn is_suspect(&self, by: NodeId, node: NodeId, now: SimMillis) -> bool {
        self.fault.config().defense && self.blacklist.is_blacklisted(by, node, now)
    }
}

/// A discovery in progress, keyed by query id.
pub(super) struct PendingQuery {
    pub(super) requester: NodeId,
    demand: ResVec,
    duration_s: f64,
    wanted: usize,
    submitted_at: SimMillis,
    candidates: Vec<Candidate>,
    /// Defence-layer re-issues so far (bounded by `DefenseParams::max_retries`).
    attempts: u32,
}

/// Expected execution time per Equation (4)'s description: the work
/// amount over the system-wide average capacity.
fn expected_time(demand: &ResVec, duration_s: f64, avg_cap: &ResVec) -> f64 {
    let mut t: f64 = 0.0;
    for d in 0..PERF_DIMS {
        let w = demand[d] * duration_s;
        if avg_cap[d] > 0.0 {
            t = t.max(w / avg_cap[d]);
        }
    }
    t.max(1e-6)
}

/// What the node side counts while it runs, for the report.
#[derive(Default)]
pub(super) struct Counters {
    pub(super) comp_scheduled: u64,
    pub(super) comp_dedup_skips: u64,
    pub(super) comp_dead_pops: u64,
    pub(super) retries: u64,
    pub(super) suspicions: u64,
    pub(super) suspected_evil: u64,
    pub(super) suspected_honest: u64,
    pub(super) oracle_matchable: u64,
    pub(super) oracle_match_sum: u64,
    pub(super) oracle_record_matchable: u64,
    /// Routing steps and record-cache probes the protocol reported
    /// through its `Ctx`.
    pub(super) routes: u64,
    pub(super) probes: u64,
    /// PSM completion predictions.
    pub(super) predicts: u64,
    /// Sends to a live target (each samples a latency).
    pub(super) sends: u64,
}

/// Fold a finished protocol callback's traffic and work counts into the
/// run's and hand back its effects.
fn flush<M>(ctx: Ctx<'_, M>, counters: &mut Counters, stats: &mut MsgStats) -> Vec<Effect<M>> {
    counters.routes += ctx.routes;
    counters.probes += ctx.probes;
    let (fx, sent) = ctx.finish();
    stats.record_batch(&sent);
    fx
}

/// Every node of the run: the LAN topology they sit on, the run's one
/// event queue, their row of every per-node table, the live set and the
/// RNG streams.
pub(super) struct Nodes<'s, P: DiscoveryOverlay> {
    pub(super) sc: Scenario,
    pub(super) topo: LanTopology,
    /// The workload source: every capacity, delay and task of the run.
    pub(super) source: &'s mut dyn WorkloadSource,
    pub(super) proto: P,
    pub(super) hosts: Hosts,
    /// The run's events, and its clock: [`EventQueue::now`] is the
    /// timestamp of the event being handled (0 during start-up).
    pub(super) queue: EventQueue<Ev>,
    /// The bodies of the deliveries in `queue`.
    pub(super) msgs: Msgs<P::Msg>,
    /// BTreeMap (not HashMap): the churn-kill sweep iterates this map, and
    /// ordered iteration keeps that sweep deterministic by construction.
    pub(super) pending: BTreeMap<QueryId, PendingQuery>,
    /// Recycled effect buffers: one `Ctx` is built per delivered event, so
    /// handing the drained Vec back avoids an allocation per event.
    pub(super) fx_buf: Vec<Effect<P::Msg>>,
    pub(super) fx_next: Vec<Effect<P::Msg>>,
    /// Expectation + locality of every task currently *resident* on an
    /// executor, keyed by task id (inserted on admit, removed on finish or
    /// churn-drain).
    pub(super) task_info: BTreeMap<TaskId, (f64, bool)>,
    /// Per-node completion-event memo: the `(fire time, epoch tag)` of the
    /// single scheduled `Ev::Completion` this node considers live. A popped
    /// completion that does not match is stale (its prediction was
    /// superseded) and is discarded in O(1); a new prediction equal to the
    /// already-scheduled fire time re-validates the queued event instead of
    /// enqueueing a duplicate.
    pub(super) comp_sched: Vec<Option<(SimMillis, u64)>>,
    /// Defence tunables (fixed; `[fault] defense` only switches the layer
    /// on or off).
    pub(super) defense: DefenseParams,
    pub(super) counters: Counters,
    pub(super) tracker: TaskTracker,
    pub(super) stats: MsgStats,
    pub(super) avg_cap: ResVec,
    pub(super) next_task: u64,
    pub(super) next_query: u64,
    /// Consumed only through `source.next_delay`/`next_task`.
    pub(super) rng_work: SmallRng,
    pub(super) rng_proto: SmallRng,
    pub(super) rng_net: SmallRng,
    pub(super) rng_dispatch: SmallRng,
    /// Fault-injection stream: consumed only when the fault model is
    /// enabled, so clean runs never touch it.
    pub(super) rng_fault: SmallRng,
    /// Master streams: joiners' capacities, overlay points, churn victims
    /// and timing, and the fault plan's draws of who is hostile (at
    /// bootstrap and on every join).
    pub(super) rng_caps: SmallRng,
    pub(super) rng_overlay: SmallRng,
    pub(super) rng_churn: SmallRng,
    pub(super) rng_fault_plan: SmallRng,
    /// The live nodes in the order churn draws its victims from: the
    /// bootstrap ids ascending, then each departure swap-removed and each
    /// join pushed. Who is alive is the overlay's to say.
    pub(super) live: Vec<NodeId>,
    /// Vacated ids, recycled oldest first by churn joins.
    pub(super) free_ids: VecDeque<NodeId>,
    pub(super) checkpoint_resubmits: u64,
    /// Peak simultaneously-active blacklist entries, sampled at every
    /// metric sample instant.
    pub(super) blacklist_peak: u64,
    /// Where the loop's wall time goes (`SOC_PROFILE=on`, read once at
    /// construction). Observation-only: it draws no randomness, owns no
    /// simulation state, and its summary is excluded from the fingerprint
    /// — the `profile_equivalence` suite pins on/off runs
    /// bitwise-identical.
    pub(super) prof: Profiler,
}

impl<P: DiscoveryOverlay> Nodes<'_, P> {
    fn alloc_tid(&mut self) -> TaskId {
        let t = TaskId(self.next_task);
        self.next_task += 1;
        t
    }

    fn alloc_qid(&mut self) -> QueryId {
        let q = QueryId(self.next_query);
        self.next_query += 1;
        q
    }

    /// Fault verdict for one in-flight control message. Returns true when
    /// a partition window or a loss channel swallows it. Draws from
    /// `rng_fault` only when the fault model is enabled — clean runs take
    /// the constant-false branch and consume no randomness.
    fn fault_drops_send(&mut self, from: NodeId, to: NodeId) -> bool {
        if !self.hosts.fault.config().enabled() {
            return false;
        }
        let (la, lb) = (self.topo.lan_of(from), self.topo.lan_of(to));
        if self
            .hosts
            .fault
            .partitioned(self.queue.now(), la, lb, self.topo.n_lans())
        {
            self.hosts.fault.count_partition_drop();
            return true;
        }
        self.hosts.fault.channel_drop(&mut self.rng_fault)
    }

    /// A message from `by` to `of` was swallowed by a fault: when the
    /// defence is on, `by` notices the missing forward/ack after the
    /// suspicion delay and registers a strike.
    fn suspect_later(&mut self, by: NodeId, of: NodeId) {
        if self.sc.fault.defense {
            self.queue.schedule_at(
                self.queue.now() + self.defense.suspect_after_ms,
                Ev::Suspect { by, of },
            );
        }
    }

    fn on_suspect(&mut self, by: NodeId, of: NodeId) {
        if !self.sc.fault.defense || !self.hosts.is_alive(by) {
            return;
        }
        self.counters.suspicions += 1;
        let now = self.queue.now();
        if self.hosts.blacklist.strike(by, of, now, &self.defense) {
            // Confusion accounting: did suspicion land on a real offender?
            if self.hosts.fault.is_blackhole(of) || self.hosts.fault.is_liar(of) {
                self.counters.suspected_evil += 1;
            } else {
                self.counters.suspected_honest += 1;
            }
        }
    }

    /// Register a discovery for `requester` and hand it to the protocol:
    /// a fresh query id, the pending record, its deadline, `start_query`.
    pub(super) fn submit_query(
        &mut self,
        requester: NodeId,
        demand: ResVec,
        duration_s: f64,
        submitted_at: SimMillis,
    ) {
        let qid = self.alloc_qid();
        self.pending.insert(
            qid,
            PendingQuery {
                requester,
                demand,
                duration_s,
                wanted: self.sc.delta,
                submitted_at,
                candidates: Vec::new(),
                attempts: 0,
            },
        );
        self.queue.schedule_at(
            self.queue.now() + self.sc.query_timeout_ms,
            Ev::QueryTimeout { qid },
        );
        let req = QueryRequest {
            qid,
            requester,
            demand,
            wanted: self.sc.delta,
        };
        self.with_proto(|p, ctx| p.start_query(ctx, req));
    }

    /// Query deadline fired. With the defence on, a query that heard
    /// nothing at all gets bounded re-issues with exponential backoff
    /// (fresh random search walks take different paths around the
    /// blackholes); otherwise — and on exhausted retries — it settles with
    /// whatever it has.
    fn on_query_timeout(&mut self, qid: QueryId) {
        if self.sc.fault.defense {
            let retry = match self.pending.get_mut(&qid) {
                Some(p)
                    if p.candidates.is_empty()
                        && p.attempts < self.defense.max_retries
                        && self.hosts.is_alive(p.requester) =>
                {
                    p.attempts += 1;
                    Some((
                        p.attempts,
                        QueryRequest {
                            qid,
                            requester: p.requester,
                            demand: p.demand,
                            wanted: p.wanted,
                        },
                    ))
                }
                _ => None,
            };
            if let Some((attempts, req)) = retry {
                self.counters.retries += 1;
                let backoff = self.sc.query_timeout_ms << attempts.min(8);
                self.queue
                    .schedule_at(self.queue.now() + backoff, Ev::QueryTimeout { qid });
                self.with_proto(|p, ctx| p.start_query(ctx, req));
                return;
            }
        }
        self.settle_query(qid);
    }

    /// Run one protocol callback and apply its effects. The callback's
    /// batched per-kind traffic counts flush as a single `record_batch`
    /// here instead of one scattered `MsgStats` write per message, and its
    /// routing and probe counts join the run's.
    pub(super) fn with_proto<F>(&mut self, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg>),
    {
        let buf = std::mem::take(&mut self.fx_buf);
        let now = self.queue.now();
        let mut ctx = Ctx::new_in(now, &self.hosts.can, &self.hosts, &mut self.rng_proto, buf);
        f(&mut self.proto, &mut ctx);
        let fx = flush(ctx, &mut self.counters, &mut self.stats);
        self.fx_buf = self.apply_effects(fx);
    }

    /// Apply queued effects; returns the drained buffer for reuse.
    ///
    /// Latency sampling stays here, per message in effect order, so the
    /// `rng_net` stream is consumed in one canonical order.
    fn apply_effects(&mut self, mut work: Vec<Effect<P::Msg>>) -> Vec<Effect<P::Msg>> {
        let now = self.queue.now();
        // Iterate: drops may generate follow-up effects (hop budgets bound
        // the chain).
        while !work.is_empty() {
            let mut next = std::mem::take(&mut self.fx_next);
            for f in work.drain(..) {
                match f {
                    Effect::Send {
                        from,
                        to,
                        kind,
                        msg,
                    } => {
                        if self.hosts.is_alive(to) {
                            // Latency is sampled before the fault verdict so
                            // the per-send `rng_net` draw sequence is exactly
                            // the clean run's — the stream-isolation invariant.
                            self.counters.sends += 1;
                            let lat = self.topo.latency(from, to, &mut self.rng_net);
                            if self.fault_drops_send(from, to) {
                                self.suspect_later(from, to);
                            } else {
                                let msg = self.msgs.put(msg);
                                self.queue.schedule_at(
                                    now + lat.max(1),
                                    Ev::Deliver {
                                        from,
                                        to,
                                        kind,
                                        msg,
                                    },
                                );
                            }
                        } else {
                            let mut ctx =
                                Ctx::new(now, &self.hosts.can, &self.hosts, &mut self.rng_proto);
                            self.proto.on_message_dropped(&mut ctx, from, to, msg);
                            next.extend(flush(ctx, &mut self.counters, &mut self.stats));
                        }
                    }
                    Effect::Timer { node, kind, delay } => {
                        self.queue
                            .schedule_at(now + delay.max(1), Ev::ProtoTimer { node, kind });
                    }
                    Effect::QueryResults { qid, candidates } => {
                        self.on_query_results(qid, candidates);
                    }
                    Effect::QueryDone { qid } => {
                        self.settle_query(qid);
                    }
                }
            }
            // `work` is drained; swap so follow-ups (if any) run next and
            // the empty buffer is parked for the next round.
            std::mem::swap(&mut work, &mut next);
            self.fx_next = next;
        }
        work
    }

    fn on_query_results(&mut self, qid: QueryId, candidates: Vec<Candidate>) {
        let Some(p) = self.pending.get_mut(&qid) else {
            return; // late results for a settled query
        };
        for c in candidates {
            if !p.candidates.iter().any(|x| x.node == c.node) {
                p.candidates.push(c);
            }
        }
        if p.candidates.len() >= p.wanted {
            self.settle_query(qid);
        }
    }

    /// Finish a discovery: pick the best-fit live candidate and dispatch,
    /// or count a failed task.
    fn settle_query(&mut self, qid: QueryId) {
        let Some(p) = self.pending.remove(&qid) else {
            return;
        };
        self.proto.on_query_settled(qid);
        if !self.hosts.is_alive(p.requester) {
            // The requester churned away mid-query; its task died with it.
            self.tracker.task_killed();
            return;
        }
        // The candidates are already "best-fit" by construction: the
        // randomized agent/jump search returns records from the zones
        // nearest the demand corner. Picking uniformly at random among the
        // δ returned candidates is the paper's probabilistic contention
        // control. Measured at full scale (seeds 1–3, HID λ = 1 / 0.5 /
        // 0.25 and SID λ = 0.5), neither tightest-first nor loosest-first
        // moves the median T-Ratio more than 0.006 from uniform, inside the
        // ≈ 0.01 seed spread: under stale records the pick is not a lever.
        let mut ranked: Vec<Candidate> = p
            .candidates
            .iter()
            .filter(|c| self.hosts.is_alive(c.node))
            .copied()
            .collect();
        if ranked.is_empty() {
            self.tracker.task_failed();
            return;
        }
        // Fisher–Yates on the candidate order (a dedicated dispatch RNG
        // stream keeps the workload stream pure for trace replay).
        for i in (1..ranked.len()).rev() {
            let j = self.rng_dispatch.random_range(0..=i);
            ranked.swap(i, j);
        }
        let target = ranked[0].node;
        let fallbacks: Vec<NodeId> = ranked[1..].iter().map(|c| c.node).collect();
        let tid = self.alloc_tid();
        let expect_s = expected_time(&p.demand, p.duration_s, &self.avg_cap);
        let spec = Box::new(DispatchSpec {
            tid,
            expect: p.demand,
            duration_s: p.duration_s,
            submitted_at: p.submitted_at,
            requester: p.requester,
            fallbacks,
            expect_s,
            is_local: false,
        });
        self.dispatch_first(target, spec);
    }

    /// Time to move a task's payload from its requester to `to` (the
    /// requester keeps it: every leg of a dispatch starts there).
    fn payload_ms(&mut self, spec: &DispatchSpec, to: NodeId) -> SimMillis {
        if to == spec.requester {
            return 1;
        }
        let kb = self.sc.dispatch_kbytes;
        self.topo
            .transfer_ms(spec.requester, to, kb, &mut self.rng_net)
    }

    /// Ship a task from its requester to `target`, charging the dispatch
    /// transfer.
    ///
    /// Dispatch payloads ride a reliable bulk-transfer path on purpose:
    /// the fault model targets the control plane (forwarded queries,
    /// adverts, notifications), where the paper's protocols live. A
    /// payload-level fault story would need its own retransmit model.
    fn dispatch_first(&mut self, target: NodeId, spec: Box<DispatchSpec>) {
        self.stats.record(MsgKind::Dispatch);
        let at = self.queue.now() + self.payload_ms(&spec, target);
        self.queue
            .schedule_at(at, Ev::TaskArrive { to: target, spec });
    }

    /// Re-ship a rejected task from the rejecting node `at` to the next
    /// candidate. The payload physically bounces back through the
    /// requester (who owns it) before the onward transfer, so the total
    /// delay is the return latency plus the forward transfer.
    fn dispatch_bounce(&mut self, at: NodeId, next: NodeId, spec: Box<DispatchSpec>) {
        self.stats.record(MsgKind::Dispatch);
        let back = self.topo.latency(at, spec.requester, &mut self.rng_net);
        let at = self.queue.now() + back.max(1) + self.payload_ms(&spec, next);
        self.queue
            .schedule_at(at, Ev::TaskArrive { to: next, spec });
    }

    /// Task payload arrived at a prospective execution node: re-check
    /// Inequality (2); reject to the next best-fit candidate when the node
    /// no longer qualifies (records were stale / a competitor won the
    /// race). A rejected task with no candidates left fails.
    fn on_task_arrive(&mut self, to: NodeId, mut spec: Box<DispatchSpec>) {
        let alive = self.hosts.is_alive(to);
        let qualifies = alive && self.hosts.execs[to.idx()].qualifies(&spec.expect);
        if qualifies {
            self.start_task_on(to, &spec);
            return;
        }
        // Rejected (or the node died in transit): try the next candidate.
        loop {
            let Some(next) = spec.fallbacks.first().copied() else {
                if self.hosts.is_alive(spec.requester) {
                    self.tracker.task_rejected();
                } else {
                    self.tracker.task_killed();
                }
                return;
            };
            spec.fallbacks.remove(0);
            if self.hosts.is_alive(next) {
                self.dispatch_bounce(to, next, spec);
                return;
            }
        }
    }

    fn start_task_on(&mut self, node: NodeId, spec: &DispatchSpec) {
        let now = self.queue.now();
        self.task_info
            .insert(spec.tid, (spec.expect_s, spec.is_local));
        let task = RunningTask::with_duration(
            spec.tid,
            spec.expect,
            spec.duration_s,
            PERF_DIMS,
            spec.submitted_at,
            now,
        );
        self.hosts.execs[node.idx()].add_task(now, task);
        self.schedule_completion(node);
    }

    fn schedule_completion(&mut self, node: NodeId) {
        let now = self.queue.now();
        let exec = &mut self.hosts.execs[node.idx()];
        self.counters.predicts += 1;
        match exec.next_completion(now) {
            Some(at) => {
                let epoch = exec.epoch();
                match self.comp_sched[node.idx()] {
                    // Epoch-aware memo: the queued event already fires at
                    // the newly predicted instant — keep it (with its old
                    // epoch tag, which the memo vouches for) instead of
                    // orphaning it and enqueueing a duplicate.
                    Some((sched_at, _)) if sched_at == at => {
                        self.counters.comp_dedup_skips += 1;
                    }
                    _ => {
                        self.comp_sched[node.idx()] = Some((at, epoch));
                        self.counters.comp_scheduled += 1;
                        self.queue.schedule_at(at, Ev::Completion { node, epoch });
                    }
                }
            }
            // Idle/starved: whatever is still queued is now stale.
            None => self.comp_sched[node.idx()] = None,
        }
    }

    fn on_completion(&mut self, node: NodeId, epoch: u64) {
        let now = self.queue.now();
        // The epoch guard: only the memoized live event — matched by fire
        // time *and* the epoch tag it was enqueued under — may collect.
        // Everything else is a superseded prediction (or a dead/rejoined
        // node's leftover) and is dropped in O(1).
        let live = self.hosts.is_alive(node) && self.comp_sched[node.idx()] == Some((now, epoch));
        if !live {
            self.counters.comp_dead_pops += 1;
            return;
        }
        self.comp_sched[node.idx()] = None;
        let finished = self.hosts.execs[node.idx()].collect_finished(now);
        for f in finished {
            let (expect_s, is_local) = self
                .task_info
                .remove(&f.id)
                .expect("finished task has no expectation record");
            if is_local {
                self.tracker.task_local_finished();
                continue;
            }
            let actual_s = ((f.finished_at - f.submitted_at) as f64 / 1000.0).max(1e-3);
            self.tracker.task_finished(expect_s / actual_s);
        }
        self.schedule_completion(node);
    }

    /// Arm `node`'s next arrival, `now` being the instant the chain starts
    /// or the previous arrival fired.
    pub(super) fn schedule_arrival(&mut self, node: NodeId) {
        let now = self.queue.now();
        let delay = self.source.next_delay(node, now, &mut self.rng_work);
        self.queue.schedule_at(now + delay, Ev::Arrival { node });
    }

    fn on_arrival(&mut self, node: NodeId) {
        if !self.hosts.is_alive(node) {
            return; // chain ends; a future join restarts it
        }
        let now = self.queue.now();
        // Schedule the next arrival first (per-node renewal process).
        self.schedule_arrival(node);

        let spec = self.source.next_task(node, now, &mut self.rng_work);

        if self.sc.local_exec && self.hosts.execs[node.idx()].qualifies(&spec.expect) {
            // Satisfied by the local scheduler: the discovery protocol is
            // never exercised, so the task stays out of T/F-Ratio (the
            // paper's "submitted" denominator is overlay submissions).
            self.tracker.task_local_generated();
            let tid = self.alloc_tid();
            let expect_s = expected_time(&spec.expect, spec.duration_s, &self.avg_cap);
            self.start_task_on(
                node,
                &DispatchSpec {
                    tid,
                    expect: spec.expect,
                    duration_s: spec.duration_s,
                    submitted_at: now,
                    requester: node,
                    fallbacks: Vec::new(),
                    expect_s,
                    is_local: true,
                },
            );
            return;
        }

        self.tracker.task_generated();
        if self.sc.oracle {
            let execs = &self.hosts.execs;
            let matching = self
                .live
                .iter()
                .filter(|n| execs[n.idx()].qualifies(&spec.expect))
                .count();
            self.counters.oracle_match_sum += matching as u64;
            if matching > 0 {
                self.counters.oracle_matchable += 1;
            }
            if self
                .proto
                .diag_record_match(&spec.expect, now)
                .unwrap_or(false)
            {
                self.counters.oracle_record_matchable += 1;
            }
        }
        self.submit_query(node, spec.expect, spec.duration_s, now);
    }

    /// Handle one popped event at `queue.now()`.
    pub(super) fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Deliver {
                from,
                to,
                kind,
                msg,
            } => {
                // Free the slot before anything can swallow the delivery.
                let msg = self.msgs.take(msg);
                if self.hosts.is_alive(to) {
                    if self.hosts.fault.config().enabled()
                        && self.hosts.fault.is_blackhole(to)
                        && kind != MsgKind::FoundNotify
                    {
                        // Byzantine receiver: the message vanishes
                        // unprocessed. FoundNotify is spared so an evil
                        // requester still collects its own results (the
                        // selfish-freeloader model, not a self-DoS).
                        self.hosts.fault.count_blackhole_drop();
                        self.suspect_later(from, to);
                    } else {
                        self.with_proto(|p, ctx| p.on_message(ctx, to, msg));
                    }
                }
                // Deliveries to nodes that died in-flight vanish; the
                // sender already paid for the message.
            }
            Ev::ProtoTimer { node, kind } => {
                if self.hosts.is_alive(node) {
                    self.with_proto(|p, ctx| p.on_timer(ctx, node, kind));
                }
            }
            Ev::Arrival { node } => self.on_arrival(node),
            Ev::QueryTimeout { qid } => self.on_query_timeout(qid),
            Ev::TaskArrive { to, spec } => self.on_task_arrive(to, spec),
            Ev::Completion { node, epoch } => self.on_completion(node, epoch),
            Ev::Suspect { by, of } => self.on_suspect(by, of),
            Ev::ChurnSwap => self.churn_swap(),
            Ev::Sample => self.sample(),
        }
    }

    /// Pop and handle every event due by the end of the run. Ties at one
    /// instant run in insertion order. The profiler laps after each pop and
    /// after each handled event, so pops and event arms tile the loop.
    pub(super) fn run(&mut self) {
        let deadline = self.sc.duration_ms;
        self.prof.open();
        loop {
            let popped = self.queue.pop_until(deadline);
            self.prof.lap(Phase::QueuePop);
            let Some((_, ev)) = popped else { break };
            let phase = dispatch_phase(&ev);
            self.handle(ev);
            self.prof.lap(phase);
        }
    }
}
