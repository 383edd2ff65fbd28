//! The event loop: tasks, queries, dispatch, execution, churn, metrics.
//!
//! # The windowed executor
//!
//! The simulation state is partitioned into **shards** — unions of whole
//! LANs — and driven by one engine in bounded lookahead windows:
//!
//! - Every shard owns its nodes' event queue, protocol instance,
//!   executors, pending queries and RNG streams. Its nodes are one
//!   contiguous id range, and every per-node table it keeps — executors,
//!   completion memo, blacklists, the protocol's caches and finger tables —
//!   has rows for that range and no other ([`OwnedRows`]). A window
//!   `[w0, wb)` is chosen so that `wb − w0` never exceeds the minimum
//!   cross-LAN latency (the conservative lookahead `L`); each shard then
//!   pops its own events up to `wb` with no knowledge of the others.
//! - Events a shard generates for a foreign shard (message deliveries,
//!   task dispatches, suspicion timers for foreign observers) are buffered
//!   in a per-shard **outbox**. Since cross-shard always means cross-LAN,
//!   every such event fires at least `L` after the instant that produced
//!   it — i.e. at or after `wb` — so buffering until the window barrier
//!   can never reorder it before an event the target shard already ran.
//! - At the barrier the outboxes are drained into the target queues in
//!   **sender-shard order, each in emission order**. The queues order by
//!   `(timestamp, insertion sequence)`, so that insertion order alone
//!   fixes every same-instant tie — no sort — and the delivered schedule
//!   is a pure function of the buffered events, independent of how the
//!   windows were executed.
//! - Global concerns (churn, metric sampling, capacity draws, the CAN
//!   structure) live on a **coordinator** with its own event queue.
//!   Coordinator events run between windows, at a barrier, with exclusive
//!   access to every shard.
//!
//! `SOC_SIM_EXEC=serial` (default) runs the shard windows inline on one
//! thread; `SOC_SIM_EXEC=sharded` runs them on worker threads. Both modes
//! execute the *same* shard decomposition, window bounds and merge order,
//! so their runs are bitwise identical — `RunReport::fingerprint` pins
//! this. `SOC_SIM_SHARDS` overrides the shard count and is part of the
//! simulated configuration (it changes fingerprints; the exec knob never
//! does). Protocols opt in via [`DiscoveryOverlay::shardable`]; gossip
//! baselines with cross-node handler state run single-shard.

use crate::defense::{Blacklist, DefenseParams};
use crate::report::{FaultSummary, RunReport};
use crate::scenario::{ProtocolChoice, Scenario};
use pidcan::{PidCan, PidCanConfig};
use rand::rngs::SmallRng;
use rand::RngExt;
use soc_can::CanOverlay;
use soc_gossip::{GossipConfig, Newscast};
use soc_khdn::{KhdnCan, KhdnConfig};
use soc_metrics::{MetricPoint, TaskTracker};
use soc_net::{FaultPlan, LanTopology, LatencyConfig, MsgKind, MsgStats};
use soc_overlay::{
    Candidate, Ctx, DiscoveryOverlay, Effect, HostInfo, Phase, Profiler, QueryRequest, QueryVerdict,
};
use soc_psm::{NodeExec, PsmConfig, RunningTask};
use soc_simcore::{stream_rng, stream_rng_shard, EventQueue, RngStreams};
use soc_types::{NodeId, OwnedRows, QueryId, ResVec, SimMillis, TaskId, PERF_DIMS};
use soc_workload::{cmax, SyntheticSource, WorkloadSource};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

/// Execution driver for the windowed engine. Never part of the simulated
/// configuration: both drivers run the identical schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ExecMode {
    /// Shard windows run inline on the calling thread.
    Serial,
    /// Shard windows run on persistent worker threads.
    Sharded,
}

fn exec_mode_from_env() -> ExecMode {
    match soc_types::knobs::raw("SOC_SIM_EXEC").as_deref() {
        Some("sharded") => ExecMode::Sharded,
        _ => ExecMode::Serial,
    }
}

fn defense_from_env() -> bool {
    matches!(
        soc_types::knobs::raw("SOC_FAULT_DEFENSE").as_deref(),
        Some("on")
    )
}

/// Host-side state visible to protocols, one per shard. `execs` and the
/// blacklist hold rows for the shard's own nodes only — asking for any
/// other node's is a panic — while `alive` and the fault flags, which
/// every shard reads for foreign ids (is the destination up? is the
/// receiver a blackhole?), are full-size replicas re-synchronized by the
/// coordinator on churn (the only writer).
struct Hosts {
    execs: OwnedRows<NodeExec>,
    alive: Vec<bool>,
    cmax: ResVec,
    /// Injected-fault state: which nodes are blackholes/liars, loss
    /// channels, drop counters. All-zero config = cooperative network.
    /// Per-shard mirror of the coordinator's master plan; flags are
    /// synced on churn, drop counters accumulate locally and are summed
    /// into the report.
    fault: FaultPlan,
    /// Per-node suspicion blacklists (defence layer; empty when off), one
    /// row per observer (`by`) this shard owns.
    blacklist: Blacklist,
    /// `SOC_FAULT_DEFENSE=on` — read once per run, at the public entry.
    defense_on: bool,
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
        self.execs[node].availability()
    }
    fn cmax(&self) -> &ResVec {
        &self.cmax
    }
    fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.idx()]
    }
    fn is_suspect(&self, by: NodeId, node: NodeId, now: SimMillis) -> bool {
        self.defense_on && self.blacklist.is_blacklisted(by, node, now)
    }
}

/// A task en route to its execution node, with fallback candidates in
/// best-fit order (Inequality (2) is re-checked on arrival; a node that no
/// longer qualifies rejects, and the task bounces back through the
/// requester to the next candidate). Carries its own expectation so the
/// executing shard can settle the efficiency without global tables.
#[derive(Clone, Debug)]
struct DispatchSpec {
    tid: TaskId,
    expect: ResVec,
    duration_s: f64,
    submitted_at: SimMillis,
    requester: NodeId,
    fallbacks: Vec<NodeId>,
    /// Expected execution time per Equation (4) (work over the system-wide
    /// average capacity), fixed at submission.
    expect_s: f64,
    /// Locally scheduled (never exercised discovery)?
    is_local: bool,
}

/// A discovery in progress (owned by the requester's shard).
struct PendingQuery {
    requester: NodeId,
    demand: ResVec,
    duration_s: f64,
    wanted: usize,
    submitted_at: SimMillis,
    candidates: Vec<Candidate>,
    /// Defence-layer re-issues so far (bounded by `DefenseParams::max_retries`).
    attempts: u32,
}

/// Shard-level events. Every variant is anchored to one node, and the
/// event is always processed by that node's shard.
///
/// An event is moved ~7 times between the handler that emits it and the
/// handler that consumes it (effect → outbox/queue slab → pop → dispatch),
/// so it stays at 48 bytes: protocol messages box their fat bodies (see
/// the message enums), and the dispatch payload rides behind a `Box` that
/// bounces with the task.
enum Ev<M> {
    Deliver {
        /// Sender — the suspicion source when the delivery is suppressed
        /// by a blackhole receiver.
        from: NodeId,
        to: NodeId,
        /// Accounting class (blackholes spare `FoundNotify`: an evil
        /// requester still collects its own results).
        kind: MsgKind,
        msg: M,
    },
    ProtoTimer {
        node: NodeId,
        kind: u32,
    },
    Arrival {
        node: NodeId,
    },
    QueryTimeout {
        qid: QueryId,
    },
    TaskArrive {
        to: NodeId,
        spec: Box<DispatchSpec>,
    },
    Completion {
        node: NodeId,
        epoch: u64,
    },
    /// Forward-timeout suspicion: `by` sent a message to `of` that a fault
    /// swallowed; after the suspicion delay, `by` registers a strike.
    /// Processed by `by`'s shard (the observer owns the suspicion).
    Suspect {
        by: NodeId,
        of: NodeId,
    },
}

const _: () = {
    assert!(std::mem::size_of::<Ev<pidcan::PidMsg>>() <= 48);
    assert!(std::mem::size_of::<Ev<soc_khdn::KhdnMsg>>() <= 48);
    assert!(std::mem::size_of::<Ev<soc_gossip::GossipMsg>>() <= 48);
};

/// Coordinator events: whole-system concerns that need exclusive access to
/// every shard. Processed between windows.
enum CoEv {
    ChurnSwap,
    Sample,
}

/// Immutable-during-window world state shared by every shard, plus the CAN
/// overlay which only the coordinator mutates (behind the engine's
/// `RwLock`, write-locked exclusively between windows).
struct World {
    can: CanOverlay,
    topo: LanTopology,
    /// Node → shard (whole-LAN groupings, fixed for the run).
    shard_of: Vec<usize>,
    /// Conservative lookahead: the minimum cross-LAN latency. Every
    /// cross-shard event fires at least this far after its cause.
    lookahead: SimMillis,
}

/// Extra node-id headroom so churn joins get fresh ids before old ones are
/// recycled (a vacated id re-enters the pool only after the queue drains).
fn id_headroom(n: usize) -> usize {
    (n / 4).max(16)
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

/// Task ids are packed `(shard << 48) | counter` so every shard allocates
/// from a disjoint namespace without coordination. Query ids use the same
/// packing.
const ID_SHARD_SHIFT: u32 = 48;

/// Cross-shard events buffered within one window: `(fire time, target
/// shard, event)`, in emission order.
type Outbox<M> = Vec<(SimMillis, usize, Ev<M>)>;

/// One shard: the nodes of a fixed group of LANs — a contiguous id range —
/// their event queue, their rows of every per-node table, and private RNG
/// streams.
struct Shard<P: DiscoveryOverlay> {
    id: usize,
    sc: Scenario,
    /// Per-shard workload fork serving this shard's `next_delay` /
    /// `next_task` draws. `None` only in the single-shard fallback for
    /// sources that cannot fork — the driver then lends the master source.
    source: Option<Box<dyn WorkloadSource>>,
    /// Current simulation time: the timestamp of the event being handled
    /// (or the coordinator's barrier instant during coordinator-driven
    /// calls). All shard logic reads this, never the queue clock, which
    /// lags at window boundaries.
    now: SimMillis,
    proto: P,
    hosts: Hosts,
    queue: EventQueue<Ev<P::Msg>>,
    /// Cross-shard events produced this window, in emission order.
    /// Drained at the barrier.
    outbox: Outbox<P::Msg>,
    /// BTreeMap (not HashMap): the churn-kill sweep iterates this map, and
    /// ordered iteration keeps that sweep deterministic by construction.
    /// Requester-partitioned: a query lives on its requester's shard.
    pending: BTreeMap<QueryId, PendingQuery>,
    /// Recycled effect buffers: one `Ctx` is built per delivered event, so
    /// handing the drained Vec back avoids an allocation per event.
    fx_buf: Vec<Effect<P::Msg>>,
    fx_next: Vec<Effect<P::Msg>>,
    /// Expectation + locality of every task currently *resident* on this
    /// shard's executors, keyed by task id (inserted on admit, removed on
    /// finish or churn-drain). Replaces the serial engine's global
    /// append-only vectors.
    task_info: BTreeMap<TaskId, (f64, bool)>,
    /// Per-node completion-event memo: the `(fire time, epoch tag)` of the
    /// single scheduled `Ev::Completion` this node considers live. A popped
    /// completion that does not match is stale (its prediction was
    /// superseded) and is discarded in O(1); a new prediction equal to the
    /// already-scheduled fire time re-validates the queued event instead of
    /// enqueueing a duplicate.
    comp_sched: OwnedRows<Option<(SimMillis, u64)>>,
    comp_scheduled: u64,
    comp_dedup_skips: u64,
    comp_dead_pops: u64,
    /// Defence tunables (fixed; the knob only switches the layer on/off).
    defense: DefenseParams,
    retries: u64,
    suspicions: u64,
    suspected_evil: u64,
    suspected_honest: u64,
    oracle_matchable: u64,
    oracle_match_sum: u64,
    oracle_record_matchable: u64,
    tracker: TaskTracker,
    stats: MsgStats,
    avg_cap: ResVec,
    next_task: u64,
    next_query: u64,
    /// Consumed only through `source.next_delay`/`next_task`.
    rng_work: SmallRng,
    rng_proto: SmallRng,
    rng_net: SmallRng,
    rng_dispatch: SmallRng,
    /// Fault-injection stream: consumed only when the fault model is
    /// enabled, so clean runs never touch it.
    rng_fault: SmallRng,
    /// Per-phase wall-time attribution (`SOC_PROFILE=on`, read once at
    /// construction like the defence knob). Observation-only: it draws no
    /// randomness, owns no simulation state, and its summary is excluded
    /// from the fingerprint — the `profile_equivalence` suite pins on/off
    /// runs bitwise-identical.
    prof: Profiler,
}

impl<P: DiscoveryOverlay> Shard<P> {
    fn alloc_tid(&mut self) -> TaskId {
        debug_assert!(self.next_task < 1 << ID_SHARD_SHIFT);
        let t = TaskId(((self.id as u64) << ID_SHARD_SHIFT) | self.next_task);
        self.next_task += 1;
        t
    }

    fn alloc_qid(&mut self) -> QueryId {
        debug_assert!(self.next_query < 1 << ID_SHARD_SHIFT);
        let q = QueryId(((self.id as u64) << ID_SHARD_SHIFT) | self.next_query);
        self.next_query += 1;
        q
    }

    /// Schedule `ev` at `at` on `target`'s shard: directly into our own
    /// queue, or into the outbox for the window barrier to merge.
    fn route(&mut self, at: SimMillis, target: NodeId, ev: Ev<P::Msg>, world: &World) {
        let tgt = world.shard_of[target.idx()];
        if tgt == self.id {
            self.queue.schedule_at(at, ev);
        } else {
            debug_assert!(
                at >= self.now + world.lookahead,
                "cross-shard event inside the lookahead window"
            );
            self.outbox.push((at, tgt, ev));
        }
    }

    /// Fault verdict for one in-flight control message. Returns true when
    /// a partition window or a loss channel swallows it. Draws from
    /// `rng_fault` only when the fault model is enabled — clean runs take
    /// the constant-false branch and consume no randomness.
    fn fault_drops_send(&mut self, from: NodeId, to: NodeId, world: &World) -> bool {
        if !self.hosts.fault.config().enabled() {
            return false;
        }
        let (la, lb) = (world.topo.lan_of(from), world.topo.lan_of(to));
        if self
            .hosts
            .fault
            .partitioned(self.now, la, lb, world.topo.n_lans())
        {
            self.hosts.fault.count_partition_drop();
            return true;
        }
        self.hosts.fault.channel_drop(&mut self.rng_fault)
    }

    /// A message from `by` to `of` was swallowed by a fault: when the
    /// defence is on, `by` notices the missing forward/ack after the
    /// suspicion delay and registers a strike. The suspicion event belongs
    /// to the observer, so it is routed to `by`'s shard (the suspicion
    /// delay exceeds the lookahead, so the cross-shard case is safe).
    fn suspect_later(&mut self, by: NodeId, of: NodeId, world: &World) {
        if self.hosts.defense_on {
            self.route(
                self.now + self.defense.suspect_after_ms,
                by,
                Ev::Suspect { by, of },
                world,
            );
        }
    }

    fn on_suspect(&mut self, by: NodeId, of: NodeId) {
        if !self.hosts.defense_on || !self.hosts.alive[by.idx()] {
            return;
        }
        self.suspicions += 1;
        if self.hosts.blacklist.strike(by, of, self.now, &self.defense) {
            // Confusion accounting: did suspicion land on a real offender?
            if self.hosts.fault.is_blackhole(of) || self.hosts.fault.is_liar(of) {
                self.suspected_evil += 1;
            } else {
                self.suspected_honest += 1;
            }
        }
    }

    /// Query deadline fired. With the defence on, a query that heard
    /// nothing at all gets bounded re-issues with exponential backoff
    /// (fresh random search walks take different paths around the
    /// blackholes); otherwise — and on exhausted retries — it settles with
    /// whatever it has.
    fn on_query_timeout(&mut self, qid: QueryId, world: &World) {
        if self.hosts.defense_on {
            let retry = match self.pending.get_mut(&qid) {
                Some(p)
                    if p.candidates.is_empty()
                        && p.attempts < self.defense.max_retries
                        && self.hosts.alive[p.requester.idx()] =>
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
                self.retries += 1;
                let backoff = self.sc.query_timeout_ms << attempts.min(8);
                self.queue
                    .schedule_at(self.now + backoff, Ev::QueryTimeout { qid });
                self.with_proto(world, |p, ctx| p.start_query(ctx, req));
                return;
            }
        }
        self.settle_query(qid, world);
    }

    /// Run one protocol callback and apply its effects. The callback's
    /// batched per-kind traffic counts flush as a single `record_batch`
    /// here instead of one scattered `MsgStats` write per message.
    fn with_proto<F>(&mut self, world: &World, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg>),
    {
        let buf = std::mem::take(&mut self.fx_buf);
        let mut ctx = Ctx::new_in(self.now, &world.can, &self.hosts, &mut self.rng_proto, buf);
        ctx.prof = self.prof.handle();
        f(&mut self.proto, &mut ctx);
        let (fx, sent) = ctx.finish();
        let t = self.prof.start();
        self.stats.record_batch(&sent);
        self.prof.stop(Phase::StatsFlush, t);
        self.fx_buf = self.apply_effects(fx, world);
    }

    /// Apply queued effects; returns the drained buffer for reuse.
    ///
    /// Latency sampling stays here, per message in effect order, so the
    /// shard's `rng_net` stream is consumed in a canonical order that does
    /// not depend on the execution driver.
    fn apply_effects(
        &mut self,
        mut work: Vec<Effect<P::Msg>>,
        world: &World,
    ) -> Vec<Effect<P::Msg>> {
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
                        if self.hosts.alive[to.idx()] {
                            // Latency is sampled before the fault verdict so
                            // the per-send `rng_net` draw sequence is exactly
                            // the clean run's — the stream-isolation invariant.
                            let t = self.prof.start();
                            let lat = world.topo.latency(from, to, &mut self.rng_net);
                            self.prof.stop(Phase::Latency, t);
                            let t = self.prof.start();
                            let dropped = self.fault_drops_send(from, to, world);
                            self.prof.stop(Phase::Fault, t);
                            if dropped {
                                self.suspect_later(from, to, world);
                            } else {
                                // Cross-shard targets are cross-LAN, so the
                                // sampled latency is at least the lookahead.
                                self.route(
                                    self.now + lat.max(1),
                                    to,
                                    Ev::Deliver {
                                        from,
                                        to,
                                        kind,
                                        msg,
                                    },
                                    world,
                                );
                            }
                        } else {
                            let mut ctx =
                                Ctx::new(self.now, &world.can, &self.hosts, &mut self.rng_proto);
                            ctx.prof = self.prof.handle();
                            self.proto.on_message_dropped(&mut ctx, from, to, msg);
                            let (fx, sent) = ctx.finish();
                            let t = self.prof.start();
                            self.stats.record_batch(&sent);
                            self.prof.stop(Phase::StatsFlush, t);
                            next.extend(fx);
                        }
                    }
                    Effect::Timer { node, kind, delay } => {
                        // Timers are own-node by the shardable contract.
                        self.route(
                            self.now + delay.max(1),
                            node,
                            Ev::ProtoTimer { node, kind },
                            world,
                        );
                    }
                    Effect::QueryResults { qid, candidates } => {
                        self.on_query_results(qid, candidates, world);
                    }
                    Effect::QueryDone { qid, verdict } => {
                        debug_assert_eq!(verdict, QueryVerdict::Exhausted);
                        self.settle_query(qid, world);
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

    fn on_query_results(&mut self, qid: QueryId, candidates: Vec<Candidate>, world: &World) {
        let Some(p) = self.pending.get_mut(&qid) else {
            return; // late results for a settled query
        };
        for c in candidates {
            if !p.candidates.iter().any(|x| x.node == c.node) {
                p.candidates.push(c);
            }
        }
        if p.candidates.len() >= p.wanted {
            self.settle_query(qid, world);
        }
    }

    /// Finish a discovery: pick the best-fit live candidate and dispatch,
    /// or count a failed task.
    fn settle_query(&mut self, qid: QueryId, world: &World) {
        let Some(p) = self.pending.remove(&qid) else {
            return;
        };
        if !self.hosts.alive[p.requester.idx()] {
            // The requester churned away mid-query; its task died with it.
            self.tracker.task_killed();
            return;
        }
        // The candidates are already "best-fit" by construction: the
        // randomized agent/jump search returns records from the zones
        // nearest the demand corner. Picking uniformly at random among the
        // δ returned candidates is the paper's probabilistic contention
        // control — a deterministic tightest-first pick would send every
        // concurrent same-demand query to the same record (the ablation
        // bench compares both policies).
        let mut ranked: Vec<Candidate> = p
            .candidates
            .iter()
            .filter(|c| self.hosts.alive[c.node.idx()])
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
        self.dispatch_first(target, spec, world);
    }

    /// Ship a task from its requester to `target`, charging the dispatch
    /// transfer.
    ///
    /// Dispatch payloads ride a reliable bulk-transfer path on purpose:
    /// the fault model targets the control plane (forwarded queries,
    /// adverts, notifications), where the paper's protocols live. A
    /// payload-level fault story would need its own retransmit model.
    fn dispatch_first(&mut self, target: NodeId, spec: Box<DispatchSpec>, world: &World) {
        self.stats.record(MsgKind::Dispatch);
        let delay = if target == spec.requester {
            1
        } else {
            world.topo.transfer_ms(
                spec.requester,
                target,
                self.sc.dispatch_kbytes,
                &mut self.rng_net,
            )
        };
        self.route(
            self.now + delay,
            target,
            Ev::TaskArrive { to: target, spec },
            world,
        );
    }

    /// Re-ship a rejected task from the rejecting node `at` to the next
    /// candidate. The payload physically bounces back through the
    /// requester (who owns it) before the onward transfer, so the total
    /// delay is the return latency plus the forward transfer — which also
    /// gives every cross-shard leg the WAN latency floor the lookahead
    /// window requires.
    fn dispatch_bounce(
        &mut self,
        at: NodeId,
        next: NodeId,
        spec: Box<DispatchSpec>,
        world: &World,
    ) {
        self.stats.record(MsgKind::Dispatch);
        let back = world.topo.latency(at, spec.requester, &mut self.rng_net);
        let fwd = if next == spec.requester {
            1
        } else {
            world.topo.transfer_ms(
                spec.requester,
                next,
                self.sc.dispatch_kbytes,
                &mut self.rng_net,
            )
        };
        self.route(
            self.now + back.max(1) + fwd,
            next,
            Ev::TaskArrive { to: next, spec },
            world,
        );
    }

    /// Task payload arrived at a prospective execution node: re-check
    /// Inequality (2); reject to the next best-fit candidate when the node
    /// no longer qualifies (records were stale / a competitor won the
    /// race). A rejected task with no candidates left fails.
    fn on_task_arrive(&mut self, to: NodeId, mut spec: Box<DispatchSpec>, world: &World) {
        let alive = self.hosts.alive[to.idx()];
        let qualifies = alive && self.hosts.execs[to].qualifies(&spec.expect);
        if qualifies {
            self.start_task_on(to, &spec);
            return;
        }
        // Rejected (or the node died in transit): try the next candidate.
        loop {
            let Some(next) = spec.fallbacks.first().copied() else {
                if self.hosts.alive[spec.requester.idx()] {
                    self.tracker.task_rejected();
                } else {
                    self.tracker.task_killed();
                }
                return;
            };
            spec.fallbacks.remove(0);
            if self.hosts.alive[next.idx()] {
                self.dispatch_bounce(to, next, spec, world);
                return;
            }
        }
    }

    fn start_task_on(&mut self, node: NodeId, spec: &DispatchSpec) {
        let now = self.now;
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
        self.hosts.execs[node].add_task(now, task);
        self.schedule_completion(node);
    }

    fn schedule_completion(&mut self, node: NodeId) {
        let now = self.now;
        let exec = &mut self.hosts.execs[node];
        let t = self.prof.start();
        let predicted = exec.next_completion(now);
        self.prof.stop(Phase::PsmPredict, t);
        match predicted {
            Some(at) => {
                let epoch = exec.epoch();
                match self.comp_sched[node] {
                    // Epoch-aware memo: the queued event already fires at
                    // the newly predicted instant — keep it (with its old
                    // epoch tag, which the memo vouches for) instead of
                    // orphaning it and enqueueing a duplicate.
                    Some((sched_at, _)) if sched_at == at => {
                        self.comp_dedup_skips += 1;
                    }
                    _ => {
                        self.comp_sched[node] = Some((at, epoch));
                        self.comp_scheduled += 1;
                        self.queue.schedule_at(at, Ev::Completion { node, epoch });
                    }
                }
            }
            // Idle/starved: whatever is still queued is now stale.
            None => self.comp_sched[node] = None,
        }
    }

    fn on_completion(&mut self, node: NodeId, epoch: u64) {
        let now = self.now;
        // The epoch guard: only the memoized live event — matched by fire
        // time *and* the epoch tag it was enqueued under — may collect.
        // Everything else is a superseded prediction (or a dead/rejoined
        // node's leftover) and is dropped in O(1).
        let live = self.hosts.alive[node.idx()] && self.comp_sched[node] == Some((now, epoch));
        if !live {
            self.comp_dead_pops += 1;
            return;
        }
        self.comp_sched[node] = None;
        let finished = self.hosts.execs[node].collect_finished(now);
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

    fn on_arrival(&mut self, node: NodeId, world: &World, src: &mut dyn WorkloadSource) {
        if !self.hosts.alive[node.idx()] {
            return; // chain ends; a future join restarts it
        }
        let now = self.now;
        // Schedule the next arrival first (per-node renewal process).
        let delay = src.next_delay(node, now, &mut self.rng_work);
        self.queue.schedule_at(now + delay, Ev::Arrival { node });

        let spec = src.next_task(node, now, &mut self.rng_work);

        if self.sc.local_exec && self.hosts.execs[node].qualifies(&spec.expect) {
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
            // Oracle scenarios force a single shard, so this shard's alive
            // flags and executors are globally authoritative.
            let matching = (0..self.hosts.alive.len())
                .filter(|&i| {
                    self.hosts.alive[i]
                        && self.hosts.execs[NodeId(i as u32)].qualifies(&spec.expect)
                })
                .count();
            self.oracle_match_sum += matching as u64;
            if matching > 0 {
                self.oracle_matchable += 1;
            }
            if self
                .proto
                .diag_record_match(&spec.expect, now)
                .unwrap_or(false)
            {
                self.oracle_record_matchable += 1;
            }
        }
        let qid = self.alloc_qid();
        self.pending.insert(
            qid,
            PendingQuery {
                requester: node,
                demand: spec.expect,
                duration_s: spec.duration_s,
                wanted: self.sc.delta,
                submitted_at: now,
                candidates: Vec::new(),
                attempts: 0,
            },
        );
        self.queue
            .schedule_at(now + self.sc.query_timeout_ms, Ev::QueryTimeout { qid });
        let req = QueryRequest {
            qid,
            requester: node,
            demand: spec.expect,
            wanted: self.sc.delta,
        };
        self.with_proto(world, |p, ctx| p.start_query(ctx, req));
    }

    /// Handle one popped event at `self.now`.
    fn handle(&mut self, ev: Ev<P::Msg>, world: &World, src: &mut dyn WorkloadSource) {
        match ev {
            Ev::Deliver {
                from,
                to,
                kind,
                msg,
            } => {
                if self.hosts.alive[to.idx()] {
                    if self.hosts.fault.config().enabled()
                        && self.hosts.fault.is_blackhole(to)
                        && kind != MsgKind::FoundNotify
                    {
                        // Byzantine receiver: the message vanishes
                        // unprocessed. FoundNotify is spared so an evil
                        // requester still collects its own results (the
                        // selfish-freeloader model, not a self-DoS).
                        self.hosts.fault.count_blackhole_drop();
                        self.suspect_later(from, to, world);
                    } else {
                        self.with_proto(world, |p, ctx| p.on_message(ctx, to, msg));
                    }
                }
                // Deliveries to nodes that died in-flight vanish; the
                // sender already paid for the message.
            }
            Ev::ProtoTimer { node, kind } => {
                if self.hosts.alive[node.idx()] {
                    self.with_proto(world, |p, ctx| p.on_timer(ctx, node, kind));
                }
            }
            Ev::Arrival { node } => self.on_arrival(node, world, src),
            Ev::QueryTimeout { qid } => self.on_query_timeout(qid, world),
            Ev::TaskArrive { to, spec } => self.on_task_arrive(to, spec, world),
            Ev::Completion { node, epoch } => self.on_completion(node, epoch),
            Ev::Suspect { by, of } => self.on_suspect(by, of),
        }
    }

    /// Pop and handle every queued event strictly before `wb`, using the
    /// shard's own workload fork.
    fn pump_owned(&mut self, wb: SimMillis, world: &World) {
        let mut src = self.source.take().expect("shard workload fork");
        self.pump_with(wb, world, &mut *src);
        self.source = Some(src);
    }

    /// Pop and handle every queued event strictly before `wb` with an
    /// explicit workload source (the single-shard fallback lends the
    /// master source here).
    fn pump_with(&mut self, wb: SimMillis, world: &World, src: &mut dyn WorkloadSource) {
        loop {
            let t_pop = self.prof.start();
            let popped = self.queue.pop_until(wb - 1);
            self.prof.stop(Phase::QueuePop, t_pop);
            let Some((t, ev)) = popped else { break };
            self.now = t;
            let t_ev = self.prof.start();
            let ph = dispatch_phase(&ev);
            self.handle(ev, world, src);
            self.prof.stop(ph, t_ev);
        }
    }
}

/// The dispatch-group phase charged for one popped event. Total order and
/// disjointness come for free: every event lands in exactly one arm.
fn dispatch_phase<M>(ev: &Ev<M>) -> Phase {
    match ev {
        Ev::Deliver { .. } => Phase::DeliverMsg,
        Ev::ProtoTimer { .. } => Phase::ProtoTimer,
        Ev::Arrival { .. } => Phase::Arrival,
        Ev::QueryTimeout { .. } => Phase::QueryTimeout,
        Ev::TaskArrive { .. } => Phase::TaskArrive,
        Ev::Completion { .. } => Phase::Completion,
        Ev::Suspect { .. } => Phase::Suspect,
    }
}

/// Append a sample point, replacing the last point when it carries the
/// same timestamp (the coordinator's final deadline sample can coincide
/// with the periodic chain's last tick, and the re-sample wins).
fn push_point(series: &mut Vec<MetricPoint>, p: MetricPoint) {
    if series.last().map(|q| q.t_ms) == Some(p.t_ms) {
        *series.last_mut().expect("non-empty series") = p;
    } else {
        series.push(p);
    }
}

/// The coordinator: whole-system state no shard may own — the live-node
/// set, id recycling, the master RNG streams (capacities, overlay points,
/// churn, fault flags), the master fault plan, and the sampled series.
/// Runs only between windows, when every shard is at the barrier.
struct Coord<'s> {
    sc: &'s Scenario,
    /// The master workload source: bootstrap + churn capacity draws, and
    /// the lent `next_delay`/`next_task` server in the single-shard
    /// fallback for unforkable sources.
    source: &'s mut dyn WorkloadSource,
    cq: EventQueue<CoEv>,
    rng_caps: SmallRng,
    rng_churn: SmallRng,
    rng_overlay: SmallRng,
    rng_fault: SmallRng,
    /// Authoritative fault-flag assignment; shards hold synced mirrors.
    fault_master: FaultPlan,
    free_ids: VecDeque<NodeId>,
    live: Vec<NodeId>,
    live_pos: Vec<usize>,
    series: Vec<MetricPoint>,
    checkpoint_resubmits: u64,
    /// Peak simultaneously-active blacklist entries, sampled at every
    /// metric sample instant (summed across per-shard blacklists with all
    /// shards quiescent at the barrier — a deterministic definition that
    /// replaces the serial engine's strike-time bookkeeping).
    blacklist_peak: u64,
    prof: Profiler,
    lookahead: SimMillis,
    n_shards: usize,
    deadline: SimMillis,
}

impl<'s> Coord<'s> {
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

    fn schedule_next_churn(&mut self, now: SimMillis) {
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

    fn handle_coev<P: DiscoveryOverlay>(
        &mut self,
        world: &RwLock<World>,
        shards: &[Mutex<Shard<P>>],
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
        world: &RwLock<World>,
        shards: &[Mutex<Shard<P>>],
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
        for s in shards {
            let mut sh = s.lock().expect("shard lock");
            if let Some(f) = sh.source.as_mut() {
                f.note_churn(now, victim, newcomer);
            }
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
        world: &RwLock<World>,
        shards: &[Mutex<Shard<P>>],
    ) {
        let mut w = world.write().expect("world lock");
        let vshard = w.shard_of[victim.idx()];
        // Phase 1 — drain the victim's executor (its shard owns the rows).
        // Resident tasks are lost with the node, unless checkpointing (§VI
        // future work) captures their progress and re-submits the residual
        // work to the overlay. Tasks the departed node ran for itself have
        // no surviving owner to resubmit them, so they die either way.
        let mut resubmits: Vec<(ResVec, f64, SimMillis)> = Vec::new();
        {
            let mut vs = shards[vshard].lock().expect("shard lock");
            vs.now = now;
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
        }
        // Phase 2 — re-submit checkpointed residuals. A surviving node acts
        // as the resubmitter (the original requester may itself have
        // churned; SOC users re-attach). One resubmitter shard is locked at
        // a time: the victim shard's lock is already released, so a
        // resubmitter landing on the victim's own shard cannot deadlock.
        for (demand, remaining_s, submitted_at) in resubmits {
            self.checkpoint_resubmits += 1;
            let resubmitter = self.random_live();
            let rshard = w.shard_of[resubmitter.idx()];
            let mut rs = shards[rshard].lock().expect("shard lock");
            rs.now = now;
            let qid = rs.alloc_qid();
            rs.pending.insert(
                qid,
                PendingQuery {
                    requester: resubmitter,
                    demand,
                    duration_s: remaining_s,
                    wanted: self.sc.delta,
                    submitted_at,
                    candidates: Vec::new(),
                    attempts: 0,
                },
            );
            rs.queue
                .schedule_at(now + self.sc.query_timeout_ms, Ev::QueryTimeout { qid });
            let req = QueryRequest {
                qid,
                requester: resubmitter,
                demand,
                wanted: self.sc.delta,
            };
            rs.with_proto(&w, |p, ctx| p.start_query(ctx, req));
        }
        // Phase 3 — abandon the victim's outstanding discoveries. Swept
        // after the resubmission loop on purpose: the victim is still live
        // at resubmission time (serial semantics), so a residual routed
        // through the victim itself is caught and killed right here.
        {
            let mut vs = shards[vshard].lock().expect("shard lock");
            vs.now = now;
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
        }
        // Phase 4 — structural removal, then protocol notifications.
        let reass = w.can.leave(victim);
        let affected: Vec<NodeId> = reass.iter().map(|&(n, _)| n).collect();
        for s in shards {
            s.lock().expect("shard lock").hosts.alive[victim.idx()] = false;
        }
        self.live_remove(victim);
        // The victim's rows and the queries it requested live on its own
        // shard's protocol instance; no other instance has anything of it
        // to drop (the hook is local bookkeeping by contract: no sends, no
        // RNG).
        {
            let mut vs = shards[vshard].lock().expect("shard lock");
            vs.now = now;
            vs.with_proto(&w, |p, ctx| p.on_node_left(ctx, victim));
        }
        // Zone-reassignment notifications go to each affected node's own
        // shard (the hook draws per-node randomness and sends adverts).
        for (sid, s) in shards.iter().enumerate() {
            let own: Vec<NodeId> = affected
                .iter()
                .copied()
                .filter(|n| w.shard_of[n.idx()] == sid)
                .collect();
            let mut sh = s.lock().expect("shard lock");
            sh.now = now;
            sh.with_proto(&w, |p, ctx| p.on_zones_reassigned(ctx, &own));
        }
        // The machine behind this id is gone: its suspicions (a row on its
        // own shard) and everyone's suspicions about it (entries in any
        // shard's rows) must not leak onto the slot's next occupant.
        for s in shards {
            s.lock()
                .expect("shard lock")
                .hosts
                .blacklist
                .clear_node(victim);
        }
        self.free_ids.push_back(victim);
    }

    fn node_join<P: DiscoveryOverlay>(
        &mut self,
        newcomer: NodeId,
        now: SimMillis,
        world: &RwLock<World>,
        shards: &[Mutex<Shard<P>>],
    ) {
        let mut w = world.write().expect("world lock");
        let point = soc_can::overlay::random_point(w.can.dim(), &mut self.rng_overlay);
        let splitter = w.can.join(newcomer, &point);
        for s in shards {
            s.lock().expect("shard lock").hosts.alive[newcomer.idx()] = true;
        }
        // Fresh machine: new capacity, idle scheduler. The capacity draw
        // stays on the master source/stream; only the owner shard's
        // executor row is authoritative, so only it is rebuilt.
        let cap = self.source.node_capacity(&mut self.rng_caps);
        let oshard = w.shard_of[newcomer.idx()];
        {
            let mut os = shards[oshard].lock().expect("shard lock");
            os.hosts.execs[newcomer] = NodeExec::new(cap, PsmConfig::default());
            os.comp_sched[newcomer] = None;
        }
        // Churn replacements are as likely to be hostile as the original
        // population (internally gated per fraction — no draw when clean).
        // The master plan draws; every shard mirror gets the verdict.
        self.fault_master.on_join(newcomer, &mut self.rng_fault);
        let evil = self.fault_master.is_blackhole(newcomer);
        let liar = self.fault_master.is_liar(newcomer);
        for s in shards {
            s.lock()
                .expect("shard lock")
                .hosts
                .fault
                .set_flags(newcomer, evil, liar);
        }
        self.live_add(newcomer);
        {
            let mut os = shards[oshard].lock().expect("shard lock");
            os.now = now;
            os.with_proto(&w, |p, ctx| p.on_node_joined(ctx, newcomer));
        }
        {
            let sshard = w.shard_of[splitter.idx()];
            let mut ss = shards[sshard].lock().expect("shard lock");
            ss.now = now;
            ss.with_proto(&w, |p, ctx| p.on_zones_reassigned(ctx, &[splitter]));
        }
        // Restart the arrival chain on the owner shard's workload fork
        // (or the lent master in the single-shard fallback).
        {
            let mut guard = shards[oshard].lock().expect("shard lock");
            let os = &mut *guard;
            os.now = now;
            let delay = match os.source.as_mut() {
                Some(f) => f.next_delay(newcomer, now, &mut os.rng_work),
                None => self.source.next_delay(newcomer, now, &mut os.rng_work),
            };
            os.queue
                .schedule_at(now + delay, Ev::Arrival { node: newcomer });
        }
    }

    /// Metric sample at a barrier: fold every shard's tracker into a fresh
    /// aggregate (fixed shard order) and record the point on the
    /// coordinator's series. Also the blacklist-peak observation point.
    fn sample<P: DiscoveryOverlay>(&mut self, now: SimMillis, shards: &[Mutex<Shard<P>>]) {
        let mut agg = TaskTracker::new();
        let mut active = 0u64;
        for s in shards {
            let sh = s.lock().expect("shard lock");
            agg.absorb(&sh.tracker);
            active += sh.hosts.blacklist.active_total(now);
        }
        let p = agg.sample(now);
        push_point(&mut self.series, p);
        self.blacklist_peak = self.blacklist_peak.max(active);
        if now + self.sc.sample_ms <= self.deadline {
            self.cq.schedule_at(now + self.sc.sample_ms, CoEv::Sample);
        }
    }
}

/// Build the shard decomposition and the coordinator for one run.
///
/// Ordering is load-bearing: the shard count is fixed *before* any
/// per-shard RNG stream is created, and the master streams draw in the
/// exact bootstrap order (capacities → topology → overlay → fault plan).
fn bootstrap<'s, P: DiscoveryOverlay>(
    sc: &'s Scenario,
    source: &'s mut dyn WorkloadSource,
    proto: P,
    can_dim: usize,
    mode: ExecMode,
    defense_on: bool,
) -> (Coord<'s>, RwLock<World>, Vec<Mutex<Shard<P>>>, bool) {
    let max_nodes = sc.n_nodes + id_headroom(sc.n_nodes);
    let mut rng_caps = stream_rng(sc.seed, RngStreams::NodeCapacities);
    let mut rng_topo = stream_rng(sc.seed, RngStreams::Topology);
    let mut rng_overlay = stream_rng(sc.seed, RngStreams::Overlay);
    let mut rng_fault = stream_rng(sc.seed, RngStreams::Fault);
    let fault_master = FaultPlan::new(sc.fault, max_nodes, &mut rng_fault);

    let caps: Vec<ResVec> = (0..max_nodes)
        .map(|_| source.node_capacity(&mut rng_caps))
        .collect();
    let avg_cap = {
        let mut acc = ResVec::zeros(caps[0].dim());
        for c in &caps[..sc.n_nodes] {
            acc += *c;
        }
        acc / sc.n_nodes as f64
    };

    let psm_cfg = PsmConfig::default();
    let mut alive = vec![false; max_nodes];
    for a in alive.iter_mut().take(sc.n_nodes) {
        *a = true;
    }
    let can = CanOverlay::bootstrap(can_dim, sc.n_nodes, max_nodes, &mut rng_overlay);
    let topo = LanTopology::new(
        max_nodes,
        sc.lan_size,
        LatencyConfig::default(),
        &mut rng_topo,
    );
    let n_lans = topo.n_lans() as usize;
    // The window bound: no cross-shard (= cross-LAN) event can fire sooner
    // than this after its cause.
    let lookahead = topo.min_cross_lan_latency_ms().max(1);

    // Shard-count decision. `SOC_SIM_SHARDS` is simulated configuration
    // (it changes fingerprints); oracle scans and unshardable protocols or
    // workload sources force the single-shard fallback.
    let mut s_target = if !proto.shardable() || sc.oracle || n_lans <= 1 {
        1
    } else {
        match soc_types::knobs::raw("SOC_SIM_SHARDS") {
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&s| s >= 1)
                .map(|s| s.clamp(1, n_lans))
                .unwrap_or_else(|| 8.min(n_lans)),
            None => 8.min(n_lans),
        }
    };
    let mut fork0: Option<Box<dyn WorkloadSource>> = None;
    if s_target > 1 {
        fork0 = source.fork_shard(0);
        if fork0.is_none() {
            s_target = 1;
        }
    }
    // Whole-LAN groupings: shard = lan / lans_per_shard. Computed only
    // after the final shard count is known.
    let lans_per_shard = n_lans.div_ceil(s_target);
    let n_shards = (n_lans - 1) / lans_per_shard + 1;
    let shard_of: Vec<usize> = (0..max_nodes)
        .map(|i| topo.lan_of(NodeId(i as u32)) as usize / lans_per_shard)
        .collect();
    let owned = owned_ranges(&shard_of, n_shards);
    let mut forks: Vec<Option<Box<dyn WorkloadSource>>> = Vec::with_capacity(n_shards);
    forks.push(fork0);
    for s in 1..n_shards {
        forks.push(Some(source.fork_shard(s).expect(
            "workload source forked shard 0 but refused a later shard",
        )));
    }
    // Every shard, a lone one too, runs a fork of the template `proto`
    // that holds rows for the shard's own ids. An unforkable protocol is
    // unshardable as well, and its one shard runs the instance itself.
    let mut protos: Vec<P> = owned
        .iter()
        .map_while(|ids| proto.fork_shard(ids.clone()))
        .collect();
    if protos.is_empty() {
        protos.push(proto);
    }
    assert_eq!(
        protos.len(),
        n_shards,
        "a shardable protocol must fork for every shard"
    );
    let threaded = mode == ExecMode::Sharded && n_shards > 1;

    let live: Vec<NodeId> = (0..sc.n_nodes).map(|i| NodeId(i as u32)).collect();
    let mut live_pos = vec![usize::MAX; max_nodes];
    for (i, n) in live.iter().enumerate() {
        live_pos[n.idx()] = i;
    }
    let free_ids: VecDeque<NodeId> = (sc.n_nodes..max_nodes).map(|i| NodeId(i as u32)).collect();

    let shards: Vec<Mutex<Shard<P>>> = protos
        .into_iter()
        .zip(forks)
        .zip(owned)
        .enumerate()
        .map(|(id, ((proto, source), ids))| {
            Mutex::new(Shard {
                id,
                sc: *sc,
                source,
                now: 0,
                proto,
                hosts: Hosts {
                    execs: OwnedRows::new(ids.clone(), |n| NodeExec::new(caps[n.idx()], psm_cfg)),
                    alive: alive.clone(),
                    cmax: cmax(),
                    fault: fault_master.clone(),
                    blacklist: Blacklist::new(ids.clone()),
                    defense_on,
                },
                // Grown on demand (≈ 6 events pend per node). A large
                // up-front reservation pins heap the bootstrap would
                // otherwise reuse: 1 << 16 slots per shard cost +35 % peak
                // RSS on the 8-shard n = 10 000 cell.
                queue: EventQueue::new(),
                outbox: Vec::new(),
                pending: BTreeMap::new(),
                fx_buf: Vec::new(),
                fx_next: Vec::new(),
                task_info: BTreeMap::new(),
                comp_sched: OwnedRows::new(ids, |_| None),
                comp_scheduled: 0,
                comp_dedup_skips: 0,
                comp_dead_pops: 0,
                defense: DefenseParams::default(),
                retries: 0,
                suspicions: 0,
                suspected_evil: 0,
                suspected_honest: 0,
                oracle_matchable: 0,
                oracle_match_sum: 0,
                oracle_record_matchable: 0,
                tracker: TaskTracker::new(),
                stats: MsgStats::new(max_nodes),
                avg_cap,
                next_task: 0,
                next_query: 0,
                rng_work: stream_rng_shard(sc.seed, RngStreams::Workload, id),
                rng_proto: stream_rng_shard(sc.seed, RngStreams::Protocol, id),
                rng_net: stream_rng_shard(sc.seed, RngStreams::Network, id),
                rng_dispatch: stream_rng_shard(sc.seed, RngStreams::Dispatch, id),
                rng_fault: stream_rng_shard(sc.seed, RngStreams::Fault, id),
                prof: Profiler::from_env(),
            })
        })
        .collect();

    let coord = Coord {
        sc,
        source,
        cq: EventQueue::with_capacity(1 << 8),
        rng_caps,
        rng_churn: stream_rng(sc.seed, RngStreams::Churn),
        rng_overlay,
        rng_fault,
        fault_master,
        free_ids,
        live,
        live_pos,
        series: Vec::new(),
        checkpoint_resubmits: 0,
        blacklist_peak: 0,
        prof: Profiler::from_env(),
        lookahead,
        n_shards,
        deadline: sc.duration_ms,
    };
    let world = RwLock::new(World {
        can,
        topo,
        shard_of,
        lookahead,
    });
    (coord, world, shards, threaded)
}

/// The id range each shard owns. Shards are unions of whole LANs and LANs
/// are consecutive id blocks, so `shard_of` is non-decreasing and every
/// shard's nodes are one contiguous range — what lets a shard keep its
/// per-node tables as [`OwnedRows`].
fn owned_ranges(shard_of: &[usize], n_shards: usize) -> Vec<Range<u32>> {
    assert!(shard_of.is_sorted(), "shards must be contiguous id ranges");
    (0..n_shards)
        .map(|s| {
            let lo = shard_of.partition_point(|&x| x < s);
            let hi = shard_of.partition_point(|&x| x <= s);
            lo as u32..hi as u32
        })
        .collect()
}

/// One coordinator decision between windows.
enum Step {
    /// No runnable event remains at or before the deadline.
    Done,
    /// A coordinator event ran (and its outboxes must be merged).
    Merged,
    /// Pump every shard up to (excluding) this bound, then merge.
    Window(SimMillis),
}

/// Decide the next step: run the earliest coordinator event if it is due
/// at or before the earliest shard event (coordinator-first tie-break, so
/// churn/sampling at `t` precede shard events at `t`), otherwise open a
/// window bounded by the lookahead and the next coordinator event.
fn coordinator_step<P: DiscoveryOverlay>(
    coord: &mut Coord<'_>,
    world: &RwLock<World>,
    shards: &[Mutex<Shard<P>>],
) -> Step {
    let deadline = coord.deadline;
    let ws = shards
        .iter()
        .filter_map(|s| s.lock().expect("shard lock").queue.peek_time())
        .min()
        .filter(|&t| t <= deadline);
    let tc = coord.cq.peek_time().filter(|&t| t <= deadline);
    match (ws, tc) {
        (None, None) => Step::Done,
        (ws, Some(t)) if ws.is_none_or(|w| t <= w) => {
            let (at, ev) = coord.cq.pop_until(t).expect("peeked coordinator event");
            debug_assert_eq!(at, t);
            coord.handle_coev(world, shards, t, ev);
            Step::Merged
        }
        (ws, tc) => {
            let w = ws.expect("a shard event exists on this branch");
            let mut wb = deadline + 1;
            if coord.n_shards > 1 {
                wb = wb.min(w + coord.lookahead);
            }
            if let Some(t) = tc {
                wb = wb.min(t);
            }
            // Progress: wb ≥ w + 1 always (lookahead ≥ 1, tc > w here,
            // w ≤ deadline), so the earliest event is inside the window.
            Step::Window(wb)
        }
    }
}

/// Drain every outbox straight into the target queues: sender shards in
/// index order, each outbox in emission order. No sort is needed. Queue
/// order is `(time, insertion seq)` and `seq` only breaks ties at equal
/// `time`, so this insertion order pops exactly as the batch stably sorted
/// by time would — a pure function of the buffered events, not of which
/// thread ran which window. The target queues' clocks trail every fire
/// time (lookahead rule), so `schedule_at` never clamps.
fn merge_outboxes<P: DiscoveryOverlay>(shards: &[Mutex<Shard<P>>]) {
    for sender in shards {
        let mut outbox = {
            let mut sh = sender.lock().expect("shard lock");
            if sh.outbox.is_empty() {
                continue;
            }
            std::mem::take(&mut sh.outbox)
        };
        let mut events = outbox.drain(..).peekable();
        // One lock per contiguous run of same-target events.
        while let Some(&(_, tgt, _)) = events.peek() {
            let mut target = shards[tgt].lock().expect("shard lock");
            while let Some((at, _, ev)) = events.next_if(|e| e.1 == tgt) {
                target.queue.schedule_at(at, ev);
            }
        }
        drop(events);
        // Hand the emptied buffer back so its capacity is reused.
        sender.lock().expect("shard lock").outbox = outbox;
    }
}

/// Drive every shard window inline on the calling thread.
fn drive_inline<P: DiscoveryOverlay>(
    coord: &mut Coord<'_>,
    world: &RwLock<World>,
    shards: &[Mutex<Shard<P>>],
) {
    loop {
        match coordinator_step(coord, world, shards) {
            Step::Done => break,
            Step::Merged => merge_outboxes(shards),
            Step::Window(wb) => {
                let wr = world.read().expect("world lock");
                for s in shards {
                    let mut sh = s.lock().expect("shard lock");
                    if sh.source.is_some() {
                        sh.pump_owned(wb, &wr);
                    } else {
                        sh.pump_with(wb, &wr, coord.source);
                    }
                }
                drop(wr);
                merge_outboxes(shards);
            }
        }
    }
}

/// Drive shard windows on persistent worker threads. Two barrier crossings
/// per window: one to publish the bound, one to close the window before
/// the coordinator merges. Workers own a fixed stripe of shards
/// (`w, w+W, …`), so a shard is only ever pumped by one thread and the
/// Mutexes are uncontended — they exist to satisfy the type system and to
/// keep the inline driver on the identical code path.
///
/// A panic (a protocol handler, a violated invariant) must not strand the
/// other threads at the barrier. A worker catches its unwind, parks the
/// payload in `failed` and keeps crossing; the coordinator sees it when
/// the window closes. A coordinator panic is caught the same way, between
/// windows. Either way every worker is released before the original
/// payload is re-raised on the calling thread.
fn drive_threaded<P: DiscoveryOverlay + Send>(
    coord: &mut Coord<'_>,
    world: &RwLock<World>,
    shards: &[Mutex<Shard<P>>],
) {
    let n_shards = shards.len();
    let n_workers = n_shards
        .min(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        )
        .max(1);
    let barrier = Barrier::new(n_workers + 1);
    let bound = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let failed: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for w in 0..n_workers {
            let barrier = &barrier;
            let bound = &bound;
            let done = &done;
            let failed = &failed;
            scope.spawn(move || {
                // Each worker times its own barrier waits on a private
                // profiler (the shared ones live inside the shard locks)
                // and folds them into its first shard's profiler at exit.
                let prof = Profiler::from_env();
                loop {
                    let t = prof.start();
                    barrier.wait();
                    prof.stop(Phase::BarrierWait, t);
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let wb = bound.load(Ordering::Acquire);
                    let pumped = catch_unwind(AssertUnwindSafe(|| {
                        let wr = world.read().expect("world lock");
                        let mut s = w;
                        while s < n_shards {
                            shards[s].lock().expect("shard lock").pump_owned(wb, &wr);
                            s += n_workers;
                        }
                    }));
                    if let Err(payload) = pumped {
                        // First panic of the window wins; the run is over.
                        failed
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .get_or_insert(payload);
                    }
                    let t = prof.start();
                    barrier.wait();
                    prof.stop(Phase::BarrierWait, t);
                }
                // A panicking pump poisons its shard; there is no report to
                // fold timings into then.
                if let Ok(mut sh) = shards[w].lock() {
                    sh.prof.absorb(&prof);
                }
            });
        }
        let coordinated = catch_unwind(AssertUnwindSafe(|| loop {
            match coordinator_step(coord, world, shards) {
                Step::Done => break,
                Step::Merged => merge_outboxes(shards),
                Step::Window(wb) => {
                    bound.store(wb, Ordering::Release);
                    barrier.wait(); // open the window
                    barrier.wait(); // every shard pumped to wb
                    if failed.lock().unwrap_or_else(|e| e.into_inner()).is_some() {
                        break;
                    }
                    merge_outboxes(shards);
                }
            }
        }));
        // Workers are parked at the window-opening barrier in every case.
        done.store(true, Ordering::Release);
        barrier.wait();
        if let Err(payload) = coordinated {
            resume_unwind(payload);
        }
    });
    if let Some(payload) = failed.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
}

/// Tear down the shards and assemble the report.
fn finish<P: DiscoveryOverlay>(
    mut coord: Coord<'_>,
    shards: Vec<Mutex<Shard<P>>>,
    wall_start: std::time::Instant,
) -> RunReport {
    let deadline = coord.deadline;
    let mut shs: Vec<Shard<P>> = shards
        .into_iter()
        .map(|m| m.into_inner().expect("shard lock"))
        .collect();

    // Final sample exactly at the deadline. When the periodic chain
    // already sampled there (duration an exact multiple of sample_ms),
    // the point is replaced rather than duplicated — and the replacement
    // matters: events tied at t=deadline may have run after the in-loop
    // Sample, so only a re-sample taken here is guaranteed to agree with
    // the aggregate counts reported below.
    let mut agg = TaskTracker::new();
    let mut active = 0u64;
    for sh in &shs {
        agg.absorb(&sh.tracker);
        active += sh.hosts.blacklist.active_total(deadline);
    }
    coord.blacklist_peak = coord.blacklist_peak.max(active);
    let p = agg.sample(deadline);
    push_point(&mut coord.series, p);
    agg.set_series(std::mem::take(&mut coord.series));
    agg.check_conservation()
        .expect("task conservation violated");

    let mut stats = MsgStats::new(shs[0].hosts.alive.len());
    for sh in &shs {
        stats.absorb(&sh.stats);
    }
    let breakdown = stats
        .breakdown()
        .into_iter()
        .map(|(k, c)| (k.label().to_string(), c))
        .collect();

    // Pushes are too fine-grained to time individually; the queues' own
    // scheduling counters give the invocation count for free.
    let mut pushes = coord.cq.scheduled_total();
    let prof = &mut coord.prof;
    for sh in &shs {
        prof.absorb(&sh.prof);
        pushes += sh.queue.scheduled_total();
    }
    prof.add_count(Phase::QueuePush, pushes);

    let comp_scheduled: u64 = shs.iter().map(|s| s.comp_scheduled).sum();
    let comp_dedup_skips: u64 = shs.iter().map(|s| s.comp_dedup_skips).sum();
    let comp_dead_pops: u64 = shs.iter().map(|s| s.comp_dead_pops).sum();
    let retries: u64 = shs.iter().map(|s| s.retries).sum();
    let suspicions: u64 = shs.iter().map(|s| s.suspicions).sum();
    let suspected_evil: u64 = shs.iter().map(|s| s.suspected_evil).sum();
    let suspected_honest: u64 = shs.iter().map(|s| s.suspected_honest).sum();
    let blacklisted: u64 = shs
        .iter()
        .map(|s| s.hosts.blacklist.blacklisted_total)
        .sum();
    let drops_blackhole: u64 = shs.iter().map(|s| s.hosts.fault.drops_blackhole).sum();
    let drops_loss: u64 = shs.iter().map(|s| s.hosts.fault.drops_loss).sum();
    let drops_burst: u64 = shs.iter().map(|s| s.hosts.fault.drops_burst).sum();
    let drops_partition: u64 = shs.iter().map(|s| s.hosts.fault.drops_partition).sum();
    let oracle_matchable: u64 = shs.iter().map(|s| s.oracle_matchable).sum();
    let oracle_match_sum: u64 = shs.iter().map(|s| s.oracle_match_sum).sum();
    let oracle_record_matchable: u64 = shs.iter().map(|s| s.oracle_record_matchable).sum();

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
        completion_scheduled: comp_scheduled,
        completion_dedup_skips: comp_dedup_skips,
        completion_dead_pops: comp_dead_pops,
        local_generated: agg.local_generated(),
        local_finished: agg.local_finished(),
        oracle_matchable: if sc.oracle {
            Some(oracle_matchable)
        } else {
            None
        },
        oracle_record_matchable: if sc.oracle {
            Some(oracle_record_matchable)
        } else {
            None
        },
        oracle_mean_matching: if sc.oracle && agg.generated() > 0 {
            Some(oracle_match_sum as f64 / agg.generated() as f64)
        } else {
            None
        },
        t_ratio: agg.t_ratio(),
        f_ratio: agg.f_ratio(),
        fairness: agg.fairness(),
        mean_efficiency: agg.mean_efficiency(),
        msg_total: stats.total(),
        msg_per_node: stats.total() as f64 / sc.n_nodes as f64,
        msg_breakdown: breakdown,
        faults: FaultSummary {
            blackhole_nodes: coord.fault_master.blackhole_count(),
            liar_nodes: coord.fault_master.liar_count(),
            drops_blackhole,
            drops_loss,
            drops_burst,
            drops_partition,
            retries,
            suspicions,
            blacklisted,
            blacklist_peak: coord.blacklist_peak,
            suspected_evil,
            suspected_honest,
        },
        wall_ms: wall_start.elapsed().as_millis(),
        profile: coord.prof.summary(),
        diag: first.proto.diag_string(),
    }
}

/// Run one scenario through the windowed engine with an explicit driver.
fn run_windowed<P: DiscoveryOverlay + Send>(
    sc: &Scenario,
    source: &mut dyn WorkloadSource,
    proto: P,
    can_dim: usize,
    mode: ExecMode,
    defense_on: bool,
) -> RunReport {
    // soc-lint: allow(no-wall-clock) -- wall_ms is diagnostic-only and excluded from fingerprint() (see report.rs FINGERPRINT_EXCLUDED)
    let wall_start = std::time::Instant::now();
    let (mut coord, world, shards, threaded) =
        bootstrap(sc, source, proto, can_dim, mode, defense_on);

    // Protocol start-up, per shard over its own live nodes (global node
    // order within each shard). Cross-shard bootstrap sends are cross-LAN,
    // so buffering them to the first merge is within the lookahead rule.
    {
        let wr = world.read().expect("world lock");
        for (sid, s) in shards.iter().enumerate() {
            let own: Vec<NodeId> = coord
                .live
                .iter()
                .copied()
                .filter(|n| wr.shard_of[n.idx()] == sid)
                .collect();
            let mut sh = s.lock().expect("shard lock");
            sh.with_proto(&wr, |p, ctx| p.on_start_nodes(ctx, &own));
        }
    }
    merge_outboxes(&shards);
    // Arrival chains, one per live node, drawn from the owner shard's
    // workload fork (or the lent master in the single-shard fallback).
    {
        let wr = world.read().expect("world lock");
        for node in coord.live.clone() {
            let sid = wr.shard_of[node.idx()];
            let mut guard = shards[sid].lock().expect("shard lock");
            let sh = &mut *guard;
            let delay = match sh.source.as_mut() {
                Some(f) => f.next_delay(node, 0, &mut sh.rng_work),
                None => coord.source.next_delay(node, 0, &mut sh.rng_work),
            };
            sh.queue.schedule_at(delay, Ev::Arrival { node });
        }
    }
    // Sampling + churn live on the coordinator queue.
    coord.cq.schedule_at(sc.sample_ms, CoEv::Sample);
    coord.schedule_next_churn(0);

    if threaded {
        drive_threaded(&mut coord, &world, &shards);
    } else {
        drive_inline(&mut coord, &world, &shards);
    }

    finish(coord, shards, wall_start)
}

/// Build the scenario's configured synthetic workload source (the object a
/// trace recorder wraps).
pub fn build_source(sc: &Scenario) -> SyntheticSource {
    SyntheticSource::new(
        sc.workload,
        sc.lambda,
        sc.mean_arrival_s,
        sc.mean_duration_s,
    )
}

/// Run a scenario with its configured protocol and workload.
pub fn run_scenario(sc: &Scenario) -> RunReport {
    let mut source = build_source(sc);
    run_scenario_with(sc, &mut source)
}

/// Run a scenario pulling all workload decisions from an explicit
/// [`WorkloadSource`] — the trace record/replay entry point. The source
/// must match the scenario's shape (node counts, call order); the
/// scenario's own `workload` spec is ignored.
pub fn run_scenario_with(sc: &Scenario, source: &mut dyn WorkloadSource) -> RunReport {
    run_scenario_with_exec(sc, source, exec_mode_from_env())
}

/// Exec-mode-explicit entry point for in-crate equivalence tests (avoids
/// env-var races under the parallel test harness; env-flipping coverage
/// lives in the serialized bench suite).
fn run_scenario_with_exec(
    sc: &Scenario,
    source: &mut dyn WorkloadSource,
    mode: ExecMode,
) -> RunReport {
    let defense_on = defense_from_env();
    let max_nodes = sc.n_nodes + id_headroom(sc.n_nodes);
    // Scaled-down scenarios shrink task durations; protocol cycles shrink
    // by the same factor so staleness-vs-lifetime ratios stay faithful.
    let f = (sc.mean_duration_s / 3000.0).min(1.0);
    let cfg = match sc.protocol {
        ProtocolChoice::Hid => PidCanConfig::hid(),
        ProtocolChoice::Sid => PidCanConfig::sid(),
        ProtocolChoice::HidSos => PidCanConfig::hid_sos(),
        ProtocolChoice::SidSos => PidCanConfig::sid_sos(),
        ProtocolChoice::SidVd => PidCanConfig::sid_vd(),
        ProtocolChoice::Newscast => {
            let proto = Newscast::new(
                GossipConfig::default().scale_cycles(f),
                sc.n_nodes,
                max_nodes,
            );
            return run_windowed(sc, source, proto, soc_types::SOC_DIMS, mode, defense_on);
        }
        ProtocolChoice::Khdn => {
            let proto = KhdnCan::new(KhdnConfig::default().scale_cycles(f), sc.n_nodes, max_nodes);
            return run_windowed(sc, source, proto, soc_types::SOC_DIMS, mode, defense_on);
        }
    };
    run_pidcan(sc, source, cfg.scale_cycles(f), mode, defense_on)
}

fn run_pidcan(
    sc: &Scenario,
    source: &mut dyn WorkloadSource,
    mut cfg: PidCanConfig,
    mode: ExecMode,
    defense_on: bool,
) -> RunReport {
    cfg.corner_jitter = sc.corner_jitter;
    let dim = cfg.overlay_dim();
    // A row-less template: every shard runs a fork sized to its own ids.
    let template = PidCan::for_range(cfg, dim, sc.n_nodes, 0..0);
    run_windowed(sc, source, template, dim, mode, defense_on)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn quick(protocol: ProtocolChoice, seed: u64) -> RunReport {
        Scenario::quick(protocol).nodes(120).seed(seed).run()
    }

    #[test]
    fn hid_quick_run_produces_sane_report() {
        let r = quick(ProtocolChoice::Hid, 1);
        assert!(r.generated > 100, "too few tasks: {}", r.generated);
        assert!(r.t_ratio > 0.0, "nothing finished");
        assert!(r.t_ratio <= 1.0 && r.f_ratio <= 1.0);
        assert!(r.fairness > 0.0 && r.fairness <= 1.0);
        assert!(r.msg_total > 0);
        assert_eq!(r.label, "HID-CAN");
        assert!(!r.series.is_empty());
        // Series is monotone in generated tasks.
        for w in r.series.windows(2) {
            assert!(w[1].generated >= w[0].generated);
        }
    }

    #[test]
    fn all_protocols_run_quickly() {
        for p in ProtocolChoice::ALL {
            let r = Scenario::quick(p).nodes(80).hours(1).seed(2).run();
            assert!(r.generated > 0, "{}: nothing generated", r.label);
            assert_eq!(r.label, p.label());
            assert!(
                r.finished + r.failed + r.killed <= r.generated,
                "{}: conservation",
                r.label
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(ProtocolChoice::Hid, 7);
        let b = quick(ProtocolChoice::Hid, 7);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.finished, b.finished);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.msg_total, b.msg_total);
        let c = quick(ProtocolChoice::Hid, 8);
        assert!(
            c.msg_total != a.msg_total || c.finished != a.finished,
            "different seeds should differ"
        );
    }

    #[test]
    fn churn_run_stays_consistent() {
        let r = Scenario::quick(ProtocolChoice::Hid)
            .nodes(100)
            .hours(1)
            .churn(0.5)
            .seed(3)
            .run();
        assert!(r.generated > 0);
        assert!(
            r.finished + r.failed + r.killed <= r.generated,
            "conservation under churn"
        );
    }

    /// ISSUE 4 satellite: every epoch bump used to orphan the node's
    /// previously scheduled completion event, which still got popped and
    /// discarded. The memo keeps exactly one live event per node, so dead
    /// pops are bounded by what was actually scheduled, and scheduling
    /// itself is bounded by allocation-changing events (each admit or
    /// completion batch triggers at most one (re)schedule, and admits are
    /// bounded by tasks entering execution).
    #[test]
    fn stale_completion_pops_are_bounded() {
        for (churn, seed) in [(0.0, 5), (0.75, 6)] {
            let r = Scenario::quick(ProtocolChoice::Hid)
                .nodes(120)
                .hours(2)
                .churn(churn)
                .seed(seed)
                .run();
            assert!(r.completion_scheduled > 0, "nothing ever scheduled");
            assert!(
                r.completion_dead_pops <= r.completion_scheduled,
                "more dead pops ({}) than scheduled events ({})",
                r.completion_dead_pops,
                r.completion_scheduled
            );
            // Each admit schedules ≤ 1 event; each valid pop reschedules
            // ≤ 1, and valid pops split into completion batches (≥ 1 finish
            // each) plus at most one residual-epsilon retry per batch — so
            // scheduled ≤ admits + 2·finishes ≤ 3·admits.
            let admits = r.generated + r.local_generated + r.checkpoint_resubmits;
            assert!(
                r.completion_scheduled <= 3 * admits,
                "scheduled ({}) exceeds the 3×admits bound ({} admits)",
                r.completion_scheduled,
                admits
            );
        }
    }

    #[test]
    fn harder_lambda_means_more_failures() {
        let easy = Scenario::quick(ProtocolChoice::Hid)
            .nodes(120)
            .lambda(0.25)
            .seed(4)
            .run();
        let hard = Scenario::quick(ProtocolChoice::Hid)
            .nodes(120)
            .lambda(1.0)
            .seed(4)
            .run();
        assert!(
            hard.f_ratio >= easy.f_ratio,
            "λ=1 ({}) should fail at least as often as λ=0.25 ({})",
            hard.f_ratio,
            easy.f_ratio
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::scenario::Scenario;
    use soc_net::FaultConfig;

    // These tests run with the defence OFF (the default; no env flips —
    // env-flipping defence tests live in the serialized bench suite).

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
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::scenario::Scenario;

    fn churny(seed: u64, ckpt: bool) -> RunReport {
        let mut sc = Scenario::quick(ProtocolChoice::Hid)
            .nodes(120)
            .hours(2)
            .churn(0.75)
            .seed(seed);
        sc.checkpointing = ckpt;
        sc.run()
    }

    #[test]
    fn checkpointing_recovers_churned_tasks() {
        let plain = churny(21, false);
        let ckpt = churny(21, true);
        assert_eq!(plain.checkpoint_resubmits, 0);
        assert!(
            ckpt.checkpoint_resubmits > 0,
            "churn at 75% must trigger resubmissions"
        );
        // Recovered residual work means strictly fewer killed tasks.
        assert!(
            ckpt.killed < plain.killed.max(1),
            "checkpointing should reduce kills: {} vs {}",
            ckpt.killed,
            plain.killed
        );
        ckpt.series
            .last()
            .map(|p| assert!(p.generated > 0))
            .unwrap();
    }

    #[test]
    fn checkpointing_preserves_conservation() {
        let r = churny(22, true);
        assert!(
            r.finished + r.failed + r.killed + r.rejected <= r.generated,
            "conservation with resubmissions"
        );
    }
}

#[cfg(test)]
mod exec_tests {
    use super::*;
    use crate::scenario::Scenario;
    use soc_net::FaultConfig;
    use soc_overlay::TimerKind;

    fn fp(sc: &Scenario, mode: ExecMode) -> String {
        let mut source = build_source(sc);
        run_scenario_with_exec(sc, &mut source, mode).fingerprint()
    }

    /// The tentpole invariant: both drivers execute the identical windowed
    /// schedule, so sharded runs are bitwise-identical to serial — across
    /// plain, churn and checkpointing configurations.
    #[test]
    fn sharded_driver_is_bitwise_identical_to_serial() {
        let mut ckpt = Scenario::quick(ProtocolChoice::Hid)
            .nodes(120)
            .hours(1)
            .churn(0.75)
            .seed(13);
        ckpt.checkpointing = true;
        for sc in [
            Scenario::quick(ProtocolChoice::Hid).nodes(120).seed(11),
            Scenario::quick(ProtocolChoice::SidSos)
                .nodes(120)
                .hours(1)
                .churn(0.5)
                .seed(12),
            ckpt,
        ] {
            assert_eq!(
                fp(&sc, ExecMode::Serial),
                fp(&sc, ExecMode::Sharded),
                "drivers diverged on {}",
                sc.descriptor()
            );
        }
    }

    /// Same invariant with the fault model active (drop verdicts and
    /// suspicion routing cross shard boundaries).
    #[test]
    fn sharded_driver_matches_serial_under_faults() {
        let sc = Scenario::quick(ProtocolChoice::Hid)
            .nodes(120)
            .hours(1)
            .seed(14)
            .fault(FaultConfig {
                blackhole_frac: 0.2,
                loss: 0.02,
                ..FaultConfig::default()
            });
        assert_eq!(fp(&sc, ExecMode::Serial), fp(&sc, ExecMode::Sharded));
    }

    /// Where [`Tripwire`] panics — or, for the one passive wire, counts.
    #[derive(Clone, Copy)]
    enum Trip {
        /// On a shard's k-th message delivery — inside a worker's window.
        Delivery(usize),
        /// On the first node departure — on the coordinator, between windows.
        Leave,
        /// Never: count the departures of nodes that, as observers, hold
        /// an active blacklist entry against any of the `ids` node ids.
        WatchLeaves {
            ids: u32,
            observers_gone: &'static AtomicU64,
        },
    }

    /// A protocol that behaves exactly like `inner` until its tripwire
    /// fires. Every shard fork carries its own copy of the wire.
    struct Tripwire<P> {
        inner: P,
        trip: Trip,
    }

    impl<P: DiscoveryOverlay> DiscoveryOverlay for Tripwire<P> {
        type Msg = P::Msg;

        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            self.inner.on_start(ctx)
        }
        fn on_start_nodes(&mut self, ctx: &mut Ctx<'_, Self::Msg>, nodes: &[NodeId]) {
            self.inner.on_start_nodes(ctx, nodes)
        }
        fn shardable(&self) -> bool {
            self.inner.shardable()
        }
        fn fork_shard(&self, owned: Range<u32>) -> Option<Self> {
            let inner = self.inner.fork_shard(owned)?;
            Some(Tripwire {
                inner,
                trip: self.trip,
            })
        }
        fn absorb_diag(&mut self, other: &Self) {
            self.inner.absorb_diag(&other.inner)
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId, msg: Self::Msg) {
            if let Trip::Delivery(left) = &mut self.trip {
                *left -= 1;
                assert!(*left > 0, "tripwire: delivery handler blew up");
            }
            self.inner.on_message(ctx, node, msg)
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId, kind: TimerKind) {
            self.inner.on_timer(ctx, node, kind)
        }
        fn start_query(&mut self, ctx: &mut Ctx<'_, Self::Msg>, req: QueryRequest) {
            self.inner.start_query(ctx, req)
        }
        fn on_node_joined(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId) {
            self.inner.on_node_joined(ctx, node)
        }
        fn on_node_left(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: NodeId) {
            assert!(
                !matches!(self.trip, Trip::Leave),
                "tripwire: churn handler blew up"
            );
            if let Trip::WatchLeaves {
                ids,
                observers_gone,
            } = self.trip
            {
                // The hook runs before the coordinator forgets the
                // victim's suspicions, so they are still readable here.
                if (0..ids).any(|x| ctx.host.is_suspect(node, NodeId(x), ctx.now)) {
                    observers_gone.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.inner.on_node_left(ctx, node)
        }
        fn on_zones_reassigned(&mut self, ctx: &mut Ctx<'_, Self::Msg>, affected: &[NodeId]) {
            self.inner.on_zones_reassigned(ctx, affected)
        }
        fn on_message_dropped(
            &mut self,
            ctx: &mut Ctx<'_, Self::Msg>,
            from: NodeId,
            to: NodeId,
            msg: Self::Msg,
        ) {
            self.inner.on_message_dropped(ctx, from, to, msg)
        }
    }

    /// A 120-node (4-LAN, 4-shard) HID run on the threaded driver with a
    /// tripwire around the protocol.
    fn run_tripped(trip: Trip, churn: f64) {
        let sc = Scenario::quick(ProtocolChoice::Hid)
            .nodes(120)
            .hours(1)
            .churn(churn)
            .seed(16);
        let cfg = PidCanConfig::hid();
        let dim = cfg.overlay_dim();
        let proto = Tripwire {
            inner: PidCan::for_range(cfg, dim, sc.n_nodes, 0..0),
            trip,
        };
        run_windowed(
            &sc,
            &mut build_source(&sc),
            proto,
            dim,
            ExecMode::Sharded,
            false,
        );
    }

    /// The shape of `PIN_LANS_DEFENCE` in the bench crate's
    /// `fault_equivalence` suite — 8 one-LAN shards, churn 0.5, blackholes and
    /// liars, defence on — really does what that pin is there for: nodes
    /// that blacklist others are churned away (so `node_leave` must forget
    /// an observer's row on one shard and the suspicions about it on all),
    /// and strikes keep landing throughout.
    #[test]
    fn churn_takes_blacklisting_observers_away() {
        static OBSERVERS_GONE: AtomicU64 = AtomicU64::new(0);
        let mut sc = Scenario::quick(ProtocolChoice::Hid)
            .nodes(192)
            .hours(2)
            .churn(0.5)
            .seed(16)
            .fault(FaultConfig {
                blackhole_frac: 0.15,
                liar_frac: 0.1,
                ..FaultConfig::default()
            });
        sc.lan_size = 30;
        let cfg = PidCanConfig::hid();
        let dim = cfg.overlay_dim();
        let max_nodes = sc.n_nodes + id_headroom(sc.n_nodes);
        let proto = Tripwire {
            inner: PidCan::for_range(cfg, dim, sc.n_nodes, 0..0),
            trip: Trip::WatchLeaves {
                ids: max_nodes as u32,
                observers_gone: &OBSERVERS_GONE,
            },
        };
        let r = run_windowed(
            &sc,
            &mut build_source(&sc),
            proto,
            dim,
            ExecMode::Serial,
            true,
        );
        assert!(r.faults.suspicions > 0 && r.faults.blacklisted > 0);
        assert!(
            OBSERVERS_GONE.load(Ordering::Relaxed) > 0,
            "no blacklisting observer ever left: {:?}",
            r.faults
        );
    }

    /// A worker that panics mid-window must surface its own message on the
    /// calling thread — not leave the coordinator and the other workers
    /// waiting at the window barrier forever.
    #[test]
    #[should_panic(expected = "tripwire: delivery handler blew up")]
    fn worker_panic_propagates_instead_of_deadlocking() {
        run_tripped(Trip::Delivery(500), 0.0);
    }

    /// Same for a panic on the coordinator, between windows, while every
    /// worker is parked at the window-opening barrier.
    #[test]
    #[should_panic(expected = "tripwire: churn handler blew up")]
    fn coordinator_panic_propagates_instead_of_deadlocking() {
        run_tripped(Trip::Leave, 0.75);
    }

    /// The id ranges `(execs, comp_sched, blacklist rows)` of every shard.
    fn held<P: DiscoveryOverlay>(shards: &[Mutex<Shard<P>>]) -> Vec<[Range<u32>; 3]> {
        shards
            .iter()
            .map(|s| {
                let sh = s.lock().expect("shard lock");
                [
                    sh.hosts.execs.owned(),
                    sh.comp_sched.owned(),
                    sh.hosts.blacklist.observers(),
                ]
            })
            .collect()
    }

    /// Every per-node table is sized to the shard's own ids: over an
    /// 8-shard bootstrap the rows of each table add up to `max_nodes`, not
    /// `8 · max_nodes`, the ranges tile the id space in shard order, and
    /// they are the `shard_of` map read the other way. A single shard —
    /// forked (oracle run) or unforkable (Newscast) — holds every id.
    #[test]
    fn shards_hold_rows_for_their_own_ids_only() {
        // 128 nodes + 32 headroom ids in 20-node LANs: 8 LANs, 8 shards.
        let mut sc = Scenario::quick(ProtocolChoice::Hid).nodes(128).seed(17);
        sc.lan_size = 20;
        let max_nodes = (sc.n_nodes + id_headroom(sc.n_nodes)) as u32;
        let cfg = PidCanConfig::hid();
        let dim = cfg.overlay_dim();
        let boot = |sc: &Scenario| {
            let template = PidCan::for_range(cfg, dim, sc.n_nodes, 0..0);
            let mut src = build_source(sc);
            let (_, world, shards, _) =
                bootstrap(sc, &mut src, template, dim, ExecMode::Serial, false);
            (world.into_inner().expect("world lock"), shards)
        };

        let (world, shards) = boot(&sc);
        assert_eq!(shards.len(), 8);
        let mut next = 0;
        for (sid, (s, rows)) in shards.iter().zip(held(&shards)).enumerate() {
            let sh = s.lock().expect("shard lock");
            let ids = sh.proto.owned();
            assert_eq!(ids.start, next, "shard {sid} leaves a gap or overlaps");
            assert!(!ids.is_empty());
            assert_eq!(rows, [ids.clone(), ids.clone(), ids.clone()]);
            assert!(ids.clone().all(|i| world.shard_of[i as usize] == sid));
            // What every shard reads for foreign ids stays full-size.
            assert_eq!(sh.hosts.alive.len(), max_nodes as usize);
            next = ids.end;
        }
        assert_eq!(next, max_nodes, "the shards' ranges tile the id space");

        sc.oracle = true;
        let (_, shards) = boot(&sc);
        assert_eq!(shards.len(), 1);
        assert_eq!(
            shards[0].lock().expect("shard lock").proto.owned(),
            0..max_nodes
        );
        assert_eq!(held(&shards), [[0..max_nodes, 0..max_nodes, 0..max_nodes]]);

        sc.oracle = false;
        let gossip = Newscast::new(GossipConfig::default(), sc.n_nodes, max_nodes as usize);
        let mut src = build_source(&sc);
        let (_, _, shards, _) = bootstrap(
            &sc,
            &mut src,
            gossip,
            soc_types::SOC_DIMS,
            ExecMode::Serial,
            false,
        );
        assert_eq!(held(&shards), [[0..max_nodes, 0..max_nodes, 0..max_nodes]]);
    }

    /// Unshardable protocols (gossip keeps cross-node handler state) force
    /// the single-shard fallback; both drivers must then agree trivially.
    #[test]
    fn single_shard_protocols_fall_back_cleanly() {
        let sc = Scenario::quick(ProtocolChoice::Newscast)
            .nodes(80)
            .hours(1)
            .seed(15);
        assert_eq!(fp(&sc, ExecMode::Serial), fp(&sc, ExecMode::Sharded));
    }
}
