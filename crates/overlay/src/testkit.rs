//! A miniature synchronous runner for protocol unit tests.
//!
//! The real scenario runner (`soc-sim`) adds PSM execution, workload,
//! churn scheduling and realistic latencies. For unit-testing protocol
//! *logic*, this harness is enough: fixed 1 ms hop latency, deterministic
//! FIFO delivery, effect application identical in spirit to the runner's.

use crate::api::{Candidate, Ctx, DiscoveryOverlay, Effect, HostInfo, QueryRequest};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use soc_can::CanOverlay;
use soc_net::MsgStats;
use soc_simcore::EventQueue;
use soc_types::{NodeId, QueryId, ResVec, SimMillis};
use std::collections::{BTreeMap, BTreeSet};

/// Static host info for tests.
pub struct TestHost {
    /// Per-node availability vectors returned to protocols.
    pub avails: Vec<ResVec>,
    /// Global capacity bound.
    pub cmax: ResVec,
    /// Aliveness flags (defaults to all alive).
    pub alive: Vec<bool>,
    /// Blacklist pairs `(by, of)` for exercising suspect-avoiding routing
    /// (defaults to empty — nobody suspects anybody).
    pub suspects: Vec<(NodeId, NodeId)>,
}

impl TestHost {
    /// Host where every node advertises `avail` and `cmax` bounds it.
    pub fn uniform(n: usize, avail: ResVec, cmax: ResVec) -> Self {
        TestHost {
            avails: vec![avail; n],
            cmax,
            alive: vec![true; n],
            suspects: Vec::new(),
        }
    }
}

impl HostInfo for TestHost {
    fn availability(&self, node: NodeId) -> ResVec {
        self.avails[node.idx()]
    }
    fn cmax(&self) -> &ResVec {
        &self.cmax
    }
    fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.idx()).copied().unwrap_or(false)
    }
    fn is_suspect(&self, by: NodeId, node: NodeId, _now: SimMillis) -> bool {
        self.suspects.contains(&(by, node))
    }
}

enum Ev<M> {
    Msg {
        #[expect(
            dead_code,
            reason = "kept for trace/debug symmetry with the real runner"
        )]
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    Timer {
        node: NodeId,
        kind: u32,
    },
}

/// Synchronous protocol test runner.
pub struct TestHarness<P: DiscoveryOverlay> {
    /// Protocol under test.
    pub proto: P,
    /// Overlay structure.
    pub can: CanOverlay,
    /// Host info fed to the protocol.
    pub host: TestHost,
    /// Message accounting.
    pub stats: MsgStats,
    /// Collected query results.
    pub results: BTreeMap<QueryId, Vec<Candidate>>,
    /// Queries the protocol declared exhausted.
    pub done: BTreeSet<QueryId>,
    rng: SmallRng,
    queue: EventQueue<Ev<P::Msg>>,
}

impl<P: DiscoveryOverlay> TestHarness<P> {
    /// Build a harness; `on_start` is invoked immediately, over every live
    /// node of `can`.
    pub fn new(mut proto: P, can: CanOverlay, host: TestHost, seed: u64) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "a test harness seeds its own stream: it runs protocol logic, not a run"
        )]
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut queue = EventQueue::new();
        let mut stats = MsgStats::default();
        {
            let live: Vec<NodeId> = can.live_nodes().collect();
            let mut ctx = Ctx::new(0, &can, &host, &mut rng);
            proto.on_start(&mut ctx, &live);
            let (fx, sent) = ctx.finish();
            stats.record_batch(&sent);
            let mut h = ApplySink {
                queue: &mut queue,
                results: &mut BTreeMap::new(),
                done: &mut BTreeSet::new(),
                host: &host,
                dropped: &mut Vec::new(),
            };
            h.apply(fx);
        }
        TestHarness {
            proto,
            can,
            host,
            stats,
            results: BTreeMap::new(),
            done: BTreeSet::new(),
            rng,
            queue,
        }
    }

    /// Start a query through the protocol.
    pub fn start_query(&mut self, req: QueryRequest) {
        let mut ctx = Ctx::new(self.queue.now(), &self.can, &self.host, &mut self.rng);
        self.proto.start_query(&mut ctx, req);
        let (fx, sent) = ctx.finish();
        self.stats.record_batch(&sent);
        self.apply(fx);
    }

    fn apply(&mut self, fx: Vec<Effect<P::Msg>>) {
        let mut dropped = Vec::new();
        {
            let mut sink = ApplySink {
                queue: &mut self.queue,
                results: &mut self.results,
                done: &mut self.done,
                host: &self.host,
                dropped: &mut dropped,
            };
            sink.apply(fx);
        }
        for (from, to, msg) in dropped {
            let mut ctx = Ctx::new(self.queue.now(), &self.can, &self.host, &mut self.rng);
            self.proto.on_message_dropped(&mut ctx, from, to, msg);
            let (fx, sent) = ctx.finish();
            self.stats.record_batch(&sent);
            self.apply(fx);
        }
    }

    /// Pump events until the queue drains or `max_events` were processed.
    /// Returns how many events ran.
    pub fn run(&mut self, max_events: usize) -> usize {
        let mut n = 0;
        while n < max_events {
            let Some((_, ev)) = self.queue.pop() else {
                break;
            };
            n += 1;
            let mut ctx = Ctx::new(self.queue.now(), &self.can, &self.host, &mut self.rng);
            match ev {
                Ev::Msg { to, msg, .. } => self.proto.on_message(&mut ctx, to, msg),
                Ev::Timer { node, kind } => {
                    if self.host.is_alive(node) {
                        self.proto.on_timer(&mut ctx, node, kind);
                    }
                }
            }
            let (fx, sent) = ctx.finish();
            self.stats.record_batch(&sent);
            self.apply(fx);
        }
        n
    }

    /// Pump events whose timestamps are ≤ `deadline`.
    pub fn run_until(&mut self, deadline: SimMillis) -> usize {
        let mut n = 0;
        while let Some((_, ev)) = self.queue.pop_until(deadline) {
            n += 1;
            let mut ctx = Ctx::new(self.queue.now(), &self.can, &self.host, &mut self.rng);
            match ev {
                Ev::Msg { to, msg, .. } => self.proto.on_message(&mut ctx, to, msg),
                Ev::Timer { node, kind } => {
                    if self.host.is_alive(node) {
                        self.proto.on_timer(&mut ctx, node, kind);
                    }
                }
            }
            let (fx, sent) = ctx.finish();
            self.stats.record_batch(&sent);
            self.apply(fx);
        }
        n
    }

    /// Current simulated time.
    pub fn now(&self) -> SimMillis {
        self.queue.now()
    }

    /// Pending event count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

struct ApplySink<'s, M> {
    queue: &'s mut EventQueue<Ev<M>>,
    results: &'s mut BTreeMap<QueryId, Vec<Candidate>>,
    done: &'s mut BTreeSet<QueryId>,
    host: &'s TestHost,
    dropped: &'s mut Vec<(NodeId, NodeId, M)>,
}

impl<M> ApplySink<'_, M> {
    fn apply(&mut self, fx: Vec<Effect<M>>) {
        // Traffic accounting already happened in batch when the producing
        // `Ctx` was finished; effects only move data.
        for f in fx {
            match f {
                Effect::Send { from, to, msg, .. } => {
                    if self.host.is_alive(to) {
                        self.queue.schedule_in(1, Ev::Msg { from, to, msg });
                    } else {
                        self.dropped.push((from, to, msg));
                    }
                }
                Effect::Timer { node, kind, delay } => {
                    self.queue
                        .schedule_in(delay.max(1), Ev::Timer { node, kind });
                }
                Effect::QueryResults { qid, candidates } => {
                    self.results.entry(qid).or_default().extend(candidates);
                }
                Effect::QueryDone { qid } => {
                    self.done.insert(qid);
                }
            }
        }
    }
}
