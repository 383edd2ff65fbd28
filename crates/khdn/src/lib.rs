//! KHDN-CAN — the K-Hop DHT-NEIGHBOR range-query baseline (§IV-A).
//!
//! *"In KHDN-CAN, once a state message is routed to its duty node, it will
//! be further spread to negative CAN neighbors with K hops, such that each
//! query can easily locate the K-hop sampled positive neighbors around the
//! minimal-demand zone nodes, for searching the qualified resources closest
//! to expectation vectors. KHDN-CAN can be considered RT-CAN tailor-made
//! for SOC… \[or\] converted from INSCAN-RQ."*
//!
//! Mechanics: records replicate K hops in the *negative* directions from
//! their duty node; a query routes (greedy CAN) to the duty node of its
//! demand vector, checks the local cache, then sweeps *positive* neighbors
//! up to K hops (bounded branching — the "sampled" positive neighbors),
//! each reporting qualified cached records to the requester.

use rand::{Rng, RngExt};
use soc_can::greedy_next_hop;
use soc_net::MsgKind;
use soc_overlay::{
    Candidate, Ctx, DiscoveryOverlay, QueryRequest, QueryVerdict, RecordCache, StateRecord,
};
use soc_types::{NodeId, QueryId, ResVec, SimMillis};
use std::collections::BTreeMap;

const T_STATE: u32 = 0;

/// KHDN-CAN tunables.
#[derive(Clone, Copy, Debug)]
pub struct KhdnConfig {
    /// Record replication radius (negative directions from the duty node).
    /// The paper tunes K so traffic stays comparable to the other
    /// protocols'.
    pub replicate_hops: usize,
    /// Query sweep radius (positive directions from the duty node).
    pub sweep_hops: usize,
    /// Branching per hop of the replication/sweep ("sampled" neighbors).
    pub branch: usize,
    /// State-update cycle (§IV-A: 400 s).
    pub state_update_ms: SimMillis,
    /// Record TTL (§IV-A: 600 s).
    pub record_ttl_ms: SimMillis,
}

impl Default for KhdnConfig {
    fn default() -> Self {
        KhdnConfig {
            replicate_hops: 1,
            sweep_hops: 2,
            branch: 3,
            state_update_ms: 400_000,
            record_ttl_ms: 600_000,
        }
    }
}

impl KhdnConfig {
    /// Multiply periods/TTLs by `f` (see `PidCanConfig::scale_cycles`).
    pub fn scale_cycles(mut self, f: f64) -> Self {
        let s = |ms: SimMillis| -> SimMillis { ((ms as f64 * f).round() as SimMillis).max(1) };
        self.state_update_ms = s(self.state_update_ms);
        self.record_ttl_ms = s(self.record_ttl_ms);
        self
    }
}

/// KHDN-CAN wire messages. Like `PidMsg`, every fat body (a
/// `StateRecord`, a demand vector) sits behind a `Box` that travels with
/// the message, so an event stays small and a relaying hop re-sends the
/// box it received.
#[derive(Clone, Debug)]
pub enum KhdnMsg {
    /// Record being routed to its duty node.
    StateUpdate(Box<RoutedRecord>),
    /// Record replica pushed to negative neighbors.
    Replicate(Box<Replica>),
    /// Query being routed to the demand vector's duty node.
    Query(Box<RoutedQuery>),
    /// Positive-direction sweep around the duty node.
    Sweep(Box<Sweep>),
    /// Results to the requester.
    Found {
        /// Query identity.
        qid: QueryId,
        /// Qualified records.
        candidates: Vec<Candidate>,
    },
    /// Sweep finished; lets the requester settle the query.
    SweepDone {
        /// Query identity.
        qid: QueryId,
    },
}

const _: () = assert!(std::mem::size_of::<KhdnMsg>() <= 32);

/// Body of [`KhdnMsg::StateUpdate`].
#[derive(Clone, Debug)]
pub struct RoutedRecord {
    /// Record payload.
    pub rec: StateRecord,
    /// Key-space target (normalized availability).
    pub target: ResVec,
    /// Routing TTL.
    pub hops_left: u32,
}

/// Body of [`KhdnMsg::Replicate`].
#[derive(Clone, Debug)]
pub struct Replica {
    /// Record payload.
    pub rec: StateRecord,
    /// Remaining replication radius.
    pub hops_left: usize,
}

/// Body of [`KhdnMsg::Query`].
#[derive(Clone, Debug)]
pub struct RoutedQuery {
    /// Query identity.
    pub qid: QueryId,
    /// Requester.
    pub requester: NodeId,
    /// Demand vector (raw).
    pub demand: ResVec,
    /// Key-space target (normalized demand).
    pub target: ResVec,
    /// Results still wanted.
    pub delta: usize,
    /// Routing TTL.
    pub hops_left: u32,
}

/// Body of [`KhdnMsg::Sweep`].
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Query identity.
    pub qid: QueryId,
    /// Requester.
    pub requester: NodeId,
    /// Demand vector (raw).
    pub demand: ResVec,
    /// Results still wanted.
    pub delta: usize,
    /// Remaining sweep radius.
    pub hops_left: usize,
}

/// Per-query bookkeeping at the requester side (outstanding sweep
/// branches, so exhaustion is reported exactly once).
#[derive(Clone, Debug, Default)]
struct QueryTrack {
    outstanding: usize,
}

/// The KHDN-CAN protocol.
pub struct KhdnCan {
    cfg: KhdnConfig,
    caches: Vec<RecordCache>,
    tracks: BTreeMap<QueryId, QueryTrack>,
    route_budget: u32,
    /// Recycled buffer for cache probes (one `qualified_into` per duty or
    /// sweep visit; no per-visit Vec).
    found_buf: Vec<StateRecord>,
}

impl KhdnCan {
    /// Build for `n` expected nodes with id capacity `max_nodes`.
    pub fn new(cfg: KhdnConfig, n: usize, max_nodes: usize) -> Self {
        KhdnCan {
            cfg,
            caches: vec![RecordCache::new(cfg.record_ttl_ms); max_nodes],
            tracks: BTreeMap::new(),
            route_budget: 4 * (n.max(2) as f64).log2().ceil() as u32 + 16,
            found_buf: Vec::new(),
        }
    }

    /// Probe `node`'s cache for `demand`, returning the qualified records
    /// as `Candidate`s (empty Vec allocates nothing) via the recycled
    /// buffer.
    fn probe_cache(&mut self, node: NodeId, demand: &ResVec, now: SimMillis) -> Vec<Candidate> {
        let mut found = std::mem::take(&mut self.found_buf);
        self.caches[node.idx()].qualified_into(demand, now, &mut found);
        let cands = found
            .iter()
            .map(|r| Candidate {
                node: r.subject,
                avail: r.avail,
            })
            .collect();
        self.found_buf = found;
        cands
    }

    /// A node's record cache (diagnostics).
    pub fn cache(&self, node: NodeId) -> &RecordCache {
        &self.caches[node.idx()]
    }

    /// Store + replicate a record at its duty node.
    fn absorb_record(&mut self, ctx: &mut Ctx<'_, KhdnMsg>, node: NodeId, rec: StateRecord) {
        self.caches[node.idx()].insert(rec);
        self.replicate(ctx, node, rec, self.cfg.replicate_hops);
    }

    /// Push a replica to up to `branch` negative neighbors per dimension.
    fn replicate(
        &mut self,
        ctx: &mut Ctx<'_, KhdnMsg>,
        node: NodeId,
        rec: StateRecord,
        radius: usize,
    ) {
        if radius == 0 {
            return;
        }
        let negs: Vec<NodeId> = ctx
            .can
            .neighbors(node)
            .iter()
            .filter(|e| !e.positive)
            .map(|e| e.node)
            .collect();
        let picks = sample_up_to(&negs, self.cfg.branch, ctx.rng);
        for t in picks {
            ctx.send(
                node,
                t,
                MsgKind::KhdnReplicate,
                KhdnMsg::Replicate(Box::new(Replica {
                    rec,
                    hops_left: radius - 1,
                })),
            );
        }
    }

    /// Report found candidates (direct call when finder == requester).
    fn notify_found(
        &mut self,
        ctx: &mut Ctx<'_, KhdnMsg>,
        at: NodeId,
        qid: QueryId,
        requester: NodeId,
        candidates: Vec<Candidate>,
    ) {
        if candidates.is_empty() {
            return;
        }
        if at == requester {
            ctx.query_results(qid, candidates);
        } else {
            ctx.send(
                at,
                requester,
                MsgKind::FoundNotify,
                KhdnMsg::Found { qid, candidates },
            );
        }
    }

    /// Account one finished sweep branch; emit exhaustion at zero.
    fn branch_done(&mut self, ctx: &mut Ctx<'_, KhdnMsg>, qid: QueryId) {
        if let Some(t) = self.tracks.get_mut(&qid) {
            t.outstanding = t.outstanding.saturating_sub(1);
            if t.outstanding == 0 {
                self.tracks.remove(&qid);
                ctx.query_done(qid, QueryVerdict::Exhausted);
            }
        }
    }

    /// Duty-node handling: local check + positive sweep fan-out.
    fn handle_duty(
        &mut self,
        ctx: &mut Ctx<'_, KhdnMsg>,
        node: NodeId,
        qid: QueryId,
        requester: NodeId,
        demand: ResVec,
        mut delta: usize,
    ) {
        ctx.probes += 1;
        let cands = self.probe_cache(node, &demand, ctx.now);
        if !cands.is_empty() {
            delta = delta.saturating_sub(cands.len());
            self.notify_found(ctx, node, qid, requester, cands);
        }
        if delta == 0 {
            // Fully satisfied locally; settle any pending track.
            if self.tracks.remove(&qid).is_some() {
                // No exhaustion signal needed — the runner has δ results.
            }
            return;
        }
        // Sweep positive neighbors up to K hops, `branch` per node.
        let pos: Vec<NodeId> = ctx
            .can
            .neighbors(node)
            .iter()
            .filter(|e| e.positive)
            .map(|e| e.node)
            .collect();
        let picks = sample_up_to(&pos, self.cfg.branch, ctx.rng);
        let fan = picks.len();
        if fan == 0 {
            self.branch_done(ctx, qid);
            return;
        }
        if let Some(t) = self.tracks.get_mut(&qid) {
            // The duty branch forks into `fan` sweep branches.
            t.outstanding = t.outstanding - 1 + fan;
        }
        for t in picks {
            ctx.send(
                node,
                t,
                MsgKind::IndexJump,
                KhdnMsg::Sweep(Box::new(Sweep {
                    qid,
                    requester,
                    demand,
                    delta,
                    hops_left: self.cfg.sweep_hops.saturating_sub(1),
                })),
            );
        }
    }

    /// Sweep handling at a positive-direction node.
    fn handle_sweep(&mut self, ctx: &mut Ctx<'_, KhdnMsg>, node: NodeId, mut s: Box<Sweep>) {
        let (qid, requester, demand) = (s.qid, s.requester, s.demand);
        ctx.probes += 1;
        let cands = self.probe_cache(node, &demand, ctx.now);
        if !cands.is_empty() {
            s.delta = s.delta.saturating_sub(cands.len());
            self.notify_found(ctx, node, qid, requester, cands);
        }
        if s.delta == 0 || s.hops_left == 0 {
            self.sweep_branch_finished(ctx, node, qid, requester);
            return;
        }
        let pos: Vec<NodeId> = ctx
            .can
            .neighbors(node)
            .iter()
            .filter(|e| e.positive)
            .map(|e| e.node)
            .collect();
        let picks = sample_up_to(&pos, self.cfg.branch, ctx.rng);
        // Keep the requester's branch accounting simple and bounded: the
        // sweep continues on ONE neighbor (the received box travels on),
        // plus direct leaf probes to the others.
        let mut iter = picks.into_iter();
        let Some(first) = iter.next() else {
            self.sweep_branch_finished(ctx, node, qid, requester);
            return;
        };
        let delta = s.delta;
        s.hops_left -= 1;
        ctx.send(node, first, MsgKind::IndexJump, KhdnMsg::Sweep(s));
        for other in iter {
            // Leaf probe: terminal sweep step (hops_left = 0 at receiver).
            if let Some(t) = self.tracks.get_mut(&qid) {
                t.outstanding += 1;
            }
            ctx.send(
                node,
                other,
                MsgKind::IndexJump,
                KhdnMsg::Sweep(Box::new(Sweep {
                    qid,
                    requester,
                    demand,
                    delta,
                    hops_left: 0,
                })),
            );
        }
    }

    fn sweep_branch_finished(
        &mut self,
        ctx: &mut Ctx<'_, KhdnMsg>,
        at: NodeId,
        qid: QueryId,
        requester: NodeId,
    ) {
        if at == requester {
            self.branch_done(ctx, qid);
        } else {
            ctx.send(
                at,
                requester,
                MsgKind::FoundNotify,
                KhdnMsg::SweepDone { qid },
            );
        }
    }

    /// Greedy next hop toward `target`; `None` when `node` owns it.
    fn route(&self, ctx: &mut Ctx<'_, KhdnMsg>, node: NodeId, target: &ResVec) -> Option<NodeId> {
        ctx.routes += 1;
        greedy_next_hop(ctx.can, node, target)
    }
}

fn sample_up_to<R: Rng>(items: &[NodeId], k: usize, rng: &mut R) -> Vec<NodeId> {
    let mut v = items.to_vec();
    let take = k.min(v.len());
    for i in 0..take {
        let j = rng.random_range(i..v.len());
        v.swap(i, j);
    }
    v.truncate(take);
    v
}

impl DiscoveryOverlay for KhdnCan {
    type Msg = KhdnMsg;

    fn name(&self) -> &'static str {
        "KHDN-CAN"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, KhdnMsg>, nodes: &[NodeId]) {
        for &node in nodes {
            let phase = ctx.rng.random_range(0..self.cfg.state_update_ms.max(1));
            ctx.timer(node, T_STATE, phase);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KhdnMsg>, node: NodeId, msg: KhdnMsg) {
        match msg {
            KhdnMsg::StateUpdate(mut m) => {
                let here = ctx.can.row(node).is_some_and(|z| z.contains(&m.target));
                if !here && m.hops_left > 0 {
                    if let Some(next) = self.route(ctx, node, &m.target) {
                        m.hops_left -= 1;
                        ctx.send(node, next, MsgKind::StateUpdate, KhdnMsg::StateUpdate(m));
                        return;
                    }
                }
                self.absorb_record(ctx, node, m.rec);
            }
            KhdnMsg::Replicate(r) => {
                self.caches[node.idx()].insert(r.rec);
                self.replicate(ctx, node, r.rec, r.hops_left);
            }
            KhdnMsg::Query(mut q) => {
                let here = ctx.can.row(node).is_some_and(|z| z.contains(&q.target));
                if !here && q.hops_left > 0 {
                    if let Some(next) = self.route(ctx, node, &q.target) {
                        q.hops_left -= 1;
                        ctx.send(node, next, MsgKind::DutyQuery, KhdnMsg::Query(q));
                        return;
                    }
                }
                self.handle_duty(ctx, node, q.qid, q.requester, q.demand, q.delta);
            }
            KhdnMsg::Sweep(s) => self.handle_sweep(ctx, node, s),
            KhdnMsg::Found { qid, candidates } => ctx.query_results(qid, candidates),
            KhdnMsg::SweepDone { qid } => self.branch_done(ctx, qid),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KhdnMsg>, node: NodeId, kind: u32) {
        debug_assert_eq!(kind, T_STATE);
        let avail = ctx.host.availability(node);
        let target = ctx.normalize(&avail);
        let rec = StateRecord {
            subject: node,
            avail,
            stored_at: ctx.now,
        };
        match self.route(ctx, node, &target) {
            Some(next) => {
                let m = Box::new(RoutedRecord {
                    rec,
                    target,
                    hops_left: self.route_budget,
                });
                ctx.send(node, next, MsgKind::StateUpdate, KhdnMsg::StateUpdate(m));
            }
            None => self.absorb_record(ctx, node, rec),
        }
        ctx.timer(node, T_STATE, self.cfg.state_update_ms);
    }

    fn start_query(&mut self, ctx: &mut Ctx<'_, KhdnMsg>, req: QueryRequest) {
        self.tracks.insert(req.qid, QueryTrack { outstanding: 1 });
        let target = ctx.normalize(&req.demand);
        match self.route(ctx, req.requester, &target) {
            Some(next) => {
                let q = Box::new(RoutedQuery {
                    qid: req.qid,
                    requester: req.requester,
                    demand: req.demand,
                    target,
                    delta: req.wanted,
                    hops_left: self.route_budget,
                });
                ctx.send(req.requester, next, MsgKind::DutyQuery, KhdnMsg::Query(q));
            }
            None => self.handle_duty(
                ctx,
                req.requester,
                req.qid,
                req.requester,
                req.demand,
                req.wanted,
            ),
        }
    }

    fn on_node_joined(&mut self, ctx: &mut Ctx<'_, KhdnMsg>, node: NodeId) {
        self.caches[node.idx()] = RecordCache::new(self.cfg.record_ttl_ms);
        let phase = ctx.rng.random_range(0..self.cfg.state_update_ms.max(1));
        ctx.timer(node, T_STATE, phase);
    }

    fn on_node_left(&mut self, _ctx: &mut Ctx<'_, KhdnMsg>, node: NodeId) {
        self.caches[node.idx()] = RecordCache::new(self.cfg.record_ttl_ms);
    }

    fn on_message_dropped(
        &mut self,
        ctx: &mut Ctx<'_, KhdnMsg>,
        from: NodeId,
        _to: NodeId,
        msg: KhdnMsg,
    ) {
        if !ctx.host.is_alive(from) {
            return;
        }
        match msg {
            // Sweep/duty branches die with their target; settle accounting
            // so the requester is not left hanging.
            KhdnMsg::Sweep(s) => self.sweep_branch_finished(ctx, from, s.qid, s.requester),
            KhdnMsg::Query(q) => self.sweep_branch_finished(ctx, from, q.qid, q.requester),
            // Records are republished next cycle; notifications are lost.
            _ => {}
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_can::CanOverlay;
    use soc_overlay::testkit::{TestHarness, TestHost};

    const N: usize = 64;

    fn world(seed: u64) -> TestHarness<KhdnCan> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let can = CanOverlay::bootstrap(2, N, N, &mut rng);
        let cmax = ResVec::from_slice(&[10.0, 10.0]);
        let mut host = TestHost::uniform(N, ResVec::from_slice(&[5.0, 5.0]), cmax);
        for i in 0..N {
            let f = 0.15 + 0.8 * (i as f64 / N as f64);
            host.avails[i] = ResVec::from_slice(&[10.0 * f, 10.0 * f]);
        }
        let proto = KhdnCan::new(KhdnConfig::default(), N, N);
        TestHarness::new(proto, can, host, seed)
    }

    #[test]
    fn records_replicate_to_negative_neighbors() {
        let mut h = world(1);
        h.run_until(500_000);
        assert!(h.stats.count(MsgKind::KhdnReplicate) > 0);
        // Some node beyond the duty node must hold replicas: count caches
        // holding records about *other* nodes whose duty is elsewhere.
        let mut replicas = 0;
        for i in 0..N {
            let node = NodeId(i as u32);
            for r in h.proto.cache(node).fresh(h.now()) {
                let duty = h.can.owner_of(&r.avail.normalize(&h.host.cmax));
                if duty != node {
                    replicas += 1;
                }
            }
        }
        assert!(replicas > 0, "no replicas found");
    }

    #[test]
    fn query_finds_candidates_near_demand_corner() {
        let mut h = world(2);
        h.run_until(500_000);
        let demand = ResVec::from_slice(&[4.0, 4.0]);
        let qid = QueryId(1);
        h.start_query(QueryRequest {
            qid,
            requester: NodeId(0),
            demand,
            wanted: 3,
        });
        let deadline = h.now() + 60_000;
        h.run_until(deadline);
        let results = h.results.get(&qid).cloned().unwrap_or_default();
        assert!(!results.is_empty(), "KHDN query found nothing");
        for c in &results {
            assert!(c.avail.dominates(&demand));
        }
    }

    #[test]
    fn impossible_query_settles_as_exhausted() {
        let mut h = world(3);
        h.run_until(500_000);
        let qid = QueryId(2);
        h.start_query(QueryRequest {
            qid,
            requester: NodeId(5),
            demand: ResVec::from_slice(&[9.9, 9.9]),
            wanted: 1,
        });
        let deadline = h.now() + 120_000;
        h.run_until(deadline);
        assert!(h.results.get(&qid).is_none_or(|r| r.is_empty()));
        assert_eq!(h.done.get(&qid), Some(&QueryVerdict::Exhausted));
    }

    #[test]
    fn replication_radius_is_bounded() {
        // Total replicate fan-out per record ≤ Σ_{i=1..K} branch^i.
        let mut h = world(4);
        h.run_until(410_000); // one state cycle
        let updates = h.stats.count(MsgKind::StateUpdate);
        let replicas = h.stats.count(MsgKind::KhdnReplicate);
        let cfg = KhdnConfig::default();
        let per_record_cap: u64 = (1..=cfg.replicate_hops as u32)
            .map(|i| (cfg.branch as u64).pow(i))
            .sum();
        // `updates` counts routed hops ≥ records published; the cap is thus
        // conservative.
        assert!(
            replicas <= updates.max(N as u64) * per_record_cap,
            "replicas {replicas} vs cap base {updates}"
        );
    }
}
