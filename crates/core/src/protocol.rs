//! The PID-CAN protocol: state publication, proactive index diffusion
//! (Algorithms 1–2) and the contention-minimized best-fit query
//! (Algorithms 3–5), with optional SoS and VD.

use crate::config::PidCanConfig;
use crate::diffusion::fan_out;
use crate::messages::{DutyQuery, PidMsg, Search, StateUpdate};
use crate::pilist::PiLists;
use rand::{Rng, RngExt};
use soc_can::greedy_next_hop_filtered;
use soc_inscan::table::walk_step;
use soc_inscan::{inscan_next_hop, IndexTables};
use soc_net::MsgKind;
use soc_overlay::{Candidate, Ctx, DiscoveryOverlay, QueryRequest, RecordCache, StateRecord};
use soc_types::{NodeId, QueryId, ResVec, SimMillis};
use std::collections::BTreeMap;

/// Timer discriminants.
const T_STATE: u32 = 0;
const T_DIFFUSE: u32 = 1;
const T_REFRESH: u32 = 2;

/// Requester-side query bookkeeping (SoS phase tracking).
#[derive(Clone, Debug)]
struct QueryState {
    requester: NodeId,
    original: ResVec,
    slacked: bool,
    found: usize,
    wanted: usize,
}

/// Query-path diagnostics (calibration/ablation visibility; not part of
/// the protocol).
#[derive(Clone, Copy, Debug, Default)]
pub struct PidDiag {
    /// Queries whose duty node had no positive neighbors to act as agents.
    pub duty_no_agents: u64,
    /// Index-agent messages handled.
    pub agent_visits: u64,
    /// Agent visits whose PIList sample came up empty.
    pub agent_pil_empty: u64,
    /// Index-jump visits.
    pub jump_visits: u64,
    /// Jump visits that found at least one qualified record.
    pub jump_hits: u64,
    /// Routed messages that ran out of `hops_left` short of the zone that
    /// owns their target: state updates dropped, duty queries settled at
    /// the node they had reached. Routing is a strict descent, so this
    /// stays 0 on a static overlay; only churn (a walk detoured around dead
    /// or suspected hops) can exhaust a budget.
    pub route_exhausted: u64,
}

/// PID-CAN (SID/HID ± SoS ± VD) as a pluggable discovery overlay.
///
/// An instance holds a row of every per-node table (finger table, record
/// cache, PIList) for each of its `max_nodes` ids.
pub struct PidCan {
    cfg: PidCanConfig,
    tables: IndexTables,
    caches: Vec<RecordCache>,
    pilists: PiLists,
    queries: BTreeMap<QueryId, QueryState>,
    overlay_dim: usize,
    route_budget: u32,
    diag: PidDiag,
    /// Recycled `FoundList` buffer: `qualified_into` fills it on every
    /// duty/jump cache probe instead of allocating a fresh Vec per visit.
    found_buf: Vec<StateRecord>,
}

impl PidCan {
    /// Build an instance for a CAN overlay of `overlay_dim` dimensions
    /// holding `n` expected nodes with id capacity `max_nodes`.
    ///
    /// For the paper's SOC, `overlay_dim` is
    /// [`PidCanConfig::overlay_dim`] (5, or 6 with VD); unit tests may use
    /// smaller spaces. With VD enabled, `overlay_dim` must be one more than
    /// the resource-vector dimensionality.
    pub fn new(cfg: PidCanConfig, overlay_dim: usize, n: usize, max_nodes: usize) -> Self {
        let dim = overlay_dim;
        // Generous routing TTL: 4·log2(n) + 16 covers INSCAN detours under
        // churn while bounding worst-case wandering.
        let route_budget = 4 * (n.max(2) as f64).log2().ceil() as u32 + 16;
        PidCan {
            cfg,
            tables: IndexTables::new(dim, n, max_nodes),
            caches: (0..max_nodes)
                .map(|_| RecordCache::new(cfg.record_ttl_ms))
                .collect(),
            pilists: PiLists::new(max_nodes),
            queries: BTreeMap::new(),
            overlay_dim: dim,
            route_budget,
            diag: PidDiag::default(),
            found_buf: Vec::new(),
        }
    }

    /// Query-path diagnostics accumulated so far.
    pub fn diag(&self) -> PidDiag {
        self.diag
    }

    /// Configuration in use.
    pub fn config(&self) -> &PidCanConfig {
        &self.cfg
    }

    /// Read access to the finger tables (benches/diagnostics).
    pub fn tables(&self) -> &IndexTables {
        &self.tables
    }

    /// Read access to a node's record cache (tests/diagnostics).
    pub fn cache(&self, node: NodeId) -> &RecordCache {
        &self.caches[node.idx()]
    }

    /// The PILists (tests/diagnostics); reading one takes `&mut` for the
    /// scratch every list shares.
    pub fn pilists(&mut self) -> &mut PiLists {
        &mut self.pilists
    }

    /// Map a raw resource vector to a CAN key-space point, appending the
    /// random virtual coordinate under VD.
    fn key_point<R: Rng>(&self, ctx_cmax: &ResVec, v: &ResVec, rng: &mut R) -> ResVec {
        let p = v.normalize(ctx_cmax);
        if self.cfg.virtual_dim {
            p.push_dim(rng.random::<f64>())
        } else {
            p
        }
    }

    fn arm_node_timers(&self, ctx: &mut Ctx<'_, PidMsg>, node: NodeId) {
        // Stagger periodic timers with random phase so 2000 nodes do not
        // fire in lockstep.
        let s = ctx.rng.random_range(0..self.cfg.state_update_ms.max(1));
        let d = ctx.rng.random_range(0..self.cfg.diffusion_ms.max(1));
        let r = ctx.rng.random_range(0..self.cfg.table_refresh_ms.max(1));
        ctx.timer(node, T_STATE, s);
        ctx.timer(node, T_DIFFUSE, d);
        ctx.timer(node, T_REFRESH, r);
    }

    /// Next hop for a message at `node` targeting a key-space point, or
    /// `None` when `node` consumes it (it owns the point). The caller does
    /// the send, so a relayed message's box moves straight into it.
    fn route_toward(
        &self,
        ctx: &mut Ctx<'_, PidMsg>,
        node: NodeId,
        target: &ResVec,
    ) -> Option<NodeId> {
        ctx.routes += 1;
        let next = inscan_next_hop(ctx.can, &self.tables, node, target)?;
        if ctx.host.is_suspect(node, next, ctx.now) {
            // Defence layer: the computed next hop is on `node`'s
            // blacklist. Detour greedily around every suspect (and the
            // dead); an isolated sender consumes the message.
            return greedy_next_hop_filtered(ctx.can, node, target, |n| {
                ctx.host.is_alive(n) && !ctx.host.is_suspect(node, n, ctx.now)
            });
        }
        Some(next)
    }

    /// Retransmission path after a delivery failure: like
    /// [`Self::route_toward`] but never picks `avoid` or a node the host
    /// layer knows to be dead (the failure detector just told us). Falls
    /// back to the closest *live* adjacent neighbor; when the sender is the
    /// closest live zone to the target it consumes the message itself
    /// (returns `None`).
    fn route_avoiding(
        &self,
        ctx: &mut Ctx<'_, PidMsg>,
        node: NodeId,
        target: &ResVec,
        avoid: NodeId,
    ) -> Option<NodeId> {
        if ctx.can.row(node).is_some_and(|z| z.contains(target)) {
            return None;
        }
        ctx.routes += 1;
        if let Some(next) = inscan_next_hop(ctx.can, &self.tables, node, target) {
            if next != avoid && ctx.host.is_alive(next) && !ctx.host.is_suspect(node, next, ctx.now)
            {
                return Some(next);
            }
        }
        // Greedy over live, unsuspected neighbors, excluding the dead hop.
        // An isolated sender treats the message as arrived (best effort).
        greedy_next_hop_filtered(ctx.can, node, target, |n| {
            n != avoid && ctx.host.is_alive(n) && !ctx.host.is_suspect(node, n, ctx.now)
        })
    }

    /// Store a routed record at `node` (its duty node, or the closest node
    /// the route could reach).
    fn store_record(&mut self, node: NodeId, subject: NodeId, avail: ResVec, now: SimMillis) {
        self.caches[node.idx()].insert(StateRecord {
            subject,
            avail,
            stored_at: now,
        });
    }

    /// Algorithms 1–2: send `id`'s index on from `node` — as the sender
    /// (`hop = None`, its cache is non-empty) or as a relay of the
    /// `(dim_no, dim_ttl)` message it received — to one random negative
    /// index node per [`fan_out`] entry.
    fn diffuse(
        &self,
        ctx: &mut Ctx<'_, PidMsg>,
        node: NodeId,
        id: NodeId,
        hop: Option<(usize, usize)>,
    ) {
        let table = self.tables.get(node);
        let (method, l) = (self.cfg.diffusion, self.cfg.fanout_l);
        for (dim_no, dim_ttl) in fan_out(method, l, self.overlay_dim, hop) {
            if let Some(t) = table.random_ninode(dim_no, ctx.rng) {
                let msg = PidMsg::Index {
                    id,
                    dim_no,
                    dim_ttl,
                };
                ctx.send(node, t, MsgKind::IndexDiffusion, msg);
            }
        }
    }

    /// Deliver found candidates to the requester (locally when the finder
    /// *is* the requester).
    fn notify_found(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        at: NodeId,
        qid: QueryId,
        requester: NodeId,
        candidates: Vec<Candidate>,
    ) {
        if candidates.is_empty() {
            return;
        }
        if at == requester {
            self.note_found(qid, candidates.len());
            ctx.query_results(qid, candidates);
        } else {
            ctx.send(
                at,
                requester,
                MsgKind::FoundNotify,
                PidMsg::Found { qid, candidates },
            );
        }
    }

    fn note_found(&mut self, qid: QueryId, n: usize) {
        if let Some(q) = self.queries.get_mut(&qid) {
            q.found += n;
        }
    }

    /// Algorithm 3, duty-node half: build the agent list `ι` and dispatch
    /// the first index-agent message.
    fn handle_duty(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        duty: NodeId,
        qid: QueryId,
        requester: NodeId,
        demand: ResVec,
        delta: usize,
    ) {
        if delta == 0 {
            self.finish_query(ctx, duty, qid, requester);
            return;
        }
        // ι: one random positive adjacent neighbor per dimension.
        let mut agents: Vec<NodeId> = Vec::new();
        for d in 0..self.overlay_dim {
            if let Some(pick) = walk_step(ctx.can, duty, d, true, ctx.rng) {
                if !agents.contains(&pick) {
                    agents.push(pick);
                }
            }
        }
        if agents.is_empty() {
            self.diag.duty_no_agents += 1;
            self.finish_query(ctx, duty, qid, requester);
            return;
        }
        let search = Box::new(Search {
            qid,
            requester,
            demand,
            delta,
            jumps: Vec::new(),
            agents,
            budget: 0,
        });
        self.continue_with_agents(ctx, duty, search);
    }

    /// "Randomly select an index agent α from ι; send the index-agent
    /// message {v, ι − α} to α" — shared by Algorithms 3–5 fallback paths.
    fn continue_with_agents(&mut self, ctx: &mut Ctx<'_, PidMsg>, at: NodeId, mut s: Box<Search>) {
        if s.agents.is_empty() {
            self.finish_query(ctx, at, s.qid, s.requester);
            return;
        }
        let i = ctx.rng.random_range(0..s.agents.len());
        let alpha = s.agents.swap_remove(i);
        // The agent samples its own jump list; leftovers stay behind.
        s.jumps.clear();
        ctx.send(at, alpha, MsgKind::IndexAgent, PidMsg::IndexAgent(s));
    }

    /// "Randomly choose next index node β from list j; send index-jump
    /// message {v, δ, j − β} to β" — shared continuation.
    fn continue_jump(&mut self, ctx: &mut Ctx<'_, PidMsg>, at: NodeId, mut s: Box<Search>) {
        if s.jumps.is_empty() || s.budget == 0 {
            self.continue_with_agents(ctx, at, s);
            return;
        }
        let i = ctx.rng.random_range(0..s.jumps.len());
        let beta = s.jumps.swap_remove(i);
        s.budget -= 1;
        ctx.send(at, beta, MsgKind::IndexJump, PidMsg::IndexJump(s));
    }

    /// The search path died out; tell the requester (who owns the SoS
    /// retry decision).
    fn finish_query(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        at: NodeId,
        qid: QueryId,
        requester: NodeId,
    ) {
        if at == requester {
            self.handle_exhausted(ctx, requester, qid);
        } else {
            ctx.send(
                at,
                requester,
                MsgKind::FoundNotify,
                PidMsg::Exhausted { qid },
            );
        }
    }

    /// Requester-side exhaustion: retry under SoS (restore the original
    /// vector), else report done.
    fn handle_exhausted(&mut self, ctx: &mut Ctx<'_, PidMsg>, requester: NodeId, qid: QueryId) {
        let Some(q) = self.queries.get(&qid) else {
            return; // stale notice for an already-settled query
        };
        if self.cfg.sos && q.slacked && q.found == 0 {
            // Restore e(t) and search again (Formula (3) fallback).
            let (original, wanted) = (q.original, q.wanted);
            if let Some(qm) = self.queries.get_mut(&qid) {
                qm.slacked = false;
            }
            self.issue_query(ctx, requester, qid, original, wanted);
        } else {
            self.queries.remove(&qid);
            ctx.query_done(qid);
        }
    }

    /// Inject a duty-query at the requester and route it toward the zone
    /// enclosing `effective` (the possibly-slacked vector).
    fn issue_query(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        requester: NodeId,
        qid: QueryId,
        effective: ResVec,
        wanted: usize,
    ) {
        let target = {
            let cmax = *ctx.host.cmax();
            self.key_point(&cmax, &effective, ctx.rng)
        };
        match self.route_toward(ctx, requester, &target) {
            Some(next) => {
                let q = Box::new(DutyQuery {
                    qid,
                    requester,
                    demand: effective,
                    target,
                    delta: wanted,
                    hops_left: self.route_budget,
                });
                ctx.send(requester, next, MsgKind::DutyQuery, PidMsg::DutyQuery(q));
            }
            // Requester itself is the duty node.
            None => self.handle_duty(ctx, requester, qid, requester, effective, wanted),
        }
    }

    /// Componentwise uniform slack `e ⪯ e' ⪯ cmax` (Formula (3)).
    fn slack_vector<R: Rng>(demand: &ResVec, cmax: &ResVec, rng: &mut R) -> ResVec {
        let mut e = *demand;
        for d in 0..e.dim() {
            let hi = cmax[d].max(e[d]);
            e[d] += rng.random::<f64>() * (hi - e[d]);
        }
        e
    }
}

impl DiscoveryOverlay for PidCan {
    type Msg = PidMsg;

    fn name(&self) -> &'static str {
        self.cfg.label()
    }

    fn diag_string(&self) -> String {
        format!("{:?}", self.diag)
    }

    fn diag_record_match(&self, demand: &ResVec, now: soc_types::SimMillis) -> Option<bool> {
        Some(self.caches.iter().any(|c| c.has_qualified(demand, now)))
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, PidMsg>, nodes: &[NodeId]) {
        // Build initial finger tables (charged as maintenance) and arm
        // per-node timers.
        for &node in nodes {
            let stats = self.tables.refresh_node(node, ctx.can, ctx.rng);
            ctx.charge(node, MsgKind::Maintenance, stats.probe_msgs);
            self.arm_node_timers(ctx, node);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, PidMsg>, node: NodeId, msg: PidMsg) {
        match msg {
            PidMsg::StateUpdate(mut m) => {
                let zone = ctx.can.row(node).expect("message at dead node");
                if !zone.contains(&m.target) {
                    if m.hops_left == 0 {
                        // Budget exhausted mid-churn; the record is lost
                        // until the subject's next state cycle.
                        self.diag.route_exhausted += 1;
                        return;
                    }
                    if let Some(next) = self.route_toward(ctx, node, &m.target) {
                        m.hops_left -= 1;
                        ctx.send(node, next, MsgKind::StateUpdate, PidMsg::StateUpdate(m));
                        return;
                    }
                }
                self.store_record(node, m.subject, m.avail, ctx.now);
            }
            PidMsg::Index {
                id,
                dim_no,
                dim_ttl,
            } => {
                self.pilists.insert(node, id, ctx.now);
                self.diffuse(ctx, node, id, Some((dim_no, dim_ttl)));
            }
            PidMsg::DutyQuery(mut q) => {
                let here = ctx.can.row(node).is_some_and(|z| z.contains(&q.target));
                if !here && q.hops_left > 0 {
                    if let Some(next) = self.route_toward(ctx, node, &q.target) {
                        q.hops_left -= 1;
                        ctx.send(node, next, MsgKind::DutyQuery, PidMsg::DutyQuery(q));
                        return;
                    }
                }
                // At the duty node — or the routing budget is exhausted and
                // the query settles at the closest node reached (best
                // effort) rather than wandering.
                self.diag.route_exhausted += u64::from(!here && q.hops_left == 0);
                self.handle_duty(ctx, node, q.qid, q.requester, q.demand, q.delta);
            }
            PidMsg::IndexAgent(mut s) => {
                // Algorithm 4: sample a jump list from the local PIList.
                s.jumps = self.pilists.sample(
                    node,
                    self.cfg.jump_sample,
                    ctx.now,
                    self.cfg.pilist_ttl_ms,
                    ctx.rng,
                );
                self.diag.agent_visits += 1;
                if s.jumps.is_empty() {
                    self.diag.agent_pil_empty += 1;
                }
                s.budget = self.cfg.jump_budget;
                self.continue_jump(ctx, node, s);
            }
            PidMsg::IndexJump(mut s) => {
                // Algorithm 5: search the local cache.
                let mut found = std::mem::take(&mut self.found_buf);
                ctx.probes += 1;
                self.caches[node.idx()].qualified_into(&s.demand, ctx.now, &mut found);
                self.diag.jump_visits += 1;
                let cands: Vec<Candidate> = found
                    .iter()
                    .map(|r| Candidate {
                        node: r.subject,
                        avail: r.avail,
                    })
                    .collect();
                self.found_buf = found;
                if !cands.is_empty() {
                    self.diag.jump_hits += 1;
                    s.delta = s.delta.saturating_sub(cands.len());
                    self.notify_found(ctx, node, s.qid, s.requester, cands);
                } else if s.budget > 0 {
                    // §III-B1 relay: extend the chain with this index
                    // node's own positive-index knowledge.
                    for extra in self.pilists.sample(
                        node,
                        self.cfg.jump_refill,
                        ctx.now,
                        self.cfg.pilist_ttl_ms,
                        ctx.rng,
                    ) {
                        if extra != node && !s.jumps.contains(&extra) {
                            s.jumps.push(extra);
                        }
                    }
                }
                if s.delta > 0 {
                    self.continue_jump(ctx, node, s);
                }
            }
            PidMsg::Found { qid, candidates } => {
                self.note_found(qid, candidates.len());
                ctx.query_results(qid, candidates);
            }
            PidMsg::Exhausted { qid } => self.handle_exhausted(ctx, node, qid),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, PidMsg>, node: NodeId, kind: u32) {
        match kind {
            T_STATE => {
                let avail = ctx.host.availability(node);
                let target = {
                    let cmax = *ctx.host.cmax();
                    self.key_point(&cmax, &avail, ctx.rng)
                };
                match self.route_toward(ctx, node, &target) {
                    Some(next) => {
                        let m = Box::new(StateUpdate {
                            subject: node,
                            avail,
                            target,
                            hops_left: self.route_budget,
                        });
                        ctx.send(node, next, MsgKind::StateUpdate, PidMsg::StateUpdate(m));
                    }
                    None => self.store_record(node, node, avail, ctx.now),
                }
                ctx.timer(node, T_STATE, self.cfg.state_update_ms);
            }
            T_DIFFUSE => {
                self.caches[node.idx()].purge_expired(ctx.now);
                self.pilists.purge(node, ctx.now, self.cfg.pilist_ttl_ms);
                if !self.caches[node.idx()].is_empty_at(ctx.now) {
                    self.diffuse(ctx, node, node, None);
                }
                ctx.timer(node, T_DIFFUSE, self.cfg.diffusion_ms);
            }
            T_REFRESH => {
                let stats = self.tables.refresh_node(node, ctx.can, ctx.rng);
                ctx.charge(node, MsgKind::Maintenance, stats.probe_msgs);
                ctx.timer(node, T_REFRESH, self.cfg.table_refresh_ms);
            }
            _ => unreachable!("unknown PID-CAN timer {kind}"),
        }
    }

    fn start_query(&mut self, ctx: &mut Ctx<'_, PidMsg>, req: QueryRequest) {
        let slacked = self.cfg.sos;
        let effective = if slacked {
            let cmax = *ctx.host.cmax();
            Self::slack_vector(&req.demand, &cmax, ctx.rng)
        } else {
            req.demand
        };
        self.queries.insert(
            req.qid,
            QueryState {
                requester: req.requester,
                original: req.demand,
                slacked,
                found: 0,
                wanted: req.wanted,
            },
        );
        self.issue_query(ctx, req.requester, req.qid, effective, req.wanted);
    }

    fn on_query_settled(&mut self, qid: QueryId) {
        self.queries.remove(&qid);
    }

    fn on_node_joined(&mut self, ctx: &mut Ctx<'_, PidMsg>, node: NodeId) {
        self.caches[node.idx()] = RecordCache::new(self.cfg.record_ttl_ms);
        self.pilists.clear(node);
        let stats = self.tables.refresh_node(node, ctx.can, ctx.rng);
        ctx.charge(node, MsgKind::Maintenance, stats.probe_msgs);
        self.arm_node_timers(ctx, node);
    }

    fn on_node_left(&mut self, _ctx: &mut Ctx<'_, PidMsg>, node: NodeId) {
        self.caches[node.idx()] = RecordCache::new(self.cfg.record_ttl_ms);
        self.pilists.clear(node);
        self.tables.clear_node(node);
        // Abandon queries the departed requester owned. Fingers elsewhere
        // that still point at the dead node are skipped by routing and
        // fixed by the periodic refresh / `on_zones_reassigned`.
        self.queries.retain(|_, q| q.requester != node);
    }

    fn on_zones_reassigned(&mut self, ctx: &mut Ctx<'_, PidMsg>, affected: &[NodeId]) {
        // §IV-B departure maintenance: nodes whose zones changed rebuild
        // their fingers immediately (charged as maintenance traffic).
        for &node in affected {
            if ctx.host.is_alive(node) {
                let stats = self.tables.refresh_node(node, ctx.can, ctx.rng);
                ctx.charge(node, MsgKind::Maintenance, stats.probe_msgs);
            }
        }
    }

    fn on_message_dropped(
        &mut self,
        ctx: &mut Ctx<'_, PidMsg>,
        from: NodeId,
        to: NodeId,
        msg: PidMsg,
    ) {
        if !ctx.host.is_alive(from) {
            return;
        }
        match msg {
            // Re-route around the observed-dead hop. The overlay normally
            // reassigns the dead node's zone before the retry; the explicit
            // `avoid` + liveness filter also covers windows where routing
            // state still references it.
            PidMsg::StateUpdate(mut m) => {
                if m.hops_left == 0 {
                    self.diag.route_exhausted += 1;
                    return;
                }
                match self.route_avoiding(ctx, from, &m.target, to) {
                    Some(next) => {
                        m.hops_left -= 1;
                        ctx.send(from, next, MsgKind::StateUpdate, PidMsg::StateUpdate(m));
                    }
                    None => self.store_record(from, m.subject, m.avail, ctx.now),
                }
            }
            PidMsg::DutyQuery(mut q) => {
                if q.hops_left > 0 {
                    if let Some(next) = self.route_avoiding(ctx, from, &q.target, to) {
                        q.hops_left -= 1;
                        ctx.send(from, next, MsgKind::DutyQuery, PidMsg::DutyQuery(q));
                        return;
                    }
                } else {
                    self.diag.route_exhausted += 1;
                }
                self.handle_duty(ctx, from, q.qid, q.requester, q.demand, q.delta);
            }
            // Diffusion is best-effort.
            PidMsg::Index { .. } => {}
            // Continue the search from the sender, skipping the dead hop.
            PidMsg::IndexAgent(s) => self.continue_with_agents(ctx, from, s),
            PidMsg::IndexJump(s) => self.continue_jump(ctx, from, s),
            // The requester died; nothing to deliver to.
            PidMsg::Found { .. } | PidMsg::Exhausted { .. } => {}
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
    use soc_overlay::testkit::TestHost;

    const N: usize = 16;

    /// ISSUE 5 satellite: `route_avoiding`'s greedy-over-live fallback
    /// was previously exercised only indirectly through churn runs; these
    /// tests drive the private method straight.
    fn world(seed: u64) -> (PidCan, CanOverlay, TestHost, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let can = CanOverlay::bootstrap(2, N, N, &mut rng);
        let cmax = ResVec::from_slice(&[10.0, 10.0]);
        let host = TestHost::uniform(N, ResVec::from_slice(&[5.0, 5.0]), cmax);
        // Tables stay empty (no refresh), so the finger step degenerates
        // to the plain greedy hop — deterministic without RNG.
        let proto = PidCan::new(PidCanConfig::hid(), 2, N, N);
        (proto, can, host, rng)
    }

    /// The greedy choice over `node`'s live neighbors other than `avoid`,
    /// spelled out independently of `soc_can` (routing key, then id).
    fn manual_greedy(
        can: &CanOverlay,
        host: &TestHost,
        node: NodeId,
        target: &ResVec,
        avoid: NodeId,
    ) -> Option<NodeId> {
        let mut best: Option<((f64, u32), NodeId)> = None;
        for e in can.neighbors(node) {
            if e.node == avoid || !host.alive[e.node.idx()] {
                continue;
            }
            let k = can.zone(e.node).unwrap().route_key(target);
            if best.is_none_or(|(bk, bn)| k < bk || (k == bk && e.node < bn)) {
                best = Some((k, e.node));
            }
        }
        best.map(|(_, n)| n)
    }

    /// A sender far from the target, its unfiltered greedy next hop, and
    /// the target point.
    fn pick_route(can: &CanOverlay) -> (NodeId, NodeId, ResVec) {
        let target = ResVec::from_slice(&[0.97, 0.97]);
        let sender = can.owner_of(&ResVec::from_slice(&[0.02, 0.02]));
        let hop = soc_can::greedy_next_hop(can, sender, &target).expect("sender is far away");
        (sender, hop, target)
    }

    #[test]
    fn avoided_hop_is_never_chosen() {
        let (proto, can, host, mut rng) = world(71);
        let (sender, hop, target) = pick_route(&can);
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        let next = proto.route_avoiding(&mut ctx, sender, &target, hop);
        let expect = manual_greedy(&can, &host, sender, &target, hop).unwrap();
        assert_ne!(expect, hop);
        assert_eq!(
            next,
            Some(expect),
            "fallback must pick the nearest non-avoided live neighbor"
        );
    }

    #[test]
    fn dead_neighbors_are_skipped() {
        let (proto, can, mut host, mut rng) = world(72);
        let (sender, hop, target) = pick_route(&can);
        // Kill everything the plain greedy would prefer except one
        // survivor; the fallback must find that survivor.
        let survivor = can.neighbors(sender).iter().map(|e| e.node).max().unwrap();
        for e in can.neighbors(sender) {
            host.alive[e.node.idx()] = e.node == survivor;
        }
        let avoid = if hop == survivor {
            NodeId(u32::MAX)
        } else {
            hop
        };
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        assert_eq!(
            proto.route_avoiding(&mut ctx, sender, &target, avoid),
            Some(survivor)
        );
    }

    #[test]
    fn isolated_sender_self_consumes() {
        let (proto, can, mut host, mut rng) = world(73);
        let (sender, hop, target) = pick_route(&can);
        for e in can.neighbors(sender) {
            host.alive[e.node.idx()] = false;
        }
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        assert_eq!(
            proto.route_avoiding(&mut ctx, sender, &target, hop),
            None,
            "an isolated sender must consume the message"
        );
    }

    #[test]
    fn suspected_next_hop_is_detoured_by_its_observer_only() {
        // Blacklist the sender's natural next hop: `route_toward` must
        // detour to the nearest live unsuspected neighbor. The suspicion
        // is per-observer, so routing *from the suspect itself* (or any
        // other node) is unaffected.
        let (proto, can, mut host, mut rng) = world(75);
        let (sender, hop, target) = pick_route(&can);
        host.suspects.push((sender, hop));
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        let next = proto.route_toward(&mut ctx, sender, &target);
        let expect = manual_greedy(&can, &host, sender, &target, hop).unwrap();
        assert_ne!(
            next,
            Some(hop),
            "must not route through the blacklisted hop"
        );
        assert_eq!(
            next,
            Some(expect),
            "detour is the greedy choice minus the suspect"
        );
        // Another observer with an empty blacklist keeps the plain route.
        host.suspects.clear();
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        assert_eq!(
            proto.route_toward(&mut ctx, sender, &target),
            Some(hop),
            "no suspicion, no detour"
        );
    }

    #[test]
    fn fully_suspected_neighborhood_consumes_instead_of_looping() {
        let (proto, can, mut host, mut rng) = world(76);
        let (sender, _, target) = pick_route(&can);
        for e in can.neighbors(sender) {
            host.suspects.push((sender, e.node));
        }
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        assert_eq!(
            proto.route_toward(&mut ctx, sender, &target),
            None,
            "a sender that suspects every neighbor must consume, not loop"
        );
    }

    #[test]
    fn forward_avoiding_also_respects_suspicion() {
        let (proto, can, mut host, mut rng) = world(77);
        let (sender, hop, target) = pick_route(&can);
        // `avoid` one node, blacklist the natural fallback: the chosen hop
        // must dodge both.
        let fallback = manual_greedy(&can, &host, sender, &target, hop).unwrap();
        host.suspects.push((sender, fallback));
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        if let Some(next) = proto.route_avoiding(&mut ctx, sender, &target, hop) {
            assert_ne!(next, hop, "avoided hop chosen");
            assert_ne!(next, fallback, "suspected fallback chosen");
        }
    }

    #[test]
    fn owner_consumes_without_forwarding() {
        let (proto, can, host, mut rng) = world(74);
        let target = ResVec::from_slice(&[0.97, 0.97]);
        let owner = can.owner_of(&target);
        let mut ctx = Ctx::new(0, &can, &host, &mut rng);
        assert_eq!(
            proto.route_avoiding(&mut ctx, owner, &target, NodeId(u32::MAX)),
            None,
            "the zone owner consumes directly"
        );
    }
}
