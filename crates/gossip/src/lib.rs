//! Newscast gossip — the unstructured-P2P baseline (§IV-A).
//!
//! *"Newscast gossip protocol is a typical unstructured P2P solution, under
//! which neighbors of each node are randomly changed based on the Newscast
//! model over time to enhance message diffusion range and the fan-out
//! degree (i.e., the number of neighbors) is limited to `log2(n)` to avoid
//! excessive network traffic."*
//!
//! Each node keeps a partial view of `(peer, availability, heartbeat)`
//! entries capped at `⌈log2 n⌉`. Periodically it picks a random view peer
//! and the two exchange views, each keeping the freshest entries — the
//! classic Newscast shuffle. Discovery is a TTL-bounded random walk over
//! views: every visited node reports its fresh qualified entries to the
//! requester.

use rand::{Rng, RngExt};
use soc_net::MsgKind;
use soc_overlay::{Candidate, Ctx, DiscoveryOverlay, QueryRequest};
use soc_types::{NodeId, QueryId, ResVec, SimMillis};
use std::cmp::Reverse;

const T_EXCHANGE: u32 = 0;

/// A view's sort key: freshest first, ties by peer id. It is a total order
/// over entries about distinct peers.
fn view_key(e: &ViewEntry) -> (Reverse<SimMillis>, NodeId) {
    (Reverse(e.heartbeat), e.peer)
}

/// The invariant every writer of `node`'s view keeps: sorted by
/// [`view_key`], distinct peers, no entry about `node`, at most `cap`
/// entries.
fn well_formed(view: &[ViewEntry], node: NodeId, cap: usize) -> bool {
    view.len() <= cap
        && view.windows(2).all(|w| view_key(&w[0]) < view_key(&w[1]))
        && view
            .iter()
            .enumerate()
            .all(|(i, e)| e.peer != node && view[..i].iter().all(|x| x.peer != e.peer))
}

/// One partial-view entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ViewEntry {
    /// The peer this entry describes.
    pub peer: NodeId,
    /// Its availability when the entry was created.
    pub avail: ResVec,
    /// Creation time at the *origin* (freshness for merge).
    pub heartbeat: SimMillis,
}

/// Newscast configuration.
#[derive(Clone, Copy, Debug)]
pub struct GossipConfig {
    /// View size cap; `None` = `⌈log2 n⌉` per the paper.
    pub view_cap: Option<usize>,
    /// Exchange cycle.
    pub exchange_ms: SimMillis,
    /// Entry freshness horizon when answering queries.
    pub entry_ttl_ms: SimMillis,
    /// Query random-walk TTL. `None` = 1: the requester checks its own
    /// partial view and the walk visits two more random peers — the same
    /// "single query message" budget §I imposes on every protocol. (The
    /// long-walk variant is an ablation knob.)
    pub query_ttl: Option<usize>,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            view_cap: None,
            // Same information cadence as the DHT protocols' 400 s state
            // updates — the paper equalizes the protocols' traffic, and the
            // gossip entries are the analogue of state records.
            exchange_ms: 400_000,
            entry_ttl_ms: 600_000,
            query_ttl: None,
        }
    }
}

impl GossipConfig {
    /// Multiply periods/TTLs by `f` (see `PidCanConfig::scale_cycles`).
    pub fn scale_cycles(mut self, f: f64) -> Self {
        let s = |ms: SimMillis| -> SimMillis { ((ms as f64 * f).round() as SimMillis).max(1) };
        self.exchange_ms = s(self.exchange_ms);
        self.entry_ttl_ms = s(self.entry_ttl_ms);
        self
    }
}

/// Newscast wire messages. The enum is what every event carries, so it
/// stays at 32 bytes: the exchange's direction is the variant rather than a
/// flag next to the entries, and the walk's demand vector sits behind a
/// `Box` that travels with the walk.
#[derive(Clone, Debug)]
pub enum GossipMsg {
    /// View exchange, initiating half: the sender's view (plus its own
    /// fresh entry); the receiver replies with its own.
    Exchange {
        /// Entries offered.
        entries: Vec<ViewEntry>,
    },
    /// View exchange, answering half (no further reply).
    ExchangeReply {
        /// Entries offered.
        entries: Vec<ViewEntry>,
    },
    /// TTL-bounded discovery walk.
    Query(Box<Walk>),
    /// Results reported back to the requester.
    Found {
        /// Query identity.
        qid: QueryId,
        /// Qualified view entries.
        candidates: Vec<Candidate>,
    },
    /// Walk ended without satisfying the requester.
    Exhausted {
        /// Query identity.
        qid: QueryId,
    },
}

const _: () = assert!(std::mem::size_of::<GossipMsg>() <= 32);

/// Body of [`GossipMsg::Query`].
#[derive(Clone, Debug)]
pub struct Walk {
    /// Query identity.
    pub qid: QueryId,
    /// Requester (receives results).
    pub requester: NodeId,
    /// Demand vector.
    pub demand: ResVec,
    /// Results still wanted.
    pub wanted: usize,
    /// Remaining hops.
    pub ttl: usize,
}

/// The Newscast protocol state.
pub struct Newscast {
    cfg: GossipConfig,
    /// Per-node partial views, each [`well_formed`].
    views: Vec<Vec<ViewEntry>>,
    view_cap: usize,
    query_ttl: usize,
    /// The buffer the next merge writes; it then swaps places with the
    /// merged view.
    spare: Vec<ViewEntry>,
    /// Merge scratch: the incoming entries' keys and indices, in key order.
    order: Vec<(Reverse<SimMillis>, NodeId, u32)>,
    /// Merge scratch: the peers a merge has already placed, by id; all
    /// `false` between merges.
    seen: Vec<bool>,
    /// Offer buffers whose merge is done, refilled by the next offer.
    offers: Vec<Vec<ViewEntry>>,
}

impl Newscast {
    /// Build for `n` expected nodes with id capacity `max_nodes`.
    pub fn new(cfg: GossipConfig, n: usize, max_nodes: usize) -> Self {
        let log2n = (n.max(2) as f64).log2().ceil() as usize;
        Newscast {
            cfg,
            views: vec![Vec::new(); max_nodes],
            view_cap: cfg.view_cap.unwrap_or(log2n).max(1),
            query_ttl: cfg.query_ttl.unwrap_or(2),
            spare: Vec::new(),
            order: Vec::new(),
            seen: vec![false; max_nodes],
            offers: Vec::new(),
        }
    }

    /// Current view of `node` (diagnostics).
    pub fn view(&self, node: NodeId) -> &[ViewEntry] {
        &self.views[node.idx()]
    }

    /// View size cap in effect.
    pub fn view_cap(&self) -> usize {
        self.view_cap
    }

    /// Merge `incoming` into `node`'s view: freshest entry per peer wins,
    /// then keep the `view_cap` freshest overall (Newscast rule).
    ///
    /// The view is already in key order; `order` puts `incoming` in key
    /// order, ties by position. The merge walks both lists at once into the
    /// spare buffer, which then becomes the view. The first entry met for a
    /// peer wins, and on a key tie the view goes first: an equally fresh
    /// incoming entry never replaces the one kept. `node` is marked seen up
    /// front, so no entry about it gets in.
    fn merge_view(&mut self, node: NodeId, incoming: &[ViewEntry]) {
        let order = &mut self.order;
        order.clear();
        order.extend(
            (0..)
                .zip(incoming)
                .map(|(k, e)| (Reverse(e.heartbeat), e.peer, k)),
        );
        order.sort();
        let view = &self.views[node.idx()];
        let (out, seen) = (&mut self.spare, &mut self.seen);
        out.clear();
        // Exactly `view_cap`: no view holds room it can never fill.
        out.reserve_exact(self.view_cap);
        seen[node.idx()] = true;
        let (mut i, mut j) = (0, 0);
        while out.len() < self.view_cap {
            let e = match (view.get(i), order.get(j)) {
                (Some(v), Some(&(hb, peer, k))) if (hb, peer) < view_key(v) => {
                    j += 1;
                    &incoming[k as usize]
                }
                (Some(v), _) => {
                    i += 1;
                    v
                }
                (None, Some(&(.., k))) => {
                    j += 1;
                    &incoming[k as usize]
                }
                (None, None) => break,
            };
            if !std::mem::replace(&mut seen[e.peer.idx()], true) {
                out.push(*e);
            }
        }
        seen[node.idx()] = false;
        for e in out.iter() {
            seen[e.peer.idx()] = false;
        }
        std::mem::swap(&mut self.views[node.idx()], out);
        debug_assert!(well_formed(&self.views[node.idx()], node, self.view_cap));
    }

    /// The sender's offer: its view plus a fresh self-entry, last — the
    /// receiver replies to the last of the freshest entries.
    fn offer(&mut self, ctx: &Ctx<'_, GossipMsg>, node: NodeId) -> Vec<ViewEntry> {
        let mut entries = self
            .offers
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.view_cap + 1));
        entries.extend_from_slice(&self.views[node.idx()]);
        entries.push(ViewEntry {
            peer: node,
            avail: ctx.host.availability(node),
            heartbeat: ctx.now,
        });
        entries
    }

    /// Return a consumed offer's buffer for the next [`Newscast::offer`].
    fn recycle(&mut self, mut entries: Vec<ViewEntry>) {
        entries.clear();
        self.offers.push(entries);
    }

    /// Fresh entries in `node`'s view qualifying `demand`.
    fn qualified(&self, node: NodeId, demand: &ResVec, now: SimMillis) -> Vec<Candidate> {
        self.views[node.idx()]
            .iter()
            .filter(|e| now.saturating_sub(e.heartbeat) <= self.cfg.entry_ttl_ms)
            .filter(|e| e.avail.dominates(demand))
            .map(|e| Candidate {
                node: e.peer,
                avail: e.avail,
            })
            .collect()
    }

    fn random_view_peer<R: Rng>(&self, node: NodeId, rng: &mut R) -> Option<NodeId> {
        let v = &self.views[node.idx()];
        if v.is_empty() {
            None
        } else {
            Some(v[rng.random_range(0..v.len())].peer)
        }
    }

    /// Tell the requester the walk ended at `node` without enough results.
    fn walk_exhausted(ctx: &mut Ctx<'_, GossipMsg>, node: NodeId, w: &Walk) {
        if node == w.requester {
            ctx.query_done(w.qid);
        } else {
            ctx.send(
                node,
                w.requester,
                MsgKind::FoundNotify,
                GossipMsg::Exhausted { qid: w.qid },
            );
        }
    }

    /// Continue (or end) a query walk from `node`.
    fn walk_on(&mut self, ctx: &mut Ctx<'_, GossipMsg>, node: NodeId, mut w: Box<Walk>) {
        if w.wanted == 0 {
            return;
        }
        if w.ttl == 0 {
            Self::walk_exhausted(ctx, node, &w);
            return;
        }
        match self.random_view_peer(node, ctx.rng) {
            Some(next) => {
                w.ttl -= 1;
                ctx.send(node, next, MsgKind::DutyQuery, GossipMsg::Query(w));
            }
            // Empty view: dead end.
            None => Self::walk_exhausted(ctx, node, &w),
        }
    }

    fn bootstrap_view(&mut self, ctx: &mut Ctx<'_, GossipMsg>, node: NodeId) {
        let live: Vec<NodeId> = ctx.can.live_nodes().collect();
        self.bootstrap_view_from(ctx, node, &live);
    }

    /// Seed `node`'s view with a few random live peers (a tracker /
    /// bootstrap service). `live` is every live id, ascending, `node`
    /// included or not: a draw `j` picks the `j`-th live id other than
    /// `node`, so one list serves every node of a batch.
    fn bootstrap_view_from(&mut self, ctx: &mut Ctx<'_, GossipMsg>, node: NodeId, live: &[NodeId]) {
        let skip = live.binary_search(&node).ok();
        let others = live.len() - usize::from(skip.is_some());
        if others == 0 {
            return;
        }
        for _ in 0..self.view_cap.min(4) {
            let j = ctx.rng.random_range(0..others);
            let p = live[j + usize::from(skip.is_some_and(|s| j >= s))];
            let avail = ctx.host.availability(p);
            self.merge_view(
                node,
                &[ViewEntry {
                    peer: p,
                    avail,
                    heartbeat: ctx.now,
                }],
            );
        }
    }
}

impl DiscoveryOverlay for Newscast {
    type Msg = GossipMsg;

    fn name(&self) -> &'static str {
        "Newscast"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, GossipMsg>, nodes: &[NodeId]) {
        // Bootstrapping changes no liveness: collect the live set once.
        let live: Vec<NodeId> = ctx.can.live_nodes().collect();
        for &node in nodes {
            self.bootstrap_view_from(ctx, node, &live);
            let phase = ctx.rng.random_range(0..self.cfg.exchange_ms.max(1));
            ctx.timer(node, T_EXCHANGE, phase);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GossipMsg>, node: NodeId, msg: GossipMsg) {
        match msg {
            GossipMsg::Exchange { entries } => {
                let mine = self.offer(ctx, node);
                // Reply to the freshest sender entry (the initiator put
                // itself in the offer).
                if let Some(initiator) = entries.iter().max_by_key(|e| e.heartbeat) {
                    ctx.send(
                        node,
                        initiator.peer,
                        MsgKind::GossipExchange,
                        GossipMsg::ExchangeReply { entries: mine },
                    );
                }
                self.merge_view(node, &entries);
                self.recycle(entries);
            }
            GossipMsg::ExchangeReply { entries } => {
                self.merge_view(node, &entries);
                self.recycle(entries);
            }
            GossipMsg::Query(mut w) => {
                let found = self.qualified(node, &w.demand, ctx.now);
                w.wanted = w.wanted.saturating_sub(found.len());
                if !found.is_empty() {
                    if node == w.requester {
                        ctx.query_results(w.qid, found);
                    } else {
                        ctx.send(
                            node,
                            w.requester,
                            MsgKind::FoundNotify,
                            GossipMsg::Found {
                                qid: w.qid,
                                candidates: found,
                            },
                        );
                    }
                }
                self.walk_on(ctx, node, w);
            }
            GossipMsg::Found { qid, candidates } => {
                ctx.query_results(qid, candidates);
            }
            GossipMsg::Exhausted { qid } => {
                ctx.query_done(qid);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GossipMsg>, node: NodeId, kind: u32) {
        debug_assert_eq!(kind, T_EXCHANGE);
        if let Some(peer) = self.random_view_peer(node, ctx.rng) {
            let offer = self.offer(ctx, node);
            ctx.send(
                node,
                peer,
                MsgKind::GossipExchange,
                GossipMsg::Exchange { entries: offer },
            );
        } else {
            self.bootstrap_view(ctx, node);
        }
        ctx.timer(node, T_EXCHANGE, self.cfg.exchange_ms);
    }

    fn start_query(&mut self, ctx: &mut Ctx<'_, GossipMsg>, req: QueryRequest) {
        // Check our own view first, then walk.
        let found = self.qualified(req.requester, &req.demand, ctx.now);
        if !found.is_empty() {
            ctx.query_results(req.qid, found.clone());
        }
        let walk = Box::new(Walk {
            qid: req.qid,
            requester: req.requester,
            demand: req.demand,
            wanted: req.wanted.saturating_sub(found.len()),
            ttl: self.query_ttl,
        });
        self.walk_on(ctx, req.requester, walk);
    }

    fn on_node_joined(&mut self, ctx: &mut Ctx<'_, GossipMsg>, node: NodeId) {
        self.views[node.idx()].clear();
        self.bootstrap_view(ctx, node);
        let phase = ctx.rng.random_range(0..self.cfg.exchange_ms.max(1));
        ctx.timer(node, T_EXCHANGE, phase);
    }

    fn on_node_left(&mut self, _ctx: &mut Ctx<'_, GossipMsg>, node: NodeId) {
        self.views[node.idx()].clear();
        // Stale entries about the departed peer age out of other views.
    }

    fn on_message_dropped(
        &mut self,
        ctx: &mut Ctx<'_, GossipMsg>,
        from: NodeId,
        to: NodeId,
        msg: GossipMsg,
    ) {
        // The sender observed `to` dead: purge it from the view; retry the
        // walk elsewhere.
        if !ctx.host.is_alive(from) {
            return;
        }
        self.views[from.idx()].retain(|e| e.peer != to);
        match msg {
            GossipMsg::Query(w) => self.walk_on(ctx, from, w),
            GossipMsg::Exchange { entries } | GossipMsg::ExchangeReply { entries } => {
                self.recycle(entries)
            }
            GossipMsg::Found { .. } | GossipMsg::Exhausted { .. } => {}
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
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_can::CanOverlay;
    use soc_overlay::testkit::{TestHarness, TestHost};
    use soc_overlay::Effect;

    const N: usize = 64;

    fn world(seed: u64) -> TestHarness<Newscast> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let can = CanOverlay::bootstrap(2, N, N, &mut rng);
        let cmax = ResVec::from_slice(&[10.0, 10.0]);
        let mut host = TestHost::uniform(N, ResVec::from_slice(&[5.0, 5.0]), cmax);
        for i in 0..N {
            let f = 0.15 + 0.8 * (i as f64 / N as f64);
            host.avails[i] = ResVec::from_slice(&[10.0 * f, 10.0 * f]);
        }
        let proto = Newscast::new(GossipConfig::default(), N, N);
        TestHarness::new(proto, can, host, seed)
    }

    #[test]
    fn views_fill_and_stay_capped() {
        let mut h = world(1);
        h.run_until(600_000);
        let cap = h.proto.view_cap();
        let mut filled = 0;
        for i in 0..N {
            let v = h.proto.view(NodeId(i as u32));
            assert!(v.len() <= cap, "view overflow: {}", v.len());
            if v.len() == cap {
                filled += 1;
            }
            assert!(well_formed(v, NodeId(i as u32), cap), "node {i}: {v:?}");
            assert!(
                h.proto.views[i].capacity() <= cap,
                "node {i} over-allocated"
            );
        }
        assert!(filled > N / 2, "only {filled} full views");
    }

    #[test]
    fn exchanges_spread_fresh_information() {
        let mut h = world(2);
        h.run_until(600_000);
        assert!(h.stats.count(MsgKind::GossipExchange) > 0);
        // Entries should be recent (within a few exchange cycles).
        let now = h.now();
        for i in 0..N {
            for e in h.proto.view(NodeId(i as u32)) {
                assert!(now - e.heartbeat < 4 * 400_000, "stale entry survived");
            }
        }
    }

    #[test]
    fn query_walk_finds_candidates() {
        let mut h = world(3);
        h.run_until(600_000);
        let demand = ResVec::from_slice(&[2.0, 2.0]);
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
        assert!(!results.is_empty(), "walk found nothing");
        for c in &results {
            assert!(c.avail.dominates(&demand));
        }
    }

    #[test]
    fn impossible_query_exhausts() {
        let mut h = world(4);
        h.run_until(600_000);
        let qid = QueryId(2);
        h.start_query(QueryRequest {
            qid,
            requester: NodeId(1),
            demand: ResVec::from_slice(&[9.9, 9.9]),
            wanted: 1,
        });
        let deadline = h.now() + 60_000;
        h.run_until(deadline);
        assert!(h.results.get(&qid).is_none_or(|r| r.is_empty()));
        assert!(h.done.contains(&qid));
    }

    #[test]
    fn dead_peers_are_purged_on_drop() {
        let mut h = world(5);
        h.run_until(600_000);
        // Kill half the nodes behind the protocol's back.
        for i in (0..N).step_by(2).skip(1) {
            h.host.alive[i] = false;
        }
        let qid = QueryId(3);
        h.start_query(QueryRequest {
            qid,
            requester: NodeId(0),
            demand: ResVec::from_slice(&[2.0, 2.0]),
            wanted: 2,
        });
        let deadline = h.now() + 120_000;
        h.run_until(deadline);
        let got = h.results.get(&qid).map_or(0, |r| r.len());
        let done = h.done.contains(&qid);
        assert!(got > 0 || done, "query hung against dead peers");
    }

    #[test]
    fn view_cap_follows_log2_n() {
        let p = Newscast::new(GossipConfig::default(), 2000, 2000);
        assert_eq!(p.view_cap(), 11); // ⌈log2 2000⌉ = 11
        let p = Newscast::new(GossipConfig::default(), 64, 64);
        assert_eq!(p.view_cap(), 6);
    }

    /// The receiver answers the last of the freshest offered entries. A
    /// view entry stamped at the same millisecond as the initiator's
    /// self-entry, about a higher peer id, sorts after the self-entry by
    /// key: only an offer that keeps the self-entry last gets the reply
    /// back to the initiator.
    #[test]
    fn reply_goes_to_the_initiator_on_a_heartbeat_tie() {
        let mut h = world(6);
        let (initiator, peer) = (NodeId(3), NodeId(9));
        let now = 1_000;
        h.proto.views[initiator.idx()] = vec![ViewEntry {
            peer,
            avail: h.host.avails[peer.idx()],
            heartbeat: now,
        }];
        let mut rng = SmallRng::seed_from_u64(6);
        let mut ctx = Ctx::new(now, &h.can, &h.host, &mut rng);
        h.proto.on_timer(&mut ctx, initiator, T_EXCHANGE);
        let exchange = ctx
            .finish()
            .0
            .into_iter()
            .find_map(|f| match f {
                Effect::Send { to, msg, .. } => Some((to, msg)),
                _ => None,
            })
            .expect("the initiator sends an exchange");
        assert_eq!(exchange.0, peer);
        let mut ctx = Ctx::new(now + 1, &h.can, &h.host, &mut rng);
        h.proto.on_message(&mut ctx, peer, exchange.1);
        let replies: Vec<NodeId> = ctx
            .finish()
            .0
            .into_iter()
            .filter_map(|f| match f {
                Effect::Send {
                    to,
                    msg: GossipMsg::ExchangeReply { .. },
                    ..
                } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(replies, [initiator]);
    }

    /// The find-push-sort merge the sorted-list merge replaced: the model
    /// it must match step for step.
    fn model_merge(view: &mut Vec<ViewEntry>, node: NodeId, incoming: &[ViewEntry], cap: usize) {
        for e in incoming {
            if e.peer == node {
                continue;
            }
            match view.iter_mut().find(|v| v.peer == e.peer) {
                Some(v) => {
                    if e.heartbeat > v.heartbeat {
                        *v = *e;
                    }
                }
                None => view.push(*e),
            }
        }
        view.sort_by_key(view_key);
        view.truncate(cap);
    }

    /// One offer to `to`, ending in the sender's self-entry: either the
    /// sender's view as the workload sends it, or distinct peers in random
    /// order that re-offer `to`'s peers older, equally fresh or newer, may
    /// name `to` itself, and are often stamped at one instant.
    fn draw_offer(
        rng: &mut SmallRng,
        views: &[Vec<ViewEntry>],
        to: NodeId,
        now: SimMillis,
        cap: usize,
    ) -> Vec<ViewEntry> {
        let n = views.len() as u32;
        let avail = |rng: &mut SmallRng| ResVec::from_slice(&[rng.random_range(0.0..10.0), 1.0]);
        let from = NodeId(rng.random_range(0..n));
        let mut offer = if rng.random_bool(0.5) {
            views[from.idx()].clone()
        } else {
            let mut offer: Vec<ViewEntry> = Vec::new();
            for _ in 0..rng.random_range(0..=cap) {
                let peer = NodeId(rng.random_range(0..n));
                if peer == from || offer.iter().any(|e| e.peer == peer) {
                    continue;
                }
                let heartbeat = match views[to.idx()].iter().find(|e| e.peer == peer) {
                    Some(v) => (v.heartbeat + rng.random_range(0..3))
                        .saturating_sub(1)
                        .min(now),
                    None => now.saturating_sub(rng.random_range(0..3)),
                };
                offer.push(ViewEntry {
                    peer,
                    avail: avail(rng),
                    heartbeat,
                });
            }
            offer
        };
        offer.push(ViewEntry {
            peer: from,
            avail: avail(rng),
            heartbeat: now,
        });
        offer
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Merges, purges and clears in lockstep on the protocol and on
        /// the old merge: every view stays identical, `avail` included.
        #[test]
        fn merge_matches_find_push_sort(seed in 0u64..1 << 40, cap in 1usize..13, n in 3u32..40) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cfg = GossipConfig { view_cap: Some(cap), ..GossipConfig::default() };
            let mut proto = Newscast::new(cfg, n as usize, n as usize);
            let mut model: Vec<Vec<ViewEntry>> = vec![Vec::new(); n as usize];
            let mut now: SimMillis = 0;
            for _ in 0..200 {
                now += rng.random_range(0..3);
                let node = NodeId(rng.random_range(0..n));
                match rng.random_range(0..10) {
                    0 => {
                        let gone = NodeId(rng.random_range(0..n));
                        proto.views[node.idx()].retain(|e| e.peer != gone);
                        model[node.idx()].retain(|e| e.peer != gone);
                    }
                    1 if rng.random_bool(0.2) => {
                        proto.views[node.idx()].clear();
                        model[node.idx()].clear();
                    }
                    _ => {
                        let offer = draw_offer(&mut rng, &model, node, now, cap);
                        proto.merge_view(node, &offer);
                        model_merge(&mut model[node.idx()], node, &offer, cap);
                    }
                }
                for (i, m) in model.iter().enumerate() {
                    prop_assert_eq!(&proto.views[i], m);
                }
            }
        }
    }
}
