//! Protocol-level walkthrough of one multi-dimensional range query.
//!
//! Builds a 2-D INSCAN overlay directly (no workload/PSM), publishes state
//! records, lets the proactive index diffusion run, then traces a single
//! best-fit range query through the duty-node → index-agent → index-jump
//! pipeline and prints what came back. Also contrasts it with the
//! INSCAN-RQ flooding strawman on the same demand.
//!
//! ```text
//! cargo run --release --example range_query_demo
//! ```
#![expect(
    clippy::disallowed_methods,
    reason = "an example seeds a local RNG to build its overlay"
)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use soc_pidcan::can::CanOverlay;
use soc_pidcan::inscan::{range_query, IndexTables};
use soc_pidcan::overlay::testkit::{TestHarness, TestHost};
use soc_pidcan::overlay::QueryRequest;
use soc_pidcan::pidcan::{PidCan, PidCanConfig};
use soc_pidcan::types::{NodeId, QueryId, ResVec};

const N: usize = 128;

fn main() {
    let seed = 7;
    let mut rng = SmallRng::seed_from_u64(seed);

    // 1. A 2-D CAN of 128 nodes (2-D so zones are easy to picture; the SOC
    //    experiments use the full 5-D space).
    let can = CanOverlay::bootstrap(2, N, N, &mut rng);
    println!("overlay: {} nodes, {} dims", can.len(), can.dim());

    // 2. Every node advertises an availability that grows with its id:
    //    node k has (10k/N, 10k/N) of a (10, 10) cmax.
    let cmax = ResVec::from_slice(&[10.0, 10.0]);
    let mut host = TestHost::uniform(N, ResVec::zeros(2), cmax);
    for i in 0..N {
        let f = 0.1 + 0.85 * (i as f64 / N as f64);
        host.avails[i] = ResVec::from_slice(&[10.0 * f, 10.0 * f]);
    }

    // 3. Run HID-CAN's periodic machinery for one state cycle + a few
    //    diffusion cycles so duty caches and PILists fill up.
    let proto = PidCan::new(PidCanConfig::hid(), 2, N, N);
    let mut h = TestHarness::new(proto, can, host, seed);
    h.run_until(520_000);
    println!(
        "after warm-up: {} state-update msgs, {} index-diffusion msgs",
        h.stats.count(soc_pidcan::net::MsgKind::StateUpdate),
        h.stats.count(soc_pidcan::net::MsgKind::IndexDiffusion),
    );

    // 4. One range query: "at least (6.0, 6.0)" — i.e. the box
    //    [demand, cmax] in the key space. δ = 4 best-fit records wanted.
    let demand = ResVec::from_slice(&[6.0, 6.0]);
    let duty = h.can.owner_of(&demand.normalize(&h.host.cmax));
    println!("\nquery: demand {demand:?} → duty node {duty}");
    let qid = QueryId(1);
    h.start_query(QueryRequest {
        qid,
        requester: NodeId(0),
        demand,
        wanted: 4,
    });
    let deadline = h.now() + 120_000;
    h.run_until(deadline);

    let results = h.results.get(&qid).cloned().unwrap_or_default();
    println!("FoundList ϕ ({} candidates):", results.len());
    let mut ranked: Vec<_> = results
        .iter()
        .map(|c| (c.avail.fit_slack(&demand, &h.host.cmax), c))
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for (slack, c) in &ranked {
        println!("  {}  avail {:?}  slack {:.3}", c.node, c.avail, slack);
    }
    if let Some((_, best)) = ranked.first() {
        println!("best fit → {}", best.node);
    }
    println!(
        "query traffic: duty-query {}, index-agent {}, index-jump {}, found {}",
        h.stats.count(soc_pidcan::net::MsgKind::DutyQuery),
        h.stats.count(soc_pidcan::net::MsgKind::IndexAgent),
        h.stats.count(soc_pidcan::net::MsgKind::IndexJump),
        h.stats.count(soc_pidcan::net::MsgKind::FoundNotify),
    );

    // 5. Contrast: the INSCAN-RQ flood (§III-A strawman) answers the same
    //    box query exhaustively but touches every responsible zone.
    let mut tables = IndexTables::new(2, N, N);
    tables.refresh_all(&h.can, &mut rng);
    let rq = range_query(
        &h.can,
        &tables,
        NodeId(0),
        &demand.normalize(&h.host.cmax),
        &ResVec::from_slice(&[1.0, 1.0]),
    );
    println!(
        "\nINSCAN-RQ strawman: {} responsible zones, {} flood msgs, delay {} hops \
         (vs PID-CAN's single routed message)",
        rq.responsible.len(),
        rq.flood_msgs,
        rq.delay_hops()
    );
}
