//! Property tests for the Newscast baseline's view algebra: merges keep
//! the freshest information, never exceed the cap, never self-reference.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed a local RNG; no simulation stream is involved"
)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use soc_can::CanOverlay;
use soc_gossip::{GossipConfig, Newscast};
use soc_overlay::testkit::{TestHarness, TestHost};
use soc_overlay::QueryRequest;
use soc_types::{NodeId, QueryId, ResVec};

fn harness(n: usize, seed: u64) -> TestHarness<Newscast> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let can = CanOverlay::bootstrap(2, n, n, &mut rng);
    let cmax = ResVec::from_slice(&[10.0, 10.0]);
    let mut host = TestHost::uniform(n, ResVec::from_slice(&[5.0, 5.0]), cmax);
    for i in 0..n {
        let f = 0.2 + 0.7 * (i as f64 / n as f64);
        host.avails[i] = ResVec::from_slice(&[10.0 * f, 10.0 * f]);
    }
    TestHarness::new(
        Newscast::new(GossipConfig::default(), n, n),
        can,
        host,
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn views_never_violate_invariants(seed in 0u64..500, hours in 1u64..4) {
        let n = 48;
        let mut h = harness(n, seed);
        h.run_until(hours * 3_600_000);
        let cap = h.proto.view_cap();
        for i in 0..n {
            let me = NodeId(i as u32);
            let view = h.proto.view(me);
            prop_assert!(view.len() <= cap, "cap exceeded");
            // No self-entries, no duplicate peers.
            let mut peers: Vec<NodeId> = view.iter().map(|e| e.peer).collect();
            prop_assert!(!peers.contains(&me));
            peers.sort();
            let before = peers.len();
            peers.dedup();
            prop_assert_eq!(peers.len(), before, "duplicate peers in view");
            // Heartbeats never come from the future.
            for e in view {
                prop_assert!(e.heartbeat <= h.now());
            }
        }
    }

    #[test]
    fn queries_terminate_with_results_or_verdict(seed in 0u64..200) {
        let mut h = harness(48, seed);
        h.run_until(2 * 3_600_000);
        for (k, target) in [2.0f64, 5.0, 9.9].iter().enumerate() {
            let qid = QueryId(k as u64);
            h.start_query(QueryRequest {
                qid,
                requester: NodeId((seed % 48) as u32),
                demand: ResVec::from_slice(&[*target, *target]),
                wanted: 2,
            });
            let deadline = h.now() + 120_000;
            h.run_until(deadline);
            let got = h.results.get(&qid).map_or(0, |r| r.len());
            let done = h.done.contains_key(&qid);
            prop_assert!(got > 0 || done, "query {qid:?} neither answered nor settled");
            // Every candidate honestly dominates the demand.
            for c in h.results.get(&qid).cloned().unwrap_or_default() {
                prop_assert!(c.avail.dominates(&ResVec::from_slice(&[*target, *target])));
            }
        }
    }
}
