//! INSCAN — Index-Node Supported CAN (§III-A).
//!
//! INSCAN augments every CAN node with *index nodes*: sampled nodes at
//! `2^k`-hop distances along each dimension, in both directions, for
//! `k = 0, 1, …, ⌊log2 n^{1/d}⌋`. They play two roles:
//!
//! 1. **Routing fingers.** Greedy CAN routing needs `O(d·n^{1/d})` hops;
//!    jumping by the largest non-overshooting `2^k` finger per dimension
//!    brings this to `O(log2 n)` — the paper's claimed state-update and
//!    duty-query delivery bound.
//! 2. **Diffusion targets.** PID-CAN's index-sender/relay algorithms pick
//!    *negative* index nodes (`NINode`s) at random `2^k` distances as
//!    notification targets (`pidcan` crate).
//!
//! The module also implements **INSCAN-RQ** (the flooding range query of
//! Fig. 1) used as the analytical strawman: delay ≤ `2·log2 n` but traffic
//! `log2 n + N − 1` where `N` is the number of zones overlapping the range.

#[doc(hidden)]
pub mod router;
pub mod routing;
pub mod rq;
pub mod table;

#[doc(hidden)]
pub use router::{RouteCacheStats, Router};
pub use routing::{inscan_next_hop, inscan_route};
pub use rq::{range_query, RangeQueryOutcome};
pub use table::{kmax_for, IndexTable, IndexTables, WalkStats};
