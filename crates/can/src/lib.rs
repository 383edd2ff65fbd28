//! Content Addressable Network (CAN) substrate.
//!
//! Implements the d-dimensional CAN overlay of Ratnasamy et al. (SIGCOMM'01)
//! as required by the paper: zone partitioning of the unit box `[0,1]^d`,
//! node join by zone split, node departure with takeover via the **binary
//! partition tree** (the paper's §IV-B "background zone reassignment
//! algorithm"), adjacency-based neighbor tables with the paper's
//! positive/negative orientation, and greedy coordinate routing.
//!
//! Unlike the original CAN, the key space here is **not** a torus: the
//! paper's index diffusion is directional ("backward", toward the origin)
//! and probes stop "at the edge of the CAN space" (§III-A), which requires a
//! bounded, ordered space.
//!
//! The structural operations (join/leave) mutate a global [`CanOverlay`]
//! atomically, PeerSim-style; the *data plane* (state updates, queries,
//! index diffusion) is message-simulated by the overlay protocol crates on
//! top. See DESIGN.md §2 for why this split preserves the paper's
//! evaluation semantics.

pub mod neighbors;
pub mod overlay;
pub mod routing;
pub mod row;
pub mod tree;
pub mod zone;

pub use neighbors::{adjacency, is_negative_direction, Adjacency};
pub use overlay::{CanOverlay, NeighborEntry};
pub use routing::{greedy_next_hop, greedy_next_hop_filtered, route_path, RouteOutcome};
pub use row::ZoneRow;
pub use tree::PartitionTree;
pub use zone::{Point, Zone};
