//! Network model: LAN grouping, latency sampling and message accounting.
//!
//! §IV-A: *"We simulate the Internet communication by grouping all nodes
//! into different LANs and two nodes across LANs have to communicate via
//! WAN network bandwidth"*, and §IV-B gives ≈200 ms as the per-hop WAN
//! delay. Control messages are small, so only latency matters for them;
//! bandwidth (Table I) matters for task dispatch payloads.
//!
//! The model also owns the paper's *message delivery cost* metric: "the
//! summed number of various messages (including state-update message,
//! duty-query message, index-jump message, index-agent message, etc.)
//! sent/forwarded per node" (Table III).

pub mod fault;
pub mod latency;
pub mod stats;

pub use fault::{FaultConfig, FaultPlan};
pub use latency::{LanTopology, LatencyConfig};
pub use stats::{MsgKind, MsgStats, MSG_KINDS};
