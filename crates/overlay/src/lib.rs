//! The discovery-overlay abstraction shared by every protocol under test.
//!
//! The scenario runner (`soc-sim`) is generic over a [`DiscoveryOverlay`]:
//! PID-CAN (SID/HID ± SoS, +VD), Newscast gossip and KHDN-CAN all implement
//! this trait. The runner drives the event loop; protocols react to
//! messages/timers and interact with the world exclusively through a
//! [`Ctx`], which records *effects* (messages to send, timers to arm,
//! queries answered or exhausted) that the runner applies — keeping
//! protocol logic pure, deterministic and independently testable.
//!
//! The crate also provides the shared [`RecordCache`] (the paper's per-node
//! cache `γ` of state records, TTL'd per §IV-A's 600 s message age).

pub mod api;
pub mod records;
pub mod testkit;

pub use api::{Candidate, Ctx, DiscoveryOverlay, Effect, HostInfo, QueryRequest, TimerKind};
pub use records::{RecordCache, StateRecord};
