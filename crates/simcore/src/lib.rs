//! Deterministic discrete-event simulation engine.
//!
//! This is the substitute for PeerSim's event-driven mode used by the paper
//! (§IV-A): a timestamped event queue with a millisecond `u64` clock,
//! deterministic FIFO tie-breaking for simultaneous events, and seedable RNG
//! streams so every experiment is exactly reproducible from `(scenario,
//! seed)`.
//!
//! The engine is intentionally minimal: protocol logic lives in the overlay
//! crates, and the scenario runner (`soc-sim`) owns the main loop:
//!
//! ```
//! use soc_simcore::EventQueue;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule_in(5, Ev::Ping);
//! q.schedule_in(2, Ev::Pong);
//! assert_eq!(q.pop(), Some((2, Ev::Pong)));
//! assert_eq!(q.pop(), Some((5, Ev::Ping)));
//! assert_eq!(q.pop(), None);
//! ```

pub mod queue;
pub mod rng;

pub use queue::{EventQueue, Time};
pub use rng::{stream_rng, stream_rng_shard, RngStreams};
