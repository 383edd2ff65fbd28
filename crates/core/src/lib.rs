//! PID-CAN — Proactive Index Diffusion CAN (the paper's contribution, §III).
//!
//! The protocol has three moving parts, each in its own module:
//!
//! * [`diffusion`] — Algorithms 1–2: nodes whose state-record cache `γ` is
//!   non-empty periodically diffuse their identifier *backwards* (toward
//!   negative-direction nodes) through randomly chosen negative index nodes
//!   (`NINode`s, at `2^k` hop distances), `L` per dimension. Two variants:
//!   **SID** (spreading — per-dimension initiators pick all `L` targets from
//!   their own table, one-hop parallel sends) and **HID** (hopping — the
//!   index is relayed index-node to index-node, compounding distances;
//!   Theorem 1 bounds the relay delay by `O(log2 n)`).
//! * [`protocol`] — Algorithms 3–5: the contention-minimized query. A
//!   duty-query routes to the duty node enclosing the expectation vector;
//!   the duty node picks `d` random *positive* adjacent neighbors as index
//!   agents (`ι`); agents sample their Positive-Index List (`PIList`) into a
//!   jump list (`j`); index-jump messages hop through it, returning every
//!   qualified cached record (`FoundList ϕ`) to the requester until `δ`
//!   results are found, falling back to the next random agent when a list
//!   drains.
//! * Optional add-ons: **SoS** (Slack-on-Submission, Formula (3)) — query
//!   with a randomly slacked vector `e ⪯ e' ⪯ cmax` first, restore `e` on
//!   failure; **VD** — an extra virtual CAN dimension with random
//!   coordinates to disperse competition (the Kim et al. baseline variant).
//!
//! The crate plugs into the scenario runner through
//! `soc_overlay::DiscoveryOverlay`.

pub mod config;
pub mod diffusion;
pub mod messages;
pub mod pilist;
pub mod protocol;

pub use config::{DiffusionMethod, PidCanConfig};
pub use diffusion::{simulate_diffusion, DiffusionOutcome};
pub use messages::{DutyQuery, PidMsg, Search, StateUpdate};
pub use pilist::PiLists;
pub use protocol::PidCan;
