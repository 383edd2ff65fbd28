//! # soc-pidcan
//!
//! A from-scratch Rust reproduction of **"Probabilistic Best-fit
//! Multi-dimensional Range Query in Self-Organizing Cloud"** (Di, Wang,
//! Zhang, Cheng — ICPP 2011): the PID-CAN resource-discovery protocol and
//! the complete Self-Organizing-Cloud simulation stack it is evaluated on.
//!
//! This facade re-exports every sub-crate under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `soc-types` | resource vectors, ids, units |
//! | [`simcore`] | `soc-simcore` | deterministic discrete-event engine |
//! | [`net`] | `soc-net` | LAN/WAN latency model + message accounting |
//! | [`can`] | `soc-can` | CAN overlay (zones, partition tree, routing) |
//! | [`inscan`] | `soc-inscan` | INSCAN index tables + `O(log n)` routing + INSCAN-RQ |
//! | [`psm`] | `soc-psm` | proportional-share (credit) execution model |
//! | [`workload`] | `soc-workload` | the paper's workload (Table I/II, Poisson arrivals) and its variants |
//! | [`metrics`] | `soc-metrics` | T-Ratio / F-Ratio / Jain fairness |
//! | [`overlay`] | `soc-overlay` | the `DiscoveryOverlay` protocol trait |
//! | [`pidcan`] | `pidcan` | **the paper's contribution**: SID/HID diffusion, Algorithms 1–5, SoS, VD |
//! | [`gossip`] | `soc-gossip` | Newscast baseline |
//! | [`khdn`] | `soc-khdn` | KHDN-CAN baseline |
//! | [`sim`] | `soc-sim` | scenario runner (Fig. 4–8, Table III) |
//! | [`scenario`] | `soc-scenario` | declarative scenario files + trace record/replay |
//!
//! ## Quickstart
//!
//! ```no_run
//! use soc_pidcan::sim::{ProtocolChoice, Scenario};
//!
//! // A scaled-down version of the paper's Fig. 6 HID-CAN line.
//! let report = Scenario::quick(ProtocolChoice::Hid)
//!     .lambda(0.5)
//!     .seed(42)
//!     .run();
//! println!("{}", report.summary());
//! for point in &report.series {
//!     println!("{:>5.1} h  T-Ratio {:.3}", point.t_ms as f64 / 3.6e6, point.t_ratio);
//! }
//! ```

pub use pidcan;
pub use soc_can as can;
pub use soc_gossip as gossip;
pub use soc_inscan as inscan;
pub use soc_khdn as khdn;
pub use soc_metrics as metrics;
pub use soc_net as net;
pub use soc_overlay as overlay;
pub use soc_psm as psm;
pub use soc_scenario as scenario;
pub use soc_sim as sim;
pub use soc_simcore as simcore;
pub use soc_types as types;
pub use soc_workload as workload;
