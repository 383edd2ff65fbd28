//! Shared primitive types for the SOC / PID-CAN reproduction.
//!
//! The central type is [`ResVec`], a small inline multi-dimensional resource
//! vector used for node capacities (`c_i`), availability vectors (`a_i`),
//! task expectation vectors (`e(t_ij)`) and CAN coordinates. The paper's
//! evaluation uses `d = 5` resource types (CPU rate, I/O speed, network
//! bandwidth, disk size, memory size); the library supports any dimension up
//! to [`MAX_DIM`] without heap allocation.
//!
//! Identifier newtypes ([`NodeId`], [`TaskId`], [`QueryId`]) keep the many
//! integer indexes in the simulator from being mixed up; per-node tables
//! are plain vectors indexed by [`NodeId::idx`].
//!
//! [`knobs`] is the central registry of `SOC_*` environment variables —
//! the single place such knobs are declared, documented and read (the
//! workspace `clippy.toml` disallows every other `std::env::var`).

pub mod ids;
pub mod knobs;
pub mod resvec;
pub mod units;

pub use ids::{NodeId, QueryId, TaskId};
pub use resvec::{ResVec, MAX_DIM};
pub use units::{
    secs, to_secs, Dim, SimMillis, DAY, DIM_CPU, DIM_DISK, DIM_IO, DIM_MEM, DIM_NAMES, DIM_NET,
    HOUR, PERF_DIMS, RUN_LIMIT_MS, SECOND, SOC_DIMS,
};
