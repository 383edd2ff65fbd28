//! The workload boundary between generation and simulation.
//!
//! The scenario runner pulls every stochastic workload decision — node
//! capacities, arrival spacing, task demands/durations — through one
//! [`WorkloadSource`] object instead of hard-wired sampler calls. That
//! boundary is what makes trace record/replay possible: a recorder wraps
//! any source and logs its outputs, a replayer returns logged outputs
//! without touching the RNG, and because the runner consumes its
//! capacity/workload RNG streams *only* through this trait, a replayed run
//! is bit-exact with the recorded one.

use crate::TaskSpec;
use rand::rngs::SmallRng;
use soc_types::{NodeId, ResVec, SimMillis};

/// Everything the runner asks the workload layer for, in simulation order.
///
/// Implementations must be deterministic functions of their own state and
/// the RNG handed in; they must not draw randomness from anywhere else.
/// A source that ignores the RNG entirely (trace replay) is valid: the
/// runner guarantees the passed streams are consumed by no one else.
pub trait WorkloadSource {
    /// Capacity vector for the next provisioned node (bootstrap fills ids
    /// in order, then one call per churn join).
    fn node_capacity(&mut self, rng: &mut SmallRng) -> ResVec;

    /// Delay until the next task arrival on `node`, given the current
    /// simulation time. Must be ≥ 1 ms.
    fn next_delay(&mut self, node: NodeId, now: SimMillis, rng: &mut SmallRng) -> SimMillis;

    /// The task generated on `node` at `now`.
    fn next_task(&mut self, node: NodeId, now: SimMillis, rng: &mut SmallRng) -> TaskSpec;

    /// Churn notification: `left` departed and/or `joined` arrived at
    /// `now`. Purely observational (trace capture); default no-op.
    fn note_churn(&mut self, now: SimMillis, left: Option<NodeId>, joined: Option<NodeId>) {
        let _ = (now, left, joined);
    }
}
