//! Deterministic fan-out over independent sweep cells.
//!
//! Every figure/table of §IV is a grid of *independent* scenario runs —
//! each `Scenario::run` owns its RNG streams, so cell results depend only
//! on the cell, never on execution order. That makes run-to-run
//! parallelism free of semantic risk: this module fans the cells out over
//! scoped threads pulling from a shared work queue and collects results
//! **by cell index**, so the output is bitwise identical to the serial
//! loop regardless of scheduling (asserted by
//! `tests/parallel_equivalence.rs`).
//!
//! Thread count: `SOC_BENCH_THREADS` if set (≥1), else
//! `std::thread::available_parallelism()`. No rayon — plain
//! `std::thread::scope` keeps the build offline-friendly.

use soc_types::knobs;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// Allowed past the workspace's `thread_local!` ban by the crate-level
// `#[expect]` in lib.rs.
thread_local! {
    /// Scoped thread-count override (see [`with_thread_override`]).
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with [`thread_count`] pinned to `n` on this thread.
///
/// This is how tests force the genuinely-parallel path on a 1-core host:
/// unlike mutating `SOC_BENCH_THREADS`, a thread-local override cannot
/// race with or leak into concurrently-running tests.
pub fn with_thread_override<T>(n: usize, f: impl FnOnce() -> T) -> T {
    THREAD_OVERRIDE.with(|c| {
        let prev = c.replace(Some(n.max(1)));
        let out = f();
        c.set(prev);
        out
    })
}

/// Worker threads a sweep will use: a [`with_thread_override`] scope if
/// active, else `SOC_BENCH_THREADS` (clamped to ≥1), else the machine's
/// available parallelism.
///
/// Read per call, never cached — the rule for every knob (see
/// `soc_types::knobs`).
pub fn thread_count() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|c| c.get()) {
        return n;
    }
    if let Some(v) = knobs::raw("SOC_BENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `0..n` with [`thread_count`] workers, preserving index
/// order in the output.
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_with_threads(n, thread_count(), f)
}

/// [`map_indexed`] with an explicit worker count (the serial path when
/// `threads <= 1` — also the reference the equivalence test compares
/// against).
pub fn map_indexed_with_threads<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("unpoisoned result slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.into_inner()
                .expect("unpoisoned result slot")
                .unwrap_or_else(|| panic!("sweep cell {i} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let out = map_indexed_with_threads(32, 4, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel() {
        let serial = map_indexed_with_threads(17, 1, |i| format!("cell-{i}"));
        let parallel = map_indexed_with_threads(17, 8, |i| format!("cell-{i}"));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_threads_than_cells() {
        assert_eq!(map_indexed_with_threads(2, 64, |i| i), vec![0, 1]);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(map_indexed_with_threads(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed_with_threads(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn override_scopes_and_restores() {
        let outside = thread_count();
        let inside = with_thread_override(7, || {
            assert_eq!(thread_count(), 7);
            // Nesting: innermost wins, then restores.
            with_thread_override(2, || assert_eq!(thread_count(), 2));
            thread_count()
        });
        assert_eq!(inside, 7);
        assert_eq!(thread_count(), outside);
    }
}
