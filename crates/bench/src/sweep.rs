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
//! Thread count: the caller passes it; [`thread_count`] is
//! `std::thread::available_parallelism()`, which honours `taskset` and
//! cgroup CPU limits, so `taskset -c 0 repro table3` runs a sweep
//! serially. No rayon — plain `std::thread::scope` keeps the build
//! offline-friendly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker threads a sweep will use: the CPUs this process may run on.
pub fn thread_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `0..n` with `threads` workers, preserving index order in
/// the output (the serial path when `threads <= 1` — also the reference
/// the equivalence test compares against).
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
}
