//! A counting global allocator, armed only around the traced rep.
//!
//! Disarmed (every timed run) it is the system allocator plus one relaxed
//! load per call. Armed, it counts calls and bytes and tracks the peak of
//! live bytes allocated since arming. The simulator runs single-threaded
//! under the default `SOC_SIM_EXEC=serial`, so the counts are a function
//! of the scenario alone and repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator type installed by `main.rs`.
pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    // Blocks allocated before arming may be freed while armed, so `LIVE`
    // is a signed balance relative to the arming point.
    LIVE.fetch_sub(bytes as i64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters are atomics
// and never influence the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What was allocated between [`arm`] and [`disarm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Peak of live bytes allocated since arming.
    pub peak_live_bytes: u64,
}

/// Zero the counters and start counting.
pub fn arm() {
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
}

/// Stop counting and return the totals.
pub fn disarm() -> AllocCounts {
    ARMED.store(false, Relaxed);
    AllocCounts {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    // One test, not several: the counters are process-global and the test
    // harness runs tests on parallel threads.
    #[test]
    fn counts_only_between_arm_and_disarm() {
        let before: Vec<u8> = black_box(Vec::with_capacity(4096));
        arm();
        let v: Vec<u8> = black_box(Vec::with_capacity(1 << 20));
        drop(v);
        drop(before);
        let got = disarm();
        assert!(got.calls >= 1, "armed allocation not counted");
        assert!(got.bytes >= 1 << 20);
        assert!(got.peak_live_bytes >= 1 << 20);
        let after: Vec<u8> = black_box(Vec::with_capacity(1 << 20));
        drop(after);
        let again = disarm();
        assert_eq!(again, got, "disarmed allocations must not count");
    }
}
