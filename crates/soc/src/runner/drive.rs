//! Window stepping, the barrier merge, and the two drivers that pump the
//! shards: inline on the calling thread, or on persistent workers.

use super::coord::Coord;
use super::shard::Shard;
use super::World;
use soc_overlay::{DiscoveryOverlay, Phase, Profiler};
use soc_types::SimMillis;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

/// One coordinator decision between windows.
enum Step {
    /// No runnable event remains at or before the deadline.
    Done,
    /// A coordinator event ran (and its outboxes must be merged).
    Merged,
    /// Pump every shard up to (excluding) this bound, then merge.
    Window(SimMillis),
}

/// Decide the next step: run the earliest coordinator event if it is due
/// at or before the earliest shard event (coordinator-first tie-break, so
/// churn/sampling at `t` precede shard events at `t`), otherwise open a
/// window bounded by the lookahead and the next coordinator event.
fn coordinator_step<P: DiscoveryOverlay>(
    coord: &mut Coord<'_>,
    world: &RwLock<World>,
    shards: &[Mutex<Shard<P>>],
) -> Step {
    let deadline = coord.sc.duration_ms;
    let ws = shards
        .iter()
        .filter_map(|s| s.lock().expect("shard lock").queue.peek_time())
        .min()
        .filter(|&t| t <= deadline);
    let tc = coord.cq.peek_time().filter(|&t| t <= deadline);
    match (ws, tc) {
        (None, None) => Step::Done,
        (ws, Some(t)) if ws.is_none_or(|w| t <= w) => {
            let (at, ev) = coord.cq.pop_until(t).expect("peeked coordinator event");
            debug_assert_eq!(at, t);
            coord.handle_coev(world, shards, t, ev);
            Step::Merged
        }
        (ws, tc) => {
            let w = ws.expect("a shard event exists on this branch");
            let mut wb = deadline + 1;
            if shards.len() > 1 {
                wb = wb.min(w + coord.lookahead);
            }
            if let Some(t) = tc {
                wb = wb.min(t);
            }
            // Progress: wb ≥ w + 1 always (lookahead ≥ 1, tc > w here,
            // w ≤ deadline), so the earliest event is inside the window.
            Step::Window(wb)
        }
    }
}

/// Drain every outbox straight into the target queues: sender shards in
/// index order, each outbox in emission order. No sort is needed. Queue
/// order is `(time, insertion seq)` and `seq` only breaks ties at equal
/// `time`, so this insertion order pops exactly as the batch stably sorted
/// by time would — a pure function of the buffered events, not of which
/// thread ran which window. The target queues' clocks trail every fire
/// time (lookahead rule), so `schedule_at` never clamps.
pub(super) fn merge_outboxes<P: DiscoveryOverlay>(shards: &[Mutex<Shard<P>>]) {
    for sender in shards {
        let mut outbox = {
            let mut sh = sender.lock().expect("shard lock");
            if sh.outbox.is_empty() {
                continue;
            }
            std::mem::take(&mut sh.outbox)
        };
        let mut events = outbox.drain(..).peekable();
        // One lock per contiguous run of same-target events.
        while let Some(&(_, tgt, _)) = events.peek() {
            let mut target = shards[tgt].lock().expect("shard lock");
            while let Some((at, _, ev)) = events.next_if(|e| e.1 == tgt) {
                target.queue.schedule_at(at, ev);
            }
        }
        drop(events);
        // Hand the emptied buffer back so its capacity is reused.
        sender.lock().expect("shard lock").outbox = outbox;
    }
}

/// Drive every shard window inline on the calling thread.
pub(super) fn drive_inline<P: DiscoveryOverlay>(
    coord: &mut Coord<'_>,
    world: &RwLock<World>,
    shards: &[Mutex<Shard<P>>],
) {
    loop {
        match coordinator_step(coord, world, shards) {
            Step::Done => break,
            Step::Merged => merge_outboxes(shards),
            Step::Window(wb) => {
                let wr = world.read().expect("world lock");
                for s in shards {
                    s.lock().expect("shard lock").pump(wb, &wr);
                }
                drop(wr);
                merge_outboxes(shards);
            }
        }
    }
}

/// Drive shard windows on persistent worker threads. Two barrier crossings
/// per window: one to publish the bound, one to close the window before
/// the coordinator merges. Workers own a fixed stripe of shards
/// (`w, w+W, …`), so a shard is only ever pumped by one thread and the
/// Mutexes are uncontended — they exist to satisfy the type system and to
/// keep the inline driver on the identical code path.
///
/// A panic (a protocol handler, a violated invariant) must not strand the
/// other threads at the barrier. A worker catches its unwind, parks the
/// payload in `failed` and keeps crossing; the coordinator sees it when
/// the window closes. A coordinator panic is caught the same way, between
/// windows. Either way every worker is released before the original
/// payload is re-raised on the calling thread.
pub(super) fn drive_threaded<P: DiscoveryOverlay + Send>(
    coord: &mut Coord<'_>,
    world: &RwLock<World>,
    shards: &[Mutex<Shard<P>>],
) {
    let n_shards = shards.len();
    let n_workers = n_shards
        .min(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        )
        .max(1);
    let barrier = Barrier::new(n_workers + 1);
    let bound = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let failed: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for w in 0..n_workers {
            let barrier = &barrier;
            let bound = &bound;
            let done = &done;
            let failed = &failed;
            scope.spawn(move || {
                // Each worker times its own barrier waits on a private
                // profiler (the shared ones live inside the shard locks)
                // and folds them into its first shard's profiler at exit.
                let prof = Profiler::from_env();
                loop {
                    let t = prof.start();
                    barrier.wait();
                    prof.stop(Phase::BarrierWait, t);
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let wb = bound.load(Ordering::Acquire);
                    let pumped = catch_unwind(AssertUnwindSafe(|| {
                        let wr = world.read().expect("world lock");
                        let mut s = w;
                        while s < n_shards {
                            shards[s].lock().expect("shard lock").pump(wb, &wr);
                            s += n_workers;
                        }
                    }));
                    if let Err(payload) = pumped {
                        // First panic of the window wins; the run is over.
                        failed
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .get_or_insert(payload);
                    }
                    let t = prof.start();
                    barrier.wait();
                    prof.stop(Phase::BarrierWait, t);
                }
                // A panicking pump poisons its shard; there is no report to
                // fold timings into then.
                if let Ok(mut sh) = shards[w].lock() {
                    sh.prof.absorb(&prof);
                }
            });
        }
        let coordinated = catch_unwind(AssertUnwindSafe(|| loop {
            match coordinator_step(coord, world, shards) {
                Step::Done => break,
                Step::Merged => merge_outboxes(shards),
                Step::Window(wb) => {
                    bound.store(wb, Ordering::Release);
                    barrier.wait(); // open the window
                    barrier.wait(); // every shard pumped to wb
                    if failed.lock().unwrap_or_else(|e| e.into_inner()).is_some() {
                        break;
                    }
                    merge_outboxes(shards);
                }
            }
        }));
        // Workers are parked at the window-opening barrier in every case.
        done.store(true, Ordering::Release);
        barrier.wait();
        if let Err(payload) = coordinated {
            resume_unwind(payload);
        }
    });
    if let Some(payload) = failed.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
}
