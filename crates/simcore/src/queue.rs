//! The timestamped event queue: a sliding timing wheel over an event slab.
//!
//! The wheel is a power-of-two ring of per-millisecond FIFO buckets whose
//! window always starts at the queue clock — it slides forward on every
//! pop and on every idle `pop_until` jump — with a hierarchical occupancy
//! bitmap for O(1) next-event search and a memoized minimum so the
//! windowed executor's per-window peeks cost a single load. Events live
//! once in a per-queue slab (`Vec` of nodes with a LIFO free list);
//! buckets are intrusive singly-linked lists of `u32` slab handles, so an
//! event is written once on schedule and read once on pop. Timers beyond
//! the window wait in a `BTreeMap` of handles and migrate into the ring
//! *eagerly*, the moment the window slides over them — which keeps every
//! overflow key at or beyond the window's end, and with it same-instant
//! FIFO across migration.
//!
//! Delivery order is earliest timestamp first, FIFO among events scheduled
//! for the same instant. `tests/queue_props.rs` holds the wheel to that
//! contract in lockstep with a `BinaryHeap` model keyed `(time, seq)`.

use std::cell::Cell;
use std::collections::BTreeMap;

/// Simulation time in milliseconds (matches `soc_types::SimMillis`).
pub type Time = u64;

/// Ring width in milliseconds. Control-plane latencies are 2–250 ms and
/// the window slides with the clock, so every message delivery lands in
/// the ring; only true ≥ 512 ms timers (protocol cycles, arrival gaps,
/// task transfers/completions) visit the overflow map. Sized small on
/// purpose: the windowed executor runs one wheel per shard, and 512 slots
/// keep each shard's bucket heads and tails (4 KiB) resident in cache as
/// the engine cycles through every shard per lookahead window.
const RING_MS: usize = 512;
/// `RING_MS / 64` occupancy words (one summary `u64` bit per word).
const RING_WORDS: usize = RING_MS / 64;
// The single-u64 `summary` can only cover 64 occupancy words; retuning
// RING_MS past 4096 needs a deeper hierarchy, not just a bigger ring.
const _: () = assert!(RING_WORDS <= 64 && RING_MS % 64 == 0);

/// Null slab handle: end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One slab slot: a pending event linked into its bucket (`ev` is `Some`;
/// overflow entries leave `next` unused until they migrate), or a free
/// slot linked into the free list (`ev` is `None`).
struct Node<E> {
    next: u32,
    ev: Option<E>,
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant are delivered in scheduling order
/// (FIFO), which makes simulation runs bit-reproducible regardless of queue
/// internals.
///
/// Popping advances the clock: [`EventQueue::now`] is the timestamp of the
/// most recently popped event. The ring window is `[now, now + RING_MS)`;
/// every clock move goes through [`EventQueue::pop`] or the idle jump in
/// [`EventQueue::pop_until`], and both slide the window. Invariants:
///
/// * every ring event's time `t` satisfies `now <= t < now + RING_MS`;
/// * bucket `t % RING_MS` holds only events at exactly `t` (unique within
///   the window), linked in scheduling order — so per-bucket FIFO is
///   global same-instant FIFO;
/// * every overflow key is `>= now + RING_MS` (eager migration), so a
///   direct ring insert at `t` always follows every overflow entry at `t`;
/// * `ovf_min` is the earliest overflow key's time (`Time::MAX` if none);
/// * `occ`/`summary` bits mirror bucket non-emptiness exactly.
pub struct EventQueue<E> {
    now: Time,
    seq: u64,
    scheduled_total: u64,
    /// Every pending event, plus recycled slots on the free list.
    slab: Vec<Node<E>>,
    /// Head of the LIFO free list through `Node::next`.
    free: u32,
    /// First / last slab handle of each bucket's list (`NIL` when empty;
    /// `tails[i]` is only meaningful while `heads[i] != NIL`).
    heads: [u32; RING_MS],
    tails: [u32; RING_MS],
    /// Occupancy bitmap: bit `i % 64` of word `i / 64` set iff bucket `i`
    /// is non-empty.
    occ: [u64; RING_WORDS],
    /// Summary bitmap: bit `w` set iff `occ[w] != 0`.
    summary: u64,
    /// Events currently in the ring.
    ring_len: usize,
    /// Far-future events keyed `(time, seq)` — one small map entry per
    /// timer, pointing at its slab node. Flat on purpose: timer
    /// timestamps are near-unique, and the `seq` component of the key
    /// preserves same-instant FIFO for free.
    overflow: BTreeMap<(Time, u64), u32>,
    ovf_min: Time,
    /// Memoized earliest pending timestamp. `Some(t)` is exact (never
    /// stale); `None` means unknown — recompute on the next query. The
    /// windowed executor peeks every shard queue once per lookahead
    /// window and every `pop_until` peeks before popping, so without
    /// this hint the bitmap search runs two to three times per delivered
    /// event. `Cell` because [`EventQueue::peek_time`] takes `&self`.
    min_hint: Cell<Option<Time>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            now: 0,
            seq: 0,
            scheduled_total: 0,
            slab: Vec::new(),
            free: NIL,
            heads: [NIL; RING_MS],
            tails: [NIL; RING_MS],
            occ: [0; RING_WORDS],
            summary: 0,
            ring_len: 0,
            overflow: BTreeMap::new(),
            ovf_min: Time::MAX,
            min_hint: Cell::new(None),
        }
    }

    /// An empty queue whose event slab has room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.slab.reserve(cap);
        q
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (diagnostics).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Store `ev` in a recycled or fresh slab slot.
    fn alloc(&mut self, ev: E) -> u32 {
        if self.free != NIL {
            let h = self.free;
            let node = &mut self.slab[h as usize];
            self.free = node.next;
            node.ev = Some(ev);
            h
        } else {
            assert!(
                self.slab.len() < NIL as usize,
                "event slab outgrew u32 handles"
            );
            let h = self.slab.len() as u32;
            self.slab.push(Node {
                next: NIL,
                ev: Some(ev),
            });
            h
        }
    }

    /// Append slab node `h` to the bucket of ring time `time`.
    fn link(&mut self, time: Time, h: u32) {
        let idx = (time % RING_MS as u64) as usize;
        self.slab[h as usize].next = NIL;
        if self.heads[idx] == NIL {
            self.heads[idx] = h;
            self.occ[idx / 64] |= 1 << (idx % 64);
            self.summary |= 1 << (idx / 64);
        } else {
            self.slab[self.tails[idx] as usize].next = h;
        }
        self.tails[idx] = h;
        self.ring_len += 1;
    }

    /// First occupied bucket at ring distance `>= 0` from position `from`,
    /// searching forward with wraparound. Returns `(index, distance)`.
    fn next_occupied(&self, from: usize) -> Option<(usize, usize)> {
        if self.ring_len == 0 {
            return None;
        }
        let (w0, b0) = (from / 64, from % 64);
        // 1) Tail of the starting word (bits at or after `from`).
        let tail = self.occ[w0] & (!0u64 << b0);
        if tail != 0 {
            let idx = w0 * 64 + tail.trailing_zeros() as usize;
            return Some((idx, idx - from));
        }
        // 2) Words strictly after the starting word.
        let above = if w0 + 1 < RING_WORDS {
            self.summary & (!0u64 << (w0 + 1))
        } else {
            0
        };
        if above != 0 {
            let w = above.trailing_zeros() as usize;
            let idx = w * 64 + self.occ[w].trailing_zeros() as usize;
            return Some((idx, idx - from));
        }
        // 3) Wraparound: words up to and including the starting word. Any
        // hit in word `w0` is at a bit below `b0` (the tail was empty), so
        // the wrapped distance is always positive.
        let low_mask = if w0 + 1 >= 64 {
            !0u64
        } else {
            (1u64 << (w0 + 1)) - 1
        };
        let wrapped = self.summary & low_mask;
        if wrapped != 0 {
            let w = wrapped.trailing_zeros() as usize;
            let idx = w * 64 + self.occ[w].trailing_zeros() as usize;
            return Some((idx, RING_MS - from + idx));
        }
        None
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling into the past is clamped to `now` — the event fires
    /// immediately-next rather than violating clock monotonicity.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.scheduled_total += 1;
        if self.is_empty() {
            self.min_hint.set(Some(time));
        } else if let Some(h) = self.min_hint.get() {
            self.min_hint.set(Some(h.min(time)));
        }
        let h = self.alloc(event);
        if time - self.now < RING_MS as u64 {
            self.link(time, h);
        } else {
            self.overflow.insert((time, seq), h);
            self.ovf_min = self.ovf_min.min(time);
        }
    }

    /// Schedule `event` `delay` milliseconds from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Timestamp of the next pending event, if any.
    ///
    /// Served from `min_hint` when it is warm; otherwise one search runs
    /// and the result is memoized. Ring events always precede overflow
    /// events (window invariants), so the overflow only answers when the
    /// ring is empty.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        if self.is_empty() {
            return None;
        }
        if let Some(t) = self.min_hint.get() {
            return Some(t);
        }
        let t = if self.ring_len > 0 {
            let from = (self.now % RING_MS as u64) as usize;
            let (_, dist) = self
                .next_occupied(from)
                .expect("ring_len > 0 implies an occupied bucket");
            self.now + dist as Time
        } else {
            self.ovf_min
        };
        self.min_hint.set(Some(t));
        Some(t)
    }

    /// The clock moved: migrate every overflow entry the window slid over.
    /// The common case is the one compare in the loop header. Entries
    /// leave in `(time, seq)` order and land behind nothing but earlier
    /// migrants at their instant, so plain appends keep FIFO. Migrants lie
    /// beyond every ring event, so a warm `min_hint` stays exact (when the
    /// ring is empty the hint already is `ovf_min`).
    #[inline]
    fn slide(&mut self) {
        while self.ovf_min - self.now < RING_MS as u64 {
            // Empty only in the last window of time, where the `Time::MAX`
            // "no entry" sentinel itself falls inside the ring.
            let Some(((t, _), h)) = self.overflow.pop_first() else {
                break;
            };
            self.link(t, h);
            self.ovf_min = self
                .overflow
                .first_key_value()
                .map_or(Time::MAX, |(k, _)| k.0);
        }
    }

    /// Pop the earliest event, advancing the clock (and sliding the
    /// window) to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let t = self.peek_time()?;
        debug_assert!(t >= self.now, "clock went backwards");
        self.now = t;
        self.slide();
        let idx = (t % RING_MS as u64) as usize;
        let h = self.heads[idx];
        let node = &mut self.slab[h as usize];
        let event = node.ev.take().expect("occupied bucket");
        self.heads[idx] = node.next;
        node.next = self.free;
        self.free = h;
        self.ring_len -= 1;
        if self.heads[idx] == NIL {
            self.occ[idx / 64] &= !(1 << (idx % 64));
            if self.occ[idx / 64] == 0 {
                self.summary &= !(1 << (idx / 64));
            }
            // The popped instant is exhausted; the next minimum is
            // unknown until someone asks.
            self.min_hint.set(None);
        }
        // Non-empty bucket: events at exactly `t` remain, hint stays warm.
        Some((t, event))
    }

    /// Pop the earliest event only if it fires at or before `deadline`.
    ///
    /// When the next event is after `deadline`, the clock jumps to
    /// `deadline` and `None` is returned — this is how the scenario runner
    /// stops exactly at the simulated day boundary.
    pub fn pop_until(&mut self, deadline: Time) -> Option<(Time, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => {
                if self.now < deadline {
                    self.now = deadline;
                    self.slide();
                }
                None
            }
        }
    }

    /// Drop all pending events (used between scenario repetitions).
    pub fn clear(&mut self) {
        self.slab.clear();
        self.free = NIL;
        self.heads = [NIL; RING_MS];
        self.occ = [0; RING_WORDS];
        self.summary = 0;
        self.ring_len = 0;
        self.overflow.clear();
        self.ovf_min = Time::MAX;
        self.min_hint.set(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 30);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_in(10, "x");
        assert_eq!(q.pop(), Some((10, "x")));
        q.schedule_in(5, "y");
        assert_eq!(q.pop(), Some((15, "y")));
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "later");
        assert_eq!(q.pop(), Some((100, "later")));
        q.schedule_at(50, "past");
        assert_eq!(q.pop(), Some((100, "past")));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(10, 1);
        q.schedule_at(200, 2);
        assert_eq!(q.pop_until(100), Some((10, 1)));
        assert_eq!(q.pop_until(100), None);
        assert_eq!(q.now(), 100); // clock advanced to the deadline
        assert_eq!(q.len(), 1); // the 200-event is still pending
        assert_eq!(q.pop_until(300), Some((200, 2)));
    }

    #[test]
    fn counters_and_clear() {
        let mut q = EventQueue::new();
        q.schedule_at(1, ());
        q.schedule_at(2, ());
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_schedule_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule_at(10, "a");
        q.schedule_at(30, "c");
        assert_eq!(q.pop(), Some((10, "a")));
        q.schedule_in(10, "b"); // at 20
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
    }

    #[test]
    fn far_future_events_round_trip_the_overflow() {
        let mut q = EventQueue::new();
        // Beyond the ring horizon (512 ms) and beyond many windows.
        q.schedule_at(5_000, "near-overflow");
        q.schedule_at(10_000_000, "far");
        q.schedule_at(3, "ring");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop(), Some((3, "ring")));
        assert_eq!(q.pop(), Some((5_000, "near-overflow")));
        assert_eq!(q.pop(), Some((10_000_000, "far")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 10_000_000);
    }

    #[test]
    fn overflow_same_timestamp_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule_at(1_000_000, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((1_000_000, i)));
        }
    }

    #[test]
    fn window_rebases_after_long_idle_jump() {
        let mut q = EventQueue::new();
        q.schedule_at(10, "a");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop_until(50_000_000), None);
        assert_eq!(q.now(), 50_000_000);
        // New events near the far-ahead clock should still order correctly.
        q.schedule_in(7, "b");
        q.schedule_in(3, "c");
        q.schedule_in(3, "d");
        assert_eq!(q.pop(), Some((50_000_003, "c")));
        assert_eq!(q.pop(), Some((50_000_003, "d")));
        assert_eq!(q.pop(), Some((50_000_007, "b")));
    }

    #[test]
    fn idle_jump_then_near_and_far_schedules_keep_order() {
        let mut q = EventQueue::new();
        q.schedule_at(10, "a");
        q.schedule_at(9_000, "timer"); // pending across the jump
        assert_eq!(q.pop(), Some((10, "a")));
        // Several windows of idle time with a timer still pending.
        assert_eq!(q.pop_until(5_000), None);
        assert_eq!(q.now(), 5_000);
        q.schedule_in(600, "far"); // beyond the slid window
        q.schedule_in(3, "near");
        q.schedule_in(511, "edge"); // last ring slot
        q.schedule_at(9_000, "timer2");
        assert_eq!(q.peek_time(), Some(5_003));
        assert_eq!(q.pop(), Some((5_003, "near")));
        assert_eq!(q.pop(), Some((5_511, "edge")));
        assert_eq!(q.pop(), Some((5_600, "far")));
        assert_eq!(q.pop(), Some((9_000, "timer")));
        assert_eq!(q.pop(), Some((9_000, "timer2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn tie_across_migration_is_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "slide");
        // T = 600 is beyond the window [0, 512): overflow map.
        q.schedule_at(600, "first");
        assert_eq!(q.pop(), Some((100, "slide")));
        // The window is now [100, 612): "first" migrated, and this
        // same-instant event goes straight to the ring behind it.
        q.schedule_at(600, "second");
        q.schedule_at(612, "beyond"); // overflow again
        assert_eq!(q.pop(), Some((600, "first")));
        assert_eq!(q.pop(), Some((600, "second")));
        assert_eq!(q.pop(), Some((612, "beyond")));
    }

    /// Payload whose drops are counted.
    struct Counted(std::rc::Rc<Cell<usize>>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn clear_and_drop_release_every_payload_exactly_once() {
        let drops = std::rc::Rc::new(Cell::new(0));
        let mut q = EventQueue::new();
        let fill = |q: &mut EventQueue<Counted>| {
            for t in [5, 5, 300, 511, 512, 90_000] {
                q.schedule_in(t, Counted(drops.clone()));
            }
        };
        fill(&mut q);
        drop(q.pop()); // one freed slab slot on the free list
        assert_eq!(drops.get(), 1);
        q.clear();
        assert_eq!((drops.get(), q.len()), (6, 0));
        // The cleared queue is fully usable and, dropped non-empty,
        // releases the rest.
        fill(&mut q);
        drop(q.pop());
        assert_eq!(drops.get(), 7);
        drop(q);
        assert_eq!(drops.get(), 12);
    }

    #[test]
    fn slab_stays_bounded_under_steady_hold_traffic() {
        const P: usize = 300;
        let mut q = EventQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut delay = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mostly ring traffic, one in eight a far timer.
            if x % 8 == 0 {
                x % 20_000
            } else {
                x % 250
            }
        };
        for i in 0..P {
            q.schedule_in(delay(), i);
        }
        for _ in 0..100_000 {
            let (_, ev) = q.pop().expect("hold model never drains");
            q.schedule_in(delay(), ev);
        }
        assert_eq!(q.len(), P);
        assert!(q.slab.len() <= P + 1, "slab grew to {}", q.slab.len());
    }

    #[test]
    fn with_capacity_reserves_the_slab() {
        let q: EventQueue<u64> = EventQueue::with_capacity(1000);
        assert!(q.slab.capacity() >= 1000);
    }

    #[test]
    fn schedule_during_pop_at_same_instant_stays_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(40, "x");
        assert_eq!(q.pop(), Some((40, "x")));
        // Handler schedules at the current instant: fires next, after
        // anything already queued at 40.
        q.schedule_at(40, "y");
        q.schedule_at(40, "z");
        assert_eq!(q.pop(), Some((40, "y")));
        assert_eq!(q.pop(), Some((40, "z")));
    }

    #[test]
    fn dense_wraparound_traffic_keeps_order() {
        // Push/pop across several ring wraps with interleaving.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut t = 0u64;
        for i in 0..10_000u64 {
            t += (i * 7919) % 13; // 0..12 ms steps, many collisions
            q.schedule_at(t, i);
            expect.push((t, i));
        }
        expect.sort_by_key(|&(t, i)| (t, i)); // seq order == i order
        for e in expect {
            assert_eq!(q.pop(), Some(e));
        }
        assert!(q.is_empty());
    }
}
