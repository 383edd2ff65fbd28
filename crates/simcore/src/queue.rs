//! The timestamped event queue: a two-level timing wheel over an event slab.
//!
//! Three tiers, by how far ahead an event fires:
//!
//! * the **ring** — a power-of-two ring of per-millisecond FIFO buckets
//!   whose window starts at the queue clock and slides with it, with a
//!   hierarchical occupancy bitmap for O(1) next-event search. Every
//!   message delivery lands here;
//! * the **coarse wheel** — `COARSE_SLOTS` slots of `SLOT_MS` each, about
//!   17 simulated minutes: protocol cycles, query timeouts, task transfers
//!   and completions. A slot is one `u32` list head plus an occupancy bit,
//!   pushed LIFO; it moves into the ring in one pass once the ring can hold
//!   all of it;
//! * the **overflow** `BTreeMap` of slab handles keyed `(time, seq)` —
//!   only timers beyond the coarse horizon.
//!
//! Events live once in a per-queue slab (`Vec` of nodes with a LIFO free
//! list, grown by a quarter when full); ring buckets and coarse slots are
//! intrusive singly-linked lists of `u32` slab handles, so an event is
//! written once on schedule, relinked on migration and read once on pop.
//! A memoized minimum makes the runner's peeks a single load.
//!
//! **Which tier holds an event is a function of its time and the clock
//! alone.** With `kf = now / SLOT_MS + RING_MS / SLOT_MS` — the first
//! coarse slot the ring cannot hold whole — an event at `t` sits in the
//! ring iff `t / SLOT_MS < kf`, in the coarse wheel iff `t / SLOT_MS < kf +
//! COARSE_SLOTS`, and in the overflow map otherwise. A schedule places by
//! this rule, and every clock move (a pop, an idle `pop_until` jump)
//! re-applies it at once — whole coarse slots into the ring, then overflow
//! entries into the ring or the coarse wheel — so it holds between any two
//! calls (eager migration at both levels). Same-instant FIFO follows by
//! induction: all pending events at one instant sit in one tier, in
//! scheduling order. A schedule appends behind them in that tier; a
//! migration moves all of them at once and in order — out of the map in
//! `(time, seq)` order, and out of a coarse slot by prepending its LIFO
//! list into ring buckets that are empty until then (the ring holds no
//! other instant congruent modulo `RING_MS`), which reverses it back into
//! scheduling order.
//!
//! Delivery order is earliest timestamp first, FIFO among events scheduled
//! for the same instant. `tests/queue_props.rs` holds the wheel to that
//! contract in lockstep with a `BinaryHeap` model keyed `(time, seq)`.

use std::cell::Cell;
use std::collections::BTreeMap;

/// Simulation time in milliseconds (matches `soc_types::SimMillis`).
pub type Time = u64;

/// Ring width in milliseconds. Sized small on purpose: 512 slots keep the
/// bucket heads and tails (4 KiB) resident in cache.
const RING_MS: usize = 512;
/// `RING_MS / 64` occupancy words (one summary `u64` bit per word).
const RING_WORDS: usize = RING_MS / 64;

/// Coarse slot width in milliseconds (`1 << SLOT_SHIFT`). The ring holds
/// the clock's own slot and the next, so every delay up to `SLOT_MS` —
/// control-plane latencies are 2–250 ms — goes straight to the ring.
const SLOT_SHIFT: u32 = 8;
const SLOT_MS: u64 = 1 << SLOT_SHIFT;
/// Whole coarse slots the ring holds: `kf = now / SLOT_MS + RING_SLOTS`.
const RING_SLOTS: u64 = RING_MS as u64 / SLOT_MS;
/// Coarse slots: a horizon of 2^20 ms ≈ 1 048 s, past the 400 s state
/// cycle, the 600 s TTLs and the 60 s query timeout, for 16 KiB of list
/// heads per queue.
const COARSE_SLOTS: usize = 4096;
/// `COARSE_SLOTS / 64` occupancy words.
const COARSE_WORDS: usize = COARSE_SLOTS / 64;

// A single-u64 summary covers at most 64 occupancy words; the ring must
// hold whole coarse slots, and at least two of them so that a slot never
// has to migrate before the clock reaches it.
const _: () = assert!(RING_WORDS <= 64 && RING_MS % 64 == 0);
const _: () = assert!(COARSE_WORDS <= 64 && COARSE_SLOTS % 64 == 0);
const _: () = assert!(RING_MS as u64 % SLOT_MS == 0 && RING_SLOTS >= 2);

/// Null slab handle: end of a bucket or slot list, or of the free list.
const NIL: u32 = u32::MAX;

/// Slots a full slab gains beyond a quarter of its length, so a slab holds
/// at most a quarter more than its peak of pending events. Doubling would
/// hold up to twice the peak: 16 384 slots for `paper-cell`'s 8 808.
const SLAB_SPARE: usize = 64;

/// One slab slot: a pending event linked into its ring bucket or coarse
/// slot (`ev` is `Some`; overflow entries leave the links unused until
/// they migrate), or a free slot linked into the free list (`ev` is
/// `None`).
struct Node<E> {
    next: u32,
    /// A coarse-wheel event's time minus its slot's start (`< SLOT_MS`).
    off: u32,
    ev: Option<E>,
}

// `off` lives in what was padding after `next`: for an 8-aligned event a
// node is 8 bytes of links plus the payload. The simulator's events are
// 16 bytes with a niche (an enum tag) that `Option` folds into, so its
// nodes are 24 bytes.
const _: () = {
    use std::mem::size_of;
    use std::num::NonZeroU64;
    assert!(size_of::<Node<u64>>() == 8 + size_of::<Option<u64>>());
    assert!(size_of::<Node<[u64; 6]>>() == 8 + size_of::<Option<[u64; 6]>>());
    assert!(size_of::<Node<(u64, NonZeroU64)>>() == 24);
};

/// A hierarchical occupancy bitmap over `64 · W` slots: bit `i % 64` of
/// `words[i / 64]` is set iff slot `i` is non-empty, and summary bit `w`
/// iff `words[w] != 0`.
struct Occupancy<const W: usize> {
    words: [u64; W],
    summary: u64,
}

impl<const W: usize> Occupancy<W> {
    const SLOTS: usize = 64 * W;
    const EMPTY: Self = Occupancy {
        words: [0; W],
        summary: 0,
    };

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
        self.summary |= 1 << (i / 64);
    }

    #[inline]
    fn unset(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
        if self.words[i / 64] == 0 {
            self.summary &= !(1 << (i / 64));
        }
    }

    /// First set slot at circular distance `>= 0` from slot `from`,
    /// searching forward with wraparound. Returns `(index, distance)`.
    fn next_from(&self, from: usize) -> Option<(usize, usize)> {
        let (w0, b0) = (from / 64, from % 64);
        // 1) Tail of the starting word (bits at or after `from`).
        let tail = self.words[w0] & (!0u64 << b0);
        if tail != 0 {
            let idx = w0 * 64 + tail.trailing_zeros() as usize;
            return Some((idx, idx - from));
        }
        // 2) Words strictly after the starting word.
        let above = if w0 + 1 < W {
            self.summary & (!0u64 << (w0 + 1))
        } else {
            0
        };
        if above != 0 {
            let w = above.trailing_zeros() as usize;
            let idx = w * 64 + self.words[w].trailing_zeros() as usize;
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
            let idx = w * 64 + self.words[w].trailing_zeros() as usize;
            return Some((idx, Self::SLOTS - from + idx));
        }
        None
    }
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant are delivered in scheduling order
/// (FIFO), which makes simulation runs bit-reproducible regardless of queue
/// internals.
///
/// Popping advances the clock: [`EventQueue::now`] is the timestamp of the
/// most recently popped event. Every clock move goes through
/// [`EventQueue::pop`] or the idle jump in [`EventQueue::pop_until`], and
/// both re-tier (see the module doc). Invariants, with `kf` as there:
///
/// * every pending event's time is `>= now`;
/// * ring events satisfy `t / SLOT_MS < kf` (so `t < now + RING_MS`), and
///   bucket `t % RING_MS` holds only events at exactly `t`, linked in
///   scheduling order — per-bucket FIFO is global same-instant FIFO;
/// * coarse events satisfy `kf <= t / SLOT_MS < kf + COARSE_SLOTS`; slot
///   `k` sits at `k % COARSE_SLOTS`, newest first;
/// * every overflow key has `t / SLOT_MS >= kf + COARSE_SLOTS`, and
///   `ovf_min` is the earliest one's time (`Time::MAX` if none);
/// * the occupancy bits mirror bucket and slot non-emptiness exactly.
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
    ring_occ: Occupancy<RING_WORDS>,
    /// Events currently in the ring.
    ring_len: usize,
    /// Head of each coarse slot's LIFO list (`NIL` when empty). Boxed:
    /// inline, its 16 KiB rode along every by-value move of a queue and
    /// of the state holding it, and read +6 % peak RSS on `churn-storm`.
    coarse: Box<[u32; COARSE_SLOTS]>,
    coarse_occ: Occupancy<COARSE_WORDS>,
    /// Events currently in the coarse wheel.
    coarse_len: usize,
    /// Events beyond the coarse horizon keyed `(time, seq)`, each pointing
    /// at its slab node. The `seq` component of the key preserves
    /// same-instant FIFO for free.
    overflow: BTreeMap<(Time, u64), u32>,
    ovf_min: Time,
    /// Memoized earliest pending timestamp. `Some(t)` is exact (never
    /// stale); `None` means unknown — recompute on the next query. The
    /// runner peeks the node queue before every run of pops and every
    /// `pop_until` peeks before popping, so without this hint the bitmap
    /// search runs two to three times per delivered event. `Cell` because
    /// [`EventQueue::peek_time`] takes `&self`.
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
            ring_occ: Occupancy::EMPTY,
            ring_len: 0,
            coarse: vec![NIL; COARSE_SLOTS]
                .into_boxed_slice()
                .try_into()
                .expect("COARSE_SLOTS heads"),
            coarse_occ: Occupancy::EMPTY,
            coarse_len: 0,
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
        self.ring_len + self.coarse_len + self.overflow.len()
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

    /// The first coarse slot the ring cannot hold whole.
    #[inline]
    fn kf(&self) -> u64 {
        (self.now >> SLOT_SHIFT) + RING_SLOTS
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
            if self.slab.len() == self.slab.capacity() {
                self.slab.reserve_exact(self.slab.len() / 4 + SLAB_SPARE);
            }
            let h = self.slab.len() as u32;
            self.slab.push(Node {
                next: NIL,
                off: 0,
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
            self.ring_occ.set(idx);
        } else {
            self.slab[self.tails[idx] as usize].next = h;
        }
        self.tails[idx] = h;
        self.ring_len += 1;
    }

    /// Push slab node `h`, an event at coarse-wheel time `time`, onto the
    /// front of its slot's list.
    fn push_coarse(&mut self, time: Time, h: u32) {
        let pos = ((time >> SLOT_SHIFT) % COARSE_SLOTS as u64) as usize;
        let node = &mut self.slab[h as usize];
        node.off = (time & (SLOT_MS - 1)) as u32;
        node.next = self.coarse[pos];
        if node.next == NIL {
            self.coarse_occ.set(pos);
        }
        self.coarse[pos] = h;
        self.coarse_len += 1;
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
        let (slot, kf) = (time >> SLOT_SHIFT, self.kf());
        if slot < kf {
            self.link(time, h);
        } else if slot < kf + COARSE_SLOTS as u64 {
            self.push_coarse(time, h);
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
    /// and the result is memoized. The tiers are ordered (ring before
    /// coarse wheel before overflow), so the first non-empty one answers.
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
                .ring_occ
                .next_from(from)
                .expect("ring_len > 0 implies an occupied bucket");
            self.now + dist as Time
        } else if self.coarse_len > 0 {
            self.coarse_min()
        } else {
            self.ovf_min
        };
        self.min_hint.set(Some(t));
        Some(t)
    }

    /// Earliest time in a non-empty coarse wheel: the first occupied slot
    /// from `kf`, then the smallest offset on its list.
    fn coarse_min(&self) -> Time {
        let kf = self.kf();
        let (pos, dist) = self
            .coarse_occ
            .next_from((kf % COARSE_SLOTS as u64) as usize)
            .expect("coarse_len > 0 implies an occupied slot");
        let (mut h, mut off) = (self.coarse[pos], u32::MAX);
        while h != NIL {
            let node = &self.slab[h as usize];
            off = off.min(node.off);
            h = node.next;
        }
        ((kf + dist as u64) << SLOT_SHIFT) + Time::from(off)
    }

    /// Move the clock to `to` — no later than the earliest pending event —
    /// and re-tier. The common case is two shifts and one compare per
    /// level. Migrants lie beyond every ring event, so a warm `min_hint`
    /// stays exact (when the ring is empty the hint already is the lowest
    /// tier's minimum).
    #[inline]
    fn advance(&mut self, to: Time) {
        let kf_old = self.kf();
        self.now = to;
        let kf = self.kf();
        if kf != kf_old && self.coarse_len > 0 {
            self.drain_coarse(kf_old, kf);
        }
        let horizon = kf + COARSE_SLOTS as u64;
        while self.ovf_min >> SLOT_SHIFT < horizon {
            // Empty only at the very end of time, where the `Time::MAX`
            // "no entry" sentinel itself falls inside the horizon.
            let Some(((t, _), h)) = self.overflow.pop_first() else {
                break;
            };
            if t >> SLOT_SHIFT < kf {
                self.link(t, h);
            } else {
                self.push_coarse(t, h);
            }
            self.ovf_min = self
                .overflow
                .first_key_value()
                .map_or(Time::MAX, |(k, _)| k.0);
        }
    }

    /// Move every coarse slot in `from..to` (absolute slot numbers) into
    /// the ring. A slot's list is newest first and the ring buckets of its
    /// instants are empty, so prepending each node restores scheduling
    /// order.
    fn drain_coarse(&mut self, from: u64, to: u64) {
        let span = (to - from).min(COARSE_SLOTS as u64) as usize;
        let start = (from % COARSE_SLOTS as u64) as usize;
        while let Some((pos, dist)) = self.coarse_occ.next_from(start) {
            if dist >= span {
                break;
            }
            self.coarse_occ.unset(pos);
            let base = (from + dist as u64) << SLOT_SHIFT;
            let mut h = std::mem::replace(&mut self.coarse[pos], NIL);
            while h != NIL {
                let node = &mut self.slab[h as usize];
                let next = node.next;
                let idx = ((base + Time::from(node.off)) % RING_MS as u64) as usize;
                node.next = self.heads[idx];
                if node.next == NIL {
                    self.tails[idx] = h;
                    self.ring_occ.set(idx);
                }
                self.heads[idx] = h;
                self.ring_len += 1;
                self.coarse_len -= 1;
                h = next;
            }
        }
    }

    /// Pop the earliest event, advancing the clock (and re-tiering) to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let t = self.peek_time()?;
        debug_assert!(t >= self.now, "clock went backwards");
        self.advance(t);
        let idx = (t % RING_MS as u64) as usize;
        let h = self.heads[idx];
        let node = &mut self.slab[h as usize];
        let event = node.ev.take().expect("occupied bucket");
        self.heads[idx] = node.next;
        node.next = self.free;
        self.free = h;
        self.ring_len -= 1;
        if self.heads[idx] == NIL {
            self.ring_occ.unset(idx);
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
                    self.advance(deadline);
                }
                None
            }
        }
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
    fn counters() {
        let mut q = EventQueue::new();
        q.schedule_at(1, ());
        q.schedule_at(2, ());
        q.schedule_at(5_000, ());
        q.schedule_at(5_000_000, ());
        assert_eq!(q.scheduled_total(), 4);
        assert_eq!(q.len(), 4);
        q.pop();
        assert_eq!((q.scheduled_total(), q.len()), (4, 3));
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
        // Beyond the ring, and beyond the coarse horizon (≈ 1 048 s).
        q.schedule_at(5_000, "coarse");
        q.schedule_at(10_000_000, "far");
        q.schedule_at(3, "ring");
        assert_eq!(q.overflow.len(), 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop(), Some((3, "ring")));
        assert_eq!(q.pop(), Some((5_000, "coarse")));
        assert_eq!(q.pop(), Some((10_000_000, "far")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 10_000_000);
    }

    #[test]
    fn overflow_same_timestamp_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule_at(1_000_000, i);
            q.schedule_at(9_000_000, 100 + i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((1_000_000, i)));
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((9_000_000, 100 + i)));
        }
    }

    #[test]
    fn timers_within_the_coarse_horizon_never_touch_the_map() {
        let mut q = EventQueue::new();
        let horizon = COARSE_SLOTS as u64 * SLOT_MS;
        // Protocol cycles, TTLs and timeouts, re-armed as they fire.
        for (i, d) in [400_000, 600_000, 60_000, 12_000, horizon - SLOT_MS]
            .into_iter()
            .enumerate()
        {
            q.schedule_in(d, i);
        }
        for _ in 0..1_000 {
            let (t, i) = q.pop().expect("re-armed timers never drain");
            assert!(q.overflow.is_empty(), "timer {i} at {t} took the map");
            q.schedule_in([400_000, 600_000, 60_000, 12_000, horizon - SLOT_MS][i], i);
        }
        assert!(q.overflow.is_empty());
    }

    #[test]
    fn coarse_slot_ties_stay_fifo_across_both_migrations() {
        let mut q = EventQueue::new();
        let horizon = COARSE_SLOTS as u64 * SLOT_MS;
        let t = horizon + 3 * SLOT_MS + 17; // beyond the horizon at 0
        q.schedule_at(t, "ovf-1");
        q.schedule_at(t, "ovf-2");
        q.schedule_at(t + 1, "ovf-next");
        q.schedule_at(4 * SLOT_MS, "tick"); // pulls `t` into the wheel
        assert_eq!(q.overflow.len(), 3);
        assert_eq!(q.pop(), Some((4 * SLOT_MS, "tick")));
        assert!(q.overflow.is_empty());
        q.schedule_at(t, "coarse-1");
        q.schedule_at(t, "coarse-2");
        q.schedule_at(t - 3 * SLOT_MS, "tock"); // lets the slot reach the ring
        assert_eq!(q.pop(), Some((t - 3 * SLOT_MS, "tock")));
        assert_eq!(q.pop_until(t - SLOT_MS - 1), None);
        q.schedule_at(t, "ring");
        for want in ["ovf-1", "ovf-2", "coarse-1", "coarse-2", "ring"] {
            assert_eq!(q.pop(), Some((t, want)));
        }
        assert_eq!(q.pop(), Some((t + 1, "ovf-next")));
        assert_eq!(q.pop(), None);
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
        q.schedule_at(3_000_000, "late"); // overflow, pending across it
        assert_eq!(q.pop(), Some((10, "a")));
        // Many coarse slots of idle time with timers still pending.
        assert_eq!(q.pop_until(5_000), None);
        assert_eq!(q.now(), 5_000);
        q.schedule_in(600, "far"); // beyond the ring
        q.schedule_in(3, "near");
        q.schedule_in(511, "edge"); // last ring millisecond
        q.schedule_at(9_000, "timer2");
        assert_eq!(q.peek_time(), Some(5_003));
        assert_eq!(q.pop(), Some((5_003, "near")));
        assert_eq!(q.pop(), Some((5_511, "edge")));
        assert_eq!(q.pop(), Some((5_600, "far")));
        assert_eq!(q.pop(), Some((9_000, "timer")));
        assert_eq!(q.pop(), Some((9_000, "timer2")));
        assert_eq!(q.pop_until(2_999_999), None);
        assert_eq!(q.pop(), Some((3_000_000, "late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn tie_across_migration_is_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "slide");
        // T = 600 is in slot 2, beyond the ring at 0: coarse wheel.
        q.schedule_at(600, "first");
        assert_eq!(q.pop(), Some((100, "slide")));
        q.schedule_at(600, "second"); // still the coarse wheel
        assert_eq!(q.pop_until(300), None);
        // The ring now holds slots 1 and 2: "first" and "second" migrated,
        // and this same-instant event goes straight to the ring behind.
        q.schedule_at(600, "third");
        q.schedule_at(768, "beyond"); // slot 3: coarse again
        assert_eq!(q.pop(), Some((600, "first")));
        assert_eq!(q.pop(), Some((600, "second")));
        assert_eq!(q.pop(), Some((600, "third")));
        assert_eq!(q.pop(), Some((768, "beyond")));
    }

    /// Payload whose drops are counted.
    struct Counted(std::rc::Rc<Cell<usize>>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn drop_releases_every_payload_exactly_once() {
        let drops = std::rc::Rc::new(Cell::new(0));
        let mut q = EventQueue::new();
        // Ring, coarse wheel and overflow map.
        for t in [5, 5, 300, 511, 512, 90_000, 90_000_000] {
            q.schedule_in(t, Counted(drops.clone()));
        }
        drop(q.pop()); // one freed slab slot on the free list
        assert_eq!(drops.get(), 1);
        drop(q);
        assert_eq!(drops.get(), 7);
    }

    /// The hold model: `p` events pending, then `pops` rounds of popping
    /// one and scheduling it again. Mostly ring traffic, one in eight a
    /// timer, some far.
    fn hold(p: usize, pops: usize) -> EventQueue<usize> {
        let mut q = EventQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut delay = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 8 == 0 {
                x % 2_000_000
            } else {
                x % 250
            }
        };
        for i in 0..p {
            q.schedule_in(delay(), i);
        }
        for _ in 0..pops {
            let (_, ev) = q.pop().expect("hold model never drains");
            q.schedule_in(delay(), ev);
        }
        assert_eq!(q.len(), p);
        q
    }

    #[test]
    fn slab_stays_bounded_under_steady_hold_traffic() {
        const P: usize = 300;
        let q = hold(P, 100_000);
        assert!(q.slab.len() <= P + 1, "slab grew to {}", q.slab.len());
    }

    #[test]
    fn slab_grows_by_a_quarter_of_its_peak() {
        // Doubling would leave 512, 4096 and 8192 slots here.
        for p in [300, 3_000, 5_000] {
            let q = hold(p, 20_000);
            // Pops free slots before the schedule that reuses them, so
            // the slab's length is the peak of pending events.
            assert_eq!(q.slab.len(), p);
            let bound = p + p.div_ceil(4) + SLAB_SPARE;
            assert!(
                q.slab.capacity() <= bound,
                "{p} pending: {} slots, bound {bound}",
                q.slab.capacity()
            );
        }
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
