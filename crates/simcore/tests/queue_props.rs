//! Property test: the timing-wheel `EventQueue` is observationally
//! identical to a binary-heap model keyed `(time, seq)` on random schedules
//! — same pop order, same timestamps, same `now()`/`len()` at every step —
//! including same-timestamp FIFO bursts, far-future overflow entries, the
//! protocol cycles and timeouts the simulator arms, delays that straddle
//! each tier boundary (ring / coarse slot / coarse horizon) with ties split
//! between a direct insert and a migrant, and idle jumps across many empty
//! coarse slots.
//!
//! Runs 256 cases minimum (`PROPTEST_CASES` can only raise it), per the
//! acceptance bar for the queue rewrite.

use proptest::prelude::*;
use soc_simcore::EventQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference future-event list: a min-heap on `(time, insertion seq)`
/// with the same clock rules as [`EventQueue`] (past schedules clamp to
/// `now`, `pop_until` jumps an idle clock to the deadline).
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    now: u64,
    seq: u64,
}

impl HeapModel {
    fn schedule_at(&mut self, at: u64, payload: u64) {
        self.heap
            .push(Reverse((at.max(self.now), self.seq, payload)));
        self.seq += 1;
    }

    fn schedule_in(&mut self, delay: u64, payload: u64) {
        self.schedule_at(self.now.saturating_add(delay), payload);
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.0 .0)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let Reverse((time, _, payload)) = self.heap.pop()?;
        self.now = time;
        Some((time, payload))
    }

    fn pop_until(&mut self, deadline: u64) -> Option<(u64, u64)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => {
                self.now = self.now.max(deadline);
                None
            }
        }
    }
}

/// The wheel's tier boundaries, as delays from the clock (ms): an event
/// goes to the ring below `512 − now % SLOT_MS` and beyond the coarse
/// horizon at `HORIZON + 512 − now % SLOT_MS` or more.
const SLOT_MS: u64 = 256;
const HORIZON: u64 = 4096 * SLOT_MS;
/// The periodic timers the simulator arms (ms): scaled state-update,
/// diffusion, finger-refresh and gossip cycles, and the query timeout.
const CYCLES: [u64; 6] = [12_000, 60_000, 80_000, 120_000, 400_000, 600_000];
const TIMEOUT_MS: u64 = 60_000;

/// One scripted queue operation. Decoded from a generated tuple so the
/// vendored proptest's tuple-free strategies suffice.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule `burst` events `delay` ms from now (same-instant FIFO).
    ScheduleIn { delay: u64, burst: usize },
    /// Schedule at an absolute time that may lie in the past (clamping) or
    /// far beyond the wheel window (overflow).
    ScheduleAt { at: u64 },
    /// Move the mark `delay` ms past the clock and schedule `burst` events
    /// there.
    Mark { delay: u64, burst: usize },
    /// Schedule `burst` more events at the mark (clamped once passed): a
    /// tie with events scheduled there before the clock moved, which may
    /// have migrated a tier since.
    AtMark { burst: usize },
    /// Pop one event.
    Pop,
    /// Pop bounded by a deadline `ahead` ms past the current clock.
    PopUntil { ahead: u64 },
    /// Jump the idle clock to `before` ms short of the next event — across
    /// every empty coarse slot in between — or `ahead` ms when none is
    /// pending.
    Idle { before: u64, ahead: u64 },
}

fn decode(kind: u8, a: u64, burst: usize) -> Op {
    let b = a / 8;
    match kind {
        // Short-range delays: dense ring traffic with many ties.
        0 => Op::ScheduleIn {
            delay: a % 50,
            burst: 1 + burst,
        },
        // Mid-range delays: spans many coarse slots.
        1 => Op::ScheduleIn {
            delay: a % 20_000,
            burst: 1,
        },
        // Far-future: deep into the overflow map (hours of sim time).
        2 => Op::ScheduleAt {
            at: 1_000_000 + a % 50_000_000,
        },
        // Possibly-past absolute times exercise the clamp-to-now path.
        3 => Op::ScheduleAt { at: a % 5_000 },
        // Ring edge straddle: 510 ..= 514 ms.
        4 => Op::ScheduleIn {
            delay: 510 + a % 5,
            burst: 1 + burst % 2,
        },
        5 => Op::Pop,
        6 => Op::PopUntil { ahead: a % 10_000 },
        // A protocol cycle: first armed at a random phase, then re-armed
        // one period later.
        7 => {
            let period = CYCLES[(a % 6) as usize];
            Op::ScheduleIn {
                delay: if burst % 2 == 0 { b % period } else { period },
                burst: 1,
            }
        }
        8 => Op::ScheduleIn {
            delay: TIMEOUT_MS,
            burst: 1 + burst % 3,
        },
        // A mark straddling the ring / coarse boundary or the horizon.
        9 => Op::Mark {
            delay: if a % 2 == 0 {
                250 + b % 270
            } else {
                HORIZON + 200 + b % 400
            },
            burst: 1 + burst % 3,
        },
        10 => Op::AtMark {
            burst: 1 + burst % 3,
        },
        _ => Op::Idle {
            before: 1 + a % 3,
            ahead: b % (3 * HORIZON),
        },
    }
}

/// Run the same op script against the wheel and the model, asserting
/// lockstep equality of every observable.
fn run_script(ops: &[(u8, u64, usize)]) -> Result<(), String> {
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut heap = HeapModel::default();
    let mut payload = 0u64;
    let mut mark = 0u64;
    let schedule = |cal: &mut EventQueue<u64>,
                    heap: &mut HeapModel,
                    at: u64,
                    burst: usize,
                    payload: &mut u64| {
        for _ in 0..burst {
            cal.schedule_at(at, *payload);
            heap.schedule_at(at, *payload);
            *payload += 1;
        }
    };
    for &(kind, a, burst) in ops {
        match decode(kind, a, burst) {
            Op::ScheduleIn { delay, burst } => {
                for _ in 0..burst {
                    cal.schedule_in(delay, payload);
                    heap.schedule_in(delay, payload);
                    payload += 1;
                }
            }
            Op::ScheduleAt { at } => schedule(&mut cal, &mut heap, at, 1, &mut payload),
            Op::Mark { delay, burst } => {
                mark = cal.now() + delay;
                schedule(&mut cal, &mut heap, mark, burst, &mut payload);
            }
            Op::AtMark { burst } => schedule(&mut cal, &mut heap, mark, burst, &mut payload),
            Op::Pop => {
                let (c, h) = (cal.pop(), heap.pop());
                prop_assert_eq!(c, h, "pop mismatch");
            }
            Op::PopUntil { ahead } => {
                let deadline = cal.now() + ahead;
                let (c, h) = (cal.pop_until(deadline), heap.pop_until(deadline));
                prop_assert_eq!(c, h, "pop_until({deadline}) mismatch");
            }
            Op::Idle { before, ahead } => {
                let deadline = match heap.peek_time() {
                    Some(t) => t.saturating_sub(before).max(cal.now()),
                    None => cal.now() + ahead,
                };
                let (c, h) = (cal.pop_until(deadline), heap.pop_until(deadline));
                prop_assert_eq!(c, h, "idle pop_until({deadline}) mismatch");
            }
        }
        prop_assert_eq!(cal.now(), heap.now, "clock diverged");
        prop_assert_eq!(cal.len(), heap.heap.len(), "len diverged");
        prop_assert_eq!(cal.peek_time(), heap.peek_time(), "peek diverged");
        prop_assert_eq!(cal.scheduled_total(), heap.seq, "scheduled_total diverged");
    }
    // Drain both to the end: the full residual order must agree too.
    loop {
        let (c, h) = (cal.pop(), heap.pop());
        prop_assert_eq!(c, h, "drain mismatch");
        prop_assert_eq!(cal.now(), heap.now, "drain clock diverged");
        if c.is_none() {
            break;
        }
    }
    Ok(())
}

/// At least 256 cases (the acceptance bar); `PROPTEST_CASES` may raise it.
#[expect(
    clippy::disallowed_methods,
    reason = "PROPTEST_CASES sizes this test, not a run"
)]
fn cases() -> ProptestConfig {
    let env = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    ProptestConfig::with_cases(256u32.max(env))
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn calendar_matches_heap_model(
        kinds in prop::collection::vec(0u8..12, 1..160),
        args in prop::collection::vec(0u64..u64::MAX / 2, 160),
        bursts in prop::collection::vec(0usize..8, 160),
    ) {
        let ops: Vec<(u8, u64, usize)> = kinds
            .iter()
            .zip(&args)
            .zip(&bursts)
            .map(|((&k, &a), &b)| (k, a, b))
            .collect();
        run_script(&ops)?;
    }

    #[test]
    fn same_timestamp_bursts_stay_fifo(
        t in 0u64..10_000,
        n in 1usize..200,
    ) {
        let mut cal: EventQueue<usize> = EventQueue::new();
        for i in 0..n {
            cal.schedule_at(t, i);
        }
        for i in 0..n {
            prop_assert_eq!(cal.pop(), Some((t, i)));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    #[test]
    fn overflow_entries_migrate_in_order(
        offsets in prop::collection::vec(0u64..100_000_000, 1..60),
    ) {
        let mut cal: EventQueue<usize> = EventQueue::new();
        let mut expect: Vec<(u64, usize)> =
            offsets.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for &(t, i) in &expect {
            cal.schedule_at(t, i);
        }
        // Stable by (time, insertion order) — the FIFO guarantee.
        expect.sort_by_key(|&(t, i)| (t, i));
        for e in expect {
            prop_assert_eq!(cal.pop(), Some(e));
        }
        prop_assert_eq!(cal.pop(), None);
    }
}
