//! The two calibration kernels run beside every timed rep.
//!
//! They share no code with the simulator (std only), do a fixed amount of
//! work, and stress the two resources a co-tenant on a shared box takes
//! away: kernel A is CPU/L2-bound, kernel B is memory-latency-bound. How
//! long they take right now, against [`crate::stats::CALIB_REF_S`], is the
//! box's current speed.

use std::collections::BTreeMap;
use std::hint::black_box;

const A_INSERTS: u32 = 400_000;
const A_KEY_SPACE: u64 = 50_000;
const B_STEPS: u32 = 600_000;
/// 8 Mi `u64` slots = 64 MiB, far beyond any cache level.
const B_SLOTS: usize = 8 << 20;

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Kernel A: ordered-map churn. 400 k inserts over a 50 k key space with
/// a `pop_first` every third operation. Returns a checksum of the work.
pub fn kernel_a() -> u64 {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut sum = 0u64;
    for i in 0..A_INSERTS {
        let r = xorshift64(&mut state);
        if let Some(old) = map.insert(r % A_KEY_SPACE, r) {
            sum = sum.wrapping_add(old);
        }
        if i % 3 == 2 {
            if let Some((k, v)) = map.pop_first() {
                sum = sum.wrapping_add(k ^ v);
            }
        }
    }
    black_box(sum.wrapping_add(map.len() as u64))
}

/// Kernel B's buffer: one cycle through all [`B_SLOTS`] slots (Sattolo's
/// algorithm), so a chase never settles into a short cached loop.
pub struct ChaseBuffer {
    next: Vec<u64>,
}

impl ChaseBuffer {
    /// Build (and thereby touch) the 64 MiB permutation.
    pub fn new() -> Self {
        Self::with_slots(B_SLOTS)
    }

    fn with_slots(slots: usize) -> Self {
        let mut next: Vec<u64> = (0..slots as u64).collect();
        let mut state = 0xD1B5_4A32_D192_ED03_u64;
        for i in (1..slots).rev() {
            let j = (xorshift64(&mut state) % i as u64) as usize;
            next.swap(i, j);
        }
        ChaseBuffer { next }
    }

    /// Kernel B: 600 k dependent loads round the cycle, each a likely
    /// cache and TLB miss. Returns the slot reached xor a running sum.
    pub fn kernel_b(&self) -> u64 {
        self.chase(B_STEPS)
    }

    fn chase(&self, steps: u32) -> u64 {
        let mut at = 0u64;
        let mut sum = 0u64;
        for _ in 0..steps {
            at = self.next[at as usize];
            sum = sum.wrapping_add(at);
        }
        black_box(at ^ sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_a_checksum_is_deterministic() {
        assert_eq!(kernel_a(), kernel_a());
    }

    #[test]
    fn kernel_b_checksum_is_deterministic_and_buffer_is_one_cycle() {
        let slots = 1 << 12;
        let buf = ChaseBuffer::with_slots(slots);
        assert_eq!(buf.chase(10_000), buf.chase(10_000));
        assert_eq!(
            ChaseBuffer::with_slots(slots).chase(10_000),
            buf.chase(10_000)
        );
        // Sattolo: the walk returns to slot 0 after exactly `slots` steps
        // and not before.
        let mut at = 0u64;
        for step in 1..=slots {
            at = buf.next[at as usize];
            assert_eq!(at == 0, step == slots, "cycle closed at step {step}");
        }
    }
}
