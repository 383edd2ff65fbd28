//! What the shared-state rule leaves alone: state a run owns, interior
//! mutability included (`Cell` is `!Sync`; the compiler keeps it on the
//! run's thread), and anything inside a `#[cfg(test)]` region.

use std::cell::Cell;

pub struct Scratch {
    buf: Vec<u64>,
    hint: Cell<u64>,
}

impl Scratch {
    pub fn push(&mut self, v: u64) {
        self.buf.push(v);
    }

    pub fn peek(&self) -> u64 {
        self.hint.set(self.hint.get() + 1);
        self.buf.last().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn per_thread_state_in_tests_is_fine() {
        thread_local! {
            static SEEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        }
        SEEN.with(|s| s.set(1));
    }
}
