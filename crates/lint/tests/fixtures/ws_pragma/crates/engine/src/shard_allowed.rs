//! A process-wide static carrying the justification the rule demands.

// soc-lint: allow(no-shared-mut-state) -- fixture: process-wide tick counter no run reads back
pub static mut TICKS: u64 = 0;
