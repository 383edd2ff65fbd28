//! State that outlives a run: every cell a sweep worker runs on this
//! thread after the first would start from the previous one's leftovers.

pub static mut GLOBAL_TICKS: u64 = 0;

thread_local! {
    static SCRATCH: RefCell<Vec<u64>> = RefCell::new(Vec::new());
}
