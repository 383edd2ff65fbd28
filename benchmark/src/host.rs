//! What the benchmark reads about the box it runs on (`/proc`).

use std::fs;

fn status_kb(field: &str) -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Current resident set of this process, MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS") / 1024.0
}

/// Resident-set high-water mark of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}

/// Cumulative `steal` ticks of all CPUs (`/proc/stat`, 8th value of the
/// `cpu` line): time the hypervisor ran somebody else on our vCPUs.
pub fn steal_ticks() -> u64 {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7)?.parse().ok())
        .unwrap_or(0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
