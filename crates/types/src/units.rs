//! Simulation units and the SOC resource-dimension layout.

/// Simulation time in milliseconds since simulation start.
///
/// The paper simulates 86 400 s (one day); millisecond resolution in a `u64`
/// keeps event ordering exact and deterministic (no floating-point clock).
pub type SimMillis = u64;

/// One simulated second, in [`SimMillis`].
pub const SECOND: SimMillis = 1_000;

/// One simulated hour, in [`SimMillis`].
pub const HOUR: SimMillis = 3_600 * SECOND;

/// One simulated day (the paper's experiment duration), in [`SimMillis`].
pub const DAY: SimMillis = 24 * HOUR;

/// Every run is shorter than this: 2^32 ms, ≈ 49.7 days (the paper's runs
/// are one day). A time within a run therefore fits a `u32`, which is how
/// the PIList stores its receipt times; the scenario spec rejects a longer
/// run and the runner asserts it.
pub const RUN_LIMIT_MS: SimMillis = 1 << 32;

/// A resource-dimension index (`0..d`).
pub type Dim = usize;

/// Number of resource dimensions in the paper's SOC evaluation (§IV-A):
/// `{computation, I/O, network, disk, memory}`.
pub const SOC_DIMS: usize = 5;

/// Dimension index of CPU computation rate (abstract GFlops-like units).
pub const DIM_CPU: Dim = 0;
/// Dimension index of I/O speed (MbPS).
pub const DIM_IO: Dim = 1;
/// Dimension index of network bandwidth (Mbps).
pub const DIM_NET: Dim = 2;
/// Dimension index of disk size (GB).
pub const DIM_DISK: Dim = 3;
/// Dimension index of memory size (MB).
pub const DIM_MEM: Dim = 4;

/// Human-readable names for the five SOC dimensions, indexable by [`Dim`].
pub const DIM_NAMES: [&str; SOC_DIMS] = ["cpu", "io", "net", "disk", "mem"];

/// Number of *performance* dimensions: per §IV-A a task's execution time is
/// only related to the first three resource types (CPU, I/O, network); disk
/// and memory are space constraints.
pub const PERF_DIMS: usize = 3;

/// Convert seconds (possibly fractional) to [`SimMillis`], saturating.
#[inline]
pub fn secs(s: f64) -> SimMillis {
    debug_assert!(s >= 0.0, "negative duration: {s}");
    (s * 1_000.0).round() as SimMillis
}

/// Convert [`SimMillis`] to fractional seconds.
#[inline]
pub fn to_secs(ms: SimMillis) -> f64 {
    ms as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants_consistent() {
        assert_eq!(HOUR, 3_600_000);
        assert_eq!(DAY, 86_400_000);
        assert_eq!(DIM_NAMES.len(), SOC_DIMS);
    }

    // The performance subset must be a strict prefix of the full dimension
    // set; checkable at compile time, so pin it there.
    const _: () = assert!(PERF_DIMS < SOC_DIMS);

    #[test]
    fn secs_roundtrip() {
        assert_eq!(secs(1.0), 1_000);
        assert_eq!(secs(0.2), 200);
        assert_eq!(secs(3000.0), 3_000_000);
        assert!((to_secs(secs(123.456)) - 123.456).abs() < 1e-3);
    }

    #[test]
    fn dim_indexes_are_distinct() {
        let dims = [DIM_CPU, DIM_IO, DIM_NET, DIM_DISK, DIM_MEM];
        for (i, a) in dims.iter().enumerate() {
            for b in dims.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
