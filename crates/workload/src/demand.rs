//! Table II: the task demand ranges under a demand ratio `λ`, and the
//! [`TaskSpec`] a workload source hands the runner. The draw itself is
//! [`crate::SyntheticSource`]'s paper path.
//!
//! | parameter | value |
//! |---|---|
//! | demand ratio λ | 1, 0.5, 0.25 (Fig. 4 also uses 0.84) |
//! | cpu rate | λ … 25.6λ |
//! | I/O speed | 20λ … 80λ |
//! | bandwidth | 0.1λ … 10λ |
//! | disk size | 20λ … 240λ |
//! | memory size | 512λ … 4096λ |
//!
//! Durations are exponential with mean 3000 s ("overall average execution
//! time is 3000 seconds"), consistent with the Poisson arrival model.

use soc_types::{ResVec, SOC_DIMS};

/// Per-dimension demand bases (the `1×` lower bounds of Table II).
pub const BASE: [f64; SOC_DIMS] = [1.0, 20.0, 0.1, 20.0, 512.0];
/// Per-dimension demand maxima (the `1×` upper bounds of Table II).
pub const TOP: [f64; SOC_DIMS] = [25.6, 80.0, 10.0, 240.0, 4096.0];

/// A generated task: its minimal demand vector and nominal duration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskSpec {
    /// The expectation vector `e(t_ij)` — the minimum resource amounts the
    /// task needs on each dimension to finish in `duration_s`.
    pub expect: ResVec,
    /// Expected execution time (seconds) when running exactly at `expect`
    /// rates; the work vector is `expect · duration_s` on the performance
    /// dimensions.
    pub duration_s: f64,
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use crate::{SyntheticSource, WorkloadSource, WorkloadSpec};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_types::NodeId;

    /// Draw `n` tasks from the paper workload (Table II, 3000 s mean
    /// duration) at demand ratio `lambda`.
    fn paper_tasks(lambda: f64, n: usize, seed: u64) -> Vec<TaskSpec> {
        let mut src = SyntheticSource::new(WorkloadSpec::default(), lambda, 3000.0, 3000.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| src.next_task(NodeId(0), 0, &mut rng))
            .collect()
    }

    fn mean(xs: impl Iterator<Item = f64>) -> f64 {
        let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
        sum / n as f64
    }

    #[test]
    fn demands_respect_table2_bounds() {
        for (seed, lambda) in [1.0, 0.84, 0.5, 0.25].into_iter().enumerate() {
            for t in paper_tasks(lambda, 300, 21 + seed as u64) {
                for d in 0..SOC_DIMS {
                    assert!(
                        t.expect[d] >= BASE[d] * lambda - 1e-12
                            && t.expect[d] <= TOP[d] * lambda + 1e-12,
                        "λ={lambda} dim {d}: {}",
                        t.expect[d]
                    );
                }
                assert!(t.duration_s > 0.0);
            }
        }
    }

    #[test]
    fn smaller_lambda_means_smaller_demands() {
        let hi_mean = mean(paper_tasks(1.0, 500, 22).iter().map(|t| t.expect[0]));
        let lo_mean = mean(paper_tasks(0.25, 500, 122).iter().map(|t| t.expect[0]));
        assert!(
            (hi_mean / lo_mean - 4.0).abs() < 0.5,
            "ratio {hi_mean}/{lo_mean} should be ≈4"
        );
    }

    #[test]
    fn duration_mean_is_3000s() {
        let m = mean(paper_tasks(0.5, 20_000, 23).iter().map(|t| t.duration_s));
        assert!((m - 3000.0).abs() < 100.0, "mean duration {m} not ≈ 3000 s");
    }

    #[test]
    #[should_panic]
    fn zero_lambda_rejected() {
        let _ = SyntheticSource::new(WorkloadSpec::default(), 0.0, 3000.0, 3000.0);
    }

    #[test]
    fn demand_fits_cmax_at_lambda_one() {
        // Even at λ=1 the demand never exceeds the global cmax (Table I/II
        // are aligned); a query for it is satisfiable by a fully idle
        // top-spec node.
        let cm = crate::nodes::cmax();
        for t in paper_tasks(1.0, 500, 24) {
            assert!(cm.dominates(&t.expect));
        }
    }
}
