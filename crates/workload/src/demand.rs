//! Table II: task demand sampling under a demand ratio `λ`.
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

use rand::{Rng, RngExt};
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

/// Samples Table II demands for a fixed demand ratio.
#[derive(Clone, Copy, Debug)]
pub struct DemandSampler {
    lambda: f64,
    mean_duration_s: f64,
}

impl DemandSampler {
    /// Sampler with demand ratio `lambda` and the paper's 3000 s mean
    /// duration.
    ///
    /// # Panics
    /// Panics unless `0 < lambda <= 1`.
    pub fn new(lambda: f64) -> Self {
        Self::with_mean_duration(lambda, 3000.0)
    }

    /// Sampler with an explicit mean duration (scaled-down benches).
    pub fn with_mean_duration(lambda: f64, mean_duration_s: f64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "λ must be in (0,1]");
        assert!(mean_duration_s > 0.0);
        DemandSampler {
            lambda,
            mean_duration_s,
        }
    }

    /// The configured demand ratio λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draw one task.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> TaskSpec {
        let mut e = ResVec::zeros(SOC_DIMS);
        for d in 0..SOC_DIMS {
            let lo = BASE[d] * self.lambda;
            let hi = TOP[d] * self.lambda;
            e[d] = rng.random_range(lo..=hi);
        }
        // Exponential(mean) via inverse transform; clamp the tail so a
        // single task cannot outlive several simulated days.
        let u: f64 = rng.random::<f64>().max(1e-12);
        let duration_s = (-u.ln() * self.mean_duration_s).min(10.0 * 86_400.0);
        TaskSpec {
            expect: e,
            duration_s,
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use soc_workload_test_util::*;

    mod soc_workload_test_util {
        pub fn mean(xs: &[f64]) -> f64 {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    #[test]
    fn demands_respect_table2_bounds() {
        let mut rng = SmallRng::seed_from_u64(21);
        for &lambda in &[1.0, 0.84, 0.5, 0.25] {
            let s = DemandSampler::new(lambda);
            for _ in 0..300 {
                let t = s.sample(&mut rng);
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
        let mut rng = SmallRng::seed_from_u64(22);
        let hi = DemandSampler::new(1.0);
        let lo = DemandSampler::new(0.25);
        let hi_mean = mean(
            &(0..500)
                .map(|_| hi.sample(&mut rng).expect[0])
                .collect::<Vec<_>>(),
        );
        let lo_mean = mean(
            &(0..500)
                .map(|_| lo.sample(&mut rng).expect[0])
                .collect::<Vec<_>>(),
        );
        assert!(
            (hi_mean / lo_mean - 4.0).abs() < 0.5,
            "ratio {hi_mean}/{lo_mean} should be ≈4"
        );
    }

    #[test]
    fn duration_mean_is_3000s() {
        let mut rng = SmallRng::seed_from_u64(23);
        let s = DemandSampler::new(0.5);
        let durations: Vec<f64> = (0..20_000).map(|_| s.sample(&mut rng).duration_s).collect();
        let m = mean(&durations);
        assert!((m - 3000.0).abs() < 100.0, "mean duration {m} not ≈ 3000 s");
    }

    #[test]
    #[should_panic]
    fn zero_lambda_rejected() {
        let _ = DemandSampler::new(0.0);
    }

    #[test]
    fn demand_fits_cmax_at_lambda_one() {
        // Even at λ=1 the demand never exceeds the global cmax (Table I/II
        // are aligned); a query for it is satisfiable by a fully idle
        // top-spec node.
        let mut rng = SmallRng::seed_from_u64(24);
        let s = DemandSampler::new(1.0);
        let cm = crate::nodes::cmax();
        for _ in 0..500 {
            let t = s.sample(&mut rng);
            assert!(cm.dominates(&t.expect));
        }
    }
}
