//! Per-node Poisson arrival process.

use rand::{Rng, RngExt};
use soc_types::SimMillis;

/// Exponential inter-arrival sampler (a Poisson process per node).
///
/// §IV-A uses mean inter-arrival 3000 s, which with 2000 nodes over one day
/// yields ≈ 2000·86400/3000 ≈ 57 600 tasks.
#[derive(Clone, Copy, Debug)]
pub struct PoissonArrivals {
    mean_ms: f64,
}

impl PoissonArrivals {
    /// Process with the given mean inter-arrival time in seconds.
    ///
    /// # Panics
    /// Panics unless `mean_s > 0`.
    pub fn new(mean_s: f64) -> Self {
        assert!(mean_s > 0.0);
        PoissonArrivals {
            mean_ms: mean_s * 1000.0,
        }
    }

    /// The paper's configuration (mean 3000 s).
    pub fn paper() -> Self {
        Self::new(3000.0)
    }

    /// Sample the delay until the next arrival.
    pub fn next_delay<R: Rng>(&self, rng: &mut R) -> SimMillis {
        let u: f64 = rng.random::<f64>().max(1e-12);
        let ms = -u.ln() * self.mean_ms;
        (ms.round() as SimMillis).max(1)
    }

    /// Expected number of arrivals per node over `duration_ms`.
    pub fn expected_arrivals(&self, duration_ms: SimMillis) -> f64 {
        duration_ms as f64 / self.mean_ms
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

    #[test]
    fn mean_matches_configuration() {
        let mut rng = SmallRng::seed_from_u64(31);
        let p = PoissonArrivals::paper();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| p.next_delay(&mut rng)).sum();
        let mean_s = total as f64 / n as f64 / 1000.0;
        assert!(
            (mean_s - 3000.0).abs() < 60.0,
            "empirical mean {mean_s} ≠ 3000 s"
        );
    }

    #[test]
    fn delays_are_positive() {
        let mut rng = SmallRng::seed_from_u64(32);
        let p = PoissonArrivals::new(0.001);
        for _ in 0..1000 {
            assert!(p.next_delay(&mut rng) >= 1);
        }
    }

    #[test]
    fn expected_arrival_count_matches_paper_math() {
        let p = PoissonArrivals::paper();
        // 2000 nodes × 86400 s / 3000 s ≈ 57 600 tasks/day (§IV-A).
        let per_node = p.expected_arrivals(86_400_000);
        assert!(((per_node * 2000.0) - 57_600.0).abs() < 1.0);
    }

    #[test]
    fn memorylessness_smoke() {
        // The distribution of delays conditioned on exceeding t matches the
        // unconditional one (exponential memorylessness), checked via means.
        let mut rng = SmallRng::seed_from_u64(33);
        let p = PoissonArrivals::new(10.0);
        let samples: Vec<u64> = (0..50_000).map(|_| p.next_delay(&mut rng)).collect();
        let uncond: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64;
        let tail: Vec<f64> = samples
            .iter()
            .filter(|&&x| x > 5_000)
            .map(|&x| (x - 5_000) as f64)
            .collect();
        let cond = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (uncond - cond).abs() / uncond < 0.1,
            "memorylessness violated: {uncond} vs {cond}"
        );
    }
}
