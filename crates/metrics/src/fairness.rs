//! Jain's fairness index over task execution efficiencies (Equation (4)).

/// Jain's fairness index: `(Σx)² / (n · Σx²)`.
///
/// Ranges over `[1/n, 1]`; `1` means perfectly equal values. Empty input
/// yields `1.0` (vacuously fair — matches how the paper's plots start).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

/// Accumulates per-task execution efficiencies `e_ij` with O(1) state, so
/// the fairness index can be sampled every simulated hour without storing
/// every task.
#[derive(Clone, Debug, Default)]
pub struct EfficiencyLog {
    n: u64,
    sum: f64,
    sum_sq: f64,
}

impl EfficiencyLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one task's efficiency (expected time / real time).
    pub fn record(&mut self, efficiency: f64) {
        debug_assert!(efficiency.is_finite() && efficiency >= 0.0);
        self.n += 1;
        self.sum += efficiency;
        self.sum_sq += efficiency * efficiency;
    }

    /// Number of recorded tasks.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean efficiency.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Jain's index of everything recorded so far.
    pub fn jain(&self) -> f64 {
        if self.n == 0 || self.sum_sq == 0.0 {
            return 1.0;
        }
        (self.sum * self.sum) / (self.n as f64 * self.sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_are_perfectly_fair() {
        assert_eq!(jain_index(&[0.7, 0.7, 0.7, 0.7]), 1.0);
        assert_eq!(jain_index(&[3.0]), 1.0);
    }

    #[test]
    fn empty_is_vacuously_fair() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(EfficiencyLog::new().jain(), 1.0);
    }

    #[test]
    fn one_hog_gives_one_over_n() {
        // One task got everything: index = 1/n.
        let xs = [1.0, 0.0, 0.0, 0.0];
        assert!((jain_index(&xs) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn index_bounds() {
        let xs = [0.9, 0.4, 0.1, 0.8, 0.3];
        let j = jain_index(&xs);
        assert!(j > 1.0 / xs.len() as f64 && j < 1.0);
    }

    #[test]
    fn log_matches_batch_computation() {
        let xs = [0.9, 0.4, 0.1, 0.8, 0.3, 1.2];
        let mut log = EfficiencyLog::new();
        for &x in &xs {
            log.record(x);
        }
        assert!((log.jain() - jain_index(&xs)).abs() < 1e-12);
        assert_eq!(log.len(), 6);
        assert!((log.mean() - xs.iter().sum::<f64>() / 6.0).abs() < 1e-12);
    }

    #[test]
    fn scale_invariance() {
        let xs = [0.2, 0.5, 0.9];
        let scaled: Vec<f64> = xs.iter().map(|x| x * 7.5).collect();
        assert!((jain_index(&xs) - jain_index(&scaled)).abs() < 1e-12);
    }
}
