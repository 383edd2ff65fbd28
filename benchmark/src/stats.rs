//! The estimators every reported number goes through.

/// Seconds the calibration pair `sqrt(A × B)` takes on the reference box
/// when it is quiet. A calibrated time is "seconds at that speed".
pub const CALIB_REF_S: f64 = 0.0642;

/// A run whose timed reps spread wider than this is flagged `noisy`.
pub const NOISY_IQR_PCT: f64 = 20.0;

/// Median of a sample (mean of the two middle values for even counts).
/// Panics on an empty sample: every caller has taken at least one.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// which is what the acceptance check computes spreads with. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile range as a percentage of the median (0 for fewer than
/// two values or a zero median).
pub fn iqr_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2 * 100.0
    }
}

/// Ratio-of-medians calibration: the median of `samples`, rescaled by how
/// fast the two calibration kernels ran beside them, in reference-box
/// seconds.
pub fn calibrated(samples: &[f64], calib_a: &[f64], calib_b: &[f64]) -> f64 {
    median(samples) * CALIB_REF_S / (median(calib_a) * median(calib_b)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
    }

    #[test]
    fn iqr_pct_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_pct(&v) - 100.0).abs() < 1e-12);
        assert_eq!(iqr_pct(&[7.0]), 0.0);
        assert_eq!(iqr_pct(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn calibration_cancels_a_uniform_slowdown() {
        let reps = [1.0, 1.2, 1.1];
        let a = [0.030, 0.040, 0.035];
        let b = [0.100, 0.120, 0.110];
        let quiet = calibrated(&reps, &a, &b);
        let slow = |xs: &[f64]| xs.iter().map(|x| x * 1.3).collect::<Vec<_>>();
        let loaded = calibrated(&slow(&reps), &slow(&a), &slow(&b));
        assert!((quiet - loaded).abs() < 1e-12 * quiet);
        // At exactly the reference speed the calibrated time is the raw one.
        let at_ref = calibrated(&[2.0], &[CALIB_REF_S], &[CALIB_REF_S]);
        assert!((at_ref - 2.0).abs() < 1e-12);
    }
}
