//! Order statistics over per-pass samples.
//!
//! Every timing end-to-end metric is the *fast decile* (p10) over passes:
//! on a shared 2-vCPU box the noise is additive and one-sided (steal,
//! co-tenants), so the fast end of the distribution repeats between runs
//! where the median and the tail do not (see `README.md`, "Why p10").

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks (position `q * (n - 1)` of the sorted sample).
/// NaNs sort last. Returns `f64::NAN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The fast decile: the gated estimator of every timing metric.
pub fn p10(values: &[f64]) -> f64 {
    quantile(values, 0.10)
}

/// The slow decile — a diagnostic next to the median, never gated.
pub fn p90(values: &[f64]) -> f64 {
    quantile(values, 0.90)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.50)
}

/// The arithmetic mean (`NAN` for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The geometric mean of positive values (`NAN` for an empty sample).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_SAMPLES_BEYOND`] samples
/// beyond it, as `(percentile, value)`: with `n` samples that is the
/// `(n - 10)`-th smallest, i.e. percentile `100 * (n - 10) / n`. `None`
/// when the sample has no such percentile (`n <= 10`) — a tail read off
/// fewer samples is one outlier, not a percentile.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_SAMPLES_BEYOND; // 1-based
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_closest_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(median(&v), 3.0);
        // position 0.1 * 4 = 0.4 -> 1 + 0.4 * (2 - 1)
        assert!((p10(&v) - 1.4).abs() < 1e-12);
        assert!((p90(&v) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn p10_of_forty_passes_sits_between_fourth_and_fifth_fastest() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        // position 0.1 * 39 = 3.9 -> 4 + 0.9
        assert!((p10(&v) - 4.9).abs() < 1e-12);
    }

    #[test]
    fn p10_ignores_slow_outliers() {
        let mut v = vec![10.0; 36];
        v.extend([500.0, 900.0, 40.0, 77.0]);
        assert_eq!(p10(&v), 10.0);
    }

    #[test]
    fn degenerate_samples() {
        assert!(quantile(&[], 0.5).is_nan());
        assert!(mean(&[]).is_nan());
        assert_eq!(p10(&[7.0]), 7.0);
        assert_eq!(quantile(&[1.0, 2.0], 7.0), 2.0); // q clamps
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // one sample with ten beyond it: the smallest
        let (pct, value) = tail(&eleven).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&forty), Some((75.0, 30.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-15);
    }
}
