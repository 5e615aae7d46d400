//! Small summary-statistics helpers used throughout the workspace.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0.0 for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// The `p`-th percentile (0–100) of **sorted** data, by linear
/// interpolation between closest ranks. 0.0 for empty data.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile_sorted requires sorted input"
    );
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let t = rank - lo as f64;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    }
}

/// Sorts a copy and takes the percentile.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_sorted(&v, p)
}

/// A compact summary of a sample set, used in experiment reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary::default();
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Summary {
            n: v.len(),
            mean: mean(&v),
            p50: percentile_sorted(&v, 50.0),
            p90: percentile_sorted(&v, 90.0),
            p99: percentile_sorted(&v, 99.0),
            max: *v.last().unwrap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
        assert_eq!(percentile(&xs, 50.0), 30.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert_eq!(percentile(&xs, 90.0), 46.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [50.0, 10.0, 30.0, 20.0, 40.0];
        assert_eq!(percentile(&xs, 50.0), 30.0);
    }

    #[test]
    fn summary_fields() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.p50, 50.5);
        assert!((s.p99 - 99.01).abs() < 1e-9);
        assert_eq!(s.max, 100.0);
    }
}
