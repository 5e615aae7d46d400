//! Deterministic random number generation and the sampling distributions the
//! simulator needs.
//!
//! The paper requires that "all randomness, including the seeds for
//! generating the traffic are configurable" (§8). Every random stream in the
//! simulator is a [`SplitMix64`] seeded from the run seed plus a structural
//! tag (host id, purpose), so adding clusters never perturbs the streams of
//! existing ones — a property the scale-independence experiments rely on.

use serde::{Deserialize, Serialize};

/// SplitMix64's state increment (the golden-ratio odd constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 PRNG: tiny, fast, and with a well-understood output function.
///
/// SplitMix64 passes BigCrush for the statistical quality we need (workload
/// sampling) and, unlike stateful global RNGs, lets us derive independent
/// streams with [`SplitMix64::derive`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Derive an independent stream for (`seed`, `tag`) pairs.
    ///
    /// The tag is mixed through one SplitMix64 round so that streams with
    /// adjacent tags are decorrelated.
    pub fn derive(seed: u64, tag: u64) -> SplitMix64 {
        let mut g = SplitMix64::new(seed ^ tag.wrapping_mul(GAMMA));
        // Burn one value so `tag` and `tag+1` diverge immediately.
        let _ = g.next_u64();
        g
    }

    /// Current internal state (the window digest folds stream positions).
    /// `SplitMix64::new(g.state())` continues `g`'s stream exactly.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Skip the next `n` outputs. The state is a counter stepped by a
    /// fixed increment and each output is a pure function of it, so this
    /// is one multiply-add, exactly `n` calls to [`SplitMix64::next_u64`].
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be positive.
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiplicative range reduction; bias is negligible for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponential with the given mean (inverse-CDF sampling).
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.next_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Standard normal via Box-Muller (one value per call; simple and exact).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal with the given parameters of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }
}

/// An empirical distribution specified by CDF breakpoints, sampled by
/// inverse transform with linear interpolation between breakpoints.
///
/// This is how the simulator encodes the heavy-tailed flow-size
/// distributions from the data center measurement literature the paper's
/// workloads come from (web search / data mining style).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    /// `(value, cumulative_probability)` pairs, strictly increasing in both.
    points: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Build from `(value, cumulative probability)` breakpoints.
    ///
    /// # Panics
    /// If fewer than two points are given, probabilities are not
    /// non-decreasing in `[0, 1]` ending at 1.0, or values decrease.
    pub fn new(points: Vec<(f64, f64)>) -> EmpiricalCdf {
        assert!(points.len() >= 2, "need at least two CDF breakpoints");
        let mut prev = (f64::NEG_INFINITY, -1.0);
        for &(v, p) in &points {
            assert!(v >= prev.0, "CDF values must be non-decreasing");
            assert!(p >= prev.1, "CDF probabilities must be non-decreasing");
            assert!((0.0..=1.0).contains(&p), "probabilities must be in [0,1]");
            prev = (v, p);
        }
        assert!(
            (points.last().unwrap().1 - 1.0).abs() < 1e-9,
            "CDF must end at probability 1.0"
        );
        EmpiricalCdf { points }
    }

    /// Inverse CDF at probability `u` in `[0, 1]`.
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let first = self.points[0];
        if u <= first.1 {
            return first.0;
        }
        for w in self.points.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            if u <= p1 {
                if p1 <= p0 {
                    return v1;
                }
                let t = (u - p0) / (p1 - p0);
                return v0 + t * (v1 - v0);
            }
        }
        self.points.last().unwrap().0
    }

    /// Sample one value.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        self.quantile(rng.next_f64())
    }

    /// The mean of the piecewise-linear distribution (exact integral).
    pub fn mean(&self) -> f64 {
        let mut m = self.points[0].0 * self.points[0].1;
        for w in self.points.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            m += (p1 - p0) * 0.5 * (v0 + v1);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn skip_equals_that_many_draws() {
        for n in [0u64, 1, 5, 1 << 20] {
            let (mut skipped, mut drawn) = (SplitMix64::derive(42, n), SplitMix64::derive(42, n));
            skipped.skip(n);
            for _ in 0..n {
                drawn.next_u64();
            }
            assert_eq!(skipped.state(), drawn.state(), "n = {n}");
            assert_eq!(skipped.next_u64(), drawn.next_u64(), "n = {n}");
        }
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = SplitMix64::derive(42, 0);
        let mut b = SplitMix64::derive(42, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_range() {
        let mut g = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut g = SplitMix64::new(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = g.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean() {
        let mut g = SplitMix64::new(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut g = SplitMix64::new(5);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| g.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut g = SplitMix64::new(11);
        let n = 100_000;
        let mut xs: Vec<f64> = (0..n).map(|_| g.log_normal(1.0, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        // Median of log-normal is e^mu.
        assert!((median - 1.0f64.exp()).abs() < 0.1, "median = {median}");
    }

    #[test]
    fn empirical_cdf_quantiles() {
        let cdf = EmpiricalCdf::new(vec![(0.0, 0.0), (10.0, 0.5), (100.0, 1.0)]);
        assert_eq!(cdf.quantile(0.0), 0.0);
        assert_eq!(cdf.quantile(0.5), 10.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
        assert!((cdf.quantile(0.25) - 5.0).abs() < 1e-9);
        assert!((cdf.quantile(0.75) - 55.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_cdf_sample_mean() {
        let cdf = EmpiricalCdf::new(vec![(0.0, 0.0), (10.0, 1.0)]);
        let mut g = SplitMix64::new(17);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| cdf.sample(&mut g)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean = {mean}");
        assert!((cdf.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "CDF must end")]
    fn cdf_must_end_at_one() {
        let _ = EmpiricalCdf::new(vec![(0.0, 0.0), (1.0, 0.9)]);
    }

    #[test]
    fn cdf_with_atom() {
        // A point mass at 4 between p=0.2 and p=0.6.
        let cdf = EmpiricalCdf::new(vec![(0.0, 0.0), (4.0, 0.2), (4.0, 0.6), (8.0, 1.0)]);
        assert_eq!(cdf.quantile(0.3), 4.0);
        assert_eq!(cdf.quantile(0.59), 4.0);
    }
}
