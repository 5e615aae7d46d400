//! Drift detection for deployed Mimics.
//!
//! A Mimic is only trustworthy while the traffic it sees resembles the
//! traffic it was trained on (the paper restricts itself to the
//! failure-free case precisely because failures shift the distribution,
//! §4.2). This module makes that assumption checkable at runtime: a
//! [`FeatureEnvelope`] records per-feature statistics of the training
//! set's ingress features, and a [`DriftMonitor`] scores a live feature
//! stream against it in fixed-size windows.
//!
//! The score combines two signals per window:
//!
//! * **Mean shift** — the average per-feature `|z|`-distance of the
//!   window's feature means from the training means.
//! * **Exceedance** — the fraction of observed feature values outside the
//!   training set's `[lo, hi]` quantile band.
//!
//! Windows are blended with an EWMA so a transient burst decays while a
//! sustained shift (a gray failure, a down link) accumulates. A drift of
//! zero means "indistinguishable from training"; scores are unitless but
//! monotone in distribution distance, which is all the accuracy budget
//! ([`crate::tier::AccuracyBudget`]) needs to move clusters between the
//! Mimic and Flow tiers.

use serde::{Deserialize, Serialize};

/// Per-feature summary of the training distribution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeatureEnvelope {
    /// Per-feature training mean.
    pub mean: Vec<f64>,
    /// Per-feature training standard deviation (floored to avoid
    /// degenerate z-scores on constant features).
    pub std: Vec<f64>,
    /// Per-feature low quantile (default q=0.005).
    pub lo: Vec<f64>,
    /// Per-feature high quantile (default q=0.995).
    pub hi: Vec<f64>,
}

/// Smallest std used for z-scoring (constant features would otherwise
/// flag drift on any numerical noise).
const STD_FLOOR: f64 = 1e-6;

impl FeatureEnvelope {
    /// Fit an envelope over `rows` of feature vectors (one per packet).
    /// Returns `None` when there are no rows to fit.
    pub fn fit(rows: &[Vec<f32>]) -> Option<FeatureEnvelope> {
        Self::fit_quantiles(rows, 0.005)
    }

    /// Fit with an explicit tail quantile `q` (band is `[q, 1-q]`).
    pub fn fit_quantiles(rows: &[Vec<f32>], q: f64) -> Option<FeatureEnvelope> {
        let first = rows.first()?;
        let width = first.len();
        let n = rows.len();
        let mut mean = vec![0.0f64; width];
        for r in rows {
            for (m, &v) in mean.iter_mut().zip(r.iter()) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0f64; width];
        for r in rows {
            for ((s, &v), m) in var.iter_mut().zip(r.iter()).zip(&mean) {
                let d = v as f64 - m;
                *s += d * d;
            }
        }
        let std: Vec<f64> = var
            .iter()
            .map(|s| (s / n as f64).sqrt().max(STD_FLOOR))
            .collect();
        let mut lo = Vec::with_capacity(width);
        let mut hi = Vec::with_capacity(width);
        let mut col: Vec<f64> = Vec::with_capacity(n);
        for k in 0..width {
            col.clear();
            col.extend(rows.iter().map(|r| r[k] as f64));
            col.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            let idx = |p: f64| -> usize {
                ((p * (n - 1) as f64).round() as usize).min(n - 1)
            };
            lo.push(col[idx(q)]);
            hi.push(col[idx(1.0 - q)]);
        }
        Some(FeatureEnvelope { mean, std, lo, hi })
    }

    /// Number of features the envelope covers.
    pub fn width(&self) -> usize {
        self.mean.len()
    }

    /// Can a [`DriftMonitor`] score `width`-feature rows against this
    /// envelope without indexing out of bounds or producing a NaN? Run on
    /// every envelope that arrives from a file.
    pub(crate) fn check(&self, width: usize) -> Result<(), String> {
        for (name, v) in [("mean", &self.mean), ("std", &self.std), ("lo", &self.lo), ("hi", &self.hi)] {
            if v.len() != width {
                return Err(format!(
                    "envelope.{name} has {} entries, the bundle has {width} features",
                    v.len()
                ));
            }
        }
        for k in 0..width {
            let (std, lo, hi) = (self.std[k], self.lo[k], self.hi[k]);
            let finite = [self.mean[k], std, lo, hi].iter().all(|v| v.is_finite());
            if !finite || std <= 0.0 || lo > hi {
                return Err(format!(
                    "envelope feature {k} needs finite statistics with std > 0 and lo <= hi"
                ));
            }
        }
        Ok(())
    }
}

/// Default observations per scoring window.
const DEFAULT_WINDOW: usize = 256;
/// EWMA weight of the newest window.
const EWMA_ALPHA: f64 = 0.3;
/// Minimum rows before a partial first window yields a provisional score.
pub const MIN_PARTIAL_ROWS: usize = 32;

/// Scores a live feature stream against a [`FeatureEnvelope`].
#[derive(Clone, Debug)]
pub struct DriftMonitor {
    env: FeatureEnvelope,
    window: usize,
    /// Running per-feature sums of the current window.
    sums: Vec<f64>,
    /// Out-of-band value count in the current window.
    exceed: u64,
    /// Total values (rows × features) in the current window.
    values: u64,
    /// Rows in the current window.
    rows: usize,
    /// EWMA of completed window scores; `None` until a window completes.
    score: Option<f64>,
    /// Total rows ever observed.
    observed: u64,
}

impl DriftMonitor {
    pub fn new(env: FeatureEnvelope) -> DriftMonitor {
        DriftMonitor::with_window(env, DEFAULT_WINDOW)
    }

    pub fn with_window(env: FeatureEnvelope, window: usize) -> DriftMonitor {
        let width = env.width();
        DriftMonitor {
            env,
            window: window.max(1),
            sums: vec![0.0; width],
            exceed: 0,
            values: 0,
            rows: 0,
            score: None,
            observed: 0,
        }
    }

    /// Feed one live feature vector (an ingress packet's features).
    pub fn observe(&mut self, features: &[f32]) {
        let width = self.env.width().min(features.len());
        for (k, &f) in features.iter().enumerate().take(width) {
            let v = f as f64;
            self.sums[k] += v;
            if v < self.env.lo[k] || v > self.env.hi[k] {
                self.exceed += 1;
            }
            self.values += 1;
        }
        self.rows += 1;
        self.observed += 1;
        if self.rows >= self.window {
            self.roll_window();
        }
    }

    /// Score of the (possibly partial) current window.
    fn window_score(&self) -> f64 {
        let n = self.rows as f64;
        let width = self.env.width();
        let mut shift = 0.0;
        for k in 0..width {
            let mean = self.sums[k] / n;
            shift += ((mean - self.env.mean[k]) / self.env.std[k]).abs();
        }
        shift /= width.max(1) as f64;
        let exceed = self.exceed as f64 / self.values.max(1) as f64;
        // Training data itself lands ~1% outside a 0.5% tail band;
        // subtract that baseline so in-distribution traffic scores ≈ 0.
        let exceed_excess = (exceed - 0.01).max(0.0);
        shift + 10.0 * exceed_excess
    }

    fn roll_window(&mut self) {
        let window_score = self.window_score();
        self.score = Some(match self.score {
            None => window_score,
            Some(prev) => (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * window_score,
        });
        self.sums.iter_mut().for_each(|s| *s = 0.0);
        self.exceed = 0;
        self.values = 0;
        self.rows = 0;
    }

    /// The current drift score. Zero-ish means in-distribution; larger
    /// means further out. Before the first window completes, a
    /// provisional score over the partial window is returned once at
    /// least [`MIN_PARTIAL_ROWS`] packets have been seen (low-traffic
    /// Mimics would otherwise never report).
    pub fn score(&self) -> Option<f64> {
        if let Some(s) = self.score {
            return Some(s);
        }
        if self.rows >= MIN_PARTIAL_ROWS {
            return Some(self.window_score());
        }
        None
    }

    /// Total feature vectors observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic "training set": feature 0 ~ U[0,1], feature 1 ~ U[2,3].
    fn rows(n: usize, shift: f64, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = dcn_sim::rng::SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                vec![
                    (rng.next_f64() + shift) as f32,
                    (2.0 + rng.next_f64() + shift) as f32,
                ]
            })
            .collect()
    }

    #[test]
    fn fit_captures_training_band() {
        let env = FeatureEnvelope::fit(&rows(2000, 0.0, 1)).unwrap();
        assert_eq!(env.width(), 2);
        assert!((env.mean[0] - 0.5).abs() < 0.05, "mean {:?}", env.mean);
        assert!((env.mean[1] - 2.5).abs() < 0.05);
        assert!(env.lo[0] >= 0.0 && env.hi[0] <= 1.0);
        assert!(env.lo[1] >= 2.0 && env.hi[1] <= 3.0);
    }

    #[test]
    fn fit_on_empty_is_none() {
        assert!(FeatureEnvelope::fit(&[]).is_none());
    }

    #[test]
    fn in_distribution_scores_near_zero() {
        let env = FeatureEnvelope::fit(&rows(2000, 0.0, 1)).unwrap();
        let mut mon = DriftMonitor::with_window(env, 128);
        for r in rows(1024, 0.0, 99) {
            mon.observe(&r);
        }
        let s = mon.score().expect("windows completed");
        assert!(s < 0.5, "in-distribution drift {s} too high");
    }

    #[test]
    fn shifted_distribution_scores_higher() {
        let env = FeatureEnvelope::fit(&rows(2000, 0.0, 1)).unwrap();
        let score_at = |shift: f64| {
            let mut mon = DriftMonitor::with_window(env.clone(), 128);
            for r in rows(1024, shift, 7) {
                mon.observe(&r);
            }
            mon.score().expect("windows completed")
        };
        let s0 = score_at(0.0);
        let s1 = score_at(0.5);
        let s2 = score_at(2.0);
        assert!(s1 > s0, "mild shift {s1} not above baseline {s0}");
        assert!(s2 > s1, "large shift {s2} not above mild {s1}");
    }

    #[test]
    fn no_score_before_first_window() {
        let env = FeatureEnvelope::fit(&rows(100, 0.0, 1)).unwrap();
        let mut mon = DriftMonitor::with_window(env, 64);
        for r in rows(10, 0.0, 2) {
            mon.observe(&r);
        }
        assert!(mon.score().is_none());
        assert_eq!(mon.observed(), 10);
    }

    #[test]
    fn partial_window_gives_provisional_score() {
        let env = FeatureEnvelope::fit(&rows(2000, 0.0, 1)).unwrap();
        let mut mon = DriftMonitor::with_window(env, 1024);
        for r in rows(MIN_PARTIAL_ROWS + 1, 2.0, 3) {
            mon.observe(&r);
        }
        // No window completed, but the shifted partial window reports.
        let s = mon.score().expect("provisional score");
        assert!(s > 1.0, "strong shift scored only {s}");
    }

    #[test]
    fn envelope_serializes() {
        let env = FeatureEnvelope::fit(&rows(100, 0.0, 1)).unwrap();
        let json = serde_json::to_string(&env).unwrap();
        let back: FeatureEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back.mean, env.mean);
        assert_eq!(back.lo, env.lo);
    }
}
