//! Bayesian optimization with Expected Improvement.
//!
//! MimicNet's hyper-parameter tuning "uses Bayesian Optimization (BO) to
//! pick the next parameter set that has the highest 'prediction
//! uncertainty' via an acquisition function of EI (expected improvement)"
//! (§7.2). The objective is whatever end-to-end metric the user defines —
//! e.g. the W1 distance of FCT distributions summed over validation
//! scales — and is *minimized*.
//!
//! Search space: a box `[lo, hi]^d` described by [`ParamSpace`]; internally
//! everything is normalized to the unit cube.

use crate::gp::{Gp, RbfKernel};
use crate::rng::MlRng;

/// One tunable dimension.
#[derive(Clone, Debug)]
pub struct ParamDim {
    pub name: &'static str,
    pub lo: f64,
    pub hi: f64,
    /// Sample/log-scale the dimension (for learning rates etc.).
    pub log: bool,
}

impl ParamDim {
    pub fn linear(name: &'static str, lo: f64, hi: f64) -> ParamDim {
        assert!(hi > lo);
        ParamDim {
            name,
            lo,
            hi,
            log: false,
        }
    }

    pub fn log(name: &'static str, lo: f64, hi: f64) -> ParamDim {
        assert!(hi > lo && lo > 0.0);
        ParamDim {
            name,
            lo,
            hi,
            log: true,
        }
    }

    /// Unit-cube coordinate → raw value.
    pub fn denorm(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        if self.log {
            (self.lo.ln() + u * (self.hi.ln() - self.lo.ln())).exp()
        } else {
            self.lo + u * (self.hi - self.lo)
        }
    }

    /// Raw value → unit-cube coordinate.
    pub fn norm(&self, v: f64) -> f64 {
        if self.log {
            ((v.ln() - self.lo.ln()) / (self.hi.ln() - self.lo.ln())).clamp(0.0, 1.0)
        } else {
            ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
        }
    }
}

/// The search box.
#[derive(Clone, Debug)]
pub struct ParamSpace {
    pub dims: Vec<ParamDim>,
}

impl ParamSpace {
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    pub fn denorm(&self, u: &[f64]) -> Vec<f64> {
        self.dims.iter().zip(u).map(|(d, &x)| d.denorm(x)).collect()
    }
}

/// Standard normal PDF.
fn phi(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via an Abramowitz–Stegun erf approximation.
fn big_phi(x: f64) -> f64 {
    // erf approximation, |error| < 1.5e-7.
    let t = 1.0 / (1.0 + 0.3275911 * x.abs() / std::f64::consts::SQRT_2);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-(x / std::f64::consts::SQRT_2).powi(2)).exp();
    let erf = if x >= 0.0 { erf } else { -erf };
    0.5 * (1.0 + erf)
}

/// Expected improvement for *minimization* at posterior `(mean, var)` given
/// the best observed value.
pub fn expected_improvement(mean: f64, var: f64, best: f64, xi: f64) -> f64 {
    let sigma = var.sqrt();
    if sigma < 1e-12 {
        return (best - mean - xi).max(0.0);
    }
    let z = (best - mean - xi) / sigma;
    (best - mean - xi) * big_phi(z) + sigma * phi(z)
}

/// The Bayesian optimizer state.
pub struct BayesOpt {
    pub space: ParamSpace,
    /// Observations in unit-cube coordinates.
    observed_x: Vec<Vec<f64>>,
    observed_y: Vec<f64>,
    rng: MlRng,
    /// Random candidates per acquisition round.
    pub candidates: usize,
    /// Initial quasi-random exploration points before the GP kicks in.
    pub n_init: usize,
    /// EI exploration bonus.
    pub xi: f64,
}

impl BayesOpt {
    pub fn new(space: ParamSpace, seed: u64) -> BayesOpt {
        BayesOpt {
            space,
            observed_x: Vec::new(),
            observed_y: Vec::new(),
            rng: MlRng::new(seed),
            candidates: 256,
            n_init: 4,
            xi: 0.01,
        }
    }

    /// Best (lowest) observed objective and its raw parameters.
    pub fn best(&self) -> Option<(Vec<f64>, f64)> {
        let (i, y) = self
            .observed_y
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())?;
        Some((self.space.denorm(&self.observed_x[i]), *y))
    }

    /// Propose the next raw parameter vector to evaluate.
    pub fn propose(&mut self) -> Vec<f64> {
        let d = self.space.ndims();
        if self.observed_y.len() < self.n_init {
            let u: Vec<f64> = (0..d).map(|_| self.rng.next_f64()).collect();
            return self.space.denorm(&u);
        }
        let gp = Gp::fit(
            self.observed_x.clone(),
            &self.observed_y,
            RbfKernel::default(),
        );
        let best = self
            .observed_y
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let mut best_u: Vec<f64> = (0..d).map(|_| self.rng.next_f64()).collect();
        let mut best_ei = f64::NEG_INFINITY;
        for _ in 0..self.candidates {
            let u: Vec<f64> = (0..d).map(|_| self.rng.next_f64()).collect();
            let (m, v) = gp.predict(&u);
            let ei = expected_improvement(m, v, best, self.xi);
            if ei > best_ei {
                best_ei = ei;
                best_u = u;
            }
        }
        self.space.denorm(&best_u)
    }

    /// Record the objective seen at raw parameters `raw`.
    pub fn observe(&mut self, raw: &[f64], y: f64) {
        assert_eq!(raw.len(), self.space.ndims());
        assert!(y.is_finite(), "objective must be finite");
        let u: Vec<f64> = self
            .space
            .dims
            .iter()
            .zip(raw)
            .map(|(d, &v)| d.norm(v))
            .collect();
        self.observed_x.push(u);
        self.observed_y.push(y);
    }

    /// Run the full loop: `evals` evaluations of `f`, return the best.
    pub fn minimize(&mut self, evals: usize, mut f: impl FnMut(&[f64]) -> f64) -> (Vec<f64>, f64) {
        for _ in 0..evals {
            let x = self.propose();
            let y = f(&x);
            self.observe(&x, y);
        }
        self.best().expect("at least one evaluation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_sane() {
        assert!((big_phi(0.0) - 0.5).abs() < 1e-6);
        assert!(big_phi(3.0) > 0.998);
        assert!(big_phi(-3.0) < 0.002);
    }

    #[test]
    fn ei_prefers_uncertainty_and_low_mean() {
        // Lower mean -> higher EI.
        let hi = expected_improvement(0.1, 0.01, 0.5, 0.0);
        let lo = expected_improvement(0.4, 0.01, 0.5, 0.0);
        assert!(hi > lo);
        // More variance -> higher EI at equal mean above best.
        let certain = expected_improvement(0.6, 1e-6, 0.5, 0.0);
        let uncertain = expected_improvement(0.6, 0.25, 0.5, 0.0);
        assert!(uncertain > certain);
        assert!(certain.abs() < 1e-9);
    }

    #[test]
    fn param_dims_roundtrip() {
        let lin = ParamDim::linear("w", 0.5, 0.9);
        assert!((lin.denorm(lin.norm(0.7)) - 0.7).abs() < 1e-12);
        let log = ParamDim::log("lr", 1e-4, 1e-1);
        assert!((log.denorm(log.norm(1e-3)) - 1e-3).abs() < 1e-15);
        assert!((log.denorm(0.5) - 10f64.powf(-2.5)).abs() < 1e-9);
    }

    #[test]
    fn bo_finds_quadratic_minimum() {
        let space = ParamSpace {
            dims: vec![ParamDim::linear("x", 0.0, 1.0)],
        };
        let mut bo = BayesOpt::new(space, 3);
        let (x, y) = bo.minimize(25, |p| (p[0] - 0.3) * (p[0] - 0.3));
        assert!((x[0] - 0.3).abs() < 0.1, "found x = {}", x[0]);
        assert!(y < 0.01);
    }

    #[test]
    fn bo_beats_the_initial_random_phase() {
        let space = ParamSpace {
            dims: vec![
                ParamDim::linear("a", 0.0, 1.0),
                ParamDim::linear("b", 0.0, 1.0),
            ],
        };
        let mut bo = BayesOpt::new(space, 11);
        let f = |p: &[f64]| (p[0] - 0.7).powi(2) + (p[1] - 0.2).powi(2);
        // Evaluate only the random phase.
        let mut random_best = f64::INFINITY;
        for _ in 0..bo.n_init {
            let x = bo.propose();
            let y = f(&x);
            random_best = random_best.min(y);
            bo.observe(&x, y);
        }
        let (_, y) = bo.minimize(20, f);
        assert!(y <= random_best, "BO {y} vs random {random_best}");
        assert!(y < 0.02, "BO converged poorly: {y}");
    }

    #[test]
    fn best_tracks_minimum_observation() {
        let space = ParamSpace {
            dims: vec![ParamDim::linear("x", 0.0, 10.0)],
        };
        let mut bo = BayesOpt::new(space, 1);
        bo.observe(&[2.0], 5.0);
        bo.observe(&[4.0], 1.0);
        bo.observe(&[6.0], 9.0);
        let (x, y) = bo.best().unwrap();
        assert_eq!(y, 1.0);
        assert!((x[0] - 4.0).abs() < 1e-9);
    }
}
