//! Property-based tests for the ML substrate.

use mimic_ml::bayesopt::{expected_improvement, ParamDim};
use mimic_ml::discretize::Discretizer;
use mimic_ml::loss::{bce_logits, huber, sigmoid, wbce_logits};
use mimic_ml::model::SeqModel;
use mimic_ml::rng::MlRng;
use proptest::prelude::*;

proptest! {
    /// Discretization round trips within one bucket width.
    #[test]
    fn discretizer_roundtrip(lo in -10.0f64..0.0, span in 0.1f64..100.0, d in 1u32..500, y in 0.0f64..1.0) {
        let q = Discretizer::new(lo, lo + span, d);
        let raw = lo + y * span;
        let rec = q.recover(q.normalize(raw));
        prop_assert!((rec - raw).abs() <= q.quantization_error() + 1e-9,
            "raw {raw} -> {rec} (err bound {})", q.quantization_error());
    }

    /// Sigmoid of BCE gradients: grad = sigmoid(x) - t, always in [-1, 1],
    /// and loss is non-negative.
    #[test]
    fn bce_properties(logit in -30.0f32..30.0, target in 0u8..2) {
        let t = target as f32;
        let (loss, grad) = bce_logits(logit, t);
        prop_assert!(loss >= -1e-6);
        prop_assert!((-1.0..=1.0).contains(&grad));
        prop_assert!((grad - (sigmoid(logit) - t)).abs() < 1e-5);
    }

    /// WBCE with w=0.5 is half of BCE for any logit/target.
    #[test]
    fn wbce_half_is_bce(logit in -20.0f32..20.0, target in 0u8..2) {
        let t = target as f32;
        let (lw, gw) = wbce_logits(logit, t, 0.5);
        let (lb, gb) = bce_logits(logit, t);
        prop_assert!((lw - 0.5 * lb).abs() < 1e-5);
        prop_assert!((gw - 0.5 * gb).abs() < 1e-5);
    }

    /// Huber loss is continuous at the delta boundary and convex-ish:
    /// loss grows with |error|.
    #[test]
    fn huber_monotone_in_error(delta in 0.1f32..5.0, e1 in 0.0f32..10.0, e2 in 0.0f32..10.0) {
        let (l1, _) = huber(e1, 0.0, delta);
        let (l2, _) = huber(e2, 0.0, delta);
        if e1 < e2 {
            prop_assert!(l1 <= l2 + 1e-6);
        }
        // Continuity at the knee (gap bound: 2*delta*eps for step eps).
        let eps = delta * 1e-3;
        let (inside, _) = huber(delta - eps, 0.0, delta);
        let (outside, _) = huber(delta + eps, 0.0, delta);
        prop_assert!((inside - outside).abs() <= 2.5 * delta * eps + 1e-6);
    }

    /// LSTM outputs remain finite and bounded over long random sequences
    /// (numerical stability of the recurrent dynamics).
    #[test]
    fn lstm_stays_finite(seed in 0u64..50) {
        let model = SeqModel::new(4, 6, seed);
        let mut rng = MlRng::new(seed ^ 77);
        let mut state = model.init_state();
        for _ in 0..300 {
            let x: Vec<f32> = (0..4).map(|_| rng.uniform_sym(3.0) as f32).collect();
            let out = model.step(&x, &mut state);
            for v in out {
                prop_assert!(v.is_finite());
            }
            for layer in &state.layers {
                for &h in &layer.h.data {
                    prop_assert!(h.abs() <= 1.0 + 1e-6, "hidden out of range: {h}");
                }
            }
        }
    }

    /// EI is non-negative and zero when the posterior is confidently
    /// worse than the incumbent.
    #[test]
    fn ei_nonnegative(mean in -5.0f64..5.0, var in 1e-9f64..4.0, best in -5.0f64..5.0) {
        let ei = expected_improvement(mean, var, best, 0.0);
        prop_assert!(ei >= -1e-12);
        let hopeless = expected_improvement(best + 10.0, 1e-12, best, 0.0);
        prop_assert!(hopeless.abs() < 1e-9);
    }

    /// Param dims round-trip raw <-> unit coordinates.
    #[test]
    fn param_dim_roundtrip(u in 0.0f64..1.0) {
        let lin = ParamDim::linear("a", -3.0, 7.0);
        prop_assert!((lin.norm(lin.denorm(u)) - u).abs() < 1e-9);
        let log = ParamDim::log("b", 1e-5, 1e-1);
        prop_assert!((log.norm(log.denorm(u)) - u).abs() < 1e-9);
    }

    /// Training shuffle never loses or duplicates samples.
    #[test]
    fn shuffle_is_permutation(n in 1usize..200, seed in any::<u64>()) {
        let mut rng = MlRng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
