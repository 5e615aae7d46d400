//! Fast scalar activations for the ML hot paths.
//!
//! Profiling the Mimic inference step and the BPTT training loop shows
//! the libm `tanh`/`exp` calls dominating: an LSTM step does ~5·hidden
//! transcendental evaluations, which at libm cost outweighs the matrix
//! math entirely at the paper's model sizes. This module provides the
//! classic order-13/6 rational `tanh` approximation (the scheme
//! vectorized math libraries ship): ~10 multiply-adds and one divide,
//! max absolute error below 1e-6 over the full range, flat within 1e-6
//! of ±1 in saturation. `sigmoid` derives from it via
//! `σ(x) = ½(1 + tanh(x/2))`.
//!
//! The *reference* (pre-optimization) code paths — the `*_reference`
//! methods of [`crate::lstm::Lstm`] — keep exact libm math, so the
//! optimized kernels can always be epsilon-checked against a bit-faithful
//! baseline.

/// |x| beyond which f32 `tanh` is indistinguishable from ±1.
const CLAMP: f32 = 7.905_311_5;

/// Rational-polynomial `tanh`, |error| < 1e-6 everywhere.
#[allow(clippy::excessive_precision)]
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    const A1: f32 = 4.89352455891786e-3;
    const A3: f32 = 6.37261928875436e-4;
    const A5: f32 = 1.48572235717979e-5;
    const A7: f32 = 5.12229709037114e-8;
    const A9: f32 = -8.60467152213735e-11;
    const A11: f32 = 2.00018790482477e-13;
    const A13: f32 = -2.76076847742355e-16;
    const B0: f32 = 4.89352518554385e-3;
    const B2: f32 = 2.26843463243900e-3;
    const B4: f32 = 1.18534705686654e-4;
    const B6: f32 = 1.19825839466702e-6;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let p = x * (A1 + x2 * (A3 + x2 * (A5 + x2 * (A7 + x2 * (A9 + x2 * (A11 + x2 * A13))))));
    let q = B0 + x2 * (B2 + x2 * (B4 + x2 * B6));
    p / q
}

/// Logistic sigmoid via [`tanh`], |error| < 1e-6 everywhere.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    0.5 + 0.5 * tanh(0.5 * x)
}

/// In-place [`tanh`] over a slice. The scalar body is branch-free
/// (clamp + polynomial + divide), so this trivial loop is where LLVM
/// vectorizes the whole evaluation across SIMD lanes — calling it on a
/// contiguous gate block is several times faster than evaluating the
/// same elements one at a time inside a wider loop body.
#[inline]
pub fn tanh_slice(xs: &mut [f32]) {
    for v in xs {
        *v = tanh(*v);
    }
}

/// In-place [`sigmoid`] over a slice; see [`tanh_slice`].
#[inline]
pub fn sigmoid_slice(xs: &mut [f32]) {
    for v in xs {
        *v = sigmoid(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_matches_libm_within_1e6() {
        let mut worst = 0.0f32;
        let mut x = -12.0f32;
        while x <= 12.0 {
            let err = (tanh(x) - x.tanh()).abs();
            worst = worst.max(err);
            x += 1e-3;
        }
        assert!(worst < 1e-6, "worst tanh error {worst}");
    }

    #[test]
    fn sigmoid_matches_libm_within_1e6() {
        let exact = |x: f32| 1.0 / (1.0 + (-x).exp());
        let mut worst = 0.0f32;
        let mut x = -20.0f32;
        while x <= 20.0 {
            let err = (sigmoid(x) - exact(x)).abs();
            worst = worst.max(err);
            x += 1e-3;
        }
        assert!(worst < 1e-6, "worst sigmoid error {worst}");
    }

    #[test]
    fn saturation_is_flat_and_bounded() {
        assert_eq!(tanh(0.0), 0.0);
        // Beyond the clamp the output is constant (the clamp-point value,
        // within 1e-6 of ±1) and never overshoots meaningfully.
        assert_eq!(tanh(30.0), tanh(1e30));
        assert!((tanh(30.0) - 1.0).abs() < 1e-6);
        assert!((tanh(-30.0) + 1.0).abs() < 1e-6);
        assert!((sigmoid(60.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-60.0).abs() < 1e-6);
    }

    #[test]
    fn slice_forms_match_scalar() {
        let xs: Vec<f32> = (-40..40).map(|i| i as f32 * 0.25).collect();
        let mut t = xs.clone();
        tanh_slice(&mut t);
        let mut s = xs.clone();
        sigmoid_slice(&mut s);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(t[i], tanh(x));
            assert_eq!(s[i], sigmoid(x));
        }
    }

    #[test]
    fn odd_symmetry() {
        for i in 0..1000 {
            let x = i as f32 * 0.01;
            assert_eq!(tanh(-x), -tanh(x));
        }
    }
}
