//! A fully connected layer with backprop.

use crate::matrix::{matmul_accum_terms, matmul_t_lanes, t_matmul_accum, Matrix};
use crate::rng::MlRng;
use serde::{Deserialize, Serialize};

/// `y = x·W + b`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    pub w: Matrix,
    pub b: Vec<f32>,
}

/// Gradient accumulator matching a [`Linear`]'s parameter shapes.
#[derive(Clone, Debug)]
pub struct LinearGrads {
    pub w: Matrix,
    pub b: Vec<f32>,
}

impl LinearGrads {
    /// Zeroed gradients for `layer`.
    pub fn zeros(layer: &Linear) -> LinearGrads {
        LinearGrads {
            w: Matrix::zeros(layer.w.rows, layer.w.cols),
            b: vec![0.0; layer.b.len()],
        }
    }

    /// Reset all gradients to zero (buffer reuse).
    pub fn zero(&mut self) {
        self.w.data.fill(0.0);
        self.b.fill(0.0);
    }

    /// Accumulate another buffer: `self += other`.
    pub fn add_assign(&mut self, other: &LinearGrads) {
        self.w.add_assign(&other.w);
        for (a, &b) in self.b.iter_mut().zip(&other.b) {
            *a += b;
        }
    }
}

/// Reusable buffers of [`Linear::backward`]: after the first call with a
/// given batch size it allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinearScratch {
    /// `Wᵀ`, for `dL/dx = dL/dy · Wᵀ`.
    w_t: Matrix,
    /// The weight gradient of one call, before it is added to the buffer.
    dw: Matrix,
    /// `dL/dx` of the last call (`B × I`).
    pub dx: Vec<f32>,
}

impl Linear {
    /// Xavier-uniform initialization.
    pub fn new(input: usize, output: usize, rng: &mut MlRng) -> Linear {
        let a = (6.0 / (input + output) as f64).sqrt();
        Linear {
            w: Matrix::from_fn(input, output, |_, _| rng.uniform_sym(a) as f32),
            b: vec![0.0; output],
        }
    }

    pub fn input_dim(&self) -> usize {
        self.w.rows
    }

    pub fn output_dim(&self) -> usize {
        self.w.cols
    }

    /// Forward pass for a batch `x` (B×I, row-major) into `y` (B×O):
    /// per element `b`, then the ascending `x·W` fmadd chain — the order
    /// of the head in `SeqModel::step`.
    pub fn forward(&self, x: &[f32], y: &mut Matrix) {
        let (i, o) = (self.w.rows, self.w.cols);
        y.resize(x.len() / i.max(1), o);
        for row in y.data.chunks_exact_mut(o.max(1)) {
            row.copy_from_slice(&self.b);
        }
        matmul_accum_terms(&mut y.data, o, &[(x, &self.w.data)]);
    }

    /// Accumulate gradients into `grads` given the forward input `x` and
    /// `dL/dy`, leaving `dL/dx` in `scratch.dx`. The weight gradient is
    /// summed into a zeroed temporary first and then added to `grads`.
    pub(crate) fn backward(
        &self,
        x: &[f32],
        dy: &Matrix,
        grads: &mut LinearGrads,
        scratch: &mut LinearScratch,
    ) {
        let (i, o) = (self.w.rows, self.w.cols);
        assert_eq!(dy.cols, o, "dL/dy width mismatch");
        assert_eq!(x.len(), dy.rows * i, "input shape mismatch");
        scratch.dw.resize(i, o);
        scratch.dw.data.fill(0.0);
        t_matmul_accum(x, i, &dy.data, o, &mut scratch.dw.data);
        grads.w.add_assign(&scratch.dw);
        for (j, g) in grads.b.iter_mut().enumerate() {
            let mut s = 0.0f32;
            for r in 0..dy.rows {
                s += dy.data[r * o + j];
            }
            *g += s;
        }
        self.w.transpose_into(&mut scratch.w_t);
        scratch.dx.resize(dy.rows * i, 0.0);
        matmul_t_lanes(&dy.data, &scratch.w_t.data, i, &mut scratch.dx);
    }

    /// Visit `(params, grads)` slices in a fixed order (for optimizers).
    pub fn visit(&mut self, grads: &mut LinearGrads, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w.data, &mut grads.w.data);
        f(&mut self.b, &mut grads.b);
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.data.len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(2, 2, &mut MlRng::new(1));
        l.w = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
        l.b = vec![0.5, -0.5];
        let mut y = Matrix::default();
        l.forward(&[3.0, 4.0], &mut y);
        assert_eq!(y.row(0), &[3.5, 7.5]);
    }

    #[test]
    fn gradient_check_finite_difference() {
        let mut rng = MlRng::new(7);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_fn(4, 3, |_, _| rng.uniform_sym(1.0) as f32);
        // Loss = 0.5 * sum(y^2)  =>  dL/dy = y.
        let loss = |l: &Linear, x: &Matrix| -> f64 {
            let mut y = Matrix::default();
            l.forward(&x.data, &mut y);
            y.data.iter().map(|&v| 0.5 * v as f64 * v as f64).sum()
        };
        let mut y = Matrix::default();
        l.forward(&x.data, &mut y);
        let mut grads = LinearGrads::zeros(&l);
        l.backward(&x.data, &y, &mut grads, &mut LinearScratch::default());
        let eps = 1e-3_f32;
        for idx in [0usize, 2, 5] {
            let orig = l.w.data[idx];
            l.w.data[idx] = orig + eps;
            let up = loss(&l, &x);
            l.w.data[idx] = orig - eps;
            let dn = loss(&l, &x);
            l.w.data[idx] = orig;
            let fd = ((up - dn) / (2.0 * eps as f64)) as f32;
            let an = grads.w.data[idx];
            assert!(
                (fd - an).abs() / (fd.abs() + an.abs()).max(1e-3) < 0.05,
                "w[{idx}]: fd {fd} vs analytic {an}"
            );
        }
        // Bias gradient: column sums of dy.
        let col0: f32 = (0..4).map(|i| y.get(i, 0)).sum();
        assert!((grads.b[0] - col0).abs() < 1e-4);
    }

    #[test]
    fn backward_input_gradient() {
        let mut rng = MlRng::new(9);
        let mut l = Linear::new(2, 2, &mut rng);
        l.w = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let x = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let dy = Matrix::from_rows(&[vec![1.0, 0.0]]);
        let mut grads = LinearGrads::zeros(&l);
        let mut scratch = LinearScratch::default();
        l.backward(&x.data, &dy, &mut grads, &mut scratch);
        // dx = dy · W^T = [1*1 + 0*2, 1*3 + 0*4].
        assert_eq!(scratch.dx, [1.0, 3.0]);
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = MlRng::new(3);
        let l = Linear::new(2, 1, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let dy = Matrix::from_rows(&[vec![1.0]]);
        let mut grads = LinearGrads::zeros(&l);
        let mut scratch = LinearScratch::default();
        l.backward(&x.data, &dy, &mut grads, &mut scratch);
        let g1 = grads.w.data.clone();
        l.backward(&x.data, &dy, &mut grads, &mut scratch);
        assert!(grads.w.data.iter().zip(&g1).all(|(a, b)| (*a - 2.0 * b).abs() < 1e-6));
        grads.zero();
        assert!(grads.w.data.iter().all(|&g| g == 0.0));
    }
}
