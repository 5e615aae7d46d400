//! Dense row-major `f32` matrices.
//!
//! Deliberately minimal: the LSTM forward/backward passes need matrix
//! multiplication (including the `Aᵀ·B` and `A·Bᵀ` forms for gradients),
//! element-wise combination, and row-broadcast bias addition.
//!
//! Two kernel families exist for the three multiply shapes:
//!
//! * **Blocked** — the product kernels behind `matmul` / `t_matmul` /
//!   `matmul_t` and their `*_accum` forms: cache-blocked, register-tiled
//!   loops over contiguous row slices. The inner loops are plain slice
//!   zips that LLVM auto-vectorizes on stable Rust; there is no
//!   `std::simd` and no external BLAS. `matmul` preserves the naive
//!   per-row `k` accumulation order exactly; `t_matmul` / `matmul_t`
//!   reassociate sums (bounded by the 1e-5 property tests).
//! * **Naive** — the reference `i-k-j` loops (`*_naive`). Simple, obviously
//!   correct, and kept as the named oracle the blocked kernels' property
//!   tests compare against. Nothing selects them at run time.

use serde::{Deserialize, Serialize};

/// Fused multiply-add where the target has a hardware FMA unit (one
/// rounding, twice the peak FLOPs of separate mul+add); plain `a*b + c`
/// elsewhere — `f32::mul_add` without hardware support falls back to a
/// slow exact softfloat routine, which would be a perf cliff, not a win.
#[inline(always)]
pub(crate) fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(any(target_feature = "fma", target_arch = "aarch64"))]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(any(target_feature = "fma", target_arch = "aarch64")))]
    {
        a * b + c
    }
}

/// Rows per register tile: four output rows share one streamed B row, so
/// each loaded `b` value feeds four FMAs instead of one.
const MR: usize = 4;
/// `k`-panel depth: the slice of B rows kept hot in cache while a panel of
/// A columns is consumed.
const KC: usize = 128;

/// Dot product with eight independent partial accumulators so the FP adds
/// form parallel chains LLVM can vectorize (a single serial chain cannot
/// be reordered under IEEE semantics).
#[inline]
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let ca = a.chunks_exact(8);
    let cb = b.chunks_exact(8);
    let mut tail = 0.0f32;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    for (ka, kb) in ca.zip(cb) {
        for (l, acc_l) in acc.iter_mut().enumerate() {
            *acc_l = fmadd(ka[l], kb[l], *acc_l);
        }
    }
    let s = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    s + tail
}

/// A dense `rows × cols` matrix of `f32` in row-major order.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a generator over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Build from rows of equal length.
    ///
    /// # Panics
    /// If rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Matrix {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        Matrix {
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Borrow row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Reference `self · other`: `i-k-j` saxpy loops.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · other`: `KC`-deep `k` panels × `MR`-row register tiles.
    /// Per output row the `k` accumulation order matches the naive
    /// kernel, but each multiply-add is contracted into a hardware FMA
    /// (one rounding instead of two), so results agree with
    /// [`Self::matmul_naive`] to ~1e-6 relative rather than bit-for-bit.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_accum(other, &mut out);
        out
    }

    /// `out += self · other` — the accumulating form for callers that sum
    /// several products into one buffer (e.g. `x·Wx + h·Wh`): it skips the
    /// temporary result and the extra add pass.
    pub fn matmul_accum(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        let (m, kk, n) = (self.rows, self.cols, other.cols);
        let mut k0 = 0;
        while k0 < kk {
            let k1 = (k0 + KC).min(kk);
            let mut i = 0;
            while i + MR <= m {
                let orows = &mut out.data[i * n..(i + MR) * n];
                let (o0, rest) = orows.split_at_mut(n);
                let (o1, rest) = rest.split_at_mut(n);
                let (o2, o3) = rest.split_at_mut(n);
                for k in k0..k1 {
                    let a0 = self.data[i * kk + k];
                    let a1 = self.data[(i + 1) * kk + k];
                    let a2 = self.data[(i + 2) * kk + k];
                    let a3 = self.data[(i + 3) * kk + k];
                    let brow = &other.data[k * n..(k + 1) * n];
                    for ((((v0, v1), v2), v3), &b) in o0
                        .iter_mut()
                        .zip(o1.iter_mut())
                        .zip(o2.iter_mut())
                        .zip(o3.iter_mut())
                        .zip(brow)
                    {
                        *v0 = fmadd(a0, b, *v0);
                        *v1 = fmadd(a1, b, *v1);
                        *v2 = fmadd(a2, b, *v2);
                        *v3 = fmadd(a3, b, *v3);
                    }
                }
                i += MR;
            }
            while i < m {
                let orow = &mut out.data[i * n..(i + 1) * n];
                for k in k0..k1 {
                    let a = self.data[i * kk + k];
                    let brow = &other.data[k * n..(k + 1) * n];
                    for (o, &b) in orow.iter_mut().zip(brow) {
                        *o = fmadd(a, b, *o);
                    }
                }
                i += 1;
            }
            k0 = k1;
        }
    }

    /// `out += selfᵀ · other` — the accumulating form used for gradient
    /// buffers: it skips the temporary result and the extra add pass of
    /// `out.add_assign(&self.t_matmul(other))`. `MR` shared rows are
    /// folded into each output row per pass, quartering the passes over
    /// `out` and giving the inner loop four independent multiply-adds per
    /// store.
    pub fn t_matmul_accum(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "t_matmul output shape mismatch"
        );
        let (m, n) = (self.cols, other.cols);
        let mut r0 = 0;
        while r0 + MR <= self.rows {
            let a0r = self.row(r0);
            let a1r = self.row(r0 + 1);
            let a2r = self.row(r0 + 2);
            let a3r = self.row(r0 + 3);
            let b0 = other.row(r0);
            let b1 = other.row(r0 + 1);
            let b2 = other.row(r0 + 2);
            let b3 = other.row(r0 + 3);
            for i in 0..m {
                let (a0, a1, a2, a3) = (a0r[i], a1r[i], a2r[i], a3r[i]);
                let orow = &mut out.data[i * n..(i + 1) * n];
                for ((((o, &v0), &v1), &v2), &v3) in
                    orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *o = fmadd(a0, v0, fmadd(a1, v1, fmadd(a2, v2, fmadd(a3, v3, *o))));
                }
            }
            r0 += MR;
        }
        for r in r0..self.rows {
            let arow = self.row(r);
            let brow = other.row(r);
            for (i, &a) in arow.iter().enumerate() {
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o = fmadd(a, b, *o);
                }
            }
        }
    }

    /// Reference `selfᵀ · other`: rank-1 updates over shared rows.
    pub fn t_matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let arow = self.row(r);
            let brow = other.row(r);
            for (i, &a) in arow.iter().enumerate() {
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ · other` (no materialized transpose).
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.t_matmul_accum(other, &mut out);
        out
    }

    /// Reference `self · otherᵀ`: serial dot products.
    pub fn matmul_t_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            for j in 0..other.rows {
                let brow = other.row(j);
                let mut s = 0.0;
                for (&a, &b) in arow.iter().zip(brow) {
                    s += a * b;
                }
                out.data[i * other.rows + j] = s;
            }
        }
        out
    }

    /// `self · otherᵀ` (no materialized transpose): both operands are
    /// walked row-contiguously and each dot product runs on eight parallel
    /// accumulator lanes.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = &mut out.data[i * other.rows..(i + 1) * other.rows];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot8(arow, other.row(j));
            }
        }
        out
    }

    /// Element-wise in-place: `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Add a row vector to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(self.cols, bias.len());
        for i in 0..self.rows {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (r, &b) in row.iter_mut().zip(bias) {
                *r += b;
            }
        }
    }

    /// Sum over rows, producing a row vector (bias gradients).
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        out
    }

    /// Scale all entries.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Apply a function element-wise, producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise product (Hadamard), producing a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Frobenius norm (for gradient clipping / tests).
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MlRng;

    fn m(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    fn random(rows: usize, cols: usize, rng: &mut MlRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.uniform_sym(1.0) as f32)
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32, label: &str) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "{label} shape");
        for (i, (&x, &y)) in a.data.iter().zip(&b.data).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{label}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_known() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, m(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let id = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]); // 3x2
        let b = m(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 0.0]]); // 3x3
        let at = Matrix::from_fn(2, 3, |i, j| a.get(j, i));
        assert_close(&a.t_matmul(&b), &at.matmul(&b), 1e-6, "t_matmul");
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]); // 2x3
        let b = m(&[&[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]); // 2x3
        let bt = Matrix::from_fn(3, 2, |i, j| b.get(j, i));
        assert_close(&a.matmul_t(&b), &a.matmul(&bt), 1e-6, "matmul_t");
    }

    #[test]
    fn blocked_matmul_matches_naive_within_epsilon() {
        // The blocked kernel preserves the naive per-row k order but
        // contracts each multiply-add into one FMA (single rounding), so
        // results agree to epsilon rather than bit-for-bit.
        let mut rng = MlRng::new(42);
        for &(r, k, c) in &[(1, 1, 1), (3, 5, 2), (4, 4, 4), (7, 131, 9), (16, 256, 33)] {
            let a = random(r, k, &mut rng);
            let b = random(k, c, &mut rng);
            assert_close(&a.matmul(&b), &a.matmul_naive(&b), 1e-5, "matmul");
        }
    }

    #[test]
    fn blocked_kernels_match_naive_on_awkward_shapes() {
        // Shapes deliberately not divisible by MR/KC, plus degenerate ones.
        let mut rng = MlRng::new(7);
        for &(r, k, c) in &[(1, 1, 1), (2, 3, 5), (5, 7, 3), (9, 130, 11), (13, 129, 6)] {
            let a = random(r, k, &mut rng);
            let b = random(k, c, &mut rng);
            assert_close(&a.matmul(&b), &a.matmul_naive(&b), 1e-5, "matmul");
            let a2 = random(k, r, &mut rng);
            let b2 = random(k, c, &mut rng);
            assert_close(&a2.t_matmul(&b2), &a2.t_matmul_naive(&b2), 1e-5, "t_matmul");
            let a3 = random(r, k, &mut rng);
            let b3 = random(c, k, &mut rng);
            assert_close(&a3.matmul_t(&b3), &a3.matmul_t_naive(&b3), 1e-5, "matmul_t");
        }
    }

    #[test]
    fn row_mut_writes_through() {
        let mut a = Matrix::zeros(3, 2);
        a.row_mut(1).copy_from_slice(&[4.0, 5.0]);
        assert_eq!(a.row(1), &[4.0, 5.0]);
        assert_eq!(a.row(0), &[0.0, 0.0]);
        assert_eq!(a.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn broadcast_and_sum_rows_are_adjoint() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(a.sum_rows(), vec![3.0, 6.0]);
    }

    #[test]
    fn hadamard_and_map() {
        let a = m(&[&[1.0, -2.0]]);
        let b = m(&[&[3.0, 4.0]]);
        assert_eq!(a.hadamard(&b), m(&[&[3.0, -8.0]]));
        assert_eq!(a.map(f32::abs), m(&[&[1.0, 2.0]]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_bad_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn norm_known() {
        let a = m(&[&[3.0, 4.0]]);
        assert_eq!(a.norm(), 5.0);
    }
}
