//! Dense row-major `f32` matrices.
//!
//! Deliberately minimal: the LSTM forward/backward passes need matrix
//! multiplication (including the `Aᵀ·B` and `A·Bᵀ` forms for gradients),
//! element-wise combination, and row-broadcast bias addition.
//!
//! Two kernel families exist for the three multiply shapes:
//!
//! * **Register-tiled** — [`matmul_accum_terms`] (`out += Σ a·b`, behind
//!   `matmul` / `matmul_accum` and the fused LSTM gate pre-activation),
//!   [`matmul_t_lanes`] (`a · bᵀ` read from a pre-transposed `bᵀ`, behind
//!   `matmul_t`) and [`t_matmul_accum`] (`out += aᵀ·b`). Each keeps a tile of
//!   the output in registers across the whole reduction and writes it
//!   once. The inner loops are fixed-width array loops over contiguous row
//!   slices that LLVM auto-vectorizes on stable Rust; there is no
//!   `std::simd`, no `unsafe` and no external BLAS. Every kernel fixes the
//!   per-element arithmetic order, so tile shapes never change a bit of a
//!   result (locked by the exhaustive `*_is_bit_identical_*` tests).
//! * **Naive** — the reference `i-k-j` loops (`*_naive`). Simple, obviously
//!   correct, and kept as the named oracle the tiled kernels' property
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

/// Output rows per register tile of [`matmul_accum_terms`]: four rows
/// share every loaded weight vector.
const MR: usize = 4;
/// Widest output column tile of [`matmul_accum_terms`]: with [`MR`] rows it
/// is eight 8-wide accumulators. Wider or taller tiles measured several
/// times slower — LLVM stops keeping them in registers.
const NR: usize = 16;
/// Widest output column tile of a single row of [`matmul_accum_terms`]
/// (the stateful inference step, and rows left over by [`MR`]): the same
/// eight 8-wide accumulators, laid out along one row (measured: DESIGN §7).
const NR1: usize = MR * NR;
/// Partial-sum lanes of one [`matmul_t_lanes`] dot product: element `k` of
/// a dot product feeds lane `k mod LANES`.
const LANES: usize = 8;
/// Widest output column tile of [`matmul_t_lanes`]: one hidden-layer-wide
/// output row. The tile is one row high; two-row tiles measured an order of
/// magnitude slower.
const LANE_COLS: usize = 32;

/// `out += a₀·b₀ + a₁·b₁ + …` for row-major `out` (`rows × n`), each `aₚ`
/// `rows × kₚ` and each `bₚ` `kₚ × n`.
///
/// Every output element starts from its value in `out` and then runs one
/// `fmadd` per `k`, ascending, through the terms in order — the order of
/// calling the single-term form once per term. So the LSTM gate
/// pre-activation `b + x·Wx + h·Wh` of an inference step (one pass that
/// writes `z` once) equals, bit for bit, the training chunk's `b + x·Wx`
/// over every step at once followed by `+ h·Wh` per step. An `MR × NR`
/// tile (`1 × NR1` for a single row) stays in registers across every term.
pub(crate) fn matmul_accum_terms(out: &mut [f32], n: usize, terms: &[(&[f32], &[f32])]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    assert_eq!(out.len(), rows * n, "matmul output shape mismatch");
    for &(a, b) in terms {
        assert!(
            b.len() % n == 0 && a.len() * n == rows * b.len(),
            "matmul dimension mismatch"
        );
    }
    let mut r = 0;
    while r + MR <= rows {
        accum_rows::<MR>(out, n, terms, r);
        r += MR;
    }
    while r < rows {
        accum_rows::<1>(out, n, terms, r);
        r += 1;
    }
}

/// Rows `r0..r0+R` of [`matmul_accum_terms`], in column tiles. Kept out
/// of line like [`lanes_row`], so the tiles stay in registers wherever the
/// kernel is called from.
#[inline(never)]
fn accum_rows<const R: usize>(out: &mut [f32], n: usize, terms: &[(&[f32], &[f32])], r0: usize) {
    let mut j = 0;
    if R == 1 {
        while n - j >= NR1 {
            accum_tile::<1, NR1>(out, n, terms, r0, j);
            j += NR1;
        }
        if n - j >= 2 * NR {
            accum_tile::<1, { 2 * NR }>(out, n, terms, r0, j);
            j += 2 * NR;
        }
    }
    while n - j >= NR {
        accum_tile::<R, NR>(out, n, terms, r0, j);
        j += NR;
    }
    if n - j >= 8 {
        accum_tile::<R, 8>(out, n, terms, r0, j);
        j += 8;
    }
    if n - j >= 4 {
        accum_tile::<R, 4>(out, n, terms, r0, j);
        j += 4;
    }
    while j < n {
        accum_tile::<R, 1>(out, n, terms, r0, j);
        j += 1;
    }
}

/// The `R × T` output tile at `(r0, j0)` of [`matmul_accum_terms`].
#[inline(always)]
fn accum_tile<const R: usize, const T: usize>(
    out: &mut [f32],
    n: usize,
    terms: &[(&[f32], &[f32])],
    r0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; T]; R];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[(r0 + i) * n + j0..][..T]);
    }
    for &(a, b) in terms {
        let k = b.len() / n;
        let arows: [&[f32]; R] = std::array::from_fn(|i| &a[(r0 + i) * k..][..k]);
        for (kk, brow) in b.chunks_exact(n).enumerate() {
            let w: &[f32; T] = brow[j0..j0 + T].try_into().expect("tile-wide slice");
            for (row, arow) in acc.iter_mut().zip(&arows) {
                let av = arow[kk];
                for (v, &wv) in row.iter_mut().zip(w) {
                    *v = fmadd(av, wv, *v);
                }
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        out[(r0 + i) * n + j0..][..T].copy_from_slice(row);
    }
}

/// `out = a · b` for row-major `a` (`rows × K`), where `bt` is `bᵀ`
/// (`K × n`, i.e. the transposed copy of an `n × K` matrix) and `out` is
/// `rows × n`.
///
/// Every output element is the eight-lane dot product: lane `k mod 8`
/// accumulates `fmadd` over ascending `k` for the first `K − K mod 8`
/// elements, the lanes reduce as `((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7))`,
/// the last `K mod 8` products sum unfused into a separate tail in order,
/// and the result is `lanes + tail`. Vectorizing across output columns
/// instead of along `k` drops the per-output horizontal reduce.
pub(crate) fn matmul_t_lanes(a: &[f32], bt: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    let k = bt.len() / n;
    assert!(
        out.len() == rows * n && bt.len() == k * n && a.len() == rows * k,
        "matmul_t dimension mismatch"
    );
    if k == 0 {
        out.fill(0.0);
        return;
    }
    for r in 0..rows {
        lanes_row(a, bt, n, out, r);
    }
}

/// Row `r` of [`matmul_t_lanes`], in column tiles. Kept out of line: once
/// inlined into the row loop, LLVM no longer keeps the lane accumulators
/// in registers (an order of magnitude slower).
#[inline(never)]
fn lanes_row(a: &[f32], bt: &[f32], n: usize, out: &mut [f32], r: usize) {
    let mut j = 0;
    while n - j >= LANE_COLS {
        lanes_tile::<LANE_COLS>(a, bt, n, out, r, j);
        j += LANE_COLS;
    }
    while n - j >= 8 {
        lanes_tile::<8>(a, bt, n, out, r, j);
        j += 8;
    }
    if n - j >= 4 {
        lanes_tile::<4>(a, bt, n, out, r, j);
        j += 4;
    }
    while j < n {
        lanes_tile::<1>(a, bt, n, out, r, j);
        j += 1;
    }
}

/// Columns `j0..j0+T` of output row `r` of [`matmul_t_lanes`].
#[inline(always)]
fn lanes_tile<const T: usize>(
    a: &[f32],
    bt: &[f32],
    n: usize,
    out: &mut [f32],
    r: usize,
    j0: usize,
) {
    let k = bt.len() / n;
    let k8 = k - k % LANES;
    let arow = &a[r * k..][..k];
    let mut acc = [[0.0f32; T]; LANES];
    for (c, block) in bt[..k8 * n].chunks_exact(LANES * n).enumerate() {
        for (l, lane) in acc.iter_mut().enumerate() {
            let w: &[f32; T] = block[l * n + j0..][..T]
                .try_into()
                .expect("tile-wide slice");
            let av = arow[c * LANES + l];
            for (v, &wv) in lane.iter_mut().zip(w) {
                *v = fmadd(av, wv, *v);
            }
        }
    }
    let mut tail = [0.0f32; T];
    for (kk, brow) in bt[k8 * n..].chunks_exact(n).enumerate() {
        let w: &[f32; T] = brow[j0..j0 + T].try_into().expect("tile-wide slice");
        let av = arow[k8 + kk];
        for (v, &wv) in tail.iter_mut().zip(w) {
            *v += av * wv;
        }
    }
    let orow = &mut out[r * n + j0..][..T];
    let l = &acc;
    for j in 0..T {
        let s = ((l[0][j] + l[4][j]) + (l[2][j] + l[6][j]))
            + ((l[1][j] + l[5][j]) + (l[3][j] + l[7][j]));
        orow[j] = s + tail[j];
    }
}

/// `out += aᵀ · b` for row-major `a` (`rows × m`), `b` (`rows × n`) and
/// `out` (`m × n`) — the accumulating form used for gradient buffers.
/// Four shared rows are folded into each output row per pass (the `fmadd`
/// chain `r, r+1, r+2, r+3` innermost-first per four-row block, then the
/// tail rows one by one), quartering the passes over `out` and giving the
/// inner loop four independent multiply-adds per store.
pub(crate) fn t_matmul_accum(a: &[f32], m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(out.len(), m * n, "t_matmul output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let rows = a.len() / m;
    assert!(
        a.len() == rows * m && b.len() == rows * n,
        "t_matmul dimension mismatch"
    );
    let arow = |r: usize| &a[r * m..(r + 1) * m];
    let brow = |r: usize| &b[r * n..(r + 1) * n];
    let mut r0 = 0;
    while r0 + 4 <= rows {
        let (a0r, a1r, a2r, a3r) = (arow(r0), arow(r0 + 1), arow(r0 + 2), arow(r0 + 3));
        let (b0, b1, b2, b3) = (brow(r0), brow(r0 + 1), brow(r0 + 2), brow(r0 + 3));
        for i in 0..m {
            let (a0, a1, a2, a3) = (a0r[i], a1r[i], a2r[i], a3r[i]);
            let orow = &mut out[i * n..(i + 1) * n];
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o = fmadd(a0, v0, fmadd(a1, v1, fmadd(a2, v2, fmadd(a3, v3, *o))));
            }
        }
        r0 += 4;
    }
    for r in r0..rows {
        for (i, &av) in arow(r).iter().enumerate() {
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow(r)) {
                *o = fmadd(av, bv, *o);
            }
        }
    }
}

/// A dense `rows × cols` matrix of `f32` in row-major order.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
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

    /// Borrow row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Write `selfᵀ` into `out`, reusing its buffer.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for (i, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
    }

    /// Reshape to `rows × cols`, reusing the buffer: it only allocates
    /// when the new shape holds more elements than it ever has. Contents
    /// are unspecified afterwards.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Element-wise in-place: `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scale all entries.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Frobenius norm (for gradient clipping / tests).
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// Test-only operations: the naive reference kernels and the allocating
/// products the training path no longer calls.
#[cfg(test)]
impl Matrix {
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

    /// `self · other` through [`matmul_accum_terms`]. Per output element
    /// the `k` accumulation order matches the naive kernel, but each
    /// multiply-add is contracted into a hardware FMA (one rounding instead
    /// of two), so results agree with [`Self::matmul_naive`] to ~1e-6
    /// relative rather than bit-for-bit.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_accum(other, &mut out);
        out
    }

    /// `out += self · other` — the accumulating form for callers that sum
    /// several products into one buffer: it skips the temporary result and
    /// the extra add pass.
    pub fn matmul_accum(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        matmul_accum_terms(&mut out.data, out.cols, &[(&self.data, &other.data)]);
    }

    /// `out += selfᵀ · other` — the accumulating form used for gradient
    /// buffers: it skips the temporary result and the extra add pass of
    /// `out.add_assign(&self.t_matmul(other))`.
    pub fn t_matmul_accum(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "t_matmul output shape mismatch"
        );
        t_matmul_accum(
            &self.data,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
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

    /// `self · otherᵀ` through [`matmul_t_lanes`] on a transposed copy of
    /// `other`. Hot paths keep that copy across calls instead
    /// ([`Self::transpose_into`]).
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        let mut ot = Matrix::default();
        other.transpose_into(&mut ot);
        let mut out = Matrix::zeros(self.rows, other.rows);
        matmul_t_lanes(&self.data, &ot.data, other.rows, &mut out.data);
        out
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

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MlRng;
    use proptest::prelude::*;

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

    /// The blocked `out += a·b` every matmul used before the register
    /// tiles (`KC`-deep `k` panels × four-row tiles streaming whole output
    /// rows), kept as the order [`matmul_accum_terms`] must reproduce.
    fn blocked_matmul_accum(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        const KC: usize = 128;
        let (m, kk, n) = (a.rows, a.cols, b.cols);
        let mut k0 = 0;
        while k0 < kk {
            let k1 = (k0 + KC).min(kk);
            let mut i = 0;
            while i + 4 <= m {
                let orows = &mut out.data[i * n..(i + 4) * n];
                let (o0, rest) = orows.split_at_mut(n);
                let (o1, rest) = rest.split_at_mut(n);
                let (o2, o3) = rest.split_at_mut(n);
                for k in k0..k1 {
                    let a0 = a.data[i * kk + k];
                    let a1 = a.data[(i + 1) * kk + k];
                    let a2 = a.data[(i + 2) * kk + k];
                    let a3 = a.data[(i + 3) * kk + k];
                    let brow = &b.data[k * n..(k + 1) * n];
                    for ((((v0, v1), v2), v3), &bv) in o0
                        .iter_mut()
                        .zip(o1.iter_mut())
                        .zip(o2.iter_mut())
                        .zip(o3.iter_mut())
                        .zip(brow)
                    {
                        *v0 = fmadd(a0, bv, *v0);
                        *v1 = fmadd(a1, bv, *v1);
                        *v2 = fmadd(a2, bv, *v2);
                        *v3 = fmadd(a3, bv, *v3);
                    }
                }
                i += 4;
            }
            while i < m {
                let orow = &mut out.data[i * n..(i + 1) * n];
                for k in k0..k1 {
                    let av = a.data[i * kk + k];
                    for (o, &bv) in orow.iter_mut().zip(&b.data[k * n..(k + 1) * n]) {
                        *o = fmadd(av, bv, *o);
                    }
                }
                i += 1;
            }
            k0 = k1;
        }
    }

    /// The eight-lane dot product every `a · bᵀ` used before
    /// [`matmul_t_lanes`]: one horizontal reduce per output element.
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

    /// `a · bᵀ` as [`dot8`] per output element.
    fn dot8_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows, b.rows, |i, j| dot8(a.row(i), b.row(j)))
    }

    /// `out += aᵀ · b` as the `Matrix` method computed it before it moved onto slices.
    fn matrix_t_matmul_accum(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let n = b.cols;
        let mut r0 = 0;
        while r0 + 4 <= a.rows {
            for i in 0..a.cols {
                let (a0, a1, a2, a3) = (
                    a.get(r0, i),
                    a.get(r0 + 1, i),
                    a.get(r0 + 2, i),
                    a.get(r0 + 3, i),
                );
                let orow = &mut out.data[i * n..(i + 1) * n];
                for ((((o, &v0), &v1), &v2), &v3) in orow
                    .iter_mut()
                    .zip(b.row(r0))
                    .zip(b.row(r0 + 1))
                    .zip(b.row(r0 + 2))
                    .zip(b.row(r0 + 3))
                {
                    *o = fmadd(a0, v0, fmadd(a1, v1, fmadd(a2, v2, fmadd(a3, v3, *o))));
                }
            }
            r0 += 4;
        }
        for r in r0..a.rows {
            for (i, &av) in a.row(r).iter().enumerate() {
                for (o, &bv) in out.data[i * n..(i + 1) * n].iter_mut().zip(b.row(r)) {
                    *o = fmadd(av, bv, *o);
                }
            }
        }
    }

    fn assert_bits(got: &[f32], want: &[f32], label: &str) {
        assert_eq!(got.len(), want.len(), "{label} length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}[{i}]: {g} vs {w}");
        }
    }

    /// Every `(rows, K)` pair of rows 1..=20 (four-row tiles and their
    /// remainder, ragged shards) and K 1..=70 (the eight-lane tail,
    /// including K = 3), with the column count cycling through 3..=136
    /// (every tile width and remainder) — each column count is met about
    /// ten times.
    fn shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        (1..=20usize)
            .flat_map(|r| (1..=70usize).map(move |k| (r, k, 3 + ((r - 1) * 70 + k - 1) % 134)))
    }

    #[test]
    fn matmul_accum_is_bit_identical_to_the_blocked_kernel() {
        let mut rng = MlRng::new(3);
        for (r, k, c) in shapes() {
            let a = random(r, k, &mut rng);
            let b = random(k, c, &mut rng);
            let start = random(r, c, &mut rng);
            let mut want = start.clone();
            blocked_matmul_accum(&a, &b, &mut want);
            let mut got = start;
            a.matmul_accum(&b, &mut got);
            assert_bits(&got.data, &want.data, &format!("{r}x{k}x{c}"));
        }
    }

    #[test]
    fn fused_two_term_tile_is_bit_identical_to_two_blocked_passes() {
        // A fused gate pre-activation: the x·Wx chain, then the
        // h·Wh chain, with both products summed in one register tile.
        let mut rng = MlRng::new(4);
        for (r, k, c) in shapes() {
            let k2 = 1 + (k * 7 + r) % 40;
            let (x, wx) = (random(r, k, &mut rng), random(k, c, &mut rng));
            let (h, wh) = (random(r, k2, &mut rng), random(k2, c, &mut rng));
            let mut want = Matrix::zeros(r, c);
            blocked_matmul_accum(&x, &wx, &mut want);
            blocked_matmul_accum(&h, &wh, &mut want);
            let mut got = Matrix::zeros(r, c);
            matmul_accum_terms(
                &mut got.data,
                c,
                &[(&x.data, &wx.data), (&h.data, &wh.data)],
            );
            assert_bits(&got.data, &want.data, &format!("{r}x({k}+{k2})x{c}"));
        }
    }

    #[test]
    fn matmul_t_is_bit_identical_to_dot8_per_output() {
        let mut rng = MlRng::new(5);
        for (r, k, c) in shapes() {
            let a = random(r, k, &mut rng);
            let b = random(c, k, &mut rng);
            let mut bt = Matrix::default();
            b.transpose_into(&mut bt);
            let mut got = Matrix::from_fn(r, c, |_, _| f32::NAN);
            matmul_t_lanes(&a.data, &bt.data, c, &mut got.data);
            assert_bits(
                &got.data,
                &dot8_matmul_t(&a, &b).data,
                &format!("{r}x{k}x{c}"),
            );
        }
    }

    #[test]
    fn t_matmul_accum_is_bit_identical_to_the_blocked_kernel() {
        let mut rng = MlRng::new(6);
        for (r, k, c) in shapes() {
            let a = random(r, k, &mut rng);
            let b = random(r, c, &mut rng);
            let start = random(k, c, &mut rng);
            let mut want = start.clone();
            matrix_t_matmul_accum(&a, &b, &mut want);
            let mut got = start;
            a.t_matmul_accum(&b, &mut got);
            assert_bits(&got.data, &want.data, &format!("{r}x{k}x{c}"));
        }
    }

    #[test]
    fn transpose_into_reuses_and_transposes() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut t = Matrix::zeros(5, 5);
        a.transpose_into(&mut t);
        assert_eq!(t, m(&[&[1.0, 4.0], &[2.0, 5.0], &[3.0, 6.0]]));
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

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = MlRng::new(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.uniform_sym(1.0) as f32)
    }

    proptest! {
        /// Matrix multiplication distributes over addition.
        #[test]
        fn matmul_distributes(seed in 0u64..1000) {
            let a = mat(3, 4, seed);
            let b = mat(4, 2, seed ^ 1);
            let mut c = mat(4, 2, seed ^ 2);
            // a(b + c) == ab + ac
            let mut b_plus_c = b.clone();
            b_plus_c.add_assign(&c);
            let lhs = a.matmul(&b_plus_c);
            let mut rhs = a.matmul(&b);
            rhs.add_assign(&a.matmul(&c));
            for (x, y) in lhs.data.iter().zip(&rhs.data) {
                prop_assert!((x - y).abs() < 1e-4);
            }
            c.scale(0.0);
            prop_assert!(a.matmul(&c).data.iter().all(|&v| v == 0.0));
        }

        /// Transposed multiplication identities hold.
        #[test]
        fn transpose_identities(seed in 0u64..1000) {
            let a = mat(3, 5, seed);
            let b = mat(3, 2, seed ^ 9);
            let at = Matrix::from_fn(5, 3, |i, j| a.get(j, i));
            let lhs = a.t_matmul(&b);
            let rhs = at.matmul(&b);
            for (x, y) in lhs.data.iter().zip(&rhs.data) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// The blocked/vectorized kernels agree with the naive reference
        /// within 1e-5 for arbitrary shapes, including ones that don't divide
        /// the register-tile or k-panel sizes.
        #[test]
        fn blocked_kernels_match_naive(r in 1usize..24, k in 1usize..160, c in 1usize..24, seed in 0u64..1000) {
            let a = mat(r, k, seed);
            let b = mat(k, c, seed ^ 3);
            let lhs = a.matmul(&b);
            let rhs = a.matmul_naive(&b);
            for (x, y) in lhs.data.iter().zip(&rhs.data) {
                prop_assert!((x - y).abs() <= 1e-5 * (1.0 + y.abs()));
            }
            let a2 = mat(k, r, seed ^ 4);
            let lhs = a2.t_matmul(&b);
            let rhs = a2.t_matmul_naive(&b);
            for (x, y) in lhs.data.iter().zip(&rhs.data) {
                prop_assert!((x - y).abs() <= 1e-5 * (1.0 + y.abs()));
            }
            let b2 = mat(c, k, seed ^ 5);
            let lhs = a.matmul_t(&b2);
            let rhs = a.matmul_t_naive(&b2);
            for (x, y) in lhs.data.iter().zip(&rhs.data) {
                prop_assert!((x - y).abs() <= 1e-5 * (1.0 + y.abs()));
            }
        }
    }
}
