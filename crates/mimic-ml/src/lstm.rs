//! An LSTM layer with full backpropagation through time.
//!
//! The paper's internal models are LSTMs: "For each direction of traffic,
//! the LSTMs consist of an input layer and a stack of flattened,
//! one-dimensional hidden layers" (§5.5), chosen for "their ability to
//! learn complex underlying relationships in sequences of data". This is a
//! standard LSTM cell:
//!
//! ```text
//! z = x·Wx + h₋₁·Wh + b          (z split into i | f | g | o)
//! i = σ(zᵢ)  f = σ(z_f)  g = tanh(z_g)  o = σ(z_o)
//! c = f∘c₋₁ + i∘g                h = o∘tanh(c)
//! ```
//!
//! with the forget-gate bias initialized to 1 (the usual trick so memory
//! survives early training).
//!
//! Parameters ([`Lstm`]) and gradients ([`LstmGrads`]) are separate
//! structs: the backward pass takes `&self` plus a gradient buffer, so
//! sharded training can run many backward passes against one shared
//! model, each into its own buffer, and reduce them in a fixed order.
//!
//! Training runs on caller-owned buffers that are sized once and rewritten
//! every window: a [`LayerTape`] records each forward step, a
//! [`LayerGrad`] carries the gradients flowing backward through time, and
//! [`LstmTransposed`] holds the `Wxᵀ`/`Whᵀ` copies the backward products
//! read — refreshed once per optimizer step and shared by every shard.

use crate::fastmath;
use crate::matrix::{fmadd, matmul_accum_terms, matmul_t_lanes, t_matmul_accum, Matrix};
use crate::rng::MlRng;
use serde::{Deserialize, Serialize};

/// Exact libm sigmoid — the reference path's activation.
#[cfg(test)]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The recurrent state carried between steps.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LstmState {
    pub h: Matrix,
    pub c: Matrix,
}

impl LstmState {
    pub fn zeros(batch: usize, hidden: usize) -> LstmState {
        LstmState {
            h: Matrix::zeros(batch, hidden),
            c: Matrix::zeros(batch, hidden),
        }
    }
}

/// Reusable gate-preactivation buffer for [`Lstm::step_inplace`].
///
/// One scratch serves a whole stack (layers share the hidden width), so a
/// running Mimic performs zero heap allocations per packet: the buffer is
/// sized once at state creation and only ever rewritten.
#[derive(Clone, Debug)]
pub struct LstmScratch {
    /// Gate pre-activations, length `4·hidden` (gate order `i|f|g|o`).
    z: Vec<f32>,
}

impl LstmScratch {
    /// Scratch able to serve layers up to `hidden` units wide.
    pub fn new(hidden: usize) -> LstmScratch {
        LstmScratch {
            z: vec![0.0; 4 * hidden],
        }
    }
}

/// Everything [`Lstm::backward_step_reference`] needs from one
/// [`Lstm::forward_step_reference`] step.
#[cfg(test)]
#[derive(Clone, Debug)]
pub struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    c_prev: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    tanh_c: Matrix,
}

/// One layer's forward record over an unrolled window of `rows`-row
/// steps, reused from window to window: [`LayerTape::reset`] only
/// allocates when a window is larger than any before it.
#[derive(Clone, Debug, Default)]
pub(crate) struct LayerTape {
    rows: usize,
    hidden: usize,
    /// Activated gates `i|f|g|o` of step `t`, `rows × 4·hidden` at
    /// `t·rows·4·hidden`.
    gates: Vec<f32>,
    /// `tanh(c)` of step `t`, `rows × hidden` at `t·rows·hidden`.
    tanh_c: Vec<f32>,
    /// Hidden state entering step `t` at `t·rows·hidden`: slot 0 is the
    /// zero initial state, slot `t + 1` the output of step `t`.
    h: Vec<f32>,
    /// Cell state, laid out like `h`.
    c: Vec<f32>,
}

/// The slices of a [`LayerTape`] that the backward pass reads for one step.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TapeStep<'a> {
    pub gates: &'a [f32],
    pub tanh_c: &'a [f32],
    pub h_prev: &'a [f32],
    pub c_prev: &'a [f32],
}

impl LayerTape {
    /// Shape the tape for `steps` steps of `rows` rows and start from the
    /// zero state.
    pub fn reset(&mut self, rows: usize, hidden: usize, steps: usize) {
        let s = rows * hidden;
        self.rows = rows;
        self.hidden = hidden;
        self.gates.resize(steps * 4 * s, 0.0);
        self.tanh_c.resize(steps * s, 0.0);
        self.h.resize((steps + 1) * s, 0.0);
        self.c.resize((steps + 1) * s, 0.0);
        self.h[..s].fill(0.0);
        self.c[..s].fill(0.0);
    }

    /// Hidden state after step `t` (`rows × hidden`).
    pub fn h(&self, t: usize) -> &[f32] {
        let s = self.rows * self.hidden;
        &self.h[(t + 1) * s..(t + 2) * s]
    }

    /// Cell state after step `t`.
    #[cfg(test)]
    fn c(&self, t: usize) -> &[f32] {
        let s = self.rows * self.hidden;
        &self.c[(t + 1) * s..(t + 2) * s]
    }

    /// What [`Lstm::backward_step`] reads of step `t`.
    pub fn step(&self, t: usize) -> TapeStep<'_> {
        let s = self.rows * self.hidden;
        TapeStep {
            gates: &self.gates[t * 4 * s..(t + 1) * 4 * s],
            tanh_c: &self.tanh_c[t * s..(t + 1) * s],
            h_prev: &self.h[t * s..(t + 1) * s],
            c_prev: &self.c[t * s..(t + 1) * s],
        }
    }
}

/// The gradients one layer passes backward through time, plus its step
/// scratch; reused from window to window like [`LayerTape`].
#[derive(Clone, Debug, Default)]
pub(crate) struct LayerGrad {
    /// `dL/dh` entering a step (from later steps and the layer above);
    /// [`Lstm::backward_step`] replaces it with `dL/dh_prev`.
    pub dh: Vec<f32>,
    /// `dL/dc` entering a step; replaced with `dL/dc_prev`.
    pub dc: Vec<f32>,
    /// `dL/dx` of the last step that asked for it.
    pub dx: Vec<f32>,
    /// Gate pre-activation gradients of the last step, `rows × 4·hidden`.
    dz: Vec<f32>,
}

impl LayerGrad {
    /// Shape for `rows` rows of a layer reading `input` features, with
    /// zero gradients flowing in.
    pub fn reset(&mut self, rows: usize, input: usize, hidden: usize) {
        self.dh.clear();
        self.dh.resize(rows * hidden, 0.0);
        self.dc.clear();
        self.dc.resize(rows * hidden, 0.0);
        self.dx.resize(rows * input, 0.0);
        self.dz.resize(rows * 4 * hidden, 0.0);
    }
}

/// `Wxᵀ` and `Whᵀ` of one layer — what the backward pass multiplies `dz`
/// by, laid out so those products vectorize across output columns.
#[derive(Clone, Debug, Default)]
pub(crate) struct LstmTransposed {
    wx_t: Matrix,
    wh_t: Matrix,
}

impl LstmTransposed {
    pub fn new(layer: &Lstm) -> LstmTransposed {
        let mut t = LstmTransposed::default();
        t.refresh(layer);
        t
    }

    /// Re-transpose after the weights changed, reusing the buffers.
    pub fn refresh(&mut self, layer: &Lstm) {
        layer.wx.transpose_into(&mut self.wx_t);
        layer.wh.transpose_into(&mut self.wh_t);
    }
}

/// The LSTM layer parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Lstm {
    pub input: usize,
    pub hidden: usize,
    /// Input weights, `input × 4·hidden`, gate order `i|f|g|o`.
    pub wx: Matrix,
    /// Recurrent weights, `hidden × 4·hidden`.
    pub wh: Matrix,
    /// Bias, length `4·hidden`.
    pub b: Vec<f32>,
}

/// Gradient accumulator matching an [`Lstm`]'s parameter shapes.
#[derive(Clone, Debug)]
pub struct LstmGrads {
    pub wx: Matrix,
    pub wh: Matrix,
    pub b: Vec<f32>,
}

impl LstmGrads {
    /// Zeroed gradients for `layer`.
    pub fn zeros(layer: &Lstm) -> LstmGrads {
        LstmGrads {
            wx: Matrix::zeros(layer.input, 4 * layer.hidden),
            wh: Matrix::zeros(layer.hidden, 4 * layer.hidden),
            b: vec![0.0; 4 * layer.hidden],
        }
    }

    /// Reset all gradients to zero (buffer reuse).
    pub fn zero(&mut self) {
        self.wx.data.fill(0.0);
        self.wh.data.fill(0.0);
        self.b.fill(0.0);
    }

    /// Accumulate another buffer: `self += other`.
    pub fn add_assign(&mut self, other: &LstmGrads) {
        self.wx.add_assign(&other.wx);
        self.wh.add_assign(&other.wh);
        for (a, &b) in self.b.iter_mut().zip(&other.b) {
            *a += b;
        }
    }
}

/// Column tile of the gate pre-activations that [`accum_tile`] keeps in
/// registers from the bias to the last row of `Wh`.
const GATE_TILE: usize = 64;

/// `acc += x · W[.., j0..j0+T]` over the rows of `w` (row-major, `cols`
/// wide, one row per element of `x`), four rows per pass. Every output
/// element runs the fmadd chain `k+3, k+2, k+1, k` per four-row block and
/// then the tail rows one by one — the order every stepping path has
/// always used, so the tile width never changes a bit of the result.
#[inline(always)]
fn accum_tile<const T: usize>(acc: &mut [f32; T], x: &[f32], w: &[f32], cols: usize, j0: usize) {
    assert!(j0 + T <= cols && w.len() == x.len() * cols);
    let tile = |row: &[f32]| -> [f32; T] { row[j0..j0 + T].try_into().expect("tile-wide slice") };
    let mut blocks = x.chunks_exact(4);
    let mut rows = w.chunks_exact(cols);
    for a in &mut blocks {
        let mut next = || tile(rows.next().expect("one weight row per input"));
        let (w0, w1, w2, w3) = (next(), next(), next(), next());
        for j in 0..T {
            acc[j] = fmadd(a[0], w0[j], fmadd(a[1], w1[j], fmadd(a[2], w2[j], fmadd(a[3], w3[j], acc[j]))));
        }
    }
    for (&a, row) in blocks.remainder().iter().zip(rows) {
        let wk = tile(row);
        for j in 0..T {
            acc[j] = fmadd(a, wk[j], acc[j]);
        }
    }
}

impl Lstm {
    pub fn new(input: usize, hidden: usize, rng: &mut MlRng) -> Lstm {
        let a_x = (6.0 / (input + hidden) as f64).sqrt();
        let a_h = (6.0 / (2 * hidden) as f64).sqrt();
        let mut b = vec![0.0; 4 * hidden];
        // Forget gate bias = 1.
        for v in b.iter_mut().skip(hidden).take(hidden) {
            *v = 1.0;
        }
        Lstm {
            input,
            hidden,
            wx: Matrix::from_fn(input, 4 * hidden, |_, _| rng.uniform_sym(a_x) as f32),
            wh: Matrix::from_fn(hidden, 4 * hidden, |_, _| rng.uniform_sym(a_h) as f32),
            b,
        }
    }

    /// Gate pre-activations `z = b + x·Wx + h·Wh` for one sample — the one
    /// matrix kernel behind stepping. A column tile of `z` lives in
    /// registers across the whole stacked `[Wx; Wh]` chain, so `z` is
    /// written once instead of once per four-row weight block. `4·hidden`
    /// is a multiple of four, so power-of-two tiles down to four columns
    /// cover what full tiles leave.
    fn gate_preact(&self, z: &mut [f32], x: &[f32], h: &[f32]) {
        let cols = 4 * self.hidden;
        let mut j0 = 0;
        while cols - j0 >= GATE_TILE {
            self.gate_tile::<GATE_TILE>(z, x, h, j0);
            j0 += GATE_TILE;
        }
        if cols - j0 >= 32 {
            self.gate_tile::<32>(z, x, h, j0);
            j0 += 32;
        }
        if cols - j0 >= 16 {
            self.gate_tile::<16>(z, x, h, j0);
            j0 += 16;
        }
        if cols - j0 >= 8 {
            self.gate_tile::<8>(z, x, h, j0);
            j0 += 8;
        }
        if cols - j0 >= 4 {
            self.gate_tile::<4>(z, x, h, j0);
        }
    }

    /// Columns `j0..j0+T` of [`Lstm::gate_preact`].
    #[inline(always)]
    fn gate_tile<const T: usize>(&self, z: &mut [f32], x: &[f32], h: &[f32], j0: usize) {
        let cols = 4 * self.hidden;
        let mut acc: [f32; T] = self.b[j0..j0 + T].try_into().expect("tile-wide slice");
        accum_tile(&mut acc, x, &self.wx.data, cols, j0);
        accum_tile(&mut acc, h, &self.wh.data, cols, j0);
        z[j0..j0 + T].copy_from_slice(&acc);
    }

    /// Forward step `t` of a window for all rows of `tape`: reads the
    /// `rows × input` input `x` and the tape's state entering the step,
    /// records the activated gates, `c`, `tanh(c)` and `h`. Matches the
    /// test-only `Lstm::forward_step_reference` within 1e-5 per element.
    ///
    /// Per element the pre-activation is `0`, then the `x·Wx` fmadd chain,
    /// then the `h·Wh` chain (one register tile across both), then `+ b`
    /// as a separate add; the bias add, all four gate activations and the
    /// cell update then run in one sweep per row using [`fastmath`]
    /// activations.
    pub(crate) fn forward_step(&self, x: &[f32], tape: &mut LayerTape, t: usize) {
        let (rows, h) = (tape.rows, self.hidden);
        assert_eq!(tape.hidden, h, "tape width mismatch");
        assert_eq!(x.len(), rows * self.input, "input width mismatch");
        let s = rows * h;
        let z = &mut tape.gates[t * 4 * s..(t + 1) * 4 * s];
        let (h_prev, h_next) = tape.h.split_at_mut((t + 1) * s);
        let (c_prev, c_next) = tape.c.split_at_mut((t + 1) * s);
        let (h_prev, c_prev) = (&h_prev[t * s..], &c_prev[t * s..]);
        let (h_out, c_out) = (&mut h_next[..s], &mut c_next[..s]);
        let tanh_c = &mut tape.tanh_c[t * s..(t + 1) * s];
        z.fill(0.0);
        matmul_accum_terms(z, 4 * h, &[(x, &self.wx.data), (h_prev, &self.wh.data)]);
        for r in 0..rows {
            // Activate the gate pre-activations as contiguous blocks —
            // sigmoid over [i|f], tanh over [g], sigmoid over [o] — so the
            // branch-free polynomial vectorizes across lanes instead of
            // being evaluated scalar-by-scalar inside a wide loop body.
            let zr = &mut z[r * 4 * h..(r + 1) * 4 * h];
            for (zv, &bv) in zr.iter_mut().zip(&self.b) {
                *zv += bv;
            }
            fastmath::sigmoid_slice(&mut zr[..2 * h]);
            fastmath::tanh_slice(&mut zr[2 * h..3 * h]);
            fastmath::sigmoid_slice(&mut zr[3 * h..]);
            let (zi, rest) = zr.split_at(h);
            let (zf, rest) = rest.split_at(h);
            let (zg, zo) = rest.split_at(h);
            let rr = r * h..(r + 1) * h;
            let cp = &c_prev[rr.clone()];
            let cr = &mut c_out[rr.clone()];
            for j in 0..h {
                cr[j] = zf[j] * cp[j] + zi[j] * zg[j];
            }
            let tr = &mut tanh_c[rr.clone()];
            tr.copy_from_slice(cr);
            fastmath::tanh_slice(tr);
            let hr = &mut h_out[rr];
            for j in 0..h {
                hr[j] = zo[j] * tr[j];
            }
        }
    }

    /// Allocation-free single-sample forward step for inference: updates
    /// `state` (batch 1) in place using `scratch` for the gate
    /// pre-activations. Matches [`Lstm::forward_step`] to within f32
    /// rounding (the four-way unrolled accumulation reassociates sums) —
    /// this is the per-packet cost inside a running Mimic, the analogue of
    /// the paper's custom C++/ATen inference engine.
    pub fn step_inplace(&self, x: &[f32], state: &mut LstmState, scratch: &mut LstmScratch) {
        assert_eq!(x.len(), self.input, "input width mismatch");
        assert_eq!(state.h.rows, 1, "step_inplace is single-sample");
        let h = self.hidden;
        assert!(scratch.z.len() >= 4 * h, "scratch too small for layer");
        let z = &mut scratch.z[..4 * h];
        self.gate_preact(z, x, &state.h.data);
        // Activate contiguous gate blocks so the polynomial vectorizes
        // (see `forward_step`).
        fastmath::sigmoid_slice(&mut z[..2 * h]);
        fastmath::tanh_slice(&mut z[2 * h..3 * h]);
        fastmath::sigmoid_slice(&mut z[3 * h..]);
        let (zi, rest) = z.split_at(h);
        let (zf, rest) = rest.split_at(h);
        let (zg, zo) = rest.split_at(h);
        for j in 0..h {
            state.c.data[j] = zf[j] * state.c.data[j] + zi[j] * zg[j];
        }
        state.h.data.copy_from_slice(&state.c.data);
        fastmath::tanh_slice(&mut state.h.data);
        for (hv, &og) in state.h.data.iter_mut().zip(zo) {
            *hv *= og;
        }
    }

    /// One BPTT step: with `grad.dh` / `grad.dc` holding `dL/dh` and
    /// `dL/dc` flowing into `step` (whose input was `x`), accumulate the
    /// parameter gradients into `grads` and leave `dL/dh_prev` /
    /// `dL/dc_prev` in `grad.dh` / `grad.dc` and, with `need_dx`, `dL/dx`
    /// in `grad.dx`. Layer 0 of a stack has no layer below it, so its
    /// `dz · Wxᵀ` product — roughly a quarter of the step's matrix math —
    /// is skipped with `need_dx = false`.
    ///
    /// The gate-derivative chain runs in one sweep (element order and
    /// arithmetic identical to the test-only
    /// `Lstm::backward_step_reference` — a pass fusion, not a
    /// reassociation), the weight gradients accumulate straight into
    /// `grads`, and `dz · Wᵀ` reads the transposed copies in `wt`.
    pub(crate) fn backward_step(
        &self,
        wt: &LstmTransposed,
        x: &[f32],
        step: TapeStep<'_>,
        grad: &mut LayerGrad,
        grads: &mut LstmGrads,
        need_dx: bool,
    ) {
        let h = self.hidden;
        let rows = step.h_prev.len() / h;
        assert_eq!(x.len(), rows * self.input, "input width mismatch");
        assert!(
            grad.dh.len() == rows * h && grad.dz.len() == rows * 4 * h,
            "gradient scratch shape mismatch"
        );
        let LayerGrad { dh, dc, dx, dz } = grad;
        for r in 0..rows {
            // Per-row slices of fixed length `h` so the compiler can hoist
            // the bounds checks and vectorize the sweep (indexed accesses
            // into eight different buffers defeat both).
            let rr = r * h..(r + 1) * h;
            let gr = &step.gates[r * 4 * h..(r + 1) * 4 * h];
            let (ir, rest) = gr.split_at(h);
            let (fr, rest) = rest.split_at(h);
            let (gg, or) = rest.split_at(h);
            let tcr = &step.tanh_c[rr.clone()];
            let cpr = &step.c_prev[rr.clone()];
            let dhr = &dh[rr.clone()];
            let dcr = &mut dc[rr];
            let zrow = &mut dz[r * 4 * h..(r + 1) * 4 * h];
            let (dzi, rest) = zrow.split_at_mut(h);
            let (dzf, rest) = rest.split_at_mut(h);
            let (dzg, dzo) = rest.split_at_mut(h);
            for j in 0..h {
                let i = ir[j];
                let f = fr[j];
                let g = gg[j];
                let o = or[j];
                let tc = tcr[j];
                let dhv = dhr[j];
                let do_ = dhv * tc;
                let dc = dhv * o * (1.0 - tc * tc) + dcr[j];
                dcr[j] = dc * f;
                dzi[j] = dc * g * i * (1.0 - i);
                dzf[j] = dc * cpr[j] * f * (1.0 - f);
                dzg[j] = dc * i * (1.0 - g * g);
                dzo[j] = do_ * o * (1.0 - o);
            }
        }
        // Parameter gradients, accumulated in place.
        t_matmul_accum(x, self.input, dz, 4 * h, &mut grads.wx.data);
        t_matmul_accum(step.h_prev, h, dz, 4 * h, &mut grads.wh.data);
        for zrow in dz.chunks_exact(4 * h) {
            for (g, &d) in grads.b.iter_mut().zip(zrow) {
                *g += d;
            }
        }
        // Upstream gradients.
        if need_dx {
            matmul_t_lanes(dz, &wt.wx_t.data, self.input, dx);
        }
        matmul_t_lanes(dz, &wt.wh_t.data, h, dh);
    }

    /// Visit `(params, grads)` slices in a fixed order.
    pub fn visit(&mut self, grads: &mut LstmGrads, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.wx.data, &mut grads.wx.data);
        f(&mut self.wh.data, &mut grads.wh.data);
        f(&mut self.b, &mut grads.b);
    }

    pub fn param_count(&self) -> usize {
        self.wx.data.len() + self.wh.data.len() + self.b.len()
    }
}

/// The pre-optimization step, kept verbatim as the equivalence baseline
/// of the fused training kernels.
#[cfg(test)]
impl Lstm {
    /// Slice columns `[from, to)` of a `B × 4H` pre-activation matrix.
    fn slice_cols(z: &Matrix, from: usize, to: usize) -> Matrix {
        let mut out = Matrix::zeros(z.rows, to - from);
        for r in 0..z.rows {
            out.data[r * (to - from)..(r + 1) * (to - from)]
                .copy_from_slice(&z.row(r)[from..to]);
        }
        out
    }

    /// The pre-optimization forward step, kept verbatim as the
    /// equivalence baseline: per-gate slice/map/hadamard passes, each
    /// allocating, with exact libm activations.
    pub fn forward_step_reference(&self, x: &Matrix, state: &LstmState) -> (LstmState, StepCache) {
        assert_eq!(x.cols, self.input, "input width mismatch");
        let h = self.hidden;
        let mut z = x.matmul(&self.wx);
        z.add_assign(&state.h.matmul(&self.wh));
        z.add_row_broadcast(&self.b);
        let i = Self::slice_cols(&z, 0, h).map(sigmoid);
        let f = Self::slice_cols(&z, h, 2 * h).map(sigmoid);
        let g = Self::slice_cols(&z, 2 * h, 3 * h).map(f32::tanh);
        let o = Self::slice_cols(&z, 3 * h, 4 * h).map(sigmoid);
        let mut c = f.hadamard(&state.c);
        c.add_assign(&i.hadamard(&g));
        let tanh_c = c.map(f32::tanh);
        let h_new = o.hadamard(&tanh_c);
        (
            LstmState { h: h_new, c },
            StepCache {
                x: x.clone(),
                h_prev: state.h.clone(),
                c_prev: state.c.clone(),
                i,
                f,
                g,
                o,
                tanh_c,
            },
        )
    }

    /// The pre-optimization backward step, kept verbatim as the
    /// equivalence baseline: one allocating hadamard/map pass per
    /// intermediate, gradients staged through temporaries, `dx` always
    /// computed.
    pub fn backward_step_reference(
        &self,
        cache: &StepCache,
        dh: &Matrix,
        dc_in: &Matrix,
        grads: &mut LstmGrads,
    ) -> (Matrix, Matrix, Matrix) {
        let h = self.hidden;
        let one_minus = |m: &Matrix| m.map(|v| 1.0 - v);
        // Output gate and cell.
        let do_ = dh.hadamard(&cache.tanh_c);
        let mut dc = dh
            .hadamard(&cache.o)
            .hadamard(&cache.tanh_c.map(|v| 1.0 - v * v));
        dc.add_assign(dc_in);
        // Gates.
        let di = dc.hadamard(&cache.g);
        let df = dc.hadamard(&cache.c_prev);
        let dg = dc.hadamard(&cache.i);
        let dc_prev = dc.hadamard(&cache.f);
        // Pre-activations.
        let dzi = di.hadamard(&cache.i).hadamard(&one_minus(&cache.i));
        let dzf = df.hadamard(&cache.f).hadamard(&one_minus(&cache.f));
        let dzg = dg.hadamard(&cache.g.map(|v| 1.0 - v * v));
        let dzo = do_.hadamard(&cache.o).hadamard(&one_minus(&cache.o));
        // Concatenate into B × 4H.
        let batch = dh.rows;
        let mut dz = Matrix::zeros(batch, 4 * h);
        for r in 0..batch {
            dz.data[r * 4 * h..r * 4 * h + h].copy_from_slice(dzi.row(r));
            dz.data[r * 4 * h + h..r * 4 * h + 2 * h].copy_from_slice(dzf.row(r));
            dz.data[r * 4 * h + 2 * h..r * 4 * h + 3 * h].copy_from_slice(dzg.row(r));
            dz.data[r * 4 * h + 3 * h..r * 4 * h + 4 * h].copy_from_slice(dzo.row(r));
        }
        // Parameter gradients.
        grads.wx.add_assign(&cache.x.t_matmul(&dz));
        grads.wh.add_assign(&cache.h_prev.t_matmul(&dz));
        for (g, d) in grads.b.iter_mut().zip(dz.sum_rows()) {
            *g += d;
        }
        // Upstream gradients.
        let dx = dz.matmul_t(&self.wx);
        let dh_prev = dz.matmul_t(&self.wh);
        (dx, dh_prev, dc_prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unroll `xs` (one `rows × input` matrix per step) on a fresh tape.
    fn unroll(lstm: &Lstm, xs: &[Matrix]) -> LayerTape {
        let mut tape = LayerTape::default();
        tape.reset(xs[0].rows, lstm.hidden, xs.len());
        for (t, x) in xs.iter().enumerate() {
            lstm.forward_step(&x.data, &mut tape, t);
        }
        tape
    }

    /// Gradient scratch for `rows` rows of `lstm`, zero gradients in.
    fn layer_grad(lstm: &Lstm, rows: usize) -> LayerGrad {
        let mut g = LayerGrad::default();
        g.reset(rows, lstm.input, lstm.hidden);
        g
    }

    #[test]
    fn forward_shapes() {
        let mut rng = MlRng::new(1);
        let lstm = Lstm::new(3, 5, &mut rng);
        let tape = unroll(&lstm, &[Matrix::zeros(2, 3)]);
        assert_eq!(tape.h(0).len(), 2 * 5);
        assert_eq!(tape.c(0).len(), 2 * 5);
    }

    #[test]
    fn zero_input_zero_state_gives_bounded_output() {
        let mut rng = MlRng::new(2);
        let lstm = Lstm::new(3, 4, &mut rng);
        let tape = unroll(&lstm, &[Matrix::zeros(1, 3)]);
        for &v in tape.h(0) {
            assert!(v.abs() < 1.0, "h out of tanh-sigmoid range: {v}");
        }
    }

    #[test]
    fn memory_persists_across_steps() {
        // Feeding a strong input once should leave a trace in the cell that
        // persists with near-unit forget gates.
        let mut rng = MlRng::new(3);
        let lstm = Lstm::new(1, 4, &mut rng);
        let strong = Matrix::from_rows(&[vec![5.0]]);
        let silent = Matrix::from_rows(&[vec![0.0]]);
        let tape = unroll(&lstm, &[strong, silent.clone(), silent.clone(), silent]);
        // Cell state decays but does not vanish instantly.
        let corr: f32 = tape.c(3).iter().zip(tape.c(0)).map(|(a, b)| a * b).sum();
        assert!(corr > 0.0, "cell memory vanished");
    }

    #[test]
    fn step_inplace_matches_forward_step() {
        let mut rng = MlRng::new(17);
        let lstm = Lstm::new(5, 7, &mut rng);
        let mut scratch = LstmScratch::new(7);
        let mut state = LstmState::zeros(1, 7);
        let seq: Vec<Vec<f32>> = (0..6)
            .map(|_| (0..5).map(|_| rng.uniform_sym(1.0) as f32).collect())
            .collect();
        let xs: Vec<Matrix> = seq
            .iter()
            .map(|x| Matrix::from_rows(std::slice::from_ref(x)))
            .collect();
        let tape = unroll(&lstm, &xs);
        for (t, x) in seq.iter().enumerate() {
            lstm.step_inplace(x, &mut state, &mut scratch);
            for (a, b) in state.h.data.iter().zip(tape.h(t)) {
                assert!((a - b).abs() < 1e-5, "h diverged: {a} vs {b}");
            }
            for (a, b) in state.c.data.iter().zip(tape.c(t)) {
                assert!((a - b).abs() < 1e-5, "c diverged: {a} vs {b}");
            }
        }
    }

    /// The accumulation chain every stepping path used before the tiled
    /// kernel (`z += x · W`, four rows per pass, then the tail), kept here
    /// as the order [`Lstm::gate_preact`] must reproduce bit for bit.
    fn untiled_accum(z: &mut [f32], x: &[f32], w: &Matrix) {
        let n = z.len();
        let mut k = 0;
        while k + 4 <= x.len() {
            for (j, zv) in z.iter_mut().enumerate() {
                let v = |r: usize| w.data[(k + r) * n + j];
                *zv = fmadd(x[k], v(0), fmadd(x[k + 1], v(1), fmadd(x[k + 2], v(2), fmadd(x[k + 3], v(3), *zv))));
            }
            k += 4;
        }
        while k < x.len() {
            for (j, zv) in z.iter_mut().enumerate() {
                *zv = fmadd(x[k], w.data[k * n + j], *zv);
            }
            k += 1;
        }
    }

    #[test]
    fn gate_preact_is_bit_identical_to_the_untiled_chain() {
        // Every shape up to 70 inputs x 48 hidden units: tile remainders
        // (4·hidden not a multiple of the tile) and row tails
        // (input % 4 != 0).
        let mut rng = MlRng::new(5);
        for input in 1..=70usize {
            for hidden in 1..=48usize {
                let lstm = Lstm::new(input, hidden, &mut rng);
                let x: Vec<f32> = (0..input).map(|_| rng.uniform_sym(1.5) as f32).collect();
                let h: Vec<f32> = (0..hidden).map(|_| rng.uniform_sym(1.0) as f32).collect();
                let mut z = vec![f32::NAN; 4 * hidden];
                lstm.gate_preact(&mut z, &x, &h);
                let mut want = lstm.b.clone();
                untiled_accum(&mut want, &x, &lstm.wx);
                untiled_accum(&mut want, &h, &lstm.wh);
                for (j, (g, w)) in z.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "input {input} hidden {hidden} col {j}");
                }
            }
        }
    }

    #[test]
    fn fused_forward_matches_reference() {
        // The optimized forward (fused tile + fastmath activations) must
        // track the pre-optimization implementation within 1e-5 over a
        // multi-step rollout, including awkward batch sizes.
        let mut rng = MlRng::new(31);
        let lstm = Lstm::new(5, 9, &mut rng);
        for batch in [1usize, 3, 8] {
            let xs: Vec<Matrix> = (0..5)
                .map(|_| Matrix::from_fn(batch, 5, |_, _| rng.uniform_sym(2.0) as f32))
                .collect();
            let tape = unroll(&lstm, &xs);
            let mut s_ref = LstmState::zeros(batch, 9);
            for (t, x) in xs.iter().enumerate() {
                s_ref = lstm.forward_step_reference(x, &s_ref).0;
                for (a, b) in s_ref.h.data.iter().zip(tape.h(t)) {
                    assert!((a - b).abs() < 1e-5, "h diverged: {a} vs {b}");
                }
                for (a, b) in s_ref.c.data.iter().zip(tape.c(t)) {
                    assert!((a - b).abs() < 1e-5, "c diverged: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn fused_backward_matches_reference() {
        // Same forward cache, gradients within 1e-5 whichever backward
        // implementation processes it.
        let mut rng = MlRng::new(41);
        let lstm = Lstm::new(3, 5, &mut rng);
        let x = Matrix::from_fn(4, 3, |_, _| rng.uniform_sym(1.0) as f32);
        let (s2, cache) = lstm.forward_step_reference(&x, &LstmState::zeros(4, 5));
        let dh = s2.h.clone();
        let dc = Matrix::from_fn(4, 5, |_, _| rng.uniform_sym(0.5) as f32);
        let mut g_ref = LstmGrads::zeros(&lstm);
        let (dx_r, dh_r, dc_r) = lstm.backward_step_reference(&cache, &dh, &dc, &mut g_ref);
        // The reference cache, laid out as a tape step.
        let gates: Vec<f32> = (0..4)
            .flat_map(|r| [&cache.i, &cache.f, &cache.g, &cache.o].map(|m| m.row(r).to_vec()))
            .flatten()
            .collect();
        let step = TapeStep {
            gates: &gates,
            tanh_c: &cache.tanh_c.data,
            h_prev: &cache.h_prev.data,
            c_prev: &cache.c_prev.data,
        };
        let mut g_fused = LstmGrads::zeros(&lstm);
        let mut grad = layer_grad(&lstm, 4);
        grad.dh.copy_from_slice(&dh.data);
        grad.dc.copy_from_slice(&dc.data);
        lstm.backward_step(
            &LstmTransposed::new(&lstm),
            &x.data,
            step,
            &mut grad,
            &mut g_fused,
            true,
        );
        let close = |a: &[f32], b: &[f32], label: &str| {
            assert_eq!(a.len(), b.len(), "{label} length");
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-5, "{label}: {x} vs {y}");
            }
        };
        close(&dx_r.data, &grad.dx, "dx");
        close(&dh_r.data, &grad.dh, "dh_prev");
        close(&dc_r.data, &grad.dc, "dc_prev");
        close(&g_ref.wx.data, &g_fused.wx.data, "wx");
        close(&g_ref.wh.data, &g_fused.wh.data, "wh");
        close(&g_ref.b, &g_fused.b, "b");
    }

    #[test]
    fn backward_skipping_dx_changes_nothing_else() {
        let mut rng = MlRng::new(37);
        let lstm = Lstm::new(4, 6, &mut rng);
        let x = Matrix::from_fn(2, 4, |_, _| rng.uniform_sym(1.0) as f32);
        let tape = unroll(&lstm, std::slice::from_ref(&x));
        let wt = LstmTransposed::new(&lstm);
        let mut g1 = LstmGrads::zeros(&lstm);
        let mut g2 = LstmGrads::zeros(&lstm);
        let mut b1 = layer_grad(&lstm, 2);
        let mut b2 = layer_grad(&lstm, 2);
        b1.dh.copy_from_slice(tape.h(0));
        b2.dh.copy_from_slice(tape.h(0));
        lstm.backward_step(&wt, &x.data, tape.step(0), &mut b1, &mut g1, true);
        lstm.backward_step(&wt, &x.data, tape.step(0), &mut b2, &mut g2, false);
        assert!(b1.dx.iter().any(|&v| v != 0.0));
        assert!(b2.dx.iter().all(|&v| v == 0.0));
        assert_eq!(b1.dh, b2.dh);
        assert_eq!(b1.dc, b2.dc);
        assert_eq!(g1.wx.data, g2.wx.data);
        assert_eq!(g1.wh.data, g2.wh.data);
        assert_eq!(g1.b, g2.b);
    }

    #[test]
    fn bptt_gradient_check() {
        // Finite-difference check of dL/dWx, dL/dWh, dL/db over a 3-step
        // unrolled sequence with L = 0.5·Σ h_T².
        let mut rng = MlRng::new(11);
        let (input, hidden, batch, steps) = (2usize, 3usize, 2usize, 3usize);
        let mut lstm = Lstm::new(input, hidden, &mut rng);
        let xs: Vec<Matrix> = (0..steps)
            .map(|_| Matrix::from_fn(batch, input, |_, _| rng.uniform_sym(1.0) as f32))
            .collect();

        let loss = |l: &Lstm| -> f64 {
            let tape = unroll(l, &xs);
            tape.h(steps - 1)
                .iter()
                .map(|&v| 0.5 * v as f64 * v as f64)
                .sum()
        };

        // Analytic gradients.
        let tape = unroll(&lstm, &xs);
        let wt = LstmTransposed::new(&lstm);
        let mut grads = LstmGrads::zeros(&lstm);
        let mut grad = layer_grad(&lstm, batch);
        grad.dh.copy_from_slice(tape.h(steps - 1)); // dL/dh_T = h_T
        for t in (0..steps).rev() {
            lstm.backward_step(&wt, &xs[t].data, tape.step(t), &mut grad, &mut grads, true);
        }

        // Compare against central differences at a sample of parameters.
        let gwx = grads.wx.data.clone();
        let gwh = grads.wh.data.clone();
        let gb = grads.b.clone();
        let eps = 2e-3f32;
        let mut check = |get: &dyn Fn(&Lstm) -> f32,
                         set: &dyn Fn(&mut Lstm, f32),
                         analytic: f32,
                         label: &str| {
            let orig = get(&lstm);
            set(&mut lstm, orig + eps);
            let up = loss(&lstm);
            set(&mut lstm, orig - eps);
            let dn = loss(&lstm);
            set(&mut lstm, orig);
            let fd = ((up - dn) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - analytic).abs() / (fd.abs() + analytic.abs()).max(5e-3) < 0.08,
                "{label}: fd {fd} vs analytic {analytic}"
            );
        };
        for idx in [0usize, 7, 13] {
            check(&|l| l.wx.data[idx], &|l, v| l.wx.data[idx] = v, gwx[idx], "wx");
        }
        for idx in [1usize, 5, 20] {
            check(&|l| l.wh.data[idx], &|l, v| l.wh.data[idx] = v, gwh[idx], "wh");
        }
        for idx in [0usize, 4, 9] {
            check(&|l| l.b[idx], &|l, v| l.b[idx] = v, gb[idx], "b");
        }
    }

    #[test]
    fn grads_accumulate_and_reduce() {
        let mut rng = MlRng::new(23);
        let lstm = Lstm::new(2, 3, &mut rng);
        let x = Matrix::from_fn(1, 2, |_, _| rng.uniform_sym(1.0) as f32);
        let tape = unroll(&lstm, std::slice::from_ref(&x));
        let wt = LstmTransposed::new(&lstm);
        let mut g1 = LstmGrads::zeros(&lstm);
        let mut g2 = LstmGrads::zeros(&lstm);
        for g in [&mut g1, &mut g2] {
            let mut grad = layer_grad(&lstm, 1);
            grad.dh.copy_from_slice(tape.h(0));
            lstm.backward_step(&wt, &x.data, tape.step(0), &mut grad, g, true);
        }
        // Reducing two copies doubles the gradient.
        let mut sum = LstmGrads::zeros(&lstm);
        sum.add_assign(&g1);
        sum.add_assign(&g2);
        for (s, g) in sum.wx.data.iter().zip(&g1.wx.data) {
            assert!((s - 2.0 * g).abs() < 1e-6);
        }
        sum.zero();
        assert!(sum.wx.data.iter().all(|&v| v == 0.0));
        assert!(sum.b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn param_count() {
        let lstm = Lstm::new(10, 8, &mut MlRng::new(1));
        assert_eq!(lstm.param_count(), 10 * 32 + 8 * 32 + 32);
    }
}
