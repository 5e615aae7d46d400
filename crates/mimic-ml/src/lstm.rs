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
//! Training is truncated BPTT over chunks of consecutive steps, with the
//! state carried from chunk to chunk, on caller-owned buffers that are
//! sized once and rewritten every chunk: a `LayerTape` records each
//! forward step, a `LayerGrad` carries the gradients flowing backward
//! through the chunk, and `LstmTransposed` holds the `Wxᵀ`/`Whᵀ` copies
//! the backward products read — refreshed once per optimizer step and
//! shared by every shard. A training step and the inference step
//! ([`Lstm::step_inplace`]) share one gate kernel and one cell update, so
//! from the same state they compute the same bits.

use crate::fastmath;
use crate::matrix::{matmul_accum_terms, matmul_t_lanes, t_matmul_accum, Matrix};
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

/// Reusable buffers of [`Lstm::step_inplace`].
///
/// One scratch serves a whole stack (layers share the hidden width), so a
/// running Mimic performs zero heap allocations per packet: the buffers are
/// sized once at state creation and only ever rewritten.
#[derive(Clone, Debug)]
pub struct LstmScratch {
    /// Gate pre-activations, length `4·hidden` (gate order `i|f|g|o`).
    z: Vec<f32>,
    /// `tanh(c)`, length `hidden`.
    tanh_c: Vec<f32>,
}

impl LstmScratch {
    /// Scratch able to serve layers up to `hidden` units wide.
    pub fn new(hidden: usize) -> LstmScratch {
        LstmScratch {
            z: vec![0.0; 4 * hidden],
            tanh_c: vec![0.0; hidden],
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

/// One layer's forward record over a chunk of `steps` steps of `rows`
/// rows (one row per stream), reused from chunk to chunk: it only
/// allocates when a chunk is larger than any before it. Every per-step
/// buffer is step-major, so the rows of all steps are one contiguous
/// `(steps·rows) × width` matrix.
#[derive(Clone, Debug, Default)]
pub(crate) struct LayerTape {
    rows: usize,
    hidden: usize,
    steps: usize,
    /// Activated gates `i|f|g|o` of step `t`, `rows × 4·hidden` at
    /// `t·rows·4·hidden`.
    gates: Vec<f32>,
    /// `tanh(c)` of step `t`, `rows × hidden` at `t·rows·hidden`.
    tanh_c: Vec<f32>,
    /// Hidden state entering step `t` at `t·rows·hidden`: slot 0 is the
    /// state the chunk starts from, slot `t + 1` the output of step `t`.
    h: Vec<f32>,
    /// Cell state, laid out like `h`.
    c: Vec<f32>,
}

impl LayerTape {
    /// Shape the tape for a chunk of `steps` steps over `fresh.len()` rows.
    /// Each row enters from the state the previous chunk left it in (that
    /// chunk's last slot), or from zero where `fresh` says so. Panics if a
    /// row is to carry state the tape does not hold: on the first chunk, or
    /// after the row count or width changed.
    pub fn begin(&mut self, hidden: usize, steps: usize, fresh: &[bool]) {
        let rows = fresh.len();
        let s = rows * hidden;
        let carry = self.rows == rows && self.hidden == hidden && self.steps > 0;
        assert!(
            carry || fresh.iter().all(|&f| f),
            "no carried state of this shape: every row must be fresh"
        );
        if carry {
            let last = self.steps * s;
            self.h.copy_within(last..last + s, 0);
            self.c.copy_within(last..last + s, 0);
        }
        self.rows = rows;
        self.hidden = hidden;
        self.steps = steps;
        self.gates.resize(steps * 4 * s, 0.0);
        self.tanh_c.resize(steps * s, 0.0);
        self.h.resize((steps + 1) * s, 0.0);
        self.c.resize((steps + 1) * s, 0.0);
        for (r, &fresh) in fresh.iter().enumerate() {
            if fresh {
                self.h[r * hidden..(r + 1) * hidden].fill(0.0);
                self.c[r * hidden..(r + 1) * hidden].fill(0.0);
            }
        }
    }

    /// Hidden state after step `t` (`rows × hidden`).
    #[cfg(test)]
    pub fn h(&self, t: usize) -> &[f32] {
        let s = self.rows * self.hidden;
        &self.h[(t + 1) * s..(t + 2) * s]
    }

    /// Hidden states after every step, `(steps·rows) × hidden`: the next
    /// layer's input and the head's.
    pub fn outputs(&self) -> &[f32] {
        let s = self.rows * self.hidden;
        &self.h[s..(self.steps + 1) * s]
    }

    /// Cell state after step `t`.
    #[cfg(test)]
    fn c(&self, t: usize) -> &[f32] {
        let s = self.rows * self.hidden;
        &self.c[(t + 1) * s..(t + 2) * s]
    }
}

/// The gradients one layer passes backward through a chunk, plus its
/// scratch; reused from chunk to chunk like [`LayerTape`].
#[derive(Clone, Debug, Default)]
pub(crate) struct LayerGrad {
    /// `dL/dh` flowing back in time (`rows × hidden`); left holding
    /// `dL/dh` of the state the chunk started from.
    dh: Vec<f32>,
    /// `dL/dc`, like `dh`.
    dc: Vec<f32>,
    /// `dL/dx` of every step, `(steps·rows) × input`
    /// ([`Lstm::input_grad`]).
    pub dx: Vec<f32>,
    /// Gate pre-activation gradients of every step, `(steps·rows) × 4·hidden`.
    dz: Vec<f32>,
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

/// The cell update of one row after its gate pre-activations `z`
/// (`i|f|g|o`): activates `z` in place, then `c ← f∘c + i∘g`,
/// `tanh_c ← tanh(c)` and `h ← o∘tanh_c`. The one element-wise kernel of
/// both the training chunk and the inference step, so the two agree bit
/// for bit. The gates are activated as contiguous blocks — sigmoid over
/// `[i|f]`, tanh over `[g]`, sigmoid over `[o]` — so the branch-free
/// [`fastmath`] polynomial vectorizes across lanes; the element loops zip
/// their slices (indexed loops kept bounds checks and cost ~5 % of an
/// inference step).
#[inline(always)]
fn cell_update(z: &mut [f32], c: &mut [f32], tanh_c: &mut [f32], h: &mut [f32]) {
    let n = c.len();
    fastmath::sigmoid_slice(&mut z[..2 * n]);
    fastmath::tanh_slice(&mut z[2 * n..3 * n]);
    fastmath::sigmoid_slice(&mut z[3 * n..]);
    let (zi, rest) = z.split_at(n);
    let (zf, rest) = rest.split_at(n);
    let (zg, zo) = rest.split_at(n);
    for (((cv, &f), &i), &g) in c.iter_mut().zip(zf).zip(zi).zip(zg) {
        *cv = f * *cv + i * g;
    }
    tanh_c.copy_from_slice(c);
    fastmath::tanh_slice(tanh_c);
    for ((hv, &o), &tc) in h.iter_mut().zip(zo).zip(tanh_c.iter()) {
        *hv = o * tc;
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

    /// Gate pre-activations `z = b + x·Wx + h·Wh` for one sample: per
    /// element `b`, then the `x·Wx` fmadd chain ascending, then the `h·Wh`
    /// chain — the order [`Lstm::forward_chunk`] computes too.
    fn gate_preact(&self, z: &mut [f32], x: &[f32], h: &[f32]) {
        z.copy_from_slice(&self.b);
        matmul_accum_terms(z, 4 * self.hidden, &[(x, &self.wx.data), (h, &self.wh.data)]);
    }

    /// Forward a chunk for all rows of `tape` (begun with
    /// [`LayerTape::begin`]): `x` holds the `(steps·rows) × input` inputs,
    /// step-major. Records the activated gates, `c`, `tanh(c)` and `h` of
    /// every step.
    ///
    /// Per element the pre-activation is `b`, then the `x·Wx` chain (one
    /// product over every step of the chunk), then the `h·Wh` chain of its
    /// step — the order of [`Lstm::step_inplace`], so each step equals the
    /// inference step from the same state bit for bit.
    pub(crate) fn forward_chunk(&self, x: &[f32], tape: &mut LayerTape) {
        let (rows, h, steps) = (tape.rows, self.hidden, tape.steps);
        assert_eq!(tape.hidden, h, "tape width mismatch");
        assert_eq!(x.len(), steps * rows * self.input, "input width mismatch");
        let (s, g) = (rows * h, 4 * h);
        for z in tape.gates.chunks_exact_mut(g) {
            z.copy_from_slice(&self.b);
        }
        matmul_accum_terms(&mut tape.gates, g, &[(x, &self.wx.data)]);
        for t in 0..steps {
            let z = &mut tape.gates[t * rows * g..(t + 1) * rows * g];
            let (h_prev, h_next) = tape.h.split_at_mut((t + 1) * s);
            let (c_prev, c_next) = tape.c.split_at_mut((t + 1) * s);
            let (h_out, c_out) = (&mut h_next[..s], &mut c_next[..s]);
            matmul_accum_terms(z, g, &[(&h_prev[t * s..], &self.wh.data)]);
            c_out.copy_from_slice(&c_prev[t * s..]);
            let tanh_c = &mut tape.tanh_c[t * s..(t + 1) * s];
            for r in 0..rows {
                let rr = r * h..(r + 1) * h;
                cell_update(
                    &mut z[r * g..(r + 1) * g],
                    &mut c_out[rr.clone()],
                    &mut tanh_c[rr.clone()],
                    &mut h_out[rr],
                );
            }
        }
    }

    /// Allocation-free single-sample forward step for inference: updates
    /// `state` (batch 1) in place using `scratch`. Same arithmetic, element
    /// by element, as a step of `Lstm::forward_chunk` — this is the
    /// per-packet cost inside a running Mimic, the analogue of the paper's
    /// custom C++/ATen inference engine.
    pub fn step_inplace(&self, x: &[f32], state: &mut LstmState, scratch: &mut LstmScratch) {
        assert_eq!(x.len(), self.input, "input width mismatch");
        assert_eq!(state.h.rows, 1, "step_inplace is single-sample");
        let h = self.hidden;
        assert!(scratch.z.len() >= 4 * h, "scratch too small for layer");
        let z = &mut scratch.z[..4 * h];
        self.gate_preact(z, x, &state.h.data);
        cell_update(z, &mut state.c.data, &mut scratch.tanh_c[..h], &mut state.h.data);
    }

    /// Truncated BPTT through the chunk `tape` recorded over inputs `x`:
    /// `dh_in` holds `dL/dh` reaching each step's output from outside the
    /// layer (the head, or the layer above), `(steps·rows) × hidden`.
    /// Nothing flows in from after the chunk. Accumulates the parameter
    /// gradients into `grads`, leaving the gate gradients in `grad` for
    /// [`Lstm::input_grad`].
    ///
    /// Only the recurrence runs per step: the gate-derivative sweep
    /// (element order and arithmetic identical to the test-only
    /// `Lstm::backward_step_reference` — a pass fusion, not a
    /// reassociation) and `dz · Whᵀ`. The weight gradients are one product
    /// each over all `steps·rows` rows of the chunk.
    pub(crate) fn backward_chunk(
        &self,
        wt: &LstmTransposed,
        x: &[f32],
        tape: &LayerTape,
        dh_in: &[f32],
        grad: &mut LayerGrad,
        grads: &mut LstmGrads,
    ) {
        let (rows, h, steps) = (tape.rows, self.hidden, tape.steps);
        let (s, g) = (rows * h, 4 * h);
        assert_eq!(x.len(), steps * rows * self.input, "input width mismatch");
        assert_eq!(dh_in.len(), steps * s, "dL/dh shape mismatch");
        let LayerGrad { dh, dc, dz, .. } = grad;
        dh.clear();
        dh.resize(s, 0.0);
        dc.clear();
        dc.resize(s, 0.0);
        dz.resize(steps * rows * g, 0.0);
        for t in (0..steps).rev() {
            for (a, &b) in dh.iter_mut().zip(&dh_in[t * s..(t + 1) * s]) {
                *a += b;
            }
            let gates = &tape.gates[t * rows * g..(t + 1) * rows * g];
            let tanh_c = &tape.tanh_c[t * s..(t + 1) * s];
            let c_prev = &tape.c[t * s..(t + 1) * s];
            let dz_t = &mut dz[t * rows * g..(t + 1) * rows * g];
            for r in 0..rows {
                // Per-row slices of fixed length `h` so the compiler can
                // hoist the bounds checks and vectorize the sweep (indexed
                // accesses into eight different buffers defeat both).
                let rr = r * h..(r + 1) * h;
                let gr = &gates[r * g..(r + 1) * g];
                let (ir, rest) = gr.split_at(h);
                let (fr, rest) = rest.split_at(h);
                let (gg, or) = rest.split_at(h);
                let tcr = &tanh_c[rr.clone()];
                let cpr = &c_prev[rr.clone()];
                let dhr = &dh[rr.clone()];
                let dcr = &mut dc[rr];
                let zrow = &mut dz_t[r * g..(r + 1) * g];
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
            matmul_t_lanes(dz_t, &wt.wh_t.data, h, dh);
        }
        // Parameter gradients, one product each over the whole chunk; the
        // hidden states entering steps 0..steps are slots 0..steps.
        t_matmul_accum(x, self.input, dz, g, &mut grads.wx.data);
        t_matmul_accum(&tape.h[..steps * s], h, dz, g, &mut grads.wh.data);
        for zrow in dz.chunks_exact(g) {
            for (gb, &d) in grads.b.iter_mut().zip(zrow) {
                *gb += d;
            }
        }
    }

    /// `dL/dx` of every step of the chunk `grad` last ran backward
    /// through, into `grad.dx`: one `dz · Wxᵀ` product over the chunk.
    /// Layer 0 of a stack has no layer below it and skips this.
    pub(crate) fn input_grad(&self, wt: &LstmTransposed, grad: &mut LayerGrad) {
        let LayerGrad { dx, dz, .. } = grad;
        dx.resize(dz.len() / (4 * self.hidden) * self.input, 0.0);
        matmul_t_lanes(dz, &wt.wx_t.data, self.input, dx);
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
    use crate::matrix::fmadd;

    /// `xs` (one `rows × width` matrix per step) as one step-major slice.
    fn flat(xs: &[Matrix]) -> Vec<f32> {
        xs.iter().flat_map(|m| m.data.iter().copied()).collect()
    }

    /// Unroll `xs` (one `rows × input` matrix per step) as one chunk from
    /// the zero state.
    fn unroll(lstm: &Lstm, xs: &[Matrix]) -> LayerTape {
        let mut tape = LayerTape::default();
        tape.begin(lstm.hidden, xs.len(), &vec![true; xs[0].rows]);
        lstm.forward_chunk(&flat(xs), &mut tape);
        tape
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
    #[should_panic(expected = "every row must be fresh")]
    fn carrying_across_a_row_count_change_panics() {
        let mut tape = LayerTape::default();
        tape.begin(4, 2, &[true; 3]);
        tape.begin(4, 2, &[true, false]);
    }

    #[test]
    fn step_inplace_matches_forward_step() {
        // Bit for bit, step after step, with the chunk's rows carried
        // across chunks: 4·7 gate columns leave a ragged column tile.
        let mut rng = MlRng::new(17);
        let lstm = Lstm::new(5, 7, &mut rng);
        let mut scratch = LstmScratch::new(7);
        let mut state = LstmState::zeros(1, 7);
        let mut tape = LayerTape::default();
        for chunk in 0..3 {
            let xs: Vec<Matrix> = (0..4)
                .map(|_| Matrix::from_fn(1, 5, |_, _| rng.uniform_sym(1.0) as f32))
                .collect();
            tape.begin(7, xs.len(), &[chunk == 0]);
            lstm.forward_chunk(&flat(&xs), &mut tape);
            for (t, x) in xs.iter().enumerate() {
                lstm.step_inplace(&x.data, &mut state, &mut scratch);
                for (a, b) in state.h.data.iter().zip(tape.h(t)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "h: {a} vs {b}");
                }
                for (a, b) in state.c.data.iter().zip(tape.c(t)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "c: {a} vs {b}");
                }
            }
        }
    }

    /// The gate pre-activation chain written out element by element:
    /// `z += x · W`, one `fmadd` per row of `W`, ascending.
    fn untiled_accum(z: &mut [f32], x: &[f32], w: &Matrix) {
        let n = z.len();
        for (k, &xk) in x.iter().enumerate() {
            for (j, zv) in z.iter_mut().enumerate() {
                *zv = fmadd(xk, w.data[k * n + j], *zv);
            }
        }
    }

    #[test]
    fn gate_preact_is_bit_identical_to_the_untiled_chain() {
        // Every shape up to 70 inputs x 48 hidden units: tile remainders
        // (4·hidden not a multiple of the tile).
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
        // The optimized forward (tiled kernels + fastmath activations) must
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
        // A two-step chunk recorded by the reference forward, gradients
        // within 1e-5 whichever backward implementation processes it: the
        // reference runs step by step, carrying dL/dh and dL/dc back.
        let mut rng = MlRng::new(41);
        let (rows, hidden) = (4usize, 5usize);
        let lstm = Lstm::new(3, hidden, &mut rng);
        let xs: Vec<Matrix> = (0..2)
            .map(|_| Matrix::from_fn(rows, 3, |_, _| rng.uniform_sym(1.0) as f32))
            .collect();
        let dhs: Vec<Matrix> = (0..2)
            .map(|_| Matrix::from_fn(rows, hidden, |_, _| rng.uniform_sym(0.5) as f32))
            .collect();
        let mut state = LstmState::zeros(rows, hidden);
        let mut caches = Vec::new();
        for x in &xs {
            let (next, cache) = lstm.forward_step_reference(x, &state);
            caches.push((cache, next.clone()));
            state = next;
        }
        // The reference caches, laid out as a tape.
        let mut tape = LayerTape::default();
        tape.begin(hidden, 2, &[true; 4]);
        for (t, (cache, next)) in caches.iter().enumerate() {
            let s = rows * hidden;
            let gates: Vec<f32> = (0..rows)
                .flat_map(|r| [&cache.i, &cache.f, &cache.g, &cache.o].map(|m| m.row(r).to_vec()))
                .flatten()
                .collect();
            tape.gates[t * 4 * s..(t + 1) * 4 * s].copy_from_slice(&gates);
            tape.tanh_c[t * s..(t + 1) * s].copy_from_slice(&cache.tanh_c.data);
            tape.h[(t + 1) * s..(t + 2) * s].copy_from_slice(&next.h.data);
            tape.c[(t + 1) * s..(t + 2) * s].copy_from_slice(&next.c.data);
        }
        let mut g_ref = LstmGrads::zeros(&lstm);
        let mut dh = Matrix::zeros(rows, hidden);
        let mut dc = Matrix::zeros(rows, hidden);
        let mut dx_ref = vec![Matrix::default(); 2];
        for t in (0..2).rev() {
            dh.add_assign(&dhs[t]);
            let (dx, dh_prev, dc_prev) = lstm.backward_step_reference(&caches[t].0, &dh, &dc, &mut g_ref);
            dx_ref[t] = dx;
            (dh, dc) = (dh_prev, dc_prev);
        }
        let mut g_fused = LstmGrads::zeros(&lstm);
        let mut grad = LayerGrad::default();
        let wt = LstmTransposed::new(&lstm);
        lstm.backward_chunk(&wt, &flat(&xs), &tape, &flat(&dhs), &mut grad, &mut g_fused);
        lstm.input_grad(&wt, &mut grad);
        let close = |a: &[f32], b: &[f32], label: &str| {
            assert_eq!(a.len(), b.len(), "{label} length");
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-5, "{label}: {x} vs {y}");
            }
        };
        close(&flat(&dx_ref), &grad.dx, "dx");
        close(&dh.data, &grad.dh, "dh_prev");
        close(&dc.data, &grad.dc, "dc_prev");
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
        let (mut b1, mut b2) = (LayerGrad::default(), LayerGrad::default());
        lstm.backward_chunk(&wt, &x.data, &tape, tape.h(0), &mut b1, &mut g1);
        lstm.input_grad(&wt, &mut b1);
        lstm.backward_chunk(&wt, &x.data, &tape, tape.h(0), &mut b2, &mut g2);
        assert!(b1.dx.iter().any(|&v| v != 0.0));
        assert!(b2.dx.is_empty());
        assert_eq!(b1.dh, b2.dh);
        assert_eq!(b1.dc, b2.dc);
        assert_eq!(g1.wx.data, g2.wx.data);
        assert_eq!(g1.wh.data, g2.wh.data);
        assert_eq!(g1.b, g2.b);
    }

    #[test]
    fn bptt_gradient_check() {
        // Finite-difference check of dL/dWx, dL/dWh, dL/db over a 3-step
        // chunk with L = 0.5·Σ h_T².
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

        // Analytic gradients: dL/dh_T = h_T, nothing at earlier steps.
        let tape = unroll(&lstm, &xs);
        let s = batch * hidden;
        let mut dh_in = vec![0.0f32; steps * s];
        dh_in[(steps - 1) * s..].copy_from_slice(tape.h(steps - 1));
        let mut grads = LstmGrads::zeros(&lstm);
        lstm.backward_chunk(
            &LstmTransposed::new(&lstm),
            &flat(&xs),
            &tape,
            &dh_in,
            &mut LayerGrad::default(),
            &mut grads,
        );

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
            let mut grad = LayerGrad::default();
            lstm.backward_chunk(&wt, &x.data, &tape, tape.h(0), &mut grad, g);
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
