//! The sequence model used inside Mimics: a stack of LSTM layers plus a
//! linear head.
//!
//! Paper §5.5: "the LSTMs consist of an input layer and a stack of
//! flattened, one-dimensional hidden layers"; the number of layers is one
//! of the §7.2 tunables. Three outputs per packet, matching §5.2's
//! modeling objectives:
//!
//! | index | meaning | head |
//! |---|---|---|
//! | 0 | normalized (discretized) latency | regression (Huber) |
//! | 1 | drop logit | classification (WBCE) |
//! | 2 | ECN-mark logit | classification (BCE) |
//!
//! Two usage modes over one arithmetic:
//! * **Stateful inference** — [`SeqModel::step`] carries hidden state
//!   packet-by-packet inside a running simulation; feeder packets update
//!   the state the same way, with outputs discarded (§6). The state owns
//!   the gate scratch buffer, so stepping performs zero heap allocations.
//! * **Truncated-BPTT training** — [`SeqModel::forward_chunk`] /
//!   [`SeqModel::backward_chunk`] run a chunk of consecutive packets for
//!   several independent streams at once, carry each stream's state from
//!   the previous chunk, supervise every step and stop the gradient at
//!   the chunk's start (the chunk is `window` packets long, the network
//!   BDP per Appendix C). Each step computes the same bits as
//!   [`SeqModel::step`] from the same state. Both run on a caller-owned
//!   [`ChunkWorkspace`] that allocates nothing once sized. Gradients
//!   accumulate into a caller-owned [`ModelGrads`], so sharded training
//!   can run several backward passes over one shared `&SeqModel` (and one
//!   shared [`TransposedWeights`]) and reduce the buffers in a fixed order
//!   ([`ModelGrads::add_assign`]).

use crate::linear::{Linear, LinearGrads, LinearScratch};
use crate::lstm::{LayerGrad, LayerTape, Lstm, LstmGrads, LstmScratch, LstmState, LstmTransposed};
use crate::matrix::{fmadd, Matrix};
use crate::rng::MlRng;
use serde::{Deserialize, Serialize};

/// Output index: normalized latency.
pub const OUT_LATENCY: usize = 0;
/// Output index: drop logit.
pub const OUT_DROP: usize = 1;
/// Output index: ECN logit.
pub const OUT_ECN: usize = 2;
/// Number of model outputs.
pub const OUTPUTS: usize = 3;

/// Stacked LSTM + head, trained per direction (ingress/egress) per
/// cluster.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SeqModel {
    pub lstms: Vec<Lstm>,
    pub head: Linear,
}

/// Recurrent state of the whole stack (one [`LstmState`] per layer) plus
/// the reusable inference scratch. Not serialized: state is transient and
/// rebuilt from [`SeqModel::init_state`] at composition time.
#[derive(Clone, Debug)]
pub struct ModelState {
    pub layers: Vec<LstmState>,
    scratch: LstmScratch,
}

/// Gradients for every parameter of a [`SeqModel`], in the model's
/// canonical layer order.
#[derive(Clone, Debug)]
pub struct ModelGrads {
    pub lstms: Vec<LstmGrads>,
    pub head: LinearGrads,
}

impl ModelGrads {
    /// Reset all gradients to zero (buffer reuse across batches).
    pub fn zero(&mut self) {
        for g in &mut self.lstms {
            g.zero();
        }
        self.head.zero();
    }

    /// Accumulate another buffer: `self += other`. Reduction order is the
    /// caller's responsibility — training adds shard buffers in
    /// shard-index order, so the summation tree is fixed.
    pub fn add_assign(&mut self, other: &ModelGrads) {
        assert_eq!(self.lstms.len(), other.lstms.len(), "grad depth mismatch");
        for (a, b) in self.lstms.iter_mut().zip(&other.lstms) {
            a.add_assign(b);
        }
        self.head.add_assign(&other.head);
    }

    /// Global L2 norm over all gradients.
    pub fn norm(&self) -> f32 {
        let mut total = 0.0f32;
        for g in &self.lstms {
            total += g.wx.data.iter().map(|v| v * v).sum::<f32>();
            total += g.wh.data.iter().map(|v| v * v).sum::<f32>();
            total += g.b.iter().map(|v| v * v).sum::<f32>();
        }
        total += self.head.w.data.iter().map(|v| v * v).sum::<f32>();
        total += self.head.b.iter().map(|v| v * v).sum::<f32>();
        total.sqrt()
    }

    /// Clip all gradients to a global norm (BPTT stability).
    pub fn clip_to_norm(&mut self, max_norm: f32) {
        let total = self.norm();
        if total > max_norm {
            let k = max_norm / total;
            for g in &mut self.lstms {
                g.wx.scale(k);
                g.wh.scale(k);
                g.b.iter_mut().for_each(|v| *v *= k);
            }
            self.head.w.scale(k);
            self.head.b.iter_mut().for_each(|v| *v *= k);
        }
    }
}

/// Reusable buffers of one forward + backward chunk over a set of
/// streams: one [`LayerTape`] and one [`LayerGrad`] per layer (the tapes
/// also hold each stream's state between chunks), the head's scratch and
/// the predictions. Sized by the first chunk and only rewritten after that.
#[derive(Clone, Debug, Default)]
pub struct ChunkWorkspace {
    tapes: Vec<LayerTape>,
    grads: Vec<LayerGrad>,
    head: LinearScratch,
    /// Predictions of every step of the last forward chunk,
    /// `(steps·rows) × OUTPUTS`, step-major.
    y: Matrix,
}

/// The transposed weight copies the backward pass reads, one
/// [`LstmTransposed`] per layer: refreshed once per optimizer step and
/// shared read-only by every shard.
#[derive(Clone, Debug)]
pub struct TransposedWeights {
    lstms: Vec<LstmTransposed>,
}

impl TransposedWeights {
    /// Re-transpose after `model`'s weights changed, reusing the buffers.
    pub fn refresh(&mut self, model: &SeqModel) {
        assert_eq!(self.lstms.len(), model.lstms.len(), "depth mismatch");
        for (t, l) in self.lstms.iter_mut().zip(&model.lstms) {
            t.refresh(l);
        }
    }
}

impl SeqModel {
    /// A single-layer model reading `input` features with `hidden` units.
    pub fn new(input: usize, hidden: usize, seed: u64) -> SeqModel {
        SeqModel::new_stacked(input, hidden, 1, seed)
    }

    /// A `layers`-deep stack (layer 0 reads the features; deeper layers
    /// read the previous layer's hidden sequence).
    pub fn new_stacked(input: usize, hidden: usize, layers: usize, seed: u64) -> SeqModel {
        assert!(layers >= 1, "need at least one LSTM layer");
        let mut rng = MlRng::new(seed);
        let lstms = (0..layers)
            .map(|l| Lstm::new(if l == 0 { input } else { hidden }, hidden, &mut rng))
            .collect();
        SeqModel {
            lstms,
            head: Linear::new(hidden, OUTPUTS, &mut rng),
        }
    }

    pub fn input_dim(&self) -> usize {
        self.lstms[0].input
    }

    pub fn hidden_dim(&self) -> usize {
        self.lstms.last().expect("nonempty stack").hidden
    }

    pub fn num_layers(&self) -> usize {
        self.lstms.len()
    }

    /// A zeroed gradient buffer matching this model's shapes.
    pub fn new_grads(&self) -> ModelGrads {
        ModelGrads {
            lstms: self.lstms.iter().map(LstmGrads::zeros).collect(),
            head: LinearGrads::zeros(&self.head),
        }
    }

    /// The transposed weight copies [`SeqModel::backward_chunk`] reads.
    pub fn transposed(&self) -> TransposedWeights {
        TransposedWeights {
            lstms: self.lstms.iter().map(LstmTransposed::new).collect(),
        }
    }

    /// Run one chunk for `fresh.len()` streams: `xs` holds
    /// `steps × streams` feature rows, step-major (row `t·streams + r` is
    /// step `t` of stream `r`). Stream `r` starts from zero if `fresh[r]`,
    /// else from the state the previous chunk on `ws` left it in (which
    /// must have run over as many streams; the first chunk on `ws` is all
    /// fresh). Returns
    /// the `(steps·streams) × 3` predictions of every step, recording in
    /// `ws` what [`SeqModel::backward_chunk`] needs.
    pub fn forward_chunk<'w>(
        &self,
        xs: &[f32],
        fresh: &[bool],
        ws: &'w mut ChunkWorkspace,
    ) -> &'w Matrix {
        let (rows, f) = (fresh.len(), self.input_dim());
        assert!(rows > 0 && !xs.is_empty(), "empty chunk");
        let steps = xs.len() / (rows * f);
        assert_eq!(xs.len(), steps * rows * f, "input width mismatch");
        ws.tapes.resize_with(self.lstms.len(), LayerTape::default);
        for (tape, l) in ws.tapes.iter_mut().zip(&self.lstms) {
            tape.begin(l.hidden, steps, fresh);
        }
        let (first, above) = ws.tapes.split_first_mut().expect("nonempty stack");
        self.lstms[0].forward_chunk(xs, first);
        let mut below: &LayerTape = first;
        for (lstm, tape) in self.lstms[1..].iter().zip(above) {
            lstm.forward_chunk(below.outputs(), tape);
            below = tape;
        }
        self.head.forward(below.outputs(), &mut ws.y);
        &ws.y
    }

    /// Backpropagate `dL/dy` (one row per prediction of the chunk `ws`
    /// recorded over the same `xs`) through the chunk, accumulating
    /// gradients into `grads`. The gradient stops at the chunk's start
    /// (truncated BPTT). `wt` must be [`SeqModel::transposed`] of the
    /// current weights.
    pub fn backward_chunk(
        &self,
        wt: &TransposedWeights,
        xs: &[f32],
        dy: &Matrix,
        ws: &mut ChunkWorkspace,
        grads: &mut ModelGrads,
    ) {
        let ChunkWorkspace {
            tapes,
            grads: flows,
            head,
            ..
        } = ws;
        let top = tapes.last().expect("nonempty stack");
        // The head, over every step at once: `head.dx` is the top layer's
        // dL/dh at each step.
        self.head.backward(top.outputs(), dy, &mut grads.head, head);
        flows.resize_with(self.lstms.len(), LayerGrad::default);
        for l in (0..self.lstms.len()).rev() {
            let (lower, upper) = flows.split_at_mut(l + 1);
            let dh_in = match upper.first() {
                Some(above) => &above.dx,
                None => &head.dx,
            };
            let x = if l == 0 { xs } else { tapes[l - 1].outputs() };
            let lstm = &self.lstms[l];
            lstm.backward_chunk(&wt.lstms[l], x, &tapes[l], dh_in, &mut lower[l], &mut grads.lstms[l]);
            // Layer 0 has nothing below it — skip its dL/dx product.
            if l > 0 {
                lstm.input_grad(&wt.lstms[l], &mut lower[l]);
            }
        }
    }

    /// Visit all `(params, grads)` pairs in canonical order.
    pub fn visit_params(
        &mut self,
        grads: &mut ModelGrads,
        f: &mut impl FnMut(&mut [f32], &mut [f32]),
    ) {
        assert_eq!(self.lstms.len(), grads.lstms.len(), "grad depth mismatch");
        for (lstm, g) in self.lstms.iter_mut().zip(&mut grads.lstms) {
            lstm.visit(g, f);
        }
        self.head.visit(&mut grads.head, f);
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.lstms.iter().map(|l| l.param_count()).sum::<usize>() + self.head.param_count()
    }

    /// A fresh single-packet inference state with pre-sized scratch: no
    /// further allocation happens on the stepping path.
    pub fn init_state(&self) -> ModelState {
        let max_hidden = self.lstms.iter().map(|l| l.hidden).max().unwrap_or(0);
        ModelState {
            layers: self
                .lstms
                .iter()
                .map(|l| LstmState::zeros(1, l.hidden))
                .collect(),
            scratch: LstmScratch::new(max_hidden),
        }
    }

    /// Stateful single-packet inference: update `state` with the feature
    /// vector `x` and return `[latency, drop_logit, ecn_logit]`.
    pub fn step(&self, x: &[f32], state: &mut ModelState) -> [f32; OUTPUTS] {
        self.step_state_only(x, state);
        // Head: walk W row-contiguously, three multiply-adds per hidden
        // unit, no per-output strided passes.
        // Per output `b`, then the ascending `h·W` fmadd chain: the order
        // of `Linear::forward`, so training predicts the same bits.
        let h = &state.layers.last().expect("nonempty stack").h.data;
        let mut out = [0.0f32; OUTPUTS];
        out.copy_from_slice(&self.head.b);
        for (j, &hj) in h.iter().enumerate() {
            let wrow = &self.head.w.data[j * OUTPUTS..(j + 1) * OUTPUTS];
            for (o, &w) in out.iter_mut().zip(wrow) {
                *o = fmadd(hj, w, *o);
            }
        }
        out
    }

    /// Update `state` without computing outputs (feeder packets: "internal
    /// models' hidden state is updated as if the packets were routed",
    /// outputs discarded — §6).
    pub fn step_state_only(&self, x: &[f32], state: &mut ModelState) {
        assert_eq!(x.len(), self.lstms[0].input, "feature width mismatch");
        assert_eq!(state.layers.len(), self.lstms.len(), "state depth mismatch");
        let ModelState { layers, scratch } = state;
        self.lstms[0].step_inplace(x, &mut layers[0], scratch);
        for l in 1..self.lstms.len() {
            // Split so the previous layer's output can be read while this
            // layer's state is written — no copy, no allocation.
            let (prev, rest) = layers.split_at_mut(l);
            self.lstms[l].step_inplace(&prev[l - 1].h.data, &mut rest[0], scratch);
        }
    }

    /// Serialize to JSON (model persistence).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serializes")
    }

    /// Load from JSON.
    pub fn from_json(s: &str) -> Result<SeqModel, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `steps × streams` random feature rows of width `f`, step-major.
    fn chunk_inputs(steps: usize, streams: usize, f: usize, rng: &mut MlRng) -> Vec<f32> {
        (0..steps * streams * f).map(|_| rng.uniform_sym(1.0) as f32).collect()
    }

    #[test]
    fn chunk_forward_shapes() {
        let m = SeqModel::new(4, 6, 1);
        let xs = vec![0.0f32; 5 * 3 * 4];
        let mut ws = ChunkWorkspace::default();
        let y = m.forward_chunk(&xs, &[true; 3], &mut ws);
        assert_eq!((y.rows, y.cols), (5 * 3, OUTPUTS));
        let m2 = SeqModel::new_stacked(4, 6, 3, 1);
        let mut ws = ChunkWorkspace::default();
        let y2 = m2.forward_chunk(&xs[..5 * 2 * 4], &[true; 2], &mut ws);
        assert_eq!((y2.rows, y2.cols), (5 * 2, OUTPUTS));
        assert_eq!(m2.num_layers(), 3);
    }

    fn gradient_check(layers: usize) {
        // L = 0.5 Σ y² over every step of one chunk of two streams; check
        // head and lstm params.
        let mut rng = MlRng::new(5);
        let mut m = SeqModel::new_stacked(3, 4, layers, 2);
        let xs = chunk_inputs(3, 2, 3, &mut rng);
        let loss = |m: &SeqModel| -> f64 {
            let mut ws = ChunkWorkspace::default();
            let y = m.forward_chunk(&xs, &[true; 2], &mut ws);
            y.data.iter().map(|&v| 0.5 * v as f64 * v as f64).sum()
        };
        let mut ws = ChunkWorkspace::default();
        let y = m.forward_chunk(&xs, &[true; 2], &mut ws).clone();
        let mut grads = m.new_grads();
        m.backward_chunk(&m.transposed(), &xs, &y, &mut ws, &mut grads);
        let eps = 2e-3f32;
        for layer in 0..layers {
            let layer_grads = grads.lstms[layer].wx.data.clone();
            for idx in [0usize, 7] {
                let orig = m.lstms[layer].wx.data[idx];
                m.lstms[layer].wx.data[idx] = orig + eps;
                let up = loss(&m);
                m.lstms[layer].wx.data[idx] = orig - eps;
                let dn = loss(&m);
                m.lstms[layer].wx.data[idx] = orig;
                let fd = ((up - dn) / (2.0 * eps as f64)) as f32;
                let an = layer_grads[idx];
                assert!(
                    (fd - an).abs() / (fd.abs() + an.abs()).max(5e-3) < 0.08,
                    "layer {layer} wx[{idx}]: fd {fd} vs {an}"
                );
            }
        }
        let head_grads = grads.head.w.data.clone();
        for idx in [0usize, 5, 11] {
            let orig = m.head.w.data[idx];
            m.head.w.data[idx] = orig + eps;
            let up = loss(&m);
            m.head.w.data[idx] = orig - eps;
            let dn = loss(&m);
            m.head.w.data[idx] = orig;
            let fd = ((up - dn) / (2.0 * eps as f64)) as f32;
            let an = head_grads[idx];
            assert!(
                (fd - an).abs() / (fd.abs() + an.abs()).max(5e-3) < 0.08,
                "head.w[{idx}]: fd {fd} vs {an}"
            );
        }
    }

    #[test]
    fn end_to_end_gradient_check_single_layer() {
        gradient_check(1);
    }

    #[test]
    fn end_to_end_gradient_check_two_layers() {
        gradient_check(2);
    }

    #[test]
    fn training_forward_matches_stateful_step_bit_for_bit() {
        // Two streams through three chunks of 4 packets and a ragged one
        // of 3, state carried: every step's three outputs must equal, bit
        // for bit, `step` over the same stream from `init_state`. Hidden
        // width 7 leaves ragged column tiles (4·7 = 16 + 8 + 4).
        let chunks = [4usize, 4, 4, 3];
        let (f, hidden, streams) = (5usize, 7usize, 2usize);
        for layers in [1usize, 2] {
            let m = SeqModel::new_stacked(f, hidden, layers, 9);
            let mut rng = MlRng::new(4);
            let mut ws = ChunkWorkspace::default();
            let mut states = vec![m.init_state(); streams];
            for (c, &steps) in chunks.iter().enumerate() {
                let xs = chunk_inputs(steps, streams, f, &mut rng);
                let y = m.forward_chunk(&xs, &[c == 0; 2], &mut ws);
                for t in 0..steps {
                    for (r, state) in states.iter_mut().enumerate() {
                        let row = (t * streams + r) * f;
                        let want = m.step(&xs[row..row + f], state);
                        for (k, (g, w)) in y.row(t * streams + r).iter().zip(want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "layers {layers} chunk {c} step {t} stream {r} output {k}: {g} vs {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn state_only_step_advances_state() {
        let m = SeqModel::new(2, 4, 3);
        let mut s1 = m.init_state();
        let mut s2 = m.init_state();
        m.step_state_only(&[1.0, -1.0], &mut s1);
        assert_ne!(s1.layers[0].h.data, s2.layers[0].h.data);
        // Equivalent to a full step, state-wise.
        m.step(&[1.0, -1.0], &mut s2);
        assert_eq!(s1.layers[0].h.data, s2.layers[0].h.data);
    }

    #[test]
    fn gradient_clipping_bounds_norm() {
        let m = SeqModel::new_stacked(3, 4, 2, 7);
        let mut grads = m.new_grads();
        for g in &mut grads.lstms {
            g.wx.data.fill(10.0);
            g.wh.data.fill(10.0);
            g.b.fill(10.0);
        }
        grads.head.w.data.fill(10.0);
        grads.head.b.fill(10.0);
        grads.clip_to_norm(1.0);
        assert!((grads.norm() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn grad_buffers_reduce_in_order() {
        // Reducing two identical shard buffers [g, g] must equal 2g.
        let m = SeqModel::new(3, 4, 21);
        let xs: Vec<f32> = (0..2 * 2 * 3).map(|i| (i % 5) as f32 * 0.1).collect();
        let mut ws = ChunkWorkspace::default();
        let y = m.forward_chunk(&xs, &[true; 2], &mut ws).clone();
        let wt = m.transposed();
        let mut g1 = m.new_grads();
        m.backward_chunk(&wt, &xs, &y, &mut ws, &mut g1);
        let mut g2 = m.new_grads();
        m.backward_chunk(&wt, &xs, &y, &mut ws, &mut g2);
        let mut sum = m.new_grads();
        sum.add_assign(&g1);
        sum.add_assign(&g2);
        for (s, g) in sum.head.w.data.iter().zip(&g1.head.w.data) {
            assert!((s - 2.0 * g).abs() < 1e-6);
        }
    }

    #[test]
    fn serde_roundtrip_preserves_behavior() {
        let m = SeqModel::new_stacked(4, 6, 2, 42);
        let json = m.to_json();
        let m2 = SeqModel::from_json(&json).unwrap();
        let x = vec![0.3f32, -0.2, 0.9, 0.0];
        let mut s1 = m.init_state();
        let mut s2 = m2.init_state();
        assert_eq!(m.step(&x, &mut s1), m2.step(&x, &mut s2));
    }

    #[test]
    fn param_count_matches_dims() {
        let m = SeqModel::new(10, 8, 1);
        let lstm = 10 * 32 + 8 * 32 + 32;
        let head = 8 * 3 + 3;
        assert_eq!(m.param_count(), lstm + head);
        let m2 = SeqModel::new_stacked(10, 8, 2, 1);
        let lstm2 = 8 * 32 + 8 * 32 + 32;
        assert_eq!(m2.param_count(), lstm + lstm2 + head);
    }

    #[test]
    fn deeper_stacks_still_learn() {
        // A 2-layer stack trained on a simple signal must fit it.
        use crate::dataset::PacketDataset;
        use crate::loss::Target;
        use crate::train::{train, TrainConfig};
        let mut d = PacketDataset::default();
        for i in 0..400 {
            let hot = (i / 10) % 2 == 0;
            d.push(
                vec![if hot { 1.0 } else { 0.0 }],
                Target {
                    latency: if hot { 0.8 } else { 0.2 },
                    dropped: 0.0,
                    ecn: 0.0,
                },
            );
        }
        let mut m = SeqModel::new_stacked(1, 8, 2, 3);
        let cfg = TrainConfig {
            epochs: 6,
            window: 4,
            ..TrainConfig::default()
        };
        let report = train(&mut m, &d, &cfg, &mut dcn_obs::Obs::off(), "train")
            .expect("valid training setup");
        assert!(report.final_loss().expect("epochs ran") < report.epoch_losses[0]);
    }
}
