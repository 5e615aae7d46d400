//! The training loop for internal models: stateful truncated BPTT.
//!
//! ## Streams and chunks
//!
//! Each epoch lays the trace out as B = ⌈`batch_size` / `window`⌉
//! contiguous streams ([`Streams`]) and steps them side by side in chunks
//! of `window` packets. Each stream's (h, c) carries from chunk to chunk,
//! exactly as `SeqModel::step` carries it through a running Mimic; every
//! step is supervised, and the gradient is truncated at the chunk's
//! start. One chunk is one optimizer step over B·`window` ≈ `batch_size`
//! supervised packets, so an epoch still takes ≈ N / `batch_size` steps
//! and supervises every packet once. A seed-drawn phase moves the stream
//! boundaries each epoch.
//!
//! ## Fixed shards, fixed reduction order
//!
//! The streams of a chunk are cut into fixed-size contiguous shards of
//! `SHARD_ROWS` streams. A shard is the unit of work: forward + backward
//! into a private [`ModelGrads`] buffer, then all shard buffers are
//! reduced **in shard-index order** into one gradient. The shard layout
//! and the reduction order depend only on the stream count, so the
//! floating-point summation tree — and every trained parameter bit — is
//! pinned by test (floating-point addition is not associative). [`train`]
//! runs on the calling thread; parallelism lives one level up, where
//! `mimicnet::pipeline` trains whole models concurrently.

use crate::dataset::{PacketDataset, Streams};
use crate::loss::{CombinedLoss, Target};
use crate::matrix::Matrix;
use crate::model::{ChunkWorkspace, ModelGrads, SeqModel, TransposedWeights, OUTPUTS};
use crate::optim::Adam;
use crate::rng::MlRng;

/// Hyperparameters of one training run (the things §7.2 tunes).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    /// Supervised packets per optimizer step: ⌈`batch_size` / `window`⌉
    /// streams of one `window`-packet chunk each.
    pub batch_size: usize,
    /// Truncation length of BPTT in packets (chunk length).
    pub window: usize,
    pub lr: f32,
    pub loss: CombinedLoss,
    pub seed: u64,
    /// Thread budget of the pipeline's training job queue
    /// (`mimicnet::pipeline`), which trains whole models concurrently.
    /// [`train`] itself ignores it: one run is single-threaded.
    pub workers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 6,
            batch_size: 32,
            window: 12, // ≈ BDP in packets (paper Appendix C)
            lr: 3e-3,
            loss: CombinedLoss::default(),
            seed: 1,
            workers: 1,
        }
    }
}

/// Per-epoch training record.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Total optimizer steps taken.
    pub steps: usize,
    /// Learning-rate backoffs triggered by non-finite epoch losses.
    pub backoffs: usize,
}

impl TrainReport {
    /// The last epoch's mean loss, if any epoch ran.
    pub fn final_loss(&self) -> Option<f64> {
        self.epoch_losses.last().copied()
    }
}

/// Why a training run could not proceed.
#[derive(Clone, Debug, PartialEq)]
pub enum TrainError {
    /// The dataset contains no samples.
    EmptyDataset,
    /// Feature width does not match the model's input dimension.
    WidthMismatch { data: usize, model: usize },
    /// The loss stayed non-finite even after rolling back to the best
    /// parameters and backing the learning rate off repeatedly — the data
    /// or hyperparameters are pathological.
    NonFiniteLoss { epoch: usize },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "cannot train on an empty dataset"),
            TrainError::WidthMismatch { data, model } => write!(
                f,
                "feature width mismatch: dataset has {data} features, model expects {model}"
            ),
            TrainError::NonFiniteLoss { epoch } => write!(
                f,
                "training diverged: loss stayed non-finite through epoch {epoch} despite LR backoff"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// Global gradient-norm clip (BPTT stability).
const CLIP: f32 = 5.0;

/// Consecutive non-finite epochs tolerated (each rolls back to the best
/// parameters and halves the learning rate) before giving up.
const MAX_BACKOFFS: usize = 3;

/// Streams per gradient shard. Fixed, so the floating-point reduction
/// tree is a function of the stream count alone.
const SHARD_ROWS: usize = 16;

/// One shard's reusable state: the chunk's inputs and targets for its
/// streams, its private gradient buffer, the chunk workspace its forward
/// and backward run on (which also carries its streams' state from chunk
/// to chunk), `dL/dy`, and its summed loss. Sized by the first chunk;
/// later chunks allocate nothing.
struct Shard {
    /// The shard's first stream.
    first: usize,
    /// Inputs, `window × streams` feature rows, step-major.
    xs: Vec<f32>,
    /// Targets aligned with the rows of `xs`; `None` on padding.
    targets: Vec<Option<Target>>,
    /// Which streams start this chunk from the zero state.
    fresh: Vec<bool>,
    grads: ModelGrads,
    ws: ChunkWorkspace,
    dy: Matrix,
    loss: f64,
}

impl Shard {
    /// Gather chunk `chunk` of the shard's streams from `data`.
    fn gather(&mut self, data: &PacketDataset, layout: &Streams, window: usize, chunk: usize) {
        let (width, rows) = (data.width(), self.fresh.len());
        self.xs.resize(window * rows * width, 0.0);
        self.targets.clear();
        for t in 0..window {
            for r in 0..rows {
                let row = &mut self.xs[(t * rows + r) * width..][..width];
                match layout.index(self.first + r, chunk * window + t) {
                    Some(i) => {
                        row.copy_from_slice(&data.features[i]);
                        self.targets.push(Some(data.targets[i]));
                    }
                    None => {
                        row.fill(0.0);
                        self.targets.push(None);
                    }
                }
            }
        }
        for (r, fresh) in self.fresh.iter_mut().enumerate() {
            *fresh = layout.fresh(self.first + r, chunk);
        }
    }
}

/// Forward + backward the shard's gathered chunk into `shard.grads` and
/// `shard.loss`. `dL/dy` is `scale` (one over the chunk's supervised
/// packets, across shards) times the loss gradient, so the reduced
/// gradient is the chunk mean; padding rows get none.
fn process_shard(
    model: &SeqModel,
    wt: &TransposedWeights,
    loss_fn: &CombinedLoss,
    scale: f32,
    shard: &mut Shard,
) {
    let y = model.forward_chunk(&shard.xs, &shard.fresh, &mut shard.ws);
    shard.dy.resize(y.rows, OUTPUTS);
    let mut loss_sum = 0.0f64;
    for (i, t) in shard.targets.iter().enumerate() {
        let dy = shard.dy.row_mut(i);
        match t {
            Some(t) => {
                let (loss, g) = loss_fn.eval(y.row(i), t);
                loss_sum += loss as f64;
                for (o, &gv) in dy.iter_mut().zip(g.iter()) {
                    *o = gv * scale;
                }
            }
            None => dy.fill(0.0),
        }
    }
    shard.loss = loss_sum;
    shard.grads.zero();
    model.backward_chunk(wt, &shard.xs, &shard.dy, &mut shard.ws, &mut shard.grads);
}

/// Train `model` on `data` in place; returns the loss trajectory.
///
/// Robustness: if an epoch's mean loss comes back NaN/Inf (exploded
/// gradients), the model is rolled back to the best parameters seen so
/// far, the learning rate is halved, and the epoch retried — up to
/// `MAX_BACKOFFS` consecutive times before erroring out. On a
/// non-divergent run this costs one model clone per improving epoch and
/// changes nothing else.
///
/// Telemetry: with `obs` on, one `train.epoch` span per epoch,
/// `{prefix}.epoch_loss` and `{prefix}.epoch_throughput_sps` series, a
/// pre-clip gradient-norm histogram (`{prefix}.grad_norm_milli`, in
/// 1/1000ths so sub-unit norms land in distinct log2 buckets), and
/// step/backoff counters. With an off recorder every record call is a
/// no-op behind one branch; numerics are identical either way.
pub fn train(
    model: &mut SeqModel,
    data: &PacketDataset,
    cfg: &TrainConfig,
    obs: &mut dcn_obs::Obs,
    prefix: &str,
) -> Result<TrainReport, TrainError> {
    if data.is_empty() {
        return Err(TrainError::EmptyDataset);
    }
    if data.width() != model.input_dim() {
        return Err(TrainError::WidthMismatch {
            data: data.width(),
            model: model.input_dim(),
        });
    }
    assert!(cfg.window >= 1, "window must be at least one packet");
    let mut lr = cfg.lr;
    let mut opt = Adam::new(lr);
    let mut rng = MlRng::new(cfg.seed);
    let mut report = TrainReport::default();
    let mut best: Option<(SeqModel, f64)> = None;
    let mut consecutive_bad = 0usize;
    let mut epoch = 0usize;

    // Reusable buffers: one slot per shard of streams, the reduction
    // target and the transposed weights every shard's backward reads.
    let streams = cfg.batch_size.max(1).div_ceil(cfg.window);
    let mut shards: Vec<Shard> = (0..streams.div_ceil(SHARD_ROWS))
        .map(|s| Shard {
            first: s * SHARD_ROWS,
            xs: Vec::new(),
            targets: Vec::new(),
            fresh: vec![false; SHARD_ROWS.min(streams - s * SHARD_ROWS)],
            grads: model.new_grads(),
            ws: ChunkWorkspace::default(),
            dy: Matrix::default(),
            loss: 0.0,
        })
        .collect();
    let mut grad_buf = model.new_grads();
    let mut wt = model.transposed();

    while epoch < cfg.epochs {
        let epoch_t0 = obs.is_on().then(std::time::Instant::now);
        obs.begin("train.epoch", "train", None);
        let layout = Streams::draw(data.len(), streams, cfg.window, &mut rng);
        let mut epoch_loss = 0.0f64;
        let mut samples = 0usize;
        let mut steps = 0usize;
        for chunk in 0..layout.chunks() {
            for shard in &mut shards {
                shard.gather(data, &layout, cfg.window, chunk);
            }
            // Padding is shorter than one chunk of every stream, so every
            // chunk supervises something.
            let supervised: usize = shards
                .iter()
                .map(|s| s.targets.iter().filter(|t| t.is_some()).count())
                .sum();
            // Once per optimizer step (and after any rollback).
            wt.refresh(model);
            let scale = 1.0 / supervised as f32;
            for shard in &mut shards {
                process_shard(model, &wt, &cfg.loss, scale, shard);
            }
            // Fixed-order reduction: shard 0, 1, 2, …
            grad_buf.zero();
            for shard in &shards {
                grad_buf.add_assign(&shard.grads);
                epoch_loss += shard.loss;
            }
            samples += supervised;
            if obs.is_on() {
                obs.hist_observe(
                    format!("{prefix}.grad_norm_milli"),
                    (grad_buf.norm() as f64 * 1000.0) as u64,
                );
            }
            grad_buf.clip_to_norm(CLIP);
            let mut step = opt.step();
            model.visit_params(&mut grad_buf, &mut |p, g| step.apply(p, g));
            steps += 1;
        }
        let mean = epoch_loss / samples.max(1) as f64;
        obs.end(None);
        if !mean.is_finite() {
            consecutive_bad += 1;
            report.backoffs += 1;
            if obs.is_on() {
                obs.counter_add(format!("{prefix}.backoffs"), 1);
            }
            if consecutive_bad > MAX_BACKOFFS {
                if let Some((best, _)) = best {
                    *model = best;
                }
                return Err(TrainError::NonFiniteLoss { epoch });
            }
            // Roll back to the best parameters (or reinitialize the
            // optimizer on the current ones if no epoch succeeded yet)
            // and retry this epoch at half the learning rate.
            if let Some((best, _)) = &best {
                *model = best.clone();
            }
            lr *= 0.5;
            opt = Adam::new(lr);
            continue;
        }
        consecutive_bad = 0;
        report.steps += steps;
        report.epoch_losses.push(mean);
        if obs.is_on() {
            obs.series_push(format!("{prefix}.epoch_loss"), mean);
            obs.counter_add(format!("{prefix}.steps"), steps as u64);
            if let Some(t0) = epoch_t0 {
                let secs = t0.elapsed().as_secs_f64().max(1e-9);
                obs.series_push(format!("{prefix}.epoch_throughput_sps"), samples as f64 / secs);
            }
        }
        if best.as_ref().is_none_or(|(_, b)| mean < *b) {
            best = Some((model.clone(), mean));
        }
        epoch += 1;
    }
    Ok(report)
}

/// Mean combined loss of the served predictor on a held-out trace: one
/// in-order pass from `init_state`, each packet scored by
/// [`SeqModel::step`] from the state its predecessors left, as
/// `InternalModel::predict` runs inside a Mimic. Only `cfg.loss` is read.
pub fn evaluate(model: &SeqModel, data: &PacketDataset, cfg: &TrainConfig) -> f64 {
    let mut state = model.init_state();
    let total: f64 = data
        .features
        .iter()
        .zip(&data.targets)
        .map(|(x, t)| cfg.loss.eval(&model.step(x, &mut state), t).0 as f64)
        .sum();
    total / data.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Target;

    /// [`train`] with telemetry off.
    fn train_plain(
        model: &mut SeqModel,
        data: &PacketDataset,
        cfg: &TrainConfig,
    ) -> Result<TrainReport, TrainError> {
        train(model, data, cfg, &mut dcn_obs::Obs::off(), "train")
    }

    /// A synthetic learnable task: latency = 0.8 if feature[0] was high in
    /// the recent past, else 0.2; drop if feature[1] high.
    fn synthetic(n: usize, seed: u64) -> PacketDataset {
        let mut rng = MlRng::new(seed);
        let mut d = PacketDataset::default();
        let mut burst = 0usize;
        for _ in 0..n {
            if rng.next_f64() < 0.1 {
                burst = 4;
            }
            let hot = burst > 0;
            burst = burst.saturating_sub(1);
            let f0 = if hot { 1.0 } else { 0.0 };
            let f1 = rng.next_f64() as f32;
            d.push(
                vec![f0, f1],
                Target {
                    latency: if hot { 0.8 } else { 0.2 },
                    dropped: if f1 > 0.9 { 1.0 } else { 0.0 },
                    ecn: 0.0,
                },
            );
        }
        d
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let data = synthetic(600, 3);
        let mut model = SeqModel::new(2, 8, 42);
        let cfg = TrainConfig {
            epochs: 5,
            window: 4,
            ..TrainConfig::default()
        };
        let report = train_plain(&mut model, &data, &cfg).expect("valid training setup");
        assert_eq!(report.epoch_losses.len(), 5);
        let first = report.epoch_losses[0];
        let last = report.final_loss().expect("epochs ran");
        assert!(
            last < first * 0.9,
            "no learning: first {first}, last {last}"
        );
    }

    #[test]
    fn model_learns_latency_signal() {
        let data = synthetic(1200, 5);
        let mut model = SeqModel::new(2, 12, 7);
        let cfg = TrainConfig {
            epochs: 8,
            window: 4,
            ..TrainConfig::default()
        };
        train_plain(&mut model, &data, &cfg).expect("valid training setup");
        // Compare predictions on hot vs cold windows.
        let mut state = model.init_state();
        let mut hot_pred = 0.0;
        for _ in 0..4 {
            hot_pred = model.step(&[1.0, 0.1], &mut state)[0];
        }
        let mut state = model.init_state();
        let mut cold_pred = 0.0;
        for _ in 0..4 {
            cold_pred = model.step(&[0.0, 0.1], &mut state)[0];
        }
        assert!(
            hot_pred > cold_pred + 0.2,
            "hot {hot_pred} vs cold {cold_pred}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let data = synthetic(300, 9);
        let cfg = TrainConfig {
            epochs: 2,
            window: 3,
            ..TrainConfig::default()
        };
        let run = || {
            let mut m = SeqModel::new(2, 6, 11);
            train_plain(&mut m, &data, &cfg).expect("valid training setup");
            m.to_json()
        };
        assert_eq!(run(), run());
    }

    /// 64-bit FNV-1a of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Trained parameters are pinned to the bit: the hashes below were
    /// recorded when training became stateful truncated BPTT on the
    /// inference step's gate kernel, so any change to a kernel's
    /// per-element arithmetic order, the stream layout or the reduction
    /// order fails here; re-record them only when the trajectory is meant
    /// to move. The 2-layer model exercises the `dz·Wxᵀ` path of the upper
    /// layer, and batch 72 at window 4 makes 18 streams: a ragged second
    /// shard, and padding at the trace's end. The constants assume the
    /// hardware FMA that `fmadd` contracts into.
    #[cfg(any(target_feature = "fma", target_arch = "aarch64"))]
    #[test]
    fn training_parameters_are_pinned() {
        let data = synthetic(300, 9);
        for (layers, hidden, batch_size, want) in [
            (1usize, 6usize, 32usize, 0xe2a7_8b9c_8845_1272u64),
            (2, 12, 72, 0x3851_be3c_be2b_6590),
        ] {
            let cfg = TrainConfig {
                epochs: 2,
                window: 4,
                batch_size,
                ..TrainConfig::default()
            };
            let mut m = SeqModel::new_stacked(2, hidden, layers, 11);
            train_plain(&mut m, &data, &cfg).expect("valid training setup");
            let got = fnv1a(m.to_json().as_bytes());
            assert_eq!(got, want, "layers {layers}: {got:#018x}");
        }
    }

    #[test]
    fn observed_training_records_series_and_matches_report() {
        let data = synthetic(300, 9);
        let cfg = TrainConfig {
            epochs: 3,
            window: 3,
            ..TrainConfig::default()
        };
        // Observation must not change the numerics.
        let mut plain = SeqModel::new(2, 6, 11);
        let plain_report = train_plain(&mut plain, &data, &cfg).expect("valid training setup");
        let mut model = SeqModel::new(2, 6, 11);
        let mut obs = dcn_obs::Obs::on();
        let report =
            train(&mut model, &data, &cfg, &mut obs, "train.test").expect("valid setup");
        assert_eq!(plain.to_json(), model.to_json());
        let snap = obs.take_report().expect("obs was on");
        let losses = &snap.series["train.test.epoch_loss"];
        assert_eq!(losses, &report.epoch_losses);
        assert_eq!(losses, &plain_report.epoch_losses);
        assert_eq!(snap.series["train.test.epoch_throughput_sps"].len(), 3);
        assert!(snap.series["train.test.epoch_throughput_sps"].iter().all(|&t| t > 0.0));
        assert_eq!(snap.counter("train.test.steps"), report.steps as u64);
        // One grad-norm observation per optimizer step, one span per epoch.
        assert_eq!(snap.hists["train.test.grad_norm_milli"].count, report.steps as u64);
        assert_eq!(snap.spans.iter().filter(|s| s.name == "train.epoch").count(), 3);
    }

    #[test]
    fn empty_dataset_is_a_typed_error() {
        let mut model = SeqModel::new(2, 4, 1);
        let err = train_plain(&mut model, &PacketDataset::default(), &TrainConfig::default())
            .expect_err("empty dataset must not train");
        assert_eq!(err, TrainError::EmptyDataset);
    }

    #[test]
    fn width_mismatch_is_a_typed_error() {
        let data = synthetic(50, 1); // 2 features
        let mut model = SeqModel::new(3, 4, 1);
        let err = train_plain(&mut model, &data, &TrainConfig::default())
            .expect_err("width mismatch must not train");
        assert_eq!(err, TrainError::WidthMismatch { data: 2, model: 3 });
    }

    #[test]
    fn nonfinite_loss_backs_off_and_errors_out() {
        // Poison the dataset with a NaN feature and target: every epoch's
        // mean loss is NaN, so training must back off MAX_BACKOFFS times
        // and then return a typed error rather than silently reporting
        // NaN losses.
        let mut d = PacketDataset::default();
        for i in 0..40 {
            d.push(
                vec![f32::NAN, i as f32],
                Target {
                    latency: f32::NAN,
                    dropped: 0.0,
                    ecn: 0.0,
                },
            );
        }
        let mut model = SeqModel::new(2, 4, 1);
        let cfg = TrainConfig {
            epochs: 2,
            window: 4,
            ..TrainConfig::default()
        };
        let err = train_plain(&mut model, &d, &cfg).expect_err("divergent run must error");
        assert_eq!(err, TrainError::NonFiniteLoss { epoch: 0 });
    }

    #[test]
    fn evaluate_on_heldout_is_finite_and_small_after_training() {
        let data = synthetic(800, 13);
        let (train_set, test_set) = data.split(0.8);
        let mut model = SeqModel::new(2, 8, 17);
        let cfg = TrainConfig {
            epochs: 6,
            window: 4,
            ..TrainConfig::default()
        };
        let before = evaluate(&model, &test_set, &cfg);
        train_plain(&mut model, &train_set, &cfg).expect("valid training setup");
        let after = evaluate(&model, &test_set, &cfg);
        assert!(after.is_finite());
        assert!(after < before, "held-out loss {after} vs initial {before}");
    }
}
