//! Criterion: LSTM forward/backward cost per window size — the micro
//! numbers behind the paper's Appendix C (Figures 16/17), the Mimic's
//! per-packet inference price, and one training shard's step.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dcn_sim::config::SimConfig;
use mimic_ml::matrix::Matrix;
use mimic_ml::model::{SeqModel, WindowWorkspace};
use mimicnet::features::FeatureConfig;

const HIDDEN: usize = 32;
/// Rows of one training shard (`mimic_ml::train`'s fixed shard height).
const SHARD_ROWS: usize = 16;
/// The default training window (≈ BDP in packets).
const WINDOW: usize = 12;

/// Feature width of the bundles the pipeline trains (default topology).
fn features() -> usize {
    FeatureConfig::from_topology(&SimConfig::small_scale().topo).width()
}

fn window_inputs(w: usize, batch: usize) -> Vec<Matrix> {
    (0..w)
        .map(|t| Matrix::from_fn(batch, features(), |i, j| ((i + j + t) % 7) as f32 * 0.1))
        .collect()
}

fn bench_forward(c: &mut Criterion) {
    let model = SeqModel::new(features(), HIDDEN, 1);
    let mut group = c.benchmark_group("lstm_forward");
    for &w in &[1usize, 5, 12, 20] {
        let xs = window_inputs(w, 32);
        let mut ws = WindowWorkspace::default();
        group.bench_with_input(BenchmarkId::new("window_batch32", w), &w, |b, _| {
            b.iter(|| black_box(model.forward_window(&xs, 0..32, &mut ws).data[0]))
        });
    }
    group.finish();
}

fn bench_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("lstm_backward");
    for &w in &[5usize, 12] {
        let xs = window_inputs(w, 32);
        group.bench_with_input(BenchmarkId::new("bptt_batch32", w), &w, |b, _| {
            let model = SeqModel::new(features(), HIDDEN, 1);
            let wt = model.transposed();
            let mut grads = model.new_grads();
            let mut ws = WindowWorkspace::default();
            b.iter(|| {
                let y = model.forward_window(&xs, 0..32, &mut ws).clone();
                grads.zero();
                model.backward_window(&wt, &xs, &y, &mut ws, &mut grads);
                black_box(grads.head.w.data[0])
            })
        });
    }
    group.finish();
}

fn bench_train_shard(c: &mut Criterion) {
    // What training repeats per shard: forward + backward of one 16-row
    // shard over the default window, rows read in place from a batch of
    // 32, on a reused workspace.
    let model = SeqModel::new(features(), HIDDEN, 1);
    let wt = model.transposed();
    let xs = window_inputs(WINDOW, 2 * SHARD_ROWS);
    let mut grads = model.new_grads();
    let mut ws = WindowWorkspace::default();
    let mut dy = Matrix::zeros(SHARD_ROWS, 3);
    c.bench_function("lstm/train_shard", |b| {
        b.iter(|| {
            let y = model.forward_window(&xs, SHARD_ROWS..2 * SHARD_ROWS, &mut ws);
            dy.data.copy_from_slice(&y.data);
            grads.zero();
            model.backward_window(&wt, &xs, &dy, &mut ws, &mut grads);
            black_box(grads.head.w.data[0])
        })
    });
}

fn bench_stateful_inference(c: &mut Criterion) {
    // The per-packet cost inside a running Mimic (state carried, O(1) in
    // the window).
    let model = SeqModel::new(features(), HIDDEN, 1);
    let x: Vec<f32> = (0..features()).map(|i| (i % 5) as f32 * 0.2).collect();
    c.bench_function("lstm/stateful_step", |b| {
        let mut state = model.init_state();
        b.iter(|| black_box(model.step(&x, &mut state)[0]))
    });
}

criterion_group!{name = benches; config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500)); targets = bench_forward, bench_backward, bench_train_shard, bench_stateful_inference}
criterion_main!(benches);
