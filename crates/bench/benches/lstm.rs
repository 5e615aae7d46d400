//! Criterion: LSTM forward/backward cost per truncation window — the
//! micro numbers behind the paper's Appendix C (Figures 16/17), the
//! Mimic's per-packet inference price, and one training chunk's step.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dcn_sim::config::SimConfig;
use mimic_ml::matrix::Matrix;
use mimic_ml::model::{ChunkWorkspace, SeqModel};
use mimicnet::features::FeatureConfig;

const HIDDEN: usize = 32;
/// The default training batch (supervised packets per optimizer step).
const BATCH: usize = 32;
/// The default training window (≈ BDP in packets).
const WINDOW: usize = 12;

/// Feature width of the bundles the pipeline trains (default topology).
fn features() -> usize {
    FeatureConfig::from_topology(&SimConfig::small_scale().topo).width()
}

/// One chunk of `w` steps over the ⌈32 / w⌉ streams training steps side
/// by side: `steps × streams` feature rows, step-major, with every stream
/// fresh.
fn chunk_inputs(w: usize) -> (Vec<f32>, Vec<bool>) {
    let streams = BATCH.div_ceil(w);
    let f = features();
    let xs = (0..w * streams * f).map(|i| (i % 7) as f32 * 0.1).collect();
    (xs, vec![true; streams])
}

/// Run the first chunk on `ws` from the zero state, then mark every
/// stream as carried: the timed chunks continue that state.
fn carry_on(model: &SeqModel, xs: &[f32], fresh: &mut [bool], ws: &mut ChunkWorkspace) {
    model.forward_chunk(xs, fresh, ws);
    fresh.fill(false);
}

fn bench_forward(c: &mut Criterion) {
    let model = SeqModel::new(features(), HIDDEN, 1);
    let mut group = c.benchmark_group("lstm_forward");
    for &w in &[1usize, 5, 12, 20] {
        let (xs, mut fresh) = chunk_inputs(w);
        let mut ws = ChunkWorkspace::default();
        carry_on(&model, &xs, &mut fresh, &mut ws);
        group.bench_with_input(BenchmarkId::new("chunk_batch32", w), &w, |b, _| {
            b.iter(|| black_box(model.forward_chunk(&xs, &fresh, &mut ws).data[0]))
        });
    }
    group.finish();
}

fn bench_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("lstm_backward");
    for &w in &[5usize, 12] {
        let (xs, mut fresh) = chunk_inputs(w);
        group.bench_with_input(BenchmarkId::new("tbptt_batch32", w), &w, |b, _| {
            let model = SeqModel::new(features(), HIDDEN, 1);
            let wt = model.transposed();
            let mut grads = model.new_grads();
            let mut ws = ChunkWorkspace::default();
            carry_on(&model, &xs, &mut fresh, &mut ws);
            b.iter(|| {
                let y = model.forward_chunk(&xs, &fresh, &mut ws).clone();
                grads.zero();
                model.backward_chunk(&wt, &xs, &y, &mut ws, &mut grads);
                black_box(grads.head.w.data[0])
            })
        });
    }
    group.finish();
}

fn bench_train_shard(c: &mut Criterion) {
    // What training repeats per optimizer step at the defaults: forward +
    // backward of one chunk of the default window over its 3 streams,
    // state carried, on a reused workspace.
    let model = SeqModel::new(features(), HIDDEN, 1);
    let wt = model.transposed();
    let (xs, mut fresh) = chunk_inputs(WINDOW);
    let mut grads = model.new_grads();
    let mut ws = ChunkWorkspace::default();
    carry_on(&model, &xs, &mut fresh, &mut ws);
    let mut dy = Matrix::zeros(WINDOW * fresh.len(), 3);
    c.bench_function("lstm/train_shard", |b| {
        b.iter(|| {
            let y = model.forward_chunk(&xs, &fresh, &mut ws);
            dy.data.copy_from_slice(&y.data);
            grads.zero();
            model.backward_chunk(&wt, &xs, &dy, &mut ws, &mut grads);
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
