//! A training shard's forward + backward window must not allocate once
//! its workspace has seen the first batch.
//!
//! Every buffer the window touches — the per-layer tapes and gradient
//! flows, the head scratch, the predictions — lives in the shard's
//! `WindowWorkspace` and is grow-once; the transposed weights are shared
//! and refreshed in place. After one warm-up batch (including a ragged
//! last shard), further batches of the same shapes must leave the global
//! allocation count untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use mimic_ml::loss::{CombinedLoss, Target};
use mimic_ml::matrix::Matrix;
use mimic_ml::model::{ModelGrads, SeqModel, TransposedWeights, WindowWorkspace};

const FEATURES: usize = 23;
const HIDDEN: usize = 32;
const WINDOW: usize = 12;
const SHARD_ROWS: usize = 16;

/// One shard's state, as the training loop keeps it.
struct Shard {
    ws: WindowWorkspace,
    grads: ModelGrads,
    dy: Matrix,
}

/// Forward + loss + backward of rows `rows` of the batch, the way the
/// training loop runs a shard.
fn run_shard(
    model: &SeqModel,
    wt: &TransposedWeights,
    xs: &[Matrix],
    rows: std::ops::Range<usize>,
    shard: &mut Shard,
) -> f64 {
    let loss_fn = CombinedLoss::default();
    let target = Target {
        latency: 0.5,
        dropped: 0.0,
        ecn: 1.0,
    };
    let y = model.forward_window(xs, rows, &mut shard.ws);
    shard.dy.resize(y.rows, 3);
    let mut loss = 0.0f64;
    for b in 0..y.rows {
        let (l, g) = loss_fn.eval(y.row(b), &target);
        loss += l as f64;
        shard.dy.row_mut(b).copy_from_slice(&g);
    }
    shard.grads.zero();
    model.backward_window(wt, xs, &shard.dy, &mut shard.ws, &mut shard.grads);
    loss
}

#[test]
fn shard_windows_do_not_allocate_after_the_first_batch() {
    for layers in [1usize, 2] {
        let model = SeqModel::new_stacked(FEATURES, HIDDEN, layers, 7);
        let mut wt = model.transposed();
        // A batch of 40 rows: two full shards and a ragged one of 8.
        let batch = |seed: usize| -> Vec<Matrix> {
            (0..WINDOW)
                .map(|t| {
                    Matrix::from_fn(40, FEATURES, |i, j| {
                        ((i * 7 + j * 3 + t + seed) % 11) as f32 * 0.1
                    })
                })
                .collect()
        };
        let ranges = [
            0..SHARD_ROWS,
            SHARD_ROWS..2 * SHARD_ROWS,
            2 * SHARD_ROWS..40,
        ];
        let mut shards: Vec<Shard> = ranges
            .iter()
            .map(|_| Shard {
                ws: WindowWorkspace::default(),
                grads: model.new_grads(),
                dy: Matrix::default(),
            })
            .collect();

        let warm = batch(0);
        let cold = ALLOCS.load(Ordering::Relaxed);
        for (shard, rows) in shards.iter_mut().zip(ranges.clone()) {
            run_shard(&model, &wt, &warm, rows, shard);
        }
        assert!(
            ALLOCS.load(Ordering::Relaxed) > cold,
            "the first batch sizes the workspaces"
        );

        let later: Vec<Vec<Matrix>> = (1..4).map(batch).collect();
        let before = ALLOCS.load(Ordering::Relaxed);
        let mut total = 0.0;
        for xs in &later {
            wt.refresh(&model);
            for (shard, rows) in shards.iter_mut().zip(ranges.clone()) {
                total += run_shard(&model, &wt, xs, rows, shard);
            }
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(total.is_finite());
        assert_eq!(
            after - before,
            0,
            "{layers}-layer shard windows allocated {} times over 3 batches",
            after - before
        );
    }
}
