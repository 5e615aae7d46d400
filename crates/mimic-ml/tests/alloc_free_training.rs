//! A training shard's forward + backward chunk must not allocate once its
//! workspace has seen the first chunk.
//!
//! Every buffer the chunk touches — the per-layer tapes (which also carry
//! the streams' state from chunk to chunk) and gradient flows, the head
//! scratch, the predictions — lives in the shard's `ChunkWorkspace` and is
//! grow-once; the transposed weights are shared and refreshed in place.
//! After one warm-up chunk, further chunks with carried state — a ragged
//! last shard of streams and a ragged last chunk of steps included — must
//! leave the global allocation count untouched.

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
use mimic_ml::model::{ChunkWorkspace, ModelGrads, SeqModel, TransposedWeights};

const FEATURES: usize = 23;
const HIDDEN: usize = 32;
const WINDOW: usize = 12;
const SHARD_ROWS: usize = 16;
/// Streams of the chunk: two full shards and a ragged one of 4.
const STREAMS: usize = 36;

/// One shard's state, as the training loop keeps it.
struct Shard {
    ws: ChunkWorkspace,
    grads: ModelGrads,
    dy: Matrix,
}

/// Forward + loss + backward of one chunk of `fresh.len()` streams, the
/// way the training loop runs a shard.
fn run_shard(
    model: &SeqModel,
    wt: &TransposedWeights,
    xs: &[f32],
    fresh: &[bool],
    shard: &mut Shard,
) -> f64 {
    let loss_fn = CombinedLoss::default();
    let target = Target {
        latency: 0.5,
        dropped: 0.0,
        ecn: 1.0,
    };
    let y = model.forward_chunk(xs, fresh, &mut shard.ws);
    shard.dy.resize(y.rows, 3);
    let mut loss = 0.0f64;
    for b in 0..y.rows {
        let (l, g) = loss_fn.eval(y.row(b), &target);
        loss += l as f64;
        shard.dy.row_mut(b).copy_from_slice(&g);
    }
    shard.grads.zero();
    model.backward_chunk(wt, xs, &shard.dy, &mut shard.ws, &mut shard.grads);
    loss
}

#[test]
fn shard_chunks_do_not_allocate_after_the_first_chunk() {
    for layers in [1usize, 2] {
        let model = SeqModel::new_stacked(FEATURES, HIDDEN, layers, 7);
        let mut wt = model.transposed();
        // `steps × rows` feature rows of one shard's chunk, step-major.
        let chunk = |seed: usize, steps: usize, rows: usize| -> Vec<f32> {
            (0..steps * rows * FEATURES)
                .map(|i| ((i * 7 + seed) % 11) as f32 * 0.1)
                .collect()
        };
        let ranges = [
            0..SHARD_ROWS,
            SHARD_ROWS..2 * SHARD_ROWS,
            2 * SHARD_ROWS..STREAMS,
        ];
        let mut shards: Vec<Shard> = ranges
            .iter()
            .map(|_| Shard {
                ws: ChunkWorkspace::default(),
                grads: model.new_grads(),
                dy: Matrix::default(),
            })
            .collect();
        let fresh = [true; SHARD_ROWS];
        let carried = [false; SHARD_ROWS];

        let cold = ALLOCS.load(Ordering::Relaxed);
        for (shard, rows) in shards.iter_mut().zip(ranges.clone()) {
            let xs = chunk(0, WINDOW, rows.len());
            run_shard(&model, &wt, &xs, &fresh[..rows.len()], shard);
        }
        assert!(
            ALLOCS.load(Ordering::Relaxed) > cold,
            "the first chunk sizes the workspaces"
        );

        // Three more full chunks, one restarting a stream, then a ragged
        // last chunk of 5 steps; inputs built before counting.
        let later: Vec<(usize, Vec<Vec<f32>>)> = [WINDOW, WINDOW, WINDOW, 5]
            .iter()
            .enumerate()
            .map(|(seed, &steps)| {
                let xs = ranges.iter().map(|rows| chunk(seed + 1, steps, rows.len())).collect();
                (steps, xs)
            })
            .collect();
        let mut restart = carried;
        restart[3] = true;
        let before = ALLOCS.load(Ordering::Relaxed);
        let mut total = 0.0;
        for (c, (_, xs)) in later.iter().enumerate() {
            wt.refresh(&model);
            let starts = if c == 1 { &restart } else { &carried };
            for ((shard, rows), xs) in shards.iter_mut().zip(ranges.clone()).zip(xs) {
                total += run_shard(&model, &wt, xs, &starts[..rows.len()], shard);
            }
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(total.is_finite());
        assert_eq!(
            after - before,
            0,
            "{layers}-layer shard chunks allocated {} times over 4 chunks",
            after - before
        );
        assert_eq!(later.last().map(|(steps, _)| *steps), Some(5));
    }
}
