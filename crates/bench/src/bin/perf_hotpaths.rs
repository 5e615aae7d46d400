//! ML hot-path benchmark: the tracked performance baseline behind
//! `BENCH_mlperf.json`.
//!
//! Measures the three costs that dominate the MimicNet workflow's
//! wall-clock (paper Table 2, Figure 23):
//!
//! 1. **Inference ns/packet** — the per-packet `SeqModel::step` price, for
//!    (a) the pre-optimization baseline (allocating, zero-skipping,
//!    strided-head step, reimplemented here verbatim), (b) the optimized
//!    allocation-free step, and (c) the Mimic fleet's full per-item shim
//!    path.
//! 2. **Training samples/sec** — the single-threaded mini-batch loop,
//!    plus the pipeline's training phase serial vs on a 4-thread job
//!    queue (bit-identical bundles; verified here at runtime).
//! 3. **End-to-end pipeline seconds** — small-scale sim + training + one
//!    large-scale estimate.
//!
//! Environment:
//! * `OUT` — output JSON path (default `BENCH_mlperf.json`).
//! * `BASELINE` — path to a committed baseline JSON; if the optimized
//!   inference ns/packet regresses by more than 25% against it, the
//!   binary exits non-zero (the CI perf-smoke gate).
//! * `SCALE` — `quick` (default) or `full`, as for every bench binary.

use mimic_ml::dataset::PacketDataset;
use mimic_ml::loss::Target;
use mimic_ml::model::{ModelState, SeqModel, OUTPUTS};
use mimic_ml::rng::MlRng;
use mimic_ml::train::{train, TrainConfig};
use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::mimic::TrainedMimic;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use mimicnet::PipelineError;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::time::Instant;

const FEATURES: usize = 21; // width of the default feature config
const HIDDEN: usize = 32;

#[derive(Serialize, Deserialize)]
struct BenchConfig {
    scale: String,
    /// CPU cores visible to the benchmark. Wall-clock speedups from the
    /// worker fan-out are only meaningful when this is at least the worker
    /// budget; on a single-core runner they degenerate to ~1x while the
    /// bit-identity checks still bind.
    #[serde(default)]
    cores: usize,
    features: usize,
    hidden: usize,
    inference_iters: usize,
    train_samples: usize,
    train_epochs: usize,
    train_batch: usize,
    train_window: usize,
}

#[derive(Serialize, Deserialize, Default)]
struct EventEngineNumbers {
    /// `BinaryHeap<Event>` reference queue: ns per pop+reschedule pair at
    /// steady state.
    heap_ns_per_event: f64,
    /// The engine's slab-pooled radix queue, same workload.
    pooled_ns_per_event: f64,
    heap_events_per_sec: f64,
    pooled_events_per_sec: f64,
    /// heap / pooled, median over the pairs (the arena tentpole's ≥1.3×
    /// acceptance number).
    speedup: f64,
    /// Events resident in the queue throughout the measurement.
    hold: usize,
    /// Pop+reschedule pairs measured per engine and repeat.
    events: usize,
    /// Alternating heap/pooled repeats behind the medians above.
    #[serde(default)]
    repeats: usize,
}

#[derive(Serialize, Deserialize)]
struct InferenceNumbers {
    /// Pre-optimization step: per-packet allocation + zero-skip + strided head.
    naive_ns_per_packet: f64,
    /// Allocation-free blocked step.
    optimized_ns_per_packet: f64,
    /// naive / optimized.
    speedup: f64,
    /// Full shim path of the fleet, per item: feature extraction + drift +
    /// predict + decision + FIFO clamp.
    mimic_on_packet_ns: f64,
}

#[derive(Serialize, Deserialize)]
struct TrainingNumbers {
    blocked_1w_samples_per_sec: f64,
}

#[derive(Serialize, Deserialize, Default)]
struct PdesNumbers {
    /// Composed all-Mimic run on one LP: median wall seconds.
    p1_s: f64,
    /// The same run on two LPs.
    p2_s: f64,
    /// p1 / p2, median over the alternating pairs — the repo's first
    /// binding multi-core gate (>= 1.2x).
    speedup: f64,
    clusters: usize,
    /// Simulated seconds per run.
    duration_s: f64,
    /// Alternating 1-LP/2-LP repeats behind the medians.
    repeats: usize,
}

#[derive(Serialize, Deserialize, Default)]
struct ObsNumbers {
    /// Composed sequential run with obs off: min-of-N wall seconds.
    off_s: f64,
    /// A second, identical obs-off configuration, interleaved run-for-run
    /// with the first (an A/A measurement).
    off_repeat_s: f64,
    /// The same run with engine tracing enabled: min-of-N wall seconds.
    on_s: f64,
    /// `|off - off_repeat| / min(off, off_repeat)`: the A/A resolution
    /// floor. The disabled obs path differs from an obs-free build by one
    /// null-check branch per event dispatch, so its true overhead is
    /// bounded by this measurement floor; the CI gate requires it < 1%.
    disabled_overhead_bound_frac: f64,
    /// `on/off - 1` (informational — recording is cheap, not free).
    enabled_overhead_frac: f64,
    /// The same composed run through the one-LP PDES driver with no
    /// diagnostics: the reference for the digest/flight overhead gate.
    /// Serde default keeps baselines recorded before the diagnostics
    /// existed readable; a zeroed value disables the gate.
    #[serde(default)]
    pdes_off_s: f64,
    /// PDES driver run carrying the diverge-debugging diagnostics: a
    /// flight ring plus state digests at the amortized stride below
    /// (which light-enables obs counters, but not per-event wall
    /// timing — that is the separately-measured `enabled_overhead_frac`).
    #[serde(default)]
    pdes_diag_s: f64,
    /// `pdes_diag/pdes_off - 1`: what the flight recorder + amortized
    /// digests cost on the real driver path; the CI gate requires < 2%.
    /// The disabled-path cost is covered by the A/A bound above — with
    /// diagnostics off the driver sees one `Option` check per window.
    #[serde(default)]
    diag_overhead_frac: f64,
    /// Digest stride used by the diag run. Each digest costs
    /// `digest_ns`, so overhead scales inversely with the stride; this
    /// value amortizes digests to a handful per run, mirroring a
    /// production run digested for a later `mimicnet diverge` (a stopped
    /// re-run records stride 1 only up to the divergence).
    #[serde(default)]
    diag_digest_stride: u64,
    /// One full `window_digest` (queue + links + hosts) on the composed
    /// engine at mid-run state, nanoseconds (min-of-N microbench).
    #[serde(default)]
    digest_ns: f64,
    repeats: usize,
}

#[derive(Serialize, Deserialize, Default)]
struct AdaptiveNumbers {
    /// Composed clusters in the adaptive workload (1 packet-level
    /// observable + clusters-1 managed).
    clusters: usize,
    /// Simulated seconds per measured run.
    duration_s: f64,
    all_mimic_wall_s: f64,
    all_flow_wall_s: f64,
    adaptive_wall_s: f64,
    all_mimic_events_per_sec: f64,
    all_flow_events_per_sec: f64,
    adaptive_events_per_sec: f64,
    /// W1(FCT) of the all-Flow run against the all-Mimic reference, in
    /// units of the reference's mean FCT (observable cluster only).
    all_flow_w1_rel: f64,
    /// Same distance for the adaptive run — it should land at or inside
    /// the all-Flow distance while running near all-Flow speed.
    adaptive_w1_rel: f64,
    /// Promote/demote transitions the adaptive budget executed.
    tier_switches: usize,
    /// adaptive / all-Mimic events-per-second.
    speedup_vs_all_mimic: f64,
    /// The acceptance number: the adaptive run clears the all-Mimic
    /// event rate.
    beats_all_mimic: bool,
}

#[derive(Serialize, Deserialize)]
struct PipelineNumbers {
    small_scale_sim_s: f64,
    training_s: f64,
    large_scale_sim_s: f64,
    total_s: f64,
    workers: usize,
}

#[derive(Serialize, Deserialize, Default)]
struct TrainingParallelNumbers {
    /// Pipeline training phase (both direction models), serial: workers=1.
    serial_training_s: f64,
    /// Same phase at a 4-worker budget: the pipeline's job queue trains
    /// ingress and egress concurrently, one thread each.
    fanout_4w_training_s: f64,
    /// serial / fanout (the tentpole's ≥1.5× acceptance number).
    speedup: f64,
    /// Runtime check: both budgets produce the same bundle, bit for bit.
    bit_identical: bool,
    workers: usize,
}

#[derive(Serialize, Deserialize)]
struct BenchReport {
    config: BenchConfig,
    /// Core event-engine throughput: pooled radix queue vs the
    /// `BinaryHeap` reference. Serde default keeps baselines recorded
    /// before the section existed readable; a zeroed section disables its
    /// gate.
    #[serde(default)]
    event_engine: EventEngineNumbers,
    inference: InferenceNumbers,
    /// Composed PDES run at 1 vs 2 partitions. Serde default keeps
    /// baselines recorded before the section existed readable.
    #[serde(default)]
    pdes: PdesNumbers,
    /// Observability overhead (disabled-path A/A bound + enabled cost).
    /// Serde default keeps pre-obs baselines readable; a zeroed section
    /// disables its gate.
    #[serde(default)]
    obs: ObsNumbers,
    training: TrainingNumbers,
    /// Model-level training fan-out (ingress and egress trained
    /// concurrently). Serde default keeps older baselines
    /// readable; a zeroed section disables its gate.
    #[serde(default)]
    training_parallel: TrainingParallelNumbers,
    /// Adaptive fidelity-tier composition (all-Mimic vs all-Flow vs
    /// budget-driven adaptive) at the large composed shape. Serde default
    /// as above.
    #[serde(default)]
    adaptive: AdaptiveNumbers,
    pipeline: PipelineNumbers,
    /// Speedup gates that were skipped on this run, with the reason —
    /// empty when every gate was enforced. Recorded so a green CI run
    /// states in the artifact itself which numbers were not checked.
    #[serde(default)]
    gate_skips: Vec<String>,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The pre-optimization stateful step, verbatim: one `Vec` allocation for
/// the gate pre-activations per layer, one `to_vec`/`clone` per layer for
/// the input hand-off, zero-skip branches in both matrix passes, and a
/// column-strided head. Kept as the benchmark's reference point.
fn naive_step(model: &SeqModel, x: &[f32], hc: &mut [(Vec<f32>, Vec<f32>)]) -> [f32; OUTPUTS] {
    let mut input = x.to_vec();
    for (lstm, (h, c)) in model.lstms.iter().zip(hc.iter_mut()) {
        let hsz = lstm.hidden;
        let mut z = lstm.b.clone();
        for (k, &a) in input.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let row = &lstm.wx.data[k * 4 * hsz..(k + 1) * 4 * hsz];
            for (zv, &w) in z.iter_mut().zip(row) {
                *zv += a * w;
            }
        }
        for (k, &a) in h.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let row = &lstm.wh.data[k * 4 * hsz..(k + 1) * 4 * hsz];
            for (zv, &w) in z.iter_mut().zip(row) {
                *zv += a * w;
            }
        }
        for j in 0..hsz {
            let i_g = sigmoid(z[j]);
            let f_g = sigmoid(z[hsz + j]);
            let g_g = z[2 * hsz + j].tanh();
            let o_g = sigmoid(z[3 * hsz + j]);
            let cv = f_g * c[j] + i_g * g_g;
            c[j] = cv;
            h[j] = o_g * cv.tanh();
        }
        input = h.clone();
    }
    let h = &hc.last().expect("nonempty stack").0;
    let mut out = [0.0f32; OUTPUTS];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = model.head.b[k];
        for (j, &hj) in h.iter().enumerate() {
            acc += hj * model.head.w.data[j * OUTPUTS + k];
        }
        *o = acc;
    }
    out
}

/// Feature vectors with realistic Mimic sparsity: mostly one-hot location
/// encodings plus a few continuous fields.
fn feature_pool(n: usize) -> Vec<Vec<f32>> {
    let mut rng = MlRng::new(0xFEED);
    (0..n)
        .map(|_| {
            let mut v = vec![0.0f32; FEATURES];
            // Four one-hot groups of 4, then 5 continuous tail features.
            for g in 0..4 {
                let hot = (rng.next_f64() * 4.0) as usize % 4;
                v[g * 4 + hot] = 1.0;
            }
            for f in v.iter_mut().skip(16) {
                *f = rng.uniform_sym(1.0) as f32;
            }
            v
        })
        .collect()
}

/// Time two contenders in `repeats` alternating pairs — `run(false)` is
/// the first, `run(true)` the second — and return `(median first, median
/// second, median of the per-pair first/second ratios)`. A shared runner
/// drifts between clock states that differ by a third for hundreds of
/// milliseconds at a time; a pair sits inside one state far more often
/// than two whole series do, so gates read the paired ratio.
fn paired(repeats: usize, mut run: impl FnMut(bool) -> f64) -> (f64, f64, f64) {
    let (mut xs, mut ys, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..repeats {
        let (x, y) = (run(false), run(true));
        xs.push(x);
        ys.push(y);
        ratios.push(x / y.max(1e-12));
    }
    let median = |v: &[f64]| dcn_sim::stats::percentile(v, 50.0);
    (median(&xs), median(&ys), median(&ratios))
}

/// An untrained `hidden`-unit single-layer bundle for `topo`: the sections
/// that time inference or the composed engine need weights of the right
/// shape and live feeders, not a fitted model.
fn untrained_bundle(
    topo: &dcn_sim::topology::FatTreeParams,
    hidden: usize,
) -> mimicnet::mimic::TrainedMimic {
    use mimic_ml::discretize::Discretizer;
    use mimicnet::features::FeatureConfig;
    use mimicnet::feeder::{DirFit, FeederFit};
    use mimicnet::internal_model::InternalModel;
    let fc = FeatureConfig::from_topology(topo);
    let mk = |seed| InternalModel {
        model: SeqModel::new_stacked(fc.width(), hidden, 1, seed),
        disc: Discretizer::new(2e-5, 1e-3, 100),
    };
    let fit = DirFit::fit(&[1e-4, 2e-4, 3e-4, 5e-4], &[320.0, 1460.0, 1460.0]);
    mimicnet::mimic::TrainedMimic {
        ingress: mk(7),
        egress: mk(8),
        feature_cfg: fc,
        feeder: FeederFit { ingress: fit.clone(), egress: fit },
        envelope: None,
    }
}

/// Event-engine throughput at simulation steady state: a hold-K queue
/// (pop one, reschedule one) over the engine's real event mix — half
/// packet-carrying `Arrive` events, the rest `TxDone`/`Timer` bookkeeping.
/// The identical workload runs against the engine's queue (a monotone
/// radix queue over a pooled slab) and the `BinaryHeap<Event>` reference;
/// the engine's case is that a pop redistributes one small bucket instead
/// of paying a log-depth sift chain that memmoves whole `Event` values (a
/// `Packet` payload rides in every `Arrive`). Medians over alternating
/// heap/pooled pairs ([`paired`]): one ~30 ms sample per engine swings by
/// tens of percent on a shared runner, enough to flip the 1.3x gate either
/// way.
fn bench_event_engine(iters: usize) -> EventEngineNumbers {
    use dcn_sim::event::{Event, EventKind, EventQueue};
    use dcn_sim::link::Dir;
    use std::collections::BinaryHeap;
    use dcn_sim::packet::{FlowId, Packet};
    use dcn_sim::time::SimTime;
    use dcn_sim::topology::{LinkId, NodeId};

    const HOLD: usize = 8192;
    const REPEATS: usize = 5;

    let kind = |i: u64| -> EventKind {
        match i % 4 {
            0 | 1 => EventKind::Arrive {
                node: NodeId((i % 64) as u32),
                packet: Packet::data(
                    i,
                    FlowId(i % 256),
                    NodeId((i % 64) as u32),
                    NodeId(((i + 1) % 64) as u32),
                    i % 1000,
                    1460,
                    true,
                    SimTime(i),
                ),
            },
            2 => EventKind::TxDone {
                link: LinkId((i % 96) as u32),
                dir: if i.is_multiple_of(2) { Dir::Up } else { Dir::Down },
            },
            _ => EventKind::Timer {
                host: NodeId((i % 64) as u32),
                flow: FlowId(i % 256),
                token: i,
            },
        }
    };

    // The reference arm: a `BinaryHeap<Event>` with an insertion counter,
    // which pops in exactly the pooled queue's order.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Event>,
        seq: u64,
    }
    trait Fel {
        fn schedule(&mut self, time: SimTime, kind: EventKind);
        fn pop(&mut self) -> Option<Event>;
        fn len(&self) -> usize;
    }
    impl Fel for HeapQueue {
        fn schedule(&mut self, time: SimTime, kind: EventKind) {
            self.seq += 1;
            self.heap.push(Event::new(time, kind, self.seq));
        }
        fn pop(&mut self) -> Option<Event> {
            self.heap.pop()
        }
        fn len(&self) -> usize {
            self.heap.len()
        }
    }
    impl Fel for EventQueue {
        fn schedule(&mut self, time: SimTime, kind: EventKind) {
            EventQueue::schedule(self, time, kind)
        }
        fn pop(&mut self) -> Option<Event> {
            EventQueue::pop(self)
        }
        fn len(&self) -> usize {
            EventQueue::len(self)
        }
    }

    fn run(q: &mut impl Fel, iters: usize, kind: &impl Fn(u64) -> EventKind) -> f64 {
        for i in 0..HOLD as u64 {
            let t = i.wrapping_mul(0x9E3779B97F4A7C15) % 1_000_000;
            q.schedule(SimTime(t), kind(i));
        }
        // Warm the pool/heap to steady-state capacity before timing.
        for i in 0..(HOLD as u64 * 4) {
            let e = q.pop().expect("queue primed");
            q.schedule(SimTime(e.time.0 + 100 + (i % 97)), kind(i));
        }
        let t0 = Instant::now();
        for i in 0..iters as u64 {
            let e = q.pop().expect("queue primed");
            std::hint::black_box(e.time.0);
            q.schedule(SimTime(e.time.0 + 100 + (i % 97)), kind(i));
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        std::hint::black_box(q.len());
        ns
    }

    let (heap_ns, pooled_ns, speedup) = paired(REPEATS, |pooled| {
        if pooled {
            run(&mut EventQueue::new(), iters, &kind)
        } else {
            run(&mut HeapQueue::default(), iters, &kind)
        }
    });
    EventEngineNumbers {
        heap_ns_per_event: heap_ns,
        pooled_ns_per_event: pooled_ns,
        heap_events_per_sec: 1e9 / heap_ns.max(1e-9),
        pooled_events_per_sec: 1e9 / pooled_ns.max(1e-9),
        speedup,
        hold: HOLD,
        events: iters,
        repeats: REPEATS,
    }
}

fn bench_inference(iters: usize) -> InferenceNumbers {
    let model = SeqModel::new(FEATURES, HIDDEN, 7);
    let pool = feature_pool(512);

    // Pre-optimization baseline.
    let mut hc: Vec<(Vec<f32>, Vec<f32>)> = model
        .lstms
        .iter()
        .map(|l| (vec![0.0; l.hidden], vec![0.0; l.hidden]))
        .collect();
    for x in pool.iter().cycle().take(1000) {
        std::hint::black_box(naive_step(&model, x, &mut hc));
    }
    let t0 = Instant::now();
    for x in pool.iter().cycle().take(iters) {
        std::hint::black_box(naive_step(&model, x, &mut hc));
    }
    let naive_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    // Optimized allocation-free step.
    let mut state: ModelState = model.init_state();
    for x in pool.iter().cycle().take(1000) {
        std::hint::black_box(model.step(x, &mut state));
    }
    let t0 = Instant::now();
    for x in pool.iter().cycle().take(iters) {
        std::hint::black_box(model.step(x, &mut state));
    }
    let opt_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    // Full shim path through a trained bundle.
    let mimic_ns = bench_on_packet(iters / 10);

    InferenceNumbers {
        naive_ns_per_packet: naive_ns,
        optimized_ns_per_packet: opt_ns,
        speedup: naive_ns / opt_ns.max(1e-9),
        mimic_on_packet_ns: mimic_ns,
    }
}

fn bench_on_packet(iters: usize) -> f64 {
    use dcn_sim::mimic::{BoundaryDir, BoundaryItem, ClusterModel};
    use dcn_sim::packet::{FlowId, Packet};
    use dcn_sim::time::SimTime;
    use dcn_sim::topology::FatTree;
    use mimicnet::datagen::{generate, DataGenConfig};
    use mimicnet::drift::FeatureEnvelope;
    use mimicnet::fleet::MimicFleet;
    use mimicnet::internal_model::InternalModel;

    let mut cfg = DataGenConfig::default();
    cfg.sim.duration_s = 0.3;
    cfg.sim.seed = 77;
    let td = generate(&cfg);
    let tc = TrainConfig {
        epochs: 1,
        window: 4,
        ..TrainConfig::default()
    };
    let (ing, _) = InternalModel::train_stacked(&td.ingress, td.ingress_disc, HIDDEN, 1, &tc)
        .expect("valid training setup");
    let (eg, _) = InternalModel::train_stacked(&td.egress, td.egress_disc, HIDDEN, 1, &tc)
        .expect("valid training setup");
    let bundle = TrainedMimic {
        ingress: ing,
        egress: eg,
        feature_cfg: td.feature_cfg,
        feeder: td.feeder,
        envelope: FeatureEnvelope::fit(&td.ingress.features),
    };
    let mut topo = cfg.sim.topo;
    topo.clusters = 4;
    let t = FatTree::new(topo);
    let mut fleet = MimicFleet::new(bundle, topo, 4, &[(1, 9)]);
    let (local, remote) = (t.host(1, 0, 0), t.host(0, 1, 1));
    // Alternating directions, 1 µs apart.
    let item = |i: usize| {
        let at = SimTime::from_secs_f64(0.01 + i as f64 * 1e-6);
        let (dir, src, dst) = if i.is_multiple_of(2) {
            (BoundaryDir::Ingress, remote, local)
        } else {
            (BoundaryDir::Egress, local, remote)
        };
        BoundaryItem {
            cluster: 1,
            dir,
            pkt: Packet::data(1, FlowId(5), src, dst, 0, 1460, true, at),
            enqueued_at: at,
        }
    };
    for i in 0..1000 {
        fleet.infer(&item(i));
    }
    let t0 = Instant::now();
    for i in 0..iters {
        std::hint::black_box(fleet.infer(&item(1000 + i)));
    }
    t0.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// The composed all-Mimic run at 64 clusters on one LP and on two, with
/// the bundle the pipeline section just trained (a trained bundle's latency
/// floor sets the conservative window; an untrained one's 20 µs floor
/// would measure barriers and nothing else): what the window barrier and
/// the feeder warm-up path are worth once a second core is available.
fn bench_pdes(scale: Scale, cfg: &PipelineConfig, trained: &TrainedMimic) -> PdesNumbers {
    use dcn_sim::pdes::PdesRunOpts;
    use mimicnet::compose::run_composed_partitioned;

    const CLUSTERS: u32 = 64;
    const REPEATS: usize = 7;

    let mut base = cfg.base;
    base.duration_s = match scale {
        Scale::Quick => 2.0,
        Scale::Full => 4.0,
    };
    let opts = PdesRunOpts::default();
    let run = |partitions: usize| -> f64 {
        let t0 = Instant::now();
        let m = run_composed_partitioned(base, CLUSTERS, cfg.protocol, trained, partitions, &opts)
            .expect("valid composition");
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(m.events_processed);
        s
    };
    run(2); // warm caches and the page allocator
    let (p1_s, p2_s, speedup) = paired(REPEATS, |two| run(if two { 2 } else { 1 }));
    PdesNumbers {
        p1_s,
        p2_s,
        speedup,
        clusters: CLUSTERS as usize,
        duration_s: base.duration_s,
        repeats: REPEATS,
    }
}

/// Observability overhead on a composed sequential run. Three interleaved
/// min-of-N series over identical simulations: obs off (A), obs off again
/// (A/A control), and obs on. The A/A delta bounds what the disabled obs
/// branches can possibly cost (they are one null check per event dispatch,
/// far below run-to-run noise); off-vs-on prices actual recording.
fn bench_obs(repeats: usize) -> Result<ObsNumbers, Box<dyn Error>> {
    use dcn_transport::Protocol;
    use mimicnet::compose::try_compose;

    const CLUSTERS: u32 = 4;
    let mut base = dcn_sim::config::SimConfig::small_scale();
    // Long enough that one run takes tens of milliseconds: the A/A bound
    // below is pure timing noise, and on millisecond-scale runs scheduler
    // jitter alone can approach the 1% gate.
    base.duration_s = 2.0;
    base.seed = 42;
    let mut topo = base.topo;
    topo.clusters = CLUSTERS;
    let bundle = untrained_bundle(&topo, HIDDEN);

    let run_once = |trace: bool| -> Result<f64, PipelineError> {
        let mut sim = try_compose(base, CLUSTERS, Protocol::NewReno, &bundle)?;
        if trace {
            sim.enable_obs();
        }
        let t0 = Instant::now();
        let m = sim.run();
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(m.events_processed);
        Ok(s)
    };

    run_once(false)?; // warm caches and the page allocator
    let (mut off_a, mut off_b, mut on) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats {
        off_a = off_a.min(run_once(false)?);
        off_b = off_b.min(run_once(false)?);
        on = on.min(run_once(true)?);
    }

    // Flight-recorder + digest cost on the real driver path: the same
    // composed workload through the one-LP PDES loop, bare vs. carrying
    // the diverge diagnostics (flight ring + digests at an amortized
    // stride; digests light-enable obs counters without per-event wall
    // timing). Interleaved min-of-N like the series above.
    use dcn_sim::pdes::{FlightPlan, PdesRunOpts};
    use mimicnet::compose::run_composed_partitioned;
    let run_pdes = |opts: &PdesRunOpts| -> f64 {
        let t0 = Instant::now();
        let m = run_composed_partitioned(base, CLUSTERS, Protocol::NewReno, &bundle, 1, opts)
            .expect("valid composition");
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(m.events_processed);
        s
    };
    // The composed window is the mimic latency floor (tens of µs), so
    // this 2-simulated-second run crosses ~1e5 barriers; stride 16384
    // lands a handful of digests, the cadence `mimicnet diverge` needs
    // from a production run (a stopped re-run records stride 1).
    const DIAG_STRIDE: u64 = 16_384;
    let bare = PdesRunOpts::default();
    let diag = PdesRunOpts {
        digest_stride: Some(DIAG_STRIDE),
        flight: Some(FlightPlan {
            capacity: 4096,
            ..FlightPlan::default()
        }),
        ..PdesRunOpts::default()
    };
    run_pdes(&bare); // warm
    let (mut pdes_off, mut pdes_diag) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats.max(5) {
        pdes_off = pdes_off.min(run_pdes(&bare));
        pdes_diag = pdes_diag.min(run_pdes(&diag));
    }

    // Absolute cost of one state digest at mid-run state (informational:
    // overhead at any stride is `digest_ns / stride` per window).
    let digest_ns = {
        use dcn_sim::SimTime;
        let mut sim = try_compose(base, CLUSTERS, Protocol::NewReno, &bundle)?;
        sim.enable_digests();
        let _ = sim.run_window(SimTime::from_secs_f64(base.duration_s / 2.0));
        let mut best = f64::INFINITY;
        for _ in 0..repeats.max(5) {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..32 {
                acc = acc.wrapping_add(sim.window_digest());
            }
            std::hint::black_box(acc);
            best = best.min(t0.elapsed().as_secs_f64() / 32.0);
        }
        best * 1e9
    };

    Ok(ObsNumbers {
        off_s: off_a,
        off_repeat_s: off_b,
        on_s: on,
        disabled_overhead_bound_frac: (off_a - off_b).abs() / off_a.min(off_b).max(1e-9),
        enabled_overhead_frac: on / off_a.max(1e-9) - 1.0,
        pdes_off_s: pdes_off,
        pdes_diag_s: pdes_diag,
        diag_overhead_frac: pdes_diag / pdes_off.max(1e-9) - 1.0,
        diag_digest_stride: DIAG_STRIDE,
        digest_ns,
        repeats,
    })
}

/// A learnable synthetic packet trace at the real feature width.
fn train_dataset(n: usize) -> PacketDataset {
    let pool = feature_pool(n);
    let mut d = PacketDataset::default();
    let mut burst = 0usize;
    let mut rng = MlRng::new(11);
    for f in pool {
        if rng.next_f64() < 0.1 {
            burst = 4;
        }
        let hot = burst > 0;
        burst = burst.saturating_sub(1);
        let mut f = f;
        f[16] = if hot { 1.0 } else { 0.0 };
        let drop = rng.next_f64() > 0.95;
        d.push(
            f,
            Target {
                latency: if hot { 0.8 } else { 0.2 },
                dropped: if drop { 1.0 } else { 0.0 },
                ecn: 0.0,
            },
        );
    }
    d
}

fn timed_train(data: &PacketDataset, cfg: &TrainConfig) -> f64 {
    let mut model = SeqModel::new(FEATURES, HIDDEN, 42);
    let t0 = Instant::now();
    let report = train(&mut model, data, cfg, &mut dcn_obs::Obs::off(), "train")
        .expect("valid training setup");
    let secs = t0.elapsed().as_secs_f64();
    let samples = data.len() * report.epoch_losses.len();
    samples as f64 / secs.max(1e-9)
}

fn bench_training(samples: usize, epochs: usize) -> (TrainingNumbers, TrainConfig) {
    let data = train_dataset(samples);
    let cfg = TrainConfig {
        epochs,
        batch_size: 64,
        window: 8,
        ..TrainConfig::default()
    };

    let blocked_1w = timed_train(&data, &cfg);
    (TrainingNumbers { blocked_1w_samples_per_sec: blocked_1w }, cfg)
}

/// Model-level training fan-out: the full pipeline training phase (both
/// direction models over the real generated dataset) serial vs at a
/// 4-worker budget, where the pipeline's job queue trains the ingress and
/// egress models concurrently. Both must produce the identical bundle.
fn bench_training_parallel(scale: Scale) -> Result<TrainingParallelNumbers, Box<dyn Error>> {
    let mut serial = Pipeline::new(pipeline_config(scale, 42).with_workers(1));
    let bundle_serial = serial.try_train()?.0;
    let serial_s = serial.timings.training.as_secs_f64();

    let mut fan = Pipeline::new(pipeline_config(scale, 42).with_workers(4));
    let bundle_fan = fan.try_train()?.0;
    let fanout_s = fan.timings.training.as_secs_f64();

    let identical = bundle_serial.to_json() == bundle_fan.to_json();
    assert!(identical, "serial and fanned-out pipeline training diverged");
    Ok(TrainingParallelNumbers {
        serial_training_s: serial_s,
        fanout_4w_training_s: fanout_s,
        speedup: serial_s / fanout_s.max(1e-9),
        bit_identical: identical,
        workers: 4,
    })
}

/// Adaptive fidelity-tier composition at the large composed shape
/// (64 clusters, 63 managed): the same scenario run all-Mimic (the
/// partitioned baseline every prior bench records), pinned all-Flow
/// (fluid approximation everywhere), and under the default accuracy
/// budget, which demotes calm clusters to the Flow tier at epoch
/// barriers. The contest is event throughput — the adaptive run should
/// clear the all-Mimic rate once most clusters settle at Flow — with the
/// W1(FCT) distance to the all-Mimic reference recorded alongside so the
/// speed is priced in fidelity.
fn bench_adaptive(scale: Scale) -> Result<AdaptiveNumbers, Box<dyn Error>> {
    use dcn_sim::mimic::FidelityTier;
    use dcn_sim::pdes::{PdesRunOpts, TierPlan};
    use dcn_sim::topology::FatTree;
    use mimicnet::compose::{run_composed_adaptive, run_composed_partitioned, OBSERVABLE};
    use mimicnet::AccuracyBudget;
    use mimicnet::metrics::{observed, w1_fct_relative};
    use mimicnet::pipeline::PipelineConfig;

    const CLUSTERS: u32 = 64;

    let mut cfg = PipelineConfig::default();
    cfg.base.duration_s = 0.3;
    cfg.base.seed = 5;
    cfg.hidden = 8;
    cfg.train.epochs = 1;
    cfg.train.window = 4;
    let base = cfg.base;
    let protocol = cfg.protocol;
    let trained = Pipeline::new(cfg).try_train()?.0;

    let mut mbase = base;
    mbase.duration_s = match scale {
        Scale::Quick => 0.2,
        Scale::Full => 0.5,
    };
    let plan = TierPlan { every_windows: 16 };
    let all_flow = AccuracyBudget {
        start: FidelityTier::Flow,
        promote_above: f64::INFINITY,
        ..AccuracyBudget::default()
    };
    let adaptive_budget = AccuracyBudget::default();

    let t0 = Instant::now();
    let plain = PdesRunOpts::default();
    let m_mimic = run_composed_partitioned(mbase, CLUSTERS, protocol, &trained, 1, &plain)
        .expect("all-Mimic run");
    let mimic_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let m_flow = run_composed_adaptive(
        mbase, CLUSTERS, protocol, &trained, 1, &all_flow, &plan, None, &plain,
    )
    .expect("all-Flow run");
    let flow_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let m_adaptive = run_composed_adaptive(
        mbase,
        CLUSTERS,
        protocol,
        &trained,
        1,
        &adaptive_budget,
        &plan,
        None,
        &plain,
    )
    .expect("adaptive run");
    let adaptive_s = t0.elapsed().as_secs_f64();

    let mut topo = mbase.topo;
    topo.clusters = CLUSTERS;
    let tree = FatTree::new(topo);
    let reference = observed(&m_mimic, &tree, OBSERVABLE);
    let flow_obs = observed(&m_flow, &tree, OBSERVABLE);
    let adaptive_obs = observed(&m_adaptive, &tree, OBSERVABLE);

    let eps = |m: &dcn_sim::instrument::Metrics, s: f64| m.events_processed as f64 / s.max(1e-9);
    let all_mimic_events_per_sec = eps(&m_mimic, mimic_s);
    let adaptive_events_per_sec = eps(&m_adaptive, adaptive_s);
    Ok(AdaptiveNumbers {
        clusters: CLUSTERS as usize,
        duration_s: mbase.duration_s,
        all_mimic_wall_s: mimic_s,
        all_flow_wall_s: flow_s,
        adaptive_wall_s: adaptive_s,
        all_mimic_events_per_sec,
        all_flow_events_per_sec: eps(&m_flow, flow_s),
        adaptive_events_per_sec,
        all_flow_w1_rel: w1_fct_relative(&reference.fct, &flow_obs.fct),
        adaptive_w1_rel: w1_fct_relative(&reference.fct, &adaptive_obs.fct),
        tier_switches: m_adaptive.tier_switches.len(),
        speedup_vs_all_mimic: adaptive_events_per_sec / all_mimic_events_per_sec.max(1e-9),
        beats_all_mimic: adaptive_events_per_sec > all_mimic_events_per_sec,
    })
}

/// The end-to-end pipeline numbers, plus the config and bundle behind them
/// for [`bench_pdes`].
fn bench_pipeline(
    scale: Scale,
) -> Result<(PipelineNumbers, PipelineConfig, TrainedMimic), Box<dyn Error>> {
    let workers = 4;
    let cfg = pipeline_config(scale, 42).with_workers(workers);
    let mut pipe = Pipeline::new(cfg);
    let trained = pipe.try_train()?.0;
    let est = pipe.try_estimate(&trained, scale.large(), None)?;
    let small = pipe.timings.small_scale_sim.as_secs_f64();
    let training = pipe.timings.training.as_secs_f64();
    let large = est.wall.as_secs_f64();
    let numbers = PipelineNumbers {
        small_scale_sim_s: small,
        training_s: training,
        large_scale_sim_s: large,
        total_s: small + training + large,
        workers,
    };
    Ok((numbers, cfg, trained))
}

fn check_baseline(report: &BenchReport) -> Result<(), String> {
    let Ok(path) = std::env::var("BASELINE") else {
        return Ok(());
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let base: BenchReport =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse baseline {path}: {e}"))?;
    // Event-engine gate: pooled ns/event may not regress past +25% of the
    // baseline (skipped for baselines recorded before the section existed).
    if base.event_engine.pooled_ns_per_event > 0.0 {
        let current = report.event_engine.pooled_ns_per_event;
        let allowed = base.event_engine.pooled_ns_per_event * 1.25;
        if current > allowed {
            return Err(format!(
                "event engine regression: {current:.1} ns/event vs baseline {:.1} (limit {allowed:.1}, +25%)",
                base.event_engine.pooled_ns_per_event
            ));
        }
        println!(
            "event engine baseline check: {current:.1} ns/event vs {:.1} baseline (limit {allowed:.1}) — OK",
            base.event_engine.pooled_ns_per_event
        );
    }
    let current = report.inference.optimized_ns_per_packet;
    let allowed = base.inference.optimized_ns_per_packet * 1.25;
    if current > allowed {
        return Err(format!(
            "inference regression: {current:.1} ns/packet vs baseline {:.1} (limit {allowed:.1}, +25%)",
            base.inference.optimized_ns_per_packet
        ));
    }
    println!(
        "baseline check: {current:.1} ns/packet vs {:.1} baseline (limit {allowed:.1}) — OK",
        base.inference.optimized_ns_per_packet
    );
    // Training fan-out gate: the 4-worker pipeline training phase may not
    // regress past +25% of the baseline (skipped for older baselines).
    if base.training_parallel.fanout_4w_training_s > 0.0 {
        let current = report.training_parallel.fanout_4w_training_s;
        let allowed = base.training_parallel.fanout_4w_training_s * 1.25;
        if current > allowed {
            return Err(format!(
                "training fan-out regression: {current:.2}s vs baseline {:.2}s (limit {allowed:.2}s, +25%)",
                base.training_parallel.fanout_4w_training_s
            ));
        }
        println!(
            "training fan-out baseline check: {current:.2}s vs {:.2}s baseline (limit {allowed:.2}s) — OK",
            base.training_parallel.fanout_4w_training_s
        );
    }
    // Observability gate: the disabled-path A/A bound must stay under 1%
    // (skipped when the section was not measured).
    if report.obs.off_s > 0.0 {
        let bound = report.obs.disabled_overhead_bound_frac;
        if bound >= 0.01 {
            return Err(format!(
                "obs disabled-overhead bound {:.2}% exceeds the 1% budget \
                 (off {:.4}s vs off-repeat {:.4}s)",
                bound * 100.0,
                report.obs.off_s,
                report.obs.off_repeat_s
            ));
        }
        println!(
            "obs disabled-overhead bound: {:.3}% (< 1%) — OK (enabled costs {:+.1}%)",
            bound * 100.0,
            report.obs.enabled_overhead_frac * 100.0
        );
    }
    // Diagnostics gate: the flight ring + amortized-stride digests on
    // the PDES driver must stay under 2% over the bare driver (skipped
    // when the series was not measured).
    if report.obs.pdes_off_s > 0.0 {
        let frac = report.obs.diag_overhead_frac;
        if frac >= 0.02 {
            return Err(format!(
                "digest+flight overhead {:.2}% exceeds the 2% budget \
                 (bare driver {:.4}s vs diagnostics {:.4}s, digest stride {})",
                frac * 100.0,
                report.obs.pdes_off_s,
                report.obs.pdes_diag_s,
                report.obs.diag_digest_stride
            ));
        }
        println!(
            "digest+flight overhead: {:+.2}% (< 2%) — OK (driver {:.4}s vs {:.4}s, \
             one digest {:.1}µs)",
            frac * 100.0,
            report.obs.pdes_off_s,
            report.obs.pdes_diag_s,
            report.obs.digest_ns / 1e3
        );
    }
    // A baseline recorded with suppressed gates is weaker than it looks;
    // restate its skips so the comparison's meaning is visible in the log.
    for skip in &base.gate_skips {
        println!("baseline {path} was recorded with a skipped gate: {skip}");
        ci_warning(&format!("baseline recorded with a skipped gate: {skip}"));
    }
    Ok(())
}

/// Emit a GitHub Actions warning annotation when running under CI, so a
/// green run with suppressed gates is flagged on the workflow summary
/// instead of buried in the log.
fn ci_warning(msg: &str) {
    if std::env::var_os("GITHUB_ACTIONS").is_some() {
        // Annotation lines must be single-line; the format is
        // `::warning title=<t>::<message>`.
        println!("::warning title=perf_hotpaths::{}", msg.replace('\n', " "));
    }
}

/// Speedup gates that cannot bind on this runner, with the reason. The
/// wall-clock speedups of the training fan-out (gated at ≥1.5×) and of the
/// two-partition PDES run (≥1.2×) are only meaningful with cores to run
/// on: on a single-core runner they degenerate to ≤1× while the
/// bit-identity checks still bind. The skip reasons are recorded in the
/// report itself (`gate_skips`) so the JSON artifact states which numbers
/// a green run did not check.
fn collect_gate_skips(cores: usize) -> Vec<String> {
    let mut skips = Vec::new();
    if cores < 2 {
        skips.push(format!(
            "training fan-out >=1.5x gate skipped: {cores} core(s) visible, \
             wall-clock speedup is core-bound (bit-identity check still binds)"
        ));
        skips.push(format!(
            "pdes 2-partition >=1.2x gate skipped: {cores} core(s) visible, \
             two LPs share one core"
        ));
    }
    skips
}

/// Absolute speedup gates, applied on every run (no baseline needed).
///
/// The event-engine gate is single-threaded and binds everywhere. The
/// multi-core gates (PDES ≥1.2×, training fan-out ≥1.5×) are suppressed by
/// whatever [`collect_gate_skips`] put in the report — each suppression is
/// printed here and already serialized in the JSON artifact.
fn check_speedup_gates(report: &BenchReport) -> Result<(), String> {
    let ee = report.event_engine.speedup;
    if ee < 1.3 {
        return Err(format!(
            "pooled event engine speedup {ee:.2}x below the 1.3x gate \
             (heap {:.1} ns/event, pooled {:.1} ns/event)",
            report.event_engine.heap_ns_per_event, report.event_engine.pooled_ns_per_event
        ));
    }
    println!("event engine gate: pooled {ee:.2}x over heap (>= 1.3x) — OK");

    if !report.gate_skips.is_empty() {
        for skip in &report.gate_skips {
            println!("gate skip: {skip}");
            ci_warning(&format!("gate skip: {skip}"));
        }
        return Ok(());
    }
    let (cores, pdes) = (report.config.cores, &report.pdes);
    if pdes.speedup < 1.2 {
        return Err(format!(
            "2-partition composed run {:.2}x below the 1.2x gate on {cores} cores \
             (1 LP {:.4} s, 2 LPs {:.4} s)",
            pdes.speedup, pdes.p1_s, pdes.p2_s
        ));
    }
    println!("multi-core gate: 2 PDES partitions {:.2}x over 1 (>= 1.2x) — OK", pdes.speedup);
    let tp = report.training_parallel.speedup;
    if tp < 1.5 {
        return Err(format!("training fan-out speedup {tp:.2}x below the 1.5x gate on {cores} cores"));
    }
    println!("multi-core gate: training fan-out {tp:.2}x (>= 1.5x) — OK");
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    header(
        "perf_hotpaths",
        "ML hot-path benchmark: inference ns/packet, training samples/sec, pipeline seconds",
    );
    let (iters, samples, epochs) = match scale {
        Scale::Quick => (200_000usize, 2048usize, 2usize),
        Scale::Full => (1_000_000, 8192, 3),
    };

    println!("\n-- event engine ({iters} pop+reschedule pairs, hold 8192, mixed kinds) --");
    let event_engine = bench_event_engine(iters);
    println!(
        "heap reference:  {:>8.1} ns/event  ({:>11.0} events/s)\npooled engine:   {:>8.1} ns/event  ({:>11.0} events/s, {:.2}x)",
        event_engine.heap_ns_per_event,
        event_engine.heap_events_per_sec,
        event_engine.pooled_ns_per_event,
        event_engine.pooled_events_per_sec,
        event_engine.speedup
    );

    println!("\n-- inference ({iters} packets, {FEATURES} features x {HIDDEN} hidden) --");
    let inference = bench_inference(iters);
    println!(
        "naive step:      {:>8.1} ns/packet\noptimized step:  {:>8.1} ns/packet  ({:.2}x)\nfleet per item:  {:>8.1} ns/packet (full shim path)",
        inference.naive_ns_per_packet, inference.optimized_ns_per_packet, inference.speedup,
        inference.mimic_on_packet_ns
    );

    println!("\n-- observability overhead (composed sequential run, min-of-N) --");
    let obs = bench_obs(match scale {
        Scale::Quick => 10,
        Scale::Full => 20,
    })?;
    println!(
        "obs off:         {:>8.4} s (A/A repeat {:.4} s, bound {:.3}%)\nobs on:          {:>8.4} s ({:+.1}%)\npdes bare:       {:>8.4} s\npdes diagnosed:  {:>8.4} s ({:+.2}% — flight ring + digests @ stride {})\none digest:      {:>8.1} µs",
        obs.off_s,
        obs.off_repeat_s,
        obs.disabled_overhead_bound_frac * 100.0,
        obs.on_s,
        obs.enabled_overhead_frac * 100.0,
        obs.pdes_off_s,
        obs.pdes_diag_s,
        obs.diag_overhead_frac * 100.0,
        obs.diag_digest_stride,
        obs.digest_ns / 1e3
    );

    println!("\n-- training ({samples} samples x {epochs} epochs, batch 64, window 8) --");
    let (training, tcfg) = bench_training(samples, epochs);
    println!("1 worker:  {:>9.0} samples/s", training.blocked_1w_samples_per_sec);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n-- pipeline training fan-out (serial vs 4-worker budget) --");
    let training_parallel = bench_training_parallel(scale)?;
    if cores < training_parallel.workers {
        println!("note: {cores} core(s) visible — wall-clock speedups below are core-bound");
    }
    println!(
        "serial (1 worker):  {:>7.2} s\nfan-out (4 workers):{:>7.2} s  ({:.2}x)\nbundles bit-identical: {}",
        training_parallel.serial_training_s,
        training_parallel.fanout_4w_training_s,
        training_parallel.speedup,
        training_parallel.bit_identical
    );

    println!("\n-- adaptive fidelity tiers (64 clusters, default budget) --");
    let adaptive = bench_adaptive(scale)?;
    println!(
        "all-Mimic:  {:>8.2} s  ({:>10.0} events/s)\nall-Flow:   {:>8.2} s  ({:>10.0} events/s, W1 {:.3} rel)\nadaptive:   {:>8.2} s  ({:>10.0} events/s, W1 {:.3} rel, {} switches, {:.2}x vs all-Mimic, beats: {})",
        adaptive.all_mimic_wall_s,
        adaptive.all_mimic_events_per_sec,
        adaptive.all_flow_wall_s,
        adaptive.all_flow_events_per_sec,
        adaptive.all_flow_w1_rel,
        adaptive.adaptive_wall_s,
        adaptive.adaptive_events_per_sec,
        adaptive.adaptive_w1_rel,
        adaptive.tier_switches,
        adaptive.speedup_vs_all_mimic,
        adaptive.beats_all_mimic
    );

    println!("\n-- end-to-end pipeline ({:?}) --", scale);
    let (pipeline, pipeline_cfg, trained) = bench_pipeline(scale)?;
    println!(
        "small-scale sim: {:.2}s\ntraining:        {:.2}s (4 workers)\nlarge-scale sim: {:.2}s\ntotal:           {:.2}s",
        pipeline.small_scale_sim_s, pipeline.training_s, pipeline.large_scale_sim_s,
        pipeline.total_s
    );

    println!("\n-- composed PDES run (64 clusters, 1 vs 2 partitions, {cores} core(s)) --");
    let pdes = bench_pdes(scale, &pipeline_cfg, &trained);
    println!(
        "1 partition:     {:>8.4} s\n2 partitions:    {:>8.4} s  ({:.2}x)",
        pdes.p1_s, pdes.p2_s, pdes.speedup
    );

    let report = BenchReport {
        config: BenchConfig {
            scale: format!("{scale:?}").to_lowercase(),
            cores,
            features: FEATURES,
            hidden: HIDDEN,
            inference_iters: iters,
            train_samples: samples,
            train_epochs: epochs,
            train_batch: tcfg.batch_size,
            train_window: tcfg.window,
        },
        event_engine,
        inference,
        pdes,
        obs,
        training,
        training_parallel,
        adaptive,
        pipeline,
        gate_skips: collect_gate_skips(cores),
    };

    let out = std::env::var("OUT").unwrap_or_else(|_| "BENCH_mlperf.json".into());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    dcn_sim::snapshot::atomic_write(out.as_ref(), (json + "\n").as_bytes())
        .expect("write report");
    println!("\nwrote {out}");

    if let Err(e) = check_speedup_gates(&report).and_then(|()| check_baseline(&report)) {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }
    Ok(())
}
