//! Rows about simulation speed and cost: Figures 2, 10–12, 21–23 and
//! Table 2. All but Figure 23 read the wall clock, so each builds and
//! times its own runs rather than reading the shared scenarios.

use crate::{pipeline_config, secs, RowResult, Scale, Scenarios};
use dcn_sim::config::SimConfig;
use dcn_sim::pdes::{run_partitioned, PdesRunOpts};
use dcn_sim::simulator::Simulation;
use dcn_transport::Protocol;
use mimic_ml::flops::{inference_step_flops, train_step_flops, SIM_EVENT_FLOPS};
use mimic_ml::train::TrainConfig;
use mimicnet::compose::{run_composed_partitioned, try_compose};
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::internal_model::InternalModel;
use mimicnet::mimic::{TrainWindow, TrainedMimic};
use mimicnet::pipeline::Pipeline;
use mimicnet::PipelineError;
use std::fmt;
use std::time::Instant;

/// Figure 2's check: a composed run on 4 LPs whose canonical metrics
/// bytes differ from the sequential composed run of the same topology.
#[derive(Debug)]
pub(crate) struct PdesMismatch {
    pub clusters: u32,
}

impl fmt::Display for PdesMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the 4-LP composed run at {} clusters differs from the sequential one",
            self.clusters
        )
    }
}

impl std::error::Error for PdesMismatch {}

/// A small trained bundle, just enough to drive the composed path;
/// Figure 2 measures simulator throughput, not model quality.
fn quick_trained() -> TrainedMimic {
    let mut dg = DataGenConfig::default();
    dg.sim.duration_s = 0.3;
    dg.sim.seed = 55;
    let td = generate(&dg);
    let tc = TrainConfig {
        epochs: 1,
        window: 4,
        ..TrainConfig::default()
    };
    let train = |data, disc| {
        InternalModel::train_stacked(data, disc, 8, 1, &tc)
            .expect("valid training setup")
            .0
    };
    TrainedMimic {
        ingress: train(&td.ingress, td.ingress_disc),
        egress: train(&td.egress, td.egress_disc),
        feature_cfg: td.feature_cfg,
        feeder: td.feeder,
        envelope: None,
        window: TrainWindow(tc.window),
    }
}

/// Figure 2: event throughput of packet-level simulation vs. topology
/// size and parallelism.
///
/// Paper: "OMNeT++ performance on leaf-spine topologies of various size.
/// Even for these small cases, 5 mins of simulation time can take multiple
/// days to process" — and crucially, adding threads (parallel DES) often
/// *lowers* simulated-seconds-per-second because LPs must synchronize
/// every lookahead window. The row fails with [`PdesMismatch`] unless the
/// 4-LP composed run equals the sequential one byte for byte.
pub(crate) fn fig02_pdes_scaling(_: &mut Scenarios, scale: Scale) -> RowResult {
    let sizes: Vec<u32> = match scale {
        Scale::Quick => vec![2, 4, 8],
        Scale::Full => vec![2, 4, 8, 16, 32],
    };
    let trained = quick_trained();
    println!(
        "{:>9} {:>7} | {:>12} | {:>12} | {:>12} | {:>12} | {:>12} | {:>14}",
        "clusters", "hosts", "1 LP", "2 LPs", "4 LPs", "mimic 1 LP", "mimic 4 LPs", "events (1 LP)"
    );
    for clusters in sizes {
        let mut cfg = SimConfig::with_clusters(clusters);
        cfg.duration_s = scale.duration_s() * 0.6;
        cfg.seed = 5;
        // Simulated seconds per wall second since `t0`.
        let rate = |t0: Instant| cfg.duration_s / t0.elapsed().as_secs_f64();
        let mut cells = Vec::new();
        let mut events1 = 0;
        for parts in [1usize, 2, 4] {
            let t0 = Instant::now();
            let m = if parts == 1 {
                Simulation::with_transport(cfg, Protocol::NewReno.factory()).run()
            } else {
                run_partitioned(cfg, parts, &|| Protocol::NewReno.factory())
            };
            cells.push(rate(t0));
            if parts == 1 {
                events1 = m.events_processed;
            }
        }
        // Mimic composition of the same topology: one observable cluster
        // simulated packet-level, the rest served by the Mimic fleet —
        // sequential and 4-way partitioned.
        let t0 = Instant::now();
        let seq = try_compose(cfg, clusters, Protocol::NewReno, &trained)?.run();
        cells.push(rate(t0));
        let t0 = Instant::now();
        let opts = PdesRunOpts::default();
        let par = run_composed_partitioned(cfg, clusters, Protocol::NewReno, &trained, 4, &opts)?;
        cells.push(rate(t0));
        if seq.canonical_bytes() != par.canonical_bytes() {
            return Err(PdesMismatch { clusters }.into());
        }
        println!(
            "{clusters:>9} {:>7} | {:>11.2}x | {:>11.2}x | {:>11.2}x | {:>11.2}x | {:>11.2}x | {events1:>14}",
            cfg.num_hosts(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }
    println!(
        "\npaper shape: throughput falls with size; 2/4 threads do NOT beat 1\n\
         (synchronization per link-latency window dominates). Mimic columns\n\
         compose the same topology with Mimic'ed clusters: the\n\
         throughput advantage over packet-level widens with size because\n\
         only one cluster runs packet-level."
    );
    Ok(())
}

/// Figure 10: simulation running-time speedup of MimicNet over full
/// simulation, across data center sizes and racks-per-cluster.
///
/// Paper: speedups grow with size — 1.9–6.1× at 8 clusters up to 675× at
/// 128 clusters (2 racks/cluster), where "MimicNet reduces the simulation
/// time from 12 days to under 30 minutes"; beyond that, full fidelity did
/// not finish in 3 months. Speedups here exclude the fixed training cost
/// (as in the paper's figure; see `table2_breakdown` for the total).
pub(crate) fn fig10_speedup(_: &mut Scenarios, scale: Scale) -> RowResult {
    let racks_options: Vec<u32> = match scale {
        Scale::Quick => vec![2],
        Scale::Full => vec![2, 4],
    };
    for racks in racks_options {
        println!("\n--- {racks} racks/cluster ---");
        let mut cfg = pipeline_config(scale, 42);
        cfg.base.topo.racks_per_cluster = racks;
        let mut pipe = Pipeline::new(cfg);
        let trained = pipe.try_train()?.0;
        println!(
            "{:>9} | {:>12} | {:>12} | {:>9} | {:>11}",
            "clusters", "full (s)", "mimic (s)", "speedup", "event ratio"
        );
        for clusters in scale.cluster_sweep() {
            let t0 = Instant::now();
            let (_, truth_metrics, _) = pipe.try_ground_truth(clusters, None)?;
            let full_wall = t0.elapsed().as_secs_f64();
            let est = pipe.try_estimate(&trained, clusters, None)?;
            let mimic_wall = est.wall.as_secs_f64();
            println!(
                "{clusters:>9} | {full_wall:>12.3} | {mimic_wall:>12.3} | {:>8.1}x | {:>10.1}x",
                full_wall / mimic_wall.max(1e-9),
                truth_metrics.events_processed as f64 / est.metrics.events_processed.max(1) as f64
            );
        }
    }
    println!(
        "\npaper shape: speedup grows steeply with cluster count (the\n\
         composition's event count is ~T/N + Tp vs the full T), and holds\n\
         across racks-per-cluster."
    );
    Ok(())
}

/// The timed phases shared by Figures 11 and 12 at one cluster count.
struct Strategies {
    pipe: Pipeline,
    trained: TrainedMimic,
    /// Seconds to train the seed-42 bundle afresh.
    train: f64,
    /// Seconds of one full simulation.
    sim: f64,
    /// Seconds of one estimate, reusing the bundle.
    mimic: f64,
}

impl Strategies {
    fn time(scale: Scale, clusters: u32) -> Result<Strategies, PipelineError> {
        // Train fresh to time the full train-included strategy.
        let mut pipe = Pipeline::new(pipeline_config(scale, 42));
        let t0 = Instant::now();
        let trained = pipe.try_train()?.0;
        let train = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _truth = pipe.try_ground_truth(clusters, None)?;
        let sim = t0.elapsed().as_secs_f64();
        let mimic = pipe
            .try_estimate(&trained, clusters, None)?
            .wall
            .as_secs_f64();
        Ok(Strategies {
            pipe,
            trained,
            train,
            sim,
            mimic,
        })
    }
}

/// Cores the partitioned and parallel strategies of Figures 11 and 12
/// spread over (the paper uses its 20-core machines).
const CORES: usize = 4;

/// Figure 11: time-to-results ("simulation latency") for five execution
/// strategies across network sizes.
///
/// Paper strategies, for N cores and S simulated seconds: (1) single full
/// simulation of S; (2) single MimicNet including training; (3) single
/// MimicNet reusing a model; (4) partitioned simulation — N full sims of
/// S/N each; (5) partitioned MimicNet — N compositions of S/N each. At
/// small sizes training overhead dominates; from ~64 clusters MimicNet
/// wins outright; at 128 clusters it is 2–3 orders of magnitude faster.
pub(crate) fn fig11_sim_latency(_: &mut Scenarios, scale: Scale) -> RowResult {
    println!(
        "{:>9} | {:>11} | {:>13} | {:>11} | {:>12} | {:>12}",
        "clusters", "single sim", "mimic+train", "single mimic", "part. sim", "part. mimic"
    );
    for clusters in scale.cluster_sweep() {
        let s = Strategies::time(scale, clusters)?;
        // Partitioned strategies: N instances of S/N seconds run in
        // parallel on N cores -> latency = time of one S/N chunk.
        let mut chunk_cfg = s.pipe.cfg;
        chunk_cfg.base.duration_s /= CORES as f64;
        let mut chunk_pipe = Pipeline::new(chunk_cfg);
        let t1 = Instant::now();
        chunk_pipe.try_ground_truth(clusters, None)?;
        let part_sim = t1.elapsed().as_secs_f64();
        let part_mimic = chunk_pipe
            .try_estimate(&s.trained, clusters, None)?
            .wall
            .as_secs_f64();
        println!(
            "{clusters:>9} | {:>11.3} | {:>13.3} | {:>11.3} | {part_sim:>12.3} | {part_mimic:>12.3}",
            s.sim,
            s.train + s.mimic,
            s.mimic
        );
    }
    println!(
        "\npaper shape: at small sizes 'mimic+train' exceeds 'single sim';\n\
         as size grows both mimic strategies drop far below both\n\
         simulation strategies (2-3 orders of magnitude at 128 clusters)."
    );
    Ok(())
}

/// Figure 12: aggregate simulation throughput (simulated seconds per wall
/// second) for five strategies.
///
/// Paper: single full simulation slows ~5 orders below real time at 128
/// clusters; N parallel instances multiply throughput ×N but a single
/// MimicNet instance overtakes even that from 32 clusters because the
/// amount of observable traffic is roughly constant in network size.
pub(crate) fn fig12_sim_throughput(_: &mut Scenarios, scale: Scale) -> RowResult {
    println!(
        "{:>9} | {:>11} | {:>13} | {:>12} | {:>13} | {:>14}",
        "clusters", "single sim", "mimic+train", "single mimic", "parallel sim", "parallel mimic"
    );
    for clusters in scale.cluster_sweep() {
        let s = Strategies::time(scale, clusters)?;
        let sim_secs = s.pipe.cfg.base.duration_s;
        let (single_sim, single_mimic) = (sim_secs / s.sim, sim_secs / s.mimic);
        // Parallel strategies: N instances each simulating S seconds run
        // concurrently on N cores — aggregate throughput is N x single
        // (the paper's observation; we model perfect core scaling).
        let cores = CORES as f64;
        println!(
            "{clusters:>9} | {single_sim:>11.3} | {:>13.3} | {single_mimic:>12.3} | {:>13.3} | {:>14.3}",
            sim_secs / (s.train + s.mimic),
            single_sim * cores,
            single_mimic * cores
        );
    }
    println!(
        "\npaper shape: mimic throughput is roughly flat in network size\n\
         (observable traffic is constant); full-sim throughput collapses,\n\
         and a single mimic eventually overtakes even N parallel sims."
    );
    Ok(())
}

/// Figures 21 & 22 (Appendix F): simulation latency and throughput vs.
/// simulation length.
///
/// Paper: "the relative simulation speeds of different approaches barely
/// change with the simulation length … the latency of full simulations
/// increases slightly slower than that of MimicNet because the constant
/// setup overhead in full simulations is significantly higher … the
/// simulation throughput does not change at all with the simulation
/// length."
pub(crate) fn fig21_22_sim_length(_: &mut Scenarios, scale: Scale) -> RowResult {
    let n = scale.large();
    let lengths: Vec<f64> = match scale {
        Scale::Quick => vec![0.2, 0.4, 0.8],
        Scale::Full => vec![0.5, 1.0, 2.0],
    };
    // Train once (model reuse across lengths, as the paper notes).
    let mut pipe = Pipeline::new(pipeline_config(scale, 42));
    let trained = pipe.try_train()?.0;
    println!(
        "{:>9} | {:>12} {:>12} | {:>14} {:>14}",
        "sim secs", "full lat(s)", "mimic lat(s)", "full tput", "mimic tput"
    );
    for s in lengths {
        pipe.cfg.base.duration_s = s;
        let t0 = Instant::now();
        pipe.try_ground_truth(n, None)?;
        let full = t0.elapsed().as_secs_f64();
        let mimic = pipe.try_estimate(&trained, n, None)?.wall.as_secs_f64();
        println!(
            "{s:>9.2} | {full:>12.3} {mimic:>12.3} | {:>14.4} {:>14.4}",
            s / full,
            s / mimic
        );
    }
    println!(
        "\npaper shape: latency scales ~linearly with length for both; the\n\
         throughput columns stay ~constant per approach, with MimicNet's\n\
         well above the full simulation's."
    );
    Ok(())
}

/// Figure 23 (Appendix G): compute-resource consumption (FLOPs).
///
/// Paper: "MimicNet shows significant computational load, primarily
/// because of the use of GPUs for training and inference. This makes its
/// compute consumption higher than full simulations when the network …
/// is small … However, in large networks, e.g. 128 clusters, the use of
/// deep learning models in MimicNet pays off … its total compute
/// consumption is lower than full simulations even with the … training
/// overhead."
///
/// We count FLOPs analytically: simulator events at a calibrated
/// per-event cost, plus exact LSTM training/inference math. Inference
/// costs one LSTM step per packet the Mimic fleet steps, as the fleet
/// counts them: every boundary verdict, plus the feeder rows each verdict
/// replays — at most the training window's worth of the feeder packets
/// drawn since the lane's previous verdict. Drawing and featurizing a
/// feeder packet is priced as free.
pub(crate) fn fig23_compute(sc: &mut Scenarios, scale: Scale) -> RowResult {
    let base = sc.base()?;
    let f = base.trained.feature_cfg.width();
    let h = base.trained.ingress.model.hidden_dim();
    let tc = base.pipe.cfg.train;
    let streams = tc.batch_size.div_ceil(tc.window);
    // Training cost: one optimizer step per chunk of `window` packets of
    // every stream, over both directions' datasets, all epochs.
    let steps = |n: usize| n.div_ceil(streams * tc.window) * tc.epochs;
    let train_flops = (steps(base.data.ingress.len()) + steps(base.data.egress.len())) as u64
        * train_step_flops(f, h, 3, tc.window, streams);
    // Small-scale simulation cost.
    let small_sim_flops = base.data.metrics.events_processed * SIM_EVENT_FLOPS;

    println!(
        "model: {f} features x {h} hidden; window {}; one-time cost = small sim {:.2} GF + training {:.2} GF",
        tc.window,
        small_sim_flops as f64 / 1e9,
        train_flops as f64 / 1e9
    );
    println!(
        "\n{:>9} | {:>12} | {:>14} | {:>14} | {:>8} | {:>12} | {:>12}",
        "clusters",
        "full sim",
        "mimic (run)",
        "mimic (+train)",
        "verdicts",
        "feeder draws",
        "feeder steps"
    );
    for clusters in scale.cluster_sweep() {
        let full = sc.truth(clusters)?.events * SIM_EVENT_FLOPS;
        let est = sc.estimate(clusters)?;
        // Composition cost: events + one LSTM step per boundary verdict
        // and per replayed feeder row.
        let (verdicts, draws, steps) = (est.verdicts, est.feeder_draws, est.feeder_steps);
        let mimic_run = est.report.metrics.events_processed * SIM_EVENT_FLOPS
            + (verdicts + steps) * inference_step_flops(f, h, 3);
        let mimic_total = mimic_run + train_flops + small_sim_flops;
        println!(
            "{clusters:>9} | {:>12.3} | {:>14.3} | {:>14.3} | {verdicts:>8} | {draws:>12} | {steps:>12}",
            full as f64 / 1e9,
            mimic_run as f64 / 1e9,
            mimic_total as f64 / 1e9
        );
    }
    println!(
        "\npaper shape: at small sizes MimicNet's model math makes it the\n\
         more expensive option; as the network grows the full simulation's\n\
         event count explodes and MimicNet wins even including training."
    );
    Ok(())
}

/// Table 2: running-time breakdown of the MimicNet workflow vs. full
/// simulation.
///
/// Paper (128 clusters, 1024 hosts, 20 simulated seconds):
///
/// | factor | time |
/// |---|---|
/// | small-scale simulation | 1h 3m |
/// | training + hyper-tuning | 7h 10m |
/// | large-scale simulation | 25m |
/// | **full simulation** | **1w 4d 22h 25m** |
///
/// "Benefits of MimicNet increase with simulated time as the first two
/// values … are constant."
pub(crate) fn table2_breakdown(_: &mut Scenarios, scale: Scale) -> RowResult {
    let large = scale.large();
    let mut pipe = Pipeline::new(pipeline_config(scale, 42));
    let trained = pipe.try_train()?.0;
    let est = pipe.try_estimate(&trained, large, None)?;
    let t0 = Instant::now();
    pipe.try_ground_truth(large, None)?;
    let full = t0.elapsed();

    let mut topo = pipe.cfg.base.topo;
    topo.clusters = large;
    println!(
        "target: {large} clusters, {} hosts, {} simulated seconds\n",
        topo.num_hosts(),
        pipe.cfg.base.duration_s
    );
    let t = &pipe.timings;
    let total = t.small_scale_sim + t.training + est.wall;
    for (factor, time) in [
        ("factor", "time".to_string()),
        ("MimicNet: small-scale simulation", secs(t.small_scale_sim)),
        ("MimicNet: training (ingress + egress)", secs(t.training)),
        ("MimicNet: large-scale simulation", secs(est.wall)),
        ("MimicNet: total", secs(total)),
        ("Full simulation", secs(full)),
    ] {
        println!("{factor:<42} {time:>10}");
    }
    println!(
        "\nend-to-end speedup: {:.1}x (excluding training: {:.1}x)",
        full.as_secs_f64() / total.as_secs_f64().max(1e-9),
        full.as_secs_f64() / est.wall.as_secs_f64().max(1e-9)
    );
    println!(
        "\npaper shape: the one-time small-scale + training cost amortizes;\n\
         the recurring large-scale phase is a small fraction of the full\n\
         simulation (25m vs 1w4d22h at the paper's scale, a 34x total win)."
    );
    Ok(())
}
