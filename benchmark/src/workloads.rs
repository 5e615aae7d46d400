//! The five workloads: how their inputs are made from the seed, the
//! fixture each needs, the set-up a user pays before the timed region,
//! and one operation of each. Everything here reaches the system only
//! through public functions of the product crates.

use crate::spec::{Sizes, THREADS};
use crate::stats::derive;
use crate::trace::Tracer;
use dcn_obs::digest::fnv64;
use dcn_sim::config::{SimConfig, TrafficPattern};
use dcn_sim::instrument::Metrics;
use dcn_sim::mimic::FidelityTier;
use dcn_sim::pdes::{PdesRunOpts, TierPlan};
use dcn_sim::snapshot::atomic_write;
use dcn_sim::stats::percentile;
use dcn_sim::topology::FatTree;
use dcn_transport::Protocol;
use mimicnet::compose::{ground_truth, try_compose, OBSERVABLE};
use mimicnet::metrics::observed;
use mimicnet::mimic::TrainedMimic;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use mimicnet::AccuracyBudget;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the small-scale data-generation scenario behind every trained
/// bundle. Fixed: the number of training samples, and with it training
/// time, swings by +-25 % with this seed (3.6 k-7.6 k boundary packets
/// over seeds 1-10), which would drown any change to the training code.
/// `--seed` still reaches training as the weight-init and shuffle seed.
pub const DATAGEN_SEED: u64 = 0x5EED_DA7A;

/// Scenario seed of catalogue entry 0; entry `r` uses `CATALOGUE_SEED + r`.
/// Fixed like the shapes: the catalogue is the set of scenarios a service
/// is asked about over and over, and `--seed` draws which one each
/// request asks for.
pub const CATALOGUE_SEED: u64 = 0xCA7A_1060;

/// Tier epochs every 64 windows: the CLI's `--tier-every` default.
pub const TIER_PLAN: TierPlan = TierPlan { every_windows: 64 };

pub const DCTCP: Protocol = Protocol::Dctcp { k: 20 };

/// Where one run keeps the files it hands between its processes.
pub fn bundle_path(dir: &Path, protocol: Protocol) -> PathBuf {
    dir.join(format!("bundle-{}.json", protocol.name()))
}

pub fn truth_path(dir: &Path) -> PathBuf {
    dir.join("truth.json")
}

/// Scenario seed of operation `index` of a run seeded with `seed`.
/// Untraced runs give every operation its own scenario: the size of one
/// (6.3-7.7 M events at 64 clusters) swings more with its seed than any
/// bound tolerates, so the median is taken over several of them.
pub fn scenario_seed(seed: u64, index: u64) -> u64 {
    derive(seed, index)
}

/// Training configs as `mimicnet train` builds them (`pipeline_from`),
/// one per protocol of the catalogue.
pub fn train_cfgs(sizes: &Sizes, train_seed: u64) -> [PipelineConfig; 2] {
    [Protocol::NewReno, DCTCP].map(|protocol| {
        let mut cfg = PipelineConfig {
            protocol,
            ..PipelineConfig::default()
        };
        cfg.base.duration_s = sizes.train_base_s;
        cfg.base.seed = DATAGEN_SEED;
        cfg.train.epochs = sizes.epochs;
        cfg.train.seed = train_seed;
        cfg
    })
}

/// Estimate config as `mimicnet estimate` builds it.
pub fn scenario_cfg(protocol: Protocol, sim_s: f64, seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig {
        protocol,
        ..PipelineConfig::default()
    };
    cfg.base.duration_s = sim_s;
    cfg.base.seed = seed;
    cfg
}

fn topo_of(base: &SimConfig, clusters: u32) -> FatTree {
    let mut params = base.topo;
    params.clusters = clusters;
    FatTree::new(params)
}

/// One entry of the serve-mix catalogue.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    pub cfg: PipelineConfig,
    pub clusters: u32,
}

/// Eight scenario fingerprints in Zipf rank order (rank 0 is asked for
/// most): {newreno, dctcp} x two cluster counts x {Uniform at load 0.7,
/// two-sink incast at load 0.5}.
pub fn catalogue(sizes: &Sizes) -> Vec<Fingerprint> {
    let mut out = Vec::with_capacity(8);
    for (pattern, load) in [
        (TrafficPattern::Uniform, 0.7),
        (TrafficPattern::Incast { sinks: 2 }, 0.5),
    ] {
        for clusters in sizes.serve_clusters {
            for protocol in [Protocol::NewReno, DCTCP] {
                let mut cfg = scenario_cfg(
                    protocol,
                    sizes.serve_sim_s,
                    CATALOGUE_SEED + out.len() as u64,
                );
                cfg.base.traffic.pattern = pattern;
                cfg.base.traffic.load = load;
                out.push(Fingerprint { cfg, clusters });
            }
        }
    }
    out
}

/// Which files a workload's fixture holds.
pub fn needs_bundles(workload: &str) -> &'static [Protocol] {
    match workload {
        "mimic-64" | "adaptive-64" => &[Protocol::NewReno],
        "serve-mix" => &[Protocol::NewReno, DCTCP],
        _ => &[],
    }
}

pub fn needs_truth(workload: &str) -> bool {
    matches!(workload, "mimic-64" | "adaptive-64")
}

/// Ground truth of scenario 0, as handed from the fixture process.
pub struct Truth {
    pub fct: Vec<f64>,
    pub fct_p99: f64,
    /// Wall time of the one fixture run (the base of `speedup_vs_truth`).
    pub wall_s: f64,
}

/// Build a workload's fixture in `dir`: the trained bundles it loads and,
/// for the two accuracy-checked workloads, the observable-cluster FCTs of
/// the full-fidelity run of scenario 0. Runs in its own process so the
/// measuring process's peak memory is the workload's own.
pub fn build_fixture(workload: &str, sizes: &Sizes, seed: u64, dir: &Path) -> Result<(), String> {
    let protocols = needs_bundles(workload);
    if !protocols.is_empty() {
        let cfgs: Vec<PipelineConfig> = train_cfgs(sizes, seed)
            .into_iter()
            .filter(|c| protocols.contains(&c.protocol))
            .collect();
        let bundles = Pipeline::try_train_bundles(&cfgs, THREADS)
            .map_err(|e| format!("fixture training: {e}"))?;
        for (cfg, bundle) in cfgs.iter().zip(&bundles) {
            let path = bundle_path(dir, cfg.protocol);
            atomic_write(&path, bundle.to_json().as_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    if needs_truth(workload) {
        let cfg = scenario_cfg(Protocol::NewReno, sizes.sim_s, scenario_seed(seed, 0));
        let t0 = Instant::now();
        let metrics = ground_truth(cfg.base, sizes.clusters, cfg.protocol).run();
        let wall_s = t0.elapsed().as_secs_f64();
        let fct = observed(&metrics, &topo_of(&cfg.base, sizes.clusters), OBSERVABLE).fct;
        let json =
            serde_json::json!({"wall_s": wall_s, "fct_p99": percentile(&fct, 99.0), "fct": fct});
        let text = serde_json::to_string(&json).expect("serializable truth");
        atomic_write(&truth_path(dir), text.as_bytes()).map_err(|e| format!("write truth: {e}"))?;
    }
    Ok(())
}

pub fn load_truth(dir: &Path) -> Result<Truth, String> {
    let v = crate::json::read_file(&truth_path(dir))?;
    let field =
        |key: &str| crate::json::get_f64(&v, key).ok_or_else(|| format!("truth.json: no {key}"));
    let fct = crate::json::get_array(&v, "fct")
        .ok_or("truth.json: no fct")?
        .iter()
        .map(|x| x.as_f64().ok_or("truth.json: fct is not a number"))
        .collect::<Result<Vec<f64>, _>>()?;
    Ok(Truth {
        fct,
        fct_p99: field("fct_p99")?,
        wall_s: field("wall_s")?,
    })
}

/// What `mimicnet estimate` does first: read the bundle file and parse it.
pub fn load_bundle(dir: &Path, protocol: Protocol) -> Result<TrainedMimic, String> {
    let path = bundle_path(dir, protocol);
    let json = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    TrainedMimic::from_json(&json).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// State the set-up leaves for the operations.
pub struct Ready {
    /// The NewReno bundle (`mimic-64`, `adaptive-64`).
    pub trained: Option<TrainedMimic>,
}

/// Everything a user pays before the timed region of `workload`: bundle
/// read + parse and config, topology and composition construction
/// (`train-cold`: config build only). `setup_s` is the time of this plus
/// that of starting the process.
pub fn set_up(
    workload: &str,
    sizes: &Sizes,
    seed: u64,
    dir: &Path,
    t: &mut Tracer,
) -> Result<Ready, String> {
    match workload {
        "train-cold" => {
            let cfgs = train_cfgs(sizes, seed);
            black_box(cfgs.map(Pipeline::new));
            Ok(Ready { trained: None })
        }
        "truth-64" => {
            let cfg = scenario_cfg(Protocol::NewReno, sizes.sim_s, scenario_seed(seed, 0));
            t.span("mimicnet.compose", |_| {
                black_box(ground_truth(cfg.base, sizes.clusters, cfg.protocol))
            });
            Ok(Ready { trained: None })
        }
        "mimic-64" | "adaptive-64" | "serve-mix" => {
            let (cfg, clusters) = if workload == "serve-mix" {
                let head = catalogue(sizes)[0];
                (head.cfg, head.clusters)
            } else {
                (
                    scenario_cfg(Protocol::NewReno, sizes.sim_s, scenario_seed(seed, 0)),
                    sizes.clusters,
                )
            };
            let trained = t.span("mimicnet.load", |_| load_bundle(dir, cfg.protocol))?;
            black_box(Pipeline::new(cfg));
            t.span("mimicnet.compose", |_| {
                try_compose(cfg.base, clusters, cfg.protocol, &trained).map(black_box)
            })
            .map_err(|e| format!("compose: {e}"))?;
            Ok(Ready {
                trained: Some(trained),
            })
        }
        other => Err(format!("unknown workload {other}")),
    }
}

/// What one operation produced, kept for the checks that run outside its
/// timed span.
pub enum Payload {
    Sim {
        metrics: Box<Metrics>,
        /// Wall time of composition + simulation, as the program reports it.
        sim_wall_s: f64,
        /// Time spent turning the finished simulation into the report.
        report_s: f64,
        /// Observable-cluster FCTs and their p99.
        fct: Vec<f64>,
        fct_p99: f64,
    },
    Bundles(Vec<String>),
}

pub struct OpOutput {
    /// Wall time of the whole operation, set-up to report.
    pub wall_s: f64,
    pub payload: Payload,
}

/// The statistics a CLI user reads off an estimate.
fn report(fct: &[f64], rtt: &[f64]) -> [f64; 4] {
    [
        percentile(fct, 50.0),
        percentile(fct, 99.0),
        percentile(rtt, 50.0),
        percentile(rtt, 99.0),
    ]
}

/// `truth-64`: the full-fidelity run of one scenario on the sequential
/// engine, with the report `Pipeline::run_ground_truth` makes.
pub fn truth_op(t: &mut Tracer, sizes: &Sizes, scenario: u64) -> Result<OpOutput, String> {
    let cfg = scenario_cfg(Protocol::NewReno, sizes.sim_s, scenario);
    let t0 = Instant::now();
    let (metrics, sim_wall_s, report_s, fct, fct_p99) = t.span("op", |t| {
        let mut sim = t.span("mimicnet.compose", |_| {
            ground_truth(cfg.base, sizes.clusters, cfg.protocol)
        });
        let metrics = t.span("sim.run", |_| sim.run());
        let sim_wall_s = t0.elapsed().as_secs_f64();
        let (fct, stats) = t.span("mimicnet.report", |_| {
            let samples = observed(&metrics, &topo_of(&cfg.base, sizes.clusters), OBSERVABLE);
            let stats = report(&samples.fct, &samples.rtt);
            (samples.fct, stats)
        });
        (
            metrics,
            sim_wall_s,
            t0.elapsed().as_secs_f64() - sim_wall_s,
            fct,
            stats[1],
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(OpOutput {
        wall_s,
        payload: Payload::Sim {
            metrics: Box::new(metrics),
            sim_wall_s,
            report_s,
            fct,
            fct_p99,
        },
    })
}

/// `mimic-64` / `adaptive-64`: the composed estimate of one scenario on
/// the partitioned engine, all-Mimic or under the CLI's default budget.
pub fn estimate_op(
    t: &mut Tracer,
    sizes: &Sizes,
    scenario: u64,
    trained: &TrainedMimic,
    adaptive: bool,
    partitions: usize,
) -> Result<OpOutput, String> {
    let cfg = scenario_cfg(Protocol::NewReno, sizes.sim_s, scenario);
    let t0 = Instant::now();
    let est = t.span("op", |t| {
        let mut pipe = Pipeline::new(cfg);
        t.span("mimicnet.estimate", |_| {
            let opts = PdesRunOpts::default();
            if adaptive {
                pipe.try_estimate_adaptive_opts(
                    trained,
                    sizes.clusters,
                    partitions,
                    &AccuracyBudget::default(),
                    &TIER_PLAN,
                    None,
                    &opts,
                )
            } else {
                pipe.try_estimate_opts(trained, sizes.clusters, partitions, &opts)
            }
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let est = est.map_err(|e| format!("estimate: {e}"))?;
    Ok(OpOutput {
        wall_s,
        payload: Payload::Sim {
            sim_wall_s: est.wall.as_secs_f64(),
            // `try_estimate*` builds its report inside the call.
            report_s: wall_s - est.wall.as_secs_f64(),
            fct_p99: est.fct_p99,
            fct: est.samples.fct,
            metrics: Box::new(est.metrics),
        },
    })
}

/// `train-cold`: train both bundles from nothing and write them to disk.
pub fn train_op(t: &mut Tracer, sizes: &Sizes, seed: u64, dir: &Path) -> Result<OpOutput, String> {
    let t0 = Instant::now();
    let bundles = t.span("op", |t| -> Result<Vec<String>, String> {
        let cfgs = train_cfgs(sizes, seed);
        let trained = t
            .span("mimicnet.train", |_| {
                Pipeline::try_train_bundles(&cfgs, THREADS)
            })
            .map_err(|e| format!("training: {e}"))?;
        t.span("mimicnet.save", |_| {
            let mut texts = Vec::with_capacity(trained.len());
            for (cfg, bundle) in cfgs.iter().zip(&trained) {
                let text = bundle.to_json();
                let path = bundle_path(dir, cfg.protocol);
                atomic_write(&path, text.as_bytes())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                texts.push(text);
            }
            Ok(texts)
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(OpOutput {
        wall_s,
        payload: Payload::Bundles(bundles?),
    })
}

/// One `serve-mix` request: today's full CLI path, from the bundle file
/// to the percentiles.
pub fn serve_op(t: &mut Tracer, fp: &Fingerprint, dir: &Path) -> Result<OpOutput, String> {
    let t0 = Instant::now();
    let est = t.span("op", |t| {
        let trained = t.span("mimicnet.load", |_| load_bundle(dir, fp.cfg.protocol))?;
        let t1 = Instant::now();
        let mut pipe = Pipeline::new(fp.cfg);
        let est = t
            .span("mimicnet.estimate", |_| {
                pipe.try_estimate(&trained, fp.clusters, None)
            })
            .map_err(|e| format!("estimate: {e}"))?;
        t.span("mimicnet.report", |_| {
            black_box(report(&est.samples.fct, &est.samples.rtt))
        });
        Ok::<_, String>((est, t1.elapsed().as_secs_f64()))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (est, after_load_s) = est?;
    Ok(OpOutput {
        wall_s,
        payload: Payload::Sim {
            sim_wall_s: est.wall.as_secs_f64(),
            report_s: after_load_s - est.wall.as_secs_f64(),
            fct_p99: est.fct_p99,
            fct: est.samples.fct,
            metrics: Box::new(est.metrics),
        },
    })
}

/// The simulated statistics of one run: a speed-only change must leave
/// every one of them, and so the digest, as it was.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimSummary {
    /// FNV-1a of `Metrics::canonical_bytes`.
    pub digest: u64,
    pub events: u64,
    pub flows_completed: u64,
    pub rtt_samples: u64,
    pub queue_drops: u64,
    pub ecn_marks: u64,
    pub mimic_drops: u64,
    pub tier_switches: u64,
    /// Share of the Mimic-managed clusters in the Flow tier when the run
    /// ended (the epoch count is not visible from outside the engine, so
    /// a share of cluster-epochs cannot be formed).
    pub flow_share_end: f64,
}

pub fn summarize(m: &Metrics, clusters: u32) -> SimSummary {
    let mut last = std::collections::BTreeMap::new();
    for s in &m.tier_switches {
        last.insert(s.cluster, s.to);
    }
    let in_flow = last
        .values()
        .filter(|&&tier| tier == FidelityTier::Flow)
        .count();
    SimSummary {
        digest: fnv64(&m.canonical_bytes()),
        events: m.events_processed,
        flows_completed: m.flows_completed() as u64,
        rtt_samples: m.rtt.len() as u64,
        queue_drops: m.queue_drops,
        ecn_marks: m.ecn_marks,
        mimic_drops: m.mimic_drops,
        tier_switches: m.tier_switches.len() as u64,
        flow_share_end: in_flow as f64 / clusters.saturating_sub(1).max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FULL, SMOKE};

    #[test]
    fn catalogue_has_eight_distinct_fingerprints_head_first() {
        for sizes in [FULL, SMOKE] {
            let cat = catalogue(&sizes);
            assert_eq!(cat.len(), 8);
            let keys: std::collections::BTreeSet<String> = cat
                .iter()
                .map(|f| {
                    format!(
                        "{}/{}/{:?}",
                        f.cfg.protocol.name(),
                        f.clusters,
                        f.cfg.base.traffic.pattern
                    )
                })
                .collect();
            assert_eq!(keys.len(), 8);
            assert_eq!(cat[0].clusters, sizes.serve_clusters[0]);
            assert_eq!(cat[0].cfg.base.traffic.pattern, TrafficPattern::Uniform);
            for f in &cat {
                f.cfg.base.validate().expect("valid scenario");
            }
        }
    }

    #[test]
    fn scenarios_differ_by_seed_and_by_operation() {
        assert_eq!(scenario_seed(3, 5), scenario_seed(3, 5));
        assert_ne!(scenario_seed(3, 5), scenario_seed(3, 6));
        assert_ne!(scenario_seed(3, 5), scenario_seed(4, 5));
    }

    #[test]
    fn training_data_is_fixed_and_the_seed_reaches_training() {
        let [a, _] = train_cfgs(&FULL, 1);
        let [b, dctcp] = train_cfgs(&FULL, 2);
        assert_eq!(a.base.seed, b.base.seed);
        assert_ne!(a.train.seed, b.train.seed);
        assert_eq!(dctcp.protocol, DCTCP);
    }
}
