//! One benchmark run of one workload: fixture, set-up timing, the
//! measured loop, the layer probes of a traced run, the output checks,
//! and the result line.

use crate::spec::{MetricSpec, Sizes, END_TO_END, PER_LAYER, THREADS, W1_CEILING};
use crate::stats::{median, tail, Zipf};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self as wl, OpOutput, Payload, SimSummary};
use dcn_sim::snapshot::atomic_write;
use dcn_transport::Protocol;
use mimic_ml::train::TrainConfig;
use mimicnet::datagen::{generate, DataGenConfig, TrainingData};
use mimicnet::internal_model::InternalModel;
use mimicnet::metrics::w1_fct_relative;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Operation ids of the spans recorded outside the measured operations.
const SETUP_OP: u64 = u64::MAX;
const PROBE_OP: u64 = u64::MAX - 1;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// Directory for everything the benchmark writes, under the checkout
/// root the command is run from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

pub fn detail_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("run-{workload}-t{}.json", trace as u8))
}

/// Removes the run's hand-over directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run this executable again as a helper process and wait for it.
fn helper(mode: &str, args: &RunArgs, dir: &Path) -> Result<Duration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(mode)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .arg("--dir")
        .arg(dir);
    if args.sizes == crate::spec::SMOKE {
        cmd.arg("--smoke");
    }
    let t0 = Instant::now();
    let status = cmd.status().map_err(|e| format!("spawn {mode}: {e}"))?;
    let wall = t0.elapsed();
    if !status.success() {
        return Err(format!("{mode} helper exited with {status}"));
    }
    Ok(wall)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One finished operation, after its payload has been checked and dropped.
struct OpRecord {
    /// What the operation ran: the scenario seed, or the catalogue rank.
    /// Operations with equal keys must produce equal digests.
    key: u64,
    traced: bool,
    wall_s: f64,
    sim_wall_s: f64,
    report_s: f64,
    dctcp: bool,
    summary: SimSummary,
    /// `(w1_fct_rel, fct_p99_rel_err)` where ground truth was at hand.
    accuracy: Option<(f64, f64)>,
}

/// Everything the loop and the probes learn, folded into the result.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    records: Vec<OpRecord>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        eprintln!("FAILED: {what}");
        self.failures.push(what);
    }
}

/// Run one operation, turning a panic into a failure like any other.
fn guarded(
    t: &mut Tracer,
    op: impl FnOnce(&mut Tracer) -> Result<OpOutput, String>,
) -> Result<OpOutput, String> {
    match catch_unwind(AssertUnwindSafe(|| op(t))) {
        Ok(out) => out,
        Err(panic) => {
            t.close_open_spans();
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Check one operation's output and reduce it to a record.
fn check(
    t: &mut Tracer,
    out: OpOutput,
    key: u64,
    traced: bool,
    dctcp: bool,
    clusters: u32,
    truth: Option<&wl::Truth>,
) -> Result<OpRecord, String> {
    let OpOutput { wall_s, payload } = out;
    match payload {
        Payload::Bundles(texts) => {
            let digest = t.span("harness.verify", |_| {
                let mut h = dcn_obs::digest::Fnv64::new();
                texts.iter().for_each(|text| h.write_bytes(text.as_bytes()));
                h.finish()
            });
            let summary = SimSummary {
                digest,
                ..SimSummary::default()
            };
            Ok(OpRecord {
                key,
                traced,
                wall_s,
                sim_wall_s: 0.0,
                report_s: 0.0,
                dctcp,
                summary,
                accuracy: None,
            })
        }
        Payload::Sim {
            metrics,
            sim_wall_s,
            report_s,
            fct,
            fct_p99,
        } => {
            let summary = t.span("harness.verify", |_| wl::summarize(&metrics, clusters));
            drop(metrics);
            if summary.flows_completed == 0 {
                return Err("no flow completed".into());
            }
            let accuracy = truth.map(|truth| {
                t.span("mimicnet.compare", |_| {
                    let p99_err = (fct_p99 - truth.fct_p99).abs() / truth.fct_p99;
                    (w1_fct_relative(&truth.fct, &fct), p99_err)
                })
            });
            if let Some((w1, _)) = accuracy {
                if w1.is_nan() || w1 > W1_CEILING {
                    return Err(format!("w1_fct_rel {w1:.4} above the ceiling {W1_CEILING}"));
                }
            }
            Ok(OpRecord {
                key,
                traced,
                wall_s,
                sim_wall_s,
                report_s,
                dctcp,
                summary,
                accuracy,
            })
        }
    }
}

/// The measured loop of the four single-client workloads: operations one
/// after another until `seconds` have passed. A traced run repeats
/// scenario 0, recorder on and off in turn; an untraced run moves to a
/// new scenario each time.
fn single_client_loop(
    args: &RunArgs,
    dir: &Path,
    ready: &wl::Ready,
    truth: Option<&wl::Truth>,
    t: &mut Tracer,
    tally: &mut Tally,
) {
    let sizes = &args.sizes;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let min_ops = if args.trace { 2 } else { 1 };
    for index in 0u64.. {
        if index >= min_ops && Instant::now() >= deadline {
            break;
        }
        let traced = args.trace && index % 2 == 0;
        let scenario_index = if args.trace { 0 } else { index };
        let scenario = wl::scenario_seed(args.seed, scenario_index);
        t.set_enabled(traced);
        t.set_op(index);
        let out = guarded(t, |t| match args.workload.as_str() {
            "train-cold" => wl::train_op(t, sizes, args.seed, dir),
            "truth-64" => wl::truth_op(t, sizes, scenario),
            name => {
                let trained = ready.trained.as_ref().expect("set-up loaded the bundle");
                wl::estimate_op(t, sizes, scenario, trained, name == "adaptive-64", THREADS)
            }
        });
        // Ground truth exists for scenario 0 only; train-cold repeats one input.
        let key = if args.workload == "train-cold" {
            0
        } else {
            scenario
        };
        let truth = truth.filter(|_| scenario_index == 0);
        tally.attempted += 1;
        match out.and_then(|out| check(t, out, key, traced, false, sizes.clusters, truth)) {
            Ok(record) => tally.records.push(record),
            Err(e) => tally.fail(format!("{} op {index}: {e}", args.workload)),
        }
    }
    t.set_enabled(args.trace);
}

/// The measured loop of `serve-mix`: a closed loop of [`THREADS`] clients
/// draining one seeded Zipf schedule over the catalogue; each sends its
/// next request when its previous one has been answered.
fn serve_loop(
    args: &RunArgs,
    dir: &Path,
    origin: Instant,
    tally: &mut Tally,
    spans: &mut Vec<Span>,
) {
    let catalogue = wl::catalogue(&args.sizes);
    let zipf = Zipf::new(catalogue.len(), 1.0);
    let next = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let results: Vec<(Tally, Vec<Span>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..THREADS)
            .map(|client| {
                let (catalogue, zipf, next) = (&catalogue, &zipf, &next);
                scope.spawn(move || {
                    let mut t = Tracer::new(origin, client as u32 + 1, false);
                    let mut tally = Tally::default();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= args.sizes.min_requests && Instant::now() >= deadline {
                            break;
                        }
                        let rank = zipf.pick(args.seed, index);
                        let fp = &catalogue[rank];
                        let traced = args.trace && index % 2 == 0;
                        t.set_enabled(traced);
                        t.set_op(index);
                        let out = guarded(&mut t, |t| wl::serve_op(t, fp, dir));
                        let dctcp = fp.cfg.protocol != Protocol::NewReno;
                        tally.attempted += 1;
                        match out.and_then(|out| {
                            check(&mut t, out, rank as u64, traced, dctcp, fp.clusters, None)
                        }) {
                            Ok(record) => tally.records.push(record),
                            Err(e) => {
                                tally.fail(format!("serve-mix request {index} (rank {rank}): {e}"))
                            }
                        }
                    }
                    (tally, t.into_spans())
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    for (client, client_spans) in results {
        tally.attempted += client.attempted;
        tally.failures.extend(client.failures);
        tally.records.extend(client.records);
        trace::merge(spans, client_spans);
    }
}

/// Layer measurements a traced run adds to what its spans show. Each is
/// taken on the workload whose end-to-end numbers that layer moves.
#[derive(Default)]
struct Probes {
    pdes_p1_s: f64,
    train_s: f64,
    train_samples: f64,
    infer_ns_per_pkt: f64,
    flow_run_s: f64,
    flow_flows_per_s: f64,
    datagen_s: f64,
    datagen_events: f64,
}

fn datagen(args: &RunArgs, t: &mut Tracer) -> (mimicnet::PipelineConfig, TrainingData, f64) {
    let [cfg, _] = wl::train_cfgs(&args.sizes, args.seed);
    // The data-generation scenario `Pipeline` derives from this config.
    let mut sim = cfg.base;
    sim.duration_s *= cfg.datagen_duration_factor.max(1.0);
    let dg = DataGenConfig {
        sim,
        protocol: cfg.protocol,
        ..DataGenConfig::default()
    };
    let t0 = Instant::now();
    let data = t.span("mimicnet.datagen", |_| generate(&dg));
    (cfg, data, t0.elapsed().as_secs_f64())
}

fn run_probes(
    args: &RunArgs,
    dir: &Path,
    ready: &wl::Ready,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Probes {
    let sizes = &args.sizes;
    let mut p = Probes::default();
    t.set_op(PROBE_OP);
    match args.workload.as_str() {
        "train-cold" => {
            let (cfg, data, datagen_s) = datagen(args, t);
            p.datagen_s = datagen_s;
            p.datagen_events = data.metrics.events_processed as f64;
            let train = TrainConfig {
                workers: 1,
                ..cfg.train
            };
            let t0 = Instant::now();
            let trained = t.span("ml.train", |_| {
                InternalModel::train_stacked(
                    &data.ingress,
                    data.ingress_disc,
                    cfg.hidden,
                    cfg.layers,
                    &train,
                )
            });
            p.train_s = t0.elapsed().as_secs_f64();
            p.train_samples = (data.ingress.len() * cfg.train.epochs) as f64;
            tally.attempted += 1;
            if let Err(e) = trained {
                tally.fail(format!("training probe: {e}"));
            }
        }
        "mimic-64" => {
            // The same scenario on one partition: the base of the PDES
            // speed-up, and a partition-invariance check for free.
            let trained = ready.trained.as_ref().expect("set-up loaded the bundle");
            let scenario = wl::scenario_seed(args.seed, 0);
            let mut walls = Vec::new();
            for _ in 0..3 {
                tally.attempted += 1;
                let out = guarded(t, |t| {
                    wl::estimate_op(t, sizes, scenario, trained, false, 1)
                });
                match out.and_then(|out| check(t, out, scenario, true, false, sizes.clusters, None))
                {
                    Ok(r) => {
                        walls.push(r.sim_wall_s);
                        if tally
                            .records
                            .first()
                            .is_some_and(|first| first.summary != r.summary)
                        {
                            tally.fail("mimic-64: 1 and 2 partitions disagree".into());
                        }
                    }
                    Err(e) => tally.fail(format!("pdes probe: {e}")),
                }
            }
            p.pdes_p1_s = median(&walls);
        }
        "adaptive-64" => {
            let mut cfg = wl::scenario_cfg(
                Protocol::NewReno,
                sizes.sim_s,
                wl::scenario_seed(args.seed, 0),
            )
            .base;
            cfg.topo.clusters = sizes.clusters;
            let mut sim = flow_sim::FlowSim::new(cfg);
            let t0 = Instant::now();
            let metrics = t.span("flow.run", |_| sim.run());
            p.flow_run_s = t0.elapsed().as_secs_f64();
            p.flow_flows_per_s = metrics.flows_completed() as f64 / p.flow_run_s;
        }
        _ => {}
    }
    if matches!(args.workload.as_str(), "mimic-64" | "serve-mix") {
        // Scalar (one packet at a time) inference, the path `try_estimate`
        // takes, over rows of the bundle's own training set.
        let loaded;
        let trained = match &ready.trained {
            Some(trained) => trained,
            None => {
                loaded = wl::load_bundle(dir, Protocol::NewReno).expect("fixture bundle");
                &loaded
            }
        };
        let (_, data, _) = datagen(args, t);
        let rows = &data.ingress.features;
        let mut state = trained.ingress.init_state();
        let t0 = Instant::now();
        t.span("ml.infer", |_| {
            for i in 0..sizes.infer_rows {
                black_box(
                    trained
                        .ingress
                        .predict(black_box(&rows[i % rows.len()]), &mut state),
                );
            }
        });
        p.infer_ns_per_pkt = t0.elapsed().as_nanos() as f64 / sizes.infer_rows as f64;
    }
    p
}

/// The record whose simulated statistics stand for the run: operation 0,
/// or on serve-mix, whose clients finish in any order, a request for the
/// head of the catalogue.
fn reference<'a>(workload: &str, records: &'a [OpRecord]) -> &'a OpRecord {
    if workload == "serve-mix" {
        records.iter().min_by_key(|r| r.key).expect("a record")
    } else {
        &records[0]
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, from the spans, the records and the probes.
fn layer_metrics(
    args: &RunArgs,
    tally: &Tally,
    spans: &[Span],
    p: &Probes,
    truth: Option<&wl::Truth>,
) -> BTreeMap<&'static str, f64> {
    let recs = &tally.records;
    let first = reference(&args.workload, recs).summary;
    let sim_walls: Vec<f64> = recs.iter().map(|r| r.sim_wall_s).collect();
    let ns_per_event = |dctcp: Option<bool>| {
        let mine = recs.iter().filter(|r| dctcp.is_none_or(|d| r.dctcp == d));
        let (wall, events) = mine.fold((0.0, 0u64), |(w, e), r| {
            (w + r.sim_wall_s, e + r.summary.events)
        });
        ratio(wall * 1e9, events as f64)
    };
    // serve-mix compares like with like: the head of the catalogue.
    let head = reference(&args.workload, recs).key;
    let walls = |traced: bool| -> Vec<f64> {
        recs.iter()
            .filter(|r| r.traced == traced && (args.workload != "serve-mix" || r.key == head))
            .map(|r| r.wall_s)
            .collect()
    };
    let (traced, untraced) = (walls(true), walls(false));
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        median(&traced) / median(&untraced) - 1.0
    };
    let accuracy = recs.iter().find_map(|r| r.accuracy).unwrap_or((0.0, 0.0));
    let op_s = median(&untraced);
    let is_train = args.workload == "train-cold";
    let sim_run_s = if is_train {
        p.datagen_s
    } else {
        median(&sim_walls)
    };
    let events = if is_train {
        p.datagen_events
    } else {
        first.events as f64
    };
    let pdes_p2_s = if args.workload == "mimic-64" {
        sim_run_s
    } else {
        0.0
    };
    let report_s = median(&recs.iter().map(|r| r.report_s).collect::<Vec<_>>());
    BTreeMap::from([
        ("sim.events", events),
        ("sim.run_s", sim_run_s),
        (
            "sim.ns_per_event",
            if is_train {
                ratio(p.datagen_s * 1e9, events)
            } else {
                ns_per_event(None)
            },
        ),
        (
            "sim.ns_per_event_newreno",
            if is_train {
                0.0
            } else {
                ns_per_event(Some(false))
            },
        ),
        ("sim.ns_per_event_dctcp", ns_per_event(Some(true))),
        ("sim.digest32", (first.digest & 0xFFFF_FFFF) as f64),
        ("transport.flows_completed", first.flows_completed as f64),
        ("transport.rtt_samples", first.rtt_samples as f64),
        ("transport.queue_drops", first.queue_drops as f64),
        ("transport.ecn_marks", first.ecn_marks as f64),
        ("pdes.p1_s", p.pdes_p1_s),
        ("pdes.p2_s", pdes_p2_s),
        ("pdes.speedup_p2", ratio(p.pdes_p1_s, pdes_p2_s)),
        ("ml.train_s", p.train_s),
        ("ml.train_samples", p.train_samples),
        ("ml.train_samples_per_s", ratio(p.train_samples, p.train_s)),
        ("ml.infer_ns_per_pkt", p.infer_ns_per_pkt),
        ("ml.mimic_drops", first.mimic_drops as f64),
        ("flow.run_s", p.flow_run_s),
        ("flow.flows_per_s", p.flow_flows_per_s),
        ("tier.switches", first.tier_switches as f64),
        ("tier.flow_share_end", first.flow_share_end),
        ("mimicnet.datagen_s", p.datagen_s),
        (
            "mimicnet.save_s",
            trace::median_total_s(spans, "mimicnet.save"),
        ),
        (
            "mimicnet.load_s",
            trace::median_total_s(spans, "mimicnet.load"),
        ),
        (
            "mimicnet.compose_s",
            trace::median_total_s(spans, "mimicnet.compose"),
        ),
        ("mimicnet.report_s", report_s),
        (
            "mimicnet.compare_s",
            trace::median_total_s(spans, "mimicnet.compare"),
        ),
        ("harness.self_s", trace::median_self_s(spans, "op")),
        ("trace_overhead_frac", overhead),
        ("acc.w1_fct_rel", accuracy.0),
        ("acc.fct_p99_rel_err", accuracy.1),
        (
            "acc.speedup_vs_truth",
            truth.map_or(0.0, |t| ratio(t.wall_s, op_s)),
        ),
    ])
}

fn metrics_json(specs: &[MetricSpec], values: &BTreeMap<&'static str, f64>) -> Value {
    Value::Object(
        specs
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({"value": values[m.name], "unit": m.unit}),
                )
            })
            .collect(),
    )
}

/// Operations with equal keys ran equal inputs: their simulated
/// statistics must be equal too.
fn check_repeats(tally: &mut Tally) {
    let mut seen: BTreeMap<u64, SimSummary> = BTreeMap::new();
    let mut bad = Vec::new();
    for r in &tally.records {
        let first = seen.entry(r.key).or_insert(r.summary);
        if *first != r.summary {
            bad.push(format!(
                "input {:#x}: digest {:#018x} then {:#018x}",
                r.key, first.digest, r.summary.digest
            ));
        }
    }
    for b in bad {
        tally.fail(format!("repeat of an input gave another result: {b}"));
    }
}

/// Run one workload once; `Ok(true)` when every output check passed.
pub fn run_workload(args: &RunArgs) -> Result<bool, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let run_dir = RunDir(out.join(format!("run-{}-{}", args.workload, std::process::id())));
    let dir = run_dir.0.as_path();
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    helper("__fixture", args, dir)?;
    // `setup_s` is what a CLI user pays before the timed region: a fresh
    // process (timed on a helper that starts and exits) plus the
    // workload's set-up path (timed here, where it repeats steadily).
    // A traced run reports no end-to-end metric, so it skips both.
    let mut start_samples = Vec::new();
    let mut setup_samples = Vec::new();
    if !args.trace {
        let mut off = Tracer::new(Instant::now(), 0, false);
        for _ in 0..args.sizes.setup_reps {
            start_samples.push(helper("__start", args, dir)?.as_secs_f64());
            let t0 = Instant::now();
            black_box(wl::set_up(
                &args.workload,
                &args.sizes,
                args.seed,
                dir,
                &mut off,
            )?);
            setup_samples.push(t0.elapsed().as_secs_f64());
        }
    }

    let origin = Instant::now();
    let mut t = Tracer::new(origin, 0, args.trace);
    t.set_op(SETUP_OP);
    let ready = wl::set_up(&args.workload, &args.sizes, args.seed, dir, &mut t)?;
    let truth = if wl::needs_truth(&args.workload) {
        Some(wl::load_truth(dir)?)
    } else {
        None
    };

    let mut tally = Tally::default();
    let mut spans = Vec::new();
    if args.workload == "serve-mix" {
        serve_loop(args, dir, origin, &mut tally, &mut spans);
    } else {
        single_client_loop(args, dir, &ready, truth.as_ref(), &mut t, &mut tally);
    }
    let probes = if args.trace {
        run_probes(args, dir, &ready, &mut t, &mut tally)
    } else {
        Probes::default()
    };
    trace::merge(&mut spans, t.into_spans());
    check_repeats(&mut tally);
    let failed = (tally.failures.len() as u64).min(tally.attempted);
    if tally.records.is_empty() {
        return Err(format!(
            "{}: no operation succeeded: {:?}",
            args.workload, tally.failures
        ));
    }

    let clients = if args.workload == "serve-mix" {
        THREADS
    } else {
        1
    };
    let walls: Vec<f64> = tally.records.iter().map(|r| r.wall_s).collect();
    let values: BTreeMap<&'static str, f64> = if args.trace {
        layer_metrics(args, &tally, &spans, &probes, truth.as_ref())
    } else {
        BTreeMap::from([
            ("op_ms", median(&walls) * 1e3),
            ("tail_ms", tail(&walls) * 1e3),
            (
                "ops_per_s",
                walls.len() as f64 * clients as f64 / walls.iter().sum::<f64>(),
            ),
            ("setup_s", median(&start_samples) + median(&setup_samples)),
            ("peak_rss_mb", peak_rss_mb()?),
        ])
    };
    let specs: &[MetricSpec] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = tally.failures.is_empty();

    // Human-readable part: every metric by name with its unit.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} | seed {} | {} sizes | trace {} | {} ops in {:.1} s | nproc {nproc}, threads {THREADS}",
        args.workload,
        args.seed,
        args.sizes.label,
        args.trace as u8,
        tally.records.len(),
        origin.elapsed().as_secs_f64(),
    );
    for m in specs {
        println!("  {:<28} {:>16.6} {}", m.name, values[m.name], m.unit);
    }
    let first = reference(&args.workload, &tally.records).summary;
    println!(
        "  sim.events[0] = {}  result_digest[0] = {:#018x}",
        first.events, first.digest
    );
    let accuracy = tally.records.iter().find_map(|r| r.accuracy);
    if let (Some((w1, p99)), Some(truth)) = (accuracy, truth.as_ref()) {
        println!(
            "  w1_fct_rel = {w1:.4} (ceiling {W1_CEILING})  fct_p99_rel_err = {p99:.4}  speedup_vs_truth = {:.2} (base: one fixture run of {:.3} s)",
            truth.wall_s / median(&walls),
            truth.wall_s,
        );
    }

    if args.trace {
        let path = out.join(format!("trace-{}.json", args.workload));
        atomic_write(
            &path,
            trace::to_chrome_json(&args.workload, &spans).as_bytes(),
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  wrote {} ({} spans)", path.display(), spans.len());
    }
    let metrics = metrics_json(specs, &values);
    let detail = json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": args.sizes.label,
        "nproc": nproc,
        "threads": THREADS,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "failures": tally.failures,
        "metrics": metrics,
        "op_wall_s": walls,
        "op_key": tally.records.iter().map(|r| format!("{:#x}", r.key)).collect::<Vec<_>>(),
        "op_digest": tally.records.iter().map(|r| format!("{:#018x}", r.summary.digest)).collect::<Vec<_>>(),
        "op_events": tally.records.iter().map(|r| r.summary.events).collect::<Vec<_>>(),
        "events0": first.events,
        "digest0": format!("{:#018x}", first.digest),
        "process_start_s": start_samples,
        "setup_path_s": setup_samples,
        "w1_fct_rel": accuracy.map(|a| a.0),
        "fct_p99_rel_err": accuracy.map(|a| a.1),
        "truth_wall_s": truth.as_ref().map(|t| t.wall_s),
    });
    let path = detail_path(&args.workload, args.trace);
    let text = serde_json::to_string_pretty(&detail).expect("serializable detail");
    atomic_write(&path, text.as_bytes()).map_err(|e| format!("write {}: {e}", path.display()))?;

    let line = json!({"correct": correct, "attempted": tally.attempted, "failed": failed, "metrics": metrics});
    println!(
        "{}",
        serde_json::to_string(&line).expect("serializable result")
    );
    Ok(correct)
}
