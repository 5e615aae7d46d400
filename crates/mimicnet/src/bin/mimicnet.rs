//! `mimicnet` — command-line driver for the MimicNet workflow.
//!
//! ```text
//! mimicnet train    [--duration S] [--seed N] [--protocol P] [--k K]
//!                   [--epochs E] [--hidden H] [--window W] [--workers W]
//!                   --out model.json
//! mimicnet estimate --model model.json --clusters N [--duration S] [--json]
//! mimicnet validate --model model.json --clusters N [--duration S]
//! mimicnet tune     [--evals E] [--scales 2,4] [--duration S] [--workers W]
//! mimicnet diverge  --a A-obs.json --b B-obs.json [--out report.json]
//! ```
//!
//! Protocols: newreno (default), dctcp (with `--k`), vegas, westwood, homa.
//! All randomness derives from `--seed`; re-running a command reproduces
//! its outputs bit-for-bit — including `--workers W`, the thread budget
//! of training (the ingress and egress models train concurrently), which
//! does not change a single bit of the result.
//!
//! Observability (train/estimate/validate): `--trace-out FILE` writes a
//! Chrome trace-event file (open in Perfetto or chrome://tracing),
//! `--obs-out FILE` writes the full JSON telemetry snapshot, `--report`
//! prints a human-readable summary to stderr. Tracing never changes the
//! results.
//!
//! One Mimic model: `--partitions P` and the diagnostics flags move a run
//! onto the PDES driver, which prints the same numbers as a plain
//! `estimate`; only `--adaptive` changes the model. Nothing is
//! checkpointed — a composed estimate takes seconds, so a crashed run is
//! simply re-run. All file outputs are written atomically (temp file +
//! rename), so a crash never leaves a torn file.
//!
//! Divergence localization: run both sides with `--digests --obs-out
//! FILE`, then `diverge --a A --b B` names the first diverging window and
//! a `--stop-at` time just past it. Re-running both sides with
//! `--stop-at T --digests --flight N --obs-out FILE` and comparing those
//! files also names the first diverging event. Exit 0 = the timelines
//! agree, 3 = divergence localized.

use dcn_sim::mimic::FidelityTier;
use dcn_sim::pdes::{FlightPlan, PdesRunOpts, TierPlan};
use dcn_sim::snapshot::atomic_write;
use dcn_sim::time::SimTime;
use dcn_transport::Protocol;
use mimicnet::diverge::{self, ObsRun};
use mimicnet::fleet::{VerdictCounts, DIRECTIONS};
use mimicnet::mimic::TrainedMimic;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use mimicnet::tuning::{tune, TuningConfig};
use mimicnet::{AccuracyBudget, CorrectionHead};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};

/// `print!` that survives a closed stdout: see [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` that survives a closed stdout: see [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Set once stdout's reader has gone.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write to stdout. A reader that closes early (`mimicnet estimate … |
/// head -1`) has read all it wants, so a broken pipe drops this and every
/// later write and the run ends as it would have, its files written.
/// Any other write error ends the process with exit 1.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        }
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: mimicnet <train|estimate|validate|tune|diverge> [options]\n\
         \n\
         train    --out FILE [--duration S] [--seed N] [--protocol P] [--k K]\n\
         \u{20}        [--epochs E] [--hidden H] [--layers L] [--window W]\n\
         \u{20}        [--workers W]\n\
         estimate --model FILE --clusters N [--duration S] [--json]\n\
         validate --model FILE --clusters N [--duration S]\n\
         tune     [--evals E] [--scales 2,4] [--duration S] [--seed N]\n\
         \u{20}        [--workers W]\n\
         (config flags, accepted by every subcommand but diverge:\n\
         \u{20}--duration --seed --protocol --k --epochs --hidden --layers\n\
         \u{20}--window --workers; any other flag a subcommand does not\n\
         \u{20}list is an error;\n\
         \u{20}--workers W trains up to W models at once, same bits at any W)\n\
         \n\
         diverge  --a A-obs.json --b B-obs.json [--out report.json]\n\
         \u{20}        (two runs' --obs-out files; exit 0 = identical,\n\
         \u{20}        3 = divergence localized)\n\
         \n\
         partitioned engine and diagnostics (estimate/validate; one Mimic\n\
         model — the same numbers with or without these flags):\n\
         \u{20}        [--partitions P] [--digests] [--digest-stride N] [--flight N]\n\
         \u{20}        [--flight-dump DIR] [--stop-at S]\n\
         \n\
         adaptive fidelity tiers (estimate):\n\
         \u{20}        [--adaptive] [--tier-every WINDOWS] [--tier-start mimic|flow]\n\
         \u{20}        [--promote-above X] [--demote-below X] [--tier-patience N]\n\
         \u{20}        [--max-above-flow N] [--correction FILE]\n\
         (train: [--correction-out FILE] ridge-fits the Flow-tier head)\n\
         \n\
         observability (train/estimate/validate):\n\
         \u{20}        [--trace-out FILE] [--obs-out FILE] [--report]\n\
         \n\
         protocols: newreno dctcp vegas westwood homa"
    );
    exit(2);
}

/// Flags read by [`pipeline_from`] (every subcommand builds a pipeline
/// config).
const PIPELINE_FLAGS: &[&str] = &[
    "duration", "seed", "protocol", "k", "epochs", "hidden", "layers", "window", "workers",
];
/// Flags read by [`obs_requested`] / [`export_obs`].
const OBS_FLAGS: &[&str] = &["trace-out", "obs-out", "report"];
/// Flags read by [`estimate_from_flags`] and [`diag_flags_into`].
const RUN_FLAGS: &[&str] = &[
    "partitions", "digests", "digest-stride", "flight", "flight-dump", "stop-at",
];
/// Flags read by [`adaptive_from`].
const ADAPTIVE_FLAGS: &[&str] = &[
    "adaptive", "tier-every", "tier-start", "promote-above", "demote-below", "tier-patience",
    "max-above-flow", "correction",
];

/// The flags `cmd` understands, or `None` for an unknown subcommand. A
/// flag a subcommand would silently ignore is an error, not a no-op.
fn known_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let (own, groups): (&[&str], &[&[&str]]) = match cmd {
        "train" => (&["out", "correction-out"], &[PIPELINE_FLAGS, OBS_FLAGS]),
        "estimate" => (
            &["model", "clusters", "json"],
            &[PIPELINE_FLAGS, OBS_FLAGS, RUN_FLAGS, ADAPTIVE_FLAGS],
        ),
        "validate" => (&["model", "clusters"], &[PIPELINE_FLAGS, OBS_FLAGS, RUN_FLAGS]),
        "tune" => (&["evals", "scales"], &[PIPELINE_FLAGS]),
        "diverge" => (&["a", "b", "out"], &[]),
        _ => return None,
    };
    Some(own.iter().chain(groups.iter().copied().flatten()).copied().collect())
}

fn parse_args(args: &[String], known: &[&str]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            eprintln!("unexpected argument: {}", args[i]);
            usage();
        };
        if !known.contains(&key) {
            eprintln!("error: unknown flag for this subcommand: --{key}");
            usage();
        }
        if key == "json" || key == "report" || key == "adaptive" || key == "digests" {
            map.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("missing value for --{key}");
            usage();
        };
        map.insert(key.to_string(), value.clone());
        i += 2;
    }
    map
}

/// A flag value that does not parse is a usage error: one line, exit 2.
fn bad_flag(name: &str, what: &str, raw: &str) -> ! {
    eprintln!("error: --{name} must be {what}, got {raw:?}");
    exit(2)
}

/// `--name` parsed as a `T` (`what` describes one), `None` when absent.
fn flag<T: std::str::FromStr>(opts: &HashMap<String, String>, name: &str, what: &str) -> Option<T> {
    let raw = opts.get(name)?;
    Some(raw.parse().unwrap_or_else(|_| bad_flag(name, what, raw)))
}

/// `--name` parsed as an integer of at least 1, `None` when absent.
fn positive_flag(opts: &HashMap<String, String>, name: &str) -> Option<usize> {
    let v = flag(opts, name, "a positive integer")?;
    if v == 0 {
        bad_flag(name, "a positive integer", &opts[name]);
    }
    Some(v)
}

fn protocol_from(opts: &HashMap<String, String>) -> Protocol {
    match opts.get("protocol").map(|s| s.as_str()).unwrap_or("newreno") {
        "newreno" => Protocol::NewReno,
        "dctcp" => Protocol::Dctcp { k: flag(opts, "k", "an integer").unwrap_or(20) },
        "vegas" => Protocol::Vegas,
        "westwood" => Protocol::Westwood,
        "homa" => Protocol::Homa,
        other => {
            eprintln!("unknown protocol: {other}");
            usage();
        }
    }
}

fn pipeline_from(opts: &HashMap<String, String>) -> PipelineConfig {
    let mut cfg = PipelineConfig {
        protocol: protocol_from(opts),
        ..PipelineConfig::default()
    };
    if let Some(d) = flag(opts, "duration", "a number") {
        cfg.base.duration_s = d;
    }
    if let Some(s) = flag(opts, "seed", "an integer") {
        cfg.base.seed = s;
    }
    if let Some(e) = flag(opts, "epochs", "an integer") {
        cfg.train.epochs = e;
    }
    if let Some(h) = flag(opts, "hidden", "an integer") {
        cfg.hidden = h;
    }
    if let Some(l) = flag(opts, "layers", "an integer") {
        cfg.layers = l;
    }
    if let Some(w) = flag(opts, "window", "an integer") {
        cfg.train.window = w;
    }
    if let Some(w) = flag(opts, "workers", "an integer") {
        cfg.train.workers = w;
    }
    cfg
}

fn load_model(opts: &HashMap<String, String>) -> TrainedMimic {
    let path = opts.get("model").unwrap_or_else(|| {
        eprintln!("--model is required");
        usage();
    });
    read_or_exit(path, "cannot parse ", TrainedMimic::from_json)
}

/// Read `path` and parse it, or exit 1 with `cannot read PATH: …` or
/// `{parse_prefix}PATH: …`.
fn read_or_exit<T, E: std::fmt::Display>(
    path: &str,
    parse_prefix: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> T {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    parse(&text).unwrap_or_else(|e| {
        eprintln!("{parse_prefix}{path}: {e}");
        exit(1);
    })
}

/// Write `bytes` to `path` atomically, or exit 1 with `cannot write PATH: …`.
fn write_or_exit(path: &str, bytes: &[u8]) {
    atomic_write(path.as_ref(), bytes).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    });
}

fn clusters_from(opts: &HashMap<String, String>) -> u32 {
    let n: u32 = flag(opts, "clusters", "an integer").unwrap_or_else(|| {
        eprintln!("--clusters is required");
        usage();
    });
    if n < 2 {
        eprintln!("error: a composition needs at least two clusters, got {n}");
        std::process::exit(2);
    }
    n
}

/// Parse the diagnostics flags (state digests, flight recorder, early
/// stop) into `o`. Returns whether any were given —
/// callers use that to route onto the full-options engine path.
fn diag_flags_into(o: &mut PdesRunOpts, opts: &HashMap<String, String>) -> bool {
    let mut any = false;
    if opts.contains_key("digests") || opts.contains_key("digest-stride") {
        o.digest_stride = Some(positive_flag(opts, "digest-stride").unwrap_or(1) as u64);
        any = true;
    }
    if opts.contains_key("flight") || opts.contains_key("flight-dump") {
        o.flight = Some(FlightPlan {
            capacity: positive_flag(opts, "flight").unwrap_or(4096),
            dump_dir: opts.get("flight-dump").map(PathBuf::from),
        });
        any = true;
    }
    let stop_at = "a finite, positive number of simulated seconds";
    if let Some(secs) = flag::<f64>(opts, "stop-at", stop_at) {
        if !(secs.is_finite() && secs > 0.0) {
            bad_flag("stop-at", stop_at, &opts["stop-at"]);
        }
        o.stop_at = Some(SimTime::from_secs_f64(secs));
        any = true;
    }
    any
}

/// Print the error, flush whatever telemetry the pipeline gathered (so a
/// failed run still leaves its trace/obs artifacts behind), and exit.
fn die_with_obs(
    pipe: &mut Pipeline,
    opts: &HashMap<String, String>,
    e: impl std::fmt::Display,
    code: i32,
) -> ! {
    eprintln!("error: {e}");
    export_obs(pipe, opts);
    exit(code)
}

/// Parse the adaptive-tier accuracy budget flags.
fn budget_from(opts: &HashMap<String, String>) -> AccuracyBudget {
    let mut b = AccuracyBudget::default();
    if let Some(v) = flag(opts, "promote-above", "a number") {
        b.promote_above = v;
    }
    if let Some(v) = flag(opts, "demote-below", "a number") {
        b.demote_below = v;
    }
    if let Some(v) = flag(opts, "tier-patience", "an integer") {
        b.patience = v;
    }
    if let Some(v) = flag(opts, "max-above-flow", "an integer") {
        b.max_above_flow = v;
    }
    if let Some(v) = opts.get("tier-start") {
        b.start = match v.as_str() {
            "mimic" => FidelityTier::Mimic,
            "flow" => FidelityTier::Flow,
            other => {
                eprintln!("unknown --tier-start: {other} (use mimic or flow)");
                usage();
            }
        };
    }
    b
}

/// Parse `--adaptive` and its tier flags; `None` without `--adaptive`.
fn adaptive_from(
    opts: &HashMap<String, String>,
) -> Option<(AccuracyBudget, TierPlan, Option<CorrectionHead>)> {
    opts.contains_key("adaptive").then(|| {
        let plan = TierPlan {
            every_windows: flag(opts, "tier-every", "a positive integer").unwrap_or(64),
        };
        (budget_from(opts), plan, correction_from(opts))
    })
}

/// Load the optional Flow-tier correction head.
fn correction_from(opts: &HashMap<String, String>) -> Option<CorrectionHead> {
    let path = opts.get("correction")?;
    Some(read_or_exit(path, "cannot parse ", serde_json::from_str))
}

/// Whether any observability output was requested.
fn obs_requested(opts: &HashMap<String, String>) -> bool {
    opts.contains_key("trace-out") || opts.contains_key("obs-out") || opts.contains_key("report")
}

/// Drain the pipeline's telemetry and write/print whatever was asked for.
fn export_obs(pipe: &mut Pipeline, opts: &HashMap<String, String>) {
    let Some(report) = pipe.obs.take_report() else {
        return;
    };
    if let Some(path) = opts.get("trace-out") {
        write_or_exit(path, report.to_chrome_trace().as_bytes());
        eprintln!("wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = opts.get("obs-out") {
        write_or_exit(path, report.to_json_string().as_bytes());
        eprintln!("wrote telemetry snapshot to {path}");
    }
    if opts.contains_key("report") {
        eprint!("{}", report.render_report());
    }
}

fn cmd_train(opts: HashMap<String, String>) {
    let out = opts.get("out").cloned().unwrap_or_else(|| {
        eprintln!("--out is required");
        usage();
    });
    let cfg = pipeline_from(&opts);
    eprintln!(
        "training {} on a {}-cluster x {:.2}s small-scale run (seed {})...",
        cfg.protocol.name(),
        cfg.base.topo.clusters,
        cfg.base.duration_s * cfg.datagen_duration_factor,
        cfg.base.seed
    );
    let mut pipe = Pipeline::new(cfg);
    if obs_requested(&opts) {
        pipe = pipe.with_obs();
    }
    let (trained, data) = pipe.try_train().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });
    write_or_exit(&out, trained.to_json().as_bytes());
    if let Some(path) = opts.get("correction-out") {
        let mut dg_sim = pipe.cfg.base;
        dg_sim.duration_s *= pipe.cfg.datagen_duration_factor.max(1.0);
        match mimicnet::tier::fit_correction_head(&dg_sim, &data.metrics) {
            Some(head) => {
                let json = serde_json::to_string_pretty(&head).expect("serializable head");
                write_or_exit(path, json.as_bytes());
                eprintln!("wrote Flow-tier correction head to {path}");
            }
            None => eprintln!("boundary trace too thin to fit a correction head; skipped {path}"),
        }
    }
    eprintln!(
        "wrote {out} ({} params/direction; sim {:?}, training {:?})",
        trained.ingress.model.param_count(),
        pipe.timings.small_scale_sim,
        pipe.timings.training
    );
    export_obs(&mut pipe, &opts);
}

/// Run the composed estimate the flags ask for (shared by `estimate` and
/// `validate`), exiting through [`die_with_obs`] on failure.
///
/// Every path runs the same Mimic fleet and prints the same numbers. With
/// no `--partitions`, diagnostics or `--adaptive` flag the run stays on
/// the in-process sequential engine; any of them moves it onto the PDES
/// driver that implements them, under the accuracy budget when
/// `--adaptive` is set (the one flag that does change the model).
fn estimate_from_flags(
    pipe: &mut Pipeline,
    trained: &TrainedMimic,
    n: u32,
    opts: &HashMap<String, String>,
) -> mimicnet::pipeline::EstimateReport {
    let mut run_opts = PdesRunOpts::default();
    let diag = diag_flags_into(&mut run_opts, opts);
    let partitions = positive_flag(opts, "partitions");
    let adaptive = adaptive_from(opts);
    if adaptive.is_none() && partitions.is_none() && !diag {
        return match pipe.try_estimate(trained, n, None) {
            Ok(est) => est,
            Err(e) => die_with_obs(pipe, opts, e, 2),
        };
    }
    let partitions = partitions.unwrap_or(1);
    if let Some((budget, plan, _)) = &adaptive {
        eprintln!(
            "adaptive tiers: start={:?}, epoch every {} windows, promote ≥{}, demote <{} after {} calm epochs",
            budget.start, plan.every_windows, budget.promote_above, budget.demote_below, budget.patience
        );
    }
    let result = match &adaptive {
        Some((budget, plan, correction)) => pipe.try_estimate_adaptive_opts(
            trained,
            n,
            partitions,
            budget,
            plan,
            correction.as_ref(),
            &run_opts,
        ),
        None => pipe.try_estimate_opts(trained, n, partitions, &run_opts),
    };
    let est = match result {
        Ok(est) => est,
        Err(e) => die_with_obs(pipe, opts, e, 2),
    };
    if adaptive.is_some() {
        eprintln!("tier switches: {}", est.metrics.tier_switches.len());
    }
    est
}

fn cmd_estimate(opts: HashMap<String, String>) {
    let trained = load_model(&opts);
    let n = clusters_from(&opts);
    let mut pipe = Pipeline::new(pipeline_from(&opts));
    // `--json` reports what the Mimics decided, which the fleet counts
    // only when telemetry is on.
    if obs_requested(&opts) || opts.contains_key("json") {
        pipe = pipe.with_obs();
    }
    let est = estimate_from_flags(&mut pipe, &trained, n, &opts);
    let [ingress, egress] = DIRECTIONS.map(|dir| {
        pipe.obs
            .report()
            .map_or_else(VerdictCounts::default, |r| VerdictCounts::from_report(r, dir))
    });
    if opts.contains_key("json") {
        let out = serde_json::json!({
            "clusters": n,
            "wall_seconds": est.wall.as_secs_f64(),
            "flows_completed": est.samples.fct.len(),
            "fct_p50": dcn_sim::stats::percentile(&est.samples.fct, 50.0),
            "fct_p90": dcn_sim::stats::percentile(&est.samples.fct, 90.0),
            "fct_p99": est.fct_p99,
            "throughput_p99": est.throughput_p99,
            "rtt_p50": dcn_sim::stats::percentile(&est.samples.rtt, 50.0),
            "rtt_p99": est.rtt_p99,
            "tier_switches": est.metrics.tier_switches.len(),
            "mimic_ingress_drop_rate": ingress.drop_rate(),
            "mimic_ingress_mark_rate": ingress.mark_rate(),
            "mimic_egress_drop_rate": egress.drop_rate(),
            "mimic_egress_mark_rate": egress.mark_rate(),
        });
        outln!("{}", serde_json::to_string_pretty(&out).unwrap());
    } else {
        outln!("{n}-cluster estimate ({:?} wall):", est.wall);
        outln!("  flows completed: {}", est.samples.fct.len());
        outln!("  FCT  p50 {:.4}s  p99 {:.4}s", dcn_sim::stats::percentile(&est.samples.fct, 50.0), est.fct_p99);
        outln!("  RTT  p50 {:.4}s  p99 {:.4}s", dcn_sim::stats::percentile(&est.samples.rtt, 50.0), est.rtt_p99);
        outln!("  tput p99 {:.0} B/s", est.throughput_p99);
    }
    export_obs(&mut pipe, &opts);
    if opts.contains_key("report") {
        for (dir, c) in DIRECTIONS.iter().zip([ingress, egress]) {
            eprintln!(
                "mimic {dir} verdicts: {}, drop rate {:.5}, mark rate {:.5}",
                c.verdicts,
                c.drop_rate(),
                c.mark_rate()
            );
        }
    }
}

fn cmd_validate(opts: HashMap<String, String>) {
    let trained = load_model(&opts);
    let n = clusters_from(&opts);
    let mut pipe = Pipeline::new(pipeline_from(&opts));
    if obs_requested(&opts) {
        pipe = pipe.with_obs();
    }
    eprintln!("running MimicNet and full-fidelity at {n} clusters...");
    let est = estimate_from_flags(&mut pipe, &trained, n, &opts);
    let (truth, _, truth_wall) = match pipe.try_ground_truth(n, None) {
        Ok(truth) => truth,
        Err(e) => die_with_obs(&mut pipe, &opts, e, 2),
    };
    let report = mimicnet::metrics::compare(&truth, &est.samples);
    outln!("W1(FCT)        = {:.5}", report.w1_fct);
    outln!("W1(throughput) = {:.0}", report.w1_throughput);
    outln!("W1(RTT)        = {:.6}", report.w1_rtt);
    outln!(
        "p99 FCT: truth {:.4}s vs mimic {:.4}s ({:.1}% off)",
        report.fct_p99_truth,
        report.fct_p99_approx,
        report.fct_p99_rel_err() * 100.0
    );
    outln!(
        "wall: mimic {:.3}s vs truth {:.3}s ({:.1}x)",
        est.wall.as_secs_f64(),
        truth_wall.as_secs_f64(),
        truth_wall.as_secs_f64() / est.wall.as_secs_f64().max(1e-9)
    );
    export_obs(&mut pipe, &opts);
}

/// `mimicnet diverge`: localize where two digested runs first disagree,
/// from their `--obs-out` files. Exit codes: 0 = timelines agree, 3 =
/// divergence found, 1/2 = error.
fn cmd_diverge(opts: HashMap<String, String>) {
    let run = |key: &str| -> ObsRun {
        let path = opts.get(key).cloned().unwrap_or_else(|| {
            eprintln!("--{key} OBS.json is required (the run's --obs-out snapshot)");
            usage();
        });
        read_or_exit(&path, "", ObsRun::from_json)
    };
    let (a, b) = (run("a"), run("b"));
    match diverge::localize(&a, &b) {
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
        Ok(None) => {
            outln!("no divergence: the two digest timelines agree over their whole overlap");
        }
        Ok(Some(report)) => {
            out!("{}", diverge::render_report(&report));
            if let Some(out) = opts.get("out") {
                let json = serde_json::to_string_pretty(&diverge::report_json(&report))
                    .expect("serializable report");
                write_or_exit(out, json.as_bytes());
                eprintln!("wrote diff report to {out}");
            }
            exit(3);
        }
    }
}

fn cmd_tune(opts: HashMap<String, String>) {
    let cfg = pipeline_from(&opts);
    let tcfg = TuningConfig {
        evals: flag(&opts, "evals", "an integer").unwrap_or(8),
        scales: opts
            .get("scales")
            .map(|v| {
                v.split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| bad_flag("scales", "comma-separated integers", v)))
                    .collect()
            })
            .unwrap_or_else(|| vec![2, 4]),
        seed: cfg.base.seed ^ 0x7A7E,
    };
    eprintln!(
        "Bayesian-optimizing {} evaluations over scales {:?}...",
        tcfg.evals, tcfg.scales
    );
    let result = tune(&cfg, &tcfg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });
    outln!("best objective (sum of normalized W1(FCT)): {:.4}", result.best_objective);
    outln!(
        "best params: wbce_w={:.3} huber_delta={:.3} lr={:.2e} hidden={} window={}",
        result.best.wbce_w,
        result.best.huber_delta,
        result.best.lr,
        result.best.hidden,
        result.best.window
    );
    for (i, (p, obj)) in result.history.iter().enumerate() {
        eprintln!(
            "  eval {i}: objective {obj:.4} (w={:.2}, delta={:.2}, lr={:.1e}, hidden={}, window={})",
            p.wbce_w, p.huber_delta, p.lr, p.hidden, p.window
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let Some(known) = known_flags(cmd) else {
        eprintln!("error: unknown subcommand: {cmd}");
        usage();
    };
    let opts = parse_args(rest, &known);
    match cmd.as_str() {
        "train" => cmd_train(opts),
        "estimate" => cmd_estimate(opts),
        "validate" => cmd_validate(opts),
        "tune" => cmd_tune(opts),
        "diverge" => cmd_diverge(opts),
        _ => usage(),
    }
}
