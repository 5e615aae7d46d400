//! CI observability smoke test (DESIGN.md §9, ISSUE PR 4).
//!
//! Runs the full observed workflow at quick scale — data generation,
//! ingress/egress training, then a *traced* composed PDES run — and
//! validates the exported artifacts end to end:
//!
//! * the JSON snapshot parses and carries the expected counters,
//!   histograms and per-epoch training series;
//! * the Chrome trace-event file parses as an event array naming the
//!   engine and pipeline spans;
//! * span coverage of the traced wall extent is >= 95% (the acceptance
//!   bar for the observability layer).
//!
//! Any violated check prints `FAIL: ...` and exits nonzero, so the CI
//! perf-smoke job can gate on it directly. Artifact paths default to
//! `obs_trace.json` / `obs_snapshot.json` in the working directory and
//! can be overridden with `TRACE_OUT` / `SNAP_OUT`.

use dcn_sim::pdes::PdesRunOpts;
use mimicnet::compose::run_composed_partitioned;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use std::error::Error;

fn check(cond: bool, what: &str) {
    if cond {
        println!("ok   {what}");
    } else {
        eprintln!("FAIL {what}");
        std::process::exit(1);
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    mimicnet_bench::header(
        "obs smoke",
        "traced composed run + snapshot/trace validation",
        mimicnet_bench::Scale::from_env(),
    );

    let mut cfg = PipelineConfig::default();
    cfg.base.duration_s = 0.3;
    cfg.base.seed = 12;
    cfg.hidden = 8;
    cfg.train.epochs = 2;
    cfg.train.window = 4;
    let protocol = cfg.protocol;
    let base = cfg.base;

    let mut pipe = Pipeline::new(cfg).with_obs();
    let trained = pipe.try_train()?.0;

    // Traced composed PDES run; its merged engine report is stitched into
    // the pipeline recorder alongside the training telemetry.
    pipe.obs.begin("pipeline.estimate", "pipeline", None);
    let traced = PdesRunOpts { obs: true, ..PdesRunOpts::default() };
    let mut metrics = run_composed_partitioned(base, 4, protocol, &trained, 2, &traced)?;
    pipe.obs.end(None);
    let engine_report = metrics.obs.take().expect("traced run carries a report");
    pipe.obs.merge_report(*engine_report);

    let report = pipe.obs.take_report().expect("obs was on");

    // --- structural checks on the in-memory report -------------------
    check(report.counter("sim.events.total") == metrics.events_processed, "sim.events.total matches events_processed");
    check(report.counter("sim.windows") > 0, "sim.windows > 0");
    check(report.counter("pdes.partitions") == 2, "pdes.partitions == 2");
    check(
        report.counter("mimic.boundary.count") == report.counter("mimic.fleet.packets_seen"),
        "mimic.boundary.count == mimic.fleet.packets_seen",
    );
    check(report.counter("mimic.boundary.wall_ns") > 0, "mimic.boundary.wall_ns > 0");
    // Feeder warm-up steps the LSTM through at most the bundle's training
    // window of feeder rows per verdict, and never more rows than drawn.
    let steps = report.counter("mimic.fleet.feeder_steps");
    let window = trained.window.0 as u64;
    check(
        report.counter("mimic.fleet.feeder_packets") > 0,
        "mimic.fleet.feeder_packets > 0",
    );
    check(
        steps <= window * report.counter("mimic.fleet.packets_seen"),
        "mimic.fleet.feeder_steps <= window * mimic.fleet.packets_seen",
    );
    check(
        steps <= report.counter("mimic.fleet.feeder_packets"),
        "mimic.fleet.feeder_steps <= mimic.fleet.feeder_packets",
    );
    check(
        report.series.get("train.ingress.epoch_loss").map_or(0, |s| s.len()) == 2,
        "train.ingress.epoch_loss has one entry per epoch",
    );
    for span in ["pipeline.datagen", "pipeline.train.ingress", "pipeline.train.egress", "pipeline.estimate", "sim.window", "pdes.lp"] {
        check(report.spans.iter().any(|s| s.name == span), &format!("span {span} present"));
    }
    let coverage = report.span_coverage();
    check(coverage >= 0.95, &format!("span coverage {coverage:.3} >= 0.95"));

    // --- exported artifacts ------------------------------------------
    let trace_path = std::env::var("TRACE_OUT").unwrap_or_else(|_| "obs_trace.json".into());
    let snap_path = std::env::var("SNAP_OUT").unwrap_or_else(|_| "obs_snapshot.json".into());
    dcn_sim::snapshot::atomic_write(trace_path.as_ref(), report.to_chrome_trace().as_bytes())
        .expect("write trace");
    dcn_sim::snapshot::atomic_write(snap_path.as_ref(), report.to_json_string().as_bytes())
        .expect("write snapshot");

    let snap_text = std::fs::read_to_string(&snap_path).expect("read snapshot back");
    let snap: Result<serde_json::Value, _> = serde_json::from_str(&snap_text);
    let snap = match snap {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL snapshot JSON does not parse: {e:?}");
            std::process::exit(1);
        }
    };
    let top = snap.as_object();
    check(top.is_some(), "snapshot is a JSON object");
    let top = top.unwrap();
    for section in ["counters", "gauges", "hists", "series", "spans"] {
        check(top.iter().any(|(k, _)| k == section), &format!("snapshot has `{section}` section"));
    }

    let trace_text = std::fs::read_to_string(&trace_path).expect("read trace back");
    let trace: Result<serde_json::Value, _> = serde_json::from_str(&trace_text);
    let trace = match trace {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL chrome trace does not parse: {e:?}");
            std::process::exit(1);
        }
    };
    let events = trace.as_array();
    check(events.is_some(), "chrome trace is a JSON array");
    let events = events.unwrap();
    check(!events.is_empty(), "chrome trace has events");
    check(
        events.iter().any(|e| {
            e.as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == "name"))
                .map(|(_, v)| v.as_str() == Some("pdes.lp"))
                == Some(true)
        }),
        "chrome trace names the pdes.lp span",
    );

    println!("obs smoke passed — trace: {trace_path}, snapshot: {snap_path}");
    println!("  spans: {}, coverage: {:.1}%", report.spans.len(), coverage * 100.0);
    Ok(())
}
