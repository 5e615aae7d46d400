//! Integration tests of the observability layer end to end: a traced
//! composed PDES run must emit a well-formed report (engine counters,
//! boundary-inference counters, fleet telemetry, near-total span
//! coverage), the pipeline recorder must stitch training and estimation
//! telemetry into one exportable snapshot, and two runs' obs files must
//! localize where the runs diverge. That tracing, digests and the flight
//! ring leave the trajectory alone is the obs column of
//! `tests/determinism.rs`.

mod common;

use common::{quick_cfg, trained};
use dcn_transport::Protocol;
use dcn_sim::pdes::PdesRunOpts;
use mimicnet::compose::run_composed_partitioned;
use mimicnet::pipeline::{Pipeline, PipelineConfig};

#[test]
fn traced_composed_run_emits_full_report_without_perturbing_results() {
    let mut base = quick_cfg().base;
    base.duration_s = 0.25;
    base.seed = 31;
    let traced = run_composed_partitioned(
        base,
        4,
        Protocol::NewReno,
        trained(),
        2,
        &PdesRunOpts { obs: true, ..PdesRunOpts::default() },
    )
    .expect("valid composition");

    let r = traced.obs.as_ref().expect("traced run carries a report");
    // Engine counters.
    assert!(r.counter("sim.events.total") > 0);
    assert_eq!(r.counter("sim.events.total"), traced.events_processed);
    assert!(r.counter("sim.windows") > 0);
    assert_eq!(r.counter("pdes.partitions"), 2);
    // Inference telemetry: one engine-side inference per boundary packet
    // the fleet saw, and (timed obs) the wall time they took.
    assert!(r.counter("mimic.boundary.count") > 0);
    assert_eq!(r.counter("mimic.boundary.count"), r.counter("mimic.fleet.packets_seen"));
    assert!(r.counter("mimic.boundary.wall_ns") > 0);
    // The pdes.lp spans wrap each LP loop, so the merged timeline has no
    // coverage gaps (acceptance: >= 95% of the traced wall extent).
    let coverage = r.span_coverage();
    assert!(coverage >= 0.95, "span coverage {coverage}");
    // Both LPs contributed spans on distinct tracks.
    let tracks: std::collections::HashSet<u32> = r.spans.iter().map(|s| s.track).collect();
    assert_eq!(tracks.len(), 2);
}

#[test]
fn pipeline_obs_stitches_training_and_estimation_into_one_snapshot() {
    let mut cfg = PipelineConfig::default();
    cfg.base.duration_s = 0.3;
    cfg.base.seed = 12;
    cfg.hidden = 8;
    cfg.train.epochs = 2;
    cfg.train.window = 4;

    let mut pipe = Pipeline::new(cfg).with_obs();
    let trained = pipe.try_train().expect("training succeeds").0;
    let est = pipe.try_estimate(&trained, 3, None).expect("estimate runs");
    assert!(est.fct_p99 > 0.0);
    assert!(
        est.metrics.obs.is_none(),
        "engine report should have been absorbed by the pipeline recorder"
    );

    let r = pipe.obs.take_report().expect("obs was on");
    // Phase spans.
    for phase in [
        "pipeline.datagen",
        "pipeline.train.ingress",
        "pipeline.train.egress",
        "pipeline.estimate",
    ] {
        assert!(
            r.spans.iter().any(|s| s.name == phase),
            "missing span {phase}"
        );
    }
    // Per-direction training series, one entry per epoch.
    assert_eq!(r.series["train.ingress.epoch_loss"].len(), 2);
    assert_eq!(r.series["train.egress.epoch_loss"].len(), 2);
    assert!(r.hists["train.ingress.grad_norm_milli"].count > 0);
    // Engine-side telemetry from the estimate folded into the same report.
    assert!(r.counter("sim.events.total") > 0);
    assert!(r.counter("sim.windows") > 0);

    // The snapshot exports cleanly: JSON parses and the Chrome trace is a
    // valid event array naming the phase spans.
    let snap: serde_json::Value = serde_json::from_str(&r.to_json_string()).expect("snapshot parses");
    assert!(snap.as_object().is_some());
    let trace: serde_json::Value = serde_json::from_str(&r.to_chrome_trace()).expect("trace parses");
    let events = trace.as_array().expect("trace is an array");
    assert!(events
        .iter()
        .any(|e| e.as_object().and_then(|o| {
            o.iter().find(|(k, _)| k == "name").map(|(_, v)| v.as_str() == Some("pipeline.estimate"))
        }) == Some(true)));
}

#[test]
fn flight_ring_wraps_keeping_only_the_most_recent_events() {
    use dcn_sim::pdes::FlightPlan;

    let mut base = quick_cfg().base;
    base.duration_s = 0.2;
    base.seed = 44;
    let opts = PdesRunOpts {
        flight: Some(FlightPlan {
            capacity: 64,
            ..FlightPlan::default()
        }),
        ..PdesRunOpts::default()
    };
    let m = run_composed_partitioned(base, 3, Protocol::NewReno, trained(), 2, &opts)
        .expect("valid composition");
    let r = m.obs.as_ref().expect("flight ring rides in the obs report");
    // Two LPs, 64 slots each: the retained history is bounded while the
    // recorded-total counter keeps the true event count.
    assert!(!r.flight.is_empty(), "ring captured events");
    assert!(r.flight.len() <= 128, "ring bounded: {}", r.flight.len());
    assert!(
        r.counter("flight.recorded") > r.flight.len() as u64,
        "ring wrapped: recorded {} kept {}",
        r.counter("flight.recorded"),
        r.flight.len()
    );
    // Retained events are the most recent ones: each LP's tail, so every
    // kept timestamp lands in the final stretch of the run, and within an
    // LP the order is non-decreasing in sim time.
    let mut per_lp: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
    for ev in &r.flight {
        per_lp.entry(ev.lp).or_default().push(ev.sim_ns);
    }
    assert_eq!(per_lp.len(), 2, "both LPs recorded");
    for (lp, times) in per_lp {
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "LP {lp} ring out of order"
        );
    }
}

/// Serves cluster 1 with a constant latency and panics at its first
/// boundary crossing at or after `.0`: a fault inside a chosen window.
struct PanicsAt(dcn_sim::time::SimTime);

impl dcn_sim::mimic::ClusterModel for PanicsAt {
    fn clusters(&self) -> &[u32] {
        &[1]
    }
    fn infer(&mut self, item: &dcn_sim::mimic::BoundaryItem) -> dcn_sim::mimic::Verdict {
        if item.enqueued_at >= self.0 {
            panic!("crash drill: crossing at {} ns", item.enqueued_at.as_nanos());
        }
        dcn_sim::mimic::Verdict::Deliver { latency: self.latency_floor(), mark_ce: false }
    }
    fn latency_floor(&self) -> dcn_sim::time::SimDuration {
        dcn_sim::time::SimDuration::from_millis(2)
    }
}

#[test]
fn crash_drill_dumps_flight_ring_through_atomic_write() {
    use dcn_sim::pdes::{run_partitioned_opts, FlightPlan};
    use dcn_sim::simulator::Simulation;
    use dcn_sim::time::SimTime;
    use mimicnet::diverge::ObsRun;

    let dir = std::env::temp_dir().join(format!("obs-crash-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = quick_cfg().base;
    cfg.topo.clusters = 3;
    cfg.duration_s = 0.2;
    cfg.seed = 45;
    let opts = PdesRunOpts {
        digest_stride: Some(1),
        flight: Some(FlightPlan {
            capacity: 256,
            dump_dir: Some(dir.clone()),
        }),
        ..PdesRunOpts::default()
    };
    // Armed inside window 40; cluster 1 lives on partition 1 of 2, and
    // its first crossing from then on (32 106 033 ns, as recorded from
    // this run) falls in window 65.
    let window = cfg.link.latency;
    let at = SimTime(39 * window.as_nanos() + 1);
    let crossing = SimTime(32_106_033);
    let setup = |sim: &mut Simulation| sim.set_cluster_model(Box::new(PanicsAt(at)));
    let err = run_partitioned_opts(cfg, 2, window, &|| Protocol::NewReno.factory(), &setup, &opts)
        .err()
        .expect("crash drill must fail the run");
    let msg = format!("{err}");
    assert!(msg.contains("crash drill"), "typed error carries the panic: {msg}");
    assert_eq!((err.part, err.window_end_ns), (1, 65 * window.as_nanos()));

    // The post-mortem landed as a complete JSON file (atomic_write: no
    // truncated artifacts on the panic path) naming the reason and the
    // ring contents.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(dumps.len(), 1, "one post-mortem, from the LP that panicked");
    let text = std::fs::read_to_string(&dumps[0]).expect("dump readable");
    let v: serde_json::Value = serde_json::from_str(&text).expect("dump is complete JSON");
    let obj = v.as_object().expect("dump is an object");
    let reason = obj
        .iter()
        .find(|(k, _)| k == "reason")
        .and_then(|(_, v)| v.as_str())
        .expect("dump names a reason");
    assert!(reason.contains("panic"), "reason recorded: {reason}");
    assert!(
        obj.iter().any(|(k, _)| k == "flight"),
        "dump carries the flight ring"
    );

    // `diverge` reads the dump like an `--obs-out` file: this LP's share
    // of the digests at barriers 1..=64, and a ring ending at the event
    // that panicked — the crossing's arrival.
    let run = ObsRun::from_json(&text).expect("diverge reads the dump");
    assert_eq!(run.timeline.first_window, 1);
    assert_eq!(run.timeline.digests.len(), 64);
    let last = run.flight.last().expect("ring holds events");
    assert_eq!((last.kind_name, last.sim_ns, last.lp), ("arrive", crossing.as_nanos(), 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The file-only divergence flow end to end, in process: a plain and an
/// adaptive composition share everything until the first tier epoch
/// demotes clusters to the Flow tier. Their obs files localize the first
/// diverging window; re-running both sides stopped at that barrier with a
/// flight ring localizes the first diverging event at or after the
/// window's start. Two identical runs report no divergence.
#[test]
fn diverge_localizes_plain_vs_adaptive_from_obs_files() {
    use dcn_sim::mimic::FidelityTier;
    use dcn_sim::pdes::{FlightPlan, TierPlan};
    use dcn_sim::time::SimTime;
    use mimicnet::compose::run_composed_adaptive;
    use mimicnet::AccuracyBudget;
    use mimicnet::diverge::{localize, EventFinding, ObsRun};

    let mut base = quick_cfg().base;
    base.duration_s = 0.2;
    base.seed = 49;
    // Every cluster is calm at the first epoch, so the adaptive side
    // demotes them to Flow there.
    let budget = AccuracyBudget {
        start: FidelityTier::Mimic,
        demote_below: f64::INFINITY,
        patience: 1,
        ..AccuracyBudget::default()
    };
    let plan = TierPlan { every_windows: 16 };
    // Each side as its `--obs-out` file would carry it.
    let obs_file = |adaptive: bool, stop_at: Option<SimTime>, flight: bool| {
        let opts = PdesRunOpts {
            digest_stride: Some(1),
            stop_at,
            flight: flight.then(|| FlightPlan { capacity: 65_536, ..FlightPlan::default() }),
            ..PdesRunOpts::default()
        };
        let m = if adaptive {
            run_composed_adaptive(
                base, 3, Protocol::NewReno, trained(), 2, &budget, &plan, None, &opts,
            )
        } else {
            run_composed_partitioned(base, 3, Protocol::NewReno, trained(), 2, &opts)
        }
        .expect("valid composition");
        let json = m.obs.expect("digests imply an obs report").to_json_string();
        ObsRun::from_json(&json).expect("obs file parses")
    };

    let report = localize(&obs_file(false, None, false), &obs_file(true, None, false))
        .expect("comparable timelines")
        .expect("plain and adaptive runs diverge");
    let window = report.window;
    assert!(window.window > 0, "diverged at {window:?}");
    assert!(window.start_ns < window.sim_ns);
    assert!(matches!(report.event, EventFinding::NoRings));

    let stop = Some(SimTime(report.stop_at_ns));
    assert!(report.stop_at_ns > window.sim_ns);
    assert_eq!(SimTime::from_secs_f64(report.stop_at_s()), SimTime(report.stop_at_ns));
    let rerun = localize(&obs_file(false, stop, true), &obs_file(true, stop, true))
        .expect("comparable timelines")
        .expect("the stopped re-runs diverge too");
    assert_eq!(rerun.window.window, window.window, "re-run moved the window");
    match rerun.event {
        EventFinding::Diverged(ev) => {
            assert!(ev.a.is_some() || ev.b.is_some());
            for e in ev.a.iter().chain(&ev.b) {
                assert!(e.sim_ns >= window.start_ns, "{e:?} before {window:?}");
            }
        }
        other => panic!("no diverging event located: {other:?}"),
    }

    let again = localize(&obs_file(false, None, true), &obs_file(false, None, true))
        .expect("comparable timelines");
    assert!(again.is_none(), "identical runs reported a divergence");
}
