//! The determinism matrix: the one statement that a composed simulation
//! is the same simulation however it is run.
//!
//! Each row is one composition — packet-level ground truth (clean or
//! under a fabric loss window), all-Mimic or adaptive — entered through
//! the public function a benchmark workload times. Each cell runs the row on 1, 2 or 4 PDES partitions with its
//! diagnostics off, light (window digests alone) or full (timed obs, the
//! same digests and a flight ring), and must reproduce the row's
//! reference `Metrics::canonical_bytes` byte for byte. A cell carries an
//! obs report exactly when it turned diagnostics on, and a digest cell
//! records the same digest timeline as the 1-partition cell of its
//! column. The reference itself must reproduce its bytes when re-run.

mod common;

use common::{quick_cfg, switching_budget, trained};
use dcn_sim::fault::LossWindow;
use dcn_sim::instrument::Metrics;
use dcn_sim::pdes::{run_partitioned_opts, FlightPlan, PdesRunOpts, TierPlan};
use dcn_sim::simulator::Simulation;
use dcn_sim::time::SimTime;
use dcn_transport::Protocol;
use mimicnet::compose::ground_truth;
use mimicnet::pipeline::{Pipeline, PipelineConfig};

/// The trained fixture's scenario, run for 0.2 simulated seconds.
fn pipeline_cfg() -> PipelineConfig {
    let mut cfg = quick_cfg();
    cfg.base.duration_s = 0.2;
    cfg
}

/// The diagnostics a cell turns on.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Obs {
    /// `PdesRunOpts::default()`.
    Off,
    /// Window digests alone, which turn on light obs.
    Light,
    /// Timed obs, the same digests and a flight ring.
    Full,
}

/// Every obs column: one row per composition runs all of them.
const GRID: [Obs; 3] = [Obs::Off, Obs::Light, Obs::Full];

impl Obs {
    fn opts(self) -> PdesRunOpts {
        let digests = PdesRunOpts {
            digest_stride: Some(4),
            ..PdesRunOpts::default()
        };
        match self {
            Obs::Off => PdesRunOpts::default(),
            Obs::Light => digests,
            Obs::Full => PdesRunOpts {
                obs: true,
                flight: Some(FlightPlan {
                    capacity: 256,
                    ..FlightPlan::default()
                }),
                ..digests
            },
        }
    }
}

/// Run `reference` twice, then every `partitions` × `columns` cell, and
/// check each against the reference's bytes. Returns the reference run
/// for the row's own checks.
fn check_row(
    row: &str,
    reference: impl Fn() -> Metrics,
    cell: impl Fn(usize, &PdesRunOpts) -> Metrics,
    partitions: &[usize],
    columns: &[Obs],
) -> Metrics {
    let want = reference();
    let bytes = want.canonical_bytes();
    assert!(
        reference().canonical_bytes() == bytes,
        "{row}: the reference re-run diverged"
    );
    for &obs in columns {
        let mut one_partition = None;
        for &p in partitions {
            let at = format!("{row}, {p} partitions, obs {obs:?}");
            let m = cell(p, &obs.opts());
            assert!(
                m.canonical_bytes() == bytes,
                "{at}: canonical bytes differ from the reference"
            );
            assert_eq!(m.obs.is_some(), obs != Obs::Off, "{at}: obs report present");
            let Some(r) = m.obs.as_deref() else { continue };
            let timeline = (
                r.gauges.get("digest.first_window").copied(),
                r.digests.get("digest.window").cloned().unwrap_or_default(),
            );
            assert!(!timeline.1.is_empty(), "{at}: no window digests");
            // Cadence: one digest per `stride` barriers on the window
            // grid, the first at window `stride`. Each LP counts its own
            // windows, and every one but the last ends on the grid; the
            // last ends 1 ns past the configured duration.
            let stride = obs.opts().digest_stride.expect("digest cell");
            let windows = r.counter("sim.windows") / p as u64;
            assert_eq!(
                timeline.1.len() as u64,
                (windows - 1) / stride,
                "{at}: digests recorded vs stride boundaries in {windows} windows"
            );
            assert_eq!(timeline.0, Some(stride as f64), "{at}: first digest window");
            if p == 1 {
                one_partition = Some(timeline);
            } else {
                assert_eq!(
                    Some(timeline),
                    one_partition,
                    "{at}: digest timeline differs from 1 partition"
                );
            }
        }
    }
    want
}

/// A ground-truth row: `compose::ground_truth(..).run()` (truth-64's
/// path) against `run_partitioned_opts` at the link-latency window.
fn truth_row(clusters: u32, protocol: Protocol, partitions: &[usize], columns: &[Obs]) {
    truth_row_with(clusters, protocol, &|_| {}, partitions, columns);
}

/// [`truth_row`] with `setup` applied to the reference engine and to
/// every partition's engine before the run. Returns the reference run.
fn truth_row_with(
    clusters: u32,
    protocol: Protocol,
    setup: &(dyn Fn(&mut Simulation) + Sync),
    partitions: &[usize],
    columns: &[Obs],
) -> Metrics {
    let row = format!("truth {}, {clusters} clusters", protocol.name());
    let base = pipeline_cfg().base;
    let mut cfg = base;
    cfg.topo.clusters = clusters;
    cfg.queue = protocol.queue_setup(cfg.queue);
    check_row(
        &row,
        || {
            let mut sim = ground_truth(base, clusters, protocol);
            setup(&mut sim);
            sim.run()
        },
        |p, opts| {
            run_partitioned_opts(
                cfg,
                p,
                cfg.link.latency,
                &|| protocol.factory(),
                setup,
                opts,
            )
            .unwrap_or_else(|e| panic!("{row}: {e}"))
        },
        partitions,
        columns,
    )
}

/// An all-Mimic row: `Pipeline::try_estimate` (serve-mix's path) against
/// `Pipeline::try_estimate_opts` (mimic-64's path).
fn all_mimic_row(clusters: u32, partitions: &[usize], columns: &[Obs]) -> Metrics {
    let row = format!("all-Mimic, {clusters} clusters");
    let reference = check_row(
        &row,
        || {
            let est = Pipeline::new(pipeline_cfg()).try_estimate(trained(), clusters, None);
            est.unwrap_or_else(|e| panic!("{row}: {e}")).metrics
        },
        |p, opts| {
            let est = Pipeline::new(pipeline_cfg()).try_estimate_opts(trained(), clusters, p, opts);
            est.unwrap_or_else(|e| panic!("{row}: {e}")).metrics
        },
        partitions,
        columns,
    );
    assert!(reference.flows_completed() > 0, "{row}: no flow completed");
    reference
}

#[test]
fn truth_newreno_grid() {
    truth_row(4, Protocol::NewReno, &[1, 2, 4], &GRID);
}

#[test]
fn truth_dctcp() {
    truth_row(4, Protocol::Dctcp { k: 10 }, &[2, 4], &[Obs::Off]);
}

#[test]
fn truth_homa() {
    truth_row(4, Protocol::Homa, &[2, 4], &[Obs::Off]);
}

/// Fabric loss over a mid-run window. Loss is a function of each
/// transmission's start time, drawn on the LP that owns the transmitting
/// node, so no LP replays a shared schedule and every cell still matches
/// the sequential run.
#[test]
fn truth_lossy_grid() {
    let at = SimTime::from_secs_f64;
    let window = LossWindow::new(at(0.05), at(0.15), 0.02).expect("valid window");
    let reference = truth_row_with(
        4,
        Protocol::NewReno,
        &|sim| sim.set_loss_window(window),
        &[1, 2, 4],
        &GRID,
    );
    assert!(reference.fault_drops > 0, "the window dropped nothing");
}

/// 3 partitions split 8 clusters unevenly (3/3/2).
#[test]
fn truth_8_clusters() {
    truth_row(8, Protocol::NewReno, &[2, 3, 4], &[Obs::Off]);
}

/// Degenerate but legal: the partitions without a cluster idle.
#[test]
fn truth_more_partitions_than_clusters() {
    truth_row(2, Protocol::NewReno, &[4], &[Obs::Off]);
}

/// The grid, plus one cell in process on a pipeline whose recorder
/// absorbs the engine's report.
#[test]
fn all_mimic_grid() {
    let reference = all_mimic_row(4, &[1, 2, 4], &GRID);
    let mut pipe = Pipeline::new(pipeline_cfg()).with_obs();
    let traced = pipe
        .try_estimate(trained(), 4, None)
        .expect("traced estimate")
        .metrics;
    let at = "all-Mimic, 4 clusters, in process, pipeline obs";
    assert!(
        traced.canonical_bytes() == reference.canonical_bytes(),
        "{at}: canonical bytes differ from the reference"
    );
    assert!(
        traced.obs.is_none(),
        "{at}: the pipeline did not absorb the engine report"
    );
    assert!(pipe.obs.take_report().is_some(), "{at}: no pipeline report");
}

#[test]
fn all_mimic_8_clusters() {
    all_mimic_row(8, &[2, 4], &[Obs::Off]);
}

/// `Pipeline::try_estimate_adaptive_opts` (adaptive-64's path) under a
/// budget that switches tiers, with a tier epoch every 16 windows and at
/// every window (where both drift-vector parities alternate); the
/// reference is its 1-partition run with diagnostics off.
#[test]
fn adaptive_grid() {
    for every_windows in [16, 1] {
        let row = format!("adaptive, 4 clusters, epoch every {every_windows} windows");
        let row = row.as_str();
        let cell = |p, opts: &PdesRunOpts| {
            let est = Pipeline::new(pipeline_cfg()).try_estimate_adaptive_opts(
                trained(),
                4,
                p,
                &switching_budget(),
                &TierPlan { every_windows },
                None,
                opts,
            );
            est.unwrap_or_else(|e| panic!("{row}: {e}")).metrics
        };
        let reference = check_row(
            row,
            || cell(1, &PdesRunOpts::default()),
            cell,
            &[1, 2, 4],
            &GRID,
        );
        assert!(!reference.tier_switches.is_empty(), "{row}: no tier switch");
    }
}
