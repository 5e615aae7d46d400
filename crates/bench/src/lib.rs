//! The paper's evaluation as one table of rows.
//!
//! Every figure and table of the paper's evaluation is a [`Row`] of
//! [`ROWS`] (DESIGN.md §4 is the index), run by the `figures` binary:
//! `figures [ROW...]` runs the named rows, or all of them. Rows that time
//! nothing share seeded scenarios through [`Scenarios`], so one process
//! trains the seed-42 bundle once and runs each ground truth and estimate
//! of its sweep once. Rows that read the wall clock build and time their
//! own phases. All rows honour the `SCALE` environment variable:
//!
//! * `SCALE=quick` (default) — sizes/durations that finish in seconds to
//!   a couple of minutes on a laptop.
//! * `SCALE=full` — the largest sweep for which full-fidelity ground
//!   truth is still computable here (the paper itself capped ground truth
//!   at 128 clusters for the same reason).
//!
//! Output convention: a header citing the paper artifact, then a plain
//! text table whose rows mirror the paper's series. EXPERIMENTS.md records
//! paper-vs-measured values for each.

mod accuracy;
mod scenarios;
mod speed;
mod training;

pub use scenarios::Scenarios;

use dcn_sim::stats::percentile;
use std::error::Error;
use std::time::Duration;

/// Scale knob for all rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    pub fn from_env() -> Scale {
        match std::env::var("SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Cluster-count sweep (the paper sweeps 4–128).
    pub fn cluster_sweep(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![2, 4, 8, 16],
            Scale::Full => vec![2, 4, 8, 16, 32, 64],
        }
    }

    /// The "large" data center size for single-point comparisons
    /// (the paper's 128).
    pub fn large(self) -> u32 {
        match self {
            Scale::Quick => 16,
            Scale::Full => 64,
        }
    }

    /// Simulated seconds per run.
    pub fn duration_s(self) -> f64 {
        match self {
            Scale::Quick => 0.5,
            Scale::Full => 1.0,
        }
    }

    /// Training epochs.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Quick => 5,
            Scale::Full => 8,
        }
    }
}

/// What a row returns: `Err` when it cannot run or its check fails.
pub type RowResult = Result<(), Box<dyn Error>>;

/// One paper artifact: `results/<name>.txt` holds its output.
pub struct Row {
    pub name: &'static str,
    /// The paper's figure or table, as the header cites it.
    pub artifact: &'static str,
    /// One line on what the table shows.
    pub what: &'static str,
    pub run: fn(&mut Scenarios, Scale) -> RowResult,
}

impl Row {
    /// Print the row's header, then run it.
    pub fn execute(&self, sc: &mut Scenarios, scale: Scale) -> RowResult {
        header(self.artifact, self.what, scale);
        (self.run)(sc, scale)
    }
}

/// Print the standard header: the artifact, what its table shows, and
/// the scale.
pub fn header(artifact: &str, what: &str, scale: Scale) {
    println!("==================================================================");
    println!("MimicNet reproduction — {artifact}");
    println!("{what}");
    println!("scale: {scale:?} (set SCALE=full for the larger sweep)");
    println!("==================================================================");
}

const fn row(
    name: &'static str,
    artifact: &'static str,
    what: &'static str,
    run: fn(&mut Scenarios, Scale) -> RowResult,
) -> Row {
    Row {
        name,
        artifact,
        what,
        run,
    }
}

/// Every row, in the order `figures` runs them.
pub const ROWS: &[Row] = &[
    row(
        "ablation_mimic",
        "Ablations",
        "end-to-end accuracy of design-choice variants (vs ground truth)",
        accuracy::ablation_mimic,
    ),
    row(
        "appa_failures",
        "Appendix A stress",
        "failure-free-trained Mimics vs fabric loss windows: drift and accuracy",
        accuracy::appa_failures,
    ),
    row(
        "appb_hybrid",
        "Appendix B (Fig. 15)",
        "direction-isolated hybrid clusters: ingress-only vs egress-only vs both",
        accuracy::appb_hybrid,
    ),
    row(
        "apph_retraining",
        "Appendix H",
        "incremental model updates after a workload shift (70% -> 90% load)",
        training::apph_retraining,
    ),
    row(
        "fig01_fct_scaling",
        "Figure 1",
        "W1(FCT) to ground truth vs. #clusters: small-scale vs flow-level vs MimicNet",
        accuracy::fig01_fct_scaling,
    ),
    row(
        "fig02_pdes_scaling",
        "Figure 2",
        "simulated seconds per wall second vs. topology size, 1/2/4 logical processes",
        speed::fig02_pdes_scaling,
    ),
    row(
        "fig05_drop_losses",
        "Figure 5",
        "predicted drop rates under BCE vs WBCE(0.6) vs WBCE(0.9)",
        training::fig05_drop_losses,
    ),
    row(
        "fig06_latency_losses",
        "Figure 6",
        "latency regression under MAE vs MSE vs Huber: test MAE and p99 error",
        training::fig06_latency_losses,
    ),
    row(
        "fig07_accuracy_cdfs",
        "Figure 7",
        "FCT / throughput / RTT distributions: truth vs MimicNet vs flow-level vs small-scale",
        accuracy::fig07_accuracy_cdfs,
    ),
    row(
        "fig08_throughput_scaling",
        "Figure 8",
        "W1(per-server throughput) to ground truth vs #clusters",
        accuracy::fig08_throughput_scaling,
    ),
    row(
        "fig09_rtt_scaling",
        "Figure 9",
        "W1(packet RTT) to ground truth vs #clusters",
        accuracy::fig09_rtt_scaling,
    ),
    row(
        "fig10_speedup",
        "Figure 10",
        "wall-clock speedup of the composed simulation vs full fidelity",
        speed::fig10_speedup,
    ),
    row(
        "fig11_sim_latency",
        "Figure 11",
        "simulation latency (ms) for 5 strategies vs #clusters (lower is better)",
        speed::fig11_sim_latency,
    ),
    row(
        "fig12_sim_throughput",
        "Figure 12",
        "simulation throughput (sim-seconds/second) for 5 strategies vs #clusters",
        speed::fig12_sim_throughput,
    ),
    row(
        "fig13_dctcp_tuning",
        "Figure 13",
        "90-pct FCT vs DCTCP marking threshold K: 2-cluster vs large truth vs MimicNet",
        accuracy::fig13_dctcp_tuning,
    ),
    row(
        "fig14_protocols",
        "Figure 14",
        "FCT distributions per protocol: ground truth vs MimicNet composition",
        accuracy::fig14_protocols,
    ),
    row(
        "fig16_17_window",
        "Figures 16/17",
        "training/validation loss and train/inference latency vs window size",
        training::fig16_17_window,
    ),
    row(
        "fig18_19_protocol_tput_rtt",
        "Figures 18/19",
        "per-protocol throughput and RTT: ground truth vs MimicNet",
        accuracy::fig18_19_protocol_tput_rtt,
    ),
    row(
        "fig20_heavy_load",
        "Figure 20",
        "FCT accuracy at 90% load (heavy aggregation-network pressure)",
        accuracy::fig20_heavy_load,
    ),
    row(
        "fig21_22_sim_length",
        "Figures 21/22",
        "latency and throughput vs simulated length, full sim vs MimicNet",
        speed::fig21_22_sim_length,
    ),
    row(
        "fig23_compute",
        "Figure 23",
        "compute consumption (GFLOP-equivalents): full sim vs MimicNet (with/without training)",
        speed::fig23_compute,
    ),
    row(
        "table2_breakdown",
        "Table 2",
        "wall-clock breakdown of the workflow vs full simulation",
        speed::table2_breakdown,
    ),
];

/// CDF summary quantiles used across the figure tables.
pub fn q(xs: &[f64]) -> [f64; 5] {
    [
        percentile(xs, 10.0),
        percentile(xs, 50.0),
        percentile(xs, 90.0),
        percentile(xs, 99.0),
        percentile(xs, 100.0),
    ]
}

/// Format seconds compactly.
pub fn secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// A standard quickly-trained pipeline config at the given scale.
///
/// Training gets a budget of four threads, so the ingress and egress
/// models train concurrently; the parameters are identical to a
/// sequential run, so benchmark numbers stay comparable across machines.
pub fn pipeline_config(scale: Scale, seed: u64) -> mimicnet::pipeline::PipelineConfig {
    let mut cfg = mimicnet::pipeline::PipelineConfig::default();
    cfg.base.duration_s = scale.duration_s();
    cfg.base.seed = seed;
    cfg.train.epochs = scale.epochs();
    cfg.train.window = 8;
    cfg.hidden = 24;
    cfg.with_workers(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_quick() {
        // (environment not set in tests)
        if std::env::var("SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Quick);
        }
    }

    #[test]
    fn sweeps_are_sane() {
        assert!(Scale::Quick.cluster_sweep().len() >= 3);
        assert!(Scale::Full.large() > Scale::Quick.large());
        assert!(Scale::Full.duration_s() >= Scale::Quick.duration_s());
    }

    #[test]
    fn quantiles_ordered() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let v = q(&xs);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(v[4], 99.0);
    }
}
