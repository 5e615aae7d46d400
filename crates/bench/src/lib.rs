//! Shared scaffolding for the figure/table reproduction binaries.
//!
//! Every figure and table of the paper's evaluation has a binary in
//! `src/bin/` (see DESIGN.md §4 for the index). All binaries honour the
//! `SCALE` environment variable:
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

use dcn_sim::stats::percentile;
use std::time::Duration;

/// Scale knob for all benches.
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

/// Print the standard figure header.
pub fn header(artifact: &str, what: &str) {
    println!("==================================================================");
    println!("MimicNet reproduction — {artifact}");
    println!("{what}");
    println!("scale: {:?} (set SCALE=full for the larger sweep)", Scale::from_env());
    println!("==================================================================");
}

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
