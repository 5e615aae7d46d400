//! What the benchmark measures: workload names and sizes, and the metric
//! lists that `BENCHMARK.json` repeats (a unit test keeps them equal).

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Threads any one step may use: training workers, PDES partitions and
/// serve-mix clients. Fixed, so the workload is the same on every host;
/// the host's core count is recorded beside every result.
pub const THREADS: usize = 2;

/// Ceiling on `acc.w1_fct_rel` for `mimic-64` and `adaptive-64`; a run
/// above it fails its output check. Measured at the full sizes over seeds
/// 1-20: 0.08-0.30 on `mimic-64`, 0.10-0.41 on `adaptive-64`. Revisable
/// only by a benchmark issue.
pub const W1_CEILING: f64 = 0.6;

/// In run order: `train-cold` and `truth-64` first, as in a suite run
/// their outputs are the reference the later rows are read against.
pub const WORKLOADS: [&str; 5] = [
    "train-cold",
    "truth-64",
    "mimic-64",
    "adaptive-64",
    "serve-mix",
];

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizes {
    pub label: &'static str,
    /// Clusters of the three large scenarios.
    pub clusters: u32,
    /// Simulated seconds of the three large scenarios.
    pub sim_s: f64,
    /// `base.duration_s` of the training configs (data generation runs
    /// `datagen_duration_factor` = 4 times longer).
    pub train_base_s: f64,
    pub epochs: usize,
    /// The two cluster counts of the serve-mix catalogue.
    pub serve_clusters: [u32; 2],
    /// Simulated seconds of one serve-mix request.
    pub serve_sim_s: f64,
    /// Requests a serve-mix run issues at least, however short `--seconds`.
    pub min_requests: u64,
    /// Rows of the scalar-inference probe.
    pub infer_rows: usize,
    /// Repetitions of process start and set-up path behind `setup_s`.
    pub setup_reps: usize,
}

/// The issue's sizes with simulated durations scaled by a quarter (16 s ->
/// 4 s, training base 3 s -> 0.75 s) so that 114 driver runs fit the
/// run-time cap; workload list, cluster counts and epochs are unchanged.
pub const FULL: Sizes = Sizes {
    label: "full",
    clusters: 64,
    sim_s: 4.0,
    train_base_s: 0.75,
    epochs: 3,
    serve_clusters: [8, 16],
    serve_sim_s: 0.5,
    min_requests: 240,
    infer_rows: 100_000,
    setup_reps: 25,
};

pub const SMOKE: Sizes = Sizes {
    label: "smoke",
    clusters: 8,
    sim_s: 1.0,
    train_base_s: 0.3,
    epochs: 2,
    serve_clusters: [4, 8],
    serve_sim_s: 0.25,
    min_requests: 24,
    infer_rows: 10_000,
    setup_reps: 3,
};

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Untraced metrics, reported by every workload (see README.md for what
/// one operation is on each).
pub const END_TO_END: [MetricSpec; 5] = [
    lower("op_ms", "ms"),
    lower("tail_ms", "ms"),
    higher("ops_per_s", "1/s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Traced metrics; a layer that does no work on a workload reports 0.
pub const PER_LAYER: [MetricSpec; 33] = [
    lower("sim.events", "count"),
    lower("sim.run_s", "s"),
    lower("sim.ns_per_event", "ns"),
    lower("sim.ns_per_event_newreno", "ns"),
    lower("sim.ns_per_event_dctcp", "ns"),
    lower("sim.digest32", "hash"),
    higher("transport.flows_completed", "count"),
    higher("transport.rtt_samples", "count"),
    lower("transport.queue_drops", "count"),
    lower("transport.ecn_marks", "count"),
    lower("pdes.p1_s", "s"),
    lower("pdes.p2_s", "s"),
    higher("pdes.speedup_p2", "x"),
    lower("ml.train_s", "s"),
    higher("ml.train_samples", "count"),
    higher("ml.train_samples_per_s", "1/s"),
    lower("ml.infer_ns_per_pkt", "ns"),
    lower("ml.mimic_drops", "count"),
    lower("flow.run_s", "s"),
    higher("flow.flows_per_s", "1/s"),
    lower("tier.switches", "count"),
    higher("tier.flow_share_end", "ratio"),
    lower("mimicnet.datagen_s", "s"),
    lower("mimicnet.save_s", "s"),
    lower("mimicnet.load_s", "s"),
    lower("mimicnet.compose_s", "s"),
    lower("mimicnet.report_s", "s"),
    lower("mimicnet.compare_s", "s"),
    lower("harness.self_s", "s"),
    lower("trace_overhead_frac", "ratio"),
    lower("acc.w1_fct_rel", "ratio"),
    lower("acc.fct_p99_rel_err", "ratio"),
    higher("acc.speedup_vs_truth", "x"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{get_array, get_f64, get_str, read_file};

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics the harness reports.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = read_file(&path).expect("BENCHMARK.json");
        let names = |key: &str| -> Vec<String> {
            get_array(&spec, key)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|m| get_str(m, "name").expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(
                names(key),
                ours.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{key}"
            );
            for (theirs, ours) in get_array(&spec, key).unwrap().iter().zip(ours) {
                assert_eq!(get_str(theirs, "unit"), Some(ours.unit), "{}", ours.name);
                let better = if ours.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(get_str(theirs, "better"), Some(better), "{}", ours.name);
            }
        }
        for m in get_array(&spec, "end_to_end").unwrap() {
            let bound = get_f64(m, "bound").expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
    }
}
