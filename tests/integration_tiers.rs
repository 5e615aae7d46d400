//! Integration tests of the adaptive fidelity-tier subsystem: the
//! tier-equivalence matrix (every tier vs packet-level ground truth under
//! a declared W1(FCT) bound), the ledger's schedule as a pure function of
//! its inputs, and a trajectory lock on composed runs. The schedule's
//! partition invariance is a row of `tests/determinism.rs`.
//!
//! Scenarios mirror the canonical fig02 shape: the small-scale training
//! config, re-composed at 2/4/8 clusters with every other parameter held
//! constant.

mod common;

use common::{quick_cfg, switching_budget, trained};
use dcn_sim::mimic::FidelityTier;
use dcn_sim::pdes::{PdesRunOpts, TierPlan};
use mimicnet::compose::{
    ground_truth, run_composed_adaptive, run_composed_partitioned, OBSERVABLE,
};
use mimicnet::AccuracyBudget;
use mimicnet::metrics::{observed, w1_fct_relative};
use mimicnet::pipeline::Pipeline;

/// Per-tier W1(FCT) bounds, in units of the ground truth's mean FCT.
/// The Mimic bound matches the pipeline's end-to-end accuracy gate; the
/// Flow tier is an analytic rate-share approximation, so its declared
/// envelope is wider. Adaptive runs must stay within the looser of the
/// two tiers they blend.
const MIMIC_W1_BOUND: f64 = 1.0;
const FLOW_W1_BOUND: f64 = 2.5;

/// Pin every managed cluster at the Flow tier for the whole run: start
/// there and make promotion unreachable.
fn all_flow_budget() -> AccuracyBudget {
    AccuracyBudget {
        start: FidelityTier::Flow,
        promote_above: f64::INFINITY,
        ..AccuracyBudget::default()
    }
}

/// Tier equivalence on the canonical scenarios: each tier's observable
/// FCT distribution must sit within its declared W1 bound of the
/// packet-level ground truth, and the adaptive blend within the looser
/// bound of the tiers it mixes.
#[test]
fn every_tier_is_within_its_declared_w1_bound() {
    let cfg = quick_cfg();
    let plan = TierPlan { every_windows: 32 };
    for n_clusters in [2u32, 4, 8] {
        let label = format!("{n_clusters} clusters");
        let topo = dcn_sim::topology::FatTree::new({
            let mut t = cfg.base.topo;
            t.clusters = n_clusters;
            t
        });
        let truth = observed(
            &ground_truth(cfg.base, n_clusters, cfg.protocol).run(),
            &topo,
            OBSERVABLE,
        );
        assert!(!truth.fct.is_empty(), "{label}: ground truth saw no flows");

        let mimic = observed(
            &run_composed_partitioned(
                cfg.base,
                n_clusters,
                cfg.protocol,
                trained(),
                1,
                &PdesRunOpts::default(),
            )
            .expect("all-Mimic run"),
            &topo,
            OBSERVABLE,
        );
        let flow = observed(
            &run_composed_adaptive(
                cfg.base,
                n_clusters,
                cfg.protocol,
                trained(),
                1,
                &all_flow_budget(),
                &plan,
                None,
                &PdesRunOpts::default(),
            )
            .expect("all-Flow run"),
            &topo,
            OBSERVABLE,
        );
        let adaptive = observed(
            &run_composed_adaptive(
                cfg.base,
                n_clusters,
                cfg.protocol,
                trained(),
                1,
                &AccuracyBudget::default(),
                &plan,
                None,
                &PdesRunOpts::default(),
            )
            .expect("adaptive run"),
            &topo,
            OBSERVABLE,
        );

        let rel_mimic = w1_fct_relative(&truth.fct, &mimic.fct);
        let rel_flow = w1_fct_relative(&truth.fct, &flow.fct);
        let rel_adaptive = w1_fct_relative(&truth.fct, &adaptive.fct);
        assert!(
            rel_mimic < MIMIC_W1_BOUND,
            "{label}: Mimic tier W1(FCT) {rel_mimic:.3} outside bound {MIMIC_W1_BOUND}"
        );
        assert!(
            rel_flow < FLOW_W1_BOUND,
            "{label}: Flow tier W1(FCT) {rel_flow:.3} outside bound {FLOW_W1_BOUND}"
        );
        assert!(
            rel_adaptive < FLOW_W1_BOUND,
            "{label}: adaptive W1(FCT) {rel_adaptive:.3} outside bound {FLOW_W1_BOUND}"
        );
    }
}

/// Trajectory lock for composed runs: FNV-1a of `canonical_bytes` for an
/// all-Mimic estimate, the same estimate under fabric-wide gray loss, and
/// a switching adaptive run, whose one value holds at 1 and 2 partitions.
/// These hashes move only when a composed trajectory is meant to move;
/// re-record them in the change that moves it. Inference bits depend on
/// hardware FMA, hence the gate.
#[cfg(any(target_feature = "fma", target_arch = "aarch64"))]
#[test]
fn composed_trajectories_are_locked() {
    use dcn_sim::fault::LossWindow;
    use dcn_sim::instrument::Metrics;
    use dcn_sim::time::SimTime;
    let digest = |m: &Metrics| dcn_obs::digest::fnv64(&m.canonical_bytes());
    let mut pipe = Pipeline::new(quick_cfg());
    let clean = pipe.try_estimate(trained(), 4, None).expect("all-Mimic estimate");
    let window = LossWindow::new(
        SimTime::from_secs_f64(0.05),
        SimTime::from_secs_f64(0.25),
        0.1,
    )
    .expect("valid window");
    let faulty = pipe.try_estimate(trained(), 4, Some(&window)).expect("faulty estimate");
    assert!(faulty.metrics.fault_drops > 0, "gray loss dropped nothing");
    let tiers = TierPlan { every_windows: 16 };
    let adaptive: Vec<u64> = [1usize, 2]
        .iter()
        .map(|&partitions| {
            let report = pipe
                .try_estimate_adaptive_opts(
                    trained(),
                    4,
                    partitions,
                    &switching_budget(),
                    &tiers,
                    None,
                    &PdesRunOpts::default(),
                )
                .unwrap_or_else(|e| panic!("adaptive x{partitions}: {e}"));
            assert!(!report.metrics.tier_switches.is_empty(), "x{partitions}: no switches");
            digest(&report.metrics)
        })
        .collect();
    let got = [digest(&clean.metrics), digest(&faulty.metrics), adaptive[0], adaptive[1]];
    let want = [
        0x94c8_e60b_800b_98dd,
        0xdb71_3703_1438_657b,
        0x0ee0_39d1_1c6a_a47a,
        0x0ee0_39d1_1c6a_a47a,
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}

/// A composed lock whose hash sees the feeder rows a verdict replays.
/// The four hashes above do not: the 4-cluster 0.3 s run serves 17
/// verdicts, and its hash is the same whether each replays its last 4
/// feeder rows or every row since the previous verdict. At 1 s the run
/// serves ~270 verdicts, and either change moves this hash, as does
/// zeroing one encoded field of the replayed rows.
#[cfg(any(target_feature = "fma", target_arch = "aarch64"))]
#[test]
fn composed_trajectory_with_replayed_feeder_rows_is_locked() {
    let mut cfg = quick_cfg();
    cfg.base.duration_s = 1.0;
    let mut pipe = Pipeline::new(cfg).with_obs();
    let est = pipe.try_estimate(trained(), 4, None).expect("all-Mimic estimate");
    let report = pipe.obs.report().expect("obs on");
    let count = |name: &str| report.counter(&format!("mimic.fleet.{name}"));
    let (verdicts, draws, steps) = (count("packets_seen"), count("feeder_packets"), count("feeder_steps"));
    assert!(verdicts > 100, "{verdicts} verdicts");
    // Replay steps some feeder rows but not all of them.
    assert!(steps > verdicts && steps < draws, "{steps} of {draws} feeder rows stepped");
    let got = dcn_obs::digest::fnv64(&est.metrics.canonical_bytes());
    assert_eq!(got, 0x45f9_959e_beff_d860, "got {got:#018x}");
}

mod schedule_props {
    use super::*;
    use mimicnet::BudgetLedger;
    use proptest::prelude::*;

    const CLUSTERS: usize = 6;
    const EPOCHS: usize = 12;

    fn budget(promote: f64, demote: f64, patience: u32, cap: usize, start_flow: bool) -> AccuracyBudget {
        AccuracyBudget {
            promote_above: promote,
            demote_below: demote,
            patience,
            max_above_flow: cap,
            start: if start_flow {
                FidelityTier::Flow
            } else {
                FidelityTier::Mimic
            },
        }
    }

    /// Decode a flat sample into an epoch-by-cluster drift history;
    /// negative draws become unmonitored (`None`) epochs.
    fn drift_history(raw: &[f64]) -> Vec<Vec<Option<f64>>> {
        raw.chunks(CLUSTERS)
            .map(|chunk| chunk.iter().map(|&v| (v >= 0.0).then_some(v)).collect())
            .collect()
    }

    proptest! {
        /// The ledger's schedule is a pure function of its inputs: replay
        /// the same drift history through two independent replicas (as
        /// every PDES partition does) and the switch logs and final tier
        /// assignments agree exactly.
        #[test]
        fn replicated_ledgers_stay_in_lockstep(
            promote in 0.0f64..2.0,
            demote in 0.0f64..2.0,
            patience in 1u32..4,
            cap in 0usize..6,
            start_flow in any::<bool>(),
            raw in proptest::collection::vec(-1.0f64..4.0, CLUSTERS * EPOCHS),
        ) {
            let bgt = budget(promote, demote, patience, cap, start_flow);
            let managed: Vec<u32> = (1..CLUSTERS as u32).collect();
            let mut a = BudgetLedger::new(bgt.clone(), CLUSTERS as u32, &managed);
            let mut b = BudgetLedger::new(bgt, CLUSTERS as u32, &managed);
            for (epoch, d) in drift_history(&raw).iter().enumerate() {
                let sa = a.on_epoch(epoch as u64, d);
                let sb = b.on_epoch(epoch as u64, d);
                prop_assert_eq!(sa, sb, "epoch {} diverged", epoch);
            }
            for c in 0..CLUSTERS as u32 {
                prop_assert_eq!(a.tier(c), b.tier(c));
            }
        }
    }
}

