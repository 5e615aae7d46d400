//! Composing Mimics into a large-scale simulation (paper §7.1).
//!
//! "An N-cluster MimicNet simulation consists of a single real cluster,
//! N−1 Mimic clusters, and a proportional number of Core switches. …
//! Aside from the number of clusters, all other parameters are kept
//! constant from the small-scale to the final simulation."
//!
//! Every cluster but [`OBSERVABLE`] is a Mimic for the whole run, or, in
//! an adaptive run, moves between the Mimic and Flow tiers under an
//! [`AccuracyBudget`], the only response to drift. No composed cluster
//! other than [`OBSERVABLE`] runs at packet level.

use crate::error::PipelineError;
use crate::fleet::MimicFleet;
use crate::mimic::TrainedMimic;
use crate::tier::{AccuracyBudget, AdaptiveFleet, CorrectionHead};
use dcn_sim::config::SimConfig;
use dcn_sim::instrument::Metrics;
use dcn_sim::mimic::ClusterModel;
use dcn_sim::pdes::{run_partitioned_opts, PdesRunOpts, TierPlan};
use dcn_sim::simulator::Simulation;
use dcn_sim::topology::{FatTree, NodeId};
use dcn_transport::Protocol;
use std::sync::Arc;

/// Cluster index of the observable cluster in compositions.
pub const OBSERVABLE: u32 = 0;

/// The cluster a host belongs to, as a typed error instead of a panic
/// when the node is not a host (core switches have no cluster).
pub fn host_cluster(topo: &FatTree, node: NodeId) -> Result<u32, PipelineError> {
    topo.cluster_of(node)
        .ok_or_else(|| PipelineError::MalformedTopology {
            node,
            reason: "node belongs to no cluster (not a host/ToR/Agg)".into(),
        })
}

/// Build the `n_clusters` hybrid simulation: cluster [`OBSERVABLE`] (and
/// the cores) at full fidelity, every other cluster a Mimic served by one
/// [`MimicFleet`].
///
/// `base` is the *small-scale* configuration used for training — only its
/// cluster count is changed, per the paper.
pub fn try_compose(
    base: SimConfig,
    n_clusters: u32,
    protocol: Protocol,
    trained: &TrainedMimic,
) -> Result<Simulation, PipelineError> {
    let cfg = composed_config(base, n_clusters, protocol)?;
    let mut sim = Simulation::with_transport(cfg, protocol.factory());
    sim.set_cluster_model(Box::new(mimic_fleet(&cfg, &Arc::new(trained.clone()))));
    Ok(sim)
}

/// Run the composition across `partitions` PDES logical processes and
/// return the merged metrics. Every LP installs the full fleet (a
/// cluster's lanes only advance on the LP that owns the cluster), and the
/// conservative window shrinks to `min(link latency, latency floor)` so
/// the fleet's re-injections always land at or beyond the next barrier.
/// Bit-identical to the sequential [`try_compose`] run at any partition count,
/// asserted by the determinism matrix (`tests/determinism.rs`).
///
/// Everything optional rides in `opts` ([`PdesRunOpts`]): engine tracing
/// (reports arrive merged in `Metrics::obs` and never change the
/// trajectory), state digests, flight recorder + panic dumps, and early
/// stop (the re-run `mimicnet diverge` asks for).
pub fn run_composed_partitioned(
    base: SimConfig,
    n_clusters: u32,
    protocol: Protocol,
    trained: &TrainedMimic,
    partitions: usize,
    opts: &PdesRunOpts,
) -> Result<Metrics, PipelineError> {
    let trained = Arc::new(trained.clone());
    run_composed_fleet(base, n_clusters, protocol, &trained, partitions, opts, &|cfg| {
        Box::new(mimic_fleet(cfg, &trained))
    })
}

/// Run an *adaptive* composition: the Mimic'ed clusters sit behind an
/// [`AdaptiveFleet`] whose [`AccuracyBudget`] promotes/demotes them
/// between the Mimic and Flow tiers at every `plan` epoch barrier, with
/// per-cluster drift exchanged across LPs so every partition applies the
/// identical tier schedule. `plan` overrides `opts.tiers` — an adaptive
/// run always has tier epochs.
#[allow(clippy::too_many_arguments)]
pub fn run_composed_adaptive(
    base: SimConfig,
    n_clusters: u32,
    protocol: Protocol,
    trained: &TrainedMimic,
    partitions: usize,
    budget: &AccuracyBudget,
    plan: &TierPlan,
    correction: Option<&CorrectionHead>,
    opts: &PdesRunOpts,
) -> Result<Metrics, PipelineError> {
    let opts = PdesRunOpts { tiers: Some(*plan), ..opts.clone() };
    let trained = Arc::new(trained.clone());
    run_composed_fleet(base, n_clusters, protocol, &trained, partitions, &opts, &|cfg| {
        Box::new(AdaptiveFleet::new(
            mimic_fleet(cfg, &trained),
            cfg,
            budget.clone(),
            correction.copied(),
        ))
    })
}

/// The one composed-run body: validate the scaled config and the run's
/// tier cadence, derive the conservative window from the
/// bundle's latency floor, and hand every LP a freshly built fleet.
fn run_composed_fleet(
    base: SimConfig,
    n_clusters: u32,
    protocol: Protocol,
    trained: &TrainedMimic,
    partitions: usize,
    opts: &PdesRunOpts,
    make_fleet: &(dyn Fn(&SimConfig) -> Box<dyn ClusterModel> + Sync),
) -> Result<Metrics, PipelineError> {
    let cfg = composed_config(base, n_clusters, protocol)?;
    if opts.tiers.is_some_and(|p| p.every_windows < 1) {
        return Err(PipelineError::InvalidComposition {
            reason: "tier epochs must span at least one window".into(),
        });
    }
    let window = cfg.link.latency.min(trained.latency_floor());
    run_partitioned_opts(
        cfg,
        partitions,
        window,
        &|| protocol.factory(),
        &|sim| sim.set_cluster_model(make_fleet(&cfg)),
        opts,
    )
    .map_err(PipelineError::from)
}

/// The §7.1 scaling rule: `base` with only its cluster count (and the
/// protocol's queue setup) changed, validated.
pub(crate) fn composed_config(
    base: SimConfig,
    n_clusters: u32,
    protocol: Protocol,
) -> Result<SimConfig, PipelineError> {
    if n_clusters < 2 {
        return Err(PipelineError::InvalidComposition {
            reason: format!("a composition needs at least two clusters, got {n_clusters}"),
        });
    }
    let mut cfg = base;
    cfg.topo.clusters = n_clusters;
    cfg.queue = protocol.queue_setup(cfg.queue);
    cfg.validate()?;
    Ok(cfg)
}

/// The fleet for `cfg` over every cluster but [`OBSERVABLE`] (a
/// validated composition has at least one). A cluster's seed depends only
/// on its index.
fn mimic_fleet(cfg: &SimConfig, trained: &Arc<TrainedMimic>) -> MimicFleet {
    let n_clusters = cfg.topo.clusters;
    let cluster_seeds: Vec<(u32, u64)> = (0..n_clusters)
        .filter(|&c| c != OBSERVABLE)
        .map(|c| (c, cfg.seed ^ (0xC0DE_0000 + c as u64)))
        .collect();
    MimicFleet::new(Arc::clone(trained), cfg.topo, n_clusters, &cluster_seeds)
}

/// Build the ground-truth (full-fidelity) simulation at `n_clusters` with
/// otherwise identical parameters and workload.
pub fn ground_truth(base: SimConfig, n_clusters: u32, protocol: Protocol) -> Simulation {
    let mut cfg = base;
    cfg.topo.clusters = n_clusters;
    cfg.queue = protocol.queue_setup(cfg.queue);
    Simulation::with_transport(cfg, protocol.factory())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DataGenConfig};
    use crate::internal_model::InternalModel;
    use mimic_ml::train::TrainConfig;

    fn quick_trained() -> (TrainedMimic, SimConfig) {
        let mut cfg = DataGenConfig::default();
        cfg.sim.duration_s = 0.3;
        cfg.sim.seed = 55;
        let td = generate(&cfg);
        let tc = TrainConfig {
            epochs: 1,
            window: 4,
            ..TrainConfig::default()
        };
        let (ing, _) = InternalModel::train_stacked(&td.ingress, td.ingress_disc, 8, 1, &tc)
            .expect("valid training setup");
        let (eg, _) = InternalModel::train_stacked(&td.egress, td.egress_disc, 8, 1, &tc)
            .expect("valid training setup");
        (
            TrainedMimic {
                ingress: ing,
                egress: eg,
                feature_cfg: td.feature_cfg,
                feeder: td.feeder,
                envelope: crate::drift::FeatureEnvelope::fit(&td.ingress.features),
                window: crate::mimic::TrainWindow(tc.window),
            },
            cfg.sim,
        )
    }

    #[test]
    fn composed_simulation_completes_flows() {
        let (trained, mut base) = quick_trained();
        base.duration_s = 0.3;
        let mut sim = try_compose(base, 4, Protocol::NewReno, &trained).expect("valid composition");
        let m = sim.run();
        assert!(m.flows_completed() > 0, "no flows finished in composition");
        // Only flows touching the observable cluster exist.
        let topo = dcn_sim::topology::FatTree::new({
            let mut t = base.topo;
            t.clusters = 4;
            t
        });
        for f in m.flows.values() {
            let sc = host_cluster(&topo, f.src).expect("flow src is a host");
            let dc = host_cluster(&topo, f.dst).expect("flow dst is a host");
            assert!(sc == OBSERVABLE || dc == OBSERVABLE);
        }
    }

    #[test]
    fn composition_is_cheaper_than_ground_truth() {
        // The Mimic composition must process far fewer events than the
        // full simulation of the same size (the paper's core speedup
        // argument: T/N + Tp vs T).
        let (trained, mut base) = quick_trained();
        base.duration_s = 0.3;
        let m_mimic =
            try_compose(base, 6, Protocol::NewReno, &trained).expect("valid composition").run();
        let m_truth = ground_truth(base, 6, Protocol::NewReno).run();
        assert!(
            m_mimic.events_processed * 2 < m_truth.events_processed,
            "mimic {} vs truth {} events",
            m_mimic.events_processed,
            m_truth.events_processed
        );
    }

    #[test]
    fn invalid_compositions_are_typed_errors() {
        let (trained, base) = quick_trained();
        // Too few clusters.
        let err = try_compose(base, 1, Protocol::NewReno, &trained).err().expect("composition should be rejected");
        assert!(matches!(err, PipelineError::InvalidComposition { .. }));
        // Invalid base config propagates as a SimError.
        let mut bad = base;
        bad.link.host_bw_bps = 0;
        let err = try_compose(bad, 4, Protocol::NewReno, &trained).err().expect("composition should be rejected");
        assert!(matches!(err, PipelineError::Sim(_)));
        // A zero tier epoch is rejected before the run starts.
        let zero_tiers = TierPlan { every_windows: 0 };
        let result = run_composed_adaptive(
            base,
            4,
            Protocol::NewReno,
            &trained,
            1,
            &AccuracyBudget::default(),
            &zero_tiers,
            None,
            &PdesRunOpts::default(),
        );
        assert!(matches!(result, Err(PipelineError::InvalidComposition { .. })));
        // Core switches have no cluster: typed error, not a panic.
        let topo = dcn_sim::topology::FatTree::new(base.topo);
        let core = topo.core(0, 0);
        assert!(matches!(
            host_cluster(&topo, core),
            Err(PipelineError::MalformedTopology { node, .. }) if node == core
        ));
    }

    #[test]
    fn observable_workload_identical_to_ground_truth() {
        // The observable cluster's *offered* flows must match the ground
        // truth exactly (same ids and sizes) — the RNG alignment property.
        let (trained, mut base) = quick_trained();
        base.duration_s = 0.2;
        let m_mimic =
            try_compose(base, 4, Protocol::NewReno, &trained).expect("valid composition").run();
        let m_truth = ground_truth(base, 4, Protocol::NewReno).run();
        let topo = dcn_sim::topology::FatTree::new({
            let mut t = base.topo;
            t.clusters = 4;
            t
        });
        let obs_flows = |m: &dcn_sim::instrument::Metrics| {
            let mut v: Vec<(u64, u64)> = m
                .flows
                .values()
                .filter(|f| {
                    topo.cluster_of(f.src) == Some(0) || topo.cluster_of(f.dst) == Some(0)
                })
                .map(|f| (f.flow.0, f.size_bytes))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(obs_flows(&m_mimic), obs_flows(&m_truth));
    }
}
