//! Integration tests of the conservative PDES engine: exact agreement
//! with sequential execution across protocols and partition counts.

use dcn_sim::config::SimConfig;
use dcn_sim::pdes::run_partitioned;
use dcn_sim::simulator::Simulation;
use dcn_transport::Protocol;

fn cfg(clusters: u32) -> SimConfig {
    let mut c = SimConfig::with_clusters(clusters);
    c.duration_s = 0.25;
    c.seed = 31;
    c
}

fn assert_identical(
    seq: &dcn_sim::instrument::Metrics,
    par: &dcn_sim::instrument::Metrics,
    label: &str,
) {
    assert_eq!(seq.flows_started(), par.flows_started(), "{label}: flows started");
    assert_eq!(
        seq.flows_completed(),
        par.flows_completed(),
        "{label}: flows completed"
    );
    assert_eq!(
        seq.total_delivered_bytes(),
        par.total_delivered_bytes(),
        "{label}: delivered bytes"
    );
    assert_eq!(seq.queue_drops, par.queue_drops, "{label}: drops");
    assert_eq!(seq.ecn_marks, par.ecn_marks, "{label}: marks");
    for (id, rec) in &seq.flows {
        let other = par.flows.get(id).unwrap_or_else(|| panic!("{label}: flow {id:?} missing"));
        assert_eq!(rec.end, other.end, "{label}: FCT of {id:?}");
    }
}

#[test]
fn pdes_matches_sequential_newreno() {
    let c = cfg(4);
    let p = Protocol::NewReno;
    let mut base = c;
    base.queue = p.queue_setup(base.queue);
    let seq = Simulation::with_transport(base, p.factory()).run();
    for parts in [2usize, 3, 4] {
        let par = run_partitioned(base, parts, &|| p.factory());
        assert_identical(&seq, &par, &format!("newreno x{parts}"));
    }
}

#[test]
fn pdes_matches_sequential_dctcp() {
    let c = cfg(4);
    let p = Protocol::Dctcp { k: 10 };
    let mut base = c;
    base.queue = p.queue_setup(base.queue);
    let seq = Simulation::with_transport(base, p.factory()).run();
    let par = run_partitioned(base, 4, &|| p.factory());
    assert_identical(&seq, &par, "dctcp x4");
}

#[test]
fn pdes_matches_sequential_homa() {
    let c = cfg(4);
    let p = Protocol::Homa;
    let mut base = c;
    base.queue = p.queue_setup(base.queue);
    let seq = Simulation::with_transport(base, p.factory()).run();
    let par = run_partitioned(base, 2, &|| p.factory());
    assert_identical(&seq, &par, "homa x2");
}

#[test]
fn pdes_more_partitions_than_clusters() {
    // Degenerate but legal: extra partitions simply idle.
    let c = cfg(2);
    let p = Protocol::NewReno;
    let seq = Simulation::with_transport(c, p.factory()).run();
    let par = run_partitioned(c, 5, &|| p.factory());
    assert_identical(&seq, &par, "overpartitioned");
}

#[test]
fn pdes_larger_network() {
    let c = cfg(8);
    let p = Protocol::NewReno;
    let seq = Simulation::with_transport(c, p.factory()).run();
    let par = run_partitioned(c, 4, &|| p.factory());
    assert_identical(&seq, &par, "8 clusters x4");
}

// ---------------------------------------------------------------------
// Composed (Mimic fleet) PDES: the engine's aggregation point must keep
// partitioned runs bit-identical to the sequential composition, and the
// learned drops must survive the metric merge.
// ---------------------------------------------------------------------

fn quick_trained() -> (mimicnet::mimic::TrainedMimic, SimConfig) {
    use mimicnet::datagen::{generate, DataGenConfig};
    use mimicnet::internal_model::InternalModel;

    let mut dg = DataGenConfig::default();
    dg.sim.duration_s = 0.3;
    dg.sim.seed = 55;
    let td = generate(&dg);
    let tc = mimic_ml::train::TrainConfig {
        epochs: 1,
        window: 4,
        ..mimic_ml::train::TrainConfig::default()
    };
    let (ing, _) = InternalModel::train_stacked(&td.ingress, td.ingress_disc, 8, 1, &tc)
        .expect("valid training setup");
    let (eg, _) = InternalModel::train_stacked(&td.egress, td.egress_disc, 8, 1, &tc)
        .expect("valid training setup");
    (
        mimicnet::mimic::TrainedMimic {
            ingress: ing,
            egress: eg,
            feature_cfg: td.feature_cfg,
            feeder: td.feeder,
            envelope: None,
        },
        dg.sim,
    )
}

#[test]
fn composed_batched_pdes_matches_sequential() {
    use dcn_sim::pdes::PdesRunOpts;
    use mimicnet::compose::{run_composed_partitioned, try_compose};

    let (trained, mut base) = quick_trained();
    base.duration_s = 0.25;
    base.seed = 31;
    let p = Protocol::NewReno;
    let seq = try_compose(base, 4, p, &trained).expect("valid composition").run();
    assert!(seq.flows_completed() > 0, "composition made no progress");
    for parts in [1usize, 2, 4] {
        let par = run_composed_partitioned(base, 4, p, &trained, parts, &PdesRunOpts::default())
            .expect("valid composition");
        assert_identical(&seq, &par, &format!("composed batched x{parts}"));
        assert_eq!(
            seq.mimic_drops, par.mimic_drops,
            "composed batched x{parts}: mimic drops"
        );
    }
}

#[test]
fn composed_batched_pdes_larger_network() {
    use dcn_sim::pdes::PdesRunOpts;
    use mimicnet::compose::{run_composed_partitioned, try_compose};

    let (trained, mut base) = quick_trained();
    base.duration_s = 0.2;
    base.seed = 7;
    let p = Protocol::NewReno;
    let seq = try_compose(base, 8, p, &trained).expect("valid composition").run();
    let par = run_composed_partitioned(base, 8, p, &trained, 4, &PdesRunOpts::default())
        .expect("valid composition");
    assert_identical(&seq, &par, "composed batched 8 clusters x4");
    assert_eq!(seq.mimic_drops, par.mimic_drops, "composed: mimic drops");
}

#[test]
fn in_process_and_partitioned_estimates_are_one_model() {
    // `Pipeline::try_estimate` (Simulation::run) and `try_estimate_opts`
    // (the PDES driver) install the same fleet: the metrics are equal byte
    // for byte at every partition count.
    use dcn_sim::pdes::PdesRunOpts;
    use mimicnet::pipeline::{Pipeline, PipelineConfig};

    let (trained, mut base) = quick_trained();
    base.duration_s = 0.2;
    for seed in [7u64, 31] {
        base.seed = seed;
        let mut pipe = Pipeline::new(PipelineConfig { base, ..PipelineConfig::default() });
        for n in [4u32, 8] {
            let seq = pipe.try_estimate(&trained, n, None).expect("valid composition");
            assert!(seq.metrics.flows_completed() > 0, "composition made no progress");
            for parts in [1usize, 2, 4] {
                let par = pipe
                    .try_estimate_opts(&trained, n, parts, &PdesRunOpts::default())
                    .expect("valid composition");
                assert_eq!(
                    seq.metrics.canonical_bytes(),
                    par.metrics.canonical_bytes(),
                    "seed {seed}, {n} clusters x{parts}"
                );
            }
        }
    }
}
