//! Format-v1 leftovers must end in typed errors, never a panic or a
//! silently wrong engine: the cluster-mode tag `1` (a per-cluster boxed
//! model) was retired with format v2, and a v1 container header is
//! refused before its payload is looked at.

use dcn_sim::config::SimConfig;
use dcn_sim::mimic::ConstModel;
use dcn_sim::simulator::Simulation;
use dcn_sim::snapshot::{frame_payload, unframe_payload, SnapshotError, FORMAT_VERSION};
use dcn_sim::time::SimDuration;

/// A fresh engine with cluster 1 behind a [`ConstModel`].
fn engine(ingress: bool) -> Simulation {
    let mut sim = Simulation::new(SimConfig::small_scale());
    let model = ConstModel::new(vec![1], SimDuration::from_millis(2), 0.0, 7);
    sim.set_cluster_model_dirs(Box::new(model), ingress, true);
    sim
}

#[test]
fn retired_cluster_mode_tag_is_a_typed_error() {
    // Two fresh engines that differ only in cluster 1's ingress flag: their
    // payloads differ in exactly that byte, and the mode tag precedes it.
    let good = engine(true)
        .save_snapshot()
        .expect("fresh engine snapshots");
    let other = engine(false)
        .save_snapshot()
        .expect("fresh engine snapshots");
    assert_eq!(good.len(), other.len());
    let diffs: Vec<usize> = (0..good.len()).filter(|&i| good[i] != other[i]).collect();
    assert_eq!(diffs.len(), 1, "only the ingress flag differs");
    let tag_at = diffs[0] - 1;
    assert_eq!(good[tag_at], 2, "the Mimic arm's tag");

    engine(true)
        .restore_snapshot(&good)
        .expect("the untouched payload restores");
    let mut retired = good;
    retired[tag_at] = 1;
    match engine(true).restore_snapshot(&retired) {
        Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("mode 1"), "{msg}"),
        other => panic!("retired tag must be a typed error, got {other:?}"),
    }
}

#[test]
fn v1_header_is_an_unsupported_version() {
    let mut framed = frame_payload(b"any v1 payload");
    framed[8..12].copy_from_slice(&1u32.to_le_bytes());
    match unframe_payload(&framed) {
        Err(SnapshotError::UnsupportedVersion {
            found: 1,
            supported,
        }) => {
            assert_eq!(supported, FORMAT_VERSION)
        }
        other => panic!("a v1 header must be refused, got {other:?}"),
    }
}
