//! Integration tests of the checkpoint/restore subsystem: a composed
//! MimicNet run that is checkpointed mid-flight — or killed and resumed
//! from the committed checkpoint — must produce metrics byte-identical to
//! an uninterrupted run, at every partition count and compose mode. And a
//! damaged checkpoint must surface as a typed [`SnapshotError`], never a
//! panic.

use dcn_sim::mimic::FidelityTier;
use dcn_sim::pdes::{read_manifest, CheckpointPlan, PdesRunOpts, TierPlan, MANIFEST_FILE};
use dcn_sim::snapshot::{
    read_snapshot_file, SnapReader, SnapWriter, SnapshotError, FORMAT_VERSION,
};
use dcn_sim::time::SimDuration;
use mimicnet::compose::{run_composed_adaptive, run_composed_partitioned};
use mimicnet::degrade::{AccuracyBudget, BudgetLedger};
use mimicnet::error::ComposeRunError;
use mimicnet::mimic::TrainedMimic;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use std::path::PathBuf;
use std::sync::OnceLock;

fn quick_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.base.duration_s = 0.3;
    cfg.base.seed = 77;
    cfg.hidden = 8;
    cfg.train.epochs = 2;
    cfg.train.window = 4;
    cfg
}

/// One trained bundle shared by every test in this file (training is the
/// expensive part and its output is deterministic in the config).
fn trained() -> &'static TrainedMimic {
    static TRAINED: OnceLock<TrainedMimic> = OnceLock::new();
    TRAINED.get_or_init(|| Pipeline::new(quick_cfg()).try_train(None).expect("training succeeds").0)
}

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mimicnet-snap-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run options that checkpoint into `plan` and/or resume from `resume`.
fn ckpt_opts(plan: Option<&CheckpointPlan>, resume: Option<&std::path::Path>) -> PdesRunOpts {
    PdesRunOpts {
        checkpoint: plan.cloned(),
        resume_from: resume.map(std::path::Path::to_path_buf),
        ..PdesRunOpts::default()
    }
}

/// Run the composed simulation at `partitions`, optionally checkpointing
/// into `plan` / resuming from `resume`.
fn composed(
    partitions: usize,
    plan: Option<&CheckpointPlan>,
    resume: Option<&std::path::Path>,
) -> Result<dcn_sim::instrument::Metrics, ComposeRunError> {
    let cfg = quick_cfg();
    run_composed_partitioned(
        cfg.base,
        4,
        cfg.protocol,
        trained(),
        partitions,
        &ckpt_opts(plan, resume),
    )
}

#[test]
fn checkpointed_and_resumed_runs_are_byte_identical_across_modes() {
    // The acceptance matrix: 1/2/4 partitions (1 is the sequential
    // engine).
    for partitions in [1usize, 2, 4] {
        let label = format!("x{partitions}");
        let plain = composed(partitions, None, None)
            .unwrap_or_else(|e| panic!("{label}: uninterrupted run failed: {e}"));

        let dir = ckpt_dir(&format!("id-{partitions}"));
        let plan = CheckpointPlan {
            dir: dir.clone(),
            every: SimDuration::from_millis(80),
            keep: 1,
        };
        let ckpt = composed(partitions, Some(&plan), None)
            .unwrap_or_else(|e| panic!("{label}: checkpointed run failed: {e}"));
        assert_eq!(
            plain.canonical_bytes(),
            ckpt.canonical_bytes(),
            "{label}: checkpointing changed the trajectory"
        );

        // The run completed, so a committed checkpoint must exist —
        // resume from it as a crashed process would.
        let manifest = read_manifest(&dir)
            .unwrap_or_else(|e| panic!("{label}: no committed manifest: {e}"));
        assert_eq!(manifest.partitions as usize, partitions, "{label}");
        let resumed = composed(partitions, None, Some(&dir))
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_eq!(
            plain.canonical_bytes(),
            resumed.canonical_bytes(),
            "{label}: resumed run diverged from uninterrupted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The committed generation's partition files from a finished
/// checkpointed run — real snapshot bytes to corrupt.
fn committed_part_file(tag: &str) -> (PathBuf, PathBuf) {
    let dir = ckpt_dir(tag);
    let plan = CheckpointPlan {
        dir: dir.clone(),
        every: SimDuration::from_millis(80),
        keep: 1,
    };
    composed(1, Some(&plan), None).expect("checkpointed run");
    let manifest = read_manifest(&dir).expect("committed manifest");
    let part = dir.join(&manifest.generation).join("part-0.snap");
    assert!(part.exists(), "committed partition file missing");
    (dir, part)
}

/// Like [`committed_part_file`], but from an *adaptive* run whose
/// snapshots additionally carry the per-cluster fidelity state: the
/// accuracy-budget ledger (tier assignment + calm accounting) and the
/// Flow-tier share estimators.
fn committed_adaptive_part_file(tag: &str) -> (PathBuf, PathBuf) {
    let dir = ckpt_dir(tag);
    let plan = CheckpointPlan {
        dir: dir.clone(),
        every: SimDuration::from_millis(80),
        keep: 1,
    };
    adaptive(Some(&plan), None).expect("adaptive checkpointed run");
    let manifest = read_manifest(&dir).expect("committed manifest");
    let part = dir.join(&manifest.generation).join("part-0.snap");
    assert!(part.exists(), "committed partition file missing");
    (dir, part)
}

/// Adaptive run with a budget guaranteed to demote every managed cluster
/// at the first epoch barrier, so the snapshot holds mixed fidelity state.
fn adaptive(
    plan: Option<&CheckpointPlan>,
    resume: Option<&std::path::Path>,
) -> Result<dcn_sim::instrument::Metrics, ComposeRunError> {
    let cfg = quick_cfg();
    let budget = AccuracyBudget {
        start: FidelityTier::Mimic,
        demote_below: f64::INFINITY,
        patience: 1,
        ..AccuracyBudget::default()
    };
    run_composed_adaptive(
        cfg.base,
        4,
        cfg.protocol,
        trained(),
        1,
        &budget,
        &TierPlan { every_windows: 16 },
        None,
        &ckpt_opts(plan, resume),
    )
}

#[test]
fn adaptive_snapshot_corruption_is_a_typed_error() {
    // The adaptive part file embeds the ledger and estimator state; any
    // bit damage must still surface as a checksum mismatch, and the
    // adaptive resume path must propagate it typed, never panic.
    let (dir, part) = committed_adaptive_part_file("adaptive-flip");
    let mut bytes = std::fs::read(&part).expect("read snapshot");
    let payload_at = bytes.len() - 1;
    bytes[payload_at] ^= 0x10;
    std::fs::write(&part, &bytes).expect("write corrupted snapshot");
    match read_snapshot_file(&part) {
        Err(SnapshotError::ChecksumMismatch { expected, actual }) => {
            assert_ne!(expected, actual)
        }
        other => panic!("bit flip must fail the checksum, got {other:?}"),
    }
    match adaptive(None, Some(&dir)) {
        Err(ComposeRunError::Snapshot(SnapshotError::ChecksumMismatch { .. })) => {}
        Ok(_) => panic!("adaptive resume from a corrupted snapshot must fail"),
        Err(e) => panic!("wrong error for corrupted adaptive snapshot: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_checkpoint_resumes_byte_identically() {
    // Sanity anchor for the corruption tests: the *intact* adaptive
    // checkpoint restores byte-identically, switches included.
    let plain = adaptive(None, None).expect("uninterrupted adaptive run");
    assert!(!plain.tier_switches.is_empty(), "budget produced no demotions");
    let (dir, _part) = committed_adaptive_part_file("adaptive-ok");
    let resumed = adaptive(None, Some(&dir)).expect("adaptive resume");
    assert_eq!(plain.canonical_bytes(), resumed.canonical_bytes());
    assert_eq!(plain.tier_switches, resumed.tier_switches);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Budget-ledger codec: the per-cluster tier byte is validated on load —
/// an out-of-range ordinal (a fourth tier that does not exist) is a
/// `Corrupt` error, truncation is `Truncated`, and a count mismatch
/// against the configured cluster count is `Corrupt`.
#[test]
fn ledger_fidelity_state_corruption_is_typed() {
    let budget = AccuracyBudget::default();
    let mut ledger = BudgetLedger::new(budget.clone(), 4, &[1, 2, 3]);
    // Advance the accounting so the snapshot holds non-trivial state.
    ledger.on_epoch(1, &[None, Some(0.1), None, Some(2.0)]);
    ledger.on_epoch(2, &[None, Some(0.2), None, None]);
    let mut w = SnapWriter::new();
    ledger.save_state(&mut w);
    let bytes = w.into_bytes();

    // Layout: u64 cluster count, then per cluster [u8 tier, u8 managed,
    // u32 calm]. Corrupt cluster 1's tier byte (offset 8 + 6*1).
    let mut bad = bytes.clone();
    bad[8 + 6] = FidelityTier::COUNT as u8;
    let mut fresh = BudgetLedger::new(budget.clone(), 4, &[1, 2, 3]);
    match fresh.load_state(&mut SnapReader::new(&bad)) {
        Err(SnapshotError::Corrupt(msg)) => {
            assert!(msg.contains("FidelityTier"), "unexpected message: {msg}")
        }
        other => panic!("bad tier byte must be Corrupt, got {other:?}"),
    }

    let mut fresh = BudgetLedger::new(budget.clone(), 4, &[1, 2, 3]);
    match fresh.load_state(&mut SnapReader::new(&bytes[..bytes.len() - 3])) {
        Err(SnapshotError::Truncated) => {}
        other => panic!("truncated ledger must be Truncated, got {other:?}"),
    }

    // A snapshot from a differently-sized fleet must not load.
    let mut wrong_size = BudgetLedger::new(budget.clone(), 6, &[1, 2, 3, 4, 5]);
    match wrong_size.load_state(&mut SnapReader::new(&bytes)) {
        Err(SnapshotError::Corrupt(_)) => {}
        other => panic!("cluster-count mismatch must be Corrupt, got {other:?}"),
    }

    // And the intact bytes round-trip canonically.
    let mut good = BudgetLedger::new(budget, 4, &[1, 2, 3]);
    good.load_state(&mut SnapReader::new(&bytes)).expect("intact ledger loads");
    let mut w2 = SnapWriter::new();
    good.save_state(&mut w2);
    assert_eq!(bytes, w2.into_bytes(), "ledger re-serialization not canonical");
}

/// Flow-tier share-estimator codec: truncated estimator state is a typed
/// error, and intact state round-trips canonically.
#[test]
fn share_estimator_corruption_is_typed() {
    use dcn_sim::packet::FlowId;
    use dcn_sim::time::SimTime;
    use flow_sim::boundary::ShareEstimator;

    let mut est = ShareEstimator::new(10_000_000, SimDuration::from_millis(1), SimDuration::from_millis(10));
    for i in 0..5u64 {
        est.observe(FlowId(i), SimTime::from_secs_f64(0.001 * i as f64), 1500);
    }
    est.clamp_exit(SimTime::from_secs_f64(0.02));
    let mut w = SnapWriter::new();
    est.save_state(&mut w);
    let bytes = w.into_bytes();

    let mut fresh = ShareEstimator::new(10_000_000, SimDuration::from_millis(1), SimDuration::from_millis(10));
    match fresh.load_state(&mut SnapReader::new(&bytes[..bytes.len() / 2])) {
        Err(SnapshotError::Truncated) => {}
        other => panic!("truncated estimator must be Truncated, got {other:?}"),
    }

    let mut good = ShareEstimator::new(10_000_000, SimDuration::from_millis(1), SimDuration::from_millis(10));
    good.load_state(&mut SnapReader::new(&bytes)).expect("intact estimator loads");
    let mut w2 = SnapWriter::new();
    good.save_state(&mut w2);
    assert_eq!(bytes, w2.into_bytes(), "estimator re-serialization not canonical");
}

#[test]
fn bit_flipped_snapshot_is_a_checksum_error() {
    let (dir, part) = committed_part_file("flip");
    let mut bytes = std::fs::read(&part).expect("read snapshot");
    let payload_at = bytes.len() - 1; // last payload byte, well past the header
    bytes[payload_at] ^= 0x40;
    std::fs::write(&part, &bytes).expect("write corrupted snapshot");
    match read_snapshot_file(&part) {
        Err(SnapshotError::ChecksumMismatch { expected, actual }) => {
            assert_ne!(expected, actual)
        }
        other => panic!("bit flip must fail the checksum, got {other:?}"),
    }
    // The whole resume path must surface the same typed error, not panic.
    match composed(1, None, Some(&dir)) {
        Err(ComposeRunError::Snapshot(SnapshotError::ChecksumMismatch { .. })) => {}
        Ok(_) => panic!("resume from a corrupted snapshot must fail"),
        Err(e) => panic!("wrong error for corrupted snapshot: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_snapshot_is_a_typed_error() {
    let (dir, part) = committed_part_file("trunc");
    let bytes = std::fs::read(&part).expect("read snapshot");
    std::fs::write(&part, &bytes[..bytes.len() / 2]).expect("truncate snapshot");
    match read_snapshot_file(&part) {
        Err(SnapshotError::Truncated) => {}
        other => panic!("truncation must be typed, got {other:?}"),
    }
    match composed(1, None, Some(&dir)) {
        Err(ComposeRunError::Snapshot(SnapshotError::Truncated)) => {}
        Ok(_) => panic!("resume from a truncated snapshot must fail"),
        Err(e) => panic!("wrong error for truncated snapshot: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skew_is_a_typed_error() {
    // A future format, and the retired v1 (whose fleet state carried lane
    // counters v2 dropped): both refused by the header, also on resume.
    let (dir, part) = committed_part_file("skew");
    let mut bytes = std::fs::read(&part).expect("read snapshot");
    for skewed in [FORMAT_VERSION + 1, 1] {
        bytes[8..12].copy_from_slice(&skewed.to_le_bytes());
        std::fs::write(&part, &bytes).expect("write skewed snapshot");
        match read_snapshot_file(&part) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, skewed);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("version skew must be typed, got {other:?}"),
        }
        match composed(1, None, Some(&dir)) {
            Err(ComposeRunError::Snapshot(SnapshotError::UnsupportedVersion { found, .. })) => {
                assert_eq!(found, skewed)
            }
            Ok(_) => panic!("resume from a v{skewed} snapshot must fail"),
            Err(e) => panic!("wrong error for a v{skewed} snapshot: {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_manifest_is_a_typed_error_on_resume() {
    let (dir, _part) = committed_part_file("manifest");
    std::fs::write(dir.join(MANIFEST_FILE), b"{definitely not json")
        .expect("clobber manifest");
    match composed(1, None, Some(&dir)) {
        Err(ComposeRunError::Snapshot(SnapshotError::Corrupt(_))) => {}
        Ok(_) => panic!("resume from a clobbered manifest must fail"),
        Err(e) => panic!("wrong error for clobbered manifest: {e}"),
    }
    // A missing directory is an I/O error, also typed.
    let gone = ckpt_dir("missing");
    match composed(1, None, Some(&gone)) {
        Err(ComposeRunError::Snapshot(SnapshotError::Io(_))) => {}
        Ok(_) => panic!("resume from a missing directory must fail"),
        Err(e) => panic!("wrong error for missing directory: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

mod codec_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn scalar_fields_round_trip(
            a in any::<u64>(),
            b in any::<i64>(),
            c in any::<u32>(),
            d in any::<u16>(),
            e in any::<u8>(),
            f in any::<bool>(),
            s in proptest::collection::vec(32u8..127, 0..64),
        ) {
            let s = String::from_utf8(s).expect("printable ASCII");
            let mut w = SnapWriter::new();
            w.put_u64(a);
            w.put_i64(b);
            w.put_u32(c);
            w.put_u16(d);
            w.put_u8(e);
            w.put_bool(f);
            w.put_str(&s);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            prop_assert_eq!(r.get_u64().unwrap(), a);
            prop_assert_eq!(r.get_i64().unwrap(), b);
            prop_assert_eq!(r.get_u32().unwrap(), c);
            prop_assert_eq!(r.get_u16().unwrap(), d);
            prop_assert_eq!(r.get_u8().unwrap(), e);
            prop_assert_eq!(r.get_bool().unwrap(), f);
            prop_assert_eq!(r.get_str().unwrap(), s);
            r.finish().unwrap();
        }

        #[test]
        fn slices_and_options_round_trip(
            xs in proptest::collection::vec(any::<f64>(), 0..64),
            ys in proptest::collection::vec(any::<f32>(), 0..64),
            zs in proptest::collection::vec(any::<u64>(), 0..64),
            opt_a in (any::<bool>(), any::<u64>()),
            opt_b in (any::<bool>(), any::<f64>()),
        ) {
            let opt_a = opt_a.0.then_some(opt_a.1);
            let opt_b = opt_b.0.then_some(opt_b.1);
            let mut w = SnapWriter::new();
            w.put_f64_slice(&xs);
            w.put_f32_slice(&ys);
            w.put_u64_slice(&zs);
            w.put_opt_u64(opt_a);
            w.put_opt_f64(opt_b);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            // Bit-compare floats: NaN payloads must survive verbatim.
            let back: Vec<u64> = r.get_f64_vec().unwrap().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = xs.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(back, want);
            let back: Vec<u32> = r.get_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = ys.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(back, want);
            prop_assert_eq!(r.get_u64_vec().unwrap(), zs);
            prop_assert_eq!(r.get_opt_u64().unwrap(), opt_a);
            prop_assert_eq!(
                r.get_opt_f64().unwrap().map(f64::to_bits),
                opt_b.map(f64::to_bits)
            );
            r.finish().unwrap();
        }

        #[test]
        fn truncated_payloads_never_panic(
            xs in proptest::collection::vec(any::<u64>(), 1..32),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut w = SnapWriter::new();
            w.put_u64_slice(&xs);
            w.put_str("trailer");
            let bytes = w.into_bytes();
            let cut = (bytes.len() as f64 * cut_frac) as usize;
            // Decoding any prefix returns a typed error (or succeeds on a
            // field boundary) — it must never panic or over-allocate.
            let mut r = SnapReader::new(&bytes[..cut.min(bytes.len())]);
            let _ = r.get_u64_vec().and_then(|_| r.get_str().map(|_| ()));
        }
    }
}
