//! Automated divergence bisection (DESIGN.md §14).
//!
//! Two runs that should be bit-identical — same config, different
//! partition counts; a resumed run vs. an uninterrupted one; a run before
//! and after a suspect change — occasionally are not. Eyeballing final
//! metrics tells you *that* they diverged; this module tells you *where*:
//!
//! 1. **Coarse**: compare the two runs' per-window state-digest timelines
//!    (recorded by `--digests`, exported in the obs snapshot) and find the
//!    first window whose digests disagree.
//! 2. **Replay**: restore the newest checkpoint generation both sides
//!    share strictly before that barrier, re-run each side to the barrier
//!    with stride-1 digests and a full flight ring, and refine the first
//!    diverging window against the finer timelines.
//! 3. **Event diff**: merge-sort each side's flight events into the
//!    deterministic [`FlightEvent::sort_key`] order and report the first
//!    event where the two runs disagree, with a side-by-side excerpt.
//!
//! Also home to [`snap_flip`], the fault injector the CI divergence smoke
//! job uses: flip one state bit inside a checkpoint snapshot such that the
//! snapshot still restores cleanly but its state digest changes, then
//! re-frame it with a valid checksum. Resuming the corrupted checkpoint
//! yields a run that diverges at exactly the restored window — ground
//! truth for exercising the bisection end to end.

use crate::compose::{composed_config, try_compose};
use crate::mimic::TrainedMimic;
use crate::pipeline::Pipeline;
use dcn_obs::{FlightEvent, ObsReport};
use dcn_sim::pdes::{partition_by_cluster, read_manifest, FlightPlan, PdesRunOpts, TierPlan};
use dcn_sim::snapshot::{read_snapshot_file, write_snapshot_file};
use dcn_sim::time::SimTime;
use dcn_sim::topology::FatTree;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A run's digest timeline, as recorded by the engine (`--digests`) and
/// exported in the obs snapshot: entry `i` is the state digest at the
/// window-barrier with absolute index `first_window + i * stride`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestTimeline {
    /// Absolute window index of the first recorded digest.
    pub first_window: u64,
    /// Window-index stride between recorded digests.
    pub stride: u64,
    /// Conservative window length, nanoseconds.
    pub window_ns: u64,
    /// One digest per recorded barrier.
    pub digests: Vec<u64>,
}

impl DigestTimeline {
    /// Extract the timeline from an exported obs snapshot (`--obs-out`).
    pub fn from_obs_json(text: &str) -> Result<DigestTimeline, String> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("obs snapshot does not parse: {e}"))?;
        let root = v.as_object().ok_or("obs snapshot root is not an object")?;
        let get = |name: &str| root.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let gauges = get("gauges")
            .and_then(Value::as_object)
            .ok_or("obs snapshot has no gauges section")?;
        let gauge = |name: &str| {
            gauges
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_u64())
        };
        let window_ns = gauge("digest.window_ns")
            .ok_or("no digest.window_ns gauge — was the run digested (--digests)?")?;
        let digests = get("digests")
            .and_then(Value::as_object)
            .and_then(|d| d.iter().find(|(k, _)| k == "digest.window"))
            .and_then(|(_, v)| v.as_array())
            .ok_or("no digest.window timeline — was the run digested (--digests)?")?
            .iter()
            .map(|x| x.as_u64().ok_or_else(|| "non-integer digest entry".to_string()))
            .collect::<Result<Vec<u64>, String>>()?;
        Ok(DigestTimeline {
            first_window: gauge("digest.first_window").unwrap_or(0),
            stride: gauge("digest.stride").unwrap_or(1).max(1),
            window_ns,
            digests,
        })
    }

    /// Extract the timeline from an in-process report (replay path).
    pub fn from_report(r: &ObsReport) -> Result<DigestTimeline, String> {
        let digests = r
            .digests
            .get("digest.window")
            .cloned()
            .ok_or("replay recorded no digest.window timeline")?;
        let gauge = |n: &str| r.gauges.get(n).map(|v| *v as u64);
        Ok(DigestTimeline {
            first_window: gauge("digest.first_window").unwrap_or(0),
            stride: gauge("digest.stride").unwrap_or(1).max(1),
            window_ns: gauge("digest.window_ns").ok_or("replay recorded no digest.window_ns")?,
            digests,
        })
    }

    /// The digest at absolute window index `w`, if recorded.
    fn at(&self, w: u64) -> Option<u64> {
        if w < self.first_window || !(w - self.first_window).is_multiple_of(self.stride) {
            return None;
        }
        let i = (w - self.first_window) / self.stride;
        self.digests.get(i as usize).copied()
    }

    /// One-past-the-last recorded absolute window index.
    fn end_window(&self) -> u64 {
        self.first_window + self.digests.len() as u64 * self.stride
    }
}

/// First window-barrier where two digest timelines disagree.
#[derive(Clone, Copy, Debug)]
pub struct WindowDivergence {
    /// Absolute window index of the first disagreement.
    pub window: u64,
    /// Simulated time of that barrier, nanoseconds.
    pub sim_ns: u64,
    /// Side A's digest there (`None` = not recorded on that side).
    pub a: Option<u64>,
    /// Side B's digest there.
    pub b: Option<u64>,
}

/// Compare two digest timelines over their overlapping extent and return
/// the first barrier where they disagree (`Ok(None)` = identical).
pub fn first_window_divergence(
    a: &DigestTimeline,
    b: &DigestTimeline,
) -> Result<Option<WindowDivergence>, String> {
    if a.window_ns != b.window_ns {
        return Err(format!(
            "the runs used different conservative windows ({} vs {} ns); their \
             digest timelines are not comparable",
            a.window_ns, b.window_ns
        ));
    }
    if a.stride != b.stride {
        return Err(format!(
            "the runs used different digest strides ({} vs {}); re-run both with \
             the same --digest-stride",
            a.stride, b.stride
        ));
    }
    let start = a.first_window.max(b.first_window);
    let end = a.end_window().min(b.end_window());
    if start >= end {
        return Err("the two digest timelines do not overlap".into());
    }
    let mut w = start;
    while w < end {
        let (da, db) = (a.at(w), b.at(w));
        if da != db {
            return Ok(Some(WindowDivergence {
                window: w,
                sim_ns: w.saturating_mul(a.window_ns),
                a: da,
                b: db,
            }));
        }
        w += a.stride;
    }
    Ok(None)
}

/// First flight-recorder event where two runs disagree, with context.
#[derive(Clone, Debug)]
pub struct EventDivergence {
    /// Side A's event at the diverging position (`None` = A's trace ended).
    pub a: Option<FlightEvent>,
    /// Side B's event at the diverging position.
    pub b: Option<FlightEvent>,
    /// A few events on each side around the divergence, in merge order.
    pub excerpt_a: Vec<FlightEvent>,
    pub excerpt_b: Vec<FlightEvent>,
}

/// Sort both sides into the deterministic cross-LP merge order and find
/// the first position where they disagree. `None` = the traces match.
pub fn first_event_divergence(a: &[FlightEvent], b: &[FlightEvent]) -> Option<EventDivergence> {
    let mut sa: Vec<FlightEvent> = a.to_vec();
    let mut sb: Vec<FlightEvent> = b.to_vec();
    sa.sort_by_key(FlightEvent::sort_key);
    sb.sort_by_key(FlightEvent::sort_key);
    let common = sa.len().min(sb.len());
    let mut i = 0;
    while i < common && sa[i] == sb[i] {
        i += 1;
    }
    if i == sa.len() && i == sb.len() {
        return None;
    }
    let lo = i.saturating_sub(3);
    let hi = i + 4;
    Some(EventDivergence {
        a: sa.get(i).copied(),
        b: sb.get(i).copied(),
        excerpt_a: sa[lo.min(sa.len())..hi.min(sa.len())].to_vec(),
        excerpt_b: sb[lo.min(sb.len())..hi.min(sb.len())].to_vec(),
    })
}

/// Everything one side of a replay needs.
pub struct ReplaySide<'a> {
    /// That run's checkpoint directory (the ladder of restore points).
    pub ckpt_dir: &'a Path,
    /// Short label for reports ("A"/"B").
    pub label: &'a str,
}

/// How to rebuild the runs for the replay phase: the same model, scale,
/// and engine options the original runs used.
pub struct ReplayConfig<'a> {
    pub pipeline_cfg: crate::pipeline::PipelineConfig,
    pub trained: &'a TrainedMimic,
    pub n_clusters: u32,
    pub partitions: usize,
    /// Flight-ring capacity per LP for the replay (events kept are the
    /// *last* `capacity`, which is the end of the replay — exactly where
    /// the divergence is).
    pub flight_capacity: usize,
    /// Replay adaptively when the original runs did.
    pub adaptive: Option<(crate::AccuracyBudget, TierPlan, Option<crate::CorrectionHead>)>,
}

/// One side's replay result.
pub struct ReplayOutcome {
    /// Generation restored, `None` = replayed from t=0.
    pub resumed_generation: Option<String>,
    pub timeline: DigestTimeline,
    pub flight: Vec<FlightEvent>,
}

/// The full bisection verdict.
pub struct BisectReport {
    /// First diverging window per the two runs' recorded timelines.
    pub coarse: WindowDivergence,
    /// First diverging window per the stride-1 replay timelines (present
    /// when the replay phase ran and reproduced the divergence).
    pub refined: Option<WindowDivergence>,
    /// First diverging event per the replay flight recorders.
    pub event: Option<EventDivergence>,
    /// Generation both replays restored (`None` = replayed from t=0).
    pub resumed_generation: Option<String>,
}

/// The checkpoint generations in `dir`, keyed by cut time (nanoseconds).
fn generation_times(dir: &Path) -> Result<BTreeMap<u64, String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut out = BTreeMap::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(ns) = name.strip_prefix("gen-").and_then(|s| s.parse::<u64>().ok()) {
            if entry.path().is_dir() {
                out.insert(ns, name.to_string());
            }
        }
    }
    Ok(out)
}

/// The newest generation *both* checkpoint ladders hold strictly before
/// `barrier_ns`. Restoring a common cut keeps the two replays' flight
/// traces aligned from their first event; `None` = no common cut, replay
/// both sides from t=0.
pub fn common_generation_before(
    a_dir: &Path,
    b_dir: &Path,
    barrier_ns: u64,
) -> Result<Option<String>, String> {
    let a = generation_times(a_dir)?;
    let b = generation_times(b_dir)?;
    Ok(a.range(..barrier_ns)
        .rev()
        .find(|(ns, _)| b.contains_key(ns))
        .map(|(_, name)| name.clone()))
}

/// Replay one side up to `stop_window`'s barrier with stride-1 digests
/// and a full flight ring, restoring `generation` from its checkpoint
/// ladder (or from t=0 when `None`).
fn replay_side(
    cfg: &ReplayConfig<'_>,
    side: &ReplaySide<'_>,
    generation: Option<&str>,
    stop_window: u64,
    window_ns: u64,
) -> Result<ReplayOutcome, String> {
    let barrier_ns = stop_window
        .checked_mul(window_ns)
        .ok_or("divergence window overflows simulated time")?;
    let opts = PdesRunOpts {
        obs: true,
        resume_from: generation.map(|_| side.ckpt_dir.to_path_buf()),
        resume_generation: generation.map(str::to_string),
        stop_at: Some(SimTime(barrier_ns)),
        digest_stride: Some(1),
        flight: Some(FlightPlan {
            capacity: cfg.flight_capacity,
            ..FlightPlan::default()
        }),
        ..PdesRunOpts::default()
    };
    // A fresh pipeline with its own recorder *off*: the engine report then
    // stays on the returned metrics for us to read directly.
    let mut pipe = Pipeline::new(cfg.pipeline_cfg);
    let est = match &cfg.adaptive {
        None => pipe.try_estimate_opts(cfg.trained, cfg.n_clusters, cfg.partitions, &opts),
        Some((budget, plan, correction)) => pipe.try_estimate_adaptive_opts(
            cfg.trained,
            cfg.n_clusters,
            cfg.partitions,
            budget,
            plan,
            correction.as_ref(),
            &opts,
        ),
    }
    .map_err(|e| format!("side {} replay failed: {e}", side.label))?;
    let report = est
        .metrics
        .obs
        .as_ref()
        .ok_or_else(|| format!("side {} replay produced no obs report", side.label))?;
    Ok(ReplayOutcome {
        resumed_generation: generation.map(str::to_string),
        timeline: DigestTimeline::from_report(report)?,
        flight: report.flight.clone(),
    })
}

/// Run the full bisection: coarse window localization from the two obs
/// snapshots, then (when `replay` is given) checkpoint-restore replay of
/// both sides with full tracing and the first-diverging-event diff.
pub fn bisect(
    a: &DigestTimeline,
    b: &DigestTimeline,
    replay: Option<(&ReplayConfig<'_>, &ReplaySide<'_>, &ReplaySide<'_>)>,
) -> Result<Option<BisectReport>, String> {
    let Some(coarse) = first_window_divergence(a, b)? else {
        return Ok(None);
    };
    let Some((cfg, side_a, side_b)) = replay else {
        return Ok(Some(BisectReport {
            coarse,
            refined: None,
            event: None,
            resumed_generation: None,
        }));
    };
    let generation = common_generation_before(side_a.ckpt_dir, side_b.ckpt_dir, coarse.sim_ns)?;
    let ra = replay_side(cfg, side_a, generation.as_deref(), coarse.window, a.window_ns)?;
    let rb = replay_side(cfg, side_b, generation.as_deref(), coarse.window, a.window_ns)?;
    // The replay runs stride-1, so this refinement can only tighten the
    // coarse window (or confirm it).
    let refined = first_window_divergence(&ra.timeline, &rb.timeline)?;
    let event = first_event_divergence(&ra.flight, &rb.flight);
    Ok(Some(BisectReport {
        coarse,
        refined,
        event,
        resumed_generation: generation,
    }))
}

fn fmt_digest(d: Option<u64>) -> String {
    match d {
        Some(d) => format!("{d:#018x}"),
        None => "(not recorded)".to_string(),
    }
}

fn fmt_event(e: &FlightEvent) -> String {
    format!(
        "lp {} t={}ns kind={}({}) pkt={} qdepth={}",
        e.lp,
        e.sim_ns,
        e.kind_name,
        e.kind,
        if e.packet_id == u64::MAX { "-".to_string() } else { e.packet_id.to_string() },
        e.queue_depth
    )
}

/// Render the verdict as the human report `mimicnet diverge` prints.
pub fn render_report(r: &BisectReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let w = &r.coarse;
    let _ = writeln!(
        out,
        "first diverging window (coarse): window {} @ {} ns\n  side A digest {}\n  side B digest {}",
        w.window,
        w.sim_ns,
        fmt_digest(w.a),
        fmt_digest(w.b)
    );
    match &r.resumed_generation {
        Some(g) => {
            let _ = writeln!(out, "replayed both sides from common checkpoint {g}");
        }
        None => {
            let _ = writeln!(out, "replayed both sides from t=0 (no common checkpoint before the divergence)");
        }
    }
    if let Some(w) = &r.refined {
        let _ = writeln!(
            out,
            "first diverging window (replay, stride 1): window {} @ {} ns\n  side A digest {}\n  side B digest {}",
            w.window,
            w.sim_ns,
            fmt_digest(w.a),
            fmt_digest(w.b)
        );
    }
    match &r.event {
        Some(ev) => {
            let _ = writeln!(out, "first diverging event:");
            let _ = writeln!(
                out,
                "  side A: {}",
                ev.a.as_ref().map(fmt_event).unwrap_or_else(|| "(trace ended)".into())
            );
            let _ = writeln!(
                out,
                "  side B: {}",
                ev.b.as_ref().map(fmt_event).unwrap_or_else(|| "(trace ended)".into())
            );
            let _ = writeln!(out, "  trace excerpt (merge order):");
            let rows = ev.excerpt_a.len().max(ev.excerpt_b.len());
            for i in 0..rows {
                let a = ev.excerpt_a.get(i).map(fmt_event).unwrap_or_default();
                let b = ev.excerpt_b.get(i).map(fmt_event).unwrap_or_default();
                let marker = if ev.excerpt_a.get(i) != ev.excerpt_b.get(i) { ">>" } else { "  " };
                let _ = writeln!(out, "  {marker} A {a:<58} | B {b}");
            }
        }
        None => {
            let _ = writeln!(
                out,
                "flight traces are identical — the divergence is inside a window's \
                 state evolution, not its event order (suspect model/RNG state)"
            );
        }
    }
    out
}

fn event_json(e: &FlightEvent) -> Value {
    serde_json::json!({
        "lp": e.lp,
        "sim_ns": e.sim_ns,
        "kind": e.kind,
        "kind_name": e.kind_name,
        "packet_id": e.packet_id,
        "queue_depth": e.queue_depth,
    })
}

fn window_json(w: &WindowDivergence) -> Value {
    serde_json::json!({
        "window": w.window,
        "sim_ns": w.sim_ns,
        "digest_a": w.a,
        "digest_b": w.b,
    })
}

/// Render the verdict as the machine-readable diff report (`--out`).
pub fn report_json(r: &BisectReport) -> Value {
    let event = match &r.event {
        None => Value::Null,
        Some(ev) => serde_json::json!({
            "a": ev.a.as_ref().map(event_json),
            "b": ev.b.as_ref().map(event_json),
            "excerpt_a": ev.excerpt_a.iter().map(event_json).collect::<Vec<Value>>(),
            "excerpt_b": ev.excerpt_b.iter().map(event_json).collect::<Vec<Value>>(),
        }),
    };
    serde_json::json!({
        "coarse": window_json(&r.coarse),
        "refined": r.refined.as_ref().map(window_json),
        "resumed_generation": r.resumed_generation.clone(),
        "event": event,
    })
}

/// Outcome of a [`snap_flip`] injection.
#[derive(Clone, Debug)]
pub struct SnapFlipReport {
    /// The snapshot file that was corrupted.
    pub path: PathBuf,
    /// Byte offset (within the snapshot payload) of the flipped bit.
    pub offset: usize,
    /// State digest of the partition before / after the flip.
    pub digest_before: u64,
    pub digest_after: u64,
}

/// Flip one bit of partition `part`'s snapshot in `ckpt_dir`'s current
/// generation such that the snapshot still restores cleanly but its
/// restored state digest changes, then rewrite the file (re-framed with a
/// valid checksum). The resumed run then diverges from the original at
/// exactly the restored window — a seeded divergence for testing
/// [`bisect`] end to end.
pub fn snap_flip(
    pipeline_cfg: &crate::pipeline::PipelineConfig,
    trained: &TrainedMimic,
    n_clusters: u32,
    ckpt_dir: &Path,
    part: usize,
    generation: Option<&str>,
) -> Result<SnapFlipReport, String> {
    let manifest = read_manifest(ckpt_dir).map_err(|e| e.to_string())?;
    // A mid-run generation (retained by `keep > 1`) can be targeted
    // instead of the manifest's current one; resuming it then needs
    // `--resume-generation`.
    let generation = generation.unwrap_or(&manifest.generation);
    if !ckpt_dir.join(generation).is_dir() {
        return Err(format!(
            "generation `{generation}` is not present in {}",
            ckpt_dir.display()
        ));
    }
    if part >= manifest.partitions as usize {
        return Err(format!(
            "partition {part} out of range (checkpoint has {})",
            manifest.partitions
        ));
    }
    let cfg = composed_config(pipeline_cfg.base, n_clusters, pipeline_cfg.protocol)
        .map_err(|e| e.to_string())?;
    let fp = serde_json::to_string(&cfg).map_err(|e| e.to_string())?;
    if manifest.config != fp {
        return Err(
            "checkpoint belongs to a different simulation configuration (wrong \
             --clusters/--duration/--seed/--protocol?)"
                .into(),
        );
    }
    let owner = Arc::new(partition_by_cluster(
        &FatTree::new(cfg.topo),
        manifest.partitions as usize,
    ));
    // A fresh engine configured exactly as the checkpointing LP was; used
    // (repeatedly) to validate candidate flips by restoring them.
    let restore_digest = |payload: &[u8]| -> Option<u64> {
        let mut sim =
            try_compose(pipeline_cfg.base, n_clusters, pipeline_cfg.protocol, trained).ok()?;
        sim.set_partition(owner.clone(), part as u8);
        sim.restore_snapshot(payload).ok()?;
        Some(sim.window_digest())
    };

    let path = ckpt_dir.join(generation).join(format!("part-{part}.snap"));
    let pristine = read_snapshot_file(&path).map_err(|e| e.to_string())?;
    let digest_before = restore_digest(&pristine)
        .ok_or("the pristine snapshot does not restore — checkpoint already corrupt?")?;

    // The payload opens with the config fingerprint (u64 length + bytes),
    // the partition byte, the initialized flag, and the now/end clocks;
    // flipping those breaks restore validation or the run's extent rather
    // than its state. The event queue comes right after — digest-covered
    // state where a low-bit flip (e.g. an event time off by 1 ns) is a
    // genuine trajectory perturbation — so walk forward from there until
    // a flip both restores cleanly and changes the digest.
    let header = 8 + fp.len() + 1 + 1 + 8 + 8;
    if pristine.len() <= header + 1 {
        return Err("snapshot payload too small to corrupt meaningfully".into());
    }
    let mut tried = 0usize;
    let mut unrestorable = 0usize;
    let mut digest_blind = 0usize;
    for off in header..pristine.len() {
        if tried >= 4096 {
            break;
        }
        tried += 1;
        let mut flipped = pristine.clone();
        flipped[off] ^= 1;
        match restore_digest(&flipped) {
            None => unrestorable += 1,
            Some(digest_after) if digest_after == digest_before => digest_blind += 1,
            Some(digest_after) => {
                write_snapshot_file(&path, &flipped).map_err(|e| e.to_string())?;
                return Ok(SnapFlipReport {
                    path,
                    offset: off,
                    digest_before,
                    digest_after,
                });
            }
        }
    }
    Err(format!(
        "no restorable digest-changing bit found in the snapshot \
         ({tried} candidates: {unrestorable} failed to restore, {digest_blind} \
         restored with an unchanged digest)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl(first: u64, stride: u64, digests: Vec<u64>) -> DigestTimeline {
        DigestTimeline { first_window: first, stride, window_ns: 1000, digests }
    }

    #[test]
    fn window_divergence_aligns_on_absolute_indices() {
        // B starts later (a resumed run) but overlaps A; they agree on the
        // overlap until window 12.
        let a = tl(0, 4, vec![1, 2, 3, 4, 5]); // windows 0,4,8,12,16
        let b = tl(8, 4, vec![3, 9, 5]); // windows 8,12,16
        let d = first_window_divergence(&a, &b).unwrap().expect("diverges");
        assert_eq!(d.window, 12);
        assert_eq!(d.sim_ns, 12_000);
        assert_eq!((d.a, d.b), (Some(4), Some(9)));

        // Identical timelines report no divergence.
        assert!(first_window_divergence(&a, &a).unwrap().is_none());
    }

    #[test]
    fn window_divergence_rejects_incomparable_timelines() {
        let a = tl(0, 1, vec![1, 2]);
        let mut b = a.clone();
        b.window_ns = 2000;
        assert!(first_window_divergence(&a, &b).is_err());
        let mut c = a.clone();
        c.stride = 2;
        assert!(first_window_divergence(&a, &c).is_err());
        // Disjoint extents are an error, not a silent "no divergence".
        let d = tl(10, 1, vec![1, 2]);
        assert!(first_window_divergence(&a, &d).is_err());
    }

    #[test]
    fn event_divergence_finds_first_mismatch_in_merge_order() {
        let ev = |sim_ns: u64, pkt: u64| FlightEvent {
            lp: 0,
            sim_ns,
            kind: 1,
            kind_name: "arrive",
            packet_id: pkt,
            queue_depth: 0,
        };
        // Same events, different arrival order per side: sorting must
        // align them, so only the genuinely different event diverges.
        let a = vec![ev(10, 1), ev(30, 3), ev(20, 2), ev(40, 4)];
        let b = vec![ev(20, 2), ev(10, 1), ev(30, 3), ev(40, 9)];
        let d = first_event_divergence(&a, &b).expect("diverges");
        assert_eq!(d.a.unwrap().packet_id, 4);
        assert_eq!(d.b.unwrap().packet_id, 9);
        assert!(!d.excerpt_a.is_empty() && !d.excerpt_b.is_empty());

        // Identical multisets in any order: no divergence.
        assert!(first_event_divergence(&a, &[ev(40, 4), ev(20, 2), ev(10, 1), ev(30, 3)]).is_none());

        // One side longer: the extra event is the divergence.
        let d = first_event_divergence(&a[..3], &a).expect("length mismatch diverges");
        assert!(d.a.is_none() && d.b.is_some());
    }

    #[test]
    fn obs_json_round_trips_the_timeline() {
        let mut r = ObsReport::default();
        r.gauges.insert("digest.window_ns".into(), 500_000.0);
        r.gauges.insert("digest.stride".into(), 4.0);
        r.gauges.insert("digest.first_window".into(), 8.0);
        r.digests
            .insert("digest.window".into(), vec![u64::MAX, 1, 0xDEAD_BEEF_CAFE_F00D]);
        let parsed = DigestTimeline::from_obs_json(&r.to_json_string()).expect("parses");
        assert_eq!(parsed, DigestTimeline::from_report(&r).expect("direct"));
        // Digests survive the JSON trip at full u64 precision.
        assert_eq!(parsed.digests, vec![u64::MAX, 1, 0xDEAD_BEEF_CAFE_F00D]);
        assert_eq!((parsed.first_window, parsed.stride, parsed.window_ns), (8, 4, 500_000));

        let undigested = ObsReport::default();
        assert!(DigestTimeline::from_obs_json(&undigested.to_json_string()).is_err());
    }

    #[test]
    fn common_generation_picks_newest_shared_cut() {
        let root = std::env::temp_dir().join(format!("diverge-gens-{}", std::process::id()));
        let a = root.join("a");
        let b = root.join("b");
        for (dir, gens) in [(&a, vec![100u64, 200, 300]), (&b, vec![100, 300, 400])] {
            for g in gens {
                std::fs::create_dir_all(dir.join(format!("gen-{g:020}"))).unwrap();
            }
        }
        // Newest shared cut strictly before the barrier.
        let g = common_generation_before(&a, &b, 350).unwrap();
        assert_eq!(g.as_deref(), Some("gen-00000000000000000300"));
        // 300 is not *strictly* before 300; 200 is A-only, so 100 wins.
        let g = common_generation_before(&a, &b, 300).unwrap();
        assert_eq!(g.as_deref(), Some("gen-00000000000000000100"));
        // Nothing shared before 100: replay from scratch.
        assert_eq!(common_generation_before(&a, &b, 100).unwrap(), None);
        std::fs::remove_dir_all(&root).ok();
    }
}
