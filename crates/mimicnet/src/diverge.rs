//! Divergence localization from two obs files (DESIGN.md §14).
//!
//! Two runs that should be bit-identical — same config at different
//! partition counts, or the same command before and after a suspect
//! change, even from two different binaries — occasionally are not.
//! Eyeballing final metrics tells you *that* they diverged; this module
//! tells you *where*, from the two runs' `--obs-out` files alone:
//!
//! 1. **Window**: compare the per-window state-digest timelines (recorded
//!    by `--digests`) and find the first window whose digests disagree.
//! 2. **Event**: when both files carry flight rings (`--flight N`) that
//!    reach back to that window's start, merge-sort each side's events
//!    into the deterministic [`FlightEvent::sort_key`] order and report
//!    the first event where the runs disagree, with an excerpt.
//! 3. **Re-run**: a full-length run's ring holds the end of the run, not
//!    the divergence, so the report names a `--stop-at` time a little
//!    past the diverging barrier. Re-running both sides with `--stop-at T
//!    --digests --flight N --obs-out FILE` leaves rings that end there;
//!    comparing those files pinpoints the first diverging event.

use dcn_obs::{FlightEvent, ObsReport};
use dcn_sim::event::EventKind;
use serde_json::Value;
use std::collections::BTreeMap;

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
    /// Extract the timeline from a run's report.
    pub fn from_report(r: &ObsReport) -> Result<DigestTimeline, String> {
        let digests = r
            .digests
            .get("digest.window")
            .cloned()
            .ok_or("no digest.window timeline — was the run digested (--digests)?")?;
        let gauge = |n: &str| r.gauges.get(n).map(|v| *v as u64);
        Ok(DigestTimeline {
            first_window: gauge("digest.first_window").unwrap_or(0),
            stride: gauge("digest.stride").unwrap_or(1).max(1),
            window_ns: gauge("digest.window_ns")
                .ok_or("no digest.window_ns gauge — was the run digested (--digests)?")?,
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
    /// Simulated time of the recorded barrier before it, where the runs
    /// still agreed (zero at the first one), nanoseconds. The first
    /// diverging event lies at or after this time.
    pub start_ns: u64,
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
                start_ns: w.saturating_sub(a.stride).saturating_mul(a.window_ns),
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

/// One run as its `--obs-out` file or post-mortem dump describes it: the
/// digest timeline and the flight ring (empty when the run had no
/// `--flight`).
pub struct ObsRun {
    pub timeline: DigestTimeline,
    pub flight: Vec<FlightEvent>,
}

impl ObsRun {
    /// Read both from the file's text, through [`ObsReport::from_json`].
    pub fn from_json(text: &str) -> Result<ObsRun, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("obs file does not parse: {e}"))?;
        let r = ObsReport::from_json(&v, &EventKind::NAMES)?;
        Ok(ObsRun { timeline: DigestTimeline::from_report(&r)?, flight: r.flight })
    }
}

/// What the two flight rings say about the diverging window.
#[derive(Clone, Debug)]
pub enum EventFinding {
    /// The first event where the runs disagree.
    Diverged(EventDivergence),
    /// Both rings cover the window and agree from its start to their end:
    /// the runs differ in events still queued when the rings stopped.
    Identical,
    /// At least one file has no flight ring.
    NoRings,
    /// At least one ring was overwritten past the window's start (its
    /// oldest event on some LP is not before it).
    RingsTooShort,
}

/// Windows past the diverging barrier a re-run keeps going. The digest
/// covers queued events, so it can differ a little before any popped
/// event does: a re-entry scheduled at a different time pops up to a
/// few model latencies (each at least one window) later.
const RERUN_WINDOWS: u64 = 32;

/// The verdict of [`localize`].
pub struct DivergeReport {
    pub window: WindowDivergence,
    pub event: EventFinding,
    /// Where a re-run should stop so its flight ring ends just past the
    /// divergence ([`RERUN_WINDOWS`] past the barrier), nanoseconds.
    pub stop_at_ns: u64,
}

impl DivergeReport {
    /// [`DivergeReport::stop_at_ns`] as the `--stop-at` value (simulated
    /// seconds).
    pub fn stop_at_s(&self) -> f64 {
        self.stop_at_ns as f64 / 1e9
    }
}

/// Does `ring` hold every event at or after `start_ns`? Each LP's ring
/// keeps its latest events in time order, so it does when each LP's
/// oldest retained event is earlier (or nothing was ever evicted before
/// t = 0).
fn covers(ring: &[FlightEvent], start_ns: u64) -> bool {
    let mut oldest: BTreeMap<u32, u64> = BTreeMap::new();
    for e in ring {
        let t = oldest.entry(e.lp).or_insert(e.sim_ns);
        *t = (*t).min(e.sim_ns);
    }
    start_ns == 0 || oldest.values().all(|&t| t < start_ns)
}

/// Localize where two runs first diverge: the first window from their
/// digest timelines, then the first event from their flight rings when
/// both reach back to that window's start. `Ok(None)` = the timelines
/// agree over their whole overlap.
pub fn localize(a: &ObsRun, b: &ObsRun) -> Result<Option<DivergeReport>, String> {
    let Some(window) = first_window_divergence(&a.timeline, &b.timeline)? else {
        return Ok(None);
    };
    let event = if a.flight.is_empty() || b.flight.is_empty() {
        EventFinding::NoRings
    } else if !covers(&a.flight, window.start_ns) || !covers(&b.flight, window.start_ns) {
        EventFinding::RingsTooShort
    } else {
        let from_start = |ring: &[FlightEvent]| -> Vec<FlightEvent> {
            ring.iter().filter(|e| e.sim_ns >= window.start_ns).copied().collect()
        };
        match first_event_divergence(&from_start(&a.flight), &from_start(&b.flight)) {
            Some(d) => EventFinding::Diverged(d),
            None => EventFinding::Identical,
        }
    };
    let stop_at_ns =
        window.sim_ns.saturating_add(RERUN_WINDOWS.saturating_mul(a.timeline.window_ns));
    Ok(Some(DivergeReport { window, event, stop_at_ns }))
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
pub fn render_report(r: &DivergeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let w = &r.window;
    let _ = writeln!(
        out,
        "first diverging window: window {} @ {} ns (agreed at {} ns)\n  side A digest {}\n  side B digest {}",
        w.window,
        w.sim_ns,
        w.start_ns,
        fmt_digest(w.a),
        fmt_digest(w.b)
    );
    let rerun = format!(
        "re-run both sides with --stop-at {:.9} --digests --flight N --obs-out FILE \
         (N large enough to reach back to {} ns) and compare the new files",
        r.stop_at_s(),
        w.start_ns
    );
    match &r.event {
        EventFinding::Diverged(ev) => {
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
        EventFinding::Identical => {
            let _ = writeln!(
                out,
                "flight traces agree from the window's start to their end: the runs differ \
                 in events still queued there; re-run both sides with a later --stop-at"
            );
        }
        EventFinding::NoRings => {
            let _ = writeln!(out, "a file has no flight ring; {rerun}");
        }
        EventFinding::RingsTooShort => {
            let _ = writeln!(out, "the flight rings do not reach back to the window's start; {rerun}");
        }
    }
    out
}

/// Render the verdict as the machine-readable diff report (`--out`):
/// `window`, `stop_at_s`, `event` (`null` unless the rings located it) and
/// `event_finding` (`diverged`, `identical`, `no_rings`, `rings_too_short`).
pub fn report_json(r: &DivergeReport) -> Value {
    let w = &r.window;
    let (event, finding) = match &r.event {
        EventFinding::Diverged(ev) => (
            serde_json::json!({
                "a": ev.a.as_ref().map(FlightEvent::to_json),
                "b": ev.b.as_ref().map(FlightEvent::to_json),
                "excerpt_a": ev.excerpt_a.iter().map(FlightEvent::to_json).collect::<Vec<Value>>(),
                "excerpt_b": ev.excerpt_b.iter().map(FlightEvent::to_json).collect::<Vec<Value>>(),
            }),
            "diverged",
        ),
        EventFinding::Identical => (Value::Null, "identical"),
        EventFinding::NoRings => (Value::Null, "no_rings"),
        EventFinding::RingsTooShort => (Value::Null, "rings_too_short"),
    };
    let window = serde_json::json!({
        "window": w.window,
        "sim_ns": w.sim_ns,
        "start_ns": w.start_ns,
        "digest_a": w.a,
        "digest_b": w.b,
    });
    serde_json::json!({
        "window": window,
        "stop_at_s": r.stop_at_s(),
        "event": event,
        "event_finding": finding,
    })
}


#[cfg(test)]
mod tests {
    use super::*;

    fn tl(first: u64, stride: u64, digests: Vec<u64>) -> DigestTimeline {
        DigestTimeline { first_window: first, stride, window_ns: 1000, digests }
    }

    #[test]
    fn window_divergence_aligns_on_absolute_indices() {
        // B's timeline starts later but overlaps A; they agree on the
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
        let parsed = ObsRun::from_json(&r.to_json_string()).expect("parses").timeline;
        assert_eq!(parsed, DigestTimeline::from_report(&r).expect("direct"));
        // Digests survive the JSON trip at full u64 precision.
        assert_eq!(parsed.digests, vec![u64::MAX, 1, 0xDEAD_BEEF_CAFE_F00D]);
        assert_eq!((parsed.first_window, parsed.stride, parsed.window_ns), (8, 4, 500_000));

        let undigested = ObsReport::default();
        assert!(ObsRun::from_json(&undigested.to_json_string()).is_err());
    }
}
