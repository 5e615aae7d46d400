//! Observability layer for the MimicNet workspace: hierarchical spans with
//! wall-clock *and* virtual-time attribution, plus a registry of counters,
//! gauges, log2 histograms, and per-epoch series.
//!
//! Design constraints (DESIGN.md §9):
//!
//! * **Zero-cost when disabled.** The live handle [`Obs`] is a single
//!   `Option<Box<_>>`; every recording method is one branch on `None` when
//!   observability is off. Hot per-packet loops carry no obs code at all —
//!   recording happens at window/epoch granularity.
//! * **Mergeable across PDES partitions.** [`ObsReport`] merges exactly
//!   like `dcn-sim`'s `Metrics::merge`: counters and histograms sum,
//!   gauges overwrite-if-present (the `cluster_drift` rule), series and
//!   spans concatenate. Wall timestamps come from one process-global epoch
//!   so spans from different partition threads land on a shared timeline.
//! * **No dependencies** beyond the vendored `serde`/`serde_json`
//!   stand-ins, used only by the exporters in `export`.
//!
//! Registry keys are owned `String`s for flexibility (dynamic names like
//! `drift.cluster.3` or per-direction training prefixes); every registry
//! write happens at window/epoch/fold granularity, never per packet,
//! so the allocation cost is irrelevant. Span names stay `&'static str` —
//! spans are the only record produced inside the event loop.

pub mod digest;
mod export;
mod flight;

pub use export::span_coverage;
pub use flight::{FlightEvent, FlightRecorder};

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Process-global wall-clock epoch. All spans across all threads measure
/// from here, so per-partition reports merge onto one coherent timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-global observability epoch. The first
/// call anchors the epoch.
pub fn wall_now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Log2 histogram over `u64` observations: bucket `i` counts values with
/// `2^i <= v < 2^(i+1)` (bucket 0 counts 0 and 1).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Hist {
    pub buckets: [u64; 32],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Hist {
    pub fn observe(&mut self, v: u64) {
        let bucket = (64 - v.max(1).leading_zeros() as u64 - 1).min(31) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile from the histogram (upper bucket bound),
    /// e.g. `quantile(0.99)`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count as f64 * q).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// One completed span: a named phase with wall-clock extent and optional
/// virtual `SimTime` attribution (plain nanoseconds, so this crate does
/// not depend on `dcn-sim`).
#[derive(Clone, Debug)]
pub struct SpanEvent {
    pub name: &'static str,
    /// Category, e.g. "pipeline", "pdes", "train" — becomes `cat` in the
    /// Chrome trace.
    pub cat: &'static str,
    /// Wall-clock start, ns since the process epoch ([`wall_now_ns`]).
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Virtual sim-time extent covered by this span, if meaningful.
    pub sim_start_ns: Option<u64>,
    pub sim_end_ns: Option<u64>,
    /// Timeline lane: the PDES partition id (or 0). Becomes `tid` in the
    /// Chrome trace so partitions render as parallel tracks.
    pub track: u32,
}

/// Snapshot of everything recorded: the mergeable registry plus the span
/// log. Produced by [`Obs::take_report`] and merged across partitions.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    pub spans: Vec<SpanEvent>,
    pub counters: BTreeMap<String, u64>,
    /// Gauges overwrite-if-present on merge (last writer wins), mirroring
    /// `Metrics::merge`'s `cluster_drift` semantics. Owned keys: gauges
    /// are set at fold time, never on a hot path.
    pub gauges: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, Hist>,
    /// Ordered samples (e.g. per-epoch training losses); concatenated on
    /// merge.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Per-window state-digest timelines (DESIGN.md §14). Unlike `series`
    /// these keep full `u64` precision, and merge *element-wise with
    /// `wrapping_add`*: each LP contributes the multiset digest of the
    /// state it owns at window `i`, so the merged entry `i` is the
    /// partition-count-invariant digest of the whole simulation at that
    /// window.
    pub digests: BTreeMap<String, Vec<u64>>,
    /// Flight-recorder drain: the last events each LP processed before
    /// the report was taken (empty unless the recorder was enabled).
    /// Concatenated on merge.
    pub flight: Vec<FlightEvent>,
}

impl ObsReport {
    /// Merge another partition's report into this one. Mirrors
    /// `Metrics::merge`: counters/histograms sum, gauges overwrite when
    /// the other side has a value, series and spans concatenate.
    pub fn merge(&mut self, other: ObsReport) {
        self.spans.extend(other.spans);
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            self.gauges.insert(k, v);
        }
        for (k, v) in other.hists {
            self.hists.entry(k).or_default().merge(&v);
        }
        for (k, v) in other.series {
            self.series.entry(k).or_default().extend(v);
        }
        for (k, v) in other.digests {
            let mine = self.digests.entry(k).or_default();
            if mine.len() < v.len() {
                mine.resize(v.len(), 0);
            }
            for (a, b) in mine.iter_mut().zip(v) {
                *a = a.wrapping_add(b);
            }
        }
        self.flight.extend(other.flight);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fraction of the report's wall-clock extent covered by the union of
    /// its span intervals. See [`span_coverage`].
    pub fn span_coverage(&self) -> f64 {
        span_coverage(&self.spans)
    }
}

struct OpenSpan {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    sim_start_ns: Option<u64>,
}

struct ObsInner {
    report: ObsReport,
    stack: Vec<OpenSpan>,
    track: u32,
}

/// Live recording handle. `Obs::off()` is the no-op recorder: every method
/// is a single branch and records nothing. Constructed once per
/// `Simulation`/`Pipeline`; reports are extracted with [`Obs::take_report`]
/// and merged across partitions via [`ObsReport::merge`].
pub struct Obs(Option<Box<ObsInner>>);

impl Default for Obs {
    fn default() -> Obs {
        Obs::off()
    }
}

impl Obs {
    /// The no-op recorder.
    pub fn off() -> Obs {
        Obs(None)
    }

    /// A live recorder.
    pub fn on() -> Obs {
        Obs(Some(Box::new(ObsInner {
            report: ObsReport::default(),
            stack: Vec::new(),
            track: 0,
        })))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Set the timeline lane for subsequently recorded spans (the PDES
    /// partition id).
    pub fn set_track(&mut self, track: u32) {
        if let Some(inner) = &mut self.0 {
            inner.track = track;
        }
    }

    /// Open a span. Pair with [`Obs::end`]; spans nest (LIFO).
    pub fn begin(&mut self, name: &'static str, cat: &'static str, sim_ns: Option<u64>) {
        if let Some(inner) = &mut self.0 {
            inner.stack.push(OpenSpan {
                name,
                cat,
                start_ns: wall_now_ns(),
                sim_start_ns: sim_ns,
            });
        }
    }

    /// Close the innermost open span.
    pub fn end(&mut self, sim_ns: Option<u64>) {
        if let Some(inner) = &mut self.0 {
            if let Some(open) = inner.stack.pop() {
                let now = wall_now_ns();
                inner.report.spans.push(SpanEvent {
                    name: open.name,
                    cat: open.cat,
                    start_ns: open.start_ns,
                    dur_ns: now.saturating_sub(open.start_ns),
                    sim_start_ns: open.sim_start_ns,
                    sim_end_ns: sim_ns,
                    track: inner.track,
                });
            }
        }
    }

    /// Record a span around a closure (no sim-time attribution).
    pub fn span<R>(&mut self, name: &'static str, cat: &'static str, f: impl FnOnce(&mut Obs) -> R) -> R {
        self.begin(name, cat, None);
        let r = f(self);
        self.end(None);
        r
    }

    pub fn counter_add(&mut self, name: impl Into<String>, v: u64) {
        if let Some(inner) = &mut self.0 {
            *inner.report.counters.entry(name.into()).or_insert(0) += v;
        }
    }

    pub fn gauge_set(&mut self, name: impl Into<String>, v: f64) {
        if let Some(inner) = &mut self.0 {
            inner.report.gauges.insert(name.into(), v);
        }
    }

    pub fn hist_observe(&mut self, name: impl Into<String>, v: u64) {
        if let Some(inner) = &mut self.0 {
            inner.report.hists.entry(name.into()).or_default().observe(v);
        }
    }

    pub fn series_push(&mut self, name: impl Into<String>, v: f64) {
        if let Some(inner) = &mut self.0 {
            inner.report.series.entry(name.into()).or_default().push(v);
        }
    }

    /// Fold another report into this recorder (e.g. a simulation's
    /// engine-side report absorbed by the pipeline's recorder).
    pub fn merge_report(&mut self, other: ObsReport) {
        if let Some(inner) = &mut self.0 {
            inner.report.merge(other);
        }
    }

    /// Extract the recorded report, leaving the recorder live but empty.
    /// Returns `None` for the no-op recorder. Any still-open spans are
    /// closed at the current wall time.
    pub fn take_report(&mut self) -> Option<ObsReport> {
        let inner = self.0.as_mut()?;
        // Close dangling spans so the report is self-consistent.
        while let Some(open) = inner.stack.pop() {
            let now = wall_now_ns();
            let track = inner.track;
            inner.report.spans.push(SpanEvent {
                name: open.name,
                cat: open.cat,
                start_ns: open.start_ns,
                dur_ns: now.saturating_sub(open.start_ns),
                sim_start_ns: open.sim_start_ns,
                sim_end_ns: None,
                track,
            });
        }
        Some(std::mem::take(&mut inner.report))
    }

    /// Read-only view of the report accumulated so far (`None` when off).
    pub fn report(&self) -> Option<&ObsReport> {
        self.0.as_deref().map(|inner| &inner.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing() {
        let mut o = Obs::off();
        o.begin("a", "t", None);
        o.counter_add("c", 3);
        o.hist_observe("h", 7);
        o.series_push("s", 1.0);
        o.gauge_set("g", 2.0);
        o.end(None);
        assert!(!o.is_on());
        assert!(o.take_report().is_none());
    }

    #[test]
    fn hist_buckets_match_queue_stats_idiom() {
        let mut h = Hist::default();
        for v in [0u64, 1, 1, 3, 7, 64] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.max, 64);
        assert_eq!(h.buckets[0], 3); // 0 and 1
        assert_eq!(h.buckets[1], 1); // 3
        assert_eq!(h.buckets[2], 1); // 7
        assert_eq!(h.buckets[6], 1); // 64
        assert_eq!(h.quantile(0.5), 2);
        assert!(h.quantile(1.0) >= 64);
        assert!((h.mean() - 76.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn spans_nest_and_attribute_sim_time() {
        let mut o = Obs::on();
        o.set_track(3);
        o.begin("outer", "test", Some(100));
        o.begin("inner", "test", None);
        o.end(None);
        o.end(Some(900));
        let r = o.take_report().unwrap();
        assert_eq!(r.spans.len(), 2);
        let inner = &r.spans[0];
        let outer = &r.spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.sim_start_ns, Some(100));
        assert_eq!(outer.sim_end_ns, Some(900));
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.start_ns + outer.dur_ns >= inner.start_ns + inner.dur_ns);
        assert_eq!(outer.track, 3);
    }

    #[test]
    fn report_merge_matches_metrics_merge_semantics() {
        let mut a = ObsReport::default();
        a.counters.insert("n".into(), 2);
        a.gauges.insert("g".into(), 1.0);
        a.gauges.insert("only_a".into(), 5.0);
        a.hists.entry("h".into()).or_default().observe(4);
        a.series.insert("s".into(), vec![1.0, 2.0]);

        let mut b = ObsReport::default();
        b.counters.insert("n".into(), 3);
        b.counters.insert("m".into(), 1);
        b.gauges.insert("g".into(), 9.0); // overwrites, like cluster_drift
        b.hists.entry("h".into()).or_default().observe(8);
        b.series.insert("s".into(), vec![3.0]);

        a.merge(b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(a.counter("m"), 1);
        assert_eq!(a.gauges["g"], 9.0);
        assert_eq!(a.gauges["only_a"], 5.0);
        assert_eq!(a.hists["h"].count, 2);
        assert_eq!(a.hists["h"].sum, 12);
        assert_eq!(a.series["s"], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn take_report_closes_dangling_spans() {
        let mut o = Obs::on();
        o.begin("dangling", "t", Some(5));
        let r = o.take_report().unwrap();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "dangling");
        // Recorder stays live after take.
        o.counter_add("c", 1);
        assert_eq!(o.take_report().unwrap().counter("c"), 1);
    }
}
