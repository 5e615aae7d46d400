//! The harness's own in-memory span recorder.
//!
//! Spans sit around the calls the harness makes into each layer's public
//! functions (engine-side `dcn-obs` stays off); they are kept in memory
//! and written as Chrome trace-event JSON when the run ends. A span
//! carries its name, start, end, the span that caused it, and the id of
//! the operation (one timed run or one request) it belongs to.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one run or request.
    pub op: u64,
    /// Recording thread (0 = main; serve-mix clients are 1, 2, ...).
    pub track: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    track: u32,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// All tracers of one run share `origin`, so their spans line up.
    pub fn new(origin: Instant, track: u32, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            track,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling the recorder inside a span");
        self.enabled = enabled;
    }

    /// Operation id stamped on the spans recorded from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`. When the recorder is off this
    /// is a plain call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            track: self.track,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// End every open span now: the state to continue from after a panic
    /// unwound through [`Tracer::span`].
    pub fn close_open_spans(&mut self) {
        let now = self.origin.elapsed().as_nanos() as u64;
        for index in self.open.drain(..) {
            self.spans[index].end_ns = now;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "recorder dropped inside a span");
        self.spans
    }
}

/// Append `more` (one recorder's spans) to `all`, keeping parent links.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one parent never overlap: a recorder is
/// single-threaded and spans nest).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per operation, the summed `value` of the spans called `name`, in
/// seconds; operations without such a span are absent.
fn per_op(spans: &[Span], values_ns: &[u64], name: &str) -> Vec<f64> {
    let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, &v) in spans.iter().zip(values_ns) {
        if s.name == name {
            *by_op.entry(s.op).or_insert(0) += v;
        }
    }
    by_op.values().map(|&ns| ns as f64 / 1e9).collect()
}

/// Median over operations of the time spent in spans called `name`
/// (seconds); 0 when no operation entered one.
pub fn median_total_s(spans: &[Span], name: &str) -> f64 {
    let durs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    crate::stats::median(&per_op(spans, &durs, name))
}

/// As [`median_total_s`] over self times.
pub fn median_self_s(spans: &[Span], name: &str) -> f64 {
    crate::stats::median(&per_op(spans, &self_times_ns(spans), name))
}

/// Chrome trace-event JSON (open in Perfetto or chrome://tracing): one
/// complete ("X") event per span, timestamps in microseconds, with the
/// span's own index, its parent's, and the operation id under `args`.
pub fn to_chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.track,
            s.op,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            track: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("op", 0, 100, None, 0),
            span("load", 10, 30, Some(0), 0),
            span("run", 30, 90, Some(0), 0),
            span("inner", 40, 50, Some(2), 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn totals_group_by_operation_then_take_the_median() {
        let spans = vec![
            span("run", 0, 1_000_000_000, None, 0),
            span("run", 0, 3_000_000_000, None, 1),
            span("run", 0, 1_000_000_000, None, 2),
            span("run", 0, 1_000_000_000, None, 2),
        ];
        // Per op: 1 s, 3 s, 2 s.
        assert_eq!(median_total_s(&spans, "run"), 2.0);
        assert_eq!(median_total_s(&spans, "absent"), 0.0);
    }

    #[test]
    fn recorder_nests_and_is_a_plain_call_when_off() {
        let mut t = Tracer::new(Instant::now(), 0, true);
        t.set_op(7);
        let v = t.span("outer", |t| t.span("inner", |_| 5));
        assert_eq!(v, 5);
        t.set_enabled(false);
        t.span("ignored", |_| ());
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", None, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn merge_rebases_parent_links() {
        let mut all = vec![span("a", 0, 1, None, 0)];
        merge(
            &mut all,
            vec![span("b", 0, 2, None, 1), span("c", 0, 1, Some(0), 1)],
        );
        assert_eq!(all[2].parent, Some(1));
    }

    #[test]
    fn chrome_json_parses_and_keeps_every_span() {
        let spans = vec![
            span("op", 0, 2_000, None, 3),
            span("run", 500, 1_500, Some(0), 3),
        ];
        let text = to_chrome_json("w", &spans);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = crate::json::get(&v, "traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            crate::json::get(&events[1], "dur").and_then(|d| d.as_f64()),
            Some(1.0)
        );
    }
}
