//! Exporters: JSON snapshot, Chrome trace-event file, human-readable
//! end-of-run report.
//!
//! The Chrome trace output is a plain array of complete (`ph: "X"`)
//! trace events, loadable in `chrome://tracing` or Perfetto. Timestamps
//! are microseconds (float) since the process obs epoch; partition tracks
//! map to `tid` so PDES partitions render as parallel lanes.

use crate::{FlightEvent, Hist, ObsReport, SpanEvent};
use serde_json::Value;

impl ObsReport {
    /// Full registry + span log as a JSON value.
    pub fn to_json(&self) -> Value {
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.to_string(), Value::U64(*v)))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Value::F64(*v)))
                .collect(),
        );
        let hists = Value::Object(
            self.hists
                .iter()
                .map(|(k, h)| (k.to_string(), hist_json(h)))
                .collect(),
        );
        let series = Value::Object(
            self.series
                .iter()
                .map(|(k, s)| {
                    (
                        k.to_string(),
                        Value::Array(s.iter().map(|v| Value::F64(*v)).collect()),
                    )
                })
                .collect(),
        );
        let spans = Value::Array(self.spans.iter().map(span_json).collect());
        // Digests are emitted as exact u64s: the diverge tooling compares
        // these values bit-for-bit, so they must not round-trip through f64.
        let digests = Value::Object(
            self.digests
                .iter()
                .map(|(k, d)| {
                    (
                        k.to_string(),
                        Value::Array(d.iter().map(|&v| Value::U64(v)).collect()),
                    )
                })
                .collect(),
        );
        let flight = Value::Array(self.flight.iter().map(FlightEvent::to_json).collect());
        Value::Object(vec![
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("hists".to_string(), hists),
            ("series".to_string(), series),
            ("digests".to_string(), digests),
            ("flight".to_string(), flight),
            ("spans".to_string(), spans),
            (
                "span_coverage".to_string(),
                Value::F64(self.span_coverage()),
            ),
        ])
    }

    /// Pretty-printed JSON snapshot.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("obs json")
    }

    /// Read back what [`ObsReport::to_json`] wrote: counters, gauges,
    /// histograms, series, digests and the flight ring. Spans are not
    /// read (their names are `&'static str`), and an absent section reads
    /// as empty. `flight_kinds` is the engine's event-kind name table,
    /// indexed by [`FlightEvent::kind`].
    pub fn from_json(v: &Value, flight_kinds: &[&'static str]) -> Result<ObsReport, String> {
        let root = v.as_object().ok_or("obs file root is not an object")?;
        let get = |name: &str| root.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let section = |name: &str| -> Result<&[(String, Value)], String> {
            get(name).map_or(Ok(&[]), |v| {
                v.as_object().ok_or_else(|| format!("obs section `{name}` is not an object"))
            })
        };
        let bad = |name: &str, key: &str| format!("obs entry `{name}.{key}` does not parse");
        let mut r = ObsReport::default();
        for (k, v) in section("counters")? {
            r.counters.insert(k.clone(), v.as_u64().ok_or_else(|| bad("counters", k))?);
        }
        for (k, v) in section("gauges")? {
            r.gauges.insert(k.clone(), f64_of(v).ok_or_else(|| bad("gauges", k))?);
        }
        for (k, v) in section("hists")? {
            r.hists.insert(k.clone(), hist_of(v).ok_or_else(|| bad("hists", k))?);
        }
        for (k, v) in section("series")? {
            let s = v.as_array().and_then(|a| a.iter().map(f64_of).collect());
            r.series.insert(k.clone(), s.ok_or_else(|| bad("series", k))?);
        }
        for (k, v) in section("digests")? {
            let d = v.as_array().and_then(|a| a.iter().map(Value::as_u64).collect());
            r.digests.insert(k.clone(), d.ok_or_else(|| bad("digests", k))?);
        }
        if let Some(v) = get("flight") {
            r.flight = v
                .as_array()
                .ok_or("obs section `flight` is not an array")?
                .iter()
                .map(|e| FlightEvent::from_json(e, flight_kinds))
                .collect::<Result<_, _>>()?;
        }
        Ok(r)
    }

    /// Chrome trace-event JSON (array format): one complete event per
    /// span. Open the file in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self) -> String {
        let mut events: Vec<Value> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let mut args = Vec::new();
            if let Some(t) = s.sim_start_ns {
                args.push(("sim_start_us".to_string(), Value::F64(t as f64 / 1e3)));
            }
            if let Some(t) = s.sim_end_ns {
                args.push(("sim_end_us".to_string(), Value::F64(t as f64 / 1e3)));
            }
            events.push(Value::Object(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("cat".to_string(), Value::Str(s.cat.to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::F64(s.start_ns as f64 / 1e3)),
                ("dur".to_string(), Value::F64(s.dur_ns as f64 / 1e3)),
                ("pid".to_string(), Value::U64(1)),
                ("tid".to_string(), Value::U64(s.track as u64)),
                ("args".to_string(), Value::Object(args)),
            ]));
        }
        serde_json::to_string(&Value::Array(events)).expect("chrome trace json")
    }

    /// Human-readable end-of-run report (printed by `mimicnet --report`).
    pub fn render_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== observability report ==");
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "spans: {} recorded, coverage {:.1}% of wall extent",
                self.spans.len(),
                self.span_coverage() * 100.0
            );
            // Aggregate wall time by span name.
            let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
            for s in &self.spans {
                match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                    Some((_, count, ns)) => {
                        *count += 1;
                        *ns += s.dur_ns;
                    }
                    None => by_name.push((s.name, 1, s.dur_ns)),
                }
            }
            by_name.sort_by_key(|e| std::cmp::Reverse(e.2));
            for (name, count, ns) in &by_name {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>8}x {:>12.3} ms",
                    name,
                    count,
                    *ns as f64 / 1e6
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<40} {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<40} {v:.6}");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "histograms (count / mean / p50 / p99 / max):");
            for (k, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>8} / {:>10.2} / {:>6} / {:>6} / {}",
                    k,
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max
                );
            }
        }
        if !self.series.is_empty() {
            let _ = writeln!(out, "series (first..last):");
            for (k, s) in &self.series {
                match (s.first(), s.last()) {
                    (Some(a), Some(b)) => {
                        let _ = writeln!(out, "  {:<32} n={} {:.6} .. {:.6}", k, s.len(), a, b);
                    }
                    _ => {
                        let _ = writeln!(out, "  {:<32} n=0", k);
                    }
                }
            }
        }
        if !self.digests.is_empty() {
            let _ = writeln!(out, "state digests (windows / first / last):");
            for (k, d) in &self.digests {
                match (d.first(), d.last()) {
                    (Some(a), Some(b)) => {
                        let _ = writeln!(
                            out,
                            "  {:<32} n={} {:016x} .. {:016x}",
                            k,
                            d.len(),
                            a,
                            b
                        );
                    }
                    _ => {
                        let _ = writeln!(out, "  {:<32} n=0", k);
                    }
                }
            }
        }
        if !self.flight.is_empty() {
            let _ = writeln!(out, "flight recorder: {} retained events", self.flight.len());
            let lps: std::collections::BTreeSet<u32> =
                self.flight.iter().map(|e| e.lp).collect();
            for lp in lps {
                let evs: Vec<&FlightEvent> =
                    self.flight.iter().filter(|e| e.lp == lp).collect();
                let last = evs.last().unwrap();
                let _ = writeln!(
                    out,
                    "  lp {:<3} {:>7} events, last: {} @ {} ns (pkt {}, depth {})",
                    lp,
                    evs.len(),
                    last.kind_name,
                    last.sim_ns,
                    if last.packet_id == u64::MAX {
                        "-".to_string()
                    } else {
                        last.packet_id.to_string()
                    },
                    last.queue_depth
                );
            }
        }
        self.render_tier_telemetry(&mut out);
        out
    }

    /// Adaptive-tier telemetry: the tier-switch timeline plus a
    /// per-cluster time-in-tier summary, rendered from the
    /// `tier.switch.*` series folded in by the engine (empty unless the
    /// run used the adaptive fleet and recorded at least one epoch).
    fn render_tier_telemetry(&self, out: &mut String) {
        use std::fmt::Write;
        let (Some(epochs), Some(clusters), Some(froms), Some(tos)) = (
            self.series.get("tier.switch.epoch"),
            self.series.get("tier.switch.cluster"),
            self.series.get("tier.switch.from"),
            self.series.get("tier.switch.to"),
        ) else {
            return;
        };
        let n = epochs.len().min(clusters.len()).min(froms.len()).min(tos.len());
        let total_epochs = self.gauges.get("tier.epochs_total").copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "adaptive tiers: {} switches over {} epochs",
            n, total_epochs as u64
        );
        // Timeline, ordered by (epoch, cluster).
        let mut switches: Vec<(u64, u32, u8, u8)> = (0..n)
            .map(|i| {
                (
                    epochs[i] as u64,
                    clusters[i] as u32,
                    froms[i] as u8,
                    tos[i] as u8,
                )
            })
            .collect();
        switches.sort_unstable();
        for &(epoch, cluster, from, to) in &switches {
            let _ = writeln!(
                out,
                "  epoch {:>5}  cluster {:<3} {} -> {}",
                epoch,
                cluster,
                tier_name(from),
                tier_name(to)
            );
        }
        // Per-cluster time-in-tier, in epochs: walk each cluster's
        // switches; before its first switch the cluster sat in that
        // switch's `from` tier (clusters that never switch spent every
        // epoch in the fleet's starting tier, which the engine records as
        // the `tier.initial` gauge — mimic if absent).
        let total = total_epochs as u64;
        if total == 0 {
            return;
        }
        let initial = self.gauges.get("tier.initial").copied().unwrap_or(1.0) as u8;
        let all_clusters: std::collections::BTreeSet<u32> = (0..self
            .gauges
            .get("tier.clusters")
            .copied()
            .unwrap_or(0.0) as u32)
            .chain(switches.iter().map(|s| s.1))
            .collect();
        let _ = writeln!(out, "time-in-tier (epochs per cluster):");
        for c in all_clusters {
            let mut per_tier = [0u64; 3];
            let mut epoch = 0u64;
            let mut tier = initial;
            for &(e, cl, from, to) in &switches {
                if cl != c {
                    continue;
                }
                if epoch == 0 {
                    tier = from;
                }
                let e = e.min(total);
                per_tier[(tier as usize).min(2)] += e.saturating_sub(epoch);
                epoch = e;
                tier = to;
            }
            per_tier[(tier as usize).min(2)] += total.saturating_sub(epoch);
            let _ = writeln!(
                out,
                "  cluster {:<3} packet={:<6} mimic={:<6} flow={:<6}",
                c, per_tier[0], per_tier[1], per_tier[2]
            );
        }
    }
}

fn tier_name(idx: u8) -> &'static str {
    match idx {
        0 => "packet",
        1 => "mimic",
        2 => "flow",
        _ => "?",
    }
}

impl FlightEvent {
    /// The event as one JSON object: the form obs files, post-mortem dumps
    /// and `diverge` reports carry it in.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("lp".to_string(), Value::U64(self.lp as u64)),
            ("sim_ns".to_string(), Value::U64(self.sim_ns)),
            ("kind".to_string(), Value::U64(self.kind as u64)),
            ("kind_name".to_string(), Value::Str(self.kind_name.to_string())),
            ("packet_id".to_string(), Value::U64(self.packet_id)),
            ("queue_depth".to_string(), Value::U64(self.queue_depth as u64)),
        ])
    }

    /// Decode [`FlightEvent::to_json`]'s form. The name comes from
    /// `kinds[kind]`, the engine's event-kind table; a kind outside it is
    /// an error.
    pub fn from_json(v: &Value, kinds: &[&'static str]) -> Result<FlightEvent, String> {
        let field = |name: &str| {
            v.as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == name))
                .and_then(|(_, v)| v.as_u64())
                .ok_or_else(|| format!("flight event without an integer `{name}`"))
        };
        let kind = field("kind")?;
        let kind_name = *kinds
            .get(kind as usize)
            .ok_or_else(|| format!("flight event of unknown kind {kind}"))?;
        Ok(FlightEvent {
            lp: field("lp")? as u32,
            sim_ns: field("sim_ns")?,
            kind: kind as u8,
            kind_name,
            packet_id: field("packet_id")?,
            queue_depth: field("queue_depth")? as u32,
        })
    }
}

/// A gauge or series sample: non-finite values are written as `null`.
fn f64_of(v: &Value) -> Option<f64> {
    match v {
        Value::Null => Some(f64::NAN),
        v => v.as_f64(),
    }
}

fn hist_of(v: &Value) -> Option<Hist> {
    let o = v.as_object()?;
    let get = |name: &str| o.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let buckets = get("buckets")?.as_array()?;
    let mut h = Hist {
        count: get("count")?.as_u64()?,
        sum: get("sum")?.as_u64()?,
        max: get("max")?.as_u64()?,
        ..Hist::default()
    };
    if buckets.len() != h.buckets.len() {
        return None;
    }
    for (b, v) in h.buckets.iter_mut().zip(buckets) {
        *b = v.as_u64()?;
    }
    Some(h)
}

fn hist_json(h: &Hist) -> Value {
    Value::Object(vec![
        ("count".to_string(), Value::U64(h.count)),
        ("sum".to_string(), Value::U64(h.sum)),
        ("max".to_string(), Value::U64(h.max)),
        ("mean".to_string(), Value::F64(h.mean())),
        ("p50".to_string(), Value::U64(h.quantile(0.5))),
        ("p99".to_string(), Value::U64(h.quantile(0.99))),
        (
            "buckets".to_string(),
            Value::Array(h.buckets.iter().map(|&b| Value::U64(b)).collect()),
        ),
    ])
}

fn span_json(s: &SpanEvent) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::Str(s.name.to_string())),
        ("cat".to_string(), Value::Str(s.cat.to_string())),
        ("start_ns".to_string(), Value::U64(s.start_ns)),
        ("dur_ns".to_string(), Value::U64(s.dur_ns)),
        ("track".to_string(), Value::U64(s.track as u64)),
    ];
    if let Some(t) = s.sim_start_ns {
        fields.push(("sim_start_ns".to_string(), Value::U64(t)));
    }
    if let Some(t) = s.sim_end_ns {
        fields.push(("sim_end_ns".to_string(), Value::U64(t)));
    }
    Value::Object(fields)
}

/// Fraction of the wall-clock extent (earliest span start to latest span
/// end, across all tracks) covered by the union of span intervals.
/// Returns 0.0 with no spans. Used by the acceptance gate requiring spans
/// to cover >= 95% of measured wall time.
pub fn span_coverage(spans: &[SpanEvent]) -> f64 {
    if spans.is_empty() {
        return 0.0;
    }
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    intervals.sort_unstable();
    let lo = intervals[0].0;
    let hi = intervals.iter().map(|&(_, e)| e).max().unwrap();
    if hi == lo {
        return 1.0;
    }
    let mut covered = 0u64;
    let (mut cur_s, mut cur_e) = intervals[0];
    for &(s, e) in &intervals[1..] {
        if s <= cur_e {
            cur_e = cur_e.max(e);
        } else {
            covered += cur_e - cur_s;
            cur_s = s;
            cur_e = e;
        }
    }
    covered += cur_e - cur_s;
    covered as f64 / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn sample_report() -> ObsReport {
        let mut o = Obs::on();
        o.begin("phase", "test", Some(0));
        o.counter_add("sim.events.arrive", 10);
        o.counter_add("mimic.boundary.count", 32);
        o.hist_observe("train.ingress.grad_norm_milli", 32);
        o.series_push("train.epoch_loss", 0.5);
        o.gauge_set("drift.cluster.0", 0.1);
        o.end(Some(1000));
        o.take_report().unwrap()
    }

    #[test]
    fn json_snapshot_round_trips_and_names_present() {
        let r = sample_report();
        let s = r.to_json_string();
        let v: Value = serde_json::from_str(&s).unwrap();
        let obj = v.as_object().unwrap();
        let counters = obj
            .iter()
            .find(|(k, _)| k == "counters")
            .map(|(_, v)| v)
            .unwrap();
        assert!(counters
            .as_object()
            .unwrap()
            .iter()
            .any(|(k, _)| k == "sim.events.arrive"));
        assert!(s.contains("mimic.boundary.count"));
        assert!(s.contains("train.ingress.grad_norm_milli"));
        assert!(s.contains("train.epoch_loss"));
        assert!(s.contains("drift.cluster.0"));
        assert!(s.contains("span_coverage"));
    }

    #[test]
    fn from_json_reads_back_every_section_it_decodes() {
        let mut r = sample_report();
        r.hists.entry("h.big".into()).or_default().observe(u64::MAX);
        r.series.insert("s.empty".into(), Vec::new());
        r.digests.insert("digest.window".into(), vec![u64::MAX, 0, 0xDEAD_BEEF_CAFE_F00D]);
        let kinds = ["zero", "one", "two"];
        r.flight = (0..3)
            .map(|k| FlightEvent {
                lp: k as u32,
                sim_ns: 10 + k,
                kind: k as u8,
                kind_name: kinds[k as usize],
                packet_id: if k == 1 { u64::MAX } else { k },
                queue_depth: 7,
            })
            .collect();
        let back = ObsReport::from_json(&r.to_json(), &kinds).expect("decodes");
        assert_eq!(back.counters, r.counters);
        assert_eq!(back.gauges, r.gauges);
        assert_eq!(back.hists, r.hists);
        assert_eq!(back.series, r.series);
        assert_eq!(back.digests, r.digests);
        assert_eq!(back.flight, r.flight);
        // Through the text form too, as `diverge` reads a file.
        let text: Value = serde_json::from_str(&r.to_json_string()).expect("parses");
        let again = ObsReport::from_json(&text, &kinds).expect("decodes");
        assert_eq!((&again.digests, &again.flight), (&r.digests, &r.flight));
        // A kind outside the table is an error, not a made-up name.
        assert!(ObsReport::from_json(&r.to_json(), &kinds[..2]).is_err());
        assert!(ObsReport::from_json(&Value::Array(Vec::new()), &kinds).is_err());
    }

    #[test]
    fn chrome_trace_is_valid_event_array() {
        let r = sample_report();
        let s = r.to_chrome_trace();
        let v: Value = serde_json::from_str(&s).unwrap();
        let events = v.as_array().unwrap();
        assert_eq!(events.len(), 1);
        let ev = events[0].as_object().unwrap();
        let get = |name: &str| ev.iter().find(|(k, _)| k == name).map(|(_, v)| v).unwrap();
        assert_eq!(get("ph").as_str().unwrap(), "X");
        assert_eq!(get("name").as_str().unwrap(), "phase");
        assert!(get("ts").as_f64().is_some());
        assert!(get("dur").as_f64().is_some());
    }

    #[test]
    fn coverage_unions_overlapping_spans() {
        let mk = |start_ns, dur_ns| SpanEvent {
            name: "s",
            cat: "t",
            start_ns,
            dur_ns,
            sim_start_ns: None,
            sim_end_ns: None,
            track: 0,
        };
        // [0,10) and [5,15): union 15 over extent 15 -> 1.0.
        assert!((span_coverage(&[mk(0, 10), mk(5, 10)]) - 1.0).abs() < 1e-12);
        // [0,10) and [20,30): union 20 over extent 30 -> 2/3.
        let c = span_coverage(&[mk(0, 10), mk(20, 10)]);
        assert!((c - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(span_coverage(&[]), 0.0);
    }

    #[test]
    fn report_renders_all_sections() {
        let r = sample_report();
        let text = r.render_report();
        assert!(text.contains("observability report"));
        assert!(text.contains("sim.events.arrive"));
        assert!(text.contains("mimic.boundary.count"));
        assert!(text.contains("train.ingress.grad_norm_milli"));
        assert!(text.contains("train.epoch_loss"));
        assert!(text.contains("drift.cluster.0"));
        assert!(text.contains("coverage"));
    }
}
