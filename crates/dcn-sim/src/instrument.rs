//! Instrumentation: the measurements the paper's evaluation is built on.
//!
//! Three end-to-end metrics (§9 "Evaluation metrics"):
//! * **FCT** — flow completion time, recorded when the sender has every
//!   byte acknowledged.
//! * **Per-server throughput** — application bytes delivered per host,
//!   binned into 100 ms intervals.
//! * **RTT** — per-packet round-trip samples measured at senders from
//!   acknowledgment echoes.
//!
//! Plus the *boundary trace* (§5.1): for one designated cluster, a record
//! of every external packet entering and leaving, which becomes MimicNet's
//! training data after the matching step in `mimicnet::trace`.

use crate::mimic::BoundaryDir;
use crate::packet::{Ecn, FlowId, Packet, PacketKind};
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Lifecycle record of one flow.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowRecord {
    pub flow: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    pub size_bytes: u64,
    pub start: SimTime,
    /// Set when the sender completes; `None` if still running at sim end.
    pub end: Option<SimTime>,
}

impl FlowRecord {
    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<SimDuration> {
        self.end.map(|e| e.since(self.start))
    }
}

/// One RTT sample observed by a sending host.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RttSample {
    pub host: NodeId,
    pub time: SimTime,
    pub rtt: SimDuration,
}

/// Whether a boundary record is the packet entering or leaving the learned
/// region.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BoundaryPhase {
    Enter,
    Exit,
}

/// One packet observation at a cluster boundary juncture.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BoundaryRecord {
    pub pkt_id: u64,
    pub flow: FlowId,
    pub time: SimTime,
    pub dir: BoundaryDir,
    pub phase: BoundaryPhase,
    pub wire_bytes: u32,
    pub ecn: Ecn,
    pub kind: PacketKind,
    pub src: NodeId,
    pub dst: NodeId,
    /// The core switch this packet traverses (deterministic under ECMP).
    pub core: NodeId,
    pub prio: u8,
}

impl BoundaryRecord {
    pub fn from_packet(
        pkt: &Packet,
        time: SimTime,
        dir: BoundaryDir,
        phase: BoundaryPhase,
        core: NodeId,
    ) -> BoundaryRecord {
        BoundaryRecord {
            pkt_id: pkt.id,
            flow: pkt.flow,
            time,
            dir,
            phase,
            wire_bytes: pkt.wire_bytes(),
            ecn: pkt.ecn,
            kind: pkt.kind,
            src: pkt.src,
            dst: pkt.dst,
            core,
            prio: pkt.prio,
        }
    }
}

/// Default throughput bin width (the paper bins into 100 ms intervals).
pub const DEFAULT_BIN: SimDuration = SimDuration(100_000_000);

/// All measurements of one run.
pub struct Metrics {
    /// Per-flow lifecycle records.
    pub flows: HashMap<FlowId, FlowRecord>,
    /// RTT samples at senders.
    pub rtt: Vec<RttSample>,
    /// Delivered application bytes per host per bin; index = host id.
    tput_bins: Vec<Vec<u64>>,
    bin: SimDuration,
    /// Boundary trace for the designated cluster (empty if none).
    pub boundary: Vec<BoundaryRecord>,
    /// Total packets dropped by queues.
    pub queue_drops: u64,
    /// Total packets dropped by mimic models.
    pub mimic_drops: u64,
    /// Total CE marks applied by queues.
    pub ecn_marks: u64,
    /// Packets lost on the wire to the fabric loss window (see
    /// [`crate::fault::LossWindow`]).
    pub fault_drops: u64,
    /// Events processed by the engine.
    pub events_processed: u64,
    /// Packets forwarded by switches (hop count total).
    pub hops_forwarded: u64,
    /// Per-cluster drift scores reported by Mimic models at end of run;
    /// indexed by cluster id. `None` for packet-level clusters and models
    /// without drift monitoring.
    pub cluster_drift: Vec<Option<f64>>,
    /// Runtime fidelity transitions, ordered by `(epoch, cluster)`. Empty
    /// for fixed-fidelity runs. In partitioned runs each LP records only
    /// the clusters it owns, so the merged schedule has one record per
    /// switch and is invariant to the partition count — the adaptive
    /// determinism suite compares it byte-for-byte across 1/2/4 LPs.
    pub tier_switches: Vec<crate::mimic::TierSwitch>,
    /// Observability report folded in by the engine when diagnostics are
    /// on (`Simulation::enable_diagnostics`); `None` otherwise. Boxed so
    /// the common diagnostics-off path pays one pointer. Merged across
    /// PDES partitions via [`dcn_obs::ObsReport::merge`].
    pub obs: Option<Box<dcn_obs::ObsReport>>,
}

impl Metrics {
    pub fn new(num_hosts: u32) -> Metrics {
        Metrics {
            flows: HashMap::new(),
            rtt: Vec::new(),
            tput_bins: vec![Vec::new(); num_hosts as usize],
            bin: DEFAULT_BIN,
            boundary: Vec::new(),
            queue_drops: 0,
            mimic_drops: 0,
            ecn_marks: 0,
            fault_drops: 0,
            events_processed: 0,
            hops_forwarded: 0,
            cluster_drift: Vec::new(),
            tier_switches: Vec::new(),
            obs: None,
        }
    }

    /// Record `bytes` delivered to `host`'s application at `now`.
    /// Out-of-range host ids are ignored: composed topologies can
    /// surface feeder-host ids beyond the partition's own host count.
    pub fn record_delivery(&mut self, host: NodeId, now: SimTime, bytes: u64) {
        let idx = (now.as_nanos() / self.bin.as_nanos()) as usize;
        if let Some(bins) = self.tput_bins.get_mut(host.0 as usize) {
            if bins.len() <= idx {
                bins.resize(idx + 1, 0);
            }
            bins[idx] += bytes;
        }
    }

    /// Number of flows that completed.
    pub fn flows_completed(&self) -> usize {
        self.flows.values().filter(|f| f.end.is_some()).count()
    }

    /// Total flows started.
    pub fn flows_started(&self) -> usize {
        self.flows.len()
    }

    /// FCT samples (seconds) over completed flows passing `filter`.
    pub fn fct_samples(&self, filter: impl Fn(&FlowRecord) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .flows
            .values()
            .filter(|f| filter(f))
            .filter_map(|f| f.fct().map(|d| d.as_secs_f64()))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    /// Per-(host, bin) throughput samples in bytes/second for hosts passing
    /// `filter`. Bins after the last delivery of a host are not reported.
    pub fn throughput_samples(&self, filter: impl Fn(NodeId) -> bool) -> Vec<f64> {
        let bin_s = self.bin.as_secs_f64();
        let mut v = Vec::new();
        for (h, bins) in self.tput_bins.iter().enumerate() {
            if !filter(NodeId(h as u32)) {
                continue;
            }
            for &b in bins {
                v.push(b as f64 / bin_s);
            }
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    /// RTT samples in seconds for hosts passing `filter`.
    pub fn rtt_samples(&self, filter: impl Fn(NodeId) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .rtt
            .iter()
            .filter(|s| filter(s.host))
            .map(|s| s.rtt.as_secs_f64())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    /// Total application bytes delivered across all hosts.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.tput_bins.iter().flatten().sum()
    }

    /// Merge another partition's metrics into this one (PDES join).
    ///
    /// Flow records are disjoint by construction (a flow is recorded by its
    /// sender's partition); throughput bins are summed element-wise.
    pub fn merge(&mut self, other: Metrics) {
        for (id, rec) in other.flows {
            let prev = self.flows.insert(id, rec);
            debug_assert!(prev.is_none(), "flow recorded by two partitions");
        }
        self.rtt.extend(other.rtt);
        if self.tput_bins.len() < other.tput_bins.len() {
            self.tput_bins.resize(other.tput_bins.len(), Vec::new());
        }
        for (mine, theirs) in self.tput_bins.iter_mut().zip(other.tput_bins) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.boundary = Self::merge_boundary(std::mem::take(&mut self.boundary), other.boundary);
        self.queue_drops += other.queue_drops;
        self.mimic_drops += other.mimic_drops;
        self.ecn_marks += other.ecn_marks;
        self.fault_drops += other.fault_drops;
        self.events_processed += other.events_processed;
        self.hops_forwarded += other.hops_forwarded;
        if self.cluster_drift.len() < other.cluster_drift.len() {
            self.cluster_drift.resize(other.cluster_drift.len(), None);
        }
        for (mine, theirs) in self.cluster_drift.iter_mut().zip(other.cluster_drift) {
            if theirs.is_some() {
                *mine = theirs;
            }
        }
        // Partitions record disjoint cluster sets, so a plain merge-and-sort
        // yields the canonical (epoch, cluster)-ordered schedule.
        self.tier_switches.extend(other.tier_switches);
        self.tier_switches.sort_by_key(|s| (s.epoch, s.cluster));
        match (&mut self.obs, other.obs) {
            (Some(mine), Some(theirs)) => mine.merge(*theirs),
            (mine @ None, Some(theirs)) => *mine = Some(theirs),
            _ => {}
        }
    }

    /// Combine two boundary traces into one sorted by `(time, pkt_id)`.
    /// Each partition emits its trace in event order, so both inputs are
    /// normally already sorted and a linear merge suffices; an unsorted
    /// input (possible when pkt-id ties interleave) falls back to a sort.
    fn merge_boundary(a: Vec<BoundaryRecord>, b: Vec<BoundaryRecord>) -> Vec<BoundaryRecord> {
        fn key(r: &BoundaryRecord) -> (SimTime, u64) {
            (r.time, r.pkt_id)
        }
        fn is_sorted(v: &[BoundaryRecord]) -> bool {
            v.windows(2).all(|w| key(&w[0]) <= key(&w[1]))
        }
        if a.is_empty() {
            let mut b = b;
            if !is_sorted(&b) {
                b.sort_by_key(key);
            }
            return b;
        }
        if b.is_empty() {
            let mut a = a;
            if !is_sorted(&a) {
                a.sort_by_key(key);
            }
            return a;
        }
        if !is_sorted(&a) || !is_sorted(&b) {
            let mut v = a;
            v.extend(b);
            v.sort_by_key(key);
            return v;
        }
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let mut xs = a.into_iter().peekable();
        let mut ys = b.into_iter().peekable();
        loop {
            match (xs.peek(), ys.peek()) {
                (Some(x), Some(y)) => {
                    if key(x) <= key(y) {
                        merged.push(xs.next().unwrap());
                    } else {
                        merged.push(ys.next().unwrap());
                    }
                }
                (Some(_), None) => {
                    merged.extend(xs);
                    break;
                }
                (None, _) => {
                    merged.extend(ys);
                    break;
                }
            }
        }
        merged
    }
}

use crate::snapshot::SnapWriter;

impl Metrics {
    /// Serialize every deterministic measurement. Sample vectors whose
    /// in-memory order depends on the partition count (flow map keys, RTT
    /// samples, the boundary trace) are written in a canonical sort order,
    /// so equal measurement *sets* always produce equal bytes — the
    /// byte-identity tests compare exactly these serializations across
    /// 1/2/4 LPs. The `obs` report is excluded: it holds wall-clock
    /// timings that are legitimately different across runs.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let mut flow_ids: Vec<FlowId> = self.flows.keys().copied().collect();
        flow_ids.sort_unstable();
        w.put_u64(flow_ids.len() as u64);
        for id in flow_ids {
            let f = &self.flows[&id];
            w.put_u64(f.flow.0);
            w.put_u32(f.src.0);
            w.put_u32(f.dst.0);
            w.put_u64(f.size_bytes);
            w.put_u64(f.start.0);
            w.put_opt_u64(f.end.map(|t| t.0));
        }
        // A sequential run records RTT samples in event order while a
        // partitioned join concatenates per-LP vectors; sort a side index
        // by a total key so both serialize identically.
        let mut rtt_order: Vec<usize> = (0..self.rtt.len()).collect();
        rtt_order.sort_by_key(|&i| {
            let s = &self.rtt[i];
            (s.time, s.host.0, s.rtt)
        });
        w.put_u64(self.rtt.len() as u64);
        for i in rtt_order {
            let s = &self.rtt[i];
            w.put_u32(s.host.0);
            w.put_u64(s.time.0);
            w.put_u64(s.rtt.0);
        }
        w.put_u64(self.tput_bins.len() as u64);
        for bins in &self.tput_bins {
            w.put_u64_slice(bins);
        }
        w.put_u64(self.bin.0);
        // Same partition-order hazard as RTT: ties at one timestamp can
        // interleave differently, so serialize under a total key.
        let mut bnd_order: Vec<usize> = (0..self.boundary.len()).collect();
        bnd_order.sort_by_key(|&i| {
            let b = &self.boundary[i];
            (
                b.time,
                b.pkt_id,
                matches!(b.dir, crate::mimic::BoundaryDir::Egress),
                matches!(b.phase, BoundaryPhase::Exit),
            )
        });
        w.put_u64(self.boundary.len() as u64);
        for i in bnd_order {
            let b = &self.boundary[i];
            w.put_u64(b.pkt_id);
            w.put_u64(b.flow.0);
            w.put_u64(b.time.0);
            w.put_u8(match b.dir {
                crate::mimic::BoundaryDir::Ingress => 0,
                crate::mimic::BoundaryDir::Egress => 1,
            });
            w.put_u8(match b.phase {
                BoundaryPhase::Enter => 0,
                BoundaryPhase::Exit => 1,
            });
            w.put_u32(b.wire_bytes);
            w.put_u8(match b.ecn {
                Ecn::NotEct => 0,
                Ecn::Ect => 1,
                Ecn::Ce => 2,
            });
            w.put_u8(match b.kind {
                PacketKind::Data => 0,
                PacketKind::Ack => 1,
                PacketKind::Grant => 2,
            });
            w.put_u32(b.src.0);
            w.put_u32(b.dst.0);
            w.put_u32(b.core.0);
            w.put_u8(b.prio);
        }
        w.put_u64(self.queue_drops);
        w.put_u64(self.mimic_drops);
        w.put_u64(self.ecn_marks);
        w.put_u64(self.fault_drops);
        w.put_u64(self.events_processed);
        w.put_u64(self.hops_forwarded);
        w.put_u64(self.cluster_drift.len() as u64);
        for d in &self.cluster_drift {
            w.put_opt_f64(*d);
        }
        w.put_u64(self.tier_switches.len() as u64);
        for s in &self.tier_switches {
            w.put_u64(s.epoch);
            w.put_u32(s.cluster);
            w.put_u8(s.from.index() as u8);
            w.put_u8(s.to.index() as u8);
        }
    }

    /// The canonical byte serialization of these metrics: equal metrics ⇔
    /// equal bytes. Used by the bit-identity suites to compare runs
    /// byte-for-byte.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.save_state(&mut w);
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fct_of_incomplete_flow_is_none() {
        let r = FlowRecord {
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 1000,
            start: SimTime::from_secs_f64(1.0),
            end: None,
        };
        assert!(r.fct().is_none());
    }

    #[test]
    fn fct_computed_from_start_end() {
        let r = FlowRecord {
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 1000,
            start: SimTime::from_secs_f64(1.0),
            end: Some(SimTime::from_secs_f64(1.5)),
        };
        assert_eq!(r.fct().unwrap(), SimDuration::from_millis(500));
    }

    #[test]
    fn delivery_binning() {
        let mut m = Metrics::new(2);
        m.record_delivery(NodeId(0), SimTime::from_secs_f64(0.05), 1000);
        m.record_delivery(NodeId(0), SimTime::from_secs_f64(0.09), 500);
        m.record_delivery(NodeId(0), SimTime::from_secs_f64(0.15), 2000);
        m.record_delivery(NodeId(1), SimTime::from_secs_f64(0.25), 300);
        // Host 0: bin0 = 1500 B -> 15_000 B/s, bin1 = 2000 -> 20_000 B/s.
        let all = m.throughput_samples(|_| true);
        assert_eq!(all.len(), 2 + 3); // host0: 2 bins; host1: 3 bins (two empty)
        assert!(all.contains(&15_000.0));
        assert!(all.contains(&20_000.0));
        assert!(all.contains(&3_000.0));
        let only0 = m.throughput_samples(|h| h.0 == 0);
        assert_eq!(only0.len(), 2);
        assert_eq!(m.total_delivered_bytes(), 3_800);
    }

    #[test]
    fn fct_samples_sorted_and_filtered() {
        let mut m = Metrics::new(1);
        for (i, (start, end)) in [(0.0, 0.5), (0.0, 0.2), (0.0, 0.9)].iter().enumerate() {
            m.flows.insert(
                FlowId(i as u64),
                FlowRecord {
                    flow: FlowId(i as u64),
                    src: NodeId(i as u32),
                    dst: NodeId(0),
                    size_bytes: 1,
                    start: SimTime::from_secs_f64(*start),
                    end: Some(SimTime::from_secs_f64(*end)),
                },
            );
        }
        let all = m.fct_samples(|_| true);
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
        let some = m.fct_samples(|f| f.src.0 < 2);
        assert_eq!(some.len(), 2);
    }

    fn boundary_rec(t: u64, pkt_id: u64) -> BoundaryRecord {
        BoundaryRecord {
            pkt_id,
            flow: FlowId(1),
            time: SimTime(t),
            dir: BoundaryDir::Ingress,
            phase: BoundaryPhase::Enter,
            wire_bytes: 100,
            ecn: Ecn::Ect,
            kind: PacketKind::Data,
            src: NodeId(0),
            dst: NodeId(1),
            core: NodeId(2),
            prio: 0,
        }
    }

    #[test]
    fn delivery_out_of_range_host_is_ignored() {
        let mut m = Metrics::new(2);
        m.record_delivery(NodeId(0), SimTime::from_secs_f64(0.01), 100);
        // Regression: this used to panic with an unchecked index.
        m.record_delivery(NodeId(99), SimTime::from_secs_f64(0.01), 100);
        assert_eq!(m.total_delivered_bytes(), 100);
    }

    #[test]
    fn merge_boundary_linear_matches_sort() {
        let mut a = Metrics::new(1);
        let mut b = Metrics::new(1);
        a.boundary = vec![boundary_rec(10, 1), boundary_rec(20, 5), boundary_rec(30, 2)];
        b.boundary = vec![boundary_rec(5, 9), boundary_rec(20, 3), boundary_rec(40, 1)];
        let mut expect: Vec<(SimTime, u64)> = a
            .boundary
            .iter()
            .chain(&b.boundary)
            .map(|r| (r.time, r.pkt_id))
            .collect();
        expect.sort();
        a.merge(b);
        let got: Vec<(SimTime, u64)> = a.boundary.iter().map(|r| (r.time, r.pkt_id)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn merge_boundary_unsorted_input_still_sorts() {
        let mut a = Metrics::new(1);
        let mut b = Metrics::new(1);
        // Deliberately unsorted side exercises the fallback path.
        a.boundary = vec![boundary_rec(30, 1), boundary_rec(10, 1)];
        b.boundary = vec![boundary_rec(20, 1)];
        a.merge(b);
        let got: Vec<u64> = a.boundary.iter().map(|r| r.time.0).collect();
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn merge_sums_unequal_length_tput_bins() {
        let mut a = Metrics::new(1);
        let mut b = Metrics::new(3);
        a.record_delivery(NodeId(0), SimTime::from_secs_f64(0.01), 100);
        b.record_delivery(NodeId(0), SimTime::from_secs_f64(0.01), 50);
        b.record_delivery(NodeId(0), SimTime::from_secs_f64(0.15), 25);
        b.record_delivery(NodeId(2), SimTime::from_secs_f64(0.01), 7);
        a.merge(b);
        assert_eq!(a.total_delivered_bytes(), 182);
        // Host 0 bins summed element-wise with the longer side kept.
        let host0 = a.throughput_samples(|h| h.0 == 0);
        assert_eq!(host0.len(), 2);
        assert!(host0.contains(&1_500.0)); // 150 B in a 100 ms bin
        assert!(host0.contains(&250.0));
        // Host 2 exists only in `b`; merge must have widened `a`.
        assert_eq!(a.throughput_samples(|h| h.0 == 2).len(), 1);
    }

    #[test]
    fn merge_cluster_drift_overwrites_when_present() {
        let mut a = Metrics::new(1);
        let mut b = Metrics::new(1);
        a.cluster_drift = vec![Some(0.1), Some(0.2), None];
        b.cluster_drift = vec![None, Some(0.9), Some(0.3), Some(0.4)];
        a.merge(b);
        // `Some` on the incoming side wins; `None` leaves ours in place.
        assert_eq!(a.cluster_drift, vec![Some(0.1), Some(0.9), Some(0.3), Some(0.4)]);
    }

    #[test]
    fn merge_orders_tier_switches_canonically() {
        use crate::mimic::{FidelityTier, TierSwitch};
        let sw = |epoch, cluster| TierSwitch {
            epoch,
            cluster,
            from: FidelityTier::Mimic,
            to: FidelityTier::Flow,
        };
        let mut a = Metrics::new(1);
        let mut b = Metrics::new(1);
        a.tier_switches = vec![sw(1, 2), sw(3, 1)];
        b.tier_switches = vec![sw(1, 1), sw(2, 3)];
        a.merge(b);
        let got: Vec<(u64, u32)> = a.tier_switches.iter().map(|s| (s.epoch, s.cluster)).collect();
        assert_eq!(got, vec![(1, 1), (1, 2), (2, 3), (3, 1)]);
        // The schedule participates in the canonical byte serialization.
        let mut c = Metrics::new(1);
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
        c.tier_switches = a.tier_switches.clone();
        assert_eq!(a.canonical_bytes(), c.canonical_bytes());
    }

    #[test]
    fn merge_combines_obs_reports() {
        let mut a = Metrics::new(1);
        let mut b = Metrics::new(1);
        let mut ra = dcn_obs::ObsReport::default();
        ra.counters.insert("sim.windows".into(), 2);
        b.obs = Some(Box::new(ra.clone()));
        a.merge(b);
        assert_eq!(a.obs.as_ref().unwrap().counter("sim.windows"), 2);
        let mut c = Metrics::new(1);
        c.obs = Some(Box::new(ra));
        a.merge(c);
        assert_eq!(a.obs.as_ref().unwrap().counter("sim.windows"), 4);
    }

    #[test]
    fn rtt_filtering() {
        let mut m = Metrics::new(2);
        m.rtt.push(RttSample {
            host: NodeId(0),
            time: SimTime::ZERO,
            rtt: SimDuration::from_millis(1),
        });
        m.rtt.push(RttSample {
            host: NodeId(1),
            time: SimTime::ZERO,
            rtt: SimDuration::from_millis(2),
        });
        assert_eq!(m.rtt_samples(|h| h.0 == 1), vec![0.002]);
    }
}
