//! Switch output-port queues.
//!
//! The paper's experiments use three queue behaviours, all implemented here
//! behind one [`PortQueue`] type configured by [`QueueConfig`]:
//!
//! * **DropTail** — the baseline: fixed byte capacity, tail drop.
//! * **ECN marking** (DCTCP) — mark CE on ECN-capable packets when the
//!   instantaneous queue occupancy exceeds the marking threshold `K`
//!   (in packets), as in the DCTCP paper and the paper's §9.4.1 sweep.
//! * **Strict priorities** (Homa) — multiple bands; dequeue always serves
//!   the highest-priority non-empty band.
//!
//! Queue state is the principal thing MimicNet's internal models must learn
//! to approximate, so drop/mark counters are exposed for instrumentation.

use crate::packet::{Ecn, Packet};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration for one output port's queue.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Total capacity across all bands, in bytes.
    pub capacity_bytes: u64,
    /// If set, CE-mark ECN-capable packets when the queue already holds at
    /// least this many packets on enqueue (DCTCP's `K`).
    pub ecn_mark_threshold_pkts: Option<u32>,
    /// Number of strict-priority bands (1 = FIFO).
    pub bands: u8,
}

impl QueueConfig {
    /// Plain DropTail FIFO.
    pub fn drop_tail(capacity_bytes: u64) -> QueueConfig {
        QueueConfig {
            capacity_bytes,
            ecn_mark_threshold_pkts: None,
            bands: 1,
        }
    }

    /// DropTail FIFO with DCTCP-style ECN marking at threshold `k` packets.
    pub fn ecn(capacity_bytes: u64, k: u32) -> QueueConfig {
        QueueConfig {
            capacity_bytes,
            ecn_mark_threshold_pkts: Some(k),
            bands: 1,
        }
    }

    /// Strict-priority queue with `bands` levels (Homa).
    pub fn priority(capacity_bytes: u64, bands: u8) -> QueueConfig {
        assert!(bands >= 1);
        QueueConfig {
            capacity_bytes,
            ecn_mark_threshold_pkts: None,
            bands,
        }
    }
}

/// What happened to a packet offered to a queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnqueueOutcome {
    /// Accepted; `marked` is true if the queue set the CE codepoint.
    Enqueued { marked: bool },
    /// Rejected: queue full.
    Dropped,
}

/// An output-port queue (one per link direction at every switch/host).
#[derive(Clone, Debug)]
pub struct PortQueue {
    cfg: QueueConfig,
    bands: Vec<VecDeque<Packet>>,
    bytes: u64,
    pkts: u32,
    /// Cumulative count of packets dropped by this queue.
    pub dropped: u64,
    /// Cumulative count of packets CE-marked by this queue.
    pub marked: u64,
    /// Cumulative count of packets accepted by this queue.
    pub enqueued: u64,
    /// High-watermark of byte occupancy ever reached.
    pub peak_bytes: u64,
}

impl PortQueue {
    pub fn new(cfg: QueueConfig) -> PortQueue {
        PortQueue {
            bands: (0..cfg.bands.max(1)).map(|_| VecDeque::new()).collect(),
            cfg,
            bytes: 0,
            pkts: 0,
            dropped: 0,
            marked: 0,
            enqueued: 0,
            peak_bytes: 0,
        }
    }

    /// Offer a packet to the queue. On acceptance the packet is stored (and
    /// possibly CE-marked in place); on rejection it is discarded.
    pub fn enqueue(&mut self, mut pkt: Packet) -> EnqueueOutcome {
        let size = pkt.wire_bytes() as u64;
        if self.bytes + size > self.cfg.capacity_bytes {
            self.dropped += 1;
            return EnqueueOutcome::Dropped;
        }
        let mut marked = false;
        if let Some(k) = self.cfg.ecn_mark_threshold_pkts {
            // DCTCP marks based on instantaneous occupancy at enqueue time.
            if self.pkts >= k && pkt.ecn.is_capable() {
                pkt.ecn = Ecn::Ce;
                marked = true;
                self.marked += 1;
            }
        }
        let band = (pkt.prio as usize).min(self.bands.len() - 1);
        self.bytes += size;
        self.pkts += 1;
        self.enqueued += 1;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.bands[band].push_back(pkt);
        EnqueueOutcome::Enqueued { marked }
    }

    /// Take the next packet to transmit: strict priority across bands,
    /// FIFO within a band.
    pub fn dequeue(&mut self) -> Option<Packet> {
        for band in &mut self.bands {
            if let Some(p) = band.pop_front() {
                self.bytes -= p.wire_bytes() as u64;
                self.pkts -= 1;
                return Some(p);
            }
        }
        None
    }

    /// Packets currently queued.
    pub fn len_pkts(&self) -> u32 {
        self.pkts
    }

    /// Bytes currently queued.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    pub fn is_empty(&self) -> bool {
        self.pkts == 0
    }
}

use crate::snapshot::{self, SnapWriter};

impl PortQueue {
    /// Encode queued packets (per band, FIFO order) and counters for the
    /// window digest. The queue's configuration is not encoded.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.bands.len() as u64);
        for band in &self.bands {
            w.put_u64(band.len() as u64);
            for p in band {
                snapshot::put_packet(w, p);
            }
        }
        w.put_u64(self.dropped);
        w.put_u64(self.marked);
        w.put_u64(self.enqueued);
        w.put_u64(self.peak_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, MSS_BYTES};
    use crate::time::SimTime;
    use crate::topology::NodeId;

    fn pkt(id: u64, payload: u32, prio: u8, ecn_capable: bool) -> Packet {
        let mut p = Packet::data(
            id,
            FlowId(1),
            NodeId(0),
            NodeId(1),
            0,
            payload,
            ecn_capable,
            SimTime::ZERO,
        );
        p.prio = prio;
        p
    }

    #[test]
    fn fifo_order() {
        let mut q = PortQueue::new(QueueConfig::drop_tail(1_000_000));
        for i in 0..5 {
            assert!(matches!(
                q.enqueue(pkt(i, 100, 0, false)),
                EnqueueOutcome::Enqueued { marked: false }
            ));
        }
        for i in 0..5 {
            assert_eq!(q.dequeue().unwrap().id, i);
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn drop_tail_respects_capacity() {
        // Capacity fits exactly two 1500 B packets.
        let mut q = PortQueue::new(QueueConfig::drop_tail(3_000));
        assert!(matches!(
            q.enqueue(pkt(1, MSS_BYTES, 0, false)),
            EnqueueOutcome::Enqueued { .. }
        ));
        assert!(matches!(
            q.enqueue(pkt(2, MSS_BYTES, 0, false)),
            EnqueueOutcome::Enqueued { .. }
        ));
        assert_eq!(q.enqueue(pkt(3, MSS_BYTES, 0, false)), EnqueueOutcome::Dropped);
        assert_eq!(q.dropped, 1);
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(q.len_bytes(), 3_000);
    }

    #[test]
    fn small_packet_fits_after_large_dropped() {
        let mut q = PortQueue::new(QueueConfig::drop_tail(3_040));
        q.enqueue(pkt(1, MSS_BYTES, 0, false));
        q.enqueue(pkt(2, MSS_BYTES, 0, false));
        assert_eq!(q.enqueue(pkt(3, MSS_BYTES, 0, false)), EnqueueOutcome::Dropped);
        // A 40 B ack still fits.
        assert!(matches!(
            q.enqueue(pkt(4, 0, 0, false)),
            EnqueueOutcome::Enqueued { .. }
        ));
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut q = PortQueue::new(QueueConfig::ecn(1_000_000, 2));
        // First two packets: below threshold, unmarked.
        for i in 0..2 {
            assert!(matches!(
                q.enqueue(pkt(i, 100, 0, true)),
                EnqueueOutcome::Enqueued { marked: false }
            ));
        }
        // Third: occupancy (2) >= K (2) -> marked.
        assert!(matches!(
            q.enqueue(pkt(2, 100, 0, true)),
            EnqueueOutcome::Enqueued { marked: true }
        ));
        assert_eq!(q.marked, 1);
        // Dequeue order preserved; third carries CE.
        assert_eq!(q.dequeue().unwrap().ecn, Ecn::Ect);
        assert_eq!(q.dequeue().unwrap().ecn, Ecn::Ect);
        assert_eq!(q.dequeue().unwrap().ecn, Ecn::Ce);
    }

    #[test]
    fn ecn_does_not_mark_non_capable() {
        let mut q = PortQueue::new(QueueConfig::ecn(1_000_000, 0));
        assert!(matches!(
            q.enqueue(pkt(1, 100, 0, false)),
            EnqueueOutcome::Enqueued { marked: false }
        ));
        assert_eq!(q.dequeue().unwrap().ecn, Ecn::NotEct);
    }

    #[test]
    fn strict_priority_serves_high_band_first() {
        let mut q = PortQueue::new(QueueConfig::priority(1_000_000, 4));
        q.enqueue(pkt(1, 100, 3, false)); // low priority
        q.enqueue(pkt(2, 100, 0, false)); // high priority
        q.enqueue(pkt(3, 100, 1, false));
        assert_eq!(q.dequeue().unwrap().id, 2);
        assert_eq!(q.dequeue().unwrap().id, 3);
        assert_eq!(q.dequeue().unwrap().id, 1);
    }

    #[test]
    fn priority_out_of_range_clamps_to_lowest_band() {
        let mut q = PortQueue::new(QueueConfig::priority(1_000_000, 2));
        q.enqueue(pkt(1, 100, 7, false)); // band clamped to 1
        q.enqueue(pkt(2, 100, 0, false));
        assert_eq!(q.dequeue().unwrap().id, 2);
        assert_eq!(q.dequeue().unwrap().id, 1);
    }

    #[test]
    fn byte_accounting_across_bands() {
        let mut q = PortQueue::new(QueueConfig::priority(10_000, 2));
        q.enqueue(pkt(1, 460, 0, false)); // 500 B wire
        q.enqueue(pkt(2, 960, 1, false)); // 1000 B wire
        assert_eq!(q.len_bytes(), 1_500);
        q.dequeue();
        assert_eq!(q.len_bytes(), 1_000);
        q.dequeue();
        assert_eq!(q.len_bytes(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn enqueue_and_peak_counters() {
        let mut q = PortQueue::new(QueueConfig::drop_tail(3_000));
        q.enqueue(pkt(1, MSS_BYTES, 0, false));
        q.enqueue(pkt(2, MSS_BYTES, 0, false));
        q.enqueue(pkt(3, MSS_BYTES, 0, false)); // dropped
        assert_eq!(q.enqueued, 2);
        assert_eq!(q.peak_bytes, 3_000);
        q.dequeue();
        q.enqueue(pkt(4, 0, 0, false));
        // Peak is a high-watermark: occupancy fell, peak stays.
        assert_eq!(q.peak_bytes, 3_000);
        assert_eq!(q.enqueued, 3);
    }
}
