//! Flight recorder: a bounded ring buffer of the most recent engine
//! events, kept per LP with the same `Option<Box<_>>` one-null-check
//! discipline as [`crate::Obs`] (DESIGN.md §14). The ring drains into
//! the obs report, which is also what an LP that panics dumps, so every
//! failed run carries the last moments before the failure.

/// One recorded engine event. Plain nanoseconds and small integers so
/// this crate stays dependency-free; `kind` is the engine's event-kind
/// index and `kind_name` its stable name from the engine's table, which
/// [`FlightEvent::from_json`] is handed (both are written so a file reads
/// without the engine's enum).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// PDES partition (LP) that processed the event.
    pub lp: u32,
    /// Simulated time of the event, ns.
    pub sim_ns: u64,
    /// Engine event-kind index.
    pub kind: u8,
    /// Stable event-kind name (e.g. "arrive", "tx_done").
    pub kind_name: &'static str,
    /// Packet id when the event carries one, else `u64::MAX`.
    pub packet_id: u64,
    /// Event-queue depth observed *after* popping this event.
    pub queue_depth: u32,
}

impl FlightEvent {
    /// Sort key for cross-LP merges: simulated time, then kind, then
    /// packet id, then LP — a deterministic order for diffing two runs.
    pub fn sort_key(&self) -> (u64, u8, u64, u32) {
        (self.sim_ns, self.kind, self.packet_id, self.lp)
    }
}

/// Bounded ring of the last `capacity` [`FlightEvent`]s. `record` is the
/// hot-path method: one bounds-masked store, no allocation after the ring
/// fills, no branches beyond the wrap check.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    buf: Vec<FlightEvent>,
    capacity: usize,
    /// Next write position in `buf` once the ring is full.
    head: usize,
    /// Total events ever recorded (so reports can say how many were
    /// dropped by the ring bound).
    total: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including ones the ring dropped.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    #[inline]
    pub fn record(&mut self, ev: FlightEvent) {
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            // Branch instead of `% capacity`: capacity is not required to
            // be a power of two, and an integer division per event is the
            // single biggest cost in this hot path.
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// The retained events in recording order (oldest first), leaving the
    /// recorder empty but reusable.
    pub fn drain_ordered(&mut self) -> Vec<FlightEvent> {
        let head = self.head;
        let mut out = std::mem::take(&mut self.buf);
        let n = head.min(out.len());
        out.rotate_left(n);
        self.head = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(sim_ns: u64) -> FlightEvent {
        FlightEvent {
            lp: 0,
            sim_ns,
            kind: 2,
            kind_name: "arrive",
            packet_id: sim_ns * 10,
            queue_depth: 4,
        }
    }

    #[test]
    fn fills_then_wraps_keeping_most_recent() {
        let mut r = FlightRecorder::new(4);
        for t in 0..10 {
            r.record(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_recorded(), 10);
        let kept: Vec<u64> = r.drain_ordered().iter().map(|e| e.sim_ns).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        // Reusable after drain.
        r.record(ev(42));
        assert_eq!(r.len(), 1);
        assert_eq!(r.drain_ordered()[0].sim_ns, 42);
    }

    #[test]
    fn partial_fill_keeps_order() {
        let mut r = FlightRecorder::new(8);
        for t in [3, 1, 4] {
            r.record(ev(t));
        }
        let kept: Vec<u64> = r.drain_ordered().iter().map(|e| e.sim_ns).collect();
        assert_eq!(kept, vec![3, 1, 4]);
        assert_eq!(r.total_recorded(), 3);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = FlightRecorder::new(0);
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.drain_ordered()[0].sim_ns, 2);
    }
}
