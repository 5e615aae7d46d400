//! The discrete-event core: events, deterministic ordering, and the event
//! queue.
//!
//! Simulators "take a massive distributed system and serialize it into a
//! single event queue" (§2.2). Correctness of that serialization — and the
//! bit-equality of sequential and parallel executions — depends on a *total*
//! order over simultaneous events. Events are therefore ordered by
//! `(time, class, tag, seq)` where `class` fixes the relative order of event
//! types, `tag` is a stable key derived from the event's structure (packet
//! id, link id, timer identity) that is identical however the event was
//! produced, and `seq` is a last-resort insertion tiebreak.
//!
//! [`EventQueue`] keeps event payloads in a slab of pooled nodes linked by
//! `u32` indices with a freelist, so completed nodes are recycled instead of
//! reallocated, and orders them with a monotone radix queue: 65 buckets
//! keyed by the highest bit in which an event's time differs from the time
//! of the last pop. That is sound because the engine is causal — no event
//! is ever scheduled before the last popped one, which the queue asserts.
//! A `BinaryHeap<Event>` filled with [`Event::new`] and a strictly
//! increasing `seq` is the reference ordering: fed the same causal
//! schedule, it pops in exactly the order this queue does, which
//! `tests/queue_equivalence.rs` checks against such a heap.

use crate::link::Dir;
use crate::packet::{FlowId, Packet};
use crate::time::SimTime;
use crate::topology::{LinkId, NodeId};
use std::cmp::Ordering;

/// The payload of a scheduled event.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A transmitter finishes serializing a packet while another waits in
    /// its queue: start the next one. Scheduled only when a packet is
    /// waiting (a transmitter that drains its queue goes idle at its
    /// `busy_until` without an event), so each transmitter has at most one
    /// pending.
    TxDone { link: LinkId, dir: Dir },
    /// A packet fully arrived at a node (after serialization + propagation).
    Arrive { node: NodeId, packet: Packet },
    /// A transport timer registered by a host's flow fired.
    Timer {
        host: NodeId,
        flow: FlowId,
        token: u64,
    },
    /// The traffic generator should start this host's next flow.
    FlowArrival { host: NodeId },
}

impl EventKind {
    /// Number of event-kind variants (size for per-kind counter arrays).
    pub const COUNT: usize = 4;

    /// Dense per-kind index (the class rank), for per-event-type counters
    /// in the observability layer.
    pub fn index(&self) -> usize {
        self.class() as usize
    }

    /// Stable snake_case names for reports and trace files, indexed
    /// consistently with [`EventKind::index`]; flight-ring decoders take
    /// this table.
    pub const NAMES: [&'static str; EventKind::COUNT] =
        ["tx_done", "arrive", "timer", "flow_arrival"];

    /// Class rank: fixes processing order among different event types that
    /// share a timestamp. Transmitter completions come first so a packet
    /// already waiting takes the wire before a packet arriving at the same
    /// instant queues behind it. (A transmitter with nothing waiting has no
    /// completion event: it is free from its `busy_until` on, which every
    /// later-ranked event sees.)
    fn class(&self) -> u8 {
        match self {
            EventKind::TxDone { .. } => 0,
            EventKind::Arrive { .. } => 1,
            EventKind::Timer { .. } => 2,
            EventKind::FlowArrival { .. } => 3,
        }
    }

    /// Structural tag: a stable u64 key independent of scheduling order.
    fn tag(&self) -> u64 {
        match self {
            EventKind::TxDone { link, dir } => ((link.0 as u64) << 1) | dir.index() as u64,
            EventKind::Arrive { node, packet } => {
                // Packet ids are globally unique; include the node so a
                // (theoretical) duplicate delivery still orders stably.
                packet.id ^ ((node.0 as u64) << 48)
            }
            EventKind::Timer { host, flow, token } => {
                ((host.0 as u64) << 40) ^ (flow.0 << 8) ^ token
            }
            EventKind::FlowArrival { host } => host.0 as u64,
        }
    }
}

/// A scheduled event with its full ordering key.
#[derive(Clone, Debug)]
pub struct Event {
    pub time: SimTime,
    pub kind: EventKind,
    class: u8,
    tag: u64,
    seq: u64,
}

impl Event {
    pub fn new(time: SimTime, kind: EventKind, seq: u64) -> Event {
        Event {
            time,
            class: kind.class(),
            tag: kind.tag(),
            kind,
            seq,
        }
    }

    fn key(&self) -> (SimTime, u8, u64, u64) {
        (self.time, self.class, self.tag, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other.key().cmp(&self.key())
    }
}

/// Index marking the end of the freelist / an unlinked node.
const NIL: u32 = u32::MAX;

/// Number of radix buckets: bucket 0 for events at exactly the floor, and
/// one per bit position in which a 64-bit time can first differ from it.
const BUCKETS: usize = 65;

/// One pooled event node. Freed nodes stay in the slab (their `kind`
/// replaced by a placeholder — `EventKind` owns no heap data, so stale
/// payload bytes are inert) and are chained through `next_free` for reuse.
#[derive(Debug)]
struct Node {
    time: SimTime,
    class: u8,
    tag: u64,
    seq: u64,
    kind: EventKind,
    /// Freelist link; `NIL` while the node is live in a bucket.
    next_free: u32,
}

impl Node {
    #[inline]
    fn key(&self) -> (SimTime, u8, u64, u64) {
        (self.time, self.class, self.tag, self.seq)
    }
}

/// A bucket entry: a live node's time next to its slab index, so finding a
/// bucket's minimum and redistributing it read only the bucket.
struct Slot {
    time: u64,
    idx: u32,
}

/// Placeholder written into freed nodes so the previous payload (possibly a
/// packet-carrying `Arrive`) is moved out rather than cloned.
#[inline]
fn tombstone() -> EventKind {
    EventKind::FlowArrival { host: NodeId(NIL) }
}

/// The bucket of an event at `time` relative to the floor `last`: 0 when
/// they are equal, else one more than the highest bit in which they differ.
#[inline]
fn bucket_of(time: u64, last: u64) -> usize {
    (u64::BITS - (time ^ last).leading_zeros()) as usize
}

/// The future event list: a monotone radix queue over pooled nodes.
///
/// Event payloads live in pooled [`Node`]s addressed by `u32` index, and
/// completed nodes are pushed onto an intrusive freelist and recycled, so a
/// steady-state simulation stops allocating per event once the slab and
/// the buckets have grown to their high-water marks.
///
/// Ordering exploits the engine's causality: nothing is scheduled before
/// the time of the last pop (the *floor*, `last`). Bucket `b ≥ 1` holds
/// the events whose time first differs from the floor in bit `b − 1`, so
/// every event in a lower bucket is earlier than every event in a higher
/// one. Bucket 0 holds the events at exactly the floor, sorted by the full
/// `(time, class, tag, seq)` key with the next to pop at the back. When it
/// runs dry, the lowest non-empty bucket's earliest time becomes the new
/// floor and that bucket is redistributed into strictly lower ones; each
/// event moves at most 64 times over its life and a pop does no
/// log-depth sift. Pop order is exactly that of a `BinaryHeap<Event>` fed
/// the same causal schedule.
pub struct EventQueue {
    nodes: Vec<Node>,
    /// Head of the freed-node chain (`NIL` when every node is live).
    free_head: u32,
    buckets: [Vec<Slot>; BUCKETS],
    /// The floor: time of the last pop (zero before the first one).
    last: u64,
    len: usize,
    seq: u64,
    scheduled: u64,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue {
            nodes: Vec::new(),
            free_head: NIL,
            buckets: std::array::from_fn(|_| Vec::new()),
            last: 0,
            len: 0,
            seq: 0,
            scheduled: 0,
        }
    }
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedule `kind` at absolute time `time`.
    ///
    /// # Panics
    /// If `time` is earlier than the last popped event's: the engine never
    /// schedules into the past, and the queue's ordering relies on it.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.seq += 1;
        self.scheduled += 1;
        let seq = self.seq;
        assert!(
            time.0 >= self.last,
            "event scheduled at {} ns, before the last popped event at {} ns",
            time.0,
            self.last
        );
        let class = kind.class();
        let tag = kind.tag();
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next_free;
            node.time = time;
            node.class = class;
            node.tag = tag;
            node.seq = seq;
            node.kind = kind;
            node.next_free = NIL;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("event pool exceeds u32 indices");
            self.nodes.push(Node {
                time,
                class,
                tag,
                seq,
                kind,
                next_free: NIL,
            });
            idx
        };
        self.len += 1;
        let slot = Slot { time: time.0, idx };
        match bucket_of(time.0, self.last) {
            0 => {
                let nodes = &self.nodes;
                let key = nodes[idx as usize].key();
                let at = self.buckets[0].partition_point(|s| nodes[s.idx as usize].key() > key);
                self.buckets[0].insert(at, slot);
            }
            b => self.buckets[b].push(slot),
        }
    }

    /// Pop the next event in deterministic order, recycling its node.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_if(|_| true)
    }

    /// Pop the next event if it is due strictly before `until`.
    ///
    /// A `None` leaves the floor where it was, so an event can still be
    /// scheduled anywhere from the last popped time on — a PDES window
    /// that has run out of due events can receive an injected arrival
    /// before the head it refused.
    pub fn pop_before(&mut self, until: SimTime) -> Option<Event> {
        self.pop_if(|time| time < until.0)
    }

    /// Pop the head if `due(head time)`; the floor moves only on a pop.
    #[inline]
    fn pop_if(&mut self, due: impl Fn(u64) -> bool) -> Option<Event> {
        let (b, min) = self.lowest()?;
        if !due(min) {
            return None;
        }
        if b > 0 {
            self.redistribute(b, min);
        }
        Some(self.take_head())
    }

    /// The lowest non-empty bucket and the earliest time in it, which is
    /// the head's time.
    #[inline]
    fn lowest(&self) -> Option<(usize, u64)> {
        let b = self.buckets.iter().position(|v| !v.is_empty())?;
        if b == 0 {
            return Some((0, self.last));
        }
        let min = self.buckets[b].iter().map(|s| s.time).min();
        Some((b, min.expect("non-empty bucket")))
    }

    /// Make `min`, the earliest time in bucket `b`, the new floor and move
    /// every event of that bucket into the lower bucket it now belongs in.
    /// Events in higher buckets agree with the new floor above bit `b − 1`
    /// just as they did with the old one, so they stay put.
    fn redistribute(&mut self, b: usize, min: u64) {
        self.last = min;
        let mut moving = std::mem::take(&mut self.buckets[b]);
        for slot in moving.drain(..) {
            self.buckets[bucket_of(slot.time, min)].push(slot);
        }
        self.buckets[b] = moving;
        let nodes = &self.nodes;
        self.buckets[0].sort_unstable_by(|x, y| {
            nodes[y.idx as usize]
                .key()
                .cmp(&nodes[x.idx as usize].key())
        });
    }

    /// Remove the back of bucket 0 (the head) and recycle its node.
    fn take_head(&mut self) -> Event {
        let idx = self.buckets[0].pop().expect("head bucket is non-empty").idx;
        self.len -= 1;
        let node = &mut self.nodes[idx as usize];
        let time = node.time;
        let seq = node.seq;
        let kind = std::mem::replace(&mut node.kind, tombstone());
        node.next_free = self.free_head;
        self.free_head = idx;
        Event::new(time, kind, seq)
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.lowest().map(|(_, time)| SimTime(time))
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled (the paper's "events/second" metric).
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Slab capacity (live + free nodes) — the pool's high-water mark.
    #[cfg(test)]
    fn pool_size(&self) -> usize {
        self.nodes.len()
    }

    /// Slab indices of every live event, in arbitrary order.
    fn live(&self) -> impl Iterator<Item = u32> + '_ {
        self.buckets.iter().flatten().map(|s| s.idx)
    }
}

// ---------------------------------------------------------------------------
// Digest support
// ---------------------------------------------------------------------------

use crate::snapshot::{self, SnapWriter};

impl EventKind {
    /// Write the event payload through the state codec. The window digest
    /// folds these bytes, one item per queued event.
    pub fn encode_for_digest(&self, w: &mut SnapWriter) {
        match self {
            EventKind::TxDone { link, dir } => {
                w.put_u8(0);
                w.put_u32(link.0);
                w.put_u8(dir.index() as u8);
            }
            EventKind::Arrive { node, packet } => {
                w.put_u8(1);
                w.put_u32(node.0);
                snapshot::put_packet(w, packet);
            }
            EventKind::Timer { host, flow, token } => {
                w.put_u8(2);
                w.put_u32(host.0);
                w.put_u64(flow.0);
                w.put_u64(*token);
            }
            EventKind::FlowArrival { host } => {
                w.put_u8(3);
                w.put_u32(host.0);
            }
        }
    }
}

impl EventQueue {
    /// Visit every live (not yet popped) event, in arbitrary order.
    ///
    /// This is the window-digest iteration hook: callers combine per-event
    /// digests commutatively, so visit order is irrelevant, and the `seq`
    /// insertion tiebreak is deliberately not exposed — it depends on
    /// scheduling history and differs across partition counts, while the
    /// `(time, payload)` pair visible here does not.
    pub fn for_each_live(&self, mut f: impl FnMut(SimTime, &EventKind)) {
        for i in self.live() {
            let n = &self.nodes[i as usize];
            f(n.time, &n.kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), EventKind::FlowArrival { host: NodeId(1) });
        q.schedule(t(10), EventKind::FlowArrival { host: NodeId(2) });
        q.schedule(t(20), EventKind::FlowArrival { host: NodeId(3) });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn class_order_at_same_time() {
        let mut q = EventQueue::new();
        let time = t(5);
        q.schedule(time, EventKind::FlowArrival { host: NodeId(1) });
        q.schedule(
            time,
            EventKind::Timer {
                host: NodeId(1),
                flow: FlowId(1),
                token: 0,
            },
        );
        q.schedule(
            time,
            EventKind::TxDone {
                link: LinkId(0),
                dir: Dir::Up,
            },
        );
        let classes: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::TxDone { .. } => 0,
                EventKind::Arrive { .. } => 1,
                EventKind::Timer { .. } => 2,
                EventKind::FlowArrival { .. } => 3,
            })
            .collect();
        assert_eq!(classes, vec![0, 2, 3]);
    }

    #[test]
    fn tag_breaks_ties_independent_of_insertion_order() {
        // Two FlowArrival events at the same instant must pop in host order
        // regardless of scheduling order.
        for flip in [false, true] {
            let mut q = EventQueue::new();
            let (a, b) = if flip {
                (NodeId(9), NodeId(3))
            } else {
                (NodeId(3), NodeId(9))
            };
            q.schedule(t(7), EventKind::FlowArrival { host: a });
            q.schedule(t(7), EventKind::FlowArrival { host: b });
            let hosts: Vec<u32> = std::iter::from_fn(|| q.pop())
                .map(|e| match e.kind {
                    EventKind::FlowArrival { host } => host.0,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(hosts, vec![3, 9]);
        }
    }

    #[test]
    fn counts_scheduled_events() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(i), EventKind::FlowArrival { host: NodeId(0) });
        }
        assert_eq!(q.total_scheduled(), 10);
        assert_eq!(q.len(), 10);
        q.pop();
        assert_eq!(q.total_scheduled(), 10);
        assert_eq!(q.len(), 9);
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        q.schedule(
            SimTime::ZERO + SimDuration::from_millis(2),
            EventKind::FlowArrival { host: NodeId(0) },
        );
        q.schedule(
            SimTime::ZERO + SimDuration::from_millis(1),
            EventKind::FlowArrival { host: NodeId(1) },
        );
        assert_eq!(q.peek_time(), Some(t(1_000_000)));
        let e = q.pop().unwrap();
        assert_eq!(e.time, t(1_000_000));
    }

    /// A deterministic mixed-kind workload.
    fn mixed_kind(i: u64) -> EventKind {
        match i % 4 {
            0 => EventKind::TxDone {
                link: LinkId((i / 4) as u32 % 16),
                dir: if i.is_multiple_of(2) { Dir::Up } else { Dir::Down },
            },
            1 => EventKind::Arrive {
                node: NodeId((i % 32) as u32),
                packet: Packet::data(i, FlowId(i % 8), NodeId(0), NodeId(1), i % 7, 1000, true, t(i)),
            },
            2 => EventKind::Timer {
                host: NodeId((i % 16) as u32),
                flow: FlowId(i % 8),
                token: i,
            },
            _ => EventKind::FlowArrival {
                host: NodeId((i % 16) as u32),
            },
        }
    }

    #[test]
    fn pool_recycles_nodes_at_steady_state() {
        let mut q = EventQueue::new();
        // Fill to a high-water mark of 64 in-flight events...
        for i in 0..64u64 {
            q.schedule(t(i), mixed_kind(i));
        }
        let high_water = q.pool_size();
        assert_eq!(high_water, 64);
        // ...then hold-and-schedule for thousands of events: the slab must
        // not grow past the high-water mark (every pop frees a node the next
        // schedule reuses).
        for i in 64..10_000u64 {
            q.pop().unwrap();
            q.schedule(t(i), mixed_kind(i));
            assert!(q.len() == 64);
        }
        assert_eq!(q.pool_size(), high_water, "freelist failed to recycle");
    }

    /// Guard for the hand-maintained per-kind tables (`COUNT`, the
    /// `NAMES` array, `class()` ranks). The match in `ordinal` is
    /// exhaustive, so adding an `EventKind` variant fails to *compile* until
    /// this test is updated — and the updated sample array's length is tied
    /// to `COUNT`, so forgetting to bump the counter-array size fails here
    /// rather than silently misindexing `dcn-obs` counters.
    #[test]
    fn kind_tables_are_exhaustive_and_consistent() {
        fn ordinal(k: &EventKind) -> usize {
            // EXHAUSTIVE on purpose — no `_` arm. New variant? Update this
            // match, the `samples` array below, `EventKind::COUNT`,
            // `class()`, and the NAMES table together.
            match k {
                EventKind::TxDone { .. } => 0,
                EventKind::Arrive { .. } => 1,
                EventKind::Timer { .. } => 2,
                EventKind::FlowArrival { .. } => 3,
            }
        }
        let samples: [EventKind; EventKind::COUNT] = [
            EventKind::TxDone {
                link: LinkId(0),
                dir: Dir::Up,
            },
            EventKind::Arrive {
                node: NodeId(0),
                packet: Packet::data(0, FlowId(0), NodeId(0), NodeId(1), 0, 1000, true, t(0)),
            },
            EventKind::Timer {
                host: NodeId(0),
                flow: FlowId(0),
                token: 0,
            },
            EventKind::FlowArrival { host: NodeId(0) },
        ];
        let mut seen = [false; EventKind::COUNT];
        let mut names = std::collections::HashSet::new();
        for k in &samples {
            // class() is the dense per-kind index and must agree with the
            // canonical ordinal above.
            assert_eq!(k.index(), ordinal(k), "class rank disagrees with ordinal");
            assert!(k.index() < EventKind::COUNT, "index out of counter range");
            assert!(!seen[k.index()], "duplicate class rank {}", k.index());
            seen[k.index()] = true;
            let name = EventKind::NAMES[k.index()];
            assert!(names.insert(name), "duplicate name {name}");
        }
        assert!(seen.iter().all(|&s| s), "class ranks are not dense");
    }
}
