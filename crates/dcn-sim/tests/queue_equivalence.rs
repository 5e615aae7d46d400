//! Property tests locking the event queue to the reference ordering
//! (DESIGN.md §12): a `BinaryHeap<Event>` filled through [`Event::new`]
//! with a strictly increasing insertion `seq`.
//!
//! The op streams are causal, like the engine: nothing is scheduled before
//! the time of the last pop, which the queue's radix ordering relies on and
//! asserts. Under arbitrary interleavings of such scheduling, cancellation
//! (pops — the engine layer cancels lazily, so a pop is the removal
//! primitive) and windowed pops (`pop_before`, as a PDES window drains its
//! due events), the queue must pop exactly like the reference; the live
//! set it hands the window digest (`for_each_live`) must equal the
//! reference's queued events, encoded through the event codec; and all of
//! that must hold at every partition count the PDES layer runs (1/2/4
//! queues fed disjoint slices of the op stream).
//!
//! The same reference prices the queue: [`queue_keeps_its_ratio_over_the_heap`]
//! times both at steady state in alternating pairs and bounds the median
//! ratio. It is `#[ignore]`d, since it means something only in release
//! with the harness on one thread:
//!
//! ```text
//! cargo test --release -p dcn-sim --test queue_equivalence -- --ignored --test-threads=1
//! ```

use dcn_sim::event::{Event, EventKind, EventQueue};
use dcn_sim::link::Dir;
use dcn_sim::packet::{FlowId, Packet};
use dcn_sim::snapshot::SnapWriter;
use dcn_sim::time::SimTime;
use dcn_sim::topology::{LinkId, NodeId};
use proptest::prelude::*;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Build a mixed-kind event from two raw random words, covering every
/// variant (including packet-carrying `Arrive`, the pool's reason to
/// exist) with collision-heavy payload fields so `tag` tiebreaks engage.
fn kind_of(a: u64, b: u64) -> EventKind {
    match a % 4 {
        0 => EventKind::TxDone {
            link: LinkId((b % 16) as u32),
            dir: if b.is_multiple_of(2) { Dir::Up } else { Dir::Down },
        },
        1 => {
            let mut p = Packet::data(
                b,
                FlowId(b % 8),
                NodeId((b % 32) as u32),
                NodeId(((b + 1) % 32) as u32),
                b % 11,
                1000,
                b.is_multiple_of(3),
                SimTime(b % 50),
            );
            p.flow_size = 10_000;
            EventKind::Arrive {
                node: NodeId((b % 32) as u32),
                packet: p,
            }
        }
        2 => EventKind::Timer {
            host: NodeId((b % 16) as u32),
            flow: FlowId(b % 8),
            token: b % 13,
        },
        _ => EventKind::FlowArrival {
            host: NodeId((b % 16) as u32),
        },
    }
}

/// Full fingerprint of a popped event (time + every payload field, via the
/// derived Debug repr — cheap and exhaustive for a test).
fn fp(e: &Event) -> String {
    format!("{:?}@{:?}", e.time.0, e.kind)
}

/// `(time, payload bytes)` of one queued event, as the window digest
/// sees it.
fn digest_item(time: SimTime, kind: &EventKind) -> (u64, Vec<u8>) {
    let mut w = SnapWriter::new();
    kind.encode_for_digest(&mut w);
    (time.0, w.into_bytes())
}

/// The reference future event list.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Event>,
    seq: u64,
}

impl Reference {
    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Event::new(time, kind, self.seq));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn pop_before(&mut self, until: SimTime) -> Option<Event> {
        if self.peek_time()? < until {
            self.pop()
        } else {
            None
        }
    }

    /// Every queued event as a digest item, sorted.
    fn live_items(&self) -> Vec<(u64, Vec<u8>)> {
        let mut items: Vec<_> = self.heap.iter().map(|e| digest_item(e.time, &e.kind)).collect();
        items.sort();
        items
    }
}

/// Apply one op stream to `parts` queue/reference pairs and check identical
/// behavior throughout. Each op is (selector, time, payload); the pair
/// index is derived from the payload so streams interleave across
/// partitions like PDES LPs interleave scheduling. `time` is an offset
/// from the partition's floor (its last popped time), so every stream is
/// causal.
fn check_equivalence(ops: &[(u8, u64, u64)], parts: usize) -> Result<(), TestCaseError> {
    let mut queue: Vec<EventQueue> = (0..parts).map(|_| EventQueue::new()).collect();
    let mut reference: Vec<Reference> = (0..parts).map(|_| Reference::default()).collect();
    let mut floor = vec![0u64; parts];
    for &(sel, time, payload) in ops {
        let p = (payload % parts as u64) as usize;
        // Offsets come from a tiny range on purpose: simultaneity is the
        // hard case.
        let at = SimTime(floor[p] + time % 37);
        match sel % 8 {
            // Schedule (selectors 0..=4 weight scheduling 5:3 against the
            // other ops so queues grow and tiebreaks pile up).
            0..=4 => {
                queue[p].schedule(at, kind_of(sel as u64, payload));
                reference[p].schedule(at, kind_of(sel as u64, payload));
            }
            // Windowed pop with the window end drawn near the floor: the
            // reference head comes out iff it is due before `at`.
            5 => {
                let head = reference[p].peek_time();
                let a = queue[p].pop_before(at);
                let b = reference[p].pop_before(at);
                prop_assert_eq!(
                    a.as_ref().map(fp),
                    b.as_ref().map(fp),
                    "pop_before diverged (partition {})",
                    p
                );
                if let Some(e) = a {
                    floor[p] = e.time.0;
                } else if let Some(head) = head.filter(|h| h.0 > floor[p]) {
                    // A refused head must not have moved the floor: an
                    // arrival injected between the floor and that head is
                    // still accepted, and pops first.
                    let early = SimTime(floor[p] + payload % (head.0 - floor[p]));
                    queue[p].schedule(early, kind_of(payload, sel as u64));
                    reference[p].schedule(early, kind_of(payload, sel as u64));
                    let a = queue[p].pop().map(|e| fp(&e));
                    let b = reference[p].pop().map(|e| fp(&e));
                    prop_assert_eq!(
                        &a,
                        &b,
                        "pop after a refused window diverged (partition {})",
                        p
                    );
                    prop_assert!(a.is_some_and(|f| f.starts_with(&format!("{}@", early.0))));
                    floor[p] = early.0;
                }
            }
            // Cancel: the engine cancels lazily, so removal == pop.
            6 => {
                let a = queue[p].pop();
                let b = reference[p].pop();
                prop_assert_eq!(
                    a.as_ref().map(fp),
                    b.as_ref().map(fp),
                    "mid-stream pop diverged (partition {})",
                    p
                );
                if let Some(e) = a {
                    floor[p] = e.time.0;
                }
            }
            // Live set: what the window digest folds must be exactly the
            // reference's queued events, payload bytes included.
            _ => {
                let mut live = Vec::new();
                queue[p].for_each_live(|time, kind| live.push(digest_item(time, kind)));
                live.sort();
                prop_assert_eq!(live, reference[p].live_items(), "live set diverged (partition {})", p);
            }
        }
        prop_assert_eq!(queue[p].len(), reference[p].heap.len());
        prop_assert_eq!(queue[p].peek_time(), reference[p].peek_time());
    }
    // Drain everything: the full remaining order must match exactly.
    for p in 0..parts {
        loop {
            let a = queue[p].pop().map(|e| fp(&e));
            let b = reference[p].pop().map(|e| fp(&e));
            prop_assert_eq!(&a, &b, "drain diverged (partition {})", p);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(queue[p].total_scheduled(), reference[p].seq);
    }
    Ok(())
}

/// The queue's contract is the engine's causality: scheduling before the
/// last popped event is a bug in the caller, and it fails loudly.
#[test]
#[should_panic(expected = "before the last popped event")]
fn scheduling_before_the_last_pop_panics() {
    let mut q = EventQueue::new();
    q.schedule(SimTime(10), kind_of(3, 1));
    q.schedule(SimTime(20), kind_of(3, 2));
    q.pop();
    q.schedule(SimTime(9), kind_of(3, 3));
}

proptest! {
    #[test]
    fn pooled_queue_matches_reference_1_partition(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..400),
    ) {
        check_equivalence(&ops, 1)?;
    }

    #[test]
    fn pooled_queue_matches_reference_2_partitions(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..400),
    ) {
        check_equivalence(&ops, 2)?;
    }

    #[test]
    fn pooled_queue_matches_reference_4_partitions(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..400),
    ) {
        check_equivalence(&ops, 4)?;
    }
}

/// Events resident in each queue while it is timed, and pop+reschedule
/// pairs per timed side.
const HOLD: u64 = 8192;
const OPS: u64 = 16_384;
/// Alternating (reference, queue) pairs per run.
const PAIRS: usize = 41;
/// Lower bound on the median `reference / queue` ratio. Sixty release
/// processes on a 2-core host read medians of 2.50–3.07; forty of the
/// same build with a spin in `EventQueue::pop` that makes a
/// pop+reschedule 25 % slower read 2.07–2.38, but for one reading of
/// 2.57. The bound sits between the two.
const MIN_RATIO: f64 = 2.4;

/// The engine's steady mix: every other event a packet-carrying `Arrive`,
/// the rest bookkeeping kinds.
fn steady_kind(i: u64) -> EventKind {
    kind_of(if i.is_multiple_of(2) { 1 } else { i }, i)
}

/// The hold model: `pop_reschedule(i)` pops the earliest event and
/// schedules one a little later, for `OPS` steps from step `from`;
/// nanoseconds per step.
fn hold_ops(from: u64, mut pop_reschedule: impl FnMut(u64) -> Event) -> f64 {
    let t0 = Instant::now();
    for i in from..from + OPS {
        std::hint::black_box(pop_reschedule(i));
    }
    t0.elapsed().as_nanos() as f64 / OPS as f64
}

/// When step `i` reschedules after popping `e`.
fn later(e: &Event, i: u64) -> SimTime {
    SimTime(e.time.0 + 100 + i % 97)
}

/// The queue's reason to exist is speed over the heap it replaced: a pop
/// redistributes one small radix bucket instead of a log-depth sift that
/// moves whole `Event`s. Both hold `HOLD` events under the same op stream.
#[test]
#[ignore = "timing; run in release with --ignored --test-threads=1"]
fn queue_keeps_its_ratio_over_the_heap() {
    let mut queue = EventQueue::new();
    let mut reference = Reference::default();
    for i in 0..HOLD {
        let at = SimTime(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000_000);
        queue.schedule(at, steady_kind(i));
        reference.schedule(at, steady_kind(i));
    }
    let (mut ratios, mut queue_ns) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    // Four unmeasured pairs bring both to steady-state capacity.
    for pair in 0..PAIRS + 4 {
        let from = pair as u64 * OPS;
        let heap = hold_ops(from, |i| {
            let e = reference.pop().expect("primed");
            reference.schedule(later(&e, i), steady_kind(i));
            e
        });
        let pooled = hold_ops(from, |i| {
            let e = queue.pop().expect("primed");
            queue.schedule(later(&e, i), steady_kind(i));
            e
        });
        if pair >= 4 {
            ratios.push(heap / pooled);
            queue_ns.push(pooled);
        }
    }
    assert_eq!(queue.len(), reference.heap.len());
    ratios.sort_by(f64::total_cmp);
    queue_ns.sort_by(f64::total_cmp);
    let median = ratios[PAIRS / 2];
    println!(
        "heap/queue median {median:.2} over {PAIRS} pairs (Q1 {:.2}, Q3 {:.2}; bound {MIN_RATIO}); \
         queue {:.1} ns per pop+reschedule",
        ratios[PAIRS / 4],
        ratios[3 * PAIRS / 4],
        queue_ns[PAIRS / 2]
    );
    assert!(
        median >= MIN_RATIO,
        "EventQueue lost ground on the BinaryHeap reference: median heap/queue \
         {median:.2} < {MIN_RATIO}"
    );
}
