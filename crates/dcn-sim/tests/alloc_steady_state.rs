//! The sequential event loop must be allocation-light in steady state.
//!
//! Counterpart of `mimicnet/tests/alloc_free_fleet.rs` for the engine
//! itself (first step of the ROADMAP arena audit): after a warmup window
//! that grows every arena to steady-state capacity — event heap, link
//! queues, transport scratch, metric sample buffers — continuing the run
//! may allocate only for genuinely new state (flow endpoints, their
//! transport boxes) plus amortized container growth, never per event or
//! per packet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BY_SIZE: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];

fn bucket(size: usize) -> usize {
    (usize::BITS - size.max(1).leading_zeros()) as usize % 16
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BY_SIZE[bucket(layout.size())].fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use dcn_sim::config::SimConfig;
use dcn_sim::simulator::Simulation;
use dcn_sim::time::SimDuration;

#[test]
fn sequential_event_loop_is_allocation_light_after_warmup() {
    let mut cfg = SimConfig::small_scale();
    cfg.duration_s = 1.0;
    cfg.seed = 42;
    let mut sim = Simulation::new(cfg);

    // Warm up half the run: the event heap, per-port queues, endpoint
    // maps, and sample buffers all reach (or overshoot toward) their
    // steady-state capacity.
    let half = SimDuration::from_secs_f64(cfg.duration_s / 2.0);
    let mid = dcn_sim::time::SimTime::ZERO + half;
    let leftover = sim.run_window(mid);
    assert!(leftover.is_empty(), "sequential run exported remote events");
    let events_before = sim.metrics().events_processed;
    let flows_before = sim.metrics().flows_started();

    let before = ALLOCS.load(Ordering::Relaxed);
    let snap: Vec<u64> = BY_SIZE.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let leftover = sim.run_window(sim.end_time() + SimDuration::from_nanos(1));
    let after = ALLOCS.load(Ordering::Relaxed);
    // Per-size-class deltas, folded into the failure message so a tripped
    // budget points straight at the allocation site's size class.
    let breakdown: String = snap
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            let d = BY_SIZE[i].load(Ordering::Relaxed) - s;
            (d > 0).then(|| format!("\n  size <=2^{i}: {d} allocs"))
        })
        .collect();
    assert!(leftover.is_empty(), "sequential run exported remote events");

    let events = sim.metrics().events_processed - events_before;
    let flows = sim.metrics().flows_started() - flows_before;
    let allocs = after - before;
    // With the event-node pool and endpoint freelists in place, a new flow
    // costs at most one allocation beyond the recycled state (a metrics
    // map entry); everything else must be amortized container doubling.
    // Any per-event or per-packet churn sneaking into the hot path trips
    // this immediately.
    let budget = flows as u64 + 64;
    assert!(
        allocs <= budget,
        "hot loop allocated {allocs} times over {events} events \
         ({flows} new flows; budget {budget}); by size class:{breakdown}"
    );
    assert!(events > 1000, "measurement window too small: {events} events");
}
