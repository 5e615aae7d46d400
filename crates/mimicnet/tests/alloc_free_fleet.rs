//! The Mimic fleet's hot path must not allocate in steady state.
//!
//! The fleet's buffers (feature scratch, per-flow FIFO maps, per-lane gate
//! scratch) are all grow-once: after a warmup that reaches steady-state
//! capacity, many more boundary packets of the same flows, with feeder
//! wakes run both on demand and as idle work, must leave the global
//! allocation count untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

use dcn_sim::mimic::{BoundaryDir, BoundaryItem, ClusterModel};
use dcn_sim::packet::{FlowId, Packet};
use dcn_sim::time::SimTime;
use dcn_sim::topology::FatTree;
use mimic_ml::train::TrainConfig;
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::drift::FeatureEnvelope;
use mimicnet::fleet::MimicFleet;
use mimicnet::internal_model::InternalModel;
use mimicnet::mimic::{TrainWindow, TrainedMimic};

/// Build one round of 64 crossings: 8 recurring flows across 3 clusters,
/// both directions, enqueue times advancing from `base`.
fn fill_round(items: &mut Vec<BoundaryItem>, topo: &FatTree, base: SimTime, round: u64) {
    items.clear();
    let obs = topo.host(0, 0, 0);
    for i in 0..64u64 {
        let cluster = 1 + (i % 3) as u32;
        let flow = FlowId(1 + i % 8);
        let local = topo.host(cluster, (i % 2) as u32, ((i / 2) % 2) as u32);
        let dir = if i % 2 == 0 {
            BoundaryDir::Ingress
        } else {
            BoundaryDir::Egress
        };
        let (src, dst) = match dir {
            BoundaryDir::Ingress => (obs, local),
            BoundaryDir::Egress => (local, obs),
        };
        let t = SimTime(base.0 + i * 500);
        let pkt = Packet::data(round * 64 + i + 1, flow, src, dst, i * 1460, 1460, i % 3 == 0, t);
        items.push(BoundaryItem {
            cluster,
            dir,
            pkt,
            enqueued_at: t,
        });
    }
}

#[test]
fn infer_and_wakes_do_not_allocate_after_warmup() {
    let mut cfg = DataGenConfig::default();
    cfg.sim.duration_s = 0.3;
    cfg.sim.seed = 77;
    let td = generate(&cfg);
    let tc = TrainConfig {
        epochs: 1,
        window: 4,
        ..TrainConfig::default()
    };
    let (ing, _) = InternalModel::train_stacked(&td.ingress, td.ingress_disc, 8, 1, &tc)
        .expect("valid training setup");
    let (eg, _) = InternalModel::train_stacked(&td.egress, td.egress_disc, 8, 1, &tc)
        .expect("valid training setup");
    let bundle = TrainedMimic {
        ingress: ing,
        egress: eg,
        feature_cfg: td.feature_cfg,
        feeder: td.feeder,
        envelope: FeatureEnvelope::fit(&td.ingress.features),
        window: TrainWindow(tc.window),
    };
    let mut topo = cfg.sim.topo;
    topo.clusters = 4;
    let t = FatTree::new(topo);
    let seeds: Vec<(u32, u64)> = (1..4).map(|c| (c, 9 ^ (0xC0DE_0000 + c as u64))).collect();
    let mut fleet = MimicFleet::new(bundle, topo, 4, &seeds);

    let mut items = Vec::new();
    let at = |r: u64| SimTime::from_secs_f64(0.01 + r as f64 * 1e-4);

    // One round of crossings, each warming its cluster up on demand, then
    // idle time up to the next round for one cluster in turn. Returns the
    // wakes run as idle work.
    let mut round_trip = |items: &mut Vec<BoundaryItem>, round: u64| {
        fill_round(items, &t, at(round), round);
        for item in items.iter() {
            while fleet.idle(item.cluster, item.enqueued_at) {}
            std::hint::black_box(fleet.infer(item));
        }
        let mut idle = 0;
        while fleet.idle(1 + (round % 3) as u32, at(round + 1)) {
            idle += 1;
        }
        idle
    };

    // Warm up: per-flow FIFO maps, drift windows and feeder queues all
    // reach steady-state capacity.
    for round in 0..100u64 {
        round_trip(&mut items, round);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let idle: u64 = (100..400u64).map(|round| round_trip(&mut items, round)).sum();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "the fleet allocated {} times over 300 rounds",
        after - before
    );
    assert!(idle > 0, "no wake ran as idle work");
    assert!(fleet.feeder_packets > 0, "no feeder packet ran");
}
