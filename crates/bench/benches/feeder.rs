//! Criterion: feeder sampling and feature extraction — the steady-state
//! per-synthetic-packet cost inside every Mimic (paper §6's feeders fire
//! continuously during large compositions). `feeder/fire` draws a whole
//! packet view; `feeder/advance` is what a fleet's wake pays per packet,
//! the interarrival clock and features plus a replay-ring slot.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dcn_sim::time::SimTime;
use mimicnet::features::{FeatureConfig, FeatureExtractor, PacketView};
use mimicnet::feeder::{DirFit, Feeder};

fn fit() -> DirFit {
    let inter: Vec<f64> = (0..512).map(|i| 0.0005 + (i % 13) as f64 * 1e-5).collect();
    DirFit::fit(&inter, &[40.0, 1500.0, 1500.0, 1500.0])
}

fn bench_feeder_fire(c: &mut Criterion) {
    c.bench_function("feeder/fire", |b| {
        let mut f = Feeder::new(fit(), 16, 2, 2, 2, 2, 7);
        b.iter(|| {
            let t = f.next_time().expect("active feeder");
            black_box(f.fire(t).is_some())
        })
    });
}

fn bench_feeder_advance(c: &mut Criterion) {
    let cfg = FeatureConfig::from_topology(&dcn_sim::topology::FatTreeParams::new(2, 2, 2, 2, 1));
    c.bench_function("feeder/advance", |b| {
        let mut f = Feeder::new(fit(), 16, 2, 2, 2, 2, 7);
        let mut fx = FeatureExtractor::new(cfg);
        // A replay ring of the default window: (due, position, dt, ewma).
        let mut ring = [(SimTime::ZERO, 0u64, 0.0f64, 0.0f64); 12];
        let mut at = 0;
        b.iter(|| {
            let t = f.next_time().expect("active feeder");
            let (due, position) = f.tick(t).expect("due");
            let (dt, ewma) = fx.advance(due);
            ring[at] = (due, position, dt, ewma);
            at = (at + 1) % ring.len();
            black_box(&ring[at]);
        })
    });
}

fn bench_feature_extraction(c: &mut Criterion) {
    let cfg = FeatureConfig::from_topology(&dcn_sim::topology::FatTreeParams::new(2, 2, 2, 2, 1));
    c.bench_function("features/extract", |b| {
        let mut fx = FeatureExtractor::new(cfg);
        // A full congestion window, as on a live lane.
        for i in 0..32 {
            fx.observe_outcome(i as f32 / 64.0, false);
        }
        let mut row = Vec::with_capacity(cfg.width());
        let mut t = 0u64;
        b.iter(|| {
            t += 10_000;
            let v = PacketView {
                time: SimTime(t),
                wire_bytes: 1500,
                rack: (t % 2) as u32,
                server: ((t / 2) % 2) as u32,
                agg: 0,
                core: 1,
                kind: dcn_sim::packet::PacketKind::Data,
                ecn: dcn_sim::packet::Ecn::Ect,
                prio: 0,
            };
            fx.extract_into(&v, &mut row);
            black_box(row[0])
        })
    });
}

fn bench_fit(c: &mut Criterion) {
    let inter: Vec<f64> = (0..10_000).map(|i| 0.0005 + (i % 97) as f64 * 1e-6).collect();
    let sizes: Vec<f64> = (0..10_000).map(|i| if i % 3 == 0 { 40.0 } else { 1500.0 }).collect();
    c.bench_function("feeder/fit_10k", |b| {
        b.iter(|| black_box(DirFit::fit(&inter, &sizes).rate_pps))
    });
}

criterion_group!{name = benches; config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500)); targets = bench_feeder_fire, bench_feeder_advance, bench_feature_extraction, bench_fit}
criterion_main!(benches);
