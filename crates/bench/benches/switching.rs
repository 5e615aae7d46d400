//! Criterion: whole-simulation packet-switching throughput (events/sec of
//! the sequential engine at several network sizes) — the raw cost behind
//! Figures 2 and 10–12.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dcn_sim::config::SimConfig;
use dcn_sim::simulator::Simulation;
use dcn_transport::Protocol;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    for &clusters in &[2u32, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("newreno_100ms", clusters),
            &clusters,
            |b, &clusters| {
                b.iter(|| {
                    let mut cfg = SimConfig::with_clusters(clusters);
                    cfg.duration_s = 0.1;
                    cfg.seed = 1;
                    let m = Simulation::with_transport(cfg, Protocol::NewReno.factory()).run();
                    black_box(m.events_processed)
                })
            },
        );
    }
    group.finish();
}

fn bench_queue_ops(c: &mut Criterion) {
    use dcn_sim::config::QueueSetup;
    use dcn_sim::packet::{FlowId, Packet};
    use dcn_sim::queue::PortQueue;
    use dcn_sim::time::SimTime;
    use dcn_sim::topology::NodeId;
    c.bench_function("queue/enqueue_dequeue_1k", |b| {
        b.iter(|| {
            let mut q = PortQueue::new(QueueSetup {
                capacity_bytes: 1_000_000,
                ecn_k: Some(20),
                bands: 1,
            });
            for i in 0..1000u64 {
                let p = Packet::data(
                    i,
                    FlowId(i % 16),
                    NodeId(0),
                    NodeId(1),
                    0,
                    1460,
                    true,
                    SimTime::ZERO,
                );
                q.enqueue(p);
                if i % 2 == 0 {
                    black_box(q.dequeue());
                }
            }
            black_box(q.len_pkts())
        })
    });
}

fn bench_routing(c: &mut Criterion) {
    use dcn_sim::packet::FlowId;
    use dcn_sim::routing::Router;
    use dcn_sim::topology::{FatTree, FatTreeParams};
    let topo = FatTree::new(FatTreeParams::new(32, 2, 2, 2, 2));
    let router = Router::new(topo.clone());
    c.bench_function("routing/inter_cluster_path", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for f in 0..256u64 {
                let src = topo.host((f % 31) as u32, 0, 0);
                let dst = topo.host(31, 1, 1);
                acc += router.path(FlowId(f), src, dst).len();
            }
            black_box(acc)
        })
    });
}

criterion_group!{name = benches; config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500)); targets = bench_simulation, bench_queue_ops, bench_routing}
criterion_main!(benches);
