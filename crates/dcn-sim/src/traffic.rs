//! Workload generation.
//!
//! Each host runs an independent Poisson flow-arrival process whose rate is
//! set so the host offers `load × access_bandwidth` of traffic on average.
//! Flow sizes come from a configurable distribution (the default is the
//! heavy-tailed web-search-style empirical CDF used across the DC
//! literature and by the paper), and destinations are chosen with a
//! cluster-locality parameter `p` — the fraction of traffic that leaves the
//! source cluster.
//!
//! **Scale independence.** Per the paper's restriction (§4.2), the per-host
//! model of flow arrival, flow size, and locality does not depend on the
//! number of clusters; only the spread of inter-cluster destinations does.
//! Each host draws from its own seeded stream, so host `h`'s workload is
//! identical in a 2-cluster and a 128-cluster simulation of the same seed —
//! the property MimicNet's train-small/predict-big pipeline relies on, and
//! the property that lets a Mimic composition replay exactly the
//! ground-truth workload for observable traffic.

use crate::config::{FlowSizeDist, TrafficConfig};
use crate::packet::FlowId;
use crate::rng::{EmpiricalCdf, SplitMix64};
use crate::time::{SimDuration, SimTime};
use crate::topology::{FatTree, NodeId};
use crate::transport::FlowSpec;

/// The web-search flow-size CDF *shape* (values in "shape bytes" that get
/// rescaled to the configured mean). Breakpoints follow the widely used
/// DCTCP measurement: mostly small flows with a heavy elephant tail.
fn web_search_shape() -> EmpiricalCdf {
    EmpiricalCdf::new(vec![
        (600.0, 0.00),
        (6_000.0, 0.15),
        (13_000.0, 0.30),
        (19_000.0, 0.40),
        (33_000.0, 0.53),
        (53_000.0, 0.60),
        (133_000.0, 0.70),
        (667_000.0, 0.80),
        (1_333_000.0, 0.90),
        (3_333_000.0, 0.97),
        (6_667_000.0, 1.00),
    ])
}

/// Per-host generator state.
#[derive(Clone, Debug)]
struct HostGen {
    rng: SplitMix64,
    flow_counter: u64,
}

/// A freshly sampled flow plus when the host's next flow arrives.
#[derive(Clone, Debug)]
pub struct GeneratedFlow {
    pub spec: FlowSpec,
    pub next_arrival: SimTime,
}

/// Deterministic workload generator for all hosts.
pub struct TrafficGen {
    topo: FatTree,
    cfg: TrafficConfig,
    /// Mean interarrival time per host.
    mean_interarrival: SimDuration,
    web_search: EmpiricalCdf,
    hosts: Vec<HostGen>,
}

impl TrafficGen {
    /// Build the generator. `host_bw_bps` is the access link speed used to
    /// convert `load` into a flow arrival rate.
    pub fn new(topo: FatTree, cfg: TrafficConfig, host_bw_bps: u64, seed: u64) -> TrafficGen {
        assert!(cfg.load > 0.0 && cfg.load <= 2.0, "load out of range");
        assert!(
            (0.0..=1.0).contains(&cfg.inter_cluster_fraction),
            "locality fraction must be a probability"
        );
        let mean_bytes = cfg.size.mean_bytes();
        assert!(mean_bytes > 0.0);
        // flows/sec so that load * bw bits/sec are offered on average.
        let rate = cfg.load * host_bw_bps as f64 / (mean_bytes * 8.0);
        let hosts = (0..topo.params.num_hosts())
            .map(|h| HostGen {
                // Tag streams by purpose (0x7 = traffic) and host id.
                rng: SplitMix64::derive(seed, 0x7000_0000_0000_0000 | h as u64),
                flow_counter: 0,
            })
            .collect();
        TrafficGen {
            topo,
            cfg,
            mean_interarrival: SimDuration::from_secs_f64(1.0 / rate),
            web_search: web_search_shape(),
            hosts,
        }
    }

    /// Mean flow interarrival per host.
    pub fn mean_interarrival(&self) -> SimDuration {
        self.mean_interarrival
    }

    /// The first arrival offset for `host` (call once at start of run).
    pub fn first_arrival(&mut self, host: NodeId) -> SimTime {
        let g = &mut self.hosts[host.0 as usize];
        let dt = g.rng.exp(self.mean_interarrival.as_secs_f64());
        SimTime::ZERO + SimDuration::from_secs_f64(dt)
    }

    /// Sample `host`'s next flow starting at `now`, plus its next arrival
    /// time. The draw sequence (interarrival, size, locality, destination)
    /// is fixed so that filtering flows out (Mimic composition) never
    /// perturbs later draws.
    pub fn next(&mut self, host: NodeId, now: SimTime) -> GeneratedFlow {
        let params = self.topo.params;
        let g = &mut self.hosts[host.0 as usize];

        let dt = g.rng.exp(self.mean_interarrival.as_secs_f64());
        let next_arrival = now + SimDuration::from_secs_f64(dt);

        let size_bytes = match self.cfg.size {
            FlowSizeDist::WebSearch { mean_bytes } => {
                let scale = mean_bytes / self.web_search.mean();
                (self.web_search.sample(&mut g.rng) * scale).max(1.0) as u64
            }
            FlowSizeDist::Fixed { bytes } => bytes,
            FlowSizeDist::Pareto { mean_bytes, shape } => {
                assert!(shape > 1.0, "Pareto mean requires shape > 1");
                let xm = mean_bytes * (shape - 1.0) / shape;
                g.rng.pareto(xm, shape).max(1.0) as u64
            }
            FlowSizeDist::Uniform {
                min_bytes,
                max_bytes,
            } => min_bytes + g.rng.next_below(max_bytes - min_bytes + 1),
        };

        let (src_cluster, _, _) = self.topo.host_coords(host);
        let hosts_per_cluster = params.hosts_per_cluster();
        // Incast concentrates traffic on a cluster's first `sinks` hosts.
        let within_span = match self.cfg.pattern {
            crate::config::TrafficPattern::Uniform => hosts_per_cluster,
            crate::config::TrafficPattern::Incast { sinks } => {
                sinks.clamp(1, hosts_per_cluster)
            }
        };
        let go_inter = g.rng.bernoulli(self.cfg.inter_cluster_fraction)
            || within_span == 1 && hosts_per_cluster == 1; // can't stay local alone
        let dst = if go_inter && params.clusters > 1 {
            // Uniform over (allowed hosts) of the other clusters.
            let other = g.rng.next_below(((params.clusters - 1) * within_span) as u64);
            let cluster = other as u32 / within_span;
            let cluster = if cluster >= src_cluster { cluster + 1 } else { cluster };
            let within = other as u32 % within_span;
            self.topo.host(
                cluster,
                within / params.hosts_per_rack,
                within % params.hosts_per_rack,
            )
        } else {
            // Uniform over the (allowed) other hosts of this cluster.
            let local_index = host.0 % hosts_per_cluster;
            let exclude_self = local_index < within_span;
            let span = if exclude_self { within_span - 1 } else { within_span };
            let span = span.max(1);
            let mut within = g.rng.next_below(span as u64) as u32;
            if exclude_self && within >= local_index {
                within += 1;
            }
            let within = within.min(hosts_per_cluster - 1);
            self.topo.host(
                src_cluster,
                within / params.hosts_per_rack,
                within % params.hosts_per_rack,
            )
        };

        g.flow_counter += 1;
        let id = FlowId(((host.0 as u64) << 32) | g.flow_counter);
        GeneratedFlow {
            spec: FlowSpec {
                id,
                src: host,
                dst,
                size_bytes,
                start: now,
            },
            next_arrival,
        }
    }
}

impl TrafficGen {
    /// One host's generator state `(rng_state, flow_counter)`. The window
    /// digest reads this per owned host, so each host's stream is
    /// attributed to exactly one LP.
    pub fn host_state(&self, host: NodeId) -> (u64, u64) {
        let g = &self.hosts[host.0 as usize];
        (g.rng.state(), g.flow_counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrafficConfig;
    use crate::topology::{FatTree, FatTreeParams};

    fn gen_with(clusters: u32, seed: u64) -> TrafficGen {
        let topo = FatTree::new(FatTreeParams::new(clusters, 2, 2, 2, 1));
        TrafficGen::new(topo, TrafficConfig::default(), 10_000_000, seed)
    }

    #[test]
    fn arrival_rate_matches_load() {
        let g = gen_with(2, 5);
        // mean size 80 KB @ 10 Mbps, load 0.7 -> 10.9375 flows/s.
        let expect = 0.7 * 10e6 / (80_000.0 * 8.0);
        let mean = g.mean_interarrival().as_secs_f64();
        assert!((1.0 / mean - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn flows_never_target_self() {
        let mut g = gen_with(2, 1);
        let h = NodeId(0);
        let mut now = SimTime::ZERO;
        for _ in 0..2000 {
            let f = g.next(h, now);
            assert_ne!(f.spec.dst, h);
            now = f.next_arrival;
        }
    }

    #[test]
    fn locality_fraction_respected() {
        let topo = FatTree::new(FatTreeParams::new(4, 2, 2, 2, 1));
        let cfg = TrafficConfig {
            inter_cluster_fraction: 0.3,
            ..TrafficConfig::default()
        };
        let mut g = TrafficGen::new(topo.clone(), cfg, 10_000_000, 2);
        let h = topo.host(1, 0, 0);
        let n = 5000;
        let mut inter = 0;
        for _ in 0..n {
            let f = g.next(h, SimTime::ZERO);
            if topo.cluster_of(f.spec.dst) != Some(1) {
                inter += 1;
            }
        }
        let frac = inter as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "inter fraction {frac}");
    }

    #[test]
    fn host_stream_is_independent_of_cluster_count() {
        // The same host must see the same flow sizes & start times whether
        // the network has 2 or 8 clusters (destinations may differ).
        let mut a = gen_with(2, 9);
        let mut b = gen_with(8, 9);
        let h = NodeId(1);
        let mut now_a = SimTime::ZERO;
        let mut now_b = SimTime::ZERO;
        for _ in 0..200 {
            let fa = a.next(h, now_a);
            let fb = b.next(h, now_b);
            assert_eq!(fa.spec.size_bytes, fb.spec.size_bytes);
            assert_eq!(fa.next_arrival, fb.next_arrival);
            assert_eq!(fa.spec.id, fb.spec.id);
            now_a = fa.next_arrival;
            now_b = fb.next_arrival;
        }
    }

    #[test]
    fn offered_load_empirically_close() {
        let mut g = gen_with(2, 123);
        let h = NodeId(2);
        let mut now = SimTime::ZERO;
        let mut bytes = 0u64;
        let mut flows = 0u64;
        while now.as_secs_f64() < 2000.0 {
            let f = g.next(h, now);
            bytes += f.spec.size_bytes;
            flows += 1;
            now = f.next_arrival;
        }
        let offered_bps = bytes as f64 * 8.0 / now.as_secs_f64();
        let target = 0.7 * 10e6;
        assert!(
            (offered_bps - target).abs() / target < 0.15,
            "offered {offered_bps} vs target {target} over {flows} flows"
        );
    }

    #[test]
    fn web_search_is_heavy_tailed() {
        let mut g = gen_with(2, 77);
        let h = NodeId(0);
        let sizes: Vec<u64> = (0..20_000).map(|_| g.next(h, SimTime::ZERO).spec.size_bytes).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        // Heavy tail: mean far above median.
        assert!(mean > 3.0 * median, "mean {mean} median {median}");
        // And the mean should approximate the configured 80 KB.
        assert!((mean - 80_000.0).abs() / 80_000.0 < 0.15, "mean {mean}");
    }

    #[test]
    fn incast_concentrates_destinations() {
        use crate::config::TrafficPattern;
        let topo = FatTree::new(FatTreeParams::new(4, 2, 2, 2, 1));
        let cfg = TrafficConfig {
            pattern: TrafficPattern::Incast { sinks: 1 },
            inter_cluster_fraction: 1.0,
            ..TrafficConfig::default()
        };
        let mut g = TrafficGen::new(topo.clone(), cfg, 10_000_000, 3);
        for _ in 0..500 {
            let f = g.next(topo.host(0, 1, 1), SimTime::ZERO);
            let (_, rack, slot) = topo.host_coords(f.spec.dst);
            assert_eq!((rack, slot), (0, 0), "incast must target the sink host");
            assert_ne!(topo.cluster_of(f.spec.dst), Some(0));
        }
    }

    #[test]
    fn incast_never_targets_self_intra_cluster() {
        use crate::config::TrafficPattern;
        let topo = FatTree::new(FatTreeParams::new(2, 2, 2, 2, 1));
        let cfg = TrafficConfig {
            pattern: TrafficPattern::Incast { sinks: 2 },
            inter_cluster_fraction: 0.0,
            ..TrafficConfig::default()
        };
        let mut g = TrafficGen::new(topo.clone(), cfg, 10_000_000, 9);
        for h in 0..4u32 {
            for _ in 0..200 {
                let f = g.next(NodeId(h), SimTime::ZERO);
                assert_ne!(f.spec.dst, NodeId(h), "self-flow generated");
            }
        }
    }

    #[test]
    fn flow_ids_unique_across_hosts() {
        let mut g = gen_with(2, 4);
        let mut seen = std::collections::HashSet::new();
        for h in 0..8u32 {
            for _ in 0..50 {
                let f = g.next(NodeId(h), SimTime::ZERO);
                assert!(seen.insert(f.spec.id), "duplicate flow id");
            }
        }
    }
}
