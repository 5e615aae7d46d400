//! Simulation configuration.
//!
//! A [`SimConfig`] plus a transport factory fully determines a run. The
//! defaults mirror the paper's evaluation setup (§9 "Methodology") with all
//! scales reduced so that full-fidelity ground truth remains computable on
//! one CPU — the same reason the paper capped links at 100 Mbps ("higher
//! speeds and larger networks were not feasible due to the limitation of
//! needing to evaluate MimicNet against a full-fidelity simulation").
//! See DESIGN.md §1 for the complete substitution table.

use crate::error::SimError;
use crate::time::SimDuration;
use crate::topology::FatTreeParams;
use serde::{Deserialize, Serialize};

/// Link speeds and latencies per tier.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Host access link bandwidth, bits/s.
    pub host_bw_bps: u64,
    /// Fabric (ToR-Agg, Agg-Core) link bandwidth, bits/s.
    pub fabric_bw_bps: u64,
    /// One-way propagation latency of every link (the paper uses a uniform
    /// 500 µs).
    pub latency: SimDuration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            // Paper: 100 Mbps / 500 us. We keep the latency and cut the
            // bandwidth 10x, which shrinks per-second packet counts while
            // preserving multi-packet BDP queueing dynamics.
            host_bw_bps: 10_000_000,
            fabric_bw_bps: 10_000_000,
            latency: SimDuration::from_micros(500),
        }
    }
}

/// Queue discipline applied at every switch/host port.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QueueSetup {
    /// Per-port capacity in bytes.
    pub capacity_bytes: u64,
    /// DCTCP-style ECN marking threshold in packets, if enabled.
    pub ecn_k: Option<u32>,
    /// Strict-priority bands (1 = FIFO; Homa uses 8).
    pub bands: u8,
}

impl Default for QueueSetup {
    fn default() -> Self {
        QueueSetup {
            // ~66 full-size packets, a typical shallow DC buffer.
            capacity_bytes: 100_000,
            ecn_k: None,
            bands: 1,
        }
    }
}

/// Flow size distributions.
///
/// The paper's workload "uses traces from a well-known distribution also
/// used by many recent data center proposals" (the DCTCP/pFabric web-search
/// distribution) with a configurable mean. All variants are parameterized
/// by their mean so that workloads scale proportionally with no dependence
/// on network size (§4.2 "Traffic patterns that scale proportionally").
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum FlowSizeDist {
    /// Heavy-tailed empirical web-search-style distribution, rescaled to
    /// the given mean.
    WebSearch { mean_bytes: f64 },
    /// Every flow the same size.
    Fixed { bytes: u64 },
}

impl FlowSizeDist {
    /// Mean flow size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        match *self {
            FlowSizeDist::WebSearch { mean_bytes } => mean_bytes,
            FlowSizeDist::Fixed { bytes } => bytes as f64,
        }
    }
}

/// How destinations are chosen within the target cluster.
#[derive(Clone, Copy, Debug, Serialize, Deserialize, PartialEq)]
pub enum TrafficPattern {
    /// Uniform over the cluster's hosts (the paper's workload).
    Uniform,
    /// Incast: all traffic converges on the cluster's first `sinks` hosts
    /// — a deliberate fan-in stressor for the paper's "congestion occurs
    /// primarily on fan-in" assumption (§4.2).
    Incast { sinks: u32 },
}

/// Workload parameters. Everything is per-host and size-independent.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Offered load as a fraction of host access bandwidth (the paper's
    /// "70% of the bisection bandwidth" under symmetric FatTrees).
    pub load: f64,
    /// Flow size distribution.
    pub size: FlowSizeDist,
    /// Fraction of traffic that leaves its source cluster (the paper's
    /// `p`, 0 ≤ p ≤ 1).
    pub inter_cluster_fraction: f64,
    /// Destination selection within the target cluster.
    pub pattern: TrafficPattern,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            load: 0.7,
            // Paper mean: 1.6 MB at 100 Mbps. Scaled with the bandwidth cut
            // so flows last a similar number of RTTs.
            size: FlowSizeDist::WebSearch { mean_bytes: 80_000.0 },
            inter_cluster_fraction: 0.5,
            pattern: TrafficPattern::Uniform,
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Topology dimensions.
    pub topo: FatTreeParams,
    /// Link speeds/latencies.
    pub link: LinkConfig,
    /// Queue discipline.
    pub queue: QueueSetup,
    /// Workload.
    pub traffic: TrafficConfig,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Master seed; all random streams derive from it.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's small-scale data-generation setup: two clusters of two
    /// racks with two hosts each, with a full-bisection core tier
    /// (`cores_per_agg = racks_per_cluster`) so that — per the paper's
    /// §4.2 assumptions — congestion concentrates on fan-in *inside*
    /// clusters rather than at the (unmodeled) core.
    pub fn small_scale() -> SimConfig {
        SimConfig {
            topo: FatTreeParams::new(2, 2, 2, 2, 2),
            link: LinkConfig::default(),
            queue: QueueSetup::default(),
            traffic: TrafficConfig::default(),
            duration_s: 1.0,
            seed: 1,
        }
    }

    /// Same shape as [`SimConfig::small_scale`] but with `n` clusters.
    pub fn with_clusters(n: u32) -> SimConfig {
        let mut c = SimConfig::small_scale();
        c.topo.clusters = n;
        c
    }

    /// Number of hosts in this configuration.
    pub fn num_hosts(&self) -> u32 {
        self.topo.num_hosts()
    }

    /// Check every user-settable field, returning the first violation as a
    /// typed [`SimError`] instead of panicking deep inside the engine.
    ///
    /// Call this before [`crate::simulator::Simulation::new`] when the
    /// configuration comes from outside the program (CLI flags, JSON).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.topo.clusters < 2 {
            return Err(SimError::config(
                "topo.clusters",
                format!("must be >= 2, got {}", self.topo.clusters),
            ));
        }
        if self.topo.racks_per_cluster == 0 {
            return Err(SimError::config("topo.racks_per_cluster", "must be > 0"));
        }
        if self.topo.hosts_per_rack == 0 {
            return Err(SimError::config("topo.hosts_per_rack", "must be > 0"));
        }
        if self.topo.aggs_per_cluster == 0 {
            return Err(SimError::config("topo.aggs_per_cluster", "must be > 0"));
        }
        if self.topo.cores_per_agg == 0 {
            return Err(SimError::config("topo.cores_per_agg", "must be > 0"));
        }
        if self.link.host_bw_bps == 0 {
            return Err(SimError::config("link.host_bw_bps", "link rate must be > 0"));
        }
        if self.link.fabric_bw_bps == 0 {
            return Err(SimError::config(
                "link.fabric_bw_bps",
                "link rate must be > 0",
            ));
        }
        if self.queue.capacity_bytes == 0 {
            return Err(SimError::config("queue.capacity_bytes", "must be > 0"));
        }
        if self.queue.bands == 0 {
            return Err(SimError::config("queue.bands", "must be >= 1"));
        }
        if !(self.traffic.load >= 0.0 && self.traffic.load.is_finite()) {
            return Err(SimError::config(
                "traffic.load",
                format!("must be a finite non-negative number, got {}", self.traffic.load),
            ));
        }
        if !(0.0..=1.0).contains(&self.traffic.inter_cluster_fraction) {
            return Err(SimError::config(
                "traffic.inter_cluster_fraction",
                format!(
                    "must lie in [0, 1], got {}",
                    self.traffic.inter_cluster_fraction
                ),
            ));
        }
        if !(self.traffic.size.mean_bytes() > 0.0 && self.traffic.size.mean_bytes().is_finite()) {
            return Err(SimError::config(
                "traffic.size",
                format!("mean flow size must be positive, got {}", self.traffic.size.mean_bytes()),
            ));
        }
        if let TrafficPattern::Incast { sinks } = self.traffic.pattern {
            if sinks == 0 {
                return Err(SimError::config("traffic.pattern", "incast needs sinks >= 1"));
            }
        }
        if !(self.duration_s > 0.0 && self.duration_s.is_finite()) {
            return Err(SimError::config(
                "duration_s",
                format!("must be a positive finite number, got {}", self.duration_s),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_shape() {
        let c = SimConfig::small_scale();
        assert_eq!(c.topo.clusters, 2);
        assert_eq!(c.num_hosts(), 8);
    }

    #[test]
    fn with_clusters_scales_only_cluster_count() {
        let c = SimConfig::with_clusters(16);
        assert_eq!(c.topo.clusters, 16);
        assert_eq!(c.topo.racks_per_cluster, 2);
        assert_eq!(c.num_hosts(), 64);
    }

    #[test]
    fn flow_size_means() {
        assert_eq!(FlowSizeDist::Fixed { bytes: 100 }.mean_bytes(), 100.0);
        assert_eq!(
            FlowSizeDist::WebSearch {
                mean_bytes: 30_000.0
            }
            .mean_bytes(),
            30_000.0
        );
    }

    #[test]
    fn validate_accepts_defaults() {
        assert_eq!(SimConfig::small_scale().validate(), Ok(()));
        assert_eq!(SimConfig::with_clusters(16).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_link_rate() {
        let mut c = SimConfig::small_scale();
        c.link.host_bw_bps = 0;
        assert!(matches!(
            c.validate().unwrap_err(),
            crate::error::SimError::InvalidConfig {
                field: "link.host_bw_bps",
                ..
            }
        ));
        let mut c = SimConfig::small_scale();
        c.link.fabric_bw_bps = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_too_few_clusters() {
        let mut c = SimConfig::small_scale();
        c.topo.clusters = 1;
        assert!(matches!(
            c.validate().unwrap_err(),
            crate::error::SimError::InvalidConfig {
                field: "topo.clusters",
                ..
            }
        ));
        c.topo.clusters = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_workload_and_duration() {
        let mut c = SimConfig::small_scale();
        c.duration_s = 0.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::small_scale();
        c.traffic.inter_cluster_fraction = 2.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::small_scale();
        c.traffic.load = f64::INFINITY;
        assert!(c.validate().is_err());
        let mut c = SimConfig::small_scale();
        c.queue.capacity_bytes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_serializes() {
        let c = SimConfig::small_scale();
        let s = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(back.topo.clusters, 2);
        assert_eq!(back.seed, c.seed);
    }
}
