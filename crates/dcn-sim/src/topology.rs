//! FatTree topology construction and addressing.
//!
//! The canonical topology from §2 of the paper: hosts sit under Top-of-Rack
//! (ToR) switches; a *rack* is a ToR plus its hosts; a *cluster* is a group
//! of racks plus the cluster (aggregation) switches above them; clusters are
//! joined by core switches. Packets follow strict up-down routing.
//!
//! All identifiers are dense indices computed by formula, so the topology
//! needs no allocation-per-node and addressing is O(1). Crucially for
//! MimicNet, every *local* index (rack within cluster, server within rack,
//! cluster switch within cluster, core switch) is a **scalable feature**:
//! its range and meaning do not change as clusters are added (§5.3).

use serde::{Deserialize, Serialize};

/// A node (host or switch) in the simulated network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// A unidirectional use of a link is identified by the link plus direction;
/// links themselves are identified densely.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// What role a node plays.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum NodeKind {
    Host,
    Tor,
    Agg,
    Core,
}

/// Structural parameters of a FatTree.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FatTreeParams {
    /// Number of clusters, `N`.
    pub clusters: u32,
    /// Racks (ToRs) per cluster, `R`.
    pub racks_per_cluster: u32,
    /// Hosts per rack, `H`.
    pub hosts_per_rack: u32,
    /// Cluster (aggregation) switches per cluster, `A`.
    pub aggs_per_cluster: u32,
    /// Core switches attached to each aggregation switch.
    ///
    /// Core switch `a * cores_per_agg + j` connects to aggregation switch
    /// `a` of *every* cluster, giving full bisection connectivity.
    pub cores_per_agg: u32,
}

impl FatTreeParams {
    /// Validate and construct.
    ///
    /// # Panics
    /// If any dimension is zero or there are fewer than two clusters.
    pub fn new(
        clusters: u32,
        racks_per_cluster: u32,
        hosts_per_rack: u32,
        aggs_per_cluster: u32,
        cores_per_agg: u32,
    ) -> FatTreeParams {
        assert!(clusters >= 2, "a FatTree needs at least two clusters");
        assert!(racks_per_cluster > 0 && hosts_per_rack > 0);
        assert!(aggs_per_cluster > 0 && cores_per_agg > 0);
        FatTreeParams {
            clusters,
            racks_per_cluster,
            hosts_per_rack,
            aggs_per_cluster,
            cores_per_agg,
        }
    }

    /// Total hosts.
    pub fn num_hosts(&self) -> u32 {
        self.clusters * self.hosts_per_cluster()
    }

    /// Hosts in one cluster.
    pub fn hosts_per_cluster(&self) -> u32 {
        self.racks_per_cluster * self.hosts_per_rack
    }

    /// Total ToR switches.
    pub fn num_tors(&self) -> u32 {
        self.clusters * self.racks_per_cluster
    }

    /// Total aggregation switches.
    pub fn num_aggs(&self) -> u32 {
        self.clusters * self.aggs_per_cluster
    }

    /// Total core switches.
    pub fn num_cores(&self) -> u32 {
        self.aggs_per_cluster * self.cores_per_agg
    }

    /// Total nodes of all kinds.
    pub fn num_nodes(&self) -> u32 {
        self.num_hosts() + self.num_tors() + self.num_aggs() + self.num_cores()
    }

    /// Total links (host access + ToR-Agg fabric + Agg-Core fabric).
    pub fn num_links(&self) -> u32 {
        self.num_hosts()
            + self.num_tors() * self.aggs_per_cluster
            + self.num_aggs() * self.cores_per_agg
    }
}

/// A FatTree topology with O(1) formula-based addressing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FatTree {
    pub params: FatTreeParams,
    base_tor: u32,
    base_agg: u32,
    base_core: u32,
    base_toragg_link: u32,
    base_aggcore_link: u32,
}

impl FatTree {
    pub fn new(params: FatTreeParams) -> FatTree {
        let base_tor = params.num_hosts();
        let base_agg = base_tor + params.num_tors();
        let base_core = base_agg + params.num_aggs();
        let base_toragg_link = params.num_hosts();
        let base_aggcore_link = base_toragg_link + params.num_tors() * params.aggs_per_cluster;
        FatTree {
            params,
            base_tor,
            base_agg,
            base_core,
            base_toragg_link,
            base_aggcore_link,
        }
    }

    // ------------------------------------------------------------------
    // Node id construction
    // ------------------------------------------------------------------

    /// Host node id for `(cluster, rack, slot)`.
    pub fn host(&self, cluster: u32, rack: u32, slot: u32) -> NodeId {
        debug_assert!(cluster < self.params.clusters);
        debug_assert!(rack < self.params.racks_per_cluster);
        debug_assert!(slot < self.params.hosts_per_rack);
        NodeId(
            (cluster * self.params.racks_per_cluster + rack) * self.params.hosts_per_rack + slot,
        )
    }

    /// ToR node id for `(cluster, rack)`.
    pub fn tor(&self, cluster: u32, rack: u32) -> NodeId {
        NodeId(self.base_tor + cluster * self.params.racks_per_cluster + rack)
    }

    /// Aggregation switch node id for `(cluster, agg_index)`.
    pub fn agg(&self, cluster: u32, a: u32) -> NodeId {
        NodeId(self.base_agg + cluster * self.params.aggs_per_cluster + a)
    }

    /// Core switch node id for `(agg_index, j)` — the `j`-th core attached to
    /// aggregation position `agg_index`.
    pub fn core(&self, a: u32, j: u32) -> NodeId {
        NodeId(self.base_core + a * self.params.cores_per_agg + j)
    }

    // ------------------------------------------------------------------
    // Node id deconstruction
    // ------------------------------------------------------------------

    /// What kind of node an id refers to.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        if n.0 < self.base_tor {
            NodeKind::Host
        } else if n.0 < self.base_agg {
            NodeKind::Tor
        } else if n.0 < self.base_core {
            NodeKind::Agg
        } else {
            NodeKind::Core
        }
    }

    /// The cluster a host/ToR/Agg belongs to. Cores belong to none.
    pub fn cluster_of(&self, n: NodeId) -> Option<u32> {
        match self.kind(n) {
            NodeKind::Host => {
                Some(n.0 / (self.params.racks_per_cluster * self.params.hosts_per_rack))
            }
            NodeKind::Tor => Some((n.0 - self.base_tor) / self.params.racks_per_cluster),
            NodeKind::Agg => Some((n.0 - self.base_agg) / self.params.aggs_per_cluster),
            NodeKind::Core => None,
        }
    }

    /// `(cluster, rack, slot)` of a host.
    pub fn host_coords(&self, n: NodeId) -> (u32, u32, u32) {
        debug_assert_eq!(self.kind(n), NodeKind::Host);
        let slot = n.0 % self.params.hosts_per_rack;
        let global_rack = n.0 / self.params.hosts_per_rack;
        let rack = global_rack % self.params.racks_per_cluster;
        let cluster = global_rack / self.params.racks_per_cluster;
        (cluster, rack, slot)
    }

    /// `(cluster, rack)` of a ToR.
    pub fn tor_coords(&self, n: NodeId) -> (u32, u32) {
        debug_assert_eq!(self.kind(n), NodeKind::Tor);
        let i = n.0 - self.base_tor;
        (
            i / self.params.racks_per_cluster,
            i % self.params.racks_per_cluster,
        )
    }

    /// `(cluster, agg_index)` of an aggregation switch.
    pub fn agg_coords(&self, n: NodeId) -> (u32, u32) {
        debug_assert_eq!(self.kind(n), NodeKind::Agg);
        let i = n.0 - self.base_agg;
        (
            i / self.params.aggs_per_cluster,
            i % self.params.aggs_per_cluster,
        )
    }

    /// `(agg_index, j)` of a core switch.
    pub fn core_coords(&self, n: NodeId) -> (u32, u32) {
        debug_assert_eq!(self.kind(n), NodeKind::Core);
        let i = n.0 - self.base_core;
        (
            i / self.params.cores_per_agg,
            i % self.params.cores_per_agg,
        )
    }

    /// ToR serving a host.
    pub fn tor_of_host(&self, h: NodeId) -> NodeId {
        let (c, r, _) = self.host_coords(h);
        self.tor(c, r)
    }

    // ------------------------------------------------------------------
    // Links
    // ------------------------------------------------------------------

    /// Access link between a host and its ToR.
    pub fn host_link(&self, h: NodeId) -> LinkId {
        debug_assert_eq!(self.kind(h), NodeKind::Host);
        LinkId(h.0)
    }

    /// Fabric link between ToR `(cluster, rack)` and agg `(cluster, a)`.
    pub fn tor_agg_link(&self, cluster: u32, rack: u32, a: u32) -> LinkId {
        let tor_global = cluster * self.params.racks_per_cluster + rack;
        LinkId(self.base_toragg_link + tor_global * self.params.aggs_per_cluster + a)
    }

    /// Fabric link between agg `(cluster, a)` and its `j`-th core.
    pub fn agg_core_link(&self, cluster: u32, a: u32, j: u32) -> LinkId {
        let agg_global = cluster * self.params.aggs_per_cluster + a;
        LinkId(self.base_aggcore_link + agg_global * self.params.cores_per_agg + j)
    }

    /// The two endpoints of a link, `(lower_tier, upper_tier)`.
    pub fn link_ends(&self, l: LinkId) -> (NodeId, NodeId) {
        if l.0 < self.base_toragg_link {
            let host = NodeId(l.0);
            (host, self.tor_of_host(host))
        } else if l.0 < self.base_aggcore_link {
            let i = l.0 - self.base_toragg_link;
            let a = i % self.params.aggs_per_cluster;
            let tor_global = i / self.params.aggs_per_cluster;
            let rack = tor_global % self.params.racks_per_cluster;
            let cluster = tor_global / self.params.racks_per_cluster;
            (self.tor(cluster, rack), self.agg(cluster, a))
        } else {
            let i = l.0 - self.base_aggcore_link;
            let j = i % self.params.cores_per_agg;
            let agg_global = i / self.params.cores_per_agg;
            let a = agg_global % self.params.aggs_per_cluster;
            let cluster = agg_global / self.params.aggs_per_cluster;
            (self.agg(cluster, a), self.core(a, j))
        }
    }

    /// Whether a link is a host access link.
    pub fn is_host_link(&self, l: LinkId) -> bool {
        l.0 < self.base_toragg_link
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FatTree {
        FatTree::new(FatTreeParams::new(4, 2, 3, 2, 2))
    }

    #[test]
    fn counts() {
        let t = small();
        assert_eq!(t.params.num_hosts(), 24);
        assert_eq!(t.params.num_tors(), 8);
        assert_eq!(t.params.num_aggs(), 8);
        assert_eq!(t.params.num_cores(), 4);
        assert_eq!(t.params.num_nodes(), 44);
        assert_eq!(t.params.num_links(), 24 + 16 + 16);
    }

    #[test]
    fn host_roundtrip() {
        let t = small();
        for c in 0..4 {
            for r in 0..2 {
                for s in 0..3 {
                    let h = t.host(c, r, s);
                    assert_eq!(t.kind(h), NodeKind::Host);
                    assert_eq!(t.host_coords(h), (c, r, s));
                    assert_eq!(t.cluster_of(h), Some(c));
                }
            }
        }
    }

    #[test]
    fn switch_roundtrips() {
        let t = small();
        for c in 0..4 {
            for r in 0..2 {
                let n = t.tor(c, r);
                assert_eq!(t.kind(n), NodeKind::Tor);
                assert_eq!(t.tor_coords(n), (c, r));
                assert_eq!(t.cluster_of(n), Some(c));
            }
            for a in 0..2 {
                let n = t.agg(c, a);
                assert_eq!(t.kind(n), NodeKind::Agg);
                assert_eq!(t.agg_coords(n), (c, a));
            }
        }
        for a in 0..2 {
            for j in 0..2 {
                let n = t.core(a, j);
                assert_eq!(t.kind(n), NodeKind::Core);
                assert_eq!(t.core_coords(n), (a, j));
                assert_eq!(t.cluster_of(n), None);
            }
        }
    }

    #[test]
    fn node_ids_are_dense_and_disjoint() {
        let t = small();
        let mut seen = vec![false; t.params.num_nodes() as usize];
        let mut mark = |n: NodeId| {
            assert!(!seen[n.0 as usize], "duplicate node id {n:?}");
            seen[n.0 as usize] = true;
        };
        for c in 0..4 {
            for r in 0..2 {
                for s in 0..3 {
                    mark(t.host(c, r, s));
                }
                mark(t.tor(c, r));
            }
            for a in 0..2 {
                mark(t.agg(c, a));
            }
        }
        for a in 0..2 {
            for j in 0..2 {
                mark(t.core(a, j));
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn link_ends_roundtrip() {
        let t = small();
        for l in 0..t.params.num_links() {
            let (lo, hi) = t.link_ends(LinkId(l));
            // Re-derive the link id from the endpoints.
            let derived = match (t.kind(lo), t.kind(hi)) {
                (NodeKind::Host, NodeKind::Tor) => t.host_link(lo),
                (NodeKind::Tor, NodeKind::Agg) => {
                    let (c, r) = t.tor_coords(lo);
                    let (_, a) = t.agg_coords(hi);
                    t.tor_agg_link(c, r, a)
                }
                (NodeKind::Agg, NodeKind::Core) => {
                    let (c, a) = t.agg_coords(lo);
                    let (_, j) = t.core_coords(hi);
                    t.agg_core_link(c, a, j)
                }
                other => panic!("unexpected link tier pair {other:?}"),
            };
            assert_eq!(derived, LinkId(l));
        }
    }

    #[test]
    fn link_classifiers() {
        let t = small();
        let h = t.host(1, 0, 2);
        assert!(t.is_host_link(t.host_link(h)));
        assert!(!t.is_host_link(t.tor_agg_link(0, 1, 0)));
    }

    #[test]
    fn core_connects_same_agg_position_in_all_clusters() {
        let t = small();
        // Core (a=1, j=0) must be reachable from agg index 1 of every cluster.
        for c in 0..4 {
            let l = t.agg_core_link(c, 1, 0);
            let (lo, hi) = t.link_ends(l);
            assert_eq!(lo, t.agg(c, 1));
            assert_eq!(hi, t.core(1, 0));
        }
    }

    #[test]
    #[should_panic(expected = "at least two clusters")]
    fn rejects_single_cluster() {
        let _ = FatTreeParams::new(1, 2, 2, 1, 1);
    }
}
