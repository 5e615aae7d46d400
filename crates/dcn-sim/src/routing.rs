//! ECMP up-down routing over the FatTree.
//!
//! MimicNet assumes "packets follow a strict up-down routing" (§4.2):
//! a packet climbs only as high as necessary (ToR for intra-rack, Agg for
//! intra-cluster, Core for inter-cluster) and then descends, never bouncing
//! back up. Multipath choices (which aggregation switch, which core) are
//! resolved by per-flow ECMP hashing so a flow's packets share one path —
//! the property that lets MimicNet treat "core switch traversed" as a
//! deterministic, computable feature rather than something to learn (§5).

use crate::link::Dir;
use crate::packet::FlowId;
use crate::topology::{FatTree, LinkId, NodeId, NodeKind};
use serde::{Deserialize, Serialize};

/// One forwarding decision: which link to take, in which direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Hop {
    pub link: LinkId,
    pub dir: Dir,
}

/// Deterministic per-flow hash for ECMP with a level salt so that the
/// agg-level and core-level choices of a flow are independent.
pub fn ecmp_hash(flow: FlowId, level: u64) -> u64 {
    let mut z = flow
        .0
        .wrapping_add(level.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless router: all forwarding tables are computed from the topology.
#[derive(Clone, Debug)]
pub struct Router {
    topo: FatTree,
}

impl Router {
    pub fn new(topo: FatTree) -> Router {
        Router { topo }
    }

    pub fn topo(&self) -> &FatTree {
        &self.topo
    }

    /// The aggregation switch index a flow's up-traffic uses within any
    /// cluster it ascends through.
    pub fn agg_choice(&self, flow: FlowId) -> u32 {
        (ecmp_hash(flow, 1) % self.topo.params.aggs_per_cluster as u64) as u32
    }

    /// The per-agg core index (`j`) a flow's inter-cluster traffic uses.
    pub fn core_choice(&self, flow: FlowId) -> u32 {
        (ecmp_hash(flow, 2) % self.topo.params.cores_per_agg as u64) as u32
    }

    /// The core switch an inter-cluster flow traverses. Combined with
    /// [`Router::agg_choice`], this fully determines the up path.
    pub fn core_for_flow(&self, flow: FlowId) -> NodeId {
        self.topo.core(self.agg_choice(flow), self.core_choice(flow))
    }

    /// Forward a packet of `flow` destined to host `dst`, currently at
    /// `node`. Returns the next hop.
    ///
    /// # Panics
    /// If invoked at the destination host itself (nothing to forward) or if
    /// the packet would violate up-down routing (a structural bug).
    pub fn route(&self, node: NodeId, flow: FlowId, dst: NodeId) -> Hop {
        let t = &self.topo;
        debug_assert_eq!(t.kind(dst), NodeKind::Host);
        let (dst_cluster, dst_rack, _) = t.host_coords(dst);
        match t.kind(node) {
            NodeKind::Host => {
                assert_ne!(node, dst, "routing a packet already at its destination");
                Hop {
                    link: t.host_link(node),
                    dir: Dir::Up,
                }
            }
            NodeKind::Tor => {
                let (c, r) = t.tor_coords(node);
                if c == dst_cluster && r == dst_rack {
                    // Descend to the destination host.
                    Hop {
                        link: t.host_link(dst),
                        dir: Dir::Down,
                    }
                } else {
                    // Ascend to the flow's chosen aggregation switch.
                    Hop {
                        link: t.tor_agg_link(c, r, self.agg_choice(flow)),
                        dir: Dir::Up,
                    }
                }
            }
            NodeKind::Agg => {
                let (c, a) = t.agg_coords(node);
                if c == dst_cluster {
                    // Descend to the destination rack's ToR.
                    Hop {
                        link: t.tor_agg_link(c, dst_rack, a),
                        dir: Dir::Down,
                    }
                } else {
                    // Ascend to the flow's chosen core.
                    Hop {
                        link: t.agg_core_link(c, a, self.core_choice(flow)),
                        dir: Dir::Up,
                    }
                }
            }
            NodeKind::Core => {
                let (a, j) = t.core_coords(node);
                // Descend into the destination cluster via the same
                // aggregation position this core is wired to.
                Hop {
                    link: t.agg_core_link(dst_cluster, a, j),
                    dir: Dir::Down,
                }
            }
        }
    }

    /// The complete node path a flow's data packets take from `src` to
    /// `dst` (inclusive of both endpoints). Used by the flow-level
    /// simulator and by tests.
    pub fn path(&self, flow: FlowId, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let t = &self.topo;
        let mut path = vec![src];
        let mut node = src;
        let mut hops = 0;
        while node != dst {
            let hop = self.route(node, flow, dst);
            let (lo, hi) = t.link_ends(hop.link);
            node = match hop.dir {
                Dir::Up => hi,
                Dir::Down => lo,
            };
            path.push(node);
            hops += 1;
            assert!(hops <= 8, "path exceeded FatTree diameter; routing loop?");
        }
        path
    }

    /// The links a flow's data packets traverse (with directions).
    pub fn link_path(&self, flow: FlowId, src: NodeId, dst: NodeId) -> Vec<Hop> {
        let t = &self.topo;
        let mut hops = Vec::new();
        let mut node = src;
        while node != dst {
            let hop = self.route(node, flow, dst);
            let (lo, hi) = t.link_ends(hop.link);
            node = match hop.dir {
                Dir::Up => hi,
                Dir::Down => lo,
            };
            hops.push(hop);
            assert!(hops.len() <= 8, "routing loop");
        }
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTreeParams;

    fn router() -> Router {
        Router::new(FatTree::new(FatTreeParams::new(4, 2, 2, 2, 2)))
    }

    #[test]
    fn intra_rack_path_is_host_tor_host() {
        let r = router();
        let t = r.topo().clone();
        let a = t.host(0, 0, 0);
        let b = t.host(0, 0, 1);
        let path = r.path(FlowId(5), a, b);
        assert_eq!(path, vec![a, t.tor(0, 0), b]);
    }

    #[test]
    fn intra_cluster_path_peaks_at_agg() {
        let r = router();
        let t = r.topo().clone();
        let a = t.host(1, 0, 0);
        let b = t.host(1, 1, 0);
        let path = r.path(FlowId(9), a, b);
        assert_eq!(path.len(), 5);
        assert_eq!(path[0], a);
        assert_eq!(path[1], t.tor(1, 0));
        assert_eq!(t.kind(path[2]), NodeKind::Agg);
        assert_eq!(t.cluster_of(path[2]), Some(1));
        assert_eq!(path[3], t.tor(1, 1));
        assert_eq!(path[4], b);
    }

    #[test]
    fn inter_cluster_path_peaks_at_core() {
        let r = router();
        let t = r.topo().clone();
        let a = t.host(0, 1, 1);
        let b = t.host(3, 0, 0);
        let path = r.path(FlowId(1234), a, b);
        assert_eq!(path.len(), 7);
        assert_eq!(t.kind(path[3]), NodeKind::Core);
        assert_eq!(path[3], r.core_for_flow(FlowId(1234)));
        // Up then down: tiers are host,tor,agg,core,agg,tor,host.
        let kinds: Vec<NodeKind> = path.iter().map(|&n| t.kind(n)).collect();
        assert_eq!(
            kinds,
            vec![
                NodeKind::Host,
                NodeKind::Tor,
                NodeKind::Agg,
                NodeKind::Core,
                NodeKind::Agg,
                NodeKind::Tor,
                NodeKind::Host
            ]
        );
    }

    #[test]
    fn flow_path_is_consistent_per_flow() {
        let r = router();
        let t = r.topo().clone();
        let a = t.host(0, 0, 0);
        let b = t.host(2, 1, 1);
        let p1 = r.path(FlowId(7), a, b);
        let p2 = r.path(FlowId(7), a, b);
        assert_eq!(p1, p2);
    }

    #[test]
    fn ecmp_spreads_flows_across_cores() {
        let r = router();
        let cores = r.topo().params.num_cores();
        let mut counts = vec![0u32; cores as usize];
        for f in 0..1000u64 {
            let c = r.core_for_flow(FlowId(f));
            let (a, j) = r.topo().core_coords(c);
            counts[(a * r.topo().params.cores_per_agg + j) as usize] += 1;
        }
        // Every core should get roughly 1000/4 = 250 flows.
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (150..350).contains(&c),
                "core {i} got {c} flows; ECMP is skewed"
            );
        }
    }

    #[test]
    fn ack_path_reverses_through_same_tiers() {
        // ECMP hashes on flow id only, so the reverse path uses the same
        // agg position/core choice — symmetric routing.
        let r = router();
        let t = r.topo().clone();
        let a = t.host(0, 0, 0);
        let b = t.host(1, 0, 0);
        let fwd = r.path(FlowId(42), a, b);
        let rev = r.path(FlowId(42), b, a);
        let mut fwd_rev = fwd.clone();
        fwd_rev.reverse();
        assert_eq!(rev, fwd_rev);
    }
}
