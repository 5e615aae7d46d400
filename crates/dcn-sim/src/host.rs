//! Host state: per-flow transport endpoints and packet id allocation.
//!
//! A host is a container of independent flow endpoints — the paper's
//! "intra-host isolation" restriction (§4.2) means there is deliberately no
//! shared state (CPU model, pacing arbiter) across flows.

use crate::packet::FlowId;
use crate::topology::NodeId;
use crate::transport::{FlowSpec, PacketIdAlloc, Transport};
use std::collections::HashMap;

/// Which side of the flow this endpoint is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Sender,
    Receiver,
}

/// One endpoint (sender or receiver) of a flow living on a host.
pub struct Endpoint {
    pub transport: Box<dyn Transport>,
    pub role: Role,
    /// The flow this endpoint serves (the window digest folds it).
    pub spec: FlowSpec,
}

/// Mutable state of one host.
pub struct HostState {
    pub id: NodeId,
    /// Active flow endpoints, keyed by flow.
    pub flows: HashMap<FlowId, Endpoint>,
    /// Deterministic packet id allocator.
    pub ids: PacketIdAlloc,
}

impl HostState {
    pub fn new(id: NodeId) -> HostState {
        HostState {
            id,
            flows: HashMap::new(),
            ids: PacketIdAlloc::new(id),
        }
    }

    /// Register a new endpoint. Panics on duplicate (flow ids are unique).
    pub fn add_endpoint(&mut self, spec: FlowSpec, transport: Box<dyn Transport>, role: Role) {
        let flow = spec.id;
        let prev = self.flows.insert(
            flow,
            Endpoint {
                transport,
                role,
                spec,
            },
        );
        assert!(prev.is_none(), "duplicate endpoint for flow {flow:?}");
    }

    /// Remove an endpoint when its flow completes, returning it so the
    /// engine can recycle the boxed transport instead of freeing it.
    pub fn remove_endpoint(&mut self, flow: FlowId) -> Option<Endpoint> {
        self.flows.remove(&flow)
    }

    /// Active flow count (both roles).
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::transport::testing::FixedWindowFactory;
    use crate::transport::{FlowSpec, TransportFactory};
    use crate::SimTime;

    fn spec() -> FlowSpec {
        FlowSpec {
            id: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 1000,
            start: SimTime::ZERO,
        }
    }

    #[test]
    fn add_and_remove_endpoints() {
        let f = FixedWindowFactory {
            window: 1,
            rto: SimDuration::from_millis(1),
        };
        let mut h = HostState::new(NodeId(0));
        h.add_endpoint(spec(), f.sender(&spec()), Role::Sender);
        assert_eq!(h.active_flows(), 1);
        h.remove_endpoint(FlowId(1));
        assert_eq!(h.active_flows(), 0);
        // Removing again is a no-op.
        h.remove_endpoint(FlowId(1));
    }

    #[test]
    #[should_panic(expected = "duplicate endpoint")]
    fn duplicate_endpoint_panics() {
        let f = FixedWindowFactory {
            window: 1,
            rto: SimDuration::from_millis(1),
        };
        let mut h = HostState::new(NodeId(0));
        h.add_endpoint(spec(), f.sender(&spec()), Role::Sender);
        h.add_endpoint(spec(), f.receiver(&spec()), Role::Receiver);
    }
}
