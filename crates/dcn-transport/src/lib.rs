//! # dcn-transport — transport protocols for `dcn-sim`
//!
//! The five protocols the MimicNet paper evaluates (§9), implemented as
//! event-driven state machines behind `dcn-sim`'s
//! [`dcn_sim::transport::Transport`] trait:
//!
//! * **TCP New Reno** (the paper's base case) — slow start, AIMD congestion
//!   avoidance, fast retransmit/recovery with partial-ACK handling, and
//!   RFC 6298 retransmission timeouts.
//! * **DCTCP** — ECN-fraction estimation (α) with proportional window
//!   reduction; pairs with switch queues configured to CE-mark above a
//!   threshold `K`.
//! * **TCP Vegas** — delay-based congestion avoidance, a stand-in for the
//!   paper's "protocols that are very sensitive to small changes in
//!   latency".
//! * **TCP Westwood** — sender-side bandwidth estimation used to set the
//!   post-loss window.
//! * **Homa** — a simplified receiver-driven, priority-based protocol:
//!   unscheduled window + grants, with packet priorities derived from
//!   message sizes (stressing MimicNet with reordering and priorities).
//!
//! All TCP variants share one sender/receiver state machine
//! ([`tcp::TcpSender`]/[`tcp::TcpReceiver`]) parameterized by a
//! [`cc::CongControl`] strategy, mirroring how the INET TCP stack hosts
//! multiple flavours.

pub mod cc;
pub mod dctcp;
pub mod homa;
pub mod newreno;
pub mod rto;
pub mod tcp;
pub mod vegas;
pub mod westwood;

use dcn_sim::config::QueueSetup;
use dcn_sim::transport::TransportFactory;

/// The protocols available to experiments.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Protocol {
    /// TCP New Reno over DropTail queues (the paper's base configuration).
    NewReno,
    /// DCTCP with the given switch ECN marking threshold `K` (packets).
    Dctcp { k: u32 },
    /// Delay-based TCP Vegas.
    Vegas,
    /// Rate-estimating TCP Westwood.
    Westwood,
    /// Receiver-driven Homa with 8 priority levels.
    Homa,
}

impl Protocol {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::NewReno => "tcp-newreno",
            Protocol::Dctcp { .. } => "dctcp",
            Protocol::Vegas => "tcp-vegas",
            Protocol::Westwood => "tcp-westwood",
            Protocol::Homa => "homa",
        }
    }

    /// Build the transport factory for this protocol.
    pub fn factory(&self) -> Box<dyn TransportFactory> {
        match *self {
            Protocol::NewReno => Box::new(tcp::TcpFactory::new_reno()),
            Protocol::Dctcp { .. } => Box::new(tcp::TcpFactory::dctcp()),
            Protocol::Vegas => Box::new(tcp::TcpFactory::vegas()),
            Protocol::Westwood => Box::new(tcp::TcpFactory::westwood()),
            Protocol::Homa => Box::new(homa::HomaFactory),
        }
    }

    /// Adjust a queue configuration to what this protocol expects at
    /// switches (DCTCP: ECN marking; Homa: priority bands).
    pub fn queue_setup(&self, mut base: QueueSetup) -> QueueSetup {
        match *self {
            Protocol::Dctcp { k } => {
                base.ecn_k = Some(k);
            }
            Protocol::Homa => {
                base.bands = 8;
            }
            _ => {}
        }
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_factories() {
        for p in [
            Protocol::NewReno,
            Protocol::Dctcp { k: 20 },
            Protocol::Vegas,
            Protocol::Westwood,
            Protocol::Homa,
        ] {
            let f = p.factory();
            assert_eq!(f.name(), p.name());
        }
    }

    #[test]
    fn queue_setup_adjustments() {
        let base = QueueSetup::default();
        let d = Protocol::Dctcp { k: 17 }.queue_setup(base);
        assert_eq!(d.ecn_k, Some(17));
        let h = Protocol::Homa.queue_setup(base);
        assert_eq!(h.bands, 8);
        let n = Protocol::NewReno.queue_setup(base);
        assert_eq!(n.ecn_k, None);
        assert_eq!(n.bands, 1);
    }
}
