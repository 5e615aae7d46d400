//! Full-duplex links.
//!
//! A link connects a lower-tier node to an upper-tier node (host→ToR,
//! ToR→Agg, Agg→Core). Each direction has its own transmitter: an output
//! queue (at the sending node's port) plus the time its current
//! serialization ends. Propagation delay is applied after serialization
//! completes, so a packet of `B` bytes arrives `B·8/bw + latency` after
//! transmission begins — exactly the OMNeT++/INET channel model the paper's
//! simulations use.
//!
//! Link completion is lazy: a transmitter that finishes with nothing
//! queued simply stops being busy when the clock passes `busy_until`, and
//! the engine schedules a `TxDone` only when a packet is waiting for the
//! wire (DESIGN.md §12, "Only events that change state").

use crate::queue::{PortQueue, QueueConfig};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Direction of travel over a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Dir {
    /// From the lower-tier endpoint toward the upper tier (e.g. host→ToR).
    Up,
    /// From the upper-tier endpoint toward the lower tier.
    Down,
}

impl Dir {
    pub fn index(self) -> usize {
        match self {
            Dir::Up => 0,
            Dir::Down => 1,
        }
    }

    pub fn opposite(self) -> Dir {
        match self {
            Dir::Up => Dir::Down,
            Dir::Down => Dir::Up,
        }
    }
}

/// Static link properties.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

impl LinkSpec {
    /// Serialization time for `bytes` on this link.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::serialization(bytes as u64, self.bandwidth_bps)
    }
}

/// One direction's transmitter: output queue plus serialization state.
#[derive(Debug)]
pub struct Transmitter {
    /// The output queue feeding this transmitter.
    pub queue: PortQueue,
    /// When the packet most recently put on the wire finishes
    /// serializing; the transmitter is free from this instant on.
    pub busy_until: SimTime,
    /// A `TxDone` at `busy_until` is already scheduled: set when a packet
    /// waits in `queue` behind the one on the wire, so each transmitter
    /// has at most one completion pending.
    pub done_pending: bool,
}

impl Transmitter {
    pub fn new(queue_cfg: QueueConfig) -> Transmitter {
        Transmitter {
            queue: PortQueue::new(queue_cfg),
            busy_until: SimTime::ZERO,
            done_pending: false,
        }
    }

    /// Is a packet on the wire at `now`? A pending `TxDone` needs no
    /// clause of its own: it fires at `busy_until` ranked before every
    /// other event class, so nothing else sees the port between the end
    /// of a serialization and its completion (DESIGN.md §12).
    pub fn is_busy(&self, now: SimTime) -> bool {
        now < self.busy_until
    }
}

/// A full-duplex link instance owned by the engine.
#[derive(Debug)]
pub struct DuplexLink {
    pub spec: LinkSpec,
    /// Transmitters indexed by [`Dir::index`].
    pub tx: [Transmitter; 2],
}

impl DuplexLink {
    pub fn new(spec: LinkSpec, up_queue: QueueConfig, down_queue: QueueConfig) -> DuplexLink {
        DuplexLink {
            spec,
            tx: [Transmitter::new(up_queue), Transmitter::new(down_queue)],
        }
    }

    pub fn tx_mut(&mut self, dir: Dir) -> &mut Transmitter {
        &mut self.tx[dir.index()]
    }

    pub fn tx(&self, dir: Dir) -> &Transmitter {
        &self.tx[dir.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_roundtrip() {
        assert_eq!(Dir::Up.opposite(), Dir::Down);
        assert_eq!(Dir::Down.opposite(), Dir::Up);
        assert_eq!(Dir::Up.index(), 0);
        assert_eq!(Dir::Down.index(), 1);
    }

    #[test]
    fn serialization_uses_wire_bytes() {
        let spec = LinkSpec {
            bandwidth_bps: 10_000_000, // 10 Mbps
            latency: SimDuration::from_micros(20),
        };
        // 1500 B at 10 Mbps = 1.2 ms.
        assert_eq!(spec.serialization(1500).as_nanos(), 1_200_000);
    }

    #[test]
    fn transmitters_are_independent() {
        let mut l = DuplexLink::new(
            LinkSpec {
                bandwidth_bps: 1_000_000,
                latency: SimDuration::from_micros(1),
            },
            QueueConfig::drop_tail(10_000),
            QueueConfig::drop_tail(10_000),
        );
        let now = SimTime::from_secs_f64(1.0);
        l.tx_mut(Dir::Up).busy_until = now + SimDuration::from_micros(5);
        assert!(l.tx(Dir::Up).is_busy(now));
        assert!(!l.tx(Dir::Down).is_busy(now));
        // Busy ends at `busy_until`.
        let end = now + SimDuration::from_micros(5);
        assert!(!l.tx(Dir::Up).is_busy(end));
    }
}
