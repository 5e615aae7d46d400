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

/// Mutable health state of a link, driven by the fault subsystem
/// ([`crate::fault`]). A healthy link has `up = true`, no extra loss, and
/// full rate.
#[derive(Clone, Copy, Debug)]
pub struct LinkHealth {
    /// False while the link is failed: transmitters stall (packets queue
    /// but nothing starts serializing) until the link comes back up.
    pub up: bool,
    /// Additional Bernoulli loss probability layered on top of the
    /// configured baseline (gray failure). Effective loss is clamped to 1.
    pub extra_loss: f64,
    /// Multiplier on bandwidth in `(0, 1]`; values below 1 model a link
    /// negotiated down to a degraded rate.
    pub rate_factor: f64,
}

impl Default for LinkHealth {
    fn default() -> LinkHealth {
        LinkHealth {
            up: true,
            extra_loss: 0.0,
            rate_factor: 1.0,
        }
    }
}

/// One direction's transmitter: output queue plus serialization state.
#[derive(Debug)]
pub struct Transmitter {
    /// The output queue feeding this transmitter.
    pub queue: PortQueue,
    /// When the packet most recently put on the wire finishes
    /// serializing; the transmitter is free from this instant on unless a
    /// `TxDone` is still pending.
    pub busy_until: SimTime,
    /// A `TxDone` at `busy_until` is scheduled. It is set whenever a packet
    /// waits in `queue` behind the one on the wire, so events ranked before
    /// `TxDone` at `busy_until` (faults) see a busy port exactly when a
    /// packet is waiting.
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

    /// Is a packet on the wire (or a completion still pending) at `now`?
    pub fn is_busy(&self, now: SimTime) -> bool {
        now < self.busy_until || self.done_pending
    }
}

/// A full-duplex link instance owned by the engine.
#[derive(Debug)]
pub struct DuplexLink {
    pub spec: LinkSpec,
    /// Transmitters indexed by [`Dir::index`].
    pub tx: [Transmitter; 2],
    /// Fault-injection state; defaults to healthy.
    pub health: LinkHealth,
}

impl DuplexLink {
    pub fn new(spec: LinkSpec, up_queue: QueueConfig, down_queue: QueueConfig) -> DuplexLink {
        DuplexLink {
            spec,
            tx: [Transmitter::new(up_queue), Transmitter::new(down_queue)],
            health: LinkHealth::default(),
        }
    }

    /// Serialization time for `bytes` at the link's current (possibly
    /// degraded) rate. The healthy path is bit-identical to
    /// [`LinkSpec::serialization`] — no float arithmetic is introduced
    /// unless the rate is actually degraded.
    pub fn effective_serialization(&self, bytes: u32) -> SimDuration {
        if self.health.rate_factor >= 1.0 {
            self.spec.serialization(bytes)
        } else {
            let bw = ((self.spec.bandwidth_bps as f64) * self.health.rate_factor).max(1.0) as u64;
            SimDuration::serialization(bytes as u64, bw)
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
        // Busy ends at `busy_until` unless a completion is pending.
        let end = now + SimDuration::from_micros(5);
        assert!(!l.tx(Dir::Up).is_busy(end));
        l.tx_mut(Dir::Up).done_pending = true;
        assert!(l.tx(Dir::Up).is_busy(end));
    }

    #[test]
    fn degraded_rate_slows_serialization() {
        let mut l = DuplexLink::new(
            LinkSpec {
                bandwidth_bps: 10_000_000,
                latency: SimDuration::from_micros(20),
            },
            QueueConfig::drop_tail(10_000),
            QueueConfig::drop_tail(10_000),
        );
        let healthy = l.effective_serialization(1500);
        assert_eq!(healthy, l.spec.serialization(1500));
        l.health.rate_factor = 0.5;
        let degraded = l.effective_serialization(1500);
        assert_eq!(degraded.as_nanos(), 2 * healthy.as_nanos());
    }
}
