//! Virtual time.
//!
//! Simulated time is a monotone `u64` nanosecond counter. Using a fixed-point
//! integer representation (rather than `f64` seconds) keeps event ordering
//! exact and makes sequential and parallel executions bit-identical.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as an "infinite" horizon sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds of simulated time.
    pub fn from_secs_f64(s: f64) -> SimTime {
        debug_assert!(s >= 0.0, "simulated time cannot be negative");
        SimTime((s * 1e9).round() as u64)
    }

    /// This instant expressed in (floating point) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from seconds.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        debug_assert!(s >= 0.0, "durations cannot be negative");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Duration in (floating point) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The wire time of `bytes` at `bits_per_sec`, rounded up to a whole
    /// nanosecond so back-to-back packets never overlap.
    pub fn serialization(bytes: u64, bits_per_sec: u64) -> SimDuration {
        debug_assert!(bits_per_sec > 0, "link bandwidth must be positive");
        let bits = bytes * 8;
        // ceil(bits * 1e9 / bps) without overflow for realistic values.
        let ns = (bits as u128 * 1_000_000_000u128).div_ceil(bits_per_sec as u128);
        SimDuration(ns as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_seconds() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.0, 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_millis(500);
        assert_eq!(t, SimTime::from_secs_f64(1.5));
        let d = SimDuration::from_millis(3) - SimDuration::from_millis(1);
        assert_eq!(d, SimDuration::from_millis(2));
    }

    #[test]
    fn duration_subtraction_saturates() {
        let d = SimDuration::from_millis(1) - SimDuration::from_millis(5);
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs_f64(1.0);
        let b = SimTime::from_secs_f64(2.0);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_secs_f64(1.0));
    }

    #[test]
    fn serialization_time_100mbps() {
        // 1500 B at 100 Mbps = 120 us.
        let d = SimDuration::serialization(1500, 100_000_000);
        assert_eq!(d.as_nanos(), 120_000);
    }

    #[test]
    fn serialization_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s rounds up.
        let d = SimDuration::serialization(1, 3);
        assert_eq!(d.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn time_add_saturates_at_max() {
        let t = SimTime::MAX + SimDuration::from_millis(1);
        assert_eq!(t, SimTime::MAX);
    }
}
