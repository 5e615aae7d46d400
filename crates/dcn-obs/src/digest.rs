//! Hand-rolled FNV-1a 64-bit digest (DESIGN.md §14): the per-window state
//! fingerprint primitive. No dependencies, stable across platforms — the
//! digest of a given byte stream is part of the obs snapshot contract, so
//! the constants below must never change.
//!
//! Two layers:
//!
//! * [`Fnv64`] — a streaming hasher over one *item* (an event, a
//!   transmitter, a host). All multi-byte integers are fed little-endian,
//!   matching the snapshot codec's byte order.
//! * Multiset combination — per-item digests are combined with
//!   `wrapping_add`, which is commutative and associative, so a digest
//!   over a set of items is independent of iteration order *and* of how
//!   the items are split across PDES partitions. This is what makes the
//!   window digest partition-count-invariant: each item is digested by
//!   exactly one owning LP and the per-LP sums are added at merge time.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher for one digest item.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The digest of everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Canonical FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn integer_writes_are_little_endian() {
        let mut h = Fnv64::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            h.finish(),
            fnv64(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01])
        );
    }

    #[test]
    fn multiset_combination_is_order_invariant() {
        let items: [&[u8]; 3] = [b"alpha", b"beta", b"gamma"];
        let fwd = items
            .iter()
            .fold(0u64, |acc, i| acc.wrapping_add(fnv64(i)));
        let rev = items
            .iter()
            .rev()
            .fold(0u64, |acc, i| acc.wrapping_add(fnv64(i)));
        assert_eq!(fwd, rev);
    }
}
