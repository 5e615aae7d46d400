//! Deterministic checkpoint/restore: the snapshot codec and file format.
//!
//! A snapshot is a byte-exact capture of every piece of *mutable* simulation
//! state — event queue contents, virtual time, RNG streams, port queues,
//! per-flow transport state, fault progress, Mimic model state, and metrics.
//! Immutable structure (topology, routing tables, compiled fault schedules,
//! model weights) is *not* stored: a restore first rebuilds the simulation
//! exactly as an uninterrupted run would, then overwrites the mutable state
//! from the snapshot. The correctness contract is bit-identity: a run that is
//! snapshotted at time T and restored must produce byte-identical final
//! metrics to an uninterrupted run (see `tests/integration_snapshot.rs`).
//!
//! ## Wire format
//!
//! The codec is hand-rolled and dependency-free. All integers are
//! little-endian; floats are stored as their IEEE-754 bit patterns so
//! round-trips are exact. Variable-length data is length-prefixed. A
//! snapshot *file* wraps the payload in a self-validating container:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"DCNSNAP\0"
//! 8       4     format version (u32 LE)
//! 12      8     payload length (u64 LE)
//! 20      4     CRC32 (IEEE) of payload (u32 LE)
//! 24      n     payload
//! ```
//!
//! Files are written to a temporary sibling path and atomically renamed into
//! place, so readers never observe a torn write. Any corruption — bad magic,
//! unknown version, short read, checksum mismatch, or malformed payload —
//! surfaces as a typed [`SnapshotError`]; decoding never panics.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Magic bytes identifying a snapshot file.
pub const MAGIC: [u8; 8] = *b"DCNSNAP\0";

/// Current snapshot format version. Bump on any incompatible layout change.
/// v2: one cluster-model arm (cluster-mode tag 1 retired, tag 2 carries the
/// direction flags) and a Mimic fleet state without lane-round counters.
pub const FORMAT_VERSION: u32 = 2;

/// Size of the file container header preceding the payload.
pub const HEADER_LEN: usize = 24;

/// Typed failure surface of the snapshot subsystem. Decoding is total: every
/// malformed input maps to one of these variants, never a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error (open/read/write/rename).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The payload's CRC32 does not match the header.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// The input ended before a declared length was satisfied.
    Truncated,
    /// The bytes decoded but violate an invariant (bad discriminant,
    /// impossible count, state mismatch with the rebuilt simulation).
    Corrupt(String),
    /// The component does not support snapshotting (e.g. a custom
    /// [`crate::transport::Transport`] that never implemented the hooks).
    Unsupported(&'static str),
    /// Decoding finished with unread bytes left over.
    TrailingBytes { remaining: usize },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (header {expected:#010x}, payload {actual:#010x})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            SnapshotError::Unsupported(what) => {
                write!(f, "snapshotting unsupported for {what}")
            }
            SnapshotError::TrailingBytes { remaining } => {
                write!(f, "snapshot has {remaining} trailing bytes")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// Append-only little-endian encoder for snapshot payloads.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far (borrow; see [`SnapWriter::into_bytes`]).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Reset for reuse as a scratch buffer, keeping the allocation. The
    /// digest layer serializes many small items through one writer.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are stored by bit pattern; round-trips are exact (including
    /// NaN payloads and signed zeros).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_f64(x);
            }
            None => self.put_bool(false),
        }
    }

    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
    }

    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f32(x);
        }
    }

    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }
}

/// Bounds-checked little-endian decoder over a snapshot payload. Every read
/// returns `Err(SnapshotError::Truncated)` instead of panicking when the
/// input runs out.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bad bool byte {b:#04x}"))),
        }
    }

    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read a length prefix that will be used to size an allocation or loop.
    /// Rejects lengths that exceed the bytes actually remaining (with
    /// `min_elem_bytes` per element) so corrupt prefixes cannot trigger
    /// huge allocations.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.get_u64()?;
        let n: usize = n
            .try_into()
            .map_err(|_| SnapshotError::Corrupt(format!("count {n} overflows usize")))?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.get_count(1)?;
        self.take(n)
    }

    pub fn get_str(&mut self) -> Result<&'a str, SnapshotError> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b)
            .map_err(|_| SnapshotError::Corrupt("invalid utf-8 string".into()))
    }

    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        Ok(if self.get_bool()? {
            Some(self.get_u64()?)
        } else {
            None
        })
    }

    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        Ok(if self.get_bool()? {
            Some(self.get_f64()?)
        } else {
            None
        })
    }

    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let n = self.get_count(4)?;
        (0..n).map(|_| self.get_f32()).collect()
    }

    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_u64()).collect()
    }
}

/// A component whose mutable state can be captured into a snapshot payload
/// and later re-materialized in place.
///
/// `restore` is called on a freshly constructed value with identical
/// immutable structure (same config, same seeds, same model weights); it
/// overwrites only the mutable state. Implementations must write and read
/// in deterministic order — iteration over hash maps/sets is sorted by key
/// before encoding.
pub trait Restorable {
    fn save(&self, w: &mut SnapWriter);
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError>;
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// File container
// ---------------------------------------------------------------------------

/// Frame a payload in the snapshot container (magic, version, length, CRC).
pub fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a framed container and return the payload slice.
pub fn unframe_payload(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let expected = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    let len: usize = len
        .try_into()
        .map_err(|_| SnapshotError::Corrupt(format!("payload length {len} overflows usize")))?;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() < len {
        return Err(SnapshotError::Truncated);
    }
    if payload.len() > len {
        return Err(SnapshotError::TrailingBytes {
            remaining: payload.len() - len,
        });
    }
    let actual = crc32(payload);
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

/// Write `bytes` to `path` crash-safely: the data lands in a temporary
/// sibling file, is fsync'd, and is atomically renamed into place. Readers
/// either see the old contents or the complete new contents, never a torn
/// write.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("atomic_write: path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Frame and atomically write a snapshot payload to `path`.
pub fn write_snapshot_file(path: &Path, payload: &[u8]) -> Result<(), SnapshotError> {
    atomic_write(path, &frame_payload(payload))?;
    Ok(())
}

/// Read and validate a snapshot file, returning the payload.
pub fn read_snapshot_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    let bytes = fs::read(path)?;
    let payload = unframe_payload(&bytes)?;
    let offset = payload.as_ptr() as usize - bytes.as_ptr() as usize;
    let len = payload.len();
    let mut bytes = bytes;
    bytes.drain(..offset);
    bytes.truncate(len);
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Packet codec (shared by event-queue and port-queue snapshots)
// ---------------------------------------------------------------------------

use crate::packet::{Ecn, Packet, PacketFlags, PacketKind};
use crate::time::SimTime;

pub fn put_packet(w: &mut SnapWriter, p: &Packet) {
    w.put_u64(p.id);
    w.put_u64(p.flow.0);
    w.put_u32(p.src.0);
    w.put_u32(p.dst.0);
    w.put_u8(match p.kind {
        PacketKind::Data => 0,
        PacketKind::Ack => 1,
        PacketKind::Grant => 2,
    });
    w.put_u64(p.seq);
    w.put_u32(p.payload);
    w.put_u8(match p.ecn {
        Ecn::NotEct => 0,
        Ecn::Ect => 1,
        Ecn::Ce => 2,
    });
    w.put_bool(p.flags.syn);
    w.put_bool(p.flags.fin);
    w.put_bool(p.flags.ece);
    w.put_u8(p.prio);
    w.put_u8(p.ttl);
    w.put_u64(p.sent_at.0);
    w.put_u64(p.echo.0);
    w.put_u64(p.flow_size);
    w.put_u64(p.meta);
}

pub fn get_packet(r: &mut SnapReader<'_>) -> Result<Packet, SnapshotError> {
    use crate::packet::FlowId;
    use crate::topology::NodeId;
    let id = r.get_u64()?;
    let flow = FlowId(r.get_u64()?);
    let src = NodeId(r.get_u32()?);
    let dst = NodeId(r.get_u32()?);
    let kind = match r.get_u8()? {
        0 => PacketKind::Data,
        1 => PacketKind::Ack,
        2 => PacketKind::Grant,
        b => return Err(SnapshotError::Corrupt(format!("bad PacketKind {b}"))),
    };
    let seq = r.get_u64()?;
    let payload = r.get_u32()?;
    let ecn = match r.get_u8()? {
        0 => Ecn::NotEct,
        1 => Ecn::Ect,
        2 => Ecn::Ce,
        b => return Err(SnapshotError::Corrupt(format!("bad Ecn {b}"))),
    };
    let flags = PacketFlags {
        syn: r.get_bool()?,
        fin: r.get_bool()?,
        ece: r.get_bool()?,
    };
    let prio = r.get_u8()?;
    let ttl = r.get_u8()?;
    let sent_at = SimTime(r.get_u64()?);
    let echo = SimTime(r.get_u64()?);
    let flow_size = r.get_u64()?;
    let meta = r.get_u64()?;
    Ok(Packet {
        id,
        flow,
        src,
        dst,
        kind,
        seq,
        payload,
        ecn,
        flags,
        prio,
        ttl,
        sent_at,
        echo,
        flow_size,
        meta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(65535);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_f32(1.5e-30);
        w.put_bytes(b"hello");
        w.put_str("wörld");
        w.put_opt_u64(Some(9));
        w.put_opt_u64(None);
        w.put_opt_f64(Some(2.5));
        w.put_f64_slice(&[1.0, 2.0]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 65535);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_f32().unwrap(), 1.5e-30);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "wörld");
        assert_eq!(r.get_opt_u64().unwrap(), Some(9));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_opt_f64().unwrap(), Some(2.5));
        assert_eq!(r.get_f64_vec().unwrap(), vec![1.0, 2.0]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = SnapWriter::new();
        w.put_u64(123);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert!(matches!(r.get_u64(), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn huge_count_rejected_without_allocation() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.get_f64_vec().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = SnapWriter::new();
        w.put_u32(1);
        w.put_u32(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.get_u32().unwrap();
        assert!(matches!(
            r.finish(),
            Err(SnapshotError::TrailingBytes { remaining: 4 })
        ));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frame_unframe_round_trip() {
        let payload = b"some payload bytes".to_vec();
        let framed = frame_payload(&payload);
        assert_eq!(unframe_payload(&framed).unwrap(), &payload[..]);
    }

    #[test]
    fn unframe_rejects_bad_magic() {
        let mut framed = frame_payload(b"x");
        framed[0] ^= 0xFF;
        assert!(matches!(unframe_payload(&framed), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn unframe_rejects_version_skew() {
        let mut framed = frame_payload(b"x");
        framed[8] = 0xFE;
        assert!(matches!(
            unframe_payload(&framed),
            Err(SnapshotError::UnsupportedVersion { found, .. }) if found != FORMAT_VERSION
        ));
    }

    #[test]
    fn unframe_rejects_bit_flip() {
        let mut framed = frame_payload(b"payload under test");
        let last = framed.len() - 1;
        framed[last] ^= 0x01;
        assert!(matches!(
            unframe_payload(&framed),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn unframe_rejects_truncation() {
        let framed = frame_payload(b"payload under test");
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 3] {
            assert!(matches!(
                unframe_payload(&framed[..cut]),
                Err(SnapshotError::Truncated)
            ));
        }
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        write_snapshot_file(&path, b"alpha").unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), b"alpha");
        // Overwrite is atomic, old content fully replaced.
        write_snapshot_file(&path, b"beta-longer-payload").unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), b"beta-longer-payload");
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn packet_round_trip() {
        use crate::packet::FlowId;
        use crate::topology::NodeId;
        let p = Packet {
            id: 99,
            flow: FlowId(1234),
            src: NodeId(3),
            dst: NodeId(17),
            kind: PacketKind::Ack,
            seq: 1460,
            payload: 0,
            ecn: Ecn::Ce,
            flags: PacketFlags { syn: false, fin: true, ece: true },
            prio: 2,
            ttl: 61,
            sent_at: SimTime(777),
            echo: SimTime(555),
            flow_size: 1 << 20,
            meta: 42,
        };
        let mut w = SnapWriter::new();
        put_packet(&mut w, &p);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let q = get_packet(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(p, q);
    }
}
