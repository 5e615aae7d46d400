//! The little-endian state codec and crash-safe file writes.
//!
//! [`SnapWriter`] is the encoder behind the per-window state digests
//! (`Simulation::window_digest`) and a run's identity
//! (`Metrics::canonical_bytes`): all integers are little-endian, floats
//! are stored as their IEEE-754 bit patterns, and variable-length data is
//! length-prefixed, so equal state always encodes to equal bytes.
//! [`atomic_write`] lands every file the workspace writes (bundles,
//! reports, telemetry) through a temporary sibling and a rename.

use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Append-only little-endian encoder for digest and canonical-bytes state.
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

    /// Floats are stored by bit pattern; round-trips are exact (including
    /// NaN payloads and signed zeros).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
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

    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }
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

// ---------------------------------------------------------------------------
// Packet codec (shared by the event and port-queue digests)
// ---------------------------------------------------------------------------

use crate::packet::{Ecn, Packet, PacketKind};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_encodes_little_endian_bit_patterns() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(0x0102);
        w.put_u32(0xDEAD_BEEF);
        w.put_f64(-0.0);
        w.put_opt_u64(None);
        w.put_opt_u64(Some(9));
        w.put_bytes(b"hi");
        let mut want = vec![7u8, 1, 0x02, 0x01, 0xEF, 0xBE, 0xAD, 0xDE];
        want.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        want.push(0);
        want.push(1);
        want.extend_from_slice(&9u64.to_le_bytes());
        want.extend_from_slice(&2u64.to_le_bytes());
        want.extend_from_slice(b"hi");
        assert_eq!(w.as_bytes(), &want[..]);
    }

    #[test]
    fn packet_encoding_covers_every_field() {
        use crate::packet::{FlowId, PacketFlags};
        use crate::time::SimTime;
        use crate::topology::NodeId;
        let base = Packet {
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
        let bytes = |p: &Packet| {
            let mut w = SnapWriter::new();
            put_packet(&mut w, p);
            w.into_bytes()
        };
        // The window digest sees a packet only through these bytes, so a
        // change to any field must change them.
        let edits: [fn(&mut Packet); 17] = [
            |p| p.id += 1,
            |p| p.flow.0 += 1,
            |p| p.src.0 += 1,
            |p| p.dst.0 += 1,
            |p| p.kind = PacketKind::Grant,
            |p| p.seq += 1,
            |p| p.payload += 1,
            |p| p.ecn = Ecn::Ect,
            |p| p.flags.syn = true,
            |p| p.flags.fin = false,
            |p| p.flags.ece = false,
            |p| p.prio += 1,
            |p| p.ttl -= 1,
            |p| p.sent_at.0 += 1,
            |p| p.echo.0 += 1,
            |p| p.flow_size += 1,
            |p| p.meta += 1,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut p = base.clone();
            edit(&mut p);
            assert_ne!(bytes(&p), bytes(&base), "edit {i} left the encoding unchanged");
        }
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        atomic_write(&path, b"alpha").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"alpha");
        // Overwrite is atomic, old content fully replaced.
        atomic_write(&path, b"beta-longer-payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"beta-longer-payload");
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
