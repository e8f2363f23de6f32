//! The checksummed, versioned section container behind checkpoint
//! snapshots.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    : 8 bytes = b"SURGSNP1"
//! version  : u32     = SNAPSHOT_VERSION
//! sections : u32     = section count
//! section  : sections ×
//!     tag     : u32   (consumer-defined meaning)
//!     len     : u64   (payload bytes)
//!     payload : len bytes
//! crc      : u32     = CRC-32 of every preceding byte (magic included)
//! ```
//!
//! The container is deliberately dumb: tags and payload encodings belong to
//! the consumer (`surge-checkpoint` encodes its `CheckpointState` here).
//! What the container *does* own is integrity: decoding validates the
//! magic, the version, every section length against the remaining payload,
//! and the CRC footer — a truncated or bit-flipped snapshot yields a
//! precise [`IoError`], never a panic or a silently partial state.
//!
//! [`SectionWriter`] streams the container into one reusable buffer;
//! [`write_snapshot_atomic`] writes through a temporary sibling file,
//! renames it into place and syncs the directory, so a crash mid-write can
//! never leave a torn snapshot under the final name — recovery either sees
//! the complete new snapshot or the previous one.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use crate::checksum::{crc32, Crc32};
use crate::error::{IoError, Result};

/// Magic bytes identifying the snapshot container.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SURGSNP1";
/// Container version this module reads and writes.
pub const SNAPSHOT_VERSION: u32 = 4;

/// An in-memory snapshot: an ordered list of `(tag, payload)` sections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    sections: Vec<(u32, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Appends a section. Order is preserved and duplicate tags are
    /// allowed; [`Snapshot::section`] returns the first match.
    pub fn push_section(&mut self, tag: u32, payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// The first section with `tag`, if any.
    pub fn section(&self, tag: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| p.as_slice())
    }

    /// All sections, in file order.
    pub fn sections(&self) -> &[(u32, Vec<u8>)] {
        &self.sections
    }

    /// Serializes the container (header, sections, CRC footer) through a
    /// [`SectionWriter`].
    pub fn encode(&self) -> Vec<u8> {
        let payload: usize = self.sections.iter().map(|(_, p)| p.len() + 12).sum();
        let mut w = SectionWriter::new(Vec::with_capacity(16 + payload + 4));
        for (tag, p) in &self.sections {
            w.section(*tag, |w| w.buf.extend_from_slice(p));
        }
        w.finish()
    }

    /// Decodes a serialized container, validating magic, version, section
    /// framing and the CRC footer.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let err = |at: u64, message: String| IoError::Parse { at, message };
        if bytes.len() < 8 {
            return Err(err(0, "truncated input while reading magic".into()));
        }
        if &bytes[..8] != SNAPSHOT_MAGIC {
            return Err(IoError::BadHeader {
                expected: "SURGSNP1",
                found: String::from_utf8_lossy(&bytes[..8]).into_owned(),
            });
        }
        if bytes.len() < 16 {
            return Err(err(0, "truncated input while reading header".into()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(IoError::BadHeader {
                expected: "the snapshot version this build reads",
                found: format!("version {version}, not {SNAPSHOT_VERSION}"),
            });
        }
        if bytes.len() < 20 {
            return Err(err(0, "truncated input while reading CRC footer".into()));
        }
        let (body, footer) = bytes.split_at(bytes.len() - 4);
        let declared_crc = u32::from_le_bytes(footer.try_into().expect("4 bytes"));
        let actual_crc = crc32(body);
        if declared_crc != actual_crc {
            return Err(IoError::Invariant(format!(
                "snapshot CRC mismatch: file says {declared_crc:#010x}, content is {actual_crc:#010x}"
            )));
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let mut sections = Vec::with_capacity(count.min(1 << 16) as usize);
        let mut off = 16usize;
        for i in 0..count {
            if body.len() - off < 12 {
                return Err(err(i as u64, "truncated section header".into()));
            }
            let tag = u32::from_le_bytes(body[off..off + 4].try_into().expect("4 bytes"));
            let len =
                u64::from_le_bytes(body[off + 4..off + 12].try_into().expect("8 bytes")) as usize;
            off += 12;
            if body.len() - off < len {
                return Err(err(
                    i as u64,
                    format!(
                        "section {tag} declares {len} bytes, {} remain",
                        body.len() - off
                    ),
                ));
            }
            sections.push((tag, body[off..off + len].to_vec()));
            off += len;
        }
        if off != body.len() {
            return Err(IoError::Invariant(format!(
                "trailing bytes after {count} declared sections"
            )));
        }
        Ok(Snapshot { sections })
    }
}

/// Reads and validates a snapshot file.
pub fn read_snapshot_from(path: impl AsRef<Path>) -> Result<Snapshot> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Snapshot::decode(&bytes)
}

/// Streams a snapshot container into one buffer: the header first, each
/// section framed in place as its payload is written, the section count and
/// CRC footer last. [`Snapshot::encode`] is built on it, so the framing
/// exists once; a consumer with its own section encoders serializes
/// straight into the buffer without materializing per-section payloads —
/// and can hand the same buffer back to [`SectionWriter::new`] for the next
/// snapshot.
#[derive(Debug)]
pub struct SectionWriter {
    w: PayloadWriter,
    sections: u32,
}

impl SectionWriter {
    /// Starts a container in `buf`, clearing it but keeping its capacity.
    pub fn new(mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        // The section count, patched by `finish`.
        buf.extend_from_slice(&0u32.to_le_bytes());
        SectionWriter {
            w: PayloadWriter { buf },
            sections: 0,
        }
    }

    /// Appends one section whose payload `body` writes.
    pub fn section(&mut self, tag: u32, body: impl FnOnce(&mut PayloadWriter)) {
        self.w.u32(tag);
        let len_at = self.w.buf.len();
        self.w.u64(0);
        body(&mut self.w);
        let len = (self.w.buf.len() - len_at - 8) as u64;
        self.w.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        self.sections += 1;
    }

    /// Patches the section count and appends the CRC footer.
    pub fn finish(self) -> Vec<u8> {
        let mut buf = self.w.buf;
        buf[12..16].copy_from_slice(&self.sections.to_le_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }
}

/// Writes an encoded snapshot atomically: the bytes go to `<path>.tmp`, are
/// synced to disk, the temporary is renamed over `path`, and the directory
/// is synced so the rename itself survives power loss. A crash at any point
/// leaves either the previous file or the complete new one — and once this
/// returns, the new file is durable, so the caller may delete what older
/// snapshots needed.
pub fn write_snapshot_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<()> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Incremental helpers for encoding section payloads: plain little-endian
/// scalar framing shared by every `surge-checkpoint` section encoder.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        PayloadWriter::default()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bits (bit-exact roundtrip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a section payload; every accessor reports truncation as a
/// precise [`IoError::Parse`] carrying the byte offset.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> PayloadReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, off: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() - self.off < n {
            return Err(IoError::Parse {
                at: self.off as u64,
                message: format!("truncated payload while reading {what}"),
            });
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8"),
        ))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(i64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8"),
        ))
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String> {
        let len = self.u64(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| IoError::Parse {
            at: self.off as u64,
            message: format!("{what}: invalid UTF-8: {e}"),
        })
    }

    /// Bytes left to read. Decoders bound capacity hints by it, so a
    /// corrupt count cannot reserve memory the payload does not back.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.off
    }

    /// Whether the cursor consumed the whole payload.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Errors unless the payload was fully consumed (catches encoder/decoder
    /// drift and trailing garbage inside a section).
    pub fn expect_exhausted(&self, what: &str) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(IoError::Invariant(format!(
                "{what}: {} trailing bytes in section payload",
                self.remaining()
            )))
        }
    }
}

/// Streaming CRC-framed record writer used by the WAL: each record is
/// `len(u32) + payload + crc32(payload)`. Kept here beside the snapshot
/// container so both durable formats share one integrity discipline.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let mut c = Crc32::new();
    c.update(payload);
    out.extend_from_slice(&c.finish().to_le_bytes());
    out
}

/// The outcome of [`read_framed_record`]: a complete record, a clean end of
/// input, or a torn/corrupt tail starting at the returned offset.
#[derive(Debug, PartialEq, Eq)]
pub enum FramedRecord<'a> {
    /// A complete record with a valid CRC; the cursor advanced past it.
    Complete(&'a [u8]),
    /// The input ended exactly at a record boundary.
    End,
    /// The bytes from this record's start onward are torn (truncated frame)
    /// or corrupt (CRC mismatch); `at` is the record's start offset.
    Torn {
        /// Byte offset at which the broken record starts.
        at: usize,
    },
}

/// Reads the record starting at `*off` in `buf`, advancing `*off` past it
/// on success. Never panics: any framing violation is reported as
/// [`FramedRecord::Torn`] so WAL recovery can truncate the tail.
pub fn read_framed_record<'a>(buf: &'a [u8], off: &mut usize) -> FramedRecord<'a> {
    let start = *off;
    if start == buf.len() {
        return FramedRecord::End;
    }
    if buf.len() - start < 4 {
        return FramedRecord::Torn { at: start };
    }
    let len = u32::from_le_bytes(buf[start..start + 4].try_into().expect("4")) as usize;
    if buf.len() - start - 4 < len + 4 {
        return FramedRecord::Torn { at: start };
    }
    let payload = &buf[start + 4..start + 4 + len];
    let declared = u32::from_le_bytes(buf[start + 4 + len..start + 8 + len].try_into().expect("4"));
    if crc32(payload) != declared {
        return FramedRecord::Torn { at: start };
    }
    *off = start + 8 + len;
    FramedRecord::Complete(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        let mut w = PayloadWriter::new();
        w.u64(42);
        w.f64(-0.0);
        w.str("hello");
        s.push_section(1, w.finish());
        s.push_section(7, vec![0xAB; 13]);
        s
    }

    #[test]
    fn encode_decode_roundtrip_is_byte_stable() {
        let s = sample();
        let bytes = s.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, s);
        // Re-encoding the decoded snapshot reproduces the bytes exactly.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn section_writer_streams_the_container_into_a_reused_buffer() {
        let s = sample();
        // A dirty, oversized buffer from an earlier snapshot: cleared, not
        // appended to.
        let mut w = SectionWriter::new(vec![0xEE; 4096]);
        for (tag, payload) in s.sections() {
            w.section(*tag, |w| {
                for &b in payload {
                    w.u8(b);
                }
            });
        }
        let bytes = w.finish();
        assert_eq!(bytes, s.encode());
        assert_eq!(Snapshot::decode(&bytes).unwrap(), s);

        let empty = SectionWriter::new(bytes).finish();
        assert_eq!(empty, Snapshot::new().encode());
        assert_eq!(Snapshot::decode(&empty).unwrap(), Snapshot::new());
    }

    #[test]
    fn payload_reader_roundtrips_and_reports_truncation() {
        let s = sample();
        let mut r = PayloadReader::new(s.section(1).unwrap());
        assert_eq!(r.u64("a").unwrap(), 42);
        assert_eq!(r.f64("b").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str("c").unwrap(), "hello");
        assert!(r.is_exhausted());
        r.expect_exhausted("section").unwrap();
        assert!(matches!(r.u8("past end"), Err(IoError::Parse { .. })));
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(
                    err,
                    IoError::Parse { .. } | IoError::BadHeader { .. } | IoError::Invariant(_)
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = sample().encode();
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x01;
            assert!(
                Snapshot::decode(&corrupt).is_err(),
                "flip at byte {byte} undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0x00);
        assert!(Snapshot::decode(&bytes).is_err());
    }

    #[test]
    fn wrong_version_is_a_bad_header() {
        // A future version, and the previous one (whose files must not be
        // parsed with this version's section layouts).
        for version in [9, SNAPSHOT_VERSION - 1] {
            let mut bytes = sample().encode();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            // Patch the CRC so the version check (not the CRC) fires.
            let n = bytes.len();
            let crc = crc32(&bytes[..n - 4]);
            bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
            let err = Snapshot::decode(&bytes).expect_err("wrong version decoded");
            assert!(matches!(err, IoError::BadHeader { .. }), "{err}");
            assert!(err.to_string().contains(&format!("not {SNAPSHOT_VERSION}")));
        }
    }

    #[test]
    fn atomic_write_roundtrips_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("surge-io-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let s = sample();
        write_snapshot_atomic(&path, &s.encode()).unwrap();
        assert_eq!(read_snapshot_from(&path).unwrap(), s);
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn framed_records_roundtrip_and_tear_cleanly() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&frame_record(b"alpha"));
        buf.extend_from_slice(&frame_record(b""));
        buf.extend_from_slice(&frame_record(b"gamma-gamma"));
        let mut off = 0;
        assert_eq!(
            read_framed_record(&buf, &mut off),
            FramedRecord::Complete(b"alpha")
        );
        assert_eq!(
            read_framed_record(&buf, &mut off),
            FramedRecord::Complete(b"")
        );
        let before_third = off;
        assert_eq!(
            read_framed_record(&buf, &mut off),
            FramedRecord::Complete(b"gamma-gamma")
        );
        assert_eq!(read_framed_record(&buf, &mut off), FramedRecord::End);

        // Every truncation inside the third record is a torn tail at its
        // start; the first two records stay readable.
        for cut in before_third..buf.len() - 1 {
            let slice = &buf[..cut + 1];
            let mut off = 0;
            assert!(matches!(
                read_framed_record(slice, &mut off),
                FramedRecord::Complete(b"alpha")
            ));
            assert!(matches!(
                read_framed_record(slice, &mut off),
                FramedRecord::Complete(b"")
            ));
            match read_framed_record(slice, &mut off) {
                FramedRecord::Torn { at } => assert_eq!(at, before_third),
                other => panic!("cut {cut}: {other:?}"),
            }
        }

        // A bit flip in the third record's payload is torn, not silently
        // accepted.
        let mut corrupt = buf.clone();
        corrupt[before_third + 6] ^= 0x10;
        let mut off = before_third;
        assert!(matches!(
            read_framed_record(&corrupt, &mut off),
            FramedRecord::Torn { .. }
        ));
    }
}
