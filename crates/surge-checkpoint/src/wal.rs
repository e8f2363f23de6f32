//! The segmented write-ahead log of raw ingested objects.
//!
//! Every arrival is appended to the WAL *before* it enters the window
//! engine, so the stream between the newest snapshot and a crash can be
//! replayed deterministically. The log is a directory of segment files:
//!
//! ```text
//! wal-000000000000.seg        objects [0, 4096)
//! wal-000000004096.seg        objects [4096, 8192)
//! wal-000000008192.seg        objects [8192, ...)   ← active tail
//! ```
//!
//! Segment layout (little-endian):
//!
//! ```text
//! magic       : 8 bytes = b"SURGWAL1"
//! first_index : u64      global index of the segment's first record
//! records     : × { len: u32 = 40, payload: 40-byte object record,
//!                   crc: u32 = CRC-32(payload) }
//! ```
//!
//! The 40-byte payload is exactly `surge-io`'s binary object record
//! ([`surge_io::encode_record`]); the CRC framing is
//! [`surge_io::frame_record`]. Segments are named by their first index so
//! garbage collection ([`gc`]) — dropping segments fully covered by the
//! oldest retained snapshot — is a directory listing, no index file.
//!
//! # Torn tails
//!
//! A crash can end the active segment mid-record. [`Wal::recover`]
//! tolerates exactly that: a torn or CRC-corrupt record **at the tail of
//! the last segment** truncates the file to its last complete record (a
//! header-less last segment is removed outright). The same damage anywhere
//! else — a non-final segment, or records *after* valid ones would imply —
//! is real corruption and surfaces as a precise [`IoError`]. This is the
//! decoder contract the `surge-io` hardening tests pin down: truncation is
//! recovered or reported, never silently misread.
//!
//! # Durability
//!
//! [`WalWriter::append`] buffers; [`WalWriter::sync`] flushes to the OS and
//! [`WalWriter::sync_durable`] additionally forces the bytes to stable
//! storage (`fdatasync`). The checkpointing driver syncs at every slide
//! boundary (group commit) per its [`SyncPolicy`], after the detector's
//! flush and before its answers leave the process, so a hard kill loses at
//! most the current slide's tail — and because recovery resumes the
//! *source* stream from the last durable record, a lost tail costs replay
//! work, never correctness. `sync_durable` reaches only the active
//! segment, so under the two `fdatasync` tiers a rotation syncs the segment
//! it seals: every record appended before a durable sync is on stable
//! storage, whichever segment holds it.
//!
//! Segment files are created through a [`surge_io::BlobStore`], so tests
//! can substitute [`surge_io::FailingStore`] and probe every I/O-failure
//! point; production uses [`surge_io::FsStore`].

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use surge_core::SpatialObject;
use surge_io::{
    decode_record, encode_record, frame_record, read_framed_record, BlobFile, BlobStore,
    FramedRecord, FsStore, IoError, Result, RECORD_SIZE,
};

use crate::SyncPolicy;

/// Magic bytes identifying a WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"SURGWAL1";
/// Segment header size: magic + first_index.
pub const WAL_HEADER: usize = 16;

fn segment_path(dir: &Path, first_index: u64) -> PathBuf {
    dir.join(format!("wal-{first_index:012}.seg"))
}

/// Lists the segment files in `dir` as `(first_index, path)`, ascending.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    if !dir.exists() {
        return Ok(segments);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
        else {
            continue;
        };
        let first: u64 = stem
            .parse()
            .map_err(|_| IoError::Invariant(format!("unparseable WAL segment name {name:?}")))?;
        segments.push((first, entry.path()));
    }
    segments.sort_unstable();
    Ok(segments)
}

/// The write half of the log: appends framed records, rotating segments
/// every `segment_objects` appends.
pub struct WalWriter {
    dir: PathBuf,
    segment_objects: u64,
    /// The run's durability tier: any but `OsFlush` syncs a segment as it
    /// is sealed.
    sync: SyncPolicy,
    store: Box<dyn BlobStore>,
    file: Option<BufWriter<Box<dyn BlobFile>>>,
    /// Records in the active segment.
    in_segment: u64,
    /// Global index of the next record to append.
    next_index: u64,
    /// Segments this writer opened.
    segments_opened: u64,
}

impl fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalWriter")
            .field("dir", &self.dir)
            .field("segment_objects", &self.segment_objects)
            .field("sync", &self.sync)
            .field("in_segment", &self.in_segment)
            .field("next_index", &self.next_index)
            .field("segments_opened", &self.segments_opened)
            .finish_non_exhaustive()
    }
}

impl WalWriter {
    /// Opens a writer that appends starting at global index `next_index`
    /// (0 for a fresh run; the recovered count after a restart). The first
    /// append opens a new segment — recovery always seals the old tail, so
    /// a writer never extends a file it did not create. `sync` is the run's
    /// durability tier; it decides whether a rotation syncs the segment it
    /// seals.
    pub fn open(
        dir: impl Into<PathBuf>,
        next_index: u64,
        segment_objects: u64,
        sync: SyncPolicy,
    ) -> Result<Self> {
        Self::open_with_store(dir, next_index, segment_objects, sync, Box::new(FsStore))
    }

    /// [`WalWriter::open`] with an explicit segment-file store — the hook
    /// fault-injection tests use to make any write or sync fail.
    pub fn open_with_store(
        dir: impl Into<PathBuf>,
        next_index: u64,
        segment_objects: u64,
        sync: SyncPolicy,
        store: Box<dyn BlobStore>,
    ) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(WalWriter {
            dir,
            segment_objects: segment_objects.max(1),
            sync,
            store,
            file: None,
            in_segment: 0,
            next_index,
            segments_opened: 0,
        })
    }

    /// Global index the next append will get.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Segments this writer has opened.
    pub fn segments_opened(&self) -> u64 {
        self.segments_opened
    }

    fn roll(&mut self) -> Result<()> {
        if let Some(mut f) = self.file.take() {
            f.flush()?;
            // A sealed segment leaves `sync_durable`'s reach, so a durable
            // tier syncs it now or its unsynced records never would be.
            if self.sync != SyncPolicy::OsFlush {
                f.get_mut().sync_data()?;
            }
        }
        let path = segment_path(&self.dir, self.next_index);
        // Overwriting an existing segment named `next_index` is safe: a
        // recovered writer starts after every durable record, so a
        // colliding file can only be a torn tail recovery truncated down
        // to (at most) its header. Guarding against *accidental* reuse of
        // a live log is the driver's job (it refuses dirs with state).
        let file = self.store.create(&path)?;
        let mut out = BufWriter::new(file);
        out.write_all(WAL_MAGIC)?;
        out.write_all(&self.next_index.to_le_bytes())?;
        self.file = Some(out);
        self.in_segment = 0;
        self.segments_opened += 1;
        Ok(())
    }

    /// Appends one object, rotating the segment when full. Returns the
    /// record's global index.
    pub fn append(&mut self, object: &SpatialObject) -> Result<u64> {
        if self.file.is_none() || self.in_segment >= self.segment_objects {
            self.roll()?;
        }
        let framed = frame_record(&encode_record(object));
        self.file
            .as_mut()
            .expect("segment open")
            .write_all(&framed)?;
        self.in_segment += 1;
        let idx = self.next_index;
        self.next_index += 1;
        Ok(idx)
    }

    /// Flushes buffered records to the OS (the group-commit point).
    pub fn sync(&mut self) -> Result<()> {
        if let Some(f) = self.file.as_mut() {
            f.flush()?;
        }
        Ok(())
    }

    /// [`WalWriter::sync`] plus `fdatasync`: the bytes survive power loss,
    /// not just a process kill. Used by the stricter [`SyncPolicy`] tiers,
    /// whose rotations have already synced every sealed segment.
    pub fn sync_durable(&mut self) -> Result<()> {
        if let Some(f) = self.file.as_mut() {
            f.flush()?;
            f.get_mut().sync_data()?;
        }
        Ok(())
    }
}

/// Deletes every segment in the WAL directory `dir` whose records all have
/// index `< upto` — the segments fully covered by the oldest retained
/// snapshot — and returns how many it removed. The newest listed segment is
/// never deleted.
///
/// A free function on the directory, not a [`WalWriter`] method: the
/// checkpoint driver runs it on its background snapshot writer while the
/// ingest thread keeps appending and rotating. That is safe because a
/// segment is only removed when a successor is listed — so it was sealed
/// before the listing — and rotation only ever adds segments above it.
pub fn gc(dir: &Path, upto: u64) -> Result<u64> {
    let segments = list_segments(dir)?;
    let mut removed = 0u64;
    for (i, (_first, path)) in segments.iter().enumerate() {
        // A segment's records end where the next segment starts; the
        // last listed segment is (or was) the active tail — keep it.
        let Some((next_first, _)) = segments.get(i + 1) else {
            break;
        };
        if *next_first <= upto {
            std::fs::remove_file(path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// What [`Wal::recover`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecovery {
    /// Global index of `objects[0]` (0 when the log is empty).
    pub start_index: u64,
    /// Every durable object in the retained segments, in index order.
    pub objects: Vec<SpatialObject>,
    /// Bytes truncated off the last segment's torn tail (0 for a clean
    /// shutdown).
    pub truncated_bytes: u64,
    /// Segments read.
    pub segments: u64,
}

/// The read/recovery half of the log.
#[derive(Debug)]
pub struct Wal;

impl Wal {
    /// Reads every retained segment, validating headers, per-record CRCs
    /// and cross-segment contiguity. A torn tail on the **last** segment is
    /// truncated in place (see the module docs); damage anywhere else is an
    /// error.
    pub fn recover(dir: impl AsRef<Path>) -> Result<WalRecovery> {
        let dir = dir.as_ref();
        let segments = list_segments(dir)?;
        let mut objects: Vec<SpatialObject> = Vec::new();
        let mut start_index = 0u64;
        let mut truncated = 0u64;
        let mut expected_next: Option<u64> = None;
        let count = segments.len();
        for (i, (first, path)) in segments.iter().enumerate() {
            let last = i + 1 == count;
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            if bytes.len() < WAL_HEADER || &bytes[..8] != WAL_MAGIC {
                if last {
                    // A crash before the tail segment's header completed:
                    // the whole file is a torn tail.
                    truncated += bytes.len() as u64;
                    std::fs::remove_file(path)?;
                    continue;
                }
                return Err(IoError::Invariant(format!(
                    "WAL segment {path:?} has a corrupt header and is not the tail"
                )));
            }
            let header_first =
                u64::from_le_bytes(bytes[8..WAL_HEADER].try_into().expect("8 bytes"));
            if header_first != *first {
                return Err(IoError::Invariant(format!(
                    "WAL segment {path:?} header says first index {header_first}, name says {first}"
                )));
            }
            if let Some(expected) = expected_next {
                if *first != expected {
                    return Err(IoError::Invariant(format!(
                        "WAL gap: segment {path:?} starts at {first}, expected {expected}"
                    )));
                }
            } else {
                start_index = *first;
            }
            let mut off = WAL_HEADER;
            let mut index = *first;
            loop {
                match read_framed_record(&bytes, &mut off) {
                    FramedRecord::End => break,
                    FramedRecord::Complete(payload) => {
                        if payload.len() != RECORD_SIZE {
                            return Err(IoError::Invariant(format!(
                                "WAL record {index} has {} payload bytes, expected {RECORD_SIZE}",
                                payload.len()
                            )));
                        }
                        let rec: &[u8; RECORD_SIZE] = payload.try_into().expect("length checked");
                        objects.push(decode_record(rec, index)?);
                        index += 1;
                    }
                    FramedRecord::Torn { at } => {
                        if !last {
                            return Err(IoError::Invariant(format!(
                                "WAL segment {path:?} is torn at byte {at} but is not the tail"
                            )));
                        }
                        truncated += (bytes.len() - at) as u64;
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(at as u64)?;
                        f.sync_all()?;
                        break;
                    }
                }
            }
            expected_next = Some(index);
        }
        // Timestamp monotonicity across the whole recovered stream.
        for pair in objects.windows(2) {
            if pair[0].created > pair[1].created {
                return Err(IoError::Invariant(format!(
                    "WAL objects out of timestamp order: {} after {}",
                    pair[1].created, pair[0].created
                )));
            }
        }
        Ok(WalRecovery {
            start_index,
            objects,
            truncated_bytes: truncated,
            segments: count as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};
    use surge_core::Point;

    fn obj(id: u64, t: u64) -> SpatialObject {
        SpatialObject::new(id, 1.0 + (id % 3) as f64, Point::new(id as f64, 0.5), t)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("surge-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_rotate_recover_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut w = WalWriter::open(&dir, 0, 4, SyncPolicy::OsFlush).unwrap();
        let objs: Vec<_> = (0..11).map(|i| obj(i, i * 10)).collect();
        for o in &objs {
            w.append(o).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.segments_opened(), 3); // 4 + 4 + 3
        drop(w);
        let rec = Wal::recover(&dir).unwrap();
        assert_eq!(rec.start_index, 0);
        assert_eq!(rec.objects, objs);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.segments, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        // Build a log, then truncate the LAST segment at every byte offset:
        // recovery must always return a prefix of the appended objects and
        // leave the log readable again.
        let dir = temp_dir("torn");
        let objs: Vec<_> = (0..6).map(|i| obj(i, i * 10)).collect();
        {
            let mut w = WalWriter::open(&dir, 0, 4, SyncPolicy::OsFlush).unwrap();
            for o in &objs {
                w.append(o).unwrap();
            }
            w.sync().unwrap();
        }
        let tail = segment_path(&dir, 4);
        let full = std::fs::read(&tail).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&tail, &full[..cut]).unwrap();
            let rec = Wal::recover(&dir).unwrap();
            assert!(rec.objects.len() >= 4, "first segment intact at cut {cut}");
            assert_eq!(
                rec.objects[..],
                objs[..rec.objects.len()],
                "prefix property at cut {cut}"
            );
            // Recovery after recovery is clean (idempotent truncation).
            let again = Wal::recover(&dir).unwrap();
            assert_eq!(again.objects, rec.objects);
            assert_eq!(again.truncated_bytes, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_in_tail_is_truncated_there() {
        let dir = temp_dir("flip");
        let objs: Vec<_> = (0..4).map(|i| obj(i, i * 10)).collect();
        {
            let mut w = WalWriter::open(&dir, 0, 100, SyncPolicy::OsFlush).unwrap();
            for o in &objs {
                w.append(o).unwrap();
            }
            w.sync().unwrap();
        }
        let path = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload bit in the third record.
        let rec_size = 4 + RECORD_SIZE + 4;
        bytes[WAL_HEADER + 2 * rec_size + 10] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let rec = Wal::recover(&dir).unwrap();
        assert_eq!(rec.objects, objs[..2]);
        assert!(rec.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_in_a_non_tail_segment_is_an_error() {
        let dir = temp_dir("midcorrupt");
        {
            let mut w = WalWriter::open(&dir, 0, 2, SyncPolicy::OsFlush).unwrap();
            for i in 0..6 {
                w.append(&obj(i, i * 10)).unwrap();
            }
            w.sync().unwrap();
        }
        let first = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&first).unwrap();
        let n = bytes.len();
        bytes.truncate(n - 3);
        std::fs::write(&first, &bytes).unwrap();
        assert!(matches!(Wal::recover(&dir), Err(IoError::Invariant(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_drops_covered_segments_only() {
        let dir = temp_dir("gc");
        let mut w = WalWriter::open(&dir, 0, 2, SyncPolicy::OsFlush).unwrap();
        for i in 0..7 {
            w.append(&obj(i, i * 10)).unwrap();
        }
        w.sync().unwrap();
        // Segments: [0,2) [2,4) [4,6) [6,..). A snapshot at index 5 covers
        // the first two entirely, not the third.
        let removed = gc(&dir, 5).unwrap();
        assert_eq!(removed, 2);
        let rec = Wal::recover(&dir).unwrap();
        assert_eq!(rec.start_index, 4);
        assert_eq!(rec.objects.len(), 3);
        assert_eq!(rec.objects[0].id, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_resumes_after_recovery_with_a_fresh_segment() {
        let dir = temp_dir("resume");
        {
            let mut w = WalWriter::open(&dir, 0, 100, SyncPolicy::OsFlush).unwrap();
            for i in 0..5 {
                w.append(&obj(i, i * 10)).unwrap();
            }
            w.sync().unwrap();
        }
        let rec = Wal::recover(&dir).unwrap();
        assert_eq!(rec.objects.len(), 5);
        let mut w = WalWriter::open(&dir, 5, 100, SyncPolicy::OsFlush).unwrap();
        for i in 5..8 {
            assert_eq!(w.append(&obj(i, i * 10)).unwrap(), i);
        }
        w.sync().unwrap();
        let rec = Wal::recover(&dir).unwrap();
        assert_eq!(rec.objects.len(), 8);
        assert_eq!(rec.segments, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gap_between_segments_is_an_error() {
        let dir = temp_dir("gap");
        {
            let mut w = WalWriter::open(&dir, 0, 2, SyncPolicy::OsFlush).unwrap();
            for i in 0..6 {
                w.append(&obj(i, i * 10)).unwrap();
            }
            w.sync().unwrap();
        }
        std::fs::remove_file(segment_path(&dir, 2)).unwrap();
        assert!(matches!(Wal::recover(&dir), Err(IoError::Invariant(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_durable_persists_the_tail() {
        let dir = temp_dir("durable");
        let mut w = WalWriter::open(&dir, 0, 8, SyncPolicy::OsFlush).unwrap();
        for i in 0..3 {
            w.append(&obj(i, i * 10)).unwrap();
        }
        w.sync_durable().unwrap();
        let rec = Wal::recover(&dir).unwrap();
        assert_eq!(rec.objects.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store that counts, per segment path, the bytes written since that
    /// file's last `sync_data` — the bytes a power loss could still drop.
    #[derive(Clone, Default)]
    struct UnsyncedBytes(Arc<Mutex<BTreeMap<PathBuf, usize>>>);

    struct UnsyncedFile {
        path: PathBuf,
        unsynced: UnsyncedBytes,
    }

    impl BlobStore for UnsyncedBytes {
        fn create(&self, path: &Path) -> std::io::Result<Box<dyn BlobFile>> {
            self.0.lock().unwrap().insert(path.to_path_buf(), 0);
            Ok(Box::new(UnsyncedFile {
                path: path.to_path_buf(),
                unsynced: self.clone(),
            }))
        }
    }

    impl Write for UnsyncedFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            *self.unsynced.0.lock().unwrap().get_mut(&self.path).unwrap() += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl BlobFile for UnsyncedFile {
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.unsynced.0.lock().unwrap().insert(self.path.clone(), 0);
            Ok(())
        }
    }

    #[test]
    fn durable_sync_covers_segments_sealed_since_the_last_one() {
        for sync in [
            SyncPolicy::OsFlush,
            SyncPolicy::FsyncPerSnapshot,
            SyncPolicy::FsyncPerSlide,
        ] {
            let dir = temp_dir("sealed");
            let store = UnsyncedBytes::default();
            let mut w =
                WalWriter::open_with_store(&dir, 0, 2, sync, Box::new(store.clone())).unwrap();
            // Five appends cross two rotations: segments [0,2) and [2,4)
            // are sealed, [4,..) is active.
            for i in 0..5 {
                w.append(&obj(i, i * 10)).unwrap();
            }
            let unsynced = || -> Vec<usize> { store.0.lock().unwrap().values().copied().collect() };
            if sync == SyncPolicy::OsFlush {
                // The bench's tier: a rotation only flushes to the OS.
                w.sync().unwrap();
                assert!(unsynced().iter().all(|&n| n > 0), "{sync:?}");
            } else {
                w.sync_durable().unwrap();
                assert_eq!(unsynced(), [0, 0, 0], "{sync:?}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn injected_write_failure_surfaces_and_log_stays_recoverable() {
        use surge_io::{FailingStore, FaultPlan};
        let dir = temp_dir("inject");
        let store = FailingStore::new(FaultPlan::new().fail_after_writes(6));
        let mut w =
            WalWriter::open_with_store(&dir, 0, 2, SyncPolicy::OsFlush, Box::new(store)).unwrap();
        let mut failed = false;
        for i in 0..40 {
            // Appends buffer, so the injected failure may surface at a
            // roll or at sync — either way it must be IoError::Io.
            let r = w.append(&obj(i, i * 10)).and_then(|_| w.sync());
            match r {
                Ok(()) => {}
                Err(IoError::Io(_)) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error kind: {e:?}"),
            }
        }
        assert!(failed, "fault plan must trigger");
        drop(w);
        // Whatever made it to disk recovers as a clean prefix.
        let rec = Wal::recover(&dir).unwrap();
        for (i, o) in rec.objects.iter().enumerate() {
            assert_eq!(o.id, rec.start_index + i as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_log_recovers_empty() {
        let dir = temp_dir("empty");
        let rec = Wal::recover(&dir).unwrap();
        assert!(rec.objects.is_empty());
        assert_eq!(rec.segments, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
