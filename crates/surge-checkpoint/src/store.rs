//! Checkpoint directory layout: snapshot files + the WAL subdirectory.
//!
//! ```text
//! <dir>/
//!   snap-0000000001-000000002048.snap    seq 1, covers objects [0, 2048)
//!   snap-0000000002-000000004096.snap    seq 2, covers objects [0, 4096)
//!   wal/
//!     wal-000000002048.seg ...
//! ```
//!
//! Snapshot names carry `(sequence, objects_ingested)` so retention and
//! WAL garbage collection are directory listings — no manifest file to
//! keep consistent. Snapshots are written atomically
//! ([`surge_io::write_snapshot_atomic`]: temporary file, fsync, rename,
//! directory fsync), so a crash mid-write leaves at most a stray
//! `snap-*.tmp` that no listing here parses; [`CheckpointDir::latest_snapshot`]
//! walks newest-first and **skips corrupt files** (logging them into the
//! return value is the caller's concern; recovery must survive a bad
//! newest snapshot by falling back to the previous one).

use std::path::{Path, PathBuf};

use surge_io::{read_snapshot_from, write_snapshot_atomic, IoError, Result};

use crate::state::{CheckpointMeta, CheckpointState};

/// A checkpoint directory handle.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    root: PathBuf,
}

fn parse_snapshot_name(name: &str) -> Option<(u64, u64)> {
    let stem = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    let (seq, objects) = stem.split_once('-')?;
    Some((seq.parse().ok()?, objects.parse().ok()?))
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let dir = CheckpointDir { root };
        std::fs::create_dir_all(dir.wal_dir())?;
        Ok(dir)
    }

    /// The root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The WAL subdirectory.
    pub fn wal_dir(&self) -> PathBuf {
        self.root.join("wal")
    }

    /// The snapshot files as `(seq, objects_ingested, path)`, ascending by
    /// sequence.
    pub fn snapshots(&self) -> Result<Vec<(u64, u64, PathBuf)>> {
        let mut snaps = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((seq, objects)) = parse_snapshot_name(name) {
                snaps.push((seq, objects, entry.path()));
            }
        }
        snaps.sort_unstable();
        Ok(snaps)
    }

    /// Atomically writes `bytes` — a snapshot encoded by
    /// [`CheckpointState::encode_into`] — as the snapshot file `meta`
    /// names, directory sync included, so the file is durable before the
    /// caller retires what older snapshots needed.
    pub fn write_snapshot(&self, meta: &CheckpointMeta, bytes: &[u8]) -> Result<PathBuf> {
        let path = self.root.join(format!(
            "snap-{:010}-{:012}.snap",
            meta.snapshot_seq, meta.objects_ingested
        ));
        write_snapshot_atomic(&path, bytes)?;
        Ok(path)
    }

    /// Loads the newest snapshot that decodes and validates cleanly,
    /// walking backwards over corrupt ones. Returns `None` when no valid
    /// snapshot exists.
    ///
    /// Only *content* failures (bad CRC, truncation, semantic corruption)
    /// demote to an older snapshot; a genuine I/O failure — permissions, a
    /// bad mount — surfaces as an error, so recovery never silently
    /// replays from zero because the disk was unreadable. A concurrently
    /// vanished file (`NotFound`) is skipped like corruption.
    pub fn latest_snapshot(&self) -> Result<Option<(PathBuf, CheckpointState)>> {
        let snaps = self.snapshots()?;
        for (_, _, path) in snaps.iter().rev() {
            let loaded =
                read_snapshot_from(path).and_then(|snap| CheckpointState::from_snapshot(&snap));
            match loaded {
                Ok(state) => return Ok(Some((path.clone(), state))),
                Err(IoError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(IoError::Io(e)) => return Err(IoError::Io(e)),
                // Corrupt snapshot: fall back to the previous one.
                Err(_) => continue,
            }
        }
        Ok(None)
    }

    /// Deletes all but the newest `keep` snapshots and returns the
    /// `objects_ingested` of the **oldest retained** snapshot — the floor
    /// below which WAL segments are no longer needed. `None` when no
    /// snapshot remains.
    pub fn retire_snapshots(&self, keep: usize) -> Result<Option<u64>> {
        let keep = keep.max(1);
        let snaps = self.snapshots()?;
        let cut = snaps.len().saturating_sub(keep);
        for (_, _, path) in &snaps[..cut] {
            std::fs::remove_file(path)?;
        }
        Ok(snaps[cut..].first().map(|(_, objects, _)| *objects))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_parse() {
        assert_eq!(
            parse_snapshot_name("snap-0000000007-000000002048.snap"),
            Some((7, 2048))
        );
        assert_eq!(parse_snapshot_name("snap-x.snap"), None);
        assert_eq!(parse_snapshot_name("wal-000000000000.seg"), None);
    }
}
