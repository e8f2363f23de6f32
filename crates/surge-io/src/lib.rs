//! # surge-io
//!
//! Persistence formats for the SURGE system:
//!
//! * [`csv`] — human-readable text codec for [`surge_core::SpatialObject`]
//!   streams (one record per line, shortest-round-trip floats).
//! * [`binary`] — the fixed 40-byte binary record of one object, which the
//!   checkpoint WAL frames with a per-record CRC.
//! * [`checksum`] — table-driven CRC-32 shared by the durable formats.
//! * [`fault`] — pluggable segment-file stores ([`FsStore`]) plus a
//!   fault-injection wrapper ([`FailingStore`]) that fails after N writes
//!   or on the Nth sync, for crash-safety proptests.
//! * [`snapshot`] — the checksummed, versioned section container behind
//!   checkpoint snapshots (length-prefixed sections, CRC footer, atomic
//!   write-then-rename) plus the CRC-framed record codec the checkpoint
//!   WAL builds on.
//!
//! All decoders validate structural invariants (headers, record counts,
//! timestamp monotonicity, weight/coordinate sanity) and report precise
//! locations via [`IoError`]. Truncation is always an error, never a
//! silently shorter result: the CSV format carries a mandatory
//! end-of-stream footer, and the snapshot/WAL formats checksum every byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod checksum;
pub mod csv;
pub mod error;
pub mod fault;
pub mod snapshot;

pub use binary::{decode_record, encode_record, RECORD_SIZE};
pub use checksum::{crc32, Crc32};
pub use csv::{read_objects, read_objects_from, write_objects, write_objects_to};
pub use error::{IoError, Result};
pub use fault::{BlobFile, BlobStore, FailingStore, FaultPlan, FsStore};
pub use snapshot::{
    frame_record, read_framed_record, read_snapshot_from, write_snapshot_atomic, FramedRecord,
    PayloadReader, PayloadWriter, SectionWriter, Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
