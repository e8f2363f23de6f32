//! # surge-io
//!
//! Persistence and interchange formats for the SURGE system:
//!
//! * [`csv`] — human-readable text codec for [`surge_core::SpatialObject`]
//!   streams (one record per line, shortest-round-trip floats).
//! * [`binary`] — compact fixed-record binary codec for the same streams
//!   (40 bytes/object, seekable).
//! * [`eventlog`] — recording and replay of the expanded
//!   `New`/`Grown`/`Expired` event stream, for detector debugging and
//!   engine-independent benchmarking.
//! * [`geojson`] — GeoJSON export of detections and window snapshots for
//!   map rendering (the paper's §VII-G case-study figures).
//! * [`config`] — textual save/load of [`surge_core::SurgeQuery`] for
//!   reproducible experiment configurations.
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
//! silently shorter result: the binary formats frame with counts, the CSV
//! format carries a mandatory end-of-stream footer, and the snapshot/WAL
//! formats checksum every byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod checksum;
pub mod config;
pub mod csv;
pub mod error;
pub mod eventlog;
pub mod fault;
pub mod geojson;
pub mod snapshot;

pub use binary::{
    decode_record, encode_record, read_objects_binary, read_objects_binary_from,
    write_objects_binary, write_objects_binary_to, RECORD_SIZE,
};
pub use checksum::{crc32, Crc32};
pub use config::{query_from_str, query_to_string, read_query_from, write_query_to};
pub use csv::{read_objects, read_objects_from, write_objects, write_objects_to};
pub use error::{IoError, Result};
pub use eventlog::{read_events, read_events_from, write_events, write_events_to, EventLogWriter};
pub use fault::{BlobFile, BlobStore, FailingStore, FaultPlan, FsStore};
pub use geojson::{feature_collection, write_feature_collection_to, LabelledAnswer};
pub use snapshot::{
    frame_record, read_framed_record, read_snapshot_from, write_snapshot_atomic, FramedRecord,
    PayloadReader, PayloadWriter, SectionWriter, Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
