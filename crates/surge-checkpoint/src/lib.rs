//! # surge-checkpoint
//!
//! Durable state for continuous detection: periodic **logical snapshots**
//! plus a **segmented write-ahead log**, with recovery that resumes the
//! run **bit-identically** — the same per-slide and terminal answers the
//! uninterrupted run would have produced, for any crash point.
//!
//! The ROADMAP's north star is a production system; every driver the
//! earlier PRs built (`drive`, `drive_slides`, `drive_incremental`,
//! `drive_elastic`) still ingests from t = 0, so a process restart lost
//! all window state, persistent cell sweeps and top-k incumbents. This
//! crate closes that gap with three pieces:
//!
//! * [`state`] — the [`CheckpointState`] model and its snapshot codec:
//!   engine residency ([`surge_core::EngineState`]), detector logical
//!   state ([`surge_core::DetectorState`], captured via the
//!   [`surge_core::CheckpointableDetector`] trait implemented by
//!   `CellCspot`, `BaseDetector` and `KCellCspot`), the query/spec, and
//!   the per-slide answers so far — serialized into `surge-io`'s
//!   checksummed, versioned section container (CRC footer, atomic
//!   write-then-rename).
//! * [`wal`] — the segmented WAL of raw ingested objects: 40-byte binary
//!   records with per-record CRC framing, segment rotation by object
//!   count, torn-tail truncation on recovery, and segment GC once a
//!   snapshot covers them.
//! * [`driver`] — [`CheckpointPolicy`] + the checkpointing run loop
//!   ([`run_checkpointed`]) and the [`recover`] entry point: load the
//!   newest valid snapshot (skipping corrupt ones), rebuild the engine
//!   and detector from logical state — the persistent sweep structures
//!   rebuild deterministically from the restored rectangle sets, which
//!   the shared `sweep_core` guarantees is bit-identical — replay the WAL
//!   tail, then continue with the live source. Snapshot stalls land in a
//!   [`surge_stream::LatencyHistogram`] and surface as p50/p99/max
//!   columns in the reports.
//!
//! # Why recovery is bit-identical
//!
//! Two kinds of state exist. *Derived* state (sorted edge multisets,
//! segment trees, shard queues, heap keys) is a pure function of total
//! orders over the logical state, so rebuilding it reproduces future
//! searches exactly — the argument (and the proptests) behind the
//! persistent-vs-rebuild sweep differential of PR 4. *Accumulated*
//! floating-point state (Lemma-4 candidate sums, dynamic bounds, static
//! bound accumulators) is **not** re-derivable bit-for-bit — summation
//! order matters — so it is captured verbatim. `tests/crash_recovery.rs`
//! proptests the end-to-end claim across arbitrary cut points, 1/2/8
//! shards and both sweep modes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod serve;
pub mod state;
pub mod store;
pub mod wal;

pub use driver::{
    recover, recover_with_sink, run_checkpointed, run_checkpointed_observed,
    run_checkpointed_with_sink, run_checkpointed_with_store, CheckpointConfig, CheckpointError,
    CheckpointPolicy, CheckpointReport, SpecDetector, SyncPolicy, Tail,
};
pub use serve::{ServeGroupState, ServeLaneState, ServeMeta, ServeState, ServeSubState};
pub use state::{CheckpointMeta, CheckpointState, DetectorSpec};
pub use store::CheckpointDir;
pub use wal::{Wal, WalRecovery, WalWriter, WAL_MAGIC};
