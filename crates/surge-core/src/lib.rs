//! # surge-core
//!
//! Core data model for the SURGE system (Feng et al., *SURGE: Continuous
//! Detection of Bursty Regions Over a Stream of Spatial Objects*, ICDE 2018).
//!
//! This crate defines the vocabulary shared by every SURGE detector:
//!
//! * [`geom`] — planar geometry primitives ([`Point`], [`Rect`]).
//! * [`object`] — weighted, timestamped [`SpatialObject`]s and the
//!   [`RectObject`]s produced by the SURGE→cSPOT reduction.
//! * [`time`] — logical timestamps and the dual sliding-window configuration.
//! * [`score`] — the burst score `S = α·max(f_c − f_p, 0) + (1−α)·f_c`.
//! * [`event`] — the `New` / `Grown` / `Expired` window-transition events that
//!   drive every detector.
//! * [`query`] — the continuous query descriptor `q = ⟨A, a×b, |W|⟩`.
//! * [`grid`] — the cell grid used by the exact and approximate solutions.
//! * [`store`] — sharded per-cell storage (spatial-hash sharding by cell id)
//!   behind the parallel-ingest pipeline.
//! * [`reduction`] — the SURGE→cSPOT mapping (Theorem 1 of the paper).
//! * [`detector`] — the [`BurstDetector`] / [`TopKDetector`] traits every
//!   algorithm implements, plus [`IncrementalDetector`] (slide-batched dirty
//!   sweeps) and [`MeshIngest`] / [`MeshWorker`] (the per-shard ingest mesh).
//! * [`checkpoint`] — the logical state model behind durable snapshots:
//!   [`EngineState`] for the window engines and the
//!   [`CheckpointableDetector`] capture/restore contract for detectors
//!   (serialized by `surge-io`/`surge-checkpoint`).
//!
//! Downstream crates (`surge-exact`, `surge-approx`, `surge-baseline`,
//! `surge-topk`) implement the paper's algorithms on top of this model, and
//! `surge-stream` turns raw object streams into the event stream consumed
//! here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod detector;
pub mod event;
pub mod geom;
pub mod grid;
pub mod object;
pub mod ordered;
pub mod query;
pub mod reduction;
pub mod score;
pub mod store;
pub mod time;

pub use checkpoint::{
    CandidateState, CellTable, CellView, CheckpointableDetector, ControllerState, DetectorState,
    EngineState, GridCellState, RectState, RestoreError,
};
pub use detector::{
    BurstDetector, DetectorStats, IncrementalDetector, MeshIngest, MeshWorker, ShardAnswer,
    ShardFlush, ShardRunStats, ShardWorkerStats, SweepCacheStats, TopKDetector,
};
pub use event::{Event, EventKind};
pub use geom::{Point, Rect};
pub use grid::{CellId, GridSpec};
pub use object::{ObjectId, RectObject, SpatialObject, WindowKind};
pub use ordered::TotalF64;
pub use query::{QueryKey, QueryKeyError, RegionAnswer, RegionSize, SurgeQuery};
pub use reduction::{object_to_rect, region_for_point};
pub use score::{burst_score, BurstParams, ScorePair, SCORE_EPS};
pub use store::{shard_of_cell, CellStore, ShardedCellStore};
pub use time::{Duration, Timestamp, WindowConfig};
