//! # surge-stream
//!
//! Streaming substrate for SURGE: the dual sliding-window engine that turns a
//! raw stream of spatial objects into the `New` / `Grown` / `Expired` event
//! stream consumed by every detector, plus seeded synthetic workload
//! generators standing in for the paper's real-world datasets (UK and US
//! geo-tagged tweets, Roma taxi traces).
//!
//! * [`window`] — [`SlidingWindowEngine`], the event generator of §IV-C.
//! * [`generator`] — configurable spatial/temporal workload synthesis with
//!   Gaussian hot-spots and burst injection.
//! * [`datasets`] — presets matching Table I of the paper (object counts,
//!   arrival rates, spatial extents).
//! * [`driver`] — replay loops feeding a source through the engine into a
//!   detector: per-object timing for the evaluation harness, plus the
//!   slide-batched [`drive_slides`] with dirty-cell accounting.
//! * [`parallel`] — the sequential slide-batched driver for incremental
//!   detectors ([`drive_incremental`]), which sweeps each slide's dirty
//!   cells in place; its parallel face is the mesh below.
//! * [`runtime`] — the [`QueryRuntime`] slide state machine every
//!   slide-batched driver runs on: a [`QueryCore`] (detector face) bound to
//!   a [`SlidingWindowEngine`] at a slide cadence, with the canonical flush /
//!   drain / terminal-flush contract and its resumable [`Phase`].
//! * [`answers`] — ack-released answer retention ([`AnswerLog`],
//!   [`AnswerSink`]): the bounded replacement for the grow-forever
//!   `answers: Vec` report pattern.
//! * [`metrics`] — log-bucketed latency histogram for tail-latency
//!   reporting.
//! * [`elastic`] — the shard mesh ([`drive_elastic`]): the driver thread
//!   expands window transitions once and broadcasts event batches; one
//!   worker per shard of the detector ingests and sweeps its own cells at a
//!   width fixed for the whole run — bit-identical to the sequential
//!   drivers. The only way an exact detector runs in parallel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answers;
pub mod datasets;
pub mod driver;
pub mod elastic;
pub mod generator;
pub mod metrics;
pub mod parallel;
pub mod runtime;
pub mod window;

pub use answers::{Ack, AnswerLog, AnswerSink, RetainAll};
pub use datasets::{Dataset, DatasetSpec};
pub use driver::{drive, drive_slides, drive_slides_observed, drive_topk, RunStats, SlideRunStats};
pub use elastic::{
    drive_elastic, drive_elastic_observed, drive_elastic_with_sink, BalancerPolicy, ElasticReport,
    EpochStats,
};
pub use generator::{BurstSpec, Hotspot, StreamGenerator, WorkloadConfig};
pub use metrics::{LatencyHistogram, LatencySummary};
pub use parallel::{
    drive_incremental, drive_incremental_observed, drive_incremental_with_sink, IncrementalReport,
};
pub use runtime::{FlushOutcome, Phase, QueryCore, QueryRuntime, RuntimeCounters, RuntimeProbes};
pub use window::{DirtyCellTracker, EventBatch, SlidingWindowEngine};
