//! # surge
//!
//! Continuous detection of bursty regions over a stream of spatial objects —
//! a Rust implementation of Feng et al., *SURGE* (ICDE 2018).
//!
//! Given a stream of weighted, timestamped points (geo-tagged tweets, ride
//! requests, taxi pickups), SURGE continuously reports the position of an
//! `a×b` rectangle maximizing the **burst score**
//! `S(r) = α·max(f(r,W_c) − f(r,W_p), 0) + (1−α)·f(r,W_c)` over two
//! consecutive sliding windows — i.e. the region spiking *right now*.
//!
//! ## Quickstart
//!
//! ```
//! use surge::prelude::*;
//!
//! // Monitor 1×1 regions with 1-second windows, balanced burstiness.
//! let query = SurgeQuery::whole_space(
//!     RegionSize::new(1.0, 1.0),
//!     WindowConfig::equal(1_000),
//!     0.5,
//! );
//! let mut detector = CellCspot::new(query); // exact
//! let mut windows = SlidingWindowEngine::new(query.windows);
//!
//! for (i, (x, y, t)) in [(0.2, 0.2, 0), (0.5, 0.4, 10), (9.0, 9.0, 20)]
//!     .iter()
//!     .enumerate()
//! {
//!     let obj = SpatialObject::new(i as u64, 1.0, Point::new(*x, *y), *t);
//!     for event in windows.push(obj) {
//!         detector.on_event(&event);
//!     }
//! }
//! let answer = detector.current().unwrap();
//! assert!(answer.region.contains(Point::new(0.2, 0.2)));
//! assert!(answer.region.contains(Point::new(0.5, 0.4)));
//! ```
//!
//! ## Crate map
//!
//! * [`core`] — data model: geometry, objects, windows, burst score, events,
//!   queries, the SURGE→cSPOT reduction, detector traits.
//! * [`stream`] — sliding-window engine, synthetic dataset models (UK / US /
//!   Taxi), burst injection, replay driver.
//! * [`exact`] — SL-CSPOT sweep, Cell-CSPOT (CCS) exact detector, B-CCS and
//!   Base ablations, snapshot oracles.
//! * [`approx`] — GAP-SURGE and MGAP-SURGE with the `(1−α)/4` guarantee.
//! * [`baseline`] — the adapted aG2 competitor.
//! * [`topk`] — kCCS, kGAPS, kMGAPS and the naive greedy top-k.
//! * [`observe`] — the observability layer: a metrics registry of
//!   counters/gauges/latency histograms with JSON + Prometheus export, and
//!   per-worker flight recorders of logical-time trace events. Provably
//!   non-invasive: a disabled [`observe::Observe`] handle compiles to
//!   no-ops, and an enabled one never perturbs answer bits.
//! * [`io`] — CSV/binary stream codecs, event-log recording/replay, GeoJSON
//!   export of detections, and the checksummed snapshot container.
//! * [`checkpoint`] — durable state: periodic logical snapshots + a
//!   segmented WAL, with crash recovery that resumes bit-identically.
//! * [`serve`] — the multi-query subscription layer: many queries over one
//!   shared ingest + window engine, bitwise-identical queries deduped onto
//!   one detector, per-subscription ack-released answer channels, and
//!   whole-registry crash recovery.
//!
//! Pick [`exact::CellCspot`] when exactness matters (it is fast at realistic
//! rates), [`approx::MgapSurge`] when sustained millions-of-objects-per-day
//! throughput matters more than the last ~10% of burst score.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use surge_approx as approx;
pub use surge_baseline as baseline;
pub use surge_checkpoint as checkpoint;
pub use surge_core as core;
pub use surge_exact as exact;
pub use surge_io as io;
pub use surge_observe as observe;
pub use surge_serve as serve;
pub use surge_stream as stream;
pub use surge_topk as topk;

/// The commonly-used types in one import.
pub mod prelude {
    pub use surge_approx::{GapSurge, MgapSurge};
    pub use surge_baseline::Ag2;
    pub use surge_checkpoint::{
        recover, run_checkpointed, CheckpointConfig, CheckpointPolicy, DetectorSpec, SyncPolicy,
    };
    pub use surge_core::{
        burst_score, shard_of_cell, BurstDetector, BurstParams, Event, EventKind,
        IncrementalDetector, MeshIngest, Point, Rect, RegionAnswer, RegionSize, SpatialObject,
        SurgeQuery, TopKDetector, WindowConfig, WindowKind,
    };
    pub use surge_exact::{
        snapshot_bursty_region, snapshot_topk, BaseDetector, BoundMode, CellCspot,
    };
    pub use surge_io::{
        read_events_from, read_objects_from, write_events_to, write_objects_to, LabelledAnswer,
    };
    pub use surge_observe::{Observe, RegistrySnapshot, TraceDump, TraceEvent};
    pub use surge_serve::{ServeConfig, ServeError, ServeStats, SubId, SurgeServer};
    pub use surge_stream::{
        drive, drive_elastic, drive_incremental, drive_parallel, drive_slides, drive_topk,
        BalancerPolicy, BurstSpec, Dataset, DirtyCellTracker, ElasticReport, EventBatch, Hotspot,
        LatencyHistogram, SlidingWindowEngine, StreamGenerator, WorkloadConfig,
    };
    pub use surge_topk::{KCellCspot, KGapSurge, KMgapSurge, NaiveTopK};
}
