//! # surge-approx
//!
//! Approximate SURGE solutions with an O(log n) per-event cost and a
//! `(1 − α)/4` burst-score guarantee (Theorems 3 and 4):
//!
//! * [`gaps`] — GAP-SURGE (Algorithm 3): query-sized grid cells as candidate
//!   regions, score-ordered heap.
//! * [`mgaps`] — MGAP-SURGE (Algorithm 5): four half-cell-shifted GAP-SURGE
//!   instances; reports the best of the four.
//!
//! Both detectors implement the full production surface: sequential
//! [`surge_core::BurstDetector`], the shard mesh ([`surge_core::MeshIngest`],
//! including live resharding), the (trivially empty) incremental-sweep
//! contract, and bit-identical checkpoint capture/restore
//! — so they can stand in for the exact detector anywhere in the pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gaps;
pub mod mgaps;

pub use gaps::{GapMeshWorker, GapSurge};
pub use mgaps::{MgapMeshWorker, MgapSurge};
