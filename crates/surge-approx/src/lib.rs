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
//! Both detectors implement sequential [`surge_core::BurstDetector`] and
//! bit-identical checkpoint capture/restore, so they run under the
//! sequential drivers, the checkpoint runner and the serving layer. They
//! have no shard mesh: an event updates one cell per grid in O(log n), so
//! there is no per-slide sweep to spread across workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gaps;
pub mod mgaps;

pub use gaps::GapSurge;
pub use mgaps::MgapSurge;
