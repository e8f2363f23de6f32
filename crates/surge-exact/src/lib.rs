//! # surge-exact
//!
//! Exact solutions to the SURGE problem:
//!
//! * [`sweep`] — SL-CSPOT (Algorithm 1), the sweep-line bursty-point search
//!   on a snapshot of rectangle objects: the `O(n log n)` segment-tree
//!   sweep [`sl_cspot`].
//! * [`segtree`] — the flat, arena-friendly lazy max segment tree behind
//!   the sweep, including the two-linear-form decomposition that makes
//!   range-add max exact for the non-monotone burst score.
//! * [`psweep`] — the per-cell SL-CSPOT state that persists across events,
//!   so a search re-sorts only what changed since the last one.
//! * [`cell`] — Cell-CSPOT (Algorithm 2), the continuous exact detector with
//!   lazy cell updates, static + dynamic upper bounds and candidate-point
//!   maintenance over a sharded cell store; also provides the B-CCS
//!   (static-bound-only) ablation, the dirty-cell sweep and the per-shard
//!   mesh workers used by the parallel stream driver.
//! * [`base`] — the Base ablation (Appendix J) that searches every affected
//!   cell on every event (no bounds).
//! * [`oracle`] — stateless snapshot oracles (global sweep, greedy top-k,
//!   region scoring) used for testing and the approximation-ratio
//!   experiments.
//!
//! The implementations that exist only to be compared against — the
//! `O(n²)` sweep, the single-form, recursive and split reference trees and
//! the α = 0 MaxRS sweep — live in the `surge-testkit` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod cell;
pub mod oracle;
pub mod psweep;
pub mod segtree;
pub mod sweep;

pub use base::BaseDetector;
pub use cell::{BoundMode, CellCspot, CellMeshWorker, DEFAULT_SHARDS};
pub use oracle::{score_of_region, snapshot_bursty_region, snapshot_rects, snapshot_topk};
pub use psweep::{PersistentCellSweep, SweepMode, SweepPool, SweepStats, MIN_CHURN_BUDGET};
pub use segtree::BurstSegTree;
pub use sweep::{score_at_point, sl_cspot, sl_cspot_with, SweepArena, SweepRect, SweepResult};
