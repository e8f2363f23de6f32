//! # surge-exact
//!
//! Exact solutions to the SURGE problem:
//!
//! * [`sweep`] — SL-CSPOT (Algorithm 1), the sweep-line bursty-point search
//!   on a snapshot of rectangle objects: the production `O(n log n)`
//!   segment-tree sweep [`sl_cspot`] plus the retained `O(n²)` reference
//!   [`sl_cspot_naive`].
//! * [`segtree`] — the flat, arena-friendly lazy max segment trees behind
//!   the sweep (plus the retained recursive reference tree), including the
//!   two-linear-form decomposition that makes range-add max exact for the
//!   non-monotone burst score.
//! * [`cell`] — Cell-CSPOT (Algorithm 2), the continuous exact detector with
//!   lazy cell updates, static + dynamic upper bounds and candidate-point
//!   maintenance over a sharded cell store; also provides the B-CCS
//!   (static-bound-only) ablation, the dirty-cell snapshot API and the
//!   per-shard ingest workers used by the parallel stream drivers.
//! * [`base`] — the Base ablation that searches every affected cell on every
//!   event (no bounds), with an opt-in incumbent-pruned variant.
//! * [`maxrs`] — the α = 0 specialization (classic MaxRS) on the shared
//!   segment tree, kept as a documented optimization/ablation.
//! * [`oracle`] — stateless snapshot oracles (global sweep, greedy top-k,
//!   region scoring) used for testing and the approximation-ratio
//!   experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod cell;
pub mod maxrs;
pub mod oracle;
pub mod psweep;
pub mod segtree;
pub mod sweep;

pub use base::BaseDetector;
pub use cell::{BoundMode, CellCspot, CellMeshWorker, DEFAULT_SHARDS};
pub use maxrs::maxrs_sweep;
pub use oracle::{score_of_region, snapshot_bursty_region, snapshot_rects, snapshot_topk};
pub use psweep::{PersistentCellSweep, SweepMode, SweepPool, SweepStats, MIN_CHURN_BUDGET};
pub use segtree::{BurstSegTree, MaxAddTree, RecursiveMaxAddTree, SplitBurstSegTree};
pub use sweep::{
    score_at_point, sl_cspot, sl_cspot_naive, sl_cspot_rebuild, sl_cspot_with, SweepArena,
    SweepRect, SweepResult,
};
