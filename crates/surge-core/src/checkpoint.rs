//! Logical checkpoint state: capture/restore contracts for engines and
//! detectors.
//!
//! A production deployment of continuous detection cannot afford to replay
//! the stream from t = 0 after a process restart. The checkpoint subsystem
//! (`surge-checkpoint`) periodically persists a **logical snapshot** of the
//! pipeline — window residency, per-cell detector state, pending per-slide
//! answers, top-k incumbents — plus a write-ahead log of raw arrivals, and
//! recovery reconstructs the exact pipeline state and replays the log tail.
//!
//! The types here are the *logical* state model that snapshot: they carry
//! no derived structures (segment trees, sorted edge multisets, shard
//! queues). Everything derived is rebuilt deterministically on restore —
//! the persistent-sweep structures are defined by total orders over the
//! restored rectangle sets, so a restored detector's future searches are
//! **bit-identical** to the uninterrupted run's (the same argument, and the
//! same proptests, that back the persistent-vs-rebuild sweep differential).
//! What floating-point history *cannot* be re-derived bitwise — candidate
//! weight sums maintained incrementally under Lemma 4, dynamic bounds,
//! per-cell static-bound accumulators — is captured verbatim, bit for bit.
//!
//! The serialization of this model (checksummed sections, CRC footer,
//! atomic write) lives in `surge-io`/`surge-checkpoint`; this module is
//! only the in-memory contract, so detector crates can implement
//! [`CheckpointableDetector`] without an I/O dependency.

use std::fmt;

use crate::detector::DetectorStats;
use crate::geom::{Point, Rect};
use crate::grid::CellId;
use crate::object::{ObjectId, SpatialObject, WindowKind};
use crate::time::{Timestamp, WindowConfig};

/// The logical state of a dual sliding-window engine: the resident objects
/// (in creation order, front first) plus the clock fields an engine needs to
/// keep emitting the exact transition sequence it would have emitted
/// uninterrupted.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// The window configuration the engine was built with.
    pub windows: WindowConfig,
    /// The engine clock (largest timestamp observed).
    pub now: Timestamp,
    /// The largest arrival timestamp observed.
    pub last_created: Timestamp,
    /// Whether the stream had become stable (at least one expiry seen).
    pub started: bool,
    /// Objects resident in the current window, oldest first.
    pub current: Vec<SpatialObject>,
    /// Objects resident in the past window, oldest first.
    pub past: Vec<SpatialObject>,
}

/// One resident rectangle of a cell (or of a top-k detector's global
/// rectangle set): the reduced rectangle, its originating object id and
/// weight, which window it currently belongs to, and — for top-k detectors —
/// its visibility level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectState {
    /// Originating object id.
    pub id: ObjectId,
    /// The full (unclipped) reduced rectangle.
    pub rect: Rect,
    /// Object weight.
    pub weight: f64,
    /// Current or past window.
    pub kind: WindowKind,
    /// Top-k visibility level (`lvl` in Algorithm 4); 0 for single-region
    /// detectors, which have no levels.
    pub level: u32,
}

/// A cell's cached candidate for one cSPOT problem, captured bit-for-bit.
///
/// `Valid` carries the incrementally maintained weight sums (Lemma 4): they
/// are floating-point accumulations whose exact bits depend on event
/// history, so they must be restored verbatim rather than recomputed — a
/// fresh sweep could legitimately sum the same weights in a different
/// order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CandidateState {
    /// The candidate was invalidated (or never computed); the next answer
    /// scan re-searches the cell.
    Stale,
    /// A maintained candidate guaranteed to attain the cell's maximum.
    Valid {
        /// The candidate bursty point.
        point: Point,
        /// Current-window weight sum at `point` (raw, unnormalized).
        wc: f64,
        /// Past-window weight sum at `point` (raw, unnormalized).
        wp: f64,
    },
    /// The cell's feasible point domain is empty; it can never answer.
    Infeasible,
    /// The cell was searched and found to contain no in-domain rectangle
    /// (a fresh "no candidate" outcome, distinct from `Stale`).
    Absent,
}

/// The logical state of one grid cell, across the detector's cSPOT levels
/// (`len == 1` for single-region detectors, `k` for top-k).
#[derive(Debug, Clone, PartialEq)]
pub struct CellState {
    /// The cell's grid coordinates.
    pub id: CellId,
    /// Resident rectangles in ascending object-id order. Top-k detectors
    /// keep their rectangles globally (see [`DetectorState::rects`]) and
    /// leave this empty.
    pub rects: Vec<RectState>,
    /// Per-level unnormalized static-bound accumulators (Definition 7),
    /// captured bit-for-bit.
    pub us: Vec<f64>,
    /// Per-level dynamic bounds in score units (Eqn. 3; ∞ until first
    /// searched), captured bit-for-bit.
    pub ud: Vec<f64>,
    /// Per-level candidate states.
    pub cand: Vec<CandidateState>,
}

/// The logical state of one counting-grid cell of an approximate detector
/// (GAPS keeps one grid, MGAPS four half-shifted ones). The weight sums are
/// floating-point accumulations over the event history, so — exactly like
/// [`CandidateState::Valid`] — they are captured bit-for-bit; the derived
/// rank key is a pure function of `(wc, wp)` and is recomputed on restore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCellState {
    /// Which grid instance owns the cell (0 for GAPS; 0..4 for MGAPS).
    pub grid: u32,
    /// The cell's grid coordinates.
    pub id: CellId,
    /// Current-window weight sum (raw, unnormalized), bit-for-bit.
    pub wc: f64,
    /// Past-window weight sum (raw, unnormalized), bit-for-bit.
    pub wp: f64,
    /// Resident current-window object count (cells vanish at 0).
    pub count: u32,
}

/// The logical state of the overload autopilot's degradation controller:
/// the active tier plus the hysteresis counters, so a crash mid-degradation
/// restores the controller exactly where it was (same tier, same pending
/// escalation/drain progress).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerState {
    /// The active tier (0 = exact, 1 = MGAPS, 2 = GAPS).
    pub tier: u8,
    /// Consecutive over-SLO slides observed so far.
    pub over: u32,
    /// Consecutive drained slides observed so far.
    pub under: u32,
    /// Slides remaining before another transition is allowed.
    pub cooldown: u32,
    /// Total tier transitions performed.
    pub transitions: u64,
    /// Slides spent in each tier (exact, MGAPS, GAPS).
    pub slides_in_tier: [u64; 3],
    /// Detector counters accumulated by tiers that were since torn down
    /// (the active tier's live counters are added on top).
    pub base_stats: DetectorStats,
}

/// The logical state of a detector: everything needed to rebuild it so that
/// its future answers (and the searches behind them) are bit-identical to
/// the uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorState {
    /// The detector's [`crate::BurstDetector::name`]-style identifier,
    /// recorded for sanity checks at restore time.
    pub name: String,
    /// Number of cSPOT levels (1 for single-region detectors, k for top-k).
    pub levels: u32,
    /// Per-cell state, in ascending cell-id order.
    pub cells: Vec<CellState>,
    /// The global rectangle set with visibility levels (top-k detectors
    /// only; empty for cell-local detectors, whose rectangles live in
    /// [`CellState::rects`]).
    pub rects: Vec<RectState>,
    /// The current incumbent answers, best first: the top-k bursty points
    /// with their scores. Single-region detectors leave this empty (their
    /// incumbent is derived from cell candidates on the next scan).
    pub incumbents: Vec<Option<(Point, f64)>>,
    /// Counting-grid cells (approximate detectors only; empty for exact
    /// detectors), in ascending `(grid, id)` order.
    pub grid_cells: Vec<GridCellState>,
    /// Degradation-controller state (autopilot detectors only).
    pub controller: Option<ControllerState>,
    /// Instrumentation counters, restored so post-recovery stats continue
    /// the uninterrupted sequence.
    pub stats: DetectorStats,
}

/// Why a [`CheckpointableDetector::restore_state`] call was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError(pub String);

impl RestoreError {
    /// Builds an error from anything displayable.
    pub fn new(msg: impl fmt::Display) -> Self {
        RestoreError(msg.to_string())
    }
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint restore failed: {}", self.0)
    }
}

impl std::error::Error for RestoreError {}

/// A detector whose logical state can be captured into a [`DetectorState`]
/// and restored into a freshly constructed instance.
///
/// # Contract
///
/// * `capture_state` is deterministic: capturing the same detector twice
///   yields equal states, with cells in ascending id order and rectangles
///   in ascending object-id order (snapshot files must be byte-stable).
/// * `restore_state` requires `self` to be **freshly constructed** with the
///   same configuration (query, bound/sweep mode, shard count, k) the
///   captured detector had; restoring into a non-empty detector is an
///   error.
/// * After a successful restore, feeding the detector the identical event
///   suffix produces bit-identical answers, and the same per-cell searches,
///   as the uninterrupted original — candidate weight sums, dynamic bounds
///   and static-bound accumulators are restored bit-for-bit, and every
///   derived structure is rebuilt from total orders (see the module docs).
pub trait CheckpointableDetector {
    /// Captures the detector's logical state.
    fn capture_state(&self) -> DetectorState;

    /// Restores a captured state into this freshly constructed detector.
    fn restore_state(&mut self, state: &DetectorState) -> Result<(), RestoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_error_displays_message() {
        let e = RestoreError::new("levels mismatch");
        assert!(e.to_string().contains("levels mismatch"));
    }

    #[test]
    fn candidate_state_equality_is_bitwise_friendly() {
        let a = CandidateState::Valid {
            point: Point::new(1.0, 2.0),
            wc: 3.0,
            wp: 0.5,
        };
        assert_eq!(a, a);
        assert_ne!(a, CandidateState::Stale);
        assert_ne!(CandidateState::Absent, CandidateState::Stale);
    }

    #[test]
    fn engine_state_roundtrips_through_clone() {
        let s = EngineState {
            windows: WindowConfig::equal(100),
            now: 42,
            last_created: 40,
            started: true,
            current: vec![SpatialObject::new(7, 1.0, Point::new(0.0, 0.0), 40)],
            past: vec![],
        };
        assert_eq!(s.clone(), s);
    }
}
