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
//! The per-cell part of a [`DetectorState`] is one column-major
//! [`CellTable`]: cell ids plus a compressed-sparse-row column each for
//! rectangles, static bounds, dynamic bounds and candidates. A capture is
//! taken on the ingest thread while the stream waits, so its cost matters:
//! the table costs a fixed number of allocations whatever the cell count,
//! and as few frees to drop. Rows are in ascending cell-id order and
//! each row's rectangles in ascending object-id order — the canonical order
//! that keeps snapshot files byte-stable and that snapshot decoding
//! enforces.
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

/// One column of a [`CellTable`] in compressed-sparse-row form: every
/// row's values back to back, plus each row's end offset into them.
#[derive(Debug, Clone, PartialEq)]
struct Column<T> {
    values: Vec<T>,
    ends: Vec<u32>,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column::with_capacity(0, 0)
    }
}

impl<T> Column<T> {
    fn with_capacity(rows: usize, values: usize) -> Self {
        Column {
            values: Vec::with_capacity(values),
            ends: Vec::with_capacity(rows),
        }
    }

    fn close_row(&mut self) {
        let end = u32::try_from(self.values.len()).expect("cell table column exceeds u32 offsets");
        self.ends.push(end);
    }

    fn row(&self, i: usize) -> &[T] {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        &self.values[start..self.ends[i] as usize]
    }
}

/// The per-cell logical state of a detector, one row per grid cell, stored
/// column-major: the cell ids, plus one compressed-sparse-row column each
/// for the resident rectangles, the static-bound accumulators, the dynamic
/// bounds and the candidates. Rows vary in width per column — top-k
/// records k levels and keeps its rectangles in [`DetectorState::rects`] —
/// so every column keeps its own row offsets.
///
/// A capture therefore costs a fixed number of allocations whatever the
/// cell count, and dropping it is a handful of frees — it runs on the
/// ingest thread while the stream waits.
///
/// Rows are appended in one of two ways: whole, with
/// [`push_cell`](Self::push_cell), or value by value (a decoder reading a
/// file) with [`push_rect`](Self::push_rect), [`push_us`](Self::push_us),
/// [`push_ud`](Self::push_ud) and [`push_cand`](Self::push_cand), closed by
/// [`end_cell`](Self::end_cell). [`iter`](Self::iter) reads the rows back
/// as [`CellView`]s. The table stores rows in push order; captures push
/// them in ascending cell-id order, the order snapshot decoding enforces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellTable {
    ids: Vec<CellId>,
    rects: Column<RectState>,
    us: Column<f64>,
    ud: Column<f64>,
    cand: Column<CandidateState>,
}

/// One row of a [`CellTable`]: a grid cell's state across the detector's
/// cSPOT levels (one level for single-region detectors, k for top-k).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellView<'a> {
    /// The cell's grid coordinates.
    pub id: CellId,
    /// Resident rectangles in ascending object-id order. Top-k detectors
    /// keep their rectangles globally (see [`DetectorState::rects`]), so
    /// their rows leave this empty.
    pub rects: &'a [RectState],
    /// Per-level unnormalized static-bound accumulators (Definition 7),
    /// captured bit-for-bit.
    pub us: &'a [f64],
    /// Per-level dynamic bounds in score units (Eqn. 3; ∞ until first
    /// searched), captured bit-for-bit.
    pub ud: &'a [f64],
    /// Per-level candidate states.
    pub cand: &'a [CandidateState],
}

impl CellTable {
    /// An empty table.
    pub fn new() -> Self {
        CellTable::default()
    }

    /// An empty table with room for `cells` rows holding `rects`
    /// rectangles in total and `levels` values per row in each per-level
    /// column, so filling it to that size allocates nothing more.
    pub fn with_capacity(cells: usize, rects: usize, levels: usize) -> Self {
        let per_level = cells.saturating_mul(levels);
        CellTable {
            ids: Vec::with_capacity(cells),
            rects: Column::with_capacity(cells, rects),
            us: Column::with_capacity(cells, per_level),
            ud: Column::with_capacity(cells, per_level),
            cand: Column::with_capacity(cells, per_level),
        }
    }

    /// Appends a whole row.
    pub fn push_cell(
        &mut self,
        id: CellId,
        rects: impl IntoIterator<Item = RectState>,
        us: impl IntoIterator<Item = f64>,
        ud: impl IntoIterator<Item = f64>,
        cand: impl IntoIterator<Item = CandidateState>,
    ) {
        self.rects.values.extend(rects);
        self.us.values.extend(us);
        self.ud.values.extend(ud);
        self.cand.values.extend(cand);
        self.end_cell(id);
    }

    /// Appends a rectangle to the open row.
    pub fn push_rect(&mut self, rect: RectState) {
        self.rects.values.push(rect);
    }

    /// Appends a static-bound accumulator to the open row.
    pub fn push_us(&mut self, us: f64) {
        self.us.values.push(us);
    }

    /// Appends a dynamic bound to the open row.
    pub fn push_ud(&mut self, ud: f64) {
        self.ud.values.push(ud);
    }

    /// Appends a candidate to the open row.
    pub fn push_cand(&mut self, cand: CandidateState) {
        self.cand.values.push(cand);
    }

    /// Closes the open row as cell `id`'s: every value pushed since the
    /// previous row was closed belongs to it.
    pub fn end_cell(&mut self, id: CellId) {
        self.ids.push(id);
        self.rects.close_row();
        self.us.close_row();
        self.ud.close_row();
        self.cand.close_row();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The rows in push order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = CellView<'_>> + '_ {
        self.ids.iter().enumerate().map(|(i, &id)| CellView {
            id,
            rects: self.rects.row(i),
            us: self.us.row(i),
            ud: self.ud.row(i),
            cand: self.cand.row(i),
        })
    }
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
    /// Per-cell state, one row per cell in ascending cell-id order.
    pub cells: CellTable,
    /// The global rectangle set with visibility levels, in ascending
    /// object-id order (top-k detectors only; empty for cell-local
    /// detectors, whose rectangles live in [`CellView::rects`]).
    pub rects: Vec<RectState>,
    /// The current incumbent answers, best first: the top-k bursty points
    /// with their scores. Single-region detectors leave this empty (their
    /// incumbent is derived from cell candidates on the next scan).
    pub incumbents: Vec<Option<(Point, f64)>>,
    /// Counting-grid cells (approximate detectors only; empty for exact
    /// detectors), in ascending `(grid, id)` order.
    pub grid_cells: Vec<GridCellState>,
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
    fn cell_table_rows_keep_their_own_widths_per_column() {
        let rect = |id| RectState {
            id,
            rect: Rect::new(0.0, 0.0, 1.0, 1.0),
            weight: 1.0,
            kind: WindowKind::Current,
            level: 0,
        };
        let mut whole = CellTable::with_capacity(3, 3, 1);
        whole.push_cell(
            (0, 0),
            [rect(1), rect(2)],
            [3.0],
            [],
            [CandidateState::Stale],
        );
        whole.push_cell((0, 1), [], [1.0, 2.0], [0.5, 0.25], []);
        whole.push_cell((2, 0), [rect(7)], [], [], [CandidateState::Absent]);

        // The same rows appended value by value.
        let mut streamed = CellTable::new();
        streamed.push_rect(rect(1));
        streamed.push_rect(rect(2));
        streamed.push_us(3.0);
        streamed.push_cand(CandidateState::Stale);
        streamed.end_cell((0, 0));
        streamed.push_us(1.0);
        streamed.push_us(2.0);
        streamed.push_ud(0.5);
        streamed.push_ud(0.25);
        streamed.end_cell((0, 1));
        streamed.push_rect(rect(7));
        streamed.push_cand(CandidateState::Absent);
        streamed.end_cell((2, 0));
        assert_eq!(streamed, whole);

        assert_eq!(whole.len(), 3);
        assert!(!whole.is_empty() && CellTable::new().is_empty());
        let rows: Vec<CellView<'_>> = whole.iter().collect();
        assert_eq!(rows[0].id, (0, 0));
        assert_eq!(rows[0].rects, &[rect(1), rect(2)]);
        assert_eq!((rows[0].us, rows[0].ud), (&[3.0][..], &[][..]));
        assert_eq!(rows[1].rects, &[]);
        assert_eq!(
            (rows[1].us, rows[1].ud),
            (&[1.0, 2.0][..], &[0.5, 0.25][..])
        );
        assert_eq!(rows[1].cand, &[]);
        assert_eq!(rows[2].rects, &[rect(7)]);
        assert_eq!(rows[2].cand, &[CandidateState::Absent]);
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
