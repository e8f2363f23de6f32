//! GAP-SURGE: the grid-based approximate solution (Algorithm 3).
//!
//! The space is divided into query-sized cells; each cell is a *candidate
//! region*. Events update the containing cell's window scores in O(1), and a
//! score-ordered set yields the best cell in O(log n). Theorem 3 guarantees
//! the returned cell's burst score is at least `(1 − α)/4` of the optimal
//! region's.
//!
//! Note: the paper's Algorithm 3 pseudocode writes the cell score without
//! `α`; we follow Definition 1 (the burst score with `α`), which is what the
//! approximation guarantee (Theorem 3) and the experiments use.
//!
//! The detector runs on the sequential drivers and checkpoints through
//! [`CheckpointableDetector`] — weight sums captured bit-for-bit, rank keys
//! recomputed on restore (a pure function of the sums). It has no shard
//! mesh: an event costs O(log n) on one thread, so there is nothing to
//! spread across workers.

use std::collections::{BTreeSet, HashMap};

use surge_core::{
    BurstDetector, BurstParams, CellId, CellTable, CheckpointableDetector, DetectorState,
    DetectorStats, Event, EventKind, GridCellState, GridSpec, Point, RegionAnswer, RestoreError,
    SurgeQuery, TotalF64,
};

#[derive(Debug, Clone, Copy)]
struct GapCell {
    /// Raw current-window weight sum.
    wc: f64,
    /// Raw past-window weight sum.
    wp: f64,
    /// Objects resident in either window.
    count: u32,
    /// Key under which the cell sits in the ranked set.
    key: TotalF64,
}

/// The grid-based approximate detector (GAPS).
///
/// # Example
///
/// ```
/// use surge_core::{BurstDetector, Event, Point, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
/// use surge_approx::GapSurge;
///
/// let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(1_000), 0.5);
/// let mut gaps = GapSurge::new(query);
/// gaps.on_event(&Event::new_arrival(SpatialObject::new(0, 2.0, Point::new(3.2, 3.7), 0)));
/// let ans = gaps.current().unwrap();
/// assert!(ans.region.contains(Point::new(3.2, 3.7)));
/// ```
#[derive(Debug)]
pub struct GapSurge {
    query: SurgeQuery,
    params: BurstParams,
    grid: GridSpec,
    cells: HashMap<CellId, GapCell>,
    /// Every cell under its rank key; the best cell is `next_back`.
    ranked: BTreeSet<(TotalF64, CellId)>,
    stats: DetectorStats,
}

impl GapSurge {
    /// Creates a GAPS detector on the origin-anchored grid (Grid 1).
    pub fn new(query: SurgeQuery) -> Self {
        Self::with_grid(
            query,
            GridSpec::anchored(query.region.width, query.region.height),
        )
    }

    /// Creates a GAPS detector on an explicit (possibly shifted) grid; the
    /// grid's cell size must equal the query-region size.
    pub fn with_grid(query: SurgeQuery, grid: GridSpec) -> Self {
        assert!(
            (grid.cell_w - query.region.width).abs()
                < f64::EPSILON * query.region.width.abs().max(1.0)
                && (grid.cell_h - query.region.height).abs()
                    < f64::EPSILON * query.region.height.abs().max(1.0),
            "GAPS grid cells must match the query-region size"
        );
        GapSurge {
            params: query.burst_params(),
            grid,
            query,
            cells: HashMap::new(),
            ranked: BTreeSet::new(),
            stats: DetectorStats::default(),
        }
    }

    /// The grid this instance maintains.
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// Number of non-empty cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The canonical answer for a ranked entry: every production path
    /// (sequential `current`, top-k, checkpoint decode) reconstructs the
    /// region from the cell's top-right corner and the query-region size,
    /// so the answers are bit-identical across paths.
    fn answer_entry(&self, key: TotalF64, id: CellId) -> RegionAnswer {
        let rect = self.grid.cell_rect(id);
        RegionAnswer::from_point(Point::new(rect.x1, rect.y1), self.query.region, key.get())
    }

    /// The top-`k` cells by burst score, best first (the kGAPS extension,
    /// Algorithm 6). Cells on one grid are disjoint, so the greedy exclusion
    /// of Definition 9 is automatic.
    pub fn topk(&self, k: usize) -> Vec<RegionAnswer> {
        self.ranked
            .iter()
            .rev()
            .take(k)
            .map(|&(key, id)| self.answer_entry(key, id))
            .collect()
    }

    /// Applies one in-area event to the cell `id`.
    fn apply(&mut self, id: CellId, event: &Event) {
        let cell = self.cells.entry(id).or_insert(GapCell {
            wc: 0.0,
            wp: 0.0,
            count: 0,
            key: TotalF64(f64::NEG_INFINITY),
        });
        let w = event.object.weight;
        match event.kind {
            EventKind::New => {
                cell.wc += w;
                cell.count += 1;
            }
            EventKind::Grown => {
                cell.wc -= w;
                cell.wp += w;
            }
            EventKind::Expired => {
                cell.wp -= w;
                cell.count = cell.count.saturating_sub(1);
            }
        }
        let old_key = cell.key;
        if cell.count == 0 {
            self.ranked.remove(&(old_key, id));
            self.cells.remove(&id);
            return;
        }
        let new_key = TotalF64(self.params.score_weights(cell.wc, cell.wp));
        cell.key = new_key;
        if new_key != old_key || !self.ranked.contains(&(new_key, id)) {
            self.ranked.remove(&(old_key, id));
            self.ranked.insert((new_key, id));
        }
    }
}

impl BurstDetector for GapSurge {
    fn on_event(&mut self, event: &Event) {
        self.stats.events += 1;
        if event.kind == EventKind::New {
            self.stats.new_events += 1;
        }
        if !self.query.accepts(event.object.pos) {
            return;
        }
        let id = self.grid.cell_of(event.object.pos);
        self.apply(id, event);
    }

    fn current(&mut self) -> Option<RegionAnswer> {
        let &(key, id) = self.ranked.iter().next_back()?;
        Some(self.answer_entry(key, id))
    }

    fn name(&self) -> &'static str {
        "GAPS"
    }

    fn stats(&self) -> DetectorStats {
        self.stats
    }
}

impl GapSurge {
    /// Appends this grid's cells to a capture's flat `grid_cells` list, in
    /// ascending id order, tagged `grid_index`. Shared with MGAPS (which
    /// captures four grids under one state).
    pub(crate) fn capture_cells(&self, out: &mut Vec<GridCellState>, grid_index: u32) {
        let start = out.len();
        out.extend(self.cells.iter().map(|(&id, c)| GridCellState {
            grid: grid_index,
            id,
            wc: c.wc,
            wp: c.wp,
            count: c.count,
        }));
        out[start..].sort_unstable_by_key(|c| c.id);
    }

    /// Rebuilds this (empty) grid from its captured cells. The rank key is
    /// a pure function of the captured `(wc, wp)` bits, so the restored
    /// ranked set equals the uninterrupted detector's exactly.
    pub(crate) fn restore_cells(&mut self, cells: &[GridCellState]) -> Result<(), RestoreError> {
        let mut last: Option<CellId> = None;
        for c in cells {
            if last.is_some_and(|p| p >= c.id) {
                return Err(RestoreError::new(format!(
                    "grid cells out of order or duplicated at {:?}",
                    c.id
                )));
            }
            last = Some(c.id);
            if c.count == 0 {
                return Err(RestoreError::new(format!(
                    "grid cell {:?} captured with zero residents",
                    c.id
                )));
            }
            let key = TotalF64(self.params.score_weights(c.wc, c.wp));
            self.cells.insert(
                c.id,
                GapCell {
                    wc: c.wc,
                    wp: c.wp,
                    count: c.count,
                    key,
                },
            );
            self.ranked.insert((key, c.id));
        }
        Ok(())
    }
}

impl CheckpointableDetector for GapSurge {
    fn capture_state(&self) -> DetectorState {
        let mut grid_cells = Vec::with_capacity(self.cell_count());
        self.capture_cells(&mut grid_cells, 0);
        DetectorState {
            name: self.name().to_string(),
            levels: 1,
            cells: CellTable::new(),
            rects: Vec::new(),
            incumbents: Vec::new(),
            grid_cells,
            stats: self.stats,
        }
    }

    fn restore_state(&mut self, state: &DetectorState) -> Result<(), RestoreError> {
        if self.cell_count() != 0 {
            return Err(RestoreError::new(
                "restore requires a freshly constructed GAPS detector",
            ));
        }
        if state.name != self.name() {
            return Err(RestoreError::new(format!(
                "detector name mismatch: snapshot has {:?}, restoring into {:?}",
                state.name,
                self.name()
            )));
        }
        if state.grid_cells.iter().any(|c| c.grid != 0) {
            return Err(RestoreError::new("GAPS snapshot carries multi-grid cells"));
        }
        self.restore_cells(&state.grid_cells)?;
        self.stats = state.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{Point, RegionSize, SpatialObject, WindowConfig};

    fn query(alpha: f64) -> SurgeQuery {
        SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(1_000), alpha)
    }

    fn obj(id: u64, w: f64, x: f64, y: f64, t: u64) -> SpatialObject {
        SpatialObject::new(id, w, Point::new(x, y), t)
    }

    #[test]
    fn empty_returns_none() {
        assert!(GapSurge::new(query(0.5)).current().is_none());
    }

    #[test]
    fn single_object_scores_cell() {
        let mut d = GapSurge::new(query(0.5));
        d.on_event(&Event::new_arrival(obj(0, 5.0, 2.5, 2.5, 0)));
        let ans = d.current().unwrap();
        assert!((ans.score - 5.0 / 1_000.0).abs() < 1e-12);
        assert_eq!(ans.region.x0, 2.0);
        assert_eq!(ans.region.y0, 2.0);
    }

    #[test]
    fn objects_in_same_cell_accumulate() {
        let mut d = GapSurge::new(query(0.0));
        d.on_event(&Event::new_arrival(obj(0, 1.0, 0.1, 0.1, 0)));
        d.on_event(&Event::new_arrival(obj(1, 2.0, 0.9, 0.9, 0)));
        assert!((d.current().unwrap().score - 3.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn objects_split_by_cell_boundary_do_not_accumulate() {
        // Unlike the exact solution, GAPS cannot combine objects at 0.9 and
        // 1.1 even though one 1x1 region could cover both.
        let mut d = GapSurge::new(query(0.0));
        d.on_event(&Event::new_arrival(obj(0, 1.0, 0.9, 0.5, 0)));
        d.on_event(&Event::new_arrival(obj(1, 1.0, 1.1, 0.5, 0)));
        assert!((d.current().unwrap().score - 1.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn grown_moves_weight_to_past_window() {
        let mut d = GapSurge::new(query(0.5));
        let o = obj(0, 4.0, 0.5, 0.5, 0);
        d.on_event(&Event::new_arrival(o));
        d.on_event(&Event::grown(o, 1_000));
        // fc = 0, fp = 4/1000 -> burst score 0.
        let ans = d.current().unwrap();
        assert!(ans.score.abs() < 1e-15);
        d.on_event(&Event::expired(o, 2_000));
        assert!(d.current().is_none());
        assert_eq!(d.cell_count(), 0);
    }

    #[test]
    fn area_filter_applies() {
        let q = SurgeQuery::new(
            surge_core::Rect::new(0.0, 0.0, 10.0, 10.0),
            RegionSize::new(1.0, 1.0),
            WindowConfig::equal(1_000),
            0.5,
        );
        let mut d = GapSurge::new(q);
        d.on_event(&Event::new_arrival(obj(0, 100.0, 50.0, 50.0, 0)));
        assert!(d.current().is_none());
    }

    #[test]
    fn shifted_grid_can_beat_anchored_grid() {
        // Two objects at 0.9 and 1.1: the anchored grid splits them; the
        // half-shifted grid's cell [0.5, 1.5) holds both.
        let q = query(0.0);
        let mut anchored = GapSurge::new(q);
        let shifted = GridSpec::with_origin(0.5, 0.0, 1.0, 1.0);
        let mut half = GapSurge::with_grid(q, shifted);
        for d in [&mut anchored, &mut half] {
            d.on_event(&Event::new_arrival(obj(0, 1.0, 0.9, 0.5, 0)));
            d.on_event(&Event::new_arrival(obj(1, 1.0, 1.1, 0.5, 0)));
        }
        assert!(half.current().unwrap().score > anchored.current().unwrap().score);
    }

    #[test]
    fn topk_returns_descending_disjoint_cells() {
        let mut d = GapSurge::new(query(0.0));
        d.on_event(&Event::new_arrival(obj(0, 3.0, 0.5, 0.5, 0)));
        d.on_event(&Event::new_arrival(obj(1, 2.0, 5.5, 5.5, 0)));
        d.on_event(&Event::new_arrival(obj(2, 1.0, 9.5, 9.5, 0)));
        let top = d.topk(3);
        assert_eq!(top.len(), 3);
        assert!(top[0].score >= top[1].score && top[1].score >= top[2].score);
        assert!(!top[0].region.interior_intersects(&top[1].region));
    }

    #[test]
    #[should_panic(expected = "cells must match")]
    fn wrong_grid_size_rejected() {
        let _ = GapSurge::with_grid(query(0.5), GridSpec::anchored(2.0, 2.0));
    }

    /// Capture → restore into a fresh detector → identical answers and
    /// identical re-capture.
    #[test]
    fn checkpoint_roundtrip_is_bit_identical() {
        let q = query(0.4);
        let mut d = GapSurge::new(q);
        for i in 0..64u64 {
            d.on_event(&Event::new_arrival(obj(
                i,
                1.0 + (i % 3) as f64,
                (i % 11) as f64 * 0.5,
                (i % 5) as f64 * 0.5,
                i * 10,
            )));
        }
        let state = d.capture_state();
        let mut restored = GapSurge::new(q);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.capture_state(), state);
        let (a, b) = (d.current().unwrap(), restored.current().unwrap());
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.point.x.to_bits(), b.point.x.to_bits());
        // Restoring into a non-empty detector is rejected.
        assert!(restored.restore_state(&state).is_err());
    }
}
