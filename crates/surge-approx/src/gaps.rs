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
//! The detector is a first-class citizen of the production pipeline: its
//! cells partition into `2^k` shards by the
//! same deterministic spatial hash the exact detectors use
//! (`shard_of_cell`), so it runs on the shard mesh (`drive_elastic`) with one
//! [`GapMeshWorker`] per shard, runs under `drive_incremental` (events keep
//! every cell fresh, so the dirty-sweep is a no-op), and checkpoints through
//! [`CheckpointableDetector`] — weight sums captured bit-for-bit, rank keys
//! recomputed on restore (a pure function of the sums).

use std::collections::{BTreeSet, HashMap};

use surge_core::{
    shard_of_cell, BurstDetector, BurstParams, CellId, CellTable, CheckpointableDetector,
    DetectorState, DetectorStats, Event, EventKind, GridCellState, GridSpec, IncrementalDetector,
    MeshIngest, MeshWorker, Point, RegionAnswer, RegionSize, RestoreError, ShardAnswer, ShardFlush,
    ShardRunStats, ShardWorkerStats, SurgeQuery, TotalF64,
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

/// One shard's slice of the counting grid: its cells plus the shard-local
/// rank order. A cell never changes shards, so the global best is the
/// maximum of the per-shard `(key, id)` maxima — exactly the single-set
/// `next_back` of the unsharded detector.
#[derive(Debug, Default)]
pub(crate) struct GapShard {
    cells: HashMap<CellId, GapCell>,
    ranked: BTreeSet<(TotalF64, CellId)>,
}

/// Applies one in-area event to the cell `id` of `shard`. Shared verbatim by
/// the sequential `on_event` and the per-shard ingest workers so both paths
/// accumulate the weight sums in the identical order.
fn apply_to_shard(params: &BurstParams, shard: &mut GapShard, id: CellId, event: &Event) {
    let cell = shard.cells.entry(id).or_insert(GapCell {
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
        shard.ranked.remove(&(old_key, id));
        shard.cells.remove(&id);
        return;
    }
    let new_key = TotalF64(params.score_weights(cell.wc, cell.wp));
    cell.key = new_key;
    if new_key != old_key || !shard.ranked.contains(&(new_key, id)) {
        shard.ranked.remove(&(old_key, id));
        shard.ranked.insert((new_key, id));
    }
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
    shards: Vec<GapShard>,
    stats: DetectorStats,
}

impl GapSurge {
    /// Creates a GAPS detector on the origin-anchored grid (Grid 1).
    pub fn new(query: SurgeQuery) -> Self {
        Self::with_shards(query, 1)
    }

    /// Creates a GAPS detector on the origin-anchored grid with `shards`
    /// cell shards (a power of two).
    pub fn with_shards(query: SurgeQuery, shards: usize) -> Self {
        Self::with_grid_shards(
            query,
            GridSpec::anchored(query.region.width, query.region.height),
            shards,
        )
    }

    /// Creates a GAPS detector on an explicit (possibly shifted) grid; the
    /// grid's cell size must equal the query-region size.
    pub fn with_grid(query: SurgeQuery, grid: GridSpec) -> Self {
        Self::with_grid_shards(query, grid, 1)
    }

    /// Creates a GAPS detector on an explicit grid with `shards` cell
    /// shards (a power of two). Shard count is structural only: answers are
    /// bit-identical for every shard count.
    pub fn with_grid_shards(query: SurgeQuery, grid: GridSpec, shards: usize) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
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
            shards: (0..shards).map(|_| GapShard::default()).collect(),
            stats: DetectorStats::default(),
        }
    }

    /// The grid this instance maintains.
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// Number of non-empty cells.
    pub fn cell_count(&self) -> usize {
        self.shards.iter().map(|s| s.cells.len()).sum()
    }

    /// The best `(key, id)` entry across all shards — the entry the
    /// unsharded detector's single ranked set would yield from `next_back`.
    fn best_entry(&self) -> Option<(TotalF64, CellId)> {
        self.shards
            .iter()
            .filter_map(|s| s.ranked.iter().next_back().copied())
            .max()
    }

    /// The canonical answer for a ranked entry: every production path
    /// (sequential `current`, merged [`ShardAnswer`]s, checkpoint decode)
    /// reconstructs the region from the cell's top-right corner and the
    /// query-region size, so the answers are bit-identical across paths.
    fn answer_entry(&self, key: TotalF64, id: CellId) -> RegionAnswer {
        let rect = self.grid.cell_rect(id);
        RegionAnswer::from_point(Point::new(rect.x1, rect.y1), self.query.region, key.get())
    }

    /// The top-`k` cells by burst score, best first (the kGAPS extension,
    /// Algorithm 6). Cells on one grid are disjoint, so the greedy exclusion
    /// of Definition 9 is automatic.
    pub fn topk(&self, k: usize) -> Vec<RegionAnswer> {
        // The global top-k is contained in the union of the per-shard
        // top-k prefixes; merge those and keep the k best.
        let mut entries: Vec<(TotalF64, CellId)> = self
            .shards
            .iter()
            .flat_map(|s| s.ranked.iter().rev().take(k).copied())
            .collect();
        entries.sort_unstable_by(|a, b| b.cmp(a));
        entries.truncate(k);
        entries
            .into_iter()
            .map(|(key, id)| self.answer_entry(key, id))
            .collect()
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
        let shard = shard_of_cell(id, self.shards.len());
        apply_to_shard(&self.params, &mut self.shards[shard], id, event);
    }

    fn current(&mut self) -> Option<RegionAnswer> {
        let (key, id) = self.best_entry()?;
        Some(self.answer_entry(key, id))
    }

    fn name(&self) -> &'static str {
        "GAPS"
    }

    fn stats(&self) -> DetectorStats {
        self.stats
    }
}

/// GAPS under the incremental driver: events keep every cell's score fresh
/// (there is no deferred per-cell search), so `sweep_dirty` has nothing to
/// do — `current()` is always ready.
impl IncrementalDetector for GapSurge {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn sweep_dirty(&mut self, _threads: usize) -> u64 {
        0
    }
}

/// One shard's exclusive ingest handle (see [`MeshIngest`]): applies the
/// event stream to its own cells and reports the shard-local best at flush
/// boundaries. GAPS has no flush-time sweep work, so the flush is a read
/// of the shard's ranked set.
#[derive(Debug)]
pub struct GapMeshWorker<'a> {
    shard: usize,
    shard_count: usize,
    query: SurgeQuery,
    params: BurstParams,
    grid: GridSpec,
    state: &'a mut GapShard,
    stats: ShardWorkerStats,
}

impl GapMeshWorker<'_> {
    /// The shard's best entry as a [`ShardAnswer`]. `bound` repeats the
    /// score (a GAPS cell's rank key *is* its score, there is no separate
    /// upper bound), so the merged `(score, bound, cell)` maximum reduces to
    /// the `(key, id)` maximum of the sequential scan.
    fn shard_answer(&self) -> Option<ShardAnswer> {
        let (key, id) = self.state.ranked.iter().next_back().copied()?;
        let rect = self.grid.cell_rect(id);
        Some(ShardAnswer {
            point: Point::new(rect.x1, rect.y1),
            score: key.get(),
            bound: key.get(),
            cell: id,
        })
    }
}

impl MeshWorker for GapMeshWorker<'_> {
    fn on_event(&mut self, event: &Event) {
        if !self.query.accepts(event.object.pos) {
            return;
        }
        let id = self.grid.cell_of(event.object.pos);
        if shard_of_cell(id, self.shard_count) == self.shard {
            apply_to_shard(&self.params, self.state, id, event);
            self.stats.cell_touches += 1;
        }
    }

    fn flush(&mut self) -> ShardFlush {
        ShardFlush {
            dirty: 0,
            best: self.shard_answer(),
        }
    }

    fn stats(&self) -> ShardWorkerStats {
        self.stats
    }
}

impl MeshIngest for GapSurge {
    type Worker<'a> = GapMeshWorker<'a>;

    fn ingest_workers(&mut self) -> Vec<GapMeshWorker<'_>> {
        let (query, params, grid) = (self.query, self.params, self.grid);
        let shard_count = self.shards.len();
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(shard, state)| GapMeshWorker {
                shard,
                shard_count,
                query,
                params,
                grid,
                state,
                stats: ShardWorkerStats::default(),
            })
            .collect()
    }

    fn absorb_shard_run(&mut self, run: ShardRunStats) {
        self.stats.events += run.events;
        self.stats.new_events += run.new_events;
        self.stats.searches += run.searches;
    }

    fn region_size(&self) -> RegionSize {
        self.query.region
    }

    fn reshard(&mut self, shards: usize) {
        let state = self.capture_state();
        let mut fresh =
            GapSurge::with_grid_shards(self.query, self.grid, shards.next_power_of_two());
        fresh
            .restore_state(&state)
            .expect("a detector's own capture restores into a same-query twin");
        *self = fresh;
    }
}

/// Captures/restores a set of grid shards into the flat `grid_cells` list.
/// Shared with MGAPS (which captures four grids under one state).
pub(crate) fn capture_grid_cells(
    out: &mut Vec<GridCellState>,
    grid_index: u32,
    shards: &[GapShard],
) {
    let start = out.len();
    for shard in shards {
        out.extend(shard.cells.iter().map(|(&id, c)| GridCellState {
            grid: grid_index,
            id,
            wc: c.wc,
            wp: c.wp,
            count: c.count,
        }));
    }
    out[start..].sort_unstable_by_key(|c| c.id);
}

/// Rebuilds one grid's shards from its captured cells. The rank key is a
/// pure function of the captured `(wc, wp)` bits, so the restored ranked
/// sets equal the uninterrupted detector's exactly.
pub(crate) fn restore_grid_cells(
    shards: &mut [GapShard],
    params: &BurstParams,
    cells: &[GridCellState],
) -> Result<(), RestoreError> {
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
        let key = TotalF64(params.score_weights(c.wc, c.wp));
        let shard = &mut shards[shard_of_cell(c.id, shards.len())];
        shard.cells.insert(
            c.id,
            GapCell {
                wc: c.wc,
                wp: c.wp,
                count: c.count,
                key,
            },
        );
        shard.ranked.insert((key, c.id));
    }
    Ok(())
}

impl GapSurge {
    pub(crate) fn shards(&self) -> &[GapShard] {
        &self.shards
    }

    pub(crate) fn shards_mut(&mut self) -> &mut [GapShard] {
        &mut self.shards
    }

    pub(crate) fn params(&self) -> &BurstParams {
        &self.params
    }
}

impl CheckpointableDetector for GapSurge {
    fn capture_state(&self) -> DetectorState {
        let mut grid_cells = Vec::with_capacity(self.cell_count());
        capture_grid_cells(&mut grid_cells, 0, &self.shards);
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
        restore_grid_cells(&mut self.shards, &self.params, &state.grid_cells)?;
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

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = GapSurge::with_shards(query(0.5), 3);
    }

    /// Shard count is structural only: identical event streams produce
    /// bit-identical answers and top-k lists at every shard count.
    #[test]
    fn shard_count_is_structural_only() {
        let q = query(0.3);
        let mut one = GapSurge::with_shards(q, 1);
        let mut four = GapSurge::with_shards(q, 4);
        let mut t = 0;
        for i in 0..200u64 {
            t += (i % 7) * 3;
            let o = obj(
                i,
                1.0 + (i % 4) as f64,
                (i % 13) as f64 * 0.5,
                (i % 9) as f64 * 0.5,
                t,
            );
            let e = Event::new_arrival(o);
            one.on_event(&e);
            four.on_event(&e);
            if i % 3 == 0 {
                let g = Event::grown(o, t);
                one.on_event(&g);
                four.on_event(&g);
            }
            let (a, b) = (one.current(), four.current());
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.score.to_bits(), y.score.to_bits());
                    assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                    assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                }
                (None, None) => {}
                other => panic!("divergence: {other:?}"),
            }
            let (ta, tb) = (one.topk(3), four.topk(3));
            assert_eq!(ta.len(), tb.len());
            for (x, y) in ta.iter().zip(&tb) {
                assert_eq!(x.score.to_bits(), y.score.to_bits());
                assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
            }
        }
        assert!(four.cell_count() > 0);
    }

    /// Capture → restore into a fresh detector → identical answers and
    /// identical re-capture.
    #[test]
    fn checkpoint_roundtrip_is_bit_identical() {
        let q = query(0.4);
        let mut d = GapSurge::with_shards(q, 2);
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
        let mut restored = GapSurge::with_shards(q, 2);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.capture_state(), state);
        let (a, b) = (d.current().unwrap(), restored.current().unwrap());
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.point.x.to_bits(), b.point.x.to_bits());
        // Restoring into a non-empty detector is rejected.
        assert!(restored.restore_state(&state).is_err());
        // Restoring under a different shard count still yields the same
        // answers (shards are structural).
        let mut other = GapSurge::with_shards(q, 8);
        other.restore_state(&state).unwrap();
        let c = other.current().unwrap();
        assert_eq!(a.score.to_bits(), c.score.to_bits());
    }
}
