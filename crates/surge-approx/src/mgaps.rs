//! MGAP-SURGE: the multi-grid approximate solution (§V-B, Algorithm 5).
//!
//! GAP-SURGE's quality depends on where the grid lines fall relative to the
//! true bursty region. MGAP-SURGE runs four GAP-SURGE instances on grids
//! shifted by half a cell in x and/or y and reports the best of the four
//! answers, which markedly improves empirical quality (Table IV) while
//! keeping the same O(log n) update cost and the same `(1−α)/4` worst-case
//! guarantee (Theorem 4).
//!
//! Like [`GapSurge`], the detector participates in the shard-mesh and
//! checkpoint pipelines. Each [`MgapMeshWorker`] owns shard *s* of all four
//! grids; ties between grids are broken toward the lower-numbered grid on
//! every path (the worker encodes the grid's priority in the
//! [`ShardAnswer`] `bound` field so the merged maximum picks the same
//! winner the sequential scan does, bit for bit).

use surge_core::{
    BurstDetector, CellTable, CheckpointableDetector, DetectorState, DetectorStats, Event,
    EventKind, GridSpec, IncrementalDetector, MeshIngest, MeshWorker, Rect, RegionAnswer,
    RegionSize, RestoreError, ShardAnswer, ShardFlush, ShardRunStats, ShardWorkerStats, SurgeQuery,
    TotalF64,
};

use crate::gaps::{GapMeshWorker, GapSurge};

/// The multi-grid approximate detector (MGAPS).
#[derive(Debug)]
pub struct MgapSurge {
    query: SurgeQuery,
    grids: [GapSurge; 4],
    stats_events: u64,
    stats_new: u64,
}

impl MgapSurge {
    /// Creates the four shifted GAPS instances for `query`.
    pub fn new(query: SurgeQuery) -> Self {
        Self::with_shards(query, 1)
    }

    /// Creates the four shifted GAPS instances, each with `shards` cell
    /// shards (a power of two). Shard count is structural only: answers are
    /// bit-identical for every shard count.
    pub fn with_shards(query: SurgeQuery, shards: usize) -> Self {
        let specs = GridSpec::mgap_grids(query.region.width, query.region.height);
        MgapSurge {
            query,
            grids: specs.map(|g| GapSurge::with_grid_shards(query, g, shards)),
            stats_events: 0,
            stats_new: 0,
        }
    }

    /// Access to the four underlying grids (in the paper's Grid 1–4 order).
    pub fn instances(&self) -> &[GapSurge; 4] {
        &self.grids
    }

    /// Number of non-empty cells across all four grids.
    pub fn cell_count(&self) -> usize {
        self.grids.iter().map(|g| g.cell_count()).sum()
    }

    /// Top-k per Algorithm 7: take the top `4k` cells from each grid, merge
    /// the up-to-`16k` candidates, and greedily keep the best `k` pairwise
    /// non-overlapping cells.
    pub fn topk(&self, k: usize) -> Vec<RegionAnswer> {
        let mut candidates: Vec<RegionAnswer> =
            self.grids.iter().flat_map(|g| g.topk(4 * k)).collect();
        candidates.sort_by_key(|c| std::cmp::Reverse(TotalF64(c.score)));
        let mut chosen: Vec<RegionAnswer> = Vec::with_capacity(k);
        for cand in candidates {
            if chosen.len() == k {
                break;
            }
            let overlaps = chosen
                .iter()
                .any(|c| c.region.interior_intersects(&cand.region));
            if !overlaps {
                chosen.push(cand);
            }
        }
        chosen
    }
}

impl BurstDetector for MgapSurge {
    fn on_event(&mut self, event: &Event) {
        self.stats_events += 1;
        if event.kind == EventKind::New {
            self.stats_new += 1;
        }
        for g in &mut self.grids {
            g.on_event(event);
        }
    }

    fn current(&mut self) -> Option<RegionAnswer> {
        let mut best: Option<RegionAnswer> = None;
        for g in &mut self.grids {
            if let Some(ans) = g.current() {
                // Strict > with a total order: on equal score bits the
                // earlier grid wins, matching the merged shard answers'
                // grid-priority bound.
                if best
                    .as_ref()
                    .is_none_or(|b| TotalF64(ans.score) > TotalF64(b.score))
                {
                    best = Some(ans);
                }
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        "MGAPS"
    }

    fn stats(&self) -> DetectorStats {
        DetectorStats {
            events: self.stats_events,
            new_events: self.stats_new,
            searches: 0,
            events_triggering_search: 0,
        }
    }
}

/// MGAPS under the incremental driver: as with GAPS, every cell is kept
/// fresh by the events themselves, so there is nothing to sweep.
impl IncrementalDetector for MgapSurge {
    fn shard_count(&self) -> usize {
        IncrementalDetector::shard_count(&self.grids[0])
    }

    fn sweep_dirty(&mut self, _threads: usize) -> u64 {
        0
    }
}

/// Shard *s* of all four grids under one ingest handle. Flush reports the
/// best of the four shard-local bests; `bound` carries the grid priority
/// (grid 0 → 3.0 … grid 3 → 0.0) so the cross-shard `(score, bound, cell)`
/// maximum breaks score ties toward the lower-numbered grid — exactly the
/// sequential [`MgapSurge::current`] tie-break.
#[derive(Debug)]
pub struct MgapMeshWorker<'a> {
    inner: [GapMeshWorker<'a>; 4],
}

impl MeshWorker for MgapMeshWorker<'_> {
    fn on_event(&mut self, event: &Event) {
        for w in &mut self.inner {
            w.on_event(event);
        }
    }

    fn flush(&mut self) -> ShardFlush {
        let mut best: Option<ShardAnswer> = None;
        for (gi, w) in self.inner.iter_mut().enumerate() {
            if let Some(a) = w.flush().best {
                let prioritized = ShardAnswer {
                    bound: (3 - gi) as f64,
                    ..a
                };
                if best
                    .as_ref()
                    .is_none_or(|b| prioritized.merge_key() > b.merge_key())
                {
                    best = Some(prioritized);
                }
            }
        }
        ShardFlush { dirty: 0, best }
    }

    fn stats(&self) -> ShardWorkerStats {
        let mut out = ShardWorkerStats::default();
        for w in &self.inner {
            let s = w.stats();
            out.cell_touches += s.cell_touches;
            out.sweeps += s.sweeps;
        }
        out
    }
}

impl MeshIngest for MgapSurge {
    type Worker<'a> = MgapMeshWorker<'a>;

    fn ingest_workers(&mut self) -> Vec<MgapMeshWorker<'_>> {
        let mut per_grid: Vec<_> = self
            .grids
            .iter_mut()
            .map(|g| g.ingest_workers().into_iter())
            .collect();
        let shard_count = per_grid[0].len();
        (0..shard_count)
            .map(|_| MgapMeshWorker {
                inner: std::array::from_fn(|gi| {
                    per_grid[gi].next().expect("grids share a shard count")
                }),
            })
            .collect()
    }

    fn absorb_shard_run(&mut self, run: ShardRunStats) {
        self.stats_events += run.events;
        self.stats_new += run.new_events;
    }

    fn region_size(&self) -> RegionSize {
        self.query.region
    }

    fn reshard(&mut self, shards: usize) {
        let state = self.capture_state();
        let mut fresh = MgapSurge::with_shards(self.query, shards.next_power_of_two());
        fresh
            .restore_state(&state)
            .expect("a detector's own capture restores into a same-query twin");
        *self = fresh;
    }
}

impl CheckpointableDetector for MgapSurge {
    fn capture_state(&self) -> DetectorState {
        let mut grid_cells = Vec::with_capacity(self.cell_count());
        for (gi, g) in self.grids.iter().enumerate() {
            crate::gaps::capture_grid_cells(&mut grid_cells, gi as u32, g.shards());
        }
        DetectorState {
            name: self.name().to_string(),
            levels: 4,
            cells: CellTable::new(),
            rects: Vec::new(),
            incumbents: Vec::new(),
            grid_cells,
            stats: self.stats(),
        }
    }

    fn restore_state(&mut self, state: &DetectorState) -> Result<(), RestoreError> {
        if self.cell_count() != 0 {
            return Err(RestoreError::new(
                "restore requires a freshly constructed MGAPS detector",
            ));
        }
        if state.name != self.name() {
            return Err(RestoreError::new(format!(
                "detector name mismatch: snapshot has {:?}, restoring into {:?}",
                state.name,
                self.name()
            )));
        }
        let mut at = 0usize;
        for gi in 0..4u32 {
            let start = at;
            while at < state.grid_cells.len() && state.grid_cells[at].grid == gi {
                at += 1;
            }
            let g = &mut self.grids[gi as usize];
            let params = *g.params();
            crate::gaps::restore_grid_cells(g.shards_mut(), &params, &state.grid_cells[start..at])?;
        }
        if at != state.grid_cells.len() {
            return Err(RestoreError::new(format!(
                "grid index out of order or beyond 3 at cell {at}"
            )));
        }
        self.stats_events = state.stats.events;
        self.stats_new = state.stats.new_events;
        Ok(())
    }
}

/// Convenience: whether two answers report regions with disjoint interiors.
pub fn regions_disjoint(a: &Rect, b: &Rect) -> bool {
    !a.interior_intersects(b)
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
        assert!(MgapSurge::new(query(0.5)).current().is_none());
    }

    #[test]
    fn beats_or_equals_single_grid() {
        // Objects straddling the anchored grid line x=1: the shifted grid
        // captures both, so MGAPS >= GAPS.
        let q = query(0.0);
        let mut mgaps = MgapSurge::new(q);
        let mut gaps = crate::gaps::GapSurge::new(q);
        for (i, (x, y)) in [(0.9, 0.5), (1.1, 0.5), (0.95, 0.6)].iter().enumerate() {
            let e = Event::new_arrival(obj(i as u64, 1.0, *x, *y, 0));
            mgaps.on_event(&e);
            gaps.on_event(&e);
        }
        let m = mgaps.current().unwrap().score;
        let g = gaps.current().unwrap().score;
        assert!(m >= g);
        assert!(
            (m - 3.0 / 1_000.0).abs() < 1e-12,
            "shifted grid holds all 3"
        );
    }

    #[test]
    fn all_four_grids_receive_events() {
        let mut d = MgapSurge::new(query(0.5));
        d.on_event(&Event::new_arrival(obj(0, 1.0, 0.75, 0.75, 0)));
        for g in d.instances() {
            assert_eq!(g.cell_count(), 1);
        }
    }

    #[test]
    fn lifecycle_cleans_up() {
        let mut d = MgapSurge::new(query(0.5));
        let o = obj(0, 1.0, 0.75, 0.75, 0);
        d.on_event(&Event::new_arrival(o));
        d.on_event(&Event::grown(o, 1_000));
        d.on_event(&Event::expired(o, 2_000));
        assert!(d.current().is_none());
        assert_eq!(d.cell_count(), 0);
    }

    #[test]
    fn topk_cells_are_non_overlapping() {
        let mut d = MgapSurge::new(query(0.0));
        // Dense cluster plus two satellites.
        let pts = [(0.4, 0.4), (0.6, 0.6), (0.5, 0.5), (3.2, 3.2), (7.8, 7.8)];
        for (i, (x, y)) in pts.iter().enumerate() {
            d.on_event(&Event::new_arrival(obj(i as u64, 1.0, *x, *y, 0)));
        }
        let top = d.topk(3);
        assert!(top.len() >= 2);
        for i in 0..top.len() {
            for j in (i + 1)..top.len() {
                assert!(
                    regions_disjoint(&top[i].region, &top[j].region),
                    "{:?} overlaps {:?}",
                    top[i].region,
                    top[j].region
                );
            }
        }
        // best-first order
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    /// Equal-score ties across grids resolve to the same grid on the
    /// sequential path and through the grid-priority bound.
    #[test]
    fn score_ties_prefer_lower_grid() {
        let mut d = MgapSurge::new(query(0.0));
        // One object: all four grids score its cell identically, so
        // current() must report grid 0's (anchored) cell.
        d.on_event(&Event::new_arrival(obj(0, 2.0, 0.2, 0.2, 0)));
        let ans = d.current().unwrap();
        assert_eq!(ans.region.x0, 0.0);
        assert_eq!(ans.region.y0, 0.0);
    }

    /// Capture → restore into a fresh detector → identical answers and
    /// identical re-capture, across shard counts.
    #[test]
    fn checkpoint_roundtrip_is_bit_identical() {
        let q = query(0.6);
        let mut d = MgapSurge::with_shards(q, 2);
        let mut t = 0;
        for i in 0..96u64 {
            t += i % 4;
            d.on_event(&Event::new_arrival(obj(
                i,
                1.0 + (i % 5) as f64,
                (i % 13) as f64 * 0.45,
                (i % 7) as f64 * 0.45,
                t,
            )));
        }
        let state = d.capture_state();
        assert!(state.grid_cells.iter().any(|c| c.grid == 3));
        let mut restored = MgapSurge::with_shards(q, 4);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.capture_state(), state);
        let (a, b) = (d.current().unwrap(), restored.current().unwrap());
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.point.x.to_bits(), b.point.x.to_bits());
        assert_eq!(a.point.y.to_bits(), b.point.y.to_bits());
        assert_eq!(d.stats(), restored.stats());
        assert!(restored.restore_state(&state).is_err());
    }
}
