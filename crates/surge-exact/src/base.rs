//! Base: the no-upper-bound ablation (paper Appendix J).
//!
//! The space is divided into the same query-sized cells as Cell-CSPOT, but no
//! upper bounds are maintained: whenever an event happens, *every* affected
//! cell is re-searched immediately with SL-CSPOT. The global answer is the
//! best cell candidate, kept in a score-ordered set. This makes `current()`
//! O(1) but every event pays the full sweep cost, which is what the paper's
//! Figure 5 shows CCS avoiding.

use std::collections::BTreeSet;

use surge_core::{
    object_to_rect, BurstDetector, BurstParams, CellId, CellStore, DetectorStats, Event, EventKind,
    GridSpec, Point, Rect, RegionAnswer, ShardedCellStore, SurgeQuery, TotalF64,
};

use crate::psweep::{PersistentCellSweep, SweepPool};

#[derive(Debug)]
struct BaseCell {
    /// Persistent cross-sweep state: the cell's rectangles plus the
    /// maintained SL-CSPOT coordinate maps and orders ([`crate::psweep`]).
    /// Base searches every touched cell per event, so reusing the sweep
    /// inputs across those searches matters even more here than in CCS.
    sweep: PersistentCellSweep,
    /// Best point found by the last search (None until searched or when the
    /// cell's domain is empty).
    best: Option<(Point, f64)>,
    /// Key under which this cell sits in the score-ordered set: the exact
    /// candidate score of its last search.
    score_key: TotalF64,
    domain: Option<Rect>,
}

/// The Base detector: exhaustive per-event cell searches, no pruning.
#[derive(Debug)]
pub struct BaseDetector {
    query: SurgeQuery,
    params: BurstParams,
    grid: GridSpec,
    cells: ShardedCellStore<BaseCell>,
    /// Cells ordered by `score_key`; the maximum is the back.
    ranked: BTreeSet<(TotalF64, CellId)>,
    stats: DetectorStats,
    /// Free list for retired cells' persistent sweep state (Base ingests
    /// sequentially, so one pool serves every shard).
    pool: SweepPool,
}

impl BaseDetector {
    /// Creates a Base detector for `query` (eager per-event searches, the
    /// paper's ablation semantics).
    pub fn new(query: SurgeQuery) -> Self {
        BaseDetector {
            params: query.burst_params(),
            grid: GridSpec::anchored(query.region.width, query.region.height),
            query,
            cells: ShardedCellStore::new(crate::cell::DEFAULT_SHARDS),
            ranked: BTreeSet::new(),
            stats: DetectorStats::default(),
            pool: SweepPool::new(),
        }
    }

    /// Number of non-empty cells currently tracked.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn research_cell(&mut self, id: CellId) {
        self.stats.searches += 1;
        let (old_key, disposition) = {
            let cell = self.cells.get_mut(id).expect("cell exists");
            let old_key = cell.score_key;
            if cell.sweep.is_empty() {
                (old_key, None)
            } else {
                // In-place persistent sweep: the cell's coordinate maps and
                // orders are already current (events maintained them).
                let best = if cell.domain.is_some() {
                    cell.sweep.search().map(|r| (r.point, r.score))
                } else {
                    None
                };
                cell.best = best;
                let new_key = TotalF64(best.map_or(f64::NEG_INFINITY, |(_, s)| s));
                cell.score_key = new_key;
                (old_key, Some(new_key))
            }
        };
        match disposition {
            None => {
                self.ranked.remove(&(old_key, id));
                if let Some(cell) = self.cells.remove(id) {
                    self.pool.retire(cell.sweep);
                }
            }
            Some(new_key) => {
                self.ranked.remove(&(old_key, id));
                self.ranked.insert((new_key, id));
            }
        }
    }
}

impl BurstDetector for BaseDetector {
    fn on_event(&mut self, event: &Event) {
        self.stats.events += 1;
        if event.kind == EventKind::New {
            self.stats.new_events += 1;
        }
        if !self.query.accepts(event.object.pos) {
            return;
        }
        let g = object_to_rect(&event.object, self.query.region);
        // Allocation-free cell enumeration; the grid is `Copy` so the
        // iterator can be re-run for the research pass below.
        let grid = self.grid;
        let params = self.params;
        let mut touched = false;
        for id in grid.cells_overlapping_iter(&g.rect) {
            let cell_rect = grid.cell_rect(id);
            let domain = self
                .query
                .point_domain()
                .and_then(|d| d.intersection(&cell_rect));
            let pool = &mut self.pool;
            let cell = self.cells.get_or_insert_with(id, || BaseCell {
                sweep: pool.take(domain, params),
                best: None,
                score_key: TotalF64(f64::NEG_INFINITY),
                domain,
            });
            match event.kind {
                EventKind::New => {
                    cell.sweep
                        .insert(event.object.id, g.rect, event.object.weight);
                }
                EventKind::Grown => {
                    cell.sweep.grow(event.object.id);
                }
                EventKind::Expired => {
                    cell.sweep.remove(event.object.id);
                }
            }
            touched = true;
        }
        for id in grid.cells_overlapping_iter(&g.rect) {
            if self.cells.contains(id) {
                self.research_cell(id);
            }
        }
        if touched {
            self.stats.events_triggering_search += 1;
        }
    }

    fn current(&mut self) -> Option<RegionAnswer> {
        let &(key, id) = self.ranked.iter().next_back()?;
        if key.get() == f64::NEG_INFINITY {
            return None;
        }
        let (point, score) = self.cells.get(id)?.best?;
        Some(RegionAnswer::from_point(point, self.query.region, score))
    }

    fn name(&self) -> &'static str {
        "Base"
    }

    fn stats(&self) -> DetectorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{RegionSize, SpatialObject, WindowConfig};

    fn query(alpha: f64) -> SurgeQuery {
        SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(1_000), alpha)
    }

    fn obj(id: u64, w: f64, x: f64, y: f64, t: u64) -> SpatialObject {
        SpatialObject::new(id, w, Point::new(x, y), t)
    }

    #[test]
    fn detects_single_object() {
        let mut d = BaseDetector::new(query(0.5));
        d.on_event(&Event::new_arrival(obj(0, 3.0, 1.0, 1.0, 0)));
        let ans = d.current().unwrap();
        assert!((ans.score - 3.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn searches_every_event() {
        let mut d = BaseDetector::new(query(0.5));
        for i in 0..5 {
            d.on_event(&Event::new_arrival(obj(i, 1.0, i as f64 * 10.0, 0.0, 0)));
        }
        let st = d.stats();
        assert_eq!(st.events, 5);
        assert_eq!(st.events_triggering_search, 5);
        assert!(st.searches >= 5);
    }

    #[test]
    fn lifecycle_cleanup() {
        let mut d = BaseDetector::new(query(0.5));
        let o = obj(0, 1.0, 0.0, 0.0, 0);
        d.on_event(&Event::new_arrival(o));
        d.on_event(&Event::grown(o, 1_000));
        assert!(d.current().unwrap().score <= 1e-15);
        d.on_event(&Event::expired(o, 2_000));
        assert!(d.current().is_none());
        assert_eq!(d.cell_count(), 0);
    }
}
