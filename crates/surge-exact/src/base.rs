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
    object_to_rect, BurstDetector, BurstParams, CandidateState, CellId, CellStore, CellTable,
    CheckpointableDetector, DetectorState, DetectorStats, Event, EventKind, GridSpec, Point, Rect,
    RegionAnswer, RestoreError, ShardedCellStore, SurgeQuery, TotalF64, WindowKind,
};

use crate::cell::sorted_cells;
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
    /// Sum of current-window weights — the unnormalized static bound
    /// (Definition 7). Base never prunes with it; snapshots carry it in the
    /// cell table's `us` column, whose bytes the snapshot format pins.
    us_weight: f64,
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

/// Checkpoint capture/restore. Base has no dynamic bounds, so the logical
/// per-cell state is the rectangle set, the static-bound accumulator, and
/// the cached best point: `cand[0]` is `Valid { point, wc: score, wp: 0 }`
/// for a candidate, `Absent` for a "nothing in domain" outcome and
/// `Infeasible` for domain-less cells. Every cell is searched on every
/// event that touches it, so none is ever `Stale`. Score keys are derived,
/// exactly as the live path derives them.
impl CheckpointableDetector for BaseDetector {
    fn capture_state(&self) -> DetectorState {
        let (refs, rects) = sorted_cells(self.cells.shards(), |c: &BaseCell| c.sweep.len());
        let mut cells = CellTable::with_capacity(refs.len(), rects, 1);
        for (id, cell) in refs {
            let cand = if cell.domain.is_none() {
                CandidateState::Infeasible
            } else {
                match cell.best {
                    Some((point, score)) => CandidateState::Valid {
                        point,
                        wc: score,
                        wp: 0.0,
                    },
                    None => CandidateState::Absent,
                }
            };
            cells.push_cell(id, cell.sweep.rect_states(), [cell.us_weight], [], [cand]);
        }
        DetectorState {
            name: self.name().to_string(),
            levels: 1,
            cells,
            rects: Vec::new(),
            incumbents: Vec::new(),
            grid_cells: Vec::new(),
            stats: self.stats,
        }
    }

    fn restore_state(&mut self, state: &DetectorState) -> Result<(), RestoreError> {
        if self.cell_count() != 0 {
            return Err(RestoreError::new(
                "restore target must be a freshly constructed detector",
            ));
        }
        if state.levels != 1 {
            return Err(RestoreError::new(format!(
                "Base state has 1 level, snapshot has {}",
                state.levels
            )));
        }
        if state.name != self.name() {
            return Err(RestoreError::new(format!(
                "snapshot captured a {:?} detector, restoring into {:?}",
                state.name,
                self.name()
            )));
        }
        for cp in state.cells.iter() {
            let (Some(&us), Some(&cand)) = (cp.us.first(), cp.cand.first()) else {
                return Err(RestoreError::new(format!(
                    "cell {:?} is missing level-0 state",
                    cp.id
                )));
            };
            let cell_rect = self.grid.cell_rect(cp.id);
            let domain = self
                .query
                .point_domain()
                .and_then(|d| d.intersection(&cell_rect));
            let mut sweep = self.pool.take(domain, self.params);
            for r in cp.rects {
                sweep.insert(r.id, r.rect, r.weight);
                if r.kind == WindowKind::Past {
                    sweep.grow(r.id);
                }
            }
            if sweep.is_empty() {
                return Err(RestoreError::new(format!(
                    "cell {:?} has no rectangles (empty cells are dropped, never captured)",
                    cp.id
                )));
            }
            let best = match cand {
                CandidateState::Stale => {
                    return Err(RestoreError::new(format!(
                        "cell {:?}: Base never records Stale candidates",
                        cp.id
                    )))
                }
                CandidateState::Infeasible => {
                    if domain.is_some() {
                        return Err(RestoreError::new(format!(
                            "cell {:?}: snapshot says infeasible, query domain disagrees",
                            cp.id
                        )));
                    }
                    None
                }
                CandidateState::Absent => None,
                CandidateState::Valid { point, wc, .. } => Some((point, wc)),
            };
            // Derive the score key exactly as the live path does.
            let key = TotalF64(best.map_or(f64::NEG_INFINITY, |(_, s)| s));
            if self.cells.contains(cp.id) {
                return Err(RestoreError::new(format!("duplicate cell {:?}", cp.id)));
            }
            self.cells.get_or_insert_with(cp.id, || BaseCell {
                sweep,
                best,
                score_key: key,
                domain,
                us_weight: us,
            });
            self.ranked.insert((key, cp.id));
        }
        self.stats = state.stats;
        Ok(())
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
                us_weight: 0.0,
            });
            match event.kind {
                EventKind::New => {
                    cell.sweep
                        .insert(event.object.id, g.rect, event.object.weight);
                    cell.us_weight += event.object.weight;
                }
                EventKind::Grown => {
                    if cell.sweep.grow(event.object.id) {
                        cell.us_weight -= event.object.weight;
                    }
                }
                EventKind::Expired => {
                    if let Some(r) = cell.sweep.remove(event.object.id) {
                        if r.kind == WindowKind::Current {
                            cell.us_weight -= r.weight;
                        }
                    }
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
    fn capture_restore_resumes_bit_identically() {
        let events: Vec<Event> = (0..90u64)
            .flat_map(|i| {
                let o = obj(
                    i,
                    1.0 + (i % 3) as f64,
                    (i % 7) as f64,
                    (i % 5) as f64,
                    i * 9,
                );
                let mut evs = vec![Event::new_arrival(o)];
                if i >= 30 && i % 3 == 0 {
                    let p = i - 30;
                    let old = obj(
                        p,
                        1.0 + (p % 3) as f64,
                        (p % 7) as f64,
                        (p % 5) as f64,
                        p * 9,
                    );
                    evs.push(Event::grown(old, i * 9));
                }
                if i >= 60 && i % 3 == 0 {
                    let p = i - 60;
                    let old = obj(
                        p,
                        1.0 + (p % 3) as f64,
                        (p % 7) as f64,
                        (p % 5) as f64,
                        p * 9,
                    );
                    evs.push(Event::expired(old, i * 9));
                }
                evs
            })
            .collect();
        for cut in [0usize, 40, events.len()] {
            let mut live = BaseDetector::new(query(0.5));
            for ev in &events[..cut] {
                live.on_event(ev);
            }
            let state = live.capture_state();
            let mut resumed = BaseDetector::new(query(0.5));
            resumed.restore_state(&state).unwrap();
            assert_eq!(resumed.capture_state(), state, "capture is stable");
            for (i, ev) in events[cut..].iter().enumerate() {
                live.on_event(ev);
                resumed.on_event(ev);
                let (a, b) = (live.current(), resumed.current());
                match (a, b) {
                    (Some(x), Some(y)) => {
                        assert_eq!(x.score.to_bits(), y.score.to_bits(), "cut {cut} ev {i}");
                        assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                        assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                    }
                    (None, None) => {}
                    other => panic!("cut {cut} ev {i}: {other:?}"),
                }
            }
            assert_eq!(resumed.stats(), live.stats());
            assert_eq!(resumed.cell_count(), live.cell_count());
        }
    }

    #[test]
    fn restore_rejects_wrong_variant() {
        // A CCS capture has Base's shape (one level) but not its name.
        let mut ccs = crate::CellCspot::new(query(0.5));
        ccs.on_event(&Event::new_arrival(obj(0, 1.0, 0.0, 0.0, 0)));
        let state = ccs.capture_state();
        let mut base = BaseDetector::new(query(0.5));
        assert!(base.restore_state(&state).is_err());
        // A Stale candidate is a state eager Base never reaches.
        let mut eager = BaseDetector::new(query(0.5));
        eager.on_event(&Event::new_arrival(obj(0, 1.0, 0.0, 0.0, 0)));
        let mut stale = eager.capture_state();
        let row = stale.cells.iter().next().expect("one cell");
        let mut cells = surge_core::CellTable::new();
        cells.push_cell(
            row.id,
            row.rects.iter().copied(),
            row.us.iter().copied(),
            [],
            [CandidateState::Stale],
        );
        stale.cells = cells;
        let mut base = BaseDetector::new(query(0.5));
        assert!(base.restore_state(&stale).is_err());
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
