//! Base: the no-upper-bound ablation (paper Appendix J).
//!
//! The space is divided into the same query-sized cells as Cell-CSPOT, but no
//! upper bounds are maintained: whenever an event happens, *every* affected
//! cell is re-searched immediately with SL-CSPOT. The global answer is the
//! best cell candidate, kept in a score-ordered set. This makes `current()`
//! O(1) but every event pays the full sweep cost, which is what the paper's
//! Figure 5 shows CCS avoiding.
//!
//! [`BaseDetector::with_pruning`] additionally offers an incumbent-pruned
//! variant: each cell caches its current-weight sum (the Definition-7
//! static bound, which dominates the burst score of every point in the
//! cell), touched cells are merely marked stale under that bound, and the
//! best-first loop in `current()` re-sweeps a stale cell only while its
//! bound still beats every fresh candidate. Answers are identical to the
//! eager variant; dominated cells simply never pay for a sweep. The default
//! [`BaseDetector::new`] keeps the paper's eager semantics so the ablation
//! numbers stay comparable.

use std::collections::BTreeSet;

use surge_core::{
    object_to_rect, BurstDetector, BurstParams, CandidateState, CellId, CellStore, CellTable,
    CheckpointableDetector, DetectorState, DetectorStats, Event, EventKind, GridSpec, Point, Rect,
    RegionAnswer, RestoreError, ShardedCellStore, SurgeQuery, TotalF64, WindowKind,
};

use crate::cell::sorted_cells;
use crate::psweep::{PersistentCellSweep, SweepMode, SweepPool};

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
    /// candidate score when fresh, the static upper bound when stale.
    score_key: TotalF64,
    domain: Option<Rect>,
    /// Sum of current-window weights — the unnormalized static bound
    /// (Definition 7): `score ≤ fc ≤ us_weight / |W_c|` everywhere in the
    /// cell.
    us_weight: f64,
    /// Pruned mode only: contents changed since `best` was computed.
    stale: bool,
}

/// The Base detector: exhaustive per-event cell searches, no pruning — or,
/// via [`BaseDetector::with_pruning`], lazy incumbent-pruned searches.
#[derive(Debug)]
pub struct BaseDetector {
    query: SurgeQuery,
    params: BurstParams,
    grid: GridSpec,
    cells: ShardedCellStore<BaseCell>,
    /// Cells ordered by `score_key`; the maximum is the back.
    ranked: BTreeSet<(TotalF64, CellId)>,
    stats: DetectorStats,
    pruned: bool,
    /// Free list for retired cells' persistent sweep state (Base ingests
    /// sequentially, so one pool serves every shard).
    pool: SweepPool,
}

impl BaseDetector {
    /// Creates a Base detector for `query` (eager per-event searches, the
    /// paper's ablation semantics).
    pub fn new(query: SurgeQuery) -> Self {
        Self::build(query, false)
    }

    /// Creates a Base detector that defers cell sweeps until the cell's
    /// static bound beats the incumbent answer. Same answers, fewer sweeps.
    pub fn with_pruning(query: SurgeQuery) -> Self {
        Self::build(query, true)
    }

    fn build(query: SurgeQuery, pruned: bool) -> Self {
        BaseDetector {
            params: query.burst_params(),
            grid: GridSpec::anchored(query.region.width, query.region.height),
            query,
            cells: ShardedCellStore::new(crate::cell::DEFAULT_SHARDS),
            ranked: BTreeSet::new(),
            stats: DetectorStats::default(),
            pruned,
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
                cell.stale = false;
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

    /// Pruned mode: re-key an affected cell under its static bound and mark
    /// it stale; drained cells are dropped outright.
    fn mark_stale(&mut self, id: CellId) {
        let Some(cell) = self.cells.get_mut(id) else {
            return;
        };
        let old_key = cell.score_key;
        if cell.sweep.is_empty() {
            self.ranked.remove(&(old_key, id));
            if let Some(cell) = self.cells.remove(id) {
                self.pool.retire(cell.sweep);
            }
            return;
        }
        cell.stale = true;
        // Keys of stale cells must stay upper bounds of their true maximum
        // burst score; the static bound is one (Definition 7). Infeasible
        // cells can never answer and sink to the bottom.
        let bound = if cell.domain.is_some() {
            cell.us_weight / self.params.current_norm
        } else {
            f64::NEG_INFINITY
        };
        let new_key = TotalF64(bound);
        if new_key != old_key {
            cell.score_key = new_key;
            self.ranked.remove(&(old_key, id));
            self.ranked.insert((new_key, id));
        } else if !self.ranked.contains(&(new_key, id)) {
            self.ranked.insert((new_key, id));
        }
    }
}

/// Checkpoint capture/restore. Base has no dynamic bounds, so the logical
/// per-cell state is the rectangle set, the static-bound accumulator, and
/// the cached best point: `cand[0]` encodes `(stale, best)` — `Stale` for
/// stale cells, `Valid { point, wc: score, wp: 0 }` for a fresh candidate,
/// `Absent` for a fresh "nothing in domain" outcome, `Infeasible` for
/// domain-less cells. Score keys are derived, exactly as the live paths
/// derive them.
impl CheckpointableDetector for BaseDetector {
    fn capture_state(&self) -> DetectorState {
        let (refs, rects) = sorted_cells(self.cells.shards(), |c: &BaseCell| c.sweep.len());
        let mut cells = CellTable::with_capacity(refs.len(), rects, 1);
        for (id, cell) in refs {
            let cand = if cell.stale {
                CandidateState::Stale
            } else if cell.domain.is_none() {
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
            let mut sweep =
                self.pool
                    .take(domain, self.params, crate::psweep::SweepMode::Persistent);
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
            let (best, stale) = match cand {
                CandidateState::Stale => (None, true),
                CandidateState::Infeasible => {
                    if domain.is_some() {
                        return Err(RestoreError::new(format!(
                            "cell {:?}: snapshot says infeasible, query domain disagrees",
                            cp.id
                        )));
                    }
                    (None, false)
                }
                CandidateState::Absent => (None, false),
                CandidateState::Valid { point, wc, .. } => (Some((point, wc)), false),
            };
            // Derive the score key exactly as the live paths do: static
            // bound for stale cells, candidate score for fresh ones.
            let key = if stale {
                if domain.is_some() {
                    TotalF64(us / self.params.current_norm)
                } else {
                    TotalF64(f64::NEG_INFINITY)
                }
            } else {
                TotalF64(best.map_or(f64::NEG_INFINITY, |(_, s)| s))
            };
            if self.cells.contains(cp.id) {
                return Err(RestoreError::new(format!("duplicate cell {:?}", cp.id)));
            }
            self.cells.get_or_insert_with(cp.id, || BaseCell {
                sweep,
                best,
                score_key: key,
                domain,
                us_weight: us,
                stale,
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
        // iterator can be re-run for the research/mark pass below.
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
                sweep: pool.take(domain, params, SweepMode::Persistent),
                best: None,
                score_key: TotalF64(f64::NEG_INFINITY),
                domain,
                us_weight: 0.0,
                stale: false,
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
        if self.pruned {
            for id in grid.cells_overlapping_iter(&g.rect) {
                self.mark_stale(id);
            }
        } else {
            for id in grid.cells_overlapping_iter(&g.rect) {
                if self.cells.contains(id) {
                    self.research_cell(id);
                }
            }
            if touched {
                self.stats.events_triggering_search += 1;
            }
        }
    }

    fn current(&mut self) -> Option<RegionAnswer> {
        let searches_before = self.stats.searches;
        let answer = loop {
            let Some((key, id)) = self.ranked.iter().next_back().copied() else {
                break None;
            };
            if key.get() == f64::NEG_INFINITY {
                break None;
            }
            let cell = self.cells.get(id)?;
            if cell.stale {
                // Best-first: the top key is an upper bound on every cell,
                // so sweeping the top stale cell either produces the true
                // answer or sinks it below a fresh incumbent.
                self.research_cell(id);
                continue;
            }
            let (point, score) = cell.best?;
            break Some(RegionAnswer::from_point(point, self.query.region, score));
        };
        if self.pruned && self.stats.searches > searches_before {
            self.stats.events_triggering_search += 1;
        }
        answer
    }

    fn name(&self) -> &'static str {
        if self.pruned {
            "Base+prune"
        } else {
            "Base"
        }
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
        for pruned in [false, true] {
            let build = |q| {
                if pruned {
                    BaseDetector::with_pruning(q)
                } else {
                    BaseDetector::new(q)
                }
            };
            for cut in [0usize, 40, events.len()] {
                let mut live = build(query(0.5));
                for ev in &events[..cut] {
                    live.on_event(ev);
                }
                let state = live.capture_state();
                let mut resumed = build(query(0.5));
                resumed.restore_state(&state).unwrap();
                assert_eq!(resumed.capture_state(), state, "capture is stable");
                for (i, ev) in events[cut..].iter().enumerate() {
                    live.on_event(ev);
                    resumed.on_event(ev);
                    let (a, b) = (live.current(), resumed.current());
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            assert_eq!(
                                x.score.to_bits(),
                                y.score.to_bits(),
                                "pruned {pruned} cut {cut} ev {i}"
                            );
                            assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                            assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                        }
                        (None, None) => {}
                        other => panic!("pruned {pruned} cut {cut} ev {i}: {other:?}"),
                    }
                }
                assert_eq!(resumed.stats(), live.stats());
                assert_eq!(resumed.cell_count(), live.cell_count());
            }
        }
    }

    #[test]
    fn restore_rejects_wrong_variant() {
        let mut eager = BaseDetector::new(query(0.5));
        eager.on_event(&Event::new_arrival(obj(0, 1.0, 0.0, 0.0, 0)));
        let state = eager.capture_state();
        let mut pruned = BaseDetector::with_pruning(query(0.5));
        assert!(pruned.restore_state(&state).is_err());
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

    #[test]
    fn pruned_variant_matches_eager_answers() {
        let mut eager = BaseDetector::new(query(0.5));
        let mut pruned = BaseDetector::with_pruning(query(0.5));
        let objs = [
            obj(0, 3.0, 1.0, 1.0, 0),
            obj(1, 2.0, 1.3, 1.2, 100),
            obj(2, 5.0, 8.0, 8.0, 200),
            obj(3, 1.0, 1.1, 0.9, 300),
            obj(4, 4.0, 8.2, 8.1, 400),
        ];
        for (i, o) in objs.iter().enumerate() {
            eager.on_event(&Event::new_arrival(*o));
            pruned.on_event(&Event::new_arrival(*o));
            if i == 2 {
                eager.on_event(&Event::grown(objs[0], 1_000));
                pruned.on_event(&Event::grown(objs[0], 1_000));
            }
            let a = eager.current().map(|r| r.score);
            let b = pruned.current().map(|r| r.score);
            match (a, b) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-12, "step {i}: {x} vs {y}"),
                (None, None) => {}
                other => panic!("step {i}: {other:?}"),
            }
        }
        // Expire everything through both: answers must stay aligned.
        for o in &objs {
            eager.on_event(&Event::grown(*o, 1_000));
            pruned.on_event(&Event::grown(*o, 1_000));
        }
        for o in &objs {
            eager.on_event(&Event::expired(*o, 2_000));
            pruned.on_event(&Event::expired(*o, 2_000));
        }
        assert!(eager.current().is_none());
        assert!(pruned.current().is_none());
    }

    #[test]
    fn pruning_skips_dominated_cells() {
        let mut d = BaseDetector::with_pruning(query(0.0));
        // Establish a strong incumbent.
        for i in 0..5 {
            d.on_event(&Event::new_arrival(obj(
                i,
                10.0,
                1.0 + 0.01 * i as f64,
                1.0,
                0,
            )));
        }
        let _ = d.current();
        let after_setup = d.stats().searches;
        // Weak far-away objects: bound 1/1000 each, incumbent 50/1000 —
        // their cells must never be swept.
        for i in 5..25 {
            d.on_event(&Event::new_arrival(obj(
                i,
                1.0,
                100.0 + i as f64 * 5.0,
                100.0,
                10,
            )));
            let _ = d.current();
        }
        assert_eq!(
            d.stats().searches,
            after_setup,
            "dominated cells were swept"
        );
        // And an eager Base on the same stream sweeps every touched cell.
        let mut eager = BaseDetector::new(query(0.0));
        for i in 0..5 {
            eager.on_event(&Event::new_arrival(obj(
                i,
                10.0,
                1.0 + 0.01 * i as f64,
                1.0,
                0,
            )));
        }
        for i in 5..25 {
            eager.on_event(&Event::new_arrival(obj(
                i,
                1.0,
                100.0 + i as f64 * 5.0,
                100.0,
                10,
            )));
        }
        assert!(eager.stats().searches > d.stats().searches);
    }
}
