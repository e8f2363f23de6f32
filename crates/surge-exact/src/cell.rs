//! Cell-CSPOT: the exact continuous solution (Algorithm 2), sharded.
//!
//! A grid of query-sized cells partitions the space. Each cell keeps the
//! rectangle objects overlapping it, a burst-score **upper bound**, and a
//! cached **candidate point** (the cell's last exhaustive search result). An
//! event touches at most a constant number of cells (Lemma 1); it updates
//! their bounds in O(1) and (in)validates their candidates via Lemma 4. The
//! answer is obtained lazily: cells are visited in descending bound order and
//! only searched (with [`crate::sweep::sl_cspot`]) when their candidate is
//! stale and their bound still beats the best score found — most events
//! trigger no search at all (Table II).
//!
//! # Sharding
//!
//! All per-cell state lives in a [`ShardedCellStore`], partitioned by the
//! spatial hash [`surge_core::shard_of_cell`], with one bound-ordered queue
//! per shard. Cells are independent — an event's updates to different cells
//! commute — so the shards can ingest concurrently:
//! [`CellCspot::ingest_workers`] splits the detector into per-shard
//! [`CellMeshWorker`]s that each own one shard's map and queue exclusively
//! (`surge-stream`'s `drive_elastic` puts each on its own thread). The
//! sequential [`BurstDetector::on_event`] routes through the exact same
//! per-cell code, so shard count and thread count change wall-clock time
//! only: detector state, answers and stats are bit-identical.
//!
//! Two bound modes reproduce the paper's ablation:
//! * [`BoundMode::Combined`] — `U(c) = min(U_s(c), U_d(c))` (the CCS method);
//! * [`BoundMode::StaticOnly`] — `U(c) = U_s(c)` (the B-CCS baseline).

use std::collections::{BTreeSet, HashMap};

use surge_core::{
    object_to_rect, shard_of_cell, BurstDetector, BurstParams, CandidateState, CellId, CellTable,
    CheckpointableDetector, DetectorState, DetectorStats, Event, EventKind, GridSpec,
    IncrementalDetector, MeshIngest, MeshWorker, Point, Rect, RegionAnswer, RegionSize,
    RestoreError, ShardAnswer, ShardFlush, ShardRunStats, ShardWorkerStats, ShardedCellStore,
    SurgeQuery, TotalF64, WindowKind,
};

use crate::psweep::{PersistentCellSweep, SweepMode, SweepPool, SweepStats};
use crate::sweep::{SweepRect, SweepResult};

/// Default shard count for the cell store (power of two; purely structural —
/// any value yields identical answers).
pub const DEFAULT_SHARDS: usize = 8;

/// Which upper bound the detector maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundMode {
    /// `min(static, dynamic)` — the paper's CCS.
    Combined,
    /// Static bound only — the paper's B-CCS ablation. Candidate points are
    /// invalidated whenever an event touches their cell: the Lemma-4
    /// validity conditions require the per-candidate score tracking that
    /// belongs to the dynamic machinery, so the static-only ablation
    /// re-searches touched cells exactly as Table II reports.
    StaticOnly,
}

/// A cached cell search result, kept current through Lemma-4 bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    point: Point,
    /// Raw current-window weight sum at `point`.
    wc: f64,
    /// Raw past-window weight sum at `point`.
    wp: f64,
}

#[derive(Debug, Clone, Copy)]
enum CandState {
    /// Never searched, or invalidated by an event (Lemma 4 failed).
    Stale,
    /// `candidate` is guaranteed to attain the cell's maximum burst score.
    Valid(Candidate),
    /// The cell's point domain is empty (preferred area too small here);
    /// permanently yields no answer.
    Infeasible,
}

#[derive(Debug)]
struct Cell {
    /// The persistent cross-sweep state: the cell's rectangle objects in
    /// id order *plus* the incrementally maintained event-coordinate map,
    /// enter/exit orders and segment trees of its SL-CSPOT sweep (see
    /// [`crate::psweep`]). Transitions update it in place; searches reuse
    /// it instead of rebuilding from the rectangle set.
    sweep: PersistentCellSweep,
    /// Sum of weights of current-window rectangles (unnormalized static
    /// bound, Definition 7).
    us_weight: f64,
    /// Dynamic upper bound in score units (Eqn. 3); ∞ until first searched.
    ud: f64,
    cand: CandState,
    /// The key under which this cell currently sits in its shard queue.
    heap_key: TotalF64,
    /// Intersection of the cell extent with the query's point domain.
    domain: Option<Rect>,
}

/// The immutable per-query context every shard shares: all `Copy`, handed to
/// each worker by value so the shard borrows stay disjoint.
#[derive(Debug, Clone, Copy)]
struct ShardCtx {
    query: SurgeQuery,
    params: BurstParams,
    grid: GridSpec,
    mode: BoundMode,
    sweep_mode: SweepMode,
}

/// One shard's mutable state: its slice of the cell universe plus the
/// bound-ordered queue over exactly those cells (max at the back).
type ShardQueue = BTreeSet<(TotalF64, CellId)>;

/// The upper bound `U(c)` in burst-score units (Definition 8).
fn cell_bound_key(cell: &Cell, params: &BurstParams, mode: BoundMode) -> TotalF64 {
    let us = cell.us_weight / params.current_norm;
    let u = match mode {
        BoundMode::Combined => us.min(cell.ud),
        BoundMode::StaticOnly => us,
    };
    TotalF64(u)
}

/// The event prologue shared by the sequential detector and the shard
/// workers: area filter plus the SURGE→cSPOT reduction. `None` when the
/// object falls outside the preferred area. Keeping this in one place is
/// part of the bit-identity contract — both ingest paths must derive the
/// identical rectangle from an event.
fn event_sweep_rect(ctx: &ShardCtx, ev: &Event) -> Option<SweepRect> {
    if !ctx.query.accepts(ev.object.pos) {
        return None;
    }
    let g = object_to_rect(&ev.object, ctx.query.region);
    Some(SweepRect {
        rect: g.rect,
        weight: g.weight,
        kind: WindowKind::Current,
    })
}

/// Applies one event to one cell: rect bookkeeping (routed through the
/// cell's [`PersistentCellSweep`], which keeps the sweep's coordinate maps
/// and orders current as a side effect), bound updates (Definition 7 /
/// Eqn. 3) and Lemma-4 candidate maintenance. Free function over one
/// shard's state so the sequential detector and the parallel shard workers
/// run the *same* code.
fn apply_event_to_cell(
    cells: &mut HashMap<CellId, Cell>,
    queue: &mut ShardQueue,
    pool: &mut SweepPool,
    ctx: &ShardCtx,
    id: CellId,
    ev: &Event,
    g: &SweepRect,
) {
    let params = ctx.params;
    let mode = ctx.mode;
    let cell_rect = ctx.grid.cell_rect(id);
    let domain = ctx
        .query
        .point_domain()
        .and_then(|d| d.intersection(&cell_rect));
    let w = ev.object.weight;

    let (old_key, disposition) = {
        let cell = cells.entry(id).or_insert_with(|| Cell {
            sweep: pool.take(domain, params, ctx.sweep_mode),
            us_weight: 0.0,
            ud: f64::INFINITY,
            cand: if domain.is_none() {
                CandState::Infeasible
            } else {
                CandState::Stale
            },
            heap_key: TotalF64(f64::NEG_INFINITY),
            domain,
        });
        let covers = |cand: &Candidate| g.rect.contains(cand.point);

        match ev.kind {
            EventKind::New => {
                cell.sweep.insert(ev.object.id, g.rect, w);
                cell.us_weight += w;
                if cell.ud.is_finite() {
                    cell.ud += w / params.current_norm;
                }
                if let CandState::Valid(c) = &mut cell.cand {
                    // Lemma 4 (New): the candidate survives iff the new
                    // rectangle covers it and its pre-update increase
                    // term is strictly positive.
                    let increasing = c.wc / params.current_norm - c.wp / params.past_norm > 0.0;
                    if covers(c) && increasing {
                        c.wc += w;
                    } else {
                        cell.cand = CandState::Stale;
                    }
                }
            }
            EventKind::Grown => {
                let present = cell.sweep.grow(ev.object.id);
                if present {
                    cell.us_weight -= w;
                    // Eqn. 3: dynamic bound unchanged on Grown.
                    if let CandState::Valid(c) = &cell.cand {
                        // Lemma 4 (Grown): survives iff NOT covered.
                        if covers(c) {
                            cell.cand = CandState::Stale;
                        }
                    }
                }
            }
            EventKind::Expired => {
                if cell.sweep.remove(ev.object.id).is_some() {
                    if cell.ud.is_finite() {
                        cell.ud += params.alpha * w / params.past_norm;
                    }
                    if let CandState::Valid(c) = &mut cell.cand {
                        // Lemma 4 (Expired): survives iff covered and the
                        // pre-update increase term is strictly positive.
                        let increasing = c.wc / params.current_norm - c.wp / params.past_norm > 0.0;
                        if covers(c) && increasing {
                            c.wp -= w;
                        } else {
                            cell.cand = CandState::Stale;
                        }
                    }
                }
            }
        }

        // B-CCS: any touch stales the candidate (see BoundMode docs).
        if mode == BoundMode::StaticOnly {
            if let CandState::Valid(_) = cell.cand {
                cell.cand = CandState::Stale;
            }
        }

        let old_key = cell.heap_key;
        if cell.sweep.is_empty() {
            (old_key, None)
        } else {
            let new_key = if matches!(cell.cand, CandState::Infeasible) {
                TotalF64(f64::NEG_INFINITY)
            } else {
                cell_bound_key(cell, &params, mode)
            };
            cell.heap_key = new_key;
            (old_key, Some(new_key))
        }
    };

    match disposition {
        None => {
            // Drop drained cells entirely; they contribute score ≤ 0. The
            // persistent sweep state returns to the shard pool (counters
            // included), ready for the next cell born in this shard.
            queue.remove(&(old_key, id));
            if let Some(cell) = cells.remove(&id) {
                pool.retire(cell.sweep);
            }
        }
        Some(new_key) => {
            if new_key != old_key || !queue.contains(&(new_key, id)) {
                queue.remove(&(old_key, id));
                queue.insert((new_key, id));
            }
        }
    }
}

/// Writes one sweep outcome into a cell: candidate, dynamic bound and queue
/// position. Returns the candidate score (or `None` if the cell is missing
/// or infeasible). The caller accounts the search in [`DetectorStats`].
fn install_result_into(
    cells: &mut HashMap<CellId, Cell>,
    queue: &mut ShardQueue,
    ctx: &ShardCtx,
    id: CellId,
    outcome: Option<SweepResult>,
) -> Option<f64> {
    let params = ctx.params;
    let mode = ctx.mode;
    let (old_key, new_key, score) = {
        let cell = cells.get_mut(&id)?;
        let domain = cell.domain?;
        let (cand, score) = match outcome {
            Some(res) => (
                Candidate {
                    point: res.point,
                    wc: res.wc,
                    wp: res.wp,
                },
                res.score,
            ),
            None => (
                // No rectangle intersects the feasible domain: no point
                // in this cell scores above zero; record an "empty" valid
                // candidate at the domain corner.
                Candidate {
                    point: Point::new(domain.x1, domain.y1),
                    wc: 0.0,
                    wp: 0.0,
                },
                0.0,
            ),
        };
        cell.cand = CandState::Valid(cand);
        cell.ud = score;
        let old_key = cell.heap_key;
        let new_key = cell_bound_key(cell, &params, mode);
        cell.heap_key = new_key;
        (old_key, new_key, score)
    };
    if new_key != old_key {
        queue.remove(&(old_key, id));
        queue.insert((new_key, id));
    }
    Some(score)
}

/// Sweeps one cell in place via its persistent cross-sweep state and
/// returns the outcome to install, or `None` when the cell is missing or
/// infeasible. Every call runs one SL-CSPOT sweep; in [`SweepMode::Rebuild`]
/// the persistent state re-sorts everything first, reproducing the
/// pre-persistence cost profile with bit-identical results.
fn sweep_cell(cells: &mut HashMap<CellId, Cell>, id: CellId) -> Option<Option<SweepResult>> {
    let cell = cells.get_mut(&id)?;
    cell.domain?;
    Some(cell.sweep.search())
}

/// Sweeps every dirty (stale, feasible) cell of one shard in place
/// (persistent state), in ascending id order, and installs the outcomes.
/// Returns the number of cells swept.
fn sweep_shard_dirty(
    cells: &mut HashMap<CellId, Cell>,
    queue: &mut ShardQueue,
    ctx: &ShardCtx,
) -> u64 {
    let mut ids: Vec<CellId> = cells
        .iter()
        .filter(|(_, c)| matches!(c.cand, CandState::Stale) && c.domain.is_some())
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    for &id in &ids {
        let outcome = sweep_cell(cells, id).expect("dirty cell is present and feasible");
        install_result_into(cells, queue, ctx, id, outcome);
    }
    ids.len() as u64
}

/// One shard's best fresh candidate under the sequential scan order: the
/// maximum of `(score, bound-key, cell)`. Requires every feasible cell in
/// the shard to be fresh (flush guarantees it).
fn shard_best(
    cells: &HashMap<CellId, Cell>,
    queue: &ShardQueue,
    ctx: &ShardCtx,
) -> Option<ShardAnswer> {
    let mut best: Option<ShardAnswer> = None;
    for &(key, id) in queue.iter().rev() {
        if key.get() == f64::NEG_INFINITY {
            break;
        }
        if let Some(b) = best {
            if key.get() <= b.score {
                break;
            }
        }
        if let Some(CandState::Valid(c)) = cells.get(&id).map(|c| c.cand) {
            let s = ctx.params.score_weights(c.wc, c.wp);
            if best.is_none_or(|b| s > b.score) {
                best = Some(ShardAnswer {
                    point: c.point,
                    score: s,
                    bound: key.get(),
                    cell: id,
                });
            }
        } else {
            debug_assert!(
                !matches!(cells.get(&id).map(|c| c.cand), Some(CandState::Stale)),
                "shard_best on a shard with stale cells"
            );
        }
    }
    best
}

/// The exact continuous bursty-region detector.
///
/// # Example
///
/// ```
/// use surge_core::{BurstDetector, Event, Point, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
/// use surge_exact::CellCspot;
///
/// let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(1_000), 0.5);
/// let mut ccs = CellCspot::new(query);
/// ccs.on_event(&Event::new_arrival(SpatialObject::new(0, 2.0, Point::new(3.0, 3.0), 0)));
/// let ans = ccs.current().unwrap();
/// assert!(ans.region.contains(Point::new(3.0, 3.0)));
/// ```
#[derive(Debug)]
pub struct CellCspot {
    ctx: ShardCtx,
    store: ShardedCellStore<Cell>,
    /// One bound-ordered queue per shard (max at the back), parallel to the
    /// store's shards.
    queues: Vec<ShardQueue>,
    /// One persistent-sweep free list per shard: drained cells retire their
    /// sweep state (allocations + counters) here, new cells draw from it.
    pools: Vec<SweepPool>,
    stats: DetectorStats,
    /// Searches performed before the previous `current()` call, used to
    /// attribute searches to event batches for the trigger ratio.
    searches_at_last_current: u64,
}

impl CellCspot {
    /// Creates a CCS detector (combined bounds, default shard count,
    /// persistent cross-sweep state).
    pub fn new(query: SurgeQuery) -> Self {
        Self::with_mode(query, BoundMode::Combined)
    }

    /// Creates a detector with an explicit bound mode (B-CCS uses
    /// [`BoundMode::StaticOnly`]).
    pub fn with_mode(query: SurgeQuery, mode: BoundMode) -> Self {
        Self::with_shards(query, mode, DEFAULT_SHARDS)
    }

    /// Creates a detector with an explicit shard count (rounded up to a
    /// power of two). Sharding is structural: any count produces identical
    /// answers and stats; it bounds only how far ingest can fan out.
    pub fn with_shards(query: SurgeQuery, mode: BoundMode, shards: usize) -> Self {
        Self::with_sweep_mode(query, mode, SweepMode::Persistent, shards)
    }

    /// Creates a detector with an explicit per-cell sweep mode.
    /// [`SweepMode::Rebuild`] re-sorts every cell's sweep inputs on every
    /// search (the pre-persistence behaviour) — retained for differential
    /// testing and the `sweep-bench` baseline; answers are bit-identical in
    /// both modes.
    pub fn with_sweep_mode(
        query: SurgeQuery,
        mode: BoundMode,
        sweep_mode: SweepMode,
        shards: usize,
    ) -> Self {
        let store: ShardedCellStore<Cell> = ShardedCellStore::new(shards);
        let n = store.shard_count();
        CellCspot {
            ctx: ShardCtx {
                params: query.burst_params(),
                grid: GridSpec::anchored(query.region.width, query.region.height),
                query,
                mode,
                sweep_mode,
            },
            store,
            queues: (0..n).map(|_| BTreeSet::new()).collect(),
            pools: (0..n).map(|_| SweepPool::new()).collect(),
            stats: DetectorStats::default(),
            searches_at_last_current: 0,
        }
    }

    /// Aggregated persistent-sweep counters: every live cell's plus every
    /// retired cell's (pooled per shard). The differential between
    /// [`SweepMode::Persistent`] and [`SweepMode::Rebuild`] runs shows up
    /// here as `rebuilt_leaves` dropping from ~leaves-per-search to
    /// threshold-crossings only.
    pub fn sweep_stats(&self) -> SweepStats {
        let mut total = SweepStats::default();
        for pool in &self.pools {
            total.absorb(&pool.retired_stats());
        }
        for shard in self.store.shards() {
            for cell in shard.values() {
                total.absorb(&cell.sweep.stats());
            }
        }
        total
    }

    /// The query this detector answers.
    pub fn query(&self) -> &SurgeQuery {
        &self.ctx.query
    }

    /// Number of non-empty cells currently tracked.
    pub fn cell_count(&self) -> usize {
        use surge_core::CellStore;
        self.store.len()
    }

    /// Number of shards the cell store is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    fn candidate_score(&self, c: &Candidate) -> f64 {
        self.ctx.params.score_weights(c.wc, c.wp)
    }

    /// Searches one cell with SL-CSPOT (via its persistent cross-sweep
    /// state), refreshing its candidate and dynamic bound, and returns the
    /// candidate score (or `None` if infeasible).
    fn search_cell(&mut self, id: CellId) -> Option<f64> {
        self.stats.searches += 1;
        let s = self.store.shard_of(id);
        let ctx = self.ctx;
        let outcome = sweep_cell(self.store.shard_mut(s), id)?;
        install_result_into(
            self.store.shard_mut(s),
            &mut self.queues[s],
            &ctx,
            id,
            outcome,
        )
    }

    /// Number of cells whose candidate is currently stale (searched lazily
    /// on the next [`BurstDetector::current`] call, or eagerly via
    /// [`IncrementalDetector::sweep_dirty`]).
    pub fn dirty_cell_count(&self) -> usize {
        self.store
            .shards()
            .iter()
            .flat_map(|m| m.values())
            .filter(|c| matches!(c.cand, CandState::Stale))
            .count()
    }

    /// Re-homes every cell under `shard_of_cell(id, shards)` (rounded up to
    /// a power of two) by capturing the detector's machine-independent
    /// logical state and restoring it into a fresh store at the new count —
    /// the exact checkpoint path, so everything derived (persistent sweeps,
    /// shard queues, heap keys) rebuilds deterministically and answers
    /// continue bit-identically. Stats are preserved verbatim.
    pub fn reshard(&mut self, shards: usize) {
        if ShardedCellStore::<Cell>::new(shards).shard_count() == self.store.shard_count() {
            return;
        }
        let state = self.capture_state();
        let searches_at_last_current = self.searches_at_last_current;
        let mut fresh =
            CellCspot::with_sweep_mode(self.ctx.query, self.ctx.mode, self.ctx.sweep_mode, shards);
        fresh
            .restore_state(&state)
            .expect("a detector's own capture restores into a same-query twin");
        fresh.searches_at_last_current = searches_at_last_current;
        *self = fresh;
    }

    /// The queue entry strictly below `cursor` in the global descending
    /// `(bound, cell)` order, merged across the shard queues.
    fn next_entry_below(&self, cursor: Option<(TotalF64, CellId)>) -> Option<(TotalF64, CellId)> {
        self.queues
            .iter()
            .filter_map(|q| match cursor {
                None => q.iter().next_back(),
                Some(c) => q.range(..c).next_back(),
            })
            .max()
            .copied()
    }
}

/// Every cell of `shards` as `(id, &cell)` in ascending id order — the row
/// order of a capture's cell table — plus the total of `rects` over them,
/// so the caller can size the table before filling it.
pub(crate) fn sorted_cells<C>(
    shards: &[HashMap<CellId, C>],
    rects: impl Fn(&C) -> usize,
) -> (Vec<(CellId, &C)>, usize) {
    let mut refs = Vec::with_capacity(shards.iter().map(HashMap::len).sum());
    let mut total = 0;
    for shard in shards {
        for (&id, cell) in shard {
            total += rects(cell);
            refs.push((id, cell));
        }
    }
    refs.sort_unstable_by_key(|&(id, _)| id);
    (refs, total)
}

/// Checkpoint capture/restore (see `surge_core::checkpoint`): the logical
/// per-cell state is the rectangle set plus the floating-point accumulators
/// whose bits depend on event history (`us_weight`, `ud`, Lemma-4 candidate
/// sums). Everything derived — persistent sweep structures, shard queues,
/// heap keys — is rebuilt deterministically on restore, so a restored
/// detector's answers, and the searches behind them, continue the
/// uninterrupted run bit for bit.
impl CheckpointableDetector for CellCspot {
    fn capture_state(&self) -> DetectorState {
        let (refs, rects) = sorted_cells(self.store.shards(), |c: &Cell| c.sweep.len());
        let mut cells = CellTable::with_capacity(refs.len(), rects, 1);
        for (id, cell) in refs {
            let cand = match cell.cand {
                CandState::Stale => CandidateState::Stale,
                CandState::Infeasible => CandidateState::Infeasible,
                CandState::Valid(c) => CandidateState::Valid {
                    point: c.point,
                    wc: c.wc,
                    wp: c.wp,
                },
            };
            cells.push_cell(
                id,
                cell.sweep.rect_states(),
                [cell.us_weight],
                [cell.ud],
                [cand],
            );
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
                "CellCspot state has 1 level, snapshot has {}",
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
        let ctx = self.ctx;
        for cp in state.cells.iter() {
            let (Some(&us), Some(&ud), Some(&cand)) =
                (cp.us.first(), cp.ud.first(), cp.cand.first())
            else {
                return Err(RestoreError::new(format!(
                    "cell {:?} is missing level-0 state",
                    cp.id
                )));
            };
            if cp.rects.is_empty() {
                return Err(RestoreError::new(format!(
                    "cell {:?} has no rectangles (empty cells are dropped, never captured)",
                    cp.id
                )));
            }
            let s = self.store.shard_of(cp.id);
            let cell_rect = ctx.grid.cell_rect(cp.id);
            let domain = ctx
                .query
                .point_domain()
                .and_then(|d| d.intersection(&cell_rect));
            let mut sweep = self.pools[s].take(domain, ctx.params, ctx.sweep_mode);
            for r in cp.rects {
                sweep.insert(r.id, r.rect, r.weight);
                if r.kind == WindowKind::Past {
                    sweep.grow(r.id);
                }
            }
            let cand = match cand {
                CandidateState::Stale => CandState::Stale,
                CandidateState::Infeasible => CandState::Infeasible,
                CandidateState::Valid { point, wc, wp } => {
                    CandState::Valid(Candidate { point, wc, wp })
                }
                CandidateState::Absent => {
                    return Err(RestoreError::new(
                        "CellCspot never records Absent candidates",
                    ))
                }
            };
            if matches!(cand, CandState::Infeasible) != domain.is_none() {
                return Err(RestoreError::new(format!(
                    "cell {:?}: candidate feasibility disagrees with the query domain",
                    cp.id
                )));
            }
            let mut cell = Cell {
                sweep,
                us_weight: us,
                ud,
                cand,
                heap_key: TotalF64(f64::NEG_INFINITY),
                domain,
            };
            // The live invariant: infeasible cells sink; feasible ones sit
            // under their bound key. Derived, not captured — the key is a
            // pure function of the captured accumulators.
            let key = if matches!(cell.cand, CandState::Infeasible) {
                TotalF64(f64::NEG_INFINITY)
            } else {
                cell_bound_key(&cell, &ctx.params, ctx.mode)
            };
            cell.heap_key = key;
            if self.store.shard_mut(s).insert(cp.id, cell).is_some() {
                return Err(RestoreError::new(format!("duplicate cell {:?}", cp.id)));
            }
            self.queues[s].insert((key, cp.id));
        }
        self.stats = state.stats;
        self.searches_at_last_current = state.stats.searches;
        Ok(())
    }
}

impl IncrementalDetector for CellCspot {
    fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    /// In-place dirty sweeps over the persistent per-cell state, one shard
    /// after another. Results and stats are bit-identical to the
    /// rebuild-per-search reference (a [`SweepMode::Rebuild`] detector).
    /// `_threads` is ignored: the sweep is sequential, and the parallel path
    /// is `drive_elastic`.
    fn sweep_dirty(&mut self, _threads: usize) -> u64 {
        let ctx = self.ctx;
        let swept: u64 = self
            .store
            .shards_mut()
            .iter_mut()
            .zip(self.queues.iter_mut())
            .map(|(cells, queue)| sweep_shard_dirty(cells, queue, &ctx))
            .sum();
        self.stats.searches += swept;
        swept
    }
}

/// One shard's exclusive ingest handle (see [`MeshIngest`]): owns the
/// shard's cell map and queue for the lifetime of a mesh epoch, applies the
/// event stream to its own cells, sweeps its dirty cells at flush
/// boundaries and reports the shard-local best candidate.
#[derive(Debug)]
pub struct CellMeshWorker<'a> {
    shard: usize,
    shard_count: usize,
    ctx: ShardCtx,
    cells: &'a mut HashMap<CellId, Cell>,
    queue: &'a mut ShardQueue,
    pool: &'a mut SweepPool,
    stats: ShardWorkerStats,
}

impl MeshWorker for CellMeshWorker<'_> {
    fn on_event(&mut self, event: &Event) {
        let Some(sweep) = event_sweep_rect(&self.ctx, event) else {
            return;
        };
        let grid = self.ctx.grid;
        for id in grid.cells_overlapping_iter(&sweep.rect) {
            if shard_of_cell(id, self.shard_count) == self.shard {
                apply_event_to_cell(
                    self.cells, self.queue, self.pool, &self.ctx, id, event, &sweep,
                );
                self.stats.cell_touches += 1;
            }
        }
    }

    fn flush(&mut self) -> ShardFlush {
        let dirty = sweep_shard_dirty(self.cells, self.queue, &self.ctx);
        self.stats.sweeps += dirty;
        ShardFlush {
            dirty,
            best: shard_best(self.cells, self.queue, &self.ctx),
        }
    }

    fn stats(&self) -> ShardWorkerStats {
        self.stats
    }
}

impl MeshIngest for CellCspot {
    type Worker<'a> = CellMeshWorker<'a>;

    fn ingest_workers(&mut self) -> Vec<CellMeshWorker<'_>> {
        let ctx = self.ctx;
        let shard_count = self.store.shard_count();
        self.store
            .shards_mut()
            .iter_mut()
            .zip(self.queues.iter_mut().zip(self.pools.iter_mut()))
            .enumerate()
            .map(|(shard, (cells, (queue, pool)))| CellMeshWorker {
                shard,
                shard_count,
                ctx,
                cells,
                queue,
                pool,
                stats: ShardWorkerStats::default(),
            })
            .collect()
    }

    fn absorb_shard_run(&mut self, run: ShardRunStats) {
        self.stats.events += run.events;
        self.stats.new_events += run.new_events;
        self.stats.searches += run.searches;
        self.searches_at_last_current = self.stats.searches;
    }

    fn region_size(&self) -> RegionSize {
        self.ctx.query.region
    }

    fn reshard(&mut self, shards: usize) {
        CellCspot::reshard(self, shards);
    }
}

impl BurstDetector for CellCspot {
    fn on_event(&mut self, event: &Event) {
        self.stats.events += 1;
        if event.kind == EventKind::New {
            self.stats.new_events += 1;
        }
        let Some(sweep) = event_sweep_rect(&self.ctx, event) else {
            return;
        };
        // Allocation-free cell enumeration: this runs for every event.
        let ctx = self.ctx;
        for id in ctx.grid.cells_overlapping_iter(&sweep.rect) {
            let s = self.store.shard_of(id);
            apply_event_to_cell(
                self.store.shard_mut(s),
                &mut self.queues[s],
                &mut self.pools[s],
                &ctx,
                id,
                event,
                &sweep,
            );
        }
    }

    fn current(&mut self) -> Option<RegionAnswer> {
        let searches_before = self.stats.searches;
        let mut best: Option<(f64, Candidate)> = None;
        // Descending scan over the merged bound-ordered shard queues.
        // Searching a cell can only *lower* its key, so restarting the
        // cursor after each search terminates; with combined bounds the top
        // valid cell is optimal immediately.
        let mut cursor: Option<(TotalF64, CellId)> = None;
        while let Some((key, id)) = self.next_entry_below(cursor) {
            if let Some((bs, _)) = best {
                if key.get() <= bs {
                    break;
                }
            }
            if key.get() == f64::NEG_INFINITY {
                break;
            }
            let state = self
                .store
                .shard(self.store.shard_of(id))
                .get(&id)
                .map(|c| c.cand);
            match state {
                Some(CandState::Valid(c)) => {
                    let s = self.candidate_score(&c);
                    if best.is_none_or(|(bs, _)| s > bs) {
                        best = Some((s, c));
                    }
                    cursor = Some((key, id));
                }
                Some(CandState::Stale) => {
                    if let Some(s) = self.search_cell(id) {
                        let shard = self.store.shard_of(id);
                        if let Some(CandState::Valid(c)) =
                            self.store.shard(shard).get(&id).map(|c| c.cand)
                        {
                            if best.is_none_or(|(bs, _)| s > bs) {
                                best = Some((s, c));
                            }
                        }
                    }
                    // The cell's key changed; restart from the top.
                    cursor = None;
                }
                Some(CandState::Infeasible) | None => {
                    cursor = Some((key, id));
                }
            }
        }
        if self.stats.searches > searches_before {
            self.stats.events_triggering_search += 1;
        }
        self.searches_at_last_current = self.stats.searches;
        best.map(|(s, c)| RegionAnswer::from_point(c.point, self.ctx.query.region, s))
    }

    fn name(&self) -> &'static str {
        match self.ctx.mode {
            BoundMode::Combined => "CCS",
            BoundMode::StaticOnly => "B-CCS",
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
    fn empty_detector_returns_none() {
        let mut d = CellCspot::new(query(0.5));
        assert!(d.current().is_none());
    }

    #[test]
    fn single_object_detected() {
        let mut d = CellCspot::new(query(0.5));
        d.on_event(&Event::new_arrival(obj(0, 4.0, 2.5, 2.5, 0)));
        let ans = d.current().unwrap();
        // score = 0.5*max(fc,0) + 0.5*fc = fc = 4/1000
        assert!((ans.score - 4.0 / 1_000.0).abs() < 1e-12);
        assert!(ans.region.contains(Point::new(2.5, 2.5)));
    }

    #[test]
    fn two_nearby_objects_share_region() {
        let mut d = CellCspot::new(query(0.0));
        d.on_event(&Event::new_arrival(obj(0, 1.0, 0.0, 0.0, 0)));
        d.on_event(&Event::new_arrival(obj(1, 1.0, 0.5, 0.5, 0)));
        let ans = d.current().unwrap();
        assert!((ans.score - 2.0 / 1_000.0).abs() < 1e-12);
        assert!(ans.region.contains(Point::new(0.0, 0.0)));
        assert!(ans.region.contains(Point::new(0.5, 0.5)));
    }

    #[test]
    fn distant_objects_not_combined() {
        let mut d = CellCspot::new(query(0.0));
        d.on_event(&Event::new_arrival(obj(0, 1.0, 0.0, 0.0, 0)));
        d.on_event(&Event::new_arrival(obj(1, 1.0, 50.0, 50.0, 0)));
        let ans = d.current().unwrap();
        assert!((ans.score - 1.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn grown_object_reduces_score() {
        let mut d = CellCspot::new(query(0.5));
        let o = obj(0, 2.0, 1.0, 1.0, 0);
        d.on_event(&Event::new_arrival(o));
        let s_new = d.current().unwrap().score;
        d.on_event(&Event::grown(o, 1_000));
        // Object now in past window only: every point scores 0.
        let ans = d.current().unwrap();
        assert!(ans.score <= 0.0 + 1e-15);
        assert!(s_new > ans.score);
    }

    #[test]
    fn expired_object_disappears() {
        let mut d = CellCspot::new(query(0.5));
        let o = obj(0, 2.0, 1.0, 1.0, 0);
        d.on_event(&Event::new_arrival(o));
        d.on_event(&Event::grown(o, 1_000));
        d.on_event(&Event::expired(o, 2_000));
        assert!(d.current().is_none());
        assert_eq!(d.cell_count(), 0);
    }

    #[test]
    fn burst_beats_steady_state_with_high_alpha() {
        // Region A: steady (1 current, 1 past). Region B: burst (1 current,
        // 0 past). Same weights: with alpha=0.9 B wins.
        let mut d = CellCspot::new(query(0.9));
        let a_old = obj(0, 5.0, 0.0, 0.0, 0);
        d.on_event(&Event::new_arrival(a_old));
        d.on_event(&Event::grown(a_old, 1_000));
        d.on_event(&Event::new_arrival(obj(1, 5.0, 0.1, 0.1, 1_000)));
        d.on_event(&Event::new_arrival(obj(2, 5.0, 30.0, 30.0, 1_500)));
        let ans = d.current().unwrap();
        assert!(
            ans.region.contains(Point::new(30.0, 30.0)),
            "burst region should win: {:?}",
            ans
        );
    }

    #[test]
    fn area_restriction_excludes_outside_objects() {
        let q = SurgeQuery::new(
            Rect::new(0.0, 0.0, 10.0, 10.0),
            RegionSize::new(1.0, 1.0),
            WindowConfig::equal(1_000),
            0.5,
        );
        let mut d = CellCspot::new(q);
        d.on_event(&Event::new_arrival(obj(0, 100.0, 20.0, 20.0, 0))); // outside A
        d.on_event(&Event::new_arrival(obj(1, 1.0, 5.0, 5.0, 0)));
        let ans = d.current().unwrap();
        assert!((ans.score - 1.0 / 1_000.0).abs() < 1e-12);
        assert!(ans.region.contains(Point::new(5.0, 5.0)));
    }

    #[test]
    fn reported_region_stays_inside_area() {
        let q = SurgeQuery::new(
            Rect::new(0.0, 0.0, 10.0, 10.0),
            RegionSize::new(2.0, 2.0),
            WindowConfig::equal(1_000),
            0.5,
        );
        let mut d = CellCspot::new(q);
        // Object near the bottom-left corner: the region must shift so it
        // still fits in A.
        d.on_event(&Event::new_arrival(obj(0, 1.0, 0.2, 0.2, 0)));
        let ans = d.current().unwrap();
        assert!(q.area.contains_rect(&ans.region), "region {:?}", ans.region);
        // Score proves the object is counted; containment is checked with a
        // tolerance because reconstructing the region from its corner point
        // incurs one rounding step (2.2 - 2.0 != 0.2 in f64).
        assert!((ans.score - 1.0 / 1_000.0).abs() < 1e-12);
        let eps = 1e-9;
        let grown = Rect::new(
            ans.region.x0 - eps,
            ans.region.y0 - eps,
            ans.region.x1 + eps,
            ans.region.y1 + eps,
        );
        assert!(grown.contains(Point::new(0.2, 0.2)));
    }

    #[test]
    fn static_only_mode_matches_combined_answers() {
        let mut a = CellCspot::with_mode(query(0.5), BoundMode::Combined);
        let mut b = CellCspot::with_mode(query(0.5), BoundMode::StaticOnly);
        let objs = [
            obj(0, 3.0, 1.0, 1.0, 0),
            obj(1, 2.0, 1.3, 1.2, 100),
            obj(2, 5.0, 8.0, 8.0, 200),
            obj(3, 1.0, 1.1, 0.9, 300),
        ];
        for (i, o) in objs.iter().enumerate() {
            a.on_event(&Event::new_arrival(*o));
            b.on_event(&Event::new_arrival(*o));
            if i == 2 {
                a.on_event(&Event::grown(objs[0], 1_000));
                b.on_event(&Event::grown(objs[0], 1_000));
            }
            let sa = a.current().map(|r| r.score);
            let sb = b.current().map(|r| r.score);
            match (sa, sb) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-12, "step {i}: {x} vs {y}"),
                (None, None) => {}
                other => panic!("step {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn lazy_update_avoids_searches_for_dominated_cells() {
        let mut d = CellCspot::new(query(0.0));
        // Establish a strong region.
        for i in 0..10 {
            d.on_event(&Event::new_arrival(obj(
                i,
                10.0,
                1.0 + 0.01 * i as f64,
                1.0,
                0,
            )));
        }
        let _ = d.current();
        let searches_after_setup = d.stats().searches;
        // Weak far-away objects: their cells' bounds (1/1000 each) never beat
        // the current best (100/1000), so no search should trigger.
        for i in 10..30 {
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
            searches_after_setup,
            "dominated cells must not be searched"
        );
    }

    #[test]
    fn stats_track_events_and_triggers() {
        let mut d = CellCspot::new(query(0.5));
        d.on_event(&Event::new_arrival(obj(0, 1.0, 0.0, 0.0, 0)));
        let _ = d.current();
        let st = d.stats();
        assert_eq!(st.events, 1);
        assert_eq!(st.new_events, 1);
        assert!(st.searches >= 1);
        assert_eq!(st.events_triggering_search, 1);
    }

    #[test]
    fn shard_count_is_structural_only() {
        // Same stream through 1-, 4- and 64-shard detectors: answers, cell
        // counts and stats must be bit-identical.
        let streams: Vec<SpatialObject> = (0..200)
            .map(|i| {
                obj(
                    i,
                    1.0 + (i % 5) as f64,
                    (i % 13) as f64 * 0.7,
                    (i % 11) as f64 * 0.9,
                    i * 10,
                )
            })
            .collect();
        let mut detectors: Vec<CellCspot> = [1usize, 4, 64]
            .iter()
            .map(|&s| CellCspot::with_shards(query(0.5), BoundMode::Combined, s))
            .collect();
        for (i, o) in streams.iter().enumerate() {
            let mut answers = Vec::new();
            for d in &mut detectors {
                d.on_event(&Event::new_arrival(*o));
                if i % 2 == 0 {
                    d.on_event(&Event::grown(streams[i / 2], (i as u64 + 1) * 10));
                }
                answers.push(d.current());
            }
            for w in answers.windows(2) {
                match (w[0], w[1]) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.score.to_bits(), b.score.to_bits(), "step {i}");
                        assert_eq!(a.point.x.to_bits(), b.point.x.to_bits(), "step {i}");
                        assert_eq!(a.point.y.to_bits(), b.point.y.to_bits(), "step {i}");
                    }
                    (None, None) => {}
                    other => panic!("step {i}: {other:?}"),
                }
            }
        }
        let s0 = detectors[0].stats();
        for d in &detectors[1..] {
            assert_eq!(d.stats(), s0);
            assert_eq!(d.cell_count(), detectors[0].cell_count());
        }
    }

    #[test]
    fn capture_restore_resumes_bit_identically() {
        use surge_core::CheckpointableDetector;
        let events: Vec<Event> = (0..160u64)
            .flat_map(|i| {
                let o = obj(
                    i,
                    1.0 + (i % 4) as f64,
                    (i % 9) as f64,
                    (i % 6) as f64,
                    i * 7,
                );
                let mut evs = vec![Event::new_arrival(o)];
                if i >= 40 && i % 2 == 0 {
                    let p = i - 40;
                    let old = obj(
                        p,
                        1.0 + (p % 4) as f64,
                        (p % 9) as f64,
                        (p % 6) as f64,
                        p * 7,
                    );
                    evs.push(Event::grown(old, i * 7));
                }
                if i >= 80 && i % 4 == 0 {
                    let p = i - 80;
                    let old = obj(
                        p,
                        1.0 + (p % 4) as f64,
                        (p % 9) as f64,
                        (p % 6) as f64,
                        p * 7,
                    );
                    evs.push(Event::expired(old, i * 7));
                }
                evs
            })
            .collect();

        for (mode, sweep_mode) in [
            (BoundMode::Combined, SweepMode::Persistent),
            (BoundMode::Combined, SweepMode::Rebuild),
            (BoundMode::StaticOnly, SweepMode::Persistent),
        ] {
            for cut in [0usize, 1, 57, 120, events.len()] {
                let mut live = CellCspot::with_sweep_mode(query(0.5), mode, sweep_mode, 4);
                for ev in &events[..cut] {
                    live.on_event(ev);
                    let _ = live.current();
                }
                let state = live.capture_state();
                let mut resumed = CellCspot::with_sweep_mode(query(0.5), mode, sweep_mode, 4);
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
                // The restored run continues the uninterrupted counters: the
                // same cells were searched at the same points.
                assert_eq!(resumed.stats(), live.stats(), "cut {cut}");
                assert_eq!(resumed.cell_count(), live.cell_count());
                assert_eq!(resumed.dirty_cell_count(), live.dirty_cell_count());
            }
        }
    }

    #[test]
    fn restore_rejects_mismatched_targets() {
        use surge_core::CheckpointableDetector;
        let mut d = CellCspot::new(query(0.5));
        d.on_event(&Event::new_arrival(obj(0, 1.0, 0.0, 0.0, 0)));
        let state = d.capture_state();

        // Non-empty target.
        assert!(d.restore_state(&state).is_err());
        // Wrong detector name.
        let mut bccs = CellCspot::with_mode(query(0.5), BoundMode::StaticOnly);
        assert!(bccs.restore_state(&state).is_err());
        // Corrupted level count.
        let mut bad = state.clone();
        bad.levels = 2;
        let mut fresh = CellCspot::new(query(0.5));
        assert!(fresh.restore_state(&bad).is_err());
        // Duplicate cell entries.
        let mut bad = state.clone();
        let dup = state.cells.iter().next().expect("one cell");
        bad.cells.push_cell(
            dup.id,
            dup.rects.iter().copied(),
            dup.us.iter().copied(),
            dup.ud.iter().copied(),
            dup.cand.iter().copied(),
        );
        let mut fresh = CellCspot::new(query(0.5));
        assert!(fresh.restore_state(&bad).is_err());
    }

    #[test]
    fn shard_workers_match_sequential_ingest() {
        // Feeding every worker the full event stream must leave the
        // detector in exactly the state sequential on_event produces.
        let events: Vec<Event> = (0..120)
            .flat_map(|i| {
                let o = obj(
                    i,
                    1.0 + (i % 3) as f64,
                    (i % 9) as f64,
                    (i % 7) as f64,
                    i * 5,
                );
                let mut evs = vec![Event::new_arrival(o)];
                if i % 3 == 0 && i >= 30 {
                    evs.push(Event::grown(
                        obj(
                            i - 30,
                            1.0 + ((i - 30) % 3) as f64,
                            ((i - 30) % 9) as f64,
                            ((i - 30) % 7) as f64,
                            (i - 30) * 5,
                        ),
                        i * 5,
                    ));
                }
                evs
            })
            .collect();

        let mut seq =
            CellCspot::with_sweep_mode(query(0.5), BoundMode::Combined, SweepMode::Rebuild, 4);
        for ev in &events {
            seq.on_event(ev);
        }
        // The flush contract compares against the *all-fresh* state of the
        // rebuild-per-search reference (sweep → current), the exact cadence
        // the mesh driver runs at.
        seq.sweep_dirty(1);
        let want = seq.current();

        let mut par = CellCspot::with_shards(query(0.5), BoundMode::Combined, 4);
        let region = par.region_size();
        let (best, sweeps) = {
            let mut workers = par.ingest_workers();
            for ev in &events {
                for w in &mut workers {
                    w.on_event(ev);
                }
            }
            let best = workers
                .iter_mut()
                .filter_map(|w| w.flush().best)
                .max_by_key(|a| a.merge_key());
            let sweeps: u64 = workers.iter().map(|w| w.stats().sweeps).sum();
            (best, sweeps)
        };
        par.absorb_shard_run(ShardRunStats {
            events: events.len() as u64,
            new_events: events.iter().filter(|e| e.kind == EventKind::New).count() as u64,
            searches: sweeps,
        });
        let got = best.map(|b| b.answer(region));

        match (want, got) {
            (Some(a), Some(b)) => {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.point.x.to_bits(), b.point.x.to_bits());
                assert_eq!(a.point.y.to_bits(), b.point.y.to_bits());
            }
            (None, None) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(par.dirty_cell_count(), 0);
        assert_eq!(par.stats().events, seq.stats().events);
        assert_eq!(par.cell_count(), seq.cell_count());
    }
}
