//! kCCS: the exact top-k detector (CCS-KSURGE, Algorithm 4).
//!
//! The top-k bursty regions (Definition 9) are defined greedily: the i-th
//! region maximizes the burst score over the objects not covered by regions
//! 1..i−1. The reduction turns this into k chained cSPOT problems: problem i
//! sees only the rectangles that cover none of the first i−1 bursty points.
//!
//! Following the paper, each rectangle carries a **level** `lvl ∈ [1, k]`:
//! `lvl = i` means the rectangle covers the current i-th bursty point (so it
//! is visible only to problems 1..i); `lvl = k` means it covers none.
//! Problem i operates on `G[i:] = {g | g.lvl ≥ i}`. Every cell maintains k
//! upper bounds and k candidate points — one per cSPOT problem — updated in
//! O(k) per event; cells are searched lazily per level exactly as in CCS.
//!
//! Window events use the same Lemma-4 candidate maintenance as CCS. Level
//! *changes* (a rectangle becoming visible/invisible to a problem when a
//! bursty point moves) are handled as pseudo-events equivalent to window
//! events for the affected problems — visible Current ≙ New, invisible
//! Current ≙ Grown, visible Past ≙ Grown, invisible Past ≙ Expired — so the
//! same Lemma-4 rules keep candidates valid whenever possible.

use std::collections::{BTreeSet, HashMap, HashSet};

use surge_core::{
    object_to_rect, BurstParams, CandidateState, CellId, CellTable, CheckpointableDetector,
    DetectorState, DetectorStats, Event, EventKind, GridSpec, ObjectId, Point, Rect, RectState,
    RegionAnswer, RestoreError, SurgeQuery, TopKDetector, TotalF64, WindowKind,
};
use surge_exact::{sl_cspot, SweepRect};

#[derive(Debug, Clone, Copy)]
struct KCand {
    point: Point,
    wc: f64,
    wp: f64,
}

#[derive(Debug, Clone, Copy)]
enum KState {
    Stale,
    Valid(KCand),
    Infeasible,
}

#[derive(Debug)]
struct KRect {
    sweep: SweepRect,
    /// Visibility level: visible to problems `1..=lvl`.
    lvl: usize,
    cells: Vec<CellId>,
}

#[derive(Debug)]
struct KCell {
    members: HashSet<ObjectId>,
    /// Per level i (index i−1): Σ current-window weights of members with
    /// `lvl ≥ i` (the static bound, Definition 7, per problem).
    us: Vec<f64>,
    /// Per level dynamic bound in score units (∞ until first search).
    ud: Vec<f64>,
    cand: Vec<KState>,
    keys: Vec<TotalF64>,
    domain: Option<Rect>,
}

/// A currently-selected bursty point.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bursty {
    point: Point,
    score: f64,
}

/// The exact continuous top-k detector.
#[derive(Debug)]
pub struct KCellCspot {
    query: SurgeQuery,
    params: BurstParams,
    grid: GridSpec,
    k: usize,
    rects: HashMap<ObjectId, KRect>,
    cells: HashMap<CellId, KCell>,
    /// One bound-ordered queue per cSPOT problem.
    queues: Vec<BTreeSet<(TotalF64, CellId)>>,
    bursty: Vec<Option<Bursty>>,
    stats: DetectorStats,
}

impl KCellCspot {
    /// Creates a top-k detector.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(query: SurgeQuery, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KCellCspot {
            params: query.burst_params(),
            grid: GridSpec::anchored(query.region.width, query.region.height),
            query,
            k,
            rects: HashMap::new(),
            cells: HashMap::new(),
            queues: vec![BTreeSet::new(); k],
            bursty: vec![None; k],
            stats: DetectorStats::default(),
        }
    }

    /// Number of non-empty cells tracked.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn key_for(&self, cell: &KCell, level: usize) -> TotalF64 {
        if matches!(cell.cand[level], KState::Infeasible) {
            return TotalF64(f64::NEG_INFINITY);
        }
        TotalF64((cell.us[level] / self.params.current_norm).min(cell.ud[level]))
    }

    fn refresh_key(&mut self, id: CellId, level: usize) {
        let Some(cell) = self.cells.get(&id) else {
            return;
        };
        let new_key = self.key_for(cell, level);
        let old_key = cell.keys[level];
        if new_key != old_key || !self.queues[level].contains(&(new_key, id)) {
            self.queues[level].remove(&(old_key, id));
            self.queues[level].insert((new_key, id));
            self.cells.get_mut(&id).expect("present").keys[level] = new_key;
        }
    }

    fn remove_cell_if_empty(&mut self, id: CellId) {
        let empty = self.cells.get(&id).is_some_and(|c| c.members.is_empty());
        if empty {
            let cell = self.cells.remove(&id).expect("present");
            for (level, key) in cell.keys.iter().enumerate() {
                self.queues[level].remove(&(*key, id));
            }
        }
    }

    fn ensure_cell(&mut self, id: CellId) {
        if self.cells.contains_key(&id) {
            return;
        }
        let cell_rect = self.grid.cell_rect(id);
        let domain = self
            .query
            .point_domain()
            .and_then(|d| d.intersection(&cell_rect));
        let state = if domain.is_none() {
            KState::Infeasible
        } else {
            KState::Stale
        };
        let cell = KCell {
            members: HashSet::new(),
            us: vec![0.0; self.k],
            ud: vec![f64::INFINITY; self.k],
            cand: vec![state; self.k],
            keys: vec![TotalF64(f64::NEG_INFINITY); self.k],
            domain,
        };
        self.cells.insert(id, cell);
    }

    /// Applies a window event to one cell at every level the rectangle is
    /// visible to (Lemma 4 per level, Eqn. 3 per level).
    fn apply_window_event(&mut self, id: CellId, ev: &Event, g: &SweepRect, lvl: usize) {
        self.ensure_cell(id);
        let params = self.params;
        let k = self.k;
        {
            let cell = self.cells.get_mut(&id).expect("present");
            let w = ev.object.weight;
            let covers = |c: &KCand| g.rect.contains(c.point);
            match ev.kind {
                EventKind::New => {
                    cell.members.insert(ev.object.id);
                    for j in 0..k {
                        cell.us[j] += w;
                        if cell.ud[j].is_finite() {
                            cell.ud[j] += w / params.current_norm;
                        }
                        if let KState::Valid(c) = &mut cell.cand[j] {
                            let increasing =
                                c.wc / params.current_norm - c.wp / params.past_norm > 0.0;
                            if covers(c) && increasing {
                                c.wc += w;
                            } else {
                                cell.cand[j] = KState::Stale;
                            }
                        }
                    }
                }
                EventKind::Grown => {
                    if cell.members.contains(&ev.object.id) {
                        for j in 0..lvl {
                            cell.us[j] -= w;
                            if let KState::Valid(c) = &cell.cand[j] {
                                if covers(c) {
                                    cell.cand[j] = KState::Stale;
                                }
                            }
                        }
                    }
                }
                EventKind::Expired => {
                    if cell.members.remove(&ev.object.id) {
                        for j in 0..lvl {
                            if cell.ud[j].is_finite() {
                                cell.ud[j] += params.alpha * w / params.past_norm;
                            }
                            if let KState::Valid(c) = &mut cell.cand[j] {
                                let increasing =
                                    c.wc / params.current_norm - c.wp / params.past_norm > 0.0;
                                if covers(c) && increasing {
                                    c.wp -= w;
                                } else {
                                    cell.cand[j] = KState::Stale;
                                }
                            }
                        }
                    }
                }
            }
        }
        for level in 0..k {
            self.refresh_key(id, level);
        }
        self.remove_cell_if_empty(id);
    }

    /// Changes a rectangle's level, emitting visibility pseudo-events to its
    /// cells for the affected level range.
    fn set_level(&mut self, rid: ObjectId, new_lvl: usize) {
        let (old_lvl, w, kind, cells) = {
            let Some(r) = self.rects.get_mut(&rid) else {
                return;
            };
            let old = r.lvl;
            if old == new_lvl {
                return;
            }
            r.lvl = new_lvl;
            (old, r.sweep.weight, r.sweep.kind, r.cells.clone())
        };
        let params = self.params;
        let (lo, hi, becoming_visible) = if new_lvl > old_lvl {
            (old_lvl, new_lvl, true) // visible at levels old_lvl+1..=new_lvl
        } else {
            (new_lvl, old_lvl, false) // invisible at levels new_lvl+1..=old_lvl
        };
        let rect = self.rects.get(&rid).expect("rect exists").sweep.rect;
        for id in cells {
            if let Some(cell) = self.cells.get_mut(&id) {
                for j in lo..hi {
                    // A visibility change at level j is equivalent to a
                    // window event for problem j: visible Current ≙ New,
                    // invisible Current ≙ Grown, visible Past ≙ Grown (drops
                    // covered scores), invisible Past ≙ Expired. Candidate
                    // maintenance follows Lemma 4 accordingly.
                    match (becoming_visible, kind) {
                        (true, WindowKind::Current) => {
                            cell.us[j] += w;
                            if cell.ud[j].is_finite() {
                                cell.ud[j] += w / params.current_norm;
                            }
                            if let KState::Valid(c) = &mut cell.cand[j] {
                                let increasing =
                                    c.wc / params.current_norm - c.wp / params.past_norm > 0.0;
                                if rect.contains(c.point) && increasing {
                                    c.wc += w;
                                } else {
                                    cell.cand[j] = KState::Stale;
                                }
                            }
                        }
                        (true, WindowKind::Past) => {
                            // Covered points lose score; uncovered candidates
                            // stay optimal.
                            if let KState::Valid(c) = &cell.cand[j] {
                                if rect.contains(c.point) {
                                    cell.cand[j] = KState::Stale;
                                }
                            }
                        }
                        (false, WindowKind::Current) => {
                            cell.us[j] -= w;
                            if let KState::Valid(c) = &mut cell.cand[j] {
                                if rect.contains(c.point) {
                                    cell.cand[j] = KState::Stale;
                                }
                            }
                        }
                        (false, WindowKind::Past) => {
                            // Removing a past rect can raise covered scores.
                            if cell.ud[j].is_finite() {
                                cell.ud[j] += params.alpha * w / params.past_norm;
                            }
                            if let KState::Valid(c) = &mut cell.cand[j] {
                                let increasing =
                                    c.wc / params.current_norm - c.wp / params.past_norm > 0.0;
                                if rect.contains(c.point) && increasing {
                                    c.wp -= w;
                                } else {
                                    cell.cand[j] = KState::Stale;
                                }
                            }
                        }
                    }
                }
            }
            for j in lo..hi {
                self.refresh_key(id, j);
            }
        }
    }

    /// Searches one cell for one problem level.
    fn search_cell_level(&mut self, id: CellId, level: usize) -> Option<f64> {
        self.stats.searches += 1;
        let params = self.params;
        let result = {
            let cell = self.cells.get(&id)?;
            let domain = cell.domain?;
            // Deterministic sweep input (ties break by order).
            let mut ids: Vec<ObjectId> = cell.members.iter().copied().collect();
            ids.sort_unstable();
            let rects: Vec<SweepRect> = ids
                .iter()
                .filter_map(|rid| {
                    let r = self.rects.get(rid)?;
                    (r.lvl > level).then_some(r.sweep) // lvl >= level+1 (1-indexed ≥ i)
                })
                .collect();
            match sl_cspot(&rects, &domain, &params) {
                Some(res) => (
                    KCand {
                        point: res.point,
                        wc: res.wc,
                        wp: res.wp,
                    },
                    res.score,
                ),
                None => (
                    KCand {
                        point: Point::new(domain.x1, domain.y1),
                        wc: 0.0,
                        wp: 0.0,
                    },
                    0.0,
                ),
            }
        };
        let (cand, score) = result;
        {
            let cell = self.cells.get_mut(&id).expect("present");
            cell.cand[level] = KState::Valid(cand);
            cell.ud[level] = score;
        }
        self.refresh_key(id, level);
        Some(score)
    }

    /// Selects the level-`level` bursty point via the lazy bound-ordered scan
    /// (positive scores only).
    fn select(&mut self, level: usize) -> Option<Bursty> {
        let mut best: Option<Bursty> = None;
        let mut cursor: Option<(TotalF64, CellId)> = None;
        loop {
            let entry = match cursor {
                None => self.queues[level].iter().next_back().copied(),
                Some(c) => self.queues[level].range(..c).next_back().copied(),
            };
            let Some((key, id)) = entry else { break };
            let floor = best.map_or(surge_core::SCORE_EPS, |b| b.score);
            if key.get() <= floor {
                break;
            }
            let state = self.cells.get(&id).map(|c| c.cand[level]);
            match state {
                Some(KState::Valid(c)) => {
                    let s = self.params.score_weights(c.wc, c.wp);
                    if s > floor {
                        best = Some(Bursty {
                            point: c.point,
                            score: s,
                        });
                    }
                    cursor = Some((key, id));
                }
                Some(KState::Stale) => {
                    self.search_cell_level(id, level);
                    cursor = None; // key changed; restart from the top
                }
                Some(KState::Infeasible) | None => {
                    cursor = Some((key, id));
                }
            }
        }
        best
    }

    /// The ids of rectangles covering `p` (all of them are members of the
    /// cell canonically containing `p`), in ascending id order: the caller
    /// applies level changes in this order, and each one adds into the
    /// per-level float accumulators, so hash-set order would make the bound
    /// bits differ from run to run.
    fn covering(&self, p: Point) -> Vec<ObjectId> {
        let cid = self.grid.cell_of(p);
        let Some(cell) = self.cells.get(&cid) else {
            return Vec::new();
        };
        let mut ids: Vec<ObjectId> = cell
            .members
            .iter()
            .filter(|rid| {
                self.rects
                    .get(rid)
                    .is_some_and(|r| r.sweep.rect.contains(p))
            })
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Re-runs the greedy selection for all k levels, updating rectangle
    /// levels as bursty points move (Algorithm 4 lines 2–17).
    fn reselect_all(&mut self) {
        for i in 0..self.k {
            let pold = self.bursty[i];
            // If the previous problem already came up empty, this one must
            // too (its rectangle set is a subset).
            let pnew = if i > 0 && self.bursty[i - 1].is_none() {
                None
            } else {
                self.select(i)
            };

            // Rule 1 (line 15): rectangles pinned at this level by the OLD
            // point that no longer cover the NEW point become fully visible.
            if let Some(old) = pold {
                let moved =
                    pnew.is_none_or(|n| !(n.point.x == old.point.x && n.point.y == old.point.y));
                if moved || pnew.is_none() {
                    for rid in self.covering(old.point) {
                        let Some(r) = self.rects.get(&rid) else {
                            continue;
                        };
                        if r.lvl == i + 1 {
                            let still = pnew.is_some_and(|n| r.sweep.rect.contains(n.point));
                            if !still {
                                self.set_level(rid, self.k);
                            }
                        }
                    }
                }
            }
            // Rule 2 (line 16): rectangles covering the new point that were
            // visible to this problem get pinned here.
            if let Some(new) = pnew {
                for rid in self.covering(new.point) {
                    let Some(r) = self.rects.get(&rid) else {
                        continue;
                    };
                    if r.lvl > i + 1 {
                        self.set_level(rid, i + 1);
                    }
                }
            }
            self.bursty[i] = pnew;
        }
    }
}

/// Checkpoint capture/restore. The top-k logical state is the **global**
/// rectangle set with visibility levels ([`DetectorState::rects`]), the
/// per-cell per-level accumulators and candidates, and the current bursty
/// incumbents. Cell membership and queue keys are derived on restore (the
/// cells a rectangle touches are a pure function of the grid; keys are pure
/// functions of the captured bounds), so a restored detector's greedy
/// re-selection continues the uninterrupted run bit for bit.
impl CheckpointableDetector for KCellCspot {
    fn capture_state(&self) -> DetectorState {
        let mut rects: Vec<RectState> = self
            .rects
            .iter()
            .map(|(&id, r)| RectState {
                id,
                rect: r.sweep.rect,
                weight: r.sweep.weight,
                kind: r.sweep.kind,
                level: r.lvl as u32,
            })
            .collect();
        rects.sort_unstable_by_key(|r| r.id);
        let mut refs: Vec<(CellId, &KCell)> = self.cells.iter().map(|(&id, c)| (id, c)).collect();
        refs.sort_unstable_by_key(|&(id, _)| id);
        let mut cells = CellTable::with_capacity(refs.len(), 0, self.k);
        for (id, cell) in refs {
            cells.push_cell(
                id,
                [],
                cell.us.iter().copied(),
                cell.ud.iter().copied(),
                cell.cand.iter().map(|c| match c {
                    KState::Stale => CandidateState::Stale,
                    KState::Infeasible => CandidateState::Infeasible,
                    KState::Valid(c) => CandidateState::Valid {
                        point: c.point,
                        wc: c.wc,
                        wp: c.wp,
                    },
                }),
            );
        }
        DetectorState {
            name: self.name().to_string(),
            levels: self.k as u32,
            cells,
            rects,
            incumbents: self
                .bursty
                .iter()
                .map(|b| b.map(|b| (b.point, b.score)))
                .collect(),
            grid_cells: Vec::new(),
            controller: None,
            stats: self.stats,
        }
    }

    fn restore_state(&mut self, state: &DetectorState) -> Result<(), RestoreError> {
        if !self.cells.is_empty() || !self.rects.is_empty() {
            return Err(RestoreError::new(
                "restore target must be a freshly constructed detector",
            ));
        }
        if state.levels as usize != self.k {
            return Err(RestoreError::new(format!(
                "snapshot has k={}, detector has k={}",
                state.levels, self.k
            )));
        }
        if state.name != self.name() {
            return Err(RestoreError::new(format!(
                "snapshot captured a {:?} detector, restoring into {:?}",
                state.name,
                self.name()
            )));
        }
        if state.incumbents.len() != self.k {
            return Err(RestoreError::new(format!(
                "snapshot has {} incumbents, expected {}",
                state.incumbents.len(),
                self.k
            )));
        }
        let k = self.k;
        for cp in state.cells.iter() {
            if cp.us.len() != k || cp.ud.len() != k || cp.cand.len() != k {
                return Err(RestoreError::new(format!(
                    "cell {:?}: per-level vectors must have length k={k}",
                    cp.id
                )));
            }
            let cell_rect = self.grid.cell_rect(cp.id);
            let domain = self
                .query
                .point_domain()
                .and_then(|d| d.intersection(&cell_rect));
            let cand = cp
                .cand
                .iter()
                .map(|c| match *c {
                    CandidateState::Stale => Ok(KState::Stale),
                    CandidateState::Infeasible => Ok(KState::Infeasible),
                    CandidateState::Valid { point, wc, wp } => {
                        Ok(KState::Valid(KCand { point, wc, wp }))
                    }
                    CandidateState::Absent => {
                        Err(RestoreError::new("kCCS never records Absent candidates"))
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            let inserted = self.cells.insert(
                cp.id,
                KCell {
                    members: HashSet::new(),
                    us: cp.us.to_vec(),
                    ud: cp.ud.to_vec(),
                    cand,
                    keys: vec![TotalF64(f64::NEG_INFINITY); k],
                    domain,
                },
            );
            if inserted.is_some() {
                return Err(RestoreError::new(format!("duplicate cell {:?}", cp.id)));
            }
        }
        // Rebuild the global rectangle set and derive cell membership from
        // the grid — every cell a live rectangle touches must exist in the
        // snapshot (a memberless cell would have been dropped).
        for r in &state.rects {
            let lvl = r.level as usize;
            if lvl == 0 || lvl > k {
                return Err(RestoreError::new(format!(
                    "rect {}: level {lvl} outside 1..={k}",
                    r.id
                )));
            }
            let cells: Vec<CellId> = self.grid.cells_overlapping_iter(&r.rect).collect();
            for cid in &cells {
                let cell = self.cells.get_mut(cid).ok_or_else(|| {
                    RestoreError::new(format!(
                        "rect {} touches cell {cid:?} missing from the snapshot",
                        r.id
                    ))
                })?;
                cell.members.insert(r.id);
            }
            let dup = self.rects.insert(
                r.id,
                KRect {
                    sweep: SweepRect {
                        rect: r.rect,
                        weight: r.weight,
                        kind: r.kind,
                    },
                    lvl,
                    cells,
                },
            );
            if dup.is_some() {
                return Err(RestoreError::new(format!("duplicate rect {}", r.id)));
            }
        }
        for cell in self.cells.values() {
            if cell.members.is_empty() {
                return Err(RestoreError::new(
                    "snapshot contains a cell no rectangle touches",
                ));
            }
        }
        // Derive the queue keys — pure functions of the restored bounds.
        let ids: Vec<CellId> = self.cells.keys().copied().collect();
        for id in ids {
            for level in 0..k {
                self.refresh_key(id, level);
            }
        }
        self.bursty = state
            .incumbents
            .iter()
            .map(|b| b.map(|(point, score)| Bursty { point, score }))
            .collect();
        self.stats = state.stats;
        Ok(())
    }
}

impl TopKDetector for KCellCspot {
    fn on_event(&mut self, event: &Event) {
        self.stats.events += 1;
        if event.kind == EventKind::New {
            self.stats.new_events += 1;
        }
        if !self.query.accepts(event.object.pos) {
            return;
        }
        let searches_before = self.stats.searches;
        match event.kind {
            EventKind::New => {
                let g = object_to_rect(&event.object, self.query.region);
                let sweep = SweepRect {
                    rect: g.rect,
                    weight: g.weight,
                    kind: WindowKind::Current,
                };
                let cells: Vec<CellId> = self.grid.cells_overlapping_iter(&g.rect).collect();
                self.rects.insert(
                    event.object.id,
                    KRect {
                        sweep,
                        lvl: self.k,
                        cells: cells.clone(),
                    },
                );
                for id in cells {
                    self.apply_window_event(id, event, &sweep, self.k);
                }
            }
            EventKind::Grown => {
                let Some((sweep, lvl, cells)) = self.rects.get_mut(&event.object.id).map(|r| {
                    r.sweep.kind = WindowKind::Past;
                    (r.sweep, r.lvl, r.cells.clone())
                }) else {
                    return;
                };
                for id in cells {
                    self.apply_window_event(id, event, &sweep, lvl);
                }
            }
            EventKind::Expired => {
                let Some(r) = self.rects.remove(&event.object.id) else {
                    return;
                };
                for id in r.cells {
                    self.apply_window_event(id, event, &r.sweep, r.lvl);
                }
            }
        }
        self.reselect_all();
        if self.stats.searches > searches_before {
            self.stats.events_triggering_search += 1;
        }
    }

    fn current_topk(&mut self) -> Vec<RegionAnswer> {
        self.bursty
            .iter()
            .take_while(|b| b.is_some())
            .map(|b| {
                let b = b.expect("take_while guards");
                RegionAnswer::from_point(b.point, self.query.region, b.score)
            })
            .collect()
    }

    fn k(&self) -> usize {
        self.k
    }

    fn name(&self) -> &'static str {
        "kCCS"
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
        let events: Vec<Event> = (0..70u64)
            .flat_map(|i| {
                let o = obj(
                    i,
                    1.0 + (i % 5) as f64,
                    (i as f64 * 3.7) % 20.0,
                    (i as f64 * 5.3) % 20.0,
                    i * 11,
                );
                let mut evs = vec![Event::new_arrival(o)];
                if i >= 25 && i % 2 == 0 {
                    let p = i - 25;
                    let old = obj(
                        p,
                        1.0 + (p % 5) as f64,
                        (p as f64 * 3.7) % 20.0,
                        (p as f64 * 5.3) % 20.0,
                        p * 11,
                    );
                    evs.push(Event::grown(old, i * 11));
                }
                if i >= 50 && i % 2 == 0 {
                    let p = i - 50;
                    let old = obj(
                        p,
                        1.0 + (p % 5) as f64,
                        (p as f64 * 3.7) % 20.0,
                        (p as f64 * 5.3) % 20.0,
                        p * 11,
                    );
                    evs.push(Event::expired(old, i * 11));
                }
                evs
            })
            .collect();
        for k in [1usize, 3] {
            for cut in [0usize, 31, events.len()] {
                let mut live = KCellCspot::new(query(0.4), k);
                for ev in &events[..cut] {
                    live.on_event(ev);
                }
                let state = live.capture_state();
                let mut resumed = KCellCspot::new(query(0.4), k);
                resumed.restore_state(&state).unwrap();
                assert_eq!(resumed.capture_state(), state, "capture is stable");
                for (i, ev) in events[cut..].iter().enumerate() {
                    live.on_event(ev);
                    resumed.on_event(ev);
                    let (a, b) = (live.current_topk(), resumed.current_topk());
                    assert_eq!(a.len(), b.len(), "k {k} cut {cut} ev {i}");
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(
                            x.score.to_bits(),
                            y.score.to_bits(),
                            "k {k} cut {cut} ev {i}"
                        );
                        assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                        assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                    }
                }
                assert_eq!(resumed.stats(), live.stats());
                assert_eq!(resumed.cell_count(), live.cell_count());
            }
        }
    }

    #[test]
    fn restore_rejects_k_mismatch() {
        let mut d = KCellCspot::new(query(0.5), 2);
        d.on_event(&Event::new_arrival(obj(0, 1.0, 0.0, 0.0, 0)));
        let state = d.capture_state();
        let mut wrong = KCellCspot::new(query(0.5), 3);
        assert!(wrong.restore_state(&state).is_err());
    }

    #[test]
    fn empty_detector_reports_nothing() {
        let mut d = KCellCspot::new(query(0.5), 3);
        assert!(d.current_topk().is_empty());
    }

    #[test]
    fn two_clusters_two_answers() {
        let mut d = KCellCspot::new(query(0.0), 2);
        d.on_event(&Event::new_arrival(obj(0, 3.0, 0.0, 0.0, 0)));
        d.on_event(&Event::new_arrival(obj(1, 2.0, 0.3, 0.3, 0)));
        d.on_event(&Event::new_arrival(obj(2, 4.0, 20.0, 20.0, 0)));
        let top = d.current_topk();
        assert_eq!(top.len(), 2);
        assert!((top[0].score - 5.0 / 1_000.0).abs() < 1e-12);
        assert!((top[1].score - 4.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_clusters_truncates() {
        let mut d = KCellCspot::new(query(0.0), 5);
        d.on_event(&Event::new_arrival(obj(0, 1.0, 0.0, 0.0, 0)));
        let top = d.current_topk();
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn second_region_excludes_first_regions_objects() {
        // One heavy cluster; k=2. The second answer must NOT re-report the
        // same objects.
        let mut d = KCellCspot::new(query(0.0), 2);
        d.on_event(&Event::new_arrival(obj(0, 5.0, 0.0, 0.0, 0)));
        d.on_event(&Event::new_arrival(obj(1, 5.0, 0.1, 0.1, 0)));
        let top = d.current_topk();
        assert_eq!(top.len(), 1, "no disjoint second region exists: {top:?}");
    }

    #[test]
    fn levels_release_objects_when_point_moves() {
        let mut d = KCellCspot::new(query(0.0), 2);
        let a = obj(0, 3.0, 0.0, 0.0, 0);
        let b = obj(1, 2.0, 20.0, 20.0, 0);
        d.on_event(&Event::new_arrival(a));
        d.on_event(&Event::new_arrival(b));
        let top = d.current_topk();
        assert_eq!(top.len(), 2);
        // Now a heavier cluster appears; the old #1 becomes #2 and the old
        // #2 drops out.
        d.on_event(&Event::new_arrival(obj(2, 10.0, 40.0, 40.0, 10)));
        let top = d.current_topk();
        assert_eq!(top.len(), 2);
        assert!((top[0].score - 10.0 / 1_000.0).abs() < 1e-12);
        assert!((top[1].score - 3.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn expiry_clears_answers() {
        let mut d = KCellCspot::new(query(0.5), 2);
        let a = obj(0, 3.0, 0.0, 0.0, 0);
        d.on_event(&Event::new_arrival(a));
        assert_eq!(d.current_topk().len(), 1);
        d.on_event(&Event::grown(a, 1_000));
        // past-only: no positive score remains
        assert!(d.current_topk().is_empty());
        d.on_event(&Event::expired(a, 2_000));
        assert!(d.current_topk().is_empty());
        assert_eq!(d.cell_count(), 0);
    }

    #[test]
    fn scores_non_increasing() {
        let mut d = KCellCspot::new(query(0.3), 4);
        for i in 0..12 {
            d.on_event(&Event::new_arrival(obj(
                i,
                1.0 + (i % 5) as f64,
                (i as f64 * 3.7) % 25.0,
                (i as f64 * 5.3) % 25.0,
                i * 10,
            )));
            let top = d.current_topk();
            for w in top.windows(2) {
                assert!(w[0].score >= w[1].score - 1e-12);
            }
        }
    }
}
