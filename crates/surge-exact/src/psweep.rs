//! Persistent cross-sweep cell state: SL-CSPOT inputs that survive events.
//!
//! A from-scratch search rebuilds a cell's sweep from its full rectangle
//! set: re-clip, re-sort the edge coordinates, re-derive the evaluation
//! positions and leaf ranges, re-sort the enter/exit orders — `O(n log n)`
//! comparison work per search even when only one rectangle changed since the
//! previous one. [`PersistentCellSweep`] keeps the sorted part of that state
//! **across events**: the `New`/`Grown`/`Expired` transitions the window
//! engines emit are applied to the persistent structures directly
//! ([`insert`](PersistentCellSweep::insert) /
//! [`grow`](PersistentCellSweep::grow) /
//! [`remove`](PersistentCellSweep::remove)), so the sorting cost of a search
//! becomes proportional to the *churn* since the last search, not the cell
//! population.
//!
//! # What persists
//!
//! * the cell's rectangles, id-ordered (a sorted `Vec`, not a hash map — the
//!   deterministic order every sweep needs is free);
//! * the **event-coordinate map**: refcounted, totally-ordered x/y edge
//!   multisets of the domain-clipped rectangles, plus the derived evaluation
//!   positions (edges + open-interval midpoints);
//! * the **enter/exit orders** (top edge descending / bottom edge
//!   descending, ties by object id) as incrementally maintained sorted
//!   lists;
//! * the two-form [`BurstSegTree`], re-zeroed in place after each sweep and
//!   size-synced with incremental end-of-layout leaf edits
//!   ([`BurstSegTree::sync_len`](crate::segtree::BurstSegTree::sync_len);
//!   full reset only when the power-of-two layout changes).
//!
//! Every search then takes one path: derive the per-search scratch (clipped
//! rectangles, leaf ranges, order indices) from those structures in linear
//! time, re-zero and size-sync the tree, and run one
//! [`sweep_core`](crate::sweep) descent.
//!
//! # The rebuild threshold
//!
//! Incremental maintenance of a sorted list is an `O(n)` splice per edit;
//! under heavy churn (a mass expiry draining half the cell) doing many of
//! those loses to one `O(n log n)` re-sort. When the churn accumulated since
//! the structures were last valid exceeds a budget — half the current leaf
//! count, capped at [`CHURN_OPS_PER_LOG2`] × `log₂ leaves` and floored at
//! [`MIN_CHURN_BUDGET`] — the sweep stops patching, marks the derived state
//! stale, applies subsequent transitions to the rectangle list only (O(log n)
//! membership ops), and re-sorts everything once at the next search — a
//! counted *full rebuild*.
//!
//! # Bit-identity
//!
//! Persistent searches and from-scratch sweeps
//! ([`sl_cspot_with`](crate::sweep::sl_cspot_with)) route through the same
//! [`sweep_core`](crate::sweep) loop, and every maintained structure is
//! defined by a *total order* (coordinates under `f64::total_cmp`, orders
//! under `(edge, object id)`), so the incremental state equals the from-
//! scratch state exactly — results are bitwise identical, argmax and window
//! sums included. `surge-exact/tests/persistent_sweep.rs` proptests that
//! contract against a fresh sweep of [`PersistentCellSweep::full_rects`],
//! including forced threshold crossings and pool reuse.

use std::cmp::Ordering;

use surge_core::{BurstParams, ObjectId, Rect, RectState, TotalF64, WindowKind};

use crate::segtree::BurstSegTree;
use crate::sweep::{sweep_core, SweepRect, SweepResult};

/// How a detector runs its per-cell searches. One value: every search runs
/// on the cell's persistent cross-sweep state. The type stays because
/// checkpoint specs (`surge_checkpoint::DetectorSpec::Cell`) carry it and
/// the snapshot format keeps its byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepMode {
    /// Persistent cross-sweep state: searches reuse incrementally maintained
    /// coordinate maps and orders.
    #[default]
    Persistent,
}

/// Lifetime counters of one [`PersistentCellSweep`] (or an aggregate over
/// many — see [`SweepPool::retired_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Searches answered; each one runs exactly one sweep.
    pub searches: u64,
    /// Incremental edits applied to the persistent structures (edge
    /// refcount changes, order splices, tree leaf edits).
    pub churn_ops: u64,
    /// Evaluation positions written by full rebuilds (threshold crossings
    /// and first builds).
    pub rebuilt_leaves: u64,
    /// Full rebuilds executed.
    pub full_rebuilds: u64,
}

impl SweepStats {
    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &SweepStats) {
        self.searches += other.searches;
        self.churn_ops += other.churn_ops;
        self.rebuilt_leaves += other.rebuilt_leaves;
        self.full_rebuilds += other.full_rebuilds;
    }
}

/// One rectangle resident in a cell: the full reduced rectangle plus its
/// pre-computed clip against the cell's point domain (`None` when it misses
/// the domain — such rectangles count for bounds but never sweep).
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: ObjectId,
    rect: SweepRect,
    clip: Option<Rect>,
}

/// Descending-edge, ascending-id total order for the enter/exit lists —
/// the order a stable descending sort over id-ordered input produces.
#[inline]
fn order_cmp(a: &(TotalF64, ObjectId), b: &(TotalF64, ObjectId)) -> Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Pending churn, as a fraction of the leaf count, above which incremental
/// maintenance gives way to a full re-sort at the next search.
const REBUILD_FRACTION: f64 = 0.5;

/// Minimum pending-churn budget before the rebuild threshold can trip, so
/// tiny cells don't rebuild on every other event. Public so tests forcing
/// threshold crossings can compute how much churn guarantees one: before a
/// sweep's first search its leaf count is 0, so its budget is exactly this.
pub const MIN_CHURN_BUDGET: usize = 32;

/// Cost-model cap on the churn budget: each incremental edit splices an
/// `O(leaves)` sorted list, while the rebuild fallback re-sorts once at
/// `O(leaves · log leaves)` — so past roughly this many pending edits *per
/// `log₂(leaves)`* the splices cost more than the one re-sort they avoid.
/// The budget is the minimum of the linear term (half the leaf count) and
/// this crossover cap. Thresholds only move cost, never results: the
/// incremental and rebuilt structures are bitwise identical by construction.
pub const CHURN_OPS_PER_LOG2: usize = 24;

/// Per-cell sweep state that persists across window-transition events.
///
/// Owned by one cell of an exact detector; created from (and retired to) a
/// per-shard [`SweepPool`] so allocations outlive individual cells.
#[derive(Debug)]
pub struct PersistentCellSweep {
    domain: Option<Rect>,
    params: BurstParams,

    /// Resident rectangles, sorted by object id.
    entries: Vec<Entry>,
    /// Refcounted x edge coordinates of the clipped rectangles, sorted by
    /// `total_cmp`, unique.
    x_edges: Vec<(f64, u32)>,
    /// Same for y.
    y_edges: Vec<(f64, u32)>,
    /// `(clip.y1, id)` sorted by [`order_cmp`] — the enter order.
    enter: Vec<(TotalF64, ObjectId)>,
    /// `(clip.y0, id)` sorted by [`order_cmp`] — the exit order.
    exit: Vec<(TotalF64, ObjectId)>,
    /// Derived x evaluation positions (edges + midpoints, ascending).
    xs: Vec<f64>,
    /// Derived y evaluation positions (ascending).
    ys: Vec<f64>,
    /// Whether `xs`/`ys` match `x_edges`/`y_edges`.
    coords_valid: bool,
    /// Set when the threshold tripped: the edge and order lists are stale
    /// and the next search re-sorts them from `entries`.
    needs_rebuild: bool,
    /// Incremental edits since the structures were last known-valid.
    churn_pending: usize,

    // Per-search scratch, re-derived by every search; kept only so its
    // allocations are reused.
    clipped: Vec<SweepRect>,
    clip_ids: Vec<ObjectId>,
    ranges: Vec<(usize, usize)>,
    enter_idx: Vec<usize>,
    exit_idx: Vec<usize>,
    tree: BurstSegTree,

    stats: SweepStats,
}

impl PersistentCellSweep {
    /// A fresh, empty sweep for a cell with the given point `domain`
    /// (`None` = infeasible: rectangles are tracked, searches return
    /// `None`).
    pub fn new(domain: Option<Rect>, params: BurstParams) -> Self {
        PersistentCellSweep {
            domain,
            params,
            entries: Vec::new(),
            x_edges: Vec::new(),
            y_edges: Vec::new(),
            enter: Vec::new(),
            exit: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            coords_valid: true,
            needs_rebuild: false,
            churn_pending: 0,
            clipped: Vec::new(),
            clip_ids: Vec::new(),
            ranges: Vec::new(),
            enter_idx: Vec::new(),
            exit_idx: Vec::new(),
            tree: BurstSegTree::new(0, &params),
            stats: SweepStats::default(),
        }
    }

    /// Re-initializes for a new cell, keeping every allocation (the pool
    /// path). Counters are **not** cleared — [`SweepPool::retire`] folds
    /// them into the pool aggregate first via [`take_stats`](Self::take_stats).
    pub fn reset(&mut self, domain: Option<Rect>, params: BurstParams) {
        self.domain = domain;
        self.params = params;
        self.entries.clear();
        self.x_edges.clear();
        self.y_edges.clear();
        self.enter.clear();
        self.exit.clear();
        self.xs.clear();
        self.ys.clear();
        self.coords_valid = true;
        self.needs_rebuild = false;
        self.churn_pending = 0;
    }

    /// This sweep's lifetime counters.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// Returns and clears the counters (pool retirement).
    pub fn take_stats(&mut self) -> SweepStats {
        std::mem::take(&mut self.stats)
    }

    /// Number of resident rectangles (including ones outside the domain).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no rectangles are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether object `id` is resident.
    #[inline]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.entries.binary_search_by_key(&id, |e| e.id).is_ok()
    }

    /// The resident rectangles in id order — the input differential tests
    /// hand to a from-scratch sweep
    /// ([`sl_cspot_with`](crate::sweep::sl_cspot_with)).
    pub fn full_rects(&self) -> Vec<SweepRect> {
        self.entries.iter().map(|e| e.rect).collect()
    }

    /// The resident rectangles with their object ids, in ascending id order
    /// — the logical state a checkpoint captures (at level 0: single-region
    /// detectors have no levels). Re-inserting these into a fresh sweep
    /// (via [`insert`](Self::insert) then [`grow`](Self::grow) for
    /// past-window entries) reproduces a state whose searches are
    /// bit-identical to this one's: every derived structure is defined by a
    /// total order over exactly this set.
    pub fn rect_states(&self) -> impl Iterator<Item = RectState> + '_ {
        self.entries.iter().map(|e| RectState {
            id: e.id,
            rect: e.rect.rect,
            weight: e.rect.weight,
            kind: e.rect.kind,
            level: 0,
        })
    }

    /// Whether the incrementally maintained structures are live (false once
    /// the threshold tripped).
    #[inline]
    fn live(&self) -> bool {
        !self.needs_rebuild
    }

    fn note_churn(&mut self, ops: usize) {
        self.churn_pending += ops;
        self.stats.churn_ops += ops as u64;
        let leaves = self.xs.len() + self.ys.len();
        // Churn-adaptive budget: the linear `REBUILD_FRACTION × leaves` term
        // capped at the splice-vs-rebuild cost crossover (each pending edit
        // splices an O(leaves) list; one rebuild re-sorts at
        // O(leaves·log leaves)), floored at MIN_CHURN_BUDGET so tiny cells
        // never thrash.
        let linear = (REBUILD_FRACTION * leaves as f64) as usize;
        let log2 = usize::BITS - leaves.max(1).leading_zeros();
        let crossover = CHURN_OPS_PER_LOG2 * log2 as usize;
        let budget = MIN_CHURN_BUDGET.max(linear.min(crossover));
        if self.churn_pending > budget {
            // Threshold tripped: stop patching; the next search re-sorts.
            self.needs_rebuild = true;
        }
    }

    /// Applies a `New` transition: object `id` enters with `rect` (current
    /// window). An existing entry with the same id is replaced — ids recur
    /// on duplicate delivery (at-least-once streams re-send `New`), and the
    /// edge refcounts and orders must not corrupt.
    pub fn insert(&mut self, id: ObjectId, rect: Rect, weight: f64) {
        let entry = Entry {
            id,
            rect: SweepRect {
                rect,
                weight,
                kind: WindowKind::Current,
            },
            clip: self.domain.and_then(|d| rect.intersection(&d)),
        };
        match self.entries.binary_search_by_key(&id, |e| e.id) {
            Ok(i) => {
                self.detach_entry(i);
                self.entries[i] = entry;
            }
            Err(i) => self.entries.insert(i, entry),
        }
        self.attach_clip(id, entry.clip);
    }

    /// Applies a `Grown` transition: the object's rectangle moves to the
    /// past window. Returns whether the object was resident. No structural
    /// churn — the coordinate map and orders are kind-agnostic.
    pub fn grow(&mut self, id: ObjectId) -> bool {
        match self.entries.binary_search_by_key(&id, |e| e.id) {
            Ok(i) => {
                self.entries[i].rect.kind = WindowKind::Past;
                true
            }
            Err(_) => false,
        }
    }

    /// Applies an `Expired` transition: removes the object's rectangle and
    /// returns it (`None` when the object was not resident).
    pub fn remove(&mut self, id: ObjectId) -> Option<SweepRect> {
        let i = self.entries.binary_search_by_key(&id, |e| e.id).ok()?;
        self.detach_entry(i);
        let e = self.entries.remove(i);
        Some(e.rect)
    }

    /// Removes entry `i`'s contributions from the maintained structures
    /// (the entry itself stays for the caller to overwrite or remove).
    fn detach_entry(&mut self, i: usize) {
        let Entry { id, clip, .. } = self.entries[i];
        let Some(c) = clip else { return };
        if !self.live() {
            return;
        }
        let mut ops = 0usize;
        ops += Self::edge_remove(&mut self.x_edges, c.x0, &mut self.coords_valid);
        ops += Self::edge_remove(&mut self.x_edges, c.x1, &mut self.coords_valid);
        ops += Self::edge_remove(&mut self.y_edges, c.y0, &mut self.coords_valid);
        ops += Self::edge_remove(&mut self.y_edges, c.y1, &mut self.coords_valid);
        ops += Self::order_remove(&mut self.enter, (TotalF64(c.y1), id));
        ops += Self::order_remove(&mut self.exit, (TotalF64(c.y0), id));
        self.note_churn(ops);
    }

    /// Adds a clipped rectangle's contributions to the maintained
    /// structures.
    fn attach_clip(&mut self, id: ObjectId, clip: Option<Rect>) {
        let Some(c) = clip else { return };
        if !self.live() {
            return;
        }
        let mut ops = 0usize;
        ops += Self::edge_insert(&mut self.x_edges, c.x0, &mut self.coords_valid);
        ops += Self::edge_insert(&mut self.x_edges, c.x1, &mut self.coords_valid);
        ops += Self::edge_insert(&mut self.y_edges, c.y0, &mut self.coords_valid);
        ops += Self::edge_insert(&mut self.y_edges, c.y1, &mut self.coords_valid);
        ops += Self::order_insert(&mut self.enter, (TotalF64(c.y1), id));
        ops += Self::order_insert(&mut self.exit, (TotalF64(c.y0), id));
        self.note_churn(ops);
    }

    fn edge_insert(edges: &mut Vec<(f64, u32)>, v: f64, coords_valid: &mut bool) -> usize {
        match edges.binary_search_by(|p| p.0.total_cmp(&v)) {
            Ok(i) => edges[i].1 += 1,
            Err(i) => {
                edges.insert(i, (v, 1));
                *coords_valid = false;
            }
        }
        1
    }

    fn edge_remove(edges: &mut Vec<(f64, u32)>, v: f64, coords_valid: &mut bool) -> usize {
        match edges.binary_search_by(|p| p.0.total_cmp(&v)) {
            Ok(i) => {
                edges[i].1 -= 1;
                if edges[i].1 == 0 {
                    edges.remove(i);
                    *coords_valid = false;
                }
            }
            Err(_) => debug_assert!(false, "removing untracked edge {v}"),
        }
        1
    }

    fn order_insert(order: &mut Vec<(TotalF64, ObjectId)>, key: (TotalF64, ObjectId)) -> usize {
        match order.binary_search_by(|p| order_cmp(p, &key)) {
            Ok(_) => debug_assert!(false, "duplicate order key {key:?}"),
            Err(i) => order.insert(i, key),
        }
        1
    }

    fn order_remove(order: &mut Vec<(TotalF64, ObjectId)>, key: (TotalF64, ObjectId)) -> usize {
        match order.binary_search_by(|p| order_cmp(p, &key)) {
            Ok(i) => {
                order.remove(i);
            }
            Err(_) => debug_assert!(false, "removing untracked order key {key:?}"),
        }
        1
    }

    /// Re-sorts every maintained structure from the rectangle list — the
    /// threshold fallback.
    fn rebuild_all(&mut self) {
        self.x_edges.clear();
        self.y_edges.clear();
        self.enter.clear();
        self.exit.clear();
        for e in &self.entries {
            let Some(c) = e.clip else { continue };
            self.x_edges.push((c.x0, 1));
            self.x_edges.push((c.x1, 1));
            self.y_edges.push((c.y0, 1));
            self.y_edges.push((c.y1, 1));
            self.enter.push((TotalF64(c.y1), e.id));
            self.exit.push((TotalF64(c.y0), e.id));
        }
        for edges in [&mut self.x_edges, &mut self.y_edges] {
            edges.sort_by(|a, b| a.0.total_cmp(&b.0));
            edges.dedup_by(|a, b| {
                if a.0.total_cmp(&b.0) == Ordering::Equal {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
        }
        self.enter.sort_by(order_cmp);
        self.exit.sort_by(order_cmp);
        self.coords_valid = false;
        self.churn_pending = 0;
        self.needs_rebuild = false;
        self.stats.full_rebuilds += 1;
    }

    /// Regenerates the evaluation positions from the sorted edge multisets:
    /// every edge plus the midpoint of every open interval between
    /// neighbours — linear, no comparison sorting, and bitwise what
    /// `eval_positions_into` builds from the same edges.
    fn regen_coords(&mut self) {
        for (edges, out) in [(&self.x_edges, &mut self.xs), (&self.y_edges, &mut self.ys)] {
            out.clear();
            out.reserve(edges.len().saturating_mul(2));
            for (i, &(e, _)) in edges.iter().enumerate() {
                if i > 0 {
                    let prev = edges[i - 1].0;
                    let mid = prev + (e - prev) / 2.0;
                    if mid > prev && mid < e {
                        out.push(mid);
                    }
                }
                out.push(e);
            }
        }
        self.coords_valid = true;
    }

    /// Derives the per-search scratch (clipped rects, leaf ranges,
    /// enter/exit index orders) from the maintained structures: linear
    /// passes plus binary-search lookups, no comparison sorting.
    fn rebuild_scratch(&mut self) {
        self.clipped.clear();
        self.clip_ids.clear();
        for e in &self.entries {
            if let Some(c) = e.clip {
                self.clipped.push(SweepRect {
                    rect: c,
                    weight: e.rect.weight,
                    kind: e.rect.kind,
                });
                self.clip_ids.push(e.id);
            }
        }
        let xs = &self.xs;
        let x_index = |v: f64| -> usize {
            xs.binary_search_by(|p| p.total_cmp(&v))
                .expect("rect edge must be an evaluation position")
        };
        self.ranges.clear();
        self.ranges.extend(
            self.clipped
                .iter()
                .map(|r| (x_index(r.rect.x0), x_index(r.rect.x1))),
        );
        let clip_ids = &self.clip_ids;
        let idx_of = |id: ObjectId| -> usize {
            clip_ids
                .binary_search(&id)
                .expect("ordered entry must be clipped")
        };
        self.enter_idx.clear();
        self.enter_idx
            .extend(self.enter.iter().map(|&(_, id)| idx_of(id)));
        self.exit_idx.clear();
        self.exit_idx
            .extend(self.exit.iter().map(|&(_, id)| idx_of(id)));
    }

    /// Runs SL-CSPOT over the resident rectangles, restricted to the cell
    /// domain. Returns `None` when the domain is infeasible or no rectangle
    /// intersects it — exactly the [`crate::sweep::sl_cspot`] contract, and
    /// bitwise its result (see the module docs).
    pub fn search(&mut self) -> Option<SweepResult> {
        self.stats.searches += 1;
        self.domain?;
        if self.needs_rebuild {
            self.rebuild_all();
            self.regen_coords();
            self.stats.rebuilt_leaves += (self.xs.len() + self.ys.len()) as u64;
        } else if !self.coords_valid {
            self.regen_coords();
        }
        self.rebuild_scratch();
        if self.clipped.is_empty() {
            return None;
        }
        // Re-zero in place, then repair size drift with incremental leaf
        // edits (a full reset only when the power-of-two layout changed).
        // Bitwise identical to `reset` — proptested in
        // `segtree_differential::clear_and_sync_is_bitwise_reset`.
        self.tree.clear_values();
        self.stats.churn_ops += {
            let before = self.tree.leaf_churn();
            self.tree.sync_len(self.xs.len(), &self.params);
            self.tree.leaf_churn() - before
        };
        sweep_core(
            &self.clipped,
            &self.xs,
            &self.ys,
            &self.ranges,
            &self.enter_idx,
            &self.exit_idx,
            &mut self.tree,
            &self.params,
        )
    }
}

/// A free list of [`PersistentCellSweep`]s for one shard: cells come and go
/// with object lifetimes, their sweep allocations should not. Retired
/// sweeps also park their counters here so detector-level aggregates
/// survive cell eviction.
#[derive(Debug, Default)]
pub struct SweepPool {
    free: Vec<PersistentCellSweep>,
    retired: SweepStats,
}

impl SweepPool {
    /// An empty pool.
    pub fn new() -> Self {
        SweepPool::default()
    }

    /// A sweep for a new cell: reuses a retired allocation when one is
    /// available.
    pub fn take(&mut self, domain: Option<Rect>, params: BurstParams) -> PersistentCellSweep {
        match self.free.pop() {
            Some(mut s) => {
                s.reset(domain, params);
                s
            }
            None => PersistentCellSweep::new(domain, params),
        }
    }

    /// Returns a drained cell's sweep to the pool, folding its counters
    /// into the pool aggregate.
    pub fn retire(&mut self, mut sweep: PersistentCellSweep) {
        self.retired.absorb(&sweep.take_stats());
        self.free.push(sweep);
    }

    /// Counters accumulated by retired sweeps.
    pub fn retired_stats(&self) -> SweepStats {
        self.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{sl_cspot_with, SweepArena};

    fn params() -> BurstParams {
        BurstParams {
            alpha: 0.5,
            current_norm: 1.0,
            past_norm: 1.0,
        }
    }

    const DOMAIN: Rect = Rect {
        x0: 0.0,
        y0: 0.0,
        x1: 10.0,
        y1: 10.0,
    };

    /// The persistent search must equal a from-scratch sweep of the same
    /// resident rectangles bit for bit.
    fn assert_matches_rebuild(p: &mut PersistentCellSweep, arena: &mut SweepArena) {
        let rects = p.full_rects();
        let want = sl_cspot_with(arena, &rects, &DOMAIN, &params());
        let got = p.search();
        match (got, want) {
            (Some(a), Some(b)) => {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.point.x.to_bits(), b.point.x.to_bits());
                assert_eq!(a.point.y.to_bits(), b.point.y.to_bits());
                assert_eq!(a.wc.to_bits(), b.wc.to_bits());
                assert_eq!(a.wp.to_bits(), b.wp.to_bits());
            }
            (None, None) => {}
            other => panic!("persistent vs rebuild Some/None: {other:?}"),
        }
    }

    #[test]
    fn insert_grow_remove_lifecycle_matches_rebuild() {
        let mut p = PersistentCellSweep::new(Some(DOMAIN), params());
        let mut arena = SweepArena::new();
        assert_eq!(p.search(), None);
        p.insert(0, Rect::new(1.0, 1.0, 3.0, 3.0), 2.0);
        assert_matches_rebuild(&mut p, &mut arena);
        p.insert(1, Rect::new(2.0, 2.0, 4.0, 5.0), 1.0);
        assert_matches_rebuild(&mut p, &mut arena);
        assert!(p.grow(0));
        assert_matches_rebuild(&mut p, &mut arena);
        assert!(p.remove(0).is_some());
        assert_matches_rebuild(&mut p, &mut arena);
        assert!(p.remove(1).is_some());
        assert!(p.is_empty());
        assert_eq!(p.search(), None);
        assert!(!p.grow(7));
        assert!(p.remove(7).is_none());
    }

    #[test]
    fn out_of_domain_rect_counts_but_never_sweeps() {
        let mut p = PersistentCellSweep::new(Some(DOMAIN), params());
        p.insert(0, Rect::new(20.0, 20.0, 25.0, 25.0), 3.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.search(), None);
        let mut arena = SweepArena::new();
        p.insert(1, Rect::new(0.5, 0.5, 1.5, 1.5), 1.0);
        assert_matches_rebuild(&mut p, &mut arena);
    }

    #[test]
    fn infeasible_domain_always_none() {
        let mut p = PersistentCellSweep::new(None, params());
        p.insert(0, Rect::new(1.0, 1.0, 2.0, 2.0), 1.0);
        assert_eq!(p.search(), None);
        assert_eq!(p.len(), 1);
    }

    /// Before a sweep's first search its leaf count is 0, so its churn
    /// budget is exactly `MIN_CHURN_BUDGET` — an effectively zero
    /// threshold. Each in-domain insert churns 6 entries (4 edge refs + 2
    /// order splices): `MIN_CHURN_BUDGET / 6` inserts stay under the
    /// budget, one more must trip a full rebuild at the next search.
    #[test]
    fn zero_threshold_forces_full_rebuilds() {
        let mut arena = SweepArena::new();
        let under = (MIN_CHURN_BUDGET / 6) as u64;
        for (n, rebuilt) in [(under, false), (under + 1, true)] {
            let mut p = PersistentCellSweep::new(Some(DOMAIN), params());
            for i in 0..n {
                p.insert(
                    i,
                    Rect::new(0.1 * i as f64, 0.2, 0.1 * i as f64 + 1.0, 2.0),
                    1.0,
                );
            }
            assert_matches_rebuild(&mut p, &mut arena);
            assert_eq!(p.stats().full_rebuilds >= 1, rebuilt, "{n} inserts");
            assert_eq!(p.stats().rebuilt_leaves > 0, rebuilt, "{n} inserts");
        }
    }

    /// Idempotent re-delivery (at-least-once streams): a duplicate `New`
    /// (replace by an identical entry), a duplicate `Grown` (already past)
    /// and a remove-then-reinsert of an identical entry all leave the cell
    /// sweeping bitwise like a from-scratch rebuild.
    #[test]
    fn idempotent_redelivery_matches_rebuild() {
        let mut p = PersistentCellSweep::new(Some(DOMAIN), params());
        let mut arena = SweepArena::new();
        let rect = Rect::new(1.0, 1.0, 2.0, 2.0);
        p.insert(1, rect, 1.0);
        p.insert(2, Rect::new(0.5, 0.5, 3.0, 3.0), 2.0);
        assert!(p.grow(2));
        assert_matches_rebuild(&mut p, &mut arena);

        p.insert(1, rect, 1.0);
        assert_eq!(p.len(), 2, "duplicate New must replace, not add");
        assert_matches_rebuild(&mut p, &mut arena);
        assert!(p.grow(2));
        assert_matches_rebuild(&mut p, &mut arena);
        assert!(p.remove(1).is_some());
        p.insert(1, rect, 1.0);
        assert_matches_rebuild(&mut p, &mut arena);
        // A duplicate New of a grown entry resets it to the current window.
        p.insert(2, Rect::new(0.5, 0.5, 3.0, 3.0), 2.0);
        assert_matches_rebuild(&mut p, &mut arena);
    }

    #[test]
    fn pool_reuse_is_invisible() {
        let mut pool = SweepPool::new();
        let mut a = pool.take(Some(DOMAIN), params());
        a.insert(0, Rect::new(1.0, 1.0, 2.0, 2.0), 1.0);
        let _ = a.search();
        pool.retire(a);
        assert_eq!(pool.retired_stats().searches, 1);
        let mut b = pool.take(Some(DOMAIN), params());
        assert!(b.is_empty());
        let mut arena = SweepArena::new();
        b.insert(5, Rect::new(0.0, 0.0, 4.0, 4.0), 2.0);
        assert_matches_rebuild(&mut b, &mut arena);
        assert_eq!(b.stats().searches, 1);
    }
}
