//! Persistent cross-sweep cell state: SL-CSPOT inputs that survive events.
//!
//! Every search in PRs 1–3 rebuilt a cell's sweep from its full rectangle
//! set: re-clip, re-sort the edge coordinates, re-derive the evaluation
//! positions and leaf ranges, re-sort the enter/exit orders — `O(n log n)`
//! comparison work per search even when only one rectangle changed since the
//! previous one. [`PersistentCellSweep`] keeps that derived state **across
//! events**: the `New`/`Grown`/`Expired` transitions the window engines emit
//! are applied to the persistent structures directly
//! ([`insert`](PersistentCellSweep::insert) /
//! [`grow`](PersistentCellSweep::grow) /
//! [`remove`](PersistentCellSweep::remove)), so the per-search rebuild cost
//! becomes proportional to the *churn* since the last search, not the cell
//! population.
//!
//! # What persists
//!
//! * the cell's rectangles, id-ordered (a sorted `Vec`, not a hash map — the
//!   deterministic order every sweep needs is now free);
//! * the **event-coordinate map**: refcounted, totally-ordered x/y edge
//!   multisets of the domain-clipped rectangles, plus the derived evaluation
//!   positions (edges + open-interval midpoints);
//! * the **enter/exit orders** (top edge descending / bottom edge
//!   descending, ties by object id) as incrementally maintained sorted
//!   lists;
//! * the two-form [`BurstSegTree`], re-zeroed in place after each sweep and
//!   size-synced with the incremental [`MaxAddTree::insert_leaf`] /
//!   [`MaxAddTree::remove_leaf`](crate::segtree::MaxAddTree::remove_leaf)
//!   leaf edits (full reset only when the power-of-two layout changes).
//!
//! # The rebuild threshold
//!
//! Incremental maintenance of a sorted list is an `O(n)` splice per edit;
//! under heavy churn (a mass expiry draining half the cell) doing many of
//! those loses to one `O(n log n)` re-sort. When the churn accumulated since
//! the structures were last valid exceeds
//! [`rebuild_threshold`](PersistentCellSweep::set_rebuild_threshold) × the
//! current leaf count, the sweep stops patching, marks the derived state
//! stale, applies subsequent transitions to the rectangle list only (O(log n)
//! membership ops), and re-sorts everything once at the next search — a
//! counted *full rebuild*. [`SweepMode::Rebuild`] pins that fallback on
//! permanently, which is exactly the pre-persistence behaviour: it survives
//! as the differential-testing reference (see
//! [`sl_cspot_rebuild`](crate::sweep::sl_cspot_rebuild)) and the baseline
//! column of `surge_exp sweep-bench`.
//!
//! # Bit-identity
//!
//! Persistent and rebuild searches route through the same
//! [`sweep_core`](crate::sweep) loop, and every maintained structure is
//! defined by a *total order* (coordinates under `f64::total_cmp`, orders
//! under `(edge, object id)`), so the incremental state equals the from-
//! scratch state exactly — results are bitwise identical, argmax and window
//! sums included. `surge-exact/tests/persistent_sweep.rs` proptests that
//! contract, including forced threshold crossings and pool reuse.

use std::cmp::Ordering;

use surge_core::{BurstParams, ObjectId, Point, Rect, TotalF64, WindowKind};

use crate::segtree::BurstSegTree;
use crate::sweep::{score_at_point, sweep_core, SweepRect, SweepResult};

/// How a detector runs its per-cell searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepMode {
    /// Persistent cross-sweep state: searches reuse incrementally maintained
    /// coordinate maps and orders (the production path).
    #[default]
    Persistent,
    /// Rebuild everything from the rectangle set on every search — the
    /// pre-persistence behaviour, retained for differential testing and as
    /// the `sweep-bench` baseline.
    Rebuild,
}

/// Lifetime counters of one [`PersistentCellSweep`] (or an aggregate over
/// many — see [`SweepPool::retired_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Searches answered (executed sweeps plus epoch-cache hits — a hit
    /// answers a search without running one, see `epoch_hits`).
    pub searches: u64,
    /// Incremental edits applied to the persistent structures (edge
    /// refcount changes, order splices, tree leaf edits).
    pub churn_ops: u64,
    /// Evaluation positions written by full rebuilds (threshold crossings,
    /// first builds, and — in [`SweepMode::Rebuild`] — every search).
    pub rebuilt_leaves: u64,
    /// Full rebuilds executed.
    pub full_rebuilds: u64,
    /// Searches answered from a cell's epoch-keyed result cache without
    /// touching the tree (the churn epoch was unchanged since the cached
    /// sweep).
    pub epoch_hits: u64,
    /// Cache-capable searches that had to sweep (epoch advanced or nothing
    /// was cached yet).
    pub epoch_misses: u64,
    /// Kinetic sweep plans compiled (the y-event order and per-position
    /// tree deltas had to be re-derived from the rectangle set).
    pub plan_builds: u64,
    /// Searches that replayed a retained kinetic plan — reusing the
    /// previous sweep's y-event order instead of re-running the descent
    /// bookkeeping.
    pub plan_reuses: u64,
}

impl SweepStats {
    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &SweepStats) {
        self.searches += other.searches;
        self.churn_ops += other.churn_ops;
        self.rebuilt_leaves += other.rebuilt_leaves;
        self.full_rebuilds += other.full_rebuilds;
        self.epoch_hits += other.epoch_hits;
        self.epoch_misses += other.epoch_misses;
        self.plan_builds += other.plan_builds;
        self.plan_reuses += other.plan_reuses;
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

/// Minimum pending-churn budget before the rebuild threshold can trip —
/// regardless of how small the threshold fraction is — so tiny cells don't
/// rebuild on every other event. Public so tests forcing threshold
/// crossings can compute how much churn guarantees one.
pub const MIN_CHURN_BUDGET: usize = 32;

/// Cost-model cap on the churn budget: each incremental edit splices an
/// `O(leaves)` sorted list, while the rebuild fallback re-sorts once at
/// `O(leaves · log leaves)` — so past roughly this many pending edits *per
/// `log₂(leaves)`* the splices cost more than the one re-sort they avoid.
/// Large cells previously got a budget linear in their leaf count
/// (`rebuild_threshold × leaves`), which let quadratic splice work
/// accumulate; the budget is now the minimum of that linear term and this
/// crossover cap. Thresholds only move cost, never results: the incremental
/// and rebuilt structures are bitwise identical by construction.
pub const CHURN_OPS_PER_LOG2: usize = 24;

/// One pre-compiled tree update of a kinetic sweep plan: rectangle `i`
/// enters (`sign = 1.0`) or leaves (`sign = -1.0`) the descending sweep
/// front over leaf range `[lo, hi]`. Replaying these through
/// [`BurstSegTree::apply`] performs bit-for-bit the adds `sweep_core` would.
#[derive(Debug, Clone, Copy)]
struct PlanOp {
    lo: usize,
    hi: usize,
    weight: f64,
    kind: WindowKind,
    sign: f64,
}

/// One y position of a kinetic plan at which the tree top can change: the
/// ops in `plan_ops[start..end]` apply here (enters before exits, exactly
/// the `sweep_core` order). Positions with no ops are omitted — between ops
/// the tree is constant and the best-update comparison is strict, so they
/// can never improve the running best.
#[derive(Debug, Clone, Copy)]
struct PlanPos {
    y: f64,
    start: usize,
    end: usize,
}

/// Sentinel for a rectangle whose exit op never fires (its bottom edge is
/// the lowest evaluation position, and exits require `y0 > y`).
const NO_OP: usize = usize::MAX;

/// Everything the sweep can observe about one clipped entry: object id,
/// clip coordinate bits, weight bits, window kind. Two sweep states whose
/// `(id → ContentKey)` maps are equal produce bitwise identical searches —
/// every derived structure (clip scratch, edge multisets, enter/exit
/// orders, kinetic plan) is a deterministic function of exactly this map.
/// The id participates because same-coordinate ties in the enter/exit
/// orders break by id, and reordering rectangles with different weights
/// reorders floating-point accumulation.
type ContentKey = (ObjectId, u64, u64, u64, u64, u64, WindowKind);

/// Cap on distinct in-flight journal keys; beyond this the journal stops
/// tracking (revert detection is abandoned until the next search anchors a
/// fresh baseline). Keeps the per-mutation scan O(1) in practice.
const PENDING_CAP: usize = 16;

#[inline]
fn content_key(id: ObjectId, clip: &Rect, rect: &SweepRect) -> ContentKey {
    (
        id,
        clip.x0.to_bits(),
        clip.y0.to_bits(),
        clip.x1.to_bits(),
        clip.y1.to_bits(),
        rect.weight.to_bits(),
        rect.kind,
    )
}

/// Per-cell sweep state that persists across window-transition events.
///
/// Owned by one cell of an exact detector; created from (and retired to) a
/// per-shard [`SweepPool`] so allocations outlive individual cells.
#[derive(Debug)]
pub struct PersistentCellSweep {
    domain: Option<Rect>,
    params: BurstParams,
    mode: SweepMode,
    /// Rebuild when pending churn exceeds this fraction of the leaf count.
    rebuild_threshold: f64,

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
    /// Set when the threshold tripped (or mode is `Rebuild`): the edge and
    /// order lists are stale and the next search re-sorts them from
    /// `entries`.
    needs_rebuild: bool,
    /// Incremental edits since the structures were last known-valid.
    churn_pending: usize,

    // Per-search scratch, reused across searches. While `plan_valid` these
    // double as retained kinetic-plan state (see below).
    clipped: Vec<SweepRect>,
    clip_ids: Vec<ObjectId>,
    ranges: Vec<(usize, usize)>,
    enter_idx: Vec<usize>,
    exit_idx: Vec<usize>,
    tree: BurstSegTree,

    /// Kinetic sweep plan: the pre-compiled op schedule of the descent
    /// (every tree update, grouped by y position), valid while the clipped
    /// rectangle set and the coordinate maps are unchanged since it was
    /// compiled. A `Grown` transition patches the resident ops in place —
    /// growth changes no coordinate, so the y-event order is reusable.
    plan_ops: Vec<PlanOp>,
    /// The y positions at which `plan_ops` apply, descending.
    plan_pos: Vec<PlanPos>,
    /// Per clipped-rectangle op locations `(enter, exit)` into `plan_ops`
    /// (`exit` may be [`NO_OP`]) — the grow-patch index.
    plan_slots: Vec<(usize, usize)>,
    /// Whether the plan (and the scratch vectors it shares) mirror the
    /// current clipped set and coordinates.
    plan_valid: bool,

    /// Monotone mutation counter: advanced by every mutation that changes
    /// the clipped rectangle set. The public [`epoch`](Self::epoch) derives
    /// the *content* epoch from this plus the pending journal below.
    epoch: u64,
    /// [`epoch`](Self::epoch)'s value when the journal was last anchored
    /// (at a search).
    anchor_epoch: u64,
    /// Exact signed [`ContentKey`] deltas since the anchor. Empty ⇔ the
    /// clipped content is bit-identical to the anchored state, so mutation
    /// sequences that cancel out (idempotent re-delivery of a `New` or
    /// `Grown`, remove-then-reinsert of an identical entry) revert the
    /// content epoch and let cached results keep serving.
    pending: Vec<(ContentKey, i64)>,
    /// The journal overflowed [`PENDING_CAP`]: revert detection is off
    /// until the next search re-anchors.
    pending_overflow: bool,

    stats: SweepStats,
}

impl PersistentCellSweep {
    /// A fresh, empty sweep for a cell with the given point `domain`
    /// (`None` = infeasible: rectangles are tracked, searches return
    /// `None`).
    pub fn new(domain: Option<Rect>, params: BurstParams, mode: SweepMode) -> Self {
        PersistentCellSweep {
            domain,
            params,
            mode,
            rebuild_threshold: 0.5,
            entries: Vec::new(),
            x_edges: Vec::new(),
            y_edges: Vec::new(),
            enter: Vec::new(),
            exit: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            coords_valid: true,
            needs_rebuild: mode == SweepMode::Rebuild,
            churn_pending: 0,
            clipped: Vec::new(),
            clip_ids: Vec::new(),
            ranges: Vec::new(),
            enter_idx: Vec::new(),
            exit_idx: Vec::new(),
            tree: BurstSegTree::new(0, &params),
            plan_ops: Vec::new(),
            plan_pos: Vec::new(),
            plan_slots: Vec::new(),
            plan_valid: false,
            epoch: 0,
            anchor_epoch: 0,
            pending: Vec::new(),
            pending_overflow: false,
            stats: SweepStats::default(),
        }
    }

    /// Re-initializes for a new cell, keeping every allocation (the pool
    /// path). Counters are **not** cleared — [`SweepPool::retire`] folds
    /// them into the pool aggregate first via [`take_stats`](Self::take_stats).
    pub fn reset(&mut self, domain: Option<Rect>, params: BurstParams, mode: SweepMode) {
        self.domain = domain;
        self.params = params;
        self.mode = mode;
        self.entries.clear();
        self.x_edges.clear();
        self.y_edges.clear();
        self.enter.clear();
        self.exit.clear();
        self.xs.clear();
        self.ys.clear();
        self.coords_valid = true;
        self.needs_rebuild = mode == SweepMode::Rebuild;
        self.churn_pending = 0;
        self.plan_valid = false;
        self.epoch = 0;
        self.anchor_epoch = 0;
        self.pending.clear();
        self.pending_overflow = false;
    }

    /// The search mode this sweep runs under.
    #[inline]
    pub fn mode(&self) -> SweepMode {
        self.mode
    }

    /// The content epoch: two searches at the same epoch (same domain,
    /// same parameters) return bitwise identical results, so callers may
    /// cache a result keyed on this and skip the sweep entirely while it
    /// holds.
    ///
    /// Mutations that change the clipped rectangle set advance it; a touch
    /// that misses the domain (clip `None`) changes bounds but not the
    /// sweep, and leaves it unchanged. Mutation sequences whose exact
    /// signed content deltas cancel — idempotent re-delivery of a `New`
    /// (replace by an identical entry) or a `Grown` (already past), or
    /// remove-then-reinsert of an identical entry — *revert* it to the
    /// last anchored value: the journal proves the `(id → content)` map is
    /// bit-identical to the state the cached result was computed from, so
    /// re-sweeping would reproduce it exactly.
    #[inline]
    pub fn epoch(&self) -> u64 {
        if self.pending.is_empty() && !self.pending_overflow {
            self.anchor_epoch
        } else {
            self.epoch
        }
    }

    /// Folds one signed content delta into the pending journal.
    fn note_content_delta(&mut self, key: ContentKey, sign: i64) {
        if self.pending_overflow {
            return;
        }
        if let Some(i) = self.pending.iter().position(|(k, _)| *k == key) {
            self.pending[i].1 += sign;
            if self.pending[i].1 == 0 {
                self.pending.swap_remove(i);
            }
        } else if self.pending.len() == PENDING_CAP {
            self.pending_overflow = true;
            self.pending.clear();
        } else {
            self.pending.push((key, sign));
        }
    }

    /// Records a search answered from an epoch-keyed cache (counted as a
    /// search so cache-on and always-sweep runs report comparable totals).
    #[inline]
    pub fn note_epoch_hit(&mut self) {
        self.stats.searches += 1;
        self.stats.epoch_hits += 1;
    }

    /// Records a cache-capable search that had to sweep.
    #[inline]
    pub fn note_epoch_miss(&mut self) {
        self.stats.epoch_misses += 1;
    }

    /// Overrides the rebuild-threshold fraction (pending churn / leaf
    /// count above which incremental maintenance gives way to a full
    /// re-sort at the next search). The budget is floored at
    /// [`MIN_CHURN_BUDGET`] regardless of the fraction, so `0.0` forces a
    /// rebuild once pending churn exceeds that minimum (tests use it to
    /// pin the fallback path).
    pub fn set_rebuild_threshold(&mut self, fraction: f64) {
        self.rebuild_threshold = fraction.max(0.0);
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
    /// hand to the rebuild reference
    /// ([`sl_cspot_rebuild`](crate::sweep::sl_cspot_rebuild)).
    pub fn full_rects(&self) -> Vec<SweepRect> {
        self.entries.iter().map(|e| e.rect).collect()
    }

    /// The resident rectangles with their object ids, in ascending id order
    /// — the logical state a checkpoint captures. Re-inserting these into a
    /// fresh sweep (via [`insert`](Self::insert) then
    /// [`grow`](Self::grow) for past-window entries) reproduces a state
    /// whose searches are bit-identical to this one's: every derived
    /// structure is defined by a total order over exactly this set.
    pub fn entries(&self) -> impl Iterator<Item = (ObjectId, SweepRect)> + '_ {
        self.entries.iter().map(|e| (e.id, e.rect))
    }

    /// Whether the incrementally maintained structures are live (false once
    /// the threshold tripped or in [`SweepMode::Rebuild`]).
    #[inline]
    fn live(&self) -> bool {
        !self.needs_rebuild && self.mode == SweepMode::Persistent
    }

    fn note_churn(&mut self, ops: usize) {
        self.churn_pending += ops;
        self.stats.churn_ops += ops as u64;
        let leaves = self.xs.len() + self.ys.len();
        // Churn-adaptive budget: the linear `threshold × leaves` term capped
        // at the splice-vs-rebuild cost crossover (each pending edit splices
        // an O(leaves) list; one rebuild re-sorts at O(leaves·log leaves)),
        // floored at MIN_CHURN_BUDGET so tiny cells never thrash. Small
        // cells behave exactly as before; big cells stop accumulating
        // quadratic splice work.
        let linear = (self.rebuild_threshold * leaves as f64) as usize;
        let log2 = usize::BITS - leaves.max(1).leading_zeros();
        let crossover = CHURN_OPS_PER_LOG2 * log2 as usize;
        let budget = MIN_CHURN_BUDGET.max(linear.min(crossover));
        if self.churn_pending > budget {
            // Threshold tripped: stop patching; the next search re-sorts.
            self.needs_rebuild = true;
        }
    }

    /// Applies a `New` transition: object `id` enters with `rect` (current
    /// window). An existing entry with the same id is replaced.
    pub fn insert(&mut self, id: ObjectId, rect: Rect, weight: f64) {
        let sweep = SweepRect {
            rect,
            weight,
            kind: WindowKind::Current,
        };
        let clip = self.domain.and_then(|d| rect.intersection(&d));
        match self.entries.binary_search_by_key(&id, |e| e.id) {
            Ok(i) => {
                // Replace: ids recur on duplicate delivery (at-least-once
                // streams re-send `New`); the refcounts must not corrupt
                // and an identical re-insert must journal to net zero.
                let old = self.entries[i];
                if old.clip.is_some() || clip.is_some() {
                    self.note_clipped_mutation();
                }
                if let Some(c) = old.clip {
                    self.note_content_delta(content_key(id, &c, &old.rect), -1);
                }
                if let Some(c) = clip {
                    self.note_content_delta(content_key(id, &c, &sweep), 1);
                }
                self.detach_entry(i);
                self.entries[i] = Entry {
                    id,
                    rect: sweep,
                    clip,
                };
                self.attach_clip(id, clip);
            }
            Err(i) => {
                if let Some(c) = clip {
                    self.note_clipped_mutation();
                    self.note_content_delta(content_key(id, &c, &sweep), 1);
                }
                self.entries.insert(
                    i,
                    Entry {
                        id,
                        rect: sweep,
                        clip,
                    },
                );
                self.attach_clip(id, clip);
            }
        }
    }

    /// The clipped rectangle set changed: the sweep answer may change (the
    /// epoch advances) and any compiled plan no longer mirrors the scene.
    #[inline]
    fn note_clipped_mutation(&mut self) {
        self.epoch += 1;
        self.plan_valid = false;
    }

    /// Applies a `Grown` transition: the object's rectangle moves to the
    /// past window. Returns whether the object was resident. No structural
    /// churn — the coordinate map and orders are kind-agnostic, and a
    /// retained kinetic plan survives: growth changes no coordinate, so the
    /// y-event order is untouched and only the rectangle's resident ops
    /// need their window kind flipped in place.
    pub fn grow(&mut self, id: ObjectId) -> bool {
        match self.entries.binary_search_by_key(&id, |e| e.id) {
            Ok(i) => {
                let old = self.entries[i];
                self.entries[i].rect.kind = WindowKind::Past;
                if let Some(c) = old.clip {
                    self.epoch += 1;
                    // A duplicate grow (already past) journals to net zero
                    // and the content epoch stays reverted.
                    self.note_content_delta(content_key(id, &c, &old.rect), -1);
                    self.note_content_delta(content_key(id, &c, &self.entries[i].rect), 1);
                    if self.plan_valid {
                        self.patch_plan_kind(id);
                    }
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Flips a clipped rectangle's window kind inside the retained plan:
    /// the scratch clip (the final re-score input) and its enter/exit ops.
    fn patch_plan_kind(&mut self, id: ObjectId) {
        let j = self
            .clip_ids
            .binary_search(&id)
            .expect("clipped entry must be in the plan");
        self.clipped[j].kind = WindowKind::Past;
        let (enter_op, exit_op) = self.plan_slots[j];
        self.plan_ops[enter_op].kind = WindowKind::Past;
        if exit_op != NO_OP {
            self.plan_ops[exit_op].kind = WindowKind::Past;
        }
    }

    /// Applies an `Expired` transition: removes the object's rectangle and
    /// returns it (`None` when the object was not resident).
    pub fn remove(&mut self, id: ObjectId) -> Option<SweepRect> {
        let i = self.entries.binary_search_by_key(&id, |e| e.id).ok()?;
        if let Some(c) = self.entries[i].clip {
            self.note_clipped_mutation();
            let e = self.entries[i];
            self.note_content_delta(content_key(id, &c, &e.rect), -1);
        }
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
    /// threshold fallback, and the whole story in [`SweepMode::Rebuild`].
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
        self.plan_valid = false;
        self.churn_pending = 0;
        self.needs_rebuild = self.mode == SweepMode::Rebuild;
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
        // Leaf ranges and plan ops index into `xs`, which just shifted.
        self.plan_valid = false;
    }

    /// Rebuilds the per-search scratch (clipped rects, leaf ranges,
    /// enter/exit index orders) from the maintained structures — the
    /// `O(R log R)` derivation every search used to pay; now paid only when
    /// no valid kinetic plan is retained.
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

    /// Compiles the kinetic plan from the freshly rebuilt scratch *while
    /// sweeping it*: the `sweep_core` descent's enter/exit scheduling runs
    /// once, and each tree update is recorded into the plan and applied to
    /// the (zeroed, size-synced) tree in the same step, with the
    /// per-position maxima feeding the running best. One pass instead of
    /// compile-then-replay — bitwise identical to both, since the ops, the
    /// order they apply in, and the best-update comparisons are the same.
    fn compile_and_replay(&mut self) -> Option<SweepResult> {
        debug_assert_eq!(self.tree.len(), self.xs.len());
        self.plan_ops.clear();
        self.plan_pos.clear();
        self.plan_slots.clear();
        self.plan_slots.resize(self.clipped.len(), (NO_OP, NO_OP));
        let mut next_enter = 0usize;
        let mut next_exit = 0usize;
        let mut best: Option<(TotalF64, usize, f64)> = None;
        for &y in self.ys.iter().rev() {
            let start = self.plan_ops.len();
            while next_enter < self.enter_idx.len()
                && self.clipped[self.enter_idx[next_enter]].rect.y1 >= y
            {
                let i = self.enter_idx[next_enter];
                let (lo, hi) = self.ranges[i];
                self.plan_slots[i].0 = self.plan_ops.len();
                let op = PlanOp {
                    lo,
                    hi,
                    weight: self.clipped[i].weight,
                    kind: self.clipped[i].kind,
                    sign: 1.0,
                };
                self.tree.apply(op.lo, op.hi, op.weight, op.kind, op.sign);
                self.plan_ops.push(op);
                next_enter += 1;
            }
            while next_exit < self.exit_idx.len()
                && self.clipped[self.exit_idx[next_exit]].rect.y0 > y
            {
                let i = self.exit_idx[next_exit];
                let (lo, hi) = self.ranges[i];
                self.plan_slots[i].1 = self.plan_ops.len();
                let op = PlanOp {
                    lo,
                    hi,
                    weight: self.clipped[i].weight,
                    kind: self.clipped[i].kind,
                    sign: -1.0,
                };
                self.tree.apply(op.lo, op.hi, op.weight, op.kind, op.sign);
                self.plan_ops.push(op);
                next_exit += 1;
            }
            if self.plan_ops.len() > start {
                self.plan_pos.push(PlanPos {
                    y,
                    start,
                    end: self.plan_ops.len(),
                });
                let (m, leaf) = self.tree.top();
                let key = TotalF64(m);
                if best.is_none_or(|(b, _, _)| key > b) {
                    best = Some((key, leaf, y));
                }
            }
        }
        debug_assert_eq!(next_enter, self.enter_idx.len(), "unscheduled enter");
        self.plan_valid = true;
        let (_, leaf, y) = best?;
        let point = Point::new(self.xs[leaf], y);
        // Exact re-evaluation at the winning point, as in `sweep_core`.
        Some(score_at_point(&self.clipped, point, &self.params))
    }

    /// Replays the retained plan over the zeroed, size-synced tree.
    ///
    /// Bitwise identical to `sweep_core` on the same scratch: the ops carry
    /// the exact `(lo, hi, weight, kind, sign)` arguments the descent would
    /// pass to [`BurstSegTree::apply`], in the same order; the tree top only
    /// changes where ops apply, and `sweep_core`'s best-update comparison is
    /// strictly-greater (first attainment wins), so evaluating `top()` at op
    /// positions alone selects the same `(score key, leaf, y)` — the first
    /// descending position always schedules at least one enter (the topmost
    /// y1 edge), so the running best starts at the same place too.
    fn replay_plan(&mut self) -> Option<SweepResult> {
        debug_assert_eq!(self.tree.len(), self.xs.len());
        let mut best: Option<(TotalF64, usize, f64)> = None;
        for p in &self.plan_pos {
            for op in &self.plan_ops[p.start..p.end] {
                self.tree.apply(op.lo, op.hi, op.weight, op.kind, op.sign);
            }
            let (m, leaf) = self.tree.top();
            let key = TotalF64(m);
            if best.is_none_or(|(b, _, _)| key > b) {
                best = Some((key, leaf, p.y));
            }
        }
        let (_, leaf, y) = best?;
        let point = Point::new(self.xs[leaf], y);
        // Exact re-evaluation at the winning point, as in `sweep_core`.
        Some(score_at_point(&self.clipped, point, &self.params))
    }

    /// Runs SL-CSPOT over the resident rectangles, restricted to the cell
    /// domain. Returns `None` when the domain is infeasible or no rectangle
    /// intersects it — exactly the [`crate::sweep::sl_cspot`] contract, and
    /// bitwise its result (see the module docs).
    pub fn search(&mut self) -> Option<SweepResult> {
        self.stats.searches += 1;
        // Anchor the content journal: the result this search produces is
        // the cached baseline the journal's revert detection refers to.
        self.anchor_epoch = self.epoch;
        self.pending.clear();
        self.pending_overflow = false;
        self.domain?;
        if self.needs_rebuild {
            self.rebuild_all();
            if !self.coords_valid {
                self.regen_coords();
            }
            self.stats.rebuilt_leaves += (self.xs.len() + self.ys.len()) as u64;
        } else if !self.coords_valid {
            self.regen_coords();
        }

        if self.mode == SweepMode::Rebuild {
            // Pre-persistence behaviour: re-derive the scratch and rebuild
            // the trees outright, every search.
            self.rebuild_scratch();
            if self.clipped.is_empty() {
                return None;
            }
            self.tree.reset(self.xs.len(), &self.params);
            return sweep_core(
                &self.clipped,
                &self.xs,
                &self.ys,
                &self.ranges,
                &self.enter_idx,
                &self.exit_idx,
                &mut self.tree,
                &self.params,
            );
        }

        // Persistent path: replay the retained plan, or record a fresh one
        // while sweeping. Recording costs one `sweep_core`-shaped pass —
        // not compile *then* replay — and every search until the next
        // clipped mutation then replays for free.
        let reuse = self.plan_valid;
        if reuse {
            self.stats.plan_reuses += 1;
        } else {
            self.rebuild_scratch();
            self.stats.plan_builds += 1;
        }
        if self.clipped.is_empty() {
            if !reuse {
                // Retain the (empty) plan so later searches still reuse it.
                self.plan_ops.clear();
                self.plan_pos.clear();
                self.plan_slots.clear();
                self.plan_valid = true;
            }
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
        if reuse {
            self.replay_plan()
        } else {
            self.compile_and_replay()
        }
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
    pub fn take(
        &mut self,
        domain: Option<Rect>,
        params: BurstParams,
        mode: SweepMode,
    ) -> PersistentCellSweep {
        match self.free.pop() {
            Some(mut s) => {
                s.reset(domain, params, mode);
                s
            }
            None => PersistentCellSweep::new(domain, params, mode),
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
    use crate::sweep::{sl_cspot_rebuild, SweepArena};

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

    fn assert_matches_rebuild(p: &mut PersistentCellSweep, arena: &mut SweepArena) {
        let rects = p.full_rects();
        let want = sl_cspot_rebuild(arena, &rects, &DOMAIN, &params());
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
        let mut p = PersistentCellSweep::new(Some(DOMAIN), params(), SweepMode::Persistent);
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
        let mut p = PersistentCellSweep::new(Some(DOMAIN), params(), SweepMode::Persistent);
        p.insert(0, Rect::new(20.0, 20.0, 25.0, 25.0), 3.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.search(), None);
        let mut arena = SweepArena::new();
        p.insert(1, Rect::new(0.5, 0.5, 1.5, 1.5), 1.0);
        assert_matches_rebuild(&mut p, &mut arena);
    }

    #[test]
    fn infeasible_domain_always_none() {
        let mut p = PersistentCellSweep::new(None, params(), SweepMode::Persistent);
        p.insert(0, Rect::new(1.0, 1.0, 2.0, 2.0), 1.0);
        assert_eq!(p.search(), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn zero_threshold_forces_full_rebuilds() {
        let mut p = PersistentCellSweep::new(Some(DOMAIN), params(), SweepMode::Persistent);
        p.set_rebuild_threshold(0.0);
        let mut arena = SweepArena::new();
        for i in 0..MIN_CHURN_BUDGET as u64 + 8 {
            p.insert(
                i,
                Rect::new(0.1 * i as f64, 0.2, 0.1 * i as f64 + 1.0, 2.0),
                1.0,
            );
        }
        assert_matches_rebuild(&mut p, &mut arena);
        assert!(p.stats().full_rebuilds >= 1);
        assert!(p.stats().rebuilt_leaves > 0);
    }

    #[test]
    fn rebuild_mode_rebuilds_every_search() {
        let mut p = PersistentCellSweep::new(Some(DOMAIN), params(), SweepMode::Rebuild);
        let mut arena = SweepArena::new();
        p.insert(0, Rect::new(1.0, 1.0, 2.0, 2.0), 1.0);
        assert_matches_rebuild(&mut p, &mut arena);
        assert_matches_rebuild(&mut p, &mut arena);
        let s = p.stats();
        assert_eq!(s.full_rebuilds, 2);
        assert_eq!(s.churn_ops, 0, "rebuild mode must not patch incrementally");
    }

    #[test]
    fn plan_reuse_and_grow_patch() {
        let mut p = PersistentCellSweep::new(Some(DOMAIN), params(), SweepMode::Persistent);
        let mut arena = SweepArena::new();
        p.insert(0, Rect::new(1.0, 1.0, 3.0, 3.0), 2.0);
        p.insert(1, Rect::new(2.0, 0.5, 4.0, 5.0), 1.0);
        let e0 = p.epoch();
        assert_matches_rebuild(&mut p, &mut arena); // compiles the plan
        assert_matches_rebuild(&mut p, &mut arena); // replays it
        let s = p.stats();
        assert_eq!(s.plan_builds, 1, "second search must reuse the plan");
        assert_eq!(s.plan_reuses, 1);
        assert_eq!(p.epoch(), e0, "searches must not advance the epoch");

        // Growth patches the plan in place: no recompile, same answer as a
        // from-scratch rebuild, and the epoch advances (the answer changed).
        assert!(p.grow(0));
        assert!(p.epoch() > e0);
        assert_matches_rebuild(&mut p, &mut arena);
        let s = p.stats();
        assert_eq!(s.plan_builds, 1, "grow must not recompile the plan");
        assert_eq!(s.plan_reuses, 2);

        // A structural mutation invalidates it.
        p.insert(2, Rect::new(0.0, 0.0, 1.5, 1.5), 3.0);
        assert_matches_rebuild(&mut p, &mut arena);
        assert_eq!(p.stats().plan_builds, 2);
    }

    #[test]
    fn epoch_tracks_clipped_mutations_only() {
        let mut p = PersistentCellSweep::new(Some(DOMAIN), params(), SweepMode::Persistent);
        let e0 = p.epoch();
        // Out-of-domain rect: counted, but the sweep answer cannot change.
        p.insert(0, Rect::new(20.0, 20.0, 25.0, 25.0), 3.0);
        assert!(p.grow(0));
        assert_eq!(p.epoch(), e0, "clip-miss touches must not advance epoch");
        assert!(p.remove(0).is_some());
        assert_eq!(p.epoch(), e0);
        // In-domain mutations each advance it while content differs from
        // the anchor...
        p.insert(1, Rect::new(1.0, 1.0, 2.0, 2.0), 1.0);
        let e1 = p.epoch();
        assert!(e1 > e0);
        assert!(p.grow(1));
        let e2 = p.epoch();
        assert!(e2 > e1);
        // ...but the full insert→grow→remove cycle is net zero: the cell
        // is bit-identical to its anchored (empty) state again.
        assert!(p.remove(1).is_some());
        assert_eq!(p.epoch(), e0, "net-zero churn must revert the epoch");
    }

    /// Idempotent re-delivery (at-least-once streams): re-applying a `New`
    /// or `Grown` that is already reflected in the cell journals to net
    /// zero, so the content epoch reverts to the last search's anchor and
    /// epoch-keyed caches keep serving. Genuinely new churn still advances
    /// it.
    #[test]
    fn epoch_reverts_on_idempotent_redelivery() {
        let mut p = PersistentCellSweep::new(Some(DOMAIN), params(), SweepMode::Persistent);
        let rect = Rect::new(1.0, 1.0, 2.0, 2.0);
        p.insert(1, rect, 1.0);
        p.insert(2, Rect::new(0.5, 0.5, 3.0, 3.0), 2.0);
        assert!(p.grow(2));
        let _ = p.search();
        let anchored = p.epoch();

        // Duplicate New: replace by an identical entry.
        p.insert(1, rect, 1.0);
        assert_eq!(p.epoch(), anchored, "identical re-insert must revert");
        // Duplicate Grown: the entry is already past.
        assert!(p.grow(2));
        assert_eq!(p.epoch(), anchored, "duplicate grow must revert");
        // Remove + identical re-insert: also net zero.
        assert!(p.remove(1).is_some());
        assert!(p.epoch() > anchored);
        p.insert(1, rect, 1.0);
        assert_eq!(p.epoch(), anchored, "remove/re-insert must revert");
        // And the cached-result contract holds: a re-search at the reverted
        // epoch is bitwise the anchored search.
        let mut arena = SweepArena::new();
        assert_matches_rebuild(&mut p, &mut arena);

        // Genuinely new content does advance the epoch.
        p.insert(3, Rect::new(2.0, 2.0, 4.0, 4.0), 1.0);
        assert!(p.epoch() > anchored);
    }

    #[test]
    fn pool_reuse_is_invisible() {
        let mut pool = SweepPool::new();
        let mut a = pool.take(Some(DOMAIN), params(), SweepMode::Persistent);
        a.insert(0, Rect::new(1.0, 1.0, 2.0, 2.0), 1.0);
        let _ = a.search();
        pool.retire(a);
        assert_eq!(pool.retired_stats().searches, 1);
        let mut b = pool.take(Some(DOMAIN), params(), SweepMode::Persistent);
        assert!(b.is_empty());
        let mut arena = SweepArena::new();
        b.insert(5, Rect::new(0.0, 0.0, 4.0, 4.0), 2.0);
        assert_matches_rebuild(&mut b, &mut arena);
        assert_eq!(b.stats().searches, 1);
    }
}
