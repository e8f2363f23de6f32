//! Lazily-propagated max segment trees for the SL-CSPOT sweep.
//!
//! # Why range-add max works for the *non-monotone* burst score
//!
//! The classic MaxRS sweep (Nandy & Bhattacharya 1995; Choi et al. 2012)
//! keeps, per x-interval, the sum of weights of the rectangles stabbing it,
//! and maintains the interval maximum under range addition with a lazy
//! segment tree. That argument needs nothing about monotonicity — it only
//! needs the tracked quantity to be a **sum** so that entering/leaving
//! rectangles are `+w` / `−w` range updates.
//!
//! The burst score `S(p) = α·max(f_c(p) − f_p(p), 0) + (1 − α)·f_c(p)` is
//! not a sum — a past-window rectangle *lowers* the score of the points it
//! covers, which is why the naive sweep re-evaluates every slab×interval
//! midpoint. But `S` is the pointwise **maximum of two linear forms** of the
//! window sums:
//!
//! ```text
//! S(p) = max( f_c(p) − α·f_p(p),      // the f_c ≥ f_p branch
//!             (1 − α)·f_c(p) )        // the f_c <  f_p branch
//! ```
//!
//! *Proof.* If `f_c ≥ f_p` then `S = α(f_c − f_p) + (1−α)f_c = f_c − α·f_p`,
//! and `f_c − α·f_p ≥ f_c − α·f_c = (1−α)f_c`, so the first form attains the
//! max. If `f_c < f_p` the clamp zeroes the burstiness term, `S = (1−α)f_c`,
//! and `f_c − α·f_p < f_c − α·f_c = (1−α)f_c`, so the second form attains
//! it. ∎
//!
//! Each linear form **is** a sum over covering rectangles: a current-window
//! rectangle of weight `w` contributes `+w/|W_c|` to the first form and
//! `+(1−α)·w/|W_c|` to the second; a past-window rectangle contributes
//! `−α·w/|W_p|` to the first form (a *negative-weight* interval add) and
//! nothing to the second. Maintaining one lazy max-tree per form and taking
//! `max(top₁, top₂)` therefore yields the exact maximum burst score over all
//! x-leaves at the current sweep height, because
//! `max_x max(L₁(x), L₂(x)) = max(max_x L₁(x), max_x L₂(x))`.
//!
//! Leaves must enumerate every distinct x-coverage pattern: every edge
//! coordinate (closed rectangles give boundary points their own covering
//! set) *and* the open interval between adjacent edges (represented by its
//! midpoint). The same applies to sweep heights in y. With `n` rectangles
//! that is at most `4n − 1` leaves and `4n − 1` heights, and each rectangle
//! enters and leaves the tree exactly once at `O(log n)` per update:
//! `O(n log n)` per sweep versus the naive midpoint enumeration's `O(n²)`.
//!
//! # Flat layout
//!
//! [`BurstSegTree`] is a **flat iterative** tree: nodes live in
//! power-of-two-aligned arrays (`node 1` is the root, node `i`'s children
//! are `2i`/`2i+1`, leaf `j` sits at `m + j`), updates walk the two boundary
//! leaves bottom-up, and no recursion happens anywhere. Profiling the PR-1
//! recursive tree showed the recursive `add` at ~40 % of sweep time at small
//! `n` — call overhead and the pointer-chasing `(lo, hi)` midpoint recursion
//! dominate when the tree is shallow. The flat walk touches the same
//! `O(log n)` nodes with plain index arithmetic over contiguous arrays, and
//! [`BurstSegTree::reset`] re-initializes in place so a
//! [`crate::sweep::SweepArena`] can reuse one allocation across every sweep
//! of a cell's lifetime.
//!
//! `surge-testkit` holds the references: `MaxAddTree`, the same flat layout
//! over a single linear form (the α = 0 MaxRS reference sweep uses it), and
//! the recursive tree it replaced, the baseline of the `surge_exp
//! sweep-bench` flat-vs-recursive micro-benchmark. Both break argmax ties
//! leftmost, so on scenes with exact arithmetic (integer-valued adds) they
//! agree bit-for-bit, argmax included.
//!
//! # Structure-of-arrays lanes
//!
//! [`BurstSegTree`] maintains both linear forms behind window-kind-aware
//! updates. Its node storage is **structure-of-arrays**:
//! one contiguous `max` lane array, one `add` lane array and one `arg` lane
//! array, each holding *both* forms — node `i`'s L₁ (diff) slot is `2i` and
//! its L₂ (sig) slot is `2i + 1`. A current-rectangle update walks the
//! boundary nodes once and writes both slots of each touched node (adjacent
//! doubles — one vector lane pair), a past-rectangle update strides over the
//! diff slots only, and `reset`/`clear_values` re-initialize each level with
//! plain `fill` calls instead of a per-node compare chain, so the zeroing
//! that dominates near-no-op sweeps compiles to straight-line vector loops.
//! Per lane the arithmetic (order, operands, tie-breaks) is exactly what two
//! independent single-form trees (`surge-testkit`'s `MaxAddTree`) would
//! do, so the fused tree is bitwise interchangeable with that split pair,
//! the differential reference and the baseline of the `surge_exp
//! sweep-bench` fused-vs-split micro-benchmark.

use surge_core::{BurstParams, WindowKind};

/// The two-linear-form segment tree that maintains the exact maximum burst
/// score over x-leaves under rectangle enter/leave range updates (see the
/// module docs for the decomposition argument).
///
/// Node storage is structure-of-arrays with *fused lanes*: each field is one
/// contiguous array of length `4m` holding both forms — node `i`'s L₁
/// (diff) slot is `2i`, its L₂ (sig) slot is `2i + 1`. Per lane, every
/// floating-point operation (order, operands, tie-breaks) is exactly what
/// two independent single-form trees would perform, so this tree is bitwise
/// interchangeable with the split pair (the reference in `surge-testkit`);
/// past-rectangle updates touch the diff slots only (adding a literal `0.0`
/// to the sig lane would turn a `-0.0` partial sum into `+0.0` and break
/// that bit-identity).
#[derive(Debug, Clone)]
pub struct BurstSegTree {
    /// Logical leaf count (as constructed; `n = 0` behaves like `n = 1`).
    n: usize,
    /// Power-of-two leaf span; leaf `j`'s slots are `2(m + j)` / `2(m + j) + 1`.
    m: usize,
    /// `max[2i]` / `max[2i + 1]` = lane maxima over node `i`'s subtree
    /// *including* pending adds at `i`. Padding-leaf slots hold `−∞`.
    max: Vec<f64>,
    /// Pending per-lane additions to the whole subtree of node `i`.
    add: Vec<f64>,
    /// Leaf index attaining each lane max within node `i`'s subtree.
    arg: Vec<usize>,
    /// Whether the state is exactly the `reset` state (all real leaves
    /// `0.0`, no pending adds in either lane).
    pristine: bool,
    /// Incremental leaf edits taken since construction (two per paired
    /// push/pop — one per lane, matching the split pair's accounting).
    leaf_churn: u64,
    /// Per-unit-weight contribution of a current rectangle to `L₁`.
    cur_diff: f64,
    /// Per-unit-weight contribution of a current rectangle to `L₂`.
    cur_sig: f64,
    /// Per-unit-weight contribution of a past rectangle to `L₁` (≤ 0).
    past_diff: f64,
}

impl BurstSegTree {
    /// A tree over `n` x-leaves for the given score parameters.
    pub fn new(n: usize, params: &BurstParams) -> Self {
        let mut t = BurstSegTree {
            n: 0,
            m: 1,
            max: Vec::new(),
            add: Vec::new(),
            arg: Vec::new(),
            pristine: true,
            leaf_churn: 0,
            cur_diff: 0.0,
            cur_sig: 0.0,
            past_diff: 0.0,
        };
        t.reset(n, params);
        t
    }

    fn set_params(&mut self, params: &BurstParams) {
        self.cur_diff = 1.0 / params.current_norm;
        self.cur_sig = (1.0 - params.alpha) / params.current_norm;
        self.past_diff = -params.alpha / params.past_norm;
    }

    /// Re-initializes over `n` leaves and fresh parameters, reusing the lane
    /// allocations (the arena path: one `BurstSegTree` serves every sweep of
    /// a detector or shard worker).
    pub fn reset(&mut self, n: usize, params: &BurstParams) {
        self.set_params(params);
        self.n = n;
        self.rebuild_zeroed();
    }

    /// Rebuilds the lane arrays to the pristine all-zero state for the
    /// current `self.n`, entirely with `fill`s and strided iotas (no
    /// per-node compares). The closed form is bitwise what a bottom-up
    /// compare build produces: in the reset state a node's max is 0.0 iff
    /// its leftmost leaf is real (left children win ties, and a left
    /// subtree can never be all-padding while its right sibling holds a
    /// real leaf), and its argmax is that leftmost leaf.
    fn rebuild_zeroed(&mut self) {
        let leaves = self.n.max(1);
        let m = leaves.next_power_of_two();
        self.m = m;
        let size = 4 * m;
        self.max.clear();
        self.max.resize(size, 0.0);
        self.add.clear();
        self.add.resize(size, 0.0);
        self.arg.clear();
        self.arg.resize(size, 0);
        // Leaf pairs: real ones at 0.0, padding at −∞ so it can never win.
        self.max[2 * (m + leaves)..].fill(f64::NEG_INFINITY);
        for j in 0..m {
            let b = 2 * (m + j);
            self.arg[b] = j;
            self.arg[b + 1] = j;
        }
        // Internal levels in closed form, both lanes at once: at the level
        // whose nodes span `span` leaves each, the first ⌈leaves/span⌉
        // nodes hold 0.0 and the rest −∞, and every argmax is the node's
        // leftmost leaf.
        let mut w = m / 2;
        let mut span = 2usize;
        while w >= 1 {
            let k = leaves.div_ceil(span).min(w);
            self.max[2 * w..2 * (w + k)].fill(0.0);
            self.max[2 * (w + k)..4 * w].fill(f64::NEG_INFINITY);
            for i in 0..w {
                let b = 2 * (w + i);
                let leftmost = i * span;
                self.arg[b] = leftmost;
                self.arg[b + 1] = leftmost;
            }
            w /= 2;
            span *= 2;
        }
        self.pristine = true;
    }

    /// Re-zeroes both lanes in place, keeping the current leaf count, layout
    /// and score parameters. After this the tree is pristine, so the next
    /// [`sync_len`](Self::sync_len) can repair size drift with incremental
    /// leaf edits instead of full resets.
    pub fn clear_values(&mut self) {
        if !self.pristine {
            self.rebuild_zeroed();
        }
    }

    /// Number of leaves the tree currently spans.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the tree spans zero leaves.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether this tree's flat layout equals the one `reset(n, …)` would
    /// build (same power-of-two leaf span).
    #[inline]
    pub fn layout_matches(&self, n: usize) -> bool {
        self.m == n.max(1).next_power_of_two()
    }

    /// Brings the (pristine) tree to exactly `n` leaves, preferring
    /// incremental end-of-layout leaf edits when the power-of-two layout is
    /// unchanged — the resulting state is bitwise identical to
    /// `reset(n, params)`, which is what bit-exact persistent-vs-rebuild
    /// sweeps require — and falling back to a full re-zero when the layout
    /// must change (or the tree is not pristine).
    pub fn sync_len(&mut self, n: usize, params: &BurstParams) {
        self.set_params(params);
        if !(self.pristine && self.layout_matches(n)) {
            self.n = n;
            self.rebuild_zeroed();
            return;
        }
        while self.n < n {
            self.push_leaf();
        }
        while self.n > n {
            self.pop_leaf();
        }
    }

    /// Appends a `0.0` leaf pair (pristine trees only; every real leaf is
    /// zero, so appending is bitwise `reset(n + 1)` when the layout holds).
    fn push_leaf(&mut self) {
        debug_assert!(self.pristine && self.n < self.m);
        self.leaf_churn += 2;
        let j = self.n;
        let b = 2 * (self.m + j);
        self.max[b] = 0.0;
        self.max[b + 1] = 0.0;
        self.n += 1;
        self.pull_up_pair((self.m + j) >> 1);
    }

    /// Drops the last leaf pair (pristine trees only). Shrinking to zero
    /// leaves re-zeroes outright: the `n = 0` tree still spans one
    /// sentinel leaf, which a plain −∞ overwrite would clobber.
    fn pop_leaf(&mut self) {
        debug_assert!(self.pristine && self.n > 0);
        self.leaf_churn += 2;
        if self.n == 1 {
            self.n = 0;
            self.rebuild_zeroed();
            return;
        }
        self.n -= 1;
        let b = 2 * (self.m + self.n);
        self.max[b] = f64::NEG_INFINITY;
        self.max[b + 1] = f64::NEG_INFINITY;
        self.pull_up_pair((self.m + self.n) >> 1);
    }

    /// Incremental leaf edits taken (two per paired push/pop).
    #[inline]
    pub fn leaf_churn(&self) -> u64 {
        self.leaf_churn
    }

    /// Applies a rectangle of `weight` and window `kind` entering
    /// (`sign = 1.0`) or leaving (`sign = -1.0`) the sweep front over leaf
    /// range `[l, r]`.
    pub fn apply(&mut self, l: usize, r: usize, weight: f64, kind: WindowKind, sign: f64) {
        let w = weight * sign;
        match kind {
            WindowKind::Current => self.add_pair(l, r, w * self.cur_diff, w * self.cur_sig),
            WindowKind::Past => self.add_diff(l, r, w * self.past_diff),
        }
    }

    /// Adds `vd` to the diff lane and `vs` to the sig lane over `[l, r]`:
    /// one boundary walk, two adjacent stores per touched node.
    fn add_pair(&mut self, l: usize, r: usize, vd: f64, vs: f64) {
        debug_assert!(l <= r && r < self.n.max(1));
        self.pristine = false;
        let mut lo = l + self.m;
        let mut hi = r + self.m + 1; // half-open [lo, hi)
        let (lseed, rseed) = (lo, hi - 1);
        while lo < hi {
            if lo & 1 == 1 {
                let b = 2 * lo;
                self.max[b] += vd;
                self.max[b + 1] += vs;
                self.add[b] += vd;
                self.add[b + 1] += vs;
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                let b = 2 * hi;
                self.max[b] += vd;
                self.max[b + 1] += vs;
                self.add[b] += vd;
                self.add[b + 1] += vs;
            }
            lo >>= 1;
            hi >>= 1;
        }
        self.pull_up_pair(lseed >> 1);
        self.pull_up_pair(rseed >> 1);
    }

    /// Adds `vd` to the diff lane only over `[l, r]` (past rectangles touch
    /// L₁ alone; the sig slots must stay byte-untouched — see the type docs).
    fn add_diff(&mut self, l: usize, r: usize, vd: f64) {
        debug_assert!(l <= r && r < self.n.max(1));
        self.pristine = false;
        let mut lo = l + self.m;
        let mut hi = r + self.m + 1;
        let (lseed, rseed) = (lo, hi - 1);
        while lo < hi {
            if lo & 1 == 1 {
                let b = 2 * lo;
                self.max[b] += vd;
                self.add[b] += vd;
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                let b = 2 * hi;
                self.max[b] += vd;
                self.add[b] += vd;
            }
            lo >>= 1;
            hi >>= 1;
        }
        self.pull_up_diff(lseed >> 1);
        self.pull_up_diff(rseed >> 1);
    }

    #[inline]
    fn pull_up_pair(&mut self, mut node: usize) {
        while node >= 1 {
            let (l, r) = (4 * node, 4 * node + 2); // children's diff slots
            let b = 2 * node;
            if self.max[l] >= self.max[r] {
                self.max[b] = self.max[l] + self.add[b];
                self.arg[b] = self.arg[l];
            } else {
                self.max[b] = self.max[r] + self.add[b];
                self.arg[b] = self.arg[r];
            }
            if self.max[l + 1] >= self.max[r + 1] {
                self.max[b + 1] = self.max[l + 1] + self.add[b + 1];
                self.arg[b + 1] = self.arg[l + 1];
            } else {
                self.max[b + 1] = self.max[r + 1] + self.add[b + 1];
                self.arg[b + 1] = self.arg[r + 1];
            }
            node >>= 1;
        }
    }

    #[inline]
    fn pull_up_diff(&mut self, mut node: usize) {
        while node >= 1 {
            let (l, r) = (4 * node, 4 * node + 2);
            let b = 2 * node;
            if self.max[l] >= self.max[r] {
                self.max[b] = self.max[l] + self.add[b];
                self.arg[b] = self.arg[l];
            } else {
                self.max[b] = self.max[r] + self.add[b];
                self.arg[b] = self.arg[r];
            }
            node >>= 1;
        }
    }

    /// The maximum burst score over all leaves at the current sweep height,
    /// and a leaf attaining it.
    #[inline]
    pub fn top(&self) -> (f64, usize) {
        let (d, s) = (self.max[2], self.max[3]); // root pair (node 1)
        if d >= s {
            (d, self.arg[2])
        } else {
            (s, self.arg[3])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(alpha: f64) -> BurstParams {
        BurstParams {
            alpha,
            current_norm: 1.0,
            past_norm: 1.0,
        }
    }

    #[test]
    fn burst_tree_matches_score_decomposition() {
        // Leaf 0: fc=2, fp=0 -> S = 2. Leaf 1: fc=2, fp=3 -> S = (1-α)·2.
        let p = params(0.5);
        let mut t = BurstSegTree::new(2, &p);
        t.apply(0, 1, 2.0, WindowKind::Current, 1.0);
        t.apply(1, 1, 3.0, WindowKind::Past, 1.0);
        let (m, leaf) = t.top();
        assert_eq!(leaf, 0);
        assert!((m - 2.0).abs() < 1e-12);
        // Remove the current rect from leaf 0: leaf 1 now wins via L₂.
        t.apply(0, 0, 2.0, WindowKind::Current, -1.0);
        let (m, leaf) = t.top();
        assert_eq!(leaf, 1);
        assert!((m - 1.0).abs() < 1e-12, "got {m}");
    }

    #[test]
    fn burst_tree_past_only_is_never_positive() {
        let p = params(0.7);
        let mut t = BurstSegTree::new(3, &p);
        t.apply(0, 2, 4.0, WindowKind::Past, 1.0);
        let (m, _) = t.top();
        // L₁ = −α·4 < 0 everywhere, L₂ = 0 everywhere: max is 0, exactly
        // the true burst score of a past-only region.
        assert_eq!(m, 0.0);
    }

    #[test]
    fn burst_tree_respects_normalizers() {
        let p = BurstParams {
            alpha: 0.5,
            current_norm: 10.0,
            past_norm: 5.0,
        };
        let mut t = BurstSegTree::new(1, &p);
        t.apply(0, 0, 10.0, WindowKind::Current, 1.0); // fc = 1
        t.apply(0, 0, 2.5, WindowKind::Past, 1.0); // fp = 0.5
        let (m, _) = t.top();
        // S = 0.5·max(1 − 0.5, 0) + 0.5·1 = 0.75
        assert!((m - 0.75).abs() < 1e-12, "got {m}");
    }

    #[test]
    fn burst_tree_reset_swaps_parameters() {
        let mut t = BurstSegTree::new(4, &params(0.5));
        t.apply(0, 3, 2.0, WindowKind::Current, 1.0);
        t.reset(
            2,
            &BurstParams {
                alpha: 0.0,
                current_norm: 2.0,
                past_norm: 1.0,
            },
        );
        t.apply(0, 1, 2.0, WindowKind::Current, 1.0); // fc = 1
        let (m, _) = t.top();
        assert!((m - 1.0).abs() < 1e-12, "got {m}");
    }
}
