//! Reference segment trees for the fused-lane
//! [`BurstSegTree`](surge_exact::BurstSegTree) of [`surge_exact::segtree`]:
//! [`MaxAddTree`], the same flat layout over one linear form (also the
//! tree of the α = 0 [`maxrs_sweep`](crate::maxrs_sweep)); a recursive lazy
//! max-tree against it; and a split pair of [`MaxAddTree`]s against the
//! fused burst tree. Differential tests compare these bit for bit.

use surge_core::{BurstParams, WindowKind};

/// Flat max-segment-tree with lazy range addition over `n` leaf positions.
///
/// Supports `add(l, r, v)` — add `v` to every leaf in `[l, r]` — and
/// [`top`](MaxAddTree::top), the global maximum with an attaining leaf
/// (leftmost on ties), in `O(log n)` and `O(1)` respectively. All leaves
/// start at `0.0`. [`reset`](MaxAddTree::reset) re-initializes in place for
/// allocation reuse.
#[derive(Debug, Clone)]
pub struct MaxAddTree {
    /// Logical leaf count (as constructed; `n = 0` behaves like `n = 1`).
    n: usize,
    /// Power-of-two leaf span; leaf `j` is node `m + j`.
    m: usize,
    /// `max[i]` = max over node `i`'s subtree *including* pending adds at
    /// `i` (but not above it). Padding leaves `[n, m)` hold `−∞`.
    max: Vec<f64>,
    /// Pending addition to the whole subtree of node `i`.
    add: Vec<f64>,
    /// Leaf index attaining `max[i]` within node `i`'s subtree.
    arg: Vec<usize>,
    /// Whether every real leaf is `0.0` with no pending adds anywhere —
    /// i.e. the state is exactly `reset(n)`. Structural leaf edits
    /// ([`insert_leaf`](Self::insert_leaf) / [`remove_leaf`](Self::remove_leaf))
    /// have an `O(log n)` fast path on pristine trees.
    pristine: bool,
    /// Incremental leaf edits taken since construction.
    leaf_churn: u64,
    /// Leaves written by full rebuilds (the fallback when an incremental
    /// edit cannot run in place).
    rebuilt_leaves: u64,
}

impl MaxAddTree {
    /// A tree over `n` leaves, all at `0.0`.
    pub fn new(n: usize) -> Self {
        let mut t = MaxAddTree {
            n: 0,
            m: 1,
            max: Vec::new(),
            add: Vec::new(),
            arg: Vec::new(),
            pristine: true,
            leaf_churn: 0,
            rebuilt_leaves: 0,
        };
        t.reset(n);
        t
    }

    /// Re-initializes the tree over `n` zero leaves, reusing the existing
    /// allocation whenever it is large enough.
    pub fn reset(&mut self, n: usize) {
        let leaves = n.max(1);
        let m = leaves.next_power_of_two();
        self.n = n;
        self.m = m;
        let size = 2 * m;
        self.max.clear();
        self.max.resize(size, 0.0);
        self.add.clear();
        self.add.resize(size, 0.0);
        self.arg.clear();
        self.arg.resize(size, 0);
        // Leaves: real ones at 0.0, padding at −∞ so it can never win.
        self.max[m + leaves..].fill(f64::NEG_INFINITY);
        for (j, a) in self.arg[m..].iter_mut().enumerate() {
            *a = j;
        }
        // Internal levels in closed form, bitwise what the old bottom-up
        // compare build produced: in the reset state a node's max is 0.0
        // iff its leftmost leaf is real (left children win ties, and a left
        // subtree can never be all-padding while its right sibling holds a
        // real leaf), and its argmax is that leftmost leaf. Each level is
        // two `fill`s plus a strided iota, which vectorize; the per-node
        // compare chain did not.
        let mut w = m / 2;
        let mut span = 2usize;
        while w >= 1 {
            let k = leaves.div_ceil(span).min(w);
            self.max[w..w + k].fill(0.0);
            self.max[w + k..2 * w].fill(f64::NEG_INFINITY);
            for (i, a) in self.arg[w..2 * w].iter_mut().enumerate() {
                *a = i * span;
            }
            w /= 2;
            span *= 2;
        }
        self.pristine = true;
    }

    /// Whether the tree is in the exact `reset(n)` state (all real leaves
    /// `0.0`, no pending adds). Pristine trees take the `O(log n)` fast path
    /// in [`insert_leaf`](Self::insert_leaf) / [`remove_leaf`](Self::remove_leaf).
    #[inline]
    pub fn is_pristine(&self) -> bool {
        self.pristine
    }

    /// Whether this tree's flat layout equals the one `reset(n)` would build
    /// (same power-of-two leaf span). Range adds associate their partial sums
    /// along the node decomposition, so two trees agree *bitwise* only when
    /// their layouts match; callers that need bit-identity with a freshly
    /// built tree must check this before taking the incremental path.
    #[inline]
    pub fn layout_matches(&self, n: usize) -> bool {
        self.m == n.max(1).next_power_of_two()
    }

    /// Incremental leaf edits taken so far.
    #[inline]
    pub fn leaf_churn(&self) -> u64 {
        self.leaf_churn
    }

    /// Leaves written by fallback rebuilds of [`insert_leaf`](Self::insert_leaf)
    /// / [`remove_leaf`](Self::remove_leaf).
    #[inline]
    pub fn rebuilt_leaves(&self) -> u64 {
        self.rebuilt_leaves
    }

    /// The materialized value of every real leaf (pending ancestor adds
    /// pushed in). `O(n log n)`; used by the structural-edit fallback and by
    /// differential tests.
    pub fn leaf_values(&self) -> Vec<f64> {
        (0..self.n)
            .map(|j| {
                let mut v = self.max[self.m + j];
                let mut node = (self.m + j) >> 1;
                while node >= 1 {
                    v += self.add[node];
                    node >>= 1;
                }
                v
            })
            .collect()
    }

    /// Rebuilds the tree so that its real leaves hold exactly `values`.
    fn build_from(&mut self, values: &[f64]) {
        self.rebuilt_leaves += values.len() as u64;
        self.reset(values.len());
        for (j, &v) in values.iter().enumerate() {
            if v != 0.0 {
                self.add(j, j, v);
            }
        }
    }

    /// Inserts a `0.0` leaf at index `at`, shifting later leaves right.
    ///
    /// On a *pristine* tree whose capacity allows it this is a pure
    /// structural edit: every real leaf is zero, so inserting a zero leaf
    /// anywhere is equivalent to appending one — `O(log n)`, and the
    /// resulting state is bitwise the `reset(n + 1)` state whenever the
    /// power-of-two layout is unchanged. Otherwise (loaded tree, or the
    /// layout must grow) the tree falls back to a counted full rebuild —
    /// value-preserving in-place repair would have to push every pending add
    /// through the shifted subtrees, which *is* a rebuild.
    pub fn insert_leaf(&mut self, at: usize) {
        assert!(at <= self.n, "insert_leaf out of bounds: {at} > {}", self.n);
        self.leaf_churn += 1;
        if self.pristine {
            if self.n < self.m {
                let j = self.n;
                self.max[self.m + j] = 0.0;
                self.n += 1;
                self.pull_up((self.m + j) >> 1);
                self.pristine = true;
            } else {
                let n = self.n + 1;
                self.rebuilt_leaves += n as u64;
                self.reset(n);
            }
            return;
        }
        let mut vals = self.leaf_values();
        vals.insert(at, 0.0);
        self.build_from(&vals);
    }

    /// Removes the leaf at index `at`, shifting later leaves left. The
    /// pristine fast path mirrors [`insert_leaf`](Self::insert_leaf); as a
    /// rebuild-threshold fallback, a pristine tree that has shrunk below a
    /// quarter of its leaf span is compacted with a full (counted) rebuild.
    pub fn remove_leaf(&mut self, at: usize) {
        assert!(at < self.n, "remove_leaf out of bounds: {at} >= {}", self.n);
        self.leaf_churn += 1;
        if self.pristine {
            if self.n == 1 || (self.n - 1) * 4 < self.m {
                let n = self.n - 1;
                self.rebuilt_leaves += n as u64;
                self.reset(n);
            } else {
                let j = self.n - 1;
                self.max[self.m + j] = f64::NEG_INFINITY;
                self.n -= 1;
                self.pull_up((self.m + j) >> 1);
                self.pristine = true;
            }
            return;
        }
        let mut vals = self.leaf_values();
        vals.remove(at);
        self.build_from(&vals);
    }

    /// Number of leaves the tree was built over.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the tree has zero logical leaves.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `v` to every position in `[l, r]` (inclusive).
    pub fn add(&mut self, l: usize, r: usize, v: f64) {
        debug_assert!(l <= r && r < self.n.max(1));
        self.pristine = false;
        let mut lo = l + self.m;
        let mut hi = r + self.m + 1; // half-open [lo, hi)
        let (lseed, rseed) = (lo, hi - 1);
        while lo < hi {
            if lo & 1 == 1 {
                self.max[lo] += v;
                self.add[lo] += v;
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                self.max[hi] += v;
                self.add[hi] += v;
            }
            lo >>= 1;
            hi >>= 1;
        }
        // Re-establish `max[i] = max(children) + add[i]` on the two boundary
        // root paths; every changed node hangs off one of them.
        self.pull_up(lseed >> 1);
        self.pull_up(rseed >> 1);
    }

    #[inline]
    fn pull_up(&mut self, mut node: usize) {
        while node >= 1 {
            let (l, r) = (2 * node, 2 * node + 1);
            if self.max[l] >= self.max[r] {
                self.max[node] = self.max[l] + self.add[node];
                self.arg[node] = self.arg[l];
            } else {
                self.max[node] = self.max[r] + self.add[node];
                self.arg[node] = self.arg[r];
            }
            node >>= 1;
        }
    }

    /// The global maximum and a leaf attaining it (leftmost-biased on ties).
    #[inline]
    pub fn top(&self) -> (f64, usize) {
        (self.max[1], self.arg[1])
    }
}

/// The recursive lazy max-tree: the differential-testing reference for the
/// flat [`MaxAddTree`]. Both break argmax ties leftmost, so on scenes with
/// exact arithmetic (integer-valued adds) they agree bit for bit, argmax
/// included.
#[derive(Debug, Clone)]
pub struct RecursiveMaxAddTree {
    n: usize,
    /// Max over the subtree, *including* pending adds at this node.
    max: Vec<f64>,
    /// Pending addition to the whole subtree.
    lazy: Vec<f64>,
    /// Leaf index (within the original positions) attaining the max.
    arg: Vec<usize>,
}

impl RecursiveMaxAddTree {
    /// A tree over `n` leaves, all at `0.0`.
    pub fn new(n: usize) -> Self {
        let size = 4 * n.max(1);
        RecursiveMaxAddTree {
            n,
            max: vec![0.0; size],
            lazy: vec![0.0; size],
            arg: Self::init_args(n),
        }
    }

    fn init_args(n: usize) -> Vec<usize> {
        let size = 4 * n.max(1);
        let mut arg = vec![0usize; size];
        if n > 0 {
            Self::build(&mut arg, 1, 0, n - 1);
        }
        arg
    }

    fn build(arg: &mut [usize], node: usize, lo: usize, hi: usize) {
        if lo == hi {
            arg[node] = lo;
            return;
        }
        let mid = (lo + hi) / 2;
        Self::build(arg, node * 2, lo, mid);
        Self::build(arg, node * 2 + 1, mid + 1, hi);
        arg[node] = arg[node * 2];
    }

    /// Adds `v` to every position in `[l, r]` (inclusive).
    pub fn add(&mut self, l: usize, r: usize, v: f64) {
        debug_assert!(l <= r && r < self.n);
        self.add_rec(1, 0, self.n - 1, l, r, v);
    }

    fn add_rec(&mut self, node: usize, lo: usize, hi: usize, l: usize, r: usize, v: f64) {
        if r < lo || hi < l {
            return;
        }
        if l <= lo && hi <= r {
            self.max[node] += v;
            self.lazy[node] += v;
            return;
        }
        let mid = (lo + hi) / 2;
        self.add_rec(node * 2, lo, mid, l, r, v);
        self.add_rec(node * 2 + 1, mid + 1, hi, l, r, v);
        let (left, right) = (node * 2, node * 2 + 1);
        if self.max[left] >= self.max[right] {
            self.max[node] = self.max[left] + self.lazy[node];
            self.arg[node] = self.arg[left];
        } else {
            self.max[node] = self.max[right] + self.lazy[node];
            self.arg[node] = self.arg[right];
        }
    }

    /// The global maximum and a leaf attaining it (leftmost-biased on ties).
    pub fn top(&self) -> (f64, usize) {
        (self.max[1], self.arg[1])
    }
}

/// The burst tree as two independent [`MaxAddTree`]s, one per linear form:
/// the differential-testing reference for the fused-lane
/// [`BurstSegTree`](surge_exact::BurstSegTree) — per lane the two perform identical
/// floating-point operations, so they must agree bit for bit on every
/// `top()`, `-0.0` partial sums included.
#[derive(Debug, Clone)]
pub struct SplitBurstSegTree {
    /// `L₁ = f_c − α·f_p` — exact on the `f_c ≥ f_p` side.
    diff: MaxAddTree,
    /// `L₂ = (1 − α)·f_c` — exact on the `f_c < f_p` side.
    sig: MaxAddTree,
    /// Per-unit-weight contribution of a current rectangle to `L₁`.
    cur_diff: f64,
    /// Per-unit-weight contribution of a current rectangle to `L₂`.
    cur_sig: f64,
    /// Per-unit-weight contribution of a past rectangle to `L₁` (≤ 0).
    past_diff: f64,
}

impl SplitBurstSegTree {
    /// A tree over `n` x-leaves for the given score parameters.
    pub fn new(n: usize, params: &BurstParams) -> Self {
        SplitBurstSegTree {
            diff: MaxAddTree::new(n),
            sig: MaxAddTree::new(n),
            cur_diff: 1.0 / params.current_norm,
            cur_sig: (1.0 - params.alpha) / params.current_norm,
            past_diff: -params.alpha / params.past_norm,
        }
    }

    /// Re-initializes over `n` leaves and fresh parameters, reusing both
    /// trees' allocations.
    pub fn reset(&mut self, n: usize, params: &BurstParams) {
        self.diff.reset(n);
        self.sig.reset(n);
        self.cur_diff = 1.0 / params.current_norm;
        self.cur_sig = (1.0 - params.alpha) / params.current_norm;
        self.past_diff = -params.alpha / params.past_norm;
    }

    /// Re-zeroes both trees in place, keeping their current leaf counts and
    /// layouts (and the score parameters).
    pub fn clear_values(&mut self) {
        if !self.diff.is_pristine() {
            let n = self.diff.len();
            self.diff.reset(n);
        }
        if !self.sig.is_pristine() {
            let n = self.sig.len();
            self.sig.reset(n);
        }
    }

    /// Number of leaves both trees currently span.
    #[inline]
    pub fn len(&self) -> usize {
        self.diff.len()
    }

    /// Whether the trees span zero leaves.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.diff.is_empty()
    }

    /// Brings both (pristine) trees to exactly `n` leaves, incrementally
    /// when the power-of-two layout is unchanged.
    pub fn sync_len(&mut self, n: usize, params: &BurstParams) {
        self.cur_diff = 1.0 / params.current_norm;
        self.cur_sig = (1.0 - params.alpha) / params.current_norm;
        self.past_diff = -params.alpha / params.past_norm;
        let incremental = self.diff.is_pristine()
            && self.sig.is_pristine()
            && self.diff.layout_matches(n)
            && self.sig.layout_matches(n)
            && self.sig.len() == self.diff.len();
        if !incremental {
            self.diff.reset(n);
            self.sig.reset(n);
            return;
        }
        while self.diff.len() < n {
            let at = self.diff.len();
            self.diff.insert_leaf(at);
            self.sig.insert_leaf(at);
        }
        while self.diff.len() > n {
            let at = self.diff.len() - 1;
            self.diff.remove_leaf(at);
            self.sig.remove_leaf(at);
        }
    }

    /// Incremental leaf edits both trees have taken.
    #[inline]
    pub fn leaf_churn(&self) -> u64 {
        self.diff.leaf_churn() + self.sig.leaf_churn()
    }

    /// Applies a rectangle of `weight` and window `kind` entering
    /// (`sign = 1.0`) or leaving (`sign = -1.0`) the sweep front over leaf
    /// range `[l, r]`.
    pub fn apply(&mut self, l: usize, r: usize, weight: f64, kind: WindowKind, sign: f64) {
        let w = weight * sign;
        match kind {
            WindowKind::Current => {
                self.diff.add(l, r, w * self.cur_diff);
                self.sig.add(l, r, w * self.cur_sig);
            }
            WindowKind::Past => {
                self.diff.add(l, r, w * self.past_diff);
            }
        }
    }

    /// The maximum burst score over all leaves at the current sweep height,
    /// and a leaf attaining it.
    pub fn top(&self) -> (f64, usize) {
        let (d, di) = self.diff.top();
        let (s, si) = self.sig.top();
        if d >= s {
            (d, di)
        } else {
            (s, si)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_exact::BurstSegTree;

    #[test]
    fn max_add_tree_basic_ranges() {
        let mut t = MaxAddTree::new(8);
        t.add(0, 7, 1.0);
        assert_eq!(t.top().0, 1.0);
        t.add(2, 4, 2.0);
        let (m, a) = t.top();
        assert_eq!(m, 3.0);
        assert!((2..=4).contains(&a));
        t.add(2, 4, -2.0);
        assert_eq!(t.top().0, 1.0);
    }

    #[test]
    fn max_add_tree_argmax_is_leftmost_on_tie() {
        let mut t = MaxAddTree::new(5);
        t.add(1, 1, 2.0);
        t.add(3, 3, 2.0);
        assert_eq!(t.top(), (2.0, 1));
    }

    #[test]
    fn max_add_tree_single_leaf() {
        let mut t = MaxAddTree::new(1);
        t.add(0, 0, 4.5);
        assert_eq!(t.top(), (4.5, 0));
    }

    #[test]
    fn negative_adds_expose_uncovered_leaves() {
        let mut t = MaxAddTree::new(4);
        t.add(0, 3, -1.0);
        t.add(1, 2, 5.0);
        assert_eq!(t.top().0, 4.0);
    }

    #[test]
    fn all_negative_leaves_beat_padding() {
        // Non-power-of-two leaf count: the padding leaves hold −∞ and must
        // never surface even when every real leaf goes negative.
        let mut t = MaxAddTree::new(5);
        t.add(0, 4, -3.0);
        t.add(2, 2, 1.0);
        assert_eq!(t.top(), (-2.0, 2));
        t.add(2, 2, -1.0);
        let (m, a) = t.top();
        assert_eq!(m, -3.0);
        assert!(a < 5, "padding leaf leaked: {a}");
    }

    #[test]
    fn reset_reuses_allocation_and_clears_state() {
        let mut t = MaxAddTree::new(16);
        t.add(3, 12, 9.0);
        t.reset(16);
        assert_eq!(t.top(), (0.0, 0));
        t.add(5, 5, 1.0);
        assert_eq!(t.top(), (1.0, 5));
        // Shrinking and regrowing keeps leaves clean.
        t.reset(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.top(), (0.0, 0));
        t.reset(31);
        assert_eq!(t.top(), (0.0, 0));
        t.add(30, 30, 2.0);
        assert_eq!(t.top(), (2.0, 30));
    }

    #[test]
    fn flat_matches_recursive_exactly_on_integer_scenes() {
        // Deterministic integer-valued interval adds: arithmetic is exact,
        // so flat and recursive trees must agree bitwise, argmax included.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in [1usize, 2, 3, 7, 8, 17, 64, 100] {
            let mut flat = MaxAddTree::new(n);
            let mut rec = RecursiveMaxAddTree::new(n);
            for _ in 0..200 {
                let a = (next() as usize) % n;
                let b = (next() as usize) % n;
                let (l, r) = (a.min(b), a.max(b));
                let v = (next() % 21) as f64 - 10.0;
                flat.add(l, r, v);
                rec.add(l, r, v);
                let (fm, fa) = flat.top();
                let (rm, ra) = rec.top();
                assert_eq!(fm.to_bits(), rm.to_bits(), "n={n} max mismatch");
                assert_eq!(fa, ra, "n={n} argmax mismatch");
            }
        }
    }

    #[test]
    fn fused_lanes_match_split_pair_bitwise() {
        // Randomized apply/clear/sync churn: the fused-lane tree and the
        // split two-tree reference must agree bit for bit on every top(),
        // across α (including α = 1, whose cur_sig = 0.0 makes -0.0 sig
        // deltas reachable) and across non-power-of-two sizes.
        let mut state = 0x0DDB_A11C_0FFE_E000u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for alpha in [0.0, 0.3, 0.7, 1.0] {
            let p = BurstParams {
                alpha,
                current_norm: 3.0,
                past_norm: 7.0,
            };
            let mut n = 1 + (next() as usize) % 50;
            let mut fused = BurstSegTree::new(n, &p);
            let mut split = SplitBurstSegTree::new(n, &p);
            for step in 0..400 {
                if step % 37 == 36 {
                    // Occasionally clear + resize like the persistent path.
                    n = 1 + (next() as usize) % 50;
                    fused.clear_values();
                    split.clear_values();
                    fused.sync_len(n, &p);
                    split.sync_len(n, &p);
                    assert_eq!(fused.leaf_churn(), split.leaf_churn(), "churn accounting");
                }
                let a = (next() as usize) % n;
                let b = (next() as usize) % n;
                let (l, r) = (a.min(b), a.max(b));
                let w = (next() % 9) as f64 + 1.0;
                let kind = if next() % 3 == 0 {
                    WindowKind::Past
                } else {
                    WindowKind::Current
                };
                let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
                fused.apply(l, r, w, kind, sign);
                split.apply(l, r, w, kind, sign);
                let (fm, fa) = fused.top();
                let (sm, sa) = split.top();
                assert_eq!(fm.to_bits(), sm.to_bits(), "α={alpha} n={n} max bits");
                assert_eq!(fa, sa, "α={alpha} n={n} argmax");
            }
        }
    }
}
