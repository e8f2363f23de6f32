//! Reference segment trees for the trees in [`surge_exact::segtree`]: a
//! recursive lazy max-tree against the flat [`MaxAddTree`], and a split
//! two-tree burst tree against the fused-lane
//! [`BurstSegTree`](surge_exact::BurstSegTree). Differential tests and
//! `surge_exp sweep-bench` compare the production trees with these bit for
//! bit.

use surge_core::{BurstParams, WindowKind};
use surge_exact::MaxAddTree;

/// The recursive lazy max-tree: the differential-testing reference and
/// micro-benchmark baseline for the flat [`MaxAddTree`]. Both break argmax
/// ties leftmost, so on scenes with exact arithmetic (integer-valued adds)
/// they agree bit for bit, argmax included.
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
/// the differential-testing reference and micro-benchmark baseline for the
/// fused-lane [`BurstSegTree`](surge_exact::BurstSegTree) — per lane the two perform identical
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
