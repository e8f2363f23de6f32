//! SL-CSPOT: sweep-line bursty-point detection on a snapshot (Algorithm 1).
//!
//! Given a set of rectangle objects tagged with their window (current or
//! past), find a point in a search area with the maximum burst score.
//!
//! The burst score is **not** monotone — a past-window rectangle *lowers*
//! the score of the points it covers — so the maximum can be attained
//! strictly inside a slab or interval that a past rectangle merely touches.
//! Along each axis the covering set of a point changes only at edge
//! coordinates, and between two consecutive edge coordinates it is constant,
//! so it suffices to examine every edge coordinate **and** one
//! representative (the midpoint) of every open interval between neighbours.
//!
//! [`sl_cspot`] decomposes the burst score into a pointwise max of two
//! linear forms and maintains each with a lazily-propagated max segment
//! tree over the x-leaves ([`crate::segtree`]), applying every rectangle as
//! one `O(log n)` range add/remove per y-event: `O(n log n)` total, exact
//! for every `α`. The paper's direct `O(n²)` midpoint enumeration lives in
//! `surge-testkit` as the differential-testing reference.

use surge_core::{BurstParams, Point, Rect, TotalF64, WindowKind};

use crate::segtree::BurstSegTree;

/// Reusable scratch space for [`sl_cspot_with`]: every buffer the sweep
/// needs — clipped rectangles, evaluation coordinates, per-rectangle leaf
/// ranges, enter/exit orders, and the two-form segment tree itself — lives
/// here and is recycled across sweeps, so a long-lived owner (a detector, or
/// one shard worker) allocates once and sweeps forever.
///
/// [`sl_cspot`] is the convenience wrapper that builds a fresh arena per
/// call; hot paths (dirty-cell sweeps, per-event searches) hold one arena
/// per thread of execution.
#[derive(Debug)]
pub struct SweepArena {
    clipped: Vec<SweepRect>,
    edges: Vec<f64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ranges: Vec<(usize, usize)>,
    enter: Vec<usize>,
    exit: Vec<usize>,
    tree: BurstSegTree,
}

impl SweepArena {
    /// An empty arena; buffers grow to the largest sweep they serve.
    pub fn new() -> Self {
        SweepArena {
            clipped: Vec::new(),
            edges: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            ranges: Vec::new(),
            enter: Vec::new(),
            exit: Vec::new(),
            tree: BurstSegTree::new(
                0,
                &BurstParams {
                    alpha: 0.0,
                    current_norm: 1.0,
                    past_norm: 1.0,
                },
            ),
        }
    }
}

impl Default for SweepArena {
    fn default() -> Self {
        Self::new()
    }
}

/// A rectangle participating in a sweep, tagged with its window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRect {
    /// Extent of the rectangle (already in world coordinates).
    pub rect: Rect,
    /// Object weight.
    pub weight: f64,
    /// Which window the originating object currently occupies.
    pub kind: WindowKind,
}

/// The best point found by a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepResult {
    /// A point attaining the maximum burst score in the search area.
    pub point: Point,
    /// The burst score at `point`.
    pub score: f64,
    /// Raw current-window weight sum at `point` (unnormalized).
    pub wc: f64,
    /// Raw past-window weight sum at `point` (unnormalized).
    pub wp: f64,
}

/// Builds the evaluation coordinates for one axis into `out`: every distinct
/// edge coordinate plus the midpoint of every open interval between
/// neighbours. `edges` is caller-filled scratch; both vectors come from the
/// arena.
fn eval_positions_into(edges: &mut Vec<f64>, out: &mut Vec<f64>) {
    edges.sort_by(f64::total_cmp);
    // Dedup under the same total order the index lookups use: `dedup()`'s
    // `==` would merge -0.0 with +0.0, leaving an edge that the later
    // `binary_search_by(total_cmp)` could no longer find.
    edges.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
    out.clear();
    out.reserve(edges.len().saturating_mul(2).saturating_sub(1));
    for (i, &e) in edges.iter().enumerate() {
        if i > 0 {
            let prev = edges[i - 1];
            let mid = prev + (e - prev) / 2.0;
            // Degenerate gaps (adjacent equal-after-rounding coords) produce
            // a midpoint equal to an endpoint; skip those.
            if mid > prev && mid < e {
                out.push(mid);
            }
        }
        out.push(e);
    }
}

/// Finds a point with the maximum burst score among `rects`, restricted to
/// the closed `area`. Returns `None` iff no rectangle intersects `area`
/// (every point then scores 0 and no point is distinguished).
///
/// `area` may be empty in one dimension (a segment) but must satisfy
/// `x0 ≤ x1`, `y0 ≤ y1`.
///
/// Runs in `O(n log n)` via the two-form segment-tree sweep (see
/// [`crate::segtree`] for why range-add max handles the non-monotone burst
/// score exactly). The returned score and window sums are re-evaluated
/// exhaustively at the winning point, so they are exact regardless of any
/// floating-point drift the incremental tree accumulates.
pub fn sl_cspot(rects: &[SweepRect], area: &Rect, params: &BurstParams) -> Option<SweepResult> {
    sl_cspot_with(&mut SweepArena::new(), rects, area, params)
}

/// [`sl_cspot`] over caller-owned scratch space: identical results, zero
/// steady-state allocation. Detectors and shard workers keep one
/// [`SweepArena`] per thread of execution and route every sweep through it.
pub fn sl_cspot_with(
    arena: &mut SweepArena,
    rects: &[SweepRect],
    area: &Rect,
    params: &BurstParams,
) -> Option<SweepResult> {
    let SweepArena {
        clipped,
        edges,
        xs,
        ys,
        ranges,
        enter,
        exit,
        tree,
    } = arena;

    clipped.clear();
    for r in rects {
        if let Some(c) = r.rect.intersection(area) {
            clipped.push(SweepRect { rect: c, ..*r });
        }
    }
    if clipped.is_empty() {
        return None;
    }

    // X axis: the tree's leaves, one per distinct coverage pattern (edges
    // and open-interval midpoints). Rectangle i covers the inclusive leaf
    // range [index(x0_i), index(x1_i)]: exactly the leaves whose position
    // lies inside the closed rectangle.
    edges.clear();
    edges.extend(clipped.iter().flat_map(|r| [r.rect.x0, r.rect.x1]));
    eval_positions_into(edges, xs);
    let x_index = |xs: &[f64], v: f64| -> usize {
        xs.binary_search_by(|p| p.total_cmp(&v))
            .expect("rect edge must be an evaluation position")
    };
    ranges.clear();
    ranges.extend(
        clipped
            .iter()
            .map(|r| (x_index(xs, r.rect.x0), x_index(xs, r.rect.x1))),
    );

    // Y axis: evaluation heights (ascending; the core iterates them top
    // down); a rectangle is active at height y iff y0 ≤ y ≤ y1 (closed
    // extents).
    edges.clear();
    edges.extend(clipped.iter().flat_map(|r| [r.rect.y0, r.rect.y1]));
    eval_positions_into(edges, ys);
    enter.clear();
    enter.extend(0..clipped.len());
    enter.sort_by(|&a, &b| clipped[b].rect.y1.total_cmp(&clipped[a].rect.y1));
    exit.clear();
    exit.extend(0..clipped.len());
    exit.sort_by(|&a, &b| clipped[b].rect.y0.total_cmp(&clipped[a].rect.y0));

    tree.reset(xs.len(), params);
    sweep_core(clipped, xs, ys, ranges, enter, exit, tree, params)
}

/// The sweep loop shared by the from-scratch path ([`sl_cspot_with`]) and
/// the persistent cross-sweep path ([`crate::psweep::PersistentCellSweep`]):
/// both build the identical inputs and route through this one function, so
/// their results are bit-identical by construction.
///
/// Inputs:
/// * `clipped` — the rectangles already clipped to the search area, in a
///   deterministic order (range adds and the final exact re-scoring follow
///   this order, so it is part of the bit-identity contract);
/// * `xs` — the x evaluation positions (ascending, edges + midpoints);
/// * `ys` — the y evaluation positions (ascending; iterated descending);
/// * `ranges[i]` — the inclusive leaf range rectangle `i` covers;
/// * `enter` / `exit` — indices into `clipped` sorted by top edge / bottom
///   edge descending, ties by index ascending;
/// * `tree` — already reset/synced to `xs.len()` leaves with all-zero state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_core(
    clipped: &[SweepRect],
    xs: &[f64],
    ys: &[f64],
    ranges: &[(usize, usize)],
    enter: &[usize],
    exit: &[usize],
    tree: &mut BurstSegTree,
    params: &BurstParams,
) -> Option<SweepResult> {
    debug_assert_eq!(tree.len(), xs.len());
    let mut next_enter = 0usize;
    let mut next_exit = 0usize;
    let mut best: Option<(TotalF64, usize, f64)> = None;

    for &y in ys.iter().rev() {
        while next_enter < enter.len() && clipped[enter[next_enter]].rect.y1 >= y {
            let i = enter[next_enter];
            let (lo, hi) = ranges[i];
            tree.apply(lo, hi, clipped[i].weight, clipped[i].kind, 1.0);
            next_enter += 1;
        }
        while next_exit < exit.len() && clipped[exit[next_exit]].rect.y0 > y {
            let i = exit[next_exit];
            let (lo, hi) = ranges[i];
            tree.apply(lo, hi, clipped[i].weight, clipped[i].kind, -1.0);
            next_exit += 1;
        }
        let (m, leaf) = tree.top();
        let key = TotalF64(m);
        if best.is_none_or(|(b, _, _)| key > b) {
            best = Some((key, leaf, y));
        }
    }

    let (_, leaf, y) = best?;
    let point = Point::new(xs[leaf], y);
    // Exact re-evaluation at the winning point: the incremental tree sums
    // carry rounding from interleaved adds/removes; the coverage pattern it
    // identified is what matters, the score is recomputed from scratch.
    Some(score_at_point(clipped, point, params))
}

/// Exhaustively scores `point` against a rectangle set — the O(n) reference
/// used by tests and by candidate-point bookkeeping.
pub fn score_at_point(rects: &[SweepRect], point: Point, params: &BurstParams) -> SweepResult {
    let mut wc = 0.0;
    let mut wp = 0.0;
    for r in rects {
        if r.rect.contains(point) {
            match r.kind {
                WindowKind::Current => wc += r.weight,
                WindowKind::Past => wp += r.weight,
            }
        }
    }
    SweepResult {
        point,
        score: params.score_weights(wc, wp),
        wc,
        wp,
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

    fn cur(x0: f64, y0: f64, x1: f64, y1: f64, w: f64) -> SweepRect {
        SweepRect {
            rect: Rect::new(x0, y0, x1, y1),
            weight: w,
            kind: WindowKind::Current,
        }
    }

    fn past(x0: f64, y0: f64, x1: f64, y1: f64, w: f64) -> SweepRect {
        SweepRect {
            rect: Rect::new(x0, y0, x1, y1),
            weight: w,
            kind: WindowKind::Past,
        }
    }

    const AREA: Rect = Rect {
        x0: -100.0,
        y0: -100.0,
        x1: 100.0,
        y1: 100.0,
    };

    /// Brute-force oracle: evaluate the burst score on a dense lattice plus
    /// all edge coordinates (tests keep scenes small).
    fn brute_force(rects: &[SweepRect], area: &Rect, p: &BurstParams) -> f64 {
        let mut coords_x: Vec<f64> = rects
            .iter()
            .flat_map(|r| [r.rect.x0, r.rect.x1])
            .filter(|v| (area.x0..=area.x1).contains(v))
            .collect();
        let mut coords_y: Vec<f64> = rects
            .iter()
            .flat_map(|r| [r.rect.y0, r.rect.y1])
            .filter(|v| (area.y0..=area.y1).contains(v))
            .collect();
        coords_x.sort_by(f64::total_cmp);
        coords_y.sort_by(f64::total_cmp);
        let mut xs = coords_x.clone();
        for w in coords_x.windows(2) {
            xs.push((w[0] + w[1]) / 2.0);
        }
        let mut ys = coords_y.clone();
        for w in coords_y.windows(2) {
            ys.push((w[0] + w[1]) / 2.0);
        }
        let mut best = f64::NEG_INFINITY;
        for &x in &xs {
            for &y in &ys {
                let r = score_at_point(rects, Point::new(x, y), p);
                best = best.max(r.score);
            }
        }
        best
    }

    #[test]
    fn empty_input_returns_none() {
        assert_eq!(sl_cspot(&[], &AREA, &params(0.5)), None);
    }

    #[test]
    fn rect_outside_area_returns_none() {
        let r = cur(200.0, 200.0, 201.0, 201.0, 1.0);
        assert_eq!(sl_cspot(&[r], &AREA, &params(0.5)), None);
    }

    #[test]
    fn single_current_rect() {
        let r = cur(0.0, 0.0, 2.0, 1.0, 3.0);
        let res = sl_cspot(&[r], &AREA, &params(0.5)).unwrap();
        assert!((res.score - 3.0).abs() < 1e-12);
        assert!(r.rect.contains(res.point));
        assert_eq!(res.wc, 3.0);
        assert_eq!(res.wp, 0.0);
    }

    #[test]
    fn paper_example3_three_overlapping_unit_rects() {
        // Figure 2 / Example 3: three unit-weight current rectangles with a
        // common intersection; the bursty point scores 3.
        let rects = [
            cur(0.0, 0.0, 2.0, 2.0, 1.0),
            cur(1.0, 0.5, 3.0, 2.5, 1.0),
            cur(0.5, 1.0, 2.5, 3.0, 1.0),
        ];
        let res = sl_cspot(&rects, &AREA, &params(0.5)).unwrap();
        assert!((res.score - 3.0).abs() < 1e-12);
        for r in &rects {
            assert!(r.rect.contains(res.point), "point not in {:?}", r.rect);
        }
    }

    #[test]
    fn past_rect_alone_scores_zero() {
        let r = past(0.0, 0.0, 1.0, 1.0, 5.0);
        let res = sl_cspot(&[r], &AREA, &params(0.5)).unwrap();
        assert_eq!(res.score, 0.0);
    }

    #[test]
    fn optimum_avoids_past_rectangle() {
        // One big current rect; a past rect covering its left half. The best
        // point must sit in the right half (outside the past rect).
        let c = cur(0.0, 0.0, 4.0, 2.0, 2.0);
        let p = past(-1.0, -1.0, 2.0, 3.0, 2.0);
        let res = sl_cspot(&[c, p], &AREA, &params(0.5)).unwrap();
        // In the right half: fc=2, fp=0 -> S = 2. In the left: S = 1.
        assert!((res.score - 2.0).abs() < 1e-12);
        assert!(
            res.point.x > 2.0,
            "point {:?} should avoid past rect",
            res.point
        );
    }

    #[test]
    fn optimum_in_open_slab_interior_requires_midpoint_eval() {
        // A past rectangle whose top edge coincides with the interior of a
        // current rectangle: points ON the shared edge are covered by both;
        // points just above are covered only by the current one. The optimum
        // lies strictly inside the slab above the past rect's top edge.
        let c = cur(0.0, 0.0, 4.0, 4.0, 1.0);
        let p = past(0.0, 0.0, 4.0, 2.0, 1.0);
        let res = sl_cspot(&[c, p], &AREA, &params(0.5)).unwrap();
        // Above the past rect: fc=1, fp=0 -> S = 1. On/below: S = 0.5.
        assert!((res.score - 1.0).abs() < 1e-12);
        assert!(res.point.y > 2.0);
    }

    #[test]
    fn degenerate_edge_touch_is_covered() {
        // Two current rects sharing only the line x=2. Max coverage is ON the
        // shared edge (score 2); slabs on either side only score 1.
        let a = cur(0.0, 0.0, 2.0, 2.0, 1.0);
        let b = cur(2.0, 0.0, 4.0, 2.0, 1.0);
        let res = sl_cspot(&[a, b], &AREA, &params(0.0)).unwrap();
        assert!((res.score - 2.0).abs() < 1e-12);
        assert_eq!(res.point.x, 2.0);
    }

    #[test]
    fn corner_touch_counts_both() {
        let a = cur(0.0, 0.0, 1.0, 1.0, 1.0);
        let b = cur(1.0, 1.0, 2.0, 2.0, 1.0);
        let res = sl_cspot(&[a, b], &AREA, &params(0.0)).unwrap();
        assert!((res.score - 2.0).abs() < 1e-12);
        assert_eq!(res.point, Point::new(1.0, 1.0));
    }

    #[test]
    fn area_clipping_restricts_search() {
        // Best overlap at x in [4,5] lies outside the area; inside, only a
        // single rect is reachable.
        let a = cur(0.0, 0.0, 5.0, 1.0, 1.0);
        let b = cur(4.0, 0.0, 6.0, 1.0, 10.0);
        let area = Rect::new(0.0, 0.0, 3.0, 1.0);
        let res = sl_cspot(&[a, b], &area, &params(0.0)).unwrap();
        assert!((res.score - 1.0).abs() < 1e-12);
        assert!(area.contains(res.point));
    }

    #[test]
    fn figure3_like_scene_past_and_current_mix() {
        // Inspired by Figure 3: g1 past w=3, g2 current w=1, g3 current w=2,
        // |Wc|=|Wp|=1, alpha=0.5. Best point is covered by g2 and g3 only:
        // S = 0.5*max(3-0,0) + 0.5*3 = 3.
        let g1 = past(0.0, 0.0, 5.0, 3.0, 3.0);
        let g2 = cur(4.0, 2.0, 8.0, 6.0, 1.0);
        let g3 = cur(4.5, 2.5, 9.0, 7.0, 2.0);
        let res = sl_cspot(&[g1, g2, g3], &AREA, &params(0.5)).unwrap();
        assert!((res.score - 3.0).abs() < 1e-12, "score {}", res.score);
        // and the point avoids g1
        assert!(!g1.rect.contains(res.point));
    }

    #[test]
    fn alpha_weighting_balances_terms() {
        // fc=1,fp=0 point vs fc=2,fp=3 point: with alpha=0 the heavier
        // current coverage wins; with high alpha the clean burst wins.
        let clean = cur(0.0, 0.0, 1.0, 1.0, 1.0);
        let heavy1 = cur(5.0, 0.0, 6.0, 1.0, 1.0);
        let heavy2 = cur(5.0, 0.0, 6.0, 1.0, 1.0);
        let drag = past(5.0, 0.0, 6.0, 1.0, 3.0);
        let rects = [clean, heavy1, heavy2, drag];
        let r0 = sl_cspot(&rects, &AREA, &params(0.0)).unwrap();
        assert!((r0.score - 2.0).abs() < 1e-12);
        assert!(r0.point.x >= 5.0);
        let r9 = sl_cspot(&rects, &AREA, &params(0.9)).unwrap();
        // clean: 0.9*1 + 0.1*1 = 1.0 ; heavy: 0.9*0 + 0.1*2 = 0.2
        assert!((r9.score - 1.0).abs() < 1e-12);
        assert!(r9.point.x <= 1.0);
    }

    #[test]
    fn matches_brute_force_on_pseudorandom_scenes() {
        // Deterministic pseudo-random scenes (LCG) across several alphas.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64) // [0, 4)
        };
        for scene in 0..30 {
            let n = 2 + (scene % 7);
            let rects: Vec<SweepRect> = (0..n)
                .map(|i| {
                    let x0 = next();
                    let y0 = next();
                    let w = 1.0 + (next() / 2.0).floor(); // integer-ish weights
                    let r = Rect::new(x0, y0, x0 + 0.5 + next() / 4.0, y0 + 0.5 + next() / 4.0);
                    SweepRect {
                        rect: r,
                        weight: w,
                        kind: if i % 3 == 0 {
                            WindowKind::Past
                        } else {
                            WindowKind::Current
                        },
                    }
                })
                .collect();
            for alpha in [0.0, 0.3, 0.7] {
                let p = params(alpha);
                let got = sl_cspot(&rects, &AREA, &p).unwrap();
                let want = brute_force(&rects, &AREA, &p);
                assert!(
                    (got.score - want).abs() < 1e-9,
                    "scene {scene} alpha {alpha}: got {} want {}",
                    got.score,
                    want
                );
                // The returned point's score must equal the reported score.
                let check = score_at_point(&rects, got.point, &p);
                assert!((check.score - got.score).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn negative_zero_edges_do_not_panic() {
        // -0.0 and +0.0 are equal under `==` but distinct under `total_cmp`;
        // a dedup/search mismatch used to panic the index lookup.
        let rects = [
            cur(-0.0, -0.0, 1.0, 1.0, 1.0),
            cur(0.0, 0.0, 2.0, 1.0, 2.0),
            past(-0.0, 0.0, 1.0, 2.0, 1.0),
        ];
        for alpha in [0.0, 0.5] {
            let p = params(alpha);
            let fast = sl_cspot(&rects, &AREA, &p).unwrap();
            let want = brute_force(&rects, &AREA, &p);
            assert!((fast.score - want).abs() < 1e-12);
        }
    }

    #[test]
    fn score_at_point_counts_boundaries() {
        let rects = [cur(0.0, 0.0, 1.0, 1.0, 2.0), past(1.0, 1.0, 2.0, 2.0, 3.0)];
        let r = score_at_point(&rects, Point::new(1.0, 1.0), &params(0.5));
        assert_eq!(r.wc, 2.0);
        assert_eq!(r.wp, 3.0);
    }
}
