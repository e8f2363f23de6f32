//! The paper's direct `O(n²)` SL-CSPOT sweep (Algorithm 1): the reference
//! the production `O(n log n)` segment-tree sweep
//! ([`surge_exact::sl_cspot`]) is differentially tested and benchmarked
//! against. It evaluates the burst score at every slab × interval
//! evaluation position — every distinct edge coordinate plus the midpoint
//! of every open interval between neighbours, on both axes — so it shares
//! no tree code with the production sweep.

use surge_core::{BurstParams, Point, Rect, TotalF64, WindowKind};
use surge_exact::{SweepRect, SweepResult};

/// Every distinct edge coordinate (deduplicated under `total_cmp`, so
/// `-0.0` and `+0.0` stay distinct and findable) plus the midpoint of every
/// open interval between neighbours, ascending.
fn eval_positions(mut edges: Vec<f64>) -> Vec<f64> {
    edges.sort_by(f64::total_cmp);
    edges.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
    let mut out = Vec::with_capacity(edges.len().saturating_mul(2));
    for (i, &e) in edges.iter().enumerate() {
        if i > 0 {
            let prev = edges[i - 1];
            let mid = prev + (e - prev) / 2.0;
            // Degenerate gaps produce a midpoint equal to an endpoint.
            if mid > prev && mid < e {
                out.push(mid);
            }
        }
        out.push(e);
    }
    out
}

/// Finds a point with the maximum burst score among `rects`, restricted to
/// the closed `area` — the [`surge_exact::sl_cspot`] contract, by direct
/// enumeration. Returns `None` iff no rectangle intersects `area`.
pub fn sl_cspot_naive(
    rects: &[SweepRect],
    area: &Rect,
    params: &BurstParams,
) -> Option<SweepResult> {
    let clipped: Vec<SweepRect> = rects
        .iter()
        .filter_map(|r| {
            r.rect
                .intersection(area)
                .map(|c| SweepRect { rect: c, ..*r })
        })
        .collect();
    if clipped.is_empty() {
        return None;
    }
    // X axis: evaluation positions and, per rectangle, the covered index
    // range (inclusive). Positions include each rectangle's own edges, so
    // binary search by total order is exact.
    let xs = eval_positions(
        clipped
            .iter()
            .flat_map(|r| [r.rect.x0, r.rect.x1])
            .collect(),
    );
    let x_index = |v: f64| -> usize {
        xs.binary_search_by(|p| p.total_cmp(&v))
            .expect("rect edge must be an evaluation position")
    };
    let ranges: Vec<(usize, usize)> = clipped
        .iter()
        .map(|r| (x_index(r.rect.x0), x_index(r.rect.x1)))
        .collect();

    // Y axis: evaluation positions, descending.
    let mut ys = eval_positions(
        clipped
            .iter()
            .flat_map(|r| [r.rect.y0, r.rect.y1])
            .collect(),
    );
    ys.reverse();

    // Enter order: by top edge descending; exit order: by bottom edge
    // descending. A rectangle is active at evaluation height `y` iff
    // `y0 ≤ y ≤ y1`.
    let mut enter: Vec<usize> = (0..clipped.len()).collect();
    enter.sort_by(|&a, &b| clipped[b].rect.y1.total_cmp(&clipped[a].rect.y1));
    let mut exit: Vec<usize> = (0..clipped.len()).collect();
    exit.sort_by(|&a, &b| clipped[b].rect.y0.total_cmp(&clipped[a].rect.y0));

    let mut acc_wc = vec![0.0f64; xs.len()];
    let mut acc_wp = vec![0.0f64; xs.len()];
    let apply = |acc_wc: &mut [f64], acc_wp: &mut [f64], idx: usize, sign: f64| {
        let (lo, hi) = ranges[idx];
        let w = clipped[idx].weight * sign;
        match clipped[idx].kind {
            WindowKind::Current => {
                for a in &mut acc_wc[lo..=hi] {
                    *a += w;
                }
            }
            WindowKind::Past => {
                for a in &mut acc_wp[lo..=hi] {
                    *a += w;
                }
            }
        }
    };

    let mut next_enter = 0usize;
    let mut next_exit = 0usize;
    let mut best: Option<(TotalF64, Point, f64, f64)> = None;

    for &y in &ys {
        while next_enter < enter.len() && clipped[enter[next_enter]].rect.y1 >= y {
            apply(&mut acc_wc, &mut acc_wp, enter[next_enter], 1.0);
            next_enter += 1;
        }
        while next_exit < exit.len() && clipped[exit[next_exit]].rect.y0 > y {
            apply(&mut acc_wc, &mut acc_wp, exit[next_exit], -1.0);
            next_exit += 1;
        }
        for (i, &x) in xs.iter().enumerate() {
            let score = params.score_weights(acc_wc[i], acc_wp[i]);
            let key = TotalF64(score);
            if best.is_none_or(|(b, _, _, _)| key > b) {
                best = Some((key, Point::new(x, y), acc_wc[i], acc_wp[i]));
            }
        }
    }

    best.map(|(score, point, wc, wp)| SweepResult {
        point,
        score: score.get(),
        wc,
        wp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_exact::sl_cspot;

    fn params(alpha: f64) -> BurstParams {
        BurstParams {
            alpha,
            current_norm: 1.0,
            past_norm: 1.0,
        }
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64, w: f64, kind: WindowKind) -> SweepRect {
        SweepRect {
            rect: Rect::new(x0, y0, x1, y1),
            weight: w,
            kind,
        }
    }

    const AREA: Rect = Rect {
        x0: -100.0,
        y0: -100.0,
        x1: 100.0,
        y1: 100.0,
    };

    #[test]
    fn naive_returns_none_without_rects_in_the_area() {
        assert_eq!(sl_cspot_naive(&[], &AREA, &params(0.5)), None);
        let outside = rect(200.0, 200.0, 201.0, 201.0, 1.0, WindowKind::Current);
        assert_eq!(sl_cspot_naive(&[outside], &AREA, &params(0.5)), None);
    }

    #[test]
    fn naive_matches_segtree_on_negative_zero_edges() {
        // -0.0 and +0.0 are equal under `==` but distinct under `total_cmp`;
        // a dedup/search mismatch used to panic the index lookup.
        let rects = [
            rect(-0.0, -0.0, 1.0, 1.0, 1.0, WindowKind::Current),
            rect(0.0, 0.0, 2.0, 1.0, 2.0, WindowKind::Current),
            rect(-0.0, 0.0, 1.0, 2.0, 1.0, WindowKind::Past),
        ];
        for alpha in [0.0, 0.5] {
            let p = params(alpha);
            let fast = sl_cspot(&rects, &AREA, &p).unwrap();
            let naive = sl_cspot_naive(&rects, &AREA, &p).unwrap();
            assert!((fast.score - naive.score).abs() < 1e-12);
        }
    }
}
