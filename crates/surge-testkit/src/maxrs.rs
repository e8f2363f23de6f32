//! Fast MaxRS sweep for the α = 0 special case.
//!
//! With α = 0 the burst score degenerates to `S(p) = f(p, W_c)` — the
//! classic **maximizing range sum** objective (Nandy & Bhattacharya 1995;
//! Choi et al. 2012): past-window rectangles contribute nothing and the
//! score is a pure sum of covered current weights. Sums are decomposable, so
//! the interval maximum can be maintained by the lazy segment tree
//! ([`MaxAddTree`]) over a single linear form, skipping the
//! general sweep's second tree and midpoint machinery.
//!
//! No detector runs it: detectors stay on the general sweep (correct for
//! every α). It is the α = 0 reference the tests below pin to `sl_cspot`.

use surge_core::{BurstParams, Point, Rect, WindowKind};

use surge_exact::{SweepRect, SweepResult};

use crate::MaxAddTree;

/// Finds a point maximizing the current-window weight sum (the α = 0 burst
/// score) among `rects` clipped to `area`. Past-window rectangles are
/// ignored (they cannot affect the α = 0 score). Returns `None` iff no
/// current-window rectangle intersects `area`.
pub fn maxrs_sweep(rects: &[SweepRect], area: &Rect, params: &BurstParams) -> Option<SweepResult> {
    let mut clipped: Vec<Rect> = Vec::with_capacity(rects.len());
    let mut weights: Vec<f64> = Vec::with_capacity(rects.len());
    for r in rects {
        if r.kind == WindowKind::Current {
            if let Some(c) = r.rect.intersection(area) {
                clipped.push(c);
                weights.push(r.weight);
            }
        }
    }
    if clipped.is_empty() {
        return None;
    }

    // Interval positions: distinct x edges (closed rectangles make every
    // edge coordinate a candidate; with monotone sums, slab interiors can
    // never beat the richer edge coordinates, so midpoints are unnecessary).
    let mut xs: Vec<f64> = clipped.iter().flat_map(|r| [r.x0, r.x1]).collect();
    xs.sort_by(f64::total_cmp);
    // Dedup under total order so -0.0 stays findable by the binary search.
    xs.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
    let x_index = |v: f64| -> usize {
        xs.binary_search_by(|p| p.total_cmp(&v))
            .expect("edge indexed")
    };

    // Sweep top-down over y edges; rectangle i is active for y ∈ [y0, y1].
    let mut enter: Vec<usize> = (0..clipped.len()).collect();
    enter.sort_by(|&a, &b| clipped[b].y1.total_cmp(&clipped[a].y1));
    let mut exit: Vec<usize> = (0..clipped.len()).collect();
    exit.sort_by(|&a, &b| clipped[b].y0.total_cmp(&clipped[a].y0));
    let mut ys: Vec<f64> = clipped.iter().flat_map(|r| [r.y0, r.y1]).collect();
    ys.sort_by(f64::total_cmp);
    ys.dedup();
    ys.reverse();

    let mut tree = MaxAddTree::new(xs.len());
    let mut next_enter = 0usize;
    let mut next_exit = 0usize;
    let mut best: Option<(f64, Point)> = None;
    for &y in &ys {
        while next_enter < enter.len() && clipped[enter[next_enter]].y1 >= y {
            let i = enter[next_enter];
            tree.add(x_index(clipped[i].x0), x_index(clipped[i].x1), weights[i]);
            next_enter += 1;
        }
        while next_exit < exit.len() && clipped[exit[next_exit]].y0 > y {
            let i = exit[next_exit];
            tree.add(x_index(clipped[i].x0), x_index(clipped[i].x1), -weights[i]);
            next_exit += 1;
        }
        let (m, xi) = tree.top();
        if best.is_none_or(|(b, _)| m > b) {
            best = Some((m, Point::new(xs[xi], y)));
        }
    }

    best.map(|(wc, point)| SweepResult {
        point,
        score: params.score_weights(wc, 0.0),
        wc,
        wp: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_exact::sl_cspot;

    fn params() -> BurstParams {
        BurstParams {
            alpha: 0.0,
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

    const AREA: Rect = Rect {
        x0: -100.0,
        y0: -100.0,
        x1: 100.0,
        y1: 100.0,
    };

    #[test]
    fn empty_returns_none() {
        assert_eq!(maxrs_sweep(&[], &AREA, &params()), None);
    }

    #[test]
    fn past_only_returns_none() {
        let p = SweepRect {
            rect: Rect::new(0.0, 0.0, 1.0, 1.0),
            weight: 3.0,
            kind: WindowKind::Past,
        };
        assert_eq!(maxrs_sweep(&[p], &AREA, &params()), None);
    }

    #[test]
    fn single_rect() {
        let r = maxrs_sweep(&[cur(0.0, 0.0, 2.0, 1.0, 3.0)], &AREA, &params()).unwrap();
        assert_eq!(r.score, 3.0);
        assert_eq!(r.wp, 0.0);
    }

    #[test]
    fn overlap_is_summed() {
        let rects = [
            cur(0.0, 0.0, 2.0, 2.0, 1.0),
            cur(1.0, 1.0, 3.0, 3.0, 2.0),
            cur(1.5, 0.5, 2.5, 2.5, 4.0),
        ];
        let r = maxrs_sweep(&rects, &AREA, &params()).unwrap();
        let direct = sl_cspot(&rects, &AREA, &params()).unwrap();
        assert!((r.score - direct.score).abs() < 1e-12);
        assert_eq!(r.score, 7.0);
    }

    #[test]
    fn edge_touch_counts_both() {
        let rects = [cur(0.0, 0.0, 1.0, 1.0, 1.0), cur(1.0, 0.0, 2.0, 1.0, 1.0)];
        let r = maxrs_sweep(&rects, &AREA, &params()).unwrap();
        assert_eq!(r.score, 2.0);
    }

    #[test]
    fn matches_general_sweep_on_pseudorandom_scenes() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for scene in 0..40 {
            let n = 2 + scene % 9;
            let rects: Vec<SweepRect> = (0..n)
                .map(|i| {
                    let x0 = next();
                    let y0 = next();
                    SweepRect {
                        rect: Rect::new(x0, y0, x0 + 0.3 + next() / 4.0, y0 + 0.3 + next() / 4.0),
                        weight: 1.0 + (next() * 3.0).floor(),
                        kind: if i % 4 == 0 {
                            WindowKind::Past
                        } else {
                            WindowKind::Current
                        },
                    }
                })
                .collect();
            let p = params();
            let fast = maxrs_sweep(&rects, &AREA, &p);
            let general = sl_cspot(&rects, &AREA, &p);
            match (fast, general) {
                (Some(f), Some(g)) => assert!(
                    (f.score - g.score).abs() < 1e-9,
                    "scene {scene}: fast {} vs general {}",
                    f.score,
                    g.score
                ),
                (None, Some(g)) => assert!(g.score.abs() < 1e-12, "scene {scene}"),
                (a, b) => panic!("scene {scene}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn area_clipping_respected() {
        let rects = [cur(0.0, 0.0, 10.0, 1.0, 1.0), cur(8.0, 0.0, 12.0, 1.0, 9.0)];
        let area = Rect::new(0.0, 0.0, 5.0, 1.0);
        let r = maxrs_sweep(&rects, &area, &params()).unwrap();
        assert_eq!(r.score, 1.0);
        assert!(area.contains(r.point));
    }

    #[test]
    fn negative_zero_edges_do_not_panic() {
        // -0.0 and +0.0 are equal under `==` but distinct under `total_cmp`;
        // a dedup/search mismatch used to panic the index lookup.
        let rects = [
            cur(-0.0, -0.0, 1.0, 1.0, 1.0),
            cur(0.0, 0.0, 2.0, 1.0, 2.0),
            SweepRect {
                rect: Rect::new(-0.0, 0.0, 1.0, 2.0),
                weight: 1.0,
                kind: WindowKind::Past,
            },
        ];
        let m = maxrs_sweep(&rects, &AREA, &params()).unwrap();
        assert!((m.score - 3.0).abs() < 1e-12);
    }

    #[test]
    fn segment_tree_handles_many_disjoint_ranges() {
        let rects: Vec<SweepRect> = (0..50)
            .map(|i| {
                cur(
                    i as f64 * 3.0,
                    0.0,
                    i as f64 * 3.0 + 1.0,
                    1.0,
                    1.0 + (i % 7) as f64,
                )
            })
            .collect();
        let r = maxrs_sweep(&rects, &AREA, &params()).unwrap();
        assert_eq!(r.score, 7.0); // the heaviest singleton
    }
}
