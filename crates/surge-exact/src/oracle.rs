//! Snapshot oracles: slow, obviously-correct reference implementations used
//! by tests and by the approximation-ratio experiments (Tables III and IV).

use surge_core::{
    object_to_rect, BurstParams, Rect, RegionAnswer, SpatialObject, SurgeQuery, WindowKind,
};

use crate::sweep::{sl_cspot, SweepRect};

/// Converts window snapshots into tagged sweep rectangles for a query size,
/// filtering by the preferred area.
pub fn snapshot_rects(
    current: &[SpatialObject],
    past: &[SpatialObject],
    query: &SurgeQuery,
) -> Vec<SweepRect> {
    let mut rects = Vec::with_capacity(current.len() + past.len());
    for (objs, kind) in [(current, WindowKind::Current), (past, WindowKind::Past)] {
        for o in objs {
            if query.accepts(o.pos) {
                let g = object_to_rect(o, query.region);
                rects.push(SweepRect {
                    rect: g.rect,
                    weight: g.weight,
                    kind,
                });
            }
        }
    }
    rects
}

/// The exact bursty region for a snapshot, computed by one global sweep over
/// all rectangles — stateless, the ground truth for every detector.
pub fn snapshot_bursty_region(
    current: &[SpatialObject],
    past: &[SpatialObject],
    query: &SurgeQuery,
) -> Option<RegionAnswer> {
    let rects = snapshot_rects(current, past, query);
    let domain = query.point_domain()?;
    let params = query.burst_params();
    let res = sl_cspot(&rects, &domain, &params)?;
    if res.score < 0.0 {
        return None;
    }
    Some(RegionAnswer::from_point(res.point, query.region, res.score))
}

/// The exact burst score of an arbitrary `region` (not necessarily
/// query-sized) on a snapshot: used to evaluate the regions the approximate
/// detectors report.
pub fn score_of_region(
    current: &[SpatialObject],
    past: &[SpatialObject],
    region: &Rect,
    params: &BurstParams,
) -> f64 {
    let mut wc = 0.0;
    let mut wp = 0.0;
    for o in current {
        if region.contains(o.pos) {
            wc += o.weight;
        }
    }
    for o in past {
        if region.contains(o.pos) {
            wp += o.weight;
        }
    }
    params.score_weights(wc, wp)
}

/// Greedy top-k oracle (Definition 9): repeatedly finds the bursty point over
/// the rectangles not covering any previously chosen point.
pub fn snapshot_topk(
    current: &[SpatialObject],
    past: &[SpatialObject],
    query: &SurgeQuery,
    k: usize,
) -> Vec<RegionAnswer> {
    let mut rects = snapshot_rects(current, past, query);
    let Some(domain) = query.point_domain() else {
        return Vec::new();
    };
    let params = query.burst_params();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let Some(res) = sl_cspot(&rects, &domain, &params) else {
            break;
        };
        // Only positively-scored regions are meaningful answers; a zero
        // score (up to rounding noise) means "nothing bursty remains".
        if res.score <= surge_core::SCORE_EPS {
            break;
        }
        out.push(RegionAnswer::from_point(res.point, query.region, res.score));
        // Exclude rectangles covering the chosen point from later rounds.
        rects.retain(|r| !r.rect.contains(res.point));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{Point, RegionSize, WindowConfig};

    fn query(alpha: f64) -> SurgeQuery {
        SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(1_000), alpha)
    }

    fn obj(id: u64, w: f64, x: f64, y: f64) -> SpatialObject {
        SpatialObject::new(id, w, Point::new(x, y), 0)
    }

    #[test]
    fn oracle_finds_cluster() {
        let current = [
            obj(0, 1.0, 0.0, 0.0),
            obj(1, 1.0, 0.3, 0.3),
            obj(2, 1.0, 9.0, 9.0),
        ];
        let ans = snapshot_bursty_region(&current, &[], &query(0.5)).unwrap();
        assert!((ans.score - 2.0 / 1_000.0).abs() < 1e-12);
        assert!(ans.region.contains(Point::new(0.0, 0.0)));
        assert!(ans.region.contains(Point::new(0.3, 0.3)));
    }

    #[test]
    fn empty_snapshot_gives_none() {
        assert!(snapshot_bursty_region(&[], &[], &query(0.5)).is_none());
    }

    #[test]
    fn score_of_region_counts_windows() {
        let params = query(0.5).burst_params();
        let region = Rect::new(0.0, 0.0, 1.0, 1.0);
        let current = [obj(0, 4.0, 0.5, 0.5)];
        let past = [obj(1, 2.0, 0.5, 0.5), obj(2, 100.0, 5.0, 5.0)];
        let s = score_of_region(&current, &past, &region, &params);
        // fc = 4/1000, fp = 2/1000 -> 0.5*(2/1000) + 0.5*(4/1000) = 3/1000
        assert!((s - 3.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn topk_excludes_covered_objects() {
        // Two clusters; k=2 must report both, not the same one twice.
        let current = [
            obj(0, 1.0, 0.0, 0.0),
            obj(1, 1.0, 0.2, 0.2),
            obj(2, 1.0, 10.0, 10.0),
        ];
        let q = query(0.0);
        let top = snapshot_topk(&current, &[], &q, 2);
        assert_eq!(top.len(), 2);
        assert!((top[0].score - 2.0 / 1_000.0).abs() < 1e-12);
        assert!((top[1].score - 1.0 / 1_000.0).abs() < 1e-12);
        assert!(top[1].region.contains(Point::new(10.0, 10.0)));
    }

    #[test]
    fn topk_scores_are_non_increasing() {
        let current: Vec<SpatialObject> = (0..20)
            .map(|i| {
                obj(
                    i,
                    1.0 + (i % 3) as f64,
                    (i as f64 * 0.37) % 7.0,
                    (i as f64 * 0.61) % 7.0,
                )
            })
            .collect();
        let top = snapshot_topk(&current, &[], &query(0.3), 5);
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12);
        }
    }
}
