//! Integration tests for query semantics across detectors: α behaviour,
//! unequal windows, region sizes, and answer well-formedness.

use surge::prelude::*;

fn small_stream() -> Vec<SpatialObject> {
    // Deterministic: a steady cluster at (1,1) and a fresh burst at (8,8).
    let mut out = Vec::new();
    let mut id = 0u64;
    // steady: arrivals throughout [0, 4000] — 25 per window (wc = 50), the
    // same weight sitting in the past window (fp = fc, zero burstiness).
    for t in (0..4_000).step_by(40) {
        out.push(SpatialObject::new(
            id,
            2.0,
            Point::new(1.0 + (id % 3) as f64 * 0.1, 1.0),
            t,
        ));
        id += 1;
    }
    // burst: arrivals only in [3000, 4000]
    for t in (3_000..4_000).step_by(50) {
        out.push(SpatialObject::new(
            id,
            2.0,
            Point::new(8.0 + (id % 2) as f64 * 0.1, 8.0),
            t,
        ));
        id += 1;
    }
    out.sort_by_key(|o| o.created);
    out
}

fn run_detector(det: &mut dyn BurstDetector, stream: &[SpatialObject]) -> Option<RegionAnswer> {
    let mut windows = SlidingWindowEngine::new(WindowConfig::equal(1_000));
    for obj in stream {
        for ev in windows.push(*obj) {
            det.on_event(&ev);
        }
    }
    det.current()
}

#[test]
fn alpha_steers_every_detector_between_volume_and_burstiness() {
    let stream = small_stream();
    // At the end: the steady cluster has high fc AND high fp; the burst has
    // moderate fc and zero fp. Low α favours volume, high α the clean burst.
    let query_low =
        SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(1_000), 0.0);
    let query_high =
        SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(1_000), 0.9);
    for (make, name) in [
        (
            (|q: SurgeQuery| Box::new(CellCspot::new(q)) as Box<dyn BurstDetector>)
                as fn(SurgeQuery) -> Box<dyn BurstDetector>,
            "CCS",
        ),
        (|q| Box::new(Ag2::new(q)), "aG2"),
        (|q| Box::new(BaseDetector::new(q)), "Base"),
    ] {
        let low = run_detector(make(query_low).as_mut(), &stream).unwrap();
        let high = run_detector(make(query_high).as_mut(), &stream).unwrap();
        assert!(
            low.region.contains(Point::new(1.0, 1.0)),
            "{name}: α=0 should pick the steady high-volume cluster, got {:?}",
            low.region
        );
        assert!(
            high.region.contains(Point::new(8.0, 8.0)),
            "{name}: α=0.9 should pick the fresh burst, got {:?}",
            high.region
        );
        // Volume is weight, not arrival count: reweighted (as keyword
        // relevance would), the burst's fewer arrivals outweigh the cluster.
        let heavy_burst: Vec<SpatialObject> = stream
            .iter()
            .map(|o| SpatialObject {
                weight: if o.pos.x > 5.0 { 4.0 } else { o.weight },
                ..*o
            })
            .collect();
        let heavy = run_detector(make(query_low).as_mut(), &heavy_burst).unwrap();
        assert!(
            heavy.region.contains(Point::new(8.0, 8.0)),
            "{name}: α=0 should pick the heavier burst, got {:?}",
            heavy.region
        );
    }
}

#[test]
fn larger_regions_never_score_less_for_exact_detector() {
    let stream = small_stream();
    let mut prev = 0.0;
    for scale in [0.5, 1.0, 2.0, 4.0] {
        let query = SurgeQuery::whole_space(
            RegionSize::new(scale, scale),
            WindowConfig::equal(1_000),
            0.0,
        );
        let ans = run_detector(&mut CellCspot::new(query), &stream).unwrap();
        // With α=0 the score is the max enclosed current weight, monotone in
        // the region size.
        assert!(
            ans.score >= prev - 1e-12,
            "score decreased at scale {scale}: {} < {prev}",
            ans.score
        );
        prev = ans.score;
    }
}

#[test]
fn unequal_windows_are_supported_by_all_detectors() {
    let stream = small_stream();
    let query = SurgeQuery::whole_space(
        RegionSize::new(1.0, 1.0),
        WindowConfig::new(800, 2_400),
        0.5,
    );
    let mut ccs = CellCspot::new(query);
    let mut base = BaseDetector::new(query);
    let mut gaps = GapSurge::new(query);
    let mut windows = SlidingWindowEngine::new(query.windows);
    for obj in &stream {
        for ev in windows.push(*obj) {
            ccs.on_event(&ev);
            base.on_event(&ev);
            gaps.on_event(&ev);
        }
    }
    let a = ccs.current().unwrap().score;
    let b = base.current().unwrap().score;
    assert!((a - b).abs() <= 1e-9 * a.max(1e-12));
    let g = gaps.current().unwrap().score;
    assert!(g <= a + 1e-12 && g >= query.burst_params().grid_approx_ratio() * a - 1e-12);
}

#[test]
fn answers_are_well_formed() {
    let stream = small_stream();
    let query =
        SurgeQuery::whole_space(RegionSize::new(1.5, 0.75), WindowConfig::equal(1_000), 0.3);
    let detectors: Vec<Box<dyn BurstDetector>> = vec![
        Box::new(CellCspot::new(query)),
        Box::new(BaseDetector::new(query)),
        Box::new(Ag2::new(query)),
        Box::new(GapSurge::new(query)),
        Box::new(MgapSurge::new(query)),
    ];
    for mut det in detectors {
        let ans = run_detector(det.as_mut(), &stream).unwrap();
        assert!(ans.score.is_finite());
        assert!(ans.score >= 0.0);
        assert!((ans.region.width() - 1.5).abs() < 1e-9, "{}", det.name());
        assert!((ans.region.height() - 0.75).abs() < 1e-9, "{}", det.name());
        assert!(
            ans.region.contains(ans.point) || ans.point == Point::new(ans.region.x1, ans.region.y1)
        );
    }
}

#[test]
fn all_topk_detectors_return_sorted_disjoint_objects_answers() {
    let stream = small_stream();
    let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(1_000), 0.5);
    let mut kccs = KCellCspot::new(query, 3);
    let mut kgaps = KGapSurge::new(query, 3);
    let mut kmgaps = KMgapSurge::new(query, 3);
    let mut naive = NaiveTopK::new(query, 3);
    let mut windows = SlidingWindowEngine::new(query.windows);
    for obj in &stream {
        for ev in windows.push(*obj) {
            kccs.on_event(&ev);
            kgaps.on_event(&ev);
            kmgaps.on_event(&ev);
            naive.on_event(&ev);
        }
    }
    for (name, top) in [
        ("kCCS", kccs.current_topk()),
        ("kGAPS", kgaps.current_topk()),
        ("kMGAPS", kmgaps.current_topk()),
        ("Naive", naive.current_topk()),
    ] {
        assert!(!top.is_empty(), "{name} returned nothing");
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12, "{name} not sorted");
        }
        for a in &top {
            assert!(a.score > 0.0, "{name} returned non-positive score");
        }
    }
    // Exact and naive agree rank by rank.
    let e = kccs.current_topk();
    let n = naive.current_topk();
    assert_eq!(e.len(), n.len());
    for (a, b) in e.iter().zip(n.iter()) {
        assert!((a.score - b.score).abs() <= 1e-9 * a.score.max(1e-12));
    }
}
