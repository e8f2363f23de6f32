//! Degenerate and adversarial inputs for the exact detectors: coincident
//! objects, grid-line alignment, zero weights, ties, bulk expiry, and empty
//! domains. Each case is checked against the stateless snapshot oracle.

use surge_core::{BurstDetector, Point, Rect, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_exact::{snapshot_bursty_region, BaseDetector, BoundMode, CellCspot};
use surge_stream::SlidingWindowEngine;

fn query(alpha: f64) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(2.0, 2.0), WindowConfig::equal(1_000), alpha)
}

/// Feeds a stream into all three exact detectors and asserts oracle-equal
/// scores after every object.
fn assert_all_exact_match(query: SurgeQuery, objects: &[SpatialObject]) {
    let mut detectors: Vec<Box<dyn BurstDetector>> = vec![
        Box::new(CellCspot::new(query)),
        Box::new(CellCspot::with_mode(query, BoundMode::StaticOnly)),
        Box::new(BaseDetector::new(query)),
    ];
    let mut engine = SlidingWindowEngine::new(query.windows);
    for (step, obj) in objects.iter().enumerate() {
        let events = engine.push(*obj);
        for det in detectors.iter_mut() {
            for ev in &events {
                det.on_event(ev);
            }
        }
        let current: Vec<SpatialObject> = engine.current_objects().copied().collect();
        let past: Vec<SpatialObject> = engine.past_objects().copied().collect();
        let oracle = snapshot_bursty_region(&current, &past, &query)
            .map(|a| a.score)
            .unwrap_or(0.0);
        for det in detectors.iter_mut() {
            let got = det.current().map(|a| a.score).unwrap_or(0.0);
            let scale = oracle.abs().max(1e-12);
            assert!(
                (oracle - got).abs() <= 1e-9 * scale,
                "step {step} [{}]: oracle {oracle} vs {got}",
                det.name()
            );
        }
    }
}

#[test]
fn all_objects_at_one_point() {
    let objs: Vec<SpatialObject> = (0..60)
        .map(|i| SpatialObject::new(i, 1.0 + (i % 3) as f64, Point::new(5.0, 5.0), i * 40))
        .collect();
    assert_all_exact_match(query(0.5), &objs);
}

#[test]
fn objects_exactly_on_grid_lines() {
    // Query size 2×2 → grid lines at even coordinates. Objects sit exactly on
    // lines and at lattice corners, where cell-assignment ambiguity would
    // show up as an oracle mismatch.
    let mut objs = Vec::new();
    for t in 0..40u64 {
        let x = ((t % 5) * 2) as f64; // 0, 2, 4, 6, 8 — all on lines
        let y = ((t % 3) * 2) as f64;
        objs.push(SpatialObject::new(t, 2.0, Point::new(x, y), t * 60));
    }
    assert_all_exact_match(query(0.3), &objs);
}

#[test]
fn zero_weight_objects_are_neutral() {
    let q = query(0.5);
    let mut with_zeros = Vec::new();
    let mut without = Vec::new();
    let mut id = 0;
    for t in 0..30u64 {
        let o = SpatialObject::new(id, 3.0, Point::new((t % 7) as f64, (t % 4) as f64), t * 50);
        with_zeros.push(o);
        without.push(o);
        id += 1;
        // Interleave zero-weight noise.
        with_zeros.push(SpatialObject::new(
            id,
            0.0,
            Point::new((t % 5) as f64, (t % 6) as f64),
            t * 50,
        ));
        id += 1;
    }
    let run = |objs: &[SpatialObject]| {
        let mut det = CellCspot::new(q);
        let mut engine = SlidingWindowEngine::new(q.windows);
        for o in objs {
            for ev in engine.push(*o) {
                det.on_event(&ev);
            }
        }
        det.current().map(|a| a.score).unwrap_or(0.0)
    };
    let a = run(&with_zeros);
    let b = run(&without);
    assert!(
        (a - b).abs() <= 1e-12,
        "zero weights changed score: {a} vs {b}"
    );
}

#[test]
fn bulk_expiry_after_long_silence() {
    // A dense burst, then silence long enough to expire everything, then one
    // straggler: the detector must process the mass transition correctly.
    let mut objs: Vec<SpatialObject> = (0..50)
        .map(|i| SpatialObject::new(i, 2.0, Point::new((i % 5) as f64 * 0.3, 1.0), 100 + i))
        .collect();
    objs.push(SpatialObject::new(999, 1.0, Point::new(9.0, 9.0), 50_000));
    assert_all_exact_match(query(0.7), &objs);
}

#[test]
fn score_ties_are_resolved_consistently() {
    // Two symmetric clusters with identical weight: either answer is correct
    // but the score must match the oracle, and all exact detectors must agree
    // on the score.
    let mut objs = Vec::new();
    for i in 0..20u64 {
        objs.push(SpatialObject::new(2 * i, 1.0, Point::new(1.0, 1.0), i * 30));
        objs.push(SpatialObject::new(
            2 * i + 1,
            1.0,
            Point::new(50.0, 50.0),
            i * 30,
        ));
    }
    assert_all_exact_match(query(0.5), &objs);
}

#[test]
fn alpha_zero_reduces_to_maxrs_semantics() {
    // With α = 0 the past window is irrelevant: scores must not change when
    // objects merely grow into the past window.
    let q = query(0.0);
    let mut det = CellCspot::new(q);
    let mut engine = SlidingWindowEngine::new(q.windows);
    for i in 0..10u64 {
        for ev in engine.push(SpatialObject::new(i, 1.0, Point::new(3.0, 3.0), i)) {
            det.on_event(&ev);
        }
    }
    let before = det.current().unwrap().score;
    // Advance so the cluster grows into the past window but a fresh twin
    // cluster arrives in the current window: same current mass, nonzero past
    // mass. α = 0 must score it identically.
    for i in 0..10u64 {
        for ev in engine.push(SpatialObject::new(
            100 + i,
            1.0,
            Point::new(3.0, 3.0),
            1_200 + i,
        )) {
            det.on_event(&ev);
        }
    }
    let after = det.current().unwrap().score;
    assert!(
        (before - after).abs() <= 1e-12,
        "alpha=0 must ignore the past window: {before} vs {after}"
    );
}

#[test]
fn area_narrower_than_region_yields_no_answer() {
    let q = SurgeQuery::new(
        Rect::new(0.0, 0.0, 1.0, 1.0),
        RegionSize::new(2.0, 2.0),
        WindowConfig::equal(1_000),
        0.5,
    );
    assert_eq!(q.point_domain(), None);
    let mut det = CellCspot::new(q);
    let mut engine = SlidingWindowEngine::new(q.windows);
    for ev in engine.push(SpatialObject::new(0, 5.0, Point::new(0.5, 0.5), 0)) {
        det.on_event(&ev);
    }
    assert!(
        det.current().is_none(),
        "no query-sized region fits in the area"
    );
}

#[test]
fn huge_weights_do_not_overflow_bounds() {
    let objs: Vec<SpatialObject> = (0..30)
        .map(|i| {
            SpatialObject::new(
                i,
                1e12 + (i as f64) * 1e10,
                Point::new((i % 4) as f64, (i % 6) as f64),
                i * 45,
            )
        })
        .collect();
    assert_all_exact_match(query(0.9), &objs);
}

#[test]
fn high_alpha_near_one_is_stable() {
    let objs: Vec<SpatialObject> = (0..80)
        .map(|i| {
            SpatialObject::new(
                i,
                1.0,
                Point::new((i * 13 % 17) as f64, (i * 7 % 11) as f64),
                i * 35,
            )
        })
        .collect();
    assert_all_exact_match(query(0.999), &objs);
}

#[test]
fn equal_timestamps_entire_stream() {
    // Every object arrives at t = 0: nothing ever grows or expires within
    // the stream; detectors see only New events.
    let objs: Vec<SpatialObject> = (0..40)
        .map(|i| SpatialObject::new(i, 1.0, Point::new((i % 8) as f64, (i / 8) as f64), 0))
        .collect();
    assert_all_exact_match(query(0.5), &objs);
}

/// A NaN weight used to reach the sweep, where it poisoned the tree's
/// maxima until the argmax indexed past the last leaf (`index out of
/// bounds` inside SL-CSPOT). The window engine now refuses it at ingest,
/// naming the object, before any detector sees an event of it.
#[test]
#[should_panic(expected = "object 7: weight NaN must be finite and non-negative")]
fn nan_weight_fails_at_ingest_not_in_the_sweep() {
    let q = query(0.5);
    let mut det = CellCspot::new(q);
    let mut engine = SlidingWindowEngine::new(q.windows);
    for i in 0..50u64 {
        // A literal: `SpatialObject::new` debug-asserts the weight itself.
        let obj = SpatialObject {
            id: i,
            weight: if i == 7 { f64::NAN } else { 1.0 },
            pos: Point::new((i % 5) as f64 * 0.5, (i % 3) as f64 * 0.5),
            created: i * 10,
        };
        for ev in engine.push(obj) {
            det.on_event(&ev);
        }
        let _ = det.current();
    }
}
