//! End-to-end equivalence of the incremental dirty-cell path: driving
//! Cell-CSPOT through `drive_incremental` (in-place parallel sweeps of the
//! dirty cells) must produce exactly the state and answers of the plain
//! sequential driver, for any thread count — parallelism may only change
//! wall-clock time. The rebuild-per-search reference (a `SweepMode::Rebuild`
//! detector swept with `sweep_dirty(1)`) is held to the same bar.

use surge_core::{
    BurstDetector, IncrementalDetector, Point, RegionSize, SpatialObject, SurgeQuery, WindowConfig,
};
use surge_exact::{BoundMode, CellCspot, SweepMode, DEFAULT_SHARDS};
use surge_stream::{drive_incremental, SlidingWindowEngine};
use surge_testkit::clustered_stream;

fn query(alpha: f64) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(500), alpha)
}

/// A clustered deterministic stream that keeps several cells contending.
fn stream(n: usize) -> Vec<SpatialObject> {
    clustered_stream(n, 5, 7, 0xA5A5_5A5A_1234_5678)
}

/// A detector on the rebuild-per-search reference path: every sweep
/// re-sorts the cell's rectangles and runs `sl_cspot_rebuild`.
fn reference(alpha: f64) -> CellCspot {
    CellCspot::with_sweep_mode(
        query(alpha),
        BoundMode::Combined,
        SweepMode::Rebuild,
        DEFAULT_SHARDS,
    )
}

#[test]
fn parallel_dirty_sweeps_match_sequential_answers() {
    for alpha in [0.0, 0.5, 0.9] {
        let objs = stream(1_500);

        // Sequential reference: per-object events + lazy current().
        let mut seq = CellCspot::new(query(alpha));
        let mut engine = SlidingWindowEngine::new(WindowConfig::equal(500));
        for obj in objs.iter().copied() {
            for ev in engine.push(obj) {
                seq.on_event(&ev);
            }
        }
        let want = seq.current().map(|a| a.score);

        for threads in [1, 4] {
            let mut par = CellCspot::new(query(alpha));
            let report = drive_incremental(
                &mut par,
                WindowConfig::equal(500),
                objs.iter().copied(),
                64,
                threads,
            );
            // The last pre-drain flush sits exactly at stream end — it must
            // match the lazy sequential answer there. (The driver then
            // drains the tail windows, so the detector's *final* state sees
            // them empty.)
            assert!(report.answers.len() >= 2);
            let got = report.answers[report.answers.len() - 2].map(|a| a.score);
            match (want, got) {
                (Some(w), Some(g)) => assert!(
                    (w - g).abs() < 1e-12,
                    "alpha {alpha} threads {threads}: {w} vs {g}"
                ),
                (None, None) => {}
                other => panic!("alpha {alpha} threads {threads}: {other:?}"),
            }
            assert_eq!(report.objects, objs.len() as u64);
            assert!(report.slides >= (objs.len() / 64) as u64);
            assert!(report.jobs > 0, "clustered stream must dirty cells");
            // After the terminal flush every cell is fresh: reading the
            // answer triggers no extra search.
            assert_eq!(par.dirty_cell_count(), 0);
            // Post-drain the windows are empty, so the drained sequential
            // reference agrees bit-for-bit with the driver's final answer.
            let mut drained = CellCspot::new(query(alpha));
            let mut eng = SlidingWindowEngine::new(WindowConfig::equal(500));
            for obj in objs.iter().copied() {
                for ev in eng.push(obj) {
                    drained.on_event(&ev);
                }
            }
            for ev in eng.finish() {
                drained.on_event(&ev);
            }
            assert_eq!(
                drained.current().map(|a| a.score.to_bits()),
                report.answers.last().unwrap().map(|a| a.score.to_bits()),
                "alpha {alpha} threads {threads}: post-drain divergence"
            );
        }
    }
}

#[test]
fn snapshot_install_equals_lazy_search() {
    // Apply the same events to two detectors; resolve one lazily via
    // current(), the other eagerly via the reference's sweep_dirty. Scores
    // and dirty-cell bookkeeping must agree.
    let objs = stream(400);
    let mut lazy = CellCspot::new(query(0.5));
    let mut eager = reference(0.5);
    let mut engine_a = SlidingWindowEngine::new(WindowConfig::equal(500));
    let mut engine_b = SlidingWindowEngine::new(WindowConfig::equal(500));
    for (i, obj) in objs.iter().enumerate() {
        for ev in engine_a.push(*obj) {
            lazy.on_event(&ev);
        }
        for ev in engine_b.push(*obj) {
            eager.on_event(&ev);
        }
        if i % 50 == 49 {
            eager.sweep_dirty(1);
            assert_eq!(eager.dirty_cell_count(), 0);

            let a = lazy.current().map(|r| r.score);
            let b = eager.current().map(|r| r.score);
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert!((x - y).abs() < 1e-12, "step {i}: {x} vs {y}")
                }
                (None, None) => {}
                other => panic!("step {i}: {other:?}"),
            }
        }
    }
    // The eager path performed the same searches the lazy path would have
    // needed, plus sweeps of cells whose bounds let current() skip them —
    // never fewer.
    assert!(eager.stats().searches >= lazy.stats().searches);
}

#[test]
fn snapshot_of_clean_detector_is_empty() {
    let mut d = reference(0.5);
    assert_eq!(d.sweep_dirty(1), 0);
    let mut engine = SlidingWindowEngine::new(WindowConfig::equal(500));
    for ev in engine.push(SpatialObject::new(0, 1.0, Point::new(0.5, 0.5), 0)) {
        d.on_event(&ev);
    }
    assert!(d.dirty_cell_count() > 0);
    // current() resolves lazily: it may leave bound-dominated cells stale
    // (that is the point of the bounds), so dirt can remain...
    let _ = d.current();
    // ...whereas sweep_dirty sweeps *every* dirty cell eagerly.
    d.sweep_dirty(1);
    assert_eq!(d.dirty_cell_count(), 0);
    assert_eq!(d.sweep_dirty(1), 0);
}
