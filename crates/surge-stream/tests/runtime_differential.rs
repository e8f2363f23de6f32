//! Differential property tests for the [`QueryRuntime`] refactor: the
//! `drive_*` wrappers must be **bit-identical** to the historical inline
//! slide loops they replaced. The reference loops below are verbatim
//! re-implementations of the pre-refactor drivers (push → events → flush at
//! every `slide_objects`-th arrival → trailing partial flush → terminal
//! drain + flush), so any behavioral drift in the shared runtime — flush
//! ordering, partial-slide handling, counter accounting — fails here.

use proptest::prelude::*;
use surge_core::{
    BurstDetector, IncrementalDetector, RegionAnswer, RegionSize, SpatialObject, SurgeQuery,
    WindowConfig,
};
use surge_exact::{BoundMode, CellCspot};
use surge_stream::{
    drive_incremental, drive_slides, DirtyCellTracker, EventBatch, SlidingWindowEngine,
};
use surge_testkit::ticked_stream;

fn query(alpha: f64, windows: WindowConfig) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha)
}

/// The pre-refactor `drive_incremental` loop, inlined: the answer sequence
/// and counters the runtime-backed driver must reproduce exactly.
#[allow(clippy::type_complexity)]
fn reference_incremental(
    detector: &mut CellCspot,
    windows: WindowConfig,
    objs: &[SpatialObject],
    slide_objects: usize,
) -> (Vec<Option<RegionAnswer>>, u64, u64, u64) {
    let mut engine = SlidingWindowEngine::new(windows);
    let mut batch = EventBatch::new();
    let mut answers = Vec::new();
    let (mut events, mut slides, mut jobs) = (0u64, 0u64, 0u64);
    let mut in_slide = 0usize;
    let mut flush = |det: &mut CellCspot, slides: &mut u64, jobs: &mut u64| {
        *jobs += det.sweep_dirty(1);
        *slides += 1;
        answers.push(det.current());
    };
    for obj in objs {
        batch.clear();
        engine.push_into(*obj, &mut batch);
        for ev in batch.iter() {
            detector.on_event(ev);
            events += 1;
        }
        in_slide += 1;
        if in_slide >= slide_objects {
            flush(detector, &mut slides, &mut jobs);
            in_slide = 0;
        }
    }
    if in_slide > 0 {
        flush(detector, &mut slides, &mut jobs);
    }
    batch.clear();
    engine.finish_into(&mut batch);
    for ev in batch.iter() {
        detector.on_event(ev);
        events += 1;
    }
    flush(detector, &mut slides, &mut jobs);
    (answers, events, slides, jobs)
}

fn assert_answers_bitwise(a: &[Option<RegionAnswer>], b: &[Option<RegionAnswer>], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: answer count diverged");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        match (x, y) {
            (Some(x), Some(y)) => {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label} slide {i}");
                assert_eq!(
                    x.point.x.to_bits(),
                    y.point.x.to_bits(),
                    "{label} slide {i}"
                );
                assert_eq!(
                    x.point.y.to_bits(),
                    y.point.y.to_bits(),
                    "{label} slide {i}"
                );
                assert_eq!(x.region, y.region, "{label} slide {i}");
            }
            (None, None) => {}
            other => panic!("{label} slide {i}: presence diverged: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The runtime-backed `drive_incremental` is bit-identical to the
    /// historical inline loop — answers, counters and detector state —
    /// across slide sizes and window shapes.
    #[test]
    fn drive_incremental_matches_the_historical_loop(
        raw in prop::collection::vec((0u32..18, 0u32..12, 0u32..8), 8..180),
        per_tick in 1u64..4,
        tick in 5u64..60,
        win in 40u64..400,
        slide in 1usize..40,
        alpha_pct in 0u32..100,
    ) {
        let objs = ticked_stream(raw, per_tick, tick);
        let windows = WindowConfig::equal(win);
        let q = query(alpha_pct as f64 / 100.0, windows);

        let mut reference = CellCspot::with_shards(q, BoundMode::Combined, 1);
        let (ref_answers, ref_events, ref_slides, ref_jobs) =
            reference_incremental(&mut reference, windows, &objs, slide);

        let mut det = CellCspot::with_shards(q, BoundMode::Combined, 1);
        let report = drive_incremental(&mut det, windows, objs.iter().copied(), slide);

        prop_assert_eq!(report.objects, objs.len() as u64);
        prop_assert_eq!(report.events, ref_events);
        prop_assert_eq!(report.slides, ref_slides);
        prop_assert_eq!(report.jobs, ref_jobs);
        assert_answers_bitwise(report.answers.retained(), &ref_answers, "incremental");
        prop_assert_eq!(det.stats().events, reference.stats().events);
        prop_assert_eq!(det.stats().searches, reference.stats().searches);
        prop_assert_eq!(det.cell_count(), reference.cell_count());
    }

    /// The runtime-backed `drive_slides` is bit-identical to the historical
    /// inline loop it replaced: same flush cadence, same dirty-cell
    /// accounting (tracker-drained, deduplicated per slide), same final
    /// detector and engine state.
    #[test]
    fn drive_slides_matches_the_historical_loop(
        raw in prop::collection::vec((0u32..14, 0u32..10, 0u32..8), 8..140),
        per_tick in 1u64..4,
        tick in 5u64..50,
        win in 40u64..300,
        slide in 1usize..32,
    ) {
        let objs = ticked_stream(raw, per_tick, tick);
        let windows = WindowConfig::equal(win);
        let region = RegionSize::new(1.0, 1.0);
        let q = query(0.5, windows);

        // The pre-refactor drive_slides loop, verbatim.
        let mut reference = CellCspot::with_shards(q, BoundMode::Combined, 1);
        let mut ref_engine = SlidingWindowEngine::new(windows);
        let mut tracker = DirtyCellTracker::new(region);
        let mut batch = EventBatch::new();
        let (mut ref_events, mut ref_slides) = (0u64, 0u64);
        let (mut ref_dirty, mut ref_max_dirty) = (0u64, 0u64);
        let mut in_slide = 0usize;
        macro_rules! ref_flush {
            () => {{
                let dirty = tracker.drain().len() as u64;
                ref_dirty += dirty;
                ref_max_dirty = ref_max_dirty.max(dirty);
                ref_slides += 1;
                let _ = reference.current();
            }};
        }
        for obj in &objs {
            batch.clear();
            ref_engine.push_into(*obj, &mut batch);
            for ev in batch.iter() {
                tracker.note(ev);
                reference.on_event(ev);
                ref_events += 1;
            }
            in_slide += 1;
            if in_slide >= slide {
                ref_flush!();
                in_slide = 0;
            }
        }
        if in_slide > 0 {
            ref_flush!();
        }
        batch.clear();
        ref_engine.finish_into(&mut batch);
        for ev in batch.iter() {
            tracker.note(ev);
            reference.on_event(ev);
            ref_events += 1;
        }
        ref_flush!();

        let mut det = CellCspot::with_shards(q, BoundMode::Combined, 1);
        let mut engine = SlidingWindowEngine::new(windows);
        let stats = drive_slides(&mut det, &mut engine, region, objs.iter().copied(), slide);

        prop_assert_eq!(stats.objects, objs.len() as u64);
        prop_assert_eq!(stats.events, ref_events);
        prop_assert_eq!(stats.slides, ref_slides);
        prop_assert_eq!(stats.dirty_cells, ref_dirty);
        prop_assert_eq!(stats.max_dirty_per_slide, ref_max_dirty);
        prop_assert_eq!(det.stats().events, reference.stats().events);
        prop_assert_eq!(det.stats().searches, reference.stats().searches);
        prop_assert_eq!(engine.current_len(), 0);
        prop_assert_eq!(engine.past_len(), 0);
    }
}
