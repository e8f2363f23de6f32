//! The slide phase of [`QueryRuntime`]: end of stream steps through the
//! partial-slide flush and the drain + terminal flush exactly once, and a
//! runtime resumed from its counters — at any point, including after either
//! end-of-stream flush — continues with exactly the flushes the
//! uninterrupted run had left.

use surge_core::{Event, EventKind, Point, RegionAnswer, RegionSize, SpatialObject, WindowConfig};
use surge_stream::{FlushOutcome, Phase, QueryCore, QueryRuntime, SlidingWindowEngine};

/// Answers every flush with the running weight sum of the arrivals.
#[derive(Default)]
struct SumCore {
    sum: f64,
}

impl QueryCore for SumCore {
    fn on_events(&mut self, events: &[Event]) {
        for ev in events.iter().filter(|ev| ev.kind == EventKind::New) {
            self.sum += ev.object.weight;
        }
    }
    fn flush(&mut self, _seq: u64) -> FlushOutcome {
        FlushOutcome {
            answers: vec![RegionAnswer::from_point(
                Point::new(0.0, 0.0),
                RegionSize::new(1.0, 1.0),
                self.sum,
            )],
            swept: 0,
        }
    }
}

fn stream(n: usize) -> Vec<SpatialObject> {
    (0..n)
        .map(|i| SpatialObject::new(i as u64, 1.0, Point::new(0.0, 0.0), i as u64 * 10))
        .collect()
}

fn windows() -> WindowConfig {
    WindowConfig::equal(100)
}

/// The phase a fresh engine resumes in at `(objects, flushes)`, slide 16.
fn phase_at(objects: u64, flushes: u64) -> Option<Phase> {
    let engine = SlidingWindowEngine::new(windows());
    QueryRuntime::resume(SumCore::default(), engine, 16, objects, flushes)
        .ok()
        .map(|rt| rt.phase())
}

#[test]
fn finish_steps_through_the_phases_once() {
    let mut rt = QueryRuntime::new(SumCore::default(), windows(), 4);
    for obj in stream(6) {
        rt.push(obj);
    }
    assert_eq!(rt.phase(), Phase::Open { in_slide: 2 });
    assert!(rt.finish_step().is_some());
    assert_eq!(rt.phase(), Phase::PartialFlushed);
    assert!(rt.finish_step().is_some());
    assert_eq!(rt.phase(), Phase::Finished);
    assert!(rt.finish_step().is_none(), "finish is idempotent");
    assert_eq!(rt.counters().slides, 3);
}

#[test]
fn phase_is_derived_from_the_counters() {
    let open = |in_slide| Some(Phase::Open { in_slide });
    assert_eq!(phase_at(0, 0), open(0));
    assert_eq!(phase_at(21, 1), open(5));
    assert_eq!(phase_at(32, 2), open(0));
    assert_eq!(phase_at(21, 2), Some(Phase::PartialFlushed));
    assert_eq!(phase_at(21, 3), Some(Phase::Finished));
    assert_eq!(phase_at(32, 3), Some(Phase::Finished));
    assert_eq!(phase_at(0, 1), Some(Phase::Finished));
    // Unreachable: too few flushes or too many.
    assert_eq!(phase_at(32, 1), None);
    assert_eq!(phase_at(32, 4), None);
    assert_eq!(phase_at(21, 4), None);
}

/// Resuming from every point of a run — mid-slide, on a slide boundary,
/// after the partial flush, after the terminal flush — replays exactly the
/// flushes the uninterrupted run had left.
#[test]
fn resume_continues_the_cadence_without_repeating_a_flush() {
    let objs = stream(23);
    let mut full = Vec::new();
    QueryRuntime::new(SumCore::default(), windows(), 8)
        .run(objs.iter().copied(), |_, a| full.push(a[0].score));
    assert_eq!(full.len(), 4);
    // Cut after `pushed` arrivals and `steps` end-of-stream steps.
    for (pushed, steps) in [(0, 0), (9, 0), (16, 0), (23, 0), (23, 1), (23, 2)] {
        let mut rt = QueryRuntime::new(SumCore::default(), windows(), 8);
        let mut got = Vec::new();
        for obj in &objs[..pushed] {
            got.extend(rt.push(*obj).map(|a| a[0].score));
        }
        for _ in 0..steps {
            got.extend(rt.finish_step().map(|a| a[0].score));
        }
        let c = *rt.counters();
        let engine = SlidingWindowEngine::from_state(&rt.engine().checkpoint()).unwrap();
        let mut resumed = QueryRuntime::resume(rt.into_core(), engine, 8, c.objects, c.slides)
            .expect("a reachable phase");
        resumed.run(objs[pushed..].iter().copied(), |_, a| got.push(a[0].score));
        assert_eq!(got, full, "cut at {pushed} objects + {steps} steps");
    }
}

#[test]
fn impossible_resume_points_are_typed_errors() {
    let resume = |engine, slide, objects, flushes| {
        QueryRuntime::resume(SumCore::default(), engine, slide, objects, flushes).map(|_| ())
    };
    assert!(resume(SlidingWindowEngine::new(windows()), 8, 16, 5).is_err());
    assert!(resume(SlidingWindowEngine::new(windows()), 8, 16, 1).is_err());
    assert!(resume(SlidingWindowEngine::new(windows()), 0, 0, 0).is_err());
}

#[test]
#[should_panic(expected = "after end of stream")]
fn push_after_finish_is_rejected() {
    let mut rt = QueryRuntime::new(SumCore::default(), windows(), 4);
    rt.finish_step();
    rt.push(stream(1)[0]);
}
