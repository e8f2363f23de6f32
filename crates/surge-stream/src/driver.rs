//! Replay driver: feeds a stream through the window engine into a detector
//! and measures per-object processing time.
//!
//! Following §VII-A, measurement starts once the system is *stable* (the
//! first object has expired from the past window); the warm-up phase is
//! processed but not timed.

use std::time::{Duration as WallDuration, Instant};

use surge_core::{BurstDetector, DetectorStats, Event, RegionSize, SpatialObject, TopKDetector};

use crate::runtime::{FlushOutcome, QueryCore, QueryRuntime};
use crate::window::{DirtyCellTracker, EventBatch, SlidingWindowEngine};

/// Outcome of a replay run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Objects processed after warm-up (the timed portion).
    pub objects: u64,
    /// Objects processed during warm-up (timed separately).
    pub warmup_objects: u64,
    /// Window-transition events processed after warm-up.
    pub events: u64,
    /// Wall-clock time spent in the stable (post-warm-up) portion.
    pub elapsed: WallDuration,
    /// Wall-clock time spent during warm-up.
    pub warmup_elapsed: WallDuration,
    /// Logical stream timespan of the stable portion, in milliseconds.
    pub stream_span_ms: u64,
    /// Logical stream timespan of the entire run, in milliseconds.
    pub full_span_ms: u64,
    /// Detector counters at the end of the run.
    pub detector: DetectorStats,
    /// Detector name.
    pub name: &'static str,
}

impl RunStats {
    /// Mean wall-clock processing time per stable-phase object, in
    /// microseconds — the paper's headline metric. 0 when the stream never
    /// stabilized; use [`RunStats::time_per_object_full_us`] then.
    pub fn time_per_object_us(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() * 1e6 / self.objects as f64
        }
    }

    /// Mean processing time per object over the whole run (warm-up
    /// included) — the fallback metric for configurations whose windows
    /// never fill within the object budget.
    pub fn time_per_object_full_us(&self) -> f64 {
        let total = self.objects + self.warmup_objects;
        if total == 0 {
            0.0
        } else {
            (self.elapsed + self.warmup_elapsed).as_secs_f64() * 1e6 / total as f64
        }
    }

    /// Wall-clock seconds needed to process one hour of stream time — the
    /// paper's Fig. 8 scalability metric `t_h = runtime / |O|_time`.
    pub fn seconds_per_stream_hour(&self) -> f64 {
        if self.stream_span_ms == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() * 3_600_000.0 / self.stream_span_ms as f64
        }
    }

    /// The Fig. 8 metric over the whole run (warm-up included).
    pub fn seconds_per_stream_hour_full(&self) -> f64 {
        if self.full_span_ms == 0 {
            0.0
        } else {
            (self.elapsed + self.warmup_elapsed).as_secs_f64() * 3_600_000.0
                / self.full_span_ms as f64
        }
    }
}

/// Replays `source` through `engine` into `detector`.
///
/// After every object's events, the detector's `current()` answer is
/// refreshed (the problem is *continuous* detection), and that refresh is
/// included in the timed cost.
///
/// When the source is exhausted the engine is [`finished`]
/// (`SlidingWindowEngine::finish`): the tail windows' pending
/// `Grown`/`Expired` transitions are delivered to the detector and the
/// answer refreshed once more, so the detector ends the run with empty
/// windows instead of over-counting the residents of the truncated stream.
///
/// [`finished`]: SlidingWindowEngine::finish
pub fn drive<D: BurstDetector + ?Sized>(
    detector: &mut D,
    engine: &mut SlidingWindowEngine,
    source: impl Iterator<Item = SpatialObject>,
) -> RunStats {
    let run = replay(engine, source, |events| {
        for ev in events {
            detector.on_event(ev);
        }
        let _ = detector.current();
    });
    RunStats {
        detector: detector.stats(),
        name: detector.name(),
        ..run
    }
}

/// [`drive`] for a top-k detector: the same per-object refresh
/// (`current_topk()`) and the same terminal drain.
pub fn drive_topk<D: TopKDetector + ?Sized>(
    detector: &mut D,
    engine: &mut SlidingWindowEngine,
    source: impl Iterator<Item = SpatialObject>,
) -> RunStats {
    let run = replay(engine, source, |events| {
        for ev in events {
            detector.on_event(ev);
        }
        let _ = detector.current_topk();
    });
    RunStats {
        detector: detector.stats(),
        name: detector.name(),
        ..run
    }
}

/// The per-object replay loop behind [`drive`] and [`drive_topk`]: expands
/// each arrival into one reused [`EventBatch`], hands it to `refresh`
/// (apply the events, refresh the answer) under the clock, and ends with
/// the terminal drain through the same `refresh`. The returned stats carry
/// no detector counters or name; the callers fill them in.
fn replay(
    engine: &mut SlidingWindowEngine,
    source: impl Iterator<Item = SpatialObject>,
    mut refresh: impl FnMut(&[Event]),
) -> RunStats {
    let mut warmup_objects = 0u64;
    let mut objects = 0u64;
    let mut events = 0u64;
    let mut elapsed = WallDuration::ZERO;
    let mut warmup_elapsed = WallDuration::ZERO;
    let mut span_start: Option<u64> = None;
    let mut span_end = 0u64;
    let mut full_start: Option<u64> = None;
    let mut full_end = 0u64;
    let mut batch = EventBatch::new();

    for obj in source {
        let stable = engine.is_stable();
        full_start.get_or_insert(obj.created);
        full_end = obj.created;
        let t0 = Instant::now();
        batch.clear();
        engine.push_into(obj, &mut batch);
        refresh(batch.as_slice());
        let dt = t0.elapsed();
        if stable {
            elapsed += dt;
            events += batch.len() as u64;
            objects += 1;
            span_start.get_or_insert(obj.created);
            span_end = obj.created;
        } else {
            warmup_elapsed += dt;
            warmup_objects += 1;
        }
    }

    // Terminal drain: deliver the tail windows' transitions and refresh.
    let was_stable = engine.is_stable();
    let t0 = Instant::now();
    batch.clear();
    engine.finish_into(&mut batch);
    refresh(batch.as_slice());
    let dt = t0.elapsed();
    if was_stable {
        elapsed += dt;
        events += batch.len() as u64;
    } else {
        warmup_elapsed += dt;
    }

    RunStats {
        objects,
        warmup_objects,
        events,
        elapsed,
        warmup_elapsed,
        stream_span_ms: span_end.saturating_sub(span_start.unwrap_or(span_end)),
        full_span_ms: full_end.saturating_sub(full_start.unwrap_or(full_end)),
        detector: DetectorStats::default(),
        name: "",
    }
}

/// Outcome of a slide-batched replay run ([`drive_slides`]).
#[derive(Debug, Clone)]
pub struct SlideRunStats {
    /// Objects processed.
    pub objects: u64,
    /// Window-transition events processed.
    pub events: u64,
    /// Slides executed (each ends with one `current()` refresh).
    pub slides: u64,
    /// Total distinct dirty cells across all slides (deduplicated within a
    /// slide, not across slides).
    pub dirty_cells: u64,
    /// Largest single-slide dirty-cell count.
    pub max_dirty_per_slide: u64,
    /// Wall-clock time spent processing (events + refreshes).
    pub elapsed: WallDuration,
    /// Detector counters at the end of the run.
    pub detector: DetectorStats,
    /// Detector name.
    pub name: &'static str,
}

impl SlideRunStats {
    /// Mean dirty cells per slide — the incremental-maintenance footprint a
    /// wholesale per-slide recomputation would replace with "all cells".
    pub fn dirty_per_slide(&self) -> f64 {
        if self.slides == 0 {
            0.0
        } else {
            self.dirty_cells as f64 / self.slides as f64
        }
    }
}

/// Replays `source` into `detector` in *slides* of `slide_objects` arrivals,
/// refreshing the continuous answer once per slide instead of once per
/// object, and accounting the per-slide maintenance in **dirty cells** (the
/// distinct grid cells the slide's events touch, deduplicated).
///
/// This is the sequential face of incremental maintenance: detectors like
/// CCS already do per-cell bookkeeping per event and defer searches to
/// `current()`; batching the refresh means each dirty cell is searched at
/// most once per slide no matter how many events hit it. The reported
/// answer at each slide boundary is identical to calling `current()` at the
/// same stream position under the per-object driver. After the last slide
/// the engine tail is drained and one terminal flush runs (the `slides`
/// counter includes it), so the run ends with empty windows. Built on
/// [`QueryRuntime`]; for the parallel variant see `drive_incremental` in
/// the [`crate::parallel`] module.
pub fn drive_slides<D: BurstDetector + ?Sized>(
    detector: &mut D,
    engine: &mut SlidingWindowEngine,
    region: RegionSize,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
) -> SlideRunStats {
    drive_slides_observed(
        detector,
        engine,
        region,
        source,
        slide_objects,
        &surge_observe::Observe::off(),
    )
}

/// [`drive_slides`] with registry probes attached under `driver/slides`
/// (counters `objects`/`events`/`slides`/`jobs` plus per-flush trace
/// events). With a disabled handle this *is* `drive_slides`; with an
/// enabled one the answers are still bitwise identical — the
/// observe-on/off differential proptests pin that down.
pub fn drive_slides_observed<D: BurstDetector + ?Sized>(
    detector: &mut D,
    engine: &mut SlidingWindowEngine,
    region: RegionSize,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    obs: &surge_observe::Observe,
) -> SlideRunStats {
    /// Dirty-cell-accounting face of a plain [`BurstDetector`]: flush
    /// drains the tracker (the slide's dirty-cell count becomes the flush's
    /// maintenance units) and refreshes the continuous answer.
    struct SlideCore<'a, D: ?Sized> {
        detector: &'a mut D,
        tracker: DirtyCellTracker,
    }
    impl<D: BurstDetector + ?Sized> QueryCore for SlideCore<'_, D> {
        fn on_events(&mut self, events: &[Event]) {
            for ev in events {
                self.tracker.note(ev);
                self.detector.on_event(ev);
            }
        }
        fn flush(&mut self, _seq: u64) -> FlushOutcome {
            let dirty = self.tracker.drain().len() as u64;
            let answers = self.detector.current().into_iter().collect();
            FlushOutcome {
                answers,
                swept: dirty,
            }
        }
    }

    let t0 = Instant::now();
    let core = SlideCore {
        detector,
        tracker: DirtyCellTracker::new(region),
    };
    let mut rt = QueryRuntime::over(core, engine, slide_objects);
    rt.observe(obs, "driver/slides");
    rt.run(source, |_, _| {});
    let counters = *rt.counters();
    let core = rt.into_core();
    SlideRunStats {
        objects: counters.objects,
        events: counters.events,
        slides: counters.slides,
        dirty_cells: counters.jobs,
        max_dirty_per_slide: counters.max_jobs_per_slide,
        elapsed: t0.elapsed(),
        detector: core.detector.stats(),
        name: core.detector.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{Event, EventKind, Point, RegionAnswer, WindowConfig};

    /// A detector that just counts events.
    struct Counter {
        news: u64,
        growns: u64,
        expireds: u64,
        currents: u64,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                news: 0,
                growns: 0,
                expireds: 0,
                currents: 0,
            }
        }
    }

    impl BurstDetector for Counter {
        fn on_event(&mut self, event: &Event) {
            match event.kind {
                EventKind::New => self.news += 1,
                EventKind::Grown => self.growns += 1,
                EventKind::Expired => self.expireds += 1,
            }
        }
        fn current(&mut self) -> Option<RegionAnswer> {
            self.currents += 1;
            None
        }
        fn name(&self) -> &'static str {
            "counter"
        }
    }

    fn stream(n: usize, step: u64) -> Vec<surge_core::SpatialObject> {
        (0..n)
            .map(|i| {
                surge_core::SpatialObject::new(i as u64, 1.0, Point::new(0.0, 0.0), i as u64 * step)
            })
            .collect()
    }

    #[test]
    fn all_events_are_delivered() {
        let mut det = Counter::new();
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        let objs = stream(50, 10);
        let stats = drive(&mut det, &mut eng, objs.into_iter());
        assert_eq!(det.news, 50);
        // The terminal drain empties both windows, so every object completed
        // its full lifecycle through the detector.
        assert_eq!(eng.current_len(), 0);
        assert_eq!(eng.past_len(), 0);
        assert_eq!(det.growns, 50);
        assert_eq!(det.expireds, 50);
        // One refresh per object plus the terminal one.
        assert_eq!(det.currents, 51);
        assert_eq!(stats.objects + stats.warmup_objects, 50);
    }

    #[test]
    fn warmup_is_separated() {
        let mut det = Counter::new();
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        // First expiry happens at t=200, i.e. when the object at t=200+ arrives.
        let objs = stream(100, 10);
        let stats = drive(&mut det, &mut eng, objs.into_iter());
        assert!(stats.warmup_objects > 0);
        assert!(stats.objects > 0);
        // The first ~21 objects (t=0..200) are warm-up.
        assert!(stats.warmup_objects >= 20 && stats.warmup_objects <= 22);
    }

    #[test]
    fn stream_span_reflects_timed_portion() {
        let mut det = Counter::new();
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        let objs = stream(100, 10);
        let stats = drive(&mut det, &mut eng, objs.into_iter());
        assert!(stats.stream_span_ms > 0);
        assert!(stats.stream_span_ms <= 990);
    }

    #[test]
    fn time_per_object_handles_zero() {
        let stats = RunStats {
            objects: 0,
            warmup_objects: 0,
            events: 0,
            elapsed: WallDuration::ZERO,
            warmup_elapsed: WallDuration::ZERO,
            stream_span_ms: 0,
            full_span_ms: 0,
            detector: DetectorStats::default(),
            name: "x",
        };
        assert_eq!(stats.time_per_object_us(), 0.0);
        assert_eq!(stats.time_per_object_full_us(), 0.0);
        assert_eq!(stats.seconds_per_stream_hour(), 0.0);
        assert_eq!(stats.seconds_per_stream_hour_full(), 0.0);
    }

    #[test]
    fn drive_slides_drains_tail_and_flushes_terminally() {
        let mut det = Counter::new();
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        // 25 objects, slide 10: flushes at 10, 20, 25, plus the terminal one.
        let stats = drive_slides(
            &mut det,
            &mut eng,
            RegionSize::new(1.0, 1.0),
            stream(25, 10).into_iter(),
            10,
        );
        assert_eq!(stats.objects, 25);
        assert_eq!(stats.slides, 4);
        assert_eq!(det.currents, 4);
        // Post-stream window emptiness: the drain emitted every pending
        // transition, so each object's full lifecycle reached the detector.
        assert_eq!(eng.current_len(), 0);
        assert_eq!(eng.past_len(), 0);
        assert_eq!(det.growns, 25);
        assert_eq!(det.expireds, 25);
        assert_eq!(stats.events, 75);
    }

    /// A top-k detector that just counts events and refreshes.
    #[derive(Default)]
    struct TopKCounter {
        news: u64,
        growns: u64,
        expireds: u64,
        refreshes: u64,
    }

    impl TopKDetector for TopKCounter {
        fn on_event(&mut self, event: &Event) {
            match event.kind {
                EventKind::New => self.news += 1,
                EventKind::Grown => self.growns += 1,
                EventKind::Expired => self.expireds += 1,
            }
        }
        fn current_topk(&mut self) -> Vec<RegionAnswer> {
            self.refreshes += 1;
            Vec::new()
        }
        fn k(&self) -> usize {
            3
        }
        fn name(&self) -> &'static str {
            "topk-counter"
        }
    }

    #[test]
    fn drive_topk_drains_tail_windows() {
        let mut det = TopKCounter::default();
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        let stats = drive_topk(&mut det, &mut eng, stream(50, 10).into_iter());
        // The terminal drain empties both windows: every object completed
        // its full lifecycle through the detector.
        assert_eq!(eng.current_len(), 0);
        assert_eq!(eng.past_len(), 0);
        assert_eq!((det.news, det.growns, det.expireds), (50, 50, 50));
        // One refresh per object plus the terminal one.
        assert_eq!(det.refreshes, 51);
        assert_eq!(stats.objects + stats.warmup_objects, 50);
        assert_eq!(stats.name, "topk-counter");
    }

    #[test]
    fn full_span_covers_warmup() {
        let mut det = Counter::new();
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        let stats = drive(&mut det, &mut eng, stream(100, 10).into_iter());
        assert_eq!(stats.full_span_ms, 990);
        assert!(stats.stream_span_ms < stats.full_span_ms);
        assert!(stats.time_per_object_full_us() >= 0.0);
    }
}
