//! The slide-batched incremental driver: [`drive_incremental`] refreshes
//! one exact detector once per slide — each flush sweeps the slide's dirty
//! cells **in place** via [`IncrementalDetector::sweep_dirty`] on the
//! calling thread, mutating the persistent per-cell structures where they
//! live. The parallel face of the same cadence is the shard mesh,
//! `crate::elastic`'s `drive_elastic`, whose answers are bit-identical to
//! this driver's.

use surge_core::{
    DetectorStats, Event, IncrementalDetector, RegionAnswer, SpatialObject, WindowConfig,
};

use crate::answers::{AnswerLog, AnswerSink, RetainAll};
use crate::runtime::{FlushOutcome, QueryCore, QueryRuntime};

/// Per-slide counters of an incremental run.
#[derive(Debug, Clone, Default)]
pub struct IncrementalReport {
    /// Objects processed.
    pub objects: u64,
    /// Window-transition events processed.
    pub events: u64,
    /// Slides executed (snapshot → parallel sweep → install → answer).
    pub slides: u64,
    /// Dirty-cell jobs swept across all slides.
    pub jobs: u64,
    /// Largest single-slide job count.
    pub max_jobs_per_slide: u64,
    /// The answer at every slide boundary, in slide order (the comparison
    /// target for the mesh driver's bit-identity tests). Retains every
    /// answer under the default [`RetainAll`] sink; bounded by consumer lag
    /// under [`drive_incremental_with_sink`].
    pub answers: AnswerLog<Option<RegionAnswer>>,
    /// Detector counters at the end of the run.
    pub stats: DetectorStats,
}

/// Drives `source` into an [`IncrementalDetector`], refreshing the
/// continuous answer once per *slide* of `slide_objects` arrivals.
///
/// Instead of letting `current()` search stale cells lazily one-by-one, each
/// slide boundary sweeps every dirty cell **in place** via
/// [`IncrementalDetector::sweep_dirty`] — detectors with persistent
/// per-cell sweep state (`CellCspot`) apply the slide's accumulated churn
/// to that state instead of re-extracting and re-sorting each cell's
/// rectangles into throwaway jobs — and *then* reads the answer, which
/// finds every cell fresh. The answer after each slide is identical to the sequential
/// driver's answer at the same stream position. After the last slide the
/// engine tail is drained and one terminal flush runs (counted in
/// `slides`/`answers`), so the detector ends the run with empty windows.
///
/// Retains every per-slide answer ([`RetainAll`]); wire a consumer with
/// [`drive_incremental_with_sink`] to bound retention.
pub fn drive_incremental<D>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
) -> IncrementalReport
where
    D: IncrementalDetector,
{
    drive_incremental_observed(
        detector,
        windows,
        source,
        slide_objects,
        &mut RetainAll,
        &surge_observe::Observe::off(),
    )
}

/// The sweep-capable [`QueryCore`] face of an [`IncrementalDetector`]:
/// flush sweeps the dirty cells (the swept count becomes the flush's
/// maintenance units) and then reads the continuous answer.
struct IncrementalCore<'a, D: ?Sized> {
    detector: &'a mut D,
}

impl<D: IncrementalDetector + ?Sized> QueryCore for IncrementalCore<'_, D> {
    fn on_events(&mut self, events: &[Event]) {
        for ev in events {
            self.detector.on_event(ev);
        }
    }
    fn flush(&mut self, _seq: u64) -> FlushOutcome {
        let swept = self.detector.sweep_dirty(1);
        FlushOutcome {
            answers: self.detector.current().into_iter().collect(),
            swept,
        }
    }
}

/// [`drive_incremental`] with an explicit answer consumer: every per-slide
/// answer is delivered through `sink`, and answers the sink acks are
/// released from `IncrementalReport::answers` instead of retained — the
/// bounded-retention path long-running services use.
///
/// `_threads` is ignored: sequential; the parallel path is `drive_elastic`;
/// delete in the next benchmark PR (the benchmark harness still passes it).
pub fn drive_incremental_with_sink<D>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    _threads: usize,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
) -> IncrementalReport
where
    D: IncrementalDetector,
{
    drive_incremental_observed(
        detector,
        windows,
        source,
        slide_objects,
        sink,
        &surge_observe::Observe::off(),
    )
}

/// [`drive_incremental_with_sink`] with registry probes: runtime counters
/// under `incremental/*` (via [`QueryRuntime::observe`]) plus, after the
/// run, the detector's search count (`incremental/searches`). No-op under
/// [`surge_observe::Observe::off`]; answers are bitwise identical either
/// way (proptested).
///
/// # Panics
///
/// Panics if `slide_objects` is 0.
pub fn drive_incremental_observed<D>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
    obs: &surge_observe::Observe,
) -> IncrementalReport
where
    D: IncrementalDetector,
{
    let core = IncrementalCore { detector };
    let mut rt = QueryRuntime::new(core, windows, slide_objects);
    rt.observe(obs, "incremental");
    let mut answers = AnswerLog::new();
    rt.run(source, |_, flushed: Vec<RegionAnswer>| {
        answers.offer(flushed.first().copied(), sink);
    });
    let counters = *rt.counters();
    let stats = rt.core().detector.stats();
    if obs.is_enabled() {
        obs.counter("incremental/searches").add(stats.searches);
    }
    IncrementalReport {
        objects: counters.objects,
        events: counters.events,
        slides: counters.slides,
        jobs: counters.jobs,
        max_jobs_per_slide: counters.max_jobs_per_slide,
        answers,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{BurstDetector, EventKind, Point};

    fn stream(n: usize) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| {
                SpatialObject::new(
                    i as u64,
                    (i % 7 + 1) as f64,
                    Point::new(i as f64, 0.0),
                    (i as u64) * 10,
                )
            })
            .collect()
    }

    /// Toy incremental detector: one deferred "search" per dirty flush.
    struct ToyIncremental {
        current: f64,
        dirty: bool,
        refreshed: u64,
        seen: u64,
    }

    impl BurstDetector for ToyIncremental {
        fn on_event(&mut self, event: &Event) {
            self.seen += 1;
            if event.kind == EventKind::New {
                self.current += event.object.weight;
            }
            self.dirty = true;
        }
        fn current(&mut self) -> Option<RegionAnswer> {
            Some(RegionAnswer::from_point(
                Point::new(0.0, 0.0),
                surge_core::RegionSize::new(1.0, 1.0),
                self.current,
            ))
        }
        fn name(&self) -> &'static str {
            "toy-incremental"
        }
        fn stats(&self) -> DetectorStats {
            DetectorStats {
                events: self.seen,
                ..Default::default()
            }
        }
    }

    impl IncrementalDetector for ToyIncremental {
        fn sweep_dirty(&mut self, _threads: usize) -> u64 {
            let swept = self.dirty as u64;
            self.refreshed += swept;
            self.dirty = false;
            swept
        }
    }

    #[test]
    fn drive_incremental_flushes_each_slide() {
        let mut det = ToyIncremental {
            current: 0.0,
            dirty: false,
            refreshed: 0,
            seen: 0,
        };
        let report = drive_incremental(
            &mut det,
            WindowConfig::equal(1_000),
            stream(100).into_iter(),
            10,
        );
        assert_eq!(report.objects, 100);
        // 10 stream slides plus the terminal drain flush.
        assert_eq!(report.slides, 11);
        assert_eq!(report.jobs, 11); // one dirty job per flush
        assert_eq!(det.refreshed, 11);
        assert!(!det.dirty);
        // The drain delivers the tail Grown/Expired events too.
        assert_eq!(report.events, 300);
        assert_eq!(report.stats.events, report.events);
    }

    #[test]
    fn drive_incremental_partial_last_slide() {
        let mut det = ToyIncremental {
            current: 0.0,
            dirty: false,
            refreshed: 0,
            seen: 0,
        };
        let report = drive_incremental(
            &mut det,
            WindowConfig::equal(1_000),
            stream(25).into_iter(),
            10,
        );
        assert_eq!(report.slides, 4); // 10 + 10 + 5, then the terminal drain
        assert_eq!(report.max_jobs_per_slide, 1);
    }

    #[test]
    fn empty_stream_yields_reports() {
        let mut det = ToyIncremental {
            current: 0.0,
            dirty: false,
            refreshed: 0,
            seen: 0,
        };
        let report = drive_incremental(&mut det, WindowConfig::equal(100), std::iter::empty(), 10);
        // No slide ever opened: only the terminal flush runs.
        assert_eq!(report.objects, 0);
        assert_eq!(report.events, 0);
        assert_eq!(report.slides, 1);
        assert_eq!(report.jobs, 0);
        assert_eq!(report.answers.len(), 1);
    }
}
