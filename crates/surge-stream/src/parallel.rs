//! Parallel execution: detector fan-out and dirty-cell sweep fan-out.
//!
//! Two independent parallelism axes live here:
//!
//! * [`drive_parallel`] — comparing detectors (the core of the paper's
//!   evaluation) means feeding the *same* event stream to several of them.
//!   The stream is expanded once and fanned out to one worker thread per
//!   detector over bounded channels.
//! * [`drive_incremental`] — *within* one exact detector, a window slide
//!   leaves a set of dirty cells whose SL-CSPOT searches are independent
//!   per-cell work ([`IncrementalDetector`]). `drive_incremental` sweeps
//!   them **in place** via [`IncrementalDetector::sweep_dirty`]: detectors
//!   with persistent per-cell sweep state fan one scoped worker per shard
//!   chunk over their own `(cells, queue)` pairs, mutating the persistent
//!   structures where they live instead of cloning rectangles into
//!   throwaway jobs.
//!
//! In both cases results are bit-for-bit identical to a sequential run —
//! parallelism only changes wall-clock time.

use std::thread;

use crossbeam_channel::{bounded, Receiver, Sender};

use surge_core::{
    BurstDetector, DetectorStats, Event, IncrementalDetector, RegionAnswer, SpatialObject,
    WindowConfig,
};

use crate::answers::{AnswerLog, AnswerSink, RetainAll};
use crate::metrics::{LatencyHistogram, LatencySummary};
use crate::runtime::{FlushOutcome, QueryCore, QueryRuntime};
use crate::window::{EventBatch, SlidingWindowEngine};

/// Events are shipped to workers in fixed-size batches to amortize channel
/// overhead.
const BATCH: usize = 256;

/// Per-detector outcome of a parallel run.
#[derive(Debug)]
pub struct ParallelReport {
    /// Detector name.
    pub name: &'static str,
    /// The detector's final answer after the whole stream.
    pub final_answer: Option<RegionAnswer>,
    /// Per-event processing-latency histogram (includes the `current()`
    /// refresh after each event, as in the sequential driver).
    pub latency: LatencyHistogram,
    /// Detector counters.
    pub stats: DetectorStats,
    /// Number of events the worker processed.
    pub events: u64,
}

impl ParallelReport {
    /// The headline latency percentiles.
    pub fn latency_summary(&self) -> LatencySummary {
        self.latency.summary()
    }
}

fn worker(mut detector: Box<dyn BurstDetector + Send>, rx: Receiver<Vec<Event>>) -> ParallelReport {
    let mut latency = LatencyHistogram::new();
    let mut events = 0u64;
    for batch in rx.iter() {
        for ev in &batch {
            let t0 = std::time::Instant::now();
            detector.on_event(ev);
            let _ = detector.current();
            latency.record(t0.elapsed());
            events += 1;
        }
    }
    ParallelReport {
        name: detector.name(),
        final_answer: detector.current(),
        stats: detector.stats(),
        latency,
        events,
    }
}

/// Expands `source` through one sliding-window engine and feeds the resulting
/// event stream to every detector on its own thread.
///
/// Returns one report per detector, in input order.
///
/// Unlike the replay drivers (`drive`, `drive_slides`, `drive_incremental`,
/// `drive_elastic`), this harness deliberately does **not** drain the tail
/// windows: its purpose is comparing detectors on identical input, and the
/// `final_answer` agreement check (all exact detectors must report the same
/// score) is only meaningful while the windows still hold objects.
///
/// # Panics
///
/// Panics if `detectors` is empty, or propagates a worker panic.
pub fn drive_parallel(
    detectors: Vec<Box<dyn BurstDetector + Send>>,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
) -> Vec<ParallelReport> {
    assert!(!detectors.is_empty(), "need at least one detector");
    let n = detectors.len();
    let mut senders: Vec<Sender<Vec<Event>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<Vec<Event>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = bounded(16);
        senders.push(tx);
        receivers.push(rx);
    }

    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (det, rx) in detectors.into_iter().zip(receivers) {
            handles.push(scope.spawn(move || worker(det, rx)));
        }

        let mut engine = SlidingWindowEngine::new(windows);
        // One reused expansion buffer: event expansion allocates nothing in
        // steady state; only the per-worker batch clones are allocated.
        let mut batch = EventBatch::with_capacity(BATCH);
        for obj in source {
            engine.push_into(obj, &mut batch);
            if batch.len() >= BATCH {
                for tx in &senders {
                    tx.send(batch.as_slice().to_vec()).expect("worker alive");
                }
                batch.clear();
            }
        }
        if !batch.is_empty() {
            for tx in &senders {
                tx.send(batch.as_slice().to_vec()).expect("worker alive");
            }
        }
        drop(senders); // close channels: workers drain and finish

        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

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
/// continuous answer once per *slide* of `slide_objects` arrivals and
/// fanning each slide's dirty-cell searches across `threads` workers.
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
    threads: usize,
) -> IncrementalReport
where
    D: IncrementalDetector,
{
    drive_incremental_with_sink(
        detector,
        windows,
        source,
        slide_objects,
        threads,
        &mut RetainAll,
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
    fn flush(&mut self, _seq: u64, threads: usize) -> FlushOutcome {
        let swept = self.detector.sweep_dirty(threads);
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
pub fn drive_incremental_with_sink<D>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    threads: usize,
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
        threads,
        sink,
        &surge_observe::Observe::off(),
    )
}

/// [`drive_incremental_with_sink`] with registry probes: runtime counters
/// under `incremental/*` (via [`QueryRuntime::observe`]) plus, after the
/// run, the detector's counters and its sweep-cache accounting
/// (`incremental/sweep_cache/epoch_hits` etc.) — whose invariant
/// `epoch_hits + epoch_misses == searches` the accounting proptests check
/// against the registry. No-op under [`surge_observe::Observe::off`];
/// answers are bitwise identical either way (proptested).
///
/// # Panics
///
/// Panics if `slide_objects` is 0.
#[allow(clippy::too_many_arguments)]
pub fn drive_incremental_observed<D>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    threads: usize,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
    obs: &surge_observe::Observe,
) -> IncrementalReport
where
    D: IncrementalDetector,
{
    let core = IncrementalCore { detector };
    let mut rt = QueryRuntime::new(core, windows, slide_objects, threads);
    rt.observe(obs, "incremental");
    let mut answers = AnswerLog::new();
    rt.run(source, |_, flushed: Vec<RegionAnswer>| {
        answers.offer(flushed.first().copied(), sink);
    });
    let counters = *rt.counters();
    let stats = rt.core().detector.stats();
    if obs.is_enabled() {
        let cache = rt.core().detector.sweep_cache_stats();
        obs.counter("incremental/searches").add(stats.searches);
        obs.counter("incremental/sweep_cache/epoch_hits")
            .add(cache.epoch_hits);
        obs.counter("incremental/sweep_cache/epoch_misses")
            .add(cache.epoch_misses);
        obs.counter("incremental/sweep_cache/plan_builds")
            .add(cache.plan_builds);
        obs.counter("incremental/sweep_cache/plan_reuses")
            .add(cache.plan_reuses);
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
    use surge_core::{EventKind, Point};

    /// Sums weights in the current window; answer encodes the sum.
    struct WeightSum {
        current: f64,
        seen: u64,
    }

    impl BurstDetector for WeightSum {
        fn on_event(&mut self, event: &Event) {
            self.seen += 1;
            match event.kind {
                EventKind::New => self.current += event.object.weight,
                EventKind::Grown => self.current -= event.object.weight,
                EventKind::Expired => {}
            }
        }
        fn current(&mut self) -> Option<RegionAnswer> {
            Some(RegionAnswer::from_point(
                Point::new(0.0, 0.0),
                surge_core::RegionSize::new(1.0, 1.0),
                self.current,
            ))
        }
        fn name(&self) -> &'static str {
            "weight-sum"
        }
        fn stats(&self) -> DetectorStats {
            DetectorStats {
                events: self.seen,
                ..Default::default()
            }
        }
    }

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

    #[test]
    fn parallel_matches_sequential() {
        let objs = stream(5_000);
        let windows = WindowConfig::equal(1_000);

        // Sequential reference.
        let mut seq = WeightSum {
            current: 0.0,
            seen: 0,
        };
        let mut engine = SlidingWindowEngine::new(windows);
        for obj in objs.iter().copied() {
            for ev in engine.push(obj) {
                seq.on_event(&ev);
            }
        }
        let want = seq.current().unwrap().score;

        let dets: Vec<Box<dyn BurstDetector + Send>> = vec![
            Box::new(WeightSum {
                current: 0.0,
                seen: 0,
            }),
            Box::new(WeightSum {
                current: 0.0,
                seen: 0,
            }),
            Box::new(WeightSum {
                current: 0.0,
                seen: 0,
            }),
        ];
        let reports = drive_parallel(dets, windows, objs.into_iter());
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.final_answer.unwrap().score.to_bits(), want.to_bits());
            assert_eq!(r.events, seq.seen);
            assert_eq!(r.stats.events, seq.seen);
            assert!(r.latency.count() > 0);
        }
    }

    #[test]
    fn latency_summary_is_populated() {
        let reports = drive_parallel(
            vec![Box::new(WeightSum {
                current: 0.0,
                seen: 0,
            })],
            WindowConfig::equal(100),
            stream(500).into_iter(),
        );
        let s = reports[0].latency_summary();
        assert!(s.count > 0);
        assert!(s.max_us >= s.p50_us);
    }

    #[test]
    #[should_panic(expected = "at least one detector")]
    fn empty_detector_list_rejected() {
        let _ = drive_parallel(vec![], WindowConfig::equal(100), stream(1).into_iter());
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
            4,
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
            2,
        );
        assert_eq!(report.slides, 4); // 10 + 10 + 5, then the terminal drain
        assert_eq!(report.max_jobs_per_slide, 1);
    }

    #[test]
    fn empty_stream_yields_reports() {
        let reports = drive_parallel(
            vec![Box::new(WeightSum {
                current: 0.0,
                seen: 0,
            })],
            WindowConfig::equal(100),
            std::iter::empty(),
        );
        assert_eq!(reports[0].events, 0);
    }
}
