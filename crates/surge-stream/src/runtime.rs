//! The single-query slide-cadence state machine, and the contract every
//! slide-batched driver follows.
//!
//! A slide-batched driver pushes an object through a window engine,
//! delivers the expanded events to a detector, flushes at every
//! `slide_objects`-th arrival, and ends with the canonical drain + terminal
//! flush: `in_slide → partial flush → drain → terminal flush`.
//!
//! [`QueryRuntime`] is that state machine: a [`QueryCore`] (the detector
//! face: consume events, flush answers) bound to a [`SlidingWindowEngine`]
//! (owned, or borrowed from the caller) at a slide cadence. `drive_slides`
//! and `drive_incremental` are thin wrappers over it. It is **not** yet the
//! only copy — four more loops carry the same cadence by hand and stay
//! bit-identical to it by differential tests alone:
//!
//! * the checkpoint `Runner` (`surge-checkpoint` `driver.rs`: `ingest` /
//!   `run`), which interleaves WAL appends and snapshots;
//! * `surge-serve`'s `Lane` (`push` / `finish` "mirror" this module for
//!   every detector group at once);
//! * [`drive_autopilot`](crate::autopilot::drive_autopilot), which times
//!   each flush and may switch tiers between slides;
//! * [`drive_elastic`](crate::elastic::drive_elastic), whose flush is a
//!   mesh round trip and whose epochs end at slide boundaries.
//!
//! Five copies of one contract; folding them into this one is ROADMAP's
//! "One pipeline, one report". The flush contract is proptested against the
//! historical loops: the answer sequence is
//! `[slide answers..., terminal answer]`, with a flush for the trailing
//! partial slide before the drain.

use std::borrow::BorrowMut;

use surge_core::{DetectorStats, Event, RegionAnswer, SpatialObject, WindowConfig};
use surge_observe::{Counter, Flight, Observe, TraceEvent};

use crate::window::{EventBatch, SlidingWindowEngine};

/// What one flush produced.
#[derive(Debug, Clone, Default)]
pub struct FlushOutcome {
    /// The flush's answers: 0/1 entries for single-region detectors, up to
    /// k for top-k.
    pub answers: Vec<RegionAnswer>,
    /// Maintenance units this flush performed (dirty-cell sweeps for the
    /// incremental detectors, dirty-cell count for the tracker-based
    /// sequential driver) — feeds [`RuntimeCounters::jobs`].
    pub swept: u64,
}

/// The detector face of a [`QueryRuntime`]: consume the event stream,
/// produce answers at flush boundaries.
///
/// This is the shape every detector family already had implicitly — CCS
/// sweeps dirty cells then answers, Base/top-k/grid detectors answer
/// directly. A core must be deterministic in the event sequence: the
/// runtime guarantees the sequence, the core guarantees the answer.
pub trait QueryCore {
    /// Consumes one window-transition event.
    fn on_event(&mut self, event: &Event);
    /// Flush boundary: settle deferred maintenance (with up to `threads`
    /// workers) and report the current answers.
    fn flush(&mut self, threads: usize) -> FlushOutcome;
    /// Detector counters.
    fn stats(&self) -> DetectorStats;
}

/// Progress counters of a [`QueryRuntime`], matching the fields the
/// driver reports always exposed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Objects pushed.
    pub objects: u64,
    /// Window-transition events delivered to the core.
    pub events: u64,
    /// Flushes executed (slides + the terminal flush).
    pub slides: u64,
    /// Total maintenance units across all flushes ([`FlushOutcome::swept`]).
    pub jobs: u64,
    /// Largest single-flush maintenance count.
    pub max_jobs_per_slide: u64,
}

/// Registry handles a [`QueryRuntime`] records through when observability
/// is enabled. The default (disabled) probes are no-ops: recording is a
/// branch on `None` the optimizer erases, and the observe-on/off
/// differential proptests prove the enabled path is answer-invariant too.
#[derive(Debug, Clone, Default)]
pub struct RuntimeProbes {
    objects: Counter,
    events: Counter,
    slides: Counter,
    jobs: Counter,
    flight: Flight,
}

impl RuntimeProbes {
    /// Probes registered under `scope` (e.g. `"runtime"` or
    /// `"serve/sub=3"`): counters `scope/objects`, `scope/events`,
    /// `scope/slides`, `scope/jobs`, and the flight ring `scope`.
    pub fn new(obs: &Observe, scope: &str) -> Self {
        RuntimeProbes {
            objects: obs.counter(&format!("{scope}/objects")),
            events: obs.counter(&format!("{scope}/events")),
            slides: obs.counter(&format!("{scope}/slides")),
            jobs: obs.counter(&format!("{scope}/jobs")),
            flight: obs.flight(scope),
        }
    }
}

/// One continuous query's execution state: a [`QueryCore`] fed by a
/// [`SlidingWindowEngine`] (owned or `&mut`) at a fixed slide cadence.
///
/// Every flush invokes the caller's `on_flush(seq, answers)` with a dense
/// 0-based flush sequence number — the hook answer channels
/// ([`crate::answers::AnswerLog`]) attach to.
#[derive(Debug)]
pub struct QueryRuntime<C: QueryCore, E: BorrowMut<SlidingWindowEngine> = SlidingWindowEngine> {
    core: C,
    engine: E,
    slide_objects: usize,
    threads: usize,
    batch: EventBatch,
    in_slide: usize,
    counters: RuntimeCounters,
    probes: RuntimeProbes,
}

impl<C: QueryCore> QueryRuntime<C> {
    /// A runtime over a fresh engine.
    ///
    /// # Panics
    ///
    /// Panics if `slide_objects` is 0.
    pub fn new(core: C, windows: WindowConfig, slide_objects: usize, threads: usize) -> Self {
        Self::over(
            core,
            SlidingWindowEngine::new(windows),
            slide_objects,
            threads,
        )
    }
}

impl<C: QueryCore, E: BorrowMut<SlidingWindowEngine>> QueryRuntime<C, E> {
    /// A runtime over an existing engine (possibly mid-stream — the
    /// restore path and the borrowed-engine drivers).
    ///
    /// # Panics
    ///
    /// Panics if `slide_objects` is 0.
    pub fn over(core: C, engine: E, slide_objects: usize, threads: usize) -> Self {
        assert!(slide_objects > 0, "slide must contain at least one object");
        QueryRuntime {
            core,
            engine,
            slide_objects,
            threads,
            batch: EventBatch::new(),
            in_slide: 0,
            counters: RuntimeCounters::default(),
            probes: RuntimeProbes::default(),
        }
    }

    /// Attaches registry probes under `scope` (see [`RuntimeProbes::new`]).
    /// A disabled [`Observe`] handle attaches no-op probes — the default.
    pub fn observe(&mut self, obs: &Observe, scope: &str) {
        self.probes = RuntimeProbes::new(obs, scope);
    }

    /// Pushes one arrival; flushes through `on_flush` if it completes a
    /// slide.
    pub fn push(
        &mut self,
        object: SpatialObject,
        on_flush: &mut impl FnMut(u64, Vec<RegionAnswer>),
    ) {
        self.batch.clear();
        self.engine.borrow_mut().push_into(object, &mut self.batch);
        for ev in self.batch.iter() {
            self.core.on_event(ev);
        }
        self.counters.events += self.batch.len() as u64;
        self.counters.objects += 1;
        self.probes.events.add(self.batch.len() as u64);
        self.probes.objects.inc();
        self.in_slide += 1;
        if self.in_slide >= self.slide_objects {
            self.in_slide = 0;
            self.flush_now(on_flush);
        }
    }

    /// End of stream: flushes the trailing partial slide (if any), drains
    /// the engine tail, and runs the terminal flush — the shared
    /// end-of-stream contract of every replay driver.
    pub fn finish(&mut self, on_flush: &mut impl FnMut(u64, Vec<RegionAnswer>)) {
        if self.in_slide > 0 {
            self.in_slide = 0;
            self.flush_now(on_flush);
        }
        self.batch.clear();
        self.engine.borrow_mut().finish_into(&mut self.batch);
        for ev in self.batch.iter() {
            self.core.on_event(ev);
        }
        self.counters.events += self.batch.len() as u64;
        self.probes.events.add(self.batch.len() as u64);
        self.flush_now(on_flush);
    }

    /// Runs a whole source to completion: push every object, then
    /// [`finish`](Self::finish).
    pub fn run(
        &mut self,
        source: impl Iterator<Item = SpatialObject>,
        mut on_flush: impl FnMut(u64, Vec<RegionAnswer>),
    ) {
        for obj in source {
            self.push(obj, &mut on_flush);
        }
        self.finish(&mut on_flush);
    }

    fn flush_now(&mut self, on_flush: &mut impl FnMut(u64, Vec<RegionAnswer>)) {
        let seq = self.counters.slides;
        self.probes.flight.record(TraceEvent::FlushStart { seq });
        let outcome = self.core.flush(self.threads);
        self.counters.slides += 1;
        self.counters.jobs += outcome.swept;
        self.counters.max_jobs_per_slide = self.counters.max_jobs_per_slide.max(outcome.swept);
        self.probes.slides.inc();
        self.probes.jobs.add(outcome.swept);
        self.probes.flight.record(TraceEvent::FlushEnd {
            seq,
            answers: outcome.answers.len() as u64,
        });
        on_flush(seq, outcome.answers);
    }

    /// Progress counters so far.
    pub fn counters(&self) -> &RuntimeCounters {
        &self.counters
    }

    /// Arrivals in the currently open slide.
    pub fn in_slide(&self) -> usize {
        self.in_slide
    }

    /// The core.
    pub fn core(&self) -> &C {
        &self.core
    }

    /// The core, mutably.
    pub fn core_mut(&mut self) -> &mut C {
        &mut self.core
    }

    /// The engine.
    pub fn engine(&self) -> &SlidingWindowEngine {
        self.engine.borrow()
    }

    /// Consumes the runtime, returning the core.
    pub fn into_core(self) -> C {
        self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{EventKind, Point, RegionSize};

    /// Counts events and flushes; answers with the running weight sum.
    struct SumCore {
        sum: f64,
        events: u64,
        flushes: u64,
    }

    impl QueryCore for SumCore {
        fn on_event(&mut self, event: &Event) {
            self.events += 1;
            if event.kind == EventKind::New {
                self.sum += event.object.weight;
            }
        }
        fn flush(&mut self, _threads: usize) -> FlushOutcome {
            self.flushes += 1;
            FlushOutcome {
                answers: vec![RegionAnswer::from_point(
                    Point::new(0.0, 0.0),
                    RegionSize::new(1.0, 1.0),
                    self.sum,
                )],
                swept: 1,
            }
        }
        fn stats(&self) -> DetectorStats {
            DetectorStats {
                events: self.events,
                ..Default::default()
            }
        }
    }

    fn stream(n: usize) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| SpatialObject::new(i as u64, 1.0, Point::new(0.0, 0.0), i as u64 * 10))
            .collect()
    }

    #[test]
    fn runtime_matches_the_historical_slide_loop_shape() {
        let core = SumCore {
            sum: 0.0,
            events: 0,
            flushes: 0,
        };
        let mut rt = QueryRuntime::new(core, WindowConfig::equal(100), 10, 1);
        let mut seqs = Vec::new();
        rt.run(stream(25).into_iter(), |seq, answers| {
            assert_eq!(answers.len(), 1);
            seqs.push(seq);
        });
        // 10 + 10 + 5 (partial), then the terminal drain flush.
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        let c = rt.counters();
        assert_eq!(c.objects, 25);
        assert_eq!(c.slides, 4);
        assert_eq!(c.jobs, 4);
        assert_eq!(c.max_jobs_per_slide, 1);
        // Every object completes its New/Grown/Expired lifecycle.
        assert_eq!(c.events, 75);
        assert_eq!(rt.core().flushes, 4);
    }

    #[test]
    fn exact_slide_boundary_has_no_partial_flush() {
        let core = SumCore {
            sum: 0.0,
            events: 0,
            flushes: 0,
        };
        let mut rt = QueryRuntime::new(core, WindowConfig::equal(100), 5, 1);
        let mut flushes = 0u64;
        rt.run(stream(10).into_iter(), |_, _| flushes += 1);
        // Two full slides + terminal only — no empty partial flush.
        assert_eq!(flushes, 3);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn zero_slide_rejected() {
        let _ = QueryRuntime::new(
            SumCore {
                sum: 0.0,
                events: 0,
                flushes: 0,
            },
            WindowConfig::equal(100),
            0,
            1,
        );
    }
}
