//! The slide-cadence state machine every slide-batched driver runs on.
//!
//! A continuous query refreshes its answer once every `slide_objects`
//! arrivals; at end of stream it flushes the trailing partial slide (if
//! any), drains the engine (`SlidingWindowEngine::finish`) and runs one
//! terminal flush: the answers are `[slides..., partial?, terminal]`.
//! [`QueryRuntime`] is the only code that knows that cadence, and it tracks
//! where a run is in it as a [`Phase`]: `Open { in_slide }`, then
//! `PartialFlushed` if a slide was open, then `Finished`.
//!
//! [`push`](QueryRuntime::push) returns the flush an arrival completes and
//! [`finish_step`](QueryRuntime::finish_step) yields the end-of-stream
//! flushes one at a time, so each caller — `drive_slides`,
//! `drive_incremental`, `drive_elastic`, the checkpoint runner,
//! every `surge-serve` lane — does its own post-flush work and error
//! handling between flushes.
//!
//! **Resume.** The phase is a pure function of three counters every snapshot
//! already stores — objects pushed, flushes run, slide size — so
//! [`resume`](QueryRuntime::resume), the one path checkpoint recovery and
//! `SurgeServer::restore` take, derives it: a run
//! captured after its partial or terminal flush does not repeat it, and a
//! combination no run reaches is a [`RestoreError`].

use std::borrow::BorrowMut;

use surge_core::{Event, RegionAnswer, RestoreError, SpatialObject, WindowConfig};
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
    /// Consumes the window-transition events one arrival (or the end-of-
    /// stream drain) caused, in stream order.
    fn on_events(&mut self, events: &[Event]);
    /// Flush boundary number `seq` (dense, 0-based over the whole run):
    /// settle deferred maintenance and report the current answers.
    fn flush(&mut self, seq: u64) -> FlushOutcome;
}

/// Where a [`QueryRuntime`] is in the slide cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepting arrivals; `in_slide` of them are in the open slide.
    Open {
        /// Arrivals in the currently open slide (`< slide_objects`).
        in_slide: usize,
    },
    /// End of stream: the trailing partial slide has been flushed; the
    /// drain and the terminal flush remain.
    PartialFlushed,
    /// The terminal flush has run.
    Finished,
}

impl Phase {
    /// The phase a run is in after pushing `objects` arrivals and running
    /// `flushes` flushes at `slide_objects` arrivals per slide, or `None`
    /// when no run reaches that combination.
    fn derive(objects: u64, flushes: u64, slide_objects: usize) -> Option<Phase> {
        let slide = slide_objects as u64;
        let in_slide = objects.checked_rem(slide)?;
        // Flushes beyond the full slides: none while open, then the partial
        // flush (only if a slide was open), then the terminal flush.
        match (flushes.checked_sub(objects / slide)?, in_slide) {
            (0, _) => Some(Phase::Open {
                in_slide: in_slide as usize,
            }),
            (1, 0) | (2, 1..) => Some(Phase::Finished),
            (1, _) => Some(Phase::PartialFlushed),
            _ => None,
        }
    }
}

/// Progress counters of a [`QueryRuntime`], matching the fields the
/// driver reports always exposed (a resumed runtime counts on from its
/// `objects` and `slides`).
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
/// [`SlidingWindowEngine`] (owned or `&mut`) at a fixed slide cadence, and
/// the [`Phase`] of that cadence.
#[derive(Debug)]
pub struct QueryRuntime<C: QueryCore, E: BorrowMut<SlidingWindowEngine> = SlidingWindowEngine> {
    core: C,
    engine: E,
    slide_objects: usize,
    batch: EventBatch,
    phase: Phase,
    counters: RuntimeCounters,
    probes: RuntimeProbes,
}

impl<C: QueryCore> QueryRuntime<C> {
    /// A runtime over a fresh engine.
    ///
    /// # Panics
    ///
    /// Panics if `slide_objects` is 0.
    pub fn new(core: C, windows: WindowConfig, slide_objects: usize) -> Self {
        Self::over(core, SlidingWindowEngine::new(windows), slide_objects)
    }
}

impl<C: QueryCore, E: BorrowMut<SlidingWindowEngine>> QueryRuntime<C, E> {
    /// A fresh run over an existing engine (the borrowed-engine drivers).
    ///
    /// # Panics
    ///
    /// Panics if `slide_objects` is 0.
    pub fn over(core: C, engine: E, slide_objects: usize) -> Self {
        // A fresh run is open; only a zero slide has no phase.
        Self::resume(core, engine, slide_objects, 0, 0)
            .expect("slide must contain at least one object")
    }

    /// Resumes a run that has pushed `objects` arrivals and run `flushes`
    /// flushes, with `core` and `engine` restored to that point; a
    /// [`RestoreError`] when no run at `slide_objects` reaches them.
    pub fn resume(
        core: C,
        engine: E,
        slide_objects: usize,
        objects: u64,
        flushes: u64,
    ) -> Result<Self, RestoreError> {
        let phase = Phase::derive(objects, flushes, slide_objects).ok_or_else(|| {
            RestoreError::new(format!(
                "{flushes} flushes after {objects} objects at {slide_objects} per slide"
            ))
        })?;
        Ok(QueryRuntime {
            core,
            engine,
            slide_objects,
            batch: EventBatch::new(),
            phase,
            counters: RuntimeCounters {
                objects,
                slides: flushes,
                ..RuntimeCounters::default()
            },
            probes: RuntimeProbes::default(),
        })
    }

    /// Attaches registry probes under `scope` (see [`RuntimeProbes::new`]).
    /// A disabled [`Observe`] handle attaches no-op probes — the default.
    pub fn observe(&mut self, obs: &Observe, scope: &str) {
        self.probes = RuntimeProbes::new(obs, scope);
    }

    /// Pushes one arrival; returns the answers of the flush it completes,
    /// if it completes a slide.
    ///
    /// # Panics
    ///
    /// Panics unless the runtime is [`Phase::Open`] — once end of stream
    /// began, no arrival fits the cadence — and on an out-of-order arrival
    /// (the engine's check).
    pub fn push(&mut self, object: SpatialObject) -> Option<Vec<RegionAnswer>> {
        let Phase::Open { in_slide } = self.phase else {
            panic!("QueryRuntime::push after end of stream ({:?})", self.phase);
        };
        self.deliver(|engine, batch| engine.push_into(object, batch));
        self.counters.objects += 1;
        self.probes.objects.inc();
        let in_slide = (in_slide + 1) % self.slide_objects;
        self.phase = Phase::Open { in_slide };
        (in_slide == 0).then(|| self.flush_now())
    }

    /// Advances end of stream by one flush and returns its answers: the
    /// trailing partial slide's flush (if a slide is open and non-empty),
    /// then the engine drain + terminal flush, then `None` once
    /// [`Phase::Finished`].
    pub fn finish_step(&mut self) -> Option<Vec<RegionAnswer>> {
        match self.phase {
            Phase::Open { in_slide } if in_slide > 0 => {
                self.phase = Phase::PartialFlushed;
                Some(self.flush_now())
            }
            Phase::Open { .. } | Phase::PartialFlushed => {
                self.deliver(|engine, batch| engine.finish_into(batch));
                self.phase = Phase::Finished;
                Some(self.flush_now())
            }
            Phase::Finished => None,
        }
    }

    /// Runs a whole source to completion: push every object, then step
    /// end of stream to [`Phase::Finished`], handing every flush to
    /// `on_flush(seq, answers)` with its dense 0-based sequence number.
    pub fn run(
        &mut self,
        source: impl Iterator<Item = SpatialObject>,
        mut on_flush: impl FnMut(u64, Vec<RegionAnswer>),
    ) {
        for obj in source {
            if let Some(answers) = self.push(obj) {
                on_flush(self.counters.slides - 1, answers);
            }
        }
        while let Some(answers) = self.finish_step() {
            on_flush(self.counters.slides - 1, answers);
        }
    }

    /// Fills the batch from the engine and hands every event to the core.
    fn deliver(&mut self, expand: impl FnOnce(&mut SlidingWindowEngine, &mut EventBatch)) {
        self.batch.clear();
        expand(self.engine.borrow_mut(), &mut self.batch);
        self.core.on_events(self.batch.as_slice());
        self.counters.events += self.batch.len() as u64;
        self.probes.events.add(self.batch.len() as u64);
    }

    fn flush_now(&mut self) -> Vec<RegionAnswer> {
        let seq = self.counters.slides;
        self.probes.flight.record(TraceEvent::FlushStart { seq });
        let outcome = self.core.flush(seq);
        self.counters.slides += 1;
        self.counters.jobs += outcome.swept;
        self.counters.max_jobs_per_slide = self.counters.max_jobs_per_slide.max(outcome.swept);
        self.probes.slides.inc();
        self.probes.jobs.add(outcome.swept);
        self.probes.flight.record(TraceEvent::FlushEnd {
            seq,
            answers: outcome.answers.len() as u64,
        });
        outcome.answers
    }

    /// Progress counters so far.
    pub fn counters(&self) -> &RuntimeCounters {
        &self.counters
    }

    /// Where the run is in the slide cadence.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Arrivals in the currently open slide (0 once end of stream began).
    pub fn in_slide(&self) -> usize {
        match self.phase {
            Phase::Open { in_slide } => in_slide,
            Phase::PartialFlushed | Phase::Finished => 0,
        }
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
    #[derive(Default)]
    struct SumCore {
        sum: f64,
        flushes: u64,
    }

    impl QueryCore for SumCore {
        fn on_events(&mut self, events: &[Event]) {
            for ev in events.iter().filter(|ev| ev.kind == EventKind::New) {
                self.sum += ev.object.weight;
            }
        }
        fn flush(&mut self, seq: u64) -> FlushOutcome {
            assert_eq!(seq, self.flushes, "flush seqs are dense");
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
    }

    fn stream(n: usize) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| SpatialObject::new(i as u64, 1.0, Point::new(0.0, 0.0), i as u64 * 10))
            .collect()
    }

    #[test]
    fn runtime_matches_the_historical_slide_loop_shape() {
        let mut rt = QueryRuntime::new(SumCore::default(), WindowConfig::equal(100), 10);
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
        assert_eq!(rt.phase(), Phase::Finished);
    }

    #[test]
    fn exact_slide_boundary_has_no_partial_flush() {
        let mut rt = QueryRuntime::new(SumCore::default(), WindowConfig::equal(100), 5);
        let mut flushes = 0u64;
        rt.run(stream(10).into_iter(), |_, _| flushes += 1);
        // Two full slides + terminal only — no empty partial flush.
        assert_eq!(flushes, 3);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn zero_slide_rejected() {
        let _ = QueryRuntime::new(SumCore::default(), WindowConfig::equal(100), 0);
    }
}
