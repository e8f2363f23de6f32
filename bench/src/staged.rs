//! The hand-staged loop: `push_into` → `on_event`* → (settle →) `current()`,
//! with a span around each call into a layer.
//!
//! With the tracer off this *is* the per-object protocol of
//! `uniform-perobject` and `us-approx` (a disabled tracer reads no clock);
//! with it on, it is the traced twin of the slide driver, whose answers must
//! be bit-identical to the driver's.

use crate::record::Recorder;
use crate::sut::{self, DetectorStats, Event, RegionAnswer, SweepCacheStats};
use crate::trace::{traced_block, Tracer};
use crate::workloads::{Stream, SLIDE_OBJECTS};

/// A detector as the staged loop drives it.
pub trait Staged {
    /// Span name of event delivery, e.g. `cell.on_event`.
    const EVENT_SPAN: &'static str;
    /// Span name of the answer read, e.g. `answer.current`.
    const ANSWER_SPAN: &'static str;

    fn on_event(&mut self, ev: &Event);

    /// Whether the detector has deferred maintenance to settle at a refresh
    /// boundary (eager dirty-cell sweeps) before its answer is read.
    fn settles(&self) -> bool {
        false
    }

    /// Settles the deferred maintenance; returns the units swept.
    fn settle(&mut self) -> u64 {
        0
    }

    fn current(&mut self) -> Option<RegionAnswer>;

    fn stats(&self) -> DetectorStats {
        DetectorStats::default()
    }

    fn cache(&self) -> SweepCacheStats {
        SweepCacheStats::default()
    }
}

/// CCS under either refresh protocol: *eager* sweeps every dirty cell at
/// each refresh (`sweep_dirty`, then `current()` — what the slide driver
/// does); *lazy* lets `current()` search stale cells best-first.
pub struct Ccs {
    pub detector: sut::CellCspot,
    pub eager: bool,
}

impl Staged for Ccs {
    const EVENT_SPAN: &'static str = "cell.on_event";
    const ANSWER_SPAN: &'static str = "answer.current";
    fn on_event(&mut self, ev: &Event) {
        sut::ccs_on_event(&mut self.detector, ev);
    }
    fn settles(&self) -> bool {
        self.eager
    }
    fn settle(&mut self) -> u64 {
        sut::ccs_sweep_dirty(&mut self.detector, 1)
    }
    fn current(&mut self) -> Option<RegionAnswer> {
        sut::ccs_current(&mut self.detector)
    }
    fn stats(&self) -> DetectorStats {
        sut::ccs_stats(&self.detector)
    }
    fn cache(&self) -> SweepCacheStats {
        sut::ccs_sweep_cache_stats(&self.detector)
    }
}

impl Staged for sut::Mgaps {
    const EVENT_SPAN: &'static str = "approx.mgaps_on_event";
    const ANSWER_SPAN: &'static str = "approx.mgaps_current";
    fn on_event(&mut self, ev: &Event) {
        sut::mgaps_on_event(self, ev);
    }
    fn current(&mut self) -> Option<RegionAnswer> {
        sut::mgaps_current(self)
    }
}

impl Staged for sut::Gaps {
    const EVENT_SPAN: &'static str = "approx.gaps_on_event";
    const ANSWER_SPAN: &'static str = "approx.gaps_current";
    fn on_event(&mut self, ev: &Event) {
        sut::gaps_on_event(self, ev);
    }
    fn current(&mut self) -> Option<RegionAnswer> {
        sut::gaps_current(self)
    }
}

impl Staged for sut::TopK {
    const EVENT_SPAN: &'static str = "topk.on_event";
    const ANSWER_SPAN: &'static str = "topk.current_topk";
    fn on_event(&mut self, ev: &Event) {
        sut::topk_on_event(self, ev);
    }
    fn current(&mut self) -> Option<RegionAnswer> {
        sut::topk_current(self).first().copied()
    }
    fn stats(&self) -> DetectorStats {
        sut::topk_stats(self)
    }
}

/// How the loop uses the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// Never record (the end-to-end protocol).
    Off,
    /// Record the timed slide-sized blocks [`traced_block`] picks, skip the
    /// rest — the tracing overhead is the difference between the two kinds.
    Alternate,
}

/// Counts taken at the span boundaries, over the traced blocks only (so they
/// divide the span totals exactly), plus whole-timed-range detector deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub objects: u64,
    pub events: u64,
    pub refreshes: u64,
    /// Refreshes whose reported region differs from the previous refresh's.
    pub changed: u64,
    /// Units settled (dirty cells swept) at refresh boundaries.
    pub swept: u64,
    /// Detector counters accumulated over the whole timed range.
    pub timed_stats: DetectorStats,
    pub timed_cache: SweepCacheStats,
    /// Objects resident in both windows when the loop ended.
    pub resident: usize,
}

fn stats_delta(end: DetectorStats, start: DetectorStats) -> DetectorStats {
    DetectorStats {
        events: end.events - start.events,
        new_events: end.new_events - start.new_events,
        searches: end.searches - start.searches,
        events_triggering_search: end.events_triggering_search - start.events_triggering_search,
    }
}

fn cache_delta(end: SweepCacheStats, start: SweepCacheStats) -> SweepCacheStats {
    SweepCacheStats {
        epoch_hits: end.epoch_hits - start.epoch_hits,
        epoch_misses: end.epoch_misses - start.epoch_misses,
        plan_builds: end.plan_builds - start.plan_builds,
        plan_reuses: end.plan_reuses - start.plan_reuses,
    }
}

/// Replays `stream` through a fresh window engine into `detector` under
/// `rec`'s clock, refreshing the answer every `per_refresh` arrivals.
pub fn run<D: Staged>(
    detector: &mut D,
    q: &sut::SurgeQuery,
    per_refresh: usize,
    rec: &Recorder,
    stream: Stream,
    tracer: &mut Tracer,
    tracing: Tracing,
) -> Counts {
    let root = tracer.name(if per_refresh == 1 {
        "refresh.object"
    } else {
        "refresh.slide"
    });
    let window = tracer.name("window.push_into");
    let events = tracer.name(D::EVENT_SPAN);
    let settle = tracer.name("sweep.sweep_dirty");
    let answer = tracer.name(D::ANSWER_SPAN);

    let mut engine = sut::window_engine(q);
    let mut batch = sut::EventBatch::new();
    let mut counts = Counts::default();
    let mut at_start: Option<(DetectorStats, SweepCacheStats)> = None;
    let mut previous: Option<RegionAnswer> = None;
    let mut in_refresh = 0;
    for obj in rec.feed(stream) {
        if in_refresh == 0 {
            if let Some(timed) = rec.timed_objects() {
                if timed == 0 {
                    at_start = Some((detector.stats(), detector.cache()));
                }
                if tracing == Tracing::Alternate && timed % SLIDE_OBJECTS == 0 {
                    tracer.set_on(traced_block(timed / SLIDE_OBJECTS));
                }
            }
            let at = tracer.tick();
            tracer.enter_at(root, at);
            tracer.enter_at(window, at);
        } else {
            tracer.then(window);
        }
        batch.clear();
        sut::window_push_into(&mut engine, obj, &mut batch);
        tracer.then(events);
        for ev in batch.iter() {
            detector.on_event(ev);
        }
        let traced = tracer.is_on();
        counts.objects += traced as u64;
        counts.events += if traced { batch.len() as u64 } else { 0 };
        in_refresh += 1;
        if in_refresh < per_refresh {
            continue;
        }
        in_refresh = 0;
        if detector.settles() {
            tracer.then(settle);
            let swept = detector.settle();
            counts.swept += if traced { swept } else { 0 };
        }
        tracer.then(answer);
        let now = detector.current();
        let at = tracer.tick();
        tracer.exit_at(at);
        tracer.exit_at(at);
        tracer.next_refresh();
        if traced {
            counts.refreshes += 1;
            counts.changed += (now.map(|a| a.region) != previous.map(|a| a.region)) as u64;
        }
        previous = now;
        rec.on_answer(now);
    }
    if in_refresh > 0 {
        // The stream only ends on a refresh boundary; close what is open.
        let at = tracer.tick();
        tracer.exit_at(at);
        tracer.exit_at(at);
    }
    if let Some((stats, cache)) = at_start {
        counts.timed_stats = stats_delta(detector.stats(), stats);
        counts.timed_cache = cache_delta(detector.cache(), cache);
    }
    counts.resident = sut::window_resident(&engine);
    counts
}
