//! Overload autopilot: bounded exact↔approx degradation under ingest
//! pressure.
//!
//! The exact detector's per-slide cost is unbounded in the worst case (a
//! flash crowd concentrating arrivals in one cell forces `O(|c|²)` sweeps),
//! while GAPS/MGAPS are O(log n) per event with the `(1 − α)/4` guarantee
//! of Theorems 3–4. The autopilot exploits that lattice: a
//! [`DegradationController`] watches per-slide signals against a
//! [`SloPolicy`] and walks the detector down the tier lattice
//!
//! ```text
//!   exact (CCS)  ⇄  MGAPS  ⇄  GAPS
//!   bound 1.0        (1−α)/4    (1−α)/4
//! ```
//!
//! one step at a time, with hysteresis (consecutive-slide thresholds plus a
//! post-transition cooldown) so it never flaps. Every transition is a
//! **warm hand-off**: the incoming tier is bootstrapped from the live
//! window contents (for re-upgrades, the current windows are replayed
//! through a fresh exact detector), so no answer window is ever dropped.
//! Every answer is stamped with an [`AnswerQuality`] carrying the active
//! tier and its worst-case error bound, and the controller state
//! checkpoints alongside the active detector so a crash mid-degradation
//! recovers in the same tier with the same pending hysteresis progress.

use std::time::Instant;

use surge_approx::{GapSurge, MgapSurge};
use surge_core::{
    BurstDetector, CheckpointableDetector, ControllerState, DetectorState, DetectorStats, Event,
    RegionAnswer, RestoreError, SpatialObject, SurgeQuery,
};
use surge_exact::{BoundMode, CellCspot};
use surge_observe::{Observe, TraceEvent};

use crate::answers::{AnswerLog, AnswerSink, RetainAll};
use crate::metrics::{LatencyHistogram, LatencySummary};
use crate::runtime::{FlushOutcome, QueryCore, QueryRuntime};
use crate::window::SlidingWindowEngine;

/// One level of the degradation lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The exact CCS detector (error bound 1.0).
    Exact,
    /// MGAP-SURGE: four shifted grids, `(1 − α)/4` worst case, markedly
    /// better in practice.
    Mgaps,
    /// GAP-SURGE: one grid, `(1 − α)/4` worst case, cheapest updates.
    Gaps,
}

impl Tier {
    /// Stable index into per-tier arrays (0 = exact, 1 = MGAPS, 2 = GAPS).
    pub fn index(self) -> usize {
        match self {
            Tier::Exact => 0,
            Tier::Mgaps => 1,
            Tier::Gaps => 2,
        }
    }

    /// The tier for a stable index.
    pub fn from_index(i: usize) -> Option<Tier> {
        match i {
            0 => Some(Tier::Exact),
            1 => Some(Tier::Mgaps),
            2 => Some(Tier::Gaps),
            _ => None,
        }
    }

    /// One step down the lattice (cheaper), if any.
    pub fn degraded(self) -> Option<Tier> {
        match self {
            Tier::Exact => Some(Tier::Mgaps),
            Tier::Mgaps => Some(Tier::Gaps),
            Tier::Gaps => None,
        }
    }

    /// One step up the lattice (more accurate), if any.
    pub fn upgraded(self) -> Option<Tier> {
        match self {
            Tier::Exact => None,
            Tier::Mgaps => Some(Tier::Exact),
            Tier::Gaps => Some(Tier::Mgaps),
        }
    }

    /// Human-readable tier name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Mgaps => "MGAPS",
            Tier::Gaps => "GAPS",
        }
    }
}

/// The quality stamp attached to every autopilot answer: which tier
/// produced it and the worst-case fraction of the optimal burst score the
/// answer is guaranteed to attain (1.0 for exact, `(1 − α)/4` for the grid
/// tiers, per Theorems 3–4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerQuality {
    /// The tier that produced the answer.
    pub tier: Tier,
    /// Guaranteed score ratio vs. the optimal region (`score ≥ error_bound
    /// × OPT`).
    pub error_bound: f64,
}

/// The service-level objective the controller defends, plus its hysteresis
/// shape. All thresholds are integers so the policy is `Copy + Eq` and can
/// ride inside checkpoint configuration.
///
/// Two signals are supported; a signal with threshold 0 is disabled:
///
/// * `slide_latency_budget_us` — wall-clock per-slide processing budget
///   (ingest + flush). The production signal; not reproducible across
///   machines, so checkpoint tests use the other one.
/// * `max_residents` — current-window residency ceiling. Deterministic for
///   a given stream, which makes controller transitions bit-reproducible
///   (the crash-recovery proptests rely on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SloPolicy {
    /// Per-slide wall-clock budget in microseconds (0 = disabled).
    pub slide_latency_budget_us: u64,
    /// Current-window residency ceiling (0 = disabled).
    pub max_residents: u64,
    /// Consecutive over-SLO slides before degrading one tier.
    pub degrade_after: u32,
    /// Consecutive drained slides before upgrading one tier.
    pub upgrade_after: u32,
    /// Slides after any transition during which no further transition is
    /// allowed (the anti-flap guard).
    pub cooldown_slides: u32,
    /// A slide counts as *drained* only when every enabled signal is at or
    /// below this percentage of its threshold; must be ≤ 100. The gap
    /// between 100% (over) and this (drained) is the hysteresis band.
    pub drain_percent: u32,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            slide_latency_budget_us: 0,
            max_residents: 0,
            degrade_after: 2,
            upgrade_after: 4,
            cooldown_slides: 8,
            drain_percent: 50,
        }
    }
}

impl SloPolicy {
    /// A policy with both signals disabled: the controller observes and
    /// counts slides but never transitions (useful as an exact-only
    /// baseline under the same driver).
    pub fn disabled() -> Self {
        SloPolicy::default()
    }

    /// Whether any signal is enabled.
    pub fn is_enabled(&self) -> bool {
        self.slide_latency_budget_us > 0 || self.max_residents > 0
    }

    fn validate(&self) {
        assert!(self.drain_percent <= 100, "drain_percent must be ≤ 100");
        assert!(self.degrade_after >= 1, "degrade_after must be ≥ 1");
        assert!(self.upgrade_after >= 1, "upgrade_after must be ≥ 1");
    }
}

/// The hysteresis state machine deciding when to walk the tier lattice.
///
/// Per slide it receives the slide's latency and the engine's residency and
/// classifies the slide as *over* (any enabled signal above its threshold),
/// *drained* (every enabled signal at or below `drain_percent` of its
/// threshold), or neither. `degrade_after` consecutive over-slides step one
/// tier down; `upgrade_after` consecutive drained slides step one tier up;
/// any transition arms a `cooldown_slides`-slide lockout. A slide that is
/// neither over nor drained resets both streaks, so the controller never
/// oscillates on a boundary signal.
#[derive(Debug, Clone)]
pub struct DegradationController {
    policy: SloPolicy,
    tier: Tier,
    over: u32,
    under: u32,
    cooldown: u32,
    transitions: u64,
    slides_in_tier: [u64; 3],
}

impl DegradationController {
    /// Creates a controller in the exact tier.
    pub fn new(policy: SloPolicy) -> Self {
        policy.validate();
        DegradationController {
            policy,
            tier: Tier::Exact,
            over: 0,
            under: 0,
            cooldown: 0,
            transitions: 0,
            slides_in_tier: [0; 3],
        }
    }

    /// The active tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// The policy being enforced.
    pub fn policy(&self) -> SloPolicy {
        self.policy
    }

    /// Total transitions performed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Slides observed per tier (exact, MGAPS, GAPS).
    pub fn slides_in_tier(&self) -> [u64; 3] {
        self.slides_in_tier
    }

    /// Feeds one slide's signals; returns `Some((from, to))` when the
    /// controller decides to transition (the caller performs the hand-off).
    pub fn observe(&mut self, latency_us: u64, residents: u64) -> Option<(Tier, Tier)> {
        self.slides_in_tier[self.tier.index()] += 1;
        if self.cooldown > 0 {
            // Cooldown slides ignore signals entirely: the streaks restart
            // from zero once the lockout expires, so a transition is never
            // followed by an instant second one.
            self.cooldown -= 1;
            self.over = 0;
            self.under = 0;
            return None;
        }
        let lat_on = self.policy.slide_latency_budget_us > 0;
        let res_on = self.policy.max_residents > 0;
        if !lat_on && !res_on {
            return None;
        }
        let over = (lat_on && latency_us > self.policy.slide_latency_budget_us)
            || (res_on && residents > self.policy.max_residents);
        let drain = self.policy.drain_percent as u64;
        let drained = (!lat_on
            || latency_us.saturating_mul(100) <= self.policy.slide_latency_budget_us * drain)
            && (!res_on || residents.saturating_mul(100) <= self.policy.max_residents * drain);
        if over {
            self.over += 1;
        } else {
            self.over = 0;
        }
        if drained {
            self.under += 1;
        } else {
            self.under = 0;
        }
        if self.over >= self.policy.degrade_after {
            if let Some(next) = self.tier.degraded() {
                return Some(self.transition_to(next));
            }
        } else if self.under >= self.policy.upgrade_after {
            if let Some(next) = self.tier.upgraded() {
                return Some(self.transition_to(next));
            }
        }
        None
    }

    fn transition_to(&mut self, next: Tier) -> (Tier, Tier) {
        let from = self.tier;
        self.tier = next;
        self.transitions += 1;
        self.cooldown = self.policy.cooldown_slides;
        self.over = 0;
        self.under = 0;
        (from, next)
    }

    /// Captures the controller into its checkpoint form. `base_stats` is
    /// supplied by the owning detector (counters of torn-down tiers).
    pub fn to_state(&self, base_stats: DetectorStats) -> ControllerState {
        ControllerState {
            tier: self.tier.index() as u8,
            over: self.over,
            under: self.under,
            cooldown: self.cooldown,
            transitions: self.transitions,
            slides_in_tier: self.slides_in_tier,
            base_stats,
        }
    }

    /// Restores a controller from its checkpoint form under `policy` (the
    /// policy itself is configuration, carried outside the state).
    pub fn from_state(policy: SloPolicy, state: &ControllerState) -> Result<Self, RestoreError> {
        policy.validate();
        let tier = Tier::from_index(state.tier as usize)
            .ok_or_else(|| RestoreError::new(format!("unknown tier {}", state.tier)))?;
        Ok(DegradationController {
            policy,
            tier,
            over: state.over,
            under: state.under,
            cooldown: state.cooldown,
            transitions: state.transitions,
            slides_in_tier: state.slides_in_tier,
        })
    }
}

/// The active detector behind the autopilot: exactly one tier is live at a
/// time.
#[derive(Debug)]
enum ActiveDetector {
    Exact(Box<CellCspot>),
    Mgaps(Box<MgapSurge>),
    Gaps(Box<GapSurge>),
}

impl ActiveDetector {
    fn build(tier: Tier, query: SurgeQuery, shards: usize) -> ActiveDetector {
        match tier {
            Tier::Exact => ActiveDetector::Exact(Box::new(CellCspot::with_shards(
                query,
                BoundMode::Combined,
                shards,
            ))),
            Tier::Mgaps => ActiveDetector::Mgaps(Box::new(MgapSurge::with_shards(query, shards))),
            Tier::Gaps => ActiveDetector::Gaps(Box::new(GapSurge::with_shards(query, shards))),
        }
    }

    fn as_detector(&mut self) -> &mut dyn BurstDetector {
        match self {
            ActiveDetector::Exact(d) => d.as_mut(),
            ActiveDetector::Mgaps(d) => d.as_mut(),
            ActiveDetector::Gaps(d) => d.as_mut(),
        }
    }

    fn stats(&self) -> DetectorStats {
        match self {
            ActiveDetector::Exact(d) => d.stats(),
            ActiveDetector::Mgaps(d) => d.stats(),
            ActiveDetector::Gaps(d) => d.stats(),
        }
    }

    fn capture(&self) -> DetectorState {
        match self {
            ActiveDetector::Exact(d) => d.capture_state(),
            ActiveDetector::Mgaps(d) => d.capture_state(),
            ActiveDetector::Gaps(d) => d.capture_state(),
        }
    }

    fn restore(&mut self, state: &DetectorState) -> Result<(), RestoreError> {
        match self {
            ActiveDetector::Exact(d) => d.restore_state(state),
            ActiveDetector::Mgaps(d) => d.restore_state(state),
            ActiveDetector::Gaps(d) => d.restore_state(state),
        }
    }
}

fn add_stats(a: DetectorStats, b: DetectorStats) -> DetectorStats {
    DetectorStats {
        events: a.events + b.events,
        new_events: a.new_events + b.new_events,
        searches: a.searches + b.searches,
        events_triggering_search: a.events_triggering_search + b.events_triggering_search,
    }
}

/// A detector that degrades gracefully: it fronts for one of the three tier
/// detectors and swaps them under [`DegradationController`] direction, with
/// warm hand-offs bootstrapped from the live window contents.
///
/// The swap protocol is the detector's responsibility; *when* to swap is
/// decided per slide by [`AutopilotDetector::note_slide`], which the
/// drivers call after every flush with the slide's latency and the window
/// engine. Answers are stamped via [`AutopilotDetector::quality`].
#[derive(Debug)]
pub struct AutopilotDetector {
    query: SurgeQuery,
    shards: usize,
    controller: DegradationController,
    active: ActiveDetector,
    /// Counters accumulated by tiers that were since torn down; the active
    /// tier's live counters are added on top in [`BurstDetector::stats`].
    /// Warm hand-off bootstrap events are counted like any others (they are
    /// real detector work).
    base_stats: DetectorStats,
}

impl AutopilotDetector {
    /// Creates an autopilot in the exact tier with the default shard count.
    pub fn new(query: SurgeQuery, policy: SloPolicy) -> Self {
        Self::with_shards(query, policy, 4)
    }

    /// Creates an autopilot with an explicit per-tier shard count (a power
    /// of two).
    pub fn with_shards(query: SurgeQuery, policy: SloPolicy, shards: usize) -> Self {
        AutopilotDetector {
            query,
            shards,
            controller: DegradationController::new(policy),
            active: ActiveDetector::build(Tier::Exact, query, shards),
            base_stats: DetectorStats::default(),
        }
    }

    /// The active tier.
    pub fn tier(&self) -> Tier {
        self.controller.tier()
    }

    /// The quality stamp for answers produced in the active tier.
    pub fn quality(&self) -> AnswerQuality {
        let tier = self.controller.tier();
        AnswerQuality {
            tier,
            error_bound: match tier {
                Tier::Exact => 1.0,
                Tier::Mgaps | Tier::Gaps => self.query.burst_params().grid_approx_ratio(),
            },
        }
    }

    /// The controller (read access for reporting).
    pub fn controller(&self) -> &DegradationController {
        &self.controller
    }

    /// Feeds the just-finished slide's signals to the controller and, if it
    /// decides to transition, performs the warm hand-off from the engine's
    /// live windows. Returns the transition performed, if any.
    pub fn note_slide(
        &mut self,
        latency_us: u64,
        engine: &SlidingWindowEngine,
    ) -> Option<(Tier, Tier)> {
        let (from, to) = self
            .controller
            .observe(latency_us, engine.current_len() as u64)?;
        self.swap_to(to, engine);
        Some((from, to))
    }

    /// Tears down the active tier and bootstraps `tier` from the engine's
    /// resident objects: every past-window object is replayed as
    /// `New` + `Grown`, then every current-window object as `New`, both
    /// oldest first — the same membership the outgoing detector held, so
    /// the incoming tier's next answer covers the full windows (re-upgrades
    /// replay the windows through a fresh exact detector).
    fn swap_to(&mut self, tier: Tier, engine: &SlidingWindowEngine) {
        self.base_stats = add_stats(self.base_stats, self.active.stats());
        self.active = ActiveDetector::build(tier, self.query, self.shards);
        let det = self.active.as_detector();
        let now = engine.now();
        for o in engine.past_objects() {
            det.on_event(&Event::new_arrival(*o));
            det.on_event(&Event::grown(*o, now));
        }
        for o in engine.current_objects() {
            det.on_event(&Event::new_arrival(*o));
        }
    }
}

impl BurstDetector for AutopilotDetector {
    fn on_event(&mut self, event: &Event) {
        self.active.as_detector().on_event(event);
    }

    fn current(&mut self) -> Option<RegionAnswer> {
        self.active.as_detector().current()
    }

    fn name(&self) -> &'static str {
        "AUTOPILOT"
    }

    fn stats(&self) -> DetectorStats {
        add_stats(self.base_stats, self.active.stats())
    }
}

impl CheckpointableDetector for AutopilotDetector {
    /// Captures the active tier's state verbatim (its own `name`, cells and
    /// stats) plus the controller; the presence of
    /// [`DetectorState::controller`] marks the state as an autopilot's.
    fn capture_state(&self) -> DetectorState {
        let mut state = self.active.capture();
        state.controller = Some(self.controller.to_state(self.base_stats));
        state
    }

    fn restore_state(&mut self, state: &DetectorState) -> Result<(), RestoreError> {
        if self.stats().events != 0 || self.controller.transitions() != 0 {
            return Err(RestoreError::new(
                "restore requires a freshly constructed autopilot",
            ));
        }
        let ctrl = state
            .controller
            .as_ref()
            .ok_or_else(|| RestoreError::new("snapshot has no controller state"))?;
        let policy = self.controller.policy();
        self.controller = DegradationController::from_state(policy, ctrl)?;
        self.active = ActiveDetector::build(self.controller.tier(), self.query, self.shards);
        self.active.restore(state)?;
        self.base_stats = ctrl.base_stats;
        Ok(())
    }
}

/// Outcome of an autopilot replay run ([`drive_autopilot`]).
#[derive(Debug, Clone)]
pub struct AutopilotReport {
    /// Objects processed.
    pub objects: u64,
    /// Window-transition events processed (bootstrap replays excluded).
    pub events: u64,
    /// Slides executed (including the terminal flush).
    pub slides: u64,
    /// Per-slide answers with their quality stamps, in slide order.
    /// Retains every answer under the default [`RetainAll`] sink; bounded
    /// by consumer lag under [`drive_autopilot_with_sink`].
    pub answers: AnswerLog<(Option<RegionAnswer>, AnswerQuality)>,
    /// Per-slide latency (ingest + flush), all tiers.
    pub slide_latency: LatencyHistogram,
    /// Per-slide latency split by the tier that served the slide.
    pub tier_latency: [LatencyHistogram; 3],
    /// Slides served per tier (exact, MGAPS, GAPS).
    pub slides_in_tier: [u64; 3],
    /// Tier transitions performed.
    pub transitions: u64,
    /// The tier active when the run ended.
    pub final_tier: Tier,
    /// Detector counters (all tiers, bootstrap events included).
    pub stats: DetectorStats,
}

impl AutopilotReport {
    /// Latency summary across all slides.
    pub fn latency_summary(&self) -> LatencySummary {
        self.slide_latency.summary()
    }
}

/// The [`QueryCore`] face of an autopilot: its flush is the active tier's
/// answer.
struct AutopilotCore<'a>(&'a mut AutopilotDetector);

impl QueryCore for AutopilotCore<'_> {
    fn on_events(&mut self, events: &[Event]) {
        for ev in events {
            self.0.on_event(ev);
        }
    }

    fn flush(&mut self, _seq: u64, _threads: usize) -> FlushOutcome {
        FlushOutcome {
            answers: self.0.current().into_iter().collect(),
            swept: 0,
        }
    }
}

/// Replays `source` into an [`AutopilotDetector`] in slides of
/// `slide_objects` arrivals, timing each slide (ingest + flush) and feeding
/// the controller after every flush.
///
/// The cadence is [`QueryRuntime`]'s — a flush at every full slide, one for
/// the trailing partial slide, and a terminal drain + flush — so the slide
/// boundaries are exactly `drive_slides`'. After each flush the driver
/// stamps the answer with the tier that produced it, records the slide's
/// latency and hands it to [`AutopilotDetector::note_slide`] together with
/// the runtime's engine, which a tier switch bootstraps from.
pub fn drive_autopilot(
    detector: &mut AutopilotDetector,
    engine: &mut SlidingWindowEngine,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
) -> AutopilotReport {
    drive_autopilot_with_sink(detector, engine, source, slide_objects, &mut RetainAll)
}

/// [`drive_autopilot`] with an explicit answer consumer: every per-slide
/// `(answer, quality)` pair is delivered through `sink`, and acked pairs
/// are released from `AutopilotReport::answers` instead of retained.
pub fn drive_autopilot_with_sink(
    detector: &mut AutopilotDetector,
    engine: &mut SlidingWindowEngine,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    sink: &mut impl AnswerSink<(Option<RegionAnswer>, AnswerQuality)>,
) -> AutopilotReport {
    drive_autopilot_observed(
        detector,
        engine,
        source,
        slide_objects,
        sink,
        &Observe::off(),
    )
}

/// [`drive_autopilot_with_sink`] with registry probes: counters and latency
/// histograms under `autopilot/*` (total and per tier, e.g.
/// `autopilot/tier=MGAPS/latency_ns`) and a driver flight ring recording a
/// [`TraceEvent::TierSwitch`] at every controller transition, stamped with
/// the slide that triggered it. The wall-clock latencies live in the
/// histograms only; the trace carries logical time and tier names, so a
/// residency-driven run dumps identically run-to-run. Disabled `obs` is a
/// no-op and the answers are bitwise identical either way (proptested).
///
/// # Panics
///
/// Panics if `slide_objects` is 0.
pub fn drive_autopilot_observed(
    detector: &mut AutopilotDetector,
    engine: &mut SlidingWindowEngine,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    sink: &mut impl AnswerSink<(Option<RegionAnswer>, AnswerQuality)>,
    obs: &Observe,
) -> AutopilotReport {
    let _panic_dump = obs.panic_dump_guard("drive_autopilot");
    let flight = obs.flight("autopilot/driver");
    let mut answers = AnswerLog::new();
    let mut slide_latency = LatencyHistogram::new();
    let mut tier_latency: [LatencyHistogram; 3] = std::array::from_fn(|_| LatencyHistogram::new());
    let mut transitions = 0u64;
    let mut slide_t0 = Instant::now();
    let mut rt = QueryRuntime::over(AutopilotCore(detector), engine, slide_objects, 1);
    let mut after_flush = |rt: &mut QueryRuntime<AutopilotCore, _>, flushed: Vec<RegionAnswer>| {
        let seq = rt.counters().slides - 1;
        let (AutopilotCore(detector), engine) = rt.parts_mut();
        let quality = detector.quality();
        answers.offer((flushed.first().copied(), quality), sink);
        let dt = slide_t0.elapsed();
        slide_latency.record(dt);
        tier_latency[quality.tier.index()].record(dt);
        let latency_us = (dt.as_nanos() / 1_000).min(u64::MAX as u128) as u64;
        if let Some((from, to)) = detector.note_slide(latency_us, engine) {
            transitions += 1;
            flight.record(TraceEvent::TierSwitch {
                seq,
                from: from.name(),
                to: to.name(),
            });
        }
        slide_t0 = Instant::now();
    };
    for obj in source {
        if let Some(flushed) = rt.push(obj) {
            after_flush(&mut rt, flushed);
        }
    }
    while let Some(flushed) = rt.finish_step() {
        after_flush(&mut rt, flushed);
    }
    let counters = *rt.counters();
    let AutopilotCore(detector) = rt.into_core();

    let slides_in_tier = detector.controller().slides_in_tier();
    if obs.is_enabled() {
        obs.counter("autopilot/objects").add(counters.objects);
        obs.counter("autopilot/events").add(counters.events);
        obs.counter("autopilot/slides").add(counters.slides);
        obs.counter("autopilot/transitions").add(transitions);
        obs.gauge("autopilot/final_tier")
            .set(detector.tier().index() as i64);
        obs.histogram("autopilot/slide_latency_ns")
            .merge(&slide_latency);
        for (i, &slides) in slides_in_tier.iter().enumerate() {
            let name = Tier::from_index(i).expect("three tiers").name();
            obs.counter(&format!("autopilot/tier={name}/slides"))
                .add(slides);
            obs.histogram(&format!("autopilot/tier={name}/latency_ns"))
                .merge(&tier_latency[i]);
        }
    }

    AutopilotReport {
        objects: counters.objects,
        events: counters.events,
        slides: counters.slides,
        answers,
        slide_latency,
        tier_latency,
        slides_in_tier,
        transitions,
        final_tier: detector.tier(),
        stats: detector.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::EventBatch;
    use surge_core::{Point, RegionSize, WindowConfig};

    fn query() -> SurgeQuery {
        SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(1_000), 0.5)
    }

    fn stream(n: usize, step: u64) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| {
                SpatialObject::new(
                    i as u64,
                    1.0,
                    Point::new((i % 8) as f64 * 0.9, (i % 5) as f64 * 0.9),
                    i as u64 * step,
                )
            })
            .collect()
    }

    #[test]
    fn tier_lattice_steps() {
        assert_eq!(Tier::Exact.degraded(), Some(Tier::Mgaps));
        assert_eq!(Tier::Mgaps.degraded(), Some(Tier::Gaps));
        assert_eq!(Tier::Gaps.degraded(), None);
        assert_eq!(Tier::Gaps.upgraded(), Some(Tier::Mgaps));
        assert_eq!(Tier::Mgaps.upgraded(), Some(Tier::Exact));
        assert_eq!(Tier::Exact.upgraded(), None);
        for i in 0..3 {
            assert_eq!(Tier::from_index(i).unwrap().index(), i);
        }
        assert_eq!(Tier::from_index(3), None);
    }

    #[test]
    fn disabled_policy_never_transitions() {
        let mut c = DegradationController::new(SloPolicy::disabled());
        for _ in 0..100 {
            assert!(c.observe(u64::MAX, u64::MAX).is_none());
        }
        assert_eq!(c.tier(), Tier::Exact);
        assert_eq!(c.slides_in_tier()[0], 100);
    }

    #[test]
    fn controller_degrades_after_threshold_and_respects_cooldown() {
        let policy = SloPolicy {
            max_residents: 10,
            degrade_after: 3,
            upgrade_after: 2,
            cooldown_slides: 4,
            ..SloPolicy::default()
        };
        let mut c = DegradationController::new(policy);
        assert!(c.observe(0, 50).is_none());
        assert!(c.observe(0, 50).is_none());
        assert_eq!(c.observe(0, 50), Some((Tier::Exact, Tier::Mgaps)));
        // Cooldown: 4 more over-slides are ignored entirely...
        for _ in 0..4 {
            assert!(c.observe(0, 50).is_none());
        }
        // ...then the still-over signal must rebuild a full streak before
        // the next step fires.
        assert!(c.observe(0, 50).is_none());
        assert!(c.observe(0, 50).is_none());
        assert_eq!(c.observe(0, 50), Some((Tier::Mgaps, Tier::Gaps)));
        // At the bottom of the lattice there is nowhere to go.
        for _ in 0..20 {
            assert!(c.observe(0, 50).is_none());
        }
        assert_eq!(c.tier(), Tier::Gaps);
    }

    #[test]
    fn controller_upgrades_only_when_drained() {
        let policy = SloPolicy {
            max_residents: 100,
            degrade_after: 1,
            upgrade_after: 2,
            cooldown_slides: 0,
            drain_percent: 50,
            ..SloPolicy::default()
        };
        let mut c = DegradationController::new(policy);
        assert_eq!(c.observe(0, 200), Some((Tier::Exact, Tier::Mgaps)));
        // 60% of threshold: neither over nor drained — streaks reset.
        for _ in 0..10 {
            assert!(c.observe(0, 60).is_none());
        }
        assert_eq!(c.tier(), Tier::Mgaps);
        assert!(c.observe(0, 40).is_none());
        assert_eq!(c.observe(0, 40), Some((Tier::Mgaps, Tier::Exact)));
    }

    #[test]
    fn controller_state_roundtrip() {
        let policy = SloPolicy {
            max_residents: 10,
            degrade_after: 2,
            ..SloPolicy::default()
        };
        let mut c = DegradationController::new(policy);
        for _ in 0..5 {
            c.observe(0, 50);
        }
        let s = c.to_state(DetectorStats::default());
        let c2 = DegradationController::from_state(policy, &s).unwrap();
        assert_eq!(c2.tier(), c.tier());
        assert_eq!(c2.transitions(), c.transitions());
        assert_eq!(c2.slides_in_tier(), c.slides_in_tier());
        let mut bad = s;
        bad.tier = 9;
        assert!(DegradationController::from_state(policy, &bad).is_err());
    }

    #[test]
    fn autopilot_serves_exact_answers_when_unpressed() {
        let q = query();
        let mut auto = AutopilotDetector::new(q, SloPolicy::disabled());
        let mut e1 = SlidingWindowEngine::new(q.windows);
        let objs = stream(300, 7);
        let report = drive_autopilot(&mut auto, &mut e1, objs.into_iter(), 50);
        // Replay the same stream through a bare exact detector with the same
        // slide boundaries and compare per-slide answers bit for bit.
        struct Exact(CellCspot);
        impl QueryCore for Exact {
            fn on_events(&mut self, events: &[Event]) {
                for ev in events {
                    self.0.on_event(ev);
                }
            }
            fn flush(&mut self, _seq: u64, _threads: usize) -> FlushOutcome {
                FlushOutcome {
                    answers: self.0.current().into_iter().collect(),
                    swept: 0,
                }
            }
        }
        let mut exact_answers = Vec::new();
        QueryRuntime::new(Exact(CellCspot::new(q)), q.windows, 50, 1)
            .run(stream(300, 7).into_iter(), |_, a| {
                exact_answers.push(a.first().copied())
            });
        assert_eq!(report.answers.len(), exact_answers.len());
        for ((got, quality), want) in report.answers.iter().zip(&exact_answers) {
            assert_eq!(quality.tier, Tier::Exact);
            assert_eq!(quality.error_bound, 1.0);
            match (got, want) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                    assert_eq!(a.point.x.to_bits(), b.point.x.to_bits());
                }
                (None, None) => {}
                other => panic!("divergence: {other:?}"),
            }
        }
        assert_eq!(report.final_tier, Tier::Exact);
        assert_eq!(report.transitions, 0);
    }

    #[test]
    fn autopilot_degrades_and_recovers_on_residency_pressure() {
        let q = query();
        // Stream whose middle third floods the current window: timestamps
        // stall so residency builds, then resume.
        let mut objs = Vec::new();
        let mut t = 0u64;
        for i in 0..900u64 {
            if !(300..600).contains(&i) {
                t += 20; // spaced: ~50 residents
            } // crowd: t frozen → residency grows
            objs.push(SpatialObject::new(
                i,
                1.0,
                Point::new((i % 8) as f64 * 0.9, (i % 5) as f64 * 0.9),
                t,
            ));
        }
        let policy = SloPolicy {
            max_residents: 80,
            degrade_after: 2,
            upgrade_after: 3,
            cooldown_slides: 2,
            drain_percent: 90,
            ..SloPolicy::default()
        };
        let mut auto = AutopilotDetector::new(q, policy);
        let mut engine = SlidingWindowEngine::new(q.windows);
        let report = drive_autopilot(&mut auto, &mut engine, objs.into_iter(), 20);
        assert!(report.transitions >= 2, "expected degrade + upgrade");
        assert!(report.slides_in_tier[1] + report.slides_in_tier[2] > 0);
        assert_eq!(report.final_tier, Tier::Exact, "crowd passed; must recover");
        // Every answer is stamped with the tier that produced it.
        assert!(report
            .answers
            .iter()
            .any(|(_, quality)| quality.tier != Tier::Exact));
        for (_, quality) in &report.answers {
            let want = match quality.tier {
                Tier::Exact => 1.0,
                _ => q.burst_params().grid_approx_ratio(),
            };
            assert_eq!(quality.error_bound, want);
        }
    }

    #[test]
    fn warm_handoff_preserves_window_contents() {
        let q = query();
        // Build residency, then force a transition and check the incoming
        // tier's answer covers the resident objects.
        let policy = SloPolicy {
            max_residents: 1, // trip immediately
            degrade_after: 1,
            cooldown_slides: 0,
            ..SloPolicy::default()
        };
        let mut auto = AutopilotDetector::new(q, policy);
        let mut engine = SlidingWindowEngine::new(q.windows);
        let mut batch = EventBatch::new();
        for i in 0..10u64 {
            let o = SpatialObject::new(i, 1.0, Point::new(0.4, 0.4), i * 10);
            batch.clear();
            engine.push_into(o, &mut batch);
            for ev in batch.iter() {
                auto.on_event(ev);
            }
        }
        let before = auto.current().unwrap();
        assert_eq!(auto.tier(), Tier::Exact);
        let transition = auto.note_slide(0, &engine);
        assert_eq!(transition, Some((Tier::Exact, Tier::Mgaps)));
        // All 10 objects sit in one cell of every grid, so MGAPS sees the
        // same score after the hand-off (same sums, possibly different
        // accumulation path than the exact sweep).
        let after = auto.current().unwrap();
        assert!((after.score - before.score).abs() < 1e-12);
        assert_eq!(auto.quality().tier, Tier::Mgaps);
    }

    #[test]
    fn autopilot_checkpoint_restores_tier_and_counters() {
        let q = query();
        let policy = SloPolicy {
            max_residents: 5,
            degrade_after: 1,
            cooldown_slides: 0,
            ..SloPolicy::default()
        };
        let mut auto = AutopilotDetector::new(q, policy);
        let mut engine = SlidingWindowEngine::new(q.windows);
        let mut batch = EventBatch::new();
        for i in 0..30u64 {
            let o = SpatialObject::new(i, 1.0, Point::new(0.4, 0.4), i);
            batch.clear();
            engine.push_into(o, &mut batch);
            for ev in batch.iter() {
                auto.on_event(ev);
            }
            auto.note_slide(0, &engine);
        }
        assert_ne!(auto.tier(), Tier::Exact);
        let state = auto.capture_state();
        assert!(state.controller.is_some());
        let mut restored = AutopilotDetector::new(q, policy);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.tier(), auto.tier());
        assert_eq!(restored.stats(), auto.stats());
        assert_eq!(
            restored.controller().transitions(),
            auto.controller().transitions()
        );
        assert_eq!(restored.capture_state(), state);
        let (a, b) = (auto.current(), restored.current());
        match (a, b) {
            (Some(x), Some(y)) => assert_eq!(x.score.to_bits(), y.score.to_bits()),
            (None, None) => {}
            other => panic!("divergence: {other:?}"),
        }
        // Restoring a controller-free snapshot into an autopilot fails.
        let plain = CellCspot::new(q).capture_state();
        let mut fresh = AutopilotDetector::new(q, policy);
        assert!(fresh.restore_state(&plain).is_err());
    }
}
