//! The dual sliding-window engine (paper §IV-C).
//!
//! Objects arrive in non-decreasing timestamp order. An object created at
//! `t_c` sits in the current window until `t_c + |W_c|` (exclusive), in the
//! past window until `t_c + |W_c| + |W_p|` (exclusive), and is then gone.
//! Whenever the engine's clock advances, it emits the pending transitions as
//! `Grown` / `Expired` events, interleaved in transition-time order, followed
//! by the `New` event for the arriving object.

use std::collections::{BTreeSet, VecDeque};

use surge_core::{
    object_to_rect, CellId, EngineState, Event, GridSpec, RegionSize, RestoreError, SpatialObject,
    Timestamp, WindowConfig,
};

/// A reusable buffer of window-transition events.
///
/// The engine's `*_into` entry points ([`SlidingWindowEngine::push_into`],
/// [`SlidingWindowEngine::advance_into`],
/// [`SlidingWindowEngine::finish_into`]) append into an `EventBatch`
/// instead of allocating a fresh `Vec<Event>` per push — a driver clears
/// and reuses one batch for the whole stream, so steady-state event
/// expansion allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EventBatch {
    events: Vec<Event>,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// An empty batch with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventBatch {
            events: Vec::with_capacity(cap),
        }
    }

    /// Empties the batch, keeping its allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Number of buffered events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The buffered events, in emission order.
    #[inline]
    pub fn as_slice(&self) -> &[Event] {
        &self.events
    }

    /// Iterates the buffered events in emission order.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    pub(crate) fn vec_mut(&mut self) -> &mut Vec<Event> {
        &mut self.events
    }
}

impl std::ops::Deref for EventBatch {
    type Target = [Event];
    fn deref(&self) -> &[Event] {
        &self.events
    }
}

impl<'a> IntoIterator for &'a EventBatch {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// The sliding-window engine: turns timestamp-ordered spatial objects into a
/// window-transition event stream.
///
/// # Example
///
/// ```
/// use surge_core::{EventKind, Point, SpatialObject, WindowConfig};
/// use surge_stream::SlidingWindowEngine;
///
/// let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
/// let o1 = SpatialObject::new(0, 1.0, Point::new(0.0, 0.0), 0);
/// let o2 = SpatialObject::new(1, 1.0, Point::new(1.0, 1.0), 150);
///
/// let evs = eng.push(o1);
/// assert_eq!(evs.len(), 1); // New(o1)
///
/// // o2 arrives at t=150: o1 grew into the past window at t=100 first.
/// let evs = eng.push(o2);
/// assert_eq!(evs[0].kind, EventKind::Grown);
/// assert_eq!(evs[1].kind, EventKind::New);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindowEngine {
    windows: WindowConfig,
    /// Objects currently in `W_c`, in creation-time order.
    current: VecDeque<SpatialObject>,
    /// Objects currently in `W_p`, in creation-time order.
    past: VecDeque<SpatialObject>,
    now: Timestamp,
    last_created: Timestamp,
    started: bool,
}

impl SlidingWindowEngine {
    /// Creates an empty engine.
    pub fn new(windows: WindowConfig) -> Self {
        SlidingWindowEngine {
            windows,
            current: VecDeque::new(),
            past: VecDeque::new(),
            now: 0,
            last_created: 0,
            started: false,
        }
    }

    /// Captures the engine's logical state for a checkpoint: resident
    /// objects (oldest first) plus the clock fields. A restored engine
    /// ([`SlidingWindowEngine::from_state`]) emits exactly the transition
    /// sequence this one would have emitted uninterrupted.
    pub fn checkpoint(&self) -> EngineState {
        EngineState {
            windows: self.windows,
            now: self.now,
            last_created: self.last_created,
            started: self.started,
            current: self.current.iter().copied().collect(),
            past: self.past.iter().copied().collect(),
        }
    }

    /// Rebuilds an engine from a captured [`EngineState`].
    ///
    /// Validates the residency invariants (creation-ordered windows, no
    /// object past its transition deadline at `state.now`) so a corrupted
    /// snapshot fails loudly instead of emitting an impossible event
    /// sequence.
    pub fn from_state(state: &EngineState) -> Result<Self, RestoreError> {
        let w = state.windows;
        for (name, objs) in [("current", &state.current), ("past", &state.past)] {
            for pair in objs.windows(2) {
                if pair[0].created > pair[1].created {
                    return Err(RestoreError::new(format!(
                        "{name} window not in creation order: {} after {}",
                        pair[1].created, pair[0].created
                    )));
                }
            }
        }
        for o in &state.current {
            if !w.in_current(o.created, state.now) {
                return Err(RestoreError::new(format!(
                    "object {} (created {}) is not in the current window at now={}",
                    o.id, o.created, state.now
                )));
            }
        }
        for o in &state.past {
            if !w.in_past(o.created, state.now) {
                return Err(RestoreError::new(format!(
                    "object {} (created {}) is not in the past window at now={}",
                    o.id, o.created, state.now
                )));
            }
        }
        if state.last_created > state.now {
            return Err(RestoreError::new(format!(
                "last_created {} exceeds clock {}",
                state.last_created, state.now
            )));
        }
        Ok(SlidingWindowEngine {
            windows: w,
            current: state.current.iter().copied().collect(),
            past: state.past.iter().copied().collect(),
            now: state.now,
            last_created: state.last_created,
            started: state.started,
        })
    }

    /// The window configuration.
    pub fn windows(&self) -> WindowConfig {
        self.windows
    }

    /// The engine's clock (the largest timestamp observed).
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of objects currently in the current window.
    pub fn current_len(&self) -> usize {
        self.current.len()
    }

    /// Number of objects currently in the past window.
    pub fn past_len(&self) -> usize {
        self.past.len()
    }

    /// Whether the stream has become *stable* in the paper's sense: at least
    /// one object has expired from the past window, meaning both windows have
    /// been fully exercised. The evaluation harness starts timing here.
    pub fn is_stable(&self) -> bool {
        self.started
    }

    /// Ingests one object, returning the transition events it causes: any
    /// pending `Grown`/`Expired` transitions up to the object's timestamp (in
    /// transition-time order), then the `New` event.
    ///
    /// Allocates a fresh `Vec` per call; hot paths should prefer
    /// [`push_into`](Self::push_into) with a reused [`EventBatch`].
    ///
    /// # Panics
    ///
    /// Panics if the object predates an already-observed timestamp — either
    /// an earlier arrival (`last_created`) or the engine clock (`now`, which
    /// [`advance_to`](Self::advance_to) can move past the last arrival).
    /// Without the clock check, an object older than `now` would emit its
    /// `New` *after* transitions that logically postdate it.
    pub fn push(&mut self, object: SpatialObject) -> Vec<Event> {
        let mut events = Vec::new();
        self.push_raw(object, &mut events);
        events
    }

    /// [`push`](Self::push) into a reused buffer: appends the caused events
    /// to `out` without allocating. Same panics as `push`.
    pub fn push_into(&mut self, object: SpatialObject, out: &mut EventBatch) {
        self.push_raw(object, out.vec_mut());
    }

    fn push_raw(&mut self, object: SpatialObject, out: &mut Vec<Event>) {
        let floor = self.last_created.max(self.now);
        assert!(
            object.created >= floor,
            "stream must be timestamp-ordered: got {} after the engine observed {}",
            object.created,
            floor
        );
        self.last_created = object.created;
        self.advance_raw(object.created, out);
        out.push(Event::new_arrival(object));
        self.current.push_back(object);
    }

    /// Advances the clock to `t` without ingesting an object, returning the
    /// `Grown`/`Expired` transitions that occur in `(now, t]`, in
    /// transition-time order.
    pub fn advance_to(&mut self, t: Timestamp) -> Vec<Event> {
        let mut events = Vec::new();
        self.advance_raw(t, &mut events);
        events
    }

    /// [`advance_to`](Self::advance_to) into a reused buffer.
    pub fn advance_into(&mut self, t: Timestamp, out: &mut EventBatch) {
        self.advance_raw(t, out.vec_mut());
    }

    fn advance_raw(&mut self, t: Timestamp, events: &mut Vec<Event>) {
        if t < self.now {
            return;
        }
        self.now = t;
        loop {
            // Earliest pending transition: front of `current` grows at
            // t_c + |W_c|; front of `past` expires at t_c + |W_c| + |W_p|.
            let grow_at = self
                .current
                .front()
                .map(|o| self.windows.grow_time(o.created));
            let expire_at = self
                .past
                .front()
                .map(|o| self.windows.expire_time(o.created));
            match (grow_at, expire_at) {
                (Some(g), Some(x)) if g <= t && g <= x => self.grow_front(events, g),
                (Some(g), None) if g <= t => self.grow_front(events, g),
                (_, Some(x)) if x <= t => self.expire_front(events, x),
                _ => break,
            }
        }
    }

    /// Drains the stream tail: emits every pending `Grown`/`Expired`
    /// transition up to the horizon (the instant the youngest resident
    /// object expires), leaving both windows empty.
    ///
    /// Streams end at their last arrival, so without this the tail windows'
    /// transitions are never emitted and a final-slide answer still counts
    /// every resident object. The replay drivers call `finish` after the
    /// source is exhausted; the engine clock advances to the horizon, so
    /// pushing an object older than it panics afterwards.
    pub fn finish(&mut self) -> Vec<Event> {
        let mut events = Vec::new();
        self.finish_raw(&mut events);
        events
    }

    /// [`finish`](Self::finish) into a reused buffer.
    pub fn finish_into(&mut self, out: &mut EventBatch) {
        self.finish_raw(out.vec_mut());
    }

    fn finish_raw(&mut self, events: &mut Vec<Event>) {
        // The youngest resident object (back of `current`, else back of
        // `past`) expires last; advancing to its expiry drains everything.
        let horizon = self
            .current
            .back()
            .or_else(|| self.past.back())
            .map(|o| self.windows.expire_time(o.created));
        if let Some(h) = horizon {
            self.advance_raw(h, events);
        }
        debug_assert!(self.current.is_empty() && self.past.is_empty());
    }

    fn grow_front(&mut self, events: &mut Vec<Event>, at: Timestamp) {
        let o = self.current.pop_front().expect("front checked");
        events.push(Event::grown(o, at));
        self.past.push_back(o);
    }

    fn expire_front(&mut self, events: &mut Vec<Event>, at: Timestamp) {
        let o = self.past.pop_front().expect("front checked");
        events.push(Event::expired(o, at));
        self.started = true;
    }

    /// A snapshot of the objects currently in the current window.
    pub fn current_objects(&self) -> impl Iterator<Item = &SpatialObject> {
        self.current.iter()
    }

    /// A snapshot of the objects currently in the past window.
    pub fn past_objects(&self) -> impl Iterator<Item = &SpatialObject> {
        self.past.iter()
    }
}

/// Tracks which grid cells a batch of window-transition events touches
/// ("dirty" cells), so a slide's maintenance cost can be attributed to the
/// affected cells instead of a wholesale re-computation.
///
/// Events are mapped through the SURGE→cSPOT reduction: an object's event
/// dirties exactly the cells its reduced rectangle overlaps — the same cells
/// the exact detectors update. Deduplication is automatic: a cell touched by
/// many events in one slide is reported once.
#[derive(Debug, Clone)]
pub struct DirtyCellTracker {
    grid: GridSpec,
    region: RegionSize,
    dirty: BTreeSet<CellId>,
    /// Total events observed since the last [`drain`](Self::drain).
    events: u64,
}

impl DirtyCellTracker {
    /// A tracker for the query-sized grid anchored at the origin (the grid
    /// every exact detector uses for a `region`-sized query).
    pub fn new(region: RegionSize) -> Self {
        DirtyCellTracker {
            grid: GridSpec::anchored(region.width, region.height),
            region,
            dirty: BTreeSet::new(),
            events: 0,
        }
    }

    /// Marks the cells affected by `event` dirty.
    pub fn note(&mut self, event: &Event) {
        self.events += 1;
        let g = object_to_rect(&event.object, self.region);
        for id in self.grid.cells_overlapping_iter(&g.rect) {
            self.dirty.insert(id);
        }
    }

    /// Number of distinct dirty cells accumulated so far.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Events observed since the last drain.
    pub fn event_count(&self) -> u64 {
        self.events
    }

    /// Returns the accumulated dirty cells in ascending id order and resets
    /// the tracker for the next slide.
    pub fn drain(&mut self) -> Vec<CellId> {
        self.events = 0;
        std::mem::take(&mut self.dirty).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{EventKind, Point};

    fn obj(id: u64, t: Timestamp) -> SpatialObject {
        SpatialObject::new(id, 1.0, Point::new(id as f64, 0.0), t)
    }

    #[test]
    fn new_event_emitted_immediately() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        let evs = eng.push(obj(0, 10));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::New);
        assert_eq!(eng.current_len(), 1);
        assert_eq!(eng.past_len(), 0);
    }

    #[test]
    fn grown_fires_at_exact_boundary() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 0));
        // At t = 100 the object has aged out of the current window.
        let evs = eng.advance_to(100);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::Grown);
        assert_eq!(evs[0].at, 100);
        assert_eq!(eng.current_len(), 0);
        assert_eq!(eng.past_len(), 1);
    }

    #[test]
    fn expired_fires_after_both_windows() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 0));
        let evs = eng.advance_to(250);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::Grown);
        assert_eq!(evs[0].at, 100);
        assert_eq!(evs[1].kind, EventKind::Expired);
        assert_eq!(evs[1].at, 200);
        assert_eq!(eng.past_len(), 0);
        assert!(eng.is_stable());
    }

    #[test]
    fn transitions_interleave_in_time_order() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 0)); // grows at 100, expires at 200
        eng.push(obj(1, 50)); // grows at 150, expires at 250
        eng.push(obj(2, 90)); // grows at 190, expires at 290
        let evs = eng.advance_to(260);
        let seq: Vec<(EventKind, u64, Timestamp)> =
            evs.iter().map(|e| (e.kind, e.object.id, e.at)).collect();
        assert_eq!(
            seq,
            vec![
                (EventKind::Grown, 0, 100),
                (EventKind::Grown, 1, 150),
                (EventKind::Grown, 2, 190),
                (EventKind::Expired, 0, 200),
                (EventKind::Expired, 1, 250),
            ]
        );
        assert_eq!(eng.past_len(), 1); // object 2 still in past window
    }

    #[test]
    fn large_gap_grows_and_expires_same_object_in_one_push() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 0));
        let evs = eng.push(obj(1, 10_000));
        let kinds: Vec<EventKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Grown, EventKind::Expired, EventKind::New]
        );
        assert_eq!(eng.current_len(), 1);
        assert_eq!(eng.past_len(), 0);
    }

    #[test]
    fn unequal_window_lengths() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::new(100, 300));
        eng.push(obj(0, 0));
        let evs = eng.advance_to(399);
        assert_eq!(evs.len(), 1); // grown at 100; expires only at 400
        let evs = eng.advance_to(400);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::Expired);
    }

    #[test]
    #[should_panic(expected = "timestamp-ordered")]
    fn out_of_order_rejected() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 100));
        eng.push(obj(1, 50));
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 42));
        let evs = eng.push(obj(1, 42));
        assert_eq!(evs.len(), 1);
        assert_eq!(eng.current_len(), 2);
    }

    #[test]
    fn grow_precedes_expire_on_tie() {
        // o0 expires at 200; o1 (created 100) grows at 200. Grown is emitted
        // first because grow_time <= expire_time takes the grow branch.
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 0));
        eng.push(obj(1, 100)); // o0 grows at this push
        let evs = eng.advance_to(200);
        let kinds: Vec<(EventKind, u64)> = evs.iter().map(|e| (e.kind, e.object.id)).collect();
        assert_eq!(kinds, vec![(EventKind::Grown, 1), (EventKind::Expired, 0)]);
    }

    #[test]
    fn window_membership_is_consistent_with_config() {
        let cfg = WindowConfig::equal(100);
        let mut eng = SlidingWindowEngine::new(cfg);
        for t in [0u64, 30, 60, 90, 120, 150] {
            eng.push(obj(t, t));
        }
        let now = eng.now();
        for o in eng.current_objects() {
            assert!(cfg.in_current(o.created, now));
        }
        for o in eng.past_objects() {
            assert!(cfg.in_past(o.created, now));
        }
    }

    #[test]
    fn advance_backwards_is_noop() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 500));
        assert!(eng.advance_to(10).is_empty());
        assert_eq!(eng.now(), 500);
    }

    /// Regression: `push` used to check only `last_created`, so after
    /// `advance_to(t)` a caller could push an object older than the engine
    /// clock — its `New` would be emitted after transitions that logically
    /// postdate it.
    #[test]
    #[should_panic(expected = "timestamp-ordered")]
    fn push_older_than_clock_rejected() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 10));
        eng.advance_to(1_000); // emits Grown@110 and Expired@210
        eng.push(obj(1, 500)); // 500 < now=1000: must panic, not emit New@500
    }

    #[test]
    fn push_at_exact_clock_is_allowed() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.advance_to(300);
        let evs = eng.push(obj(0, 300));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::New);
    }

    #[test]
    fn finish_drains_both_windows_in_canonical_order() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 0)); // grows 100, expires 200
        eng.push(obj(1, 50)); // grows 150, expires 250
        eng.push(obj(2, 120)); // grows 220, expires 320 (emits Grown(0)@100)
        let evs = eng.finish();
        let seq: Vec<(EventKind, u64, Timestamp)> =
            evs.iter().map(|e| (e.kind, e.object.id, e.at)).collect();
        assert_eq!(
            seq,
            vec![
                (EventKind::Grown, 1, 150),
                (EventKind::Expired, 0, 200),
                (EventKind::Grown, 2, 220),
                (EventKind::Expired, 1, 250),
                (EventKind::Expired, 2, 320),
            ]
        );
        assert_eq!(eng.current_len(), 0);
        assert_eq!(eng.past_len(), 0);
        assert_eq!(eng.now(), 320);
        assert!(eng.finish().is_empty(), "finish is idempotent");
    }

    #[test]
    fn finish_on_empty_engine_is_a_noop() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        assert!(eng.finish().is_empty());
        assert_eq!(eng.now(), 0);
    }

    #[test]
    fn finish_matches_advance_to_horizon() {
        let mut a = SlidingWindowEngine::new(WindowConfig::new(70, 30));
        let mut b = SlidingWindowEngine::new(WindowConfig::new(70, 30));
        for t in [0u64, 10, 10, 55, 90] {
            a.push(obj(t * 7, t));
            b.push(obj(t * 7, t));
        }
        assert_eq!(a.finish(), b.advance_to(90 + 70 + 30));
    }

    #[test]
    fn push_into_reuses_one_buffer() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        let mut batch = EventBatch::with_capacity(8);
        eng.push_into(obj(0, 0), &mut batch);
        assert_eq!(batch.len(), 1);
        batch.clear();
        eng.push_into(obj(1, 250), &mut batch);
        let kinds: Vec<EventKind> = batch.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Grown, EventKind::Expired, EventKind::New]
        );
        // Vec-returning and batch APIs expand identically.
        let mut eng2 = SlidingWindowEngine::new(WindowConfig::equal(100));
        let mut all = Vec::new();
        for o in [obj(0, 0), obj(1, 250)] {
            all.extend(eng2.push(o));
        }
        let mut eng3 = SlidingWindowEngine::new(WindowConfig::equal(100));
        let mut batched = EventBatch::new();
        for o in [obj(0, 0), obj(1, 250)] {
            eng3.push_into(o, &mut batched);
        }
        assert_eq!(all, batched.as_slice());
        batched.clear();
        eng3.finish_into(&mut batched);
        assert_eq!(eng2.finish(), batched.as_slice());
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let objs: Vec<SpatialObject> = (0..40u64).map(|i| obj(i, i * 13)).collect();
        let (head, tail) = objs.split_at(17);

        let mut live = SlidingWindowEngine::new(WindowConfig::new(70, 30));
        for o in head {
            live.push(*o);
        }
        let state = live.checkpoint();
        let mut resumed = SlidingWindowEngine::from_state(&state).unwrap();
        assert_eq!(resumed.checkpoint(), state, "capture is stable");
        assert_eq!(resumed.now(), live.now());
        assert_eq!(resumed.current_len(), live.current_len());
        assert_eq!(resumed.past_len(), live.past_len());
        assert_eq!(resumed.is_stable(), live.is_stable());

        for o in tail {
            assert_eq!(live.push(*o), resumed.push(*o));
        }
        assert_eq!(live.finish(), resumed.finish());
    }

    #[test]
    fn restore_rejects_corrupt_residency() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::equal(100));
        eng.push(obj(0, 0));
        eng.push(obj(1, 50));
        let mut state = eng.checkpoint();
        state.now = 10_000; // every resident object is long expired
        assert!(SlidingWindowEngine::from_state(&state).is_err());

        let mut state = eng.checkpoint();
        state.current.swap(0, 1); // creation order broken
        assert!(SlidingWindowEngine::from_state(&state).is_err());

        let mut state = eng.checkpoint();
        state.last_created = state.now + 1;
        assert!(SlidingWindowEngine::from_state(&state).is_err());
    }

    #[test]
    fn zero_length_past_window_grows_then_expires_in_one_step() {
        let mut eng = SlidingWindowEngine::new(WindowConfig::new(100, 0));
        eng.push(obj(0, 0));
        let evs = eng.advance_to(100);
        let seq: Vec<(EventKind, Timestamp)> = evs.iter().map(|e| (e.kind, e.at)).collect();
        assert_eq!(
            seq,
            vec![(EventKind::Grown, 100), (EventKind::Expired, 100)]
        );
        assert_eq!(eng.past_len(), 0);
        assert!(eng.is_stable());
    }
}

#[cfg(test)]
mod dirty_tests {
    use super::*;
    use surge_core::{Point, RegionSize};

    fn ev(id: u64, x: f64, y: f64, t: Timestamp) -> Event {
        Event::new_arrival(SpatialObject::new(id, 1.0, Point::new(x, y), t))
    }

    #[test]
    fn dedupes_cells_within_a_slide() {
        let mut tr = DirtyCellTracker::new(RegionSize::new(1.0, 1.0));
        // Two objects in the same unit cell: same reduced-rect cell set.
        tr.note(&ev(0, 0.5, 0.5, 0));
        tr.note(&ev(1, 0.5, 0.5, 1));
        assert_eq!(tr.event_count(), 2);
        let cells = tr.drain();
        // A generic-position query rect overlaps 4 cells (Lemma 1).
        assert_eq!(cells.len(), 4);
        assert_eq!(tr.dirty_count(), 0);
        assert_eq!(tr.event_count(), 0);
    }

    #[test]
    fn distant_objects_dirty_disjoint_cells() {
        let mut tr = DirtyCellTracker::new(RegionSize::new(1.0, 1.0));
        tr.note(&ev(0, 0.5, 0.5, 0));
        let near = tr.dirty_count();
        tr.note(&ev(1, 50.5, 50.5, 1));
        assert_eq!(tr.dirty_count(), near * 2);
    }

    #[test]
    fn drain_is_sorted_and_resets() {
        let mut tr = DirtyCellTracker::new(RegionSize::new(1.0, 1.0));
        tr.note(&ev(0, 10.5, 0.5, 0));
        tr.note(&ev(1, -10.5, 0.5, 1));
        let cells = tr.drain();
        let mut sorted = cells.clone();
        sorted.sort_unstable();
        assert_eq!(cells, sorted);
        assert!(tr.drain().is_empty());
    }
}
