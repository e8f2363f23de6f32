//! # surge-serve
//!
//! The multi-query subscription layer: many continuous SURGE queries served
//! from **one shared ingest path**, instead of one process per query.
//!
//! A [`SurgeServer`] owns a registry of live subscriptions. Each
//! subscription names a [`SurgeQuery`] (area, region size a×b, α, window
//! lengths) and a [`DetectorSpec`] flavor (exact cell-sweep CCS/B-CCS,
//! top-k, GAPS/MGAPS approximations). The server shares work at two levels:
//!
//! * **Lanes** — queries whose window configuration matches share one
//!   [`SlidingWindowEngine`]: every arrival is expanded into the canonical
//!   `New`/`Grown`/`Expired` transition stream once per lane and broadcast
//!   to every detector riding it. A lane *is* a [`QueryRuntime`] whose core
//!   is the lane's detector groups, so it flushes on exactly the slide
//!   cadence of a dedicated run, and its slide phase survives
//!   [`SurgeServer::capture`] / [`SurgeServer::restore`].
//! * **Groups** — queries that are outright identical (bitwise, via
//!   [`QueryKey`]) *and* ask for the same detector flavor share a single
//!   detector; their subscriptions fan out of one answer computation.
//!
//! Answers flow into per-subscription [`AnswerLog`] channels. A consumer
//! reads ([`SurgeServer::answers`], [`SurgeServer::drain`]) and acknowledges
//! ([`SurgeServer::ack`]); acked flushes are released, so retention is
//! bounded by consumer lag — the serving-layer replacement for the
//! grow-forever `answers: Vec` pattern of the single-query drivers.
//!
//! **The contract is bit-identity**: every subscription's answer stream is
//! bitwise equal to what a dedicated single-query run
//! ([`surge_stream::drive_incremental`] or a [`QueryRuntime`] over the same
//! flavor) would have produced over the stream suffix the subscription
//! lived through. Mid-stream registration starts a fresh lane at the
//! current stream position; deregistration drops the channel without
//! disturbing lane mates. `tests/multi_query.rs` proptests the claim,
//! including mid-stream churn, and `tests/serve_recovery.rs` proves a
//! crashed server with live subscriptions recovers all of them
//! bit-identically via [`ServeState`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use surge_checkpoint::{
    DetectorSpec, ServeGroupState, ServeLaneState, ServeMeta, ServeState, ServeSubState,
    SpecDetector,
};
use surge_core::{Event, QueryKey, QueryKeyError, RegionAnswer, SpatialObject, SurgeQuery};
use surge_observe::{Counter, Flight, Observe, RegistrySnapshot, TraceDump, TraceEvent};
use surge_stream::{AnswerLog, FlushOutcome, Phase, QueryCore, QueryRuntime, SlidingWindowEngine};

/// Opaque subscription handle issued by [`SurgeServer::subscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubId(u64);

impl SubId {
    /// The raw id (the durable form used in [`ServeState`]).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SubId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// Why a serve-layer call was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The query has a NaN parameter and therefore no dedup identity.
    Query(QueryKeyError),
    /// The detector spec cannot be served: `Serve` itself, or parameters
    /// its detector cannot be built with.
    UnsupportedSpec(&'static str),
    /// No live subscription has this id.
    UnknownSubscription(SubId),
    /// The server already ran its terminal drain.
    Finished,
    /// A [`ServeState`] failed validation during restore.
    Corrupt(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Query(e) => write!(f, "{e}"),
            ServeError::UnsupportedSpec(what) => write!(f, "unsupported detector spec: {what}"),
            ServeError::UnknownSubscription(id) => write!(f, "unknown subscription {id}"),
            ServeError::Finished => write!(f, "server already finished"),
            ServeError::Corrupt(what) => write!(f, "corrupt serve state: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueryKeyError> for ServeError {
    fn from(e: QueryKeyError) -> Self {
        ServeError::Query(e)
    }
}

/// Server-wide knobs shared by every lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Arrivals per slide (the flush cadence of every lane).
    pub slide_objects: usize,
}

impl ServeConfig {
    /// A configuration flushing every `slide_objects` arrivals.
    pub fn sequential(slide_objects: usize) -> Self {
        ServeConfig { slide_objects }
    }
}

/// Registry occupancy counters: how much sharing the server achieves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Ingest lanes (distinct window-config × registration-point pairs).
    pub lanes: usize,
    /// Deduped detector groups across all lanes.
    pub groups: usize,
    /// Live subscriptions across all groups.
    pub subscriptions: usize,
}

impl ServeStats {
    /// Fraction of subscriptions served without their own detector:
    /// `(subscriptions - groups) / subscriptions` (0.0 when empty).
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.subscriptions == 0 {
            0.0
        } else {
            (self.subscriptions - self.groups) as f64 / self.subscriptions as f64
        }
    }
}

/// One subscription's answer channel.
struct Sub {
    id: SubId,
    log: AnswerLog<Vec<RegionAnswer>>,
}

/// One deduped detector shared by every subscription with a bitwise-equal
/// query and the same flavor.
struct Group {
    key: QueryKey,
    query: SurgeQuery,
    spec: DetectorSpec,
    detector: SpecDetector,
    events: u64,
    subs: Vec<Sub>,
}

/// The server's observability handles: registry counters for the shared
/// ingest, occupancy gauges synced on every subscribe/unsubscribe, and a
/// flight ring tracing lane flushes in logical time. All no-ops until
/// [`SurgeServer::observe`] attaches an enabled [`Observe`]; the answer
/// streams are bitwise identical either way. Every lane holds a clone.
#[derive(Clone)]
struct ServeProbes {
    obs: Observe,
    objects: Counter,
    slides: Counter,
    flight: Flight,
}

impl ServeProbes {
    fn new(obs: &Observe) -> Self {
        ServeProbes {
            obs: obs.clone(),
            objects: obs.counter("serve/objects"),
            slides: obs.counter("serve/slides"),
            flight: obs.flight("serve/ingest"),
        }
    }
}

/// One shared ingest lane: the detector groups riding one window engine,
/// as the [`QueryCore`] of the lane's [`QueryRuntime`]. Each arrival's
/// events fan out to every group, and a flush flushes each group into its
/// subscriptions' channels.
struct Lane {
    /// Server-level object count when the lane was created; the lane only
    /// saw the stream suffix from here, so a subscription can only join it
    /// while `objects_ingested == start_objects`.
    start_objects: u64,
    groups: Vec<Group>,
    probes: ServeProbes,
}

impl QueryCore for Lane {
    fn on_events(&mut self, events: &[Event]) {
        for group in &mut self.groups {
            group.detector.on_events(events);
            group.events += events.len() as u64;
        }
    }

    fn flush(&mut self, seq: u64) -> FlushOutcome {
        self.probes.flight.record(TraceEvent::FlushStart { seq });
        let mut produced = 0u64;
        for group in &mut self.groups {
            let answers = group.detector.flush(seq).answers;
            produced += answers.len() as u64;
            // Last subscriber takes the vector itself; earlier ones clone.
            let (last, rest) = group.subs.split_last_mut().expect("groups are never empty");
            for sub in rest {
                sub.log.push(answers.clone());
            }
            last.log.push(answers);
        }
        self.probes.flight.record(TraceEvent::FlushEnd {
            seq,
            answers: produced,
        });
        self.probes.slides.inc();
        // The answers went to the subscriptions' channels.
        FlushOutcome::default()
    }
}

/// The multi-query server: one shared ingest feeding every live
/// subscription's answer channel. See the crate docs for the sharing model
/// and the bit-identity contract.
pub struct SurgeServer {
    cfg: ServeConfig,
    objects_ingested: u64,
    next_sub_id: u64,
    snapshot_seq: u64,
    finished: bool,
    lanes: Vec<QueryRuntime<Lane>>,
    probes: ServeProbes,
}

impl SurgeServer {
    /// An empty server.
    ///
    /// # Panics
    ///
    /// Panics if `slide_objects` is 0.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(
            cfg.slide_objects > 0,
            "slide must contain at least one object"
        );
        SurgeServer {
            cfg,
            objects_ingested: 0,
            next_sub_id: 0,
            snapshot_seq: 0,
            finished: false,
            lanes: Vec::new(),
            probes: ServeProbes::new(&Observe::off()),
        }
    }

    /// Attaches an observability handle: `serve/objects` and `serve/slides`
    /// counters, `serve/lanes|groups|subscriptions` occupancy gauges (kept
    /// in sync on every subscribe/unsubscribe), and a `serve/ingest` flight
    /// ring tracing lane flushes in logical time. Attaching [`Observe::off`]
    /// detaches. The answer streams are bitwise identical with observability
    /// on or off — the serving layer's non-invasiveness contract.
    pub fn observe(&mut self, obs: &Observe) {
        self.probes = ServeProbes::new(obs);
        for lane in &mut self.lanes {
            lane.core_mut().probes = self.probes.clone();
        }
        self.sync_occupancy();
    }

    /// A point-in-time snapshot of the attached metrics registry, or `None`
    /// when observability is off — the live server-stats surface
    /// ([`RegistrySnapshot::to_json`] / [`RegistrySnapshot::to_prometheus`]
    /// render it for transport).
    pub fn registry_snapshot(&self) -> Option<RegistrySnapshot> {
        self.probes
            .obs
            .is_enabled()
            .then(|| self.probes.obs.snapshot())
    }

    /// Dumps every flight-recorder ring of the attached [`Observe`] handle
    /// (non-destructively). Empty when observability is off.
    pub fn trace_dump(&self) -> TraceDump {
        self.probes.obs.trace_dump()
    }

    /// Re-points the occupancy gauges at the current registry shape.
    fn sync_occupancy(&self) {
        if self.probes.obs.is_enabled() {
            let stats = self.stats();
            let obs = &self.probes.obs;
            obs.gauge("serve/lanes").set(stats.lanes as i64);
            obs.gauge("serve/groups").set(stats.groups as i64);
            obs.gauge("serve/subscriptions")
                .set(stats.subscriptions as i64);
        }
    }

    /// Registers a query at the **current stream position**: the
    /// subscription's answers cover the stream suffix from this call on,
    /// exactly as if a dedicated detector had been started here.
    ///
    /// Joins an existing lane when one with the same window configuration
    /// is registering at the same position, and an existing detector group
    /// when the query is bitwise-identical ([`QueryKey`]) with the same
    /// flavor.
    pub fn subscribe(
        &mut self,
        query: SurgeQuery,
        spec: DetectorSpec,
    ) -> Result<SubId, ServeError> {
        if self.finished {
            return Err(ServeError::Finished);
        }
        let key = QueryKey::new(&query)?;
        if spec == DetectorSpec::Serve {
            return Err(ServeError::UnsupportedSpec(
                "Serve is the registry marker, not a detector flavor",
            ));
        }
        if let Some(why) = spec.parameter_error() {
            return Err(ServeError::UnsupportedSpec(why));
        }
        let detector =
            SpecDetector::build(&spec, query).map_err(|e| ServeError::Corrupt(e.to_string()))?;
        let id = SubId(self.next_sub_id);
        self.next_sub_id += 1;
        let sub = Sub {
            id,
            log: AnswerLog::new(),
        };

        let windows = query.windows;
        let start = self.objects_ingested;
        let lane = match self
            .lanes
            .iter_mut()
            .find(|l| l.engine().windows() == windows && l.core().start_objects == start)
        {
            Some(lane) => lane,
            None => {
                let lane = Lane {
                    start_objects: start,
                    groups: Vec::new(),
                    probes: self.probes.clone(),
                };
                self.lanes
                    .push(QueryRuntime::new(lane, windows, self.cfg.slide_objects));
                self.lanes.last_mut().expect("just pushed")
            }
        };
        let groups = &mut lane.core_mut().groups;
        match groups.iter_mut().find(|g| g.key == key && g.spec == spec) {
            Some(group) => group.subs.push(sub),
            None => groups.push(Group {
                key,
                query,
                spec,
                detector,
                events: 0,
                subs: vec![sub],
            }),
        }
        self.sync_occupancy();
        Ok(id)
    }

    /// Drops a subscription, returning its answer channel (whatever was
    /// still retained). The last subscription out of a group removes the
    /// shared detector; the last group out of a lane removes the lane.
    pub fn unsubscribe(&mut self, sub: SubId) -> Result<AnswerLog<Vec<RegionAnswer>>, ServeError> {
        for lane in &mut self.lanes {
            let groups = &mut lane.core_mut().groups;
            for group in groups.iter_mut() {
                if let Some(pos) = group.subs.iter().position(|s| s.id == sub) {
                    let removed = group.subs.remove(pos);
                    groups.retain(|g| !g.subs.is_empty());
                    self.lanes.retain(|l| !l.core().groups.is_empty());
                    self.sync_occupancy();
                    return Ok(removed.log);
                }
            }
        }
        Err(ServeError::UnknownSubscription(sub))
    }

    /// Broadcasts one arrival to every lane; lanes that complete a slide
    /// flush their groups into the subscription channels.
    ///
    /// # Panics
    ///
    /// Panics after [`finish`](Self::finish) — a drained server cannot
    /// ingest.
    pub fn ingest(&mut self, object: SpatialObject) {
        assert!(!self.finished, "SurgeServer::ingest after finish");
        self.objects_ingested += 1;
        self.probes.objects.inc();
        for lane in &mut self.lanes {
            // A completed slide's answers went to the channels already.
            lane.push(object);
        }
    }

    /// End of stream: every lane runs the canonical drain — a flush for
    /// its trailing partial slide, the engine tail, then the terminal
    /// flush. Subscriptions keep their channels; acks still release.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for lane in &mut self.lanes {
            while lane.finish_step().is_some() {}
        }
    }

    /// A subscription's answer channel: flush answers at dense 0-based
    /// seqs, `released..next_seq` retained until acked.
    pub fn answers(&self, sub: SubId) -> Result<&AnswerLog<Vec<RegionAnswer>>, ServeError> {
        self.find(sub).map(|s| &s.log)
    }

    /// Acknowledges every flush of `sub` up to and including `upto`,
    /// releasing the retained answers.
    pub fn ack(&mut self, sub: SubId, upto: u64) -> Result<(), ServeError> {
        self.find_mut(sub)?.log.ack(upto);
        Ok(())
    }

    /// Takes and acknowledges everything `sub` has retained, as
    /// `(seq, answers)` pairs.
    pub fn drain(&mut self, sub: SubId) -> Result<Vec<(u64, Vec<RegionAnswer>)>, ServeError> {
        let log = &mut self.find_mut(sub)?.log;
        let out: Vec<(u64, Vec<RegionAnswer>)> = log
            .iter_seq()
            .map(|(seq, answers)| (seq, answers.clone()))
            .collect();
        if let Some((last, _)) = out.last() {
            log.ack(*last);
        }
        Ok(out)
    }

    /// Registry occupancy (lanes / deduped groups / subscriptions).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            lanes: self.lanes.len(),
            groups: self.lanes.iter().map(|l| l.core().groups.len()).sum(),
            subscriptions: self
                .lanes
                .iter()
                .flat_map(|l| &l.core().groups)
                .map(|g| g.subs.len())
                .sum(),
        }
    }

    /// Objects broadcast so far.
    pub fn objects_ingested(&self) -> u64 {
        self.objects_ingested
    }

    /// Whether the terminal drain has run.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Captures the complete logical registry as a durable
    /// [`ServeState`] (and bumps the snapshot sequence). Restoring it with
    /// [`restore`](Self::restore) yields a server whose future answers are
    /// bit-identical to this one's.
    pub fn capture(&mut self) -> ServeState {
        let seq = self.snapshot_seq;
        self.snapshot_seq += 1;
        ServeState {
            meta: ServeMeta {
                objects_ingested: self.objects_ingested,
                slide_objects: self.cfg.slide_objects as u64,
                next_sub_id: self.next_sub_id,
                snapshot_seq: seq,
            },
            lanes: self
                .lanes
                .iter()
                .map(|lane| ServeLaneState {
                    start_objects: lane.core().start_objects,
                    in_slide: lane.in_slide() as u64,
                    slides: lane.counters().slides,
                    engine: lane.engine().checkpoint(),
                    groups: lane
                        .core()
                        .groups
                        .iter()
                        .map(|g| ServeGroupState {
                            query: g.query,
                            spec: g.spec,
                            detector: g.detector.capture(),
                            events: g.events,
                            subs: g
                                .subs
                                .iter()
                                .map(|s| ServeSubState {
                                    id: s.id.0,
                                    released: s.log.released(),
                                    retained: s.log.retained().to_vec(),
                                })
                                .collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Rebuilds a live server from a captured registry. Every engine,
    /// shared detector and answer channel resumes exactly where the
    /// capture left it, and each lane resumes its slide phase — a server
    /// captured after [`finish`](Self::finish) restores finished. (A
    /// finished server without lanes has no phase to resume from and
    /// restores open.)
    pub fn restore(state: &ServeState) -> Result<Self, ServeError> {
        let meta = &state.meta;
        if meta.slide_objects == 0 {
            return Err(ServeError::Corrupt("slide_objects must be positive".into()));
        }
        let cfg = ServeConfig::sequential(meta.slide_objects as usize);
        let mut lanes = Vec::with_capacity(state.lanes.len());
        let mut max_sub = None::<u64>;
        for ls in &state.lanes {
            if ls.start_objects > meta.objects_ingested {
                return Err(ServeError::Corrupt(format!(
                    "lane starts at {} but the server only ingested {}",
                    ls.start_objects, meta.objects_ingested
                )));
            }
            let engine = SlidingWindowEngine::from_state(&ls.engine)
                .map_err(|e| ServeError::Corrupt(e.to_string()))?;
            let mut groups = Vec::with_capacity(ls.groups.len());
            for gs in &ls.groups {
                if gs.subs.is_empty() {
                    return Err(ServeError::Corrupt("group without subscribers".into()));
                }
                if gs.spec == DetectorSpec::Serve {
                    return Err(ServeError::Corrupt(format!(
                        "registry contains an unservable {:?} group",
                        gs.spec
                    )));
                }
                let key = QueryKey::new(&gs.query)?;
                let mut detector = SpecDetector::build(&gs.spec, gs.query)
                    .map_err(|e| ServeError::Corrupt(e.to_string()))?;
                detector
                    .restore(&gs.detector)
                    .map_err(|e| ServeError::Corrupt(e.to_string()))?;
                let subs = gs
                    .subs
                    .iter()
                    .map(|ss| {
                        max_sub = Some(max_sub.map_or(ss.id, |m| m.max(ss.id)));
                        Sub {
                            id: SubId(ss.id),
                            log: AnswerLog::from_parts(ss.released, ss.retained.clone()),
                        }
                    })
                    .collect();
                groups.push(Group {
                    key,
                    query: gs.query,
                    spec: gs.spec,
                    detector,
                    events: gs.events,
                    subs,
                });
            }
            let lane = Lane {
                start_objects: ls.start_objects,
                groups,
                probes: ServeProbes::new(&Observe::off()),
            };
            let lane = QueryRuntime::resume(
                lane,
                engine,
                cfg.slide_objects,
                meta.objects_ingested - ls.start_objects,
                ls.slides,
            )
            .map_err(|e| ServeError::Corrupt(format!("lane: {e}")))?;
            if lane.in_slide() as u64 != ls.in_slide {
                return Err(ServeError::Corrupt(format!(
                    "lane in_slide {} disagrees with its counters, which put it at {}",
                    ls.in_slide,
                    lane.in_slide()
                )));
            }
            lanes.push(lane);
        }
        // `finish` runs every lane to its terminal flush, and nothing
        // captures a server between two lanes' flushes.
        let finished = lanes.first().is_some_and(|l| l.phase() == Phase::Finished);
        if lanes
            .iter()
            .any(|l| matches!(l.phase(), Phase::Open { .. }) == finished)
        {
            return Err(ServeError::Corrupt(
                "lanes must be all open or all finished".into(),
            ));
        }
        let floor = max_sub.map_or(0, |m| m + 1);
        Ok(SurgeServer {
            cfg,
            objects_ingested: meta.objects_ingested,
            next_sub_id: meta.next_sub_id.max(floor),
            snapshot_seq: meta.snapshot_seq + 1,
            finished,
            lanes,
            probes: ServeProbes::new(&Observe::off()),
        })
    }

    fn find(&self, sub: SubId) -> Result<&Sub, ServeError> {
        self.lanes
            .iter()
            .flat_map(|l| &l.core().groups)
            .flat_map(|g| &g.subs)
            .find(|s| s.id == sub)
            .ok_or(ServeError::UnknownSubscription(sub))
    }

    fn find_mut(&mut self, sub: SubId) -> Result<&mut Sub, ServeError> {
        self.lanes
            .iter_mut()
            .flat_map(|l| &mut l.core_mut().groups)
            .flat_map(|g| &mut g.subs)
            .find(|s| s.id == sub)
            .ok_or(ServeError::UnknownSubscription(sub))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{RegionSize, WindowConfig};

    fn query(alpha: f64) -> SurgeQuery {
        SurgeQuery::whole_space(RegionSize::new(1.5, 1.5), WindowConfig::new(120, 60), alpha)
    }

    fn bccs_spec() -> DetectorSpec {
        DetectorSpec::Cell {
            bound: surge_exact::BoundMode::StaticOnly,
            sweep: surge_exact::SweepMode::Persistent,
            shards: 1,
        }
    }

    fn stream(n: usize) -> Vec<SpatialObject> {
        use surge_core::Point;
        (0..n)
            .map(|i| {
                SpatialObject::new(
                    i as u64,
                    1.0 + (i % 3) as f64,
                    Point::new((i % 7) as f64 * 0.4, (i % 5) as f64 * 0.6),
                    (i as u64) * 9,
                )
            })
            .collect()
    }

    #[test]
    fn identical_queries_share_a_group() {
        let mut server = SurgeServer::new(ServeConfig::sequential(8));
        let a = server.subscribe(query(0.4), bccs_spec()).unwrap();
        let b = server.subscribe(query(0.4), bccs_spec()).unwrap();
        let c = server.subscribe(query(0.7), bccs_spec()).unwrap();
        let stats = server.stats();
        assert_eq!((stats.lanes, stats.groups, stats.subscriptions), (1, 2, 3));
        assert!((stats.dedup_hit_rate() - 1.0 / 3.0).abs() < 1e-12);

        for obj in stream(64) {
            server.ingest(obj);
        }
        server.finish();
        let (a, b, c) = (
            server.answers(a).unwrap(),
            server.answers(b).unwrap(),
            server.answers(c).unwrap(),
        );
        assert!(a.len() > 1);
        assert_eq!(a.retained(), b.retained(), "deduped twins see one stream");
        assert_eq!(a.len(), c.len(), "lane mates flush in lockstep");
    }

    #[test]
    fn acks_release_and_drain_empties() {
        let mut server = SurgeServer::new(ServeConfig::sequential(8));
        let id = server.subscribe(query(0.5), bccs_spec()).unwrap();
        for obj in stream(40) {
            server.ingest(obj);
        }
        server.finish();
        let total = server.answers(id).unwrap().len();
        let drained = server.drain(id).unwrap();
        assert_eq!(drained.len(), total);
        assert_eq!(drained.first().unwrap().0, 0);
        assert!(server.answers(id).unwrap().is_empty());
        assert_eq!(server.answers(id).unwrap().released() as usize, total);
        assert!(server.drain(id).unwrap().is_empty());
    }

    #[test]
    fn unsubscribe_cascades_cleanup() {
        let mut server = SurgeServer::new(ServeConfig::sequential(8));
        let a = server.subscribe(query(0.4), bccs_spec()).unwrap();
        let b = server.subscribe(query(0.4), bccs_spec()).unwrap();
        server.unsubscribe(a).unwrap();
        assert_eq!(server.stats().groups, 1, "twin keeps the group alive");
        server.unsubscribe(b).unwrap();
        let stats = server.stats();
        assert_eq!((stats.lanes, stats.groups, stats.subscriptions), (0, 0, 0));
        assert_eq!(
            server.unsubscribe(b),
            Err(ServeError::UnknownSubscription(b))
        );
    }

    #[test]
    fn unservable_specs_are_rejected() {
        let mut server = SurgeServer::new(ServeConfig::sequential(8));
        assert!(matches!(
            server.subscribe(query(0.4), DetectorSpec::Serve),
            Err(ServeError::UnsupportedSpec(_))
        ));
    }

    #[test]
    fn finished_server_rejects_subscriptions() {
        let mut server = SurgeServer::new(ServeConfig::sequential(8));
        server.subscribe(query(0.4), bccs_spec()).unwrap();
        server.finish();
        assert_eq!(
            server.subscribe(query(0.6), bccs_spec()).unwrap_err(),
            ServeError::Finished
        );
    }
}
