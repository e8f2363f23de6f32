//! The shard mesh: parallel ingest *and* dirty-cell sweeps on one worker
//! per shard of the detector, bit-identically. It is the only way an exact
//! detector runs in parallel.
//!
//! [`crate::parallel::drive_incremental`] applies every event and sweeps
//! every dirty cell on the calling thread. [`drive_elastic`] moves both to
//! per-shard ingest workers ([`MeshIngest`]): the driver thread's
//! [`QueryRuntime`] expands each arrival through its one
//! [`SlidingWindowEngine`](crate::window::SlidingWindowEngine) into the
//! canonical `Grown`/`Expired`/`New` sequence (O(1) per object — paper
//! §IV-C), and its core broadcasts the events in shared `Arc<[Event]>`
//! batches; every worker sees every event, in stream order, and applies the
//! ones that touch its own cells. Per-cell event order is therefore exactly
//! the sequential drivers' — shard count and thread interleaving change
//! wall-clock time only.
//!
//! At each slide boundary the driver sends every worker one `Flush`
//! command; each worker sweeps the dirty cells of its own shard in place
//! and replies once, with its pre-sweep dirty count and its shard-local
//! best ([`ShardFlush`]). Merging the shard bests by
//! [`ShardAnswer::merge_key`] reproduces the sequential detector's
//! best-first scan exactly, so the reported answers are bit-identical to
//! [`drive_incremental`](crate::parallel::drive_incremental) at the same
//! slide cadence — including the terminal drain flush both drivers end with
//! (`SlidingWindowEngine::finish` semantics). One command and one reply per
//! worker means at most one outstanding command each, so the bounded
//! channels cannot deadlock regardless of capacity.
//!
//! The mesh is **fixed-width**: one worker per shard of the detector's own
//! cell store (`CellCspot::with_shards`), spawned once inside one
//! `thread::scope` and joined when the stream ends. A dirty cell is always
//! swept by the shard that owns it, so a stream whose dirty cells all hash
//! to one shard runs that flush's sweeps on one worker; the width is the
//! caller's choice and never changes mid-run.
//!
//! A worker that panics hangs up its channels; the driver's next send or
//! receive on them fails, it stops, joins the mesh and re-raises the
//! worker's own panic — no peer is left waiting.

use std::sync::mpsc::{RecvError, SendError, TryRecvError};
use std::sync::Arc;
use std::thread::{self, ScopedJoinHandle};
use std::time::{Duration as WallDuration, Instant};

use crossbeam_channel::{bounded, Receiver, Sender};

use surge_core::{
    Event, MeshIngest, MeshWorker, RegionAnswer, RegionSize, ShardAnswer, ShardFlush,
    ShardRunStats, ShardWorkerStats, SpatialObject, WindowConfig,
};
use surge_observe::{Flight, Observe, TraceEvent};

use crate::answers::{AnswerLog, AnswerSink, RetainAll};
use crate::runtime::{FlushOutcome, QueryCore, QueryRuntime};

/// Events are broadcast to shard workers once this many are buffered (and
/// at every flush), amortizing channel overhead.
const BATCH: usize = 256;

/// How long a blocking mesh send may take before the backpressure watchdog
/// notes it in the flight recorder (and dumps the rings once per run).
/// Wall-clock gated, but it only ever *reports* — it never changes what the
/// driver computes, so the bitwise contract is untouched.
const WATCHDOG_SEND: WallDuration = WallDuration::from_millis(250);

/// How long an idle worker polls its command channel before parking.
/// Event batches and flush commands arrive a few hundred microseconds
/// apart; parking between them costs a futex wake-up per message — on a
/// virtualised host an interrupt to a halted vCPU. Measured on this
/// one-message flush, a plain blocking `recv` loses `taxi-mesh` in 5 of 6
/// pairs (`objects_per_s` 74k vs 83k, `answer_p95_us` 673 vs 535 — see
/// CHANGES.md, PR 20).
const WORKER_POLL: WallDuration = WallDuration::from_micros(100);

/// Retired skew-balancer settings: the mesh runs at the detector's own
/// width and reads no field of this struct. It stays only because the
/// benchmark harness (`bench/src/sut.rs`) passes one to
/// [`drive_elastic_with_sink`] — delete it with the next benchmark change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BalancerPolicy {
    /// Unused.
    pub skew_percent: u32,
    /// Unused.
    pub patience: u32,
    /// Unused.
    pub max_shards: usize,
    /// Unused.
    pub min_load: u64,
}

impl Default for BalancerPolicy {
    fn default() -> Self {
        BalancerPolicy {
            skew_percent: 50,
            patience: 4,
            max_shards: 64,
            min_load: 8,
        }
    }
}

/// What the driver sends each mesh worker. The reply channel carries one
/// [`ShardFlush`] per `Flush`, nothing else.
enum MeshMsg {
    /// A batch of expanded events, in stream order, shared (not
    /// deep-copied) across the workers. Every worker receives every batch.
    Events(Arc<[Event]>),
    /// Slide boundary: sweep your dirty cells, reply with your shard best.
    Flush,
}

/// A worker's channel hung up mid-run, which only a worker panic causes;
/// [`MeshCore::worker_gone`] re-raises that panic.
struct WorkerGone;

impl<T> From<SendError<T>> for WorkerGone {
    fn from(_: SendError<T>) -> Self {
        WorkerGone
    }
}

impl From<RecvError> for WorkerGone {
    fn from(_: RecvError) -> Self {
        WorkerGone
    }
}

/// A worker's receive: polls for up to [`WORKER_POLL`], yielding the CPU
/// between polls, then blocks. `Err` once the driver has hung up.
fn recv_command<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) => {}
        }
        if start.elapsed() >= WORKER_POLL {
            return rx.recv();
        }
        thread::yield_now();
    }
}

/// Joins every worker (the caller has dropped their command senders) and
/// re-raises the first worker panic with its own payload, so a failed
/// worker surfaces as that one error.
fn join_workers<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut joined = Vec::with_capacity(handles.len());
    let mut panic = None;
    for h in handles {
        match h.join() {
            Ok(v) => joined.push(v),
            Err(payload) => {
                panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    joined
}

/// One worker's command loop. Its flight ring numbers flushes from 0, in
/// the same logical time as the driver's.
fn mesh_worker_loop<W: MeshWorker>(
    mut worker: W,
    rx: Receiver<MeshMsg>,
    tx: Sender<ShardFlush>,
    flight: Flight,
) -> ShardWorkerStats {
    let mut flush_seq = 0;
    while let Ok(msg) = recv_command(&rx) {
        match msg {
            MeshMsg::Events(events) => {
                for ev in events.iter() {
                    worker.on_event(ev);
                }
            }
            MeshMsg::Flush => {
                flight.record(TraceEvent::FlushStart { seq: flush_seq });
                let reply = worker.flush();
                flight.record(TraceEvent::FlushEnd {
                    seq: flush_seq,
                    answers: reply.best.is_some() as u64,
                });
                flush_seq += 1;
                tx.send(reply).expect("driver alive");
            }
        }
    }
    worker.stats()
}

/// Per-shard counters of a mesh run, indexed by shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochStats {
    /// Sweeps each shard ran (the sum of the dirty counts its worker
    /// reported) — the sweep critical path of the run is the max entry.
    pub shard_sweeps: Vec<u64>,
    /// Per-shard lifetime counters of the workers.
    pub shard_stats: Vec<ShardWorkerStats>,
}

/// Outcome of a mesh run.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// Objects processed.
    pub objects: u64,
    /// Window-transition events expanded and broadcast.
    pub events: u64,
    /// Flushes executed (stream slides + terminal drain).
    pub slides: u64,
    /// Total dirty-cell sweeps across all shards and flushes.
    pub sweeps: u64,
    /// Always 0: a dirty cell is swept by the shard that owns it.
    pub stolen: u64,
    /// Always 0: the mesh keeps its width for the whole run.
    pub reshards: u64,
    /// The mesh width: the detector's shard count.
    pub final_shards: usize,
    /// The run's per-shard counters: always exactly one entry.
    ///
    /// `stolen`, `reshards`, `final_shards` and the one-entry `epochs` are
    /// the shape `bench/src/layers.rs` reads; collapse them with the next
    /// benchmark change.
    pub epochs: Vec<EpochStats>,
    /// The merged answer at every flush boundary, in flush order —
    /// bit-identical to `drive_incremental`'s per-slide answers. Retains
    /// every answer under the default [`RetainAll`] sink; bounded by
    /// consumer lag under [`drive_elastic_with_sink`].
    pub answers: AnswerLog<Option<RegionAnswer>>,
    /// The terminal flush's answer (after the drain: `None` unless the
    /// detector reports something for empty windows), tracked independently
    /// of retention — it is correct even when an acking sink has released
    /// every flush from [`answers`](Self::answers).
    pub final_answer: Option<RegionAnswer>,
}

/// The mesh as the [`QueryCore`] of the run's [`QueryRuntime`]: the
/// runtime's expanded events are buffered and broadcast to every worker in
/// shared batches of [`BATCH`], and a flush is one `Flush` command to and one
/// reply from every worker, merged by [`ShardAnswer::merge_key`].
struct MeshCore<'a, 's> {
    txs: Vec<Sender<MeshMsg>>,
    reply_rxs: Vec<Receiver<ShardFlush>>,
    handles: Vec<ScopedJoinHandle<'s, ShardWorkerStats>>,
    obs: &'a Observe,
    /// The driver's flight ring, tracing every flush.
    flight: &'a Flight,
    /// Set once the backpressure watchdog dumped the rings (once per run).
    watchdog_fired: bool,
    region: RegionSize,
    batch: Vec<Event>,
    /// The flush the buffered events belong to.
    seq: u64,
    /// Per-shard sweeps so far (the sum of the dirty counts).
    shard_sweeps: Vec<u64>,
}

impl MeshCore<'_, '_> {
    /// A worker hung up, which only its panic causes: closes every
    /// channel, joins the mesh and re-raises that panic — no peer is left
    /// waiting.
    fn worker_gone(&mut self) -> ! {
        self.txs.clear();
        join_workers(std::mem::take(&mut self.handles));
        panic!("a shard worker hung up without panicking");
    }

    /// Sends the buffered events to every worker as one shared allocation
    /// (each worker holds an `Arc`, not a deep copy).
    fn broadcast(&mut self) -> Result<(), WorkerGone> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let shared: Arc<[Event]> = Arc::from(self.batch.as_slice());
        self.batch.clear();
        for (shard, tx) in self.txs.iter().enumerate() {
            // A slow send is noted in the driver ring and the rings are
            // dumped once per run; the send itself is the same blocking
            // call either way.
            let start = self.obs.is_enabled().then(Instant::now);
            tx.send(MeshMsg::Events(Arc::clone(&shared)))?;
            if start.is_some_and(|s| s.elapsed() >= WATCHDOG_SEND) {
                self.flight.record(TraceEvent::Backpressure {
                    seq: self.seq,
                    shard: shard as u32,
                });
                if !std::mem::replace(&mut self.watchdog_fired, true) {
                    eprintln!("{}", self.obs.trace_dump());
                }
            }
        }
        Ok(())
    }

    fn mesh_flush(&mut self, seq: u64) -> Result<FlushOutcome, WorkerGone> {
        self.broadcast()?;
        self.flight.record(TraceEvent::FlushStart { seq });
        for tx in &self.txs {
            tx.send(MeshMsg::Flush)?;
        }
        let mut swept = 0;
        let mut best: Option<ShardAnswer> = None;
        for (rx, total) in self.reply_rxs.iter().zip(&mut self.shard_sweeps) {
            let reply = rx.recv()?;
            *total += reply.dirty;
            swept += reply.dirty;
            // Shard bests merge by `(score, bound, cell)`: a total order,
            // independent of thread timing and shard count.
            if reply
                .best
                .is_some_and(|a| best.is_none_or(|b| a.merge_key() > b.merge_key()))
            {
                best = reply.best;
            }
        }
        let merged = best.map(|b| b.answer(self.region));
        self.flight.record(TraceEvent::FlushEnd {
            seq,
            answers: merged.is_some() as u64,
        });
        Ok(FlushOutcome {
            answers: merged.into_iter().collect(),
            swept,
        })
    }
}

impl QueryCore for MeshCore<'_, '_> {
    fn on_events(&mut self, events: &[Event]) {
        self.batch.extend_from_slice(events);
        if self.batch.len() >= BATCH && self.broadcast().is_err() {
            self.worker_gone();
        }
    }

    fn flush(&mut self, seq: u64) -> FlushOutcome {
        let flushed = self
            .mesh_flush(seq)
            .unwrap_or_else(|WorkerGone| self.worker_gone());
        self.seq = seq + 1;
        flushed
    }
}

/// Drives `source` into a [`MeshIngest`] detector with one worker thread
/// per shard, refreshing the merged continuous answer once per
/// `slide_objects` arrivals (plus the terminal drain flush).
///
/// The calling thread expands window transitions, broadcasts event batches
/// and merges flush answers; ingest and dirty-cell sweeps run on the shard
/// workers. The per-flush answers (and the detector's final state and
/// stats) are bit-identical to [`crate::parallel::drive_incremental`] at
/// the same slide size, for any shard count — see the module docs for why.
///
/// # Panics
///
/// Panics if `slide_objects` is 0, if the stream is not timestamp-ordered
/// (the engine's own check, on the calling thread before any broadcast),
/// or propagates a worker panic.
pub fn drive_elastic<D: MeshIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
) -> ElasticReport {
    drive_elastic_observed(
        detector,
        windows,
        source,
        slide_objects,
        &mut RetainAll,
        &Observe::off(),
    )
}

/// [`drive_elastic`] with an explicit answer consumer: every merged flush
/// answer is delivered through `sink` on the driver thread, and acked
/// answers are released from `ElasticReport::answers` instead of retained.
/// `_policy` is ignored (see [`BalancerPolicy`]).
///
/// # Panics
///
/// Same as [`drive_elastic`].
pub fn drive_elastic_with_sink<D: MeshIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    _policy: BalancerPolicy,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
) -> ElasticReport {
    drive_elastic_observed(
        detector,
        windows,
        source,
        slide_objects,
        sink,
        &Observe::off(),
    )
}

/// [`drive_elastic_with_sink`] with registry probes: driver counters under
/// `elastic/*`, per-shard counters (`elastic/shard=S/sweeps`,
/// `…/cell_touches`), a driver flight ring that traces every flush in
/// logical time plus one ring per worker (`elastic/shard=S`), a
/// mesh-backpressure watchdog that notes slow channel sends and dumps the
/// rings, and a panic-time ring dump. The trace dump is identical
/// run-to-run; a disabled `obs` compiles the probes down to a branch on
/// `None` and the answers are bitwise identical either way (proptested).
///
/// # Panics
///
/// Same as [`drive_elastic`].
pub fn drive_elastic_observed<D: MeshIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
    obs: &Observe,
) -> ElasticReport {
    assert!(slide_objects > 0, "slide must contain at least one object");
    let driver_flight = obs.flight("elastic/driver");
    let _panic_dump = obs.panic_dump_guard("drive_elastic");
    let region = detector.region_size();
    let mut answers: AnswerLog<Option<RegionAnswer>> = AnswerLog::new();
    // The terminal flush's answer, tracked independently of retention: an
    // acking sink may release every flush from `answers`, and the report
    // must still state the terminal answer.
    let mut final_answer: Option<RegionAnswer> = None;

    let (counters, shards) = thread::scope(|scope| {
        let workers = detector.ingest_workers();
        let n = workers.len();
        let mut txs = Vec::with_capacity(n);
        let mut reply_rxs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (shard, worker) in workers.into_iter().enumerate() {
            let (tx, rx) = bounded::<MeshMsg>(16);
            let (rtx, rrx) = bounded::<ShardFlush>(1);
            txs.push(tx);
            reply_rxs.push(rrx);
            let flight = obs.flight(&format!("elastic/shard={shard}"));
            handles.push(scope.spawn(move || mesh_worker_loop(worker, rx, rtx, flight)));
        }
        let core = MeshCore {
            txs,
            reply_rxs,
            handles,
            obs,
            flight: &driver_flight,
            watchdog_fired: false,
            region,
            batch: Vec::with_capacity(BATCH),
            seq: 0,
            shard_sweeps: vec![0; n],
        };
        let mut rt = QueryRuntime::new(core, windows, slide_objects);
        rt.run(source, |_, flushed| {
            final_answer = flushed.first().copied();
            answers.offer(final_answer, sink);
        });
        let counters = *rt.counters();
        // The run ends at a completed flush, so every worker is idle;
        // closing the channels ends their loops.
        let MeshCore {
            txs,
            handles,
            shard_sweeps,
            ..
        } = rt.into_core();
        drop(txs);
        let shard_stats = join_workers(handles);
        (
            counters,
            EpochStats {
                shard_sweeps,
                shard_stats,
            },
        )
    });

    let run = ShardRunStats {
        events: counters.events,
        new_events: counters.objects,
        searches: shards.shard_stats.iter().map(|s| s.sweeps).sum(),
    };
    detector.absorb_shard_run(run);

    if obs.is_enabled() {
        // Published after the join from the authoritative per-worker stats,
        // so registry totals equal the report exactly (conservation
        // proptested in `tests/observe_differential.rs`).
        obs.counter("elastic/objects").add(counters.objects);
        obs.counter("elastic/events").add(run.events);
        obs.counter("elastic/slides").add(counters.slides);
        obs.counter("elastic/sweeps").add(run.searches);
        for (s, (sw, st)) in shards
            .shard_sweeps
            .iter()
            .zip(&shards.shard_stats)
            .enumerate()
        {
            obs.counter(&format!("elastic/shard={s}/sweeps")).add(*sw);
            obs.counter(&format!("elastic/shard={s}/cell_touches"))
                .add(st.cell_touches);
        }
    }

    ElasticReport {
        objects: counters.objects,
        events: run.events,
        slides: counters.slides,
        sweeps: run.searches,
        stolen: 0,
        reshards: 0,
        final_shards: shards.shard_sweeps.len(),
        epochs: vec![shards],
        answers,
        final_answer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{Point, SurgeQuery};
    use surge_exact::{BoundMode, CellCspot};

    fn query() -> SurgeQuery {
        SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(400), 0.5)
    }

    /// A stream whose third arrival is *late* (earlier timestamp than its
    /// predecessor): the window engine rejects it on the driver thread,
    /// before anything is broadcast, with its one precise message.
    fn drive_late_arrival(shards: usize) {
        let objs = vec![
            SpatialObject::new(0, 1.0, Point::new(0.1, 0.1), 100),
            SpatialObject::new(1, 1.0, Point::new(0.5, 0.5), 200),
            SpatialObject::new(2, 1.0, Point::new(0.9, 0.9), 150), // late
        ];
        let mut d = CellCspot::with_shards(query(), BoundMode::Combined, shards);
        drive_elastic(&mut d, WindowConfig::equal(400), objs.into_iter(), 8);
    }

    #[test]
    #[should_panic(expected = "stream must be timestamp-ordered")]
    fn late_arrival_is_rejected_on_the_driver_thread_1_shard() {
        drive_late_arrival(1);
    }

    #[test]
    #[should_panic(expected = "stream must be timestamp-ordered")]
    fn late_arrival_is_rejected_on_the_driver_thread_2_shards() {
        drive_late_arrival(2);
    }

    #[test]
    #[should_panic(expected = "stream must be timestamp-ordered")]
    fn late_arrival_is_rejected_on_the_driver_thread_8_shards() {
        drive_late_arrival(8);
    }

    #[test]
    fn empty_stream_yields_only_the_terminal_flush() {
        let mut d = CellCspot::new(query());
        let report = drive_elastic(&mut d, WindowConfig::equal(400), std::iter::empty(), 32);
        assert_eq!(report.objects, 0);
        assert_eq!(report.slides, 1);
        assert_eq!(report.answers.len(), 1);
        assert!(report.final_answer.is_none());
        assert_eq!(report.events, 0);
        assert_eq!(report.epochs.len(), 1);
    }

    #[test]
    fn partial_last_slide_and_drain_are_flushed() {
        let mut d = CellCspot::new(query());
        let report = drive_elastic(
            &mut d,
            WindowConfig::equal(400),
            // Four clusters, timestamps 6 apart: ~67 objects per window.
            surge_testkit::clustered_stream(70, 4, 6, 0xFEED).into_iter(),
            32,
        );
        assert_eq!(report.slides, 4); // 32 + 32 + 6, then the drain
        assert_eq!(report.answers.len(), 4);
        // The last pre-drain answer sees the resident windows; the terminal
        // one sees them drained.
        assert!(report.answers[2].is_some());
        assert!(report.final_answer.is_none());
        // Every object completed its lifecycle: 3 events each.
        assert_eq!(report.events, 3 * 70);
        let touches: u64 = report.epochs[0]
            .shard_stats
            .iter()
            .map(|s| s.cell_touches)
            .sum();
        assert!(touches > 0);
    }
}
