//! The sharded driver: parallel ingest *and* dirty-cell sweeps.
//!
//! [`crate::parallel::drive_incremental`] parallelizes the per-slide sweeps
//! but applies every event on the calling thread. [`drive_sharded`] moves
//! *application* to per-shard ingest workers ([`ShardedIngest`]): the
//! driver thread owns the one [`SlidingWindowEngine`], expands each
//! arrival into the canonical `Grown`/`Expired`/`New` sequence (O(1) per
//! object — paper §IV-C) and broadcasts the events in shared
//! `Arc<[Event]>` batches; every worker sees every event, in stream order,
//! and applies the ones that touch its own cells. Per-cell event order is
//! therefore exactly the sequential drivers' — shard count and thread
//! interleaving change wall-clock time only.
//!
//! At each slide boundary the driver sends a flush marker: every worker
//! sweeps its own dirty cells in place (arena-backed, no job shipping) and
//! answers with its shard-local best. Merging the shard answers by
//! [`ShardAnswer::merge_key`] reproduces the sequential detector's
//! best-first scan exactly, so the reported answers are bit-identical to
//! [`drive_incremental`](crate::parallel::drive_incremental) at the same
//! slide cadence — including the terminal drain flush both drivers end
//! with (`SlidingWindowEngine::finish` semantics).
//!
//! A worker that panics hangs up its channels; the driver's next send or
//! receive on them fails, it stops, joins the mesh and re-raises the
//! worker's own panic — no peer is left waiting.

use std::cell::Cell;
use std::sync::mpsc::{RecvError, SendError, TryRecvError};
use std::sync::Arc;
use std::thread::{self, ScopedJoinHandle};
use std::time::{Duration as WallDuration, Instant};

use crossbeam_channel::{bounded, Receiver, Sender};

use surge_core::{
    Event, RegionAnswer, ShardAnswer, ShardRunStats, ShardWorker, ShardWorkerStats, ShardedIngest,
    SpatialObject, WindowConfig,
};
use surge_observe::{Flight, Observe, TraceEvent};

use crate::answers::{AnswerLog, AnswerSink, RetainAll};
use crate::window::{EventBatch, SlidingWindowEngine};

/// Events are broadcast to shard workers once this many are buffered (and
/// at every flush), amortizing channel overhead. Shared with the elastic
/// driver ([`crate::elastic`]).
pub(crate) const BATCH: usize = 256;

/// How long a blocking mesh send may take before the backpressure watchdog
/// notes it in the flight recorder (and dumps the rings once per run).
/// Wall-clock gated, but it only ever *reports* — it never changes what the
/// drivers compute, so the bitwise contract is untouched.
const WATCHDOG_SEND: WallDuration = WallDuration::from_millis(250);

/// What the driver sends each shard worker.
enum ShardMsg {
    /// A batch of expanded events, in stream order, shared (not
    /// deep-copied) across the workers. Every worker receives every batch.
    Events(Arc<[Event]>),
    /// Slide boundary: sweep your dirty cells and report your local best.
    Flush,
}

/// Outcome of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Objects processed.
    pub objects: u64,
    /// Window-transition events expanded and broadcast.
    pub events: u64,
    /// Flushes executed (each yields one merged answer): the stream slides
    /// plus the terminal drain flush.
    pub slides: u64,
    /// Total dirty-cell sweeps across all shards and flushes.
    pub sweeps: u64,
    /// Per-shard lifetime counters, indexed by shard.
    pub shard_stats: Vec<ShardWorkerStats>,
    /// The merged answer at every flush boundary, in flush order —
    /// bit-identical to `drive_incremental`'s per-slide answers. Retains
    /// every answer under the default [`RetainAll`] sink; bounded by
    /// consumer lag under [`drive_sharded_with_sink`].
    pub answers: AnswerLog<Option<RegionAnswer>>,
    /// The terminal flush's answer (after the drain: `None` unless the
    /// detector reports something for empty windows), tracked independently
    /// of retention — it is correct even when an acking sink has released
    /// every flush from [`answers`](Self::answers).
    pub final_answer: Option<RegionAnswer>,
}

/// A worker's channel hung up mid-run, which only a worker panic causes.
/// The driver stops and hands this to [`join_workers`].
pub(crate) struct WorkerGone;

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

/// How long an idle worker polls its command channel before parking. A
/// flush is a handful of request/reply round trips a few hundred
/// microseconds apart; parking between them costs a futex wake-up per
/// round trip — on a virtualised host an interrupt to a halted vCPU —
/// which on small slides outweighs the sweeps themselves.
const WORKER_POLL: WallDuration = WallDuration::from_micros(100);

/// A worker's receive: polls for up to [`WORKER_POLL`], yielding the CPU
/// between polls, then blocks. `Err` once the driver has hung up. Shared
/// with the elastic driver.
pub(crate) fn recv_command<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
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
/// worker surfaces as that one error. Shared with the elastic driver.
pub(crate) fn join_workers<T>(
    handles: Vec<ScopedJoinHandle<'_, T>>,
    driven: Result<(), WorkerGone>,
) -> Vec<T> {
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
    assert!(driven.is_ok(), "a shard worker hung up without panicking");
    joined
}

/// Folds one shard's flush answer into the running best. Deterministic
/// merge: shard bests are keyed by `(score, bound, cell)`, a total order
/// independent of thread timing and shard count. Shared with the elastic
/// driver.
pub(crate) fn keep_best(best: &mut Option<ShardAnswer>, candidate: Option<ShardAnswer>) {
    if let Some(a) = candidate {
        if best.is_none_or(|b| a.merge_key() > b.merge_key()) {
            *best = Some(a);
        }
    }
}

/// The driver's event fan-out: shares each expanded batch with every
/// worker, counts what it sent, and — when observability is on — runs the
/// reporting-only backpressure watchdog around each blocking send. Shared
/// with the elastic driver.
pub(crate) struct EventFanout<'a> {
    obs: &'a Observe,
    flight: &'a Flight,
    watchdog_fired: Cell<bool>,
    events: Cell<u64>,
}

impl<'a> EventFanout<'a> {
    pub(crate) fn new(obs: &'a Observe, flight: &'a Flight) -> Self {
        EventFanout {
            obs,
            flight,
            watchdog_fired: Cell::new(false),
            events: Cell::new(0),
        }
    }

    /// Events broadcast so far.
    pub(crate) fn events(&self) -> u64 {
        self.events.get()
    }

    /// Sends `batch` to every worker as one shared allocation (each worker
    /// holds an `Arc`, not a deep copy) and empties it.
    pub(crate) fn broadcast<M>(
        &self,
        txs: &[Sender<M>],
        batch: &mut EventBatch,
        wrap: impl Fn(Arc<[Event]>) -> M,
        seq: u64,
    ) -> Result<(), WorkerGone> {
        if batch.is_empty() {
            return Ok(());
        }
        self.events.set(self.events.get() + batch.len() as u64);
        let shared: Arc<[Event]> = Arc::from(batch.as_slice());
        batch.clear();
        for (shard, tx) in txs.iter().enumerate() {
            // A slow send is noted in the driver ring and the rings are
            // dumped once per run; the send itself is the same blocking
            // call either way.
            let start = self.obs.is_enabled().then(Instant::now);
            tx.send(wrap(Arc::clone(&shared)))?;
            if start.is_some_and(|s| s.elapsed() >= WATCHDOG_SEND) {
                self.flight.record(TraceEvent::Backpressure {
                    seq,
                    shard: shard as u32,
                });
                if !self.watchdog_fired.replace(true) {
                    eprintln!("{}", self.obs.trace_dump());
                }
            }
        }
        Ok(())
    }
}

fn shard_worker_loop<W: ShardWorker>(
    mut worker: W,
    rx: Receiver<ShardMsg>,
    tx: Sender<Option<ShardAnswer>>,
    flight: Flight,
) -> ShardWorkerStats {
    let mut flush_seq = 0u64;
    while let Ok(msg) = recv_command(&rx) {
        match msg {
            ShardMsg::Events(events) => {
                for ev in events.iter() {
                    worker.on_event(ev);
                }
            }
            ShardMsg::Flush => {
                flight.record(TraceEvent::FlushStart { seq: flush_seq });
                let best = worker.flush();
                flight.record(TraceEvent::FlushEnd {
                    seq: flush_seq,
                    answers: best.is_some() as u64,
                });
                flush_seq += 1;
                tx.send(best).expect("driver alive");
            }
        }
    }
    worker.stats()
}

/// Drives `source` into a [`ShardedIngest`] detector with one worker thread
/// per shard, refreshing the merged continuous answer once per
/// `slide_objects` arrivals (plus the terminal drain flush).
///
/// The calling thread expands window transitions, broadcasts event batches
/// and merges flush answers; ingest and dirty-cell sweeps run on the shard
/// workers. The per-flush answers (and the detector's final state and
/// stats) are bit-identical to [`crate::parallel::drive_incremental`] at
/// the same slide size — see the module docs for why.
///
/// # Panics
///
/// Panics if `slide_objects` is 0 or the stream is not timestamp-ordered
/// (the engine's own check, on the calling thread before any broadcast),
/// or propagates a worker panic.
pub fn drive_sharded<D: ShardedIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
) -> ShardedReport {
    drive_sharded_with_sink(detector, windows, source, slide_objects, &mut RetainAll)
}

/// [`drive_sharded`] with an explicit answer consumer: every merged flush
/// answer is delivered through `sink` on the driver thread, and acked
/// answers are released from `ShardedReport::answers` instead of retained.
///
/// # Panics
///
/// Same as [`drive_sharded`].
pub fn drive_sharded_with_sink<D: ShardedIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
) -> ShardedReport {
    drive_sharded_observed(
        detector,
        windows,
        source,
        slide_objects,
        sink,
        &Observe::off(),
    )
}

/// [`drive_sharded_with_sink`] with registry probes: driver counters under
/// `sharded/*`, per-shard sweep/touch counters (`sharded/shard=N/sweeps`),
/// a flight ring per shard worker plus one for the driver, a
/// mesh-backpressure watchdog that notes slow channel sends and dumps the
/// rings (reporting only — answers stay bitwise identical to the
/// unobserved run, proptested), and a panic-time ring dump.
///
/// # Panics
///
/// Same as [`drive_sharded`].
pub fn drive_sharded_observed<D: ShardedIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
    obs: &Observe,
) -> ShardedReport {
    assert!(slide_objects > 0, "slide must contain at least one object");
    let driver_flight = obs.flight("sharded/driver");
    let _panic_dump = obs.panic_dump_guard("drive_sharded");
    let fanout = EventFanout::new(obs, &driver_flight);
    let region = detector.region_size();
    let mut engine = SlidingWindowEngine::new(windows);
    let mut objects = 0u64;
    let mut slides = 0u64;
    let mut answers: AnswerLog<Option<RegionAnswer>> = AnswerLog::new();
    // The terminal flush's answer, tracked independently of retention: an
    // acking sink may release every flush from `answers`, and the report
    // must still state the terminal answer.
    let mut final_answer: Option<RegionAnswer> = None;

    let shard_stats = thread::scope(|scope| {
        let workers = detector.ingest_workers();
        let n = workers.len();
        let mut txs: Vec<Sender<ShardMsg>> = Vec::with_capacity(n);
        let mut result_rxs: Vec<Receiver<Option<ShardAnswer>>> = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (idx, worker) in workers.into_iter().enumerate() {
            let (tx, rx) = bounded::<ShardMsg>(16);
            let (rtx, rrx) = bounded::<Option<ShardAnswer>>(1);
            txs.push(tx);
            result_rxs.push(rrx);
            let flight = obs.flight(&format!("sharded/shard={idx}"));
            handles.push(scope.spawn(move || shard_worker_loop(worker, rx, rtx, flight)));
        }

        let flush =
            |batch: &mut EventBatch, seq: u64| -> Result<Option<RegionAnswer>, WorkerGone> {
                fanout.broadcast(&txs, batch, ShardMsg::Events, seq)?;
                driver_flight.record(TraceEvent::FlushStart { seq });
                for tx in &txs {
                    tx.send(ShardMsg::Flush)?;
                }
                let mut best: Option<ShardAnswer> = None;
                for rx in &result_rxs {
                    keep_best(&mut best, rx.recv()?);
                }
                let best = best.map(|b| b.answer(region));
                driver_flight.record(TraceEvent::FlushEnd {
                    seq,
                    answers: best.is_some() as u64,
                });
                Ok(best)
            };

        let driven = (|| {
            let mut batch = EventBatch::with_capacity(BATCH);
            let mut in_slide = 0usize;
            for obj in source {
                engine.push_into(obj, &mut batch);
                if batch.len() >= BATCH {
                    fanout.broadcast(&txs, &mut batch, ShardMsg::Events, slides)?;
                }
                objects += 1;
                in_slide += 1;
                if in_slide >= slide_objects {
                    answers.offer(flush(&mut batch, slides)?, sink);
                    slides += 1;
                    in_slide = 0;
                }
            }
            if in_slide > 0 {
                answers.offer(flush(&mut batch, slides)?, sink);
                slides += 1;
            }
            // Terminal drain + flush, mirroring the sequential slide loop.
            engine.finish_into(&mut batch);
            // The terminal answer is recorded before the sink can release it.
            let ans = flush(&mut batch, slides)?;
            final_answer = ans;
            answers.offer(ans, sink);
            slides += 1;
            Ok(())
        })();
        drop(txs); // close channels: workers drain and finish
        join_workers(handles, driven)
    });

    let run = ShardRunStats {
        events: fanout.events(),
        new_events: objects,
        searches: shard_stats.iter().map(|s| s.sweeps).sum(),
    };
    detector.absorb_shard_run(run);

    if obs.is_enabled() {
        // Published after the join from the authoritative per-worker stats,
        // so registry totals equal the legacy report counters exactly
        // (conservation proptested in `tests/observe_differential.rs`).
        obs.counter("sharded/objects").add(objects);
        obs.counter("sharded/events").add(run.events);
        obs.counter("sharded/slides").add(slides);
        obs.counter("sharded/sweeps").add(run.searches);
        for (i, s) in shard_stats.iter().enumerate() {
            obs.counter(&format!("sharded/shard={i}/sweeps"))
                .add(s.sweeps);
            obs.counter(&format!("sharded/shard={i}/cell_touches"))
                .add(s.cell_touches);
        }
    }

    ShardedReport {
        objects,
        events: run.events,
        slides,
        sweeps: run.searches,
        shard_stats,
        final_answer,
        answers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{BurstDetector, Point, RegionSize, SurgeQuery};
    use surge_exact::{BoundMode, CellCspot};

    use crate::parallel::drive_incremental;

    fn query(alpha: f64) -> SurgeQuery {
        SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(400), alpha)
    }

    fn stream(n: usize) -> Vec<SpatialObject> {
        let mut state = 0xFEED_FACE_CAFE_BEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        (0..n)
            .map(|i| {
                let cluster = i % 4;
                SpatialObject::new(
                    i as u64,
                    1.0 + (i % 5) as f64,
                    Point::new(cluster as f64 * 2.5 + next(), cluster as f64 * 1.5 + next()),
                    (i as u64) * 6,
                )
            })
            .collect()
    }

    #[test]
    fn sharded_answers_bit_match_incremental_driver() {
        for alpha in [0.0, 0.5, 0.9] {
            let objs = stream(1_200);

            let mut seq = CellCspot::with_shards(query(alpha), BoundMode::Combined, 1);
            let seq_report = drive_incremental(
                &mut seq,
                WindowConfig::equal(400),
                objs.iter().copied(),
                64,
                1,
            );

            for shards in [1usize, 2, 8] {
                let mut par = CellCspot::with_shards(query(alpha), BoundMode::Combined, shards);
                let report =
                    drive_sharded(&mut par, WindowConfig::equal(400), objs.iter().copied(), 64);
                assert_eq!(report.objects, objs.len() as u64);
                assert_eq!(report.slides, seq_report.slides);
                assert_eq!(report.events, seq_report.events);
                assert_eq!(report.answers.len(), seq_report.answers.len());
                for (i, (a, b)) in report
                    .answers
                    .iter()
                    .zip(seq_report.answers.iter())
                    .enumerate()
                {
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            assert_eq!(
                                x.score.to_bits(),
                                y.score.to_bits(),
                                "alpha {alpha} shards {shards} slide {i}"
                            );
                            assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                            assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                            assert_eq!(x.region, y.region);
                        }
                        (None, None) => {}
                        other => panic!("alpha {alpha} shards {shards} slide {i}: {other:?}"),
                    }
                }
                // Same sweeps, same events, same final detector footprint.
                assert_eq!(report.sweeps, seq_report.jobs);
                assert_eq!(par.stats().events, seq.stats().events);
                assert_eq!(par.stats().searches, seq.stats().searches);
                assert_eq!(par.cell_count(), seq.cell_count());
                assert_eq!(par.dirty_cell_count(), 0);
                assert_eq!(report.shard_stats.len(), par.shard_count());
                let touches: u64 = report.shard_stats.iter().map(|s| s.cell_touches).sum();
                assert!(touches > 0);
            }
        }
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
        let mut d = CellCspot::with_shards(query(0.5), BoundMode::Combined, shards);
        drive_sharded(&mut d, WindowConfig::equal(400), objs.into_iter(), 8);
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
        let mut d = CellCspot::new(query(0.5));
        let report = drive_sharded(&mut d, WindowConfig::equal(400), std::iter::empty(), 32);
        assert_eq!(report.objects, 0);
        assert_eq!(report.slides, 1);
        assert_eq!(report.answers.len(), 1);
        assert!(report.final_answer.is_none());
        assert_eq!(report.events, 0);
    }

    #[test]
    fn partial_last_slide_and_drain_are_flushed() {
        let objs = stream(70);
        let mut d = CellCspot::new(query(0.5));
        let report = drive_sharded(&mut d, WindowConfig::equal(400), objs.into_iter(), 32);
        assert_eq!(report.slides, 4); // 32 + 32 + 6, then the drain
        assert_eq!(report.answers.len(), 4);
        // The last pre-drain answer sees the resident windows; the terminal
        // one sees them drained.
        assert!(report.answers[2].is_some());
        assert!(report.final_answer.is_none());
        // Every object completed its lifecycle: 3 events each.
        assert_eq!(report.events, 3 * 70);
    }
}
