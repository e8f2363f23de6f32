//! The checkpointing driver and the recovery entry point.
//!
//! [`run_checkpointed`] is the durable face of the slide-batched drivers: a
//! [`QueryRuntime`] over the spec's detector — so the flush cadence is
//! `drive_incremental`'s and the answers are bit-comparable — that appends
//! every arrival to the WAL *before* the window engine sees it, syncs the
//! WAL after each flush and before the flush's answers leave the process,
//! and every [`CheckpointPolicy::snapshot_every_slides`] slides takes a
//! logical snapshot.
//!
//! # Snapshots: the runner thread and the writer
//!
//! A snapshot is split at the capture. The ingest (runner) thread does, in
//! order:
//!
//! 1. under [`SyncPolicy::FsyncPerSnapshot`], `fdatasync` the WAL;
//! 2. join the previous writer job if it is still running — its capture is
//!    dropped here, its encode buffer kept for reuse, its error surfaced;
//! 3. capture the [`CheckpointState`];
//! 4. hand capture and buffer to a new writer job, one `std::thread`.
//!
//! The writer job then, in order, encodes the snapshot into the reused
//! buffer ([`CheckpointState::encode_into`], CRC-32 footer included),
//! writes `snap-*.tmp`, fsyncs it, renames it into place, fsyncs the
//! directory, retires old snapshots and garbage-collects the WAL segments
//! the oldest retained snapshot covers ([`crate::wal::gc`]). At most one job
//! is in flight; the file is byte-identical to
//! `CheckpointState::to_snapshot().encode()`.
//!
//! A writer failure surfaces as [`CheckpointError::Io`] at the next join:
//! the next snapshot, or the end of the run — [`Tail::Finish`] and
//! [`Tail::Crash`] both join. Every other exit (an error returned early, a
//! panic) joins too, through a drop guard, so once a run returns no writer
//! touches its directory. A failed job never renames, retires or collects,
//! so the previous snapshot and the WAL behind it stay the recovery anchor.
//!
//! # Recovery
//!
//! [`recover`] is the other half: it loads the newest valid snapshot
//! (skipping corrupt ones and stray `.tmp` files), rebuilds the engine and
//! detector from logical state, resumes the runtime in the snapshot's slide
//! phase (mid-slide, past the partial-slide flush, or finished — derived
//! from the snapshot's counters), replays the WAL tail through the
//! identical loop, then continues with the live source — producing the
//! answer sequence the uninterrupted run would have produced, **bit for
//! bit** (proptested in `tests/crash_recovery.rs` across cut points, shard
//! counts and sweep modes).
//!
//! The runner thread's share of each snapshot (steps 1–4) is recorded in a
//! [`surge_stream::LatencyHistogram`]; the report surfaces the p50/p99/max
//! snapshot-stall columns the benches print.

use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use surge_approx::{GapSurge, MgapSurge};
use surge_core::{
    BurstDetector, CheckpointableDetector, DetectorState, DetectorStats, Event,
    IncrementalDetector, RegionAnswer, RestoreError, SpatialObject, SurgeQuery, TopKDetector,
    WindowConfig,
};
use surge_exact::{BaseDetector, CellCspot, SweepMode};
use surge_io::{BlobStore, FsStore, IoError};
use surge_observe::{Counter, Flight, Histogram, Observe, TraceEvent};
use surge_stream::{
    AnswerLog, AnswerSink, FlushOutcome, LatencyHistogram, LatencySummary, Phase, QueryCore,
    QueryRuntime, RetainAll, SlidingWindowEngine,
};
use surge_topk::KCellCspot;

use crate::state::{CheckpointMeta, CheckpointState, DetectorSpec};
use crate::store::CheckpointDir;
use crate::wal::{self, Wal, WalWriter};

/// How aggressively the WAL is forced to stable storage.
///
/// Every tier syncs to the OS at each slide boundary (group commit), so a
/// process kill never loses a flushed slide. The tiers differ in what a
/// **power loss** can cost — and in write latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// OS flush only. A power loss can drop the OS-buffered WAL tail;
    /// recovery re-reads that stretch from the source, so it costs replay
    /// work, never correctness. The default.
    #[default]
    OsFlush,
    /// Additionally `fdatasync` the WAL before each snapshot: the records
    /// between two snapshots are on stable storage before the newer
    /// snapshot becomes the recovery anchor.
    FsyncPerSnapshot,
    /// `fdatasync` at every slide: each flushed slide survives power loss.
    /// The strongest — and slowest — tier.
    FsyncPerSlide,
}

impl SyncPolicy {
    /// Short name, as recorded in `SnapshotStall` flight events.
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::OsFlush => "os-flush",
            SyncPolicy::FsyncPerSnapshot => "fsync/snapshot",
            SyncPolicy::FsyncPerSlide => "fsync/slide",
        }
    }
}

/// When to snapshot and how the WAL is segmented, retained and synced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Write a snapshot every N slides (0 disables snapshots; recovery then
    /// replays the whole WAL).
    pub snapshot_every_slides: u64,
    /// Rotate WAL segments every N objects.
    pub wal_segment_objects: u64,
    /// Keep the newest N snapshots (minimum 1); WAL segments fully covered
    /// by the oldest retained snapshot are deleted.
    pub keep_snapshots: usize,
    /// WAL durability tier.
    pub sync: SyncPolicy,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            snapshot_every_slides: 8,
            wal_segment_objects: 4096,
            keep_snapshots: 2,
            sync: SyncPolicy::OsFlush,
        }
    }
}

/// A checkpointed run's configuration: what to detect and at what cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointConfig {
    /// The continuous query.
    pub query: SurgeQuery,
    /// The window configuration the engine runs (usually `query.windows`).
    pub windows: WindowConfig,
    /// Which detector to drive.
    pub spec: DetectorSpec,
    /// Arrivals per slide.
    pub slide_objects: usize,
    /// Ignored: sequential; the parallel path is
    /// `surge_stream::drive_elastic`; delete in the next benchmark PR (the
    /// benchmark harness still sets it).
    pub threads: usize,
    /// Durability policy.
    pub policy: CheckpointPolicy,
}

/// How a run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Drain the window tails and run the terminal flush (the normal
    /// end-of-stream contract shared with every replay driver).
    Finish,
    /// Stop dead after the last object — no drain, no flush, WAL synced,
    /// the in-flight snapshot writer joined (so every snapshot handed off
    /// is on disk, or its error is returned). This simulates a crash for
    /// the recovery tests; a real crash differs only in possibly losing the
    /// unsynced WAL tail, which recovery re-reads from the source instead,
    /// and the snapshot in flight, whose predecessor stays the anchor.
    Crash,
}

/// Errors from the checkpoint subsystem.
#[derive(Debug)]
pub enum CheckpointError {
    /// A persistence failure (WAL or snapshot I/O, corrupt file).
    Io(IoError),
    /// A logical-state restore was rejected.
    Restore(RestoreError),
    /// The run configuration contradicts the on-disk state.
    Config(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Restore(e) => write!(f, "{e}"),
            CheckpointError::Config(msg) => write!(f, "checkpoint config error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<IoError> for CheckpointError {
    fn from(e: IoError) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<RestoreError> for CheckpointError {
    fn from(e: RestoreError) -> Self {
        CheckpointError::Restore(e)
    }
}

/// The outcome of a checkpointed run (or of a recovery + resume).
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// Objects processed in total (replayed WAL tail included).
    pub objects: u64,
    /// Flushes executed in total.
    pub slides: u64,
    /// Window-transition events processed (from the resume point onward
    /// for a recovered run).
    pub events: u64,
    /// The answer at every flush, in flush order: 0/1 entries per flush
    /// for single-region detectors, up to k for top-k. For a recovered run
    /// this includes the answers restored from the snapshot, so the full
    /// sequence is comparable to an uninterrupted run's. With the default
    /// [`RetainAll`] sink every flush stays retained (the historical `Vec`
    /// shape); a run wired to an acking consumer via
    /// [`run_checkpointed_with_sink`] retains only the unacked suffix.
    pub answers: AnswerLog<Vec<RegionAnswer>>,
    /// Snapshots written during this run.
    pub snapshots_written: u64,
    /// Objects appended to the WAL during this run.
    pub wal_appends: u64,
    /// Snapshot stalls: the time each snapshot holds the ingest thread —
    /// joining the previous writer job, capturing, handing off (plus the
    /// WAL `fdatasync` under [`SyncPolicy::FsyncPerSnapshot`]). Encoding
    /// and file I/O run on the background writer and are not included.
    pub pause: LatencySummary,
    /// For a recovered run: the object index execution resumed from (the
    /// snapshot's position). `None` for a fresh run.
    pub resumed_at: Option<u64>,
    /// Objects replayed from the WAL tail during recovery.
    pub replayed_from_wal: u64,
    /// Bytes truncated off a torn WAL tail during recovery.
    pub wal_truncated_bytes: u64,
    /// Final detector counters.
    pub stats: DetectorStats,
}

impl CheckpointReport {
    /// The retained answers as the single-region drivers report them —
    /// convenience for comparing against `drive_incremental`.
    pub fn single_answers(&self) -> Vec<Option<RegionAnswer>> {
        self.answers
            .iter()
            .map(|flush| flush.first().copied())
            .collect()
    }
}

/// The detector behind a checkpointed run: one variant per
/// [`DetectorSpec`], so every driver loop — the checkpoint runner and the
/// multi-query serving layer — is a single implementation.
///
/// Implements [`surge_stream::QueryCore`]: the checkpoint runner is a
/// [`QueryRuntime`] over one of these, and a `surge-serve` lane fans its
/// events out to one per deduped detector group.
pub enum SpecDetector {
    /// CCS / B-CCS ([`surge_exact::CellCspot`]).
    Cell(CellCspot),
    /// The baseline detector ([`surge_exact::BaseDetector`]).
    Base(BaseDetector),
    /// Continuous top-k ([`surge_topk::KCellCspot`]).
    TopK(KCellCspot),
    /// GAP-SURGE ([`surge_approx::GapSurge`]).
    Gaps(GapSurge),
    /// MGAP-SURGE ([`surge_approx::MgapSurge`]).
    Mgaps(Box<MgapSurge>),
}

impl SpecDetector {
    /// Builds an empty detector for `spec` over `query`.
    ///
    /// [`DetectorSpec::Serve`] is rejected: a serve registry is not a
    /// single detector — build a `surge-serve` server instead. So is a
    /// spec with a [`DetectorSpec::parameter_error`].
    pub fn build(spec: &DetectorSpec, query: SurgeQuery) -> Result<SpecDetector, CheckpointError> {
        if let Some(why) = spec.parameter_error() {
            return Err(CheckpointError::Config(why.into()));
        }
        Ok(match *spec {
            DetectorSpec::Cell {
                bound,
                sweep: SweepMode::Persistent,
                shards,
            } => SpecDetector::Cell(CellCspot::with_shards(query, bound, shards)),
            DetectorSpec::Base => SpecDetector::Base(BaseDetector::new(query)),
            DetectorSpec::TopK { k } => SpecDetector::TopK(KCellCspot::new(query, k)),
            DetectorSpec::Gaps { .. } => SpecDetector::Gaps(GapSurge::new(query)),
            DetectorSpec::Mgaps { .. } => SpecDetector::Mgaps(Box::new(MgapSurge::new(query))),
            DetectorSpec::Serve => {
                return Err(CheckpointError::Config(
                    "DetectorSpec::Serve is a registry marker, not a detector; \
                     drive it through surge-serve"
                        .into(),
                ))
            }
        })
    }

    /// Captures the detector's logical state for a snapshot.
    pub fn capture(&self) -> DetectorState {
        match self {
            SpecDetector::Cell(d) => d.capture_state(),
            SpecDetector::Base(d) => d.capture_state(),
            SpecDetector::TopK(d) => d.capture_state(),
            SpecDetector::Gaps(d) => d.capture_state(),
            SpecDetector::Mgaps(d) => d.capture_state(),
        }
    }

    /// Restores the detector from captured logical state.
    pub fn restore(&mut self, state: &DetectorState) -> Result<(), RestoreError> {
        match self {
            SpecDetector::Cell(d) => d.restore_state(state),
            SpecDetector::Base(d) => d.restore_state(state),
            SpecDetector::TopK(d) => d.restore_state(state),
            SpecDetector::Gaps(d) => d.restore_state(state),
            SpecDetector::Mgaps(d) => d.restore_state(state),
        }
    }

    /// Detector counters.
    pub fn stats(&self) -> DetectorStats {
        match self {
            SpecDetector::Cell(d) => d.stats(),
            SpecDetector::Base(d) => BurstDetector::stats(d),
            SpecDetector::TopK(d) => TopKDetector::stats(d),
            SpecDetector::Gaps(d) => BurstDetector::stats(d),
            SpecDetector::Mgaps(d) => BurstDetector::stats(d.as_ref()),
        }
    }
}

impl QueryCore for SpecDetector {
    fn on_events(&mut self, events: &[Event]) {
        for ev in events {
            match self {
                SpecDetector::Cell(d) => d.on_event(ev),
                SpecDetector::Base(d) => BurstDetector::on_event(d, ev),
                SpecDetector::TopK(d) => TopKDetector::on_event(d, ev),
                SpecDetector::Gaps(d) => BurstDetector::on_event(d, ev),
                SpecDetector::Mgaps(d) => BurstDetector::on_event(d.as_mut(), ev),
            }
        }
    }

    /// The per-slide flush, matching each detector family's canonical
    /// cadence: CCS sweeps its dirty cells in place and then reads the
    /// all-fresh answer (bit-identical to `drive_incremental`), Base,
    /// top-k and the grid detectors answer directly.
    fn flush(&mut self, _seq: u64) -> FlushOutcome {
        let (answer, swept) = match self {
            SpecDetector::TopK(d) => {
                return FlushOutcome {
                    answers: d.current_topk(),
                    swept: 0,
                }
            }
            SpecDetector::Cell(d) => {
                let swept = d.sweep_dirty(1);
                (d.current(), swept)
            }
            SpecDetector::Base(d) => (d.current(), 0),
            SpecDetector::Gaps(d) => (d.current(), 0),
            SpecDetector::Mgaps(d) => (d.current(), 0),
        };
        FlushOutcome {
            answers: answer.into_iter().collect(),
            swept,
        }
    }
}

/// The run loop shared by fresh runs and recovery: a [`QueryRuntime`] over
/// the spec's detector, plus the durability work done after every flush.
struct Runner<'s> {
    cfg: CheckpointConfig,
    rt: QueryRuntime<SpecDetector>,
    wal: WalWriter,
    writer: SnapshotWriter,
    answers: AnswerLog<Vec<RegionAnswer>>,
    sink: &'s mut dyn AnswerSink<Vec<RegionAnswer>>,
    snapshot_seq: u64,
    snapshots_written: u64,
    wal_appends: u64,
    pause: LatencyHistogram,
    /// Registry/flight probes; all no-ops under `Observe::off()`.
    probes: RunnerProbes,
}

/// The checkpoint runner's observability handles: a flight ring attributing
/// every snapshot stall to `(slide, bytes, sync_policy)` and every WAL
/// rotation to its segment, the `checkpoint/stall_ns` histogram of the
/// runner thread's share of each snapshot, the `checkpoint/capture_ns`
/// histogram of the capture alone within it, the
/// `checkpoint/snapshot_write_ns` histogram of the writer's encode-to-GC
/// time — how far durability trails the capture — and the
/// `checkpoint/snapshot_bytes` counter of written snapshot bytes.
/// Wall-clock durations go to the histograms only; the trace events and
/// the byte counter carry logical quantities, so they are deterministic
/// run-to-run.
struct RunnerProbes {
    obs: Observe,
    flight: Flight,
    stall_ns: Histogram,
    capture_ns: Histogram,
    write_ns: Histogram,
    snapshot_bytes: Counter,
    /// WAL segments seen opened so far (rotation edge detector).
    wal_segments: u64,
}

impl RunnerProbes {
    fn new(obs: &Observe) -> Self {
        RunnerProbes {
            obs: obs.clone(),
            flight: obs.flight("checkpoint/runner"),
            stall_ns: obs.histogram("checkpoint/stall_ns"),
            capture_ns: obs.histogram("checkpoint/capture_ns"),
            write_ns: obs.histogram("checkpoint/snapshot_write_ns"),
            snapshot_bytes: obs.counter("checkpoint/snapshot_bytes"),
            wal_segments: 0,
        }
    }
}

/// What a writer job hands back through its `JoinHandle`: the capture it
/// encoded, the encode buffer, and the outcome — the writer's wall-clock
/// time on success.
type WriterJob = JoinHandle<(CheckpointState, Vec<u8>, Result<Duration, IoError>)>;

/// A snapshot the writer finished.
struct Written {
    /// The slide the snapshot was captured at.
    slide: u64,
    /// The encoded file's length.
    bytes: u64,
    /// Encode through WAL GC, on the writer thread.
    write_time: Duration,
}

/// The background half of every snapshot: at most one writer job in
/// flight, plus the encode buffer the jobs pass back and forth. Dropping it
/// joins the job, so every exit from a run — return, `?`, unwind — waits
/// for the writer before the directory is handed back.
struct SnapshotWriter {
    dir: CheckpointDir,
    keep: usize,
    job: Option<WriterJob>,
    buf: Vec<u8>,
}

impl SnapshotWriter {
    fn new(dir: CheckpointDir, keep: usize) -> Self {
        SnapshotWriter {
            dir,
            keep,
            job: None,
            buf: Vec::new(),
        }
    }

    /// Waits for the job in flight, if any. The capture is dropped here, on
    /// the calling (ingest) thread, so two captures never coexist. The drop
    /// is cheap: the detector state is one flat cell table, a fixed handful
    /// of buffers whatever the cell count (plus the engine residency and
    /// one buffer per retained flush), so freeing it takes microseconds.
    /// The encode buffer is kept for the next job.
    fn join(&mut self) -> Result<Option<Written>, IoError> {
        let Some(job) = self.job.take() else {
            return Ok(None);
        };
        let (state, buf, outcome) = job
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let written = Written {
            slide: state.meta.slides_done,
            bytes: buf.len() as u64,
            write_time: outcome?,
        };
        drop(state);
        self.buf = buf;
        Ok(Some(written))
    }

    /// Hands `state` to a new writer job. The caller has joined the
    /// previous one.
    fn spawn(&mut self, state: CheckpointState) -> Result<(), IoError> {
        debug_assert!(self.job.is_none(), "one writer job at a time");
        let dir = self.dir.clone();
        let keep = self.keep;
        let buf = std::mem::take(&mut self.buf);
        let job = std::thread::Builder::new()
            .name("surge-snapshot".into())
            .spawn(move || {
                let t0 = Instant::now();
                let bytes = state.encode_into(buf);
                let outcome = write_and_collect(&dir, keep, &state, &bytes);
                (state, bytes, outcome.map(|()| t0.elapsed()))
            })?;
        self.job = Some(job);
        Ok(())
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        if let Some(job) = self.job.take() {
            // The run is already ending with an error or a panic; the
            // writer's own outcome cannot be reported past it.
            let _ = job.join();
        }
    }
}

/// The writer job after the encode: write the file durably, then retire
/// old snapshots and collect the WAL segments the oldest retained one
/// covers — only once the new file and its rename are on stable storage.
fn write_and_collect(
    dir: &CheckpointDir,
    keep: usize,
    state: &CheckpointState,
    bytes: &[u8],
) -> Result<(), IoError> {
    dir.write_snapshot(&state.meta, bytes)?;
    let retained_floor = dir.retire_snapshots(keep)?;
    wal::gc(&dir.wal_dir(), retained_floor.unwrap_or(0))?;
    Ok(())
}

impl Runner<'_> {
    /// The durability work after one flush, in order: sync the WAL per the
    /// [`SyncPolicy`] (group commit — see the `wal` module docs), deliver
    /// the answers, maybe snapshot.
    /// The sync follows the detector's in-memory flush but precedes
    /// everything visible outside the process.
    fn after_flush(&mut self, answers: Vec<RegionAnswer>) -> Result<(), CheckpointError> {
        match self.cfg.policy.sync {
            SyncPolicy::FsyncPerSlide => self.wal.sync_durable()?,
            SyncPolicy::OsFlush | SyncPolicy::FsyncPerSnapshot => self.wal.sync()?,
        }
        self.answers.offer(answers, &mut *self.sink);
        let every = self.cfg.policy.snapshot_every_slides;
        if every > 0 && self.rt.counters().slides.is_multiple_of(every) {
            self.snapshot()?;
        }
        Ok(())
    }

    /// The runner thread's share of one snapshot: sync the WAL per policy,
    /// join the previous writer job, capture, hand off to a new job (see
    /// the module docs). Its wall-clock cost — the stream stall — lands in
    /// the pause histogram.
    fn snapshot(&mut self) -> Result<(), CheckpointError> {
        let t0 = Instant::now();
        // Under FsyncPerSnapshot, the WAL records this snapshot does not
        // cover must be on stable storage before the snapshot becomes the
        // recovery anchor (and before gc drops their predecessors).
        if self.cfg.policy.sync == SyncPolicy::FsyncPerSnapshot {
            self.wal.sync_durable()?;
        }
        // Join before capturing, so two captures never coexist.
        self.join_writer()?;
        self.snapshot_seq += 1;
        let capture_t0 = Instant::now();
        let counters = self.rt.counters();
        let state = CheckpointState {
            meta: CheckpointMeta {
                objects_ingested: counters.objects,
                slides_done: counters.slides,
                slide_objects: self.cfg.slide_objects as u64,
                snapshot_seq: self.snapshot_seq,
            },
            spec: self.cfg.spec,
            query: self.cfg.query,
            engine: self.rt.engine().checkpoint(),
            detector: self.rt.core().capture(),
            answers_released: self.answers.released(),
            answers: self.answers.retained().to_vec(),
        };
        self.probes.capture_ns.record(capture_t0.elapsed());
        self.writer.spawn(state)?;
        let stall = t0.elapsed();
        self.pause.record(stall);
        self.probes.stall_ns.record(stall);
        Ok(())
    }

    /// Joins the writer job in flight, if any: surfaces its error, or
    /// counts its snapshot and attributes it in the probes.
    fn join_writer(&mut self) -> Result<(), CheckpointError> {
        let Some(written) = self.writer.join()? else {
            return Ok(());
        };
        self.snapshots_written += 1;
        self.probes.write_ns.record(written.write_time);
        self.probes.snapshot_bytes.add(written.bytes);
        // Stall *identity* is logical — (slide, bytes, sync policy) — and
        // recorded at a logical point (the next snapshot or the end of the
        // run), so the trace dump is deterministic; wall-clock durations
        // live in the histograms.
        self.probes.flight.record(TraceEvent::SnapshotStall {
            slide: written.slide,
            bytes: written.bytes,
            sync_policy: self.cfg.policy.sync.name(),
        });
        Ok(())
    }

    fn ingest(&mut self, obj: SpatialObject, durable: bool) -> Result<(), CheckpointError> {
        // Validate *before* the WAL append: bad input must be rejected, not
        // made durable — a poisoned log would make every future recovery
        // fail. A run past its end of stream takes no arrival, and an
        // out-of-order one is refused (the engine clock is the push floor:
        // `push` asserts `created >= max(last_created, now)` and `now`
        // always dominates).
        if !matches!(self.rt.phase(), Phase::Open { .. }) {
            return Err(CheckpointError::Config(format!(
                "object {} arrived after the run's end of stream",
                obj.id
            )));
        }
        let now = self.rt.engine().now();
        if obj.created < now {
            return Err(CheckpointError::Config(format!(
                "stream must be timestamp-ordered: object {} at {} predates the engine clock {now}",
                obj.id, obj.created
            )));
        }
        if durable {
            self.wal.append(&obj)?;
            self.wal_appends += 1;
            let segments = self.wal.segments_opened();
            if segments != self.probes.wal_segments {
                self.probes.wal_segments = segments;
                self.probes
                    .flight
                    .record(TraceEvent::WalRotation { segment: segments });
            }
        }
        if let Some(answers) = self.rt.push(obj) {
            self.after_flush(answers)?;
        }
        Ok(())
    }

    fn run(
        mut self,
        source: impl Iterator<Item = SpatialObject>,
        tail: Tail,
        resumed_at: Option<u64>,
        replayed_from_wal: u64,
        wal_truncated_bytes: u64,
    ) -> Result<CheckpointReport, CheckpointError> {
        for obj in source {
            self.ingest(obj, true)?;
        }
        match tail {
            Tail::Crash => self.wal.sync()?,
            Tail::Finish => {
                while let Some(answers) = self.rt.finish_step() {
                    self.after_flush(answers)?;
                }
            }
        }
        // Both tails wait for the last snapshot: the run's outcome includes
        // the writer's.
        self.join_writer()?;
        let counters = *self.rt.counters();
        let detector = self.rt.core();
        if self.probes.obs.is_enabled() {
            let obs = &self.probes.obs;
            obs.counter("checkpoint/objects").add(counters.objects);
            obs.counter("checkpoint/slides").add(counters.slides);
            obs.counter("checkpoint/events").add(counters.events);
            obs.counter("checkpoint/snapshots_written")
                .add(self.snapshots_written);
            obs.counter("checkpoint/wal_appends").add(self.wal_appends);
        }
        Ok(CheckpointReport {
            objects: counters.objects,
            slides: counters.slides,
            events: counters.events,
            stats: detector.stats(),
            answers: self.answers,
            snapshots_written: self.snapshots_written,
            wal_appends: self.wal_appends,
            pause: self.pause.summary(),
            resumed_at,
            replayed_from_wal,
            wal_truncated_bytes,
        })
    }
}

/// Validates that `slide_objects` is usable.
fn check_cfg(cfg: &CheckpointConfig) -> Result<(), CheckpointError> {
    if cfg.slide_objects == 0 {
        return Err(CheckpointError::Config(
            "slide_objects must be positive".into(),
        ));
    }
    Ok(())
}

/// Drives `source` through a fresh checkpointed run in `dir`.
///
/// `dir` must be empty of checkpoint state (use [`recover`] to resume an
/// existing one). Every arrival is WAL-appended before processing; the
/// detector flushes once per `cfg.slide_objects` arrivals, snapshots land
/// every [`CheckpointPolicy::snapshot_every_slides`] slides, and
/// [`Tail::Finish`] ends with the standard drain + terminal flush.
pub fn run_checkpointed(
    cfg: &CheckpointConfig,
    dir: impl Into<PathBuf>,
    source: impl Iterator<Item = SpatialObject>,
    tail: Tail,
) -> Result<CheckpointReport, CheckpointError> {
    run_checkpointed_inner(
        cfg,
        dir,
        source,
        tail,
        Box::new(FsStore),
        &mut RetainAll,
        &Observe::off(),
    )
}

/// [`run_checkpointed`] with registry probes: counters under
/// `checkpoint/*`, the `checkpoint/stall_ns` histogram (each snapshot's
/// time on the ingest thread), the `checkpoint/snapshot_write_ns`
/// histogram (each snapshot's encode-to-GC time on the writer), and
/// a `checkpoint/runner` flight ring attributing every snapshot stall to
/// `(slide, bytes, sync_policy)` and every WAL rotation to its segment —
/// all no-ops under [`Observe::off`], with bitwise-identical answers either
/// way (proptested in `tests/observe_checkpoint.rs`).
pub fn run_checkpointed_observed(
    cfg: &CheckpointConfig,
    dir: impl Into<PathBuf>,
    source: impl Iterator<Item = SpatialObject>,
    tail: Tail,
    obs: &Observe,
) -> Result<CheckpointReport, CheckpointError> {
    run_checkpointed_inner(
        cfg,
        dir,
        source,
        tail,
        Box::new(FsStore),
        &mut RetainAll,
        obs,
    )
}

/// [`run_checkpointed`] with an explicit WAL segment-file store — the
/// fault-injection hook: hand it a [`surge_io::FailingStore`] and every
/// I/O-failure point must surface as [`CheckpointError::Io`], leaving a
/// WAL that still recovers to a clean prefix.
pub fn run_checkpointed_with_store(
    cfg: &CheckpointConfig,
    dir: impl Into<PathBuf>,
    source: impl Iterator<Item = SpatialObject>,
    tail: Tail,
    store: Box<dyn BlobStore>,
) -> Result<CheckpointReport, CheckpointError> {
    run_checkpointed_inner(
        cfg,
        dir,
        source,
        tail,
        store,
        &mut RetainAll,
        &Observe::off(),
    )
}

/// [`run_checkpointed`] with a consumer [`AnswerSink`]: every flush is
/// delivered synchronously and an [`surge_stream::Ack::Release`] lets the
/// runner drop the retained answer, bounding both the in-memory report and
/// every snapshot by consumer lag instead of stream length.
pub fn run_checkpointed_with_sink(
    cfg: &CheckpointConfig,
    dir: impl Into<PathBuf>,
    source: impl Iterator<Item = SpatialObject>,
    tail: Tail,
    sink: &mut dyn AnswerSink<Vec<RegionAnswer>>,
) -> Result<CheckpointReport, CheckpointError> {
    run_checkpointed_inner(
        cfg,
        dir,
        source,
        tail,
        Box::new(FsStore),
        sink,
        &Observe::off(),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_checkpointed_inner(
    cfg: &CheckpointConfig,
    dir: impl Into<PathBuf>,
    source: impl Iterator<Item = SpatialObject>,
    tail: Tail,
    store: Box<dyn BlobStore>,
    sink: &mut dyn AnswerSink<Vec<RegionAnswer>>,
    obs: &Observe,
) -> Result<CheckpointReport, CheckpointError> {
    check_cfg(cfg)?;
    let detector = SpecDetector::build(&cfg.spec, cfg.query)?;
    let dir = CheckpointDir::create(dir)?;
    let has_wal = std::fs::read_dir(dir.wal_dir())
        .map(|mut d| d.next().is_some())
        .unwrap_or(false);
    if dir.latest_snapshot()?.is_some() || has_wal {
        return Err(CheckpointError::Config(
            "directory already holds checkpoint state; use recover() to resume".into(),
        ));
    }
    let wal = WalWriter::open_with_store(dir.wal_dir(), 0, cfg.policy.wal_segment_objects, store)?;
    let runner = Runner {
        cfg: *cfg,
        rt: QueryRuntime::new(detector, cfg.windows, cfg.slide_objects),
        wal,
        writer: SnapshotWriter::new(dir, cfg.policy.keep_snapshots),
        answers: AnswerLog::new(),
        sink,
        snapshot_seq: 0,
        snapshots_written: 0,
        wal_appends: 0,
        pause: LatencyHistogram::new(),
        probes: RunnerProbes::new(obs),
    };
    runner.run(source, tail, None, 0, 0)
}

/// Recovers a checkpointed run from `dir` and resumes it over `source`.
///
/// `source` is the **full** replayable stream (the same iterator a fresh
/// run would get): recovery skips the prefix already covered by durable
/// state — snapshot plus WAL tail — and processes the rest, so a torn WAL
/// tail costs replay work, never correctness. The sequence
/// `restored answers + replayed answers + live answers` is bit-identical
/// to the uninterrupted run's.
///
/// When no valid snapshot exists (crash before the first snapshot, or
/// every snapshot corrupt) the run restarts from logical zero, still
/// honoring the WAL tail. Corrupt snapshots are skipped newest-first;
/// `cfg` must match the on-disk spec when a snapshot is found.
pub fn recover(
    cfg: &CheckpointConfig,
    dir: impl Into<PathBuf>,
    source: impl Iterator<Item = SpatialObject>,
    tail: Tail,
) -> Result<CheckpointReport, CheckpointError> {
    recover_with_sink(cfg, dir, source, tail, &mut RetainAll)
}

/// [`recover`] with a consumer [`AnswerSink`]. Flushes replayed from the
/// WAL tail are re-delivered (at-least-once semantics across a crash);
/// answers the snapshot recorded as released stay released.
pub fn recover_with_sink(
    cfg: &CheckpointConfig,
    dir: impl Into<PathBuf>,
    source: impl Iterator<Item = SpatialObject>,
    tail: Tail,
    sink: &mut dyn AnswerSink<Vec<RegionAnswer>>,
) -> Result<CheckpointReport, CheckpointError> {
    check_cfg(cfg)?;
    let mut detector = SpecDetector::build(&cfg.spec, cfg.query)?;
    let dir = CheckpointDir::create(dir)?;
    let snapshot = dir.latest_snapshot()?;
    let wal_rec = Wal::recover(dir.wal_dir())?;

    let mut engine = SlidingWindowEngine::new(cfg.windows);
    let mut answers = AnswerLog::new();
    let mut objects = 0u64;
    let mut slides = 0u64;
    let mut snapshot_seq = 0u64;
    let mut resumed_at = None;

    if let Some((_, state)) = snapshot {
        if state.spec != cfg.spec {
            return Err(CheckpointError::Config(format!(
                "snapshot spec {:?} does not match configured spec {:?}",
                state.spec, cfg.spec
            )));
        }
        if state.query != cfg.query {
            return Err(CheckpointError::Config(
                "snapshot query does not match the configured query".into(),
            ));
        }
        if state.meta.slide_objects != cfg.slide_objects as u64 {
            return Err(CheckpointError::Config(format!(
                "snapshot slide size {} does not match configured {}",
                state.meta.slide_objects, cfg.slide_objects
            )));
        }
        if state.engine.windows != cfg.windows {
            return Err(CheckpointError::Config(format!(
                "snapshot window config {:?} does not match configured {:?}",
                state.engine.windows, cfg.windows
            )));
        }
        detector.restore(&state.detector)?;
        engine = SlidingWindowEngine::from_state(&state.engine)?;
        answers = AnswerLog::from_parts(state.answers_released, state.answers);
        objects = state.meta.objects_ingested;
        slides = state.meta.slides_done;
        snapshot_seq = state.meta.snapshot_seq;
        resumed_at = Some(state.meta.objects_ingested);
    }

    // The WAL tail: durable records the snapshot does not cover.
    if wal_rec.start_index > objects && !wal_rec.objects.is_empty() {
        return Err(CheckpointError::Config(format!(
            "WAL starts at index {} but the snapshot covers only {} objects",
            wal_rec.start_index, objects
        )));
    }
    let skip = (objects - wal_rec.start_index.min(objects)) as usize;
    let tail_objects: Vec<SpatialObject> = wal_rec.objects.into_iter().skip(skip).collect();
    let replayed = tail_objects.len() as u64;

    // Resume appends in a fresh segment after everything durable.
    let wal = WalWriter::open(
        dir.wal_dir(),
        objects + replayed,
        cfg.policy.wal_segment_objects,
    )?;

    // The slide phase — mid-slide, past the partial flush, or finished —
    // is derived from the snapshot's counters, so a run captured at its
    // partial or terminal flush does not repeat it.
    let rt = QueryRuntime::resume(detector, engine, cfg.slide_objects, objects, slides)?;
    let mut runner = Runner {
        cfg: *cfg,
        rt,
        wal,
        writer: SnapshotWriter::new(dir, cfg.policy.keep_snapshots),
        answers,
        sink,
        snapshot_seq,
        snapshots_written: 0,
        wal_appends: 0,
        pause: LatencyHistogram::new(),
        probes: RunnerProbes::new(&Observe::off()),
    };

    // Replay the WAL tail through the identical loop (not re-appended).
    for obj in tail_objects {
        runner.ingest(obj, false)?;
    }
    // Skip the source prefix the durable state already covers, then go live.
    let covered = runner.rt.counters().objects;
    runner.run(
        source.skip(covered as usize),
        tail,
        resumed_at,
        replayed,
        wal_rec.truncated_bytes,
    )
}
