//! The elastic driver: a shard mesh that steals work, watches its own skew
//! and reshards itself mid-run — all bit-identically.
//!
//! [`crate::sharded::drive_sharded`] fixed the shard count at process start
//! and let one hot shard own a whole flush's sweep load: a skewed workload
//! (every object homed to one anchor cell) serializes the mesh no matter
//! how many workers it has. This driver makes the mesh elastic in three
//! compounding steps, each gated on bitwise differentials
//! (`tests/elastic_differential.rs`) before any timing:
//!
//! 1. **Work-stealing sweeps.** At a flush the driver collects per-shard
//!    dirty-cell counts, computes a deterministic [`steal plan`](StealPlan)
//!    (donors export the ascending tail of their dirty list down to the
//!    fair share; thieves fill up to it, both in index order) and ships
//!    whole cells as pure rebuild jobs. Cells are independent, job sweeps
//!    are bit-identical to in-place persistent sweeps by construction, and
//!    answers still merge by `ShardAnswer::merge_key` — so results are
//!    bit-identical for any steal schedule, and sweep *attribution* follows
//!    the work (the thief counts stolen jobs, the donor counts kept cells
//!    and installs imported outcomes without counting).
//! 2. **Skew detection.** A [`ShardBalancer`] reads each flush's per-shard
//!    dirty-cell counts as the load signal; when the maximum exceeds the
//!    mean by [`BalancerPolicy::skew_percent`] for
//!    [`BalancerPolicy::patience`] consecutive flushes, it recommends
//!    doubling the shard count. The decision is a pure function of the
//!    flush-boundary counters, so a crash-replayed run re-triggers the same
//!    reshard at the same flush.
//! 3. **Live resharding.** The driver runs the mesh in *epochs*: on a
//!    balancer recommendation (always at a slide boundary) it closes the
//!    workers' channels, joins them, re-homes every cell under the new
//!    `shard_of_cell` mapping via the detector's checkpoint path
//!    ([`ElasticIngest::reshard`]) and resumes the stream where it left
//!    off. The window engine lives on the driver thread and simply carries
//!    over; shard count is purely structural, so the answer stream
//!    continues bit-identically — doubling the mesh without a restart.
//!
//! The flush handshake is a strict request/reply sequence — `FlushBegin` →
//! dirty counts → `Export` → jobs → `Sweep` → outcomes → `Install` →
//! answers — with at most one outstanding command per worker, so the
//! bounded channels cannot deadlock regardless of capacity. Window
//! expansion, the event broadcast and worker-panic handling are shared with
//! [`crate::sharded`] unchanged.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;

use crossbeam_channel::{bounded, Receiver, Sender};

use surge_core::{
    shard_of_cell, ElasticIngest, ElasticWorker, Event, RegionAnswer, RegionSize, ShardAnswer,
    ShardRunStats, ShardWorkerStats, SpatialObject, WindowConfig,
};
use surge_observe::{Flight, Observe, TraceEvent};

use crate::answers::{AnswerLog, AnswerSink, RetainAll};
use crate::sharded::{join_workers, keep_best, recv_command, EventFanout, WorkerGone, BATCH};
use crate::window::{EventBatch, SlidingWindowEngine};

/// When the [`ShardBalancer`] recommends splitting the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BalancerPolicy {
    /// A flush is *skewed* when the maximum per-shard load exceeds the mean
    /// by this percentage (100 = twice the mean).
    pub skew_percent: u32,
    /// Consecutive skewed flushes required before recommending a split
    /// (transient hotspots don't deserve a reshard).
    pub patience: u32,
    /// Never grow beyond this many shards (rounded up to a power of two by
    /// the store).
    pub max_shards: usize,
    /// Ignore flushes whose total load is below this noise floor.
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

/// Detects persistent load skew across the shard mesh and recommends
/// doubling the shard count.
///
/// Fed once per flush with the per-shard dirty-cell counts (the sweep load
/// about to run). The decision is a deterministic function of these
/// flush-boundary counters — every driver (mesh, checkpoint runner, served
/// group) reshards the same stream at the same flush, and crash recovery
/// replays the same counters and re-triggers the same reshard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBalancer {
    policy: BalancerPolicy,
    streak: u32,
    reshards: u32,
}

impl ShardBalancer {
    /// A balancer with the given policy and no history.
    pub fn new(policy: BalancerPolicy) -> Self {
        ShardBalancer {
            policy,
            streak: 0,
            reshards: 0,
        }
    }

    /// Restores a balancer mid-streak (checkpoint recovery).
    pub fn from_parts(policy: BalancerPolicy, streak: u32, reshards: u32) -> Self {
        ShardBalancer {
            policy,
            streak,
            reshards,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> BalancerPolicy {
        self.policy
    }

    /// Skewed flushes in a row so far.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Splits recommended over this balancer's lifetime.
    pub fn reshards(&self) -> u32 {
        self.reshards
    }

    /// Observes one flush: `dirty[s]` is shard `s`'s dirty-cell count
    /// before stealing. Returns the recommended new shard count, or `None`
    /// to keep running.
    pub fn observe(&mut self, shards: usize, dirty: &[u64]) -> Option<usize> {
        debug_assert_eq!(dirty.len(), shards);
        let total: u64 = dirty.iter().sum();
        if total < self.policy.min_load {
            self.streak = 0;
            return None;
        }
        let max = dirty.iter().copied().max().unwrap_or(0);
        // max > mean * (1 + skew/100), in integers:
        let skewed = (max as u128) * 100 * (shards as u128)
            > (total as u128) * (100 + self.policy.skew_percent as u128);
        if skewed {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        if self.streak >= self.policy.patience && shards * 2 <= self.policy.max_shards {
            self.streak = 0;
            self.reshards += 1;
            Some(shards * 2)
        } else {
            None
        }
    }
}

/// A deterministic work-stealing plan for one flush, computed from the
/// per-shard dirty counts alone.
///
/// `fair = ceil(total / shards)`: shards above it export their surplus
/// (the ascending *tail* of their dirty-cell list), shards below it steal
/// up to it, deficits filled in index order from donors in index order.
/// Total deficit always covers total surplus (`shards · fair ≥ total`),
/// so every exported cell is assigned — and the same counts always produce
/// the same plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StealPlan {
    /// Cells each shard exports (0 for thieves and balanced shards).
    pub(crate) exports: Vec<usize>,
    /// Per-thief `(donor, count)` runs, donors in index order.
    pub(crate) assign: Vec<Vec<(usize, usize)>>,
    /// Total cells changing hands.
    pub(crate) stolen: usize,
}

/// Computes the steal plan for one flush, or `None` when nothing moves
/// (one shard, empty flush, or already balanced).
pub(crate) fn steal_plan(dirty: &[u64]) -> Option<StealPlan> {
    let n = dirty.len();
    if n <= 1 {
        return None;
    }
    let total: u64 = dirty.iter().sum();
    if total == 0 {
        return None;
    }
    let fair = total.div_ceil(n as u64);
    let exports: Vec<usize> = dirty
        .iter()
        .map(|&c| c.saturating_sub(fair) as usize)
        .collect();
    let stolen: usize = exports.iter().sum();
    if stolen == 0 {
        return None;
    }
    let mut assign: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    let mut donor = 0usize;
    let mut avail = exports[0];
    for (thief, &count) in dirty.iter().enumerate() {
        let mut need = fair.saturating_sub(count) as usize;
        while need > 0 {
            while avail == 0 && donor + 1 < n {
                donor += 1;
                avail = exports[donor];
            }
            if avail == 0 {
                break; // all surplus assigned
            }
            let take = need.min(avail);
            assign[thief].push((donor, take));
            need -= take;
            avail -= take;
        }
    }
    debug_assert_eq!(
        assign.iter().flatten().map(|&(_, k)| k).sum::<usize>(),
        stolen,
        "every exported cell must be assigned"
    );
    Some(StealPlan {
        exports,
        assign,
        stolen,
    })
}

/// What the driver sends each elastic worker.
enum ElasticMsg<J, O> {
    /// A batch of expanded events (shared, not deep-copied) — identical to
    /// the sharded driver's broadcast.
    Events(Arc<[Event]>),
    /// Flush phase 1: reply with your dirty-cell count.
    FlushBegin,
    /// Flush phase 2 (donors only): export the tail `k` of your dirty list
    /// as jobs.
    Export(usize),
    /// Flush phase 3 (everyone): run these stolen jobs, then sweep your
    /// kept cells in place.
    Sweep(Vec<J>),
    /// Flush phase 4 (everyone): install outcomes of your exported cells,
    /// reply with your shard best.
    Install(Vec<O>),
}

/// Worker replies, on a dedicated per-worker channel (strictly one reply
/// per command — the mesh never has two commands in flight per worker).
enum ElasticReply<J, O> {
    Dirty(u64),
    Jobs(Vec<J>),
    Outcomes(Vec<O>),
    Answer(Option<ShardAnswer>),
}

fn elastic_worker_loop<W: ElasticWorker>(
    mut worker: W,
    rx: Receiver<ElasticMsg<W::Job, W::Outcome>>,
    tx: Sender<ElasticReply<W::Job, W::Outcome>>,
) -> ShardWorkerStats {
    while let Ok(msg) = recv_command(&rx) {
        let reply = match msg {
            ElasticMsg::Events(events) => {
                for ev in events.iter() {
                    worker.on_event(ev);
                }
                continue;
            }
            ElasticMsg::FlushBegin => ElasticReply::Dirty(worker.dirty_count()),
            ElasticMsg::Export(k) => ElasticReply::Jobs(worker.export_jobs(k)),
            ElasticMsg::Sweep(stolen) => {
                let outcomes = worker.run_jobs(stolen);
                worker.sweep_kept();
                ElasticReply::Outcomes(outcomes)
            }
            ElasticMsg::Install(outcomes) => {
                ElasticReply::Answer(worker.install_and_best(outcomes))
            }
        };
        tx.send(reply).expect("driver alive");
    }
    worker.stats()
}

/// Counters of one mesh epoch (the stretch between two reshards, or the
/// whole run when none happen).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochStats {
    /// Shard count of this epoch.
    pub shards: usize,
    /// Flushes executed in this epoch.
    pub slides: u64,
    /// Cells that changed hands via stealing in this epoch.
    pub stolen: u64,
    /// Driver-accounted sweeps each shard *ran* (kept + stolen), indexed by
    /// shard — the sweep critical path of this epoch is the max entry.
    pub shard_sweeps: Vec<u64>,
    /// Per-shard lifetime counters for this epoch's workers.
    pub shard_stats: Vec<ShardWorkerStats>,
}

/// Outcome of an elastic run.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// Objects processed.
    pub objects: u64,
    /// Window-transition events expanded and broadcast across all epochs.
    pub events: u64,
    /// Flushes executed across all epochs (stream slides + terminal drain).
    pub slides: u64,
    /// Total dirty-cell sweeps across all shards, flushes and epochs.
    pub sweeps: u64,
    /// Total cells that changed hands via work stealing.
    pub stolen: u64,
    /// Live reshards performed (each doubles the shard count).
    pub reshards: u64,
    /// Shard count when the run finished.
    pub final_shards: usize,
    /// Per-epoch counters, in epoch order (always at least one).
    pub epochs: Vec<EpochStats>,
    /// The merged answer at every flush boundary, bit-identical to
    /// `drive_sharded` / `drive_incremental` at the same slide cadence.
    pub answers: AnswerLog<Option<RegionAnswer>>,
    /// The terminal flush's answer, tracked independently of retention.
    pub final_answer: Option<RegionAnswer>,
}

impl ElasticReport {
    /// The sweep critical path: the largest per-shard sweep count any
    /// single worker ran in any epoch. Stealing and splitting push this
    /// toward `sweeps / shards`; a static skewed mesh pins it at `sweeps`.
    pub fn max_shard_sweeps(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| e.shard_sweeps.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

/// How one epoch ended.
enum EpochEnd {
    /// Stream exhausted and terminal flush done.
    Done,
    /// Balancer recommended this new shard count at a slide boundary.
    Reshard(usize),
}

/// One elastic flush handshake across the whole mesh. The caller has
/// already broadcast any buffered events. Returns the merged answer and the
/// pre-steal dirty counts (for the balancer), and accounts stealing into
/// `shard_sweeps` / `stolen`.
fn elastic_flush<D: ElasticIngest>(
    txs: &[Sender<ElasticMsg<D::Job, D::Outcome>>],
    reply_rxs: &[Receiver<ElasticReply<D::Job, D::Outcome>>],
    region: RegionSize,
    shard_sweeps: &mut [u64],
    stolen_total: &mut u64,
    flight: &Flight,
    seq: u64,
) -> Result<(Option<RegionAnswer>, Vec<u64>), WorkerGone> {
    let n = txs.len();
    flight.record(TraceEvent::FlushStart { seq });
    // Phase 1: dirty counts.
    for tx in txs {
        tx.send(ElasticMsg::FlushBegin)?;
    }
    let mut dirty: Vec<u64> = Vec::with_capacity(n);
    for rx in reply_rxs {
        match rx.recv()? {
            ElasticReply::Dirty(c) => dirty.push(c),
            _ => unreachable!("protocol: FlushBegin answers with Dirty"),
        }
    }

    // Phase 2: plan + export.
    let plan = steal_plan(&dirty);
    let mut stolen_for: Vec<Vec<D::Job>> = (0..n).map(|_| Vec::new()).collect();
    if let Some(plan) = &plan {
        let mut jobs_by_donor: Vec<VecDeque<D::Job>> = (0..n).map(|_| VecDeque::new()).collect();
        for (d, &k) in plan.exports.iter().enumerate() {
            if k > 0 {
                txs[d].send(ElasticMsg::Export(k))?;
            }
        }
        for (d, &k) in plan.exports.iter().enumerate() {
            if k > 0 {
                match reply_rxs[d].recv()? {
                    ElasticReply::Jobs(jobs) => {
                        debug_assert_eq!(jobs.len(), k);
                        jobs_by_donor[d] = jobs.into();
                    }
                    _ => unreachable!("protocol: Export answers with Jobs"),
                }
            }
        }
        for (thief, runs) in plan.assign.iter().enumerate() {
            for &(donor, count) in runs {
                stolen_for[thief].extend(jobs_by_donor[donor].drain(..count));
            }
        }
        *stolen_total += plan.stolen as u64;
        flight.record(TraceEvent::StealPlan {
            seq,
            moved: plan.stolen as u64,
        });
    }

    // Phase 3: everyone sweeps — stolen jobs first, then kept cells.
    for (w, (tx, stolen)) in txs.iter().zip(stolen_for).enumerate() {
        let kept = dirty[w] - plan.as_ref().map_or(0, |p| p.exports[w] as u64);
        shard_sweeps[w] += kept + stolen.len() as u64;
        tx.send(ElasticMsg::Sweep(stolen))?;
    }

    // Phase 4: route outcomes home and install.
    let mut to_install: Vec<Vec<D::Outcome>> = (0..n).map(|_| Vec::new()).collect();
    for rx in reply_rxs {
        match rx.recv()? {
            ElasticReply::Outcomes(outcomes) => {
                for o in outcomes {
                    let home = shard_of_cell(D::outcome_cell(&o), n);
                    to_install[home].push(o);
                }
            }
            _ => unreachable!("protocol: Sweep answers with Outcomes"),
        }
    }
    for (tx, outs) in txs.iter().zip(to_install) {
        tx.send(ElasticMsg::Install(outs))?;
    }
    let mut best: Option<ShardAnswer> = None;
    for rx in reply_rxs {
        match rx.recv()? {
            ElasticReply::Answer(ans) => keep_best(&mut best, ans),
            _ => unreachable!("protocol: Install answers with Answer"),
        }
    }
    let merged = best.map(|b| b.answer(region));
    flight.record(TraceEvent::FlushEnd {
        seq,
        answers: merged.is_some() as u64,
    });
    Ok((merged, dirty))
}

/// Drives `source` into an [`ElasticIngest`] detector with one worker per
/// shard, stealing sweeps at every flush and doubling the shard count live
/// whenever the balancer detects persistent skew — with answers
/// bit-identical to [`crate::sharded::drive_sharded`] and the sequential
/// drivers at the same slide cadence, for any steal schedule and any
/// reshard history.
///
/// # Panics
///
/// Panics if `slide_objects` is 0, if the stream is not timestamp-ordered
/// (the engine's own check, on the calling thread before any broadcast),
/// or propagates a worker panic.
pub fn drive_elastic<D: ElasticIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    policy: BalancerPolicy,
) -> ElasticReport {
    drive_elastic_with_sink(
        detector,
        windows,
        source,
        slide_objects,
        policy,
        &mut RetainAll,
    )
}

/// [`drive_elastic`] with an explicit answer consumer (see
/// [`crate::sharded::drive_sharded_with_sink`]).
pub fn drive_elastic_with_sink<D: ElasticIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    policy: BalancerPolicy,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
) -> ElasticReport {
    drive_elastic_observed(
        detector,
        windows,
        source,
        slide_objects,
        policy,
        sink,
        &Observe::off(),
    )
}

/// [`drive_elastic_with_sink`] with registry probes: driver counters under
/// `elastic/*`, per-epoch shard-sweep counters
/// (`elastic/epoch=E/shard=S/sweeps`), and a driver flight ring that traces
/// every flush, steal plan and reshard epoch in logical time. Stolen-cell
/// counts and reshard decisions are already deterministic (see the module
/// docs), so the trace dump is identical run-to-run; a disabled `obs`
/// compiles the probes down to a branch on `None` and the answers are
/// bitwise identical either way (proptested).
///
/// # Panics
///
/// Same as [`drive_elastic`].
pub fn drive_elastic_observed<D: ElasticIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    policy: BalancerPolicy,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
    obs: &Observe,
) -> ElasticReport {
    assert!(slide_objects > 0, "slide must contain at least one object");
    let driver_flight = obs.flight("elastic/driver");
    let _panic_dump = obs.panic_dump_guard("drive_elastic");
    let fanout = EventFanout::new(obs, &driver_flight);
    let region = detector.region_size();
    let mut source = source.fuse();
    // The one window engine, on the driver thread for the whole run: a
    // reshard rebuilds the workers around it.
    let mut engine = SlidingWindowEngine::new(windows);
    let mut batch = EventBatch::with_capacity(BATCH);
    let mut balancer = ShardBalancer::new(policy);
    let mut objects = 0u64;
    let mut slides = 0u64;
    let mut sweeps = 0u64;
    let mut stolen = 0u64;
    let mut reshards = 0u64;
    let mut answers: AnswerLog<Option<RegionAnswer>> = AnswerLog::new();
    let mut final_answer: Option<RegionAnswer> = None;
    let mut epochs: Vec<EpochStats> = Vec::new();

    loop {
        let n = detector.mesh_shards();
        let (end, epoch) = thread::scope(|scope| {
            let workers = detector.elastic_workers();
            debug_assert_eq!(workers.len(), n);

            let mut txs: Vec<Sender<ElasticMsg<D::Job, D::Outcome>>> = Vec::with_capacity(n);
            let mut reply_rxs: Vec<Receiver<ElasticReply<D::Job, D::Outcome>>> =
                Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for worker in workers {
                let (tx, rx) = bounded::<ElasticMsg<D::Job, D::Outcome>>(16);
                let (rtx, rrx) = bounded::<ElasticReply<D::Job, D::Outcome>>(1);
                txs.push(tx);
                reply_rxs.push(rrx);
                handles.push(scope.spawn(move || elastic_worker_loop(worker, rx, rtx)));
            }

            let mut shard_sweeps = vec![0u64; n];
            let mut epoch_stolen = 0u64;
            let mut epoch_slides = 0u64;
            let mut end = EpochEnd::Done;
            // Broadcasts the buffered events, runs one flush handshake and
            // delivers its answer; returns that answer and the dirty counts.
            let mut flush = |batch: &mut EventBatch,
                             answers: &mut AnswerLog<Option<RegionAnswer>>,
                             slides: &mut u64|
             -> Result<(Option<RegionAnswer>, Vec<u64>), WorkerGone> {
                fanout.broadcast(&txs, batch, ElasticMsg::Events, *slides)?;
                let (ans, dirty) = elastic_flush::<D>(
                    &txs,
                    &reply_rxs,
                    region,
                    &mut shard_sweeps,
                    &mut epoch_stolen,
                    &driver_flight,
                    *slides,
                )?;
                answers.offer(ans, sink);
                *slides += 1;
                epoch_slides += 1;
                Ok((ans, dirty))
            };

            let driven = (|| {
                let mut in_slide = 0usize;
                for obj in source.by_ref() {
                    engine.push_into(obj, &mut batch);
                    if batch.len() >= BATCH {
                        fanout.broadcast(&txs, &mut batch, ElasticMsg::Events, slides)?;
                    }
                    objects += 1;
                    in_slide += 1;
                    if in_slide >= slide_objects {
                        let (_, dirty) = flush(&mut batch, &mut answers, &mut slides)?;
                        in_slide = 0;
                        if let Some(to) = balancer.observe(n, &dirty) {
                            end = EpochEnd::Reshard(to);
                            return Ok(());
                        }
                    }
                }
                // Stream exhausted: partial slide, then the terminal drain
                // flush, mirroring the sharded driver (no balancing on the
                // tail — there is nothing left to balance for).
                if in_slide > 0 {
                    flush(&mut batch, &mut answers, &mut slides)?;
                }
                engine.finish_into(&mut batch);
                final_answer = flush(&mut batch, &mut answers, &mut slides)?.0;
                Ok(())
            })();
            // The epoch always ends at a completed flush, so every worker
            // is idle; closing the channels ends their loops.
            drop(txs);
            let shard_stats = join_workers(handles, driven);
            let epoch = EpochStats {
                shards: n,
                slides: epoch_slides,
                stolen: epoch_stolen,
                shard_sweeps,
                shard_stats,
            };
            (end, epoch)
        });

        sweeps += epoch.shard_stats.iter().map(|s| s.sweeps).sum::<u64>();
        stolen += epoch.stolen;
        epochs.push(epoch);

        match end {
            EpochEnd::Done => break,
            EpochEnd::Reshard(to) => {
                driver_flight.record(TraceEvent::ReshardEpoch {
                    epoch: epochs.len() as u64,
                    from: n as u32,
                    to: to as u32,
                });
                detector.reshard(to);
                reshards += 1;
            }
        }
    }

    let run = ShardRunStats {
        events: fanout.events(),
        new_events: objects,
        searches: sweeps,
    };
    detector.absorb_shard_run(run);

    if obs.is_enabled() {
        // Registry totals match the report exactly; the per-epoch breakdown
        // exposes the stealing/resharding story the flat report sums away.
        obs.counter("elastic/objects").add(objects);
        obs.counter("elastic/events").add(run.events);
        obs.counter("elastic/slides").add(slides);
        obs.counter("elastic/sweeps").add(run.searches);
        obs.counter("elastic/stolen").add(stolen);
        obs.counter("elastic/reshards").add(reshards);
        obs.gauge("elastic/final_shards")
            .set(detector.mesh_shards() as i64);
        for (e, ep) in epochs.iter().enumerate() {
            obs.counter(&format!("elastic/epoch={e}/slides"))
                .add(ep.slides);
            obs.counter(&format!("elastic/epoch={e}/stolen"))
                .add(ep.stolen);
            for (s, sw) in ep.shard_sweeps.iter().enumerate() {
                obs.counter(&format!("elastic/epoch={e}/shard={s}/sweeps"))
                    .add(*sw);
            }
        }
    }

    ElasticReport {
        objects,
        events: run.events,
        slides,
        sweeps: run.searches,
        stolen,
        reshards,
        final_shards: detector.mesh_shards(),
        epochs,
        answers,
        final_answer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_plan_balances_to_fair_share() {
        let plan = steal_plan(&[10, 0]).expect("skewed counts plan");
        assert_eq!(plan.exports, vec![5, 0]);
        assert_eq!(plan.assign[1], vec![(0, 5)]);
        assert_eq!(plan.stolen, 5);

        let plan = steal_plan(&[9, 1, 2, 0]).expect("skewed counts plan");
        // fair = ceil(12/4) = 3
        assert_eq!(plan.exports, vec![6, 0, 0, 0]);
        assert_eq!(plan.assign[1], vec![(0, 2)]);
        assert_eq!(plan.assign[2], vec![(0, 1)]);
        assert_eq!(plan.assign[3], vec![(0, 3)]);
        assert_eq!(plan.stolen, 6);
    }

    #[test]
    fn steal_plan_none_when_balanced_or_degenerate() {
        assert!(steal_plan(&[3, 3, 3, 3]).is_none());
        assert!(steal_plan(&[0, 0]).is_none());
        assert!(steal_plan(&[7]).is_none());
        // Within one of fair: nothing exceeds ceil-mean.
        assert!(steal_plan(&[2, 1, 2, 1]).is_none());
    }

    #[test]
    fn steal_plan_multi_donor_fills_in_index_order() {
        let plan = steal_plan(&[6, 6, 0, 0]).expect("two donors");
        // fair = 3: donors 0 and 1 export 3 each; thieves 2 and 3 take 3.
        assert_eq!(plan.exports, vec![3, 3, 0, 0]);
        assert_eq!(plan.assign[2], vec![(0, 3)]);
        assert_eq!(plan.assign[3], vec![(1, 3)]);
    }

    #[test]
    fn balancer_waits_for_patience_then_doubles() {
        let mut b = ShardBalancer::new(BalancerPolicy {
            skew_percent: 50,
            patience: 3,
            max_shards: 8,
            min_load: 1,
        });
        let skewed = [100u64, 0];
        assert_eq!(b.observe(2, &skewed), None);
        assert_eq!(b.observe(2, &skewed), None);
        assert_eq!(b.observe(2, &skewed), Some(4));
        assert_eq!(b.reshards(), 1);
        assert_eq!(b.streak(), 0);
    }

    #[test]
    fn balancer_streak_resets_on_balanced_flush() {
        let mut b = ShardBalancer::new(BalancerPolicy {
            skew_percent: 50,
            patience: 2,
            max_shards: 8,
            min_load: 1,
        });
        assert_eq!(b.observe(2, &[100, 0]), None);
        assert_eq!(b.observe(2, &[50, 50]), None); // resets
        assert_eq!(b.observe(2, &[100, 0]), None);
        assert_eq!(b.observe(2, &[100, 0]), Some(4));
    }

    #[test]
    fn balancer_respects_max_shards_and_noise_floor() {
        let mut b = ShardBalancer::new(BalancerPolicy {
            skew_percent: 50,
            patience: 1,
            max_shards: 4,
            min_load: 10,
        });
        // Below the noise floor: never triggers.
        assert_eq!(b.observe(2, &[5, 0]), None);
        // At max: never recommends growing past it.
        assert_eq!(b.observe(4, &[100, 0, 0, 0]), None);
        // Within bounds: triggers immediately (patience 1).
        assert_eq!(b.observe(2, &[100, 0]), Some(4));
    }
}
