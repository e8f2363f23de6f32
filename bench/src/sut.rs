//! The pinned surface: every call the benchmark makes into the system under
//! test goes through this file, and only through the `surge` facade.
//!
//! Later changes may not edit the benchmark, so the items imported and
//! wrapped here are the entry points a pipeline collapse must keep (as thin
//! calls into whatever replaces them). `bench/README.md` lists them; anything
//! not named here is free to change or go.

use std::path::Path;

use surge::approx::{GapSurge, MgapSurge};
use surge::checkpoint::{
    recover as sut_recover, run_checkpointed_with_sink as sut_run_checkpointed_with_sink,
    CheckpointConfig, CheckpointPolicy, DetectorSpec, SyncPolicy,
};
use surge::core::{BurstDetector, IncrementalDetector, Point, Rect, TopKDetector, WindowKind};
use surge::exact::{sl_cspot, BoundMode, SweepMode, SweepRect};
use surge::serve::ServeConfig;
use surge::stream::{
    drive_elastic_with_sink as sut_drive_elastic_with_sink,
    drive_incremental_with_sink as sut_drive_incremental_with_sink, Ack, BalancerPolicy,
};
use surge::topk::KCellCspot;

pub use surge::checkpoint::{CheckpointReport, Tail};
pub use surge::core::{
    DetectorStats, Event, EventKind, RegionAnswer, RegionSize, SpatialObject, SurgeQuery,
    SweepCacheStats, WindowConfig,
};
pub use surge::exact::CellCspot;
pub use surge::serve::{SubId, SurgeServer};
pub use surge::stream::{ElasticReport, EventBatch, SlidingWindowEngine};

use crate::workloads::{RawObject, Workload, ALPHA, SLIDE_OBJECTS};

// ---- inputs ---------------------------------------------------------------

/// Hands one generated object to the program's type.
pub fn object(raw: RawObject) -> SpatialObject {
    SpatialObject::new(raw.id, raw.weight, Point::new(raw.x, raw.y), raw.t_ms)
}

pub fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> surge::core::Rect {
    Rect::new(x0, y0, x1, y1)
}

/// The workload's query: whole space, its region size and windows, `α`.
pub fn query(w: &Workload) -> SurgeQuery {
    query_scaled(w, 1.0)
}

/// The workload's query with the region scaled by `factor` per dimension.
pub fn query_scaled(w: &Workload, factor: f64) -> SurgeQuery {
    SurgeQuery::whole_space(
        RegionSize::new(w.region.0 * factor, w.region.1 * factor),
        WindowConfig::equal(w.window_ms),
        ALPHA,
    )
}

// ---- window layer ----------------------------------------------------------

pub fn window_engine(q: &SurgeQuery) -> SlidingWindowEngine {
    SlidingWindowEngine::new(q.windows)
}

pub fn window_push_into(
    engine: &mut SlidingWindowEngine,
    obj: SpatialObject,
    out: &mut EventBatch,
) {
    engine.push_into(obj, out);
}

pub fn window_is_stable(engine: &SlidingWindowEngine) -> bool {
    engine.is_stable()
}

/// Objects resident in the current and past windows together.
pub fn window_resident(engine: &SlidingWindowEngine) -> usize {
    engine.current_len() + engine.past_len()
}

/// Copies of the engine's current and past window contents (for the oracle).
pub fn window_contents(engine: &SlidingWindowEngine) -> (Vec<SpatialObject>, Vec<SpatialObject>) {
    (
        engine.current_objects().copied().collect(),
        engine.past_objects().copied().collect(),
    )
}

// ---- cell + sweep + answer layers (CCS) -------------------------------------

/// CCS: `CellCspot::with_shards(q, BoundMode::Combined, shards)`.
pub fn ccs(q: SurgeQuery, shards: usize) -> CellCspot {
    CellCspot::with_shards(q, BoundMode::Combined, shards)
}

pub fn ccs_on_event(d: &mut CellCspot, ev: &Event) {
    BurstDetector::on_event(d, ev);
}

pub fn ccs_sweep_dirty(d: &mut CellCspot, threads: usize) -> u64 {
    IncrementalDetector::sweep_dirty(d, threads)
}

pub fn ccs_current(d: &mut CellCspot) -> Option<RegionAnswer> {
    BurstDetector::current(d)
}

pub fn ccs_stats(d: &CellCspot) -> DetectorStats {
    BurstDetector::stats(d)
}

pub fn ccs_sweep_cache_stats(d: &CellCspot) -> SweepCacheStats {
    IncrementalDetector::sweep_cache_stats(d)
}

/// One rectangle for the stand-alone sweep kernel.
pub fn sweep_rect(x0: f64, y0: f64, x1: f64, y1: f64, weight: f64, current: bool) -> SweepRect {
    SweepRect {
        rect: Rect::new(x0, y0, x1, y1),
        weight,
        kind: if current {
            WindowKind::Current
        } else {
            WindowKind::Past
        },
    }
}

pub type KernelRect = SweepRect;

/// Stand-alone SL-CSPOT over `rects` inside `area`; returns the best score.
pub fn sweep_kernel(rects: &[SweepRect], area: [f64; 4], q: &SurgeQuery) -> Option<f64> {
    let area = Rect::new(area[0], area[1], area[2], area[3]);
    sl_cspot(rects, &area, &q.burst_params()).map(|r| r.score)
}

// ---- drivers -----------------------------------------------------------------

/// `drive_incremental_with_sink`, slide of [`SLIDE_OBJECTS`], one thread.
/// `sink` sees every flushed answer in order.
pub fn drive_slide(
    d: &mut CellCspot,
    q: &SurgeQuery,
    source: impl Iterator<Item = SpatialObject>,
    mut sink: impl FnMut(u64, Option<RegionAnswer>),
) -> DetectorStats {
    let mut sink = |seq: u64, a: &Option<RegionAnswer>| {
        sink(seq, *a);
        Ack::Release
    };
    sut_drive_incremental_with_sink(d, q.windows, source, SLIDE_OBJECTS, 1, &mut sink).stats
}

/// `drive_elastic_with_sink` under the default `BalancerPolicy` capped at
/// four shards.
pub fn drive_mesh(
    d: &mut CellCspot,
    q: &SurgeQuery,
    source: impl Iterator<Item = SpatialObject>,
    mut sink: impl FnMut(u64, Option<RegionAnswer>),
) -> ElasticReport {
    let policy = BalancerPolicy {
        max_shards: 4,
        ..BalancerPolicy::default()
    };
    let mut sink = |seq: u64, a: &Option<RegionAnswer>| {
        sink(seq, *a);
        Ack::Release
    };
    sut_drive_elastic_with_sink(d, q.windows, source, SLIDE_OBJECTS, policy, &mut sink)
}

// ---- approx layer ------------------------------------------------------------

pub use surge::approx::{GapSurge as Gaps, MgapSurge as Mgaps};

pub fn mgaps(q: SurgeQuery) -> MgapSurge {
    MgapSurge::new(q)
}

pub fn mgaps_on_event(d: &mut MgapSurge, ev: &Event) {
    BurstDetector::on_event(d, ev);
}

pub fn mgaps_current(d: &mut MgapSurge) -> Option<RegionAnswer> {
    BurstDetector::current(d)
}

pub fn gaps(q: SurgeQuery) -> GapSurge {
    GapSurge::new(q)
}

pub fn gaps_on_event(d: &mut GapSurge, ev: &Event) {
    BurstDetector::on_event(d, ev);
}

pub fn gaps_current(d: &mut GapSurge) -> Option<RegionAnswer> {
    BurstDetector::current(d)
}

// ---- top-k layer -------------------------------------------------------------

pub use surge::topk::KCellCspot as TopK;

/// The `k` of the served top-k subscription.
pub const TOPK_K: usize = 5;

pub fn topk(q: SurgeQuery) -> KCellCspot {
    KCellCspot::new(q, TOPK_K)
}

pub fn topk_on_event(d: &mut KCellCspot, ev: &Event) {
    TopKDetector::on_event(d, ev);
}

pub fn topk_current(d: &mut KCellCspot) -> Vec<RegionAnswer> {
    TopKDetector::current_topk(d)
}

pub fn topk_stats(d: &KCellCspot) -> DetectorStats {
    TopKDetector::stats(d)
}

// ---- serve layer -------------------------------------------------------------

/// What a subscription of the `taxi-serve` panel asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// CCS over the workload's region.
    Exact,
    /// CCS over a region twice as wide and high.
    ExactWide,
    Mgaps,
    Gaps,
    TopK,
}

/// The six subscriptions, in subscription order. The first two are
/// bitwise-identical queries, so the server dedupes them onto one detector.
pub const SERVE_PANEL: [Flavor; 6] = [
    Flavor::Exact,
    Flavor::Exact,
    Flavor::ExactWide,
    Flavor::Mgaps,
    Flavor::Gaps,
    Flavor::TopK,
];

/// `SurgeServer::new(ServeConfig::sequential(SLIDE_OBJECTS))`.
pub fn server() -> SurgeServer {
    SurgeServer::new(ServeConfig::sequential(SLIDE_OBJECTS))
}

pub fn flavor_query(w: &Workload, flavor: Flavor) -> SurgeQuery {
    match flavor {
        Flavor::ExactWide => query_scaled(w, 2.0),
        _ => query(w),
    }
}

fn cell_spec() -> DetectorSpec {
    DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 1,
    }
}

pub fn subscribe(server: &mut SurgeServer, w: &Workload, flavor: Flavor) -> Result<SubId, String> {
    let spec = match flavor {
        Flavor::Exact | Flavor::ExactWide => cell_spec(),
        Flavor::Mgaps => DetectorSpec::Mgaps { shards: 1 },
        Flavor::Gaps => DetectorSpec::Gaps { shards: 1 },
        Flavor::TopK => DetectorSpec::TopK { k: TOPK_K },
    };
    server
        .subscribe(flavor_query(w, flavor), spec)
        .map_err(|e| e.to_string())
}

pub fn serve_ingest(server: &mut SurgeServer, obj: SpatialObject) {
    server.ingest(obj);
}

/// `drain(sub)`: every retained flush of the subscription, in order.
pub fn serve_drain(
    server: &mut SurgeServer,
    sub: SubId,
) -> Result<Vec<(u64, Vec<RegionAnswer>)>, String> {
    server.drain(sub).map_err(|e| e.to_string())
}

pub fn serve_ack(server: &mut SurgeServer, sub: SubId, upto: u64) -> Result<(), String> {
    server.ack(sub, upto).map_err(|e| e.to_string())
}

/// Answers the subscription still retains (unacked flushes).
pub fn serve_retained(server: &SurgeServer, sub: SubId) -> Result<usize, String> {
    server
        .answers(sub)
        .map(|log| log.len())
        .map_err(|e| e.to_string())
}

pub fn serve_dedup_hit_rate(server: &SurgeServer) -> f64 {
    server.stats().dedup_hit_rate()
}

// ---- checkpoint layer --------------------------------------------------------

/// The `taxi-durable` configuration: CCS, one shard, one thread, snapshot
/// every `snapshot_every_slides` slides, 4 096-object WAL segments, keep two
/// snapshots, OS-flush durability.
pub fn durable_config(q: &SurgeQuery, snapshot_every_slides: u64) -> CheckpointConfig {
    CheckpointConfig {
        query: *q,
        windows: q.windows,
        spec: cell_spec(),
        slide_objects: SLIDE_OBJECTS,
        threads: 1,
        policy: CheckpointPolicy {
            snapshot_every_slides,
            wal_segment_objects: 4096,
            keep_snapshots: 2,
            sync: SyncPolicy::OsFlush,
        },
    }
}

pub fn run_checkpointed(
    cfg: &CheckpointConfig,
    dir: &Path,
    source: impl Iterator<Item = SpatialObject>,
    tail: Tail,
    mut sink: impl FnMut(u64, Option<RegionAnswer>),
) -> Result<CheckpointReport, String> {
    let mut sink = |seq: u64, a: &Vec<RegionAnswer>| {
        sink(seq, a.first().copied());
        Ack::Release
    };
    sut_run_checkpointed_with_sink(cfg, dir, source, tail, &mut sink).map_err(|e| e.to_string())
}

/// `recover(cfg, dir, source, tail)` — `source` is the full replayable stream.
pub fn recover(
    cfg: &CheckpointConfig,
    dir: &Path,
    source: impl Iterator<Item = SpatialObject>,
    tail: Tail,
) -> Result<CheckpointReport, String> {
    sut_recover(cfg, dir, source, tail).map_err(|e| e.to_string())
}

/// `(flush sequence number, score bits of the first answer)` of every flush
/// the report still retains.
pub fn report_scores(report: &CheckpointReport) -> Vec<(u64, u64)> {
    report
        .answers
        .iter_seq()
        .map(|(seq, flush)| (seq, flush.first().map_or(0, |a| a.score.to_bits())))
        .collect()
}

// ---- io layer ----------------------------------------------------------------

pub fn write_objects_to(path: &Path, objects: &[SpatialObject]) -> Result<(), String> {
    surge::io::write_objects_to(path, objects).map_err(|e| e.to_string())
}

pub fn read_objects_from(path: &Path) -> Result<Vec<SpatialObject>, String> {
    surge::io::read_objects_from(path).map_err(|e| e.to_string())
}

// ---- oracle (checking only) --------------------------------------------------

pub fn oracle_best(
    current: &[SpatialObject],
    past: &[SpatialObject],
    q: &SurgeQuery,
) -> Option<RegionAnswer> {
    surge::exact::snapshot_bursty_region(current, past, q)
}

/// The burst score of `answer`'s region over the given window contents.
pub fn oracle_score_of(
    current: &[SpatialObject],
    past: &[SpatialObject],
    answer: &RegionAnswer,
    q: &SurgeQuery,
) -> f64 {
    surge::exact::score_of_region(current, past, &answer.region, &q.burst_params())
}
