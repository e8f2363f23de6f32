//! Differential property tests for the persistent cross-sweep cell state:
//! persistent state must be history-independent, so it must answer
//! **bitwise** — score, point, and raw window sums — like state rebuilt
//! from scratch out of the same logical contents.
//!
//! * Per cell, [`PersistentCellSweep`] driven by long random event streams
//!   is checked against a fresh sweep ([`sl_cspot_with`]) of its
//!   [`full_rects`](PersistentCellSweep::full_rects) at every checkpoint,
//!   including forced rebuild-threshold crossings and cell eviction +
//!   re-dirty through a pool.
//! * Per detector, a live `CellCspot` is checked against a twin restored
//!   from its own `capture_state()`: restore rebuilds every derived
//!   structure from scratch, so a twin restored right before a flush sweeps
//!   every dirty cell from scratch — across duplicate delivery, the lazy
//!   per-event path, the mesh and the `finish()` tail drain of full runs.

use proptest::prelude::*;
use surge_core::{
    BurstDetector, CheckpointableDetector, Event, IncrementalDetector, Point, Rect, RegionAnswer,
    RegionSize, SpatialObject, SurgeQuery, WindowConfig,
};
use surge_exact::{
    sl_cspot_with, BoundMode, CellCspot, PersistentCellSweep, SweepArena, SweepPool,
    MIN_CHURN_BUDGET,
};
use surge_stream::{
    drive_elastic, drive_incremental, Dataset, EventBatch, FlushOutcome, QueryCore, QueryRuntime,
    SlidingWindowEngine, StreamGenerator,
};
use surge_testkit::{arb_lattice_stream, arb_window_config, uniform_stream};

fn params(alpha_pct: u32) -> surge_core::BurstParams {
    surge_core::BurstParams {
        alpha: alpha_pct as f64 / 100.0,
        current_norm: 1.0,
        past_norm: 1.0,
    }
}

const DOMAIN: Rect = Rect {
    x0: -2.0,
    y0: -2.0,
    x1: 8.0,
    y1: 8.0,
};

/// One persistent-vs-fresh checkpoint: the persistent search and a fresh
/// sweep of the same resident set must agree bit for bit.
fn check_bitwise(p: &mut PersistentCellSweep, arena: &mut SweepArena, alpha_pct: u32) {
    let rects = p.full_rects();
    let want = sl_cspot_with(arena, &rects, &DOMAIN, &params(alpha_pct));
    let got = p.search();
    match (got, want) {
        (Some(a), Some(b)) => {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "score");
            assert_eq!(a.point.x.to_bits(), b.point.x.to_bits(), "point.x");
            assert_eq!(a.point.y.to_bits(), b.point.y.to_bits(), "point.y");
            assert_eq!(a.wc.to_bits(), b.wc.to_bits(), "wc");
            assert_eq!(a.wp.to_bits(), b.wp.to_bits(), "wp");
        }
        (None, None) => {}
        other => panic!("persistent vs fresh Some/None: {other:?}"),
    }
}

/// A twin restored from `live`'s own capture: every derived structure —
/// persistent sweep state, shard queues, heap keys — is rebuilt from
/// scratch out of the captured rectangles and accumulators.
fn restored(live: &CellCspot) -> CellCspot {
    let mut twin = CellCspot::with_shards(*live.query(), BoundMode::Combined, live.shard_count());
    twin.restore_state(&live.capture_state())
        .expect("a detector's own capture restores into a same-query twin");
    twin
}

/// The slide driver's core with a from-scratch flush: right before each
/// flush the detector is replaced by a twin restored from its own capture,
/// so every dirty cell is swept from rebuilt state.
struct RestoredEachFlush {
    det: CellCspot,
}

impl QueryCore for RestoredEachFlush {
    fn on_events(&mut self, events: &[Event]) {
        for ev in events {
            self.det.on_event(ev);
        }
    }

    fn flush(&mut self, _seq: u64) -> FlushOutcome {
        self.det = restored(&self.det);
        let swept = self.det.sweep_dirty(1);
        FlushOutcome {
            answers: self.det.current().into_iter().collect(),
            swept,
        }
    }
}

/// The from-scratch reference run at `drive_incremental`'s cadence: the
/// answer of every flush (terminal drain included), the swept-cell total
/// and the final detector.
fn drive_restored(
    query: SurgeQuery,
    shards: usize,
    objs: &[SpatialObject],
    slide: usize,
) -> (Vec<Option<RegionAnswer>>, u64, CellCspot) {
    let core = RestoredEachFlush {
        det: CellCspot::with_shards(query, BoundMode::Combined, shards),
    };
    let mut rt = QueryRuntime::new(core, query.windows, slide);
    let mut answers = Vec::new();
    rt.run(objs.iter().copied(), |_, flushed| {
        answers.push(flushed.first().copied())
    });
    let jobs = rt.counters().jobs;
    let RestoredEachFlush { det } = rt.into_core();
    (answers, jobs, det)
}

/// Event-stream operations against one cell: insert / grow / remove drawn
/// from a lattice so shared edges and exact coordinate collisions between
/// live and removed rectangles are common.
type RawOp = (u32, u32, u32, u32, u32, u32);

/// Applies the ops with periodic bitwise checks; returns the number of
/// *structural* ops executed (inserts + removes — the ones that churn the
/// persistent coordinate maps).
fn apply_ops(
    p: &mut PersistentCellSweep,
    arena: &mut SweepArena,
    ops: &[RawOp],
    alpha_pct: u32,
    check_every: usize,
) -> usize {
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    let mut structural = 0usize;
    for (step, &(kind, x, y, w, h, sel)) in ops.iter().enumerate() {
        match kind % 4 {
            // Insert dominates so cells actually grow.
            0 | 1 => {
                let x0 = x as f64 * 0.25 - 1.0;
                let y0 = y as f64 * 0.25 - 1.0;
                let rect = Rect::new(x0, y0, x0 + w as f64 * 0.25, y0 + h as f64 * 0.25);
                p.insert(next_id, rect, 1.0 + (w % 3) as f64);
                live.push(next_id);
                next_id += 1;
                structural += 1;
            }
            2 if !live.is_empty() => {
                let id = live[sel as usize % live.len()];
                assert!(p.grow(id));
            }
            3 if !live.is_empty() => {
                let id = live.swap_remove(sel as usize % live.len());
                assert!(p.remove(id).is_some());
                structural += 1;
            }
            _ => {}
        }
        if step % check_every == check_every - 1 {
            check_bitwise(p, arena, alpha_pct);
        }
    }
    check_bitwise(p, arena, alpha_pct);
    structural
}

fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        (0u32..4, 0u32..24, 0u32..24, 0u32..10, 0u32..10, 0u32..64),
        4..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Long random transition streams, checkpointed frequently: persistent
    /// state must match the rebuild reference bitwise at every checkpoint.
    #[test]
    fn persistent_matches_rebuild_bitwise(
        ops in arb_ops(160),
        alpha_pct in 0u32..100,
    ) {
        let mut p =
            PersistentCellSweep::new(Some(DOMAIN), params(alpha_pct));
        let mut arena = SweepArena::new();
        apply_ops(&mut p, &mut arena, &ops, alpha_pct, 7);
    }

    /// Forced rebuild-threshold crossings through churn. A sweep's budget
    /// before its first search is exactly `MIN_CHURN_BUDGET` (its leaf count
    /// is 0), so a preload of more than `MIN_CHURN_BUDGET / 6` in-domain
    /// inserts (6 churn ops each: 4 edge refs + 2 order splices) must trip
    /// a full rebuild at the first search; sparse checkpoints then let the
    /// random stream cross the threshold again mid-stream. Results must
    /// stay bitwise identical either way.
    #[test]
    fn threshold_crossings_stay_bitwise(
        ops in arb_ops(120),
        alpha_pct in 0u32..100,
        preload in 0u64..12,
        check_every in 1usize..24,
    ) {
        let mut p =
            PersistentCellSweep::new(Some(DOMAIN), params(alpha_pct));
        let mut arena = SweepArena::new();
        for i in 0..preload {
            // Ids above anything `apply_ops` assigns; all inside DOMAIN.
            let x0 = i as f64 * 0.5 - 1.0;
            let rect = Rect::new(x0, -1.0, x0 + 1.5, 1.0 + i as f64 * 0.25);
            p.insert(1 << 32 | i, rect, 1.0 + (i % 2) as f64);
        }
        check_bitwise(&mut p, &mut arena, alpha_pct);
        if preload as usize * 6 > MIN_CHURN_BUDGET {
            prop_assert!(p.stats().full_rebuilds >= 1, "preload never rebuilt");
        }
        apply_ops(&mut p, &mut arena, &ops, alpha_pct, check_every);
    }

    /// Cell eviction and re-dirty through a pool: drain the cell, retire
    /// its state, take it back for a "new" cell, and keep checking — pool
    /// reuse must be invisible bit for bit.
    #[test]
    fn eviction_and_pool_reuse_stay_bitwise(
        rounds in prop::collection::vec(arb_ops(60), 1..4),
        alpha_pct in 0u32..100,
    ) {
        let mut pool = SweepPool::new();
        let mut arena = SweepArena::new();
        for ops in rounds {
            let mut p = pool.take(Some(DOMAIN), params(alpha_pct));
            prop_assert!(p.is_empty(), "pool leaked state into a fresh cell");
            apply_ops(&mut p, &mut arena, &ops, alpha_pct, 6);
            pool.retire(p);
        }
        prop_assert!(pool.retired_stats().searches > 0);
    }

    /// Detector level, end to end: a live `CellCspot` driven through
    /// `drive_incremental` (which ends with the `finish()` tail drain) and
    /// the from-scratch reference run (a twin restored from its own capture
    /// before every flush) must report bitwise identical answers at every
    /// slide *and* at the terminal flush, with identical swept-cell totals
    /// and detector counters.
    #[test]
    fn detector_persistent_vs_rebuild_bitwise_per_slide(
        objs in arb_lattice_stream(220),
        windows in arb_window_config(400),
        alpha_pct in 0u32..100,
        slide_pow in 2u32..6,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let slide = 1usize << slide_pow;
        let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha);

        let mut pers = CellCspot::with_shards(query, BoundMode::Combined, 4);
        let pers_report = drive_incremental(&mut pers, windows, objs.iter().copied(), slide);

        let (reb_answers, reb_jobs, reb) = drive_restored(query, 4, &objs, slide);

        prop_assert_eq!(pers_report.answers.len(), reb_answers.len());
        for (i, (a, b)) in pers_report.answers.iter().zip(reb_answers.iter()).enumerate() {
            match (a, b) {
                (Some(x), Some(y)) => {
                    prop_assert_eq!(
                        x.score.to_bits(), y.score.to_bits(),
                        "slide {} (alpha {}): {} vs {}", i, alpha, x.score, y.score
                    );
                    prop_assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                    prop_assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                    prop_assert_eq!(x.region, y.region);
                }
                (None, None) => {}
                other => panic!("slide {i}: {other:?}"),
            }
        }
        prop_assert_eq!(pers_report.jobs, reb_jobs);
        prop_assert_eq!(pers.stats(), reb.stats());
        prop_assert_eq!(pers.cell_count(), reb.cell_count());
    }

    /// The mesh driver on a persistent detector still bit-matches the
    /// from-scratch reference run at the incremental driver's cadence —
    /// persistence composes with shard workers and the terminal drain.
    #[test]
    fn mesh_persistent_matches_rebuild_incremental(
        objs in arb_lattice_stream(160),
        alpha_pct in 0u32..100,
        shard_pow in 0u32..4,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let windows = WindowConfig::equal(300);
        let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha);

        let (seq_answers, seq_jobs, _) = drive_restored(query, 1, &objs, 32);

        let shards = 1usize << shard_pow;
        let mut pers = CellCspot::with_shards(query, BoundMode::Combined, shards);
        let par = drive_elastic(&mut pers, windows, objs.iter().copied(), 32);

        prop_assert_eq!(par.answers.len(), seq_answers.len());
        for (i, (a, b)) in par.answers.iter().zip(seq_answers.iter()).enumerate() {
            match (a, b) {
                (Some(x), Some(y)) => {
                    prop_assert_eq!(x.score.to_bits(), y.score.to_bits(), "slide {}", i);
                    prop_assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                    prop_assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                }
                (None, None) => {}
                other => panic!("slide {i}: {other:?}"),
            }
        }
        prop_assert_eq!(par.sweeps, seq_jobs);
    }
}

/// The lattice streams above are small and collision-heavy; the generator
/// streams are what the experiments and the benchmark run. On the evenly
/// loaded uniform stream and the skewed Taxi stream, at a 32-object slide,
/// the persistent detector's answer at every slide and its swept-cell total
/// equal the from-scratch reference run's bit for bit.
#[test]
fn generator_streams_match_rebuild_per_slide() {
    let uniform_windows = WindowConfig::equal(1_000);
    let taxi = Dataset::Taxi;
    let taxi_windows = WindowConfig::equal_minutes(2);
    let workloads = [
        (
            "uniform",
            SurgeQuery::whole_space(RegionSize::new(0.3, 0.3), uniform_windows, 0.5),
            uniform_stream(2_000, 42),
        ),
        (
            "taxi",
            SurgeQuery::new(taxi.spec().extent, taxi.default_region(), taxi_windows, 0.5),
            StreamGenerator::new(taxi.workload(2_000, 42)).generate(),
        ),
    ];
    for (name, query, objs) in workloads {
        let mut pers = CellCspot::with_shards(query, BoundMode::Combined, 1);
        let report = drive_incremental(&mut pers, query.windows, objs.iter().copied(), 32);
        let (reb_answers, reb_jobs, reb) = drive_restored(query, 1, &objs, 32);

        assert_eq!(report.answers.len(), reb_answers.len(), "{name}");
        assert!(report.answers.iter().any(Option::is_some), "{name}");
        for (i, (a, b)) in report.answers.iter().zip(&reb_answers).enumerate() {
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "{name} slide {i}");
                    assert_eq!(x.point.x.to_bits(), y.point.x.to_bits(), "{name} slide {i}");
                    assert_eq!(x.point.y.to_bits(), y.point.y.to_bits(), "{name} slide {i}");
                }
                (None, None) => {}
                other => panic!("{name} slide {i}: {other:?}"),
            }
        }
        assert_eq!(report.jobs, reb_jobs, "{name}: swept-cell totals");
        assert_eq!(pers.stats(), reb.stats(), "{name}");
    }
}

/// The lazy per-object path (`current()` after every event) also matches
/// the from-scratch reference bitwise: before every `current()` a twin is
/// restored from the live detector's capture and must search the same
/// cells to the same answer — searches happen at different cadences than
/// the slide drivers, exercising candidate caching between sweeps.
#[test]
fn lazy_per_event_path_matches_rebuild() {
    let objs = surge_testkit::clustered_stream(600, 4, 9, 0xBEEF_CAFE);
    for alpha in [0.0, 0.5, 0.9] {
        let windows = WindowConfig::equal(250);
        let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha);
        let mut pers = CellCspot::with_shards(query, BoundMode::Combined, 8);
        let mut engine = SlidingWindowEngine::new(windows);
        let check = |pers: &mut CellCspot, ctx: &str| {
            let mut twin = restored(pers);
            match (pers.current(), twin.current()) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "{ctx}");
                    assert_eq!(x.point.x.to_bits(), y.point.x.to_bits(), "{ctx}");
                    assert_eq!(x.point.y.to_bits(), y.point.y.to_bits(), "{ctx}");
                }
                (None, None) => {}
                other => panic!("{ctx}: {other:?}"),
            }
            assert_eq!(pers.stats(), twin.stats(), "{ctx}");
            assert_eq!(pers.cell_count(), twin.cell_count(), "{ctx}");
        };
        for obj in objs.iter().copied() {
            for ev in engine.push(obj) {
                pers.on_event(&ev);
            }
            check(&mut pers, &format!("alpha {alpha} object {}", obj.id));
        }
        // Tail drain: the detector ends with empty windows and no cells.
        for ev in engine.finish() {
            pers.on_event(&ev);
        }
        check(&mut pers, &format!("alpha {alpha} post-drain"));
        assert_eq!(pers.cell_count(), 0, "drained run must evict every cell");
    }
}

/// Base-detector sanity: persistent sweeps under the eager per-event search
/// cadence agree with CCS (both are exact detectors on the same stream).
#[test]
fn base_and_ccs_agree_with_persistent_sweeps() {
    let objs = surge_testkit::clustered_stream(300, 3, 11, 0x1234_5678);
    let windows = WindowConfig::equal(300);
    let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, 0.6);
    let mut base = surge_exact::BaseDetector::new(query);
    let mut ccs = CellCspot::new(query);
    let mut engine_a = SlidingWindowEngine::new(windows);
    let mut engine_b = SlidingWindowEngine::new(windows);
    for obj in objs {
        for ev in engine_a.push(obj) {
            base.on_event(&ev);
        }
        for ev in engine_b.push(obj) {
            ccs.on_event(&ev);
        }
        let a = base.current().map(|r| r.score);
        let b = ccs.current().map(|r| r.score);
        match (a, b) {
            (Some(x), Some(y)) => assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{x} vs {y}"),
            (None, None) => {}
            other => panic!("{other:?}"),
        }
    }
}

/// At-least-once delivery: after each sweep, the batch of window events just
/// processed is replayed in full (a crash/retry of an acked-but-unconfirmed
/// batch) and the detector sweeps again. Duplicate `New` replaces an entry
/// by an identical one and duplicate `Grown` re-marks an already-past entry,
/// so before every sweep the persistent detector must answer bitwise like a
/// twin restored from its own capture, whose sweep state is rebuilt from
/// scratch.
#[test]
fn redelivered_batch_matches_rebuild() {
    let windows = WindowConfig::equal(300);
    let q = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, 0.4);
    let mut pers = CellCspot::with_shards(q, BoundMode::Combined, 4);

    let mut seed = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };

    let mut engine = SlidingWindowEngine::new(windows);
    let mut batch = EventBatch::new();
    let mut window = Vec::new();
    let mut sweeps = 0u32;
    for i in 0..1500u64 {
        let r = next();
        let obj = SpatialObject::new(
            i,
            1.0 + (r % 4) as f64,
            Point::new(((r >> 8) % 16) as f64 * 0.5, ((r >> 16) % 12) as f64 * 0.5),
            (i / 3) * 20,
        );
        engine.push_into(obj, &mut batch);
        for ev in batch.as_slice() {
            window.push(*ev);
            pers.on_event(ev);
        }
        batch.clear();
        if (i + 1) % 32 == 0 {
            for replay in [false, true] {
                if replay {
                    // Redeliver the batch that was just processed and swept.
                    for ev in &window {
                        pers.on_event(ev);
                    }
                }
                let mut reb = restored(&pers);
                assert_eq!(pers.sweep_dirty(1), reb.sweep_dirty(1), "sweep {sweeps}");
                sweeps += 1;
                match (pers.current(), reb.current()) {
                    (Some(x), Some(y)) => {
                        assert_eq!(
                            x.score.to_bits(),
                            y.score.to_bits(),
                            "sweep {sweeps}: {} vs {}",
                            x.score,
                            y.score
                        );
                        assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                        assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                    }
                    (None, None) => {}
                    other => panic!("sweep {sweeps}: {other:?}"),
                }
            }
            window.clear();
        }
    }
}
