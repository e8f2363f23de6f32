//! Differential property tests for the persistent cross-sweep cell state:
//! [`PersistentCellSweep`] driven by long random event streams must match
//! the rebuild-per-search reference ([`sl_cspot_rebuild`]) **bitwise** —
//! score, point, and raw window sums — at every checkpoint, including
//! forced `rebuild_threshold` crossings, cell eviction + re-dirty through a
//! pool, and the `finish()` tail drain of full detector runs.

use proptest::prelude::*;
use surge_core::{BurstDetector, Rect, RegionSize, SurgeQuery, WindowConfig};
use surge_exact::{
    sl_cspot_rebuild, BoundMode, CellCspot, PersistentCellSweep, SweepArena, SweepMode, SweepPool,
};
use surge_stream::{drive_elastic, drive_incremental, BalancerPolicy, SlidingWindowEngine};
use surge_testkit::{arb_lattice_stream, arb_window_config};

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

/// One persistent-vs-rebuild checkpoint: both sweeps over the same resident
/// set must agree bit for bit.
fn check_bitwise(p: &mut PersistentCellSweep, arena: &mut SweepArena, alpha_pct: u32) {
    let rects = p.full_rects();
    let want = sl_cspot_rebuild(arena, &rects, &DOMAIN, &params(alpha_pct));
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
        other => panic!("persistent vs rebuild Some/None: {other:?}"),
    }
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
            PersistentCellSweep::new(Some(DOMAIN), params(alpha_pct), SweepMode::Persistent);
        let mut arena = SweepArena::new();
        apply_ops(&mut p, &mut arena, &ops, alpha_pct, 7);
    }

    /// Forced `rebuild_threshold` crossings: a zero threshold trips the
    /// fallback on any churn, a tiny positive one flips between the
    /// incremental and rebuild regimes mid-stream. Results must stay
    /// bitwise identical either way.
    #[test]
    fn threshold_crossings_stay_bitwise(
        ops in arb_ops(120),
        alpha_pct in 0u32..100,
        thresh_pct in 0u32..20,
    ) {
        let mut p =
            PersistentCellSweep::new(Some(DOMAIN), params(alpha_pct), SweepMode::Persistent);
        p.set_rebuild_threshold(thresh_pct as f64 / 100.0);
        let mut arena = SweepArena::new();
        let structural = apply_ops(&mut p, &mut arena, &ops, alpha_pct, 5);
        // Every insert/remove in this generator is in-domain and churns 6
        // maintained entries (4 edge refs + 2 order splices). The budget is
        // floored at MIN_CHURN_BUDGET even for a zero threshold, so a
        // crossing — and hence a full rebuild at the closing search — is
        // only *guaranteed* once structural churn exceeds that floor.
        if thresh_pct == 0 && structural * 6 > surge_exact::MIN_CHURN_BUDGET {
            prop_assert!(p.stats().full_rebuilds >= 1, "zero threshold never rebuilt");
        }
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
            let mut p = pool.take(Some(DOMAIN), params(alpha_pct), SweepMode::Persistent);
            prop_assert!(p.is_empty(), "pool leaked state into a fresh cell");
            apply_ops(&mut p, &mut arena, &ops, alpha_pct, 6);
            pool.retire(p);
        }
        prop_assert!(pool.retired_stats().searches > 0);
    }

    /// Detector level, end to end: a persistent-mode `CellCspot` and a
    /// rebuild-mode one driven through `drive_incremental` (which ends with
    /// the `finish()` tail drain) must report bitwise identical answers at
    /// every slide *and* at the terminal flush, with identical search
    /// counts — and the persistent run must do its coordinate work
    /// incrementally (fewer rebuilt evaluation positions than the rebuild
    /// run).
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

        let mut pers = CellCspot::with_sweep_mode(query, BoundMode::Combined, SweepMode::Persistent, 4);
        let pers_report = drive_incremental(&mut pers, windows, objs.iter().copied(), slide, 1);

        let mut reb = CellCspot::with_sweep_mode(query, BoundMode::Combined, SweepMode::Rebuild, 4);
        let reb_report = drive_incremental(&mut reb, windows, objs.iter().copied(), slide, 1);

        prop_assert_eq!(pers_report.answers.len(), reb_report.answers.len());
        for (i, (a, b)) in pers_report
            .answers
            .iter()
            .zip(reb_report.answers.iter())
            .enumerate()
        {
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
        prop_assert_eq!(pers_report.jobs, reb_report.jobs);
        prop_assert_eq!(pers.stats(), reb.stats());
        let (ps, rs) = (pers.sweep_stats(), reb.sweep_stats());
        prop_assert_eq!(ps.searches, rs.searches);
        if rs.rebuilt_leaves > 0 {
            prop_assert!(
                ps.rebuilt_leaves <= rs.rebuilt_leaves,
                "persistent rebuilt {} leaves, rebuild path {}",
                ps.rebuilt_leaves, rs.rebuilt_leaves
            );
        }
    }

    /// The mesh driver on a persistent detector still bit-matches the
    /// rebuild-mode incremental driver — persistence composes with shard
    /// workers and the terminal drain.
    #[test]
    fn mesh_persistent_matches_rebuild_incremental(
        objs in arb_lattice_stream(160),
        alpha_pct in 0u32..100,
        shard_pow in 0u32..4,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let windows = WindowConfig::equal(300);
        let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha);

        let mut reb = CellCspot::with_sweep_mode(query, BoundMode::Combined, SweepMode::Rebuild, 1);
        let seq = drive_incremental(&mut reb, windows, objs.iter().copied(), 32, 1);

        let shards = 1usize << shard_pow;
        let mut pers =
            CellCspot::with_sweep_mode(query, BoundMode::Combined, SweepMode::Persistent, shards);
        let fixed = BalancerPolicy { max_shards: shards, ..BalancerPolicy::default() };
        let par = drive_elastic(&mut pers, windows, objs.iter().copied(), 32, fixed);

        prop_assert_eq!(par.answers.len(), seq.answers.len());
        for (i, (a, b)) in par.answers.iter().zip(seq.answers.iter()).enumerate() {
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
        prop_assert_eq!(par.sweeps, seq.jobs);
    }
}

/// The lazy per-object path (`current()` after every event) also matches
/// the rebuild detector bitwise — searches happen at different cadences
/// than the slide drivers, exercising candidate caching between sweeps.
#[test]
fn lazy_per_event_path_matches_rebuild() {
    let objs = surge_testkit::clustered_stream(600, 4, 9, 0xBEEF_CAFE);
    for alpha in [0.0, 0.5, 0.9] {
        let windows = WindowConfig::equal(250);
        let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha);
        let mut pers =
            CellCspot::with_sweep_mode(query, BoundMode::Combined, SweepMode::Persistent, 8);
        let mut reb = CellCspot::with_sweep_mode(query, BoundMode::Combined, SweepMode::Rebuild, 8);
        let mut engine_a = SlidingWindowEngine::new(windows);
        let mut engine_b = SlidingWindowEngine::new(windows);
        for obj in objs.iter().copied() {
            for ev in engine_a.push(obj) {
                pers.on_event(&ev);
            }
            for ev in engine_b.push(obj) {
                reb.on_event(&ev);
            }
            let a = pers.current();
            let b = reb.current();
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "alpha {alpha}");
                    assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                    assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                }
                (None, None) => {}
                other => panic!("alpha {alpha}: {other:?}"),
            }
        }
        // Tail drain: both detectors end with empty windows and agree.
        for ev in engine_a.finish() {
            pers.on_event(&ev);
        }
        for ev in engine_b.finish() {
            reb.on_event(&ev);
        }
        assert_eq!(
            pers.current().map(|r| r.score.to_bits()),
            reb.current().map(|r| r.score.to_bits()),
            "alpha {alpha}: post-drain divergence"
        );
        assert_eq!(pers.stats(), reb.stats(), "alpha {alpha}");
        assert_eq!(pers.cell_count(), reb.cell_count());
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
