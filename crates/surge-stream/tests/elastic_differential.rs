//! Differential tests for the shard mesh: parallel ingest and per-shard
//! flushes at a fixed width against the unsharded incremental driver — bit
//! for bit.
//!
//! The contract under test is the strongest one the pipeline makes:
//! per-slide answers are **bit-identical** — score, point and region — for
//! every mesh width, and the detectors end the run with identical stats and
//! cell footprints. Random streams are
//! drawn on a coarse lattice so weight and position ties (the cases where a
//! sloppy merge rule would diverge) are common rather than measure-zero.
//! The adversarial workloads are the ones fixed ownership handles worst:
//! all objects homed to one tight spatial cluster (one or two shards own
//! every dirty cell), and a hotspot that migrates across the space
//! mid-stream.

use proptest::prelude::*;
use surge_core::{BurstDetector, Point, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, CellCspot};
use surge_stream::{
    drive_elastic, drive_elastic_with_sink, drive_incremental, BalancerPolicy, ElasticReport,
    RetainAll, SlidingWindowEngine,
};
use surge_testkit::{
    arb_lattice_stream, clustered_stream, tie_timestamps_reverse_ids, uniform_stream,
};

fn query(alpha: f64) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(300), alpha)
}

/// The mesh widths every differential runs at.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Every object lands in a cell that hashes to shard 0 at a 2-shard mesh
/// (`shard_of_cell`), so at width 2 one shard owns every anchor cell — the
/// worst case for fixed ownership.
fn one_hotspot_stream(n: usize) -> Vec<SpatialObject> {
    let hot: Vec<(i64, i64)> = (0..40i64)
        .flat_map(|i| (0..40i64).map(move |j| (i, j)))
        .filter(|&(i, j)| surge_core::shard_of_cell((i, j), 2) == 0)
        .take(12)
        .collect();
    assert!(hot.len() == 12, "grid scan found too few shard-0 cells");
    let mut state = 0x5EED_0E1A_57ECu64 ^ 0xA5A5_A5A5;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    (0..n)
        .map(|i| {
            let (cx, cy) = hot[i % hot.len()];
            SpatialObject::new(
                i as u64,
                1.0 + (i % 3) as f64,
                Point::new(
                    cx as f64 + 0.1 + next() * 0.8,
                    cy as f64 + 0.1 + next() * 0.8,
                ),
                (i as u64) * 7,
            )
        })
        .collect()
}

/// A hotspot that migrates across the space: each third of the stream
/// clusters somewhere else, so the loaded shard *changes* mid-run.
fn moving_hotspot_stream(n: usize) -> Vec<SpatialObject> {
    let mut state = 0xC0FF_EE00_D00Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    let phase_len = (n / 3).max(1);
    (0..n)
        .map(|i| {
            let phase = (i / phase_len) as f64;
            SpatialObject::new(
                i as u64,
                1.0 + (i % 4) as f64,
                Point::new(phase * 7.0 + next() * 1.2, phase * 4.0 + next() * 1.2),
                (i as u64) * 5,
            )
        })
        .collect()
}

fn assert_bitwise(
    name: &str,
    elastic: &ElasticReport,
    seq_answers: impl IntoIterator<Item = Option<surge_core::RegionAnswer>>,
) {
    for (i, (a, b)) in elastic.answers.iter().copied().zip(seq_answers).enumerate() {
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{name} slide {i}");
                assert_eq!(x.point.x.to_bits(), y.point.x.to_bits(), "{name} slide {i}");
                assert_eq!(x.point.y.to_bits(), y.point.y.to_bits(), "{name} slide {i}");
                assert_eq!(x.region, y.region, "{name} slide {i}");
            }
            (None, None) => {}
            other => panic!("{name} slide {i}: {other:?}"),
        }
    }
}

/// Counter invariants every mesh run must satisfy, against the sequential
/// ground truth.
fn assert_counter_sanity(name: &str, elastic: &ElasticReport, shards: usize, seq_jobs: u64) {
    // Sharding moves sweeps, it never invents them — and every cell is
    // swept by its owner.
    assert_eq!(elastic.sweeps, seq_jobs, "{name}: total sweeps");
    assert_eq!(elastic.stolen, 0, "{name}: stolen == 0");
    // The mesh keeps the detector's width for the whole run.
    assert_eq!(elastic.reshards, 0, "{name}");
    assert_eq!(elastic.final_shards, shards, "{name}");
    assert_eq!(elastic.epochs.len(), 1, "{name}");
    // Driver-side accounting agrees with the workers' own counters, per
    // shard.
    let run = &elastic.epochs[0];
    assert_eq!(run.shard_sweeps.len(), shards, "{name}");
    for (s, (&driver, worker)) in run.shard_sweeps.iter().zip(&run.shard_stats).enumerate() {
        assert_eq!(driver, worker.sweeps, "{name} shard {s}");
    }
    assert_eq!(
        run.shard_sweeps.iter().sum::<u64>(),
        elastic.sweeps,
        "{name}: per-shard sweep totals"
    );
}

/// Skewed workloads: bitwise identity vs the incremental driver at every
/// width. The all-one-hotspot stream at three alphas, plus a three-cluster
/// stream.
#[test]
fn skewed_workload_matches_incremental_bitwise() {
    let cases = [
        (one_hotspot_stream(900), 0.0, 300, 48),
        (one_hotspot_stream(900), 0.5, 300, 48),
        (one_hotspot_stream(900), 0.9, 300, 48),
        (clustered_stream(30 * 16, 3, 5, 11), 0.5, 170, 16),
    ];
    for (objs, alpha, window, slide) in cases {
        let windows = WindowConfig::equal(window);
        let q = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha);

        let mut seq = CellCspot::with_shards(q, BoundMode::Combined, 1);
        let seq_report = drive_incremental(&mut seq, windows, objs.iter().copied(), slide);

        for shards in WIDTHS {
            let mut ela = CellCspot::with_shards(q, BoundMode::Combined, shards);
            let report = drive_elastic(&mut ela, windows, objs.iter().copied(), slide);

            assert_eq!(report.objects, objs.len() as u64);
            assert_eq!(report.slides, seq_report.slides);
            assert_eq!(report.events, seq_report.events);
            assert_eq!(report.answers.len(), seq_report.answers.len());
            assert_bitwise(
                "vs incremental",
                &report,
                seq_report.answers.iter().copied(),
            );
            assert_eq!(
                report.final_answer.map(|a| a.score.to_bits()),
                seq_report.answers[seq_report.answers.len() - 1].map(|a| a.score.to_bits())
            );
            assert_counter_sanity("skewed", &report, shards, seq_report.jobs);
            // Detector state converged identically.
            assert_eq!(ela.stats().events, seq.stats().events);
            assert_eq!(ela.stats().searches, seq.stats().searches);
            assert_eq!(ela.cell_count(), seq.cell_count());
            assert_eq!(ela.dirty_cell_count(), 0);
        }
    }
}

/// The migrating hotspot: the loaded shard changes mid-run — answers still
/// bit-identical at every width.
#[test]
fn moving_hotspot_matches_incremental_bitwise() {
    let objs = moving_hotspot_stream(1_200);
    let windows = WindowConfig::equal(300);

    let mut seq = CellCspot::with_shards(query(0.6), BoundMode::Combined, 1);
    let seq_report = drive_incremental(&mut seq, windows, objs.iter().copied(), 64);

    for shards in WIDTHS {
        let mut ela = CellCspot::with_shards(query(0.6), BoundMode::Combined, shards);
        let report = drive_elastic(&mut ela, windows, objs.iter().copied(), 64);

        assert_eq!(report.slides, seq_report.slides);
        assert_bitwise("moving", &report, seq_report.answers.iter().copied());
        assert_counter_sanity("moving", &report, shards, seq_report.jobs);
        assert_eq!(ela.stats().searches, seq.stats().searches);
    }
}

/// The one-hotspot stream at every width: the most lopsided flushes the
/// mesh can see must not perturb a single bit.
#[test]
fn fixed_width_mesh_on_one_hotspot_is_bit_identical() {
    let objs = one_hotspot_stream(700);
    let windows = WindowConfig::equal(300);

    let mut seq = CellCspot::with_shards(query(0.5), BoundMode::Combined, 1);
    let seq_report = drive_incremental(&mut seq, windows, objs.iter().copied(), 32);

    for shards in WIDTHS {
        let mut ela = CellCspot::with_shards(query(0.5), BoundMode::Combined, shards);
        let report = drive_elastic(&mut ela, windows, objs.iter().copied(), 32);
        assert_bitwise("fixed-width", &report, seq_report.answers.iter().copied());
        assert_counter_sanity("fixed-width", &report, shards, seq_report.jobs);
    }
}

/// `drive_elastic_with_sink` still takes a [`BalancerPolicy`] and ignores
/// it: the split-happy policy that used to double a skewed mesh leaves the
/// width, the one epoch and every answer bit exactly as the default
/// policy's run has them.
#[test]
fn balancer_policy_is_ignored() {
    let objs = one_hotspot_stream(700);
    let windows = WindowConfig::equal(300);
    let split_happy = BalancerPolicy {
        skew_percent: 25,
        patience: 2,
        max_shards: 16,
        min_load: 4,
    };
    let run = |policy: BalancerPolicy| {
        let mut d = CellCspot::with_shards(query(0.5), BoundMode::Combined, 2);
        drive_elastic_with_sink(
            &mut d,
            windows,
            objs.iter().copied(),
            32,
            policy,
            &mut RetainAll,
        )
    };
    let default = run(BalancerPolicy::default());
    let split = run(split_happy);
    assert_eq!(split.reshards, 0);
    assert_eq!(split.epochs.len(), 1);
    assert_eq!(split.final_shards, 2);
    assert_eq!(split.answers.len(), default.answers.len());
    assert_bitwise(
        "split-happy policy",
        &split,
        default.answers.iter().copied(),
    );
    assert_eq!(split.epochs, default.epochs);
}

/// Whole-number weights make many regions tie on the exact score. PR 11's
/// benchmark notes recorded the sequential and mesh drivers breaking such
/// ties differently (scores one ulp apart); this pins the stream that
/// finding came from — uniform positions, weights `1 + i % 4`, 0.3 × 0.3
/// region, slide 32, window shortened to 3 s — across the sequential driver
/// at 1 and 2 shards and the benchmark's 2-shard mesh.
#[test]
fn integer_weight_ties_break_identically_across_drivers() {
    let objs = uniform_stream(6_000, 42);
    let windows = WindowConfig::equal(3_000);
    let q = SurgeQuery::whole_space(RegionSize::new(0.3, 0.3), windows, 0.5);

    let mut seq = CellCspot::with_shards(q, BoundMode::Combined, 1);
    let seq_report = drive_incremental(&mut seq, windows, objs.iter().copied(), 32);

    let mut seq2 = CellCspot::with_shards(q, BoundMode::Combined, 2);
    let seq2_report = drive_incremental(&mut seq2, windows, objs.iter().copied(), 32);
    assert_eq!(seq2_report.answers.len(), seq_report.answers.len());

    let mut mesh = CellCspot::with_shards(q, BoundMode::Combined, 2);
    let report = drive_elastic(&mut mesh, windows, objs.iter().copied(), 32);
    assert_eq!(report.answers.len(), seq_report.answers.len());

    assert_bitwise("ties: mesh", &report, seq_report.answers.iter().copied());
    assert_bitwise(
        "ties: mesh vs 2-shard sequential",
        &report,
        seq2_report.answers.iter().copied(),
    );
    assert_counter_sanity("ties", &report, 2, seq_report.jobs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary lattice streams (dense ties), arbitrary slide cadence and
    /// mesh width 1/2/4/8: per-slide answers bit-match the unsharded
    /// incremental driver — also on streams whose equal-timestamp arrivals
    /// carry decreasing ids.
    #[test]
    fn elastic_driver_bit_matches_unsharded(
        objs in arb_lattice_stream(240),
        alpha_pct in 0u32..100,
        slide_pow in 2u32..6,
        shard_pow in 0u32..4,
        tied in 0u32..2,
    ) {
        let objs = if tied == 1 { tie_timestamps_reverse_ids(&objs, 20) } else { objs };
        let alpha = alpha_pct as f64 / 100.0;
        let slide = 1usize << slide_pow;
        let shards = 1usize << shard_pow;
        let windows = WindowConfig::equal(300);

        let mut unsharded = CellCspot::with_shards(query(alpha), BoundMode::Combined, 1);
        let seq = drive_incremental(&mut unsharded, windows, objs.iter().copied(), slide);

        let mut ela = CellCspot::with_shards(query(alpha), BoundMode::Combined, shards);
        let report = drive_elastic(&mut ela, windows, objs.iter().copied(), slide);

        prop_assert_eq!(report.objects, seq.objects);
        prop_assert_eq!(report.events, seq.events);
        prop_assert_eq!(report.slides, seq.slides);
        prop_assert_eq!(report.answers.len(), seq.answers.len());
        for (i, (a, b)) in report.answers.iter().zip(seq.answers.iter()).enumerate() {
            match (a, b) {
                (Some(x), Some(y)) => {
                    prop_assert_eq!(
                        x.score.to_bits(), y.score.to_bits(),
                        "slide {} (alpha {}, shards {}): {} vs {}",
                        i, alpha, shards, x.score, y.score
                    );
                    prop_assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                    prop_assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                    prop_assert_eq!(x.region, y.region);
                }
                (None, None) => {}
                other => panic!("slide {i}: {other:?}"),
            }
        }
        prop_assert_eq!(report.sweeps, seq.jobs);
        prop_assert_eq!(ela.stats().events, unsharded.stats().events);
        prop_assert_eq!(ela.stats().new_events, unsharded.stats().new_events);
        prop_assert_eq!(ela.stats().searches, unsharded.stats().searches);
        prop_assert_eq!(ela.cell_count(), unsharded.cell_count());
        prop_assert_eq!(ela.dirty_cell_count(), 0);
        prop_assert_eq!(report.final_shards, shards);
        prop_assert_eq!(report.reshards, 0);
        prop_assert_eq!(report.epochs.len(), 1);
    }

    /// The mesh flush answer scores must also agree with the fully lazy
    /// per-object driver's answer at the same stream position (the score is
    /// unique even when the attaining point is not): the last *pre-drain*
    /// flush sits exactly at stream end, and after the terminal drain both
    /// pipelines see empty windows.
    #[test]
    fn mesh_final_score_matches_lazy_sequential(
        objs in arb_lattice_stream(200),
        alpha_pct in 0u32..100,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let windows = WindowConfig::equal(300);

        let mut lazy = CellCspot::new(query(alpha));
        let mut engine = SlidingWindowEngine::new(windows);
        for obj in objs.iter().copied() {
            for ev in engine.push(obj) {
                lazy.on_event(&ev);
            }
        }
        let want = lazy.current().map(|a| a.score);

        let mut mesh = CellCspot::with_shards(query(alpha), BoundMode::Combined, 4);
        let par = drive_elastic(&mut mesh, windows, objs.iter().copied(), 32);
        prop_assert!(par.answers.len() >= 2);
        let got = par.answers[par.answers.len() - 2].map(|a| a.score);

        match (want, got) {
            (Some(w), Some(g)) => prop_assert!(
                (w - g).abs() <= 1e-12 * w.abs().max(1.0),
                "lazy {} vs mesh {}", w, g
            ),
            (None, None) => {}
            other => panic!("{other:?}"),
        }

        // After the drain, the lazy detector agrees again: empty windows.
        for ev in engine.finish() {
            lazy.on_event(&ev);
        }
        prop_assert_eq!(
            lazy.current().map(|a| a.score.to_bits()),
            par.final_answer.map(|a| a.score.to_bits())
        );
    }
}
