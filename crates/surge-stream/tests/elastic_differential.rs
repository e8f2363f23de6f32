//! Differential tests for the shard mesh: parallel ingest, per-shard
//! flushes, the skew balancer and live resharding against the unsharded
//! incremental driver — bit for bit.
//!
//! The contract under test is the strongest one the pipeline makes:
//! per-slide answers are **bit-identical** — score, point and region — for
//! every shard count and reshard history, and the detectors
//! end the run with identical stats and cell footprints. Random streams are
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
    drive_elastic, drive_incremental, BalancerPolicy, ElasticReport, SlidingWindowEngine,
};
use surge_testkit::{
    arb_lattice_stream, clustered_stream, tie_timestamps_reverse_ids, uniform_stream,
};

fn query(alpha: f64) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(300), alpha)
}

/// A split-happy policy: any imbalance is "skew", two flushes of patience.
fn aggressive() -> BalancerPolicy {
    BalancerPolicy {
        skew_percent: 0,
        patience: 2,
        max_shards: 8,
        min_load: 1,
    }
}

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

/// Counter invariants every elastic run must satisfy, against the
/// sequential ground truth.
fn assert_counter_sanity(name: &str, elastic: &ElasticReport, seq_jobs: u64) {
    // Sharding moves sweeps, it never invents them — and every cell is
    // swept by its owner.
    assert_eq!(elastic.sweeps, seq_jobs, "{name}: total sweeps");
    assert_eq!(elastic.stolen, 0, "{name}: stolen == 0");
    // Driver-side accounting agrees with the workers' own counters, per
    // epoch and per shard.
    for (e, epoch) in elastic.epochs.iter().enumerate() {
        assert_eq!(epoch.shard_sweeps.len(), epoch.shards, "{name} epoch {e}");
        for (s, (&driver, worker)) in epoch
            .shard_sweeps
            .iter()
            .zip(epoch.shard_stats.iter())
            .enumerate()
        {
            assert_eq!(driver, worker.sweeps, "{name} epoch {e} shard {s}");
        }
    }
    let epoch_sweeps: u64 = elastic
        .epochs
        .iter()
        .flat_map(|e| e.shard_sweeps.iter())
        .sum();
    assert_eq!(epoch_sweeps, elastic.sweeps, "{name}: epoch sweep totals");
    // Each reshard doubles: final = initial << reshards.
    let initial = elastic.epochs.first().expect("at least one epoch").shards;
    assert_eq!(
        elastic.final_shards,
        initial << elastic.reshards,
        "{name}: reshard doubling"
    );
    assert_eq!(elastic.epochs.len() as u64, elastic.reshards + 1, "{name}");
}

/// Skewed workloads: bitwise identity vs the incremental driver, with
/// splitting live. The all-one-hotspot stream under the split-happy policy
/// at three alphas, plus a three-cluster stream under a realistic policy
/// (skew 25 %, noise floor 4) that must still split.
#[test]
fn skewed_workload_matches_incremental_bitwise() {
    let realistic = BalancerPolicy {
        skew_percent: 25,
        patience: 2,
        max_shards: 8,
        min_load: 4,
    };
    let cases = [
        (one_hotspot_stream(900), 0.0, 300, 48, aggressive()),
        (one_hotspot_stream(900), 0.5, 300, 48, aggressive()),
        (one_hotspot_stream(900), 0.9, 300, 48, aggressive()),
        (clustered_stream(30 * 16, 3, 5, 11), 0.5, 170, 16, realistic),
    ];
    for (objs, alpha, window, slide, policy) in cases {
        let windows = WindowConfig::equal(window);
        let q = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha);

        let mut seq = CellCspot::with_shards(q, BoundMode::Combined, 1);
        let seq_report = drive_incremental(&mut seq, windows, objs.iter().copied(), slide);

        let mut ela = CellCspot::with_shards(q, BoundMode::Combined, 2);
        let report = drive_elastic(&mut ela, windows, objs.iter().copied(), slide, policy);

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
        assert_counter_sanity("skewed", &report, seq_report.jobs);
        // The skewed stream must actually have exercised the machinery.
        assert!(report.reshards >= 1, "skew never triggered a split");
        assert!(report.final_shards > 2);
        // Detector state converged identically.
        assert_eq!(ela.stats().events, seq.stats().events);
        assert_eq!(ela.stats().searches, seq.stats().searches);
        assert_eq!(ela.cell_count(), seq.cell_count());
        assert_eq!(ela.dirty_cell_count(), 0);
    }
}

/// The migrating hotspot: the loaded shard changes mid-run, across epochs —
/// answers still bit-identical.
#[test]
fn moving_hotspot_matches_incremental_bitwise() {
    let objs = moving_hotspot_stream(1_200);
    let windows = WindowConfig::equal(300);

    let mut seq = CellCspot::with_shards(query(0.6), BoundMode::Combined, 1);
    let seq_report = drive_incremental(&mut seq, windows, objs.iter().copied(), 64);

    let mut ela = CellCspot::with_shards(query(0.6), BoundMode::Combined, 2);
    let report = drive_elastic(&mut ela, windows, objs.iter().copied(), 64, aggressive());

    assert_eq!(report.slides, seq_report.slides);
    assert_bitwise("moving", &report, seq_report.answers.iter().copied());
    assert_counter_sanity("moving", &report, seq_report.jobs);
    assert_eq!(ela.stats().searches, seq.stats().searches);
}

/// A fixed-width mesh (`max_shards` = starting width) on the one-hotspot
/// stream: the most lopsided flushes the mesh can see, with no split to
/// relieve them, must not perturb a single bit.
#[test]
fn fixed_width_mesh_on_one_hotspot_is_bit_identical() {
    let objs = one_hotspot_stream(700);
    let windows = WindowConfig::equal(300);

    let mut seq = CellCspot::with_shards(query(0.5), BoundMode::Combined, 1);
    let seq_report = drive_incremental(&mut seq, windows, objs.iter().copied(), 32);

    for shards in [2usize, 4, 8] {
        let fixed = BalancerPolicy {
            max_shards: shards,
            ..aggressive()
        };
        let mut ela = CellCspot::with_shards(query(0.5), BoundMode::Combined, shards);
        let report = drive_elastic(&mut ela, windows, objs.iter().copied(), 32, fixed);
        assert_eq!(report.reshards, 0);
        assert_eq!(report.final_shards, shards);
        assert_bitwise("fixed-width", &report, seq_report.answers.iter().copied());
        assert_counter_sanity("fixed-width", &report, seq_report.jobs);
    }
}

/// Whole-number weights make many regions tie on the exact score. PR 11's
/// benchmark notes recorded the sequential and mesh drivers breaking such
/// ties differently (scores one ulp apart); this pins the stream that
/// finding came from — uniform positions, weights `1 + i % 4`, 0.3 × 0.3
/// region, slide 32, window shortened to 3 s — across the sequential driver
/// at 1 and 2 shards and the mesh under the benchmark's policy.
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

    let policy = BalancerPolicy {
        max_shards: 4,
        ..BalancerPolicy::default()
    };
    let mut mesh = CellCspot::with_shards(q, BoundMode::Combined, 2);
    let report = drive_elastic(&mut mesh, windows, objs.iter().copied(), 32, policy);
    assert_eq!(report.answers.len(), seq_report.answers.len());

    assert_bitwise("ties: mesh", &report, seq_report.answers.iter().copied());
    assert_bitwise(
        "ties: mesh vs 2-shard sequential",
        &report,
        seq2_report.answers.iter().copied(),
    );
    assert_counter_sanity("ties", &report, seq_report.jobs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary lattice streams (dense ties), arbitrary slide cadence and
    /// starting shard count, split-happy balancer: per-slide answers
    /// bit-match the unsharded incremental driver across every reshard
    /// history the balancer happens to pick — also on streams whose
    /// equal-timestamp arrivals carry decreasing ids.
    #[test]
    fn elastic_driver_bit_matches_unsharded(
        objs in arb_lattice_stream(240),
        alpha_pct in 0u32..100,
        slide_pow in 2u32..6,
        shard_pow in 0u32..4,
        patience in 1u32..4,
        tied in 0u32..2,
    ) {
        let objs = if tied == 1 { tie_timestamps_reverse_ids(&objs, 20) } else { objs };
        let alpha = alpha_pct as f64 / 100.0;
        let slide = 1usize << slide_pow;
        let shards = 1usize << shard_pow;
        let windows = WindowConfig::equal(300);
        let policy = BalancerPolicy {
            skew_percent: 0,
            patience,
            max_shards: 16,
            min_load: 1,
        };

        let mut unsharded = CellCspot::with_shards(query(alpha), BoundMode::Combined, 1);
        let seq = drive_incremental(&mut unsharded, windows, objs.iter().copied(), slide);

        let mut ela = CellCspot::with_shards(query(alpha), BoundMode::Combined, shards);
        let report = drive_elastic(&mut ela, windows, objs.iter().copied(), slide, policy);

        prop_assert_eq!(report.objects, seq.objects);
        prop_assert_eq!(report.events, seq.events);
        prop_assert_eq!(report.slides, seq.slides);
        prop_assert_eq!(report.answers.len(), seq.answers.len());
        for (i, (a, b)) in report.answers.iter().zip(seq.answers.iter()).enumerate() {
            match (a, b) {
                (Some(x), Some(y)) => {
                    prop_assert_eq!(
                        x.score.to_bits(), y.score.to_bits(),
                        "slide {} (alpha {}, shards {}, reshards {}): {} vs {}",
                        i, alpha, shards, report.reshards, x.score, y.score
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
        prop_assert_eq!(
            report.final_shards,
            report.epochs[0].shards << report.reshards
        );
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
        let par = drive_elastic(&mut mesh, windows, objs.iter().copied(), 32, aggressive());
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
