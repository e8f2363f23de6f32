//! Differential property tests: the sharded driver (parallel ingest +
//! per-shard sweeps over broadcast channels) against the unsharded
//! incremental driver, over randomized object streams.
//!
//! The contract under test is the strongest one the pipeline makes:
//! per-slide answers are **bit-identical** — score, point and region — for
//! every shard count, and the detectors end the run with identical stats and
//! cell footprints. Streams are drawn on a coarse lattice so weight and
//! position ties (the cases where a sloppy merge rule would diverge) are
//! common rather than measure-zero.

use proptest::prelude::*;
use surge_core::{BurstDetector, RegionSize, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, CellCspot};
use surge_stream::{drive_incremental, drive_sharded};
use surge_testkit::{arb_lattice_stream as arb_stream, tie_timestamps_reverse_ids};

fn query(alpha: f64) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(300), alpha)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded vs unsharded, bit for bit, at every slide boundary — also
    /// on streams whose equal-timestamp arrivals carry decreasing ids,
    /// which `drive_incremental` has always accepted.
    #[test]
    fn sharded_driver_bit_matches_unsharded(
        objs in arb_stream(260),
        alpha_pct in 0u32..100,
        slide_pow in 2u32..6,
        shard_pow in 0u32..5,
        tied in 0u32..2,
    ) {
        let objs = if tied == 1 { tie_timestamps_reverse_ids(&objs, 20) } else { objs };
        let alpha = alpha_pct as f64 / 100.0;
        let slide = 1usize << slide_pow;
        let shards = 1usize << shard_pow;
        let windows = WindowConfig::equal(300);

        let mut unsharded = CellCspot::with_shards(query(alpha), BoundMode::Combined, 1);
        let seq = drive_incremental(&mut unsharded, windows, objs.iter().copied(), slide, 1);

        let mut sharded = CellCspot::with_shards(query(alpha), BoundMode::Combined, shards);
        let par = drive_sharded(&mut sharded, windows, objs.iter().copied(), slide);

        prop_assert_eq!(par.objects, seq.objects);
        prop_assert_eq!(par.events, seq.events);
        prop_assert_eq!(par.slides, seq.slides);
        prop_assert_eq!(par.answers.len(), seq.answers.len());
        for (i, (a, b)) in par.answers.iter().zip(seq.answers.iter()).enumerate() {
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
        // Same searches, same residual state.
        prop_assert_eq!(par.sweeps, seq.jobs);
        prop_assert_eq!(sharded.stats().events, unsharded.stats().events);
        prop_assert_eq!(sharded.stats().new_events, unsharded.stats().new_events);
        prop_assert_eq!(sharded.stats().searches, unsharded.stats().searches);
        prop_assert_eq!(sharded.cell_count(), unsharded.cell_count());
        prop_assert_eq!(sharded.dirty_cell_count(), 0);
    }

    /// The sharded flush answer scores must also agree with the fully lazy
    /// per-object driver's answer at the same stream position (the score is
    /// unique even when the attaining point is not): the last *pre-drain*
    /// flush sits exactly at stream end, and after the terminal drain both
    /// pipelines see empty windows.
    #[test]
    fn sharded_final_score_matches_lazy_sequential(
        objs in arb_stream(200),
        alpha_pct in 0u32..100,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let windows = WindowConfig::equal(300);

        let mut lazy = CellCspot::new(query(alpha));
        let mut engine = surge_stream::SlidingWindowEngine::new(windows);
        for obj in objs.iter().copied() {
            for ev in engine.push(obj) {
                lazy.on_event(&ev);
            }
        }
        let want = lazy.current().map(|a| a.score);

        let mut sharded = CellCspot::with_shards(query(alpha), BoundMode::Combined, 4);
        let par = drive_sharded(&mut sharded, windows, objs.iter().copied(), 32);
        prop_assert!(par.answers.len() >= 2);
        let got = par.answers[par.answers.len() - 2].map(|a| a.score);

        match (want, got) {
            (Some(w), Some(g)) => prop_assert!(
                (w - g).abs() <= 1e-12 * w.abs().max(1.0),
                "lazy {} vs sharded {}", w, g
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
