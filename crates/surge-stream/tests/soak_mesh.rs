//! Soak test for the persistent cross-sweep pipeline: a 100k-object
//! generator stream (≈300k window-transition events after the tail drain)
//! through `drive_elastic` at a fixed 1/2/8 shards, asserting
//!
//! * per-slide answers stay **bit-identical** to the rebuild-mode
//!   sequential baseline at every shard count, and
//! * the persistent-state churn counters never exceed the rebuilt-leaf
//!   counts of the rebuild-per-search baseline — i.e. incremental
//!   maintenance really does less repair work than rebuilding.
//!
//! Ignored by default (it processes ~1.2M events across the four runs); CI
//! runs it in the release test lane with `--ignored`, nightly-style:
//!
//! ```text
//! cargo test --release -p surge-stream --test soak_mesh -- --ignored
//! ```

use surge_core::{BurstDetector, RegionSize, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, CellCspot, SweepMode};
use surge_stream::{drive_elastic, drive_incremental, BalancerPolicy};
use surge_testkit::uniform_stream;

#[test]
#[ignore = "soak scale; CI release lane runs with --ignored"]
fn soak_100k_mesh_bit_identity_and_churn_bounds() {
    let objs = uniform_stream(100_000, 0xD1CE);
    let windows = WindowConfig::equal(60_000);
    let query = SurgeQuery::whole_space(RegionSize::new(0.3, 0.3), windows, 0.5);
    let slide = 256;

    // Rebuild-mode sequential baseline: the pre-persistence cost profile.
    let mut rebuild = CellCspot::with_sweep_mode(query, BoundMode::Combined, SweepMode::Rebuild, 1);
    let base = drive_incremental(&mut rebuild, windows, objs.iter().copied(), slide);
    let base_sweep = rebuild.sweep_stats();
    assert_eq!(base.objects, objs.len() as u64);
    assert!(
        base_sweep.rebuilt_leaves > 0,
        "rebuild baseline must rebuild leaves"
    );

    for shards in [1usize, 2, 8] {
        let mut pers =
            CellCspot::with_sweep_mode(query, BoundMode::Combined, SweepMode::Persistent, shards);
        let fixed = BalancerPolicy {
            max_shards: shards,
            ..BalancerPolicy::default()
        };
        let report = drive_elastic(&mut pers, windows, objs.iter().copied(), slide, fixed);
        assert_eq!(report.final_shards, shards);

        // Full lifecycle: every object's New/Grown/Expired reached the
        // detector (tail drain included).
        assert_eq!(report.objects, objs.len() as u64);
        assert_eq!(report.events, 3 * objs.len() as u64, "shards {shards}");
        assert_eq!(report.slides, base.slides, "shards {shards}");

        // Bit-identity of every slide answer against the rebuild baseline.
        assert_eq!(report.answers.len(), base.answers.len());
        for (i, (a, b)) in report.answers.iter().zip(base.answers.iter()).enumerate() {
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "shards {shards} slide {i}"
                    );
                    assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                    assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                    assert_eq!(x.region, y.region);
                }
                (None, None) => {}
                other => panic!("shards {shards} slide {i}: {other:?}"),
            }
        }
        assert_eq!(report.sweeps, base.jobs, "shards {shards}");
        assert_eq!(pers.stats().searches, rebuild.stats().searches);
        assert_eq!(pers.cell_count(), rebuild.cell_count());
        assert_eq!(pers.dirty_cell_count(), 0);

        // Churn-vs-rebuild accounting: the persistent pipeline's total
        // repair work (incremental ops + its own threshold rebuilds) must
        // stay below what per-search rebuilding pays, and the searches must
        // agree exactly (every sweep runs in the persistent state).
        let ps = pers.sweep_stats();
        assert_eq!(ps.searches, base_sweep.searches, "shards {shards}");
        assert!(
            ps.churn_ops <= base_sweep.rebuilt_leaves,
            "shards {shards}: churn {} exceeds baseline rebuilt leaves {}",
            ps.churn_ops,
            base_sweep.rebuilt_leaves
        );
        assert!(
            ps.rebuilt_leaves <= base_sweep.rebuilt_leaves,
            "shards {shards}: persistent rebuilt {} vs baseline {}",
            ps.rebuilt_leaves,
            base_sweep.rebuilt_leaves
        );
        assert!(
            ps.full_rebuilds <= base_sweep.full_rebuilds,
            "shards {shards}: persistent full rebuilds {} vs baseline {}",
            ps.full_rebuilds,
            base_sweep.full_rebuilds
        );
    }
}
