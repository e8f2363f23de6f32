//! Driver-equivalence differentials for the approx detectors: GAPS and
//! MGAPS must produce **bit-identical** per-slide answer sequences under
//! the sequential incremental driver and the shard mesh, at every
//! shard count — the same contract the exact detector family carries.
//! Streams come from `surge-testkit`'s collision-heavy lattice generator
//! (snapped positions, tied weights), the worst case for tie-breaking.

use proptest::prelude::*;
use surge_approx::{GapSurge, MgapSurge};
use surge_core::{
    Event, IncrementalDetector, MeshIngest, Point, RegionAnswer, RegionSize, SpatialObject,
    SurgeQuery, WindowConfig,
};
use surge_stream::{drive_elastic, drive_incremental, BalancerPolicy};
use surge_testkit::arb_lattice_stream;

fn assert_bitwise(a: &[Option<RegionAnswer>], b: &[Option<RegionAnswer>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: slide counts differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        match (x, y) {
            (None, None) => {}
            (Some(p), Some(q)) => {
                assert_eq!(
                    p.score.to_bits(),
                    q.score.to_bits(),
                    "{ctx}: slide {i} score"
                );
                assert_eq!(
                    p.point.x.to_bits(),
                    q.point.x.to_bits(),
                    "{ctx}: slide {i} x"
                );
                assert_eq!(
                    p.point.y.to_bits(),
                    q.point.y.to_bits(),
                    "{ctx}: slide {i} y"
                );
                assert_eq!(p.region, q.region, "{ctx}: slide {i} region");
            }
            _ => panic!("{ctx}: slide {i} presence differs ({x:?} vs {y:?})"),
        }
    }
}

// GAPS and MGAPS never report a dirty cell, so the balancer stays quiet
// under any policy: the default runs a fixed-width mesh.

fn query(windows: WindowConfig, alpha: f64) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha)
}

/// `reshard(1 → 4)` mid-stream re-homes every cell without touching a single
/// answer bit: a twin left at one shard stays in lockstep.
fn assert_reshard_keeps_lockstep<D: MeshIngest + IncrementalDetector>(mut twin: D, mut d: D) {
    for i in 0..160u64 {
        if i == 80 {
            d.reshard(4);
            assert_eq!(d.shard_count(), 4);
        }
        let pos = Point::new((i % 13) as f64 * 0.45, (i % 7) as f64 * 0.45);
        let o = SpatialObject::new(i, 1.0 + (i % 5) as f64, pos, i * 5);
        let mut events = vec![Event::new_arrival(o)];
        if i % 3 == 0 {
            events.push(Event::grown(o, i * 5));
        }
        for e in &events {
            twin.on_event(e);
            d.on_event(e);
        }
        assert_bitwise(
            &[twin.current()],
            &[d.current()],
            &format!("reshard step {i}"),
        );
    }
    assert_eq!(d.stats(), twin.stats());
}

#[test]
fn gaps_reshard_mid_stream_is_bit_identical() {
    let q = query(WindowConfig::equal(1_000), 0.3);
    assert_reshard_keeps_lockstep(GapSurge::with_shards(q, 1), GapSurge::with_shards(q, 1));
}

#[test]
fn mgaps_reshard_mid_stream_is_bit_identical() {
    let q = query(WindowConfig::equal(1_000), 0.3);
    assert_reshard_keeps_lockstep(MgapSurge::with_shards(q, 1), MgapSurge::with_shards(q, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gaps_mesh_matches_incremental(
        objects in arb_lattice_stream(60),
        window_len in 4u64..120,
        alpha in 0.0f64..0.95,
        slide in 1usize..9,
        shard_pick in 0usize..4,
    ) {
        let shards = [1usize, 2, 4, 8][shard_pick];
        let windows = WindowConfig::equal(window_len);
        let q = query(windows, alpha);
        let mut seq = GapSurge::new(q);
        let base = drive_incremental(&mut seq, windows, objects.iter().copied(), slide);
        let mut sharded = GapSurge::with_shards(q, shards);
        let got = drive_elastic(&mut sharded, windows, objects.iter().copied(), slide, BalancerPolicy::default());
        assert_bitwise(base.answers.retained(), got.answers.retained(), &format!("GAPS @{shards} shards"));
    }

    #[test]
    fn mgaps_mesh_matches_incremental(
        objects in arb_lattice_stream(60),
        window_len in 4u64..120,
        alpha in 0.0f64..0.95,
        slide in 1usize..9,
        shard_pick in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shard_pick];
        let windows = WindowConfig::equal(window_len);
        let q = query(windows, alpha);
        let mut seq = MgapSurge::new(q);
        let base = drive_incremental(&mut seq, windows, objects.iter().copied(), slide);
        let mut sharded = MgapSurge::with_shards(q, shards);
        let got = drive_elastic(&mut sharded, windows, objects.iter().copied(), slide, BalancerPolicy::default());
        assert_bitwise(base.answers.retained(), got.answers.retained(), &format!("MGAPS @{shards} shards"));
    }

    #[test]
    fn gaps_shard_counts_agree_with_each_other(
        objects in arb_lattice_stream(50),
        window_len in 4u64..80,
        slide in 1usize..6,
    ) {
        let windows = WindowConfig::equal(window_len);
        let q = query(windows, 0.5);
        let mut base = GapSurge::with_shards(q, 1);
        let a = drive_elastic(&mut base, windows, objects.iter().copied(), slide, BalancerPolicy::default());
        for shards in [2usize, 8] {
            let mut det = GapSurge::with_shards(q, shards);
            let b = drive_elastic(&mut det, windows, objects.iter().copied(), slide, BalancerPolicy::default());
            assert_bitwise(a.answers.retained(), b.answers.retained(), &format!("GAPS 1 vs {shards} shards"));
        }
    }
}
