//! Crash-at-any-point differentials for the approx detectors: GAPS and
//! MGAPS must recover **bit-identically** at arbitrary cut points and
//! shard counts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use surge_checkpoint::{
    recover, run_checkpointed, CheckpointConfig, CheckpointPolicy, DetectorSpec, SyncPolicy, Tail,
};
use surge_core::{RegionAnswer, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_testkit::arb_lattice_stream;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("surge-apx-{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(spec: DetectorSpec, windows: WindowConfig) -> CheckpointConfig {
    CheckpointConfig {
        query: SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, 0.5),
        windows,
        spec,
        slide_objects: 16,
        threads: 1,
        policy: CheckpointPolicy {
            snapshot_every_slides: 2,
            wal_segment_objects: 23,
            keep_snapshots: 2,
            sync: SyncPolicy::OsFlush,
        },
    }
}

fn assert_answers_bitwise(a: &[Vec<RegionAnswer>], b: &[Vec<RegionAnswer>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: flush counts differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx}: flush {i} answer counts differ");
        for (j, (p, q)) in x.iter().zip(y.iter()).enumerate() {
            assert_eq!(
                p.score.to_bits(),
                q.score.to_bits(),
                "{ctx}: flush {i} answer {j} score"
            );
            assert_eq!(p.point.x.to_bits(), q.point.x.to_bits(), "{ctx}: flush {i}");
            assert_eq!(p.point.y.to_bits(), q.point.y.to_bits(), "{ctx}: flush {i}");
        }
    }
}

/// Crash at `cut`, recover, and compare against the uninterrupted run:
/// answers bit-identical, detector counters equal.
fn crash_recover_matches(
    config: &CheckpointConfig,
    stream: &[SpatialObject],
    cut: usize,
    tag: &str,
) {
    let full_dir = fresh_dir(&format!("{tag}-full"));
    let full = run_checkpointed(config, &full_dir, stream.iter().copied(), Tail::Finish)
        .expect("uninterrupted run");

    let crash_dir = fresh_dir(&format!("{tag}-crash"));
    run_checkpointed(
        config,
        &crash_dir,
        stream.iter().take(cut).copied(),
        Tail::Crash,
    )
    .expect("crashed run");

    let resumed =
        recover(config, &crash_dir, stream.iter().copied(), Tail::Finish).expect("recovery");
    assert_eq!(resumed.objects, stream.len() as u64);
    assert_answers_bitwise(full.answers.retained(), resumed.answers.retained(), tag);
    assert_eq!(
        resumed.stats, full.stats,
        "{tag}: detector counters diverge"
    );

    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// GAPS and MGAPS across shard counts: the grid-cell codec round-trips
    /// the accumulated `wc`/`wp` sums verbatim, so the recovered run's
    /// per-slide and terminal answers are bit-identical.
    #[test]
    fn approx_detectors_recover_bit_identically(
        stream in arb_lattice_stream(48),
        cut_seed in 0usize..1000,
    ) {
        let windows = WindowConfig::equal(170);
        let cut = cut_seed % (stream.len() + 1);
        for (spec, tag) in [
            (DetectorSpec::Gaps { shards: 1 }, "gaps1"),
            (DetectorSpec::Gaps { shards: 4 }, "gaps4"),
            (DetectorSpec::Mgaps { shards: 1 }, "mgaps1"),
            (DetectorSpec::Mgaps { shards: 2 }, "mgaps2"),
        ] {
            let config = cfg(spec, windows);
            crash_recover_matches(&config, &stream, cut, &format!("{tag}-cut{cut}"));
        }
    }
}
