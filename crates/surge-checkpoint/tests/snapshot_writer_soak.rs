//! Soak test for the background snapshot writer: 10 000 objects with a
//! snapshot every slide, one retained snapshot and 64-object WAL segments.
//! A slide is one segment, so every writer job retires the previous
//! snapshot and garbage-collects WAL segments while the ingest thread rolls
//! the next segment — the most overlap between the writer's GC and segment
//! rotation the layout allows. Recovery from 20 crash points must be
//! bit-identical to the uninterrupted run.
//!
//! Ignored by default (≈3 300 snapshot writes, each with two fsyncs); CI
//! runs it in the release test lane with `--ignored`:
//!
//! ```text
//! cargo test --release -p surge-checkpoint --test snapshot_writer_soak -- --ignored
//! ```

use surge_checkpoint::{
    recover, run_checkpointed, CheckpointConfig, CheckpointPolicy, DetectorSpec, SyncPolicy, Tail,
};
use surge_core::{RegionAnswer, RegionSize, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, SweepMode};
use surge_testkit::uniform_stream;

const OBJECTS: usize = 10_000;
const SLIDE: usize = 64;
const CUTS: usize = 20;

fn assert_answers_bitwise(a: &[Vec<RegionAnswer>], b: &[Vec<RegionAnswer>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: flush counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx}: flush {i} answer counts differ");
        for (p, q) in x.iter().zip(y) {
            assert_eq!(p.score.to_bits(), q.score.to_bits(), "{ctx}: flush {i}");
            assert_eq!(p.point.x.to_bits(), q.point.x.to_bits(), "{ctx}: flush {i}");
            assert_eq!(p.point.y.to_bits(), q.point.y.to_bits(), "{ctx}: flush {i}");
        }
    }
}

#[test]
#[ignore = "soak scale; CI release lane runs with --ignored"]
fn snapshot_writer_soak() {
    let stream = uniform_stream(OBJECTS, 0x5EED);
    let windows = WindowConfig::equal(3_000);
    let config = CheckpointConfig {
        query: SurgeQuery::whole_space(RegionSize::new(0.3, 0.3), windows, 0.5),
        windows,
        spec: DetectorSpec::Cell {
            bound: BoundMode::Combined,
            sweep: SweepMode::Persistent,
            shards: 2,
        },
        slide_objects: SLIDE,
        threads: 1,
        policy: CheckpointPolicy {
            snapshot_every_slides: 1,
            wal_segment_objects: SLIDE as u64,
            keep_snapshots: 1,
            sync: SyncPolicy::OsFlush,
        },
    };
    let root = std::env::temp_dir().join(format!("surge-writer-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let full = run_checkpointed(
        &config,
        root.join("full"),
        stream.iter().copied(),
        Tail::Finish,
    )
    .expect("uninterrupted run");
    assert!(full.snapshots_written as usize > OBJECTS / SLIDE);
    assert_eq!(full.pause.count, full.snapshots_written);

    for k in 0..CUTS {
        // Spread over the stream, landing at varying offsets in a slide —
        // including exactly on a slide boundary, where the crash run's last
        // act is a snapshot hand-off.
        let cut = (k * OBJECTS / CUTS + k * 37 % SLIDE).min(OBJECTS);
        let dir = root.join(format!("cut-{cut}"));
        let crashed =
            run_checkpointed(&config, &dir, stream.iter().take(cut).copied(), Tail::Crash)
                .unwrap_or_else(|e| panic!("crash run to {cut}: {e}"));
        assert_eq!(crashed.objects, cut as u64);
        let resumed = recover(&config, &dir, stream.iter().copied(), Tail::Finish)
            .unwrap_or_else(|e| panic!("recovery from {cut}: {e}"));
        assert_eq!(resumed.objects, OBJECTS as u64, "cut {cut}");
        // A slide is one segment and one snapshot: recovery never replays
        // more than the slide in progress.
        assert!(resumed.replayed_from_wal < SLIDE as u64, "cut {cut}");
        assert_answers_bitwise(
            full.answers.retained(),
            resumed.answers.retained(),
            &format!("cut {cut}"),
        );
        assert_eq!(resumed.stats, full.stats, "cut {cut}: detector counters");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}
