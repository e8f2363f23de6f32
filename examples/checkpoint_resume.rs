//! Checkpoint, crash, recover — bit-identical resume.
//!
//! Runs a clustered stream through the checkpointing driver three ways:
//!
//! 1. **uninterrupted** — the reference run: WAL + periodic snapshots,
//!    per-slide flushes, terminal drain;
//! 2. **crashed** — the same run stopped dead 60% through the stream (no
//!    drain, no goodbye — the WAL and the snapshots on disk are all that
//!    survives);
//! 3. **recovered** — `recover()` loads the newest snapshot, rebuilds the
//!    engine and detector from logical state, replays the WAL tail, then
//!    resumes from the source.
//!
//! The example asserts the recovered run's full answer sequence — every
//! slide plus the terminal answer — is **bit-identical** to the
//! uninterrupted run's, then prints what durability cost: snapshot stalls
//! (p50/p99/max), WAL appends, and how much work recovery skipped compared
//! to replaying from t = 0.
//!
//! Run with `cargo run --release --example checkpoint_resume`.

use surge::checkpoint::{
    recover, run_checkpointed, CheckpointConfig, CheckpointPolicy, DetectorSpec, SyncPolicy, Tail,
};
use surge::exact::{BoundMode, SweepMode};
use surge::prelude::*;

fn stream(n: usize) -> Vec<SpatialObject> {
    let mut state = 0xC0FF_EE00_C0FF_EE00u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    (0..n)
        .map(|i| {
            let cluster = i % 5;
            SpatialObject::new(
                i as u64,
                1.0 + (i % 4) as f64,
                Point::new(
                    cluster as f64 * 4.0 + next() * 1.5,
                    cluster as f64 * 2.5 + next() * 1.5,
                ),
                (i as u64) * 4,
            )
        })
        .collect()
}

fn main() {
    let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(3_000), 0.5);
    let config = CheckpointConfig {
        query,
        windows: query.windows,
        spec: DetectorSpec::Cell {
            bound: BoundMode::Combined,
            sweep: SweepMode::Persistent,
            shards: 4,
        },
        slide_objects: 256,
        threads: 1,
        policy: CheckpointPolicy {
            snapshot_every_slides: 8,
            wal_segment_objects: 4_096,
            keep_snapshots: 2,
            sync: SyncPolicy::OsFlush,
        },
    };
    let objs = stream(20_000);
    let crash_at = objs.len() * 6 / 10;

    let base = std::env::temp_dir().join(format!("surge-ckpt-example-{}", std::process::id()));
    let full_dir = base.join("full");
    let crash_dir = base.join("crash");
    let _ = std::fs::remove_dir_all(&base);

    // 1. The uninterrupted reference.
    let t0 = std::time::Instant::now();
    let full = run_checkpointed(&config, &full_dir, objs.iter().copied(), Tail::Finish)
        .expect("uninterrupted run");
    let full_elapsed = t0.elapsed();
    println!(
        "uninterrupted: {} objects, {} slides, {} snapshots, {} WAL appends in {:.1} ms",
        full.objects,
        full.slides,
        full.snapshots_written,
        full.wal_appends,
        full_elapsed.as_secs_f64() * 1e3
    );
    println!(
        "snapshot stalls: n={} p50={:.0}us p99={:.0}us max={:.0}us",
        full.pause.count, full.pause.p50_us, full.pause.p99_us, full.pause.max_us
    );

    // 2. "Crash" 60% through: stop dead, keeping only the on-disk state.
    run_checkpointed(
        &config,
        &crash_dir,
        objs.iter().take(crash_at).copied(),
        Tail::Crash,
    )
    .expect("crashed run");
    println!("\ncrashed at object {crash_at} — process gone, disk state survives");

    // 3. Recover and resume over the same source stream.
    let t0 = std::time::Instant::now();
    let resumed =
        recover(&config, &crash_dir, objs.iter().copied(), Tail::Finish).expect("recovery");
    let resumed_elapsed = t0.elapsed();
    println!(
        "recovered: snapshot at object {}, {} objects replayed from the WAL tail, \
         {} live objects, {:.1} ms total",
        resumed.resumed_at.unwrap_or(0),
        resumed.replayed_from_wal,
        resumed.objects - resumed.resumed_at.unwrap_or(0) - resumed.replayed_from_wal,
        resumed_elapsed.as_secs_f64() * 1e3
    );

    // The whole point: the answer sequence is bit-identical.
    assert_eq!(full.answers.len(), resumed.answers.len());
    for (i, (a, b)) in full.answers.iter().zip(resumed.answers.iter()).enumerate() {
        assert_eq!(a.len(), b.len(), "slide {i}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "slide {i}");
            assert_eq!(x.point.x.to_bits(), y.point.x.to_bits(), "slide {i}");
            assert_eq!(x.point.y.to_bits(), y.point.y.to_bits(), "slide {i}");
        }
    }
    assert_eq!(full.stats, resumed.stats);
    let skipped = resumed.resumed_at.unwrap_or(0);
    println!(
        "\nbit-identity verified across {} flushes — recovery skipped {skipped} of {} objects \
         ({:.0}% of the crashed prefix never replayed)",
        full.answers.len(),
        objs.len(),
        100.0 * skipped as f64 / crash_at as f64
    );

    std::fs::remove_dir_all(&base).ok();
}
