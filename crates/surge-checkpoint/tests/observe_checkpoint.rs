//! Observability differentials for the checkpointed runner: a run with
//! [`Observe::off`] and a run with an enabled registry must produce
//! **bitwise-identical** per-flush answers and identical durability
//! side effects (snapshots written, WAL appends), the registry totals must
//! be conserved against the [`CheckpointReport`], and every snapshot stall
//! must be attributed in the flight ring as a logical
//! `(slide, bytes, sync_policy)` event alongside its wall-clock samples in
//! the `checkpoint/stall_ns` (ingest thread) and
//! `checkpoint/snapshot_write_ns` (background writer) histograms.
//!
//! The trace dump carries only logical time, so two observed runs over the
//! same stream produce the same dump — asserted here including the WAL
//! rotation trail, whose event count must equal the number of segments the
//! writer opened (`ceil(appends / segment_objects)`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use surge_checkpoint::{
    run_checkpointed, run_checkpointed_observed, CheckpointConfig, CheckpointPolicy, DetectorSpec,
    SyncPolicy, Tail,
};
use surge_core::{RegionAnswer, RegionSize, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, SweepMode};
use surge_observe::{Observe, TraceEvent};
use surge_testkit::arb_lattice_stream;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("surge-obs-{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(windows: WindowConfig, sync: SyncPolicy) -> CheckpointConfig {
    CheckpointConfig {
        query: SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, 0.5),
        windows,
        spec: DetectorSpec::Cell {
            bound: BoundMode::Combined,
            sweep: SweepMode::Persistent,
            shards: 2,
        },
        slide_objects: 16,
        threads: 1,
        policy: CheckpointPolicy {
            snapshot_every_slides: 2,
            wal_segment_objects: 23,
            keep_snapshots: 2,
            sync,
        },
    }
}

fn assert_flushes_bitwise(a: &[Vec<RegionAnswer>], b: &[Vec<RegionAnswer>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: flush counts differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx}: flush {i} answer counts differ");
        for (p, q) in x.iter().zip(y.iter()) {
            assert_eq!(p.score.to_bits(), q.score.to_bits(), "{ctx}: flush {i}");
            assert_eq!(p.point.x.to_bits(), q.point.x.to_bits(), "{ctx}: flush {i}");
            assert_eq!(p.point.y.to_bits(), q.point.y.to_bits(), "{ctx}: flush {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Observe-on vs observe-off over arbitrary lattice streams and every
    /// sync policy: same answers bit for bit, same snapshots, same WAL,
    /// and registry totals conserved against the report.
    #[test]
    fn checkpointed_run_is_unperturbed_and_conserved(
        stream in arb_lattice_stream(60),
        sync_pick in 0u8..3,
    ) {
        let windows = WindowConfig::equal(170);
        let sync = match sync_pick {
            0 => SyncPolicy::OsFlush,
            1 => SyncPolicy::FsyncPerSnapshot,
            _ => SyncPolicy::FsyncPerSlide,
        };
        let config = cfg(windows, sync);

        let off_dir = fresh_dir("off");
        let off = run_checkpointed(&config, &off_dir, stream.iter().copied(), Tail::Finish)
            .expect("unobserved run");

        let obs = Observe::enabled();
        let on_dir = fresh_dir("on");
        let on = run_checkpointed_observed(
            &config, &on_dir, stream.iter().copied(), Tail::Finish, &obs,
        )
        .expect("observed run");

        assert_flushes_bitwise(off.answers.retained(), on.answers.retained(), "observed");
        prop_assert_eq!(off.objects, on.objects);
        prop_assert_eq!(off.slides, on.slides);
        prop_assert_eq!(off.events, on.events);
        prop_assert_eq!(off.snapshots_written, on.snapshots_written);
        prop_assert_eq!(off.wal_appends, on.wal_appends);
        prop_assert_eq!(off.stats, on.stats);

        // Conservation: registry totals == report counters.
        let snap = obs.snapshot();
        prop_assert_eq!(snap.counter("checkpoint/objects"), Some(on.objects));
        prop_assert_eq!(snap.counter("checkpoint/slides"), Some(on.slides));
        prop_assert_eq!(snap.counter("checkpoint/events"), Some(on.events));
        prop_assert_eq!(
            snap.counter("checkpoint/snapshots_written"),
            Some(on.snapshots_written)
        );
        prop_assert_eq!(snap.counter("checkpoint/wal_appends"), Some(on.wal_appends));

        // Stall attribution: one histogram sample and one flight event per
        // snapshot, stamped with the policy in force.
        let stalls = snap.histogram("checkpoint/stall_ns").map_or(0, |h| h.summary.count);
        prop_assert_eq!(stalls, on.snapshots_written, "one stall sample per snapshot");
        let writes = snap
            .histogram("checkpoint/snapshot_write_ns")
            .map_or(0, |h| h.summary.count);
        prop_assert_eq!(writes, on.snapshots_written, "one writer sample per snapshot");
        let dump = obs.trace_dump();
        let mut stall_events = 0u64;
        let mut rotations = 0u64;
        for w in &dump.workers {
            for ev in &w.events {
                match ev {
                    TraceEvent::SnapshotStall { slide, bytes, sync_policy } => {
                        stall_events += 1;
                        prop_assert!(*bytes > 0, "snapshot stall with empty snapshot file");
                        prop_assert!(*slide <= on.slides);
                        prop_assert_eq!(*sync_policy, config.policy.sync.name());
                    }
                    TraceEvent::WalRotation { segment } => {
                        rotations += 1;
                        prop_assert!(*segment >= 1);
                    }
                    _ => {}
                }
            }
        }
        prop_assert_eq!(stall_events, on.snapshots_written, "stall events == snapshots");
        // The writer opens a segment every `wal_segment_objects` appends.
        let expected_segments = on.wal_appends.div_ceil(config.policy.wal_segment_objects);
        prop_assert_eq!(rotations, expected_segments, "rotation trail == segments opened");

        std::fs::remove_dir_all(&off_dir).ok();
        std::fs::remove_dir_all(&on_dir).ok();
    }
}

/// Two observed runs over the same stream dump the same flight trail:
/// every event payload is logical (slide indices, snapshot byte sizes,
/// policy names), so the dump is reproducible run-to-run.
#[test]
fn checkpoint_trace_dump_is_deterministic() {
    let windows = WindowConfig::equal(170);
    let config = cfg(windows, SyncPolicy::FsyncPerSnapshot);
    let stream: Vec<_> = (0..200u64)
        .map(|i| {
            surge_core::SpatialObject::new(
                i,
                1.0 + (i % 3) as f64,
                surge_core::Point::new((i % 13) as f64 * 0.4, (i % 7) as f64 * 0.6),
                i * 11,
            )
        })
        .collect();

    let run = || {
        let obs = Observe::enabled();
        let dir = fresh_dir("det");
        let report =
            run_checkpointed_observed(&config, &dir, stream.iter().copied(), Tail::Finish, &obs)
                .expect("observed run");
        std::fs::remove_dir_all(&dir).ok();
        (obs.trace_dump(), report.snapshots_written)
    };
    let (dump_a, snaps_a) = run();
    let (dump_b, snaps_b) = run();
    assert!(snaps_a > 0, "run too short to snapshot");
    assert_eq!(snaps_a, snaps_b);
    assert_eq!(
        dump_a, dump_b,
        "checkpoint flight dumps diverged across runs"
    );
}
