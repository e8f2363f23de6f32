//! Crash-at-any-point differential tests: snapshot + WAL-tail replay must
//! produce **bit-identical** per-slide and terminal answers to the
//! uninterrupted run — for arbitrary cut points, at 1/2/8 shards, and for
//! the Base and top-k detector families.
//!
//! Streams come from `surge-testkit`'s collision-heavy generators (the
//! workspace rule: differential code draws from the shared toolkit).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use surge_checkpoint::{
    recover, run_checkpointed, CheckpointConfig, CheckpointDir, CheckpointError, CheckpointPolicy,
    CheckpointReport, DetectorSpec, SyncPolicy, Tail, Wal,
};
use surge_core::{RegionAnswer, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, CellCspot, SweepMode};
use surge_stream::drive_incremental;
use surge_testkit::arb_lattice_stream;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("surge-ckpt-{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn query(windows: WindowConfig) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, 0.5)
}

fn cfg(spec: DetectorSpec, windows: WindowConfig) -> CheckpointConfig {
    CheckpointConfig {
        query: query(windows),
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

/// The files directly in `dir` with extension `ext`, sorted.
fn files_with_extension(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    files
}

/// Runs the crash-and-recover cycle for one config and compares against an
/// uninterrupted checkpointed run of the same config.
fn crash_recover_matches(
    config: &CheckpointConfig,
    stream: &[SpatialObject],
    cut: usize,
    tag: &str,
) -> CheckpointReport {
    let full_dir = fresh_dir(&format!("{tag}-full"));
    let full = run_checkpointed(config, &full_dir, stream.iter().copied(), Tail::Finish)
        .expect("uninterrupted run");

    let crash_dir = fresh_dir(&format!("{tag}-crash"));
    let crashed = run_checkpointed(
        config,
        &crash_dir,
        stream.iter().take(cut).copied(),
        Tail::Crash,
    )
    .expect("crashed run");
    assert_eq!(crashed.objects, cut as u64);

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
    resumed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance matrix: arbitrary cut points × {1, 2, 8} shards ×
    /// every WAL sync tier, answers bit-identical per slide and terminally
    /// — and identical to `drive_incremental` at the same cadence.
    #[test]
    fn crash_at_any_point_is_bit_identical(
        stream in arb_lattice_stream(60),
        cut_seed in 0usize..1000,
    ) {
        let windows = WindowConfig::equal(170);
        let cut = cut_seed % (stream.len() + 1);

        // Cross-check target: the in-memory incremental driver.
        let mut reference = CellCspot::with_shards(query(windows), BoundMode::Combined, 1);
        let ref_report = drive_incremental(
            &mut reference,
            windows,
            stream.iter().copied(),
            16,
        );

        let tiers = [SyncPolicy::OsFlush, SyncPolicy::FsyncPerSnapshot, SyncPolicy::FsyncPerSlide];
        for (shards, sync) in [1usize, 2, 8].into_iter().flat_map(|s| tiers.map(|t| (s, t))) {
            let spec = DetectorSpec::Cell {
                bound: BoundMode::Combined,
                sweep: SweepMode::Persistent,
                shards,
            };
            let mut config = cfg(spec, windows);
            config.policy.sync = sync;
            let tag = format!("cell-s{shards}-{sync:?}-cut{cut}");
            let resumed = crash_recover_matches(&config, &stream, cut, &tag);

            // The recovered answer sequence equals the plain driver's.
            let got = resumed.single_answers();
            prop_assert_eq!(got.len(), ref_report.answers.len());
            for (i, (a, b)) in got.iter().zip(ref_report.answers.iter()).enumerate() {
                match (a, b) {
                    (Some(x), Some(y)) => {
                        prop_assert_eq!(x.score.to_bits(), y.score.to_bits(), "{} slide {}", &tag, i);
                        prop_assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                        prop_assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                    }
                    (None, None) => {}
                    other => prop_assert!(false, "{} slide {}: {:?}", &tag, i, other),
                }
            }
        }
    }

    /// Base and top-k recover bit-identically too.
    #[test]
    fn other_detector_families_recover_bit_identically(
        stream in arb_lattice_stream(48),
        cut_seed in 0usize..1000,
    ) {
        let windows = WindowConfig::new(150, 70);
        let cut = cut_seed % (stream.len() + 1);
        for (spec, tag) in [
            (DetectorSpec::Base, "base"),
            (DetectorSpec::TopK { k: 3 }, "topk3"),
        ] {
            let config = cfg(spec, windows);
            crash_recover_matches(&config, &stream, cut, &format!("{tag}-cut{cut}"));
        }
    }

    /// Losing the unsynced WAL tail (a harder crash) still recovers
    /// bit-identically: the lost suffix is re-read from the source.
    #[test]
    fn torn_wal_tail_recovers_from_the_source(
        stream in arb_lattice_stream(48),
        cut_seed in 0usize..1000,
        chop in 1usize..200,
    ) {
        let windows = WindowConfig::equal(140);
        let cut = cut_seed % (stream.len() + 1);
        let spec = DetectorSpec::Cell {
            bound: BoundMode::Combined,
            sweep: SweepMode::Persistent,
            shards: 2,
        };
        let config = cfg(spec, windows);

        let full_dir = fresh_dir("torn-full");
        let full = run_checkpointed(&config, &full_dir, stream.iter().copied(), Tail::Finish)
            .expect("uninterrupted run");

        let crash_dir = fresh_dir("torn-crash");
        run_checkpointed(
            &config,
            &crash_dir,
            stream.iter().take(cut).copied(),
            Tail::Crash,
        )
        .expect("crashed run");

        // Chop bytes off the newest WAL segment — the torn tail a hard
        // kill leaves behind.
        let wal_dir = crash_dir.join("wal");
        if let Ok(entries) = std::fs::read_dir(&wal_dir) {
            let mut segs: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
            segs.sort();
            if let Some(tail_seg) = segs.last() {
                let bytes = std::fs::read(tail_seg).unwrap();
                let keep = bytes.len().saturating_sub(chop);
                std::fs::write(tail_seg, &bytes[..keep]).unwrap();
            }
        }

        let resumed = recover(&config, &crash_dir, stream.iter().copied(), Tail::Finish)
            .expect("recovery after torn tail");
        assert_answers_bitwise(full.answers.retained(), resumed.answers.retained(), "torn-tail");
        prop_assert_eq!(resumed.objects, stream.len() as u64);

        std::fs::remove_dir_all(&full_dir).ok();
        std::fs::remove_dir_all(&crash_dir).ok();
    }
}

/// A corrupt newest snapshot must not sink recovery: it falls back to the
/// previous snapshot (or logical zero) and still resumes bit-identically.
#[test]
fn corrupt_newest_snapshot_falls_back() {
    let stream = surge_testkit::clustered_stream(120, 4, 9, 77);
    let windows = WindowConfig::equal(300);
    let spec = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 2,
    };
    let config = cfg(spec, windows);

    let full_dir = fresh_dir("fallback-full");
    let full = run_checkpointed(&config, &full_dir, stream.iter().copied(), Tail::Finish).unwrap();

    let crash_dir = fresh_dir("fallback-crash");
    let crashed = run_checkpointed(
        &config,
        &crash_dir,
        stream.iter().take(100).copied(),
        Tail::Crash,
    )
    .unwrap();
    assert!(crashed.snapshots_written >= 2, "need snapshots to corrupt");

    // Flip a byte in the newest snapshot file.
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&crash_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .collect();
    snaps.sort();
    let newest = snaps.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(newest, &bytes).unwrap();

    let resumed = recover(&config, &crash_dir, stream.iter().copied(), Tail::Finish).unwrap();
    assert_answers_bitwise(
        full.answers.retained(),
        resumed.answers.retained(),
        "fallback",
    );
    // It really did fall back: the resume point predates the corrupt
    // snapshot's coverage.
    assert!(resumed.resumed_at.unwrap() < crashed.objects);

    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// Recovery with no snapshot at all (crash before the first one) replays
/// the whole WAL.
#[test]
fn recovery_without_any_snapshot_replays_the_wal() {
    let stream = surge_testkit::clustered_stream(40, 3, 11, 5);
    let windows = WindowConfig::equal(250);
    let spec = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 1,
    };
    let mut config = cfg(spec, windows);
    config.policy.snapshot_every_slides = 1000; // never during this run

    let full_dir = fresh_dir("nosnap-full");
    let full = run_checkpointed(&config, &full_dir, stream.iter().copied(), Tail::Finish).unwrap();

    let crash_dir = fresh_dir("nosnap-crash");
    let crashed = run_checkpointed(
        &config,
        &crash_dir,
        stream.iter().take(29).copied(),
        Tail::Crash,
    )
    .unwrap();
    assert_eq!(crashed.snapshots_written, 0);

    let resumed = recover(&config, &crash_dir, stream.iter().copied(), Tail::Finish).unwrap();
    assert_eq!(resumed.resumed_at, None);
    assert_eq!(resumed.replayed_from_wal, 29);
    assert_answers_bitwise(
        full.answers.retained(),
        resumed.answers.retained(),
        "nosnap",
    );

    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// Config mismatches are rejected loudly, not silently misrecovered.
#[test]
fn recover_rejects_mismatched_config() {
    let stream = surge_testkit::clustered_stream(64, 3, 9, 13);
    let windows = WindowConfig::equal(200);
    let spec = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 2,
    };
    let config = cfg(spec, windows);
    let dir = fresh_dir("mismatch");
    run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Crash).unwrap();

    let mut wrong_spec = config;
    wrong_spec.spec = DetectorSpec::Base;
    assert!(recover(&wrong_spec, &dir, stream.iter().copied(), Tail::Finish).is_err());

    let mut wrong_slide = config;
    wrong_slide.slide_objects = 7;
    assert!(recover(&wrong_slide, &dir, stream.iter().copied(), Tail::Finish).is_err());

    // A window-config mismatch is just as loud — the engine would
    // otherwise silently resume under the snapshot's windows.
    let mut wrong_windows = config;
    wrong_windows.windows = WindowConfig::equal(999);
    assert!(recover(&wrong_windows, &dir, stream.iter().copied(), Tail::Finish).is_err());

    // Starting a *fresh* run over existing state is rejected too.
    assert!(run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Finish).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

/// An out-of-order arrival is rejected *before* it reaches the WAL: bad
/// input must never poison the durable log, and the directory must remain
/// recoverable afterwards.
#[test]
fn out_of_order_arrival_is_rejected_before_the_wal() {
    let windows = WindowConfig::equal(200);
    let spec = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 2,
    };
    let config = cfg(spec, windows);
    let dir = fresh_dir("ooo");

    let mut stream = surge_testkit::clustered_stream(40, 3, 9, 17);
    stream[33].created = 0; // regresses far behind the engine clock

    let err = run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Finish)
        .expect_err("out-of-order arrival must be rejected");
    assert!(err.to_string().contains("timestamp-ordered"), "{err}");

    // The poison object never became durable: recovery over the corrected
    // stream replays the 33 good objects and finishes cleanly.
    let good = surge_testkit::clustered_stream(40, 3, 9, 17);
    let resumed = recover(&config, &dir, good.iter().copied(), Tail::Finish).unwrap();
    assert_eq!(resumed.objects, good.len() as u64);
    assert_eq!(
        resumed.replayed_from_wal + resumed.resumed_at.unwrap_or(0),
        33
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// WAL segments fully covered by the oldest retained snapshot are garbage
/// collected; old snapshots are retired per policy.
#[test]
fn wal_and_snapshot_gc_respect_retention() {
    let stream = surge_testkit::uniform_stream(400, 21);
    let windows = WindowConfig::equal(400);
    let spec = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 2,
    };
    let mut config = cfg(spec, windows);
    config.policy = CheckpointPolicy {
        snapshot_every_slides: 2,
        wal_segment_objects: 16,
        keep_snapshots: 2,
        sync: SyncPolicy::OsFlush,
    };
    let dir = fresh_dir("gc");
    let report = run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Finish).unwrap();
    assert!(report.snapshots_written > 3);

    let snaps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(snaps.len(), 2, "retention keeps the newest two snapshots");

    let segs: Vec<_> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .filter_map(|e| e.ok())
        .collect();
    let expected_max = (stream.len() as u64 / 16 + 2) as usize;
    assert!(
        segs.len() < expected_max,
        "covered segments were collected: {} live, {expected_max} written",
        segs.len()
    );

    // The pause histogram recorded every snapshot stall.
    assert_eq!(report.pause.count, report.snapshots_written);
    assert!(report.pause.max_us > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

/// A crash right after the newest snapshot of a *finished* run: recovery
/// must resume in the slide phase the snapshot was taken in — past the
/// partial-slide flush, or past the terminal flush — and emit exactly the
/// uninterrupted run's answers, without repeating a flush.
fn recovery_after_finish_repeats_no_flush(n: usize, flushes: usize) {
    let stream = surge_testkit::clustered_stream(n, 4, 6, 0xFEED);
    let spec = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 1,
    };
    let config = cfg(spec, WindowConfig::equal(170));
    let dir = fresh_dir(&format!("finished-{n}"));
    let full = run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Finish).unwrap();
    assert_eq!(full.answers.retained().len(), flushes);

    let resumed = recover(&config, &dir, stream.iter().copied(), Tail::Finish).unwrap();
    assert_eq!(
        resumed.resumed_at,
        Some(n as u64),
        "resumed from the last snapshot"
    );
    assert_eq!(resumed.slides, full.slides);
    assert_answers_bitwise(
        full.answers.retained(),
        resumed.answers.retained(),
        &format!("finished-{n}"),
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// 16 + 5 objects: the snapshot lands on the partial-slide flush (the
/// second), so recovery owes only the drain and the terminal flush.
#[test]
fn recovery_from_the_partial_flush_snapshot_repeats_no_flush() {
    recovery_after_finish_repeats_no_flush(21, 3);
}

/// 16 + 16 + 5 objects: the snapshot lands on the terminal flush (the
/// fourth), so recovery owes nothing.
#[test]
fn recovery_from_the_terminal_flush_snapshot_repeats_no_flush() {
    recovery_after_finish_repeats_no_flush(37, 4);
}

/// A run resumed past its end of stream takes no further arrival.
#[test]
fn a_finished_run_rejects_further_arrivals() {
    let stream = surge_testkit::clustered_stream(37, 4, 6, 0xFEED);
    let spec = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 1,
    };
    let config = cfg(spec, WindowConfig::equal(170));
    let dir = fresh_dir("finished-more");
    run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Finish).unwrap();
    let longer = surge_testkit::clustered_stream(60, 4, 6, 0xFEED);
    let err = recover(&config, &dir, longer.iter().copied(), Tail::Finish)
        .expect_err("the run already finished");
    assert!(matches!(err, CheckpointError::Config(_)), "{err}");
    assert!(err.to_string().contains("end of stream"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `TopK { k: 0 }` and a grid detector with any shard count but 1 are
/// configuration errors, not panics, on both entry points.
#[test]
fn top_k_zero_is_a_config_error() {
    let stream = surge_testkit::clustered_stream(20, 3, 9, 3);
    for spec in [
        DetectorSpec::TopK { k: 0 },
        DetectorSpec::Gaps { shards: 3 },
        DetectorSpec::Mgaps { shards: 0 },
        DetectorSpec::Gaps { shards: 2 },
        DetectorSpec::Mgaps { shards: 4 },
    ] {
        let config = cfg(spec, WindowConfig::equal(170));
        let dir = fresh_dir("bad-spec-run");
        let err = run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Finish)
            .expect_err("the spec is rejected");
        assert!(matches!(err, CheckpointError::Config(_)), "{spec:?}: {err}");
        std::fs::remove_dir_all(&dir).ok();

        let dir = fresh_dir("bad-spec-recover");
        let err = recover(&config, &dir, stream.iter().copied(), Tail::Finish)
            .expect_err("the spec is rejected");
        assert!(matches!(err, CheckpointError::Config(_)), "{spec:?}: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The CCS spec the writer-lifecycle tests run: slides of 16 objects and a
/// snapshot every 2 slides put snapshot `n` at `32 n` objects.
fn lifecycle_spec() -> DetectorSpec {
    DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 2,
    }
}

/// A snapshot write that fails on the background writer — here a directory
/// squatting on the second snapshot's temporary path — surfaces as
/// `CheckpointError::Io` instead of hanging the run, and never collects the
/// WAL the surviving snapshot needs: once the squatter is gone, recovery is
/// bit-identical to an uninterrupted run.
#[test]
fn failed_snapshot_write_surfaces_and_keeps_the_wal() {
    let stream = surge_testkit::clustered_stream(120, 4, 9, 31);
    let mut config = cfg(lifecycle_spec(), WindowConfig::equal(300));
    // One retained snapshot: the second would collect the WAL up to 64.
    config.policy.keep_snapshots = 1;

    let full_dir = fresh_dir("squat-full");
    let full = run_checkpointed(&config, &full_dir, stream.iter().copied(), Tail::Finish).unwrap();

    let dir = fresh_dir("squat");
    let squatter = dir.join("snap-0000000002-000000000064.tmp");
    std::fs::create_dir_all(&squatter).unwrap();
    let err = run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Finish)
        .expect_err("the second snapshot cannot be written");
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");

    let snaps = files_with_extension(&dir, "snap");
    assert_eq!(
        snaps,
        vec![dir.join("snap-0000000001-000000000032.snap")],
        "only the first snapshot landed"
    );
    let wal = Wal::recover(dir.join("wal")).unwrap();
    assert!(
        wal.start_index <= 32,
        "WAL collected past the surviving snapshot: starts at {}",
        wal.start_index
    );

    std::fs::remove_dir(&squatter).unwrap();
    let resumed = recover(&config, &dir, stream.iter().copied(), Tail::Finish).unwrap();
    assert_eq!(resumed.resumed_at, Some(32));
    assert_answers_bitwise(full.answers.retained(), resumed.answers.retained(), "squat");
    assert_eq!(resumed.stats, full.stats);

    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A run that fails one object after handing a snapshot to the writer
/// still waits for it: no `.tmp` is left behind and the newest `.snap`
/// decodes to the state captured at the hand-off.
#[test]
fn a_run_that_errors_after_a_snapshot_leaves_it_complete() {
    let config = cfg(lifecycle_spec(), WindowConfig::equal(200));
    let mut stream = surge_testkit::clustered_stream(40, 3, 9, 17);
    // The arrival right after the snapshot at 32 objects regresses the
    // clock and fails the run.
    stream[32].created = 0;
    let dir = fresh_dir("err-after-snap");
    let err = run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Finish)
        .expect_err("out-of-order arrival must be rejected");
    assert!(err.to_string().contains("timestamp-ordered"), "{err}");

    assert_eq!(files_with_extension(&dir, "tmp"), Vec::<PathBuf>::new());
    let (path, state) = CheckpointDir::create(&dir)
        .unwrap()
        .latest_snapshot()
        .unwrap()
        .expect("the handed-off snapshot is on disk");
    assert_eq!(path, dir.join("snap-0000000001-000000000032.snap"));
    assert_eq!(state.meta.objects_ingested, 32);

    std::fs::remove_dir_all(&dir).ok();
}

/// A crash between the writer's fsync and its rename leaves a `snap-*.tmp`
/// beside the valid snapshots — simulated here as a truncated one.
/// Recovery ignores it and resumes bit-identically, and the recovered
/// run's write of that snapshot replaces it.
#[test]
fn stray_snapshot_tmp_is_ignored_and_replaced() {
    let stream = surge_testkit::clustered_stream(160, 4, 9, 53);
    let mut config = cfg(lifecycle_spec(), WindowConfig::equal(300));
    config.policy.keep_snapshots = 8;

    let full_dir = fresh_dir("stray-full");
    let full = run_checkpointed(&config, &full_dir, stream.iter().copied(), Tail::Finish).unwrap();

    let dir = fresh_dir("stray");
    let crashed =
        run_checkpointed(&config, &dir, stream.iter().take(100).copied(), Tail::Crash).unwrap();
    assert_eq!(crashed.snapshots_written, 3);
    let newest = std::fs::read(dir.join("snap-0000000003-000000000096.snap")).unwrap();
    let stray = dir.join("snap-0000000004-000000000128.tmp");
    std::fs::write(&stray, &newest[..newest.len() / 2]).unwrap();

    let resumed = recover(&config, &dir, stream.iter().copied(), Tail::Finish).unwrap();
    assert_eq!(
        resumed.resumed_at,
        Some(96),
        "the stray file is not a snapshot"
    );
    assert_answers_bitwise(full.answers.retained(), resumed.answers.retained(), "stray");
    assert!(!stray.exists(), "the next write replaced the stray file");
    let replaced = std::fs::read(dir.join("snap-0000000004-000000000128.snap")).unwrap();
    let expected = std::fs::read(full_dir.join("snap-0000000004-000000000128.snap")).unwrap();
    assert_eq!(
        replaced, expected,
        "the replacement is the uninterrupted run's snapshot"
    );

    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}
