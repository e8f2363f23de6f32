//! Crash-anywhere recovery for the elastic mesh: a checkpointed
//! [`DetectorSpec::Elastic`] run reshards itself mid-stream (the balancer
//! decision is a pure function of flush-boundary dirty counts), and a
//! crash at *any* cut point — before, during the streak leading up to, or
//! after a reshard — must recover to the same per-slide answers bit for
//! bit, the same detector counters, and the same mesh width. The MESH
//! snapshot section carries the live shard count and balancer history;
//! WAL-replayed flushes recompute identical dirty counts and so re-trigger
//! identical split decisions.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use surge_checkpoint::{
    recover, run_checkpointed, CheckpointConfig, CheckpointDir, CheckpointPolicy, DetectorSpec,
    SyncPolicy, Tail,
};
use surge_core::{Point, RegionAnswer, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, CellCspot, SweepMode};
use surge_stream::{drive_elastic, drive_incremental, BalancerPolicy};
use surge_testkit::{arb_lattice_stream, clustered_stream};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("surge-mesh-{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn query(windows: WindowConfig) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, 0.5)
}

/// A split-happy policy so short test streams actually reshard.
fn aggressive() -> BalancerPolicy {
    BalancerPolicy {
        skew_percent: 0,
        patience: 2,
        max_shards: 8,
        min_load: 1,
    }
}

fn cfg(windows: WindowConfig, shards: usize, policy: BalancerPolicy) -> CheckpointConfig {
    CheckpointConfig {
        query: query(windows),
        windows,
        spec: DetectorSpec::Elastic {
            bound: BoundMode::Combined,
            sweep: SweepMode::Persistent,
            shards,
            policy,
        },
        slide_objects: 16,
        threads: 2,
        policy: CheckpointPolicy {
            snapshot_every_slides: 2,
            wal_segment_objects: 23,
            keep_snapshots: 2,
            sync: SyncPolicy::OsFlush,
        },
    }
}

/// Every object homed to a cell that hashes to shard 0 at width 2: one
/// shard owns the whole sweep load, so the aggressive balancer splits the
/// mesh within a few flushes.
fn hot_stream(n: usize) -> Vec<SpatialObject> {
    let hot: Vec<(i64, i64)> = (0..40i64)
        .flat_map(|i| (0..40i64).map(move |j| (i, j)))
        .filter(|&(i, j)| surge_core::shard_of_cell((i, j), 2) == 0)
        .take(12)
        .collect();
    (0..n)
        .map(|i| {
            let (cx, cy) = hot[i % hot.len()];
            SpatialObject::new(
                i as u64,
                1.0 + (i % 3) as f64,
                Point::new(cx as f64 + 0.2 + (i % 7) as f64 * 0.1, cy as f64 + 0.3),
                (i as u64) * 7,
            )
        })
        .collect()
}

fn assert_answers_bitwise(a: &[Vec<RegionAnswer>], b: &[Vec<RegionAnswer>], ctx: &str) {
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

/// The newest snapshot's MESH state — both runs snapshot on the same slide
/// cadence, so their final snapshots land at the same stream position and
/// their mesh states must agree exactly.
fn final_mesh(dir: &std::path::Path) -> surge_checkpoint::MeshState {
    let dir = CheckpointDir::create(dir).unwrap();
    let (_, state) = dir.latest_snapshot().unwrap().expect("a snapshot exists");
    state.mesh.expect("elastic runs carry MESH state")
}

/// Crash at `cut`, recover, and require bitwise answers, equal counters
/// and an identical final mesh vs the uninterrupted run.
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
    assert_eq!(
        final_mesh(&full_dir),
        final_mesh(&crash_dir),
        "{tag}: mesh state diverges after recovery"
    );

    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// The deterministic acceptance run: the skewed stream must actually
/// reshard (2 → more shards) and stay bit-identical to the unsharded
/// in-memory driver at the same cadence.
#[test]
fn skewed_checkpointed_run_reshards_and_matches_incremental() {
    let windows = WindowConfig::equal(170);
    let stream = hot_stream(160);
    let config = cfg(windows, 2, aggressive());

    let mut reference = CellCspot::with_shards(query(windows), BoundMode::Combined, 1);
    let ref_report = drive_incremental(&mut reference, windows, stream.iter().copied(), 16, 1);

    let dir = fresh_dir("accept");
    let report = run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Finish)
        .expect("checkpointed elastic run");

    let got = report.single_answers();
    assert_eq!(got.len(), ref_report.answers.len());
    for (i, (a, b)) in got.iter().zip(ref_report.answers.iter()).enumerate() {
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "slide {i}");
                assert_eq!(x.point.x.to_bits(), y.point.x.to_bits(), "slide {i}");
                assert_eq!(x.point.y.to_bits(), y.point.y.to_bits(), "slide {i}");
            }
            (None, None) => {}
            other => panic!("slide {i}: {other:?}"),
        }
    }
    let mesh = final_mesh(&dir);
    assert!(
        mesh.shards > 2,
        "the skewed stream never split the mesh: {mesh:?}"
    );
    assert!(mesh.reshards >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// One balancer policy, one reshard history: the load signal is the
/// per-shard dirty-cell counts in every driver, so the mesh driver and the
/// checkpoint runner split the same skewed stream at the same flushes.
#[test]
fn skewed_stream_reshards_at_the_same_flush_in_the_mesh_and_the_checkpoint_runner() {
    let windows = WindowConfig::equal(170);
    let slide = 16usize;
    // A whole number of slides, and the checkpoint run ends in a crash: the
    // mesh driver does not balance on its trailing partial / terminal
    // flushes, so only full-slide flushes are comparable.
    let stream = clustered_stream(30 * slide, 3, 5, 11);
    let policy = BalancerPolicy {
        skew_percent: 25,
        patience: 2,
        max_shards: 8,
        min_load: 4,
    };

    let mut mesh = CellCspot::with_shards(query(windows), BoundMode::Combined, 2);
    let report = drive_elastic(&mut mesh, windows, stream.iter().copied(), slide, policy);
    // Each epoch but the last ends on the flush that resharded.
    let mut flushes = 0u64;
    let mesh_reshards: Vec<u64> = report.epochs[..report.epochs.len() - 1]
        .iter()
        .map(|e| {
            flushes += e.slides;
            flushes - 1
        })
        .collect();
    assert!(!mesh_reshards.is_empty(), "the stream never split the mesh");

    // Snapshot after every flush and keep them all: the MESH section's
    // reshard count steps up in the snapshot taken right after a split.
    let mut config = cfg(windows, 2, policy);
    config.slide_objects = slide;
    config.policy.snapshot_every_slides = 1;
    config.policy.keep_snapshots = usize::MAX;
    let dir = fresh_dir("same-flush");
    run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Crash).expect("checkpointed");
    let mut runner_reshards = Vec::new();
    let mut seen = 0u32;
    for (_, objects, path) in CheckpointDir::create(&dir).unwrap().snapshots().unwrap() {
        let state = surge_checkpoint::CheckpointState::from_snapshot(
            &surge_io::read_snapshot_from(&path).unwrap(),
        )
        .unwrap();
        let reshards = state.mesh.expect("elastic runs carry MESH state").reshards;
        if reshards > seen {
            assert_eq!(reshards, seen + 1, "one split per flush");
            runner_reshards.push(objects / slide as u64 - 1);
            seen = reshards;
        }
    }
    assert_eq!(mesh_reshards, runner_reshards);
    assert_eq!(seen as u64, report.reshards);
    std::fs::remove_dir_all(&dir).ok();
}

/// Dense deterministic sweep of cut points across the stream stretch where
/// the reshards happen — including cuts landing exactly on the flush that
/// splits — every one must recover bit-identically.
#[test]
fn crash_around_the_reshard_recovers_bit_identically() {
    let windows = WindowConfig::equal(170);
    let stream = hot_stream(112);
    let config = cfg(windows, 2, aggressive());
    for cut in (0..=stream.len()).step_by(16) {
        crash_recover_matches(&config, &stream, cut, &format!("grid-cut{cut}"));
    }
    // Off-boundary cuts: mid-slide crashes leave a WAL tail that replays
    // through the same flush sequence.
    for cut in [19usize, 37, 50, 71, 93] {
        crash_recover_matches(&config, &stream, cut, &format!("mid-cut{cut}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary lattice streams and arbitrary cut points: whatever
    /// reshard history the balancer picks, crash + recovery reproduces it
    /// and the answers bit-match the uninterrupted run.
    #[test]
    fn crash_at_any_point_recovers_the_elastic_run(
        stream in arb_lattice_stream(60),
        cut_seed in 0usize..1000,
        patience in 1u32..3,
    ) {
        let windows = WindowConfig::equal(170);
        let cut = cut_seed % (stream.len() + 1);
        let policy = BalancerPolicy {
            skew_percent: 0,
            patience,
            max_shards: 8,
            min_load: 1,
        };
        for shards in [1usize, 2] {
            let config = cfg(windows, shards, policy);
            crash_recover_matches(
                &config,
                &stream,
                cut,
                &format!("prop-s{shards}-p{patience}-cut{cut}"),
            );
        }
    }
}
