//! Crash-at-any-point differentials for the approx detectors and the
//! overload autopilot: GAPS and MGAPS must recover **bit-identically** at
//! arbitrary cut points and shard counts, and a crash mid-degradation must
//! restore the autopilot's controller — tier, hysteresis streaks, cooldown
//! — so the resumed run walks the exact ⇄ MGAPS ⇄ GAPS lattice exactly as
//! the uninterrupted run does.
//!
//! The autopilot runs use a **residency-only** SLO (`max_residents`, read
//! from the window engine) so the transition sequence is deterministic —
//! wall-clock slide latency is disabled and cannot flip a tier.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use surge_checkpoint::{
    recover, run_checkpointed, CheckpointConfig, CheckpointPolicy, CheckpointReport, DetectorSpec,
    SyncPolicy, Tail,
};
use surge_core::{RegionAnswer, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_stream::SloPolicy;
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
/// answers bit-identical, detector counters equal, final tier equal.
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
        resumed.final_tier, full.final_tier,
        "{tag}: final tier diverges"
    );

    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
    resumed
}

/// Pinned scenario: residency sits far above the threshold for the whole
/// run, so the controller walks exact → MGAPS → GAPS early and the crash
/// is guaranteed to land **while degraded**. Recovery must restore the
/// GAPS tier (index 2) — not silently restart in exact — and still match
/// the uninterrupted run bit for bit.
#[test]
fn crash_while_degraded_resumes_in_the_degraded_tier() {
    let stream = surge_testkit::lattice_stream(vec![(3, 4, 2, 1); 120]);
    let windows = WindowConfig::equal(1_000); // everything stays resident
    let policy = SloPolicy {
        slide_latency_budget_us: 0,
        max_residents: 10,
        degrade_after: 2,
        upgrade_after: 100, // never upgrades within this run
        cooldown_slides: 1,
        drain_percent: 50,
    };
    let spec = DetectorSpec::Autopilot { shards: 2, policy };
    let config = cfg(spec, windows);
    let resumed = crash_recover_matches(&config, &stream, 80, "autopilot-degraded");
    assert_eq!(resumed.final_tier, Some(2), "run must end in the GAPS tier");
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

    /// A crash mid-degradation: the residency SLO forces the controller off
    /// the exact tier during the run, the crash can land in any tier or
    /// mid-cooldown, and recovery must restore the controller so the
    /// resumed transition sequence — and every stamped answer — matches the
    /// uninterrupted run bit for bit.
    #[test]
    fn autopilot_crash_mid_degradation_restores_controller(
        stream in arb_lattice_stream(56),
        cut_seed in 0usize..1000,
        max_residents in 8u64..40,
    ) {
        let windows = WindowConfig::equal(170);
        let cut = cut_seed % (stream.len() + 1);
        let policy = SloPolicy {
            slide_latency_budget_us: 0, // wall-clock disabled: deterministic
            max_residents,
            degrade_after: 2,
            upgrade_after: 3,
            cooldown_slides: 2,
            drain_percent: 90,
        };
        let spec = DetectorSpec::Autopilot { shards: 2, policy };
        let config = cfg(spec, windows);
        crash_recover_matches(
            &config,
            &stream,
            cut,
            &format!("autopilot-r{max_residents}-cut{cut}"),
        );
    }
}
