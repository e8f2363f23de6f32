//! Non-invasiveness differentials for the observability layer: every
//! driver family run twice over the same stream — once with
//! [`Observe::off`], once with an enabled registry — must produce
//! **bitwise-identical** answers, and the enabled run's registry totals
//! must be conserved against the legacy report counters.
//!
//! This is the central contract of `surge-observe` (see its crate docs):
//! observability is *reporting only*. The proptests here cover
//! `drive_slides`, `drive_incremental`, `drive_elastic` and
//! `drive_autopilot`; `run_checkpointed` has its own differential in
//! `surge-checkpoint/tests/observe_checkpoint.rs`. Flight-recorder dumps
//! are also checked for run-to-run determinism — same stream, same dump,
//! ring wrap included — which only holds because trace events carry
//! logical time, never wall clock.

use proptest::prelude::*;
use surge_core::{
    BurstDetector, Point, RegionAnswer, RegionSize, SpatialObject, SurgeQuery, WindowConfig,
};
use surge_exact::{BoundMode, CellCspot};
use surge_observe::Observe;
use surge_stream::{
    drive_autopilot_observed, drive_autopilot_with_sink, drive_elastic_observed, drive_incremental,
    drive_incremental_observed, drive_slides, drive_slides_observed, AutopilotDetector,
    BalancerPolicy, RetainAll, SlidingWindowEngine, SloPolicy,
};
use surge_testkit::arb_lattice_stream;

fn query(alpha: f64) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(300), alpha)
}

fn assert_answer_bits(a: &Option<RegionAnswer>, b: &Option<RegionAnswer>, ctx: &str) {
    match (a, b) {
        (Some(x), Some(y)) => {
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{ctx}: score");
            assert_eq!(x.point.x.to_bits(), y.point.x.to_bits(), "{ctx}: x");
            assert_eq!(x.point.y.to_bits(), y.point.y.to_bits(), "{ctx}: y");
            assert_eq!(x.region, y.region, "{ctx}: region");
        }
        (None, None) => {}
        other => panic!("{ctx}: one side answered, the other did not: {other:?}"),
    }
}

/// A dense deterministic stream for the non-prop tests (LCG positions, a
/// few weight classes, monotone timestamps).
fn stream(n: usize, seed: u64) -> Vec<SpatialObject> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    (0..n)
        .map(|i| {
            SpatialObject::new(
                i as u64,
                1.0 + (i % 4) as f64,
                Point::new(next() * 6.0, next() * 6.0),
                (i as u64) * 9,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `drive_slides`: the observed run's detector converges to bitwise
    /// the same answer and the same counters as the unobserved run, and
    /// the registry's `driver/slides/*` family mirrors the report.
    #[test]
    fn drive_slides_is_unperturbed_by_observe(
        objs in arb_lattice_stream(200),
        alpha_pct in 0u32..100,
        slide_pow in 2u32..6,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let slide = 1usize << slide_pow;
        let q = query(alpha);

        let mut off_det = CellCspot::new(q);
        let mut off_eng = SlidingWindowEngine::new(q.windows);
        let off = drive_slides(
            &mut off_det, &mut off_eng, q.region, objs.iter().copied(), slide,
        );

        let obs = Observe::enabled();
        let mut on_det = CellCspot::new(q);
        let mut on_eng = SlidingWindowEngine::new(q.windows);
        let on = drive_slides_observed(
            &mut on_det, &mut on_eng, q.region, objs.iter().copied(), slide, &obs,
        );

        assert_answer_bits(&off_det.current(), &on_det.current(), "drive_slides terminal");
        prop_assert_eq!(off.objects, on.objects);
        prop_assert_eq!(off.events, on.events);
        prop_assert_eq!(off.slides, on.slides);
        prop_assert_eq!(off.dirty_cells, on.dirty_cells);
        prop_assert_eq!(off_det.stats(), on_det.stats());

        // Conservation: registry totals == legacy report counters.
        let snap = obs.snapshot();
        prop_assert_eq!(snap.counter("driver/slides/objects"), Some(on.objects));
        prop_assert_eq!(snap.counter("driver/slides/events"), Some(on.events));
        prop_assert_eq!(snap.counter("driver/slides/slides"), Some(on.slides));
        prop_assert_eq!(snap.counter("driver/slides/jobs"), Some(on.dirty_cells));
    }

    /// `drive_incremental`: bitwise per-slide answers and registry totals
    /// conserved against the report.
    #[test]
    fn drive_incremental_is_unperturbed_and_conserved(
        objs in arb_lattice_stream(200),
        alpha_pct in 0u32..100,
        slide_pow in 2u32..6,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let slide = 1usize << slide_pow;
        let windows = WindowConfig::equal(300);

        let mut off_det = CellCspot::new(query(alpha));
        let off = drive_incremental(&mut off_det, windows, objs.iter().copied(), slide);

        let obs = Observe::enabled();
        let mut on_det = CellCspot::new(query(alpha));
        let on = drive_incremental_observed(
            &mut on_det, windows, objs.iter().copied(), slide, &mut RetainAll, &obs,
        );

        prop_assert_eq!(off.answers.len(), on.answers.len());
        for (i, (a, b)) in off.answers.iter().zip(on.answers.iter()).enumerate() {
            assert_answer_bits(a, b, &format!("incremental slide {i}"));
        }
        prop_assert_eq!(off.jobs, on.jobs);
        prop_assert_eq!(off_det.stats(), on_det.stats());

        let snap = obs.snapshot();
        prop_assert_eq!(snap.counter("incremental/objects"), Some(on.objects));
        prop_assert_eq!(snap.counter("incremental/events"), Some(on.events));
        prop_assert_eq!(snap.counter("incremental/slides"), Some(on.slides));
        prop_assert_eq!(snap.counter("incremental/jobs"), Some(on.jobs));
        prop_assert_eq!(snap.counter("incremental/searches"), Some(on.stats.searches));
    }

    /// `drive_elastic`: bitwise answers observed vs not across arbitrary
    /// reshard histories, with epoch-labelled registry counters
    /// conserved against the report, and the per-shard sweep counters
    /// summing to the *sequential* driver's job count.
    #[test]
    fn drive_elastic_is_unperturbed_and_conserved(
        objs in arb_lattice_stream(200),
        alpha_pct in 0u32..100,
        slide_pow in 2u32..6,
        shard_pow in 0u32..3,
        patience in 1u32..4,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let slide = 1usize << slide_pow;
        let shards = 1usize << shard_pow;
        let windows = WindowConfig::equal(300);
        let policy = BalancerPolicy {
            skew_percent: 0,
            patience,
            max_shards: 16,
            min_load: 1,
        };

        let mut seq_det = CellCspot::with_shards(query(alpha), BoundMode::Combined, 1);
        let seq = drive_incremental(&mut seq_det, windows, objs.iter().copied(), slide);

        let mut off_det = CellCspot::with_shards(query(alpha), BoundMode::Combined, shards);
        let off = drive_elastic_observed(
            &mut off_det, windows, objs.iter().copied(), slide, policy,
            &mut RetainAll, &Observe::off(),
        );

        let obs = Observe::enabled();
        let mut on_det = CellCspot::with_shards(query(alpha), BoundMode::Combined, shards);
        let on = drive_elastic_observed(
            &mut on_det, windows, objs.iter().copied(), slide, policy,
            &mut RetainAll, &obs,
        );

        prop_assert_eq!(off.answers.len(), on.answers.len());
        for (i, (a, b)) in off.answers.iter().zip(on.answers.iter()).enumerate() {
            assert_answer_bits(a, b, &format!("elastic slide {i}"));
        }
        assert_answer_bits(&off.final_answer, &on.final_answer, "elastic terminal");
        prop_assert_eq!(off.sweeps, on.sweeps);
        prop_assert_eq!(off.reshards, on.reshards);
        prop_assert_eq!(off.final_shards, on.final_shards);
        prop_assert_eq!(off_det.stats(), on_det.stats());

        let snap = obs.snapshot();
        prop_assert_eq!(snap.counter("elastic/objects"), Some(on.objects));
        prop_assert_eq!(snap.counter("elastic/events"), Some(on.events));
        prop_assert_eq!(snap.counter("elastic/slides"), Some(on.slides));
        prop_assert_eq!(snap.counter("elastic/sweeps"), Some(on.sweeps));
        prop_assert_eq!(snap.counter("elastic/reshards"), Some(on.reshards));
        prop_assert_eq!(
            snap.gauge("elastic/final_shards"),
            Some(on.final_shards as i64)
        );
        // Epoch-labelled families are partitions of the totals.
        let epoch_sweeps = snap.sum_counters(|p| {
            p.starts_with("elastic/epoch=") && p.ends_with("/sweeps")
        });
        prop_assert_eq!(epoch_sweeps, on.sweeps, "epoch sweeps partition the total");
        // Sharding and resharding move sweeps; they never invent any.
        prop_assert_eq!(epoch_sweeps, seq.jobs, "per-shard sweeps == sequential jobs");
        let touches = snap.sum_counters(|p| {
            p.starts_with("elastic/epoch=") && p.ends_with("/cell_touches")
        });
        let report_touches: u64 = on
            .epochs
            .iter()
            .flat_map(|e| e.shard_stats.iter().map(|s| s.cell_touches))
            .sum();
        prop_assert_eq!(touches, report_touches, "per-shard touches match the report");
        let epoch_slides = snap.sum_counters(|p| {
            p.starts_with("elastic/epoch=") && p.ends_with("/slides")
        });
        prop_assert_eq!(epoch_slides, on.slides, "epoch slides partition the total");
    }
}

/// `drive_autopilot` under residency pressure (real tier transitions):
/// answers and quality stamps bitwise identical observed vs not, tier
/// counters conserved, and the `TierSwitch` flight trail matches the
/// report's transition count.
#[test]
fn drive_autopilot_is_unperturbed_and_conserved() {
    // The residency-pressure stream from the autopilot's own tests: the
    // middle third freezes timestamps so the current window floods.
    let mut objs = Vec::new();
    let mut t = 0u64;
    for i in 0..900u64 {
        if !(300..600).contains(&i) {
            t += 20;
        }
        objs.push(SpatialObject::new(
            i,
            1.0 + (i % 3) as f64,
            Point::new((i % 37) as f64 * 0.2, (i % 23) as f64 * 0.3),
            t,
        ));
    }
    let q = query(0.5);
    let policy = SloPolicy {
        slide_latency_budget_us: 0,
        max_residents: 100,
        degrade_after: 2,
        upgrade_after: 2,
        cooldown_slides: 1,
        drain_percent: 80,
    };

    let mut off_det = AutopilotDetector::new(q, policy);
    let mut off_eng = SlidingWindowEngine::new(q.windows);
    let off = drive_autopilot_with_sink(
        &mut off_det,
        &mut off_eng,
        objs.iter().copied(),
        30,
        &mut RetainAll,
    );

    let obs = Observe::enabled();
    let mut on_det = AutopilotDetector::new(q, policy);
    let mut on_eng = SlidingWindowEngine::new(q.windows);
    let on = drive_autopilot_observed(
        &mut on_det,
        &mut on_eng,
        objs.iter().copied(),
        30,
        &mut RetainAll,
        &obs,
    );

    assert_eq!(off.answers.len(), on.answers.len());
    for (i, ((a, qa), (b, qb))) in off.answers.iter().zip(on.answers.iter()).enumerate() {
        assert_answer_bits(a, b, &format!("autopilot slide {i}"));
        assert_eq!(qa.tier, qb.tier, "slide {i} quality tier");
        assert_eq!(
            qa.error_bound.to_bits(),
            qb.error_bound.to_bits(),
            "slide {i} error bound"
        );
    }
    assert_eq!(off.transitions, on.transitions);
    assert_eq!(off.final_tier, on.final_tier);
    assert_eq!(off.slides_in_tier, on.slides_in_tier);
    assert!(on.transitions > 0, "pressure stream never switched tiers");

    // Conservation against the report.
    let snap = obs.snapshot();
    assert_eq!(snap.counter("autopilot/objects"), Some(on.objects));
    assert_eq!(snap.counter("autopilot/events"), Some(on.events));
    assert_eq!(snap.counter("autopilot/slides"), Some(on.slides));
    assert_eq!(snap.counter("autopilot/transitions"), Some(on.transitions));
    let tier_slides =
        snap.sum_counters(|p| p.starts_with("autopilot/tier=") && p.ends_with("/slides"));
    assert_eq!(tier_slides, on.slides, "tier slides partition the total");
    // The flight ring holds exactly the report's transitions, in order.
    let dump = obs.trace_dump();
    let switches: Vec<_> = dump
        .workers
        .iter()
        .flat_map(|w| w.events.iter())
        .filter(|e| matches!(e, surge_observe::TraceEvent::TierSwitch { .. }))
        .collect();
    assert_eq!(switches.len() as u64, on.transitions);
}

/// Flight dumps are deterministic: two observed runs over the same stream
/// produce identical trace dumps — including when a tiny ring capacity
/// forces every worker's ring to wrap (satellite: ring-wrap determinism).
#[test]
fn flight_dumps_are_deterministic_across_runs_with_ring_wrap() {
    let objs = stream(600, 0x0B5E_7DE7);
    let windows = WindowConfig::equal(300);

    // Split-happy, so the dump also covers a reshard: one driver ring plus
    // one ring per worker per epoch.
    let policy = BalancerPolicy {
        skew_percent: 0,
        patience: 8,
        max_shards: 8,
        min_load: 1,
    };
    let run = |cap: usize| {
        let obs = Observe::with_flight_capacity(cap);
        let mut det = CellCspot::with_shards(query(0.5), BoundMode::Combined, 4);
        let report = drive_elastic_observed(
            &mut det,
            windows,
            objs.iter().copied(),
            16,
            policy,
            &mut RetainAll,
            &obs,
        );
        assert_eq!(
            report.reshards, 1,
            "the stream must cross one epoch boundary"
        );
        (obs.trace_dump(), report.slides)
    };

    // Capacity 4 with ~38 slides: the per-shard rings wrap many times.
    let (dump_a, slides_a) = run(4);
    let (dump_b, slides_b) = run(4);
    assert_eq!(slides_a, slides_b);
    assert_eq!(dump_a, dump_b, "ring-wrapped dumps diverged across runs");
    assert!(
        dump_a.workers.iter().any(|w| w.dropped > 0),
        "capacity 4 never wrapped — the wrap case was not exercised"
    );
    // And with a roomy ring, the retained trail is the full flush history.
    let (dump_full, _) = run(1024);
    let (dump_full_b, _) = run(1024);
    assert_eq!(dump_full, dump_full_b);
    assert!(dump_full.workers.iter().all(|w| w.dropped == 0));
    assert!(dump_full.len() > dump_a.len());
}
