//! The serving layer's bit-identity contract: every subscription's answer
//! stream equals a dedicated single-query run over the stream suffix the
//! subscription lived through — across engine lane counts, detector
//! flavors, dedup sharing, and mid-stream register/deregister churn.

use proptest::prelude::*;
use surge_checkpoint::{DetectorSpec, SpecDetector};
use surge_core::{RegionAnswer, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, CellCspot, SweepMode};
use surge_serve::{ServeConfig, SubId, SurgeServer};
use surge_stream::{drive_incremental, QueryRuntime};
use surge_testkit::ticked_stream;

/// The dedicated single-query run a subscription must match: the same
/// detector flavor on its own monolithic-engine [`QueryRuntime`].
fn independent_run(
    query: SurgeQuery,
    spec: DetectorSpec,
    objs: &[SpatialObject],
    slide: usize,
    threads: usize,
) -> Vec<Vec<RegionAnswer>> {
    let det = SpecDetector::build(&spec, query).expect("servable spec");
    let mut rt = QueryRuntime::new(det, query.windows, slide, threads);
    let mut answers = Vec::new();
    rt.run(objs.iter().copied(), |_seq, a| answers.push(a));
    answers
}

fn assert_flushes_bitwise(got: &[Vec<RegionAnswer>], want: &[Vec<RegionAnswer>], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: flush count diverged");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{label} flush {i}: answer count diverged");
        for (a, b) in g.iter().zip(w) {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{label} flush {i}");
            assert_eq!(
                a.point.x.to_bits(),
                b.point.x.to_bits(),
                "{label} flush {i}"
            );
            assert_eq!(
                a.point.y.to_bits(),
                b.point.y.to_bits(),
                "{label} flush {i}"
            );
            assert_eq!(a.region, b.region, "{label} flush {i}");
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_sub(
    server: &SurgeServer,
    sub: SubId,
    query: SurgeQuery,
    spec: DetectorSpec,
    suffix: &[SpatialObject],
    slide: usize,
    threads: usize,
    label: &str,
) {
    let want = independent_run(query, spec, suffix, slide, threads);
    let log = server.answers(sub).expect("live subscription");
    assert_eq!(log.released(), 0, "{label}: nothing was acked");
    assert_flushes_bitwise(log.retained(), &want, label);
}

fn cell_spec() -> DetectorSpec {
    DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// N concurrent subscriptions — duplicated queries, mixed flavors, two
    /// window configurations — each match their dedicated run. The exact
    /// flavor is additionally cross-checked against `drive_incremental`,
    /// the driver a dedicated process would use.
    #[test]
    fn concurrent_subscriptions_match_independent_runs(
        raw in prop::collection::vec((0u32..18, 0u32..12, 0u32..8), 16..160),
        per_tick in 1u64..4,
        tick in 5u64..50,
        win in 60u64..320,
        slide in 1usize..24,
        threads in 1usize..4,
    ) {
        let objs = ticked_stream(raw, per_tick, tick);
        let w1 = WindowConfig::equal(win);
        let w2 = WindowConfig::new(win + win / 2, win / 2 + 1);

        let q1 = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), w1, 0.3);
        let q3 = SurgeQuery::whole_space(RegionSize::new(1.5, 0.8), w1, 0.6);
        let q5 = SurgeQuery::whole_space(RegionSize::new(0.9, 1.2), w2, 0.5);

        let panel: Vec<(SurgeQuery, DetectorSpec)> = vec![
            (q1, cell_spec()),
            (q1, cell_spec()), // bitwise duplicate: shares the group
            (q3, DetectorSpec::Base { pruned: true }),
            (q1, DetectorSpec::TopK { k: 3 }), // same query, new flavor: own group, same lane
            (q5, DetectorSpec::Gaps { shards: 2 }),
            (q5, DetectorSpec::Mgaps { shards: 1 }),
        ];

        let mut server = SurgeServer::new(ServeConfig { slide_objects: slide, threads });
        let subs: Vec<SubId> = panel
            .iter()
            .map(|(q, s)| server.subscribe(*q, *s).unwrap())
            .collect();

        let stats = server.stats();
        prop_assert_eq!(stats.subscriptions, 6);
        prop_assert_eq!(stats.groups, 5, "the duplicate dedupes");
        prop_assert_eq!(stats.lanes, 2, "two window configs, two lanes");

        for obj in &objs {
            server.ingest(*obj);
        }
        server.finish();

        for (i, ((q, s), sub)) in panel.iter().zip(&subs).enumerate() {
            check_sub(&server, *sub, *q, *s, &objs, slide, threads, &format!("panel[{i}]"));
        }

        // The deduped pair shares one detector but both channels carry the
        // full stream.
        let (a, b) = (server.answers(subs[0]).unwrap(), server.answers(subs[1]).unwrap());
        assert_flushes_bitwise(a.retained(), b.retained(), "dedup twins");

        // Exact flavor vs the dedicated incremental driver.
        let mut det = CellCspot::with_sweep_mode(q1, BoundMode::Combined, SweepMode::Persistent, 1);
        let rep = drive_incremental(&mut det, w1, objs.iter().copied(), slide, threads);
        let served = server.answers(subs[0]).unwrap();
        prop_assert_eq!(served.len(), rep.answers.len());
        for (got, want) in served.iter().zip(rep.answers.iter()) {
            match (got.as_slice(), want) {
                ([g], Some(w)) => {
                    prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
                    prop_assert_eq!(g.point.x.to_bits(), w.point.x.to_bits());
                    prop_assert_eq!(g.point.y.to_bits(), w.point.y.to_bits());
                }
                ([], None) => {}
                other => prop_assert!(false, "presence diverged: {:?}", other),
            }
        }
    }

    /// Mid-stream churn: a deregistered channel froze at its last delivered
    /// flush; a subscription registered mid-stream matches a dedicated run
    /// over the suffix it actually saw — including a late bitwise duplicate
    /// of an already-running query, which gets its own lane (it must not
    /// inherit window history it never subscribed to).
    #[test]
    fn register_and_deregister_mid_stream(
        raw in prop::collection::vec((0u32..16, 0u32..10, 0u32..8), 24..140),
        per_tick in 1u64..4,
        tick in 5u64..40,
        win in 60u64..260,
        slide in 1usize..16,
        cut_pct in 20usize..80,
    ) {
        let objs = ticked_stream(raw, per_tick, tick);
        let cut = objs.len() * cut_pct / 100;
        let (prefix, suffix) = objs.split_at(cut);
        let threads = 2;
        let w = WindowConfig::equal(win);

        let qa = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), w, 0.4);
        let qb = SurgeQuery::whole_space(RegionSize::new(1.2, 0.7), w, 0.6);
        let qc = SurgeQuery::whole_space(RegionSize::new(0.8, 0.8), w, 0.5);

        let mut server = SurgeServer::new(ServeConfig { slide_objects: slide, threads });
        let a = server.subscribe(qa, cell_spec()).unwrap();
        let b = server.subscribe(qb, DetectorSpec::Base { pruned: false }).unwrap();

        for obj in prefix {
            server.ingest(*obj);
        }

        // Deregister B mid-stream: its channel holds exactly the full
        // slides delivered so far — a prefix of the dedicated run.
        let b_log = server.unsubscribe(b).unwrap();
        prop_assert_eq!(b_log.len(), cut / slide);
        let b_ref = independent_run(qb, DetectorSpec::Base { pruned: false }, &objs, slide, threads);
        assert_flushes_bitwise(b_log.retained(), &b_ref[..b_log.len()], "deregistered prefix");

        // Register C (plus a dedup twin) and a late duplicate of A.
        let c = server.subscribe(qc, DetectorSpec::TopK { k: 2 }).unwrap();
        let c2 = server.subscribe(qc, DetectorSpec::TopK { k: 2 }).unwrap();
        let a_late = server.subscribe(qa, cell_spec()).unwrap();
        let stats = server.stats();
        prop_assert_eq!(stats.subscriptions, 4);
        prop_assert_eq!(stats.groups, 3, "C twins dedupe; late A cannot join A's group");
        if cut > 0 {
            prop_assert_eq!(stats.lanes, 2, "late registrations start their own lane");
        }

        for obj in suffix {
            server.ingest(*obj);
        }
        server.finish();

        check_sub(&server, a, qa, cell_spec(), &objs, slide, threads, "A (full stream)");
        check_sub(&server, c, qc, DetectorSpec::TopK { k: 2 }, suffix, slide, threads, "C (suffix)");
        check_sub(&server, c2, qc, DetectorSpec::TopK { k: 2 }, suffix, slide, threads, "C twin");
        check_sub(&server, a_late, qa, cell_spec(), suffix, slide, threads, "late A (suffix)");
    }
}
