//! Many queries, one ingest: the multi-query serving layer.
//!
//! Registers a mixed panel of continuous queries on one [`SurgeServer`] —
//! a deduped pair of identical exact queries, a top-k view of the same
//! query, and a differently-parameterized baseline — then streams a
//! clustered workload through the single shared ingest path:
//!
//! * arrivals are expanded into window-transition events **once** per
//!   shared engine lane and broadcast to every detector riding it;
//! * bitwise-identical queries with the same flavor share one detector —
//!   both subscriptions read the same computation;
//! * each subscription owns an ack-released answer channel, so retention
//!   is bounded by how far the consumer has read, not by stream length;
//! * a query registered mid-stream sees exactly the suffix it subscribed
//!   for, and deregistering one subscription never disturbs lane mates.
//!
//! The example also crashes the server mid-slide (capture → snapshot bytes
//! → restore) and asserts the recovered registry finishes the stream with
//! answer channels bit-identical to the server that never stopped.
//!
//! Run with `cargo run --release --example multi_query_serve`.

use surge::checkpoint::{DetectorSpec, ServeState};
use surge::exact::{BoundMode, SweepMode};
use surge::prelude::*;

fn stream(n: usize) -> Vec<SpatialObject> {
    let mut state = 0xDECA_FBAD_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    (0..n)
        .map(|i| {
            let cluster = i % 4;
            SpatialObject::new(
                i as u64,
                1.0 + (i % 3) as f64,
                Point::new(
                    cluster as f64 * 2.5 + next() * 0.8,
                    cluster as f64 * 1.5 + next() * 0.8,
                ),
                (i as u64) * 7,
            )
        })
        .collect()
}

fn main() {
    let objects = stream(4_000);
    let windows = WindowConfig::new(2_800, 1_400);
    let exact = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 1,
    };

    let hot = SurgeQuery::whole_space(RegionSize::new(1.2, 1.2), windows, 0.4);
    let wide = SurgeQuery::whole_space(RegionSize::new(2.0, 1.0), windows, 0.65);

    let mut server = SurgeServer::new(ServeConfig {
        slide_objects: 64,
        threads: 2,
    });

    // A dashboard and an alerting service watch the *same* query: one
    // detector serves both channels.
    let dashboard = server.subscribe(hot, exact).unwrap();
    let alerting = server.subscribe(hot, exact).unwrap();
    // Same query, top-3 view: shares the lane, runs its own detector.
    let top3 = server.subscribe(hot, DetectorSpec::TopK { k: 3 }).unwrap();
    // Different parameters entirely: still the same shared ingest.
    let audit = server
        .subscribe(wide, DetectorSpec::Base { pruned: true })
        .unwrap();

    let stats = server.stats();
    println!(
        "registry: {} subscriptions -> {} detector groups on {} lane(s) \
         (dedup hit-rate {:.0}%)",
        stats.subscriptions,
        stats.groups,
        stats.lanes,
        stats.dedup_hit_rate() * 100.0
    );

    // Stream the first 60%, draining the dashboard as answers arrive (acks
    // release retention; the alerting channel deliberately lags).
    let cut = objects.len() * 6 / 10;
    let mut dashboard_seen = 0usize;
    for obj in &objects[..cut] {
        server.ingest(*obj);
        dashboard_seen += server.drain(dashboard).unwrap().len();
    }
    println!(
        "mid-stream: dashboard consumed {} flushes (retaining {}); \
         alerting lags with {} retained",
        dashboard_seen,
        server.answers(dashboard).unwrap().len(),
        server.answers(alerting).unwrap().len(),
    );

    // A new tenant arrives mid-stream: it sees only the suffix from here.
    let late = server.subscribe(wide, exact).unwrap();

    // Crash: serialize the whole live registry to bytes and rebuild it.
    let state = server.capture();
    let bytes = state.to_snapshot().encode();
    println!(
        "crash: registry captured into {} snapshot bytes",
        bytes.len()
    );
    let decoded =
        ServeState::from_snapshot(&surge::io::Snapshot::decode(&bytes).expect("container intact"))
            .expect("registry sections intact");
    let mut recovered = SurgeServer::restore(&decoded).expect("registry restores");

    // Both servers finish the stream; every channel must stay bitwise
    // identical.
    for obj in &objects[cut..] {
        server.ingest(*obj);
        recovered.ingest(*obj);
    }
    server.finish();
    recovered.finish();

    for (name, sub) in [
        ("dashboard", dashboard),
        ("alerting", alerting),
        ("top-3", top3),
        ("audit", audit),
        ("late tenant", late),
    ] {
        let a = server.answers(sub).unwrap();
        let b = recovered.answers(sub).unwrap();
        assert_eq!(a.released(), b.released());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.len(), y.len());
            for (p, q) in x.iter().zip(y) {
                assert_eq!(p.score.to_bits(), q.score.to_bits());
            }
        }
        // The terminal flush follows the end-of-stream drain, so the last
        // *interesting* answer is the last non-empty flush.
        let last = a.iter().rev().find_map(|f| f.first());
        match last {
            Some(ans) => println!(
                "{name:<12} {:>3} flushes retained, last answer score {:.2} at ({:.2}, {:.2})",
                a.len(),
                ans.score,
                ans.point.x,
                ans.point.y
            ),
            None => println!("{name:<12} {:>3} flushes retained, all consumed", a.len()),
        }
    }
    println!("recovered registry is bit-identical to the uninterrupted server");

    // The deduped pair really did share one computation.
    let (a, b) = (
        server.answers(dashboard).unwrap(),
        server.answers(alerting).unwrap(),
    );
    assert_eq!(a.next_seq(), b.next_seq());
    println!(
        "dashboard consumed through seq {}, alerting still retains {} flushes of the same stream",
        a.released(),
        b.len()
    );
}
