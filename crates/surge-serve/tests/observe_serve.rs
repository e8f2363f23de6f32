//! Observability differentials for the serving layer: a server wired to an
//! enabled [`Observe`] handle must deliver **bitwise-identical** answer
//! streams to an unobserved server over the same workload, while its live
//! registry snapshot tracks occupancy (lanes/groups/subscriptions gauges)
//! and throughput (`serve/objects`, `serve/slides`) faithfully.

use surge_checkpoint::DetectorSpec;
use surge_core::{Point, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, SweepMode};
use surge_observe::{Observe, TraceEvent};
use surge_serve::{ServeConfig, SurgeServer};

fn cell_spec() -> DetectorSpec {
    DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 1,
    }
}

fn stream(n: u64) -> Vec<SpatialObject> {
    (0..n)
        .map(|i| {
            SpatialObject::new(
                i,
                1.0 + (i % 3) as f64,
                Point::new((i % 17) as f64 * 0.3, (i % 11) as f64 * 0.5),
                i * 13,
            )
        })
        .collect()
}

/// Observed vs unobserved servers: same subscriptions, same stream, same
/// answer bits; registry conserved against the server's own stats.
#[test]
fn observed_server_is_bit_identical_and_conserved() {
    let objs = stream(400);
    let w1 = WindowConfig::equal(200);
    let w2 = WindowConfig::new(260, 90);
    let q1 = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), w1, 0.4);
    let q2 = SurgeQuery::whole_space(RegionSize::new(1.2, 0.8), w2, 0.6);
    let cfg = ServeConfig {
        slide_objects: 16,
        threads: 2,
    };

    let run = |obs: Option<&Observe>| {
        let mut server = SurgeServer::new(cfg);
        if let Some(obs) = obs {
            server.observe(obs);
        }
        let subs = [
            server.subscribe(q1, cell_spec()).unwrap(),
            server.subscribe(q1, DetectorSpec::TopK { k: 2 }).unwrap(),
            server
                .subscribe(q2, DetectorSpec::Base { pruned: true })
                .unwrap(),
        ];
        for obj in &objs {
            server.ingest(*obj);
        }
        server.finish();
        let answers: Vec<_> = subs
            .iter()
            .map(|&s| server.answers(s).unwrap().retained().to_vec())
            .collect();
        (server, answers)
    };

    let (_off_server, off_answers) = run(None);
    let obs = Observe::enabled();
    let (on_server, on_answers) = run(Some(&obs));

    assert_eq!(off_answers.len(), on_answers.len());
    for (s, (a, b)) in off_answers.iter().zip(on_answers.iter()).enumerate() {
        assert_eq!(a.len(), b.len(), "sub {s}: flush counts differ");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.len(), y.len(), "sub {s} flush {i}");
            for (p, q) in x.iter().zip(y.iter()) {
                assert_eq!(p.score.to_bits(), q.score.to_bits(), "sub {s} flush {i}");
                assert_eq!(
                    p.point.x.to_bits(),
                    q.point.x.to_bits(),
                    "sub {s} flush {i}"
                );
                assert_eq!(
                    p.point.y.to_bits(),
                    q.point.y.to_bits(),
                    "sub {s} flush {i}"
                );
            }
        }
    }

    // The live snapshot mirrors the server's own accounting.
    let snap = on_server.registry_snapshot().expect("observed server");
    let stats = on_server.stats();
    assert_eq!(
        snap.counter("serve/objects"),
        Some(on_server.objects_ingested())
    );
    assert_eq!(snap.gauge("serve/lanes"), Some(stats.lanes as i64));
    assert_eq!(snap.gauge("serve/groups"), Some(stats.groups as i64));
    assert_eq!(
        snap.gauge("serve/subscriptions"),
        Some(stats.subscriptions as i64)
    );
    // Every lane flushed once per slide boundary it crossed; the flush
    // trail in the ingest flight ring brackets each of those slides.
    let slides = snap.counter("serve/slides").expect("slides counter");
    assert!(slides > 0, "no slides recorded");
    let dump = on_server.trace_dump();
    let starts = dump
        .workers
        .iter()
        .flat_map(|w| w.events.iter())
        .filter(|e| matches!(e, TraceEvent::FlushStart { .. }))
        .count() as u64;
    let ends = dump
        .workers
        .iter()
        .flat_map(|w| w.events.iter())
        .filter(|e| matches!(e, TraceEvent::FlushEnd { .. }))
        .count() as u64;
    assert_eq!(starts, ends, "unbalanced flush brackets");
    assert_eq!(starts, slides, "flight trail != slides counter");

    // An unobserved server exposes no registry.
    assert!(_off_server.registry_snapshot().is_none());
    assert!(_off_server.trace_dump().workers.is_empty());
}

/// Occupancy gauges follow subscription churn live — including the lane
/// and group collapse when the last subscriber of a window config leaves.
#[test]
fn occupancy_gauges_track_churn() {
    let w1 = WindowConfig::equal(200);
    let w2 = WindowConfig::new(260, 90);
    let q1 = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), w1, 0.4);
    let q2 = SurgeQuery::whole_space(RegionSize::new(1.2, 0.8), w2, 0.6);
    let obs = Observe::enabled();
    let mut server = SurgeServer::new(ServeConfig {
        slide_objects: 8,
        threads: 1,
    });
    server.observe(&obs);

    let a = server.subscribe(q1, cell_spec()).unwrap();
    let _b = server.subscribe(q1, cell_spec()).unwrap(); // dedup: same group
    let c = server.subscribe(q2, cell_spec()).unwrap();

    let gauges = |snap: &surge_observe::RegistrySnapshot| {
        (
            snap.gauge("serve/lanes").unwrap(),
            snap.gauge("serve/groups").unwrap(),
            snap.gauge("serve/subscriptions").unwrap(),
        )
    };
    assert_eq!(gauges(&server.registry_snapshot().unwrap()), (2, 2, 3));

    server.unsubscribe(c).unwrap();
    assert_eq!(
        gauges(&server.registry_snapshot().unwrap()),
        (1, 1, 2),
        "last w2 subscriber left: its lane and group collapse"
    );

    server.unsubscribe(a).unwrap();
    assert_eq!(
        gauges(&server.registry_snapshot().unwrap()),
        (1, 1, 1),
        "dedup twin still holds the shared group live"
    );
}
