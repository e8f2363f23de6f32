//! Crash recovery of a **live registry**: a server with five active
//! subscriptions (including a deduped pair and partially-acked channels) is
//! captured mid-slide, round-tripped through the durable snapshot codec,
//! restored, and must then serve the rest of the stream bit-identically to
//! the server that never stopped.

use surge_checkpoint::{DetectorSpec, ServeState};
use surge_core::{RegionSize, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, SweepMode};
use surge_serve::{ServeConfig, ServeError, SubId, SurgeServer};
use surge_testkit::clustered_stream;

fn cell_spec() -> DetectorSpec {
    DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 1,
    }
}

fn assert_channels_bitwise(a: &SurgeServer, b: &SurgeServer, subs: &[SubId]) {
    for sub in subs {
        let (x, y) = (a.answers(*sub).unwrap(), b.answers(*sub).unwrap());
        assert_eq!(x.released(), y.released(), "{sub}: ack cursor diverged");
        assert_eq!(x.len(), y.len(), "{sub}: retention diverged");
        for (ga, wa) in x.iter().zip(y.iter()) {
            assert_eq!(ga.len(), wa.len(), "{sub}");
            for (g, w) in ga.iter().zip(wa.iter()) {
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "{sub}");
                assert_eq!(g.point.x.to_bits(), w.point.x.to_bits(), "{sub}");
                assert_eq!(g.point.y.to_bits(), w.point.y.to_bits(), "{sub}");
            }
        }
    }
}

/// Builds the five-subscription registry the tests crash: two lanes (two
/// window configs), a deduped exact pair, a baseline, a top-k and a grid
/// approximation.
fn populate(server: &mut SurgeServer) -> Vec<SubId> {
    let w1 = WindowConfig::new(280, 140);
    let w2 = WindowConfig::new(200, 100);
    let q1 = SurgeQuery::whole_space(RegionSize::new(1.2, 1.2), w1, 0.4);
    let q2 = SurgeQuery::whole_space(RegionSize::new(1.6, 0.9), w1, 0.55);
    let q3 = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), w2, 0.7);
    vec![
        server.subscribe(q1, cell_spec()).unwrap(),
        server.subscribe(q1, cell_spec()).unwrap(), // dedup twin
        server
            .subscribe(q2, DetectorSpec::Base { pruned: true })
            .unwrap(),
        server.subscribe(q1, DetectorSpec::TopK { k: 3 }).unwrap(),
        server
            .subscribe(q3, DetectorSpec::Gaps { shards: 2 })
            .unwrap(),
    ]
}

#[test]
fn live_registry_recovers_bit_identically() {
    let stream = clustered_stream(250, 4, 9, 42);
    let (prefix, suffix) = stream.split_at(150);

    let mut live = SurgeServer::new(ServeConfig {
        slide_objects: 7, // 150 % 7 != 0: the crash lands mid-slide
    });
    let subs = populate(&mut live);
    assert_eq!(live.stats().subscriptions, 5);
    assert_eq!(live.stats().groups, 4, "the exact pair dedupes");
    assert_eq!(live.stats().lanes, 2);

    for obj in prefix {
        live.ingest(*obj);
    }
    // Consumers in different positions: one fully drained, one mid-stream
    // ack, the rest never acked.
    live.drain(subs[2]).unwrap();
    live.ack(subs[3], 2).unwrap();

    // Crash: capture, serialize to bytes, read the bytes back, restore.
    let state = live.capture();
    let bytes = state.to_snapshot().encode();
    let decoded = ServeState::from_snapshot(
        &surge_io::Snapshot::decode(&bytes).expect("snapshot container survives"),
    )
    .expect("serve sections survive");
    assert_eq!(decoded, state, "durable round-trip is lossless");
    let mut recovered = SurgeServer::restore(&decoded).expect("registry restores");

    // The recovered registry is structurally the live one: same sharing,
    // same cursors, same retained answers.
    assert_eq!(recovered.stats(), live.stats());
    assert_eq!(recovered.objects_ingested(), live.objects_ingested());
    assert_channels_bitwise(&live, &recovered, &subs);

    // New ids issued after recovery never collide with recovered ones (a
    // fresh subscription rides its own late lane and cannot disturb the
    // recovered channels).
    let extra = recovered
        .subscribe(
            SurgeQuery::whole_space(RegionSize::new(1.1, 1.1), WindowConfig::new(280, 140), 0.5),
            DetectorSpec::Base { pruned: false },
        )
        .unwrap();
    assert!(
        subs.iter().all(|s| *s != extra),
        "recovered ids stay unique"
    );

    // Both servers serve the rest of the stream; every channel stays
    // bitwise identical — including the flush that completes the slide the
    // crash interrupted.
    for obj in suffix {
        live.ingest(*obj);
        recovered.ingest(*obj);
    }
    live.finish();
    recovered.finish();
    assert_channels_bitwise(&live, &recovered, &subs);
    assert_eq!(
        recovered
            .subscribe(
                SurgeQuery::whole_space(
                    RegionSize::new(1.1, 1.1),
                    WindowConfig::new(280, 140),
                    0.5
                ),
                DetectorSpec::Base { pruned: false },
            )
            .unwrap_err(),
        ServeError::Finished,
        "finished servers stay closed"
    );
}

#[test]
fn recovery_mid_churn_preserves_late_lanes() {
    let stream = clustered_stream(220, 3, 11, 7);
    let (prefix, suffix) = stream.split_at(100);

    let mut live = SurgeServer::new(ServeConfig { slide_objects: 6 });
    let subs = populate(&mut live);
    for obj in prefix {
        live.ingest(*obj);
    }
    // Churn before the crash: one channel leaves, a late lane arrives.
    live.unsubscribe(subs[4]).unwrap();
    let late = live
        .subscribe(
            SurgeQuery::whole_space(RegionSize::new(1.2, 1.2), WindowConfig::new(280, 140), 0.4),
            cell_spec(),
        )
        .unwrap();

    let state = live.capture();
    let mut recovered = SurgeServer::restore(&state).expect("registry restores");
    let tracked = [subs[0], subs[1], subs[2], subs[3], late];

    for obj in suffix {
        live.ingest(*obj);
        recovered.ingest(*obj);
    }
    live.finish();
    recovered.finish();
    assert_channels_bitwise(&live, &recovered, &tracked);
    assert_eq!(
        recovered.answers(subs[4]).unwrap_err(),
        ServeError::UnknownSubscription(subs[4]),
        "unsubscribed channels do not resurrect"
    );
}

#[test]
fn corrupt_states_are_rejected() {
    let mut live = SurgeServer::new(ServeConfig::sequential(8));
    populate(&mut live);
    for obj in clustered_stream(64, 3, 9, 1) {
        live.ingest(obj);
    }
    let good = live.capture();

    let mut bad = good.clone();
    bad.meta.slide_objects = 0;
    assert!(SurgeServer::restore(&bad).is_err());

    let mut bad = good.clone();
    bad.lanes[0].in_slide = bad.meta.slide_objects;
    assert!(SurgeServer::restore(&bad).is_err());

    let mut bad = good.clone();
    bad.lanes[0].groups[0].subs.clear();
    assert!(SurgeServer::restore(&bad).is_err());

    let mut bad = good.clone();
    bad.lanes[0].start_objects = good.meta.objects_ingested + 1;
    assert!(SurgeServer::restore(&bad).is_err());
}

/// A server captured after `finish` restores finished: its `finish` is a
/// no-op and the channels keep exactly the live server's flushes.
#[test]
fn finished_server_restores_finished() {
    let mut live = SurgeServer::new(ServeConfig::sequential(16));
    let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(170), 0.5);
    let sub = live.subscribe(query, cell_spec()).unwrap();
    for obj in clustered_stream(21, 4, 6, 0xFEED) {
        live.ingest(obj);
    }
    live.finish();
    assert_eq!(live.answers(sub).unwrap().next_seq(), 3);

    let mut restored = SurgeServer::restore(&live.capture()).expect("registry restores");
    assert!(restored.is_finished());
    restored.finish();
    assert_eq!(restored.answers(sub).unwrap().next_seq(), 3);
    assert_channels_bitwise(&live, &restored, &[sub]);
}

/// Lanes whose counters no run reaches, or that disagree on whether the
/// stream finished, are rejected.
#[test]
fn impossible_lane_phases_are_rejected() {
    let mut live = SurgeServer::new(ServeConfig::sequential(8));
    populate(&mut live);
    for obj in clustered_stream(20, 3, 9, 1) {
        live.ingest(obj);
    }
    let open = live.capture();
    live.finish();
    let finished = live.capture();

    // Three flushes more than 20 arrivals at 8 per slide can have run.
    let mut bad = open.clone();
    bad.lanes[0].slides += 3;
    assert!(SurgeServer::restore(&bad).is_err());

    // One lane finished, the other still open.
    let mut bad = finished.clone();
    bad.lanes[1] = open.lanes[1].clone();
    assert!(SurgeServer::restore(&bad).is_err());
}

/// `TopK { k: 0 }` and a grid detector whose shard count is not a power
/// of two are refused at subscription, before anything is built.
#[test]
fn top_k_zero_is_unsupported() {
    let mut server = SurgeServer::new(ServeConfig::sequential(8));
    let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(170), 0.5);
    for spec in [
        DetectorSpec::TopK { k: 0 },
        DetectorSpec::Gaps { shards: 3 },
        DetectorSpec::Mgaps { shards: 0 },
    ] {
        assert!(
            matches!(
                server.subscribe(query, spec),
                Err(ServeError::UnsupportedSpec(_))
            ),
            "{spec:?}"
        );
    }
    assert_eq!(server.stats().lanes, 0, "nothing was built");
}
