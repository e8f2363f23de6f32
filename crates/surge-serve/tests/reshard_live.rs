//! Live resharding under live subscriptions: [`DetectorSpec::Elastic`]
//! groups carry a sweep mesh whose balancer splits hot shards from
//! flush-boundary load; a skewed stream must split the group's mesh
//! mid-run while its answers stay bit-identical to a plain exact detector
//! riding the same lane.
//!
//! The group's [`MeshState`] also rides the durable [`ServeState`] codec:
//! capture → snapshot round-trip → restore resumes the resharded group at
//! its live width.

use surge_checkpoint::{DetectorSpec, ServeState};
use surge_core::{Point, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, SweepMode};
use surge_serve::{ServeConfig, SubId, SurgeServer};
use surge_stream::BalancerPolicy;

fn query(windows: WindowConfig, alpha: f64) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha)
}

fn cell_spec() -> DetectorSpec {
    DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 1,
    }
}

/// A split-happy elastic flavor so short serve streams actually reshard.
fn elastic_spec() -> DetectorSpec {
    DetectorSpec::Elastic {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 2,
        policy: BalancerPolicy {
            skew_percent: 0,
            patience: 2,
            max_shards: 8,
            min_load: 1,
        },
    }
}

/// Every object homed to a cell hashing to shard 0 at width 2, so one
/// shard owns the whole sweep load and the balancer splits within a few
/// flushes (same construction as the elastic differential tests).
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

fn assert_channels_bitwise(a: &SurgeServer, b: &SurgeServer, subs: &[SubId], ctx: &str) {
    for sub in subs {
        let (x, y) = (a.answers(*sub).unwrap(), b.answers(*sub).unwrap());
        assert_eq!(x.released(), y.released(), "{ctx} {sub}: ack cursor");
        assert_eq!(x.len(), y.len(), "{ctx} {sub}: retention diverged");
        for (i, (ga, wa)) in x.iter().zip(y.iter()).enumerate() {
            assert_eq!(ga.len(), wa.len(), "{ctx} {sub} flush {i}");
            for (g, w) in ga.iter().zip(wa.iter()) {
                assert_eq!(
                    g.score.to_bits(),
                    w.score.to_bits(),
                    "{ctx} {sub} flush {i}"
                );
                assert_eq!(
                    g.point.x.to_bits(),
                    w.point.x.to_bits(),
                    "{ctx} {sub} flush {i}"
                );
                assert_eq!(
                    g.point.y.to_bits(),
                    w.point.y.to_bits(),
                    "{ctx} {sub} flush {i}"
                );
            }
        }
    }
}

/// A skewed stream splits an Elastic group's sweep mesh mid-run — and its
/// subscription still bit-matches a plain exact detector riding the very
/// same lane over the very same transition stream.
#[test]
fn elastic_group_splits_under_skew_while_serving() {
    let stream = hot_stream(180);
    let windows = WindowConfig::equal(170);
    let q = query(windows, 0.5);

    let mut server = SurgeServer::new(ServeConfig {
        slide_objects: 16,
        threads: 2,
    });
    let exact = server.subscribe(q, cell_spec()).unwrap();
    let elastic = server.subscribe(q, elastic_spec()).unwrap();
    assert_eq!(server.stats().lanes, 1, "same windows: one shared lane");
    assert_eq!(server.stats().groups, 2, "different flavors: two groups");

    assert_eq!(server.mesh_state(exact).unwrap(), None);
    let initial = server
        .mesh_state(elastic)
        .unwrap()
        .expect("elastic groups expose their mesh");
    assert_eq!((initial.shards, initial.reshards), (2, 0));

    for obj in &stream {
        server.ingest(*obj);
    }
    server.finish();

    let mesh = server
        .mesh_state(elastic)
        .unwrap()
        .expect("still elastic after the run");
    assert!(
        mesh.shards > 2 && mesh.reshards >= 1,
        "the skewed stream never split the serving mesh: {mesh:?}"
    );
    let (x, y) = (
        server.answers(exact).unwrap(),
        server.answers(elastic).unwrap(),
    );
    assert_eq!(x.len(), y.len(), "lane mates flush in lockstep");
    for (i, (ga, wa)) in x.iter().zip(y.iter()).enumerate() {
        assert_eq!(ga.len(), wa.len(), "flush {i}");
        for (g, w) in ga.iter().zip(wa.iter()) {
            assert_eq!(g.score.to_bits(), w.score.to_bits(), "flush {i}");
            assert_eq!(g.point.x.to_bits(), w.point.x.to_bits(), "flush {i}");
            assert_eq!(g.point.y.to_bits(), w.point.y.to_bits(), "flush {i}");
        }
    }
}

/// A resharded Elastic group survives capture → durable snapshot codec →
/// restore at its **live** width, and both servers then serve the rest of
/// the stream bit-identically.
#[test]
fn resharded_group_survives_capture_restore() {
    let stream = hot_stream(200);
    let (prefix, suffix) = stream.split_at(110); // mid-slide: 110 % 16 != 0
    let windows = WindowConfig::equal(170);
    let q = query(windows, 0.5);

    let mut live = SurgeServer::new(ServeConfig {
        slide_objects: 16,
        threads: 2,
    });
    let exact = live.subscribe(q, cell_spec()).unwrap();
    let elastic = live.subscribe(q, elastic_spec()).unwrap();
    for obj in prefix {
        live.ingest(*obj);
    }
    let mesh_at_capture = live.mesh_state(elastic).unwrap().unwrap();
    assert!(
        mesh_at_capture.reshards >= 1,
        "the prefix must already have split the mesh: {mesh_at_capture:?}"
    );

    let state = live.capture();
    let bytes = state.to_snapshot().encode();
    let decoded = ServeState::from_snapshot(
        &surge_io::Snapshot::decode(&bytes).expect("snapshot container round-trips"),
    )
    .expect("registry round-trips");
    assert_eq!(decoded, state);
    let mut restored = SurgeServer::restore(&decoded).expect("restore");

    assert_eq!(
        restored.mesh_state(elastic).unwrap().unwrap(),
        mesh_at_capture,
        "restore must resume the mesh at its live width"
    );

    for obj in suffix {
        live.ingest(*obj);
        restored.ingest(*obj);
    }
    live.finish();
    restored.finish();
    assert_channels_bitwise(&live, &restored, &[exact, elastic], "restore");
    assert_eq!(
        restored.mesh_state(elastic).unwrap(),
        live.mesh_state(elastic).unwrap(),
        "identical suffixes must produce identical reshard histories"
    );
}
