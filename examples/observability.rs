//! The observability layer: registry, flight recorders, live server stats.
//!
//! Demonstrates the three faces of [`surge::observe`]:
//!
//! * **Non-invasiveness** — the same shard-mesh workload is driven once with
//!   [`Observe::off`] and once with a live handle; the example asserts the
//!   two answer streams are *bit-identical* before trusting any metric.
//! * **Conservation** — registry totals are cross-checked against the
//!   driver's own report counters (total sweeps, per-shard partition,
//!   events) rather than taken on faith.
//! * **Live serving stats** — a [`SurgeServer`] wired to the same handle
//!   exposes occupancy gauges and throughput counters mid-stream, plus the
//!   flight-recorder trail of its flush brackets, and exports the whole
//!   registry as JSON and Prometheus text.
//!
//! Every trace event carries *logical* time (slide / flush sequence
//! numbers, never wall clock), so the dumps printed here are deterministic:
//! run the example twice and the trace section is byte-identical.
//!
//! Run with `cargo run --release --example observability`.

use surge::checkpoint::DetectorSpec;
use surge::exact::BoundMode;
use surge::prelude::*;
use surge::stream::drive_elastic_observed;

fn stream(n: usize) -> Vec<SpatialObject> {
    let mut state = 0x0B5EC0FFEE_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    (0..n)
        .map(|i| {
            let cluster = i % 3;
            SpatialObject::new(
                i as u64,
                1.0 + (i % 5) as f64,
                Point::new(
                    cluster as f64 * 3.0 + next() * 1.2,
                    cluster as f64 * 2.0 + next() * 1.2,
                ),
                (i as u64) * 9,
            )
        })
        .collect()
}

fn main() {
    let objects = stream(6_000);
    let windows = WindowConfig::new(5_400, 2_700);
    let query = SurgeQuery::whole_space(RegionSize::new(1.5, 1.5), windows, 0.5);
    let shards = 2;
    let slide = 128;

    // ---- 1. Non-invasiveness: observe-off vs observe-on, bit for bit ----
    let mut off_det = CellCspot::with_shards(query, BoundMode::Combined, shards);
    let off = drive_elastic_observed(
        &mut off_det,
        windows,
        objects.iter().copied(),
        slide,
        &mut surge::stream::RetainAll,
        &Observe::off(),
    );

    let obs = Observe::enabled();
    let mut on_det = CellCspot::with_shards(query, BoundMode::Combined, shards);
    let on = drive_elastic_observed(
        &mut on_det,
        windows,
        objects.iter().copied(),
        slide,
        &mut surge::stream::RetainAll,
        &obs,
    );

    assert_eq!(off.answers.len(), on.answers.len());
    for (a, b) in off.answers.iter().zip(on.answers.iter()) {
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.score.to_bits(), y.score.to_bits());
                assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
            }
            _ => panic!("observed run diverged from unobserved run"),
        }
    }
    println!(
        "non-invasive: {} flushes bit-identical with observability on",
        on.answers.len()
    );

    // ---- 2. Conservation: the registry agrees with the report ----
    let snap = obs.snapshot();
    assert_eq!(snap.counter("elastic/sweeps"), Some(on.sweeps));
    let per_shard =
        snap.sum_counters(|p| p.starts_with("elastic/shard=") && p.ends_with("/sweeps"));
    assert_eq!(per_shard, on.sweeps, "per-shard sweeps partition the total");
    assert_eq!(snap.counter("elastic/events"), Some(on.events));
    println!(
        "conserved: {} sweeps = sum of the {} per-shard counters; \
         {} events = report events",
        on.sweeps, shards, on.events
    );

    // ---- 3. Live serving stats on the same handle ----
    let mut server = SurgeServer::new(ServeConfig { slide_objects: 64 });
    server.observe(&obs);
    let exact = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: surge::exact::SweepMode::Persistent,
        shards: 1,
    };
    let hot = server.subscribe(query, exact).unwrap();
    let top3 = server
        .subscribe(query, DetectorSpec::TopK { k: 3 })
        .unwrap();
    for obj in &objects {
        server.ingest(*obj);
    }
    server.finish();

    let live = server.registry_snapshot().expect("server is observed");
    println!(
        "serving: {} objects over {} slides across {} lane(s), {} subscription(s)",
        live.counter("serve/objects").unwrap(),
        live.counter("serve/slides").unwrap(),
        live.gauge("serve/lanes").unwrap(),
        live.gauge("serve/subscriptions").unwrap(),
    );
    let last_hot = server
        .answers(hot)
        .unwrap()
        .iter()
        .rev()
        .find_map(|f| f.first());
    if let Some(ans) = last_hot {
        println!(
            "last hot answer: score {:.2} at ({:.2}, {:.2}); top-3 retained {} flushes",
            ans.score,
            ans.point.x,
            ans.point.y,
            server.answers(top3).unwrap().len()
        );
    }

    // ---- 4. Exports: Prometheus text, JSON, and the flight trail ----
    let prom = live.to_prometheus();
    println!(
        "\n# prometheus excerpt ({} lines total)",
        prom.lines().count()
    );
    for line in prom
        .lines()
        .filter(|l| l.starts_with("surge_serve_"))
        .take(5)
    {
        println!("{line}");
    }

    let json = live.to_json();
    println!(
        "\n# json export: {} bytes, schema surge-observe-registry-v1",
        json.len()
    );

    let dump = server.trace_dump();
    println!(
        "\n# flight trail: {} events across {} worker ring(s) (logical time only)",
        dump.len(),
        dump.workers.len()
    );
    for worker in dump.workers.iter().take(1) {
        for event in worker.events.iter().take(4) {
            println!("{:<16} {:?}", worker.worker, event);
        }
    }
    println!("\nrun it again: the trace section is byte-identical — no wall clock inside");
}
