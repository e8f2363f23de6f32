//! The unbounded-retention fix, end to end: with an acking consumer the
//! checkpoint runner's retained answers — and therefore its snapshot bytes
//! — stop growing with slide count, while the delivered answer stream stays
//! bit-identical to the retain-everything run.

use surge_checkpoint::{
    run_checkpointed, run_checkpointed_with_sink, CheckpointConfig, CheckpointDir,
    CheckpointPolicy, DetectorSpec, SyncPolicy, Tail,
};
use surge_core::{
    BurstDetector, Event, MeshIngest, MeshWorker, Point, RegionAnswer, RegionSize, ShardAnswer,
    ShardFlush, ShardRunStats, ShardWorkerStats, SpatialObject, SurgeQuery, WindowConfig,
};
use surge_exact::{BoundMode, SweepMode};
use surge_stream::{drive_elastic, drive_elastic_with_sink, Ack, BalancerPolicy};

/// A fully periodic stream (period 60 in position and weight, constant
/// timestamp spacing): once the windows saturate, residency at object
/// count `n` and at `n + 60k` is the same pattern — so any snapshot-size
/// difference between stream lengths can only come from retained answers.
fn periodic_stream(n: usize) -> Vec<SpatialObject> {
    (0..n)
        .map(|i| {
            SpatialObject::new(
                i as u64,
                1.0 + (i % 4) as f64,
                Point::new((i % 5) as f64 * 0.7, (i % 3) as f64 * 0.9),
                (i as u64) * 11,
            )
        })
        .collect()
}

fn config(slide_objects: usize) -> CheckpointConfig {
    let windows = WindowConfig::new(240, 120);
    CheckpointConfig {
        query: SurgeQuery::whole_space(RegionSize::new(1.5, 1.5), windows, 0.4),
        windows,
        spec: DetectorSpec::Cell {
            bound: BoundMode::Combined,
            sweep: SweepMode::Persistent,
            shards: 1,
        },
        slide_objects,
        threads: 1,
        policy: CheckpointPolicy {
            snapshot_every_slides: 4,
            wal_segment_objects: 64,
            keep_snapshots: 1,
            sync: SyncPolicy::OsFlush,
        },
    }
}

fn newest_snapshot_bytes(dir: &std::path::Path) -> u64 {
    let dir = CheckpointDir::create(dir).unwrap();
    let (path, _) = dir.latest_snapshot().unwrap().expect("a snapshot exists");
    std::fs::metadata(path).unwrap().len()
}

/// Snapshot size is flat in stream length under an acking consumer, and
/// grows without one — the direct test of the grow-forever fix.
#[test]
fn acked_snapshots_stop_growing_with_slide_count() {
    let base = std::env::temp_dir().join(format!("surge-bounded-{}", std::process::id()));
    let mut acked_sizes = Vec::new();
    let mut retained_sizes = Vec::new();
    let mut delivered_per_len = Vec::new();

    for (i, objects) in [240usize, 480, 960].into_iter().enumerate() {
        let stream = periodic_stream(objects);

        // Acking consumer: every flush is consumed on delivery.
        let acked_dir = base.join(format!("acked-{i}"));
        let mut delivered: Vec<Vec<RegionAnswer>> = Vec::new();
        let mut sink = |_seq: u64, answers: &Vec<RegionAnswer>| {
            delivered.push(answers.clone());
            Ack::Release
        };
        let report = run_checkpointed_with_sink(
            &config(8),
            &acked_dir,
            stream.iter().copied(),
            Tail::Finish,
            &mut sink,
        )
        .unwrap();
        assert!(report.answers.is_empty(), "everything was acked away");
        assert_eq!(report.answers.released(), report.slides);
        acked_sizes.push(newest_snapshot_bytes(&acked_dir));

        // The historical retain-everything run over the same stream.
        let retained_dir = base.join(format!("retained-{i}"));
        let full = run_checkpointed(
            &config(8),
            &retained_dir,
            stream.iter().copied(),
            Tail::Finish,
        )
        .unwrap();
        retained_sizes.push(newest_snapshot_bytes(&retained_dir));

        // Releasing answers must not change what the consumer sees: the
        // delivered sequence is the retained report, bit for bit.
        assert_eq!(delivered.len(), full.answers.len());
        for (s, (got, want)) in delivered.iter().zip(full.answers.iter()).enumerate() {
            assert_eq!(got.len(), want.len(), "flush {s}");
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "flush {s}");
                assert_eq!(a.point.x.to_bits(), b.point.x.to_bits(), "flush {s}");
                assert_eq!(a.point.y.to_bits(), b.point.y.to_bits(), "flush {s}");
            }
        }
        delivered_per_len.push(delivered.len());

        std::fs::remove_dir_all(&acked_dir).ok();
        std::fs::remove_dir_all(&retained_dir).ok();
    }
    std::fs::remove_dir_all(&base).ok();

    // Twice the stream, twice the flushes — so retention actually had
    // something to bound.
    assert!(delivered_per_len[2] > delivered_per_len[0] * 2);
    // The acked snapshot stops growing: doubling the stream leaves its
    // size unchanged (the answers section is empty either way, and the
    // periodic stream makes saturated-window residency a repeating
    // pattern).
    assert_eq!(
        acked_sizes[1], acked_sizes[2],
        "acked snapshot size must be flat in slide count: {acked_sizes:?}"
    );
    // The retain-everything snapshot keeps growing with every doubling.
    assert!(
        retained_sizes[2] > retained_sizes[1] && retained_sizes[1] > retained_sizes[0],
        "retained snapshot sizes should grow: {retained_sizes:?}"
    );
    // And the acked one is strictly smaller than its retained twin.
    assert!(acked_sizes[2] < retained_sizes[2]);
}

/// A detector that always has an answer — even for drained windows. The
/// cell detectors report `None` after the terminal drain, which made the
/// `final_answer = answers.last()` bug invisible to them: with a fully
/// acking sink `answers` is empty and `last()` is `None`, exactly the value
/// the drain happens to produce. This toy makes the terminal answer `Some`,
/// so the regression below fails on the pre-fix code.
struct AlwaysAnswer {
    events: u64,
}

struct AlwaysWorker<'a> {
    events: u64,
    _mesh: std::marker::PhantomData<&'a ()>,
}

impl MeshWorker for AlwaysWorker<'_> {
    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
    }
    fn flush(&mut self) -> ShardFlush {
        ShardFlush {
            dirty: 0,
            best: Some(ShardAnswer {
                point: Point::new(0.25, 0.25),
                score: 1.0 + self.events as f64,
                bound: 2.0 + self.events as f64,
                cell: (0, 0),
            }),
        }
    }
    fn stats(&self) -> ShardWorkerStats {
        ShardWorkerStats::default()
    }
}

impl BurstDetector for AlwaysAnswer {
    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
    }
    fn current(&mut self) -> Option<RegionAnswer> {
        None
    }
    fn name(&self) -> &'static str {
        "always-answer"
    }
}

impl MeshIngest for AlwaysAnswer {
    type Worker<'a> = AlwaysWorker<'a>;
    fn ingest_workers(&mut self) -> Vec<AlwaysWorker<'_>> {
        vec![AlwaysWorker {
            events: 0,
            _mesh: std::marker::PhantomData,
        }]
    }
    fn absorb_shard_run(&mut self, run: ShardRunStats) {
        self.events += run.events;
    }
    fn region_size(&self) -> RegionSize {
        RegionSize::new(1.5, 1.5)
    }
    fn reshard(&mut self, _shards: usize) {
        unreachable!("one worker with no dirty cells never trips the balancer")
    }
}

/// The mesh report's terminal answer is tracked independently of answer
/// retention: a consumer that acks every flush releases the whole
/// `answers` log, and `final_answer` must still hold the terminal flush's
/// answer. Pre-fix, `final_answer` was derived as `answers.last()`, which
/// is `None` as soon as the sink keeps up — this test fails on that code.
#[test]
fn terminal_answer_survives_a_fully_acked_consumer() {
    let stream = periodic_stream(120);

    // Ground truth: retain everything, terminal answer = last retained.
    let mut retained = AlwaysAnswer { events: 0 };
    let full = drive_elastic(
        &mut retained,
        WindowConfig::new(240, 120),
        stream.iter().copied(),
        8,
        BalancerPolicy::default(),
    );
    let want = full
        .answers
        .iter()
        .last()
        .copied()
        .flatten()
        .expect("the toy answers every flush");
    assert_eq!(
        full.final_answer.map(|a| a.score.to_bits()),
        Some(want.score.to_bits())
    );

    // The regression: a sink that releases every flush on delivery.
    let mut acked = AlwaysAnswer { events: 0 };
    let mut sink = |_seq: u64, _ans: &Option<RegionAnswer>| Ack::Release;
    let report = drive_elastic_with_sink(
        &mut acked,
        WindowConfig::new(240, 120),
        stream.iter().copied(),
        8,
        BalancerPolicy::default(),
        &mut sink,
    );
    assert!(report.answers.is_empty(), "everything was acked away");
    let got = report
        .final_answer
        .expect("terminal answer must survive full acking");
    assert_eq!(got.score.to_bits(), want.score.to_bits());
    assert_eq!(got.point.x.to_bits(), want.point.x.to_bits());
    assert_eq!(got.point.y.to_bits(), want.point.y.to_bits());
}

/// A consumer that acks lazily (every third flush) bounds retention by its
/// lag, not the stream length.
#[test]
fn retention_is_bounded_by_consumer_lag() {
    let base = std::env::temp_dir().join(format!("surge-lag-{}", std::process::id()));
    let stream = periodic_stream(600);
    let mut pending = 0u32;
    let mut sink = |_seq: u64, _answers: &Vec<RegionAnswer>| {
        pending += 1;
        if pending == 3 {
            pending = 0;
            Ack::Release
        } else {
            Ack::Hold
        }
    };
    let report = run_checkpointed_with_sink(
        &config(6),
        &base,
        stream.iter().copied(),
        Tail::Finish,
        &mut sink,
    )
    .unwrap();
    assert!(
        report.answers.len() < 3,
        "retained window exceeds consumer lag: {}",
        report.answers.len()
    );
    assert_eq!(
        report.answers.released() + report.answers.len() as u64,
        report.slides
    );
    std::fs::remove_dir_all(&base).ok();
}
