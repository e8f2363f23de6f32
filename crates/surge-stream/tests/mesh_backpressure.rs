//! Liveness and protocol tests for the mesh channels.
//!
//! The mesh driver gives every worker one bounded command channel fed by
//! the driver thread alone. A full channel must *backpressure* the
//! driver (its send blocks until the slow worker drains) — never deadlock
//! — and a worker that panics, while applying events or inside a flush,
//! must surface as that one panic from the driver, within bounded time,
//! with no thread left waiting on it. These tests pin a deliberately slow
//! or failing worker in the mesh at n=2 and n=8 and prove the run ends
//! under a watchdog: a regression that introduces a wait nobody will
//! satisfy fires the watchdog instead of hanging the suite. The last test
//! logs the flush protocol itself: one flush per worker per slide, after
//! all of that slide's events.

use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::Duration;

use surge_core::{
    BurstDetector, Event, MeshIngest, MeshWorker, Point, RegionAnswer, RegionSize, ShardFlush,
    ShardRunStats, ShardWorkerStats, SpatialObject, WindowConfig,
};
use surge_stream::{drive_elastic, BalancerPolicy, SlidingWindowEngine};

/// A mesh that computes nothing and defers to two hooks, each called with
/// `(shard, events this worker has applied in the current epoch)`:
/// `on_event` after every event (sleep or panic there to model a slow or
/// failing worker), `on_flush` to produce the flush reply.
struct ScriptedMesh<E, F> {
    shards: usize,
    on_event: E,
    on_flush: F,
}

/// The reply of a shard with nothing dirty and nothing to report.
const IDLE: ShardFlush = ShardFlush {
    dirty: 0,
    best: None,
};

struct ScriptedWorker<'a, E, F> {
    shard: usize,
    events: u64,
    mesh: &'a ScriptedMesh<E, F>,
}

impl<E: Fn(usize, u64), F: Fn(usize, u64) -> ShardFlush> MeshWorker for ScriptedWorker<'_, E, F> {
    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
        (self.mesh.on_event)(self.shard, self.events);
    }

    fn flush(&mut self) -> ShardFlush {
        (self.mesh.on_flush)(self.shard, self.events)
    }

    fn stats(&self) -> ShardWorkerStats {
        ShardWorkerStats {
            cell_touches: self.events,
            sweeps: 0,
        }
    }
}

impl<E, F> BurstDetector for ScriptedMesh<E, F> {
    fn on_event(&mut self, _event: &Event) {}
    fn current(&mut self) -> Option<RegionAnswer> {
        None
    }
    fn name(&self) -> &'static str {
        "scripted-mesh"
    }
}

impl<E, F> MeshIngest for ScriptedMesh<E, F>
where
    E: Fn(usize, u64) + Sync,
    F: Fn(usize, u64) -> ShardFlush + Sync,
{
    type Worker<'a>
        = ScriptedWorker<'a, E, F>
    where
        Self: 'a;

    fn ingest_workers(&mut self) -> Vec<ScriptedWorker<'_, E, F>> {
        (0..self.shards)
            .map(|shard| ScriptedWorker {
                shard,
                events: 0,
                mesh: self,
            })
            .collect()
    }

    fn absorb_shard_run(&mut self, _run: ShardRunStats) {}

    fn region_size(&self) -> RegionSize {
        RegionSize::new(1.0, 1.0)
    }

    fn reshard(&mut self, shards: usize) {
        self.shards = shards;
    }
}

/// Arrivals spread across 16 cells, timestamps strictly increasing.
fn spread_stream(n: usize) -> Vec<SpatialObject> {
    (0..n)
        .map(|i| {
            SpatialObject::new(
                i as u64,
                1.0,
                Point::new((i % 4) as f64 + 0.5, ((i / 4) % 4) as f64 + 0.5),
                i as u64,
            )
        })
        .collect()
}

/// Runs `f` on its own thread and panics if it has not ended within
/// `timeout` — a deadlocked mesh hangs forever, so the watchdog converts it
/// into a test failure. A drive that panics ends too: its panic is
/// re-raised here.
fn with_watchdog(timeout: Duration, f: impl FnOnce() -> (u64, u64) + Send + 'static) -> (u64, u64) {
    let (done_tx, done_rx) = mpsc::channel();
    let driver = thread::spawn(move || {
        let out = f();
        let _ = done_tx.send(());
        out
    });
    match done_rx.recv_timeout(timeout) {
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("mesh deadlocked: drive did not finish within {timeout:?}")
        }
        // Done, or the sender was dropped by an unwinding drive.
        _ => driver
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
    }
}

/// Shard 0's worker sleeps periodically while applying events — every other
/// worker runs at full speed while the driver fills the slow worker's
/// channel and blocks on it. With zero dirty cells the balancer stays quiet
/// (load < min_load), so this exercises the broadcast, the flush and the
/// epoch loop under a slow worker without resharding noise.
fn mesh_backpressure(shards: usize) {
    // 9 000 events between flushes, in 256-event batches on a 16-deep
    // channel: the driver fills the slow worker's channel twice over
    // before each flush barrier.
    let n_objects = 6_000usize;
    let (objects, events) = with_watchdog(Duration::from_secs(60), move || {
        let mut d = ScriptedMesh {
            shards,
            // Sleeping every event would dominate the test's wall clock;
            // every 64th is enough to keep this worker batches behind the
            // driver.
            on_event: |shard, events: u64| {
                if shard == 0 && events.is_multiple_of(64) {
                    thread::sleep(Duration::from_millis(2));
                }
            },
            on_flush: |_, _| IDLE,
        };
        let report = drive_elastic(
            &mut d,
            WindowConfig::equal(500),
            spread_stream(n_objects).into_iter(),
            3_000,
            BalancerPolicy::default(),
        );
        (report.objects, report.events)
    });
    assert_eq!(objects, n_objects as u64);
    // Every object completes its lifecycle across the drain: 3 events each,
    // proving no batch was lost to the backpressure.
    assert_eq!(events, 3 * n_objects as u64);
}

#[test]
fn slow_worker_backpressures_without_deadlock_2_shards() {
    mesh_backpressure(2);
}

#[test]
fn slow_worker_backpressures_without_deadlock_8_shards() {
    mesh_backpressure(8);
}

/// Drives 2 000 spread arrivals in 500-object slides through `mesh` under
/// the watchdog: a worker panic must end the drive with that panic (not a
/// hang, not a cascade of channel-closed panics) within the timeout.
fn drive_failing<E, F>(mut mesh: ScriptedMesh<E, F>)
where
    E: Fn(usize, u64) + Send + Sync + 'static,
    F: Fn(usize, u64) -> ShardFlush + Send + Sync + 'static,
{
    with_watchdog(Duration::from_secs(60), move || {
        let r = drive_elastic(
            &mut mesh,
            WindowConfig::equal(500),
            spread_stream(2_000).into_iter(),
            500,
            BalancerPolicy::default(),
        );
        (r.objects, r.events)
    });
}

/// Worker 0 panics on its 700th event — mid-stream, between flushes.
fn drive_with_failing_worker(shards: usize) {
    drive_failing(ScriptedMesh {
        shards,
        on_event: |shard, events| {
            if shard == 0 && events == 700 {
                panic!("injected worker failure at event {events}");
            }
        },
        on_flush: |_, _| IDLE,
    });
}

#[test]
#[should_panic(expected = "injected worker failure at event 700")]
fn worker_panic_is_propagated_2_shards() {
    drive_with_failing_worker(2);
}

#[test]
#[should_panic(expected = "injected worker failure at event 700")]
fn worker_panic_is_propagated_8_shards() {
    drive_with_failing_worker(8);
}

/// The *last* worker panics inside its first flush, so the driver has
/// already collected every other reply and is blocked on the one that
/// never comes: the hang-up must end that receive.
fn drive_with_worker_failing_in_flush(shards: usize) {
    drive_failing(ScriptedMesh {
        shards,
        on_event: |_, _| {},
        on_flush: move |shard, _| {
            if shard == shards - 1 {
                panic!("injected worker failure inside flush");
            }
            IDLE
        },
    });
}

#[test]
#[should_panic(expected = "injected worker failure inside flush")]
fn flush_panic_is_propagated_2_shards() {
    drive_with_worker_failing_in_flush(2);
}

#[test]
#[should_panic(expected = "injected worker failure inside flush")]
fn flush_panic_is_propagated_8_shards() {
    drive_with_worker_failing_in_flush(8);
}

/// One flush = one command and one reply per worker: every worker flushes
/// exactly once per slide, only after all of that slide's events, and the
/// report's per-shard sweeps are the dirty counts the workers returned —
/// across a live reshard.
#[test]
fn each_worker_flushes_once_per_slide_after_all_its_events() {
    let windows = WindowConfig::equal(500);
    let objs = spread_stream(70);
    // Events expanded by the end of each flush: 16-object slides, the
    // 6-object tail, then the drain.
    let mut engine = SlidingWindowEngine::new(windows);
    let mut expanded = 0u64;
    let mut want_seen = Vec::new();
    for slide in objs.chunks(16) {
        expanded += slide
            .iter()
            .map(|o| engine.push(*o).len() as u64)
            .sum::<u64>();
        want_seen.push(expanded);
    }
    want_seen.push(expanded + engine.finish().len() as u64);

    // `(shard, events seen, dirty returned)` per flush call.
    let log = Mutex::new(Vec::new());
    let mut mesh = ScriptedMesh {
        shards: 2,
        on_event: |_, _| {},
        // All load on shard 0: persistent skew, so the balancer splits.
        on_flush: |shard, seen| {
            let dirty = if shard == 0 { seen } else { 0 };
            log.lock().unwrap().push((shard, seen, dirty));
            ShardFlush { dirty, best: None }
        },
    };
    let policy = BalancerPolicy {
        skew_percent: 50,
        patience: 2,
        max_shards: 4,
        min_load: 1,
    };
    let report = drive_elastic(&mut mesh, windows, objs.into_iter(), 16, policy);
    assert_eq!(report.slides, want_seen.len() as u64);
    assert_eq!(report.reshards, 1, "two skewed flushes split 2 -> 4");

    let log = log.into_inner().unwrap();
    let mut calls = log.iter();
    let mut flush = 0;
    for epoch in &report.epochs {
        // Workers count from the start of their epoch.
        let before_epoch = if flush == 0 { 0 } else { want_seen[flush - 1] };
        let mut swept = vec![0u64; epoch.shards];
        for _ in 0..epoch.slides {
            // A flush is a barrier, so its calls are contiguous in the log.
            let mut shards = Vec::new();
            for &(shard, seen, dirty) in calls.by_ref().take(epoch.shards) {
                assert_eq!(seen, want_seen[flush] - before_epoch, "flush {flush}");
                swept[shard] += dirty;
                shards.push(shard);
            }
            shards.sort_unstable();
            assert!(shards.iter().copied().eq(0..epoch.shards), "flush {flush}");
            flush += 1;
        }
        assert_eq!(swept, epoch.shard_sweeps);
    }
    assert!(calls.next().is_none(), "a flush nobody asked for");
}
