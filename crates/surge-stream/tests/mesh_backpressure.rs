//! Liveness tests for the mesh channels.
//!
//! The mesh driver gives every worker one bounded command channel fed by
//! the driver thread alone. A full channel must *backpressure* the
//! driver (its send blocks until the slow worker drains) — never deadlock
//! — and a worker that panics must surface as that one panic from the
//! driver, within bounded time, with no thread left waiting on it. These
//! tests pin a deliberately slow or failing worker in the mesh at n=2 and
//! n=8 and prove the run ends under a watchdog: a regression that
//! introduces a wait nobody will satisfy fires the watchdog instead of
//! hanging the suite.

use std::marker::PhantomData;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use surge_core::{
    BurstDetector, Event, MeshIngest, MeshWorker, Point, RegionAnswer, RegionSize, ShardAnswer,
    ShardRunStats, ShardWorkerStats, SpatialObject, WindowConfig,
};
use surge_stream::{drive_elastic, BalancerPolicy};

/// A detector whose shard-0 worker sleeps periodically while applying
/// events — every other worker runs at full speed while the driver fills
/// the slow worker's channel and blocks on it — or, with `fail_at` set,
/// panics on its N-th event.
struct SlowMesh {
    shards: usize,
    delay: Duration,
    fail_at: Option<u64>,
    events: u64,
}

impl SlowMesh {
    fn new(shards: usize, delay: Duration) -> Self {
        SlowMesh {
            shards,
            delay,
            fail_at: None,
            events: 0,
        }
    }

    fn failing(shards: usize, fail_at: u64) -> Self {
        SlowMesh {
            fail_at: Some(fail_at),
            ..SlowMesh::new(shards, Duration::ZERO)
        }
    }
}

struct SlowWorker<'a> {
    slow: bool,
    delay: Duration,
    fail_at: Option<u64>,
    events: u64,
    _mesh: PhantomData<&'a ()>,
}

impl MeshWorker for SlowWorker<'_> {
    type Job = ();
    type Outcome = ();

    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
        if self.slow && self.fail_at == Some(self.events) {
            panic!("injected worker failure at event {}", self.events);
        }
        // Sleeping every event would dominate the test's wall clock; every
        // 64th is enough to keep this worker batches behind the driver.
        if self.slow && self.events.is_multiple_of(64) {
            thread::sleep(self.delay);
        }
    }

    fn install_and_best(&mut self, _outcomes: Vec<()>) -> Option<ShardAnswer> {
        None
    }

    fn stats(&self) -> ShardWorkerStats {
        ShardWorkerStats {
            cell_touches: self.events,
            sweeps: 0,
        }
    }
}

impl BurstDetector for SlowMesh {
    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
    }
    fn current(&mut self) -> Option<RegionAnswer> {
        None
    }
    fn name(&self) -> &'static str {
        "slow-mesh"
    }
}

impl MeshIngest for SlowMesh {
    type Job = ();
    type Outcome = ();
    type Worker<'a> = SlowWorker<'a>;

    fn ingest_workers(&mut self) -> Vec<SlowWorker<'_>> {
        let (delay, fail_at) = (self.delay, self.fail_at);
        (0..self.shards)
            .map(|i| SlowWorker {
                slow: i == 0,
                delay,
                fail_at,
                events: 0,
                _mesh: PhantomData,
            })
            .collect()
    }

    fn absorb_shard_run(&mut self, run: ShardRunStats) {
        self.events += run.events;
    }

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

/// With zero dirty cells the balancer stays quiet (load < min_load), so
/// this exercises the broadcast, the flush handshake and the epoch loop
/// under a slow worker without resharding noise.
fn mesh_backpressure(shards: usize) {
    // 9 000 events between flushes, in 256-event batches on a 16-deep
    // channel: the driver fills the slow worker's channel twice over
    // before each flush barrier.
    let n_objects = 6_000usize;
    let (objects, events) = with_watchdog(Duration::from_secs(60), move || {
        let mut d = SlowMesh::new(shards, Duration::from_millis(2));
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

/// Worker 0 panics on its 700th event — mid-stream, between flushes. The
/// driver must end with that panic (not a hang, not a cascade of
/// channel-closed panics) within the watchdog timeout.
fn drive_with_failing_worker(shards: usize) {
    with_watchdog(Duration::from_secs(60), move || {
        let mut d = SlowMesh::failing(shards, 700);
        let r = drive_elastic(
            &mut d,
            WindowConfig::equal(500),
            spread_stream(2_000).into_iter(),
            500,
            BalancerPolicy::default(),
        );
        (r.objects, r.events)
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
