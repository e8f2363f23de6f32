//! A detector capture, and the decode of its DETECTOR section, allocate a
//! fixed number of buffers whatever the cell count: the per-cell state is
//! one column-major cell table, not four `Vec`s per cell. Counted with a
//! counting global allocator, so the check is exact and noise-free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use surge_checkpoint::{CheckpointMeta, CheckpointState, DetectorSpec};
use surge_core::{
    BurstDetector, CheckpointableDetector, DetectorState, EngineState, Event, Point, RegionSize,
    SpatialObject, SurgeQuery, TopKDetector, WindowConfig,
};
use surge_exact::{BoundMode, CellCspot, SweepMode};
use surge_io::Snapshot;
use surge_topk::KCellCspot;

/// Counts every allocation and reallocation the process makes.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made. The test
/// binary holds one test, so no other thread allocates meanwhile.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

const MAX_ALLOCATIONS: u64 = 16;

fn query() -> SurgeQuery {
    // Nothing expires: every arrival stays resident.
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(1 << 40), 0.5)
}

/// One arrival per unit-lattice point of a `side × side` square: each
/// object's region-sized rectangle touches up to four unit cells, so the
/// detectors hold about `(side + 1)²` cells.
fn lattice(side: u64) -> Vec<Event> {
    (0..side * side)
        .map(|i| {
            let (x, y) = ((i % side) as f64 + 0.25, (i / side) as f64 + 0.5);
            let obj = SpatialObject::new(i, 1.0 + (i % 3) as f64, Point::new(x, y), i);
            Event::new_arrival(obj)
        })
        .collect()
}

/// Counts the capture (`captured` returns the detector's cell count, its
/// state and the allocations the capture made) and the DETECTOR decode of
/// one detector. The other sections are empty, so nothing else varies.
fn count(
    spec: DetectorSpec,
    cells: Range<usize>,
    captured: impl FnOnce() -> (usize, DetectorState, u64),
) -> [u64; 2] {
    let (cell_count, detector, capture) = captured();
    assert!(cells.contains(&cell_count), "{spec:?}: {cell_count} cells");
    assert_eq!(detector.cells.len(), cell_count);
    let state = CheckpointState {
        meta: CheckpointMeta {
            objects_ingested: 0,
            slides_done: 0,
            slide_objects: 1,
            snapshot_seq: 1,
        },
        spec,
        query: query(),
        engine: EngineState {
            windows: query().windows,
            now: 0,
            last_created: 0,
            started: false,
            current: Vec::new(),
            past: Vec::new(),
        },
        detector,
        answers_released: 0,
        answers: Vec::new(),
    };
    let snap = Snapshot::decode(&state.encode_into(Vec::new())).expect("container");
    let (decoded, decode) = allocations(|| CheckpointState::from_snapshot(&snap));
    assert_eq!(decoded.expect("decodes"), state);
    [capture, decode]
}

#[test]
fn capture_and_decode_allocations_do_not_grow_with_cells() {
    let cell_spec = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 8,
    };
    let mut rows = Vec::new();
    for (side, cells) in [(16, 250..350), (70, 4_800..5_200)] {
        let events = lattice(side);
        let cell = count(cell_spec, cells.clone(), || {
            let mut d = CellCspot::with_shards(query(), BoundMode::Combined, 8);
            for ev in &events {
                d.on_event(ev);
            }
            let (state, n) = allocations(|| d.capture_state());
            (d.cell_count(), state, n)
        });
        let topk = count(DetectorSpec::TopK { k: 3 }, cells, || {
            let mut d = KCellCspot::new(query(), 3);
            for ev in &events {
                TopKDetector::on_event(&mut d, ev);
            }
            let (state, n) = allocations(|| d.capture_state());
            (d.cell_count(), state, n)
        });
        rows.push([cell, topk]);
    }
    for counts in &rows {
        for [capture, decode] in counts {
            assert!(
                *capture <= MAX_ALLOCATIONS,
                "capture: {capture} allocations"
            );
            assert!(*decode <= MAX_ALLOCATIONS, "decode: {decode} allocations");
        }
    }
    assert_eq!(
        rows[0], rows[1],
        "allocations grew with the cell count (per detector: [capture, decode])"
    );
}
