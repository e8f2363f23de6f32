//! Micro-benchmarks for the building blocks: the SL-CSPOT sweep, the sliding
//! window engine, and the workload generator. These are not paper figures;
//! they quantify the substrate costs that the end-to-end figures build on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use surge_core::{BurstParams, Rect, SpatialObject, WindowConfig, WindowKind};
use surge_exact::{sl_cspot, SweepRect};
use surge_stream::{Dataset, SlidingWindowEngine, StreamGenerator};
use surge_testkit::{maxrs_sweep, sl_cspot_naive};

fn make_rects(n: usize) -> Vec<SweepRect> {
    // Deterministic LCG scene with ~50% overlap density and mixed windows.
    let mut state = 0x12345678u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    (0..n)
        .map(|i| {
            let x0 = next() * 10.0;
            let y0 = next() * 10.0;
            SweepRect {
                rect: Rect::new(x0, y0, x0 + 1.0, y0 + 1.0),
                weight: 1.0 + next(),
                kind: if i % 3 == 0 {
                    WindowKind::Past
                } else {
                    WindowKind::Current
                },
            }
        })
        .collect()
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sl_cspot");
    let params = BurstParams {
        alpha: 0.5,
        current_norm: 1.0,
        past_norm: 1.0,
    };
    let area = Rect::new(0.0, 0.0, 50.0, 50.0);
    for n in [16usize, 64, 256] {
        let rects = make_rects(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &rects, |b, r| {
            b.iter(|| sl_cspot(r, &area, &params))
        });
    }
    g.finish();
}

/// The headline comparison: the `O(n log n)` segment-tree sweep vs the
/// `O(n²)` naive reference sweep (`surge-testkit`) on identical scenes. `surge_exp sweep-bench`
/// emits the same comparison as `BENCH_sweep.json`.
fn bench_sweep_segtree_vs_naive(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    let params = BurstParams {
        alpha: 0.5,
        current_norm: 1.0,
        past_norm: 1.0,
    };
    let area = Rect::new(0.0, 0.0, 50.0, 50.0);
    for n in [64usize, 256, 1024, 4096] {
        let rects = make_rects(n);
        g.bench_with_input(BenchmarkId::new("sweep_segtree", n), &rects, |b, r| {
            b.iter(|| sl_cspot(r, &area, &params))
        });
        // The naive sweep at n = 4096 touches ~(4n)² slab×interval pairs;
        // keep scenes identical so the ratio is the speedup.
        g.bench_with_input(BenchmarkId::new("sweep_naive", n), &rects, |b, r| {
            b.iter(|| sl_cspot_naive(r, &area, &params))
        });
    }
    g.finish();
}

/// Ablation: the O(n log n) α=0 MaxRS sweep vs the general O(n²) sweep on
/// the same scenes (the general sweep is what the detectors use; this
/// quantifies what an α=0 fast path would buy).
fn bench_maxrs_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("maxrs_vs_general");
    let params = BurstParams {
        alpha: 0.0,
        current_norm: 1.0,
        past_norm: 1.0,
    };
    let area = Rect::new(0.0, 0.0, 50.0, 50.0);
    for n in [64usize, 256] {
        let rects = make_rects(n);
        g.bench_with_input(BenchmarkId::new("general", n), &rects, |b, r| {
            b.iter(|| sl_cspot(r, &area, &params))
        });
        g.bench_with_input(BenchmarkId::new("maxrs_fast", n), &rects, |b, r| {
            b.iter(|| maxrs_sweep(r, &area, &params))
        });
    }
    g.finish();
}

fn bench_window_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_engine");
    g.sample_size(20);
    let stream: Vec<SpatialObject> =
        StreamGenerator::new(Dataset::Taxi.workload(50_000, 1)).generate();
    g.bench_function("push_50k", |b| {
        b.iter(|| {
            let mut eng = SlidingWindowEngine::new(WindowConfig::equal_minutes(5));
            let mut events = 0usize;
            for o in &stream {
                events += eng.push(*o).len();
            }
            events
        })
    });
    g.finish();
}

fn bench_generator(c: &mut Criterion) {
    let mut g = c.benchmark_group("generator");
    g.sample_size(20);
    g.bench_function("taxi_50k", |b| {
        b.iter(|| StreamGenerator::new(Dataset::Taxi.workload(50_000, 1)).generate())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sweep,
    bench_sweep_segtree_vs_naive,
    bench_maxrs_ablation,
    bench_window_engine,
    bench_generator
);
criterion_main!(benches);
