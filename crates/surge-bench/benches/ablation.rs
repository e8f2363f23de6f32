//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * `ablation_bounds` — the value of the upper-bound machinery: CCS
//!   (static + dynamic bounds + candidate points) vs B-CCS (static only)
//!   vs Base (none); the cost gap is the paper's Table II / Fig. 5 story.
//! * `ablation_ag2_cell` — sensitivity of the adapted aG2 baseline to its
//!   grid-cell factor (the paper fixes 10q; this shows the choice matters).
//! * `ablation_sweep` — the generic SL-CSPOT sweep vs the `O(n log n)`
//!   segment-tree MaxRS sweep on the α = 0 special case.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use surge_baseline::Ag2;
use surge_bench::experiments::{run_algo, Algo, DEFAULT_ALPHA};
use surge_core::{
    BurstDetector, BurstParams, Rect, RegionSize, SurgeQuery, WindowConfig, WindowKind,
};
use surge_exact::{maxrs_sweep, sl_cspot, SweepRect};
use surge_stream::{Dataset, SlidingWindowEngine, StreamGenerator};

const OBJECTS: usize = 2_500;
const SEED: u64 = 42;

fn bench_bound_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_bounds");
    g.sample_size(10);
    let windows = WindowConfig::equal_minutes(2);
    for algo in [Algo::Ccs, Algo::Bccs, Algo::Base] {
        g.bench_function(algo.name(), |b| {
            b.iter(|| {
                run_algo(
                    algo,
                    Dataset::Taxi,
                    windows,
                    1.0,
                    DEFAULT_ALPHA,
                    OBJECTS,
                    SEED,
                )
            })
        });
    }
    g.finish();
}

fn bench_ag2_cell_factor(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_ag2_cell");
    g.sample_size(10);
    let dataset = Dataset::Taxi;
    let q = dataset.default_region();
    let windows = WindowConfig::equal_minutes(2);
    let query = SurgeQuery::new(
        dataset.spec().extent,
        RegionSize::new(q.width, q.height),
        windows,
        DEFAULT_ALPHA,
    );
    let stream = StreamGenerator::new(dataset.workload(OBJECTS, SEED)).generate();
    for factor in [2.0f64, 5.0, 10.0, 20.0] {
        g.bench_with_input(BenchmarkId::from_parameter(factor), &factor, |b, &f| {
            b.iter(|| {
                let mut det = Ag2::with_cell_factor(query, f);
                let mut engine = SlidingWindowEngine::new(windows);
                for obj in stream.iter().copied() {
                    for ev in engine.push(obj) {
                        det.on_event(&ev);
                    }
                }
                det.current().map(|a| a.score).unwrap_or(0.0)
            })
        });
    }
    g.finish();
}

/// A deterministic snapshot of current-window sweep rectangles.
fn snapshot(n: usize) -> Vec<SweepRect> {
    (0..n)
        .map(|i| {
            let x = (i * 37 % 199) as f64 * 0.5;
            let y = (i * 61 % 173) as f64 * 0.5;
            SweepRect {
                rect: Rect::new(x, y, x + 4.0, y + 4.0),
                weight: 1.0 + (i % 7) as f64,
                kind: WindowKind::Current,
            }
        })
        .collect()
}

fn bench_sweep_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sweep");
    g.sample_size(10);
    let area = Rect::new(
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::INFINITY,
    );
    let params = BurstParams::new(0.0, WindowConfig::equal(1_000));
    for n in [200usize, 800, 2_000] {
        let rects = snapshot(n);
        g.bench_with_input(BenchmarkId::new("sl_cspot", n), &rects, |b, r| {
            b.iter(|| sl_cspot(r, &area, &params).map(|s| s.score))
        });
        g.bench_with_input(BenchmarkId::new("maxrs_tree", n), &rects, |b, r| {
            b.iter(|| maxrs_sweep(r, &area, &params).map(|s| s.score))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_bound_ablation,
    bench_ag2_cell_factor,
    bench_sweep_variants
);
criterion_main!(benches);
