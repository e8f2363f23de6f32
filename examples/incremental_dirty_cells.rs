//! Incremental dirty-cell maintenance, end to end.
//!
//! Drives the same clustered stream through Cell-CSPOT three ways and shows
//! they agree while doing very different amounts of work:
//!
//! 1. the per-object driver (`drive`) — refreshes the answer every object;
//! 2. the slide-batched driver (`drive_slides`) — refreshes once per slide
//!    and reports how many grid cells each slide actually dirtied;
//! 3. the incremental driver (`drive_incremental`) — sweeps every dirty
//!    cell in place once per slide, then reads the all-fresh answer.
//!
//! Run with `cargo run --release --example incremental_dirty_cells`.

use surge::prelude::*;

fn stream(n: usize) -> Vec<SpatialObject> {
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    (0..n)
        .map(|i| {
            let cluster = i % 4;
            SpatialObject::new(
                i as u64,
                1.0 + (i % 3) as f64,
                Point::new(cluster as f64 * 5.0 + next(), cluster as f64 * 3.0 + next()),
                (i as u64) * 5,
            )
        })
        .collect()
}

fn main() {
    let objs = stream(20_000);
    let windows = WindowConfig::equal(2_000);
    let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, 0.5);

    // 1. Per-object refresh.
    let mut per_object = surge::exact::CellCspot::new(query);
    let mut engine = SlidingWindowEngine::new(windows);
    let t0 = std::time::Instant::now();
    let stats = drive(&mut per_object, &mut engine, objs.iter().copied());
    let t_per_object = t0.elapsed();
    let s1 = per_object.current().map(|a| a.score).unwrap_or(0.0);
    println!(
        "per-object : score {:.6}  searches {:>6}  wall {:>7.1?}",
        s1, stats.detector.searches, t_per_object
    );

    // 2. Slide-batched refresh with dirty-cell accounting.
    let mut slide = surge::exact::CellCspot::new(query);
    let mut engine = SlidingWindowEngine::new(windows);
    let t0 = std::time::Instant::now();
    let sstats = drive_slides(
        &mut slide,
        &mut engine,
        query.region,
        objs.iter().copied(),
        256,
    );
    let t_slides = t0.elapsed();
    let s2 = slide.current().map(|a| a.score).unwrap_or(0.0);
    println!(
        "slides     : score {:.6}  searches {:>6}  wall {:>7.1?}  ({} slides, {:.1} dirty cells/slide)",
        s2,
        sstats.detector.searches,
        t_slides,
        sstats.slides,
        sstats.dirty_per_slide()
    );

    // 3. Eager in-place dirty-cell sweeps.
    let mut eager = surge::exact::CellCspot::new(query);
    let t0 = std::time::Instant::now();
    let report = drive_incremental(&mut eager, windows, objs.iter().copied(), 256);
    let t_eager = t0.elapsed();
    let s3 = eager.current().map(|a| a.score).unwrap_or(0.0);
    println!(
        "incremental: score {:.6}  searches {:>6}  wall {:>7.1?}  ({} slides, max {} jobs/slide)",
        s3, report.stats.searches, t_eager, report.slides, report.max_jobs_per_slide
    );

    assert!((s1 - s2).abs() < 1e-12 && (s1 - s3).abs() < 1e-12);
    println!("\nall three paths agree on the final burst score");
}
