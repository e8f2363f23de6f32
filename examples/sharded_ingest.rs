//! Sharded ingest, end to end.
//!
//! Drives one clustered stream through Cell-CSPOT two ways:
//!
//! 1. the sequential incremental driver (`drive_incremental`) — every event
//!    is applied on the calling thread, dirty-cell sweeps fan out per slide;
//! 2. the shard mesh (`drive_elastic`) — the detector splits into one
//!    worker per shard (spatial-hash sharding of the cell map), events are
//!    broadcast to every worker over channels, and both ingest *and* sweeps
//!    run shard-parallel at the detector's width for the whole run.
//!
//! The two must agree bit-for-bit at every slide boundary — sharding is a
//! wall-clock optimization, never a semantic one — and the example verifies
//! exactly that before printing per-shard load statistics.
//!
//! Run with `cargo run --release --example sharded_ingest`.

use surge::prelude::*;

fn stream(n: usize) -> Vec<SpatialObject> {
    let mut state = 0x5EED_0F5E_ED0F_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    (0..n)
        .map(|i| {
            // Six hot clusters plus a uniform background: plenty of distinct
            // cells, skewed load.
            let pos = if i % 5 == 0 {
                Point::new(next() * 40.0, next() * 40.0)
            } else {
                let cluster = i % 6;
                Point::new(
                    cluster as f64 * 6.0 + next(),
                    (cluster % 3) as f64 * 4.0 + next(),
                )
            };
            SpatialObject::new(i as u64, 1.0 + (i % 4) as f64, pos, (i as u64) * 3)
        })
        .collect()
}

fn main() {
    let query = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(2_000), 0.6);
    let windows = query.windows;
    let objs = stream(30_000);
    let slide = 256;

    // 1. Sequential reference: unsharded store, single-threaded ingest.
    let mut seq = CellCspot::with_shards(query, BoundMode::Combined, 1);
    let t0 = std::time::Instant::now();
    let seq_report = drive_incremental(&mut seq, windows, objs.iter().copied(), slide);
    let seq_elapsed = t0.elapsed();

    // 2. The mesh: 8 shard workers ingest and sweep concurrently.
    let shards = 8;
    let mut par = CellCspot::with_shards(query, BoundMode::Combined, shards);
    let t0 = std::time::Instant::now();
    let report = drive_elastic(&mut par, windows, objs.iter().copied(), slide);
    let par_elapsed = t0.elapsed();

    // Bit-identity check at every slide boundary.
    assert_eq!(report.answers.len(), seq_report.answers.len());
    let mut diverged = 0usize;
    for (a, b) in report.answers.iter().zip(seq_report.answers.iter()) {
        match (a, b) {
            (Some(x), Some(y))
                if x.score.to_bits() == y.score.to_bits()
                    && x.point.x.to_bits() == y.point.x.to_bits()
                    && x.point.y.to_bits() == y.point.y.to_bits() => {}
            (None, None) => {}
            _ => diverged += 1,
        }
    }
    assert_eq!(diverged, 0, "shard mesh diverged from sequential");

    println!("== shard mesh vs sequential incremental ==");
    println!(
        "objects {}  events {}  slides {}  sweeps {}",
        report.objects, report.events, report.slides, report.sweeps
    );
    println!(
        "sequential: {:>8.1} ms   ({:.0} obj/s)",
        seq_elapsed.as_secs_f64() * 1e3,
        seq_report.objects as f64 / seq_elapsed.as_secs_f64()
    );
    println!(
        "mesh x{}:    {:>8.1} ms   ({:.0} obj/s, {:.2}x)",
        shards,
        par_elapsed.as_secs_f64() * 1e3,
        report.objects as f64 / par_elapsed.as_secs_f64(),
        seq_elapsed.as_secs_f64() / par_elapsed.as_secs_f64()
    );
    println!(
        "answers bit-identical across {} flushes  (last live score {:?})",
        report.slides,
        report.answers[report.answers.len() - 2].map(|a| a.score)
    );

    // Per-shard load: the spatial hash should spread the clusters' cells
    // instead of funnelling a hot spot into one worker.
    println!("\n== per-shard load ==");
    println!("{:<8} {:>14} {:>10}", "shard", "cell-touches", "sweeps");
    let shard_stats = &report.epochs[0].shard_stats;
    for (i, s) in shard_stats.iter().enumerate() {
        println!("{:<8} {:>14} {:>10}", i, s.cell_touches, s.sweeps);
    }
    let touches: u64 = shard_stats.iter().map(|s| s.cell_touches).sum();
    let max_touches = shard_stats
        .iter()
        .map(|s| s.cell_touches)
        .max()
        .unwrap_or(0);
    println!(
        "total {} touches, max shard {:.1}% (ideal {:.1}%)",
        touches,
        100.0 * max_touches as f64 / touches.max(1) as f64,
        100.0 / shard_stats.len().max(1) as f64
    );
}
