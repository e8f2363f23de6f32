//! Compare every single-region detector on one stream.
//!
//! Each detector replays the same stream through its own sliding-window
//! engine with the per-object driver (`drive`), one after another; the table
//! reports the paper's mean per-object processing time. Every answer refresh
//! is recorded, so the check below compares the detectors at every object,
//! not just at the end.
//!
//! Run with: `cargo run --release --example parallel_comparison`

use surge::prelude::*;

/// Passes every call through to `inner` and records the score of each
/// `current()` refresh (0 when there is no answer).
struct Recorded {
    inner: Box<dyn BurstDetector>,
    scores: Vec<f64>,
}

impl BurstDetector for Recorded {
    fn on_event(&mut self, event: &Event) {
        self.inner.on_event(event);
    }

    fn current(&mut self) -> Option<RegionAnswer> {
        let answer = self.inner.current();
        self.scores.push(answer.map_or(0.0, |a| a.score));
        answer
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn main() {
    let dataset = Dataset::Us;
    let q = dataset.default_region();
    let query = SurgeQuery::new(
        dataset.spec().extent,
        RegionSize::new(q.width, q.height),
        WindowConfig::equal_minutes(15),
        0.5,
    );
    let stream = StreamGenerator::new(dataset.workload(12_000, 7)).generate();
    println!(
        "US model: {} objects over {:.1} stream-hours\n",
        stream.len(),
        stream.last().unwrap().created as f64 / 3.6e6
    );

    let detectors: Vec<Box<dyn BurstDetector>> = vec![
        Box::new(CellCspot::new(query)),
        Box::new(BaseDetector::new(query)),
        Box::new(Ag2::new(query)),
        Box::new(GapSurge::new(query)),
        Box::new(MgapSurge::new(query)),
    ];

    println!(
        "{:<8} {:>16} {:>10}   final score",
        "algo", "mean(us/object)", "wall"
    );
    let mut runs = Vec::new();
    for inner in detectors {
        let mut det = Recorded {
            inner,
            scores: Vec::new(),
        };
        let mut engine = SlidingWindowEngine::new(query.windows);
        let t0 = std::time::Instant::now();
        let stats = drive(&mut det, &mut engine, stream.iter().copied());
        let wall = t0.elapsed();
        // One refresh per object, then one after the tail drain: the last
        // refresh with objects still in the windows is the one before it.
        let last = det.scores[det.scores.len() - 2];
        println!(
            "{:<8} {:>16.2} {:>10.2?}   {:.6}",
            stats.name,
            stats.time_per_object_full_us(),
            wall,
            last
        );
        runs.push((stats.name, det.scores));
    }

    // All exact detectors agree at every refresh; the approximations stay
    // within their bound of the exact score.
    let exact: Vec<&Vec<f64>> = runs
        .iter()
        .filter(|(name, _)| ["CCS", "Base", "aG2"].contains(name))
        .map(|(_, scores)| scores)
        .collect();
    for pair in exact.windows(2) {
        for (a, b) in pair[0].iter().zip(pair[1]) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1e-12), "{a} vs {b}");
        }
    }
    let ratio = query.burst_params().grid_approx_ratio();
    for (name, scores) in &runs {
        if ["GAPS", "MGAPS"].contains(name) {
            for (s, opt) in scores.iter().zip(exact[0]) {
                assert!(*s >= ratio * opt - 1e-12, "{name} below guarantee");
            }
        }
    }
    println!(
        "\nexact detectors agree at every refresh; approximations within the (1-alpha)/4 bound"
    );
}
