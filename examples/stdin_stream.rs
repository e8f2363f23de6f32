//! Continuous monitoring over a live text stream on stdin.
//!
//! Reads objects in the `surge-objects v1` CSV format (see `surge-io`) from
//! standard input and prints a detection line whenever the bursty region
//! moves — the shape of a production deployment where a message bus feeds
//! the detector. The query comes from four positional arguments: the
//! region's width and height, the window length in milliseconds (current
//! and past windows are equal) and α:
//!
//! ```text
//! cargo run --release --example stdin_stream -- 3 3 8000 0.5 < examples/stdin_stream.csv
//! ```
//!
//! With no arguments the demo query (2×2 regions, 10 s windows, α = 0.6)
//! is used, and if stdin is empty a built-in demo stream is processed so
//! the example is runnable standalone. `examples/stdin_stream.csv` holds
//! the same demo stream. Whenever the input is the demo stream, built in
//! or piped, the example asserts that the last region it reports covers
//! the burst injected at (50.2, 50.3).

use std::io::Read;

use surge::io::{read_objects, write_objects};
use surge::prelude::*;

/// Where the demo stream injects its burst.
const HOTSPOT: Point = Point { x: 50.2, y: 50.3 };

/// The query named by the positional arguments, or the demo query when
/// there are none. The query constructors reject out-of-range values.
fn query_from_args(args: &[String]) -> SurgeQuery {
    let (w, h, window, alpha) = match args {
        [] => ("2", "2", "10000", "0.6"),
        [w, h, window, alpha] => (w.as_str(), h.as_str(), window.as_str(), alpha.as_str()),
        _ => {
            eprintln!("usage: stdin_stream [WIDTH HEIGHT WINDOW_MS ALPHA] < objects.csv");
            std::process::exit(2)
        }
    };
    let num = |s: &str| -> f64 { s.parse().unwrap_or_else(|e| panic!("{s:?}: {e}")) };
    let window = window.parse().unwrap_or_else(|e| panic!("{window:?}: {e}"));
    SurgeQuery::whole_space(
        RegionSize::new(num(w), num(h)),
        WindowConfig::equal(window),
        num(alpha),
    )
}

/// Scattered background traffic plus a burst at [`HOTSPOT`] over the last
/// 8 seconds, in arrival order.
fn demo_objects() -> Vec<SpatialObject> {
    let background = (0..20u64).map(|id| {
        let pos = Point::new((id * 37 % 100) as f64, (id * 61 % 100) as f64);
        SpatialObject::new(id, 1.0, pos, id * 1_000)
    });
    let burst = (20..36u64).map(|id| SpatialObject::new(id, 1.0, HOTSPOT, 2_000 + id * 500));
    let mut objects: Vec<_> = background.chain(burst).collect();
    objects.sort_by_key(|o| o.created);
    objects
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let query = query_from_args(&args);

    let mut input = Vec::new();
    std::io::stdin()
        .read_to_end(&mut input)
        .expect("read stdin");
    if input.is_empty() {
        eprintln!("(stdin empty — running the built-in demo stream)");
        // Serialized, so the demo exercises the real parser.
        write_objects(&mut input, &demo_objects()).expect("serialize demo stream");
    }
    let objects = read_objects(&input[..]).unwrap_or_else(|e| panic!("bad input stream: {e}"));
    let demo = objects == demo_objects();
    eprintln!(
        "monitoring {} objects, region {}x{}, windows {}ms, alpha {}",
        objects.len(),
        query.region.width,
        query.region.height,
        query.windows.current_len,
        query.alpha
    );

    let mut detector = CellCspot::new(query);
    let mut engine = SlidingWindowEngine::new(query.windows);
    let mut last: Option<Rect> = None;
    for obj in objects {
        for ev in engine.push(obj) {
            detector.on_event(&ev);
        }
        if let Some(ans) = detector.current() {
            if last != Some(ans.region) {
                println!(
                    "t={}ms region=[{:.3},{:.3}]x[{:.3},{:.3}] score={:.6}",
                    obj.created,
                    ans.region.x0,
                    ans.region.x1,
                    ans.region.y0,
                    ans.region.y1,
                    ans.score
                );
                last = Some(ans.region);
            }
        }
    }
    if demo {
        let last = last.expect("the demo stream produces detections");
        assert!(
            last.contains(HOTSPOT),
            "the demo burst at {HOTSPOT:?} should win at the end, got {last:?}"
        );
        eprintln!("demo burst at ({}, {}) detected", HOTSPOT.x, HOTSPOT.y);
    }
}
