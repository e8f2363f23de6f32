//! The repo's benchmark: steady-state end-to-end metrics per workload, and a
//! traced run that attributes the time to layers. See `bench/README.md`.
//!
//! ```text
//! bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! bench check-pairs      compare the digests of paired workloads
//! bench list             the workloads and why each exists
//! bench manifest         the text of BENCHMARK.json
//! ```

mod catalogue;
mod check;
mod layers;
mod pairs;
mod pipelines;
mod record;
mod staged;
mod stats;
mod sut;
mod tap;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use catalogue::{Metric, END_TO_END, PER_LAYER};
use record::{Budget, Replay};
use workloads::{Workload, SLIDE_OBJECTS};

/// Timed segments per run; each throughput figure is the median over them.
const SEGMENTS: usize = 5;

/// Extra set-ups are repeated after the measured run while their total stays
/// within this many seconds (and at most [`MAX_EXTRA_SETUPS`] times), so a
/// short set-up is reported as a median of several and a long one is not
/// paid for twice.
const EXTRA_SETUP_BUDGET_S: f64 = 2.0;
const MAX_EXTRA_SETUPS: usize = 8;

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    format!(
        "usage: bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       \
         bench check-pairs | list | manifest\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = f64::from(catalogue::RUN_SECONDS);
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    workloads::find(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
    })
}

/// Where digests, traces and temporary directories go: `bench/out` under the
/// working directory (the benchmark is run from the repo root).
fn out_dir() -> Result<PathBuf, String> {
    let dir = match std::env::var_os("BENCH_OUT") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new("bench").join("out"),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One timing figure with the spread of the segments behind it.
#[derive(Debug, Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

/// Timed objects per second in each of [`SEGMENTS`] equal runs of slides.
fn segment_rates(replay: &Replay) -> Result<Spread, String> {
    let blocks = replay.block_end_ns.len();
    if blocks < SEGMENTS {
        return Err(format!("only {blocks} timed slides; need {SEGMENTS}"));
    }
    let rates: Vec<f64> = stats::split_segments(0..blocks, SEGMENTS)
        .into_iter()
        .map(|seg| {
            let from = if seg.start == 0 {
                0
            } else {
                replay.block_end_ns[seg.start - 1]
            };
            let ns = replay.block_end_ns[seg.end - 1] - from;
            (seg.len() * SLIDE_OBJECTS) as f64 / (ns as f64 / 1e9)
        })
        .collect();
    Ok(Spread {
        median: stats::median(&rates),
        min: rates.iter().copied().fold(f64::INFINITY, f64::min),
        max: rates.iter().copied().fold(0.0, f64::max),
    })
}

/// Writes `<workload>.digest`: the seed, then `(refreshes, digest)` marks.
fn write_digest(dir: &Path, w: &Workload, seed: u64, replay: &Replay) -> Result<(), String> {
    let mut text = format!("seed {seed}\n");
    for (refreshes, digest) in &replay.digest_marks {
        text.push_str(&format!("{refreshes} {digest:016x}\n"));
    }
    let path = dir.join(format!("{}.digest", w.name));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// `--trace 0`: the end-to-end metrics, measured with tracing off.
fn run_end_to_end(args: &Args, out: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let budget = Budget::Time(Duration::from_secs_f64(args.seconds));
    let (replay, extras) = pipelines::replay(w, args.seed, budget, out)?;
    // The footprint at the workload's object mark. A host too slow to reach
    // the mark reads it now — before the oracle check allocates.
    let peak_rss_mb = match replay.rss_at_mark_mb {
        Some(mb) => mb,
        None => {
            eprintln!(
                "note: the run ended before {} timed objects; peak_rss_mb read at its end",
                w.rss_mark_objects
            );
            record::peak_rss_mb()?
        }
    };
    let rates = segment_rates(&replay)?;
    let p50 = stats::percentile(&replay.lat_ns, 50.0)?;
    let p95 = stats::percentile(&replay.lat_ns, 95.0)?;
    write_digest(out, w, args.seed, &replay)?;

    let verdict = check::gate(w, args.seed, &replay, &extras.panel_samples)?;
    for reason in &verdict.reasons {
        eprintln!("FAILED {reason}");
    }

    // Set-up again, off the measured run, until the extra budget is spent.
    let mut setups = vec![replay.setup_s];
    let extra = ((EXTRA_SETUP_BUDGET_S / replay.setup_s) as usize).min(MAX_EXTRA_SETUPS);
    for _ in 0..extra {
        let (again, _) = pipelines::replay(w, args.seed, Budget::SetupOnly, out)?;
        setups.push(again.setup_s);
    }

    println!(
        "{}: seed {}, {} timed objects in {:.3} s of wall-clock ({:.3} s calibrated), \
         {} refreshes, {} checked against the oracle",
        w.name,
        args.seed,
        replay.timed_objects,
        replay.timed_raw_s,
        replay.timed_s,
        replay.timed_refreshes,
        verdict.checked
    );
    println!(
        "  uncalibrated: {:.1} objects/s, set-up {:.4} s",
        replay.timed_objects as f64 / replay.timed_raw_s,
        replay.setup_raw_s
    );
    println!(
        "  objects_per_s per segment: min {:.1} median {:.1} max {:.1}; set-ups: {:?}",
        rates.min, rates.median, rates.max, setups
    );
    let values = [
        ("objects_per_s", rates.median),
        ("answer_p50_us", p50 as f64 / 1e3),
        ("answer_p95_us", p95 as f64 / 1e3),
        ("setup_s", stats::median(&setups)),
        ("peak_rss_mb", peak_rss_mb),
    ];
    Ok(Outcome {
        attempted: replay.timed_refreshes as u64,
        failed: verdict.failed,
        metrics: catalogue::fill(&END_TO_END, &values)?,
    })
}

/// `--trace 1`: the per-layer metrics, from harness-side spans.
fn run_traced(args: &Args, out: &Path) -> Result<Outcome, String> {
    let traced = layers::run(args.workload, args.seed, args.seconds, out)?;
    Ok(Outcome {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: catalogue::fill(&PER_LAYER, &traced.values)?,
    })
}

fn print_outcome(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => {
            for w in &workloads::ALL {
                println!("{:<18} {}", w.name, w.why);
            }
            return Ok(true);
        }
        Some("manifest") => {
            print!("{}", catalogue::manifest());
            return Ok(true);
        }
        Some("check-pairs") => return pairs::check_pairs(&out_dir()?).map(|()| true),
        _ => {}
    }
    let args = parse_args(&argv)?;
    let out = out_dir()?;
    let outcome = if args.trace {
        run_traced(&args, &out)?
    } else {
        run_end_to_end(&args, &out)?
    };
    if outcome.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    print_outcome(&outcome);
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
