//! `surge-exp` — regenerates the SURGE paper's tables and figures.
//!
//! ```text
//! surge-exp <command> [options]
//!
//! Commands:
//!   table1                 Table I   dataset statistics
//!   fig5   [--axis A]      Fig. 5    exact runtime (A = window | rect)
//!   table2                 Table II  search trigger ratios (CCS vs B-CCS)
//!   fig6   [--axis A]      Fig. 6    approximate runtime (A = window | rect)
//!   fig7                   Fig. 7    runtime vs alpha (US)
//!   table3                 Table III approximation ratio vs alpha (US)
//!   table4                 Table IV  approximation ratio vs window
//!   fig8                   Fig. 8    scalability vs arrival rate
//!   fig9   [--axis A]      Fig. 9    top-k runtime (A = window | k)
//!   case-study             §VII-G    burst localization
//!   latency                extension: per-event tail-latency table
//!   sweep-bench            naive vs segment-tree sweep, flat vs recursive
//!                          and fused vs split segment trees, persistent
//!                          cell sweeps (bit-identity with a from-scratch
//!                          reference asserted first); writes
//!                          BENCH_sweep.json
//!   checkpoint-bench       checkpointed driver vs in-memory driver +
//!                          recovery vs replay-from-zero (bit-identity
//!                          asserted first), one row per WAL fsync
//!                          policy; writes BENCH_checkpoint.json
//!   serve-bench            multi-query serving: one shared server vs N
//!                          dedicated runs (bit-identity asserted first),
//!                          dedup hit-rate and per-query answer
//!                          throughput; writes BENCH_serve.json
//!   observe-bench          observability overhead: the slide-batched
//!                          drivers with the surge-observe layer off vs on
//!                          (bit-identity and registry conservation
//!                          asserted first, overhead column, registry
//!                          export embedded); writes BENCH_observe.json
//!   all                    everything above
//!
//! Options:
//!   --objects N     objects per run for fast algorithms   [default 20000]
//!   --heavy N       objects per run for Base/B-CCS/aG2    [default 6000]
//!   --naive N       objects per run for naive top-k       [default 1200]
//!   --seed S        workload seed                         [default 42]
//!   --datasets D    comma list of uk,us,taxi              [default all]
//!   --fast          smoke-scale preset
//!   --paper         paper-scale preset (1M objects; slow)
//! ```

use std::process::ExitCode;

use surge_bench::{experiments, print, Algo, ExpConfig, SweepAxis};
use surge_stream::Dataset;

struct Args {
    command: String,
    axis: Option<String>,
    cfg: ExpConfig,
    datasets: Vec<Dataset>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut cfg = ExpConfig::default();
    let mut axis = None;
    let mut datasets = Dataset::ALL.to_vec();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--axis" => axis = Some(args.next().ok_or("--axis needs a value")?),
            "--objects" => {
                cfg.objects = args
                    .next()
                    .ok_or("--objects needs a value")?
                    .parse()
                    .map_err(|e| format!("--objects: {e}"))?
            }
            "--heavy" => {
                cfg.heavy_objects = args
                    .next()
                    .ok_or("--heavy needs a value")?
                    .parse()
                    .map_err(|e| format!("--heavy: {e}"))?
            }
            "--naive" => {
                cfg.naive_objects = args
                    .next()
                    .ok_or("--naive needs a value")?
                    .parse()
                    .map_err(|e| format!("--naive: {e}"))?
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--datasets" => {
                let list = args.next().ok_or("--datasets needs a value")?;
                datasets = list
                    .split(',')
                    .map(|d| match d.trim().to_lowercase().as_str() {
                        "uk" => Ok(Dataset::Uk),
                        "us" => Ok(Dataset::Us),
                        "taxi" => Ok(Dataset::Taxi),
                        other => Err(format!("unknown dataset {other}")),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--fast" => cfg = ExpConfig::fast(),
            "--paper" => cfg = ExpConfig::paper(),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    Ok(Args {
        command,
        axis,
        cfg,
        datasets,
    })
}

fn usage() -> String {
    "usage: surge-exp <table1|fig5|table2|fig6|fig7|table3|table4|fig8|fig9|case-study|latency|sweep-bench|checkpoint-bench|serve-bench|observe-bench|all> \
     [--axis window|rect|k] [--objects N] [--heavy N] [--naive N] [--seed S] \
     [--datasets uk,us,taxi] [--fast] [--paper]"
        .to_string()
}

/// Runs the naive-vs-segtree sweep comparison plus the persistent
/// cell-sweep experiment, printing both tables and writing
/// `BENCH_sweep.json` to the working directory.
fn run_sweep_bench(cfg: &ExpConfig) -> Result<(), String> {
    let rows = experiments::sweep_bench(cfg);
    print!("{}", print::sweep_bench(&rows));
    let prows = experiments::persistent_bench(cfg);
    print!("{}", print::persistent_bench(&prows));
    let json = print::sweep_bench_json(&rows, &prows);
    let path = "BENCH_sweep.json";
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("# wrote {path}");
    Ok(())
}

/// Runs the checkpoint/recovery experiment, printing the table and writing
/// `BENCH_checkpoint.json` to the working directory.
fn run_checkpoint_bench(cfg: &ExpConfig) -> Result<(), String> {
    let rows = experiments::checkpoint_bench(cfg);
    print!("{}", print::checkpoint_bench(&rows));
    let json = print::checkpoint_bench_json(&rows);
    let path = "BENCH_checkpoint.json";
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("# wrote {path}");
    Ok(())
}

/// Runs the multi-query serving experiment, printing the table and writing
/// `BENCH_serve.json` to the working directory. Bit-identity of every
/// subscription channel against its dedicated run is asserted inside the
/// experiment before anything is timed, so a successful exit is the smoke
/// check.
fn run_serve_bench(cfg: &ExpConfig) -> Result<(), String> {
    let rows = experiments::serve_bench(cfg);
    print!("{}", print::serve_bench(&rows));
    let json = print::serve_bench_json(&rows);
    let path = "BENCH_serve.json";
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("# wrote {path}");
    Ok(())
}

/// Runs the observability-overhead experiment (the slide-batched drivers
/// with the surge-observe layer off vs on), printing the table and writing
/// `BENCH_observe.json` to the working directory. Bit-identity of the
/// observed runs and conservation of the registry totals against the
/// legacy report counters are asserted inside the experiment before
/// anything is timed, so a successful exit is the smoke check; the JSON
/// embeds the registry's own `to_json` export.
fn run_observe_bench(cfg: &ExpConfig) -> Result<(), String> {
    let (rows, registry) = experiments::observe_bench(cfg);
    print!("{}", print::observe_bench(&rows));
    let json = print::observe_bench_json(&rows, &registry);
    let path = "BENCH_observe.json";
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("# wrote {path}");
    Ok(())
}

fn parse_axis(axis: &Option<String>, default: SweepAxis) -> Result<SweepAxis, String> {
    match axis.as_deref() {
        None => Ok(default),
        Some("window") => Ok(SweepAxis::Window),
        Some("rect") => Ok(SweepAxis::Rect),
        Some("k") => Ok(SweepAxis::K),
        Some(other) => Err(format!("unknown axis {other} (window|rect|k)")),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let cfg = &args.cfg;
    let ds = &args.datasets;
    eprintln!(
        "# scale: objects={} heavy={} naive={} seed={}",
        cfg.objects, cfg.heavy_objects, cfg.naive_objects, cfg.seed
    );
    match args.command.as_str() {
        "table1" => print!("{}", print::table1(&experiments::table1(cfg))),
        "fig5" => {
            let axis = parse_axis(&args.axis, SweepAxis::Window)?;
            let title = match axis {
                SweepAxis::Window => "Fig.5(a-c): exact runtime vs window",
                _ => "Fig.5(d-f): exact runtime vs rect size",
            };
            print!(
                "{}",
                print::runtime(title, &experiments::fig5(ds, axis, cfg))
            );
            eprintln!(
                "# note: {} run on {} objects; CCS on {}",
                Algo::EXACT_SET
                    .iter()
                    .filter(|a| a.is_heavy())
                    .map(|a| a.name())
                    .collect::<Vec<_>>()
                    .join("/"),
                cfg.heavy_objects,
                cfg.objects
            );
        }
        "table2" => print!("{}", print::table2(&experiments::table2(ds, cfg))),
        "fig6" => {
            let axis = parse_axis(&args.axis, SweepAxis::Window)?;
            let title = match axis {
                SweepAxis::Window => "Fig.6(a-c): approx runtime vs window",
                _ => "Fig.6(d-f): approx runtime vs rect size",
            };
            print!(
                "{}",
                print::runtime(title, &experiments::fig6(ds, axis, cfg))
            );
        }
        "fig7" => print!("{}", print::fig7(&experiments::fig7(cfg))),
        "table3" => print!(
            "{}",
            print::ratios(
                "Table III: approximation ratio vs alpha (US)",
                &experiments::table3(cfg)
            )
        ),
        "table4" => print!(
            "{}",
            print::ratios(
                "Table IV: approximation ratio vs window",
                &experiments::table4(ds, cfg)
            )
        ),
        "fig8" => print!("{}", print::fig8(&experiments::fig8(ds, cfg))),
        "fig9" => {
            let axis = parse_axis(&args.axis, SweepAxis::Window)?;
            print!("{}", print::fig9(&experiments::fig9(ds, axis, cfg)));
        }
        "case-study" => print!("{}", print::case_study(&experiments::case_study(cfg))),
        "latency" => {
            let d = ds.first().copied().unwrap_or(Dataset::Taxi);
            print!(
                "{}",
                print::latency(d.spec().name, &experiments::latency_table(d, cfg))
            );
        }
        "sweep-bench" => run_sweep_bench(cfg)?,
        "checkpoint-bench" => run_checkpoint_bench(cfg)?,
        "serve-bench" => run_serve_bench(cfg)?,
        "observe-bench" => run_observe_bench(cfg)?,
        "all" => {
            print!("{}", print::table1(&experiments::table1(cfg)));
            print!(
                "{}",
                print::runtime(
                    "Fig.5(a-c): exact runtime vs window",
                    &experiments::fig5(ds, SweepAxis::Window, cfg)
                )
            );
            print!(
                "{}",
                print::runtime(
                    "Fig.5(d-f): exact runtime vs rect size",
                    &experiments::fig5(ds, SweepAxis::Rect, cfg)
                )
            );
            print!("{}", print::table2(&experiments::table2(ds, cfg)));
            print!(
                "{}",
                print::runtime(
                    "Fig.6(a-c): approx runtime vs window",
                    &experiments::fig6(ds, SweepAxis::Window, cfg)
                )
            );
            print!(
                "{}",
                print::runtime(
                    "Fig.6(d-f): approx runtime vs rect size",
                    &experiments::fig6(ds, SweepAxis::Rect, cfg)
                )
            );
            print!("{}", print::fig7(&experiments::fig7(cfg)));
            print!(
                "{}",
                print::ratios(
                    "Table III: approximation ratio vs alpha (US)",
                    &experiments::table3(cfg)
                )
            );
            print!(
                "{}",
                print::ratios(
                    "Table IV: approximation ratio vs window",
                    &experiments::table4(ds, cfg)
                )
            );
            print!("{}", print::fig8(&experiments::fig8(ds, cfg)));
            print!(
                "{}",
                print::fig9(&experiments::fig9(ds, SweepAxis::Window, cfg))
            );
            print!("{}", print::fig9(&experiments::fig9(ds, SweepAxis::K, cfg)));
            print!("{}", print::case_study(&experiments::case_study(cfg)));
            let d = ds.first().copied().unwrap_or(Dataset::Taxi);
            print!(
                "{}",
                print::latency(d.spec().name, &experiments::latency_table(d, cfg))
            );
            run_sweep_bench(cfg)?;
            run_checkpoint_bench(cfg)?;
            run_serve_bench(cfg)?;
            run_observe_bench(cfg)?;
        }
        other => return Err(format!("unknown command {other}\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
