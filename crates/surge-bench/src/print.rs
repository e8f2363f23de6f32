//! Plain-text table rendering for the `surge-exp` binary.

use std::collections::BTreeMap;

use crate::experiments::{
    AlphaPoint, CaseStudyResult, RatioRow, RuntimePoint, ScalePoint, Table1Row, Table2Row,
    TopKPoint,
};

/// Renders a generic matrix: rows keyed by `param`, one column per algorithm.
fn matrix<R>(
    title: &str,
    rows: &[R],
    dataset: impl Fn(&R) -> String,
    param: impl Fn(&R) -> String,
    algo: impl Fn(&R) -> String,
    value: impl Fn(&R) -> String,
) -> String {
    let mut out = String::new();
    // group by dataset
    let mut by_dataset: BTreeMap<String, Vec<&R>> = BTreeMap::new();
    for r in rows {
        by_dataset.entry(dataset(r)).or_default().push(r);
    }
    for (ds, rs) in by_dataset {
        out.push_str(&format!("\n== {title} — {ds} ==\n"));
        let mut algos: Vec<String> = Vec::new();
        let mut params: Vec<String> = Vec::new();
        let mut cells: BTreeMap<(String, String), String> = BTreeMap::new();
        for r in rs {
            let a = algo(r);
            let p = param(r);
            if !algos.contains(&a) {
                algos.push(a.clone());
            }
            if !params.contains(&p) {
                params.push(p.clone());
            }
            cells.insert((p, a), value(r));
        }
        out.push_str(&format!("{:>10}", ""));
        for a in &algos {
            out.push_str(&format!("{a:>14}"));
        }
        out.push('\n');
        for p in &params {
            out.push_str(&format!("{p:>10}"));
            for a in &algos {
                let v = cells
                    .get(&(p.clone(), a.clone()))
                    .map(String::as_str)
                    .unwrap_or("-");
                out.push_str(&format!("{v:>14}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Table I.
pub fn table1(rows: &[Table1Row]) -> String {
    let mut out = String::from("\n== Table I: Datasets ==\n");
    out.push_str(&format!(
        "{:>8}{:>12}{:>16}{:>24}{:>24}\n",
        "Dataset", "#Objects", "Rate(/hour)", "Latitude range", "Longitude range"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8}{:>12}{:>16.0}{:>24}{:>24}\n",
            r.dataset,
            r.objects,
            r.rate_per_hour,
            format!("{:.2} .. {:.2}", r.lat_range.0, r.lat_range.1),
            format!("{:.2} .. {:.2}", r.lon_range.0, r.lon_range.1),
        ));
    }
    out
}

/// Figs. 5/6 panels.
pub fn runtime(title: &str, rows: &[RuntimePoint]) -> String {
    matrix(
        title,
        rows,
        |r| r.dataset.clone(),
        |r| r.param.clone(),
        |r| r.algo.to_string(),
        |r| {
            // `*` marks full-run fallback timing (window never filled within
            // the object budget).
            let star = if r.stable { "" } else { "*" };
            format!("{:.2}us{star}", r.time_per_object_us)
        },
    )
}

/// Table II.
pub fn table2(rows: &[Table2Row]) -> String {
    let mut out = String::from("\n== Table II: events triggering a search ==\n");
    out.push_str(&format!(
        "{:>8}{:>10}{:>12}{:>12}\n",
        "Dataset", "Window", "CCS", "B-CCS"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8}{:>10}{:>11.2}%{:>11.2}%\n",
            r.dataset,
            r.window,
            r.ccs_ratio * 100.0,
            r.bccs_ratio * 100.0
        ));
    }
    out
}

/// Fig. 7.
pub fn fig7(rows: &[AlphaPoint]) -> String {
    matrix(
        "Fig.7: runtime vs alpha (US)",
        rows,
        |_| "US".to_string(),
        |r| format!("{:.1}", r.alpha),
        |r| r.algo.to_string(),
        |r| format!("{:.2}us", r.time_per_object_us),
    )
}

/// Tables III/IV.
pub fn ratios(title: &str, rows: &[RatioRow]) -> String {
    let mut out = format!("\n== {title} ==\n");
    out.push_str(&format!(
        "{:>8}{:>10}{:>10}{:>10}{:>8}\n",
        "Dataset", "Param", "GAPS", "MGAPS", "N"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8}{:>10}{:>9.2}%{:>9.2}%{:>8}\n",
            r.dataset,
            r.param,
            r.gaps_ratio * 100.0,
            r.mgaps_ratio * 100.0,
            r.checkpoints
        ));
    }
    out
}

/// Fig. 8.
pub fn fig8(rows: &[ScalePoint]) -> String {
    matrix(
        "Fig.8: scalability (seconds per stream-hour)",
        rows,
        |r| r.dataset.clone(),
        |r| format!("{}M/day", r.rate_mpd),
        |r| r.algo.to_string(),
        |r| format!("{:.4}s", r.seconds_per_stream_hour),
    )
}

/// Fig. 9.
pub fn fig9(rows: &[TopKPoint]) -> String {
    matrix(
        "Fig.9: top-k runtime",
        rows,
        |r| r.dataset.clone(),
        |r| r.param.clone(),
        |r| r.algo.to_string(),
        |r| format!("{:.2}us", r.time_per_object_us),
    )
}

/// Case study.
pub fn case_study(r: &CaseStudyResult) -> String {
    format!(
        "\n== Case study: burst localization (Taxi) ==\n\
         injected burst center : ({:.3}, {:.3})\n\
         active interval (ms)  : {} .. {}\n\
         hit rate during burst : {:.1}% ({} checkpoints)\n\
         hit rate before burst : {:.1}%\n",
        r.burst_center.0,
        r.burst_center.1,
        r.burst_interval.0,
        r.burst_interval.1,
        r.hit_rate_during * 100.0,
        r.checkpoints_during,
        r.hit_rate_before * 100.0,
    )
}

/// Tail-latency table (extension).
pub fn latency(dataset: &str, rows: &[crate::experiments::LatencyRow]) -> String {
    let mut out = format!(
        "\n== Tail latency per event ({dataset}) ==\n{:<8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "algo", "mean(us)", "p50(us)", "p95(us)", "p99(us)", "max(us)"
    );
    for r in rows {
        let s = r.summary;
        out.push_str(&format!(
            "{:<8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
            r.algo, s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.max_us
        ));
    }
    out
}

/// Sweep micro-benchmark: naive vs segment-tree SL-CSPOT.
pub fn sweep_bench(rows: &[crate::experiments::SweepBenchRow]) -> String {
    let mut out = format!(
        "\n== SL-CSPOT sweep: naive O(n²) vs segment-tree O(n log n); flat vs recursive tree; fused vs split burst lanes ==\n{:<8} {:>14} {:>14} {:>10} {:>12} {:>12} {:>10} {:>12} {:>12} {:>10}\n",
        "n", "naive (us)", "segtree (us)", "speedup", "flat (us)", "recur (us)", "tree spd",
        "fused (us)", "split (us)", "burst spd"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>14.1} {:>14.1} {:>9.1}x {:>12.1} {:>12.1} {:>9.2}x {:>12.1} {:>12.1} {:>9.2}x\n",
            r.n,
            r.naive_us,
            r.segtree_us,
            r.speedup,
            r.tree_flat_us,
            r.tree_recursive_us,
            r.tree_speedup,
            r.burst_fused_us,
            r.burst_split_us,
            r.burst_speedup
        ));
    }
    out
}

/// The persistent-vs-rebuild cell-sweep experiment as a console table.
/// `rebuilt_leaves` is the hardware-independent work metric; wall-clock is
/// informative only on a 1-CPU container.
pub fn persistent_bench(rows: &[crate::experiments::PersistentBenchRow]) -> String {
    let mut out = format!(
        "\n== Cell sweeps: persistent cross-sweep state vs rebuild-per-search ==\n{:<10} {:<12} {:>9} {:>10} {:>13} {:>10} {:>12} {:>9}\n",
        "workload", "mode", "searches", "churn", "rebuilt-lvs", "rebuilds", "elapsed(ms)", "speedup"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<12} {:>9} {:>10} {:>13} {:>10} {:>12.1} {:>8.2}x\n",
            r.workload,
            r.mode,
            r.searches,
            r.churn_ops,
            r.rebuilt_leaves,
            r.full_rebuilds,
            r.elapsed_ms,
            r.speedup
        ));
    }
    out
}

/// The sweep micro-benchmark plus the persistent-vs-rebuild comparison as a
/// `BENCH_sweep.json` document (hand-rolled: the offline build has no
/// serde).
pub fn sweep_bench_json(
    rows: &[crate::experiments::SweepBenchRow],
    persistent: &[crate::experiments::PersistentBenchRow],
) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"sl_cspot_sweep\",\n  \"unit\": \"us_per_sweep\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"naive_us\": {:.3}, \"segtree_us\": {:.3}, \"speedup\": {:.3}, \"tree_flat_us\": {:.3}, \"tree_recursive_us\": {:.3}, \"tree_speedup\": {:.3}, \"burst_fused_us\": {:.3}, \"burst_split_us\": {:.3}, \"burst_speedup\": {:.3}}}{}\n",
            r.n,
            r.naive_us,
            r.segtree_us,
            r.speedup,
            r.tree_flat_us,
            r.tree_recursive_us,
            r.tree_speedup,
            r.burst_fused_us,
            r.burst_split_us,
            r.burst_speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"persistent\": [\n");
    for (i, r) in persistent.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"mode\": \"{}\", \"objects\": {}, \"searches\": {}, \"churn_ops\": {}, \"rebuilt_leaves\": {}, \"full_rebuilds\": {}, \"elapsed_ms\": {:.1}, \"speedup\": {:.3}}}{}\n",
            r.workload,
            r.mode,
            r.objects,
            r.searches,
            r.churn_ops,
            r.rebuilt_leaves,
            r.full_rebuilds,
            r.elapsed_ms,
            r.speedup,
            if i + 1 < persistent.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The checkpoint/recovery experiment as a console table: durability
/// overhead, snapshot-stall percentiles (p50/p99/max) and recovery time
/// against replay-from-zero.
pub fn checkpoint_bench(rows: &[crate::experiments::CheckpointBenchRow]) -> String {
    let mut out = format!(
        "\n== Checkpoint & recovery: WAL + snapshots vs in-memory, recovery vs replay-from-zero ==\n{:<10} {:<15} {:>8} {:>8} {:>9} {:>9} {:>9} {:>6} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9}\n",
        "workload",
        "sync",
        "objects",
        "slides",
        "base(ms)",
        "ckpt(ms)",
        "overhead",
        "snaps",
        "p50(us)",
        "p99(us)",
        "max(us)",
        "recov(ms)",
        "replay(ms)",
        "speedup"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<15} {:>8} {:>8} {:>9.1} {:>9.1} {:>8.2}x {:>6} {:>9.0} {:>9.0} {:>9.0} {:>10.1} {:>10.1} {:>8.2}x\n",
            r.workload,
            r.sync,
            r.objects,
            r.slides,
            r.baseline_ms,
            r.checkpointed_ms,
            r.overhead,
            r.snapshots,
            r.stall_p50_us,
            r.stall_p99_us,
            r.stall_max_us,
            r.recovery_ms,
            r.replay_from_zero_ms,
            r.recovery_speedup
        ));
    }
    out
}

/// The checkpoint/recovery experiment as a `BENCH_checkpoint.json` document
/// (hand-rolled: the offline build has no serde).
pub fn checkpoint_bench_json(rows: &[crate::experiments::CheckpointBenchRow]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\n  \"benchmark\": \"checkpoint_recovery\",\n  \"cpus\": {cpus},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"sync\": \"{}\", \"objects\": {}, \"slides\": {}, \"baseline_ms\": {:.3}, \"checkpointed_ms\": {:.3}, \"overhead\": {:.3}, \"snapshots\": {}, \"stall_p50_us\": {:.1}, \"stall_p99_us\": {:.1}, \"stall_max_us\": {:.1}, \"wal_appends\": {}, \"recovery_ms\": {:.3}, \"replayed_from_wal\": {}, \"replay_from_zero_ms\": {:.3}, \"recovery_speedup\": {:.3}}}{}\n",
            r.workload,
            r.sync,
            r.objects,
            r.slides,
            r.baseline_ms,
            r.checkpointed_ms,
            r.overhead,
            r.snapshots,
            r.stall_p50_us,
            r.stall_p99_us,
            r.stall_max_us,
            r.wal_appends,
            r.recovery_ms,
            r.replayed,
            r.replay_from_zero_ms,
            r.recovery_speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The multi-query serving experiment as a console table: shared-server
/// cost against the aggregate of N dedicated runs, with the dedup hit-rate
/// and answer throughput.
pub fn serve_bench(rows: &[crate::experiments::ServeBenchRow]) -> String {
    let mut out = format!(
        "\n== Multi-query serving: one shared engine vs N dedicated runs (bit-identity asserted) ==\n{:<8} {:<7} {:>6} {:>8} {:>7} {:>10} {:>10} {:>8} {:>12} {:>12}\n",
        "queries",
        "groups",
        "dedup",
        "objects",
        "slides",
        "indep(ms)",
        "serve(ms)",
        "speedup",
        "ans/s",
        "ans/s/query"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<7} {:>5.0}% {:>8} {:>7} {:>10.1} {:>10.1} {:>7.2}x {:>12.0} {:>12.0}\n",
            r.queries,
            r.groups,
            r.dedup_hit_rate * 100.0,
            r.objects,
            r.slides,
            r.independent_ms,
            r.served_ms,
            r.speedup,
            r.answers_per_sec,
            r.per_query_answers_per_sec
        ));
    }
    out
}

/// The multi-query serving experiment as a `BENCH_serve.json` document
/// (hand-rolled: the offline build has no serde).
pub fn serve_bench_json(rows: &[crate::experiments::ServeBenchRow]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\n  \"benchmark\": \"multi_query_serving\",\n  \"cpus\": {cpus},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"queries\": {}, \"groups\": {}, \"dedup_hit_rate\": {:.4}, \"objects\": {}, \"slides\": {}, \"independent_ms\": {:.3}, \"served_ms\": {:.3}, \"speedup\": {:.3}, \"answers_per_sec\": {:.1}, \"per_query_answers_per_sec\": {:.1}}}{}\n",
            r.queries,
            r.groups,
            r.dedup_hit_rate,
            r.objects,
            r.slides,
            r.independent_ms,
            r.served_ms,
            r.speedup,
            r.answers_per_sec,
            r.per_query_answers_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The observability-overhead experiment as a console table. Paired rows:
/// each driver family timed with the layer off, then on, with the overhead
/// column on the `on` row (the acceptance bar is ≤ 5%).
pub fn observe_bench(rows: &[crate::experiments::ObserveBenchRow]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "\n== Observability overhead: registry + flight recorders vs Observe::off ({cpus} cpu) ==\n{:<12} {:<5} {:>9} {:>9} {:>9} {:>13} {:>12} {:>12} {:>10}\n",
        "driver",
        "mode",
        "objects",
        "events",
        "sweeps",
        "registry",
        "elapsed(ms)",
        "objects/s",
        "overhead"
    );
    for r in rows {
        let registry = if r.mode == "on" {
            r.registry_sweeps.to_string()
        } else {
            "-".to_string()
        };
        let overhead = if r.mode == "on" {
            format!("{:+.1}%", r.overhead_pct)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<12} {:<5} {:>9} {:>9} {:>9} {:>13} {:>12.1} {:>12.0} {:>10}\n",
            r.driver,
            r.mode,
            r.objects,
            r.events,
            r.sweeps,
            registry,
            r.elapsed_ms,
            r.objects_per_sec,
            overhead
        ));
    }
    out
}

/// The observability-overhead experiment as a `BENCH_observe.json`
/// document. The enabled runs' registry is embedded verbatim via
/// [`surge_observe::RegistrySnapshot::to_json`] under `"registry"` — the
/// bench JSON emission rides the registry's own export, not a parallel
/// hand-maintained encoding of the same counters.
pub fn observe_bench_json(
    rows: &[crate::experiments::ObserveBenchRow],
    registry: &surge_observe::RegistrySnapshot,
) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out =
        format!("{{\n  \"benchmark\": \"observe_overhead\",\n  \"cpus\": {cpus},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"driver\": \"{}\", \"mode\": \"{}\", \"objects\": {}, \"events\": {}, \"sweeps\": {}, \"registry_sweeps\": {}, \"elapsed_ms\": {:.3}, \"objects_per_sec\": {:.1}, \"overhead_pct\": {:.2}}}{}\n",
            r.driver,
            r.mode,
            r.objects,
            r.events,
            r.sweeps,
            r.registry_sweeps,
            r.elapsed_ms,
            r.objects_per_sec,
            r.overhead_pct,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"registry\": ");
    out.push_str(registry.to_json().trim_end());
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod observe_tests {
    use super::*;

    #[test]
    fn observe_bench_json_embeds_registry_export() {
        let rows = vec![
            crate::experiments::ObserveBenchRow {
                driver: "elastic",
                mode: "off",
                objects: 10_000,
                events: 40_000,
                sweeps: 300,
                registry_sweeps: 0,
                elapsed_ms: 12.0,
                objects_per_sec: 800_000.0,
                overhead_pct: 0.0,
            },
            crate::experiments::ObserveBenchRow {
                driver: "elastic",
                mode: "on",
                objects: 10_000,
                events: 40_000,
                sweeps: 300,
                registry_sweeps: 300,
                elapsed_ms: 12.3,
                objects_per_sec: 790_000.0,
                overhead_pct: 2.5,
            },
        ];
        let obs = surge_observe::Observe::enabled();
        obs.counter("elastic/sweeps").add(300);
        let json = observe_bench_json(&rows, &obs.snapshot());
        assert!(json.contains("\"benchmark\": \"observe_overhead\""));
        assert!(json.contains("\"overhead_pct\": 2.50"));
        // The registry export is embedded, not re-encoded.
        assert!(json.contains("\"surge-observe-registry-v1\""));
        assert!(json.contains("\"elastic/sweeps\": 300"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
        let table = observe_bench(&rows);
        assert!(table.contains("overhead"));
        assert!(table.contains("+2.5%"));
    }
}

#[cfg(test)]
mod serve_tests {
    use super::*;

    #[test]
    fn serve_bench_json_is_wellformed() {
        let rows = vec![crate::experiments::ServeBenchRow {
            queries: 4,
            groups: 2,
            dedup_hit_rate: 0.5,
            objects: 20_000,
            slides: 79,
            independent_ms: 400.0,
            served_ms: 150.0,
            speedup: 2.67,
            answers_per_sec: 2000.0,
            per_query_answers_per_sec: 500.0,
        }];
        let json = serve_bench_json(&rows);
        assert!(json.contains("\"benchmark\": \"multi_query_serving\""));
        assert!(json.contains("\"dedup_hit_rate\": 0.5000"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = serve_bench(&rows);
        assert!(table.contains("speedup"));
        assert!(table.contains("2.67x"));
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;

    #[test]
    fn checkpoint_bench_json_is_wellformed() {
        let rows = vec![crate::experiments::CheckpointBenchRow {
            workload: "uniform",
            sync: "os-flush",
            objects: 1000,
            slides: 5,
            baseline_ms: 10.0,
            checkpointed_ms: 12.0,
            overhead: 1.2,
            snapshots: 2,
            stall_p50_us: 800.0,
            stall_p99_us: 1200.0,
            stall_max_us: 1500.0,
            wal_appends: 1000,
            recovery_ms: 3.0,
            replayed: 200,
            replay_from_zero_ms: 10.0,
            recovery_speedup: 3.3,
        }];
        let json = checkpoint_bench_json(&rows);
        assert!(json.contains("\"benchmark\": \"checkpoint_recovery\""));
        assert!(json.contains("\"stall_p99_us\": 1200.0"));
        assert!(!json.contains("},\n  ]"));
        let table = checkpoint_bench(&rows);
        assert!(table.contains("uniform"));
        assert!(table.contains("p99"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_bench_json_is_wellformed() {
        let rows = vec![
            crate::experiments::SweepBenchRow {
                n: 64,
                naive_us: 100.0,
                segtree_us: 20.0,
                speedup: 5.0,
                tree_flat_us: 10.0,
                tree_recursive_us: 15.0,
                tree_speedup: 1.5,
                burst_fused_us: 8.0,
                burst_split_us: 12.0,
                burst_speedup: 1.5,
            },
            crate::experiments::SweepBenchRow {
                n: 256,
                naive_us: 1000.0,
                segtree_us: 100.0,
                speedup: 10.0,
                tree_flat_us: 40.0,
                tree_recursive_us: 80.0,
                tree_speedup: 2.0,
                burst_fused_us: 30.0,
                burst_split_us: 45.0,
                burst_speedup: 1.5,
            },
        ];
        let prows = vec![
            crate::experiments::PersistentBenchRow {
                workload: "uniform",
                mode: "rebuild",
                objects: 600,
                searches: 40,
                churn_ops: 0,
                rebuilt_leaves: 4_000,
                full_rebuilds: 40,
                elapsed_ms: 12.0,
                speedup: 1.0,
            },
            crate::experiments::PersistentBenchRow {
                workload: "uniform",
                mode: "persistent",
                objects: 600,
                searches: 40,
                churn_ops: 900,
                rebuilt_leaves: 300,
                full_rebuilds: 3,
                elapsed_ms: 8.0,
                speedup: 1.5,
            },
        ];
        let json = sweep_bench_json(&rows, &prows);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"n\":").count(), 2);
        assert_eq!(json.matches("\"tree_speedup\":").count(), 2);
        assert_eq!(json.matches("\"rebuilt_leaves\":").count(), 2);
        assert_eq!(json.matches("\"mode\": \"persistent\"").count(), 1);
        assert!(sweep_bench(&rows).contains("5.0x"));
        assert!(sweep_bench(&rows).contains("1.50x"));
        let table = persistent_bench(&prows);
        assert!(table.contains("persistent"));
        assert!(table.contains("rebuild"));
        assert!(table.contains("4000"));
    }

    #[test]
    fn latency_table_renders() {
        let rows = vec![crate::experiments::LatencyRow {
            algo: "CCS",
            summary: surge_stream::LatencySummary {
                count: 10,
                mean_us: 1.0,
                p50_us: 0.8,
                p95_us: 2.0,
                p99_us: 3.0,
                max_us: 9.0,
            },
            final_score: 1.25,
        }];
        let text = latency("Taxi", &rows);
        assert!(text.contains("CCS"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn runtime_matrix_renders_all_cells() {
        let rows = vec![
            RuntimePoint {
                dataset: "Taxi".into(),
                param: "1min".into(),
                algo: "CCS",
                time_per_object_us: 1.5,
                objects: 100,
                stable: true,
            },
            RuntimePoint {
                dataset: "Taxi".into(),
                param: "1min".into(),
                algo: "Base",
                time_per_object_us: 9.0,
                objects: 100,
                stable: false,
            },
        ];
        let s = runtime("Fig.5", &rows);
        assert!(s.contains("CCS"));
        assert!(s.contains("Base"));
        assert!(s.contains("1.50us"));
        assert!(s.contains("9.00us*"));
    }

    #[test]
    fn table2_formats_percentages() {
        let s = table2(&[Table2Row {
            dataset: "UK".into(),
            window: "1h".into(),
            ccs_ratio: 0.0027,
            bccs_ratio: 0.2823,
        }]);
        assert!(s.contains("0.27%"));
        assert!(s.contains("28.23%"));
    }
}
