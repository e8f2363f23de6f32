//! The metric catalogue: names, units, direction and bounds, exactly as
//! `BENCHMARK.json` declares them (a unit test holds the two together).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

/// One measured metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

pub const END_TO_END: [Decl; 5] = [
    e2e("objects_per_s", "1/s", Better::Higher, 0.20),
    e2e("answer_p50_us", "us", Better::Lower, 0.20),
    e2e("answer_p95_us", "us", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.06),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run. They carry no bound: they say
/// where an end-to-end change came from, they do not gate it.
pub const PER_LAYER: [Decl; 57] = [
    layer("window.push_ns_per_object", "ns", Lower),
    layer("window.events_per_object", "count", Lower),
    layer("window.busy_share", "share", Lower),
    layer("window.resident_objects", "count", Lower),
    layer("cell.on_event_ns_per_event", "ns", Lower),
    layer("cell.busy_share", "share", Lower),
    layer("cell.trigger_ratio", "ratio", Lower),
    layer("cell.searches_per_object", "count", Lower),
    layer("sweep.busy_share", "share", Lower),
    layer("sweep.ns_per_sweep", "ns", Lower),
    layer("sweep.sweeps_per_object", "count", Lower),
    layer("sweep.plan_reuse_ratio", "ratio", Higher),
    layer("sweep.epoch_hit_ratio", "ratio", Higher),
    layer("sweep.kernel_ns_per_rect_n64", "ns", Lower),
    layer("sweep.kernel_ns_per_rect_n1024", "ns", Lower),
    layer("answer.scan_ns_per_refresh", "ns", Lower),
    layer("answer.busy_share", "share", Lower),
    layer("answer.changed_ratio", "ratio", Higher),
    layer("runtime.driver_vs_staged", "ratio", Lower),
    layer("mesh.speedup_vs_seq", "ratio", Higher),
    layer("mesh.one_shard_vs_seq", "ratio", Higher),
    layer("mesh.flush_share", "share", Lower),
    layer("mesh.after_flush_share", "share", Lower),
    layer("mesh.steal_share", "share", Lower),
    layer("mesh.reshards", "count", Lower),
    layer("mesh.final_shards", "count", Lower),
    layer("mesh.max_shard_sweep_share", "share", Lower),
    layer("approx.busy_share", "share", Lower),
    layer("approx.mgaps_ns_per_event", "ns", Lower),
    layer("approx.gaps_ns_per_event", "ns", Lower),
    layer("approx.mgaps_refresh_ns", "ns", Lower),
    layer("approx.mgaps_score_ratio_p50", "ratio", Higher),
    layer("approx.gaps_score_ratio_p50", "ratio", Higher),
    layer("approx.bound_violations", "count", Lower),
    layer("topk.ns_per_event", "ns", Lower),
    layer("topk.refresh_ns", "ns", Lower),
    layer("topk.searches_per_object", "count", Lower),
    layer("serve.ingest_ns_per_object", "ns", Lower),
    layer("serve.drain_ack_ns_per_flush", "ns", Lower),
    layer("serve.dedup_hit_rate", "ratio", Higher),
    layer("serve.shared_vs_dedicated", "ratio", Higher),
    layer("serve.retained_answers_max", "count", Lower),
    layer("ckpt.throughput_vs_memory", "ratio", Higher),
    layer("ckpt.flush_share", "share", Lower),
    layer("ckpt.after_flush_share", "share", Lower),
    layer("ckpt.snapshot_stall_mean_ms", "ms", Lower),
    layer("ckpt.snapshot_stall_max_ms", "ms", Lower),
    layer("ckpt.snapshots_written", "count", Lower),
    layer("ckpt.snapshot_bytes", "bytes", Lower),
    layer("ckpt.wal_bytes_per_object", "bytes", Lower),
    layer("ckpt.recover_ms", "ms", Lower),
    layer("ckpt.recover_replayed_objects", "count", Lower),
    layer("io.encode_ns_per_object", "ns", Lower),
    layer("io.decode_ns_per_object", "ns", Lower),
    layer("trace.coverage_share", "share", Higher),
    layer("trace.overhead_share", "share", Lower),
    layer("host.calib_ns", "ns", Lower),
];

/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 8;

/// The command `BENCHMARK.json` declares, run from the repo root.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`: the catalogue above and the workload list,
/// in the contract's shape. `bench manifest` prints it and a unit test holds
/// the committed file to it.
pub fn manifest() -> String {
    use std::fmt::Write as _;
    let better = |b: Better| match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    };
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"command\": [{}],", quoted.join(", "));
    let _ = writeln!(s, "  \"paths\": [\"bench\"],");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(s, "  \"workloads\": [");
    let n = crate::workloads::ALL.len();
    for (i, w) in crate::workloads::ALL.iter().enumerate() {
        let sep = if i + 1 == n { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"end_to_end\": [");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            better(d.better),
            d.bound.expect("end-to-end metrics carry a bound")
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"per_layer\": [");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name,
            d.unit,
            better(d.better)
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Pairs every declared metric with its measured value, in declaration
/// order. A declared metric without a value, a value nobody declared, or a
/// non-finite value is an error: the output contract is all-or-nothing.
pub fn fill(decls: &[Decl], values: &[(&str, f64)]) -> Result<Vec<Metric>, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(name, _)| !decls.iter().any(|d| d.name == *name))
    {
        return Err(format!("metric {name} is measured but not declared"));
    }
    decls
        .iter()
        .map(|d| {
            let mut found = values.iter().filter(|(name, _)| *name == d.name);
            match (found.next(), found.next()) {
                (Some((_, v)), None) if v.is_finite() => Ok(Metric {
                    name: d.name,
                    unit: d.unit,
                    value: *v,
                }),
                (Some((_, v)), None) => Err(format!("metric {} is {v}", d.name)),
                (None, _) => Err(format!("metric {} was not measured", d.name)),
                (Some(_), Some(_)) => Err(format!("metric {} was measured twice", d.name)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "BENCHMARK.json is out of step; regenerate it with `bench manifest`"
        );
    }

    #[test]
    fn declarations_meet_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(d.name) && ok_unit(d.unit), "{d:?}");
            names.push(d.name);
        }
        for w in &crate::workloads::ALL {
            assert!(ok_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
            names.push(w.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|d| matches!(d.bound, Some(b) if b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()) && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn fill_is_all_or_nothing() {
        let decls = &END_TO_END[..2];
        assert!(fill(decls, &[("objects_per_s", 1.0)]).is_err());
        assert!(fill(
            decls,
            &[("objects_per_s", 1.0), ("answer_p50_us", f64::NAN)]
        )
        .is_err());
        assert!(fill(
            decls,
            &[
                ("objects_per_s", 1.0),
                ("answer_p50_us", 2.0),
                ("nope", 3.0)
            ]
        )
        .is_err());
        let ok = fill(decls, &[("answer_p50_us", 2.0), ("objects_per_s", 1.0)]).unwrap();
        assert_eq!(
            (ok[0].name, ok[0].value, ok[1].value),
            ("objects_per_s", 1.0, 2.0)
        );
    }
}
