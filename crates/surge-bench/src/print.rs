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

#[cfg(test)]
mod tests {
    use super::*;

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
