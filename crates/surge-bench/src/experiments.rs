//! Experiment runners, one per table/figure of the paper.
//!
//! All runners are deterministic given an [`ExpConfig`] (object counts and
//! seed). Absolute timings depend on the machine; the *shapes* — which
//! algorithm wins, how curves grow with window/rect/α/rate/k — are what the
//! paper's evaluation (§VII) establishes.

use surge_core::{
    BurstDetector, RegionSize, SpatialObject, SurgeQuery, TopKDetector, WindowConfig, SCORE_EPS,
};
use surge_stream::{
    drive, drive_topk, BurstSpec, Dataset, RunStats, SlidingWindowEngine, StreamGenerator,
};

use surge_approx::{GapSurge, MgapSurge};
use surge_baseline::Ag2;
use surge_exact::{BaseDetector, BoundMode, CellCspot};
use surge_topk::{KCellCspot, KGapSurge, KMgapSurge, NaiveTopK};

/// The single-region algorithms the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Cell-CSPOT (exact, combined bounds).
    Ccs,
    /// Cell-CSPOT with static bound only (ablation).
    Bccs,
    /// No-bound per-event search (ablation).
    Base,
    /// Adapted continuous-MaxRS competitor.
    Ag2,
    /// Grid approximation.
    Gaps,
    /// Multi-grid approximation.
    Mgaps,
}

impl Algo {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Ccs => "CCS",
            Algo::Bccs => "B-CCS",
            Algo::Base => "Base",
            Algo::Ag2 => "aG2",
            Algo::Gaps => "GAPS",
            Algo::Mgaps => "MGAPS",
        }
    }

    /// The four exact-solution curves of Fig. 5.
    pub const EXACT_SET: [Algo; 4] = [Algo::Ccs, Algo::Bccs, Algo::Base, Algo::Ag2];
    /// The two approximate curves of Fig. 6.
    pub const APPROX_SET: [Algo; 2] = [Algo::Gaps, Algo::Mgaps];

    /// Builds a fresh detector for `query`.
    pub fn build(&self, query: SurgeQuery) -> Box<dyn BurstDetector> {
        match self {
            Algo::Ccs => Box::new(CellCspot::new(query)),
            Algo::Bccs => Box::new(CellCspot::with_mode(query, BoundMode::StaticOnly)),
            Algo::Base => Box::new(BaseDetector::new(query)),
            Algo::Ag2 => Box::new(Ag2::new(query)),
            Algo::Gaps => Box::new(GapSurge::new(query)),
            Algo::Mgaps => Box::new(MgapSurge::new(query)),
        }
    }

    /// Whether this algorithm pays a super-linear per-event cost and should
    /// run on a reduced stream in the combined harness.
    pub fn is_heavy(&self) -> bool {
        matches!(self, Algo::Bccs | Algo::Base | Algo::Ag2)
    }
}

/// Scale knobs for the harness.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Objects per run for fast algorithms (CCS, GAPS, MGAPS).
    pub objects: usize,
    /// Objects per run for the heavy ablations/baselines (B-CCS, Base, aG2).
    pub heavy_objects: usize,
    /// Objects per run for the naive top-k strawman.
    pub naive_objects: usize,
    /// Workload seed.
    pub seed: u64,
    /// Checkpoint stride for quality measurements (Tables III/IV).
    pub quality_stride: usize,
    /// Cap on the total stream length (warm-up + measurement) for fast
    /// algorithms. Long windows need long warm-ups (≈ arrival-rate × 2·|W|);
    /// configurations whose warm-up exceeds this cap fall back to full-run
    /// timing and are marked `*` in the output.
    pub max_objects: usize,
    /// Same cap for the heavy ablations/baselines.
    pub max_heavy_objects: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            objects: 20_000,
            heavy_objects: 6_000,
            naive_objects: 1_200,
            seed: 42,
            quality_stride: 50,
            max_objects: 450_000,
            max_heavy_objects: 30_000,
        }
    }
}

impl ExpConfig {
    /// A fast smoke-scale configuration (used by `--fast`).
    pub fn fast() -> Self {
        ExpConfig {
            objects: 4_000,
            heavy_objects: 1_500,
            naive_objects: 400,
            seed: 42,
            quality_stride: 25,
            max_objects: 40_000,
            max_heavy_objects: 8_000,
        }
    }

    /// Paper-scale configuration (1M objects; expect long runtimes).
    pub fn paper() -> Self {
        ExpConfig {
            objects: 1_000_000,
            heavy_objects: 100_000,
            naive_objects: 5_000,
            seed: 42,
            quality_stride: 1_000,
            max_objects: 2_000_000,
            max_heavy_objects: 500_000,
        }
    }
}

/// Which parameter a figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Sliding-window length (Figs. 5/6/9 a–c).
    Window,
    /// Query-rectangle size (Figs. 5/6 d–f).
    Rect,
    /// Top-k `k` (Fig. 9 d–f).
    K,
}

/// The paper's window sweep for a dataset, as (label, config) pairs.
pub fn window_sweep(dataset: Dataset) -> Vec<(String, WindowConfig)> {
    match dataset {
        Dataset::Taxi => [1u64, 5, 10, 20, 30]
            .iter()
            .map(|m| (format!("{m}min"), WindowConfig::equal_minutes(*m)))
            .collect(),
        _ => [
            (30u64, "0.5h"),
            (60, "1h"),
            (120, "2h"),
            (300, "5h"),
            (720, "12h"),
        ]
        .iter()
        .map(|(m, label)| (label.to_string(), WindowConfig::equal_minutes(*m)))
        .collect(),
    }
}

/// The paper's rectangle sweep: 0.5q, q, 2q, 3q.
pub fn rect_sweep() -> Vec<(String, f64)> {
    vec![
        ("0.5q".into(), 0.5),
        ("q".into(), 1.0),
        ("2q".into(), 2.0),
        ("3q".into(), 3.0),
    ]
}

/// The paper's α sweep.
pub fn alpha_sweep() -> Vec<f64> {
    vec![0.1, 0.3, 0.5, 0.7, 0.9]
}

/// The paper's k sweep.
pub fn k_sweep() -> Vec<usize> {
    vec![3, 5, 7, 9]
}

/// Default α used everywhere the paper doesn't sweep it.
pub const DEFAULT_ALPHA: f64 = 0.5;

fn query_for(dataset: Dataset, windows: WindowConfig, rect_scale: f64, alpha: f64) -> SurgeQuery {
    let q = dataset.default_region();
    SurgeQuery::new(
        dataset.spec().extent,
        RegionSize::new(q.width * rect_scale, q.height * rect_scale),
        windows,
        alpha,
    )
}

fn stream_for(dataset: Dataset, objects: usize, seed: u64) -> Vec<SpatialObject> {
    StreamGenerator::new(dataset.workload(objects, seed)).generate()
}

/// Total stream length needed to measure `measure` objects after the windows
/// stabilize, capped. Warm-up ≈ arrival-rate × 2.2·|W| (first expiry happens
/// after two full windows).
fn objects_for(dataset: Dataset, windows: WindowConfig, measure: usize, cap: usize) -> usize {
    let rate = dataset.spec().rate_per_hour;
    let window_hours = windows.current_len as f64 / 3.6e6 + windows.past_len as f64 / 3.6e6;
    let warmup = (rate * window_hours * 1.1).ceil() as usize;
    (warmup + measure).min(cap).max(measure.min(cap))
}

/// Runs one single-region algorithm over a dataset stream and reports timing.
pub fn run_algo(
    algo: Algo,
    dataset: Dataset,
    windows: WindowConfig,
    rect_scale: f64,
    alpha: f64,
    objects: usize,
    seed: u64,
) -> RunStats {
    let query = query_for(dataset, windows, rect_scale, alpha);
    let mut detector = algo.build(query);
    let mut engine = SlidingWindowEngine::new(windows);
    let stream = stream_for(dataset, objects, seed);
    drive(detector.as_mut(), &mut engine, stream.into_iter())
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dataset name.
    pub dataset: String,
    /// Generated object count.
    pub objects: usize,
    /// Empirical arrival rate (objects per hour).
    pub rate_per_hour: f64,
    /// Latitude range (y).
    pub lat_range: (f64, f64),
    /// Longitude range (x).
    pub lon_range: (f64, f64),
}

/// Regenerates Table I from the synthetic dataset models.
pub fn table1(cfg: &ExpConfig) -> Vec<Table1Row> {
    Dataset::ALL
        .iter()
        .map(|d| {
            let objs = stream_for(*d, cfg.objects, cfg.seed);
            let span_h = objs.last().map_or(0.0, |o| o.created as f64 / 3.6e6);
            let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
            for o in &objs {
                x0 = x0.min(o.pos.x);
                x1 = x1.max(o.pos.x);
                y0 = y0.min(o.pos.y);
                y1 = y1.max(o.pos.y);
            }
            Table1Row {
                dataset: d.to_string(),
                objects: objs.len(),
                rate_per_hour: objs.len() as f64 / span_h.max(1e-9),
                lat_range: (y0, y1),
                lon_range: (x0, x1),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 5 & 6: runtime vs window / rect size
// ---------------------------------------------------------------------------

/// One measured point of a runtime figure.
#[derive(Debug, Clone)]
pub struct RuntimePoint {
    /// Dataset name.
    pub dataset: String,
    /// Sweep-parameter label ("1h", "2q", …).
    pub param: String,
    /// Algorithm name.
    pub algo: &'static str,
    /// Mean processing time per object, microseconds.
    pub time_per_object_us: f64,
    /// Objects processed in the timed phase.
    pub objects: u64,
    /// Whether the measurement comes from the stable phase (paper
    /// methodology) or the full-run fallback (window never filled within the
    /// object budget; marked `*` in the output).
    pub stable: bool,
}

fn runtime_sweep(
    datasets: &[Dataset],
    algos: &[Algo],
    axis: SweepAxis,
    cfg: &ExpConfig,
) -> Vec<RuntimePoint> {
    let mut out = Vec::new();
    for &dataset in datasets {
        let params: Vec<(String, WindowConfig, f64)> = match axis {
            SweepAxis::Window => window_sweep(dataset)
                .into_iter()
                .map(|(label, w)| (label, w, 1.0))
                .collect(),
            SweepAxis::Rect => rect_sweep()
                .into_iter()
                .map(|(label, s)| (label, dataset.spec().default_windows, s))
                .collect(),
            SweepAxis::K => panic!("K axis is only valid for fig9"),
        };
        for (label, windows, rect_scale) in params {
            for &algo in algos {
                let (measure, cap) = if algo.is_heavy() {
                    (cfg.heavy_objects, cfg.max_heavy_objects)
                } else {
                    (cfg.objects, cfg.max_objects)
                };
                let objects = objects_for(dataset, windows, measure, cap);
                let stats = run_algo(
                    algo,
                    dataset,
                    windows,
                    rect_scale,
                    DEFAULT_ALPHA,
                    objects,
                    cfg.seed,
                );
                let (t, stable) = if stats.objects > 0 {
                    (stats.time_per_object_us(), true)
                } else {
                    (stats.time_per_object_full_us(), false)
                };
                out.push(RuntimePoint {
                    dataset: dataset.to_string(),
                    param: label.clone(),
                    algo: algo.name(),
                    time_per_object_us: t,
                    objects: stats.objects,
                    stable,
                });
            }
        }
    }
    out
}

/// Fig. 5: exact solutions (CCS, B-CCS, Base, aG2) vs window length or
/// rectangle size, per dataset.
pub fn fig5(datasets: &[Dataset], axis: SweepAxis, cfg: &ExpConfig) -> Vec<RuntimePoint> {
    runtime_sweep(datasets, &Algo::EXACT_SET, axis, cfg)
}

/// Fig. 6: approximate solutions (GAPS, MGAPS) vs window length or rectangle
/// size, per dataset.
pub fn fig6(datasets: &[Dataset], axis: SweepAxis, cfg: &ExpConfig) -> Vec<RuntimePoint> {
    runtime_sweep(datasets, &Algo::APPROX_SET, axis, cfg)
}

// ---------------------------------------------------------------------------
// Table II: search trigger ratio
// ---------------------------------------------------------------------------

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Dataset name.
    pub dataset: String,
    /// Window label.
    pub window: String,
    /// Fraction of events that triggered ≥1 cell search in CCS.
    pub ccs_ratio: f64,
    /// Same for B-CCS.
    pub bccs_ratio: f64,
}

/// Regenerates Table II: the fraction of rectangle messages that trigger a
/// cell search, CCS vs B-CCS, across the window sweep.
pub fn table2(datasets: &[Dataset], cfg: &ExpConfig) -> Vec<Table2Row> {
    let mut out = Vec::new();
    for &dataset in datasets {
        for (label, windows) in window_sweep(dataset) {
            let objects = objects_for(dataset, windows, cfg.heavy_objects, cfg.max_heavy_objects);
            let ccs = run_algo(
                Algo::Ccs,
                dataset,
                windows,
                1.0,
                DEFAULT_ALPHA,
                objects,
                cfg.seed,
            );
            let bccs = run_algo(
                Algo::Bccs,
                dataset,
                windows,
                1.0,
                DEFAULT_ALPHA,
                objects,
                cfg.seed,
            );
            out.push(Table2Row {
                dataset: dataset.to_string(),
                window: label,
                ccs_ratio: ccs.detector.trigger_ratio(),
                bccs_ratio: bccs.detector.trigger_ratio(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 7: runtime vs alpha (US)
// ---------------------------------------------------------------------------

/// One measured point of Fig. 7.
#[derive(Debug, Clone)]
pub struct AlphaPoint {
    /// α value.
    pub alpha: f64,
    /// Algorithm name.
    pub algo: &'static str,
    /// Mean processing time per object, microseconds.
    pub time_per_object_us: f64,
}

/// Fig. 7: runtime vs α on US (CCS + aG2 for the exact panel, GAPS + MGAPS
/// for the approximate panel).
pub fn fig7(cfg: &ExpConfig) -> Vec<AlphaPoint> {
    let dataset = Dataset::Us;
    let windows = WindowConfig::equal_hours(1);
    let mut out = Vec::new();
    for alpha in alpha_sweep() {
        for algo in [Algo::Ccs, Algo::Ag2, Algo::Gaps, Algo::Mgaps] {
            let (measure, cap) = if algo.is_heavy() {
                (cfg.heavy_objects, cfg.max_heavy_objects)
            } else {
                (cfg.objects, cfg.max_objects)
            };
            let objects = objects_for(dataset, windows, measure, cap);
            let stats = run_algo(algo, dataset, windows, 1.0, alpha, objects, cfg.seed);
            let t = if stats.objects > 0 {
                stats.time_per_object_us()
            } else {
                stats.time_per_object_full_us()
            };
            out.push(AlphaPoint {
                alpha,
                algo: algo.name(),
                time_per_object_us: t,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tables III & IV: approximation ratio
// ---------------------------------------------------------------------------

/// One approximation-ratio measurement.
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Dataset name.
    pub dataset: String,
    /// Sweep label (α value or window label).
    pub param: String,
    /// Mean GAPS/OPT burst-score ratio over the checkpoints.
    pub gaps_ratio: f64,
    /// Mean MGAPS/OPT ratio.
    pub mgaps_ratio: f64,
    /// Number of checkpoints sampled.
    pub checkpoints: usize,
}

/// Runs CCS (exact oracle), GAPS and MGAPS side by side and samples the score
/// ratio every `stride` objects once the stream is stable.
fn quality_run(
    dataset: Dataset,
    windows: WindowConfig,
    alpha: f64,
    objects: usize,
    stride: usize,
    seed: u64,
) -> (f64, f64, usize) {
    let query = query_for(dataset, windows, 1.0, alpha);
    let mut ccs = CellCspot::new(query);
    let mut gaps = GapSurge::new(query);
    let mut mgaps = MgapSurge::new(query);
    let mut engine = SlidingWindowEngine::new(windows);
    let stream = stream_for(dataset, objects, seed);

    let mut sum_gaps = 0.0;
    let mut sum_mgaps = 0.0;
    let mut n = 0usize;
    for (i, obj) in stream.into_iter().enumerate() {
        let stable = engine.is_stable();
        for ev in engine.push(obj) {
            ccs.on_event(&ev);
            gaps.on_event(&ev);
            mgaps.on_event(&ev);
        }
        if stable && i % stride == 0 {
            let opt = ccs.current().map_or(0.0, |a| a.score);
            if opt > SCORE_EPS {
                let g = gaps.current().map_or(0.0, |a| a.score);
                let m = mgaps.current().map_or(0.0, |a| a.score);
                sum_gaps += (g / opt).min(1.0);
                sum_mgaps += (m / opt).min(1.0);
                n += 1;
            }
        }
    }
    if n == 0 {
        (0.0, 0.0, 0)
    } else {
        (sum_gaps / n as f64, sum_mgaps / n as f64, n)
    }
}

/// Table III: approximation ratio vs α on US.
pub fn table3(cfg: &ExpConfig) -> Vec<RatioRow> {
    let dataset = Dataset::Us;
    alpha_sweep()
        .into_iter()
        .map(|alpha| {
            let windows = WindowConfig::equal_hours(1);
            let objects = objects_for(dataset, windows, cfg.objects, cfg.max_objects);
            let (g, m, n) = quality_run(
                dataset,
                windows,
                alpha,
                objects,
                cfg.quality_stride,
                cfg.seed,
            );
            RatioRow {
                dataset: dataset.to_string(),
                param: format!("{alpha:.1}"),
                gaps_ratio: g,
                mgaps_ratio: m,
                checkpoints: n,
            }
        })
        .collect()
}

/// Table IV: approximation ratio vs window size, all datasets.
pub fn table4(datasets: &[Dataset], cfg: &ExpConfig) -> Vec<RatioRow> {
    let mut out = Vec::new();
    for &dataset in datasets {
        for (label, windows) in window_sweep(dataset) {
            let objects = objects_for(dataset, windows, cfg.objects, cfg.max_objects);
            let (g, m, n) = quality_run(
                dataset,
                windows,
                DEFAULT_ALPHA,
                objects,
                cfg.quality_stride,
                cfg.seed,
            );
            out.push(RatioRow {
                dataset: dataset.to_string(),
                param: label,
                gaps_ratio: g,
                mgaps_ratio: m,
                checkpoints: n,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 8: scalability vs arrival rate
// ---------------------------------------------------------------------------

/// One measured point of Fig. 8.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Dataset name.
    pub dataset: String,
    /// Arrival rate, millions of objects per day.
    pub rate_mpd: f64,
    /// Algorithm name.
    pub algo: &'static str,
    /// Wall-clock seconds needed per hour of stream time (`t_h`).
    pub seconds_per_stream_hour: f64,
}

/// Fig. 8: CCS and GAPS processing cost per stream-hour as the stream is
/// stretched to 2–10 million objects per day (1-hour windows).
pub fn fig8(datasets: &[Dataset], cfg: &ExpConfig) -> Vec<ScalePoint> {
    let rates = [2.0, 4.0, 6.0, 8.0, 10.0];
    let windows = WindowConfig::equal_hours(1);
    let mut out = Vec::new();
    for &dataset in datasets {
        for &rate in &rates {
            for algo in [Algo::Ccs, Algo::Gaps] {
                // Stretching multiplies the resident-object count: at R
                // million/day with 1-hour windows, ~R/24 million objects sit
                // in the two windows. The object budget is a fixed measuring
                // span; the full-run metric (warm-up included) is used so
                // every rate is measurable within the budget.
                let objects = cfg.objects;
                let query = query_for(dataset, windows, 1.0, DEFAULT_ALPHA);
                let workload = dataset
                    .workload(objects, cfg.seed)
                    .stretched_to_rate(rate * 1e6);
                let mut det = algo.build(query);
                let mut engine = SlidingWindowEngine::new(windows);
                let stream = StreamGenerator::new(workload).generate();
                let stats = drive(det.as_mut(), &mut engine, stream.into_iter());
                out.push(ScalePoint {
                    dataset: dataset.to_string(),
                    rate_mpd: rate,
                    algo: algo.name(),
                    seconds_per_stream_hour: stats.seconds_per_stream_hour_full(),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 9: top-k
// ---------------------------------------------------------------------------

/// One measured point of Fig. 9.
#[derive(Debug, Clone)]
pub struct TopKPoint {
    /// Dataset name.
    pub dataset: String,
    /// Sweep label (window label or k value).
    pub param: String,
    /// Algorithm name.
    pub algo: &'static str,
    /// Mean processing time per object, microseconds.
    pub time_per_object_us: f64,
}

fn run_topk(
    detector: &mut dyn TopKDetector,
    dataset: Dataset,
    windows: WindowConfig,
    objects: usize,
    seed: u64,
) -> RunStats {
    let mut engine = SlidingWindowEngine::new(windows);
    let stream = stream_for(dataset, objects, seed);
    drive_topk(detector, &mut engine, stream.into_iter())
}

fn topk_time(stats: &RunStats) -> f64 {
    if stats.objects > 0 {
        stats.time_per_object_us()
    } else {
        stats.time_per_object_full_us()
    }
}

/// Fig. 9: top-k runtime. `axis == Window` sweeps the window with k=3 (panels
/// a–c, plus the Naive strawman on US); `axis == K` sweeps k∈{3,5,7,9} at the
/// default window (panels d–f).
pub fn fig9(datasets: &[Dataset], axis: SweepAxis, cfg: &ExpConfig) -> Vec<TopKPoint> {
    let mut out = Vec::new();
    match axis {
        SweepAxis::K => {
            for &dataset in datasets {
                let windows = dataset.spec().default_windows;
                for k in k_sweep() {
                    let query = query_for(dataset, windows, 1.0, DEFAULT_ALPHA);
                    let heavy =
                        objects_for(dataset, windows, cfg.heavy_objects, cfg.max_heavy_objects);
                    let fast = objects_for(dataset, windows, cfg.objects, cfg.max_objects);
                    let mut kccs = KCellCspot::new(query, k);
                    let s = run_topk(&mut kccs, dataset, windows, heavy, cfg.seed);
                    out.push(TopKPoint {
                        dataset: dataset.to_string(),
                        param: format!("k={k}"),
                        algo: "kCCS",
                        time_per_object_us: topk_time(&s),
                    });
                    let mut kgaps = KGapSurge::new(query, k);
                    let s = run_topk(&mut kgaps, dataset, windows, fast, cfg.seed);
                    out.push(TopKPoint {
                        dataset: dataset.to_string(),
                        param: format!("k={k}"),
                        algo: "kGAPS",
                        time_per_object_us: topk_time(&s),
                    });
                    let mut kmgaps = KMgapSurge::new(query, k);
                    let s = run_topk(&mut kmgaps, dataset, windows, fast, cfg.seed);
                    out.push(TopKPoint {
                        dataset: dataset.to_string(),
                        param: format!("k={k}"),
                        algo: "kMGAPS",
                        time_per_object_us: topk_time(&s),
                    });
                }
            }
        }
        _ => {
            let k = 3;
            for &dataset in datasets {
                for (label, windows) in window_sweep(dataset) {
                    let query = query_for(dataset, windows, 1.0, DEFAULT_ALPHA);
                    let heavy =
                        objects_for(dataset, windows, cfg.heavy_objects, cfg.max_heavy_objects);
                    let fast = objects_for(dataset, windows, cfg.objects, cfg.max_objects);
                    let mut kccs = KCellCspot::new(query, k);
                    let s = run_topk(&mut kccs, dataset, windows, heavy, cfg.seed);
                    out.push(TopKPoint {
                        dataset: dataset.to_string(),
                        param: label.clone(),
                        algo: "kCCS",
                        time_per_object_us: topk_time(&s),
                    });
                    let mut kgaps = KGapSurge::new(query, k);
                    let s = run_topk(&mut kgaps, dataset, windows, fast, cfg.seed);
                    out.push(TopKPoint {
                        dataset: dataset.to_string(),
                        param: label.clone(),
                        algo: "kGAPS",
                        time_per_object_us: topk_time(&s),
                    });
                    let mut kmgaps = KMgapSurge::new(query, k);
                    let s = run_topk(&mut kmgaps, dataset, windows, fast, cfg.seed);
                    out.push(TopKPoint {
                        dataset: dataset.to_string(),
                        param: label.clone(),
                        algo: "kMGAPS",
                        time_per_object_us: topk_time(&s),
                    });
                    // The paper runs the Naive strawman only on US with a
                    // small window; mirror that (first window value only).
                    if dataset == Dataset::Us && label == "0.5h" {
                        let mut naive = NaiveTopK::new(query, k);
                        let s = run_topk(&mut naive, dataset, windows, cfg.naive_objects, cfg.seed);
                        out.push(TopKPoint {
                            dataset: dataset.to_string(),
                            param: label.clone(),
                            algo: "Naive",
                            time_per_object_us: topk_time(&s),
                        });
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Case study (§VII-G / Appendix L)
// ---------------------------------------------------------------------------

/// Outcome of the burst-localization case study.
#[derive(Debug, Clone)]
pub struct CaseStudyResult {
    /// Injected burst center.
    pub burst_center: (f64, f64),
    /// Burst activity interval (ms).
    pub burst_interval: (u64, u64),
    /// Fraction of during-burst checkpoints where the detected region's
    /// center lies within 4σ of the burst center.
    pub hit_rate_during: f64,
    /// Fraction of pre-burst checkpoints where it (spuriously) does.
    pub hit_rate_before: f64,
    /// Number of checkpoints inspected during the burst.
    pub checkpoints_during: usize,
}

/// The case study: injects a localized demand spike into the Taxi stream and
/// verifies CCS localizes it — the analogue of the paper's "concert" and
/// "parade" detections on real tweets.
pub fn case_study(cfg: &ExpConfig) -> CaseStudyResult {
    let dataset = Dataset::Taxi;
    let windows = dataset.spec().default_windows;
    let query = query_for(dataset, windows, 1.0, 0.8); // burst-focused α
    let objects = cfg.objects.max(10_000);
    // Place the burst at a quiet spot, active through the middle of the
    // stream's timespan.
    let rate = dataset.spec().rate_per_hour;
    let span_ms = (objects as f64 / rate * 3.6e6) as u64;
    let burst = BurstSpec {
        center: surge_core::Point::new(12.70, 42.05),
        sigma: 0.002,
        start: span_ms / 2,
        duration: (windows.current_len * 4).min(span_ms / 4).max(1),
        intensity: 0.7,
    };
    let workload = dataset.workload(objects, cfg.seed).with_burst(burst);
    let stream = StreamGenerator::new(workload).generate();

    let mut ccs = CellCspot::new(query);
    let mut engine = SlidingWindowEngine::new(windows);
    let mut during_hits = 0usize;
    let mut during_total = 0usize;
    let mut before_hits = 0usize;
    let mut before_total = 0usize;
    for (i, obj) in stream.into_iter().enumerate() {
        let t = obj.created;
        for ev in engine.push(obj) {
            ccs.on_event(&ev);
        }
        if i % 20 != 0 {
            continue;
        }
        let Some(ans) = ccs.current() else { continue };
        // The burst spreads over ~4σ, wider than the tiny query region, so
        // "localized" means the detected region sits inside the burst zone
        // (its center within 4σ of the injected center), not that it covers
        // the exact center point.
        let c = ans.region.center();
        let dist2 = (c.x - burst.center.x).powi(2) + (c.y - burst.center.y).powi(2);
        let hit = dist2 <= (4.0 * burst.sigma).powi(2);
        // Give the windows one window-length to fill with burst traffic.
        if t >= burst.start + windows.current_len / 2
            && t < burst.start + burst.duration + windows.current_len / 2
        {
            during_total += 1;
            during_hits += hit as usize;
        } else if t < burst.start {
            before_total += 1;
            before_hits += hit as usize;
        }
    }
    CaseStudyResult {
        burst_center: (burst.center.x, burst.center.y),
        burst_interval: (burst.start, burst.start + burst.duration),
        hit_rate_during: during_hits as f64 / during_total.max(1) as f64,
        hit_rate_before: before_hits as f64 / before_total.max(1) as f64,
        checkpoints_during: during_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            objects: 600,
            heavy_objects: 300,
            naive_objects: 100,
            seed: 7,
            quality_stride: 20,
            max_objects: 5_000,
            max_heavy_objects: 2_000,
        }
    }

    #[test]
    fn table1_reports_all_datasets() {
        let rows = table1(&tiny());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.objects, 600);
            assert!(r.rate_per_hour > 0.0);
            assert!(r.lon_range.0 <= r.lon_range.1);
        }
    }

    #[test]
    fn fig5_produces_grid_of_points() {
        let rows = fig5(&[Dataset::Taxi], SweepAxis::Rect, &tiny());
        // 4 rect sizes x 4 algorithms
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|r| r.time_per_object_us >= 0.0));
    }

    #[test]
    fn fig6_produces_grid_of_points() {
        let rows = fig6(&[Dataset::Taxi], SweepAxis::Window, &tiny());
        assert_eq!(rows.len(), 10); // 5 windows x 2 algos
    }

    #[test]
    fn table2_ccs_triggers_less_than_bccs() {
        let rows = table2(&[Dataset::Taxi], &tiny());
        assert_eq!(rows.len(), 5);
        // Per-window ratios can invert by noise on tiny streams; the
        // dominance that Table II shows is an aggregate property.
        let ccs: f64 = rows.iter().map(|r| r.ccs_ratio).sum();
        let bccs: f64 = rows.iter().map(|r| r.bccs_ratio).sum();
        assert!(
            ccs <= bccs + 0.05,
            "aggregate CCS trigger ratio {ccs} should not exceed B-CCS {bccs}"
        );
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.ccs_ratio));
            assert!((0.0..=1.0).contains(&r.bccs_ratio));
        }
    }

    #[test]
    fn table34_ratios_within_bounds() {
        let mut cfg = tiny();
        cfg.objects = 800;
        let rows = table4(&[Dataset::Taxi], &cfg);
        // Short test streams cannot stabilize the longer windows; require at
        // least the shortest window to produce checkpoints, and validate the
        // bounds wherever checkpoints exist.
        assert!(rows.iter().any(|r| r.checkpoints > 0));
        for r in rows.iter().filter(|r| r.checkpoints > 0) {
            assert!((0.0..=1.0 + 1e-9).contains(&r.gaps_ratio));
            assert!(
                r.mgaps_ratio >= r.gaps_ratio - 0.05,
                "MGAPS should be ~>= GAPS"
            );
        }
    }

    #[test]
    fn fig8_produces_rate_curves() {
        let rows = fig8(&[Dataset::Taxi], &tiny());
        assert_eq!(rows.len(), 10); // 5 rates x 2 algos
    }

    #[test]
    fn fig9_k_axis() {
        let rows = fig9(&[Dataset::Taxi], SweepAxis::K, &tiny());
        assert_eq!(rows.len(), 12); // 4 k values x 3 algos
    }

    #[test]
    fn case_study_localizes_burst() {
        let mut cfg = tiny();
        cfg.objects = 12_000;
        let r = case_study(&cfg);
        assert!(r.checkpoints_during > 0);
        assert!(
            r.hit_rate_during > 0.6,
            "burst should be localized most of the time: {r:?}"
        );
        assert!(
            r.hit_rate_before < 0.2,
            "quiet spot should rarely be reported before the burst: {r:?}"
        );
    }
}
