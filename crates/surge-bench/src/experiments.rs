//! Experiment runners, one per table/figure of the paper.
//!
//! All runners are deterministic given an [`ExpConfig`] (object counts and
//! seed). Absolute timings depend on the machine; the *shapes* — which
//! algorithm wins, how curves grow with window/rect/α/rate/k — are what the
//! paper's evaluation establishes and what `EXPERIMENTS.md` compares.

use surge_core::{
    BurstDetector, RegionSize, SpatialObject, SurgeQuery, TopKDetector, WindowConfig, SCORE_EPS,
};
use surge_stream::{
    drive, drive_topk, BurstSpec, Dataset, RunStats, SlidingWindowEngine, StreamGenerator,
};

use surge_approx::{GapSurge, MgapSurge};
use surge_baseline::Ag2;
use surge_exact::{BaseDetector, BoundMode, CellCspot, SweepMode, DEFAULT_SHARDS};
use surge_topk::{KCellCspot, KGapSurge, KMgapSurge, NaiveTopK};
// The canonical generator lives in `surge-testkit`, so the soak and
// differential tests exercise byte-for-byte the streams `BENCH_*.json` report.
use surge_testkit::uniform_stream;

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

    /// Builds a fresh detector for `query` (persistent cross-sweep state —
    /// the production configuration).
    pub fn build(&self, query: SurgeQuery) -> Box<dyn BurstDetector> {
        self.build_with(query, SweepMode::Persistent)
    }

    /// Builds a fresh detector with an explicit per-cell sweep mode. The
    /// mode only affects the exact cell detectors (CCS / B-CCS); answers
    /// are bit-identical either way — [`SweepMode::Rebuild`] exists so the
    /// harness can time the pre-persistence cost profile
    /// (`surge-exp --persistent off`).
    pub fn build_with(&self, query: SurgeQuery, sweep_mode: SweepMode) -> Box<dyn BurstDetector> {
        match self {
            Algo::Ccs => Box::new(CellCspot::with_sweep_mode(
                query,
                BoundMode::Combined,
                sweep_mode,
                DEFAULT_SHARDS,
            )),
            Algo::Bccs => Box::new(CellCspot::with_sweep_mode(
                query,
                BoundMode::StaticOnly,
                sweep_mode,
                DEFAULT_SHARDS,
            )),
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
    /// Per-cell sweep mode for the exact cell detectors (`surge-exp
    /// --persistent on|off`). Answers are bit-identical in both modes;
    /// `Rebuild` times the pre-persistence cost profile.
    pub sweep_mode: SweepMode,
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
            sweep_mode: SweepMode::Persistent,
        }
    }
}

impl ExpConfig {
    /// A fast smoke-scale configuration (used by `--fast` and the criterion
    /// benches).
    pub fn fast() -> Self {
        ExpConfig {
            objects: 4_000,
            heavy_objects: 1_500,
            naive_objects: 400,
            seed: 42,
            quality_stride: 25,
            max_objects: 40_000,
            max_heavy_objects: 8_000,
            sweep_mode: SweepMode::Persistent,
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
            sweep_mode: SweepMode::Persistent,
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
    run_algo_with_mode(
        algo,
        dataset,
        windows,
        rect_scale,
        alpha,
        objects,
        seed,
        SweepMode::Persistent,
    )
}

/// [`run_algo`] with an explicit per-cell sweep mode (the `--persistent`
/// toggle; only the exact cell detectors are affected).
#[allow(clippy::too_many_arguments)]
pub fn run_algo_with_mode(
    algo: Algo,
    dataset: Dataset,
    windows: WindowConfig,
    rect_scale: f64,
    alpha: f64,
    objects: usize,
    seed: u64,
    sweep_mode: SweepMode,
) -> RunStats {
    let query = query_for(dataset, windows, rect_scale, alpha);
    let mut detector = algo.build_with(query, sweep_mode);
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
                let stats = run_algo_with_mode(
                    algo,
                    dataset,
                    windows,
                    rect_scale,
                    DEFAULT_ALPHA,
                    objects,
                    cfg.seed,
                    cfg.sweep_mode,
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
            let ccs = run_algo_with_mode(
                Algo::Ccs,
                dataset,
                windows,
                1.0,
                DEFAULT_ALPHA,
                objects,
                cfg.seed,
                cfg.sweep_mode,
            );
            let bccs = run_algo_with_mode(
                Algo::Bccs,
                dataset,
                windows,
                1.0,
                DEFAULT_ALPHA,
                objects,
                cfg.seed,
                cfg.sweep_mode,
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
            let stats = run_algo_with_mode(
                algo,
                dataset,
                windows,
                1.0,
                alpha,
                objects,
                cfg.seed,
                cfg.sweep_mode,
            );
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
                let mut det = algo.build_with(query, cfg.sweep_mode);
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

// ---------------------------------------------------------------------------
// Latency-tail table (extension: the paper reports means only)
// ---------------------------------------------------------------------------

/// One row of the tail-latency table.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Algorithm name.
    pub algo: &'static str,
    /// Per-event latency percentiles.
    pub summary: surge_stream::LatencySummary,
    /// Final burst score (sanity: exact rows must agree).
    pub final_score: f64,
}

/// Runs every single-region algorithm over one stream via the parallel
/// fan-out driver and reports per-event latency percentiles.
///
/// The paper's figures show means; the tail is where the exact detector's
/// bimodal cost (bound update vs full cell sweep) becomes visible.
pub fn latency_table(dataset: Dataset, cfg: &ExpConfig) -> Vec<LatencyRow> {
    let windows = dataset.spec().default_windows;
    let query = query_for(dataset, windows, 1.0, DEFAULT_ALPHA);
    let objects = objects_for(dataset, windows, cfg.heavy_objects, cfg.max_heavy_objects);
    let stream = stream_for(dataset, objects, cfg.seed);
    let detectors: Vec<Box<dyn BurstDetector + Send>> = vec![
        Box::new(CellCspot::with_sweep_mode(
            query,
            BoundMode::Combined,
            cfg.sweep_mode,
            DEFAULT_SHARDS,
        )),
        Box::new(CellCspot::with_sweep_mode(
            query,
            BoundMode::StaticOnly,
            cfg.sweep_mode,
            DEFAULT_SHARDS,
        )),
        Box::new(BaseDetector::new(query)),
        Box::new(Ag2::new(query)),
        Box::new(GapSurge::new(query)),
        Box::new(MgapSurge::new(query)),
    ];
    surge_stream::drive_parallel(detectors, windows, stream.into_iter())
        .into_iter()
        .map(|r| LatencyRow {
            algo: r.name,
            summary: r.latency_summary(),
            final_score: r.final_answer.map(|a| a.score).unwrap_or(0.0),
        })
        .collect()
}

/// One row of the sweep micro-benchmark: naive vs segment-tree SL-CSPOT on
/// identical scenes of `n` rectangles, plus the flat-vs-recursive segment
/// tree comparison at the same `n`.
#[derive(Debug, Clone, Copy)]
pub struct SweepBenchRow {
    /// Rectangles per scene (and leaves per tree in the tree columns).
    pub n: usize,
    /// Mean microseconds per naive `O(n²)` sweep.
    pub naive_us: f64,
    /// Mean microseconds per segment-tree `O(n log n)` sweep.
    pub segtree_us: f64,
    /// `naive_us / segtree_us`.
    pub speedup: f64,
    /// Mean microseconds per flat-tree interval-add workload.
    pub tree_flat_us: f64,
    /// Mean microseconds for the same workload on the recursive baseline.
    pub tree_recursive_us: f64,
    /// `tree_recursive_us / tree_flat_us`.
    pub tree_speedup: f64,
    /// Mean microseconds per fused SoA-lane burst-tree workload
    /// (clear + sync + 3n applies with a `top()` each).
    pub burst_fused_us: f64,
    /// Mean microseconds for the same workload on the split two-tree
    /// layout.
    pub burst_split_us: f64,
    /// `burst_split_us / burst_fused_us`.
    pub burst_speedup: f64,
}

/// Times one deterministic interval-add workload (3n adds + a `top()` each)
/// on the flat iterative tree vs the retained recursive baseline at `n`
/// leaves, cross-checking results every round.
fn tree_bench(n: usize, seed: u64, reps: usize) -> (f64, f64) {
    use surge_exact::{MaxAddTree, RecursiveMaxAddTree};

    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let ops: Vec<(usize, usize, f64)> = (0..3 * n)
        .map(|_| {
            let a = next() as usize % n;
            let b = next() as usize % n;
            let v = (next() % 41) as f64 - 20.0;
            (a.min(b), a.max(b), v)
        })
        .collect();

    let mut t_flat = std::time::Duration::ZERO;
    let mut t_rec = std::time::Duration::ZERO;
    let mut acc_flat = 0.0f64;
    let mut acc_rec = 0.0f64;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let mut flat = MaxAddTree::new(n);
        for &(l, r, v) in &ops {
            flat.add(l, r, v);
            acc_flat += flat.top().0;
        }
        t_flat += t0.elapsed();
        let t0 = std::time::Instant::now();
        let mut rec = RecursiveMaxAddTree::new(n);
        for &(l, r, v) in &ops {
            rec.add(l, r, v);
            acc_rec += rec.top().0;
        }
        t_rec += t0.elapsed();
    }
    assert!(
        acc_flat.to_bits() == acc_rec.to_bits(),
        "tree mismatch at n={n}: {acc_flat} vs {acc_rec}"
    );
    (
        t_flat.as_secs_f64() * 1e6 / reps as f64,
        t_rec.as_secs_f64() * 1e6 / reps as f64,
    )
}

/// Times the persistent sweep's burst-tree workload — `clear_values` +
/// `sync_len` then `3n` signed burst applies with a `top()` each — on the
/// fused SoA-lane tree vs the split two-tree layout, cross-checking the
/// accumulated maxima bit for bit every round.
fn burst_bench(n: usize, seed: u64, reps: usize) -> (f64, f64) {
    use surge_core::{BurstParams, WindowKind};
    use surge_exact::{BurstSegTree, SplitBurstSegTree};

    let params = BurstParams {
        alpha: DEFAULT_ALPHA,
        current_norm: 1.0,
        past_norm: 1.0,
    };
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let ops: Vec<(usize, usize, f64, WindowKind, f64)> = (0..3 * n)
        .map(|i| {
            let a = next() as usize % n;
            let b = next() as usize % n;
            let w = 1.0 + (next() % 7) as f64;
            let kind = if next() % 3 == 0 {
                WindowKind::Past
            } else {
                WindowKind::Current
            };
            // Every third op retracts (the persistent sweep's remove path).
            let sign = if i % 3 == 2 { -1.0 } else { 1.0 };
            (a.min(b), a.max(b), w, kind, sign)
        })
        .collect();

    let mut fused = BurstSegTree::new(n, &params);
    let mut split = SplitBurstSegTree::new(n, &params);
    let mut t_fused = std::time::Duration::ZERO;
    let mut t_split = std::time::Duration::ZERO;
    let mut acc_fused = 0.0f64;
    let mut acc_split = 0.0f64;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        fused.clear_values();
        fused.sync_len(n, &params);
        for &(l, r, w, kind, sign) in &ops {
            fused.apply(l, r, w, kind, sign);
            acc_fused += fused.top().0;
        }
        t_fused += t0.elapsed();
        let t0 = std::time::Instant::now();
        split.clear_values();
        split.sync_len(n, &params);
        for &(l, r, w, kind, sign) in &ops {
            split.apply(l, r, w, kind, sign);
            acc_split += split.top().0;
        }
        t_split += t0.elapsed();
    }
    assert!(
        acc_fused.to_bits() == acc_split.to_bits(),
        "burst-tree mismatch at n={n}: {acc_fused} vs {acc_split}"
    );
    (
        t_fused.as_secs_f64() * 1e6 / reps as f64,
        t_split.as_secs_f64() * 1e6 / reps as f64,
    )
}

/// Times [`surge_exact::sl_cspot`] (segment tree) against
/// [`surge_exact::sl_cspot_naive`] on identical deterministic scenes at
/// n ∈ {64, 256, 1024, 4096} — the comparison behind the PR-1 `≥ 5×` at
/// n = 4096 acceptance bar — and the flat vs recursive tree workload at the
/// same sizes. Scores are cross-checked every round so a regression in
/// either implementation fails loudly rather than benching garbage.
pub fn sweep_bench(cfg: &ExpConfig) -> Vec<SweepBenchRow> {
    use surge_core::{BurstParams, Rect, WindowKind};
    use surge_exact::{sl_cspot, sl_cspot_naive, SweepRect};

    let params = BurstParams {
        alpha: DEFAULT_ALPHA,
        current_norm: 1.0,
        past_norm: 1.0,
    };
    let area = Rect::new(0.0, 0.0, 50.0, 50.0);
    let make_rects = |n: usize, seed: u64| -> Vec<SweepRect> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        (0..n)
            .map(|i| {
                let x0 = next() * 10.0;
                let y0 = next() * 10.0;
                SweepRect {
                    rect: Rect::new(x0, y0, x0 + 1.0, y0 + 1.0),
                    weight: 1.0 + next(),
                    kind: if i % 3 == 0 {
                        WindowKind::Past
                    } else {
                        WindowKind::Current
                    },
                }
            })
            .collect()
    };

    [64usize, 256, 1024, 4096]
        .iter()
        .map(|&n| {
            let rects = make_rects(n, cfg.seed);
            // The quadratic sweep dominates the budget; scale repetitions so
            // small n still averages over noise without making n=4096 crawl.
            let reps = (16_384 / n).max(1);
            let mut t_seg = std::time::Duration::ZERO;
            let mut t_naive = std::time::Duration::ZERO;
            for _ in 0..reps {
                let t0 = std::time::Instant::now();
                let fast = sl_cspot(&rects, &area, &params);
                t_seg += t0.elapsed();
                let t0 = std::time::Instant::now();
                let naive = sl_cspot_naive(&rects, &area, &params);
                t_naive += t0.elapsed();
                let (f, g) = (fast.unwrap(), naive.unwrap());
                assert!(
                    (f.score - g.score).abs() <= 1e-9 * g.score.abs().max(1.0),
                    "sweep mismatch at n={n}: {} vs {}",
                    f.score,
                    g.score
                );
            }
            let naive_us = t_naive.as_secs_f64() * 1e6 / reps as f64;
            let segtree_us = t_seg.as_secs_f64() * 1e6 / reps as f64;
            let (tree_flat_us, tree_recursive_us) = tree_bench(n, cfg.seed, reps.min(64));
            let (burst_fused_us, burst_split_us) = burst_bench(n, cfg.seed, reps.min(64));
            SweepBenchRow {
                n,
                naive_us,
                segtree_us,
                speedup: naive_us / segtree_us,
                tree_flat_us,
                tree_recursive_us,
                tree_speedup: tree_recursive_us / tree_flat_us,
                burst_fused_us,
                burst_split_us,
                burst_speedup: burst_split_us / burst_fused_us,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Persistent vs rebuild cell sweeps
// ---------------------------------------------------------------------------

/// One row of the persistent-vs-rebuild cell-sweep experiment: the same
/// incremental workload driven through a `CellCspot` whose per-cell sweeps
/// either reuse persistent cross-sweep state or rebuild from the rectangle
/// set on every search.
#[derive(Debug, Clone, Copy)]
pub struct PersistentBenchRow {
    /// Workload label (`"uniform"` or `"taxi"`).
    pub workload: &'static str,
    /// `"persistent"` or `"rebuild"`.
    pub mode: &'static str,
    /// Objects driven through the pipeline.
    pub objects: u64,
    /// Cell searches executed (identical across modes by construction).
    pub searches: u64,
    /// Incremental edits applied to persistent structures (0 in rebuild
    /// mode).
    pub churn_ops: u64,
    /// Evaluation positions written by full rebuilds — the
    /// hardware-independent work metric: rebuild mode pays this on *every*
    /// search, the persistent mode only on threshold crossings.
    pub rebuilt_leaves: u64,
    /// Full rebuilds executed.
    pub full_rebuilds: u64,
    /// Wall-clock milliseconds for the run (informative only on a 1-CPU
    /// container).
    pub elapsed_ms: f64,
    /// Rebuild-mode elapsed / this row's elapsed.
    pub speedup: f64,
}

/// Runs the persistent-vs-rebuild comparison on the incremental workloads
/// (`surge_exp sweep-bench` → the `persistent` section of
/// `BENCH_sweep.json`), asserting per-slide **bit-identity** between the
/// two modes before reporting any numbers — benchmarks must not time a
/// divergent pipeline.
pub fn persistent_bench(cfg: &ExpConfig) -> Vec<PersistentBenchRow> {
    use surge_stream::drive_incremental;

    // Tighter cadence than the throughput benches: continuous monitoring
    // sweeps after every few arrivals, which is the regime cross-sweep
    // persistence targets (fewer mutations per inter-sweep window, so the
    // incremental structures amortize across searches).
    let slide = 32;
    let taxi_windows = Dataset::Taxi.spec().default_windows;
    let taxi_objects = objects_for(Dataset::Taxi, taxi_windows, cfg.objects, cfg.max_objects);
    let uniform_windows = WindowConfig::equal(60_000);
    let workloads: [(&'static str, WindowConfig, SurgeQuery, Vec<SpatialObject>); 2] = [
        (
            "uniform",
            uniform_windows,
            SurgeQuery::whole_space(RegionSize::new(0.3, 0.3), uniform_windows, DEFAULT_ALPHA),
            uniform_stream(cfg.objects.clamp(4_000, 200_000), cfg.seed),
        ),
        (
            "taxi",
            taxi_windows,
            query_for(Dataset::Taxi, taxi_windows, 1.0, DEFAULT_ALPHA),
            stream_for(Dataset::Taxi, taxi_objects, cfg.seed),
        ),
    ];

    let mut rows = Vec::new();
    for (workload, windows, query, stream) in workloads {
        let mut reports = Vec::new();
        for (mode, sweep_mode) in [
            ("rebuild", SweepMode::Rebuild),
            ("persistent", SweepMode::Persistent),
        ] {
            // Best of five: single runs on a shared 1-CPU container are
            // ±10% noisy, more than the effect under measurement.
            let mut best: Option<(_, std::time::Duration, _)> = None;
            for _ in 0..5 {
                let mut det = CellCspot::with_sweep_mode(query, BoundMode::Combined, sweep_mode, 1);
                let t0 = std::time::Instant::now();
                let report = drive_incremental(&mut det, windows, stream.iter().copied(), slide);
                let elapsed = t0.elapsed();
                if best.as_ref().is_none_or(|(_, b, _)| elapsed < *b) {
                    best = Some((report, elapsed, det.sweep_stats()));
                }
            }
            let (report, elapsed, stats) = best.expect("three runs");
            reports.push((mode, report, elapsed, stats));
        }
        let (rebuild_report, rebuild_elapsed) = (&reports[0].1, reports[0].2);

        // Bit-identity gate: every slide answer must match across modes.
        let persistent_report = &reports[1].1;
        assert_eq!(
            persistent_report.answers.len(),
            rebuild_report.answers.len()
        );
        for (i, (a, b)) in persistent_report
            .answers
            .iter()
            .zip(rebuild_report.answers.iter())
            .enumerate()
        {
            match (a, b) {
                (Some(x), Some(y)) => assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "persistent-bench divergence at {workload}, slide {i}"
                ),
                (None, None) => {}
                other => panic!("persistent-bench divergence at {workload}, slide {i}: {other:?}"),
            }
        }
        assert_eq!(persistent_report.jobs, rebuild_report.jobs);

        for (mode, report, elapsed, sweep) in &reports {
            rows.push(PersistentBenchRow {
                workload,
                mode,
                objects: report.objects,
                searches: sweep.searches,
                churn_ops: sweep.churn_ops,
                rebuilt_leaves: sweep.rebuilt_leaves,
                full_rebuilds: sweep.full_rebuilds,
                elapsed_ms: elapsed.as_secs_f64() * 1e3,
                speedup: rebuild_elapsed.as_secs_f64() / elapsed.as_secs_f64().max(1e-9),
            });
        }
    }
    rows
}

/// Asserts two per-slide answer streams are bit-identical.
fn assert_slides_bitwise(
    got: &[Option<surge_core::RegionAnswer>],
    want: &[Option<surge_core::RegionAnswer>],
    ctx: &str,
) {
    assert_eq!(got.len(), want.len(), "{ctx}: flush counts diverged");
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "{ctx}: divergence at slide {i}"
                );
                assert_eq!(x.point.x.to_bits(), y.point.x.to_bits(), "{ctx}: slide {i}");
                assert_eq!(x.point.y.to_bits(), y.point.y.to_bits(), "{ctx}: slide {i}");
            }
            (None, None) => {}
            other => panic!("{ctx}: divergence at slide {i}: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint & recovery experiment
// ---------------------------------------------------------------------------

/// One row of the checkpoint/recovery experiment.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointBenchRow {
    /// Workload label: `"uniform"` or `"taxi"`.
    pub workload: &'static str,
    /// WAL fsync policy label ([`surge_checkpoint::SyncPolicy::name`]).
    pub sync: &'static str,
    /// Objects driven through the pipeline.
    pub objects: u64,
    /// Flushes executed.
    pub slides: u64,
    /// Wall-clock ms for the in-memory `drive_incremental` baseline (no
    /// durability at all).
    pub baseline_ms: f64,
    /// Wall-clock ms for the checkpointed run (WAL + periodic snapshots).
    pub checkpointed_ms: f64,
    /// Durability overhead: `checkpointed_ms / baseline_ms`.
    pub overhead: f64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Median snapshot stall in microseconds.
    pub stall_p50_us: f64,
    /// p99 snapshot stall in microseconds.
    pub stall_p99_us: f64,
    /// Worst snapshot stall in microseconds.
    pub stall_max_us: f64,
    /// Objects appended to the WAL.
    pub wal_appends: u64,
    /// Wall-clock ms to recover after a crash at end-of-stream: load the
    /// newest snapshot, rebuild, replay the WAL tail, terminal drain.
    pub recovery_ms: f64,
    /// Objects the recovery replayed from the WAL tail.
    pub replayed: u64,
    /// Wall-clock ms to reach the same state by re-ingesting the whole
    /// stream from t = 0 (what a restart costs without checkpoints).
    pub replay_from_zero_ms: f64,
    /// `replay_from_zero_ms / recovery_ms`.
    pub recovery_speedup: f64,
}

/// Runs the checkpointing driver against the in-memory incremental driver
/// on the uniform and taxi workloads, asserting recovery **bit-identity**
/// before timing anything (`surge_exp checkpoint-bench` →
/// `BENCH_checkpoint.json`): snapshot cost (stall percentiles), WAL append
/// overhead, and recovery time vs. replay-from-zero — one row per
/// [`surge_checkpoint::SyncPolicy`] tier, quantifying what each durability
/// step costs.
pub fn checkpoint_bench(cfg: &ExpConfig) -> Vec<CheckpointBenchRow> {
    use surge_checkpoint::{
        recover, run_checkpointed, CheckpointConfig, CheckpointPolicy, DetectorSpec, SyncPolicy,
        Tail,
    };
    use surge_exact::{BoundMode, CellCspot};
    use surge_stream::drive_incremental;

    let slide = 256;
    let mut rows = Vec::new();

    let taxi_windows = Dataset::Taxi.spec().default_windows;
    let taxi_objects = objects_for(Dataset::Taxi, taxi_windows, cfg.objects, cfg.max_objects);
    let uniform_windows = WindowConfig::equal(60_000);
    let workloads: [(&'static str, WindowConfig, SurgeQuery, Vec<SpatialObject>); 2] = [
        (
            "uniform",
            uniform_windows,
            SurgeQuery::whole_space(RegionSize::new(0.3, 0.3), uniform_windows, DEFAULT_ALPHA),
            uniform_stream(cfg.objects.clamp(4_000, 200_000), cfg.seed),
        ),
        (
            "taxi",
            taxi_windows,
            query_for(Dataset::Taxi, taxi_windows, 1.0, DEFAULT_ALPHA),
            stream_for(Dataset::Taxi, taxi_objects, cfg.seed),
        ),
    ];

    for (workload, windows, query, stream) in workloads {
        let spec = DetectorSpec::Cell {
            bound: BoundMode::Combined,
            sweep: cfg.sweep_mode,
            shards: DEFAULT_SHARDS,
        };
        let base = std::env::temp_dir().join(format!(
            "surge-ckpt-bench-{workload}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);

        // In-memory baseline (no durability) — shared by every sync tier.
        let mut det =
            CellCspot::with_sweep_mode(query, BoundMode::Combined, cfg.sweep_mode, DEFAULT_SHARDS);
        let t0 = std::time::Instant::now();
        let baseline = drive_incremental(&mut det, windows, stream.iter().copied(), slide);
        let baseline_elapsed = t0.elapsed();

        // Replay-from-zero: what the restart costs without checkpoints.
        let mut det =
            CellCspot::with_sweep_mode(query, BoundMode::Combined, cfg.sweep_mode, DEFAULT_SHARDS);
        let t0 = std::time::Instant::now();
        let _ = drive_incremental(&mut det, windows, stream.iter().copied(), slide);
        let replay_elapsed = t0.elapsed();

        for sync in [
            SyncPolicy::OsFlush,
            SyncPolicy::FsyncPerSnapshot,
            SyncPolicy::FsyncPerSlide,
        ] {
            let config = CheckpointConfig {
                query,
                windows,
                spec,
                slide_objects: slide,
                threads: 1,
                policy: CheckpointPolicy {
                    snapshot_every_slides: 8,
                    wal_segment_objects: 8_192,
                    keep_snapshots: 2,
                    sync,
                },
            };

            // Checkpointed run.
            let full_dir = base.join(format!("full-{}", sync.name().replace('/', "-")));
            let t0 = std::time::Instant::now();
            let full = run_checkpointed(&config, &full_dir, stream.iter().copied(), Tail::Finish)
                .expect("checkpointed run");
            let checkpointed_elapsed = t0.elapsed();

            // Benchmarks must not time a divergent pipeline: the
            // checkpointed answers must be bit-identical to the in-memory
            // driver's, at every durability tier.
            let got = full.single_answers();
            assert_eq!(got.len(), baseline.answers.len(), "{workload}");
            for (i, (a, b)) in got.iter().zip(baseline.answers.iter()).enumerate() {
                match (a, b) {
                    (Some(x), Some(y)) => assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "checkpoint-bench divergence at {workload}, slide {i}"
                    ),
                    (None, None) => {}
                    other => {
                        panic!("checkpoint-bench divergence at {workload}, slide {i}: {other:?}")
                    }
                }
            }

            // Crash at end-of-stream, then recover: snapshot restore + WAL
            // tail replay + terminal drain, bit-identity asserted.
            let crash_dir = base.join(format!("crash-{}", sync.name().replace('/', "-")));
            run_checkpointed(&config, &crash_dir, stream.iter().copied(), Tail::Crash)
                .expect("crashed run");
            let t0 = std::time::Instant::now();
            let resumed = recover(&config, &crash_dir, stream.iter().copied(), Tail::Finish)
                .expect("recovery");
            let recovery_elapsed = t0.elapsed();
            assert_eq!(resumed.answers.len(), full.answers.len(), "{workload}");
            for (i, (a, b)) in resumed.answers.iter().zip(full.answers.iter()).enumerate() {
                assert_eq!(a.len(), b.len(), "{workload} flush {i}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "recovery divergence at {workload}, flush {i}"
                    );
                }
            }

            rows.push(CheckpointBenchRow {
                workload,
                sync: sync.name(),
                objects: full.objects,
                slides: full.slides,
                baseline_ms: baseline_elapsed.as_secs_f64() * 1e3,
                checkpointed_ms: checkpointed_elapsed.as_secs_f64() * 1e3,
                overhead: checkpointed_elapsed.as_secs_f64()
                    / baseline_elapsed.as_secs_f64().max(1e-9),
                snapshots: full.snapshots_written,
                stall_p50_us: full.pause.p50_us,
                stall_p99_us: full.pause.p99_us,
                stall_max_us: full.pause.max_us,
                wal_appends: full.wal_appends,
                recovery_ms: recovery_elapsed.as_secs_f64() * 1e3,
                replayed: resumed.replayed_from_wal,
                replay_from_zero_ms: replay_elapsed.as_secs_f64() * 1e3,
                recovery_speedup: replay_elapsed.as_secs_f64()
                    / recovery_elapsed.as_secs_f64().max(1e-9),
            });
        }
        std::fs::remove_dir_all(&base).ok();
    }
    rows
}

// ---------------------------------------------------------------------------
// Multi-query serving experiment
// ---------------------------------------------------------------------------

/// One row of the serving experiment: one subscription count, comparing a
/// shared [`surge_serve::SurgeServer`] against the aggregate cost of one
/// dedicated single-query run per subscription.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchRow {
    /// Live subscriptions registered on the server.
    pub queries: usize,
    /// Deduped detector groups the registry collapsed them into.
    pub groups: usize,
    /// `(queries - groups) / queries`: the fraction of subscriptions served
    /// without their own detector.
    pub dedup_hit_rate: f64,
    /// Objects in the stream.
    pub objects: u64,
    /// Flushes each subscription received (slides + terminal).
    pub slides: u64,
    /// Wall-clock ms for `queries` dedicated single-query runs — what N
    /// independent processes pay in aggregate ingest work.
    pub independent_ms: f64,
    /// Wall-clock ms for the one shared server run.
    pub served_ms: f64,
    /// `independent_ms / served_ms`.
    pub speedup: f64,
    /// Answer flushes delivered across all subscriptions per second of
    /// served wall-clock.
    pub answers_per_sec: f64,
    /// `answers_per_sec / queries`.
    pub per_query_answers_per_sec: f64,
}

/// Runs the multi-query serving experiment (`surge_exp serve-bench` →
/// `BENCH_serve.json`): subscription counts 1/2/4/8 with bitwise-duplicate
/// pairs mixed in, the shared server timed against the aggregate of N
/// dedicated runs — **after** asserting every subscription's channel is
/// bit-identical to its dedicated run. Reports the dedup hit-rate and
/// per-query answer throughput alongside the speedup.
pub fn serve_bench(cfg: &ExpConfig) -> Vec<ServeBenchRow> {
    use surge_checkpoint::{DetectorSpec, SpecDetector};
    use surge_core::RegionAnswer;
    use surge_exact::BoundMode;
    use surge_serve::{ServeConfig, SurgeServer};
    use surge_stream::QueryRuntime;

    let slide = 256;
    let windows = WindowConfig::equal(60_000);
    let stream = uniform_stream(cfg.objects.clamp(4_000, 120_000), cfg.seed);
    let spec = DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: cfg.sweep_mode,
        shards: DEFAULT_SHARDS,
    };

    let mut rows = Vec::new();
    for q in [1usize, 2, 4, 8] {
        // Consecutive pairs are bitwise-identical queries, so half of every
        // multi-query panel dedupes; distinct pairs vary region and α.
        let queries: Vec<SurgeQuery> = (0..q)
            .map(|i| {
                let v = i / 2;
                SurgeQuery::whole_space(
                    RegionSize::new(0.25 + 0.05 * (v % 4) as f64, 0.25 + 0.04 * (v % 3) as f64),
                    windows,
                    0.3 + 0.1 * (v % 4) as f64,
                )
            })
            .collect();

        // The aggregate cost of dedicated processes: one full single-query
        // run per subscription, duplicates included (each independent
        // process pays even for a query someone else already runs).
        let mut dedicated: Vec<Vec<Vec<RegionAnswer>>> = Vec::new();
        let t0 = std::time::Instant::now();
        for query in &queries {
            let det = SpecDetector::build(&spec, *query).expect("servable spec");
            let mut rt = QueryRuntime::new(det, windows, slide);
            let mut answers = Vec::new();
            rt.run(stream.iter().copied(), |_seq, a| answers.push(a));
            dedicated.push(answers);
        }
        let independent_elapsed = t0.elapsed();

        // The shared server: register everything, ingest once.
        let mut server = SurgeServer::new(ServeConfig::sequential(slide));
        let subs: Vec<_> = queries
            .iter()
            .map(|query| server.subscribe(*query, spec).expect("servable"))
            .collect();
        let stats = server.stats();
        let t0 = std::time::Instant::now();
        for obj in &stream {
            server.ingest(*obj);
        }
        server.finish();
        let served_elapsed = t0.elapsed();

        // Benchmarks must not time a divergent pipeline: every channel is
        // bit-identical to its dedicated run before any number is reported.
        let mut delivered = 0usize;
        for (sub, want) in subs.iter().zip(&dedicated) {
            let got = server.drain(*sub).expect("live channel");
            assert_eq!(
                got.len(),
                want.len(),
                "serve-bench divergence at {q} queries"
            );
            for ((seq, a), b) in got.iter().zip(want) {
                assert_eq!(a.len(), b.len(), "serve-bench divergence at flush {seq}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "serve-bench divergence at {q} queries, flush {seq}"
                    );
                }
            }
            delivered += got.len();
        }

        let served_s = served_elapsed.as_secs_f64().max(1e-9);
        let speedup = independent_elapsed.as_secs_f64() / served_s;
        if q >= 2 {
            // Sharing the engine and deduping detectors must beat paying
            // for N independent ingest paths.
            assert!(
                speedup > 1.0,
                "shared serving slower than {q} dedicated runs ({speedup:.2}x)"
            );
        }
        rows.push(ServeBenchRow {
            queries: q,
            groups: stats.groups,
            dedup_hit_rate: stats.dedup_hit_rate(),
            objects: server.objects_ingested(),
            slides: dedicated[0].len() as u64,
            independent_ms: independent_elapsed.as_secs_f64() * 1e3,
            served_ms: served_elapsed.as_secs_f64() * 1e3,
            speedup,
            answers_per_sec: delivered as f64 / served_s,
            per_query_answers_per_sec: delivered as f64 / q as f64 / served_s,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Observability-overhead experiment
// ---------------------------------------------------------------------------

/// One row of the observability-overhead experiment: one driver family,
/// timed either with [`surge_observe::Observe::off`] or with a live
/// registry + flight recorders.
#[derive(Debug, Clone, Copy)]
pub struct ObserveBenchRow {
    /// Driver family: `"incremental"` or `"elastic"`.
    pub driver: &'static str,
    /// `"off"` (disabled handle) or `"on"` (live registry).
    pub mode: &'static str,
    /// Objects driven through the pipeline.
    pub objects: u64,
    /// Window-transition events processed.
    pub events: u64,
    /// Dirty-cell sweeps — identical across modes (non-invasiveness).
    pub sweeps: u64,
    /// Sweeps as totalled by the registry (0 on `off` rows; asserted equal
    /// to `sweeps` on `on` rows before anything is reported).
    pub registry_sweeps: u64,
    /// Best-of-N wall-clock milliseconds for the run.
    pub elapsed_ms: f64,
    /// Throughput in objects per second (from the best run).
    pub objects_per_sec: f64,
    /// Observability cost on `on` rows (0 on `off` rows): the ratio of the
    /// two modes' best-of-N elapsed floors, as a percentage. The
    /// acceptance bar for the layer is ≤ 5% on every driver.
    pub overhead_pct: f64,
}

/// Times the slide-batched driver families with observability off vs on
/// (`surge_exp observe-bench` → `BENCH_observe.json`) — **after** asserting
/// the two runs' per-slide answers are bit-identical and the enabled run's
/// registry totals are conserved against the legacy report counters.
/// Off/on trials are interleaved and the overhead column compares the two
/// modes' best-of-N elapsed floors, so it measures the layer rather
/// than host drift. Returns the rows plus the enabled runs' shared
/// registry snapshot (the bench JSON embeds its
/// [`surge_observe::RegistrySnapshot::to_json`] export verbatim — the
/// bench emission path rides the registry export, not a parallel format).
pub fn observe_bench(cfg: &ExpConfig) -> (Vec<ObserveBenchRow>, surge_observe::RegistrySnapshot) {
    use surge_core::RegionAnswer;
    use surge_observe::Observe;
    use surge_stream::{
        drive_elastic_observed, drive_incremental_observed, BalancerPolicy, RetainAll,
    };

    let slide = 256;
    let windows = WindowConfig::equal(60_000);
    let query = SurgeQuery::whole_space(RegionSize::new(0.3, 0.3), windows, DEFAULT_ALPHA);
    let stream = uniform_stream(cfg.objects.clamp(2_000, 50_000), cfg.seed);
    let policy = BalancerPolicy {
        skew_percent: 25,
        patience: 2,
        max_shards: 8,
        min_load: 4,
    };
    const TRIALS: usize = 7;

    // The registry all enabled runs share: each driver publishes under its
    // own scope, so the final snapshot carries every family side by side.
    let shared = Observe::enabled();

    // (answers, sweeps-analog, objects, events, registry-total-checker)
    type RunOutcome = (Vec<Option<RegionAnswer>>, u64, u64, u64);
    type DriverRun<'a> = Box<dyn Fn(&Observe) -> RunOutcome + 'a>;
    let drivers: Vec<(&'static str, DriverRun)> = vec![
        (
            "incremental",
            Box::new(|obs: &Observe| {
                let mut det = CellCspot::with_sweep_mode(
                    query,
                    BoundMode::Combined,
                    cfg.sweep_mode,
                    DEFAULT_SHARDS,
                );
                let r = drive_incremental_observed(
                    &mut det,
                    windows,
                    stream.iter().copied(),
                    slide,
                    &mut RetainAll,
                    obs,
                );
                (r.answers.retained().to_vec(), r.jobs, r.objects, r.events)
            }),
        ),
        (
            "elastic",
            Box::new(|obs: &Observe| {
                let mut det =
                    CellCspot::with_sweep_mode(query, BoundMode::Combined, cfg.sweep_mode, 2);
                let r = drive_elastic_observed(
                    &mut det,
                    windows,
                    stream.iter().copied(),
                    slide,
                    policy,
                    &mut RetainAll,
                    obs,
                );
                (r.answers.retained().to_vec(), r.sweeps, r.objects, r.events)
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (driver, run) in &drivers {
        // Interleaved off/on trials: host drift (thermal, page cache,
        // co-tenants) hits both modes alike, so best-of-N per mode
        // measures the layer, not which mode ran second.
        let off_handle = Observe::off();
        let mut off_s = f64::INFINITY;
        let mut on_s = f64::INFINITY;
        let mut off_outcome = None;
        let mut on_outcome = None;
        for _ in 0..TRIALS {
            let t0 = std::time::Instant::now();
            off_outcome = Some(run(&off_handle));
            let off_trial = t0.elapsed().as_secs_f64();
            let t0 = std::time::Instant::now();
            on_outcome = Some(run(&shared));
            let on_trial = t0.elapsed().as_secs_f64();
            off_s = off_s.min(off_trial);
            on_s = on_s.min(on_trial);
        }
        // The overhead estimate compares the best-of-N minima: each mode's
        // minimum converges on its noise-free floor, so transient host
        // drift (which only ever inflates a trial) drops out of both sides.
        let floor_ratio = on_s / off_s.max(1e-9);
        let (off_answers, off_sweeps, objects, events) = off_outcome.expect("trials ran");
        let (on_answers, on_sweeps, _, _) = on_outcome.expect("trials ran");

        // Non-invasiveness gate: no timing is reported for a divergent run.
        assert_slides_bitwise(
            &on_answers,
            &off_answers,
            &format!("observe-bench {driver}"),
        );
        assert_eq!(
            on_sweeps, off_sweeps,
            "observe-bench {driver}: sweep counters diverged"
        );
        // Conservation gate: the registry's totals must be the report's.
        // The shared handle accumulated TRIALS enabled runs per driver.
        let snap = shared.snapshot();
        let registry_sweeps = snap
            .counter(&format!("{driver}/sweeps"))
            .or_else(|| snap.counter(&format!("{driver}/jobs")))
            .expect("driver published sweep totals");
        assert_eq!(
            registry_sweeps,
            on_sweeps * TRIALS as u64,
            "observe-bench {driver}: registry total != report counter x trials"
        );

        let overhead_pct = (floor_ratio - 1.0) * 100.0;
        rows.push(ObserveBenchRow {
            driver,
            mode: "off",
            objects,
            events,
            sweeps: off_sweeps,
            registry_sweeps: 0,
            elapsed_ms: off_s * 1e3,
            objects_per_sec: objects as f64 / off_s.max(1e-9),
            overhead_pct: 0.0,
        });
        rows.push(ObserveBenchRow {
            driver,
            mode: "on",
            objects,
            events,
            sweeps: on_sweeps,
            registry_sweeps: registry_sweeps / TRIALS as u64,
            elapsed_ms: on_s * 1e3,
            objects_per_sec: objects as f64 / on_s.max(1e-9),
            overhead_pct,
        });
    }
    (rows, shared.snapshot())
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
            sweep_mode: SweepMode::Persistent,
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
    fn latency_table_covers_all_algos() {
        let rows = latency_table(Dataset::Taxi, &tiny());
        assert_eq!(rows.len(), 6);
        let exact: Vec<f64> = rows
            .iter()
            .filter(|r| ["CCS", "B-CCS", "Base", "aG2"].contains(&r.algo))
            .map(|r| r.final_score)
            .collect();
        for w in exact.windows(2) {
            assert!(
                (w[0] - w[1]).abs() <= 1e-9 * w[0].abs().max(1e-12),
                "exact rows disagree: {exact:?}"
            );
        }
        for r in &rows {
            assert!(r.summary.count > 0, "{} recorded no samples", r.algo);
            assert!(r.summary.max_us >= r.summary.p50_us);
        }
    }

    #[test]
    fn sweep_bench_rows_cross_check() {
        // One tiny size is enough for the test suite; correctness of the
        // timed implementations is asserted inside the runner itself.
        let mut cfg = tiny();
        cfg.seed = 11;
        let rows = sweep_bench(&cfg);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.naive_us > 0.0 && r.segtree_us > 0.0);
            assert!(r.tree_flat_us > 0.0 && r.tree_recursive_us > 0.0);
        }
    }

    #[test]
    fn persistent_bench_reports_both_modes_and_less_rebuild_work() {
        let rows = persistent_bench(&tiny());
        // Two workloads (uniform, taxi) x {rebuild, persistent}; bit-identity
        // is asserted inside the runner before any row is emitted.
        assert_eq!(rows.len(), 4);
        for chunk in rows.chunks(2) {
            let (rebuild, persistent) = (&chunk[0], &chunk[1]);
            assert_eq!(rebuild.mode, "rebuild");
            assert_eq!(persistent.mode, "persistent");
            assert_eq!(rebuild.workload, persistent.workload);
            assert_eq!(rebuild.objects, persistent.objects);
            // Same searches, different maintenance profile: the rebuild
            // path re-sorts on every search, the persistent path only on
            // threshold crossings.
            assert_eq!(rebuild.searches, persistent.searches);
            assert_eq!(rebuild.churn_ops, 0);
            assert_eq!(rebuild.full_rebuilds, rebuild.searches);
            assert!(
                persistent.rebuilt_leaves < rebuild.rebuilt_leaves,
                "{}: persistent rebuilt {} leaves vs rebuild {}",
                rebuild.workload,
                persistent.rebuilt_leaves,
                rebuild.rebuilt_leaves
            );
        }
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
