//! `--trace 1`: the per-layer metrics of one workload.
//!
//! Every traced run replays the workload's own pipeline with harness-side
//! spans, then the reference runs its layer metrics compare against (the
//! slide driver vs the staged loop, the mesh vs one thread, the shared
//! server vs dedicated ones, the checkpointed run vs memory), each over the
//! same objects and each checked for bit-identical answers. A metric whose
//! layer is not on the workload's path reads 0.

use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::catalogue::PER_LAYER;
use crate::check::{self, Verdict};
use crate::pipelines::{self, Extras, PanelSample, TempDir, SNAPSHOT_EVERY_SLIDES};
use crate::record::{calibrated, spin, Budget, Recorder, Replay};
use crate::staged::{self, Ccs, Counts, Staged, Tracing};
use crate::stats;
use crate::sut::{self, Flavor, SpatialObject, SERVE_PANEL};
use crate::tap::{self, Tap};
use crate::trace::{traced_block, Tracer};
use crate::workloads::{Pipeline, Rng, Stream, Workload, SLIDE_OBJECTS};

/// What a traced run reports.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// Objects per second of a replay's timed range.
fn rate(replay: &Replay) -> f64 {
    ratio(replay.timed_objects as f64, replay.timed_s)
}

/// Tracing overhead from the traced and untraced blocks of one replay: the
/// share of a traced block's time that an untraced block does not spend.
fn overhead_share(replay: &Replay) -> f64 {
    let mut sums = [0u64; 2];
    let mut blocks = [0u64; 2];
    let mut prev = 0;
    for (i, end) in replay.block_end_ns.iter().enumerate() {
        let kind = !traced_block(i) as usize;
        sums[kind] += end - prev;
        blocks[kind] += 1;
        prev = *end;
    }
    let traced = ratio(sums[0] as f64, blocks[0] as f64);
    let untraced = ratio(sums[1] as f64, blocks[1] as f64);
    if traced > 0.0 {
        (traced - untraced) / traced
    } else {
        0.0
    }
}

/// Calibrated nanoseconds per unit: the total of span `name` over a count
/// taken at the same boundaries. Span durations are raw wall-clock; the
/// replay's mean host-speed factor puts them on the calibrated clock.
fn ns_per(tracer: &Tracer, name: &str, count: u64, replay: &Replay) -> f64 {
    let calibration = ratio(replay.timed_s, replay.timed_raw_s);
    ratio(tracer.total_ns(name) as f64, count as f64) * calibration
}

/// Share of the traced wall-clock the spans of `prefix` (a layer, or one
/// span name) account for themselves.
fn busy_share(tracer: &Tracer, prefix: &str) -> f64 {
    ratio(tracer.self_ns(prefix) as f64, tracer.on_ns() as f64)
}

fn share_of(seconds: f64, part: f64) -> Budget {
    Budget::Time(Duration::from_secs_f64(seconds * part))
}

/// One traced run in progress: the workload, the values measured so far
/// (every declared metric, 0 until set) and the operations that failed.
struct Run<'a> {
    w: &'static Workload,
    seed: u64,
    out: &'a Path,
    values: Vec<(&'static str, f64)>,
    failed: u64,
}

impl Run<'_> {
    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        slot.1 = value;
    }

    fn stream(&self) -> Stream {
        Stream::new(self.w.model, self.seed)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("FAILED {why}");
    }

    /// Two replays of the same objects must have produced the same answers.
    fn expect_same_answers(&mut self, what: &str, a: &Replay, b: &Replay) {
        if a.timed_objects != b.timed_objects || a.digest != b.digest {
            self.fail(format!(
                "{what}: answers differ ({} objects, digest {:016x} vs {} objects, {:016x})",
                a.timed_objects, a.digest, b.timed_objects, b.digest
            ));
        }
    }

    /// The oracle gate over a replay's sampled refreshes.
    fn gate(&mut self, replay: &Replay, panel: &[PanelSample]) -> Result<Verdict, String> {
        let verdict = check::gate(self.w, self.seed, replay, panel)?;
        for reason in &verdict.reasons {
            eprintln!("FAILED {reason}");
        }
        self.failed += verdict.failed;
        Ok(verdict)
    }

    /// One hand-staged loop under its own recorder; tracing is left off.
    fn staged<D: Staged>(
        &self,
        mut detector: D,
        per_refresh: usize,
        budget: Budget,
        tracer: &mut Tracer,
    ) -> Result<(Replay, Counts), String> {
        let w = self.w;
        let rec = Recorder::with_shape(per_refresh, w.warmup_objects, w.window_ms, budget);
        let q = sut::query(w);
        let counts = staged::run(
            &mut detector,
            &q,
            per_refresh,
            &rec,
            self.stream(),
            tracer,
            Tracing::Alternate,
        );
        tracer.set_on(false);
        Ok((rec.finish()?, counts))
    }

    /// The sequential slide driver over exactly `objects` timed arrivals.
    fn slide_driver(&self, objects: usize) -> Result<Replay, String> {
        let w = self.w;
        let rec = Recorder::with_shape(
            SLIDE_OBJECTS,
            w.warmup_objects,
            w.window_ms,
            Budget::Objects(objects),
        );
        let q = sut::query(w);
        let mut d = sut::ccs(q, 1);
        sut::drive_slide(&mut d, &q, rec.feed(self.stream()), |_, a| rec.on_answer(a));
        rec.finish()
    }

    /// The window / event / settle / answer metrics of a staged CCS or
    /// approximate loop.
    fn staged_metrics(&mut self, tracer: &Tracer, replay: &Replay, c: &Counts) {
        let per_object = |n: u64| ratio(n as f64, c.objects as f64);
        self.set(
            "window.push_ns_per_object",
            ns_per(tracer, "window.push_into", c.objects, replay),
        );
        self.set("window.events_per_object", per_object(c.events));
        self.set("window.busy_share", busy_share(tracer, "window"));
        self.set("window.resident_objects", c.resident as f64);
        self.set(
            "answer.changed_ratio",
            ratio(c.changed as f64, c.refreshes as f64),
        );
        if tracer.total_ns("cell.on_event") == 0 {
            return;
        }
        let searches_per_object = ratio(c.timed_stats.searches as f64, replay.timed_objects as f64);
        self.set(
            "cell.on_event_ns_per_event",
            ns_per(tracer, "cell.on_event", c.events, replay),
        );
        self.set("cell.busy_share", busy_share(tracer, "cell"));
        self.set("cell.trigger_ratio", c.timed_stats.trigger_ratio());
        self.set("cell.searches_per_object", searches_per_object);
        let cache = c.timed_cache;
        self.set(
            "sweep.plan_reuse_ratio",
            ratio(
                cache.plan_reuses as f64,
                (cache.plan_builds + cache.plan_reuses) as f64,
            ),
        );
        self.set(
            "sweep.epoch_hit_ratio",
            ratio(
                cache.epoch_hits as f64,
                (cache.epoch_hits + cache.epoch_misses) as f64,
            ),
        );
        self.set(
            "answer.scan_ns_per_refresh",
            ns_per(tracer, "answer.current", c.refreshes, replay),
        );
        self.set("answer.busy_share", busy_share(tracer, "answer"));
        if c.swept > 0 {
            // Eager loops count the cells they sweep at the span boundary.
            self.set("sweep.sweeps_per_object", per_object(c.swept));
            self.set("sweep.busy_share", busy_share(tracer, "sweep"));
            self.set(
                "sweep.ns_per_sweep",
                ns_per(tracer, "sweep.sweep_dirty", c.swept, replay),
            );
        } else {
            // Lazy ones search inside `current()`: only the counter is known.
            self.set("sweep.sweeps_per_object", searches_per_object);
        }
    }

    /// Stand-alone SL-CSPOT over `n` seeded rectangles of the workload's
    /// region size: median calibrated ns per rectangle.
    fn sweep_kernel(&mut self, metric: &str, n: usize) -> Result<(), String> {
        let q = sut::query(self.w);
        let (rw, rh) = self.w.region;
        // Origins spread over 4×4 region sizes: every sweep line crosses
        // several overlapping rectangles, as inside a loaded cell.
        let mut rng = Rng::new(self.seed ^ n as u64);
        let rects: Vec<sut::KernelRect> = (0..n)
            .map(|i| {
                let (x, y) = (rng.unit() * 4.0 * rw, rng.unit() * 4.0 * rh);
                sut::sweep_rect(x, y, x + rw, y + rh, 1.0 + (i % 4) as f64, i % 2 == 0)
            })
            .collect();
        let area = [0.0, 0.0, 5.0 * rw, 5.0 * rh];
        let mut samples = Vec::new();
        let began = Instant::now();
        while samples.len() < 15
            || (began.elapsed() < Duration::from_millis(40) && samples.len() < 2000)
        {
            let (best, secs) = calibrated(|| sut::sweep_kernel(black_box(&rects), area, &q));
            if black_box(best).is_none() {
                return Err("sweep kernel found nothing over a loaded area".into());
            }
            samples.push(secs * 1e9 / n as f64);
        }
        self.set(metric, stats::median(&samples));
        Ok(())
    }

    fn sweep_kernels(&mut self) -> Result<(), String> {
        self.sweep_kernel("sweep.kernel_ns_per_rect_n64", 64)?;
        self.sweep_kernel("sweep.kernel_ns_per_rect_n1024", 1024)
    }

    /// Ends the run: harness metrics, the trace file, the result.
    fn finish(
        mut self,
        tracer: &Tracer,
        replay: &Replay,
        counts: &[(&str, f64)],
    ) -> Result<Traced, String> {
        self.set("trace.coverage_share", busy_share(tracer, ""));
        self.set("trace.overhead_share", overhead_share(replay));
        // Raw wall-clock on purpose: this one metric exists to show the host's speed.
        self.set("host.calib_ns", spin(20_000_000).as_nanos() as f64);
        let path = self.out.join(format!("trace-{}.json", self.w.name));
        tracer.write(&path, self.w.name, counts)?;
        Ok(Traced {
            attempted: replay.timed_refreshes as u64,
            failed: self.failed,
            values: self.values,
        })
    }
}

fn staged_counts(c: &Counts) -> [(&'static str, f64); 7] {
    [
        ("traced_objects", c.objects as f64),
        ("traced_events", c.events as f64),
        ("traced_refreshes", c.refreshes as f64),
        ("traced_changed_answers", c.changed as f64),
        ("traced_swept_cells", c.swept as f64),
        ("timed_searches", c.timed_stats.searches as f64),
        (
            "timed_events_triggering_search",
            c.timed_stats.events_triggering_search as f64,
        ),
    ]
}

// ---- sequential CCS: uniform-slide, taxi-slide, uniform-perobject ------------

fn ccs_layers(mut run: Run, seconds: f64) -> Result<Traced, String> {
    let w = run.w;
    let eager = w.pipeline == Pipeline::Slide;
    let detector = Ccs {
        detector: sut::ccs(sut::query(w), 1),
        eager,
    };
    let budget = share_of(seconds, if eager { 0.5 } else { 1.0 });
    let mut tracer = Tracer::default();
    let (replay, counts) = run.staged(
        detector,
        w.pipeline.objects_per_refresh(),
        budget,
        &mut tracer,
    )?;
    run.gate(&replay, &[])?;
    run.staged_metrics(&tracer, &replay, &counts);
    if eager {
        // The driver must produce the staged loop's answers, bit for bit.
        let driver = run.slide_driver(replay.timed_objects)?;
        run.expect_same_answers("slide driver vs staged loop", &driver, &replay);
        // Half the staged blocks carry the tracing overhead; take it out so
        // it is not charged to the loop.
        let staged_rate = rate(&replay) / (1.0 - overhead_share(&replay) / 2.0);
        run.set(
            "runtime.driver_vs_staged",
            ratio(staged_rate, rate(&driver)),
        );
    }
    run.sweep_kernels()?;
    run.finish(&tracer, &replay, &staged_counts(&counts))
}

// ---- us-approx -----------------------------------------------------------------

fn approx_layers(mut run: Run, seconds: f64) -> Result<Traced, String> {
    let q = sut::query(run.w);
    let mut tracer = Tracer::default();
    let (replay, counts) = run.staged(sut::mgaps(q), 1, share_of(seconds, 0.7), &mut tracer)?;
    let verdict = run.gate(&replay, &[])?;
    run.staged_metrics(&tracer, &replay, &counts);
    run.set("approx.busy_share", busy_share(&tracer, "approx"));
    run.set(
        "approx.mgaps_ns_per_event",
        ns_per(&tracer, "approx.mgaps_on_event", counts.events, &replay),
    );
    run.set(
        "approx.mgaps_refresh_ns",
        ns_per(&tracer, "approx.mgaps_current", counts.refreshes, &replay),
    );
    run.set(
        "approx.mgaps_score_ratio_p50",
        median_or_zero(&verdict.ratios),
    );

    // GAPS over the same objects, for the single-grid cost and quality.
    let mut gaps_tracer = Tracer::default();
    let same = Budget::Objects(replay.timed_objects);
    let (gaps_replay, gaps_counts) = run.staged(sut::gaps(q), 1, same, &mut gaps_tracer)?;
    let gaps_verdict = run.gate(&gaps_replay, &[])?;
    run.set(
        "approx.gaps_ns_per_event",
        ns_per(
            &gaps_tracer,
            "approx.gaps_on_event",
            gaps_counts.events,
            &gaps_replay,
        ),
    );
    run.set(
        "approx.gaps_score_ratio_p50",
        median_or_zero(&gaps_verdict.ratios),
    );
    run.set(
        "approx.bound_violations",
        (verdict.failed + gaps_verdict.failed) as f64,
    );
    run.finish(&tracer, &replay, &staged_counts(&counts))
}

// ---- uniform-mesh, taxi-mesh -------------------------------------------------------

fn mesh_layers(mut run: Run, seconds: f64) -> Result<Traced, String> {
    let w = run.w;
    let q = sut::query(w);
    let mesh_run = |run: &Run, shards: usize, budget: Budget, tracer: &RefCell<Tracer>| {
        let rec = Recorder::new(w, budget);
        let mut d = sut::ccs(q, shards);
        let source = Tap::new(rec.feed(run.stream()), tracer, w.warmup_objects, tap::MESH);
        let report = sut::drive_mesh(&mut d, &q, source, |_, a| {
            tap::sink(tracer, tap::MESH, &rec, a)
        });
        rec.finish().map(|replay| (replay, report))
    };
    let tracer = RefCell::new(Tracer::default());
    let (replay, report) = mesh_run(&run, 2, share_of(seconds, 0.35), &tracer)?;
    let tracer = tracer.into_inner();
    run.gate(&replay, &[])?;

    // The same job on one thread, and on a one-shard mesh (its fixed cost).
    let same = Budget::Objects(replay.timed_objects);
    let sequential = run.slide_driver(replay.timed_objects)?;
    run.expect_same_answers("mesh vs sequential driver", &replay, &sequential);
    let (one_shard, _) = mesh_run(&run, 1, same, &RefCell::new(Tracer::default()))?;
    run.expect_same_answers(
        "one-shard mesh vs sequential driver",
        &one_shard,
        &sequential,
    );
    run.set(
        "mesh.speedup_vs_seq",
        ratio(rate(&replay), rate(&sequential)),
    );
    run.set(
        "mesh.one_shard_vs_seq",
        ratio(rate(&one_shard), rate(&sequential)),
    );
    let sweeps = report.sweeps as f64;
    // The slowest shard sets each flush: sum the per-epoch maxima.
    let critical: u64 = report
        .epochs
        .iter()
        .map(|e| e.shard_sweeps.iter().copied().max().unwrap_or(0))
        .sum();
    run.set("mesh.flush_share", busy_share(&tracer, tap::MESH.flush));
    run.set(
        "mesh.after_flush_share",
        busy_share(&tracer, tap::MESH.after_flush),
    );
    run.set("mesh.steal_share", ratio(report.stolen as f64, sweeps));
    run.set("mesh.reshards", report.reshards as f64);
    run.set("mesh.final_shards", report.final_shards as f64);
    run.set("mesh.max_shard_sweep_share", ratio(critical as f64, sweeps));
    run.set(
        "sweep.sweeps_per_object",
        ratio(sweeps, report.objects as f64),
    );
    run.sweep_kernels()?;
    let counts = [
        ("objects", report.objects as f64),
        ("sweeps", sweeps),
        ("stolen", report.stolen as f64),
        ("reshards", report.reshards as f64),
    ];
    run.finish(&tracer, &replay, &counts)
}

// ---- taxi-durable ------------------------------------------------------------------

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("{}: {e}", target.display()))?;
        }
    }
    Ok(())
}

/// `(bytes of every file under dir, size of the largest top-level file)`.
/// The checkpoint layout is used only this far: snapshots are the top-level
/// files, everything below is WAL.
fn dir_bytes(dir: &Path) -> Result<(u64, u64), String> {
    let mut total = 0;
    let mut largest_top = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        if meta.is_dir() {
            total += dir_bytes(&entry.path())?.0;
        } else {
            total += meta.len();
            largest_top = largest_top.max(meta.len());
        }
    }
    Ok((total, largest_top))
}

/// Slides replayed past the crash point when checking that recovery resumes
/// bit-identically.
const RESUME_SLIDES: usize = 64;
const RECOVERIES: usize = 5;
/// Objects in the WAL-size and CSV codec probes.
const PROBE_OBJECTS: usize = 8192;

fn durable_layers(mut run: Run, seconds: f64) -> Result<Traced, String> {
    let w = run.w;
    let out = run.out;
    let q = sut::query(w);
    let cfg = sut::durable_config(&q, SNAPSHOT_EVERY_SLIDES);
    let prefix = |run: &Run, n: usize| run.stream().take(n).map(sut::object);

    // The checkpointed run, crashed after its last timed slide.
    let crashed = TempDir::new(out, "durable")?;
    let tracer = RefCell::new(Tracer::default());
    let rec = Recorder::new(w, share_of(seconds, 0.4));
    let source = Tap::new(rec.feed(run.stream()), &tracer, w.warmup_objects, tap::CKPT);
    let report = sut::run_checkpointed(&cfg, crashed.path(), source, sut::Tail::Crash, |_, a| {
        tap::sink(&tracer, tap::CKPT, &rec, a)
    })?;
    let replay = rec.finish()?;
    let tracer = tracer.into_inner();
    run.gate(&replay, &[])?;
    let crash_at = w.warmup_objects + replay.timed_objects;
    run.set("ckpt.flush_share", busy_share(&tracer, tap::CKPT.flush));
    run.set(
        "ckpt.after_flush_share",
        busy_share(&tracer, tap::CKPT.after_flush),
    );
    run.set("ckpt.snapshot_stall_mean_ms", report.pause.mean_us / 1e3);
    run.set("ckpt.snapshot_stall_max_ms", report.pause.max_us / 1e3);
    run.set("ckpt.snapshots_written", report.snapshots_written as f64);
    run.set("ckpt.snapshot_bytes", dir_bytes(crashed.path())?.1 as f64);

    // The same objects (and a stretch beyond) in memory: the cost of
    // durability, and the reference answers for the resumed run.
    let total = replay.timed_objects + RESUME_SLIDES * SLIDE_OBJECTS;
    let mut reference: Vec<u64> = Vec::new();
    let memory = {
        let rec = Recorder::new(w, Budget::Objects(total));
        let mut d = sut::ccs(q, 1);
        sut::drive_slide(&mut d, &q, rec.feed(run.stream()), |_, a| {
            reference.push(a.map_or(0, |a| a.score.to_bits()));
            rec.on_answer(a);
        });
        rec.finish()?
    };
    let marks = memory.digest_marks.iter().zip(&replay.digest_marks);
    if marks.clone().count() == 0 || marks.into_iter().any(|(m, c)| m != c) {
        run.fail("checkpointed run vs in-memory driver: answers differ".into());
    }
    run.set(
        "ckpt.throughput_vs_memory",
        ratio(rate(&replay), rate(&memory)),
    );

    // Recovery: identical copies of the crashed directory, nothing to resume.
    let mut recover_ms = Vec::new();
    for i in 0..RECOVERIES {
        let copy = TempDir::new(out, &format!("recover{i}"))?;
        copy_dir(crashed.path(), copy.path())?;
        let (recovered, secs) =
            calibrated(|| sut::recover(&cfg, copy.path(), std::iter::empty(), sut::Tail::Crash));
        let recovered = recovered?;
        recover_ms.push(secs * 1e3);
        run.set(
            "ckpt.recover_replayed_objects",
            recovered.replayed_from_wal as f64,
        );
        if recovered.objects != crash_at as u64 {
            run.fail(format!(
                "recover(): {} objects restored, crashed at {crash_at}",
                recovered.objects
            ));
        }
    }
    run.set("ckpt.recover_ms", stats::median(&recover_ms));

    // Recovery must resume bit-identically: replay past the crash point and
    // compare every answer the recovered run produced with the reference.
    {
        let copy = TempDir::new(out, "resume")?;
        copy_dir(crashed.path(), copy.path())?;
        let through = w.warmup_objects + total;
        let resumed = sut::recover(&cfg, copy.path(), prefix(&run, through), sut::Tail::Crash)?;
        let answers = sut::report_scores(&resumed);
        let wrong = answers
            .iter()
            .filter(|(seq, bits)| reference.get(*seq as usize) != Some(bits))
            .count();
        let reached = answers
            .last()
            .map(|(seq, _)| (*seq as usize + 1) * SLIDE_OBJECTS);
        if wrong > 0 || reached != Some(through) {
            run.fail(format!(
                "resumed run: {wrong} of {} answers differ from the uninterrupted run \
                 (reached {reached:?} of {through} objects)",
                answers.len()
            ));
        }
    }

    // WAL bytes per appended object: a short run that never snapshots, so
    // nothing is garbage-collected and every byte in the directory is WAL.
    {
        let dir = TempDir::new(out, "walprobe")?;
        let plain = sut::durable_config(&q, 0);
        let source = prefix(&run, PROBE_OBJECTS);
        sut::run_checkpointed(&plain, dir.path(), source, sut::Tail::Crash, |_, _| {})?;
        run.set(
            "ckpt.wal_bytes_per_object",
            dir_bytes(dir.path())?.0 as f64 / PROBE_OBJECTS as f64,
        );
    }

    // The CSV object codec, round trip.
    {
        let dir = TempDir::new(out, "ioprobe")?;
        let objects: Vec<SpatialObject> = prefix(&run, PROBE_OBJECTS).collect();
        let path = dir.path().join("objects.csv");
        let (written, encode_s) = calibrated(|| sut::write_objects_to(&path, &objects));
        written?;
        let (back, decode_s) = calibrated(|| sut::read_objects_from(&path));
        if back? != objects {
            run.fail("object codec: the round trip changed the objects".into());
        }
        let per_object = 1e9 / PROBE_OBJECTS as f64;
        run.set("io.encode_ns_per_object", encode_s * per_object);
        run.set("io.decode_ns_per_object", decode_s * per_object);
    }

    let counts = [
        ("objects", report.objects as f64),
        ("wal_appends", report.wal_appends as f64),
        ("snapshots_written", report.snapshots_written as f64),
    ];
    run.finish(&tracer, &replay, &counts)
}

// ---- taxi-serve ----------------------------------------------------------------------

fn serve_replay(
    run: &Run,
    panel: &[Flavor],
    budget: Budget,
    tracer: &mut Tracer,
    tracing: Tracing,
) -> Result<(Replay, Extras), String> {
    let rec = Recorder::new(run.w, budget);
    let mut extras = Extras::default();
    pipelines::serve(
        run.w,
        panel,
        &rec,
        run.stream(),
        &mut extras,
        tracer,
        tracing,
    )?;
    tracer.set_on(false);
    Ok((rec.finish()?, extras))
}

fn serve_layers(mut run: Run, seconds: f64) -> Result<Traced, String> {
    let q = sut::query(run.w);
    let mut tracer = Tracer::default();
    let (replay, extras) = serve_replay(
        &run,
        &SERVE_PANEL,
        share_of(seconds, 0.3),
        &mut tracer,
        Tracing::Alternate,
    )?;
    let verdict = run.gate(&replay, &extras.panel_samples)?;
    let (objects, flushes) = (
        tracer.count("serve.ingest"),
        tracer.count("serve.drain_ack"),
    );
    run.set(
        "serve.ingest_ns_per_object",
        ns_per(&tracer, "serve.ingest", objects, &replay),
    );
    run.set(
        "serve.drain_ack_ns_per_flush",
        ns_per(&tracer, "serve.drain_ack", flushes, &replay),
    );
    run.set("serve.dedup_hit_rate", extras.dedup_hit_rate);
    run.set(
        "serve.retained_answers_max",
        extras.retained_answers_max as f64,
    );
    run.set(
        "approx.mgaps_score_ratio_p50",
        median_or_zero(&verdict.mgaps_ratios),
    );
    run.set(
        "approx.gaps_score_ratio_p50",
        median_or_zero(&verdict.gaps_ratios),
    );
    run.set("approx.bound_violations", verdict.failed as f64);

    // Each subscription on a server of its own, over the same objects.
    let same = Budget::Objects(replay.timed_objects);
    let mut dedicated_s = 0.0;
    for flavor in SERVE_PANEL {
        let mut off = Tracer::default();
        let (alone, _) = serve_replay(&run, &[flavor], same, &mut off, Tracing::Off)?;
        dedicated_s += alone.timed_s;
        if flavor == Flavor::Exact {
            run.expect_same_answers("dedicated vs shared subscription 1", &alone, &replay);
        }
    }
    run.set(
        "serve.shared_vs_dedicated",
        ratio(dedicated_s, replay.timed_s),
    );

    // The detectors behind the panel, hand-staged at the served cadence.
    let mut t = Tracer::default();
    let (r, c) = run.staged(sut::topk(q), SLIDE_OBJECTS, same, &mut t)?;
    run.set(
        "topk.ns_per_event",
        ns_per(&t, "topk.on_event", c.events, &r),
    );
    run.set(
        "topk.refresh_ns",
        ns_per(&t, "topk.current_topk", c.refreshes, &r),
    );
    run.set(
        "topk.searches_per_object",
        ratio(c.timed_stats.searches as f64, r.timed_objects as f64),
    );
    let mut t = Tracer::default();
    let (r, c) = run.staged(sut::mgaps(q), SLIDE_OBJECTS, same, &mut t)?;
    run.set(
        "approx.mgaps_ns_per_event",
        ns_per(&t, "approx.mgaps_on_event", c.events, &r),
    );
    run.set(
        "approx.mgaps_refresh_ns",
        ns_per(&t, "approx.mgaps_current", c.refreshes, &r),
    );
    let mut t = Tracer::default();
    let (r, c) = run.staged(sut::gaps(q), SLIDE_OBJECTS, same, &mut t)?;
    run.set(
        "approx.gaps_ns_per_event",
        ns_per(&t, "approx.gaps_on_event", c.events, &r),
    );

    let counts = [
        ("traced_objects", objects as f64),
        ("traced_flushes", flushes as f64),
    ];
    run.finish(&tracer, &replay, &counts)
}

/// The traced run of one workload.
pub fn run(w: &'static Workload, seed: u64, seconds: f64, out: &Path) -> Result<Traced, String> {
    let run = Run {
        w,
        seed,
        out,
        values: PER_LAYER.iter().map(|d| (d.name, 0.0)).collect(),
        failed: 0,
    };
    match w.pipeline {
        Pipeline::Slide | Pipeline::PerObject => ccs_layers(run, seconds),
        Pipeline::Approx => approx_layers(run, seconds),
        Pipeline::Mesh => mesh_layers(run, seconds),
        Pipeline::Serve => serve_layers(run, seconds),
        Pipeline::Durable => durable_layers(run, seconds),
    }
}
