//! The six pipelines under test, each replayed under a [`Recorder`].
//!
//! A pipeline constructs its detector/server/WAL *after* the recorder exists
//! (construction is set-up time), pulls its stream from the recorder's feed
//! and reports every answer refresh back to it.

use std::path::{Path, PathBuf};

use crate::record::{Budget, Recorder, Replay};
use crate::staged::{self, Ccs, Tracing};
use crate::sut::{self, Flavor, RegionAnswer, SERVE_PANEL};
use crate::trace::{traced_block, Tracer};
use crate::workloads::{Pipeline, Stream, Workload, SLIDE_OBJECTS};

/// A scratch directory under the benchmark's output directory, removed when
/// dropped — on success, on error and on panic alike.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(out_dir: &Path, label: &str) -> Result<Self, String> {
        let path = out_dir.join(format!("tmp-{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Snapshot cadence of `taxi-durable`, in slides.
pub const SNAPSHOT_EVERY_SLIDES: u64 = 16;

/// One sampled `taxi-serve` flush: the timed refresh index and every
/// subscription's answers, in subscription order.
pub type PanelSample = (usize, Vec<Vec<RegionAnswer>>);

/// Side results a pipeline reports besides its answers.
#[derive(Debug, Default)]
pub struct Extras {
    /// `taxi-serve`: every flush the recorder sampled when it happened — a
    /// superset of the samples it still holds at the end (it thins them out
    /// as the run grows); the gate looks flushes up by refresh index.
    pub panel_samples: Vec<PanelSample>,
    /// `taxi-serve`: the most answers any subscription retained at once.
    pub retained_answers_max: usize,
    pub dedup_hit_rate: f64,
}

/// Replays `w` once under `budget`; the whole measured run of `--trace 0`.
pub fn replay(
    w: &'static Workload,
    seed: u64,
    budget: Budget,
    out_dir: &Path,
) -> Result<(Replay, Extras), String> {
    let rec = Recorder::new(w, budget);
    let mut extras = Extras::default();
    let stream = Stream::new(w.model, seed);
    let q = sut::query(w);
    match w.pipeline {
        Pipeline::Slide => {
            let mut d = sut::ccs(q, 1);
            sut::drive_slide(&mut d, &q, rec.feed(stream), |_, a| rec.on_answer(a));
        }
        Pipeline::Mesh => {
            let mut d = sut::ccs(q, 2);
            sut::drive_mesh(&mut d, &q, rec.feed(stream), |_, a| rec.on_answer(a));
        }
        // The per-object protocols are the staged loop with its tracer off.
        Pipeline::PerObject => {
            let mut d = Ccs {
                detector: sut::ccs(q, 1),
                eager: false,
            };
            staged::run(
                &mut d,
                &q,
                1,
                &rec,
                stream,
                &mut Tracer::default(),
                Tracing::Off,
            );
        }
        Pipeline::Approx => {
            let mut d = sut::mgaps(q);
            staged::run(
                &mut d,
                &q,
                1,
                &rec,
                stream,
                &mut Tracer::default(),
                Tracing::Off,
            );
        }
        Pipeline::Serve => serve(
            w,
            &SERVE_PANEL,
            &rec,
            stream,
            &mut extras,
            &mut Tracer::default(),
            Tracing::Off,
        )?,
        Pipeline::Durable => {
            let dir = TempDir::new(out_dir, "durable")?;
            let cfg = sut::durable_config(&q, SNAPSHOT_EVERY_SLIDES);
            // `Tail::Crash`: the run stops dead after the last timed slide —
            // the terminal drain is not part of any metric.
            sut::run_checkpointed(
                &cfg,
                dir.path(),
                rec.feed(stream),
                sut::Tail::Crash,
                |_, a| rec.on_answer(a),
            )?;
        }
    }
    Ok((rec.finish()?, extras))
}

/// The serving loop: ingest every arrival; after each slide drain and ack
/// every subscription. The refresh is complete when the last drain returns.
/// Spans: `serve.ingest` per arrival, `serve.drain_ack` per slide.
pub fn serve(
    w: &Workload,
    panel: &[Flavor],
    rec: &Recorder,
    stream: Stream,
    extras: &mut Extras,
    tracer: &mut Tracer,
    tracing: Tracing,
) -> Result<(), String> {
    let root = tracer.name("refresh.slide");
    let ingest = tracer.name("serve.ingest");
    let drain_ack = tracer.name("serve.drain_ack");
    let mut server = sut::server();
    let subs = panel
        .iter()
        .map(|f| sut::subscribe(&mut server, w, *f))
        .collect::<Result<Vec<_>, _>>()?;
    extras.dedup_hit_rate = sut::serve_dedup_hit_rate(&server);
    let mut in_slide = 0;
    for obj in rec.feed(stream) {
        if in_slide == 0 {
            if let (Tracing::Alternate, Some(timed)) = (tracing, rec.timed_objects()) {
                tracer.set_on(traced_block(timed / SLIDE_OBJECTS));
            }
            let at = tracer.tick();
            tracer.enter_at(root, at);
            tracer.enter_at(ingest, at);
        } else {
            tracer.then(ingest);
        }
        sut::serve_ingest(&mut server, obj);
        in_slide += 1;
        if in_slide < SLIDE_OBJECTS {
            continue;
        }
        in_slide = 0;
        tracer.then(drain_ack);
        let sampled = rec.sampling_next();
        let mut flush: Vec<Vec<RegionAnswer>> = Vec::new();
        let mut first: Option<RegionAnswer> = None;
        for (i, sub) in subs.iter().enumerate() {
            extras.retained_answers_max = extras
                .retained_answers_max
                .max(sut::serve_retained(&server, *sub)?);
            let drained = sut::serve_drain(&mut server, *sub)?;
            let Some((seq, answers)) = drained.into_iter().last() else {
                return Err(format!(
                    "subscription {i} had nothing to drain after a slide"
                ));
            };
            sut::serve_ack(&mut server, *sub, seq)?;
            if i == 0 {
                first = answers.first().copied();
            }
            if sampled.is_some() {
                flush.push(answers);
            }
        }
        let at = tracer.tick();
        tracer.exit_at(at);
        tracer.exit_at(at);
        tracer.next_refresh();
        rec.on_answer(first);
        if let Some(index) = sampled {
            extras.panel_samples.push((index, flush));
        }
    }
    Ok(())
}
