//! The correctness gate: after timing, a shadow window engine replays the
//! same stream and an oracle recomputes the answer from the window contents
//! at the sampled refreshes. A mismatch, a missing answer or an error is one
//! failed operation; any failure makes the command exit non-zero.

use crate::pipelines::PanelSample;
use crate::record::Replay;
use crate::sut::{self, EventKind, Flavor, RegionAnswer, SpatialObject, SurgeQuery};
use crate::workloads::{Pipeline, Stream, Workload, ALPHA};

/// Exact answers must match the oracle score to this relative error.
const EXACT_REL_TOL: f64 = 1e-9;

/// What an answer is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Standard {
    /// Equal to the oracle's best score.
    Exact,
    /// At least `(1 − α)/4` of the oracle's best score (GAPS/MGAPS bound).
    Approx,
}

/// The shadow engine: same stream, the program's own window engine, no
/// detector. Advances monotonically to any object count.
struct Shadow {
    stream: Stream,
    engine: sut::SlidingWindowEngine,
    batch: sut::EventBatch,
    pushed: usize,
    expired: u64,
}

impl Shadow {
    fn new(w: &Workload, seed: u64, q: &SurgeQuery) -> Self {
        Shadow {
            stream: Stream::new(w.model, seed),
            engine: sut::window_engine(q),
            batch: sut::EventBatch::new(),
            pushed: 0,
            expired: 0,
        }
    }

    fn advance_to(&mut self, objects: usize) {
        while self.pushed < objects {
            let raw = self.stream.next().expect("streams are endless");
            self.batch.clear();
            sut::window_push_into(&mut self.engine, sut::object(raw), &mut self.batch);
            self.expired += self
                .batch
                .iter()
                .filter(|e| e.kind == EventKind::Expired)
                .count() as u64;
            self.pushed += 1;
        }
    }
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= EXACT_REL_TOL * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Judges one answer against the oracle over the same window contents.
/// `Err` carries the reason the operation counts as failed.
pub fn judge(
    answer: Option<&RegionAnswer>,
    standard: Standard,
    current: &[SpatialObject],
    past: &[SpatialObject],
    q: &SurgeQuery,
) -> Result<f64, String> {
    let best = sut::oracle_best(current, past, q);
    let (Some(answer), Some(best)) = (answer, best) else {
        return match (answer, best) {
            (None, None) => Ok(1.0),
            (None, Some(b)) => Err(format!("no answer, oracle found score {}", b.score)),
            (Some(a), None) => Err(format!("answer {} but the oracle found none", a.score)),
            _ => unreachable!(),
        };
    };
    // The reported score must be the true score of the reported region. An
    // optimal region always has objects exactly on its edges, and rebuilding
    // the rectangle from the answer point can round an edge one ulp past
    // such an object — so a region grown by a billionth may stand in.
    let grown = {
        let (dx, dy) = (q.region.width * 1e-9, q.region.height * 1e-9);
        let r = answer.region;
        let mut a = *answer;
        a.region = sut::rect(r.x0 - dx, r.y0 - dy, r.x1 + dx, r.y1 + dy);
        a
    };
    let actual = sut::oracle_score_of(current, past, answer, q);
    if !rel_close(actual, answer.score)
        && !rel_close(sut::oracle_score_of(current, past, &grown, q), answer.score)
    {
        return Err(format!(
            "reported score {} but the region scores {actual}",
            answer.score
        ));
    }
    let ratio = if best.score > 0.0 {
        answer.score / best.score
    } else {
        1.0
    };
    let ok = match standard {
        Standard::Exact => rel_close(answer.score, best.score),
        Standard::Approx => answer.score >= (1.0 - ALPHA) / 4.0 * best.score,
    };
    if ok {
        Ok(ratio)
    } else {
        Err(format!(
            "score {} vs oracle {} ({standard:?})",
            answer.score, best.score
        ))
    }
}

/// The outcome of the gate.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: usize,
    pub failed: u64,
    /// First few failure reasons, for the log.
    pub reasons: Vec<String>,
    /// Answer ÷ oracle score at every checked refresh of the replay's own
    /// answers, and of `taxi-serve`'s `Mgaps` and `Gaps` subscriptions.
    pub ratios: Vec<f64>,
    pub mgaps_ratios: Vec<f64>,
    pub gaps_ratios: Vec<f64>,
}

impl Verdict {
    fn fail(&mut self, at: usize, what: &str, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(format!("refresh {at} {what}: {why}"));
        }
    }
}

/// Checks the sampled refreshes of a finished replay against the oracle and
/// asserts steady state on the shadow engine (both windows stable at the
/// warm-up boundary, objects expiring throughout the timed range).
pub fn gate(
    w: &Workload,
    seed: u64,
    replay: &Replay,
    panel_samples: &[PanelSample],
) -> Result<Verdict, String> {
    let q = sut::query(w);
    let per_refresh = w.pipeline.objects_per_refresh();
    let mut shadow = Shadow::new(w, seed, &q);
    shadow.advance_to(w.warmup_objects);
    if !sut::window_is_stable(&shadow.engine) {
        return Err("shadow engine not stable at the end of the warm-up".into());
    }
    let expired_at_warmup = shadow.expired;
    let mut verdict = Verdict {
        failed: replay.missing,
        ..Verdict::default()
    };
    if replay.missing > 0 {
        verdict
            .reasons
            .push(format!("{} timed refreshes had no answer", replay.missing));
    }
    let standard = match w.pipeline {
        Pipeline::Approx => Standard::Approx,
        _ => Standard::Exact,
    };
    for (index, answer) in &replay.samples {
        shadow.advance_to(w.warmup_objects + (index + 1) * per_refresh);
        let (current, past) = sut::window_contents(&shadow.engine);
        verdict.checked += 1;
        match judge(answer.as_ref(), standard, &current, &past, &q) {
            Ok(ratio) => verdict.ratios.push(ratio),
            Err(why) => verdict.fail(*index, "answer", why),
        }
        if !panel_samples.is_empty() {
            let at = panel_samples
                .binary_search_by_key(index, |(i, _)| *i)
                .map_err(|_| format!("no serve panel sample for refresh {index}"))?;
            let flush = &panel_samples[at].1;
            if flush.len() != sut::SERVE_PANEL.len() {
                return Err(format!("serve panel sample {index} is incomplete"));
            }
            for (flavor, answers) in sut::SERVE_PANEL.iter().zip(flush) {
                let fq = sut::flavor_query(w, *flavor);
                let standard = match flavor {
                    Flavor::Mgaps | Flavor::Gaps => Standard::Approx,
                    // Top-k's first answer is the oracle's top-1.
                    Flavor::Exact | Flavor::ExactWide | Flavor::TopK => Standard::Exact,
                };
                verdict.checked += 1;
                match judge(answers.first(), standard, &current, &past, &fq) {
                    Ok(ratio) if *flavor == Flavor::Mgaps => verdict.mgaps_ratios.push(ratio),
                    Ok(ratio) if *flavor == Flavor::Gaps => verdict.gaps_ratios.push(ratio),
                    Ok(_) => {}
                    Err(why) => verdict.fail(*index, &format!("{flavor:?}"), why),
                }
            }
        }
    }
    let timed_pushed = shadow.pushed - w.warmup_objects;
    let expired = shadow.expired - expired_at_warmup;
    if (expired as usize) * 2 < timed_pushed {
        return Err(format!(
            "not in steady state: {expired} objects expired while {timed_pushed} arrived"
        ));
    }
    Ok(verdict)
}
