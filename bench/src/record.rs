//! The replay clock: one [`Feed`] hands the pipeline its stream and one
//! [`Recorder`] receives its answers. Together they implement the load model
//! — closed loop, one client, one continuous replay: an untimed warm-up
//! prefix, a steady-state assertion, then timed arrivals until the time
//! budget (or a fixed object count) is spent.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use crate::stats::Fnv;
use crate::sut::{self, RegionAnswer, SpatialObject};
use crate::workloads::{RawObject, Stream, Workload, SLIDE_OBJECTS};

/// Objects generated per refill. Refills happen off the clock.
const CHUNK: usize = 4096;

/// The digest is checkpointed every this many refreshes.
pub const DIGEST_EVERY: u64 = 500;

/// How long the timed phase lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Stop the stream at the end of the warm-up (set-up measurement only).
    SetupOnly,
    /// Time arrivals for this long, stopping on a slide boundary.
    Time(Duration),
    /// Time exactly this many arrivals (a multiple of the slide).
    Objects(usize),
}

/// Evenly spaced samples of a sequence whose length is not known up front:
/// keeps every `stride`-th item and doubles the stride whenever the store
/// outgrows `2 * MIN_KEPT`, so it ends holding `MIN_KEPT..=2*MIN_KEPT` items
/// once that many were offered.
#[derive(Debug, Clone)]
pub struct Sampler<T> {
    stride: usize,
    items: Vec<(usize, T)>,
}

/// The correctness gate checks at least this many refreshes per run.
pub const MIN_KEPT: usize = 32;

impl<T> Default for Sampler<T> {
    fn default() -> Self {
        Sampler {
            stride: 1,
            items: Vec::new(),
        }
    }
}

impl<T> Sampler<T> {
    pub fn wants(&self, index: usize) -> bool {
        index.is_multiple_of(self.stride)
    }

    /// Stores item `index`; call only when [`wants`](Self::wants) said yes.
    pub fn push(&mut self, index: usize, item: T) {
        self.items.push((index, item));
        if self.items.len() > 2 * MIN_KEPT {
            self.stride *= 2;
            let stride = self.stride;
            self.items.retain(|(i, _)| i % stride == 0);
        }
    }

    pub fn into_items(self) -> Vec<(usize, T)> {
        self.items
    }
}

/// A fixed dependent integer chain of `steps` xorshift rounds. Its duration
/// moves only when the host's core speed does (turbo on or off, a noisy
/// neighbour on the sibling thread), never with the program under test.
pub fn spin(steps: u32) -> Duration {
    let began = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    began.elapsed()
}

/// Steps of one host-speed probe (≈12 µs).
const PROBE_STEPS: u32 = 8_000;
/// What the probe takes on the reference host when nothing disturbs it
/// (1.44 ns per step). Only the ratio to it matters: on another host every
/// timing is scaled by one constant.
const PROBE_NOMINAL: Duration = Duration::from_nanos(11_500);
/// The probe runs at most once per this much busy wall-clock (≈0.6 % of it).
const PROBE_EVERY: Duration = Duration::from_millis(2);

/// Probes the host: the factor that turns wall-clock spent now into the time
/// the undisturbed reference host would have taken.
fn host_factor() -> f64 {
    PROBE_NOMINAL.as_secs_f64() / spin(PROBE_STEPS).as_secs_f64()
}

/// Runs `work` and returns its result with its duration in calibrated
/// seconds: wall-clock scaled by the host speed probed just before and after.
pub fn calibrated<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let probe = || {
        let mut factors = [host_factor(), host_factor(), host_factor()];
        factors.sort_by(f64::total_cmp);
        factors[1]
    };
    let before = probe();
    let began = Instant::now();
    let result = work();
    let raw = began.elapsed().as_secs_f64();
    (result, raw * (before + probe()) / 2.0)
}

/// The calibrated clock every timing metric is read on.
///
/// The sandbox host runs in two speeds a quarter apart and switches between
/// them for seconds at a time, so raw wall-clock repeats no better than
/// ±15 %. This clock counts *busy* time (generator refills and its own
/// probes are skipped) and scales each stretch by the latest probe reading,
/// so a stretch run at 0.8× speed reads as the 0.8× shorter time the
/// undisturbed host would have taken.
#[derive(Debug)]
struct HostClock {
    /// Everything before this instant is accounted for.
    mark: Instant,
    /// Nominal probe time ÷ latest probe reading.
    factor: f64,
    busy_raw: Duration,
    busy_cal_ns: f64,
    next_probe: Duration,
}

impl HostClock {
    fn new() -> Self {
        let factor = host_factor();
        HostClock {
            mark: Instant::now(),
            factor,
            busy_raw: Duration::ZERO,
            busy_cal_ns: 0.0,
            next_probe: PROBE_EVERY,
        }
    }

    /// Counts the stretch since the last mark as busy time.
    fn account(&mut self, now: Instant) {
        let dt = now.duration_since(self.mark);
        self.busy_raw += dt;
        self.busy_cal_ns += dt.as_nanos() as f64 * self.factor;
        self.mark = now;
    }

    /// Drops the stretch since the last mark: it was spent off the clock.
    fn skip(&mut self) {
        self.mark = Instant::now();
    }

    /// Re-reads the host speed when due. Call right after [`account`](Self::account).
    fn probe_if_due(&mut self) {
        if self.busy_raw >= self.next_probe {
            self.factor = host_factor();
            self.next_probe = self.busy_raw + PROBE_EVERY;
            self.skip();
        }
    }

    /// Starts a new measured phase at the last mark.
    fn reset(&mut self) {
        self.busy_raw = Duration::ZERO;
        self.busy_cal_ns = 0.0;
        self.next_probe = PROBE_EVERY;
    }
}

#[derive(Debug)]
struct State {
    clock: HostClock,
    /// The timed phase has begun (the first timed object was handed over).
    timing: bool,
    /// When the arrival completing the current refresh unit was handed over.
    handoff: Instant,
    setup_s: f64,
    setup_raw_s: f64,
    /// The source has returned `None`; later flushes (terminal drains) are ignored.
    ended: bool,
    stop: bool,
    error: Option<String>,
    refreshes: u64,
    timed_refreshes: usize,
    missing: u64,
    lat_ns: Vec<u32>,
    /// Calibrated clock at the end of every timed slide-sized block.
    block_end_ns: Vec<u64>,
    digest: Fnv,
    digest_marks: Vec<(u64, u64)>,
    samples: Sampler<Option<RegionAnswer>>,
    rss_at_mark_mb: Option<f64>,
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Receives every answer refresh and owns the run's clock.
#[derive(Debug)]
pub struct Recorder {
    per_refresh: usize,
    warmup: usize,
    window_ms: u64,
    budget: Budget,
    /// Read the peak resident set when this many timed objects are done.
    rss_mark: Option<usize>,
    state: RefCell<State>,
}

/// What a finished replay measured. Times are on the calibrated clock
/// unless named `raw`.
#[derive(Debug)]
pub struct Replay {
    pub setup_s: f64,
    pub setup_raw_s: f64,
    pub timed_objects: usize,
    pub timed_s: f64,
    /// Timed wall-clock as the host spent it (refills and probes taken out).
    pub timed_raw_s: f64,
    /// Per-refresh answer latencies, sorted.
    pub lat_ns: Vec<u32>,
    pub block_end_ns: Vec<u64>,
    pub timed_refreshes: usize,
    /// Timed refreshes that produced no answer.
    pub missing: u64,
    pub digest: u64,
    /// `(refreshes so far, digest)` every [`DIGEST_EVERY`] refreshes from the
    /// start of the stream (warm-up included).
    pub digest_marks: Vec<(u64, u64)>,
    /// Evenly spaced `(timed refresh index, answer)` pairs for the oracle check.
    pub samples: Vec<(usize, Option<RegionAnswer>)>,
    /// `VmHWM` when the workload's `rss_mark_objects` timed objects were done;
    /// `None` if the run ended before that.
    pub rss_at_mark_mb: Option<f64>,
}

impl Recorder {
    /// Starts the set-up clock: construct the pipeline *after* this.
    pub fn new(w: &Workload, budget: Budget) -> Self {
        Recorder {
            rss_mark: Some(w.rss_mark_objects),
            ..Self::with_shape(
                w.pipeline.objects_per_refresh(),
                w.warmup_objects,
                w.window_ms,
                budget,
            )
        }
    }

    pub fn with_shape(per_refresh: usize, warmup: usize, window_ms: u64, budget: Budget) -> Self {
        assert!(per_refresh == 1 || per_refresh == SLIDE_OBJECTS);
        assert_eq!(warmup % SLIDE_OBJECTS, 0, "warm-up must end on a slide");
        if let Budget::Objects(n) = budget {
            assert!(
                n > 0 && n % SLIDE_OBJECTS == 0,
                "timed count must be whole slides"
            );
        }
        Recorder {
            per_refresh,
            warmup,
            window_ms,
            budget,
            rss_mark: None,
            state: RefCell::new(State {
                clock: HostClock::new(),
                timing: false,
                handoff: Instant::now(),
                setup_s: 0.0,
                setup_raw_s: 0.0,
                ended: false,
                stop: false,
                error: None,
                refreshes: 0,
                timed_refreshes: 0,
                missing: 0,
                lat_ns: Vec::new(),
                block_end_ns: Vec::new(),
                digest: Fnv::default(),
                digest_marks: Vec::new(),
                samples: Sampler::default(),
                rss_at_mark_mb: None,
            }),
        }
    }

    /// The source feeding the pipeline under this recorder's clock.
    pub fn feed(&self, stream: Stream) -> Feed<'_> {
        Feed {
            rec: self,
            stream,
            buf: Vec::with_capacity(CHUNK),
            pos: 0,
            index: 0,
            first_t_ms: None,
            last_t_ms: 0,
        }
    }

    /// Whether the next timed refresh will be kept for the oracle check —
    /// lets a caller avoid cloning side data for refreshes nobody samples.
    pub fn sampling_next(&self) -> Option<usize> {
        let st = self.state.borrow();
        let timed = st.timing && !st.ended;
        (timed && st.samples.wants(st.timed_refreshes)).then_some(st.timed_refreshes)
    }

    /// One answer refresh reached the harness.
    pub fn on_answer(&self, answer: Option<RegionAnswer>) {
        let now = Instant::now();
        let mut st = self.state.borrow_mut();
        if st.ended {
            return;
        }
        st.clock.account(now);
        st.refreshes += 1;
        st.digest.write_u64(answer.map_or(0, |a| a.score.to_bits()));
        if st.refreshes.is_multiple_of(DIGEST_EVERY) {
            let mark = (st.refreshes, st.digest.value());
            st.digest_marks.push(mark);
        }
        // Timed refreshes start with the first unit lying wholly past the warm-up.
        if !st.timing || (st.refreshes as usize) * self.per_refresh <= self.warmup {
            st.clock.probe_if_due();
            return;
        }
        let lat = now.duration_since(st.handoff).as_nanos() as f64 * st.clock.factor;
        st.lat_ns.push(lat.min(u32::MAX as f64) as u32);
        st.missing += answer.is_none() as u64;
        let index = st.timed_refreshes;
        if st.samples.wants(index) {
            st.samples.push(index, answer);
        }
        st.timed_refreshes += 1;
        let timed_objects = st.timed_refreshes * self.per_refresh;
        if timed_objects.is_multiple_of(SLIDE_OBJECTS) {
            let at = st.clock.busy_cal_ns as u64;
            st.block_end_ns.push(at);
            st.stop = match self.budget {
                // `--seconds` is wall-clock the host spends, not calibrated time.
                Budget::Time(limit) => st.clock.busy_raw >= limit,
                Budget::Objects(n) => timed_objects >= n,
                Budget::SetupOnly => true,
            };
            st.clock.probe_if_due();
            if Some(timed_objects) == self.rss_mark {
                st.rss_at_mark_mb = peak_rss_mb().ok();
                st.clock.skip();
            }
        }
    }

    /// Timed arrivals whose refresh has completed; `None` during the warm-up.
    pub fn timed_objects(&self) -> Option<usize> {
        let st = self.state.borrow();
        st.timing.then_some(st.timed_refreshes * self.per_refresh)
    }

    /// Whether the source has been exhausted (later flushes are drains).
    pub fn ended(&self) -> bool {
        self.state.borrow().ended
    }

    /// Ends the run: the measurements, or why the run is invalid.
    pub fn finish(self) -> Result<Replay, String> {
        let st = self.state.into_inner();
        if let Some(e) = st.error {
            return Err(e);
        }
        if !st.timing && self.budget != Budget::SetupOnly {
            return Err("stream ended before the warm-up did".into());
        }
        let mut lat_ns = st.lat_ns;
        lat_ns.sort_unstable();
        Ok(Replay {
            setup_s: st.setup_s,
            setup_raw_s: st.setup_raw_s,
            timed_objects: st.timed_refreshes * self.per_refresh,
            timed_s: st.block_end_ns.last().map_or(0.0, |ns| *ns as f64 / 1e9),
            timed_raw_s: st.clock.busy_raw.as_secs_f64(),
            lat_ns,
            block_end_ns: st.block_end_ns,
            timed_refreshes: st.timed_refreshes,
            missing: st.missing,
            digest: st.digest.value(),
            digest_marks: st.digest_marks,
            samples: st.samples.into_items(),
            rss_at_mark_mb: st.rss_at_mark_mb,
        })
    }
}

/// The stream as the pipeline sees it: warm-up prefix, then timed arrivals
/// until the recorder says stop.
#[derive(Debug)]
pub struct Feed<'a> {
    rec: &'a Recorder,
    stream: Stream,
    buf: Vec<RawObject>,
    pos: usize,
    /// Objects handed over so far.
    index: usize,
    first_t_ms: Option<u64>,
    last_t_ms: u64,
}

impl Feed<'_> {
    fn refill(&mut self) {
        self.buf.clear();
        self.buf.extend(self.stream.by_ref().take(CHUNK));
        self.pos = 0;
    }

    /// The warm-up is over: refuse to time a stream whose windows are not
    /// both full and churning, then start the clock.
    fn start_timing(&mut self) -> bool {
        let rec = self.rec;
        let mut st = rec.state.borrow_mut();
        let spanned = self.last_t_ms - self.first_t_ms.unwrap_or(self.last_t_ms);
        if self.index == 0 || spanned < 2 * rec.window_ms {
            st.error = Some(format!(
                "not in steady state: the {}-object warm-up spans {spanned} ms of stream time, \
                 two windows need {} ms",
                self.index,
                2 * rec.window_ms
            ));
            return false;
        }
        st.clock.account(Instant::now());
        st.setup_s = st.clock.busy_cal_ns / 1e9;
        st.setup_raw_s = st.clock.busy_raw.as_secs_f64();
        if rec.budget == Budget::SetupOnly {
            return false;
        }
        st.clock.reset();
        st.timing = true;
        true
    }
}

impl Iterator for Feed<'_> {
    type Item = SpatialObject;

    fn next(&mut self) -> Option<SpatialObject> {
        let rec = self.rec;
        let (ended, stop) = {
            let st = rec.state.borrow();
            (st.ended, st.stop)
        };
        if ended {
            return None;
        }
        let go = if self.index == rec.warmup {
            self.start_timing()
        } else {
            !stop
        };
        if !go {
            rec.state.borrow_mut().ended = true;
            return None;
        }
        if self.pos == self.buf.len() {
            // Generating the stream counts as set-up during the warm-up; once
            // timing has begun it is not the pipeline's work: off the clock.
            let timing = rec.state.borrow().timing;
            if timing {
                rec.state.borrow_mut().clock.account(Instant::now());
            }
            self.refill();
            if timing {
                rec.state.borrow_mut().clock.skip();
            }
        }
        let raw = self.buf[self.pos];
        self.pos += 1;
        self.index += 1;
        self.first_t_ms.get_or_insert(raw.t_ms);
        self.last_t_ms = raw.t_ms;
        let obj = sut::object(raw);
        if self.index.is_multiple_of(rec.per_refresh) {
            // This arrival completes a refresh unit: latency runs from here.
            rec.state.borrow_mut().handoff = Instant::now();
        }
        Some(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::StreamModel;

    #[test]
    fn steady_state_assertion_fires_on_a_too_short_warmup() {
        // 64 uniform objects span 189 ms; a 30 s window needs 60 s.
        let rec = Recorder::with_shape(SLIDE_OBJECTS, 64, 30_000, Budget::Objects(64));
        let fed = rec.feed(Stream::new(StreamModel::Uniform, 1)).count();
        assert_eq!(fed, 64, "the stream stops at the warm-up boundary");
        let err = rec.finish().unwrap_err();
        assert!(err.contains("not in steady state"), "{err}");
    }

    #[test]
    fn fixed_object_budget_times_exactly_that_many() {
        // 3 ms apart: 64 objects cover a 90 ms double window.
        let rec = Recorder::with_shape(SLIDE_OBJECTS, 64, 90, Budget::Objects(96));
        let mut fed = 0;
        let mut feed = rec.feed(Stream::new(StreamModel::Uniform, 1));
        while feed.next().is_some() {
            fed += 1;
            if fed % SLIDE_OBJECTS == 0 {
                rec.on_answer(None);
            }
        }
        assert_eq!(fed, 64 + 96);
        let replay = rec.finish().unwrap();
        assert_eq!(replay.timed_objects, 96);
        assert_eq!(replay.timed_refreshes, 3);
        assert_eq!(replay.block_end_ns.len(), 3);
        assert_eq!(replay.missing, 3);
        assert!(replay.setup_s > 0.0);
    }

    #[test]
    fn setup_only_budget_stops_at_the_boundary() {
        let rec = Recorder::with_shape(1, 64, 90, Budget::SetupOnly);
        assert_eq!(rec.feed(Stream::new(StreamModel::Uniform, 1)).count(), 64);
        let replay = rec.finish().unwrap();
        assert!(replay.setup_s > 0.0 && replay.setup_raw_s > 0.0);
        assert_eq!(replay.timed_objects, 0);
    }

    #[test]
    fn sampler_keeps_evenly_spaced_items() {
        for n in [10usize, 64, 65, 1000, 4097] {
            let mut s = Sampler::default();
            for i in 0..n {
                if s.wants(i) {
                    s.push(i, ());
                }
            }
            let items = s.into_items();
            assert!(
                items.len() >= n.min(MIN_KEPT) && items.len() <= 2 * MIN_KEPT,
                "{n}"
            );
            let stride = if items.len() > 1 { items[1].0 } else { 1 };
            assert!(items.iter().enumerate().all(|(k, (i, _))| *i == k * stride));
        }
    }
}
