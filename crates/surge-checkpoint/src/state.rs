//! The checkpoint state model and its snapshot-section codec.
//!
//! A [`CheckpointState`] is everything a process needs to resume a
//! checkpointed run **bit-identically**: the run configuration
//! ([`DetectorSpec`] + query + cadence), the window-engine residency
//! ([`surge_core::EngineState`]), the detector's logical state
//! ([`surge_core::DetectorState`]), and the per-slide answers produced so
//! far. It serializes into the `surge-io` snapshot container
//! ([`surge_io::Snapshot`]): one length-prefixed section per concern, CRC
//! footer, atomic write-then-rename.
//!
//! The codec is hand-rolled little-endian framing (the offline build has no
//! serde); floats travel as IEEE-754 bits so a decode→encode cycle is
//! byte-identical — `tests/snapshot_format.rs` proptests that, plus precise
//! [`IoError`]s for every truncation and corruption.

use surge_core::{
    CandidateState, CellTable, DetectorState, DetectorStats, EngineState, GridCellState, Point,
    Rect, RectState, RegionAnswer, SpatialObject, SurgeQuery, WindowConfig, WindowKind,
};
use surge_exact::{BoundMode, SweepMode};
use surge_io::{IoError, PayloadReader, PayloadWriter, SectionWriter, Snapshot};

/// Section tags of the checkpoint snapshot format.
pub mod tags {
    /// Run cadence and WAL position.
    pub const META: u32 = 1;
    /// Query + detector construction parameters.
    pub const SPEC: u32 = 2;
    /// Window-engine residency and clocks.
    pub const ENGINE: u32 = 3;
    /// Detector logical state.
    pub const DETECTOR: u32 = 4;
    /// Per-slide answers produced so far.
    pub const ANSWERS: u32 = 5;
    /// Serving-registry cadence and id counters (`surge-serve`).
    pub const SERVE_META: u32 = 6;
    /// The full serving registry: lanes, detector groups, subscriptions.
    pub const SERVE_REGISTRY: u32 = 7;
}

/// Which detector a checkpointed run drives, with its construction
/// parameters — enough to rebuild an empty twin at recovery time.
///
/// `Hash` (alongside `Eq`) lets the serving layer dedupe detector groups
/// on `(QueryKey, DetectorSpec)` identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorSpec {
    /// [`surge_exact::CellCspot`] (CCS / B-CCS).
    Cell {
        /// Bound mode (Combined = CCS, StaticOnly = B-CCS).
        bound: BoundMode,
        /// Per-cell sweep mode.
        sweep: SweepMode,
        /// Cell-store shard count.
        shards: usize,
    },
    /// [`surge_exact::BaseDetector`].
    Base {
        /// Whether the incumbent-pruned variant is used.
        pruned: bool,
    },
    /// [`surge_topk::KCellCspot`] (continuous top-k).
    TopK {
        /// The configured k.
        k: usize,
    },
    /// [`surge_approx::GapSurge`] (GAP-SURGE).
    Gaps {
        /// Ingest shard count (power of two).
        shards: usize,
    },
    /// [`surge_approx::MgapSurge`] (MGAP-SURGE).
    Mgaps {
        /// Ingest shard count per grid (power of two).
        shards: usize,
    },
    /// A multi-query serving registry (`surge-serve`): the snapshot's
    /// detector section is empty and the real state lives in the serve
    /// sections. Not constructible by the single-query driver.
    Serve,
}

impl DetectorSpec {
    /// Why no detector can be built with this spec's parameters — a top-k
    /// `k` of 0, or a grid-detector shard count that is not a power of
    /// two — or `None` when one can.
    pub fn parameter_error(&self) -> Option<&'static str> {
        match *self {
            DetectorSpec::TopK { k: 0 } => Some("TopK needs k ≥ 1"),
            DetectorSpec::Gaps { shards } | DetectorSpec::Mgaps { shards }
                if !shards.is_power_of_two() =>
            {
                Some("Gaps and Mgaps need a power-of-two shard count")
            }
            _ => None,
        }
    }
}

/// Run cadence and durability bookkeeping carried in every snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Objects ingested when the snapshot was taken — also the global index
    /// of the first WAL record the snapshot does **not** cover.
    pub objects_ingested: u64,
    /// Slides flushed when the snapshot was taken.
    pub slides_done: u64,
    /// Arrivals per slide.
    pub slide_objects: u64,
    /// Monotonic snapshot sequence number.
    pub snapshot_seq: u64,
}

/// The complete logical state of a checkpointed run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Cadence + WAL position.
    pub meta: CheckpointMeta,
    /// Detector construction parameters.
    pub spec: DetectorSpec,
    /// The continuous query.
    pub query: SurgeQuery,
    /// Window-engine residency (includes the engine's `WindowConfig`).
    pub engine: EngineState,
    /// Detector logical state.
    pub detector: DetectorState,
    /// Flushes released by consumer acks before this snapshot — the seq of
    /// the first entry in [`answers`](Self::answers). With no acking
    /// consumer this is 0 and `answers` is the full history.
    pub answers_released: u64,
    /// Retained per-slide answers (one `Vec` per flush: 0/1 entries for
    /// single-region detectors, up to k for top-k), covering flush seqs
    /// `answers_released..answers_released + answers.len()`.
    pub answers: Vec<Vec<RegionAnswer>>,
}

pub(crate) fn inv(msg: impl std::fmt::Display) -> IoError {
    IoError::Invariant(msg.to_string())
}

/// Encoded size of a [`RectState`]: id, rectangle, weight, kind, level.
const RECT_STATE_BYTES: usize = 8 + 32 + 8 + 1 + 4;
/// Encoded size of a resident object: id, weight, position, timestamp.
const OBJECT_BYTES: usize = 8 + 8 + 16 + 8;
/// The smallest encoded cell row: its id plus four empty column counts.
const CELL_MIN_BYTES: usize = 16 + 4 * 8;
/// The smallest encoded per-level entry of a cell row: a `us` value and a
/// one-byte candidate (Base rows carry no `ud`).
const LEVEL_MIN_BYTES: usize = 8 + 1;

/// A capacity hint for `n` records of at least `min_bytes` each: never more
/// than the rest of the payload can hold, so a corrupt count cannot
/// reserve memory the payload does not back.
pub(crate) fn capacity_hint(r: &PayloadReader<'_>, n: u64, min_bytes: usize) -> usize {
    n.min((r.remaining() / min_bytes) as u64) as usize
}

/// Errors unless `key` lies strictly above the previous one, then records
/// it: the canonical order every capture writes. Restore would otherwise
/// accept a reordered or duplicated entry and silently rebuild a different
/// state — a cell's sweep overwrites a repeated rectangle id in place.
fn ascending<K: PartialOrd + Copy + std::fmt::Debug>(
    last: &mut Option<K>,
    key: K,
    what: &str,
) -> Result<(), IoError> {
    if let Some(prev) = *last {
        if prev >= key {
            return Err(inv(format!(
                "{what} {key:?} out of order: not strictly above {prev:?}"
            )));
        }
    }
    *last = Some(key);
    Ok(())
}

// --- scalar helpers -------------------------------------------------------

pub(crate) fn put_rect(w: &mut PayloadWriter, r: &Rect) {
    w.f64(r.x0);
    w.f64(r.y0);
    w.f64(r.x1);
    w.f64(r.y1);
}

pub(crate) fn get_rect(r: &mut PayloadReader<'_>, what: &str) -> Result<Rect, IoError> {
    let x0 = r.f64(what)?;
    let y0 = r.f64(what)?;
    let x1 = r.f64(what)?;
    let y1 = r.f64(what)?;
    if x1 < x0 || y1 < y0 || x0.is_nan() || y0.is_nan() || x1.is_nan() || y1.is_nan() {
        return Err(inv(format!("{what}: malformed rectangle")));
    }
    Ok(Rect { x0, y0, x1, y1 })
}

pub(crate) fn put_object(w: &mut PayloadWriter, o: &SpatialObject) {
    w.u64(o.id);
    w.f64(o.weight);
    w.f64(o.pos.x);
    w.f64(o.pos.y);
    w.u64(o.created);
}

pub(crate) fn get_object(r: &mut PayloadReader<'_>, what: &str) -> Result<SpatialObject, IoError> {
    let id = r.u64(what)?;
    let weight = r.f64(what)?;
    let x = r.f64(what)?;
    let y = r.f64(what)?;
    let created = r.u64(what)?;
    if !(weight >= 0.0 && weight.is_finite() && x.is_finite() && y.is_finite()) {
        return Err(inv(format!("{what}: malformed object {id}")));
    }
    Ok(SpatialObject::new(id, weight, Point::new(x, y), created))
}

pub(crate) fn put_windows(w: &mut PayloadWriter, cfg: &WindowConfig) {
    w.u64(cfg.current_len);
    w.u64(cfg.past_len);
}

pub(crate) fn get_windows(r: &mut PayloadReader<'_>, what: &str) -> Result<WindowConfig, IoError> {
    let current = r.u64(what)?;
    let past = r.u64(what)?;
    if current == 0 {
        return Err(inv(format!(
            "{what}: current window length must be positive"
        )));
    }
    Ok(WindowConfig::new(current, past))
}

fn kind_code(kind: WindowKind) -> u8 {
    match kind {
        WindowKind::Current => 0,
        WindowKind::Past => 1,
    }
}

fn code_kind(code: u8) -> Result<WindowKind, IoError> {
    match code {
        0 => Ok(WindowKind::Current),
        1 => Ok(WindowKind::Past),
        other => Err(inv(format!("unknown window-kind code {other}"))),
    }
}

// --- sections -------------------------------------------------------------

fn put_meta(w: &mut PayloadWriter, m: &CheckpointMeta) {
    w.u64(m.objects_ingested);
    w.u64(m.slides_done);
    w.u64(m.slide_objects);
    w.u64(m.snapshot_seq);
}

fn decode_meta(buf: &[u8]) -> Result<CheckpointMeta, IoError> {
    let mut r = PayloadReader::new(buf);
    let m = CheckpointMeta {
        objects_ingested: r.u64("meta.objects_ingested")?,
        slides_done: r.u64("meta.slides_done")?,
        slide_objects: r.u64("meta.slide_objects")?,
        snapshot_seq: r.u64("meta.snapshot_seq")?,
    };
    if m.slide_objects == 0 {
        return Err(inv("meta: slide_objects must be positive"));
    }
    r.expect_exhausted("meta")?;
    Ok(m)
}

pub(crate) fn put_spec(w: &mut PayloadWriter, query: &SurgeQuery, spec: &DetectorSpec) {
    put_rect(w, &query.area);
    w.f64(query.region.width);
    w.f64(query.region.height);
    put_windows(w, &query.windows);
    w.f64(query.alpha);
    match spec {
        DetectorSpec::Cell {
            bound,
            sweep,
            shards,
        } => {
            w.u8(0);
            w.u8(match bound {
                BoundMode::Combined => 0,
                BoundMode::StaticOnly => 1,
            });
            w.u8(match sweep {
                SweepMode::Persistent => 0,
                SweepMode::Rebuild => 1,
            });
            w.u64(*shards as u64);
        }
        DetectorSpec::Base { pruned } => {
            w.u8(1);
            w.u8(u8::from(*pruned));
        }
        DetectorSpec::TopK { k } => {
            w.u8(2);
            w.u64(*k as u64);
        }
        DetectorSpec::Gaps { shards } => {
            w.u8(3);
            w.u64(*shards as u64);
        }
        DetectorSpec::Mgaps { shards } => {
            w.u8(4);
            w.u64(*shards as u64);
        }
        DetectorSpec::Serve => w.u8(6),
    }
}

pub(crate) fn decode_spec(buf: &[u8]) -> Result<(SurgeQuery, DetectorSpec), IoError> {
    let mut r = PayloadReader::new(buf);
    let out = get_spec(&mut r)?;
    r.expect_exhausted("spec")?;
    Ok(out)
}

pub(crate) fn get_spec(r: &mut PayloadReader<'_>) -> Result<(SurgeQuery, DetectorSpec), IoError> {
    let area = get_rect(r, "spec.area")?;
    let width = r.f64("spec.region.width")?;
    let height = r.f64("spec.region.height")?;
    if !(width > 0.0 && width.is_finite() && height > 0.0 && height.is_finite()) {
        return Err(inv("spec: region extents must be positive and finite"));
    }
    let windows = get_windows(r, "spec.windows")?;
    let alpha = r.f64("spec.alpha")?;
    if !(0.0..1.0).contains(&alpha) {
        return Err(inv(format!("spec: alpha {alpha} outside [0, 1)")));
    }
    let query = SurgeQuery::new(
        area,
        surge_core::RegionSize::new(width, height),
        windows,
        alpha,
    );
    let spec = match r.u8("spec.kind")? {
        0 => DetectorSpec::Cell {
            bound: match r.u8("spec.bound")? {
                0 => BoundMode::Combined,
                1 => BoundMode::StaticOnly,
                other => return Err(inv(format!("unknown bound-mode code {other}"))),
            },
            sweep: match r.u8("spec.sweep")? {
                0 => SweepMode::Persistent,
                1 => SweepMode::Rebuild,
                other => return Err(inv(format!("unknown sweep-mode code {other}"))),
            },
            shards: r.u64("spec.shards")? as usize,
        },
        1 => DetectorSpec::Base {
            pruned: r.u8("spec.pruned")? != 0,
        },
        2 => DetectorSpec::TopK {
            k: r.u64("spec.k")? as usize,
        },
        3 => DetectorSpec::Gaps {
            shards: r.u64("spec.shards")? as usize,
        },
        4 => DetectorSpec::Mgaps {
            shards: r.u64("spec.shards")? as usize,
        },
        6 => DetectorSpec::Serve,
        other => return Err(inv(format!("unknown detector-spec code {other}"))),
    };
    if let Some(why) = spec.parameter_error() {
        return Err(inv(format!("spec: {why}")));
    }
    Ok((query, spec))
}

pub(crate) fn put_engine(w: &mut PayloadWriter, e: &EngineState) {
    put_windows(w, &e.windows);
    w.u64(e.now);
    w.u64(e.last_created);
    w.u8(u8::from(e.started));
    for objs in [&e.current, &e.past] {
        w.u64(objs.len() as u64);
        for o in objs {
            put_object(w, o);
        }
    }
}

pub(crate) fn decode_engine(buf: &[u8]) -> Result<EngineState, IoError> {
    let mut r = PayloadReader::new(buf);
    let engine = get_engine(&mut r)?;
    r.expect_exhausted("engine")?;
    Ok(engine)
}

pub(crate) fn get_engine(r: &mut PayloadReader<'_>) -> Result<EngineState, IoError> {
    let windows = get_windows(r, "engine.windows")?;
    let now = r.u64("engine.now")?;
    let last_created = r.u64("engine.last_created")?;
    let started = r.u8("engine.started")? != 0;
    let mut lists = Vec::with_capacity(2);
    for what in ["engine.current", "engine.past"] {
        let n = r.u64(what)?;
        let mut objs = Vec::with_capacity(capacity_hint(r, n, OBJECT_BYTES));
        for _ in 0..n {
            objs.push(get_object(r, what)?);
        }
        lists.push(objs);
    }
    let past = lists.pop().expect("two lists");
    let current = lists.pop().expect("two lists");
    Ok(EngineState {
        windows,
        now,
        last_created,
        started,
        current,
        past,
    })
}

fn put_rect_state(w: &mut PayloadWriter, r: &RectState) {
    w.u64(r.id);
    put_rect(w, &r.rect);
    w.f64(r.weight);
    w.u8(kind_code(r.kind));
    w.u32(r.level);
}

fn get_rect_state(r: &mut PayloadReader<'_>, what: &str) -> Result<RectState, IoError> {
    Ok(RectState {
        id: r.u64(what)?,
        rect: get_rect(r, what)?,
        weight: r.f64(what)?,
        kind: code_kind(r.u8(what)?)?,
        level: r.u32(what)?,
    })
}

fn put_cand(w: &mut PayloadWriter, c: &CandidateState) {
    match c {
        CandidateState::Stale => w.u8(0),
        CandidateState::Valid { point, wc, wp } => {
            w.u8(1);
            w.f64(point.x);
            w.f64(point.y);
            w.f64(*wc);
            w.f64(*wp);
        }
        CandidateState::Infeasible => w.u8(2),
        CandidateState::Absent => w.u8(3),
    }
}

fn get_cand(r: &mut PayloadReader<'_>, what: &str) -> Result<CandidateState, IoError> {
    match r.u8(what)? {
        0 => Ok(CandidateState::Stale),
        1 => Ok(CandidateState::Valid {
            point: Point::new(r.f64(what)?, r.f64(what)?),
            wc: r.f64(what)?,
            wp: r.f64(what)?,
        }),
        2 => Ok(CandidateState::Infeasible),
        3 => Ok(CandidateState::Absent),
        other => Err(inv(format!("{what}: unknown candidate code {other}"))),
    }
}

pub(crate) fn put_detector(w: &mut PayloadWriter, d: &DetectorState) {
    w.str(&d.name);
    w.u32(d.levels);
    w.u64(d.stats.events);
    w.u64(d.stats.new_events);
    w.u64(d.stats.searches);
    w.u64(d.stats.events_triggering_search);
    w.u64(d.rects.len() as u64);
    for r in &d.rects {
        put_rect_state(w, r);
    }
    w.u64(d.cells.len() as u64);
    for c in d.cells.iter() {
        w.i64(c.id.0);
        w.i64(c.id.1);
        w.u64(c.rects.len() as u64);
        for r in c.rects {
            put_rect_state(w, r);
        }
        for floats in [c.us, c.ud] {
            w.u64(floats.len() as u64);
            for &f in floats.iter() {
                w.f64(f);
            }
        }
        w.u64(c.cand.len() as u64);
        for cand in c.cand {
            put_cand(w, cand);
        }
    }
    w.u64(d.incumbents.len() as u64);
    for inc in &d.incumbents {
        match inc {
            Some((p, s)) => {
                w.u8(1);
                w.f64(p.x);
                w.f64(p.y);
                w.f64(*s);
            }
            None => w.u8(0),
        }
    }
    w.u64(d.grid_cells.len() as u64);
    for g in &d.grid_cells {
        w.u32(g.grid);
        w.i64(g.id.0);
        w.i64(g.id.1);
        w.f64(g.wc);
        w.f64(g.wp);
        w.u32(g.count);
    }
}

pub(crate) fn decode_detector(buf: &[u8]) -> Result<DetectorState, IoError> {
    let mut r = PayloadReader::new(buf);
    let detector = get_detector(&mut r)?;
    r.expect_exhausted("detector")?;
    Ok(detector)
}

/// Decodes the cell rows straight into one [`CellTable`], sized up front
/// from the payload so the decode allocates a fixed number of buffers
/// whatever the cell count. Rejects rows out of ascending cell-id order
/// and rectangles out of ascending object-id order within a row.
fn get_cells(r: &mut PayloadReader<'_>, levels: u32) -> Result<CellTable, IoError> {
    let n_cells = r.u64("detector.cells")?;
    let cells_hint = capacity_hint(r, n_cells, CELL_MIN_BYTES);
    let levels_hint = (levels as usize).min(r.remaining() / LEVEL_MIN_BYTES / cells_hint.max(1));
    // What the rows' fixed parts leave over bounds the rectangles.
    let rects_hint = match cells_hint {
        0 => 0,
        _ => {
            r.remaining()
                .saturating_sub(cells_hint * (CELL_MIN_BYTES + levels_hint * LEVEL_MIN_BYTES))
                / RECT_STATE_BYTES
        }
    };
    let mut cells = CellTable::with_capacity(cells_hint, rects_hint, levels_hint);
    let mut last_cell = None;
    for _ in 0..n_cells {
        let id = (r.i64("cell.id")?, r.i64("cell.id")?);
        ascending(&mut last_cell, id, "cell")?;
        let mut last_rect = None;
        for _ in 0..r.u64("cell.rects")? {
            let rect = get_rect_state(r, "cell.rect")?;
            ascending(&mut last_rect, rect.id, "cell rect")?;
            cells.push_rect(rect);
        }
        for _ in 0..r.u64("cell.us")? {
            cells.push_us(r.f64("cell.us")?);
        }
        for _ in 0..r.u64("cell.ud")? {
            cells.push_ud(r.f64("cell.ud")?);
        }
        for _ in 0..r.u64("cell.cand")? {
            cells.push_cand(get_cand(r, "cell.cand")?);
        }
        cells.end_cell(id);
    }
    Ok(cells)
}

pub(crate) fn get_detector(r: &mut PayloadReader<'_>) -> Result<DetectorState, IoError> {
    let name = r.str("detector.name")?;
    let levels = r.u32("detector.levels")?;
    let stats = DetectorStats {
        events: r.u64("detector.stats")?,
        new_events: r.u64("detector.stats")?,
        searches: r.u64("detector.stats")?,
        events_triggering_search: r.u64("detector.stats")?,
    };
    let n_rects = r.u64("detector.rects")?;
    let mut rects = Vec::with_capacity(capacity_hint(r, n_rects, RECT_STATE_BYTES));
    let mut last_rect = None;
    for _ in 0..n_rects {
        let rect = get_rect_state(r, "detector.rect")?;
        ascending(&mut last_rect, rect.id, "detector rect")?;
        rects.push(rect);
    }
    let cells = get_cells(r, levels)?;
    let n_inc = r.u64("detector.incumbents")?;
    let mut incumbents = Vec::with_capacity(capacity_hint(r, n_inc, 1));
    for _ in 0..n_inc {
        incumbents.push(match r.u8("incumbent")? {
            0 => None,
            1 => Some((
                Point::new(r.f64("incumbent")?, r.f64("incumbent")?),
                r.f64("incumbent")?,
            )),
            other => return Err(inv(format!("bad incumbent flag {other}"))),
        });
    }
    let n_grid = r.u64("detector.grid_cells")?;
    let mut grid_cells = Vec::with_capacity(capacity_hint(r, n_grid, 4 + 16 + 8 + 8 + 4));
    let mut last_grid_cell = None;
    for _ in 0..n_grid {
        let grid = r.u32("grid_cell.grid")?;
        let id = (r.i64("grid_cell.id")?, r.i64("grid_cell.id")?);
        ascending(&mut last_grid_cell, (grid, id), "grid cell")?;
        let wc = r.f64("grid_cell.wc")?;
        let wp = r.f64("grid_cell.wp")?;
        let count = r.u32("grid_cell.count")?;
        if !(wc.is_finite() && wp.is_finite()) {
            return Err(inv(format!("grid cell {id:?}: non-finite weights")));
        }
        if count == 0 {
            return Err(inv(format!("grid cell {id:?}: zero resident count")));
        }
        grid_cells.push(GridCellState {
            grid,
            id,
            wc,
            wp,
            count,
        });
    }
    Ok(DetectorState {
        name,
        levels,
        cells,
        rects,
        incumbents,
        grid_cells,
        stats,
    })
}

pub(crate) fn put_answers(w: &mut PayloadWriter, released: u64, answers: &[Vec<RegionAnswer>]) {
    w.u64(released);
    w.u64(answers.len() as u64);
    for flush in answers {
        w.u64(flush.len() as u64);
        for a in flush {
            w.f64(a.point.x);
            w.f64(a.point.y);
            w.f64(a.score);
        }
    }
}

pub(crate) fn decode_answers(
    buf: &[u8],
    query: &SurgeQuery,
) -> Result<(u64, Vec<Vec<RegionAnswer>>), IoError> {
    let mut r = PayloadReader::new(buf);
    let out = get_answers(&mut r, query)?;
    r.expect_exhausted("answers")?;
    Ok(out)
}

pub(crate) fn get_answers(
    r: &mut PayloadReader<'_>,
    query: &SurgeQuery,
) -> Result<(u64, Vec<Vec<RegionAnswer>>), IoError> {
    let released = r.u64("answers.released")?;
    let n = r.u64("answers")?;
    let mut answers = Vec::with_capacity(capacity_hint(r, n, 8));
    for _ in 0..n {
        let m = r.u64("answers.flush")?;
        let mut flush = Vec::with_capacity(capacity_hint(r, m, 24));
        for _ in 0..m {
            let p = Point::new(r.f64("answer")?, r.f64("answer")?);
            let score = r.f64("answer")?;
            // Every driver reports `RegionAnswer::from_point` answers, so
            // the region reconstructs bit-exactly from the point.
            flush.push(RegionAnswer::from_point(p, query.region, score));
        }
        answers.push(flush);
    }
    Ok((released, answers))
}

impl CheckpointState {
    /// Hands each section's tag and payload encoder to `section`, in file
    /// order — the one definition of the layout both encoders share.
    fn for_each_section(&self, mut section: impl FnMut(u32, &dyn Fn(&mut PayloadWriter))) {
        section(tags::META, &|w| put_meta(w, &self.meta));
        section(tags::SPEC, &|w| put_spec(w, &self.query, &self.spec));
        section(tags::ENGINE, &|w| put_engine(w, &self.engine));
        section(tags::DETECTOR, &|w| put_detector(w, &self.detector));
        section(tags::ANSWERS, &|w| {
            put_answers(w, self.answers_released, &self.answers)
        });
    }

    /// Serializes into the snapshot section container.
    pub fn to_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        self.for_each_section(|tag, put| {
            let mut w = PayloadWriter::new();
            put(&mut w);
            s.push_section(tag, w.finish());
        });
        s
    }

    /// Encodes the snapshot file straight into `buf` (cleared first, its
    /// capacity kept): the bytes of `self.to_snapshot().encode()` without
    /// the per-section copies. The checkpoint writer reuses one buffer
    /// across snapshots this way.
    pub fn encode_into(&self, buf: Vec<u8>) -> Vec<u8> {
        let mut w = SectionWriter::new(buf);
        self.for_each_section(|tag, put| w.section(tag, put));
        w.finish()
    }

    /// Decodes from a snapshot container, validating every section.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, IoError> {
        let section = |tag: u32, name: &str| {
            snap.section(tag)
                .ok_or_else(|| inv(format!("snapshot is missing the {name} section")))
        };
        let meta = decode_meta(section(tags::META, "META")?)?;
        let (query, spec) = decode_spec(section(tags::SPEC, "SPEC")?)?;
        let engine = decode_engine(section(tags::ENGINE, "ENGINE")?)?;
        let detector = decode_detector(section(tags::DETECTOR, "DETECTOR")?)?;
        let (answers_released, answers) =
            decode_answers(section(tags::ANSWERS, "ANSWERS")?, &query)?;
        Ok(CheckpointState {
            meta,
            spec,
            query,
            engine,
            detector,
            answers_released,
            answers,
        })
    }
}
