//! Harness-side tracing: spans recorded *by the benchmark* around each call
//! into a layer. Nothing inside the program is instrumented.
//!
//! A span has a name (`<layer>.<call>`), a start and end on the run's clock,
//! the span that was open when it began (its parent), and the refresh it
//! belongs to. Spans are kept in memory and written to
//! `bench/out/trace-<workload>.json` when the run ends, beside per-name
//! aggregates; a layer's *self* time is its spans' duration minus the part
//! their child spans cover.
//!
//! The recorder can be switched off between blocks of a replay. The staged
//! loops alternate traced and untraced blocks, so the tracing overhead is
//! measured inside one continuous replay instead of across two.

use std::path::Path;
use std::time::Instant;

/// At most this many individual spans are kept for the trace file; beyond
/// it spans still feed the aggregates.
const MAX_STORED_SPANS: usize = 200_000;

/// Whether timed slide-sized block `index` of a replay is traced. About half
/// are, in an irregular pattern, so that nothing periodic in the program (a
/// snapshot every 16 slides, say) lands on one side only; the tracing
/// overhead is the difference between the two kinds of block.
pub fn traced_block(index: usize) -> bool {
    (index as u64 ^ 0x5bd1_e995).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0
}

/// Index of a registered span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(u16);

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: u16,
    /// Index of the parent span among the stored spans, or `u32::MAX`.
    parent: u32,
    refresh: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    /// Time covered by child spans.
    child_ns: u64,
}

impl Agg {
    fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }
}

#[derive(Debug)]
struct Open {
    name: u16,
    start_ns: u64,
    child_ns: u64,
    stored: u32,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    stack: Vec<Open>,
    spans: Vec<SpanRec>,
    refresh: u32,
    /// Clock reading when recording was last switched on.
    on_since: u64,
    /// Total time recording has been on: the wall-clock the spans explain.
    on_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            on: false,
            names: Vec::new(),
            aggs: Vec::new(),
            stack: Vec::new(),
            spans: Vec::new(),
            refresh: 0,
            on_since: 0,
            on_ns: 0,
        }
    }
}

impl Tracer {
    /// Registers a span name (`<layer>.<call>`).
    pub fn name(&mut self, name: &'static str) -> NameId {
        assert!(name.contains('.'), "span names are <layer>.<call>");
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return NameId(i as u16);
        }
        self.names.push(name);
        self.aggs.push(Agg::default());
        NameId((self.names.len() - 1) as u16)
    }

    /// Switches recording on or off. Only legal between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "cannot toggle tracing inside a span");
        let now = self.origin.elapsed().as_nanos() as u64;
        match (self.on, on) {
            (false, true) => self.on_since = now,
            (true, false) => self.on_ns += now - self.on_since,
            _ => {}
        }
        self.on = on;
    }

    /// Wall-clock spent with recording on (switch recording off first).
    pub fn on_ns(&self) -> u64 {
        assert!(!self.on, "switch tracing off before reading its wall-clock");
        self.on_ns
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The run clock, read once so adjacent spans can share a boundary.
    /// Costs nothing while recording is off.
    #[inline]
    pub fn tick(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Spans opened from now on belong to the next refresh.
    #[inline]
    pub fn next_refresh(&mut self) {
        self.refresh += 1;
    }

    /// Opens a span at clock reading `at`.
    #[inline]
    pub fn enter_at(&mut self, name: NameId, at: u64) {
        if !self.on {
            return;
        }
        let stored = if self.spans.len() < MAX_STORED_SPANS {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.stored);
            self.spans.push(SpanRec {
                name: name.0,
                parent,
                refresh: self.refresh,
                start_ns: at,
                dur_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.stack.push(Open {
            name: name.0,
            start_ns: at,
            child_ns: 0,
            stored,
        });
    }

    /// Closes the innermost open span at clock reading `at`.
    #[inline]
    pub fn exit_at(&mut self, at: u64) {
        if !self.on {
            return;
        }
        let open = self.stack.pop().expect("exit without enter");
        let dur = at - open.start_ns;
        let agg = &mut self.aggs[open.name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.child_ns += open.child_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.stored != u32::MAX {
            self.spans[open.stored as usize].dur_ns = dur;
        }
    }

    /// Closes the innermost span and opens `name` at the same clock reading.
    #[inline]
    pub fn then(&mut self, name: NameId) -> u64 {
        let at = self.tick();
        self.exit_at(at);
        self.enter_at(name, at);
        at
    }

    /// Aggregates of the spans `prefix` selects: one span name
    /// (`mesh.flush`), a whole layer (`mesh`), or — with the empty prefix —
    /// every layer, i.e. everything but the `refresh` roots.
    fn select<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a Agg> {
        self.names
            .iter()
            .zip(&self.aggs)
            .filter(move |(name, _)| {
                if prefix.is_empty() {
                    !name.starts_with("refresh.")
                } else {
                    **name == prefix
                        || name
                            .strip_prefix(prefix)
                            .is_some_and(|rest| rest.starts_with('.'))
                }
            })
            .map(|(_, agg)| agg)
    }

    /// Summed duration of the selected spans (see [`select`](Self::select)).
    pub fn total_ns(&self, prefix: &str) -> u64 {
        self.select(prefix).map(|a| a.total_ns).sum()
    }

    /// Summed self time — duration minus child spans — of the selected spans.
    pub fn self_ns(&self, prefix: &str) -> u64 {
        self.select(prefix).map(Agg::self_ns).sum()
    }

    /// How many of the selected spans were recorded.
    pub fn count(&self, prefix: &str) -> u64 {
        self.select(prefix).map(|a| a.count).sum()
    }

    /// Writes the aggregates, counts and stored spans as JSON.
    pub fn write(&self, path: &Path, workload: &str, counts: &[(&str, f64)]) -> Result<(), String> {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "{{\n\"workload\": \"{workload}\",\n\"names\": [");
        for (i, (name, agg)) in self.names.iter().zip(&self.aggs).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n  {{\"id\": {i}, \"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                agg.count,
                agg.total_ns,
                agg.self_ns()
            );
        }
        let _ = write!(s, "\n],\n\"counts\": {{");
        for (i, (name, value)) in counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {value}");
        }
        let _ = write!(
            s,
            "}},\n\"spans_dropped_beyond\": {MAX_STORED_SPANS},\n\
             \"span_columns\": [\"name_id\", \"start_ns\", \"dur_ns\", \"parent_span\", \"refresh\"],\n\
             \"spans\": ["
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if sp.parent == u32::MAX {
                -1
            } else {
                sp.parent as i64
            };
            let _ = write!(
                s,
                "{sep}\n[{},{},{},{parent},{}]",
                sp.name, sp.start_ns, sp.dur_ns, sp.refresh
            );
        }
        s.push_str("\n]\n}\n");
        std::fs::write(path, s).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::default();
        let root = t.name("refresh.slide");
        let a = t.name("window.push_into");
        let b = t.name("cell.on_event");
        t.set_on(true);
        t.enter_at(root, 100);
        t.enter_at(a, 100);
        t.exit_at(130);
        t.enter_at(b, 130);
        t.exit_at(190);
        t.exit_at(200);
        assert_eq!(t.total_ns("refresh.slide"), 100);
        assert_eq!(t.self_ns("refresh"), 10);
        assert_eq!(t.self_ns("window.push_into"), 30);
        assert_eq!(t.total_ns("cell"), 60);
        assert_eq!(t.count("cell"), 1);
        assert_eq!(t.self_ns(""), 90, "every layer, not the root");
        assert_eq!(t.total_ns("win"), 0, "a prefix is a whole name or layer");
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, u32::MAX);
    }

    #[test]
    fn about_half_the_blocks_are_traced_aperiodically() {
        let traced = (0..10_000).filter(|i| traced_block(*i)).count();
        assert!((4_700..5_300).contains(&traced), "{traced}");
        for period in [2usize, 4, 8, 16, 32] {
            let on_period = (0..1_000).filter(|k| traced_block(k * period)).count();
            assert!(
                (400..600).contains(&on_period),
                "period {period}: {on_period}"
            );
        }
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::default();
        let a = t.name("window.push_into");
        assert_eq!(t.tick(), 0);
        t.enter_at(a, 0);
        t.exit_at(0);
        assert_eq!(t.count("window"), 0);
        assert!(t.spans.is_empty());
    }
}
