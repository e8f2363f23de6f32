//! Detector traits implemented by every SURGE algorithm.

use crate::event::Event;
use crate::geom::Point;
use crate::grid::CellId;
use crate::ordered::TotalF64;
use crate::query::{RegionAnswer, RegionSize};

/// Counters exposed by detectors for the paper's instrumentation (Table II
/// reports the fraction of rectangle events that trigger a cell search).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Number of events processed.
    pub events: u64,
    /// Number of `New` events processed (rectangle messages in Table II).
    pub new_events: u64,
    /// Number of times an inner exhaustive search (SL-CSPOT or equivalent)
    /// was invoked.
    pub searches: u64,
    /// Number of events whose processing invoked at least one inner search.
    pub events_triggering_search: u64,
}

impl DetectorStats {
    /// Fraction of events that triggered at least one search, in `[0, 1]`.
    pub fn trigger_ratio(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.events_triggering_search as f64 / self.events as f64
        }
    }
}

/// A continuous single-region bursty detector.
///
/// Implementations ingest the shared `New`/`Grown`/`Expired` event stream and
/// can report the current bursty region at any time. `current` is expected to
/// be cheap relative to `on_event` for the exact detectors (the answer is
/// maintained incrementally), and O(log n) for the heap-backed approximate
/// detectors.
pub trait BurstDetector {
    /// Processes one window-transition event.
    fn on_event(&mut self, event: &Event);

    /// The current bursty region, or `None` when both windows are empty of
    /// in-area objects.
    fn current(&mut self) -> Option<RegionAnswer>;

    /// A short human-readable algorithm name (e.g. `"CCS"`).
    fn name(&self) -> &'static str;

    /// Instrumentation counters.
    fn stats(&self) -> DetectorStats {
        DetectorStats::default()
    }
}

/// Legacy sweep-reuse counters. No detector caches sweep results or replays
/// sweep plans any more, so every field is always zero; delete in the next
/// benchmark PR (the benchmark harness still reads them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCacheStats {
    /// Always zero.
    pub epoch_hits: u64,
    /// Always zero.
    pub epoch_misses: u64,
    /// Always zero.
    pub plan_builds: u64,
    /// Always zero.
    pub plan_reuses: u64,
}

/// A [`BurstDetector`] whose per-cell maintenance is *incremental*: events
/// only mark the touched cells dirty, and the expensive per-cell searches
/// are deferred to [`sweep_dirty`](Self::sweep_dirty), which a slide-batched
/// driver calls once per flush instead of letting
/// [`BurstDetector::current`] search stale cells lazily one by one.
///
/// Sweeping must produce state identical to letting `current()` run the
/// searches itself.
pub trait IncrementalDetector: BurstDetector {
    /// Sweeps every dirty cell **in place** and returns the number of cells
    /// swept. After it returns, [`BurstDetector::current`] finds every cell
    /// fresh.
    ///
    /// `threads` is ignored: sequential; the parallel path is
    /// `drive_elastic`; delete in the next benchmark PR (the benchmark
    /// harness still passes it).
    fn sweep_dirty(&mut self, threads: usize) -> u64;

    /// Legacy [`SweepCacheStats`]: always zero; delete in the next benchmark
    /// PR (the benchmark harness still reads it).
    fn sweep_cache_stats(&self) -> SweepCacheStats {
        SweepCacheStats::default()
    }
}

/// The best candidate one shard reports at a flush boundary, carrying the
/// tie-break keys needed to merge shard answers into *exactly* the answer
/// the unsharded detector's own scan would produce.
///
/// The sequential best-first scan visits cells in descending
/// `(bound, cell)` order and replaces its incumbent only on strictly greater
/// score, so the global winner is the maximum under the lexicographic
/// `(score, bound, cell)` order — which is [`merge_key`](Self::merge_key).
/// Shard answers merged by `merge_key` are therefore bit-identical to the
/// sequential answer, independent of shard count and thread scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardAnswer {
    /// The bursty point of the winning cell's candidate.
    pub point: Point,
    /// The candidate's burst score.
    pub score: f64,
    /// The queue key (upper bound) of the winning cell — sequential
    /// tie-break 1.
    pub bound: f64,
    /// The winning cell — sequential tie-break 2.
    pub cell: CellId,
}

impl ShardAnswer {
    /// Total-order key for merging shard answers: maximize score, then
    /// bound, then cell id.
    #[inline]
    pub fn merge_key(&self) -> (TotalF64, TotalF64, CellId) {
        (TotalF64(self.score), TotalF64(self.bound), self.cell)
    }

    /// Converts the winning point into the continuous-query answer.
    #[inline]
    pub fn answer(&self, region: RegionSize) -> RegionAnswer {
        RegionAnswer::from_point(self.point, region, self.score)
    }
}

/// Counters a [`MeshWorker`] accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardWorkerStats {
    /// Cell updates this shard applied (an event touching k cells of the
    /// shard counts k).
    pub cell_touches: u64,
    /// SL-CSPOT sweeps this shard ran across all flushes.
    pub sweeps: u64,
}

/// Aggregate counters of one mesh run, folded back into the detector's
/// [`DetectorStats`] by [`MeshIngest::absorb_shard_run`] (shard workers
/// cannot touch the shared stats while they hold the shard borrows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Events broadcast to the shard workers.
    pub events: u64,
    /// `New` events among them.
    pub new_events: u64,
    /// Total sweeps across all shards and flushes.
    pub searches: u64,
}

/// What one shard reports for one mesh flush.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardFlush {
    /// Dirty cells the shard held when the flush began — all of them swept
    /// by it. The driver's per-shard sweep tally.
    pub dirty: u64,
    /// The shard's best candidate with every cell fresh (`None` when the
    /// shard holds no scoring cell).
    pub best: Option<ShardAnswer>,
}

/// One shard's exclusive ingest handle: applies the event stream to its own
/// cells and sweeps them at slide boundaries. Obtained from
/// [`MeshIngest::ingest_workers`]; the handles borrow the detector's shards
/// disjointly, so each can live on its own thread for the duration of a
/// mesh run. A dirty cell is always swept by the shard that owns it.
pub trait MeshWorker {
    /// Applies one event to the cells of this shard (cells owned by other
    /// shards are skipped). Every worker must see every event, in stream
    /// order.
    fn on_event(&mut self, event: &Event);

    /// Sweeps every dirty cell of this shard in place, counting each in
    /// this worker's `sweeps`, and reports how many there were plus the
    /// shard's best candidate. Afterwards every cell in the shard is fresh.
    fn flush(&mut self) -> ShardFlush;

    /// This worker's lifetime counters.
    fn stats(&self) -> ShardWorkerStats;
}

/// A detector whose ingest fans out across a mesh of per-shard workers.
///
/// Workers partition the cell state by [`crate::store::shard_of_cell`],
/// every worker observes the full event stream in order (applying only its
/// own cells), and flush answers merged by [`ShardAnswer::merge_key`] are
/// bit-identical to the sequential detector's answer at the same stream
/// position — for any shard count. The mesh runs at the detector's own
/// shard count for the whole run. `CellCspot` is the one production
/// implementation: the approximate detectors keep every cell fresh per
/// event in O(log n), so a mesh would have nothing to spread.
pub trait MeshIngest: BurstDetector {
    /// The per-shard handle type (borrows the detector mutably).
    type Worker<'a>: MeshWorker + Send
    where
        Self: 'a;

    /// Splits the detector into one ingest worker per shard; the length is
    /// the mesh's width.
    fn ingest_workers(&mut self) -> Vec<Self::Worker<'_>>;

    /// Folds a completed mesh run's counters back into
    /// [`BurstDetector::stats`].
    fn absorb_shard_run(&mut self, run: ShardRunStats);

    /// The query-region size (needed to turn merged [`ShardAnswer`]s into
    /// [`RegionAnswer`]s while the workers still borrow the detector).
    fn region_size(&self) -> RegionSize;
}

/// A continuous top-k bursty-region detector (paper §VI).
pub trait TopKDetector {
    /// Processes one window-transition event.
    fn on_event(&mut self, event: &Event);

    /// The current top-k bursty regions, best first. May return fewer than
    /// `k` answers when the windows hold fewer occupied regions.
    fn current_topk(&mut self) -> Vec<RegionAnswer>;

    /// The configured `k`.
    fn k(&self) -> usize;

    /// A short human-readable algorithm name (e.g. `"kCCS"`).
    fn name(&self) -> &'static str;

    /// Instrumentation counters.
    fn stats(&self) -> DetectorStats {
        DetectorStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_ratio_empty_is_zero() {
        assert_eq!(DetectorStats::default().trigger_ratio(), 0.0);
    }

    #[test]
    fn trigger_ratio_counts_events() {
        let s = DetectorStats {
            events: 200,
            new_events: 100,
            searches: 30,
            events_triggering_search: 10,
        };
        assert!((s.trigger_ratio() - 0.05).abs() < 1e-12);
    }
}
