//! # surge-testkit
//!
//! The workspace's shared differential-testing toolkit: one canonical set of
//! stream/scene/window generators and proptest strategies, extracted from
//! the per-crate test files that had been copy-pasting them since PR 1.
//!
//! The guarantee that makes every optimization in this repo trustworthy is
//! *bitwise differential testing* against a reference — flat vs recursive
//! segment trees, segtree vs naive sweeps, persistent cell state vs a
//! fresh or restored rebuild of it, sharded vs sequential drivers. The
//! implementations that exist only to be compared against live here, not
//! in the production crates:
//!
//! * [`sweep`] — [`sl_cspot_naive`], the paper's direct `O(n²)` sweep;
//! * [`segtree`] — [`MaxAddTree`], the single-form flat tree,
//!   [`RecursiveMaxAddTree`] against it and [`SplitBurstSegTree`] against
//!   the fused-lane tree of [`surge_exact::segtree`];
//! * [`maxrs`] — [`maxrs_sweep`], the α = 0 (classic MaxRS) sweep.
//!
//! Those comparisons are only as strong as their inputs, so the generators
//! here are deliberately *collision-heavy*: coordinates snap
//! to coarse lattices (shared edges, corner touches and exact overlaps are
//! common, not measure-zero), weights are small integers (exact float ties),
//! timestamps can repeat within a tick, and window configurations include
//! zero-length past windows (grow and expire coincide). A sloppy merge rule
//! or tie-break diverges on these streams within a few dozen cases.
//!
//! This is a tooling crate: the production detector crates must not depend
//! on it. Test targets reach it through dev-dependencies (cargo permits
//! dev-only cycles back to the crates it builds on), and `surge-bench` —
//! the experiment harness — uses it directly so benchmark workloads and
//! test workloads are byte-for-byte the same streams. A test comparing a
//! `surge-exact` type with a reference here belongs in this crate's unit
//! tests or in an integration test, never in a `#[cfg(test)]` module of
//! `surge-exact/src`: through the dev-only cycle that module sees a second
//! copy of `surge-exact`, whose types do not match this crate's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod maxrs;
pub mod segtree;
pub mod sweep;

pub use maxrs::maxrs_sweep;
pub use segtree::{MaxAddTree, RecursiveMaxAddTree, SplitBurstSegTree};
pub use sweep::sl_cspot_naive;

use proptest::prelude::*;
use surge_core::{Point, Rect, SpatialObject, WindowConfig, WindowKind};
use surge_exact::SweepRect;

/// The deterministic LCG every hand-rolled generator in this workspace uses
/// (Knuth's MMIX multiplier) — one implementation instead of six inlined
/// copies of the same `wrapping_mul`/`wrapping_add` pair.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// A generator seeded with `seed` (any value; 0 is fine).
    pub fn new(seed: u64) -> Self {
        Lcg { state: seed | 1 }
    }

    /// The next 31 high-quality bits.
    #[inline]
    pub fn next_bits(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 33
    }

    /// A uniform draw from `[0, 1)` (31 random bits over 2³¹); generators
    /// scale it to their own coordinate ranges.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_bits() as f64) / ((1u64 << 31) as f64)
    }
}

// ---------------------------------------------------------------------------
// Rectangle scenes (sweep-level differentials)
// ---------------------------------------------------------------------------

/// Raw tuples → rectangles on a coarse lattice: snapping coordinates to
/// multiples of 0.25 makes shared edges, corner touches and exact overlaps
/// common instead of measure-zero. `w = 0` / `h = 0` produce degenerate
/// (segment / point) rectangles.
pub fn lattice_rects(raw: Vec<(u32, u32, u32, u32, u32, bool)>) -> Vec<SweepRect> {
    raw.into_iter()
        .map(|(x, y, w, h, wt, past)| {
            let x0 = x as f64 * 0.25 - 5.0;
            let y0 = y as f64 * 0.25 - 5.0;
            let x1 = x0 + w as f64 * 0.25;
            let y1 = y0 + h as f64 * 0.25;
            SweepRect {
                rect: Rect::new(x0, y0, x1, y1),
                weight: 1.0 + wt as f64,
                kind: if past {
                    WindowKind::Past
                } else {
                    WindowKind::Current
                },
            }
        })
        .collect()
}

/// A strategy for [`lattice_rects`] scenes of 1 to `max_len − 1`
/// rectangles, mixed current/past.
pub fn arb_scene(max_len: usize) -> impl Strategy<Value = Vec<SweepRect>> {
    prop::collection::vec(
        (
            0u32..40,
            0u32..40,
            0u32..12,
            0u32..12,
            0u32..4,
            any::<bool>(),
        ),
        1..max_len,
    )
    .prop_map(lattice_rects)
}

// ---------------------------------------------------------------------------
// Object streams (driver/detector-level differentials)
// ---------------------------------------------------------------------------

/// Raw tuples → a lattice stream: snapped positions and small integer
/// weights make exact ties common; timestamps strictly increase (5 ms step
/// plus jitter) so window transitions are deterministic.
pub fn lattice_stream(raw: Vec<(u32, u32, u32, u32)>) -> Vec<SpatialObject> {
    raw.into_iter()
        .enumerate()
        .map(|(i, (x, y, w, dt))| {
            SpatialObject::new(
                i as u64,
                1.0 + (w % 4) as f64,
                Point::new(x as f64 * 0.5, y as f64 * 0.5),
                (i as u64) * 5 + (dt % 5) as u64,
            )
        })
        .collect()
}

/// A strategy for [`lattice_stream`] streams of 8 to `max_len − 1` objects.
pub fn arb_lattice_stream(max_len: usize) -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec((0u32..16, 0u32..12, 0u32..8, 0u32..8), 8..max_len)
        .prop_map(lattice_stream)
}

/// Rewrites a stream so arrivals share timestamps (`created` floored to a
/// multiple of `tick`) and carry **decreasing** ids. The result is still
/// timestamp-ordered — all the window engine asks for — so every driver
/// must accept it; none may assume ids rise with arrival order.
pub fn tie_timestamps_reverse_ids(objs: &[SpatialObject], tick: u64) -> Vec<SpatialObject> {
    let n = objs.len() as u64;
    objs.iter()
        .enumerate()
        .map(|(i, o)| {
            SpatialObject::new(n - 1 - i as u64, o.weight, o.pos, o.created / tick * tick)
        })
        .collect()
}

/// Raw tuples → a stream with **duplicate timestamps** (every `per_tick`
/// arrivals share one tick) on a coarse spatial lattice, ids in arrival
/// order — the stream shape that stresses transition-time ties.
pub fn ticked_stream(raw: Vec<(u32, u32, u32)>, per_tick: u64, tick: u64) -> Vec<SpatialObject> {
    raw.into_iter()
        .enumerate()
        .map(|(i, (x, y, w))| {
            SpatialObject::new(
                i as u64,
                1.0 + (w % 4) as f64,
                Point::new(x as f64 * 0.5, y as f64 * 0.5),
                (i as u64 / per_tick.max(1)) * tick,
            )
        })
        .collect()
}

/// Builds a timestamp-ordered stream from unordered raw `(t, weight)`
/// tuples: timestamps are sorted and zipped back, so arrival order and ids
/// stay index-ordered while the time axis is arbitrary (including repeats).
pub fn ordered_stream(raw: Vec<(u64, u16)>) -> Vec<SpatialObject> {
    let mut ts: Vec<u64> = raw.iter().map(|r| r.0).collect();
    ts.sort_unstable();
    raw.into_iter()
        .zip(ts)
        .enumerate()
        .map(|(i, ((_, w), t))| {
            SpatialObject::new(i as u64, w as f64, Point::new(i as f64, 0.0), t)
        })
        .collect()
}

/// Raw tuples → an integer-ish clustered stream with accumulated
/// inter-arrival gaps — the oracle-equivalence shape: coordinates snap to a
/// 0.1 lattice, weights are small integers, and the time axis advances by
/// 0–39 ms per arrival so every event kind fires heavily against short
/// windows.
pub fn timed_stream(raw: Vec<(u64, u64, u64, u64)>) -> Vec<SpatialObject> {
    let mut t = 0u64;
    raw.into_iter()
        .enumerate()
        .map(|(i, (x, y, w, dt))| {
            t += dt;
            SpatialObject::new(
                i as u64,
                w as f64,
                Point::new(x as f64 / 10.0, y as f64 / 10.0),
                t,
            )
        })
        .collect()
}

/// A strategy for [`timed_stream`] streams of 1 to `max_len − 1` objects.
pub fn arb_timed_stream(max_len: usize) -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec((0u64..20, 0u64..20, 1u64..5, 0u64..40), 1..max_len)
        .prop_map(timed_stream)
}

/// A deterministic stream of `n` objects spread over `clusters` spatial
/// clusters (cluster `i % clusters` at `(3i, 2i)` plus jitter), timestamps
/// `step` ms apart — keeps several cells contending so dirty-cell machinery
/// stays busy.
pub fn clustered_stream(n: usize, clusters: usize, step: u64, seed: u64) -> Vec<SpatialObject> {
    let clusters = clusters.max(1);
    let mut rng = Lcg::new(seed);
    (0..n)
        .map(|i| {
            let cluster = i % clusters;
            let cx = cluster as f64 * 3.0;
            let cy = cluster as f64 * 2.0;
            SpatialObject::new(
                i as u64,
                1.0 + (i % 4) as f64,
                Point::new(cx + rng.unit(), cy + rng.unit()),
                (i as u64) * step,
            )
        })
        .collect()
}

/// An evenly-loaded stream: pseudo-random positions over a wide area so the
/// resident rectangles spread across many similarly-sized cells — the
/// workload where shard scaling (and persistent-sweep churn locality)
/// is visible.
pub fn uniform_stream(n: usize, seed: u64) -> Vec<SpatialObject> {
    let mut rng = Lcg::new(seed);
    (0..n)
        .map(|i| {
            SpatialObject::new(
                i as u64,
                1.0 + (i % 4) as f64,
                Point::new(rng.unit() * 7.5, rng.unit() * 7.5),
                (i as u64) * 3,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Window configurations
// ---------------------------------------------------------------------------

/// A strategy over window configurations **including zero-length past
/// windows** (`|W_p| = 0`: grow and expire coincide — the tie case PR 3
/// fixed and every engine differential must keep covering).
pub fn arb_window_config(max_len: u64) -> impl Strategy<Value = WindowConfig> {
    (1u64..max_len, 0u64..max_len).prop_map(|(cur, past)| WindowConfig::new(cur, past))
}

/// A strategy over equal-length window configurations.
pub fn arb_equal_windows(max_len: u64) -> impl Strategy<Value = WindowConfig> {
    (1u64..max_len).prop_map(WindowConfig::equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;

    #[test]
    fn lattice_rects_snap_and_degenerate() {
        let rects = lattice_rects(vec![(0, 0, 0, 4, 2, true), (4, 4, 2, 0, 0, false)]);
        assert_eq!(rects.len(), 2);
        assert_eq!(rects[0].rect.x0, rects[0].rect.x1, "w=0 is a segment");
        assert_eq!(rects[0].kind, WindowKind::Past);
        assert_eq!(rects[1].weight, 1.0);
    }

    #[test]
    fn ticked_stream_repeats_timestamps() {
        let s = ticked_stream(vec![(0, 0, 0); 6], 3, 100);
        assert_eq!(s[0].created, s[2].created);
        assert_ne!(s[2].created, s[3].created);
        assert!(s.windows(2).all(|w| w[0].created <= w[1].created));
        assert!(s.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn ordered_stream_is_timestamp_ordered() {
        let s = ordered_stream(vec![(500, 2), (3, 1), (100, 9)]);
        assert!(s.windows(2).all(|w| w[0].created <= w[1].created));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn timed_stream_accumulates_gaps() {
        let s = timed_stream(vec![(0, 0, 1, 10), (1, 1, 2, 0), (2, 2, 3, 5)]);
        assert_eq!(
            s.iter().map(|o| o.created).collect::<Vec<_>>(),
            vec![10, 10, 15]
        );
    }

    #[test]
    fn deterministic_streams_are_reproducible() {
        assert_eq!(
            clustered_stream(50, 5, 7, 42),
            clustered_stream(50, 5, 7, 42)
        );
        assert_eq!(uniform_stream(50, 42), uniform_stream(50, 42));
        // Note: `Lcg` forces the low seed bit, so distinct seeds must differ
        // above bit 0 to yield distinct streams.
        assert_ne!(uniform_stream(50, 42), uniform_stream(50, 44));
    }

    #[test]
    fn window_strategy_covers_zero_length_past() {
        let mut rng = TestRng::deterministic("testkit-windows");
        let strat = arb_window_config(50);
        let mut saw_zero_past = false;
        for _ in 0..200 {
            let w = strat.new_value(&mut rng);
            assert!(w.current_len >= 1);
            saw_zero_past |= w.past_len == 0;
        }
        assert!(saw_zero_past, "zero-length past windows must be generated");
    }
}
