//! Small statistics helpers: percentiles with a sample-count guard, the
//! segment splitter, and the FNV-1a answer digest.

use std::ops::Range;

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (`0 < p < 100`, nearest rank) of `sorted`, refused
/// when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it: a tail
/// percentile resting on a handful of samples is noise, not a measurement.
pub fn percentile(sorted: &[u32], p: f64) -> Result<u32, String> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize; // 1-based
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{p} of {n} samples leaves {beyond} beyond it; need {MIN_SAMPLES_BEYOND}"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Splits `range` into `k` contiguous segments whose lengths differ by at
/// most one, covering every index exactly once.
///
/// # Panics
///
/// Panics if `k` is 0 or the range holds fewer than `k` items.
pub fn split_segments(range: Range<usize>, k: usize) -> Vec<Range<usize>> {
    let len = range.end - range.start;
    assert!(
        k > 0 && len >= k,
        "cannot split {len} items into {k} segments"
    );
    (0..k)
        .map(|i| (range.start + len * i / k)..(range.start + len * (i + 1) / k))
        .collect()
}

/// FNV-1a over 64-bit words: the running digest of answer score bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write_u64(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<u32> = (0..199).collect();
        // p95 of 199 → rank 190 → 9 beyond: refused.
        assert!(percentile(&v, 95.0).is_err());
        let v: Vec<u32> = (0..200).collect();
        // rank 190 → 10 beyond: accepted, nearest rank.
        assert_eq!(percentile(&v, 95.0), Ok(189));
        assert_eq!(percentile(&v, 50.0), Ok(99));
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&v[..19], 50.0).is_err());
    }

    #[test]
    fn segments_cover_the_range_exactly_once() {
        for (start, end, k) in [(0, 5, 5), (3, 1003, 5), (10, 27, 4), (0, 999, 7)] {
            let segs = split_segments(start..end, k);
            assert_eq!(segs.len(), k);
            assert_eq!(segs[0].start, start);
            assert_eq!(segs[k - 1].end, end);
            assert!(segs.windows(2).all(|w| w[0].end == w[1].start));
            let (min, max) = segs.iter().fold((usize::MAX, 0), |(lo, hi), s| {
                (lo.min(s.len()), hi.max(s.len()))
            });
            assert!(max - min <= 1 && min >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn segments_refuse_too_few_items() {
        split_segments(0..4, 5);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fnv_depends_on_order_and_content() {
        let digest = |words: &[u64]| {
            let mut f = Fnv::default();
            words.iter().for_each(|w| f.write_u64(*w));
            f.value()
        };
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[]), digest(&[0]));
    }
}
