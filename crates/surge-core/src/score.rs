//! The burst score function (paper Definition 1).
//!
//! For a region `r` (or, after the reduction, a point `p`),
//!
//! ```text
//! S(r) = α · max(f(r, W_c) − f(r, W_p), 0) + (1 − α) · f(r, W_c)
//! ```
//!
//! where `f(r, W) = Σ_{o ∈ O(r,W)} o.w / |W|` is the window-normalized weight
//! sum. `α ∈ [0, 1)` balances *burstiness* (the increase between windows)
//! against *significance* (the current-window score).

use crate::time::WindowConfig;

/// Threshold below which a burst score is treated as zero ("nothing bursty").
///
/// `max(fc − fp, 0)` involves a cancellation: when the two windows hold the
/// same weight, the difference is pure rounding noise (~1e-18 at typical
/// magnitudes) whose sign is arbitrary. Detectors and oracles that filter for
/// "positively scored" answers must agree on a cutoff, otherwise they can
/// disagree on whether a k-th answer exists. Real scores are many orders of
/// magnitude above this (weight ≥ 1 over an hour-long window gives ~2.8e-7).
pub const SCORE_EPS: f64 = 1e-12;

/// Parameters of the burst score function: the balance parameter `α` and the
/// window normalizers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstParams {
    /// Balance parameter `α ∈ [0, 1)`.
    pub alpha: f64,
    /// Divisor for current-window weight sums (`|W_c|`).
    pub current_norm: f64,
    /// Divisor for past-window weight sums (`|W_p|`).
    pub past_norm: f64,
}

impl BurstParams {
    /// Creates burst-score parameters from `α` and a window configuration.
    ///
    /// # Panics
    ///
    /// Panics if `α ∉ [0, 1)`.
    pub fn new(alpha: f64, windows: WindowConfig) -> Self {
        assert!(
            (0.0..1.0).contains(&alpha),
            "alpha must be in [0, 1), got {alpha}"
        );
        BurstParams {
            alpha,
            current_norm: windows.current_norm(),
            past_norm: windows.past_norm(),
        }
    }

    /// The burst score for raw weight sums `wc` (current window) and `wp`
    /// (past window).
    #[inline]
    pub fn score_weights(&self, wc: f64, wp: f64) -> f64 {
        let fc = wc / self.current_norm;
        let fp = wp / self.past_norm;
        burst_score(fc, fp, self.alpha)
    }

    /// The burst score for already-normalized scores `fc`, `fp`.
    #[inline]
    pub fn score_normalized(&self, fc: f64, fp: f64) -> f64 {
        burst_score(fc, fp, self.alpha)
    }

    /// The theoretical approximation ratio `(1 − α) / 4` of the grid-based
    /// solutions (paper Theorems 3 and 4).
    #[inline]
    pub fn grid_approx_ratio(&self) -> f64 {
        (1.0 - self.alpha) / 4.0
    }
}

/// Evaluates `α · max(fc − fp, 0) + (1 − α) · fc`.
#[inline]
pub fn burst_score(fc: f64, fp: f64, alpha: f64) -> f64 {
    alpha * (fc - fp).max(0.0) + (1.0 - alpha) * fc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::WindowConfig;

    #[test]
    fn score_matches_paper_example3() {
        // Figure 2 / Example 3: three unit-weight rectangles in W_c, |W_c|=1.
        // The intersection point has S = 3 regardless of alpha (fp = 0).
        for alpha in [0.0, 0.25, 0.5, 0.9] {
            assert!((burst_score(3.0, 0.0, alpha) - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn score_clamps_negative_increase() {
        // fc = 1, fp = 5: the max() clamps the burstiness term to zero.
        let s = burst_score(1.0, 5.0, 0.5);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_is_pure_significance() {
        assert_eq!(burst_score(2.0, 17.0, 0.0), 2.0);
        assert_eq!(burst_score(2.0, 0.0, 0.0), 2.0);
    }

    #[test]
    fn params_normalize_by_window_length() {
        let p = BurstParams::new(0.5, WindowConfig::new(100, 200));
        // wc=100 -> fc=1; wp=400 -> fp=2; S = 0.5*0 + 0.5*1 = 0.5
        assert!((p.score_weights(100.0, 400.0) - 0.5).abs() < 1e-12);
        // wc=200 -> fc=2; wp=200 -> fp=1; S = 0.5*1 + 0.5*2 = 1.5
        assert!((p.score_weights(200.0, 200.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_one_rejected() {
        let _ = BurstParams::new(1.0, WindowConfig::equal(10));
    }

    #[test]
    fn grid_ratio() {
        let p = BurstParams::new(0.2, WindowConfig::equal(10));
        assert!((p.grid_approx_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn lemma5_containment_bound_holds_for_samples() {
        // Lemma 5: S(r2) >= (1-alpha) S(r1) for r1 ⊆ r2. With containment,
        // fc2 >= fc1 and fp2 >= fp1; check the inequality over a small sweep.
        for alpha in [0.1, 0.5, 0.9] {
            for &(fc1, fp1, extra_c, extra_p) in &[
                (1.0, 0.5, 0.5, 2.0),
                (2.0, 0.0, 0.0, 3.0),
                (0.0, 1.0, 1.0, 0.0),
            ] {
                let s1 = burst_score(fc1, fp1, alpha);
                let s2 = burst_score(fc1 + extra_c, fp1 + extra_p, alpha);
                assert!(
                    s2 >= (1.0 - alpha) * s1 - 1e-12,
                    "alpha={alpha} fc1={fc1} fp1={fp1}"
                );
            }
        }
    }
}
