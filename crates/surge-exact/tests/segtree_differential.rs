//! Differential tests: the production `O(n log n)` segment-tree sweep
//! against the naive `O(n²)` midpoint-enumeration reference sweep
//! (`surge_testkit::sl_cspot_naive`), over
//! randomized rectangle sets — current + past mixes, degenerate and
//! edge-aligned rectangles, varying α and window normalizers.
//!
//! The two sweeps must agree on the *score* exactly up to floating-point
//! accumulation (≤ 1e-9 relative here), and each returned point must attain
//! its reported score under exhaustive re-scoring.

use proptest::prelude::*;
use surge_core::{BurstParams, Point, Rect, WindowKind};
use surge_exact::{score_at_point, sl_cspot, SweepRect};
use surge_testkit::{arb_scene, sl_cspot_naive};

const AREA: Rect = Rect {
    x0: -50.0,
    y0: -50.0,
    x1: 50.0,
    y1: 50.0,
};

fn check_equivalence(rects: &[SweepRect], params: &BurstParams) {
    let fast = sl_cspot(rects, &AREA, params);
    let naive = sl_cspot_naive(rects, &AREA, params);
    match (fast, naive) {
        (Some(f), Some(n)) => {
            assert!(
                (f.score - n.score).abs() <= 1e-9 * n.score.abs().max(1.0),
                "segtree {} vs naive {}",
                f.score,
                n.score
            );
            // Both returned points must attain their reported scores.
            let fr = score_at_point(rects, f.point, params);
            assert!((fr.score - f.score).abs() <= 1e-9 * f.score.abs().max(1.0));
            let nr = score_at_point(rects, n.point, params);
            assert!((nr.score - n.score).abs() <= 1e-9 * n.score.abs().max(1.0));
        }
        (None, None) => {}
        other => panic!("sweep disagreement on Some/None: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Snapped random scenes across the α sweep used by the paper.
    #[test]
    fn segtree_matches_naive_on_lattice_scenes(
        rects in arb_scene(24),
        alpha_pct in 0u32..100,
    ) {
        let params = BurstParams {
            alpha: alpha_pct as f64 / 100.0,
            current_norm: 1.0,
            past_norm: 1.0,
        };
        check_equivalence(&rects, &params);
    }

    /// Asymmetric window normalizers exercise the `−α·w/|W_p|` scaling of
    /// past rectangles in the tree.
    #[test]
    fn segtree_matches_naive_with_asymmetric_norms(
        rects in arb_scene(16),
        alpha_pct in 0u32..100,
        cur_norm in 1u32..2_000,
        past_norm in 1u32..2_000,
    ) {
        let params = BurstParams {
            alpha: alpha_pct as f64 / 100.0,
            current_norm: cur_norm as f64,
            past_norm: past_norm as f64,
        };
        check_equivalence(&rects, &params);
    }

    /// Scenes clipped by a small search area (cell-domain shape): clipping
    /// produces edge-aligned and degenerate rectangles by construction.
    #[test]
    fn segtree_matches_naive_under_tight_clipping(
        rects in arb_scene(16),
        alpha_pct in 0u32..100,
        ax in 0u32..20,
        ay in 0u32..20,
    ) {
        let params = BurstParams {
            alpha: alpha_pct as f64 / 100.0,
            current_norm: 1.0,
            past_norm: 1.0,
        };
        let x0 = ax as f64 * 0.25 - 3.0;
        let y0 = ay as f64 * 0.25 - 3.0;
        let area = Rect::new(x0, y0, x0 + 1.5, y0 + 1.5);
        let fast = sl_cspot(&rects, &area, &params);
        let naive = sl_cspot_naive(&rects, &area, &params);
        match (fast, naive) {
            (Some(f), Some(n)) => {
                prop_assert!(
                    (f.score - n.score).abs() <= 1e-9 * n.score.abs().max(1.0),
                    "segtree {} vs naive {}", f.score, n.score
                );
                prop_assert!(area.contains(f.point));
            }
            (None, None) => {}
            other => panic!("sweep disagreement on Some/None: {other:?}"),
        }
    }
}

/// Deterministic worst-case-ish scenes the lattice generator rarely hits.
#[test]
fn segtree_matches_naive_on_adversarial_scenes() {
    let params = |alpha: f64| BurstParams {
        alpha,
        current_norm: 1.0,
        past_norm: 1.0,
    };

    // All rectangles identical (maximum tie pressure).
    let same: Vec<SweepRect> = (0..12)
        .map(|i| SweepRect {
            rect: Rect::new(0.0, 0.0, 1.0, 1.0),
            weight: 1.0 + (i % 3) as f64,
            kind: if i % 2 == 0 {
                WindowKind::Past
            } else {
                WindowKind::Current
            },
        })
        .collect();
    check_equivalence(&same, &params(0.5));

    // A column of horizontally-stacked slivers sharing edges.
    let slivers: Vec<SweepRect> = (0..20)
        .map(|i| SweepRect {
            rect: Rect::new(i as f64, 0.0, (i + 1) as f64, 10.0),
            weight: 1.0 + (i % 5) as f64,
            kind: if i % 3 == 0 {
                WindowKind::Past
            } else {
                WindowKind::Current
            },
        })
        .collect();
    check_equivalence(&slivers, &params(0.9));

    // Point/segment degenerate rectangles stabbing a big one.
    let degenerate = vec![
        SweepRect {
            rect: Rect::new(0.0, 0.0, 4.0, 4.0),
            weight: 2.0,
            kind: WindowKind::Current,
        },
        SweepRect {
            rect: Rect::new(2.0, 2.0, 2.0, 2.0), // point
            weight: 5.0,
            kind: WindowKind::Current,
        },
        SweepRect {
            rect: Rect::new(1.0, 3.0, 3.0, 3.0), // horizontal segment
            weight: 3.0,
            kind: WindowKind::Past,
        },
        SweepRect {
            rect: Rect::new(3.0, 1.0, 3.0, 3.5), // vertical segment
            weight: 4.0,
            kind: WindowKind::Current,
        },
    ];
    for a in [0.0, 0.3, 0.7, 0.99] {
        check_equivalence(&degenerate, &params(a));
    }

    // The sweep must find the point-rect pile: fc = 2 + 5 at (2, 2).
    let res = sl_cspot(&degenerate, &AREA, &params(0.0)).unwrap();
    assert_eq!(res.point, Point::new(2.0, 2.0));
    assert_eq!(res.wc, 7.0);
}

// ---------------------------------------------------------------------------
// Flat vs recursive segment tree
// ---------------------------------------------------------------------------

use surge_exact::{sl_cspot_with, BurstSegTree, SweepArena};
use surge_testkit::{MaxAddTree, RecursiveMaxAddTree, SplitBurstSegTree};

// ---------------------------------------------------------------------------
// Fused SoA lanes vs split per-form trees
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fused SoA-lane tree against the split two-tree reference over
    /// random insert/remove burst-update sequences: max and argmax must
    /// agree bit for bit after every apply. α runs to 1.0 inclusive so the
    /// zero current-signal coefficient exercises `-0.0` lane sums (a lane
    /// that canonicalized zeros would diverge here), and removals replay
    /// earlier inserts with `sign = -1` the way the persistent sweep does.
    #[test]
    fn fused_lanes_match_split_trees_bitwise(
        n in 1usize..100,
        ops in prop::collection::vec(
            (0u32..1_000, 0u32..1_000, 1u32..5, any::<bool>(), any::<bool>()),
            1..150,
        ),
        alpha_pct in 0u32..=100,
        cur_norm in 1u32..500,
        past_norm in 1u32..500,
    ) {
        let params = BurstParams {
            alpha: alpha_pct as f64 / 100.0,
            current_norm: cur_norm as f64,
            past_norm: past_norm as f64,
        };
        let mut fused = BurstSegTree::new(n, &params);
        let mut split = SplitBurstSegTree::new(n, &params);
        let mut live: Vec<(usize, usize, f64, WindowKind)> = Vec::new();
        for (a, b, w, past, remove) in ops {
            let (l, r, w, kind) = if remove && !live.is_empty() {
                let (l, r, w, kind) = live.swap_remove(a as usize % live.len());
                fused.apply(l, r, w, kind, -1.0);
                split.apply(l, r, w, kind, -1.0);
                (l, r, w, kind)
            } else {
                let (a, b) = (a as usize % n, b as usize % n);
                let (l, r) = (a.min(b), a.max(b));
                let kind = if past { WindowKind::Past } else { WindowKind::Current };
                fused.apply(l, r, w as f64, kind, 1.0);
                split.apply(l, r, w as f64, kind, 1.0);
                live.push((l, r, w as f64, kind));
                (l, r, w as f64, kind)
            };
            let (fm, fa) = fused.top();
            let (sm, sa) = split.top();
            prop_assert_eq!(
                fm.to_bits(), sm.to_bits(),
                "n {} op ({}, {}, {}, {:?}): fused {} vs split {}",
                n, l, r, w, kind, fm, sm
            );
            prop_assert_eq!(fa, sa, "argmax");
        }
    }

    /// Resizing a loaded fused tree through `clear_values` + `sync_len`
    /// (the persistent sweep's reuse path) tracks the split reference doing
    /// the same: pool reuse must stay bitwise invisible in both layouts.
    #[test]
    fn fused_and_split_agree_across_sync_len_resizes(
        sizes in prop::collection::vec(1usize..60, 2..5),
        applies in prop::collection::vec(
            (0u32..1_000, 0u32..1_000, 1u32..5, any::<bool>()),
            1..40,
        ),
        alpha_pct in 0u32..=100,
    ) {
        let params = BurstParams {
            alpha: alpha_pct as f64 / 100.0,
            current_norm: 1.0,
            past_norm: 1.0,
        };
        let mut fused = BurstSegTree::new(sizes[0], &params);
        let mut split = SplitBurstSegTree::new(sizes[0], &params);
        for &n in &sizes {
            fused.clear_values();
            fused.sync_len(n, &params);
            split.clear_values();
            split.sync_len(n, &params);
            for &(a, b, w, past) in &applies {
                let (a, b) = (a as usize % n, b as usize % n);
                let (l, r) = (a.min(b), a.max(b));
                let kind = if past { WindowKind::Past } else { WindowKind::Current };
                fused.apply(l, r, w as f64, kind, 1.0);
                split.apply(l, r, w as f64, kind, 1.0);
                let (fm, fa) = fused.top();
                let (sm, sa) = split.top();
                prop_assert_eq!(fm.to_bits(), sm.to_bits(), "n {}: {} vs {}", n, fm, sm);
                prop_assert_eq!(fa, sa, "argmax at n {}", n);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental leaf edits (the persistent-sweep tree API)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `insert_leaf` / `remove_leaf` interleaved with integer range adds
    /// against a plain `Vec<f64>` model: leaf values, the max and the
    /// leftmost-tie argmax must agree exactly after every operation —
    /// covering both the pristine O(log n) fast path and the loaded-tree
    /// rebuild fallback.
    #[test]
    fn leaf_edits_match_vec_model(
        ops in prop::collection::vec((0u32..4, 0u32..1_000, 0u32..1_000, -9i32..10), 1..120),
    ) {
        let mut model: Vec<f64> = Vec::new();
        let mut tree = MaxAddTree::new(0);
        for (kind, a, b, v) in ops {
            match kind {
                0 => {
                    let at = a as usize % (model.len() + 1);
                    model.insert(at, 0.0);
                    tree.insert_leaf(at);
                }
                1 if !model.is_empty() => {
                    let at = a as usize % model.len();
                    model.remove(at);
                    tree.remove_leaf(at);
                }
                _ if !model.is_empty() => {
                    let (a, b) = (a as usize % model.len(), b as usize % model.len());
                    let (l, r) = (a.min(b), a.max(b));
                    for x in &mut model[l..=r] {
                        *x += v as f64;
                    }
                    tree.add(l, r, v as f64);
                }
                _ => {}
            }
            prop_assert_eq!(tree.len(), model.len());
            prop_assert_eq!(tree.leaf_values(), model.clone());
            if !model.is_empty() {
                let (want_arg, want_max) = model
                    .iter()
                    .enumerate()
                    .fold((0usize, f64::NEG_INFINITY), |(am, m), (i, &x)| {
                        if x > m { (i, x) } else { (am, m) }
                    });
                let (got_max, got_arg) = tree.top();
                prop_assert_eq!(got_max.to_bits(), want_max.to_bits());
                prop_assert_eq!(got_arg, want_arg, "argmax");
            }
        }
    }

    /// The persistent path's tree maintenance — `clear_values` followed by
    /// incremental `sync_len` — must leave a `BurstSegTree` bitwise
    /// identical to a freshly `reset` one: the same apply sequence then
    /// yields the same max/argmax bit for bit. (Bit-identity of the whole
    /// persistent sweep reduces to this plus identical inputs.)
    #[test]
    fn clear_and_sync_is_bitwise_reset(
        n0 in 1usize..40,
        n1 in 1usize..40,
        applies in prop::collection::vec((0u32..1_000, 0u32..1_000, 1u32..5, any::<bool>()), 1..40),
        alpha_pct in 0u32..100,
    ) {
        let params = BurstParams {
            alpha: alpha_pct as f64 / 100.0,
            current_norm: 1.0,
            past_norm: 1.0,
        };
        // Dirty a tree at n0 leaves, then clear + sync to n1.
        let mut synced = BurstSegTree::new(n0, &params);
        synced.apply(0, n0 - 1, 2.0, surge_core::WindowKind::Current, 1.0);
        synced.clear_values();
        synced.sync_len(n1, &params);
        let mut fresh = BurstSegTree::new(n1, &params);
        for (a, b, w, past) in applies {
            let (a, b) = (a as usize % n1, b as usize % n1);
            let (l, r) = (a.min(b), a.max(b));
            let kind = if past { WindowKind::Past } else { WindowKind::Current };
            synced.apply(l, r, w as f64, kind, 1.0);
            fresh.apply(l, r, w as f64, kind, 1.0);
            let (sm, sa) = synced.top();
            let (fm, fa) = fresh.top();
            prop_assert_eq!(sm.to_bits(), fm.to_bits(), "max mismatch at n1={}", n1);
            prop_assert_eq!(sa, fa, "argmax mismatch");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random interval-add scenes with integer values: arithmetic is exact,
    /// so the flat production tree and the recursive reference must agree
    /// bit-for-bit after every operation — max *and* argmax (both trees
    /// break ties leftmost, independent of tree shape).
    #[test]
    fn flat_tree_matches_recursive_on_random_interval_adds(
        n in 1usize..130,
        ops in prop::collection::vec((0u32..1_000, 0u32..1_000, -12i32..13), 1..200),
    ) {
        let mut flat = MaxAddTree::new(n);
        let mut rec = RecursiveMaxAddTree::new(n);
        for (a, b, v) in ops {
            let (a, b) = (a as usize % n, b as usize % n);
            let (l, r) = (a.min(b), a.max(b));
            flat.add(l, r, v as f64);
            rec.add(l, r, v as f64);
            let (fm, fa) = flat.top();
            let (rm, ra) = rec.top();
            prop_assert_eq!(fm.to_bits(), rm.to_bits(), "n {} max {} vs {}", n, fm, rm);
            prop_assert_eq!(fa, ra, "n {} argmax", n);
        }
    }

    /// Signed-zero adds: `-0.0` and `+0.0` interleaved with ±1 values. The
    /// trees may legitimately differ in the *sign* of a zero (their internal
    /// sums associate differently), so compare under `==` — what matters is
    /// that the max value and the leftmost-tie argmax agree.
    #[test]
    fn flat_tree_matches_recursive_with_negative_zero_adds(
        n in 1usize..40,
        ops in prop::collection::vec((0u32..100, 0u32..100, 0u32..4), 1..120),
    ) {
        let values = [-0.0f64, 0.0, 1.0, -1.0];
        let mut flat = MaxAddTree::new(n);
        let mut rec = RecursiveMaxAddTree::new(n);
        for (a, b, vi) in ops {
            let (a, b) = (a as usize % n, b as usize % n);
            let (l, r) = (a.min(b), a.max(b));
            let v = values[vi as usize];
            flat.add(l, r, v);
            rec.add(l, r, v);
            let (fm, fa) = flat.top();
            let (rm, ra) = rec.top();
            prop_assert!(fm == rm, "n {} max {} vs {}", n, fm, rm);
            prop_assert_eq!(fa, ra, "n {} argmax", n);
        }
    }

    /// A reused arena must be invisible: sweeping a *sequence* of unrelated
    /// scenes through one `SweepArena` yields bitwise the results of fresh
    /// per-scene sweeps — including scenes with `-0.0` edges, which stress
    /// the total-order dedup of the recycled coordinate buffers.
    #[test]
    fn arena_reuse_is_bitwise_invisible(
        scenes in prop::collection::vec(arb_scene(14), 1..6),
        alpha_pct in 0u32..100,
        flip_zero in any::<bool>(),
    ) {
        let params = BurstParams {
            alpha: alpha_pct as f64 / 100.0,
            current_norm: 1.0,
            past_norm: 1.0,
        };
        let signed_zero = |v: f64| if flip_zero && v == 0.0 { -0.0 } else { v };
        let mut arena = SweepArena::new();
        for scene in scenes {
            let scene: Vec<SweepRect> = scene
                .into_iter()
                .map(|r| SweepRect {
                    rect: Rect::new(
                        signed_zero(r.rect.x0),
                        signed_zero(r.rect.y0),
                        signed_zero(r.rect.x1),
                        signed_zero(r.rect.y1),
                    ),
                    ..r
                })
                .collect();
            let reused = sl_cspot_with(&mut arena, &scene, &AREA, &params);
            let fresh = sl_cspot(&scene, &AREA, &params);
            match (reused, fresh) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
                    prop_assert_eq!(a.point.x.to_bits(), b.point.x.to_bits());
                    prop_assert_eq!(a.point.y.to_bits(), b.point.y.to_bits());
                    prop_assert_eq!(a.wc.to_bits(), b.wc.to_bits());
                    prop_assert_eq!(a.wp.to_bits(), b.wp.to_bits());
                }
                (None, None) => {}
                other => panic!("arena reuse changed Some/None: {other:?}"),
            }
        }
    }
}
