//! Synthetic road-network generation.
//!
//! Real city road graphs (OpenStreetMap extracts) are not bundled with the
//! repository; this module generates Manhattan-style grid cities with
//! jittered junctions and randomly dropped street segments, which reproduces
//! the structural properties of a street map: bounded node degree,
//! roughly uniform segment lengths, and planar embedding. Generation is
//! deterministic in the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surge_core::Point;

use crate::graph::{RoadNetwork, RoadNetworkBuilder};

/// Parameters for [`grid_city`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCityConfig {
    /// Junction columns.
    pub nx: usize,
    /// Junction rows.
    pub ny: usize,
    /// Nominal distance between adjacent junctions.
    pub spacing: f64,
    /// Junction position jitter as a fraction of `spacing` (0 = perfect
    /// grid).
    pub jitter: f64,
    /// Fraction of street segments to remove (0 = full grid). Removal never
    /// disconnects the graph: a spanning set of streets is kept.
    pub drop_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GridCityConfig {
    fn default() -> Self {
        GridCityConfig {
            nx: 16,
            ny: 16,
            spacing: 100.0,
            jitter: 0.15,
            drop_fraction: 0.1,
            seed: 0,
        }
    }
}

/// Generates a jittered grid city.
///
/// # Panics
///
/// Panics if `nx` or `ny` is zero, or if `drop_fraction ∉ [0, 1)`.
pub fn grid_city(cfg: &GridCityConfig) -> RoadNetwork {
    assert!(cfg.nx > 0 && cfg.ny > 0, "city must have at least one node");
    assert!(
        (0.0..1.0).contains(&cfg.drop_fraction),
        "drop_fraction must be in [0, 1)"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = RoadNetworkBuilder::new();
    let id = |ix: usize, iy: usize| (iy * cfg.nx + ix) as u32;

    for iy in 0..cfg.ny {
        for ix in 0..cfg.nx {
            let jx = if cfg.jitter > 0.0 {
                rng.gen_range(-cfg.jitter..cfg.jitter) * cfg.spacing
            } else {
                0.0
            };
            let jy = if cfg.jitter > 0.0 {
                rng.gen_range(-cfg.jitter..cfg.jitter) * cfg.spacing
            } else {
                0.0
            };
            b.add_node(Point::new(
                ix as f64 * cfg.spacing + jx,
                iy as f64 * cfg.spacing + jy,
            ));
        }
    }

    // A spanning backbone that is never dropped: the bottom row plus every
    // vertical street, guaranteeing connectivity.
    for iy in 0..cfg.ny {
        for ix in 0..cfg.nx {
            if ix + 1 < cfg.nx {
                let keep = iy == 0 || rng.gen::<f64>() >= cfg.drop_fraction;
                if keep {
                    b.add_edge(id(ix, iy), id(ix + 1, iy));
                }
            }
            if iy + 1 < cfg.ny {
                b.add_edge(id(ix, iy), id(ix, iy + 1));
            }
        }
    }

    b.build().expect("generated city is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::dijkstra_from_node;

    #[test]
    fn default_city_builds() {
        let g = grid_city(&GridCityConfig::default());
        assert_eq!(g.node_count(), 256);
        assert!(g.edge_count() > 256);
        assert!(g.total_length() > 0.0);
    }

    #[test]
    fn perfect_grid_has_expected_edge_count() {
        let g = grid_city(&GridCityConfig {
            nx: 4,
            ny: 3,
            spacing: 1.0,
            jitter: 0.0,
            drop_fraction: 0.0,
            seed: 0,
        });
        assert_eq!(g.node_count(), 12);
        // Horizontal: 3 per row × 3 rows; vertical: 4 per column × 2 = 8.
        assert_eq!(g.edge_count(), 9 + 8);
        // Perfect grid: every edge has length 1.
        assert!(g.edges().iter().all(|e| (e.length - 1.0).abs() < 1e-12));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GridCityConfig {
            seed: 7,
            ..Default::default()
        };
        let a = grid_city(&cfg);
        let b = grid_city(&cfg);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = grid_city(&GridCityConfig {
            seed: 1,
            ..Default::default()
        });
        let b = grid_city(&GridCityConfig {
            seed: 2,
            ..Default::default()
        });
        let same = a.nodes().iter().zip(b.nodes()).all(|(x, y)| x.pos == y.pos);
        assert!(!same);
    }

    #[test]
    fn dropping_edges_keeps_graph_connected() {
        let g = grid_city(&GridCityConfig {
            nx: 10,
            ny: 10,
            spacing: 50.0,
            jitter: 0.1,
            drop_fraction: 0.6,
            seed: 3,
        });
        let dist = dijkstra_from_node(&g, 0, f64::INFINITY);
        assert!(
            dist.iter().all(|d| d.is_finite()),
            "all nodes reachable from node 0"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_size_rejected() {
        let _ = grid_city(&GridCityConfig {
            nx: 0,
            ..Default::default()
        });
    }
}
