//! Property tests for the road-network substrate: the metric axioms of the
//! truncated Dijkstra and of the network distance.

use proptest::prelude::*;
use surge_roadnet::{
    dijkstra_from_node, grid_city, network_distance, EdgePos, GridCityConfig, RoadNetwork,
};

fn arb_city() -> impl Strategy<Value = RoadNetwork> {
    (2usize..8, 2usize..8, 0u64..1_000, 0.0..0.25f64, 0.0..0.4f64).prop_map(
        |(nx, ny, seed, jitter, drop)| {
            grid_city(&GridCityConfig {
                nx,
                ny,
                spacing: 50.0,
                jitter,
                drop_fraction: drop,
                seed,
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncated Dijkstra with an infinite radius satisfies the triangle
    /// inequality through any intermediate node.
    #[test]
    fn node_distances_satisfy_triangle_inequality(city in arb_city(), s in 0u32..4) {
        let n = city.node_count() as u32;
        let source = s % n;
        let d = dijkstra_from_node(&city, source, f64::INFINITY);
        for e in city.edges() {
            // Relaxation: d[b] <= d[a] + len and vice versa.
            prop_assert!(d[e.b as usize] <= d[e.a as usize] + e.length + 1e-9);
            prop_assert!(d[e.a as usize] <= d[e.b as usize] + e.length + 1e-9);
        }
    }

    /// The point-to-point network distance is symmetric and satisfies
    /// identity.
    #[test]
    fn network_distance_is_a_metric(city in arb_city()) {
        let take = |i: usize| EdgePos {
            edge: (i % city.edge_count()) as u32,
            offset: city.edge((i % city.edge_count()) as u32).length * 0.3,
        };
        let a = take(0);
        let b = take(city.edge_count() / 2);
        prop_assert_eq!(network_distance(&city, a, a, f64::INFINITY), 0.0);
        let ab = network_distance(&city, a, b, f64::INFINITY);
        let ba = network_distance(&city, b, a, f64::INFINITY);
        prop_assert!((ab - ba).abs() <= 1e-9, "{ab} vs {ba}");
        prop_assert!(ab >= 0.0);
    }
}
