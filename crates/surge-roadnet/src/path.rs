//! Shortest-path primitives over the road network.
//!
//! Truncated single-source Dijkstra from nodes and from arbitrary edge
//! positions, and the point-to-point network distance built on it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use surge_core::TotalF64;

use crate::graph::{EdgePos, NodeId, RoadNetwork};

/// Single-source shortest path distances from `source` to every node,
/// truncated at `radius` (unreached nodes get `f64::INFINITY`).
pub fn dijkstra_from_node(net: &RoadNetwork, source: NodeId, radius: f64) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; net.node_count()];
    if (source as usize) >= net.node_count() {
        return dist;
    }
    let mut heap: BinaryHeap<Reverse<(TotalF64, NodeId)>> = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(Reverse((TotalF64(0.0), source)));
    while let Some(Reverse((d, node))) = heap.pop() {
        let d = d.get();
        if d > dist[node as usize] {
            continue; // stale entry
        }
        if d > radius {
            break;
        }
        for &eid in net.incident_edges(node) {
            let other = net.other_endpoint(eid, node);
            let nd = d + net.edge(eid).length;
            if nd < dist[other as usize] && nd <= radius {
                dist[other as usize] = nd;
                heap.push(Reverse((TotalF64(nd), other)));
            }
        }
    }
    dist
}

/// Shortest network distances from an arbitrary edge position to every node,
/// truncated at `radius`.
///
/// The source reaches the two endpoints of its edge at `offset` and
/// `length − offset`; from there ordinary Dijkstra proceeds.
pub fn dijkstra_from_pos(net: &RoadNetwork, source: EdgePos, radius: f64) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; net.node_count()];
    let e = net.edge(source.edge);
    let (to_a, to_b) = net.endpoint_distances(source);
    let mut heap: BinaryHeap<Reverse<(TotalF64, NodeId)>> = BinaryHeap::new();
    if to_a <= radius {
        dist[e.a as usize] = to_a;
        heap.push(Reverse((TotalF64(to_a), e.a)));
    }
    if to_b <= radius && to_b < dist[e.b as usize] {
        dist[e.b as usize] = to_b;
        heap.push(Reverse((TotalF64(to_b), e.b)));
    }
    while let Some(Reverse((d, node))) = heap.pop() {
        let d = d.get();
        if d > dist[node as usize] {
            continue;
        }
        for &eid in net.incident_edges(node) {
            let other = net.other_endpoint(eid, node);
            let nd = d + net.edge(eid).length;
            if nd < dist[other as usize] && nd <= radius {
                dist[other as usize] = nd;
                heap.push(Reverse((TotalF64(nd), other)));
            }
        }
    }
    dist
}

/// Network distance between two edge positions, truncated at `radius`
/// (`f64::INFINITY` when farther or disconnected).
pub fn network_distance(net: &RoadNetwork, a: EdgePos, b: EdgePos, radius: f64) -> f64 {
    // Same-edge direct travel is a candidate, but not necessarily the
    // shortest: a long edge can be undercut by a route through its endpoints,
    // so the Dijkstra candidates below are always considered too.
    let dist = dijkstra_from_pos(net, a, radius);
    let eb = net.edge(b.edge);
    let (b_to_a, b_to_b) = net.endpoint_distances(b);
    let via_a = dist[eb.a as usize] + b_to_a;
    let via_b = dist[eb.b as usize] + b_to_b;
    let mut best = via_a.min(via_b);
    if a.edge == b.edge {
        best = best.min((a.offset - b.offset).abs());
    }
    if best <= radius {
        best
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{grid_city, GridCityConfig};
    use crate::graph::RoadNetworkBuilder;
    use surge_core::Point;

    /// 0 --2-- 1 --3-- 2, plus a long detour 0 --10-- 2.
    fn path_graph() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(2.0, 0.0));
        let n2 = b.add_node(Point::new(5.0, 0.0));
        b.add_edge_with_length(n0, n1, 2.0);
        b.add_edge_with_length(n1, n2, 3.0);
        b.add_edge_with_length(n0, n2, 10.0);
        b.build().unwrap()
    }

    #[test]
    fn node_dijkstra_prefers_short_route() {
        let g = path_graph();
        let d = dijkstra_from_node(&g, 0, f64::INFINITY);
        assert_eq!(d, vec![0.0, 2.0, 5.0]);
    }

    #[test]
    fn node_dijkstra_truncates_at_radius() {
        let g = path_graph();
        let d = dijkstra_from_node(&g, 0, 2.5);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 2.0);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn pos_dijkstra_reaches_both_endpoints() {
        let g = path_graph();
        // Midpoint of edge 0 (0--1, length 2): 1 from each endpoint.
        let d = dijkstra_from_pos(
            &g,
            EdgePos {
                edge: 0,
                offset: 1.0,
            },
            f64::INFINITY,
        );
        assert_eq!(d[0], 1.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 4.0);
    }

    #[test]
    fn network_distance_same_edge_is_offset_difference() {
        let g = path_graph();
        let a = EdgePos {
            edge: 1,
            offset: 0.5,
        };
        let b = EdgePos {
            edge: 1,
            offset: 2.5,
        };
        assert!((network_distance(&g, a, b, 100.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn network_distance_across_edges() {
        let g = path_graph();
        let a = EdgePos {
            edge: 0,
            offset: 1.5,
        }; // 0.5 from node 1
        let b = EdgePos {
            edge: 1,
            offset: 1.0,
        }; // 1.0 from node 1
        assert!((network_distance(&g, a, b, 100.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn network_distance_respects_radius() {
        let g = path_graph();
        let a = EdgePos {
            edge: 0,
            offset: 0.0,
        };
        let b = EdgePos {
            edge: 1,
            offset: 3.0,
        }; // node 2, distance 5 from node 0
        assert!(network_distance(&g, a, b, 4.0).is_infinite());
        assert!((network_distance(&g, a, b, 5.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric_on_city() {
        let g = grid_city(&GridCityConfig {
            nx: 6,
            ny: 6,
            spacing: 10.0,
            jitter: 0.1,
            drop_fraction: 0.2,
            seed: 5,
        });
        let probes = [
            EdgePos {
                edge: 0,
                offset: 1.0,
            },
            EdgePos {
                edge: (g.edge_count() / 2) as u32,
                offset: 0.5,
            },
            EdgePos {
                edge: (g.edge_count() - 1) as u32,
                offset: 2.0,
            },
        ];
        for &a in &probes {
            for &b in &probes {
                let ab = network_distance(&g, a, b, f64::INFINITY);
                let ba = network_distance(&g, b, a, f64::INFINITY);
                assert!(
                    (ab - ba).abs() < 1e-9,
                    "asymmetric: {a:?}→{b:?} = {ab}, reverse {ba}"
                );
            }
        }
    }

    #[test]
    fn long_edge_is_undercut_by_shortcut() {
        // Positions near opposite ends of the length-10 detour edge: direct
        // travel along the edge costs 9, but routing through nodes 0→1→2
        // costs 0.5 + 5 + 0.5 = 6.
        let g = path_graph();
        let a = EdgePos {
            edge: 2,
            offset: 0.5,
        };
        let b = EdgePos {
            edge: 2,
            offset: 9.5,
        };
        assert!((network_distance(&g, a, b, 100.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_source_yields_all_infinite() {
        let g = path_graph();
        let d = dijkstra_from_node(&g, 99, 10.0);
        assert!(d.iter().all(|x| x.is_infinite()));
    }
}
