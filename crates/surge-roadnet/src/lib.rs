//! # surge-roadnet
//!
//! Road-network substrate for the SURGE system — the groundwork for the
//! future-work direction the paper names in its conclusion ("we intend to
//! explore the SURGE problem in the context of road network", §VIII). No
//! detector runs on it; the crate holds the graph layer only:
//!
//! * [`graph`] — an undirected planar graph with validated construction
//!   ([`RoadNetworkBuilder`]) and on-network positions ([`EdgePos`]).
//! * [`generator`] — deterministic synthetic city generation
//!   ([`grid_city`]): jittered Manhattan grids with dropped segments.
//! * [`path`] — truncated Dijkstra and network distances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod graph;
pub mod path;

pub use generator::{grid_city, GridCityConfig};
pub use graph::{Edge, EdgeId, EdgePos, GraphError, Node, NodeId, RoadNetwork, RoadNetworkBuilder};
pub use path::{dijkstra_from_node, dijkstra_from_pos, network_distance};
