//! Directed-graph substrate for the Phoenix cooperative-degradation stack.
//!
//! The Phoenix paper models every application as a *dependency graph* (DG): a
//! directed graph whose nodes are microservices and whose edges point from a
//! caller to its callee. The reference implementation leans on NetworkX; this
//! crate provides the equivalent functionality natively:
//!
//! * [`DiGraph`] — a compact adjacency-list digraph with payloads,
//! * [`traversal`] — DFS/BFS iterators and reachability queries,
//! * [`topo`] — topological sorting and cycle detection,
//! * [`generate`] — random-DAG generators used to synthesize realistic
//!   microservice dependency graphs.
//!
//! # Examples
//!
//! ```
//! use phoenix_dgraph::DiGraph;
//!
//! // frontend -> search -> geo
//! let mut g = DiGraph::new();
//! let frontend = g.add_node("frontend");
//! let search = g.add_node("search");
//! let geo = g.add_node("geo");
//! g.add_edge(frontend, search)?;
//! g.add_edge(search, geo)?;
//!
//! assert_eq!(g.sources().collect::<Vec<_>>(), vec![frontend]);
//! assert!(phoenix_dgraph::topo::topo_sort(&g).is_ok());
//! # Ok::<(), phoenix_dgraph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod generate;
mod graph;
pub mod topo;
pub mod traversal;

pub use error::GraphError;
pub use graph::{DiGraph, NodeId};
