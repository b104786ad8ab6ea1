//! Property-based tests for the graph substrate.

use phoenix_dgraph::generate::{attachment_dag, AttachmentConfig};
use phoenix_dgraph::topo::topo_sort;
use phoenix_dgraph::traversal::Dfs;
use phoenix_dgraph::{DiGraph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An arbitrary digraph as (node count, edge list); edges may collide or
/// self-loop — builders must cope.
fn arb_graph() -> impl Strategy<Value = DiGraph<u32>> {
    (1usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..n * 3);
        edges.prop_map(move |es| {
            let mut g: DiGraph<u32> = (0..n as u32).collect();
            for (f, t) in es {
                if f != t {
                    let _ = g.add_edge(NodeId::from_index(f), NodeId::from_index(t));
                }
            }
            g
        })
    })
}

fn arb_dag() -> impl Strategy<Value = DiGraph<u32>> {
    // Edges forced forward (f < t) → always acyclic.
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..n * 3);
        edges.prop_map(move |es| {
            let mut g: DiGraph<u32> = (0..n as u32).collect();
            for (a, b) in es {
                if a != b {
                    let (f, t) = (a.min(b), a.max(b));
                    let _ = g.add_edge(NodeId::from_index(f), NodeId::from_index(t));
                }
            }
            g
        })
    })
}

proptest! {
    #[test]
    fn topo_order_respects_all_edges(g in arb_dag()) {
        let order = topo_sort(&g).expect("forward-edge graphs are DAGs");
        prop_assert_eq!(order.len(), g.node_count());
        let mut pos = vec![0usize; g.node_count()];
        for (i, n) in order.iter().enumerate() { pos[n.index()] = i; }
        for (u, v) in g.edges() {
            prop_assert!(pos[u.index()] < pos[v.index()]);
        }
    }

    #[test]
    fn dfs_visits_exactly_reachable(g in arb_graph()) {
        let start = NodeId::from_index(0);
        let visited: Vec<NodeId> = Dfs::new(&g, [start]).collect();
        // Reference: close {start} under the edge list until it is stable.
        let mut mark = vec![false; g.node_count()];
        mark[start.index()] = true;
        let mut grew = true;
        while grew {
            grew = false;
            for (u, v) in g.edges() {
                if mark[u.index()] && !mark[v.index()] {
                    mark[v.index()] = true;
                    grew = true;
                }
            }
        }
        prop_assert_eq!(visited.len(), mark.iter().filter(|&&b| b).count());
        for n in &visited { prop_assert!(mark[n.index()]); }
        // No duplicates.
        let mut sorted: Vec<_> = visited.iter().map(|n| n.index()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), visited.len());
    }

    #[test]
    fn ancestors_descendants_are_dual(g in arb_dag()) {
        // A walk over the reversed edges finds a node's ancestors.
        let mut reversed: DiGraph<u32> = (0..g.node_count() as u32).collect();
        for (u, v) in g.edges() {
            reversed.add_edge(v, u).expect("reversed edge of a DAG");
        }
        for n in g.node_ids() {
            for d in Dfs::new(&g, [n]).skip(1) {
                prop_assert!(Dfs::new(&reversed, [d]).any(|a| a == n),
                    "{} descendant of {} but not dual", d, n);
            }
        }
    }

    #[test]
    fn generated_dags_fully_reachable(seed in 0u64..500, n in 2usize..150) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = attachment_dag(&mut rng, &AttachmentConfig {
            nodes: n,
            entry_nodes: 1 + (n / 50),
            ..AttachmentConfig::default()
        });
        prop_assert!(topo_sort(&g).is_ok());
        prop_assert_eq!(Dfs::new(&g, g.sources()).count(), g.node_count());
    }
}
