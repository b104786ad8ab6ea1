//! Property-based tests for the graph substrate.

use phoenix_dgraph::generate::{attachment_dag, AttachmentConfig};
use phoenix_dgraph::topo::{condensation, depth_levels, tarjan_scc, topo_sort};
use phoenix_dgraph::traversal::{ancestors, descendants, reachable_from, Dfs};
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
        let mark = reachable_from(&g, [start]);
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
        for n in g.node_ids() {
            for d in descendants(&g, n) {
                prop_assert!(ancestors(&g, d).contains(&n),
                    "{} descendant of {} but not dual", d, n);
            }
        }
    }

    #[test]
    fn scc_partition_covers_all_nodes(g in arb_graph()) {
        let sccs = tarjan_scc(&g);
        let mut seen = vec![false; g.node_count()];
        for comp in &sccs {
            for &n in comp {
                prop_assert!(!seen[n.index()], "node in two SCCs");
                seen[n.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn condensation_always_acyclic(g in arb_graph()) {
        let (cond, comp_of) = condensation(&g);
        prop_assert!(topo_sort(&cond).is_ok());
        prop_assert_eq!(comp_of.len(), g.node_count());
        // Membership is consistent.
        for (cid, members) in cond.nodes() {
            for &m in members {
                prop_assert_eq!(comp_of[m.index()], cid);
            }
        }
    }

    #[test]
    fn depth_levels_monotone_along_edges(g in arb_dag()) {
        let depth = depth_levels(&g).unwrap();
        for (u, v) in g.edges() {
            prop_assert!(depth[v.index()] > depth[u.index()]);
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
        prop_assert!(reachable_from(&g, g.sources()).iter().all(|&v| v));
    }
}
