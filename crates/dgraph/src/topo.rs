//! Topological utilities: Kahn ordering and cycle detection.
//!
//! Microservice DGs mined from call graphs are *mostly* DAGs, but mutual-call
//! cycles do occur in real traces. Nothing condenses cycles before
//! planning: a caller that needs an order falls back when [`topo_sort`]
//! reports one (the Fair policy to breadth-first order from the sources,
//! the stub-tag pass to index order).

use crate::{DiGraph, GraphError, NodeId};

/// Topological order via Kahn's algorithm.
///
/// Ties (multiple zero-in-degree nodes) are broken by smallest node id, so
/// the order is deterministic.
///
/// # Errors
///
/// [`GraphError::CycleDetected`] when the graph has a cycle; the witness is a
/// node with a nonzero residual in-degree.
pub fn topo_sort<N>(graph: &DiGraph<N>) -> Result<Vec<NodeId>, GraphError> {
    let n = graph.node_count();
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| graph.in_degree(NodeId::from_index(i)))
        .collect();
    // Binary heap of Reverse(id) would work; a sorted ready list is enough
    // and keeps ties deterministic.
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<NodeId>> = indeg
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d == 0)
        .map(|(i, _)| std::cmp::Reverse(NodeId::from_index(i)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(u)) = ready.pop() {
        order.push(u);
        for &v in graph.successors(u) {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                ready.push(std::cmp::Reverse(v));
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let witness = indeg.iter().position(|&d| d > 0).unwrap_or(0);
        Err(GraphError::CycleDetected { witness })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topo_sort_respects_edges() {
        let g = DiGraph::from_parts(0..6, [(0, 2), (1, 2), (2, 3), (3, 4), (1, 5)]).unwrap();
        let order = topo_sort(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, n) in order.iter().enumerate() {
                p[n.index()] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(pos[u.index()] < pos[v.index()], "edge {u}->{v} violated");
        }
    }

    #[test]
    fn topo_sort_detects_cycle() {
        let g = DiGraph::from_parts(0..3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(matches!(
            topo_sort(&g),
            Err(GraphError::CycleDetected { .. })
        ));
        assert!(topo_sort(&g).is_err());
    }

    #[test]
    fn topo_sort_deterministic_ties() {
        let g = DiGraph::from_parts(0..4, [(3, 1)]).unwrap();
        let order = topo_sort(&g).unwrap();
        // 0, 2, 3 are all sources; smallest-id-first ordering.
        assert_eq!(
            order.iter().map(|n| n.index()).collect::<Vec<_>>(),
            vec![0, 2, 3, 1]
        );
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g: DiGraph<()> = DiGraph::new();
        assert!(topo_sort(&g).unwrap().is_empty());
        assert!(topo_sort(&g).is_ok());
    }
}
