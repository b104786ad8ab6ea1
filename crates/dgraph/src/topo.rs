//! Topological utilities: Kahn ordering, cycle detection, depth levels, and
//! Tarjan's strongly-connected components.
//!
//! Microservice DGs mined from call graphs are *mostly* DAGs, but mutual-call
//! cycles do occur in real traces; Phoenix therefore needs both a fast
//! acyclicity check ([`topo_sort`]) and an SCC decomposition to condense
//! cycles before planning.

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

/// Longest-path depth of every node from the sources (sources get depth 0).
///
/// # Errors
///
/// [`GraphError::CycleDetected`] when the graph has a cycle.
pub fn depth_levels<N>(graph: &DiGraph<N>) -> Result<Vec<usize>, GraphError> {
    let order = topo_sort(graph)?;
    let mut depth = vec![0usize; graph.node_count()];
    for &u in &order {
        for &v in graph.successors(u) {
            depth[v.index()] = depth[v.index()].max(depth[u.index()] + 1);
        }
    }
    Ok(depth)
}

/// Strongly-connected components via Tarjan's algorithm (iterative).
///
/// Returns the components in *reverse topological order* of the condensation
/// (callees before callers), each as a list of node ids.
pub fn tarjan_scc<N>(graph: &DiGraph<N>) -> Vec<Vec<NodeId>> {
    #[derive(Clone, Copy)]
    struct Entry {
        index: u32,
        lowlink: u32,
        on_stack: bool,
        visited: bool,
    }
    let n = graph.node_count();
    let mut state = vec![
        Entry {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut counter: u32 = 0;
    let mut stack: Vec<NodeId> = Vec::new();
    let mut sccs: Vec<Vec<NodeId>> = Vec::new();
    // Explicit call stack: (node, next-successor-offset).
    let mut call: Vec<(NodeId, usize)> = Vec::new();

    for root in graph.node_ids() {
        if state[root.index()].visited {
            continue;
        }
        call.push((root, 0));
        while let Some(&mut (v, ref mut succ_i)) = call.last_mut() {
            if *succ_i == 0 {
                let e = &mut state[v.index()];
                e.visited = true;
                e.index = counter;
                e.lowlink = counter;
                e.on_stack = true;
                counter += 1;
                stack.push(v);
            }
            let succs = graph.successors(v);
            if let Some(&w) = succs.get(*succ_i) {
                *succ_i += 1;
                if !state[w.index()].visited {
                    call.push((w, 0));
                } else if state[w.index()].on_stack {
                    let wl = state[w.index()].index;
                    let e = &mut state[v.index()];
                    e.lowlink = e.lowlink.min(wl);
                }
            } else {
                // v finished.
                if state[v.index()].lowlink == state[v.index()].index {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        state[w.index()].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    let vl = state[v.index()].lowlink;
                    let e = &mut state[parent.index()];
                    e.lowlink = e.lowlink.min(vl);
                }
            }
        }
    }
    sccs
}

/// Condenses a graph to its DAG of strongly-connected components.
///
/// Returns the condensation (payload: member ids of each SCC) and, for each
/// original node, the id of the component holding it.
pub fn condensation<N>(graph: &DiGraph<N>) -> (DiGraph<Vec<NodeId>>, Vec<NodeId>) {
    let sccs = tarjan_scc(graph);
    let mut comp_of = vec![NodeId::from_index(0); graph.node_count()];
    let mut cond: DiGraph<Vec<NodeId>> = DiGraph::with_capacity(sccs.len());
    for comp in sccs {
        let cid = cond.add_node(comp.clone());
        for &m in &comp {
            comp_of[m.index()] = cid;
        }
    }
    for (u, v) in graph.edges() {
        let (cu, cv) = (comp_of[u.index()], comp_of[v.index()]);
        if cu != cv {
            // Duplicate cross edges collapse inside add_edge.
            let _ = cond.add_edge(cu, cv);
        }
    }
    (cond, comp_of)
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
    fn depth_levels_longest_path() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3 -> 4, plus shortcut 0 -> 4.
        let g =
            DiGraph::from_parts(0..5, [(0, 1), (1, 3), (0, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        let depth = depth_levels(&g).unwrap();
        assert_eq!(depth, vec![0, 1, 1, 2, 3]);
    }

    #[test]
    fn scc_simple_cycle() {
        let g = DiGraph::from_parts(0..4, [(0, 1), (1, 2), (2, 1), (2, 3)]).unwrap();
        let mut sccs: Vec<Vec<usize>> = tarjan_scc(&g)
            .into_iter()
            .map(|c| {
                let mut v: Vec<usize> = c.into_iter().map(|n| n.index()).collect();
                v.sort();
                v
            })
            .collect();
        sccs.sort();
        assert_eq!(sccs, vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn scc_reverse_topological_order() {
        let g = DiGraph::from_parts(0..3, [(0, 1), (1, 2)]).unwrap();
        let sccs = tarjan_scc(&g);
        // Callees first.
        assert_eq!(sccs[0][0].index(), 2);
        assert_eq!(sccs[2][0].index(), 0);
    }

    #[test]
    fn condensation_is_dag() {
        let g =
            DiGraph::from_parts(0..5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]).unwrap();
        let (cond, comp_of) = condensation(&g);
        assert_eq!(cond.node_count(), 3);
        assert!(topo_sort(&cond).is_ok());
        assert_eq!(comp_of[0], comp_of[1]);
        assert_eq!(comp_of[2], comp_of[3]);
        assert_ne!(comp_of[0], comp_of[2]);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g: DiGraph<()> = DiGraph::new();
        assert!(topo_sort(&g).unwrap().is_empty());
        assert!(topo_sort(&g).is_ok());
        assert!(tarjan_scc(&g).is_empty());
        assert!(depth_levels(&g).unwrap().is_empty());
    }
}
