//! Depth-first and breadth-first traversal, plus reachability queries.
//!
//! The Phoenix planner walks dependency graphs from their entry services
//! towards the leaves; AdaptLab's tagging schemes need ancestor/descendant
//! sets to propagate criticality along call paths. Both are served here.

use std::collections::VecDeque;

use crate::{DiGraph, NodeId};

/// Iterative depth-first traversal from a set of start nodes.
///
/// Nodes are yielded in *pre-order*; already-visited nodes are skipped, so a
/// node reachable from two starts is yielded once. Successors are pushed in
/// reverse adjacency order so that the first-added edge is explored first,
/// giving deterministic orderings.
///
/// # Examples
///
/// ```
/// use phoenix_dgraph::{DiGraph, traversal::Dfs};
///
/// let mut g = DiGraph::new();
/// let (r, a, b) = (g.add_node("r"), g.add_node("a"), g.add_node("b"));
/// g.add_edge(r, a)?;
/// g.add_edge(r, b)?;
/// let order: Vec<_> = Dfs::new(&g, g.sources()).map(|n| g[n]).collect();
/// assert_eq!(order, vec!["r", "a", "b"]);
/// # Ok::<(), phoenix_dgraph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dfs<'g, N> {
    graph: &'g DiGraph<N>,
    stack: Vec<NodeId>,
    visited: Vec<bool>,
}

impl<'g, N> Dfs<'g, N> {
    /// Creates a DFS over `graph` starting from `starts` (explored in order).
    pub fn new(graph: &'g DiGraph<N>, starts: impl IntoIterator<Item = NodeId>) -> Dfs<'g, N> {
        let mut stack: Vec<NodeId> = starts.into_iter().collect();
        stack.reverse();
        Dfs {
            graph,
            stack,
            visited: vec![false; graph.node_count()],
        }
    }
}

impl<N> Iterator for Dfs<'_, N> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while let Some(n) = self.stack.pop() {
            if !self.visited[n.index()] {
                self.visited[n.index()] = true;
                for &succ in self.graph.successors(n).iter().rev() {
                    if !self.visited[succ.index()] {
                        self.stack.push(succ);
                    }
                }
                return Some(n);
            }
        }
        None
    }
}

/// Breadth-first traversal from a set of start nodes.
///
/// Yields nodes level by level; each node appears once.
#[derive(Debug, Clone)]
pub struct Bfs<'g, N> {
    graph: &'g DiGraph<N>,
    queue: VecDeque<NodeId>,
    visited: Vec<bool>,
}

impl<'g, N> Bfs<'g, N> {
    /// Creates a BFS over `graph` starting from `starts`.
    pub fn new(graph: &'g DiGraph<N>, starts: impl IntoIterator<Item = NodeId>) -> Bfs<'g, N> {
        let mut visited = vec![false; graph.node_count()];
        let mut queue = VecDeque::new();
        for s in starts {
            if !visited[s.index()] {
                visited[s.index()] = true;
                queue.push_back(s);
            }
        }
        Bfs {
            graph,
            queue,
            visited,
        }
    }
}

impl<N> Iterator for Bfs<'_, N> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.queue.pop_front()?;
        for &succ in self.graph.successors(n) {
            if !self.visited[succ.index()] {
                self.visited[succ.index()] = true;
                self.queue.push_back(succ);
            }
        }
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// r -> a -> c, r -> b, b -> c, isolated d
    fn sample() -> (DiGraph<&'static str>, [NodeId; 5]) {
        let mut g = DiGraph::new();
        let r = g.add_node("r");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(r, a).unwrap();
        g.add_edge(r, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, c).unwrap();
        (g, [r, a, b, c, d])
    }

    #[test]
    fn dfs_preorder_deterministic() {
        let (g, [r, a, b, c, _]) = sample();
        let order: Vec<_> = Dfs::new(&g, [r]).collect();
        assert_eq!(order, vec![r, a, c, b]);
    }

    #[test]
    fn dfs_multiple_starts_no_duplicates() {
        let (g, [r, _, _, c, d]) = sample();
        let order: Vec<_> = Dfs::new(&g, [d, r, c]).collect();
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], d);
    }

    #[test]
    fn bfs_level_order() {
        let (g, [r, a, b, c, _]) = sample();
        let order: Vec<_> = Bfs::new(&g, [r]).collect();
        assert_eq!(order, vec![r, a, b, c]);
    }

    #[test]
    fn reachability_marks() {
        let (g, [r, _, _, _, d]) = sample();
        let mut reached: Vec<usize> = Dfs::new(&g, [r]).map(NodeId::index).collect();
        reached.sort_unstable();
        assert_eq!(reached, vec![0, 1, 2, 3]);
        assert_eq!(Dfs::new(&g, [r, d]).count(), g.node_count());
    }

    #[test]
    fn descendants_and_ancestors() {
        // Descendants are a walk's nodes past its start; ancestors are the
        // same walk over the reversed graph.
        let (g, [r, a, b, c, d]) = sample();
        let mut desc: Vec<NodeId> = Dfs::new(&g, [r]).skip(1).collect();
        desc.sort();
        assert_eq!(desc, vec![a, b, c]);
        let reversed = g.reversed();
        let mut anc: Vec<NodeId> = Dfs::new(&reversed, [c]).skip(1).collect();
        anc.sort();
        assert_eq!(anc, vec![r, a, b]);
        assert_eq!(Dfs::new(&reversed, [d]).count(), 1);
        assert_eq!(Dfs::new(&g, [d]).count(), 1);
    }

    #[test]
    fn traversal_on_cycle_terminates() {
        // x -> y -> z -> x
        let g = DiGraph::from_parts(["x", "y", "z"], [(0, 1), (1, 2), (2, 0)]).unwrap();
        let n0 = NodeId::from_index(0);
        assert_eq!(Dfs::new(&g, [n0]).count(), 3);
        assert_eq!(Bfs::new(&g, [n0]).count(), 3);
        assert_eq!(Dfs::new(&g.reversed(), [n0]).count(), 3);
    }
}
