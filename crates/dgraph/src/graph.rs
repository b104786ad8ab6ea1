use std::fmt;

use crate::GraphError;

/// Identifier of a node inside a [`DiGraph`].
///
/// Ids are dense indices assigned in insertion order; they are only
/// meaningful for the graph that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the id as a dense `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// The id is only valid for graphs with more than `index` nodes; passing
    /// it to a graph that is too small yields [`GraphError::NodeOutOfBounds`].
    #[inline]
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// A directed graph with per-node payloads, stored as adjacency lists.
///
/// Both outgoing and incoming adjacency are maintained so that predecessor
/// queries — which the Phoenix planner issues constantly — are O(in-degree).
/// Parallel edges are collapsed (adding an existing edge is a no-op) and
/// self-loops are rejected, matching how microservice dependency graphs are
/// mined from call graphs.
///
/// # Examples
///
/// ```
/// use phoenix_dgraph::DiGraph;
///
/// let mut g = DiGraph::new();
/// let a = g.add_node("api");
/// let b = g.add_node("backend");
/// g.add_edge(a, b)?;
/// assert_eq!(g.successors(a), &[b]);
/// assert_eq!(g[b], "backend");
/// # Ok::<(), phoenix_dgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiGraph<N> {
    payloads: Vec<N>,
    out_adj: Vec<Vec<NodeId>>,
    in_adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl<N> DiGraph<N> {
    /// Creates an empty graph.
    pub fn new() -> DiGraph<N> {
        DiGraph {
            payloads: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> DiGraph<N> {
        DiGraph {
            payloads: Vec::with_capacity(nodes),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
            edge_count: 0,
        }
    }

    /// Adds a node carrying `payload` and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.payloads.len() as u32);
        self.payloads.push(payload);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds the directed edge `from -> to`.
    ///
    /// Adding an edge twice is a no-op (returns `Ok(false)`); a fresh edge
    /// returns `Ok(true)`.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfBounds`] if either endpoint does not exist, and
    /// [`GraphError::SelfLoop`] if `from == to`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<bool, GraphError> {
        self.check(from)?;
        self.check(to)?;
        if from == to {
            return Err(GraphError::SelfLoop { id: from.index() });
        }
        if self.out_adj[from.index()].contains(&to) {
            return Ok(false);
        }
        self.out_adj[from.index()].push(to);
        self.in_adj[to.index()].push(from);
        self.edge_count += 1;
        Ok(true)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.payloads.len()
    }

    /// Number of (deduplicated) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Returns `true` when `id` names a node of this graph.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.payloads.len()
    }

    /// Borrow the payload of `id`, or `None` when out of bounds.
    #[inline]
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.payloads.get(id.index())
    }

    /// Direct successors (callees) of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.out_adj[id.index()]
    }

    /// Direct predecessors (callers) of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn predecessors(&self, id: NodeId) -> &[NodeId] {
        &self.in_adj[id.index()]
    }

    /// Out-degree of `id`.
    #[inline]
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out_adj[id.index()].len()
    }

    /// In-degree of `id`.
    #[inline]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_adj[id.index()].len()
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        (0..self.payloads.len() as u32).map(NodeId)
    }

    /// Iterator over `(id, &payload)` pairs in insertion order.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = (NodeId, &N)> + ExactSizeIterator {
        self.payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (NodeId(i as u32), p))
    }

    /// Iterator over all edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out_adj
            .iter()
            .enumerate()
            .flat_map(|(i, outs)| outs.iter().map(move |&t| (NodeId(i as u32), t)))
    }

    /// Nodes with no incoming edge — the *entry microservices* in a DG.
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.in_degree(n) == 0)
    }

    /// Builds a new graph with the same shape and payloads mapped by `f`.
    pub fn map<M>(&self, mut f: impl FnMut(NodeId, &N) -> M) -> DiGraph<M> {
        DiGraph {
            payloads: self
                .payloads
                .iter()
                .enumerate()
                .map(|(i, p)| f(NodeId(i as u32), p))
                .collect(),
            out_adj: self.out_adj.clone(),
            in_adj: self.in_adj.clone(),
            edge_count: self.edge_count,
        }
    }

    fn check(&self, id: NodeId) -> Result<(), GraphError> {
        if self.contains(id) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                id: id.index(),
                len: self.node_count(),
            })
        }
    }
}

impl<N> std::ops::Index<NodeId> for DiGraph<N> {
    type Output = N;

    fn index(&self, id: NodeId) -> &N {
        &self.payloads[id.index()]
    }
}

impl<N> std::ops::IndexMut<NodeId> for DiGraph<N> {
    fn index_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.payloads[id.index()]
    }
}

impl<N> FromIterator<N> for DiGraph<N> {
    /// Collects payloads into an edge-less graph.
    fn from_iter<T: IntoIterator<Item = N>>(iter: T) -> DiGraph<N> {
        let mut g = DiGraph::new();
        for p in iter {
            g.add_node(p);
        }
        g
    }
}

/// Constructors and transforms only the tests use.
#[cfg(test)]
impl<N> DiGraph<N> {
    /// Returns the graph with every edge reversed (payloads cloned).
    fn reversed(&self) -> DiGraph<N>
    where
        N: Clone,
    {
        DiGraph {
            payloads: self.payloads.clone(),
            out_adj: self.in_adj.clone(),
            in_adj: self.out_adj.clone(),
            edge_count: self.edge_count,
        }
    }

    /// Induced subgraph over `keep` (ids into `self`).
    ///
    /// Returns the subgraph and, for each old node id, the new id it was
    /// mapped to (or `None` when dropped). Duplicate ids in `keep` are
    /// collapsed; edges between kept nodes are preserved.
    fn induced_subgraph(&self, keep: &[NodeId]) -> (DiGraph<N>, Vec<Option<NodeId>>)
    where
        N: Clone,
    {
        let mut remap: Vec<Option<NodeId>> = vec![None; self.node_count()];
        let mut sub = DiGraph::with_capacity(keep.len());
        for &old in keep {
            if old.index() < self.node_count() && remap[old.index()].is_none() {
                remap[old.index()] = Some(sub.add_node(self.payloads[old.index()].clone()));
            }
        }
        for (from, to) in self.edges() {
            if let (Some(nf), Some(nt)) = (remap[from.index()], remap[to.index()]) {
                // Both endpoints kept: the edge survives. Safe to unwrap —
                // endpoints were just added and are distinct.
                let _ = sub.add_edge(nf, nt);
            }
        }
        (sub, remap)
    }

    /// Constructs a graph from `n` payloads and an edge list.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from [`DiGraph::add_edge`].
    pub(crate) fn from_parts(
        payloads: impl IntoIterator<Item = N>,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<DiGraph<N>, GraphError> {
        let mut g = DiGraph::new();
        for p in payloads {
            g.add_node(p);
        }
        for (f, t) in edges {
            g.add_edge(NodeId::from_index(f), NodeId::from_index(t))?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn add_nodes_and_edges() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.successors(a), &[b, c]);
        assert_eq!(g.predecessors(d), &[b, c]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert!(g.successors(a).contains(&b));
        assert!(!g.successors(b).contains(&a));
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let mut g = DiGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(2);
        assert!(g.add_edge(a, b).unwrap());
        assert!(!g.add_edge(a, b).unwrap());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(a).len(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop { id: 0 }));
    }

    #[test]
    fn out_of_bounds_edge_rejected() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let ghost = NodeId::from_index(7);
        assert_eq!(
            g.add_edge(a, ghost),
            Err(GraphError::NodeOutOfBounds { id: 7, len: 1 })
        );
    }

    #[test]
    fn sources_and_sinks() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.sources().collect::<Vec<_>>(), vec![a]);
        let sinks = g.node_ids().filter(|&n| g.out_degree(n) == 0);
        assert_eq!(sinks.collect::<Vec<_>>(), vec![d]);
    }

    #[test]
    fn reversed_swaps_adjacency() {
        let (g, [a, b, _, d]) = diamond();
        let r = g.reversed();
        assert_eq!(r.sources().collect::<Vec<_>>(), vec![d]);
        assert!(r.successors(b).contains(&a));
        assert_eq!(r.edge_count(), g.edge_count());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let (g, [a, b, _, d]) = diamond();
        let (sub, remap) = g.induced_subgraph(&[a, b, d]);
        assert_eq!(sub.node_count(), 3);
        // a->b survives, b->d survives, a->c and c->d dropped with c.
        assert_eq!(sub.edge_count(), 2);
        assert!(remap[2].is_none());
        let (na, nb) = (remap[0].unwrap(), remap[1].unwrap());
        assert!(sub.successors(na).contains(&nb));
        assert_eq!(sub[na], "a");
    }

    #[test]
    fn induced_subgraph_dedups_keep_list() {
        let (g, [a, b, ..]) = diamond();
        let (sub, _) = g.induced_subgraph(&[a, a, b]);
        assert_eq!(sub.node_count(), 2);
    }

    #[test]
    fn map_preserves_shape() {
        let (g, _) = diamond();
        let m = g.map(|id, s| format!("{id}:{s}"));
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.edge_count(), 4);
        assert_eq!(m[NodeId::from_index(0)], "n0:a");
    }

    #[test]
    fn from_parts_roundtrip() {
        let g = DiGraph::from_parts(["x", "y", "z"], [(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            vec![
                (NodeId::from_index(0), NodeId::from_index(1)),
                (NodeId::from_index(1), NodeId::from_index(2))
            ]
        );
    }

    #[test]
    fn collect_payloads() {
        let g: DiGraph<i32> = (0..5).collect();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn index_ops() {
        let (mut g, [a, ..]) = diamond();
        assert_eq!(g[a], "a");
        g[a] = "api";
        assert_eq!(g.node(a), Some(&"api"));
        assert!(g.node(NodeId::from_index(99)).is_none());
    }
}
