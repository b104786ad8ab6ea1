//! Random-DAG generators.
//!
//! AdaptLab synthesizes microservice dependency graphs that match the shape
//! statistics the paper reports for the Alibaba 2021 traces: shallow layered
//! DAGs with a handful of entry services, strong fan-out hubs, and a large
//! majority (74–82 %) of *single-upstream* stub services. The generators
//! here produce those shapes; calibration to the trace statistics happens in
//! `phoenix-adaptlab`.

use rand::Rng;

use crate::{DiGraph, NodeId};

/// Configuration for [`attachment_dag`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttachmentConfig {
    /// Total number of nodes (≥ 1).
    pub nodes: usize,
    /// Number of entry (source) nodes grown first (≥ 1, ≤ `nodes`).
    pub entry_nodes: usize,
    /// Probability that a new node attaches to more than one parent.
    ///
    /// The complement is the *single-upstream* fraction the paper measures
    /// (74 % for the top-4 Alibaba apps, 82 % across all 18).
    pub multi_parent_prob: f64,
    /// Upper bound on extra parents for multi-parent nodes.
    pub max_extra_parents: usize,
    /// Preferential-attachment strength: 0.0 picks parents uniformly, 1.0
    /// always prefers high-out-degree hubs.
    pub hub_bias: f64,
}

impl Default for AttachmentConfig {
    fn default() -> AttachmentConfig {
        AttachmentConfig {
            nodes: 50,
            entry_nodes: 2,
            multi_parent_prob: 0.2,
            max_extra_parents: 3,
            hub_bias: 0.6,
        }
    }
}

/// Grows a DAG by preferential attachment.
///
/// Nodes are added one at a time; each new node picks one parent among the
/// existing nodes (biased towards hubs by `hub_bias`), and with probability
/// `multi_parent_prob` up to `max_extra_parents` additional parents. Because
/// edges always point from an older node to a newer one, the result is a DAG
/// and node ids are a valid topological order. Payloads are the node
/// indices.
///
/// # Panics
///
/// Panics if `nodes == 0` or `entry_nodes == 0` or `entry_nodes > nodes`.
pub fn attachment_dag<R: Rng + ?Sized>(rng: &mut R, cfg: &AttachmentConfig) -> DiGraph<usize> {
    assert!(cfg.nodes >= 1, "nodes must be >= 1");
    assert!(
        cfg.entry_nodes >= 1 && cfg.entry_nodes <= cfg.nodes,
        "entry_nodes must be in 1..=nodes"
    );
    let mut g = DiGraph::with_capacity(cfg.nodes);
    for i in 0..cfg.nodes.min(cfg.entry_nodes) {
        g.add_node(i);
    }
    for i in cfg.entry_nodes..cfg.nodes {
        let id = g.add_node(i);
        let parent = pick_parent(rng, &g, id, cfg.hub_bias);
        let _ = g.add_edge(parent, id);
        if rng.gen_bool(cfg.multi_parent_prob) && cfg.max_extra_parents > 0 {
            let extra = rng.gen_range(1..=cfg.max_extra_parents);
            for _ in 0..extra {
                let p = pick_parent(rng, &g, id, cfg.hub_bias);
                let _ = g.add_edge(p, id);
            }
        }
    }
    g
}

fn pick_parent<R: Rng + ?Sized>(
    rng: &mut R,
    g: &DiGraph<usize>,
    new_node: NodeId,
    hub_bias: f64,
) -> NodeId {
    let candidates = new_node.index();
    debug_assert!(candidates > 0);
    if rng.gen_bool(hub_bias.clamp(0.0, 1.0)) {
        // Preferential: weight each candidate by out_degree + 1.
        let total: usize = (0..candidates)
            .map(|i| g.out_degree(NodeId::from_index(i)) + 1)
            .sum();
        let mut ticket = rng.gen_range(0..total);
        for i in 0..candidates {
            let w = g.out_degree(NodeId::from_index(i)) + 1;
            if ticket < w {
                return NodeId::from_index(i);
            }
            ticket -= w;
        }
        NodeId::from_index(candidates - 1)
    } else {
        NodeId::from_index(rng.gen_range(0..candidates))
    }
}

/// Fraction of non-source nodes that have exactly one caller.
///
/// This is the paper's "single-upstream stub microservice" statistic (§3.2):
/// 74 % for the top-4 Alibaba applications and 82 % across all 18.
pub fn single_upstream_fraction<N>(g: &DiGraph<N>) -> f64 {
    let non_sources: Vec<NodeId> = g.node_ids().filter(|&n| g.in_degree(n) > 0).collect();
    if non_sources.is_empty() {
        return 0.0;
    }
    let singles = non_sources.iter().filter(|&&n| g.in_degree(n) == 1).count();
    singles as f64 / non_sources.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::topo_sort;
    use crate::traversal::Dfs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Generators only the tests below use.

    /// Configuration for [`layered_dag`].
    #[derive(Debug, Clone, PartialEq)]
    struct LayeredConfig {
        /// Width of each layer, front (entry) to back (leaves). All ≥ 1.
        layer_widths: Vec<usize>,
        /// Probability of an edge between a node and each node of the next layer.
        edge_prob: f64,
        /// Probability of a skip edge to the layer after next.
        skip_prob: f64,
    }

    impl Default for LayeredConfig {
        fn default() -> LayeredConfig {
            LayeredConfig {
                layer_widths: vec![2, 4, 6, 4],
                edge_prob: 0.4,
                skip_prob: 0.05,
            }
        }
    }

    /// Builds a layered DAG: microservice tiers (frontend → mid → backend).
    ///
    /// Every non-entry node is guaranteed at least one parent in an earlier
    /// layer, so the entry layer reaches the entire graph. Payloads are
    /// `(layer, index_in_layer)`.
    ///
    /// # Panics
    ///
    /// Panics if `layer_widths` is empty or contains a zero width.
    fn layered_dag<R: Rng + ?Sized>(rng: &mut R, cfg: &LayeredConfig) -> DiGraph<(usize, usize)> {
        assert!(!cfg.layer_widths.is_empty(), "need at least one layer");
        assert!(
            cfg.layer_widths.iter().all(|&w| w > 0),
            "layer widths must be positive"
        );
        let mut g = DiGraph::new();
        let mut layers: Vec<Vec<NodeId>> = Vec::with_capacity(cfg.layer_widths.len());
        for (li, &w) in cfg.layer_widths.iter().enumerate() {
            let layer: Vec<NodeId> = (0..w).map(|i| g.add_node((li, i))).collect();
            layers.push(layer);
        }
        for li in 1..layers.len() {
            for &v in &layers[li] {
                let mut has_parent = false;
                for &u in &layers[li - 1] {
                    if rng.gen_bool(cfg.edge_prob) {
                        let _ = g.add_edge(u, v);
                        has_parent = true;
                    }
                }
                if li >= 2 {
                    for &u in &layers[li - 2] {
                        if rng.gen_bool(cfg.skip_prob) {
                            let _ = g.add_edge(u, v);
                            has_parent = true;
                        }
                    }
                }
                if !has_parent {
                    let u = layers[li - 1][rng.gen_range(0..layers[li - 1].len())];
                    let _ = g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Uniform random tree with `n` nodes rooted at node 0; payloads are indices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn random_tree<R: Rng + ?Sized>(rng: &mut R, n: usize) -> DiGraph<usize> {
        assert!(n >= 1, "a tree needs at least one node");
        let mut g = DiGraph::with_capacity(n);
        g.add_node(0);
        for i in 1..n {
            let id = g.add_node(i);
            let parent = NodeId::from_index(rng.gen_range(0..i));
            let _ = g.add_edge(parent, id);
        }
        g
    }

    #[test]
    fn attachment_dag_is_dag_and_connected_from_sources() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = attachment_dag(
            &mut rng,
            &AttachmentConfig {
                nodes: 200,
                entry_nodes: 3,
                ..AttachmentConfig::default()
            },
        );
        assert_eq!(g.node_count(), 200);
        assert!(topo_sort(&g).is_ok());
        assert_eq!(Dfs::new(&g, g.sources()).count(), g.node_count());
    }

    #[test]
    fn attachment_single_upstream_tracks_config() {
        let mut rng = StdRng::seed_from_u64(42);
        let low = attachment_dag(
            &mut rng,
            &AttachmentConfig {
                nodes: 2000,
                multi_parent_prob: 0.18,
                ..AttachmentConfig::default()
            },
        );
        let frac = single_upstream_fraction(&low);
        assert!(
            (0.75..=0.90).contains(&frac),
            "single-upstream fraction {frac} out of expected band"
        );
    }

    #[test]
    fn attachment_minimum_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = attachment_dag(
            &mut rng,
            &AttachmentConfig {
                nodes: 1,
                entry_nodes: 1,
                ..AttachmentConfig::default()
            },
        );
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn layered_dag_every_non_entry_has_parent() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = layered_dag(
            &mut rng,
            &LayeredConfig {
                layer_widths: vec![3, 5, 8, 5, 2],
                edge_prob: 0.3,
                skip_prob: 0.1,
            },
        );
        assert!(topo_sort(&g).is_ok());
        assert_eq!(g.node_count(), 23);
        for id in g.node_ids() {
            let (layer, _) = g[id];
            if layer > 0 {
                assert!(g.in_degree(id) >= 1, "{id} in layer {layer} is orphaned");
            }
        }
        assert_eq!(Dfs::new(&g, g.sources()).count(), g.node_count());
    }

    #[test]
    fn random_tree_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_tree(&mut rng, 64);
        assert!(topo_sort(&g).is_ok());
        assert_eq!(g.edges().count(), 63);
        // Every non-root has exactly one parent.
        assert_eq!(single_upstream_fraction(&g), 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            let mut rng = StdRng::seed_from_u64(99);
            attachment_dag(&mut rng, &AttachmentConfig::default())
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }
}
