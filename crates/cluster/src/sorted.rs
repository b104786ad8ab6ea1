//! An ordered multiset over node remaining-capacity, the Rust counterpart
//! of the Python `SortedList` the reference implementation uses for
//! faster-than-linear best-fit queries.

use std::collections::BTreeSet;
use std::fmt;

use crate::state::NodeId;

/// A total-ordering wrapper for `f64` keys.
///
/// Ordering is [`f64::total_cmp`], so even a degenerate NaN key (a
/// corrupted capacity mid-incident) orders deterministically — positive
/// NaN above `+∞` — instead of panicking the scheduler. Note that
/// `total_cmp` distinguishes `-0.0 < +0.0`; capacities are non-negative,
/// so in practice keys behave exactly like the old finite-only ordering.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wraps a float.
    pub fn new(v: f64) -> OrderedF64 {
        OrderedF64(v)
    }

    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &OrderedF64) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &OrderedF64) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &OrderedF64) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Ordered multiset of `(remaining capacity, node)` supporting O(log n)
/// best-fit (smallest remaining ≥ demand) and worst-fit (largest remaining)
/// queries, with iteration in either direction.
///
/// Keys are kept internally so updates only need the node id.
///
/// # Examples
///
/// ```
/// use phoenix_cluster::{NodeId, SortedNodes};
///
/// let mut s = SortedNodes::new();
/// s.insert(NodeId::new(0), 4.0);
/// s.insert(NodeId::new(1), 8.0);
/// s.insert(NodeId::new(2), 6.0);
/// assert_eq!(s.best_fit_candidates(5.0).next(), Some(NodeId::new(2)));
/// assert_eq!(s.iter_desc().next(), Some((NodeId::new(1), 8.0)));
/// s.insert(NodeId::new(2), 1.0);
/// assert_eq!(s.best_fit_candidates(5.0).next(), Some(NodeId::new(1)));
/// s.remove(NodeId::new(1));
/// assert_eq!(s.best_fit_candidates(5.0).next(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SortedNodes {
    set: BTreeSet<(OrderedF64, NodeId)>,
    key_of: Vec<Option<f64>>,
}

impl SortedNodes {
    /// Creates an empty set.
    pub fn new() -> SortedNodes {
        SortedNodes::default()
    }

    /// Inserts (or re-keys) `node` with the given remaining capacity.
    pub fn insert(&mut self, node: NodeId, remaining: f64) {
        let idx = node.index();
        if idx >= self.key_of.len() {
            self.key_of.resize(idx + 1, None);
        }
        if let Some(old) = self.key_of[idx] {
            self.set.remove(&(OrderedF64::new(old), node));
        }
        self.key_of[idx] = Some(remaining);
        self.set.insert((OrderedF64::new(remaining), node));
    }

    /// Stops tracking `node` (a no-op when it is not tracked).
    pub fn remove(&mut self, node: NodeId) {
        if let Some(old) = self.key_of.get_mut(node.index()).and_then(Option::take) {
            self.set.remove(&(OrderedF64::new(old), node));
        }
    }

    /// Makes the tracked nodes and keys exactly `keys`, one entry per node
    /// id from 0 (`None`: not tracked), touching only the nodes whose key
    /// bits differ: O(nodes) compares plus O(log n) per re-keyed node. A
    /// set synced from empty equals one built by [`insert`] in any order.
    ///
    /// [`insert`]: SortedNodes::insert
    pub fn sync(&mut self, keys: impl ExactSizeIterator<Item = Option<f64>>) {
        let nodes = keys.len();
        for i in nodes..self.key_of.len() {
            self.remove(NodeId::new(i as u32));
        }
        self.key_of.resize(nodes, None);
        for (i, key) in keys.enumerate() {
            if self.key_of[i].map(f64::to_bits) != key.map(f64::to_bits) {
                let node = NodeId::new(i as u32);
                match key {
                    Some(key) => self.insert(node, key),
                    None => self.remove(node),
                }
            }
        }
    }

    /// All candidates ≥ `demand`, smallest remaining first (for
    /// two-dimensional fit checks that may reject the first candidate).
    pub fn best_fit_candidates(&self, demand: f64) -> impl Iterator<Item = NodeId> + '_ {
        self.set
            .range((OrderedF64::new(demand - 1e-9), NodeId::new(0))..)
            .map(|&(_, n)| n)
    }

    /// Iterates nodes from most to least remaining capacity.
    pub fn iter_desc(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.set.iter().rev().map(|&(k, n)| (n, k.get()))
    }

    /// Iterates tracked nodes in ascending node-id order.
    ///
    /// This is the first-fit scan order: O(1) per node visited, so a
    /// caller can stop at the first fit instead of materializing every
    /// candidate.
    pub fn iter_by_id(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.key_of
            .iter()
            .enumerate()
            .filter_map(|(i, k)| k.map(|k| (NodeId::new(i as u32), k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The node with the largest remaining capacity.
    fn worst_fit(s: &SortedNodes) -> Option<NodeId> {
        s.iter_desc().next().map(|(node, _)| node)
    }

    #[test]
    fn best_fit_picks_tightest() {
        let mut s = SortedNodes::new();
        s.insert(n(0), 10.0);
        s.insert(n(1), 3.0);
        s.insert(n(2), 5.0);
        assert_eq!(s.best_fit_candidates(4.0).next(), Some(n(2)));
        assert_eq!(s.best_fit_candidates(0.5).next(), Some(n(1)));
        assert_eq!(s.best_fit_candidates(11.0).next(), None);
    }

    #[test]
    fn exact_fit_included() {
        let mut s = SortedNodes::new();
        s.insert(n(0), 4.0);
        assert_eq!(s.best_fit_candidates(4.0).next(), Some(n(0)));
    }

    #[test]
    fn update_rekeys() {
        let mut s = SortedNodes::new();
        s.insert(n(0), 4.0);
        s.insert(n(1), 9.0);
        s.insert(n(1), 1.0);
        assert_eq!(s.best_fit_candidates(2.0).next(), Some(n(0)));
        let by_id: Vec<_> = s.iter_by_id().collect();
        assert_eq!(by_id, vec![(n(0), 4.0), (n(1), 1.0)]);
    }

    #[test]
    fn sync_matches_a_fresh_build() {
        let mut s = SortedNodes::new();
        s.insert(n(0), 4.0);
        s.insert(n(1), 9.0);
        s.insert(n(5), 2.0);
        // Node 1 leaves, node 2 joins, node 0 re-keys, node 3 joins and
        // node 5 drops off the end.
        let keys = [Some(-0.0), None, Some(7.0), Some(1.0)];
        s.sync(keys.into_iter());
        let mut fresh = SortedNodes::new();
        for (i, key) in keys.iter().enumerate().rev() {
            if let Some(key) = *key {
                fresh.insert(n(i as u32), key);
            }
        }
        let bits = |s: &SortedNodes| {
            let by_id = s.iter_by_id().map(|(n, k)| (n, k.to_bits()));
            let desc = s.iter_desc().map(|(n, k)| (n, k.to_bits()));
            (by_id.collect::<Vec<_>>(), desc.collect::<Vec<_>>())
        };
        assert_eq!(bits(&s), bits(&fresh));
        assert_eq!(s.iter_by_id().next(), Some((n(0), -0.0)));
        s.remove(n(9));
        assert_eq!(bits(&s), bits(&fresh));
    }

    #[test]
    fn duplicate_keys_coexist() {
        let mut s = SortedNodes::new();
        s.insert(n(0), 5.0);
        s.insert(n(1), 5.0);
        s.insert(n(2), 5.0);
        let all: Vec<_> = s.best_fit_candidates(5.0).collect();
        assert_eq!(all, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn iteration_orders() {
        let mut s = SortedNodes::new();
        s.insert(n(0), 2.0);
        s.insert(n(1), 8.0);
        s.insert(n(2), 4.0);
        let desc: Vec<_> = s.iter_desc().map(|(node, _)| node).collect();
        assert_eq!(desc, vec![n(1), n(2), n(0)]);
        assert_eq!(worst_fit(&s), Some(n(1)));
    }

    #[test]
    fn id_order_iteration_skips_untracked() {
        let mut s = SortedNodes::new();
        s.insert(n(3), 2.0);
        s.insert(n(0), 8.0);
        let by_id: Vec<_> = s.iter_by_id().collect();
        assert_eq!(by_id, vec![(n(0), 8.0), (n(3), 2.0)]);
    }

    #[test]
    fn nan_key_is_deterministic_not_fatal() {
        // A corrupted capacity must degrade deterministically: the NaN key
        // sorts above +∞ (total order), stays re-keyable, and never panics.
        let mut s = SortedNodes::new();
        s.insert(n(0), f64::NAN);
        s.insert(n(1), 4.0);
        assert_eq!(worst_fit(&s), Some(n(0)));
        assert_eq!(s.best_fit_candidates(2.0).next(), Some(n(1)));
        s.insert(n(0), 1.0);
        assert_eq!(worst_fit(&s), Some(n(1)));
        let by_id: Vec<_> = s.iter_by_id().collect();
        assert_eq!(by_id, vec![(n(0), 1.0), (n(1), 4.0)]);
    }
}
