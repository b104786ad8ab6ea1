//! Property tests: per-node `used` accounting is drift-free.
//!
//! `ClusterState::remove` recomputes `used` exactly from the surviving
//! pods instead of decrementing, so thousands of assign/remove cycles
//! with non-representable demands cannot accumulate f64 rounding error.
//! Without that, the `SortedNodes` remaining-capacity keys of a churned
//! ("warm") state diverge bitwise from a freshly-built ("cold") state
//! holding the very same pods — and warm/cold planning paths stop
//! agreeing on best-fit order.

use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources, SortedNodes};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn churned_state_matches_fresh_state_bit_for_bit(
        ops in proptest::collection::vec(
            (0usize..64, 0.01f64..4.0, any::<bool>()),
            200..1500,
        ),
        nodes in 2usize..8,
    ) {
        let capacity = Resources::new(64.0, 64.0);
        let mut state = ClusterState::homogeneous(nodes, capacity);
        let mut live: Vec<PodKey> = Vec::new();
        let mut next = 0u32;
        for (sel, demand, assign) in ops {
            if assign || live.is_empty() {
                let pod = PodKey::new(0, next, 0);
                next += 1;
                let node = NodeId::new((sel % nodes) as u32);
                // Deliberately drifty demands: products of decimals are
                // not exactly representable, so incremental +=/-= pairs
                // do not cancel.
                let d = Resources::new(demand * 0.1, demand * 0.3);
                if state.assign(pod, d, node).is_ok() {
                    live.push(pod);
                }
            } else {
                let pod = live.swap_remove(sel % live.len());
                state.remove(pod).unwrap();
            }
        }
        // The invariant check is exact (bitwise) since the drift fix.
        state.check_invariants().unwrap();

        // A fresh state replaying the surviving pods in pod-list order
        // must agree on every remaining-capacity bit — this is the
        // warm-vs-cold `SortedNodes` key agreement.
        let mut fresh = ClusterState::homogeneous(nodes, capacity);
        let mut churned_keys = SortedNodes::new();
        let mut fresh_keys = SortedNodes::new();
        for n in state.node_ids() {
            for p in state.pods_on(n) {
                fresh.assign(p, state.demand_of(p).unwrap(), n).unwrap();
            }
        }
        for n in state.node_ids() {
            prop_assert_eq!(
                state.remaining(n).cpu.to_bits(),
                fresh.remaining(n).cpu.to_bits(),
                "cpu drift on {}", n
            );
            prop_assert_eq!(
                state.remaining(n).mem.to_bits(),
                fresh.remaining(n).mem.to_bits(),
                "mem drift on {}", n
            );
            churned_keys.insert(n, state.remaining(n).scalar());
            fresh_keys.insert(n, fresh.remaining(n).scalar());
        }
        let order = |s: &SortedNodes| s.iter_desc().map(|(n, k)| (n, k.to_bits())).collect::<Vec<_>>();
        prop_assert_eq!(order(&churned_keys), order(&fresh_keys));

        // Draining every pod restores full capacity exactly.
        let all: Vec<PodKey> = state.assignments().map(|(p, _, _)| p).collect();
        for p in all {
            state.remove(p).unwrap();
        }
        for n in state.node_ids() {
            prop_assert_eq!(state.remaining(n).cpu.to_bits(), capacity.cpu.to_bits());
            prop_assert_eq!(state.remaining(n).mem.to_bits(), capacity.mem.to_bits());
        }
    }
}
