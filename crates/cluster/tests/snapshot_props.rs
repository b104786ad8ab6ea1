//! Property tests: the mutation journal's `restore_to` contract.
//!
//! A restore must leave the state **bit-identical** to a clone taken at
//! snapshot time — same `used` bits, same degrade factors, same pod-list
//! order, same `assignments()` iteration order — across arbitrary churn
//! mixing every mutation class (`assign`, `remove`, `fail_node`,
//! `restore_node`, `set_degrade` with its eviction cascade). This is the
//! contract the clone-free sweep/campaign/hunt fan-outs lean on: if it
//! holds, replacing clone-per-trial with restore-per-trial cannot change
//! a single output byte.

use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources};
use proptest::prelude::*;

/// One randomized mutation step. `sel` picks targets, `x` sizes demands
/// and degrade factors.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    sel: usize,
    x: f64,
}

fn ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..6, 0usize..64, 0.05f64..4.0).prop_map(|(kind, sel, x)| Op { kind, sel, x }),
        len,
    )
}

/// Applies one op, attempting invalid mutations too (errors are part of
/// the surface — a failed `assign` must leave no journal residue).
fn apply(state: &mut ClusterState, op: Op, next_pod: &mut u32) {
    let nodes = state.node_count();
    let node = NodeId::new((op.sel % nodes) as u32);
    match op.kind {
        0 | 1 => {
            let pod = PodKey::new(0, *next_pod, 0);
            *next_pod += 1;
            // Drifty demands on purpose (not exactly representable).
            let _ = state.assign(pod, Resources::new(op.x * 0.1, op.x * 0.3), node);
        }
        2 => {
            // Remove a pod that may or may not be assigned.
            let _ = state.remove(PodKey::new(0, (op.sel as u32) % (*next_pod).max(1), 0));
        }
        3 => {
            state.fail_node(node);
        }
        4 => {
            state.restore_node(node);
        }
        _ => {
            // Factors below 1.0 trigger the eviction cascade on loaded
            // nodes; exactly 1.0 exercises the restore path.
            let factor = if op.sel.is_multiple_of(5) {
                1.0
            } else {
                op.x / 4.0
            };
            state.set_degrade(node, factor);
        }
    }
}

fn assignment_bits(state: &ClusterState) -> Vec<(PodKey, u32, u64, u64)> {
    state
        .assignments()
        .map(|(p, n, d)| (p, n.index() as u32, d.cpu.to_bits(), d.mem.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Churn → snapshot → more churn → restore ≡ the snapshot-time clone.
    #[test]
    fn restore_is_bit_exact_vs_clone(
        setup in ops(20..120),
        churn in ops(20..200),
        nodes in 2usize..8,
    ) {
        let mut state = ClusterState::homogeneous(nodes, Resources::new(16.0, 16.0));
        let mut next_pod = 0u32;
        for op in setup {
            apply(&mut state, op, &mut next_pod);
        }

        let reference = state.clone();
        let ref_assignments = assignment_bits(&reference);
        let snap = state.snapshot();
        for op in churn {
            apply(&mut state, op, &mut next_pod);
        }
        state.restore_to(&snap);

        prop_assert!(state.bitwise_eq(&reference), "restore drifted from clone");
        // Iteration order is part of the contract, not just contents.
        prop_assert_eq!(assignment_bits(&state), ref_assignments);
        for n in state.node_ids() {
            prop_assert_eq!(
                state.degrade_factor(n).to_bits(),
                reference.degrade_factor(n).to_bits(),
                "degrade factor drifted on {}", n
            );
        }
        state.check_invariants().unwrap();

        // The snapshot survives its own restore: a second churn/restore
        // round against the same snapshot is the per-trial loop shape.
        let mut extra = 0u32;
        apply(&mut state, Op { kind: 0, sel: 1, x: 1.5 }, &mut next_pod);
        apply(&mut state, Op { kind: 3, sel: 0, x: 1.0 }, &mut extra);
        state.restore_to(&snap);
        prop_assert!(state.bitwise_eq(&reference));
    }

    /// Nested snapshots unwind in LIFO order: restoring to the inner one
    /// recovers the inner clone, then restoring to the outer one recovers
    /// the outer clone — and the outer snapshot is still valid after the
    /// inner restore.
    #[test]
    fn nested_snapshots_unwind_in_order(
        setup in ops(10..80),
        mid in ops(10..80),
        tail in ops(10..80),
        nodes in 2usize..6,
    ) {
        let mut state = ClusterState::homogeneous(nodes, Resources::new(16.0, 16.0));
        let mut next_pod = 0u32;
        for op in setup {
            apply(&mut state, op, &mut next_pod);
        }
        let outer_ref = state.clone();
        let outer = state.snapshot();

        for op in mid {
            apply(&mut state, op, &mut next_pod);
        }
        let inner_ref = state.clone();
        let inner = state.snapshot();

        for op in tail {
            apply(&mut state, op, &mut next_pod);
        }

        state.restore_to(&inner);
        prop_assert!(state.bitwise_eq(&inner_ref), "inner restore drifted");
        state.check_invariants().unwrap();

        state.restore_to(&outer);
        prop_assert!(state.bitwise_eq(&outer_ref), "outer restore drifted");
        prop_assert_eq!(assignment_bits(&state), assignment_bits(&outer_ref));
        state.check_invariants().unwrap();
    }
}
