//! Property tests: the `snapshot` / `restore_to` contract.
//!
//! A snapshot is a copy-on-write clone, and a restore must leave the state
//! **bit-identical** to a clone taken at snapshot time — same `used` bits,
//! same degrade factors, same pod-list order, same `assignments()`
//! iteration order — across arbitrary churn mixing every mutation class
//! (`assign`, `remove`, `fail_node`, `restore_node`, `set_degrade` with
//! its eviction cascade), in any order and into any state. This is the
//! contract the clone-free sweep/campaign/hunt fan-outs lean on: if it
//! holds, replacing clone-per-trial with restore-per-trial cannot change
//! a single output byte.
//!
//! A clone shares the pod table, the node pod lists and the pages of the
//! per-pod column copy-on-write, so the last two properties mutate
//! either side of a clone and hold both sides to states that never
//! shared anything, the first of them at the page edges.

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
/// the surface — a failed `assign` must leave no trace).
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

/// A state built from scratch by `script` (shares nothing), and the
/// next unused pod index.
fn built(nodes: usize, script: &[Op]) -> (ClusterState, u32) {
    let mut state = ClusterState::homogeneous(nodes, Resources::new(16.0, 16.0));
    let mut next_pod = 0u32;
    for &op in script {
        apply(&mut state, op, &mut next_pod);
    }
    (state, next_pod)
}

/// `churn` with a snapshot before op `snap_at` that is restored after
/// the last op (dropping every pod first interned after it), then `tail`.
fn churn_and_rewind(
    state: &mut ClusterState,
    churn: &[Op],
    snap_at: usize,
    tail: &[Op],
    next_pod: &mut u32,
) {
    let mut snap = None;
    for (i, &op) in churn.iter().enumerate() {
        if i == snap_at.min(churn.len() - 1) {
            snap = Some(state.snapshot());
        }
        apply(state, op, next_pod);
    }
    state.restore_to(&snap.expect("churn is not empty"));
    for &op in tail {
        apply(state, op, next_pod);
    }
}

/// Pods per page of `ClusterState`'s per-pod column (a private
/// constant of `cluster::state`, whose unit test
/// `pod_pages_are_the_size_snapshot_props_walks` holds it to this value).
const PAGE: usize = 256;

/// `pods` pods interned and running on four roomy nodes, round robin.
fn filled(pods: usize) -> ClusterState {
    let mut state = ClusterState::homogeneous(4, Resources::new(1e6, 1e6));
    for i in 0..pods {
        let demand = Resources::new(0.05 + 0.1 * (i % 7) as f64, 0.3);
        let node = NodeId::new((i % 4) as u32);
        state
            .assign(PodKey::new(1, i as u32, 0), demand, node)
            .unwrap();
    }
    state
}

/// One step of churn over a [`filled`] state of `pods` pods: kind 0
/// assigns a never-seen pod, 1 removes the filled pod at share `at` of
/// the filled range (first and last pages included), 2 assigns it back,
/// 3 migrates it, 4 fails a node and 5 restores one.
fn apply_paged(
    state: &mut ClusterState,
    pods: usize,
    (kind, at, sel): (u8, f64, u32),
    next: &mut u32,
) {
    let node = NodeId::new(sel % 4);
    let known = PodKey::new(1, (at * pods as f64) as u32, 0);
    match kind {
        0 => {
            let _ = state.assign(PodKey::new(2, *next, 0), Resources::new(0.7, 0.1), node);
            *next += 1;
        }
        1 => _ = state.remove(known),
        2 => _ = state.assign(known, Resources::new(0.3, 0.2), node),
        3 => _ = state.migrate(known, node),
        4 => _ = state.fail_node(node),
        _ => state.restore_node(node),
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

    /// Nested snapshots restore in any order: the inner one recovers the
    /// inner clone, then the outer one the outer clone, then the inner one
    /// again the inner clone; and the outer one, restored into a clone
    /// that churned on, recovers the outer clone there too.
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

        for &op in &mid {
            apply(&mut state, op, &mut next_pod);
        }
        let inner_ref = state.clone();
        let inner = state.snapshot();

        for &op in &tail {
            apply(&mut state, op, &mut next_pod);
        }

        state.restore_to(&inner);
        prop_assert!(state.bitwise_eq(&inner_ref), "inner restore drifted");
        state.check_invariants().unwrap();

        state.restore_to(&outer);
        prop_assert!(state.bitwise_eq(&outer_ref), "outer restore drifted");
        prop_assert_eq!(assignment_bits(&state), assignment_bits(&outer_ref));
        state.check_invariants().unwrap();

        state.restore_to(&inner);
        prop_assert!(state.bitwise_eq(&inner_ref), "inner after outer drifted");
        prop_assert_eq!(assignment_bits(&state), assignment_bits(&inner_ref));
        state.check_invariants().unwrap();

        let mut other = state.clone();
        for &op in tail.iter().chain(&mid) {
            apply(&mut other, op, &mut next_pod);
        }
        other.restore_to(&outer);
        prop_assert!(other.bitwise_eq(&outer_ref), "restore into a clone drifted");
        prop_assert_eq!(assignment_bits(&other), assignment_bits(&outer_ref));
        other.check_invariants().unwrap();
    }

    /// Page edges: with 0, P−1, P, P+1 and 3P+1 pods interned for page
    /// size P, churn on either side of a clone — new pods opening a
    /// page, pods in the first and last pages removed, re-booked and
    /// migrated, nodes failed and restored — leaves the other side equal
    /// to a state that never shared a page, the churned side equal to
    /// one that ran the same script unshared, and a restore of the
    /// pre-churn snapshot bit-exact.
    #[test]
    fn page_edges_hold_under_clone_churn_and_restore(
        pods in (0usize..5).prop_map(|i| [0, PAGE - 1, PAGE, PAGE + 1, 3 * PAGE + 1][i]),
        churn in proptest::collection::vec((0u8..6, 0.0f64..1.0, 0u32..4), 1..40),
        mutate_clone in any::<bool>(),
    ) {
        let mut original = filled(pods);
        let mut copy = original.clone();
        let (mutated, other) = match mutate_clone {
            true => (&mut copy, &original),
            false => (&mut original, &copy),
        };
        let snap = mutated.snapshot();
        let (mut next, mut next_ref) = (0, 0);
        let mut rebuilt = filled(pods);
        for &op in &churn {
            apply_paged(mutated, pods, op, &mut next);
            apply_paged(&mut rebuilt, pods, op, &mut next_ref);
        }
        let untouched = filled(pods);
        prop_assert!(other.bitwise_eq(&untouched), "the untouched side moved");
        prop_assert!(mutated.bitwise_eq(&rebuilt), "the churned side drifted");
        prop_assert_eq!(assignment_bits(mutated), assignment_bits(&rebuilt));
        other.check_invariants().unwrap();
        mutated.check_invariants().unwrap();
        mutated.restore_to(&snap);
        prop_assert!(mutated.bitwise_eq(&untouched), "restore drifted");
        prop_assert_eq!(assignment_bits(mutated), assignment_bits(&untouched));
        mutated.check_invariants().unwrap();
    }

    /// Copy-on-write isolation: after a clone, churn on either side —
    /// every mutation class, a restore that drops the pods interned after
    /// its snapshot, more churn — never changes the other side, and leaves
    /// the churned side equal to a state that ran the same script without
    /// ever sharing storage.
    #[test]
    fn clone_then_mutate_either_side_is_isolated(
        setup in ops(10..80),
        churn in ops(1..120),
        tail in ops(0..40),
        snap_at in 0usize..120,
        nodes in 2usize..8,
        mutate_clone in any::<bool>(),
    ) {
        let (mut original, next_pod) = built(nodes, &setup);
        let mut copy = original.clone();
        let (untouched_ref, _) = built(nodes, &setup);
        let (mutated, other) = match mutate_clone {
            true => (&mut copy, &original),
            false => (&mut original, &copy),
        };
        let mut next = next_pod;
        churn_and_rewind(mutated, &churn, snap_at, &tail, &mut next);

        let (mut rebuilt, mut next_ref) = built(nodes, &setup);
        churn_and_rewind(&mut rebuilt, &churn, snap_at, &tail, &mut next_ref);
        prop_assert!(other.bitwise_eq(&untouched_ref), "the untouched side moved");
        prop_assert!(mutated.bitwise_eq(&rebuilt), "the churned side drifted");
        prop_assert_eq!(assignment_bits(other), assignment_bits(&untouched_ref));
        other.check_invariants().unwrap();
        mutated.check_invariants().unwrap();
    }
}
