//! Property tests for the stateful-workload layer: partition round-trips,
//! contraction soundness, and the pinned-planning guarantees — stateful
//! pods are never deleted or migrated, every pin is placed or stranded,
//! a stranded pin fits nowhere, and with no pins the pinned pipeline is
//! the plain one.

use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources};
use phoenix_core::controller::{plan_with, PhoenixConfig};
use phoenix_core::spec::{AppId, AppSpecBuilder, ModeSpec, ServiceId, ServingMode, Workload};
use phoenix_core::stateful::{check_pinned, partition, plan_pinned, Partition, StatefulMarks};
use phoenix_core::tags::Criticality;
use phoenix_dgraph::NodeId as GraphNode;
use proptest::prelude::*;

/// A random mixed workload plus marks: 1–3 apps, 2–12 services each,
/// forward-edge DAGs, a random subset of services marked stateful, and
/// (when `modal`) a read-only rung on every third service.
#[allow(clippy::type_complexity)]
fn arb_mixed() -> impl Strategy<Value = (Workload, StatefulMarks)> {
    (
        proptest::collection::vec(
            (2usize..12).prop_flat_map(|n| {
                (
                    proptest::collection::vec(1u8..7, n),
                    proptest::collection::vec((0..n, 0..n), 0..n * 2),
                    proptest::collection::vec(any::<bool>(), n),
                    proptest::collection::vec(1.0f64..4.0, n),
                )
            }),
            1..4,
        ),
        any::<bool>(),
    )
        .prop_map(|(apps, modal)| mixed(apps, modal))
}

#[allow(clippy::type_complexity)]
fn mixed(
    apps: Vec<(Vec<u8>, Vec<(usize, usize)>, Vec<bool>, Vec<f64>)>,
    modal: bool,
) -> (Workload, StatefulMarks) {
    let mut specs = Vec::new();
    let mut marks = StatefulMarks::new();
    for (ai, (levels, edges, stateful, demands)) in apps.into_iter().enumerate() {
        let mut b = AppSpecBuilder::new(format!("app{ai}"));
        let ids: Vec<ServiceId> = levels
            .iter()
            .zip(&demands)
            .enumerate()
            .map(|(i, (&l, &d))| {
                let id = b.add_service(
                    format!("s{i}"),
                    Resources::cpu(d),
                    Some(Criticality::new(l)),
                    1,
                );
                if modal && i % 3 == 1 {
                    b.service_modes(
                        id,
                        vec![
                            ModeSpec::new(ServingMode::Full, Resources::cpu(d), 1.0),
                            ModeSpec::new(ServingMode::ReadOnly, Resources::cpu(d / 2.0), 0.6),
                        ],
                    );
                }
                id
            })
            .collect();
        b.with_graph();
        for (x, y) in edges {
            if x != y {
                b.add_dependency(ids[x.min(y)], ids[x.max(y)]);
            }
        }
        specs.push(b.build().unwrap());
        for (si, &is_stateful) in stateful.iter().enumerate() {
            if is_stateful {
                marks.mark(AppId::new(ai as u32), ServiceId::new(si as u32));
            }
        }
    }
    (Workload::new(specs), marks)
}

/// The original `(app, service)` behind stateless-half service `ps` of
/// app `pa`.
fn stateless_origin(
    workload: &Workload,
    part: &Partition,
    pa: AppId,
    ps: usize,
) -> (AppId, ServiceId) {
    let target = Some((pa, ServiceId::new(ps as u32)));
    workload
        .apps()
        .flat_map(|(app, spec)| spec.service_ids().map(move |s| (app, s)))
        .find(|&(app, s)| part.to_stateless(app, s) == target)
        .expect("every stateless-half service has an origin")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partition conserves services, metadata, and pod-key round trips.
    #[test]
    fn partition_round_trips((workload, marks) in arb_mixed()) {
        let part = partition(&workload, &marks);
        // The maps into the halves are injective: each half's service has
        // one origin.
        let mut images = std::collections::BTreeSet::new();
        for (app, spec) in workload.apps() {
            let mut seen = 0;
            for service in spec.service_ids() {
                let stateless = part.to_stateless(app, service);
                let stateful = part.to_stateful(app, service);
                // Every service lives in exactly one half.
                prop_assert_eq!(stateless.is_some(), !marks.is_stateful(app, service));
                prop_assert_eq!(stateful.is_some(), marks.is_stateful(app, service));
                seen += 1;
                if let Some((pa, ps)) = stateless {
                    prop_assert!(images.insert((false, pa, ps)), "two services map to {:?}", (pa, ps));
                    let kept = part.stateless.app(pa).service(ps);
                    prop_assert_eq!(&kept.name, &spec.service(service).name);
                    prop_assert_eq!(kept.demand, spec.service(service).demand);
                    prop_assert_eq!(&kept.modes, &spec.service(service).modes);
                }
                if let Some((pa, ps)) = stateful {
                    prop_assert!(images.insert((true, pa, ps)), "two services map to {:?}", (pa, ps));
                    let kept = part.stateful.app(pa).service(ps);
                    prop_assert_eq!(&kept.modes, &spec.service(service).modes);
                }
            }
            prop_assert_eq!(seen, spec.service_count());
        }
        // Total service counts are conserved.
        let total: usize = workload.apps().map(|(_, a)| a.service_count()).sum();
        let split: usize = part
            .stateless
            .apps()
            .map(|(_, a)| a.service_count())
            .chain(part.stateful.apps().map(|(_, a)| a.service_count()))
            .sum();
        prop_assert_eq!(total, split);
    }

    /// Every contracted edge corresponds to a real path in the original
    /// graph whose interior is entirely on the other side.
    #[test]
    fn contraction_is_sound((workload, marks) in arb_mixed()) {
        let part = partition(&workload, &marks);
        for (pa, papp) in part.stateless.apps() {
            let Some(pgraph) = papp.dependency() else { continue };
            for u in pgraph.node_ids() {
                for &v in pgraph.successors(u) {
                    let (oa, ou) = stateless_origin(&workload, &part, pa, u.index());
                    let (_, ov) = stateless_origin(&workload, &part, pa, v.index());
                    let orig = workload.app(oa).dependency().expect("original had a graph");
                    // BFS from ou through removed nodes only must reach ov.
                    let mut stack = vec![GraphNode::from_index(ou.index())];
                    let mut seen = vec![false; orig.node_count()];
                    let mut found = false;
                    while let Some(x) = stack.pop() {
                        for &y in orig.successors(x) {
                            if seen[y.index()] {
                                continue;
                            }
                            seen[y.index()] = true;
                            if y.index() == ov.index() {
                                found = true;
                                break;
                            }
                            // Continue only through removed (stateful) nodes.
                            if marks.is_stateful(oa, ServiceId::new(y.index() as u32)) {
                                stack.push(y);
                            }
                        }
                        if found {
                            break;
                        }
                    }
                    prop_assert!(found, "contracted edge {ou}->{ov} has no original path");
                }
            }
        }
    }

    /// Pinned planning: pins hold across an arbitrary failure, target state
    /// is consistent, and every stateful pod is either placed or stranded.
    #[test]
    fn pinned_planning_invariants(
        (workload, marks) in arb_mixed(),
        nodes in 2usize..8,
        capacity in 4.0f64..20.0,
        fail_seed in 0u64..1000,
    ) {
        let config = PhoenixConfig::default();
        let mut live = ClusterState::homogeneous(nodes, Resources::cpu(capacity));
        // Adopt the fresh plan as the live state.
        let fresh = plan_pinned(&workload, &marks, &live, &config);
        check_pinned(&fresh, &workload, &marks, &live, &config).unwrap();
        for (pod, node, demand) in fresh.target.assignments() {
            live.assign(pod, demand, node).unwrap();
        }
        // Deterministic pseudo-random failures from the seed.
        let mut state = live.clone();
        for n in state.node_ids() {
            if (fail_seed >> (n.index() % 10)) & 1 == 1 {
                state.fail_node(n);
            }
        }

        let plan = plan_pinned(&workload, &marks, &state, &config);
        check_pinned(&plan, &workload, &marks, &state, &config).unwrap();
        plan.target.check_invariants().unwrap();
        // Placed pods sit on healthy nodes only.
        for (pod, node, _) in plan.target.assignments() {
            prop_assert!(plan.target.is_healthy(node), "{pod} on failed {node}");
        }
    }

    /// With nothing marked, the pinned pipeline is the plain one: same
    /// target, same actions, same modes.
    #[test]
    fn unpinned_plan_is_the_plain_plan(
        (workload, _) in arb_mixed(),
        nodes in 1usize..6,
        capacity in 2.0f64..12.0,
        failed in 0usize..3,
    ) {
        let config = PhoenixConfig::default();
        let mut live = ClusterState::homogeneous(nodes, Resources::cpu(capacity));
        let fresh = plan_with(&workload, &live, &config);
        for (pod, node, demand) in fresh.target.assignments() {
            live.assign(pod, demand, node).unwrap();
        }
        for n in 0..failed.min(nodes - 1) {
            live.fail_node(NodeId::new(n as u32));
        }
        let plain = plan_with(&workload, &live, &config);
        let pinned = plan_pinned(&workload, &StatefulMarks::new(), &live, &config);
        let assignments = |s: &ClusterState| {
            let mut a: Vec<(PodKey, NodeId, Resources)> = s.assignments().collect();
            a.sort_by_key(|x| x.0);
            a
        };
        prop_assert_eq!(assignments(&pinned.target), assignments(&plain.target));
        prop_assert_eq!(&pinned.actions, &plain.actions);
        prop_assert_eq!(&pinned.modes, &plain.modes);
        prop_assert!(pinned.stranded(&StatefulMarks::new()).is_empty());
    }
}

const STRANDING_CASES: u32 = 96;

thread_local! {
    /// `(cases, pins stranded)` so far in this thread's run.
    static STRANDED: std::cell::Cell<(u32, usize)> = const { std::cell::Cell::new((0, 0)) };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(STRANDING_CASES))]

    /// A stranded pin fits on no healthy node of the target, counting the
    /// node's effective capacity, its other pins and the pod cap — across
    /// failures, gray degradation and a pod cap, and across a run that
    /// strands pins often enough to mean something.
    #[test]
    fn a_stranded_pin_fits_nowhere(
        (workload, marks) in arb_mixed(),
        nodes in 2usize..6,
        capacity in 3.0f64..10.0,
        fail_seed in 0u64..64,
        degrade in 0.3f64..1.0,
        cap in proptest::option::of(1usize..4),
    ) {
        let mut config = PhoenixConfig::default();
        config.packing.max_pods_per_node = cap;
        let mut live = ClusterState::homogeneous(nodes, Resources::cpu(capacity));
        let fresh = plan_pinned(&workload, &marks, &live, &config);
        check_pinned(&fresh, &workload, &marks, &live, &config).unwrap();
        for (pod, node, demand) in fresh.target.assignments() {
            live.assign(pod, demand, node).unwrap();
        }
        for n in live.node_ids() {
            match (fail_seed >> (2 * (n.index() % 3))) & 3 {
                0 => drop(live.fail_node(n)),
                1 => drop(live.set_degrade(n, degrade)),
                _ => {}
            }
        }
        let plan = plan_pinned(&workload, &marks, &live, &config);
        check_pinned(&plan, &workload, &marks, &live, &config).unwrap();
        plan.target.check_invariants().unwrap();

        let (cases, stranded) = STRANDED.get();
        STRANDED.set((cases + 1, stranded + plan.stranded(&marks).len()));
        if cases + 1 == STRANDING_CASES {
            prop_assert!(stranded > 20, "the generator stranded only {stranded} pins");
        }
    }
}
