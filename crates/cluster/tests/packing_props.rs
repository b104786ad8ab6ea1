//! Property tests: the packing heuristic never overcommits a node, never
//! uses failed nodes, and respects plan membership — and, on crunch-heavy
//! clusters, packs byte-identically to the reference packer it replaced.

use phoenix_cluster::packing::{pack, FitStrategy, PackOutcome, PackingConfig, PlannedPod};
use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources};
use proptest::prelude::*;

fn arb_scenario() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<bool>, u8)> {
    (
        proptest::collection::vec(4.0f64..16.0, 1..12), // node capacities
        proptest::collection::vec(0.5f64..6.0, 0..40),  // pod demands
        proptest::collection::vec(any::<bool>(), 1..12), // failure mask
        0u8..3,                                         // fit strategy
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packing_invariants_hold((caps, demands, fail_mask, fit) in arb_scenario()) {
        let mut state = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
        // Fail some nodes up front (never all of them matters not).
        for (i, &dead) in fail_mask.iter().enumerate() {
            if dead && i < caps.len() {
                state.fail_node(NodeId::new(i as u32));
            }
        }
        let plan: Vec<PlannedPod> = demands
            .iter()
            .enumerate()
            .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
            .collect();
        let cfg = PackingConfig {
            fit: match fit { 0 => FitStrategy::BestFit, 1 => FitStrategy::FirstFit, _ => FitStrategy::WorstFit },
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);

        // 1. Bookkeeping is consistent.
        state.check_invariants().unwrap();
        // 2. No pod landed on a failed node.
        for (_, node, _) in state.assignments() {
            prop_assert!(state.is_healthy(node));
        }
        // 3. Placed + unplaced covers exactly the plan.
        let placed = state.pod_count();
        prop_assert_eq!(placed + out.unplaced.len(), plan.len());
        // 4. Rank dominance: if a pod is unplaced, no *placed* pod with a
        //    strictly lower priority (higher rank index) could have been
        //    sacrificed to fit it — i.e. every unplaced pod's demand must
        //    exceed what deleting all lower-ranked pods could free on some
        //    node. We check the weaker, exact invariant: every placed pod's
        //    rank is <= max plan rank (trivially true) and the starts list
        //    only references planned pods.
        for &(p, _) in &out.starts {
            prop_assert!(plan.iter().any(|pp| pp.key == p));
        }
        // 5. A deleted pod is really gone (never also re-placed — a victim
        //    re-placed at its own rank collapses to a keep or migration),
        //    and no pod is ever reported both deleted and started: that
        //    pair would restart a running pod, which cooperative
        //    degradation forbids.
        for &p in &out.deletions {
            prop_assert!(state.node_of(p).is_none(), "deleted {p} still assigned");
            prop_assert!(
                !out.starts.iter().any(|&(sp, _)| sp == p),
                "{p} reported deleted and started"
            );
        }
    }

    #[test]
    fn pack_is_deterministic((caps, demands, fail_mask, fit) in arb_scenario()) {
        let run = || {
            let mut state = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
            for (i, &dead) in fail_mask.iter().enumerate() {
                if dead && i < caps.len() {
                    state.fail_node(NodeId::new(i as u32));
                }
            }
            let plan: Vec<PlannedPod> = demands
                .iter()
                .enumerate()
                .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
                .collect();
            let cfg = PackingConfig {
                fit: match fit { 0 => FitStrategy::BestFit, 1 => FitStrategy::FirstFit, _ => FitStrategy::WorstFit },
                ..PackingConfig::default()
            };
            let out = pack(&mut state, &plan, &cfg);
            let mut assignment: Vec<(PodKey, NodeId)> =
                state.assignments().map(|(p, n, _)| (p, n)).collect();
            assignment.sort();
            (assignment, out.unplaced)
        };
        prop_assert_eq!(run(), run());
    }

    /// Regression pin for the first-fit scan rewrite: the old
    /// implementation materialized every fitting node from the
    /// capacity-sorted view and took `.min()` (an O(nodes) scan per
    /// placement); the new one walks ids ascending and stops at the
    /// first fit. Placements must be identical — on a fresh cluster with
    /// migration off, packing is a pure sequence of first-fit queries,
    /// so an oracle re-implementing the old "min id among all fitting
    /// nodes" rule must reproduce the exact assignment.
    #[test]
    fn first_fit_scan_matches_min_id_oracle(
        caps in proptest::collection::vec(2.0f64..16.0, 1..10),
        demands in proptest::collection::vec(0.5f64..6.0, 0..40),
        limit in proptest::option::of(1usize..6),
    ) {
        let plan: Vec<PlannedPod> = demands
            .iter()
            .enumerate()
            .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
            .collect();
        let cfg = PackingConfig {
            fit: FitStrategy::FirstFit,
            enable_migration: false,
            max_pods_per_node: limit,
            ..PackingConfig::default()
        };
        let mut state = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
        let out = pack(&mut state, &plan, &cfg);

        let mut oracle = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
        let mut oracle_unplaced: Vec<PodKey> = Vec::new();
        for p in &plan {
            let fit = oracle
                .node_ids()
                .into_iter()
                .filter(|&n| {
                    p.demand.fits_in(&oracle.remaining(n))
                        && limit.is_none_or(|cap| oracle.pods_on(n).len() < cap)
                })
                .min();
            match fit {
                Some(n) => oracle.assign(p.key, p.demand, n).unwrap(),
                None => oracle_unplaced.push(p.key),
            }
        }
        prop_assert_eq!(out.unplaced, oracle_unplaced);
        for p in &plan {
            prop_assert_eq!(state.node_of(p.key), oracle.node_of(p.key), "{}", p.key);
        }
    }

    #[test]
    fn higher_capacity_never_hurts_placement_count(
        demands in proptest::collection::vec(0.5f64..6.0, 1..30),
        base_cap in 8.0f64..12.0,
        nodes in 2usize..8,
    ) {
        let count_placed = |cap: f64| {
            let mut state = ClusterState::homogeneous(nodes, Resources::cpu(cap));
            let plan: Vec<PlannedPod> = demands
                .iter()
                .enumerate()
                .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
                .collect();
            pack(&mut state, &plan, &PackingConfig::default());
            state.pod_count()
        };
        // Doubling every node's capacity can only place at least as many pods.
        prop_assert!(count_placed(base_cap * 2.0) >= count_placed(base_cap));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// With a per-node pod-count cap configured, no node ever exceeds it —
    /// across fit strategies, migrations, and the deletion fallback.
    #[test]
    fn pod_limit_never_exceeded(
        (caps, demands, fail_mask, fit) in arb_scenario(),
        limit in 1usize..6,
    ) {
        let mut state = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
        for (i, &down) in fail_mask.iter().take(caps.len()).enumerate() {
            if down {
                state.fail_node(NodeId::new(i as u32));
            }
        }
        let plan: Vec<PlannedPod> = demands
            .iter()
            .enumerate()
            .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
            .collect();
        let cfg = PackingConfig {
            fit: match fit { 0 => FitStrategy::BestFit, 1 => FitStrategy::FirstFit, _ => FitStrategy::WorstFit },
            max_pods_per_node: Some(limit),
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        for n in state.node_ids() {
            prop_assert!(
                state.pods_on(n).len() <= limit,
                "{n} holds {} pods over the {limit} cap",
                state.pods_on(n).len()
            );
        }
        // Placed + unplaced still accounts for the whole plan.
        prop_assert_eq!(state.pod_count() + out.unplaced.len(), plan.len());
        state.check_invariants().unwrap();
    }
}

/// The sequential packer as it stood before the crunch-path rewrite,
/// kept verbatim (minus observability) as the differential oracle: the
/// victim is the maximum of a `BTreeSet<(rank, key)>` over every running
/// pod, the start/delete collapses search the outcome vectors linearly,
/// the plan's ranks live in a hash map, and a failed repack candidate
/// queries the sorted set once per pod.
mod reference {
    use std::collections::{BTreeSet, HashMap};

    use phoenix_cluster::packing::{FitStrategy, PackOutcome, PackingConfig, PlannedPod};
    use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources, SortedNodes};

    /// The packer's repack budgets: candidate nodes per attempt, pods
    /// moved per candidate.
    const MAX_MIGRATION_NODES: usize = 8;
    const MAX_MIGRATION_MOVES: usize = 8;

    /// Which fallbacks one reference pack went through.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Events {
        pub victims: usize,
        pub repack_migrations: usize,
        /// Victims and rebooks re-placed on another node (delete + start
        /// collapsed into a migration).
        pub collapsed_to_migration: usize,
    }

    pub fn pack(
        state: &mut ClusterState,
        plan: &[PlannedPod],
        cfg: &PackingConfig,
    ) -> (PackOutcome, Events) {
        let rank_of: HashMap<PodKey, usize> =
            plan.iter().enumerate().map(|(i, p)| (p.key, i)).collect();
        let mut out = PackOutcome::default();
        let mut events = Events::default();
        // Step 0: diagonal scaling — drop running pods the plan turned off.
        let to_drop: Vec<PodKey> = state
            .assignments()
            .filter(|(p, _, _)| !rank_of.contains_key(p))
            .map(|(p, _, _)| p)
            .collect();
        for p in to_drop {
            state.remove(p).expect("pod listed in assignments");
            out.deletions.push(p);
        }
        let mut sorted = SortedNodes::new();
        for n in state.healthy_nodes() {
            sorted.insert(n, state.remaining(n).scalar());
        }
        let mut active: Option<BTreeSet<(usize, PodKey)>> = None;
        let mut victim_origin: HashMap<PodKey, NodeId> = HashMap::new();

        for (rank, planned) in plan.iter().enumerate() {
            let mut in_place = None;
            if state.node_of(planned.key).is_some() {
                let booked = state
                    .demand_of(planned.key)
                    .expect("assigned pod has demand");
                if !cfg.rebook_in_place || booked == planned.demand {
                    continue;
                }
                let (from, _) = state.remove(planned.key).expect("pod is assigned");
                sorted.insert(from, state.remaining(from).scalar());
                if let Some(active) = active.as_mut() {
                    active.remove(&(rank, planned.key));
                }
                victim_origin.insert(planned.key, from);
                out.deletions.push(planned.key);
                if fits_node(state, cfg, from, planned.demand) {
                    in_place = Some(from);
                }
            }
            let mut target = in_place.or_else(|| try_fit(state, &sorted, planned.demand, cfg));
            if target.is_none() && cfg.enable_migration {
                let before = out.migrations.len();
                target = repack_to_fit(state, &mut sorted, planned.demand, cfg, &mut out);
                events.repack_migrations += out.migrations.len() - before;
            }
            while target.is_none() {
                let active = active.get_or_insert_with(|| {
                    state
                        .assignments()
                        .map(|(p, _, _)| (rank_of[&p], p))
                        .collect()
                });
                let Some(&(victim_rank, victim)) = active.iter().next_back() else {
                    break;
                };
                if victim_rank <= rank {
                    break;
                }
                active.remove(&(victim_rank, victim));
                events.victims += 1;
                let (node, _) = state.remove(victim).expect("victim is assigned");
                sorted.insert(node, state.remaining(node).scalar());
                if let Some(pos) = out.starts.iter().position(|&(p, _)| p == victim) {
                    out.starts.swap_remove(pos);
                } else {
                    out.deletions.push(victim);
                    victim_origin.insert(victim, node);
                }
                target = try_fit(state, &sorted, planned.demand, cfg);
            }
            match target {
                Some(node) => {
                    state
                        .assign(planned.key, planned.demand, node)
                        .expect("fit was just verified");
                    sorted.insert(node, state.remaining(node).scalar());
                    if let Some(active) = active.as_mut() {
                        active.insert((rank, planned.key));
                    }
                    match victim_origin.remove(&planned.key) {
                        Some(from) => {
                            let pos = out
                                .deletions
                                .iter()
                                .position(|&p| p == planned.key)
                                .expect("victimized pod was recorded deleted");
                            out.deletions.swap_remove(pos);
                            if from != node {
                                out.migrations.push((planned.key, from, node));
                                events.collapsed_to_migration += 1;
                            }
                        }
                        None => out.starts.push((planned.key, node)),
                    }
                }
                None => out.unplaced.push(planned.key),
            }
        }
        (out, events)
    }

    fn fits_node(
        state: &ClusterState,
        cfg: &PackingConfig,
        node: NodeId,
        demand: Resources,
    ) -> bool {
        demand.fits_in(&state.remaining(node))
            && cfg
                .max_pods_per_node
                .is_none_or(|cap| state.pods_on(node).len() < cap)
    }

    fn try_fit(
        state: &ClusterState,
        sorted: &SortedNodes,
        demand: Resources,
        cfg: &PackingConfig,
    ) -> Option<NodeId> {
        match cfg.fit {
            FitStrategy::BestFit => sorted
                .best_fit_candidates(demand.scalar())
                .find(|&n| fits_node(state, cfg, n, demand)),
            FitStrategy::FirstFit => sorted
                .iter_by_id()
                .map(|(n, _)| n)
                .find(|&n| fits_node(state, cfg, n, demand)),
            FitStrategy::WorstFit => sorted
                .iter_desc()
                .map(|(n, _)| n)
                .find(|&n| fits_node(state, cfg, n, demand)),
        }
    }

    fn repack_to_fit(
        state: &mut ClusterState,
        sorted: &mut SortedNodes,
        demand: Resources,
        cfg: &PackingConfig,
        out: &mut PackOutcome,
    ) -> Option<NodeId> {
        let candidates: Vec<NodeId> = sorted
            .iter_desc()
            .take(MAX_MIGRATION_NODES)
            .map(|(n, _)| n)
            .collect();
        for source in candidates {
            let mut moves: Vec<(PodKey, NodeId, NodeId)> = Vec::new();
            let mut pods: Vec<(PodKey, Resources)> = state
                .pods_on(source)
                .map(|p| (p, state.demand_of(p).expect("pod on node is assigned")))
                .collect();
            pods.sort_by(|a, b| a.1.scalar().total_cmp(&b.1.scalar()));
            let mut ok = false;
            for (p, d) in pods {
                if fits_node(state, cfg, source, demand) {
                    ok = true;
                    break;
                }
                if moves.len() >= MAX_MIGRATION_MOVES {
                    break;
                }
                let Some(dest) = sorted
                    .best_fit_candidates(d.scalar())
                    .find(|&n| n != source && fits_node(state, cfg, n, d))
                else {
                    continue;
                };
                state.migrate(p, dest).expect("fit was just verified");
                sorted.insert(source, state.remaining(source).scalar());
                sorted.insert(dest, state.remaining(dest).scalar());
                moves.push((p, source, dest));
            }
            if !ok && fits_node(state, cfg, source, demand) {
                ok = true;
            }
            if ok {
                out.migrations.extend(moves);
                return Some(source);
            }
            for (p, src, dest) in moves.into_iter().rev() {
                state.migrate(p, src).expect("rollback to source succeeds");
                sorted.insert(src, state.remaining(src).scalar());
                sorted.insert(dest, state.remaining(dest).scalar());
            }
        }
        None
    }
}

/// A crunch-heavy pack: planned demand is 100–130 % of what the healthy
/// nodes can hold, much of it already running, so placements routinely
/// fall through best-fit into repack and delete-lower-ranks.
#[derive(Debug, Clone)]
struct Crunch {
    /// Per node: CPU and memory capacity.
    caps: Vec<(f64, f64)>,
    fail_mask: Vec<bool>,
    /// Per planned pod: CPU weight (scaled to the overload target), memory
    /// (as is — the second dimension makes a best-fit candidate range
    /// non-empty yet unusable, which the scalar key alone cannot),
    /// already running?, running at a booking that differs from the
    /// planned demand?
    pods: Vec<(f64, f64, bool, bool)>,
    /// Running pods absent from the plan (diagonal-scaling drops, which
    /// share the deletion list with the victims).
    extras: Vec<f64>,
    /// Planned demand over healthy capacity.
    overload: f64,
    cfg: PackingConfig,
}

fn arb_crunch() -> impl Strategy<Value = Crunch> {
    (
        proptest::collection::vec((8.0f64..24.0, 6.0f64..30.0), 2..10),
        proptest::collection::vec(any::<bool>(), 10),
        proptest::collection::vec(
            (0.5f64..4.0, 0.0f64..4.0, any::<bool>(), any::<bool>()),
            8..70,
        ),
        proptest::collection::vec(0.5f64..3.0, 0..6),
        1.0f64..1.3,
        (0u8..3, any::<bool>(), any::<bool>()),
        proptest::option::of(2usize..9),
    )
        .prop_map(
            |(caps, fail_mask, pods, extras, overload, knobs, max_pods_per_node)| {
                let (fit, rebook_in_place, enable_migration) = knobs;
                Crunch {
                    caps,
                    fail_mask,
                    pods,
                    extras,
                    overload,
                    cfg: PackingConfig {
                        fit: match fit {
                            0 => FitStrategy::BestFit,
                            1 => FitStrategy::FirstFit,
                            _ => FitStrategy::WorstFit,
                        },
                        rebook_in_place,
                        enable_migration,
                        max_pods_per_node,
                    },
                }
            },
        )
}

impl Crunch {
    /// The pre-pack cluster (failed nodes failed, running pods assigned
    /// first-fit from the *last* rank up, so low priorities hold the room
    /// high priorities will need) and the ranked plan.
    fn build(&self) -> (ClusterState, Vec<PlannedPod>) {
        let mut state = ClusterState::new(self.caps.iter().map(|&(c, m)| Resources::new(c, m)));
        // Node 0 always survives: an all-failed cluster packs nothing.
        for (i, _) in self.caps.iter().enumerate().skip(1) {
            if self.fail_mask[i] && i % 3 == 0 {
                state.fail_node(NodeId::new(i as u32));
            }
        }
        let weight: f64 = self.pods.iter().map(|p| p.0).sum();
        let scale = self.overload * state.healthy_capacity().scalar() / weight;
        // Keys spread over apps, services and replicas (all distinct).
        let key = |i: usize| PodKey::new((i % 3) as u32, (i / 6) as u32, (i / 3 % 2) as u16);
        let plan: Vec<PlannedPod> = self
            .pods
            .iter()
            .enumerate()
            .map(|(i, &(w, mem, _, _))| PlannedPod::new(key(i), Resources::new(w * scale, mem)))
            .collect();
        let assign_first_fit = |state: &mut ClusterState, pod: PodKey, demand: Resources| {
            let node = state.node_ids().into_iter().find(|&n| {
                state.is_healthy(n)
                    && demand.fits_in(&state.remaining(n))
                    && self
                        .cfg
                        .max_pods_per_node
                        .is_none_or(|cap| state.pods_on(n).len() < cap)
            });
            if let Some(n) = node {
                state.assign(pod, demand, n).unwrap();
            }
        };
        for (j, &cpu) in self.extras.iter().enumerate() {
            // One extra inside the plan's key space, the rest outside it.
            let pod = PodKey::new(if j == 0 { 1 } else { 5 }, 500 + j as u32, 0);
            assign_first_fit(&mut state, pod, Resources::cpu(cpu));
        }
        for (i, &(_, _, running, rebooked)) in self.pods.iter().enumerate().rev() {
            if running {
                let booked = plan[i].demand * if rebooked { 0.6 } else { 1.0 };
                assign_first_fit(&mut state, plan[i].key, booked);
            }
        }
        (state, plan)
    }
}

const CRUNCH_CASES: u32 = 256;

/// What the crunch cases exercised, summed over the run: the property is
/// only worth its name while every fallback actually fires.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    cases: u32,
    victims: usize,
    repack_migrations: usize,
    collapsed_to_migration: usize,
    unplaced: usize,
}

thread_local! {
    static COVERAGE: std::cell::Cell<Coverage> = std::cell::Cell::new(Coverage::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CRUNCH_CASES))]

    /// The tentpole property of the crunch-path rewrite: victim cursor,
    /// O(1) start/delete collapse, repack early-out and the dense rank
    /// table produce the **same** `PackOutcome` — every vector, order
    /// included — and a bit-identical target state as the packer they
    /// replaced.
    #[test]
    fn crunch_pack_is_byte_identical_to_the_reference(crunch in arb_crunch()) {
        let (state, plan) = crunch.build();

        let mut want_state = state.clone();
        let (want, events) = reference::pack(&mut want_state, &plan, &crunch.cfg);

        let mut got_state = state.clone();
        let got = pack(&mut got_state, &plan, &crunch.cfg);

        prop_assert_eq!(&got.deletions, &want.deletions, "deletions");
        prop_assert_eq!(&got.migrations, &want.migrations, "migrations");
        prop_assert_eq!(&got.starts, &want.starts, "starts");
        prop_assert_eq!(&got.unplaced, &want.unplaced, "unplaced");
        prop_assert!(got_state.bitwise_eq(&want_state), "target state diverged");
        got_state.check_invariants().unwrap();
        // `origins`: each touched pod once, by key, at its pre-pack node;
        // a pod left out ends where it began.
        let listed: Vec<PodKey> = got.origins.iter().map(|&(pod, _)| pod).collect();
        prop_assert!(listed.windows(2).all(|w| w[0] < w[1]), "origins unsorted or repeated");
        for &(pod, origin) in &got.origins {
            prop_assert_eq!(origin, state.node_of(pod), "origin of {}", pod);
        }
        for pod in plan.iter().map(|p| p.key).chain(state.assignments().map(|a| a.0)) {
            let moved = state.node_of(pod) != got_state.node_of(pod);
            prop_assert!(!moved || listed.binary_search(&pod).is_ok(), "{} moved unlisted", pod);
        }

        let mut seen = COVERAGE.get();
        seen.cases += 1;
        seen.victims += events.victims;
        seen.repack_migrations += events.repack_migrations;
        seen.collapsed_to_migration += events.collapsed_to_migration;
        seen.unplaced += want.unplaced.len();
        COVERAGE.set(seen);
        if seen.cases == CRUNCH_CASES {
            prop_assert!(
                seen.victims > 500
                    && seen.repack_migrations > 50
                    && seen.collapsed_to_migration > 50
                    && seen.unplaced > 500,
                "crunch generator went soft: {:?}",
                seen
            );
        }
    }
}

const PIN_CASES: u32 = 192;

thread_local! {
    /// `(cases, running pins an unpinned pack of the same plan would
    /// delete or migrate)` so far in this thread's run.
    static THREATENED: std::cell::Cell<(u32, usize)> = const { std::cell::Cell::new((0, 0)) };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(PIN_CASES))]

    /// A running pin is never deleted, migrated or re-booked, under every
    /// knob: random crunch plans with a random subset of entries pinned
    /// and moved to the plan's head (pins rank first). The same plan with
    /// its pins unpinned must often delete or migrate those very pods, or
    /// the property tests nothing.
    #[test]
    fn running_pins_stay_put(
        crunch in arb_crunch(),
        pin_mask in proptest::collection::vec(any::<bool>(), 70),
    ) {
        let (state, plan) = crunch.build();
        let (mut pinned, rest): (Vec<PlannedPod>, Vec<PlannedPod>) = plan
            .into_iter()
            .zip(pin_mask)
            .map(|(p, pinned)| PlannedPod { pinned, ..p })
            .partition(|p| p.pinned);
        pinned.extend(rest);
        let plan = pinned;
        let running_pins: Vec<PodKey> = plan
            .iter()
            .filter(|p| p.pinned && state.node_of(p.key).is_some())
            .map(|p| p.key)
            .collect();

        let mut target = state.clone();
        let out = pack(&mut target, &plan, &crunch.cfg);
        target.check_invariants().unwrap();
        let touched = |out: &PackOutcome, pod: PodKey| {
            out.deletions.contains(&pod) || out.migrations.iter().any(|m| m.0 == pod)
        };
        for &pod in &running_pins {
            prop_assert!(!touched(&out, pod), "pin {} deleted or migrated", pod);
            prop_assert_eq!(target.placement_of(pod), state.placement_of(pod), "pin {}", pod);
        }

        let unpinned: Vec<PlannedPod> = plan.iter().map(|p| PlannedPod::new(p.key, p.demand)).collect();
        let free = pack(&mut state.clone(), &unpinned, &crunch.cfg);
        let (cases, threatened) = THREATENED.get();
        let threatened = threatened + running_pins.iter().filter(|&&p| touched(&free, p)).count();
        THREATENED.set((cases + 1, threatened));
        if cases + 1 == PIN_CASES {
            prop_assert!(threatened > 100, "pins were threatened only {threatened} times");
        }
    }
}

/// The carried-pack differential: a pack handed the previous pack's
/// `PackCarry` (its standing, its unplaced positions and its node order)
/// equals a pack without one, bit for bit.
mod carried {
    use phoenix_cluster::packing::{
        pack_prepared, PackCarry, PackingConfig, PlanIndex, PlannedPod,
    };
    use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources};
    use proptest::prelude::*;

    /// Packs `live` twice, with `carry` and without any, checks both
    /// packs made the same moves onto bit-identical states, and returns
    /// the carried target.
    fn carried_equals_fresh(
        live: &ClusterState,
        plan: &[PlannedPod],
        carry: &mut PackCarry,
    ) -> ClusterState {
        let index = PlanIndex::of(plan);
        let cfg = PackingConfig::default();
        let mut fresh = live.clone();
        let want = pack_prepared(&mut fresh, plan, &index, &cfg, None);
        let mut carried = live.clone();
        let got = pack_prepared(&mut carried, plan, &index, &cfg, Some(carry));
        assert_eq!(got.deletions, want.deletions);
        assert_eq!(got.migrations, want.migrations);
        assert_eq!(got.starts, want.starts);
        assert_eq!(got.unplaced, want.unplaced);
        assert_eq!(got.origins, want.origins);
        assert!(carried.bitwise_eq(&fresh), "carried target differs");
        carried.check_invariants().unwrap();
        carried
    }

    /// A degrade that evicts nothing leaves every pod list alone but
    /// moves the node's remaining capacity: the carried node order must
    /// re-key it, or best fit picks another node.
    #[test]
    fn a_degrade_that_evicts_nothing_rekeys_its_node() {
        let mut live = ClusterState::new([10.0, 10.0, 4.0].map(Resources::cpu));
        let plan: Vec<PlannedPod> = [1.0, 3.0, 4.0]
            .iter()
            .enumerate()
            .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
            .collect();
        for (i, p) in plan.iter().enumerate() {
            live.assign(p.key, p.demand, NodeId::new(i as u32)).unwrap();
        }
        let mut carry = PackCarry::default();
        let mut live = carried_equals_fresh(&live, &plan, &mut carry);
        // Node 0 keeps its pod and drops from 9 to 4 remaining; node 2's
        // pod needs 4.
        assert!(live.set_degrade(NodeId::new(0), 0.5).is_empty());
        live.fail_node(NodeId::new(2));
        let target = carried_equals_fresh(&live, &plan, &mut carry);
        assert_eq!(target.node_of(plan[2].key), Some(NodeId::new(0)));
    }

    /// One change between two packs: kind 0 fails node `at`, 1 restores
    /// it, 2 degrades it to `x` (evicting its newest pods until the rest
    /// fit), 3 degrades it halfway between its load and its capacity,
    /// which evicts nothing.
    fn apply(live: &mut ClusterState, (kind, at, x): (u8, usize, f64)) {
        let node = NodeId::new((at % live.node_count()) as u32);
        match kind {
            0 => _ = live.fail_node(node),
            1 => live.restore_node(node),
            2 => _ = live.set_degrade(node, x),
            _ => {
                let load = live.capacity(node).cpu - live.remaining(node).cpu;
                let used = load / live.capacity(node).cpu;
                live.set_degrade(node, used + (1.0 - used) / 2.0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Over random fail, restore and degrade sequences, every pack
        /// handed the last pack's carry equals a pack without one; each
        /// round packs the last carried target.
        #[test]
        fn carried_pack_equals_a_fresh_pack(
            caps in proptest::collection::vec(4.0f64..16.0, 2..10),
            demands in proptest::collection::vec(0.5f64..6.0, 1..40),
            changes in proptest::collection::vec((0u8..4, 0usize..16, 0.2f64..1.0), 1..12),
        ) {
            let plan: Vec<PlannedPod> = demands
                .iter()
                .enumerate()
                .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
                .collect();
            let mut carry = PackCarry::default();
            let mut live = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
            live = carried_equals_fresh(&live, &plan, &mut carry);
            for change in changes {
                apply(&mut live, change);
                live = carried_equals_fresh(&live, &plan, &mut carry);
            }
        }
    }
}
