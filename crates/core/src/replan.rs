//! Incremental replanning: warm-start the planner → ranking → packing
//! pipeline across rounds.
//!
//! The cold pipeline ([`crate::controller::plan`]) recomputes
//! everything per round: per-app activation orders, water-filling, the
//! global-ranking heap merge, the flattened pod plan, and the packing
//! bookkeeping. During a capacity crunch the controller replans every
//! monitor tick, yet between ticks almost nothing about the *workload*
//! changes — only the cluster does. The controller's replan cache
//! exploits that (entry point:
//! [`PhoenixController::replan`](crate::controller::PhoenixController::replan)):
//!
//! 1. **Rank cache** — each app's activation order
//!    ([`crate::planner::app_rank`]) is cached under a cheap structural
//!    [`fingerprint`](crate::spec::AppSpec::fingerprint); unchanged apps
//!    skip the dependency-graph walk entirely.
//! 2. **Warm global ranking** — the flattened [`RankInputs`] (demands,
//!    tags, prices, water-filling sort order) are cached alongside. For
//!    [capacity-invariant](crate::objectives::OperatorObjective::capacity_invariant)
//!    objectives the heap's pop order itself is cached
//!    ([`merged_order`]) and replayed under the new capacity with zero
//!    scoring or heap work; capacity-sensitive objectives (fairness)
//!    replay an order keyed by the exact fair-share vector while it
//!    repeats, and re-merge over the cached dense arrays otherwise. A
//!    replay rewrites the previous [`GlobalRank`] in place: it checks
//!    each fit decision against the mark the last replay of that order
//!    left, writes items only from the first changed decision, and
//!    returns that index. The ranking is shared (`Arc`) with the
//!    round's [`PlanResult`], never cloned; when capacity is
//!    bit-identical to the previous round it is reused whole.
//! 3. **Warm packing** — the flattened plan and its dense `pod → rank`
//!    index are patched only where the ranking actually changed (the
//!    replay's index, or an item compare after a heap merge), then go
//!    through the scheduler half the cold path ends in too
//!    (`controller::schedule`: pack, then the action diff), on the state
//!    the round owns: running pods are kept in place, only pods
//!    invalidated by failures or rank changes are re-homed, and the
//!    actions come from the pack's record of where each touched pod ran
//!    before it.
//!
//! **Equivalence guarantee:** a warm replan produces the same
//! [`PlanResult`] — byte-identical [`ActionPlan`], target state, and
//! packing outcome — as a cold [`plan`](crate::controller::plan) with no
//! pins on the same inputs. Warm and cold share the same merge and packing
//! loops, so this holds by construction; the tests below and
//! `tests/modeless_compat.rs` check it end to end.
//!
//! [`ActionPlan`]: crate::actions::ActionPlan

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use phoenix_cluster::ClusterState;

use crate::controller::{
    flatten_plan, push_replicas, schedule, FlatPlan, PhoenixConfig, PlanResult,
};
use crate::objectives::ObjectiveKind;
use crate::planner::{app_rank, PlannerConfig};
use crate::ranking::{
    global_rank_prepared, global_rank_replay, merged_order, GlobalRank, MergeOrder, RankInputs,
};
use crate::spec::{ServiceId, Workload};
use crate::stateful::StatefulMarks;

/// What changed since the previous round, as far as the caller knows.
///
/// The delta is a *hint*: a wrong hint costs performance, never
/// correctness, except for [`ReplanDelta::CapacityOnly`] whose contract
/// (specs unchanged) is checked in debug builds only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplanDelta {
    /// Anything may have changed; every cache layer re-validates against
    /// app fingerprints. Always safe — this is the default.
    #[default]
    Full,
    /// Only cluster capacity changed (nodes failed / recovered / were
    /// added); application specs are the same as the previous round.
    /// Skips the fingerprint sweep. Passing this after a spec change
    /// loses the warm/cold equivalence guarantee (debug builds assert).
    CapacityOnly,
}

/// Cross-round state of the incremental replanning engine, owned by
/// [`crate::controller::PhoenixController`]. An empty cache makes the
/// first round a plain cold plan that primes every layer.
#[derive(Debug, Default)]
pub(crate) struct ReplanCache {
    /// Epoch inputs: valid while fingerprints match.
    fingerprints: Vec<u64>,
    app_ranks: Vec<Vec<ServiceId>>,
    inputs: RankInputs,
    /// The epoch's [`Workload::has_modes`] (fingerprints cover mode
    /// tables), so a round does not rescan every service.
    modal: bool,
    merge_order: Option<MergeOrder>,
    /// Share-keyed merge order for capacity-sensitive objectives: valid
    /// for any round whose water-filling shares match bit-for-bit.
    share_order: Option<(Vec<f64>, MergeOrder)>,
    /// Shares of the previous slow-merged round; a repeat triggers the
    /// `share_order` investment (hysteresis — crunch rounds whose shares
    /// move every tick never pay the extra order build).
    last_shares: Option<Vec<f64>>,
    /// Config the epoch was built under (knob changes invalidate).
    planner_cfg: Option<PlannerConfig>,
    /// Built-in objective of the epoch; `None` (custom objective, whose
    /// state this cache cannot observe) re-invalidates every round.
    objective_kind: Option<ObjectiveKind>,
    /// Round outputs: valid while the epoch holds and capacity matches.
    capacity_bits: Option<(u64, u64)>,
    /// The last round's ranking, shared with its [`PlanResult::rank`]. A
    /// replay rewrites it in place through [`Arc::make_mut`], which
    /// copies it only while a caller still holds that result.
    rank: Option<Arc<GlobalRank>>,
    /// The mode-less flattened plan, patched per round (modes stay empty).
    plan: FlatPlan,
    plan_valid: bool,
}

impl ReplanCache {
    /// Re-validates the epoch layers against the workload. Returns `true`
    /// when anything changed (rank/merge-order caches were invalidated).
    /// Each app either keeps its cached rank (fingerprint unchanged) or
    /// walks [`app_rank`] again.
    fn refresh_epoch(
        &mut self,
        workload: &Workload,
        config: &PhoenixConfig,
        delta: ReplanDelta,
    ) -> bool {
        // Objective identity is only trackable for the built-ins (unit
        // structs that cannot drift between rounds). A custom objective
        // could be swapped or mutated behind `config_mut` without any
        // observable change here, so it counts as a config change every
        // round: `RankInputs`, the merge orders and the flat plan are
        // rebuilt, and only the per-app ranks stay warm.
        let objective_kind = config.objective.as_builtin();
        let cfg_changed = self.planner_cfg != Some(config.planner)
            || objective_kind.is_none()
            || self.objective_kind != objective_kind;
        let first_round = self.planner_cfg.is_none();
        if delta == ReplanDelta::CapacityOnly && !cfg_changed && !first_round {
            debug_assert!(
                workload.app_count() == self.fingerprints.len()
                    && workload
                        .apps()
                        .zip(&self.fingerprints)
                        .all(|((_, a), &f)| a.fingerprint() == f),
                "ReplanDelta::CapacityOnly passed after a spec change"
            );
            return false;
        }
        let mut ranks_changed = cfg_changed || workload.app_count() != self.fingerprints.len();
        let traversal = config.planner.traversal;
        let traversal_changed = self.planner_cfg.map(|c| c.traversal) != Some(traversal);
        let mut fingerprints = Vec::with_capacity(workload.app_count());
        let mut app_ranks: Vec<Vec<ServiceId>> = Vec::with_capacity(workload.app_count());
        let obs = phoenix_obs::current();
        for (i, (_, app)) in workload.apps().enumerate() {
            let fp = app.fingerprint();
            let reusable = !traversal_changed
                && self.fingerprints.get(i) == Some(&fp)
                && i < self.app_ranks.len();
            if reusable {
                obs.incr(phoenix_obs::Counter::ReplanCacheHits);
                app_ranks.push(std::mem::take(&mut self.app_ranks[i]));
            } else {
                obs.incr(phoenix_obs::Counter::ReplanCacheMisses);
                ranks_changed = true;
                app_ranks.push(app_rank(app, traversal));
            }
            fingerprints.push(fp);
        }
        self.fingerprints = fingerprints;
        self.app_ranks = app_ranks;
        if ranks_changed {
            self.inputs = RankInputs::new(workload, &self.app_ranks);
            self.modal = workload.has_modes();
            self.merge_order = None;
            self.share_order = None;
            self.last_shares = None;
            self.capacity_bits = None;
            self.rank = None;
            self.plan_valid = false;
            self.plan.index.reshape(workload);
        }
        self.planner_cfg = Some(config.planner);
        self.objective_kind = objective_kind;
        ranks_changed
    }
}

/// One warm planning round: the output of an unpinned
/// [`plan`](crate::controller::plan), reusing `cache` wherever the
/// fingerprints, capacity, and ranking allow. Packs the `state` it owns
/// and returns it as [`PlanResult::target`].
pub(crate) fn replan_with(
    workload: &Workload,
    state: ClusterState,
    config: &PhoenixConfig,
    cache: &mut ReplanCache,
    delta: ReplanDelta,
) -> PlanResult {
    let obs = phoenix_obs::current();
    obs.incr(phoenix_obs::Counter::WarmReplans);

    // --- Planner -------------------------------------------------------
    let t0 = Instant::now();
    let rank_timer = obs.phase(phoenix_obs::Phase::Rank);
    cache.refresh_epoch(workload, config, delta);

    let capacity = state.healthy_capacity();
    let capacity_bits = (capacity.cpu.to_bits(), capacity.mem.to_bits());
    let reuse = cache.capacity_bits == Some(capacity_bits) && cache.rank.is_some();
    let mut rank = cache.rank.take().unwrap_or_default();
    let old_len = rank.items.len();
    let replay = |order: &mut MergeOrder, rank: &mut Arc<GlobalRank>| {
        let rank = Arc::make_mut(rank);
        global_rank_replay(&cache.inputs, order, capacity, &config.planner, rank)
    };
    // Every branch yields how many leading items the new ranking keeps
    // from the previous one: the flat plan's patch point.
    let kept = if reuse {
        // Same healthy capacity, same specs: the previous ranking stands.
        obs.incr(phoenix_obs::Counter::RankFullReuses);
        old_len
    } else if config.objective.capacity_invariant() {
        obs.incr(phoenix_obs::Counter::MergeOrderReplays);
        let order = cache.merge_order.get_or_insert_with(|| {
            let shares = cache.inputs.fair_shares(capacity.scalar());
            merged_order(&cache.inputs, config.objective.as_ref(), &shares)
        });
        replay(order, &mut rank)
    } else {
        // Capacity-sensitive objectives (fairness): scores are static per
        // chain position once the fair shares are fixed, so a cached merge
        // order keyed by the exact share vector replays in linear time.
        // Shares repeat whenever total demand still fits the degraded
        // capacity (then share == demand for every app, whatever the node
        // count), which is the common monitor-tick case.
        let shares = cache.inputs.fair_shares(capacity.scalar());
        match &mut cache.share_order {
            Some((s, order)) if *s == shares => {
                obs.incr(phoenix_obs::Counter::ShareOrderReplays);
                replay(order, &mut rank)
            }
            _ if cache.last_shares.as_ref() == Some(&shares) => {
                // Second consecutive round on these shares: invest in the
                // replayable order now, amortized by the rounds that follow.
                obs.incr(phoenix_obs::Counter::ShareInvestments);
                let mut order = merged_order(&cache.inputs, config.objective.as_ref(), &shares);
                let kept = replay(&mut order, &mut rank);
                cache.share_order = Some((shares, order));
                kept
            }
            share_order => {
                obs.incr(phoenix_obs::Counter::ColdMerges);
                let fresh = global_rank_prepared(
                    &cache.inputs,
                    config.objective.as_ref(),
                    capacity,
                    &config.planner,
                );
                // The heap wrote this ranking, so the share order's marks
                // no longer describe the cached one; compare items instead.
                if let Some((_, order)) = share_order {
                    order.forget_marks();
                }
                cache.last_shares = Some(shares);
                let same = rank.items.iter().zip(&fresh.items);
                let kept = same.take_while(|(a, b)| a == b).count();
                rank = Arc::new(fresh);
                kept
            }
        }
    };

    // Patch the flattened pod plan incrementally: activation lists between
    // consecutive rounds share a (usually near-total) prefix, whose
    // flattened pods and rank-map entries are identical by construction.
    // Only the diverging tail is torn down and rebuilt.
    //
    // Mode ladders break that construction — a tail change can upgrade or
    // downgrade a service whose replica block was emitted in the *prefix*,
    // changing its demand in place — so modal workloads skip the patch and
    // rebuild the flattened plan per round (still warm in the ranking
    // stage, which dominates).
    let modal = cache.modal;
    if !modal {
        let was_valid = cache.plan_valid;
        let (old_len, kept) = if was_valid {
            (old_len, kept)
        } else {
            cache.plan.pods.clear();
            (0, 0)
        };
        let plan_changed = kept != old_len || kept != rank.items.len();
        if plan_changed {
            // The kept items' pods keep their positions: the old plan is
            // cut where the last kept item's replica block ends.
            let offset = kept.checked_sub(1).map_or(0, |last| {
                let it = &rank.items[last];
                cache.plan.index.block_end(it.app, it.service)
            });
            cache.plan.pods.truncate(offset);
            for item in &rank.items[kept..] {
                let svc = workload.app(item.app).service(item.service);
                push_replicas(&mut cache.plan.pods, item, svc.replicas, svc.demand);
            }
        }
        if plan_changed || !was_valid {
            // O(services): the dense lookup table re-derives from the items.
            cache.plan.index.rebuild(workload, &rank.items);
        }
        cache.plan_valid = true;
    }
    cache.capacity_bits = Some(capacity_bits);
    cache.rank = Some(Arc::clone(&rank));
    drop(rank_timer);
    let planned = (rank, t0.elapsed());

    // Modal workloads re-flatten per round (see above); mode-less ones
    // pack the incrementally patched plan straight out of the cache.
    schedule(
        state,
        &config.packing,
        planned,
        &StatefulMarks::new(),
        |items| {
            let flat = match modal {
                true => Cow::Owned(flatten_plan(workload, items, modal)),
                false => Cow::Borrowed(&cache.plan),
            };
            (modal, flat)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::plan;
    use crate::spec::{AppSpecBuilder, ModeSpec, ServingMode, Workload};
    use crate::tags::Criticality;
    use phoenix_cluster::{NodeId, Resources};

    /// A mixed workload: chained apps with graphs, a flat app, uneven
    /// prices and replica counts.
    fn workload(seed: u64) -> Workload {
        let mut apps = Vec::new();
        for a in 0..6u64 {
            let mut b = AppSpecBuilder::new(format!("app{a}"));
            let n = 3 + ((a + seed) % 4) as usize;
            let ids: Vec<_> = (0..n)
                .map(|s| {
                    b.add_service(
                        format!("s{s}"),
                        Resources::cpu(1.0 + ((s as u64 + seed) % 3) as f64),
                        Some(Criticality::new(1 + ((s as u64 * 7 + a) % 5) as u8)),
                        1 + ((s as u64 + a) % 2) as u16,
                    )
                })
                .collect();
            if a % 2 == 0 {
                for w in ids.windows(2) {
                    b.add_dependency(w[0], w[1]);
                }
            }
            b.price_per_unit(1.0 + (a % 3) as f64);
            apps.push(b.build().unwrap());
        }
        Workload::new(apps)
    }

    fn assert_equivalent(cold: &PlanResult, warm: &PlanResult) {
        assert_eq!(cold.actions, warm.actions, "action plans diverged");
        assert_eq!(cold.modes, warm.modes, "mode assignments diverged");
        assert_eq!(cold.rank.items, warm.rank.items);
        assert_eq!(cold.rank.fair_shares, warm.rank.fair_shares);
        assert_eq!(cold.rank.allocated, warm.rank.allocated);
        assert_eq!(cold.packing.deletions, warm.packing.deletions);
        assert_eq!(cold.packing.migrations, warm.packing.migrations);
        assert_eq!(cold.packing.starts, warm.packing.starts);
        assert_eq!(cold.packing.unplaced, warm.packing.unplaced);
        let mut a: Vec<_> = cold.target.assignments().map(|(p, n, _)| (p, n)).collect();
        let mut b: Vec<_> = warm.target.assignments().map(|(p, n, _)| (p, n)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "target states diverged");
    }

    /// Drives a churn scenario (progressive failures, recovery, respawn)
    /// through warm replans and checks each round against a cold plan.
    fn churn_equivalence(kind: ObjectiveKind, delta: ReplanDelta) {
        let w = workload(3);
        let config = PhoenixConfig::with_objective(kind);
        let mut cache = ReplanCache::default();
        let mut live = ClusterState::homogeneous(8, Resources::cpu(4.0));

        for round in 0..6 {
            let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
            let warm = replan_with(&w, live.clone(), &config, &mut cache, delta);
            assert_equivalent(&cold, &warm);

            // Apply the plan, then mutate the cluster for the next round.
            live = warm.target.clone();
            match round {
                0 => {
                    live.fail_node(NodeId::new(0));
                }
                1 => {
                    live.fail_node(NodeId::new(1));
                    live.fail_node(NodeId::new(2));
                }
                2 => {
                    live.restore_node(NodeId::new(0));
                }
                3 => {} // steady round: capacity unchanged, full rank reuse
                _ => {
                    live.restore_node(NodeId::new(1));
                    live.restore_node(NodeId::new(2));
                }
            }
        }
    }

    #[test]
    fn warm_equals_cold_under_churn_fairness() {
        churn_equivalence(ObjectiveKind::Fairness, ReplanDelta::Full);
        churn_equivalence(ObjectiveKind::Fairness, ReplanDelta::CapacityOnly);
    }

    /// `workload(seed)` with degraded-serving ladders on roughly half the
    /// services: 4-rung tables on the even picks, a minimal Full/Shed
    /// table on some odd ones, and plain services in between.
    fn modal_workload(seed: u64) -> Workload {
        let mut apps = Vec::new();
        for a in 0..6u64 {
            let mut b = AppSpecBuilder::new(format!("app{a}"));
            let n = 3 + ((a + seed) % 4) as usize;
            for s in 0..n {
                let full = 1.0 + ((s as u64 + seed) % 3) as f64;
                let id = b.add_service(
                    format!("s{s}"),
                    Resources::cpu(full),
                    Some(Criticality::new(1 + ((s as u64 * 7 + a) % 5) as u8)),
                    1 + ((s as u64 + a) % 2) as u16,
                );
                match (s as u64 + a) % 3 {
                    0 => {
                        b.service_modes(
                            id,
                            vec![
                                ModeSpec::new(ServingMode::Full, Resources::cpu(full), 1.0),
                                ModeSpec::new(
                                    ServingMode::StaleCache,
                                    Resources::cpu(full * 0.75),
                                    0.8,
                                ),
                                ModeSpec::new(
                                    ServingMode::ReadOnly,
                                    Resources::cpu(full * 0.5),
                                    0.55,
                                ),
                                ModeSpec::new(ServingMode::Shed, Resources::cpu(full * 0.25), 0.1),
                            ],
                        );
                    }
                    1 => {
                        b.service_modes(
                            id,
                            vec![
                                ModeSpec::new(ServingMode::Full, Resources::cpu(full), 1.0),
                                ModeSpec::new(ServingMode::Shed, Resources::cpu(full * 0.2), 0.05),
                            ],
                        );
                    }
                    _ => {}
                }
            }
            b.price_per_unit(1.0 + (a % 3) as f64);
            apps.push(b.build().unwrap());
        }
        Workload::new(apps)
    }

    /// Mode-bearing specs through the same churn harness: warm replans
    /// must stay byte-identical to a cold plan while ladders are being cut
    /// and re-extended by the failing/recovering capacity.
    #[test]
    fn modal_warm_equals_cold_under_churn() {
        for kind in [ObjectiveKind::Fairness, ObjectiveKind::Cost] {
            let w = modal_workload(1);
            let config = PhoenixConfig::with_objective(kind);
            let mut cache = ReplanCache::default();
            // Tight enough that several ladders are cut mid-way.
            let mut live = ClusterState::homogeneous(6, Resources::cpu(4.0));
            for round in 0..6u32 {
                let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
                let warm = replan_with(&w, live.clone(), &config, &mut cache, ReplanDelta::Full);
                let tag = format!("{kind:?} round {round}");
                assert_eq!(cold.actions, warm.actions, "{tag}");
                assert_equivalent(&cold, &warm);
                live = warm.target.clone();
                match round {
                    0 => {
                        live.fail_node(NodeId::new(0));
                    }
                    1 => {
                        live.fail_node(NodeId::new(1));
                        live.fail_node(NodeId::new(2));
                    }
                    2 => {
                        live.restore_node(NodeId::new(0));
                    }
                    3 => {} // steady round
                    _ => {
                        live.restore_node(NodeId::new(round % 3));
                    }
                }
            }
            // Crunch rounds must actually have exercised ladders.
            assert!(
                cache
                    .rank
                    .as_ref()
                    .is_some_and(|r| r.items.iter().any(|i| i.mode != ServingMode::Full)),
                "no degraded rung ever ranked — fixture too loose"
            );
        }
    }

    #[test]
    fn warm_equals_cold_under_churn_cost() {
        churn_equivalence(ObjectiveKind::Cost, ReplanDelta::Full);
        churn_equivalence(ObjectiveKind::Cost, ReplanDelta::CapacityOnly);
    }

    #[test]
    fn merge_order_replay_matches_heap_at_every_capacity() {
        // The replay path must equal the heap merge for every capacity,
        // including degenerate ones, for capacity-invariant objectives,
        // each replay writing into the previous capacity's ranking.
        use crate::objectives::{CostObjective, CriticalityObjective, OperatorObjective};
        use crate::planner::Traversal;
        use crate::ranking::{global_rank_prepared, global_rank_replay, merged_order, RankInputs};

        for seed in 0..4u64 {
            let w = workload(seed);
            let ranks: Vec<_> = w
                .apps()
                .map(|(_, a)| app_rank(a, Traversal::CriticalityGuidedDfs))
                .collect();
            let inputs = RankInputs::new(&w, &ranks);
            let objectives: [&dyn OperatorObjective; 2] = [&CostObjective, &CriticalityObjective];
            for objective in objectives {
                let mut order = merged_order(&inputs, objective, &inputs.fair_shares(1.0));
                for continue_on_saturation in [false, true] {
                    let cfg = PlannerConfig {
                        continue_on_saturation,
                        ..PlannerConfig::default()
                    };
                    let mut warm = GlobalRank::default();
                    order.forget_marks();
                    // Up the ladder and back down, with a repeat.
                    let caps = [
                        0.0, 1.0, 3.0, 7.5, 13.0, 26.0, 1000.0, 1000.0, 13.0, 7.5, 0.0,
                    ];
                    for cap in caps {
                        let capacity = Resources::cpu(cap);
                        let cold = global_rank_prepared(&inputs, objective, capacity, &cfg);
                        let previous = warm.items.clone();
                        let kept =
                            global_rank_replay(&inputs, &mut order, capacity, &cfg, &mut warm);
                        assert_eq!(cold.items, warm.items, "cap {cap}");
                        assert_eq!(cold.allocated, warm.allocated, "cap {cap}");
                        let common = previous.iter().zip(&warm.items).take_while(|(a, b)| a == b);
                        assert_eq!(kept, common.count(), "cap {cap}");
                    }
                }
            }
        }
    }

    #[test]
    fn share_replay_kicks_in_when_demand_fits_and_stays_equivalent() {
        // Under-demand regime: whatever the (degraded) node count, every
        // app's water-filling share equals its demand, so the fairness
        // merge order is replayable. Round 1 primes, round 2 invests in
        // the share-keyed order, rounds 3+ replay — each must still be
        // byte-identical to a cold plan.
        let w = workload(5);
        let config = PhoenixConfig::with_objective(ObjectiveKind::Fairness);
        let mut cache = ReplanCache::default();
        let mut live = ClusterState::homogeneous(40, Resources::cpu(4.0));
        for round in 0..5 {
            let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
            let warm = replan_with(
                &w,
                live.clone(),
                &config,
                &mut cache,
                ReplanDelta::CapacityOnly,
            );
            assert_equivalent(&cold, &warm);
            live = warm.target.clone();
            live.fail_node(NodeId::new(round));
        }
        assert!(
            cache.share_order.is_some(),
            "share-keyed merge order never built"
        );
    }

    #[test]
    fn share_order_replay_after_a_cold_merge_stays_equivalent() {
        // Invest in the share order, crunch (the heap writes the ranking),
        // then return above total demand: the older share order replays
        // into the heap's ranking, so it must not trust its old marks.
        let w = workload(5);
        let config = PhoenixConfig::with_objective(ObjectiveKind::Fairness);
        let mut cache = ReplanCache::default();
        let mut live = ClusterState::homogeneous(40, Resources::cpu(4.0));
        let crunch: Vec<NodeId> = (2..20).map(NodeId::new).collect();
        let recorder = phoenix_obs::Recorder::enabled();
        for round in 0..6 {
            let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
            let warm = phoenix_obs::with_recorder(recorder.clone(), || {
                replan_with(
                    &w,
                    live.clone(),
                    &config,
                    &mut cache,
                    ReplanDelta::CapacityOnly,
                )
            });
            assert_equivalent(&cold, &warm);
            live = warm.target.clone();
            match round {
                0 | 1 => _ = live.fail_node(NodeId::new(round)),
                2 => crunch.iter().for_each(|&n| _ = live.fail_node(n)),
                3 => crunch.iter().for_each(|&n| live.restore_node(n)),
                _ => _ = live.fail_node(NodeId::new(20 + round)),
            }
        }
        use phoenix_obs::Counter::{ColdMerges, ShareInvestments, ShareOrderReplays};
        let count = |c| recorder.counter(c);
        assert_eq!(
            (
                count(ColdMerges),
                count(ShareInvestments),
                count(ShareOrderReplays)
            ),
            (2, 1, 3)
        );
    }

    #[test]
    fn spec_change_invalidates_rank_cache() {
        let mut w = workload(0);
        let config = PhoenixConfig::with_objective(ObjectiveKind::Cost);
        let live = ClusterState::homogeneous(8, Resources::cpu(4.0));
        let mut cache = ReplanCache::default();
        let _ = replan_with(&w, live.clone(), &config, &mut cache, ReplanDelta::Full);
        assert!(cache.planner_cfg.is_some());

        // Raise one app's price: the cost ranking must reorder.
        let mut b = AppSpecBuilder::new("vip");
        b.add_service("only", Resources::cpu(1.0), Some(Criticality::C1), 1);
        b.price_per_unit(100.0);
        let apps = w.apps().map(|(_, a)| a.clone()).chain([b.build().unwrap()]);
        w = Workload::new(apps.collect());
        let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
        let warm = replan_with(&w, live.clone(), &config, &mut cache, ReplanDelta::Full);
        assert_equivalent(&cold, &warm);
        assert_eq!(warm.rank.items[0].app.index(), 6, "new high payer first");
    }

    #[test]
    fn same_name_custom_objective_swap_never_reuses_stale_caches() {
        // Two distinct custom objectives sharing one `name()`: the cache
        // cannot observe custom-objective state, so it must re-rank every
        // round instead of replaying an order built under the old scores.
        use crate::objectives::{OperatorObjective, RankContext};

        #[derive(Debug)]
        struct Weighted(f64);
        impl OperatorObjective for Weighted {
            fn score(&self, ctx: &RankContext) -> f64 {
                ctx.price * self.0 - f64::from(ctx.criticality.level())
            }
            fn name(&self) -> &'static str {
                "custom"
            }
        }

        let w = workload(4);
        let live = ClusterState::homogeneous(4, Resources::cpu(3.0));
        let mut cache = ReplanCache::default();
        for weight in [2.0, 2.0, -3.0] {
            let config = PhoenixConfig {
                objective: Box::new(Weighted(weight)),
                planner: PlannerConfig {
                    continue_on_saturation: true,
                    ..PlannerConfig::default()
                },
                packing: Default::default(),
            };
            let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
            let warm = replan_with(&w, live.clone(), &config, &mut cache, ReplanDelta::Full);
            assert_equivalent(&cold, &warm);
        }
    }

    #[test]
    fn objective_swap_between_rounds_is_detected() {
        let w = workload(1);
        let live = ClusterState::homogeneous(4, Resources::cpu(3.0));
        let mut cache = ReplanCache::default();
        let fair = PhoenixConfig::with_objective(ObjectiveKind::Fairness);
        let cost = PhoenixConfig::with_objective(ObjectiveKind::Cost);
        let _ = replan_with(&w, live.clone(), &fair, &mut cache, ReplanDelta::Full);
        let warm = replan_with(&w, live.clone(), &cost, &mut cache, ReplanDelta::Full);
        let cold = plan(&w, live.clone(), &cost, &StatefulMarks::new());
        assert_equivalent(&cold, &warm);
    }

    #[test]
    fn cache_clear_resets() {
        let w = workload(0);
        let config = PhoenixConfig::default();
        let live = ClusterState::homogeneous(2, Resources::cpu(2.0));
        let mut cache = ReplanCache::default();
        let _ = replan_with(&w, live.clone(), &config, &mut cache, ReplanDelta::Full);
        assert!(cache.planner_cfg.is_some());
        cache = ReplanCache::default();
        assert!(cache.planner_cfg.is_none());
        let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
        let warm = replan_with(&w, live.clone(), &config, &mut cache, ReplanDelta::Full);
        assert_equivalent(&cold, &warm);
    }
}
