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
//! [`PhoenixController::replan`](crate::controller::PhoenixController::replan)).
//! A primed cache also serves the controller's cold rounds
//! ([`PhoenixController::plan`](crate::controller::PhoenixController::plan)),
//! read-only: they rank from its epoch (layer 1) and the orders of
//! layer 2, and flatten and pack from scratch.
//!
//! 1. **Rank cache** — each app's activation order
//!    ([`crate::planner::app_rank`]) is cached under a cheap structural
//!    [`fingerprint`](crate::spec::AppSpec::fingerprint); unchanged apps
//!    skip the dependency-graph walk entirely.
//! 2. **Warm global ranking** — the flattened [`RankInputs`] are cached
//!    alongside, and so is one merge order, the heap's pop order
//!    ([`merged_order`]) under the fair shares it was built for, which
//!    a replay walks with no scoring and no heap. One validity check
//!    serves warm and cold rounds: the objective's
//!    [`form`](crate::objectives::OperatorObjective::form) decides it. A
//!    [`Static`](ScoreForm::Static) objective's order (cost) is valid
//!    under any capacity; any other's only under bit-identical shares
//!    (whenever total demand fits the capacity, shares equal demands),
//!    and a warm round under other shares rebuilds it. A
//!    [`ShareScaled`](ScoreForm::ShareScaled) objective (fairness)
//!    derives it in O(entries) from two orders the epoch sorts once
//!    (`ranking::EpochOrders`); an [`Opaque`](ScoreForm::Opaque) one
//!    merges it on the heap. A cold round walks one source into a fresh
//!    ranking (`ranking::rank_from`): the cached order where it is
//!    valid, else a derived order, else the heap. A warm replay rewrites
//!    the previous [`GlobalRank`] in place:
//!    it checks each fit decision against the mark the last replay of
//!    that order left (a new order has none, and compares items), writes
//!    items only from the first changed decision, and returns that
//!    index. After a replay that took every step, a replay at or above
//!    the order's all-fit capacity walks no step at all (the all-fit
//!    short-cut of [`global_rank_replay`]). The ranking is shared
//!    (`Arc`) with the round's [`PlanResult`], never cloned; when
//!    capacity is bit-identical to the previous round it is reused
//!    whole.
//! 3. **Warm packing** — the flattened plan is patched only where the
//!    ranking actually changed (the replay's index), and its
//!    [`PlanIndex`] rebuilt only then; both go through the scheduler half the cold path ends in too
//!    (`controller::schedule`: pack, then the action diff), on the state
//!    the round owns: running pods are kept in place, only pods
//!    invalidated by failures or rank changes are re-homed, and the
//!    actions come from the pack's record of where each touched pod ran
//!    before it. The pack's drop pass starts from the previous round's
//!    final standing ([`PackCarry`], cut where the patch rebuilt the
//!    plan's tail): when the state handed in still shares the previous
//!    target's pod table — the adopted target with nodes failed or
//!    restored — it re-reads only the nodes whose pod list changed and
//!    the rebuilt tail, O(Δ) instead of O(running pods). A modal
//!    workload, a rebuilt plan, a state of another lineage, or a pod
//!    table that grew since takes the full pass. The placement loop then
//!    visits only the positions left unsettled, and the pack's node
//!    order comes from the carry too, re-keyed only where a node's
//!    health or remaining capacity moved. The copy at the
//!    [`PhoenixController::replan`] boundary shares the table, the node
//!    lists and the pod pages copy-on-write, so it copies only the
//!    per-node columns, and the pack copies the pages it writes. A
//!    capacity-only tick costs O(Δ + nodes) end to end.
//!
//! [`PhoenixController::replan`]: crate::controller::PhoenixController::replan
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

use phoenix_cluster::packing::{PackCarry, PlanIndex};
use phoenix_cluster::{ClusterState, PodKey};

use crate::controller::{
    flatten_plan, push_replicas, schedule, FlatPlan, PhoenixConfig, PlanResult,
};
use crate::objectives::ScoreForm;
use crate::planner::app_rank;
use crate::ranking::{
    global_rank_replay, merged_order, rank_from, warm_order, EpochOrders, GlobalRank, MergeOrder,
    RankInputs,
};
use crate::spec::{ServiceId, ServingMode, Workload};
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
/// first round a plain cold plan that primes every layer. The controller's
/// config is fixed at construction, so nothing here is keyed on it: every
/// round plans under the config that primed the cache.
#[derive(Debug, Default)]
pub(crate) struct ReplanCache {
    /// Whether a round has built the epoch inputs below; until then even a
    /// [`ReplanDelta::CapacityOnly`] round builds them.
    primed: bool,
    /// Epoch inputs: valid while fingerprints match.
    fingerprints: Vec<u64>,
    app_ranks: Vec<Vec<ServiceId>>,
    inputs: RankInputs,
    /// The epoch's [`Workload::has_modes`] (fingerprints cover mode
    /// tables), so a round does not rescan every service.
    modal: bool,
    /// The merge order and the fair shares it was built under (none for
    /// a [`ScoreForm::Static`] objective's): valid where [`valid`] says
    /// so, rebuilt by the first warm round where it is not.
    order: Option<(Vec<f64>, MergeOrder)>,
    /// A [`ScoreForm::ShareScaled`] objective's two epoch orders, which
    /// derive the share-keyed order under any shares without the heap;
    /// `None` for other forms and for chains [`EpochOrders::of`] declines.
    epoch_orders: Option<EpochOrders>,
    /// Round outputs: valid while the epoch holds and capacity matches.
    capacity_bits: Option<(u64, u64)>,
    /// The last round's ranking, shared with its [`PlanResult::rank`]. A
    /// replay rewrites it in place through [`Arc::make_mut`], which
    /// copies it only while a caller still holds that result.
    rank: Option<Arc<GlobalRank>>,
    /// The mode-less flattened plan, patched per round (modes stay empty).
    plan: FlatPlan,
    plan_valid: bool,
    /// The last warm pack's final standing of `plan`, cut where the patch
    /// changes it, and handles on the target it left.
    carry: PackCarry,
}

impl ReplanCache {
    /// Re-validates the epoch layers against the workload. Each app either
    /// keeps its cached rank (fingerprint unchanged) or walks [`app_rank`]
    /// again; any change invalidates the rank and merge-order caches.
    fn refresh_epoch(&mut self, workload: &Workload, config: &PhoenixConfig, delta: ReplanDelta) {
        if delta == ReplanDelta::CapacityOnly && self.primed {
            debug_assert!(
                workload.app_count() == self.fingerprints.len()
                    && workload
                        .apps()
                        .zip(&self.fingerprints)
                        .all(|((_, a), &f)| a.fingerprint() == f),
                "ReplanDelta::CapacityOnly passed after a spec change"
            );
            return;
        }
        let mut ranks_changed = !self.primed || workload.app_count() != self.fingerprints.len();
        let mut fingerprints = Vec::with_capacity(workload.app_count());
        let mut app_ranks: Vec<Vec<ServiceId>> = Vec::with_capacity(workload.app_count());
        let obs = phoenix_obs::current();
        for (i, (_, app)) in workload.apps().enumerate() {
            let fp = app.fingerprint();
            // `fingerprints` and `app_ranks` are replaced together.
            if self.fingerprints.get(i) == Some(&fp) {
                obs.incr(phoenix_obs::Counter::ReplanCacheHits);
                app_ranks.push(std::mem::take(&mut self.app_ranks[i]));
            } else {
                obs.incr(phoenix_obs::Counter::ReplanCacheMisses);
                obs.incr(phoenix_obs::Counter::AppRankWalks);
                ranks_changed = true;
                app_ranks.push(app_rank(app, config.planner.traversal));
            }
            fingerprints.push(fp);
        }
        self.fingerprints = fingerprints;
        self.app_ranks = app_ranks;
        if ranks_changed {
            self.inputs = RankInputs::new(workload, &self.app_ranks);
            self.modal = workload.has_modes();
            self.order = None;
            self.epoch_orders = match config.objective.form() {
                ScoreForm::ShareScaled => EpochOrders::of(&self.inputs),
                _ => None,
            };
            self.capacity_bits = None;
            self.rank = None;
            self.plan_valid = false;
        }
        self.primed = true;
    }

    /// The epoch's [`Workload::has_modes`], once a round has primed the
    /// epoch; `None` before.
    pub(crate) fn epoch_modal(&self) -> Option<bool> {
        self.primed.then_some(self.modal)
    }

    /// A cold round's ranking of `state` from the primed epoch, reading
    /// the cache only: a read-only walk of the cached merge order where it
    /// is [`valid`] under this round's shares, else a
    /// [`ScoreForm::ShareScaled`] objective's order derived from the
    /// epoch orders, else the heap over the epoch's inputs.
    pub(crate) fn epoch_rank(&self, state: &ClusterState, config: &PhoenixConfig) -> GlobalRank {
        debug_assert!(self.primed, "ranking from an unprimed epoch");
        let capacity = state.healthy_capacity().scalar();
        let shares = self.inputs.fair_shares(capacity);
        let objective = config.objective.as_ref();
        let cached = (self.order.as_ref())
            .filter(|(key, _)| valid(objective.form(), key, &shares))
            .map(|(_, order)| order);
        let (inputs, orders, cfg) = (&self.inputs, self.epoch_orders.as_ref(), &config.planner);
        rank_from(inputs, cached, orders, objective, shares, capacity, cfg)
    }
}

/// Whether a merge order built under the fair shares `key` is valid for
/// a round whose shares are `shares`: a [`ScoreForm::Static`]
/// objective's under any shares, any other's only under bit-identical
/// ones (see [`merged_order`]).
fn valid(form: ScoreForm, key: &[f64], shares: &[f64]) -> bool {
    let bits = |x: &f64| x.to_bits();
    form == ScoreForm::Static || key.iter().map(bits).eq(shares.iter().map(bits))
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
    // Every branch yields how many leading items the new ranking keeps
    // from the previous one: the flat plan's patch point.
    let kept = if reuse {
        // Same healthy capacity, same specs: the previous ranking stands.
        obs.incr(phoenix_obs::Counter::RankFullReuses);
        old_len
    } else {
        // Scores are static per chain position once the shares are fixed:
        // shares the cached order is not valid under build a new one
        // (unmarked: its first replay compares items).
        let (inputs, objective) = (&cache.inputs, config.objective.as_ref());
        let form = objective.form();
        // A Static objective's order is valid under any shares: it keeps
        // none, so its rounds water-fill only in the replay.
        let shares = match form {
            ScoreForm::Static => Vec::new(),
            _ => inputs.fair_shares(capacity.scalar()),
        };
        let hit = (cache.order.as_ref()).is_some_and(|(key, _)| valid(form, key, &shares));
        obs.incr(match (form, hit) {
            (ScoreForm::Static, _) => phoenix_obs::Counter::MergeOrderReplays,
            (_, true) => phoenix_obs::Counter::ShareOrderReplays,
            (_, false) => phoenix_obs::Counter::ShareInvestments,
        });
        let order = match &mut cache.order {
            Some((_, order)) if hit => order,
            slot => {
                let order = match form {
                    ScoreForm::Static => {
                        merged_order(inputs, objective, &inputs.fair_shares(capacity.scalar()))
                    }
                    _ => warm_order(inputs, cache.epoch_orders.as_ref(), objective, &shares),
                };
                &mut slot.insert((shares, order)).1
            }
        };
        let rank = Arc::make_mut(&mut rank);
        global_rank_replay(inputs, order, capacity, &config.planner, rank)
    };

    // Patch the flattened pod plan incrementally: activation lists between
    // consecutive rounds share a (usually near-total) prefix, whose
    // flattened pods are identical by construction.
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
            cache.carry.clear();
            (0, 0)
        };
        let plan_changed = kept != old_len || kept != rank.items.len();
        if plan_changed {
            // The kept items' pods keep their positions: the old plan is
            // cut after the last replica of the last kept item.
            let offset = kept.checked_sub(1).map_or(0, |last| {
                let it = &rank.items[last];
                let last = workload.app(it.app).service(it.service).replicas - 1;
                let pod = PodKey::new(it.app.index() as u32, it.service.index() as u32, last);
                cache.plan.index.get(pod).expect("a kept item is planned") + 1
            });
            cache.carry.cut(&cache.plan.pods, offset);
            cache.plan.pods.truncate(offset);
            for item in &rank.items[kept..] {
                push_replicas(&mut cache.plan.pods, workload, item, ServingMode::Full);
            }
        }
        if plan_changed || !was_valid {
            cache.plan.index = PlanIndex::of(&cache.plan.pods);
        }
        cache.plan_valid = true;
    }
    cache.capacity_bits = Some(capacity_bits);
    cache.rank = Some(Arc::clone(&rank));
    drop(rank_timer);
    let planned = (rank, t0.elapsed());

    // Modal workloads re-flatten per round (see above); mode-less ones
    // pack the incrementally patched plan straight out of the cache, and
    // carry the pack's standing across rounds.
    let carry = (!modal).then_some(&mut cache.carry);
    schedule(
        state,
        &config.packing,
        planned,
        &StatefulMarks::new(),
        carry,
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
    use crate::objectives::ObjectiveKind;
    use crate::planner::PlannerConfig;
    use crate::spec::{AppSpecBuilder, ModeSpec, ServingMode, Workload};
    use crate::tags::Criticality;
    use phoenix_cluster::{NodeId, PodKey, Resources};

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
        // including degenerate ones, for static objectives,
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
                for continue_on_saturation in [false, true] {
                    let cfg = PlannerConfig {
                        continue_on_saturation,
                        ..PlannerConfig::default()
                    };
                    let mut warm = GlobalRank::default();
                    let mut order = merged_order(&inputs, objective, &inputs.fair_shares(1.0));
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
        assert!(cache.order.is_some(), "share-keyed merge order never built");
    }

    #[test]
    fn share_order_rebuilt_after_a_crunch_stays_equivalent() {
        // Build the share order above total demand, crunch (new shares:
        // a new order, derived, writes the ranking), then return above
        // total demand: the order is rebuilt under the first shares again
        // and replays, unmarked, into the crunch's ranking. No round runs
        // the heap.
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
            (0, 3, 3)
        );
    }

    /// An opaque custom objective: price-weighted, criticality-penalised.
    #[derive(Debug)]
    struct Weighted(f64);

    impl crate::objectives::OperatorObjective for Weighted {
        fn score(&self, ctx: &crate::objectives::RankContext) -> f64 {
            ctx.price * self.0 - f64::from(ctx.criticality.level())
        }
        fn name(&self) -> &'static str {
            "weighted"
        }
    }

    #[test]
    fn epoch_rank_replays_the_share_order_only_under_its_shares() {
        // Above total demand the shares repeat, so the warm rounds keep
        // one share-keyed order. A cold round at such a capacity replays
        // it without walking an app rank and leaves its marks to the warm
        // round that follows. A crunch moves the shares: a cold round
        // there derives Fairness's order from the epoch orders, walking
        // every step of it, and runs the heap for an opaque objective.
        use phoenix_obs::Counter::{AppRankWalks, ReplaySteps};
        let w = workload(5);
        let traversal = PlannerConfig::default().traversal;
        let entries: usize = w.apps().map(|(_, a)| app_rank(a, traversal).len()).sum();
        let objectives: [(Box<dyn crate::objectives::OperatorObjective>, bool); 2] = [
            (ObjectiveKind::Fairness.build(), true),
            (Box::new(Weighted(2.0)), false),
        ];
        for (objective, derives) in objectives {
            let config = PhoenixConfig {
                objective,
                ..PhoenixConfig::default()
            };
            let mut cache = ReplanCache::default();
            let mut live = ClusterState::homogeneous(40, Resources::cpu(4.0));
            for round in 0..3 {
                let delta = ReplanDelta::CapacityOnly;
                live = replan_with(&w, live, &config, &mut cache, delta).target;
                live.fail_node(NodeId::new(round));
            }
            assert!(cache.order.is_some(), "no share-keyed order built");
            let mut crunch = live.clone();
            (3..20).for_each(|n| _ = crunch.fail_node(NodeId::new(n)));
            let crunch_steps = if derives { entries } else { 0 };
            for (state, steps) in [(&crunch, crunch_steps), (&live, entries)] {
                let recorder = phoenix_obs::Recorder::enabled();
                let rank = phoenix_obs::with_recorder(recorder.clone(), || {
                    cache.epoch_rank(state, &config)
                });
                assert_eq!(recorder.counter(AppRankWalks), 0);
                assert_eq!(recorder.counter(ReplaySteps), steps as u64);
                let cold = plan(&w, state.clone(), &config, &StatefulMarks::new());
                crate::ranking::assert_same_rank(&rank, &cold.rank, "epoch rank");
            }
            let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
            let warm = replan_with(&w, live, &config, &mut cache, ReplanDelta::CapacityOnly);
            assert_equivalent(&cold, &warm);
        }
    }

    /// How a caller touches the adopted target between two warm rounds.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Touch {
        /// `remove`, `migrate` and `assign` of known pods.
        Moves,
        /// `set_degrade` evicts pods.
        Degrade,
        /// `snapshot`, a new pod, a failure, then `restore_to`, which
        /// hands back the snapshot's pod table and node lists.
        Restore,
        /// A never-seen pod is assigned (a scale-up outside the plan).
        NewKey,
        /// The caller hands over the state rebuilt pod by pod.
        Foreign,
        /// The caller mutates the target and a clone of it.
        Twin,
    }

    /// One warm round on `live` checked against a cold plan (same actions,
    /// outcome and `bitwise_eq` target), with its drop-pass visits.
    fn checked_round(
        w: &Workload,
        config: &PhoenixConfig,
        cache: &mut ReplanCache,
        live: &ClusterState,
    ) -> (PlanResult, u64) {
        let cold = plan(w, live.clone(), config, &StatefulMarks::new());
        let recorder = phoenix_obs::Recorder::enabled();
        let warm = phoenix_obs::with_recorder(recorder.clone(), || {
            replan_with(w, live.clone(), config, cache, ReplanDelta::CapacityOnly)
        });
        assert_equivalent(&cold, &warm);
        assert!(warm.target.bitwise_eq(&cold.target), "targets differ");
        let visits = recorder.counter(phoenix_obs::Counter::PackDropVisits);
        (warm, visits)
    }

    /// Assigns `pod` to the first node that takes it.
    fn assign_anywhere(state: &mut ClusterState, pod: PodKey, demand: Resources) {
        let mut nodes = state.node_ids().into_iter();
        let placed = nodes.any(|n| state.assign(pod, demand, n).is_ok());
        assert!(placed, "{pod} fits nowhere");
    }

    /// Warm rounds around a caller's `touch` of the adopted target: the
    /// round after it equals a cold plan, reads the whole state when the
    /// touch leaves the carry unable to speak for it, and the carry is
    /// back for the round after that.
    fn touched_between_rounds(touch: Touch) {
        for kind in [ObjectiveKind::Fairness, ObjectiveKind::Cost] {
            let w = workload(3);
            let config = PhoenixConfig::with_objective(kind);
            let mut cache = ReplanCache::default();
            let fresh = ClusterState::homogeneous(8, Resources::cpu(4.0));
            let mut live = checked_round(&w, &config, &mut cache, &fresh).0.target;
            live.fail_node(NodeId::new(0));
            let mut live = checked_round(&w, &config, &mut cache, &live).0.target;
            // An empty node: room for the caller's moves.
            live.restore_node(NodeId::new(0));
            let newcomer = PodKey::new(99, 0, 0);
            let mut twin = None;
            match touch {
                Touch::Moves => {
                    let running: Vec<PodKey> = live.assignments().map(|(p, _, _)| p).collect();
                    let (_, demand) = live.remove(running[0]).unwrap();
                    live.migrate(running[1], NodeId::new(0)).unwrap();
                    assign_anywhere(&mut live, running[0], demand);
                }
                Touch::Degrade => {
                    let evicted = live.set_degrade(NodeId::new(1), 0.3);
                    assert!(!evicted.is_empty());
                }
                Touch::Restore => {
                    let snap = live.snapshot();
                    assign_anywhere(&mut live, newcomer, Resources::cpu(0.01));
                    live.fail_node(NodeId::new(2));
                    live.restore_to(&snap);
                    assert_eq!(live.node_of(newcomer), None);
                }
                Touch::NewKey => assign_anywhere(&mut live, newcomer, Resources::cpu(0.01)),
                Touch::Foreign => {
                    let mut rebuilt = ClusterState::homogeneous(8, Resources::cpu(4.0));
                    rebuilt.fail_node(NodeId::new(0));
                    for (pod, node, demand) in live.assignments() {
                        rebuilt.assign(pod, demand, node).unwrap();
                    }
                    rebuilt.restore_node(NodeId::new(0));
                    live = rebuilt;
                }
                Touch::Twin => {
                    let mut other = live.clone();
                    other.fail_node(NodeId::new(2));
                    assign_anywhere(&mut other, newcomer, Resources::cpu(0.01));
                    live.fail_node(NodeId::new(3));
                    twin = Some(other);
                }
            }
            let (after, visits) = checked_round(&w, &config, &mut cache, &live);
            let tag = format!("{kind:?} {touch:?}");
            let running = live.pod_count() as u64;
            match touch {
                Touch::NewKey | Touch::Foreign => assert_eq!(visits, running, "{tag}: full read"),
                Touch::Restore => assert!(visits < running, "{tag}: {visits} of {running} carried"),
                _ => {}
            }
            if touch == Touch::NewKey {
                assert!(after.packing.deletions.contains(&newcomer), "{tag}");
            }
            // The next tick carries again (on the twin: another table).
            let mut next = twin.unwrap_or(after.target);
            next.fail_node(NodeId::new(4));
            let running = next.pod_count() as u64;
            let (_, visits) = checked_round(&w, &config, &mut cache, &next);
            if touch == Touch::Twin {
                assert_eq!(visits, running, "{tag}: the twin interned a pod");
            } else {
                assert!(visits < running, "{tag}: {visits} of {running} visited");
            }
        }
    }

    #[test]
    fn caller_moves_between_rounds_stay_equivalent() {
        touched_between_rounds(Touch::Moves);
    }

    #[test]
    fn degrade_evictions_between_rounds_stay_equivalent() {
        touched_between_rounds(Touch::Degrade);
    }

    #[test]
    fn restore_that_uninterns_between_rounds_stays_equivalent() {
        touched_between_rounds(Touch::Restore);
    }

    #[test]
    fn new_pod_between_rounds_stays_equivalent() {
        touched_between_rounds(Touch::NewKey);
    }

    #[test]
    fn foreign_state_between_rounds_stays_equivalent() {
        touched_between_rounds(Touch::Foreign);
    }

    #[test]
    fn mutated_target_and_clone_stay_equivalent() {
        touched_between_rounds(Touch::Twin);
    }

    #[test]
    fn spec_change_invalidates_rank_cache() {
        let mut w = workload(0);
        let config = PhoenixConfig::with_objective(ObjectiveKind::Cost);
        let live = ClusterState::homogeneous(8, Resources::cpu(4.0));
        let mut cache = ReplanCache::default();
        let _ = replan_with(&w, live.clone(), &config, &mut cache, ReplanDelta::Full);
        assert!(cache.primed);

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
    fn custom_objectives_replay_warm() {
        // The cache keys nothing on the objective: a custom one and
        // `CriticalityObjective` replay warm like the built-ins, through
        // share orders merged on the heap whenever the shares change and
        // replayed while they repeat, and merge-order replays, and stay
        // equivalent to a cold plan.
        use crate::objectives::{CriticalityObjective, OperatorObjective};
        use phoenix_obs::Counter::{MergeOrderReplays, ShareOrderReplays};

        let objectives: [Box<dyn OperatorObjective>; 2] =
            [Box::new(Weighted(2.0)), Box::new(CriticalityObjective)];
        for objective in objectives {
            let config = PhoenixConfig {
                objective,
                ..PhoenixConfig::default()
            };
            let name = config.objective.name();
            let w = workload(5);
            let mut cache = ReplanCache::default();
            let mut live = ClusterState::homogeneous(40, Resources::cpu(4.0));
            let crunch: Vec<NodeId> = (2..20).map(NodeId::new).collect();
            let recorder = phoenix_obs::Recorder::enabled();
            for round in 0..6 {
                let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
                let warm = phoenix_obs::with_recorder(recorder.clone(), || {
                    let delta = ReplanDelta::CapacityOnly;
                    replan_with(&w, live.clone(), &config, &mut cache, delta)
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
            let replays = recorder.counter(MergeOrderReplays) + recorder.counter(ShareOrderReplays);
            assert!(replays > 0, "{name}: no round replayed warm");
        }
    }

    #[test]
    fn cache_clear_resets() {
        let w = workload(0);
        let config = PhoenixConfig::default();
        let live = ClusterState::homogeneous(2, Resources::cpu(2.0));
        let mut cache = ReplanCache::default();
        let _ = replan_with(&w, live.clone(), &config, &mut cache, ReplanDelta::Full);
        assert!(cache.primed);
        cache = ReplanCache::default();
        assert!(!cache.primed);
        let cold = plan(&w, live.clone(), &config, &StatefulMarks::new());
        let warm = replan_with(&w, live.clone(), &config, &mut cache, ReplanDelta::Full);
        assert_equivalent(&cold, &warm);
    }
}
