//! The end-to-end Phoenix controller: planner → global ranking → packing →
//! action plan, with stage timings (Fig. 8b measures exactly this path).
//! [`plan`] is the one pipeline function; [`PhoenixController`] adds the
//! warm replan cache ([`crate::replan`]).

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use phoenix_cluster::packing::{
    pack_prepared, PackCarry, PackOutcome, PackingConfig, PlanIndex, PlannedPod,
};
use phoenix_cluster::{ClusterState, PodKey, Resources};

use crate::actions::{diff_from_outcome, ActionPlan};
use crate::objectives::{ObjectiveKind, OperatorObjective};
use crate::planner::{app_rank, PlannerConfig};
use crate::ranking::{global_rank_prepared, GlobalRank, GlobalRankItem, RankInputs};
use crate::replan::{replan_with, ReplanCache, ReplanDelta};
use crate::spec::{ModeAssignment, ServiceId, ServingMode, Workload};
use crate::stateful::StatefulMarks;

/// Controller configuration: objective + planner + packing knobs. A
/// [`PhoenixController`] takes it at construction and never changes it;
/// planning under other knobs takes another controller.
#[derive(Debug)]
pub struct PhoenixConfig {
    /// Operator objective driving the global ranking.
    pub objective: Box<dyn OperatorObjective>,
    /// Planner knobs (traversal mode, saturation policy).
    pub planner: PlannerConfig,
    /// Packing knobs (fit strategy, migration, per-node pod limit).
    pub packing: PackingConfig,
}

impl Default for PhoenixConfig {
    fn default() -> PhoenixConfig {
        PhoenixConfig::with_objective(ObjectiveKind::Fairness)
    }
}

impl PhoenixConfig {
    /// Config with a built-in objective and default knobs.
    pub fn with_objective(kind: ObjectiveKind) -> PhoenixConfig {
        PhoenixConfig {
            objective: kind.build(),
            planner: PlannerConfig {
                // Phoenix activates per-app chains independently; retiring a
                // saturated app's chain (instead of stopping the world)
                // matches the observed behaviour of the reference system.
                continue_on_saturation: true,
                ..PlannerConfig::default()
            },
            packing: PackingConfig::default(),
        }
    }
}

/// Everything one planning round produces.
#[derive(Debug)]
pub struct PlanResult {
    /// The target cluster state: the planned state after packing.
    pub target: ClusterState,
    /// The global activation list and fair-share bookkeeping. Warm
    /// rounds share it with the controller's replan cache rather than
    /// copy it; the next replan rewrites the cached ranking in place and
    /// copies it first only if this result is still alive then.
    pub rank: Arc<GlobalRank>,
    /// Raw packing outcome (deletions/migrations/starts/origins).
    pub packing: PackOutcome,
    /// Agent task list: live → target.
    pub actions: ActionPlan,
    /// Chosen serving mode per service. Empty — which reads as all
    /// [`Full`](crate::spec::ServingMode::Full) — for mode-less
    /// workloads; only meaningful for services the plan actually places.
    pub modes: ModeAssignment,
    /// Pods of [`plan`]'s `pins` that fit on no healthy node: they need
    /// more capacity, never a stateless service's place. Empty for
    /// unpinned and warm rounds.
    pub stranded: Vec<PodKey>,
    /// Time spent in the planner (priority estimation + global ranking;
    /// a warm round's plan patch too).
    pub planner_time: Duration,
    /// Time spent in the scheduler: flattening the ranking (or taking a
    /// warm round's patched plan) and bin packing, not the action diff.
    pub scheduler_time: Duration,
}

impl PlanResult {
    /// Total planning latency (planner + scheduler), the paper's
    /// "time to compute a new target state".
    pub fn total_time(&self) -> Duration {
        self.planner_time + self.scheduler_time
    }
}

/// The Phoenix resilience controller (Figure 3).
///
/// Owns the workload description (criticality tags, DGs, prices — the
/// inputs §5 persists in a storage service) and plans against any cluster
/// state handed to it.
#[derive(Debug)]
pub struct PhoenixController {
    workload: Workload,
    config: PhoenixConfig,
    cache: ReplanCache,
}

impl PhoenixController {
    /// Creates a controller for `workload`, planning under `config` for
    /// its whole life.
    pub fn new(workload: Workload, config: PhoenixConfig) -> PhoenixController {
        PhoenixController {
            workload,
            config,
            cache: ReplanCache::default(),
        }
    }

    /// The workload this controller manages.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Plans a new target state for the (possibly degraded) `state`.
    ///
    /// `state` is *not* mutated: the round packs a copy of it, returned
    /// as [`PlanResult::target`], and returns what [`plan`] (no pins)
    /// returns. Once a [`replan`](Self::replan) has primed the replan
    /// cache, the round ranks from the cache's epoch (the per-app
    /// activation orders, the flattened ranking inputs and whether the
    /// workload is modal) instead of walking [`app_rank`] for every app
    /// again: sound because a controller's workload and config never
    /// change after construction. The round walks the cache's merge
    /// order where it is valid at this round's water-fill shares (a
    /// [`Static`](crate::objectives::ScoreForm::Static) objective's
    /// always, any other's under the shares it was built for, bit for
    /// bit), else a
    /// [`ShareScaled`](crate::objectives::ScoreForm::ShareScaled)
    /// objective's (fairness) order derived in linear time from the two
    /// orders the epoch sorted, else the heap (see [`crate::replan`]). It
    /// writes nothing into the cache, and flattens and packs cold. Use
    /// [`replan`](Self::replan) inside a monitoring loop.
    pub fn plan(&self, state: &ClusterState) -> PlanResult {
        let (workload, config) = (&self.workload, &self.config);
        let pins = StatefulMarks::new();
        // An unprimed cache has no epoch: the round is wholly cold.
        let Some(modal) = self.cache.epoch_modal() else {
            return plan(workload, state.clone(), config, &pins);
        };
        let rank = |state: &ClusterState| {
            let rank = self.cache.epoch_rank(state, config);
            #[cfg(debug_assertions)]
            {
                // From scratch, outside any recorder: the counters count
                // the checked ranking once.
                let fresh = phoenix_obs::with_recorder(phoenix_obs::Recorder::disabled(), || {
                    let inputs = rank_inputs(workload, config, &pins);
                    rank_round(workload, &inputs, state, config, &[])
                });
                crate::ranking::assert_same_rank(&rank, &fresh, "epoch ranking diverged");
            }
            rank
        };
        cold_round(workload, state.clone(), config, &pins, &[], modal, rank)
    }

    /// Warm-started planning round: identical output to
    /// [`plan`](Self::plan), but reuses the previous round's per-app
    /// ranks, global ranking, and packing bookkeeping wherever `delta`
    /// and the cached fingerprints allow (see [`crate::replan`]), then
    /// runs the same scheduler half. Like [`plan`](Self::plan), it packs
    /// a copy of `state`.
    pub fn replan(&mut self, state: &ClusterState, delta: ReplanDelta) -> PlanResult {
        let state = state.clone();
        replan_with(&self.workload, state, &self.config, &mut self.cache, delta)
    }
}

/// Appends one service's replica block, at `mode`'s per-replica demand,
/// to a flattened plan.
pub(crate) fn push_replicas(
    plan: &mut Vec<PlannedPod>,
    workload: &Workload,
    item: &GlobalRankItem,
    mode: ServingMode,
) {
    let svc = workload.app(item.app).service(item.service);
    let demand = svc.mode_demand(mode);
    let (app, service) = (item.app.index() as u32, item.service.index() as u32);
    plan.extend((0..svc.replicas).map(|r| PlannedPod::new(PodKey::new(app, service, r), demand)));
}

/// A flattened activation list, ready to pack.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatPlan {
    /// Per-replica plan entries, in pack order.
    pub(crate) pods: Vec<PlannedPod>,
    /// `PlanIndex::of(&pods)`.
    pub(crate) index: PlanIndex,
    /// Chosen serving mode per service (empty for mode-less workloads).
    pub(crate) modes: ModeAssignment,
}

/// Flattens the global activation list into per-replica [`PlannedPod`]s,
/// resolving each service's chosen serving mode.
///
/// A mode-less service contributes exactly one rank item; a modal service
/// contributes one item per admitted ladder rung, most degraded first, and
/// its rungs are admitted in ladder order — so the *last* occurrence of a
/// service in `items` carries its best admitted mode. Each service's
/// replica block is emitted at the position of its **first** rung (pack
/// order therefore matches the mode-less planner exactly on mode-less
/// workloads) at the chosen mode's per-replica demand. `modal` is the
/// caller's [`Workload::has_modes`].
pub(crate) fn flatten_plan(workload: &Workload, items: &[GlobalRankItem], modal: bool) -> FlatPlan {
    let replicas = |item: &GlobalRankItem| workload.app(item.app).service(item.service).replicas;
    if !modal {
        let mut pods = Vec::with_capacity(items.iter().map(|i| usize::from(replicas(i))).sum());
        for item in items {
            push_replicas(&mut pods, workload, item, ServingMode::Full);
        }
        return FlatPlan {
            index: PlanIndex::of(&pods),
            pods,
            modes: ModeAssignment::empty(),
        };
    }
    // Pass 1: last rung admitted per service wins; `seen` marks the
    // services with a rung, and `len` sums their replicas.
    let mut modes = ModeAssignment::for_workload(workload);
    let mut seen: Vec<Vec<bool>> = (workload.apps())
        .map(|(_, app)| vec![false; app.service_count()])
        .collect();
    let mut len = 0;
    for item in items {
        modes.set(item.app, item.service, item.mode);
        if !std::mem::replace(&mut seen[item.app.index()][item.service.index()], true) {
            len += usize::from(replicas(item));
        }
    }
    // Pass 2: emit each service's replicas once, at its first rung, which
    // clears its mark.
    let mut pods = Vec::with_capacity(len);
    for item in items {
        if !std::mem::take(&mut seen[item.app.index()][item.service.index()]) {
            continue;
        }
        push_replicas(&mut pods, workload, item, modes.get(item.app, item.service));
    }
    FlatPlan {
        index: PlanIndex::of(&pods),
        pods,
        modes,
    }
}

/// The one Phoenix pipeline: ranks `workload` against `state`'s healthy
/// capacity, packs the ranking onto `state` in place, and returns it as
/// [`PlanResult::target`]. A caller that still needs the pre-plan state
/// clones it first; one with a throwaway state moves it in.
///
/// A pin is a rank plus a packing rule: every replica of every service in
/// `pins` packs first, at `Full` demand, as a [pinned](PlannedPod::pinned)
/// entry, and the ranking sees neither the pinned services nor their
/// demand (see [`crate::stateful`] for the promises and
/// [`crate::stateful::check_pinned`] for their check). With no pins every
/// step is the plain pipeline's.
///
/// Every step runs on the calling thread and from scratch: the per-app
/// priority-estimation walks ([`app_rank`]), the global-ranking heap merge
/// and the packing.
pub fn plan(
    workload: &Workload,
    state: ClusterState,
    config: &PhoenixConfig,
    pins: &StatefulMarks,
) -> PlanResult {
    // One `Full` item per pinned service, carrying its whole demand.
    let pin_items: Vec<GlobalRankItem> = (pins.iter())
        .filter_map(|(app, service)| {
            let pod = PodKey::new(app.index() as u32, service.index() as u32, 0);
            let (_, svc) = workload.service_of_pod(pod)?;
            Some(GlobalRankItem {
                app,
                service,
                demand: svc.total_demand(),
                mode: ServingMode::Full,
            })
        })
        .collect();
    let rank = |state: &ClusterState| {
        let inputs = rank_inputs(workload, config, pins);
        rank_round(workload, &inputs, state, config, &pin_items)
    };
    let modal = workload.has_modes();
    cold_round(workload, state, config, pins, &pin_items, modal, rank)
}

/// A cold round around its planner half: `rank` ranks `state` (timed as
/// the planner and the `Rank` phase), then the ranking is flattened, after
/// `pin_items` (one per service in `pins`) as a pinned prefix, and packed
/// onto `state`. `modal` is [`Workload::has_modes`].
fn cold_round(
    workload: &Workload,
    state: ClusterState,
    config: &PhoenixConfig,
    pins: &StatefulMarks,
    pin_items: &[GlobalRankItem],
    modal: bool,
    rank: impl FnOnce(&ClusterState) -> GlobalRank,
) -> PlanResult {
    let obs = phoenix_obs::current();
    obs.incr(phoenix_obs::Counter::ColdPlans);
    let t0 = Instant::now();
    let rank = {
        let _rank_timer = obs.phase(phoenix_obs::Phase::Rank);
        rank(&state)
    };
    let planned = (Arc::new(rank), t0.elapsed());
    schedule(state, &config.packing, planned, pins, None, |items| {
        if pins.is_empty() {
            return (modal, Cow::Owned(flatten_plan(workload, items, modal)));
        }
        let mut flat = flatten_plan(workload, &[pin_items, items].concat(), modal);
        let pinned = |p: &&mut PlannedPod| pins.contains_pod(p.key);
        for pod in flat.pods.iter_mut().take_while(pinned) {
            pod.pinned = true;
        }
        (modal, Cow::Owned(flat))
    })
}

/// A cold round's ranking inputs: every app's activation order walked
/// afresh ([`app_rank`]), less the services in `pins`, which leave the
/// chains and the fair shares.
pub(crate) fn rank_inputs(
    workload: &Workload,
    config: &PhoenixConfig,
    pins: &StatefulMarks,
) -> RankInputs {
    let mut app_ranks: Vec<Vec<ServiceId>> = (workload.apps())
        .map(|(_, app)| app_rank(app, config.planner.traversal))
        .collect();
    let obs = phoenix_obs::current();
    obs.add(phoenix_obs::Counter::AppRankWalks, app_ranks.len() as u64);
    if pins.is_empty() {
        return RankInputs::new(workload, &app_ranks);
    }
    // Pinned services leave the chains and the fair shares (summed in
    // service order, as `AppSpec::total_demand` does).
    let mut demands = Vec::with_capacity(workload.app_count());
    for ((app, spec), rank) in workload.apps().zip(&mut app_ranks) {
        rank.retain(|&s| !pins.is_stateful(app, s));
        let kept = spec.service_ids().filter(|&s| !pins.is_stateful(app, s));
        let demand: Resources = kept.map(|s| spec.service(s).total_demand()).sum();
        demands.push(demand.scalar());
    }
    RankInputs::new(workload, &app_ranks).with_app_demands(demands)
}

/// The heap ranking of a cold round without a primed epoch (and all of
/// [`crate::audit::blast_radius`]): `inputs` merged against `state`'s
/// healthy capacity, less the `Full` demand of `pin_items`.
pub(crate) fn rank_round(
    workload: &Workload,
    inputs: &RankInputs,
    state: &ClusterState,
    config: &PhoenixConfig,
    pin_items: &[GlobalRankItem],
) -> GlobalRank {
    let mut capacity = state.healthy_capacity();
    if !pin_items.is_empty() {
        // A pin too big for every healthy node is stranded whatever the
        // ranking does, so only the others hold capacity back.
        let nodes = state.healthy_nodes();
        let fits = |i: &&GlobalRankItem| {
            let replica = workload.app(i.app).service(i.service).demand;
            let fits_on = |&n| replica.fits_in(&state.effective_capacity(n));
            nodes.iter().any(fits_on)
        };
        let reserved = pin_items.iter().filter(fits).map(|i| i.demand).sum();
        capacity = capacity.saturating_sub(&reserved);
    }
    global_rank_prepared(inputs, config.objective.as_ref(), capacity, &config.planner)
}

/// The scheduler half of cold and warm rounds. The scheduler time and
/// the `Pack` phase cover `order` (the plan to pack, from the ranking's
/// items, and whether the workload is modal) and the pack; the actions
/// ([`diff_from_outcome`]) and stranded `pins` come after. A modal
/// workload forces [`PackingConfig::rebook_in_place`] on, so running
/// replicas are re-booked at their newly chosen mode's demand. A warm
/// round hands the pack its [`PackCarry`].
pub(crate) fn schedule<'p>(
    mut state: ClusterState,
    packing: &PackingConfig,
    (rank, planner_time): (Arc<GlobalRank>, Duration),
    pins: &StatefulMarks,
    carry: Option<&mut PackCarry>,
    order: impl FnOnce(&[GlobalRankItem]) -> (bool, Cow<'p, FlatPlan>),
) -> PlanResult {
    let obs = phoenix_obs::current();
    let t1 = Instant::now();
    let pack_timer = obs.phase(phoenix_obs::Phase::Pack);
    let (modal, flat) = order(&rank.items);
    let mut pack_cfg = packing.clone();
    pack_cfg.rebook_in_place |= modal;
    let packing = pack_prepared(&mut state, &flat.pods, &flat.index, &pack_cfg, carry);
    drop(pack_timer);
    let scheduler_time = t1.elapsed();

    let actions = diff_from_outcome(&state, &packing);
    let stranded = if pins.is_empty() {
        Vec::new()
    } else {
        let unplaced = packing.unplaced.iter().copied();
        unplaced.filter(|&pod| pins.contains_pod(pod)).collect()
    };
    let modes = match flat {
        Cow::Owned(flat) => flat.modes,
        Cow::Borrowed(_) => ModeAssignment::empty(),
    };
    PlanResult {
        target: state,
        rank,
        packing,
        actions,
        modes,
        stranded,
        planner_time,
        scheduler_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppSpecBuilder, ServiceId};
    use crate::tags::Criticality;
    use phoenix_cluster::{NodeId, PodKey, Resources};

    /// Two apps, 6 CPUs each at full strength.
    fn workload() -> Workload {
        let mut apps = Vec::new();
        for name in ["a", "b"] {
            let mut b = AppSpecBuilder::new(name);
            let fe = b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
            let mid = b.add_service("mid", Resources::cpu(2.0), Some(Criticality::C2), 1);
            let opt = b.add_service("opt", Resources::cpu(2.0), Some(Criticality::C5), 1);
            b.add_dependency(fe, mid);
            b.add_dependency(mid, opt);
            apps.push(b.build().unwrap());
        }
        Workload::new(apps)
    }

    #[test]
    fn plans_full_activation_when_capacity_allows() {
        let w = workload();
        let c = PhoenixController::new(w, PhoenixConfig::default());
        let state = ClusterState::homogeneous(4, Resources::cpu(4.0));
        let result = c.plan(&state);
        assert_eq!(result.target.pod_count(), 6);
        assert!(result.packing.unplaced.is_empty());
        // All actions are starts on a fresh cluster.
        let (d, m, s) = result.actions.counts();
        assert_eq!((d, m), (0, 0));
        assert_eq!(s, 6);
    }

    #[test]
    fn degrades_to_critical_services_under_crunch() {
        let w = workload();
        let c = PhoenixController::new(w, PhoenixConfig::default());
        // Only 6 CPUs healthy (3×2): fair share 3 per app → both C1
        // frontends activate, one C2 squeezes into the leftover aggregate,
        // and no C5 makes the cut.
        let state = ClusterState::homogeneous(3, Resources::cpu(2.0));
        let result = c.plan(&state);
        // Both C1s are planned; C5s are not.
        let planned: Vec<PodKey> = result.target.assignments().map(|(p, _, _)| p).collect();
        assert!(planned.contains(&PodKey::new(0, 0, 0)));
        assert!(planned.contains(&PodKey::new(1, 0, 0)));
        assert!(!planned.iter().any(|p| p.service == 2));
    }

    #[test]
    fn cost_objective_prefers_high_payers() {
        let mut apps = Vec::new();
        for (name, price) in [("cheap", 1.0), ("rich", 10.0)] {
            let mut b = AppSpecBuilder::new(name);
            b.add_service("s0", Resources::cpu(2.0), Some(Criticality::C1), 1);
            b.add_service("s1", Resources::cpu(2.0), Some(Criticality::C2), 1);
            b.price_per_unit(price);
            apps.push(b.build().unwrap());
        }
        let c = PhoenixController::new(
            Workload::new(apps),
            PhoenixConfig::with_objective(ObjectiveKind::Cost),
        );
        let state = ClusterState::homogeneous(1, Resources::cpu(4.0));
        let result = c.plan(&state);
        // 4 CPUs: the rich app gets both services, the cheap one nothing.
        assert_eq!(result.rank.allocated, vec![0.0, 4.0]);
    }

    #[test]
    fn plan_does_not_mutate_live_state() {
        let w = workload();
        let c = PhoenixController::new(w, PhoenixConfig::default());
        let state = ClusterState::homogeneous(4, Resources::cpu(4.0));
        let before = state.pod_count();
        let _ = c.plan(&state);
        assert_eq!(state.pod_count(), before);
    }

    #[test]
    fn replan_matches_plan_and_cache_can_be_dropped() {
        use crate::replan::ReplanDelta;

        let w = workload();
        let mut c = PhoenixController::new(w.clone(), PhoenixConfig::default());
        let mut state = ClusterState::homogeneous(4, Resources::cpu(4.0));
        // The free cold plan shares nothing with the controller's cache.
        let config = PhoenixConfig::default();
        let cold = |state: &ClusterState| plan(&w, state.clone(), &config, &StatefulMarks::new());
        let full = c.replan(&state, ReplanDelta::Full);
        assert_eq!(full.actions, cold(&state).actions);
        for (pod, node, demand) in full.target.assignments() {
            let _ = (node, demand);
            state
                .assign(pod, full.target.demand_of(pod).unwrap(), node)
                .unwrap();
        }
        state.fail_node(NodeId::new(0));
        let warm = c.replan(&state, ReplanDelta::CapacityOnly);
        assert_eq!(warm.actions, cold(&state).actions);
        c.cache = ReplanCache::default();
        let cold_again = c.replan(&state, ReplanDelta::Full);
        assert_eq!(cold_again.actions, warm.actions);
    }

    #[test]
    fn crunch_steps_modes_down_instead_of_evicting() {
        use crate::spec::{ModeSpec, ServingMode};

        // One app, two 4-CPU services, each able to fall back to a 2-CPU
        // read-only mode. On 6 CPUs the binary planner fits only one
        // service; the ladder keeps both serving — fe at Full, mid at
        // ReadOnly — instead of evicting mid.
        let mut b = AppSpecBuilder::new("shop");
        let ladder = |full: f64| {
            vec![
                ModeSpec::new(ServingMode::Full, Resources::cpu(full), 1.0),
                ModeSpec::new(ServingMode::ReadOnly, Resources::cpu(full / 2.0), 0.6),
            ]
        };
        let fe = b.add_service("fe", Resources::cpu(4.0), Some(Criticality::C1), 1);
        let mid = b.add_service("mid", Resources::cpu(4.0), Some(Criticality::C2), 1);
        b.service_modes(fe, ladder(4.0));
        b.service_modes(mid, ladder(4.0));
        let modal = Workload::new(vec![b.build().unwrap()]);

        let mut stripped = AppSpecBuilder::new("shop");
        stripped.add_service("fe", Resources::cpu(4.0), Some(Criticality::C1), 1);
        stripped.add_service("mid", Resources::cpu(4.0), Some(Criticality::C2), 1);
        let binary = Workload::new(vec![stripped.build().unwrap()]);

        let state = || ClusterState::homogeneous(1, Resources::cpu(6.0));
        let (config, pins) = (PhoenixConfig::default(), StatefulMarks::new());

        let without = plan(&binary, state(), &config, &pins);
        assert_eq!(without.target.pod_count(), 1, "binary planner evicts mid");

        let with = plan(&modal, state(), &config, &pins);
        assert_eq!(with.target.pod_count(), 2, "ladder keeps both serving");
        let app = crate::spec::AppId::new(0);
        assert_eq!(with.modes.get(app, fe), ServingMode::Full);
        assert_eq!(with.modes.get(app, mid), ServingMode::ReadOnly);
        // The pack booked mid at its read-only demand.
        let mid_pod = PodKey::new(0, 1, 0);
        assert_eq!(
            with.target.demand_of(mid_pod),
            Some(Resources::cpu(2.0)),
            "mid must be booked at the chosen mode's demand"
        );
        // Served utility strictly improves: 1.0 + 0.6 > 1.0.
        assert!(with.modes.get(app, mid).depth() > 0);
    }

    #[test]
    fn modal_plan_is_thread_invariant() {
        use crate::spec::{ModeSpec, ServingMode};

        let mut apps = Vec::new();
        for a in 0..3 {
            let mut b = AppSpecBuilder::new(format!("m{a}"));
            for s in 0..3 {
                let full = 2.0 + s as f64;
                let id = b.add_service(
                    format!("s{s}"),
                    Resources::cpu(full),
                    Some(Criticality::new(1 + (s + a) as u8 % 5)),
                    1,
                );
                if (s + a) % 2 == 0 {
                    b.service_modes(
                        id,
                        vec![
                            ModeSpec::new(ServingMode::Full, Resources::cpu(full), 1.0),
                            ModeSpec::new(ServingMode::StaleCache, Resources::cpu(full * 0.5), 0.7),
                            ModeSpec::new(ServingMode::Shed, Resources::cpu(full * 0.1), 0.05),
                        ],
                    );
                }
            }
            apps.push(b.build().unwrap());
        }
        let w = Workload::new(apps);
        let mut state = ClusterState::homogeneous(4, Resources::cpu(4.0));
        state.fail_node(NodeId::new(3));
        let (config, pins) = (PhoenixConfig::default(), StatefulMarks::new());
        let first = plan(&w, state.clone(), &config, &pins);
        assert!(
            first.rank.items.iter().any(|i| i.mode != ServingMode::Full),
            "crunch must engage the ladders"
        );
        let again = plan(&w, state, &config, &pins);
        assert_eq!(first.actions, again.actions);
        assert_eq!(first.modes, again.modes);
        assert_eq!(first.rank.items, again.rank.items);
        assert_eq!(first.packing.starts, again.packing.starts);
    }

    #[test]
    fn survivors_kept_failures_restarted() {
        let w = workload();
        let c = PhoenixController::new(w, PhoenixConfig::default());
        let mut state = ClusterState::homogeneous(4, Resources::cpu(4.0));
        // Run everything, then fail one node.
        let full = c.plan(&state);
        for (pod, node, demand) in full.target.assignments() {
            let _ = demand;
            state
                .assign(pod, full.target.demand_of(pod).unwrap(), node)
                .unwrap();
        }
        let victims: Vec<PodKey> = state.pods_on(NodeId::new(0)).collect();
        assert!(!victims.is_empty());
        state.fail_node(NodeId::new(0));
        let replan = c.plan(&state);
        // Survivors stay on their nodes.
        for (pod, node, _) in state.assignments() {
            assert_eq!(replan.target.node_of(pod), Some(node), "{pod} moved");
        }
        // Planner/scheduler timings are recorded.
        assert!(replan.total_time() >= replan.planner_time);
        let _ = ServiceId::new(0);
    }
}
