//! The end-to-end Phoenix controller: planner → global ranking → packing →
//! action plan, with stage timings (Fig. 8b measures exactly this path).
//! [`plan`] is the one pipeline function; [`PhoenixController`] adds the
//! warm replan cache ([`crate::replan`]).

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use phoenix_cluster::packing::{pack_prepared, PackOutcome, PackingConfig, PlannedPod};
use phoenix_cluster::{ClusterState, PodKey, Resources};

use crate::actions::{diff_from_outcome, ActionPlan};
use crate::objectives::{ObjectiveKind, OperatorObjective};
use crate::planner::{app_rank, PlannerConfig};
use crate::ranking::{global_rank_prepared, GlobalRank, GlobalRankItem, RankInputs};
use crate::replan::{replan_with, ReplanCache, ReplanDelta};
use crate::spec::{AppId, ModeAssignment, ServiceId, ServingMode, Workload};
use crate::stateful::StatefulMarks;

/// Controller configuration: objective + planner + packing knobs.
#[derive(Debug)]
pub struct PhoenixConfig {
    /// Operator objective driving the global ranking.
    pub objective: Box<dyn OperatorObjective>,
    /// Planner knobs (traversal mode, saturation policy).
    pub planner: PlannerConfig,
    /// Packing knobs (fit strategy, migration, strictness).
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
    /// Creates a controller for `workload`.
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

    /// Mutable access to the configuration (for ablations).
    ///
    /// Knob changes are picked up by the next [`replan`](Self::replan)
    /// automatically (the warm cache re-validates per round).
    pub fn config_mut(&mut self) -> &mut PhoenixConfig {
        &mut self.config
    }

    /// Plans a new target state for the (possibly degraded) `state`.
    ///
    /// `state` is *not* mutated: [`plan`] (no pins) packs a copy of it,
    /// returned as [`PlanResult::target`]. Always runs the pipeline
    /// cold; use [`replan`](Self::replan) inside a monitoring loop.
    pub fn plan(&self, state: &ClusterState) -> PlanResult {
        let pins = StatefulMarks::new();
        plan(&self.workload, state.clone(), &self.config, &pins)
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

/// Dense `pod key → plan index` table shaped like the workload: one slot
/// per `(app, service)` holding the base plan index of the service's
/// replica block (replicas are contiguous in the flattened plan by
/// construction). Answers the packing module's `rank_of` lookup with two
/// array reads and rebuilds in O(services) per round.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanIndex {
    /// Start of each app's service slots; `len = apps + 1`.
    app_offsets: Vec<u32>,
    /// Per service slot: base plan index, `u32::MAX` = not planned.
    base: Vec<u32>,
    /// Per service slot: replicas in the plan (0 = not planned).
    replicas: Vec<u16>,
}

const UNPLANNED: u32 = u32::MAX;

impl PlanIndex {
    /// Recomputes the slot layout from the workload shape.
    pub(crate) fn reshape(&mut self, workload: &Workload) {
        self.app_offsets.clear();
        self.app_offsets.push(0);
        let mut total = 0u32;
        for (_, app) in workload.apps() {
            total += app.service_count() as u32;
            self.app_offsets.push(total);
        }
    }

    fn slot(&self, app: AppId, service: ServiceId) -> usize {
        self.app_offsets[app.index()] as usize + service.index()
    }

    /// Refills the table from an activation list (O(services)) and
    /// returns the flattened plan's length. A service's block sits where
    /// its first item does; later items of the same service (further
    /// rungs of a mode ladder) add no pods.
    pub(crate) fn rebuild(&mut self, workload: &Workload, items: &[GlobalRankItem]) -> usize {
        let slots = *self.app_offsets.last().expect("reshaped") as usize;
        self.base.clear();
        self.base.resize(slots, UNPLANNED);
        self.replicas.clear();
        self.replicas.resize(slots, 0);
        let mut next = 0u32;
        for item in items {
            let slot = self.slot(item.app, item.service);
            if self.base[slot] != UNPLANNED {
                continue;
            }
            let replicas = workload.app(item.app).service(item.service).replicas;
            self.base[slot] = next;
            self.replicas[slot] = replicas;
            next += u32::from(replicas);
        }
        next as usize
    }

    /// One past the last plan position of a planned service's replica
    /// block.
    pub(crate) fn block_end(&self, app: AppId, service: ServiceId) -> usize {
        let slot = self.slot(app, service);
        debug_assert_ne!(
            self.base[slot], UNPLANNED,
            "block_end of an unplanned service"
        );
        self.base[slot] as usize + usize::from(self.replicas[slot])
    }

    /// The plan position of `pod`, when planned.
    #[inline]
    pub(crate) fn get(&self, pod: PodKey) -> Option<usize> {
        let app = pod.app as usize;
        let lo = *self.app_offsets.get(app)? as usize;
        let hi = *self.app_offsets.get(app + 1)? as usize;
        let slot = lo + pod.service as usize;
        if slot >= hi {
            return None;
        }
        let base = self.base[slot];
        if base == UNPLANNED || pod.replica >= self.replicas[slot] {
            return None;
        }
        Some(base as usize + usize::from(pod.replica))
    }
}

/// Appends one service's replica block to a flattened plan.
pub(crate) fn push_replicas(
    plan: &mut Vec<PlannedPod>,
    item: &GlobalRankItem,
    replicas: u16,
    demand: Resources,
) {
    let (app, service) = (item.app.index() as u32, item.service.index() as u32);
    plan.extend((0..replicas).map(|r| PlannedPod::new(PodKey::new(app, service, r), demand)));
}

/// A flattened activation list, ready to pack.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatPlan {
    /// Per-replica plan entries, in pack order.
    pub(crate) pods: Vec<PlannedPod>,
    /// `pods`' inverse: pod key → position.
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
    let mut index = PlanIndex::default();
    index.reshape(workload);
    let mut pods = Vec::with_capacity(index.rebuild(workload, items));
    if !modal {
        for item in items {
            let svc = workload.app(item.app).service(item.service);
            push_replicas(&mut pods, item, svc.replicas, svc.demand);
        }
        return FlatPlan {
            pods,
            index,
            modes: ModeAssignment::empty(),
        };
    }
    // Pass 1: last rung admitted per service wins.
    let mut modes = ModeAssignment::for_workload(workload);
    for item in items {
        modes.set(item.app, item.service, item.mode);
    }
    // Pass 2: emit each service's replicas once, at its first rung — the
    // one item whose block the index placed at the plan's current end.
    for item in items {
        if index.base[index.slot(item.app, item.service)] as usize != pods.len() {
            continue;
        }
        let svc = workload.app(item.app).service(item.service);
        let demand = svc.mode_demand(modes.get(item.app, item.service));
        push_replicas(&mut pods, item, svc.replicas, demand);
    }
    FlatPlan { pods, index, modes }
}

/// The one Phoenix pipeline: ranks `workload` against `state`'s healthy
/// capacity, packs the ranking onto `state` in place, journal included,
/// and returns it as [`PlanResult::target`]. A caller that still needs
/// the pre-plan state clones it first; one with a throwaway state moves
/// it in.
///
/// A pin is a rank plus a packing rule: every replica of every service in
/// `pins` packs first, at `Full` demand, as a [pinned](PlannedPod::pinned)
/// entry, and the ranking sees neither the pinned services nor their
/// demand (see [`crate::stateful`] for the promises and
/// [`crate::stateful::check_pinned`] for their check). With no pins every
/// step is the plain pipeline's.
///
/// Every step runs on the calling thread: the per-app priority-estimation
/// walks ([`app_rank`]), the global-ranking heap merge and the packing.
pub fn plan(
    workload: &Workload,
    state: ClusterState,
    config: &PhoenixConfig,
    pins: &StatefulMarks,
) -> PlanResult {
    let obs = phoenix_obs::current();
    obs.incr(phoenix_obs::Counter::ColdPlans);
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
    let t0 = Instant::now();
    let rank = {
        let _rank_timer = obs.phase(phoenix_obs::Phase::Rank);
        rank_round(workload, &state, config, pins, &pin_items)
    };
    let planned = (Arc::new(rank), t0.elapsed());
    schedule(state, &config.packing, planned, pins, |items| {
        let modal = workload.has_modes();
        if pins.is_empty() {
            return (modal, Cow::Owned(flatten_plan(workload, items, modal)));
        }
        let mut flat = flatten_plan(workload, &[&pin_items[..], items].concat(), modal);
        let pinned = |p: &&mut PlannedPod| pins.contains_pod(p.key);
        for pod in flat.pods.iter_mut().take_while(pinned) {
            pod.pinned = true;
        }
        (modal, Cow::Owned(flat))
    })
}

/// The planner half of a cold round (all [`crate::audit::blast_radius`]
/// runs): app ranks and the global ranking against `state`'s healthy
/// capacity, less the `Full` demand of `pin_items` (one per service in
/// `pins`, which leave the chains and the fair shares).
pub(crate) fn rank_round(
    workload: &Workload,
    state: &ClusterState,
    config: &PhoenixConfig,
    pins: &StatefulMarks,
    pin_items: &[GlobalRankItem],
) -> GlobalRank {
    let mut app_ranks: Vec<Vec<ServiceId>> = (workload.apps())
        .map(|(_, app)| app_rank(app, config.planner.traversal))
        .collect();
    let mut capacity = state.healthy_capacity();
    let inputs = if pins.is_empty() {
        RankInputs::new(workload, &app_ranks)
    } else {
        // Pins leave the chains and the fair shares (summed in service
        // order, as `AppSpec::total_demand` does). A pin too big for
        // every healthy node is stranded whatever the ranking does, so
        // only the others hold capacity back.
        let mut demands = Vec::with_capacity(workload.app_count());
        for ((app, spec), rank) in workload.apps().zip(&mut app_ranks) {
            rank.retain(|&s| !pins.is_stateful(app, s));
            let kept = spec.service_ids().filter(|&s| !pins.is_stateful(app, s));
            let demand: Resources = kept.map(|s| spec.service(s).total_demand()).sum();
            demands.push(demand.scalar());
        }
        let nodes = state.healthy_nodes();
        let fits = |i: &&GlobalRankItem| {
            let replica = workload.app(i.app).service(i.service).demand;
            let fits_on = |&n| replica.fits_in(&state.effective_capacity(n));
            nodes.iter().any(fits_on)
        };
        let reserved = pin_items.iter().filter(fits).map(|i| i.demand).sum();
        capacity = capacity.saturating_sub(&reserved);
        RankInputs::new(workload, &app_ranks).with_app_demands(demands)
    };
    global_rank_prepared(
        &inputs,
        config.objective.as_ref(),
        capacity,
        &config.planner,
    )
}

/// The scheduler half of cold and warm rounds. The scheduler time and
/// the `Pack` phase cover `order` (the plan to pack, from the ranking's
/// items, and whether the workload is modal) and the pack; the actions
/// ([`diff_from_outcome`]) and stranded `pins` come after. A modal
/// workload forces [`PackingConfig::rebook_in_place`] on, so running
/// replicas are re-booked at their newly chosen mode's demand.
pub(crate) fn schedule<'p>(
    mut state: ClusterState,
    packing: &PackingConfig,
    (rank, planner_time): (Arc<GlobalRank>, Duration),
    pins: &StatefulMarks,
    order: impl FnOnce(&[GlobalRankItem]) -> (bool, Cow<'p, FlatPlan>),
) -> PlanResult {
    let obs = phoenix_obs::current();
    let t1 = Instant::now();
    let pack_timer = obs.phase(phoenix_obs::Phase::Pack);
    let (modal, flat) = order(&rank.items);
    let mut pack_cfg = packing.clone();
    pack_cfg.rebook_in_place |= modal;
    let packing = pack_prepared(&mut state, &flat.pods, &pack_cfg, |p| flat.index.get(p));
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
        let mut c = PhoenixController::new(w, PhoenixConfig::default());
        let mut state = ClusterState::homogeneous(4, Resources::cpu(4.0));
        let full = c.replan(&state, ReplanDelta::Full);
        assert_eq!(full.actions, c.plan(&state).actions);
        for (pod, node, demand) in full.target.assignments() {
            let _ = (node, demand);
            state
                .assign(pod, full.target.demand_of(pod).unwrap(), node)
                .unwrap();
        }
        state.fail_node(NodeId::new(0));
        let warm = c.replan(&state, ReplanDelta::CapacityOnly);
        assert_eq!(warm.actions, c.plan(&state).actions);
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
