//! Stateful-workload awareness (§1, §5 *Stateless Workloads*, §7).
//!
//! Phoenix diagonal-scales **stateless** services only: a stateless
//! container can be safely terminated and restarted, a stateful one
//! (database, queue, coordination service) cannot. The paper handles this
//! by assumption — "stateful workloads such as MongoDB are running on a
//! separate stateful cluster, as is standard practice" (§6.1) — and lists
//! first-class stateful support as future work (§7). This module implements
//! both deployment patterns so mixed workloads are safe to hand to the
//! controller:
//!
//! * **Separate stateful cluster** — [`partition`] splits a mixed
//!   [`Workload`] into a stateless half (planned by Phoenix on the compute
//!   cluster) and a stateful half ([`place_stateful`] pins it once on a
//!   dedicated cluster that degradation never touches). Dependency edges
//!   through removed stateful services are contracted so the planner's
//!   topology guarantee (Eq. 2) still holds on the stateless half: if
//!   `web → db → audit` and `db` moves to the stateful cluster, the
//!   stateless graph gains `web → audit`, because the stateful tier is,
//!   by definition of this deployment, always reachable.
//! * **Pinned co-location** — [`plan_pinned`] plans a mixed workload on one
//!   shared cluster while guaranteeing that stateful pods are *pinned*:
//!   never deleted, never migrated, their capacity reserved before any
//!   stateless service is ranked. It is the controller's own pipeline on
//!   the original workload, with a pin treated as a rank plus a packing
//!   rule: pins pack ahead of every stateless container as
//!   [pinned](phoenix_cluster::packing::PlannedPod::pinned) entries, which
//!   the packer never deletes, migrates or re-books once running. So
//!   stateful pods lost to a node failure are re-placed with absolute
//!   priority, those that no longer fit anywhere are reported as stranded
//!   rather than silently dropped, and the stateless services keep their
//!   mode ladders and see each node's effective capacity.
//!
//! [`verify_pins`] checks the no-delete/no-migrate guarantee on any action
//! plan and [`PinnedPlan::check`] every promise of a pinned plan, so
//! integration tests and chaos audits can assert them end to end.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources};
use phoenix_dgraph::NodeId as GraphNode;

use crate::actions::{Action, ActionPlan};
use crate::controller::{plan_pinned_with, PhoenixConfig};
use crate::spec::{AppId, AppSpecBuilder, ModeAssignment, ServiceId, Workload};

/// The set of services marked stateful, keyed by `(app, service)`.
///
/// Marks are external to the [`Workload`] for the same reason criticality
/// tags are external to the application: the operator can maintain them
/// (e.g. from a `phoenix.io/stateful` label) without touching the specs.
///
/// # Examples
///
/// ```
/// use phoenix_core::spec::{AppSpecBuilder, Workload};
/// use phoenix_core::stateful::StatefulMarks;
/// use phoenix_cluster::Resources;
///
/// let mut b = AppSpecBuilder::new("shop");
/// let web = b.add_service("web", Resources::cpu(2.0), None, 1);
/// let db = b.add_service("mongodb", Resources::cpu(4.0), None, 1);
/// # let _ = (web, db);
/// let w = Workload::new(vec![b.build()?]);
///
/// let marks = StatefulMarks::by_name(&w, |name| name.contains("mongo"));
/// assert_eq!(marks.len(), 1);
/// # Ok::<(), phoenix_core::spec::SpecError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatefulMarks {
    set: BTreeSet<(u32, u32)>,
}

impl StatefulMarks {
    /// An empty mark set (everything is stateless).
    pub fn new() -> StatefulMarks {
        StatefulMarks::default()
    }

    /// Marks every service whose name satisfies `predicate` — the
    /// rule-based analogue of tagging by a well-known label.
    pub fn by_name(workload: &Workload, mut predicate: impl FnMut(&str) -> bool) -> StatefulMarks {
        let mut marks = StatefulMarks::new();
        for (app, spec) in workload.apps() {
            for service in spec.service_ids() {
                if predicate(&spec.service(service).name) {
                    marks.mark(app, service);
                }
            }
        }
        marks
    }

    /// Marks one service as stateful.
    pub fn mark(&mut self, app: AppId, service: ServiceId) -> &mut StatefulMarks {
        self.set
            .insert((app.index() as u32, service.index() as u32));
        self
    }

    /// Whether a service is marked stateful.
    pub fn is_stateful(&self, app: AppId, service: ServiceId) -> bool {
        self.set
            .contains(&(app.index() as u32, service.index() as u32))
    }

    /// Whether a pod belongs to a stateful service.
    pub fn contains_pod(&self, pod: PodKey) -> bool {
        self.set.contains(&(pod.app, pod.service))
    }

    /// Number of marked services.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` when nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterates the marked `(app, service)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, ServiceId)> + '_ {
        self.set
            .iter()
            .map(|&(a, s)| (AppId::new(a), ServiceId::new(s)))
    }
}

/// A mixed workload split into its stateless and stateful halves, with the
/// id maps from the original workload into each half.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The diagonal-scalable half; plan this with the Phoenix controller.
    pub stateless: Workload,
    /// The pinned half; place once with [`place_stateful`].
    pub stateful: Workload,
    /// Where each original service went in `stateless`.
    to_stateless: IdMap,
    /// Where each original service went in `stateful`.
    to_stateful: IdMap,
}

/// `[orig_app][orig_service] → (app, service)` in one half.
type IdMap = Vec<Vec<Option<(u32, u32)>>>;

impl Partition {
    /// Maps an original service into the stateless half, when it lives there.
    pub fn to_stateless(&self, app: AppId, service: ServiceId) -> Option<(AppId, ServiceId)> {
        let (a, s) = self.to_stateless[app.index()][service.index()]?;
        Some((AppId::new(a), ServiceId::new(s)))
    }

    /// Maps an original service into the stateful half, when it lives there.
    pub fn to_stateful(&self, app: AppId, service: ServiceId) -> Option<(AppId, ServiceId)> {
        let (a, s) = self.to_stateful[app.index()][service.index()]?;
        Some((AppId::new(a), ServiceId::new(s)))
    }
}

/// Splits `workload` into stateless and stateful halves per `marks`.
///
/// Apps appear in a half only when they have at least one service there;
/// names, prices, subscription flags and mode ladders are preserved on
/// both sides.
/// Dependency edges that pass through removed services are contracted (see
/// the module docs), so each half's graph preserves reachability.
pub fn partition(workload: &Workload, marks: &StatefulMarks) -> Partition {
    let (stateless, to_stateless) = half(workload, marks, false);
    let (stateful, to_stateful) = half(workload, marks, true);
    Partition {
        stateless,
        stateful,
        to_stateless,
        to_stateful,
    }
}

/// The services of `workload` whose mark equals `stateful`, as a workload
/// of their own, with the id map into it.
fn half(workload: &Workload, marks: &StatefulMarks, stateful: bool) -> (Workload, IdMap) {
    let (mut apps, mut to_map) = (Vec::new(), Vec::new());
    for (app, spec) in workload.apps() {
        let keep: Vec<bool> = (spec.service_ids())
            .map(|s| marks.is_stateful(app, s) == stateful)
            .collect();
        let mut forward = vec![None; spec.service_count()];
        if !keep.contains(&true) {
            to_map.push(forward);
            continue;
        }
        let mut b = AppSpecBuilder::new(spec.name());
        b.price_per_unit(spec.price_per_unit());
        b.phoenix_enabled(spec.phoenix_enabled());
        for (old_idx, svc) in spec.services().iter().enumerate().filter(|s| keep[s.0]) {
            let id = b.add_service(svc.name.clone(), svc.demand, svc.criticality, svc.replicas);
            b.service_modes(id, svc.modes.clone());
            forward[old_idx] = Some((apps.len() as u32, id.index() as u32));
        }
        if spec.dependency().is_some() {
            b.with_graph();
            for (u, v) in contracted_edges(spec, &keep) {
                let (_, nu) = forward[u].expect("edge endpoint is kept");
                let (_, nv) = forward[v].expect("edge endpoint is kept");
                b.add_dependency(ServiceId::new(nu), ServiceId::new(nv));
            }
        }
        apps.push(b.build().expect("kept services are non-empty and valid"));
        to_map.push(forward);
    }
    (Workload::new(apps), to_map)
}

/// Edges of the induced-plus-contracted graph over the kept services: an
/// edge `u → v` exists when the original graph has a path from `u` to `v`
/// whose interior nodes are all removed.
fn contracted_edges(spec: &crate::spec::AppSpec, keep: &[bool]) -> Vec<(usize, usize)> {
    let Some(graph) = spec.dependency() else {
        return Vec::new();
    };
    let mut edges = BTreeSet::new();
    for u in 0..keep.len() {
        if !keep[u] {
            continue;
        }
        let mut seen = vec![false; keep.len()];
        let mut stack: Vec<GraphNode> = graph.successors(GraphNode::from_index(u)).to_vec();
        while let Some(v) = stack.pop() {
            let vi = v.index();
            if seen[vi] {
                continue;
            }
            seen[vi] = true;
            if keep[vi] {
                if vi != u {
                    edges.insert((u, vi));
                }
            } else {
                stack.extend_from_slice(graph.successors(v));
            }
        }
    }
    edges.into_iter().collect()
}

/// Why a stateful placement could not be completed.
#[derive(Debug, Clone, PartialEq)]
pub struct StatefulPlacementError {
    /// Pods (in the given workload's key space) that fit on no healthy node.
    pub unplaced: Vec<PodKey>,
}

impl fmt::Display for StatefulPlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} stateful pod(s) fit on no healthy node",
            self.unplaced.len()
        )?;
        match self.unplaced.first() {
            Some(pod) => write!(f, " (first: {pod})"),
            None => Ok(()),
        }
    }
}

impl Error for StatefulPlacementError {}

/// Places every pod of `workload` on `state` with best-fit, treating all of
/// them as unsheddable.
///
/// This is the one-time placement for the dedicated stateful cluster:
/// stateful services have no criticality order (none may be turned off), so
/// a plain best-fit suffices.
///
/// # Errors
///
/// Fails with the full list of unplaceable pods — the caller must provision
/// more stateful capacity, never degrade.
pub fn place_stateful(
    workload: &Workload,
    state: &mut ClusterState,
) -> Result<Vec<(PodKey, NodeId)>, StatefulPlacementError> {
    let mut placed = Vec::new();
    let mut unplaced = Vec::new();
    // Largest first: classic best-fit-decreasing packs tighter, and there
    // is no rank order to respect on the stateful side.
    let mut pods: Vec<(PodKey, Resources)> = workload
        .apps()
        .flat_map(|(app, spec)| {
            spec.service_ids().flat_map(move |s| {
                workload
                    .pod_keys(app, s)
                    .into_iter()
                    .map(move |k| (k, spec.service(s).demand))
            })
        })
        .collect();
    pods.sort_by(|a, b| {
        b.1.scalar()
            .total_cmp(&a.1.scalar())
            .then_with(|| a.0.cmp(&b.0))
    });
    for (pod, demand) in pods {
        match best_fit_node(state, demand) {
            Some(node) => {
                state
                    .assign(pod, demand, node)
                    .expect("fit was just verified");
                placed.push((pod, node));
            }
            None => unplaced.push(pod),
        }
    }
    if unplaced.is_empty() {
        Ok(placed)
    } else {
        Err(StatefulPlacementError { unplaced })
    }
}

/// The healthy node with the least remaining capacity that still fits
/// `demand`.
fn best_fit_node(state: &ClusterState, demand: Resources) -> Option<NodeId> {
    state
        .healthy_nodes()
        .into_iter()
        .filter(|&n| demand.fits_in(&state.remaining(n)))
        .min_by(|&a, &b| {
            state
                .remaining(a)
                .scalar()
                .total_cmp(&state.remaining(b).scalar())
        })
}

/// Result of planning a mixed workload on a shared cluster with pinned
/// stateful pods.
#[derive(Debug)]
pub struct PinnedPlan {
    /// Target state.
    pub target: ClusterState,
    /// Agent task list live → target. Guaranteed to contain no delete or
    /// migrate action on a stateful pod ([`verify_pins`] always passes).
    pub actions: ActionPlan,
    /// Stateful pods lost to failures that fit on no healthy node. These
    /// need operator intervention (more capacity); they are never traded
    /// against stateless services.
    pub stranded: Vec<PodKey>,
    /// Chosen serving mode per service; pinned services serve at `Full`.
    pub modes: ModeAssignment,
}

/// Plans `workload` on the shared cluster `live`, pinning every service in
/// `marks`. This is the controller's own pipeline ([`plan_with`] is the
/// same call with no marks), with a pin treated as a rank plus a packing
/// rule:
///
/// 1. surviving stateful pods stay exactly where they are: the packer
///    never deletes, migrates or re-books a running pin;
/// 2. stateful pods lost to failures pack first, ahead of every stateless
///    container, and may displace running stateless pods; those that fit
///    on no healthy node are reported in [`PinnedPlan::stranded`];
/// 3. the stateless services are ranked as usual against the healthy
///    effective capacity minus every pin's `Full` demand, with the pins'
///    demand left out of the fair shares. A stranded pin's demand stays
///    reserved too, unless the pin fits on no healthy node at all.
///
/// [`plan_with`]: crate::controller::plan_with
pub fn plan_pinned(
    workload: &Workload,
    marks: &StatefulMarks,
    live: &ClusterState,
    config: &PhoenixConfig,
) -> PinnedPlan {
    let plan = plan_pinned_with(workload, live, config, marks);
    let mut stranded = plan.packing.unplaced;
    stranded.retain(|&pod| marks.contains_pod(pod));
    PinnedPlan {
        target: plan.target,
        actions: plan.actions,
        stranded,
        modes: plan.modes,
    }
}

impl PinnedPlan {
    /// Checks what [`plan_pinned`] promises for this plan of `workload`
    /// on `live`: [`verify_pins`] passes, surviving pins stay on their
    /// node, every pin is placed xor stranded, and a stranded pin fits on
    /// no healthy node of the target beside that node's pins — counting
    /// its effective capacity and `config`'s pod cap.
    ///
    /// # Errors
    ///
    /// Describes the first broken promise.
    pub fn check(
        &self,
        workload: &Workload,
        marks: &StatefulMarks,
        live: &ClusterState,
        config: &PhoenixConfig,
    ) -> Result<(), String> {
        verify_pins(&self.actions, marks).map_err(|e| e.to_string())?;
        let target = &self.target;
        for (pod, node, _) in live.assignments().filter(|a| marks.contains_pod(a.0)) {
            if target.node_of(pod) != Some(node) {
                return Err(format!("surviving pin {pod} left {node}"));
            }
        }
        // Per node: the pins' bookings and count.
        let mut pins_on = vec![(Resources::ZERO, 0); target.node_count()];
        for (_, node, demand) in target.assignments().filter(|a| marks.contains_pod(a.0)) {
            pins_on[node.index()].0 += demand;
            pins_on[node.index()].1 += 1;
        }
        let healthy = target.healthy_nodes();
        let cap = config.packing.max_pods_per_node;
        for (app, spec) in workload.apps() {
            for service in spec.service_ids().filter(|&s| marks.is_stateful(app, s)) {
                let demand = spec.service(service).demand;
                let fits = |n: &&NodeId| {
                    let (used, count) = pins_on[n.index()];
                    demand.fits_in(&target.effective_capacity(**n).saturating_sub(&used))
                        && cap.is_none_or(|cap| count < cap)
                };
                for pod in workload.pod_keys(app, service) {
                    let stranded = self.stranded.contains(&pod);
                    if target.node_of(pod).is_some() == stranded {
                        return Err(format!("pin {pod}: placed and stranded must differ"));
                    }
                    if let Some(n) = healthy.iter().find(|n| stranded && fits(n)) {
                        return Err(format!("stranded pin {pod} fits on {n}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A stateful pod an action plan would delete or migrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinViolation {
    /// The offending action.
    pub action: Action,
}

impl fmt::Display for PinViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "action {:?} touches a pinned stateful pod", self.action)
    }
}

impl Error for PinViolation {}

/// Verifies that `plan` never deletes or migrates a pod marked stateful.
/// Starts are allowed (re-placing a lost stateful pod is a restart).
///
/// # Errors
///
/// Returns the first violating action.
pub fn verify_pins(plan: &ActionPlan, marks: &StatefulMarks) -> Result<(), PinViolation> {
    for &action in &plan.actions {
        let forbidden = matches!(action, Action::Delete { .. } | Action::Migrate { .. });
        if forbidden && marks.contains_pod(action.pod()) {
            return Err(PinViolation { action });
        }
    }
    Ok(())
}

/// [`plan_pinned`] behind the [`ResiliencePolicy`] trait, so pinned
/// planning drops into every harness built on the policy roster
/// (AdaptLab sweeps, the kubesim control plane, the CLI).
///
/// [`ResiliencePolicy`]: crate::policies::ResiliencePolicy
#[derive(Debug)]
pub struct StatefulAwarePolicy {
    marks: StatefulMarks,
    config: PhoenixConfig,
}

impl StatefulAwarePolicy {
    /// Pins `marks` and plans the rest with `config`.
    pub fn new(marks: StatefulMarks, config: PhoenixConfig) -> StatefulAwarePolicy {
        StatefulAwarePolicy { marks, config }
    }

    /// The pinned services.
    pub fn marks(&self) -> &StatefulMarks {
        &self.marks
    }
}

impl crate::policies::ResiliencePolicy for StatefulAwarePolicy {
    fn name(&self) -> &'static str {
        "PhoenixPinned"
    }

    fn plan(&self, workload: &Workload, state: &mut ClusterState) -> crate::policies::PolicyPlan {
        let t0 = std::time::Instant::now();
        let plan = plan_pinned(workload, &self.marks, state, &self.config);
        let planning_time = t0.elapsed();
        debug_assert_eq!(
            plan.check(workload, &self.marks, state, &self.config),
            Ok(())
        );
        *state = plan.target;
        crate::policies::PolicyPlan {
            actions: plan.actions,
            planning_time,
            modes: plan.modes,
            notes: if plan.stranded.is_empty() {
                String::new()
            } else {
                format!("{} stateful pod(s) stranded", plan.stranded.len())
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectives::ObjectiveKind;
    use crate::spec::AppSpecBuilder;
    use crate::tags::Criticality;

    /// web(C1) → db(stateful) → audit(C3), plus a chat(C5) leaf off web.
    fn mixed_app() -> (Workload, StatefulMarks) {
        let mut b = AppSpecBuilder::new("shop");
        let web = b.add_service("web", Resources::cpu(2.0), Some(Criticality::C1), 1);
        let db = b.add_service("mongodb", Resources::cpu(3.0), Some(Criticality::C1), 1);
        let audit = b.add_service("audit", Resources::cpu(1.0), Some(Criticality::C3), 1);
        let chat = b.add_service("chat", Resources::cpu(1.0), Some(Criticality::C5), 1);
        b.add_dependency(web, db);
        b.add_dependency(db, audit);
        b.add_dependency(web, chat);
        let w = Workload::new(vec![b.build().unwrap()]);
        let marks = StatefulMarks::by_name(&w, |n| n.contains("mongo"));
        (w, marks)
    }

    #[test]
    fn by_name_marks_and_queries() {
        let (w, marks) = mixed_app();
        assert_eq!(marks.len(), 1);
        assert!(!marks.is_empty());
        assert!(marks.is_stateful(AppId::new(0), ServiceId::new(1)));
        assert!(!marks.is_stateful(AppId::new(0), ServiceId::new(0)));
        assert!(marks.contains_pod(PodKey::new(0, 1, 0)));
        assert_eq!(marks.iter().count(), 1);
        let _ = w;
    }

    #[test]
    fn partition_splits_services_and_preserves_metadata() {
        let (w, marks) = mixed_app();
        let part = partition(&w, &marks);
        assert_eq!(part.stateless.app_count(), 1);
        assert_eq!(part.stateful.app_count(), 1);
        assert_eq!(part.stateless.app(AppId::new(0)).service_count(), 3);
        assert_eq!(part.stateful.app(AppId::new(0)).service_count(), 1);
        assert_eq!(part.stateless.app(AppId::new(0)).name(), "shop");
        assert_eq!(part.stateful.app(AppId::new(0)).name(), "shop");
        assert_eq!(
            part.stateful
                .app(AppId::new(0))
                .service(ServiceId::new(0))
                .name,
            "mongodb"
        );
    }

    #[test]
    fn partition_contracts_edges_through_removed_services() {
        let (w, marks) = mixed_app();
        let part = partition(&w, &marks);
        let app = part.stateless.app(AppId::new(0));
        let g = app.dependency().expect("graph preserved");
        // web → audit appears (contracted through db); web → chat survives.
        // Stateless ids: web=0, audit=1, chat=2.
        assert_eq!(g.edge_count(), 2);
        let succ: Vec<usize> = g
            .successors(GraphNode::from_index(0))
            .iter()
            .map(|n| n.index())
            .collect();
        assert!(succ.contains(&1), "web → audit contracted edge missing");
        assert!(succ.contains(&2), "web → chat direct edge missing");
    }

    #[test]
    fn partition_round_trips_pod_keys() {
        let (w, marks) = mixed_app();
        let part = partition(&w, &marks);
        let (app, id) = (AppId::new(0), ServiceId::new);
        // audit is original service 2 → stateless service 1.
        assert_eq!(part.to_stateless(app, id(2)), Some((app, id(1))));
        assert_eq!(part.to_stateful(app, id(2)), None);
        // db maps to the stateful half, not the stateless one.
        assert_eq!(part.to_stateless(app, id(1)), None);
        assert_eq!(part.to_stateful(app, id(1)), Some((app, id(0))));
    }

    #[test]
    fn empty_marks_partition_is_identity_on_stateless_side() {
        let (w, _) = mixed_app();
        let part = partition(&w, &StatefulMarks::new());
        assert_eq!(part.stateless.app_count(), 1);
        assert_eq!(part.stateless.app(AppId::new(0)).service_count(), 4);
        assert_eq!(part.stateful.app_count(), 0);
        assert_eq!(
            part.stateless
                .app(AppId::new(0))
                .dependency()
                .unwrap()
                .edge_count(),
            3
        );
    }

    #[test]
    fn all_stateful_app_vanishes_from_stateless_half() {
        let mut b = AppSpecBuilder::new("dbonly");
        b.add_service("etcd", Resources::cpu(1.0), None, 3);
        let w = Workload::new(vec![b.build().unwrap()]);
        let marks = StatefulMarks::by_name(&w, |_| true);
        let part = partition(&w, &marks);
        assert_eq!(part.stateless.app_count(), 0);
        assert_eq!(part.stateful.app_count(), 1);
        assert_eq!(
            part.stateful
                .app(AppId::new(0))
                .service(ServiceId::new(0))
                .replicas,
            3
        );
    }

    #[test]
    fn place_stateful_best_fit_and_error() {
        let (w, marks) = mixed_app();
        let part = partition(&w, &marks);
        let mut cluster = ClusterState::homogeneous(2, Resources::cpu(4.0));
        let placed = place_stateful(&part.stateful, &mut cluster).unwrap();
        assert_eq!(placed.len(), 1);
        cluster.check_invariants().unwrap();

        let mut tiny = ClusterState::homogeneous(1, Resources::cpu(1.0));
        let err = place_stateful(&part.stateful, &mut tiny).unwrap_err();
        assert_eq!(err.unplaced.len(), 1);
        assert!(err.to_string().contains("stateful pod"));
    }

    #[test]
    fn placement_error_displays_without_unplaced_pods() {
        let empty = StatefulPlacementError {
            unplaced: Vec::new(),
        };
        assert_eq!(
            empty.to_string(),
            "0 stateful pod(s) fit on no healthy node"
        );
        let one = StatefulPlacementError {
            unplaced: vec![PodKey::new(0, 1, 0)],
        };
        assert!(one
            .to_string()
            .ends_with(&format!("(first: {})", PodKey::new(0, 1, 0))));
    }

    /// Live cluster with everything placed: 3 nodes × 4 CPU.
    fn live_full(w: &Workload, marks: &StatefulMarks) -> ClusterState {
        let mut live = ClusterState::homogeneous(3, Resources::cpu(4.0));
        let plan = plan_pinned(w, marks, &live.clone(), &PhoenixConfig::default());
        for (pod, node, demand) in plan.target.assignments() {
            live.assign(pod, demand, node).unwrap();
        }
        live
    }

    #[test]
    fn plan_pinned_full_capacity_places_everything() {
        let (w, marks) = mixed_app();
        let live = ClusterState::homogeneous(3, Resources::cpu(4.0));
        let plan = plan_pinned(&w, &marks, &live, &PhoenixConfig::default());
        assert_eq!(plan.target.pod_count(), 4);
        assert!(plan.stranded.is_empty());
        verify_pins(&plan.actions, &marks).unwrap();
        plan.target.check_invariants().unwrap();
    }

    #[test]
    fn pinned_stateful_pod_survives_degradation() {
        let (w, marks) = mixed_app();
        let mut live = live_full(&w, &marks);
        let db = PodKey::new(0, 1, 0);
        let db_node = live.node_of(db).expect("db placed");
        // Fail every node except the one hosting the db → heavy crunch.
        for n in live.node_ids() {
            if n != db_node {
                live.fail_node(n);
            }
        }
        let plan = plan_pinned(&w, &marks, &live, &PhoenixConfig::default());
        verify_pins(&plan.actions, &marks).unwrap();
        // The db did not move; only 1 CPU is left beside it, so at most one
        // 1-CPU stateless service squeezed in and web (C1, 2 CPU) cannot.
        assert_eq!(plan.target.node_of(db), Some(db_node));
        assert!(plan.stranded.is_empty());
        plan.target.check_invariants().unwrap();
    }

    #[test]
    fn lost_stateful_pod_replaced_before_stateless() {
        let (w, marks) = mixed_app();
        let mut live = live_full(&w, &marks);
        let db = PodKey::new(0, 1, 0);
        let db_node = live.node_of(db).expect("db placed");
        live.fail_node(db_node);
        let plan = plan_pinned(&w, &marks, &live, &PhoenixConfig::default());
        verify_pins(&plan.actions, &marks).unwrap();
        // The db is restarted on a healthy node even though 8 CPUs must now
        // hold 7 CPUs of demand — the 3-CPU db wins over stateless services.
        let new_node = plan.target.node_of(db).expect("db re-placed");
        assert!(plan.target.is_healthy(new_node));
        assert!(plan.stranded.is_empty());
        // Restart shows up as a Start action, which pins allow.
        assert!(plan
            .actions
            .actions
            .iter()
            .any(|a| matches!(a, Action::Start { pod, .. } if *pod == db)));
    }

    #[test]
    fn stranded_stateful_pod_is_reported_not_traded() {
        let (w, marks) = mixed_app();
        let mut live = live_full(&w, &marks);
        let db = PodKey::new(0, 1, 0);
        let db_node = live.node_of(db).expect("db placed");
        // Fail the db's node; shrink the cluster so 3 CPUs fit nowhere.
        for n in live.node_ids() {
            if n != db_node {
                for pod in live.pods_on(n).collect::<Vec<_>>() {
                    live.remove(pod).unwrap();
                }
            }
        }
        let mut tiny = ClusterState::homogeneous(2, Resources::cpu(2.0));
        for (pod, _, demand) in live.assignments() {
            if pod != db {
                // keep whatever still fits; ignore the rest
                let _ = tiny.assign(pod, demand, NodeId::new(0));
            }
        }
        let plan = plan_pinned(&w, &marks, &tiny, &PhoenixConfig::default());
        assert_eq!(plan.stranded, vec![db]);
        verify_pins(&plan.actions, &marks).unwrap();
        // Stateless planning proceeded anyway.
        assert!(plan.target.pod_count() >= 1);
    }

    #[test]
    fn pinned_capacity_is_reserved_from_fair_shares() {
        // Two apps: "shop" with a 3-CPU db + 2-CPU web; "blog" all-stateless.
        let (mut apps, marks) = {
            let (w, marks) = mixed_app();
            (vec![w.app(AppId::new(0)).clone()], marks)
        };
        let mut b = AppSpecBuilder::new("blog");
        b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
        b.add_service("feed", Resources::cpu(2.0), Some(Criticality::new(4)), 1);
        apps.push(b.build().unwrap());
        let w = Workload::new(apps);
        let live = ClusterState::homogeneous(2, Resources::cpu(4.0));
        let plan = plan_pinned(
            &w,
            &marks,
            &live,
            &PhoenixConfig::with_objective(ObjectiveKind::Fairness),
        );
        // 8 CPUs total, 3 reserved by the db → 5 for stateless planning;
        // both C1 frontends (2+2) activate, nothing lower fits entirely.
        verify_pins(&plan.actions, &marks).unwrap();
        let up: Vec<PodKey> = plan.target.assignments().map(|(p, _, _)| p).collect();
        assert!(up.contains(&PodKey::new(0, 1, 0)), "db pinned");
        assert!(up.contains(&PodKey::new(0, 0, 0)), "shop web up");
        assert!(up.contains(&PodKey::new(1, 0, 0)), "blog fe up");
        assert!(!up.contains(&PodKey::new(1, 1, 0)), "blog feed shed");
    }

    #[test]
    fn stateful_aware_policy_plugs_into_the_roster() {
        use crate::policies::ResiliencePolicy;

        let (w, marks) = mixed_app();
        let policy = StatefulAwarePolicy::new(marks.clone(), PhoenixConfig::default());
        assert_eq!(policy.name(), "PhoenixPinned");
        assert_eq!(policy.marks().len(), 1);
        let mut state = ClusterState::homogeneous(3, Resources::cpu(4.0));
        let plan = policy.plan(&w, &mut state);
        assert_eq!(state.pod_count(), 4);
        assert_eq!(plan.actions.counts(), (0, 0, 4));
        assert!(plan.notes.is_empty());
        state.check_invariants().unwrap();

        // A cluster too small for the db reports strandedness in the notes.
        let mut tiny = ClusterState::homogeneous(1, Resources::cpu(2.0));
        let starved = policy.plan(&w, &mut tiny);
        assert!(starved.notes.contains("stranded"), "{}", starved.notes);
    }

    #[test]
    fn verify_pins_flags_deletes_and_migrates_only() {
        let mut marks = StatefulMarks::new();
        marks.mark(AppId::new(0), ServiceId::new(0));
        let pod = PodKey::new(0, 0, 0);
        let node = NodeId::new(0);
        let start_only = ActionPlan {
            actions: vec![Action::Start { pod, node }],
        };
        verify_pins(&start_only, &marks).unwrap();
        let deleting = ActionPlan {
            actions: vec![Action::Delete { pod, node }],
        };
        let err = verify_pins(&deleting, &marks).unwrap_err();
        assert_eq!(err.action.pod(), pod);
        assert!(err.to_string().contains("pinned"));
    }
}
