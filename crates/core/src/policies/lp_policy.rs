//! The `LPFair` / `LPCost` baselines: the paper's exact ILP formulation
//! (§4 and Appendix C) solved with the `phoenix-lp` branch-and-bound.
//!
//! Decision variables: `x_ij` activates microservice *j* of app *i*;
//! `y_pk` places replica *p* on node *k*. Constraints are Eq. 1–4 of the
//! paper (criticality chains, topology, single placement, node capacity);
//! `LPFair` additionally runs the two-stage max-min program of Appendix C
//! with precomputed water-filling shares.
//!
//! True to Fig. 8b, instances grow as `pods × nodes` and stop being
//! tractable quickly; the policy enforces a time limit and a variable-count
//! guard instead of hanging, and reports what happened in
//! [`PolicyPlan::notes`].

use std::time::{Duration, Instant};

use phoenix_cluster::packing::PlannedPod;
use phoenix_cluster::{ClusterState, NodeId, PodKey};
use phoenix_lp::{Cmp, LinExpr, Model, Sense, SolveOptions, VarId, VarKind};

use crate::actions::diff_states;
use crate::policies::{pack_actions, PolicyPlan, ResiliencePolicy};
use crate::spec::{AppSpec, Workload};
use crate::waterfill::waterfill;

/// Which Appendix-C objective the ILP maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpObjective {
    /// Revenue: `max Σ C_i · R_ij · x_ij`.
    Cost,
    /// Two-stage max-min fairness with water-filling caps.
    Fair,
}

/// How placement (the `y_pk` variables, Eq. 3–4) is handled.
///
/// The paper solves the full placement ILP with Gurobi; a from-scratch
/// branch-and-bound cannot dive through `pods × nodes` binaries in
/// reasonable time, so the default solves the *activation* decision
/// exactly (x variables, Eq. 1–2, aggregate capacity) and delegates
/// node placement to the Algorithm-2 packer — the same decomposition the
/// Phoenix planner itself uses. `FullPlacement` keeps the complete
/// formulation for small instances and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpPlacement {
    /// x-only ILP + best-fit packing (tractable default).
    #[default]
    AggregateCapacity,
    /// Full Eq. 1–4 formulation with per-node y binaries.
    FullPlacement,
}

/// ILP-based resilience planning (the Gurobi baseline, rebuilt).
#[derive(Debug, Clone)]
pub struct LpPolicy {
    objective: LpObjective,
    /// Wall-clock budget per solve.
    pub time_limit: Duration,
    /// Refuse to even build models beyond this many variables.
    pub max_vars: usize,
    /// Refuse to solve when the dense simplex tableau would exceed this
    /// many bytes (the memory wall that stops the LP from scaling).
    pub max_tableau_bytes: usize,
    /// Placement handling (see [`LpPlacement`]).
    pub placement: LpPlacement,
}

impl LpPolicy {
    /// `LPCost`.
    pub fn cost() -> LpPolicy {
        LpPolicy {
            objective: LpObjective::Cost,
            time_limit: Duration::from_secs(30),
            max_vars: 2_000_000,
            max_tableau_bytes: 1 << 31, // 2 GiB
            placement: LpPlacement::default(),
        }
    }

    /// `LPFair`.
    pub fn fair() -> LpPolicy {
        LpPolicy {
            objective: LpObjective::Fair,
            time_limit: Duration::from_secs(30),
            max_vars: 2_000_000,
            max_tableau_bytes: 1 << 31, // 2 GiB
            placement: LpPlacement::default(),
        }
    }

    /// Adjusts the solve budget.
    pub fn with_time_limit(mut self, limit: Duration) -> LpPolicy {
        self.time_limit = limit;
        self
    }

    /// Selects the placement handling.
    pub fn with_placement(mut self, placement: LpPlacement) -> LpPolicy {
        self.placement = placement;
        self
    }
}

struct Ilp {
    model: Model,
    /// x var per (app, service).
    x: Vec<Vec<VarId>>,
    /// (pod, node, y var) triples.
    y: Vec<(PodKey, NodeId, VarId)>,
}

/// Builds the activation constraints (Eq. 1–2) plus either the full
/// placement formulation (Eq. 3–4) or a single aggregate capacity row.
fn build_base(
    workload: &Workload,
    state: &ClusterState,
    sense: Sense,
    placement: LpPlacement,
) -> Option<Ilp> {
    let nodes = state.healthy_nodes();
    let mut model = Model::new(sense);
    let mut x: Vec<Vec<VarId>> = Vec::with_capacity(workload.app_count());
    let mut y = Vec::new();
    for (ai, app) in workload.apps() {
        let xs: Vec<VarId> = app.service_ids().map(|_| model.add_binary()).collect();

        add_criticality_chain(&mut model, app, &xs);

        // Eq. 2: topology — Σ_{j ∈ pred(k)} x_j >= x_k.
        if let Some(g) = app.dependency() {
            for n in g.node_ids() {
                let preds = g.predecessors(n);
                if preds.is_empty() {
                    continue;
                }
                let mut e = LinExpr::term(xs[n.index()], -1.0);
                for p in preds {
                    e.add_term(xs[p.index()], 1.0);
                }
                model.add_constraint(e, Cmp::Ge, 0.0);
            }
        }

        if placement == LpPlacement::FullPlacement {
            // Eq. 3: each replica placed on exactly x_ij nodes (0 or 1).
            for s in app.service_ids() {
                for pod in workload.pod_keys(ai, s) {
                    let mut e = LinExpr::term(xs[s.index()], -1.0);
                    for &k in &nodes {
                        let v = model.add_binary();
                        y.push((pod, k, v));
                        e.add_term(v, 1.0);
                    }
                    model.add_constraint(e, Cmp::Eq, 0.0);
                }
            }
        }
        x.push(xs);
    }

    match placement {
        LpPlacement::FullPlacement => {
            // Eq. 4: node capacities (CPU — the paper's scalar model;
            // memory is checked post-hoc by the repair pass).
            for &k in &nodes {
                let mut e = LinExpr::new();
                for &(pod, node, v) in &y {
                    if node == k {
                        let (_, svc) = workload.service_of_pod(pod).expect("pod from workload");
                        e.add_term(v, svc.demand.scalar());
                    }
                }
                model.add_constraint(e, Cmp::Le, state.capacity(k).scalar());
            }
        }
        LpPlacement::AggregateCapacity => {
            // Single aggregate row: Σ R_ij x_ij ≤ healthy capacity.
            let mut e = LinExpr::new();
            for (ai, app) in workload.apps() {
                for s in app.service_ids() {
                    e.add_term(
                        x[ai.index()][s.index()],
                        app.service(s).total_demand().scalar(),
                    );
                }
            }
            model.add_constraint(e, Cmp::Le, state.healthy_capacity().scalar());
        }
    }
    Some(Ilp { model, x, y })
}

/// Eq. 1 via per-level indicator variables (O(V) instead of O(V²) pairs):
/// `z_L <= x_j ∀ j∈L` and `x_k <= z_L ∀ k∈next(L)`.
fn add_criticality_chain(model: &mut Model, app: &AppSpec, xs: &[VarId]) {
    let mut levels: Vec<u8> = app
        .service_ids()
        .map(|s| app.criticality_of(s).level())
        .collect();
    let mut distinct = levels.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() <= 1 {
        return;
    }
    let mut prev_z: Option<VarId> = None;
    for &level in &distinct {
        let members: Vec<usize> = levels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == level)
            .map(|(i, _)| i)
            .collect();
        let z = model.add_var(VarKind::Continuous, 0.0, 1.0);
        for &m in &members {
            // z <= x_m
            model.add_constraint(LinExpr::from_terms([(z, 1.0), (xs[m], -1.0)]), Cmp::Le, 0.0);
            if let Some(pz) = prev_z {
                // x_m <= z_{previous (more critical) level}
                model.add_constraint(
                    LinExpr::from_terms([(xs[m], 1.0), (pz, -1.0)]),
                    Cmp::Le,
                    0.0,
                );
            }
        }
        prev_z = Some(z);
    }
    levels.clear();
}

impl ResiliencePolicy for LpPolicy {
    fn name(&self) -> &'static str {
        match self.objective {
            LpObjective::Cost => "LPCost",
            LpObjective::Fair => "LPFair",
        }
    }

    fn plan(&self, workload: &Workload, state: &mut ClusterState) -> PolicyPlan {
        let t0 = Instant::now();
        let pods: usize = workload
            .apps()
            .map(|(_, a)| {
                a.services()
                    .iter()
                    .map(|s| s.replicas as usize)
                    .sum::<usize>()
            })
            .sum();
        let var_estimate = match self.placement {
            LpPlacement::FullPlacement => pods * state.healthy_nodes().len() + pods,
            LpPlacement::AggregateCapacity => pods,
        };
        if var_estimate > self.max_vars {
            let notes = format!("skipped: ~{var_estimate} variables exceed max_vars");
            return PolicyPlan::unchanged(t0.elapsed(), notes);
        }
        // The dense two-phase tableau needs rows × cols × 8 bytes; refuse
        // instances that cannot fit (this is exactly how the LP stops
        // scaling in Fig. 8b).
        let services: usize = workload.apps().map(|(_, a)| a.service_count()).sum();
        let rows_estimate = match self.placement {
            LpPlacement::FullPlacement => 3 * services + pods + state.healthy_nodes().len(),
            LpPlacement::AggregateCapacity => 3 * services + 1,
        } + workload.app_count() * 2;
        let cols_estimate = var_estimate + rows_estimate;
        let bytes = rows_estimate
            .saturating_mul(cols_estimate)
            .saturating_mul(8);
        if bytes > self.max_tableau_bytes {
            let notes = format!(
                "skipped: dense tableau would need ~{:.1} GiB (limit {:.1} GiB)",
                bytes as f64 / (1u64 << 30) as f64,
                self.max_tableau_bytes as f64 / (1u64 << 30) as f64
            );
            return PolicyPlan::unchanged(t0.elapsed(), notes);
        }
        let Some(mut ilp) = build_base(workload, state, Sense::Maximize, self.placement) else {
            return PolicyPlan::unchanged(t0.elapsed(), "model build failed".into());
        };

        let opts = SolveOptions {
            time_limit: Some(self.time_limit),
            ..SolveOptions::default()
        };
        let solution = match self.objective {
            LpObjective::Cost => {
                let mut obj = LinExpr::new();
                for (ai, app) in workload.apps() {
                    for s in app.service_ids() {
                        obj.add_term(
                            ilp.x[ai.index()][s.index()],
                            app.price_per_unit() * app.service(s).total_demand().scalar(),
                        );
                    }
                }
                ilp.model.set_objective_expr(obj);
                ilp.model.solve(&opts)
            }
            LpObjective::Fair => {
                // Stage 1: maximize the min allocation F, capped by
                // water-filling fair shares (Appendix C Eq. 6–7).
                let demands: Vec<f64> = workload
                    .apps()
                    .map(|(_, a)| a.total_demand().scalar())
                    .collect();
                let shares = waterfill(&demands, state.healthy_capacity().scalar());
                let f = ilp.model.add_var(VarKind::Continuous, 0.0, f64::INFINITY);
                for (ai, app) in workload.apps() {
                    let mut alloc = LinExpr::new();
                    for s in app.service_ids() {
                        alloc.add_term(
                            ilp.x[ai.index()][s.index()],
                            app.service(s).total_demand().scalar(),
                        );
                    }
                    let mut ge_f = alloc.clone();
                    ge_f.add_term(f, -1.0);
                    ilp.model.add_constraint(ge_f, Cmp::Ge, 0.0);
                    ilp.model.add_constraint(alloc, Cmp::Le, shares[ai.index()]);
                }
                ilp.model.set_objective_expr(LinExpr::term(f, 1.0));
                match ilp.model.solve(&opts) {
                    Ok(stage1) => {
                        // Stage 2: pin F, maximize total activated demand.
                        let f_star = stage1.value(f);
                        ilp.model
                            .add_constraint(LinExpr::term(f, 1.0), Cmp::Ge, f_star - 1e-6);
                        let mut obj = LinExpr::new();
                        for (ai, app) in workload.apps() {
                            for s in app.service_ids() {
                                obj.add_term(
                                    ilp.x[ai.index()][s.index()],
                                    app.service(s).total_demand().scalar(),
                                );
                            }
                        }
                        ilp.model.set_objective_expr(obj);
                        ilp.model
                            .solve(&opts)
                            .or(Ok::<_, phoenix_lp::LpError>(stage1))
                    }
                    Err(e) => Err(e),
                }
            }
        };

        let sol = match solution {
            Ok(sol) => sol,
            Err(e) => return PolicyPlan::unchanged(t0.elapsed(), format!("solver failed: {e}")),
        };
        let notes = format!(
            "status={:?} nodes={} iters={}",
            sol.status, sol.nodes, sol.iterations
        );
        let actions = match self.placement {
            LpPlacement::FullPlacement => {
                // Rebuild the target from scratch on an emptied cluster
                // (the LP re-places everything).
                let live = state.clone();
                for (pod, _, _) in live.assignments() {
                    state.remove(pod).expect("listed assignment");
                }
                for &(pod, node, v) in &ilp.y {
                    if sol.value(v) > 0.5 {
                        let (_, svc) = workload.service_of_pod(pod).expect("pod from workload");
                        // Memory was not modelled; skip placements that
                        // violate it rather than overcommit.
                        if svc.demand.fits_in(&state.remaining(node)) {
                            state
                                .assign(pod, svc.demand, node)
                                .expect("fit just verified");
                        }
                    }
                }
                diff_states(&live, state)
            }
            LpPlacement::AggregateCapacity => {
                // Chosen services, in criticality-then-app order so the
                // packer's deletion fallback respects the LP's intent;
                // placement via Algorithm 2.
                let mut chosen: Vec<(u8, u32, PlannedPod)> = Vec::new();
                for (ai, app) in workload.apps() {
                    for s in app.service_ids() {
                        if sol.value(ilp.x[ai.index()][s.index()]) > 0.5 {
                            for pod in workload.pod_keys(ai, s) {
                                chosen.push((
                                    app.criticality_of(s).level(),
                                    ai.index() as u32,
                                    PlannedPod::new(pod, app.service(s).demand),
                                ));
                            }
                        }
                    }
                }
                chosen.sort_by_key(|&(level, app, p)| (level, app, p.key));
                let plan: Vec<PlannedPod> = chosen.into_iter().map(|(_, _, p)| p).collect();
                pack_actions(state, &plan)
            }
        };
        PolicyPlan {
            actions,
            planning_time: t0.elapsed(),
            modes: crate::spec::ModeAssignment::empty(),
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppSpecBuilder;
    use crate::tags::Criticality;
    use phoenix_cluster::Resources;

    fn app(name: &str, crits: &[u8], price: f64) -> crate::spec::AppSpec {
        let mut b = AppSpecBuilder::new(name);
        for (i, &c) in crits.iter().enumerate() {
            b.add_service(
                format!("s{i}"),
                Resources::cpu(1.0),
                Some(Criticality::new(c)),
                1,
            );
        }
        b.price_per_unit(price);
        b.build().unwrap()
    }

    #[test]
    fn lpcost_prefers_expensive_apps() {
        let w = Workload::new(vec![app("cheap", &[1, 2], 1.0), app("rich", &[1, 2], 10.0)]);
        let mut state = ClusterState::homogeneous(2, Resources::cpu(1.0));
        let plan = LpPolicy::cost().plan(&w, &mut state);
        let rich = state.assignments().filter(|(p, _, _)| p.app == 1).count();
        assert_eq!(rich, 2, "notes: {}", plan.notes);
        assert_eq!(state.pod_count(), 2);
    }

    #[test]
    fn criticality_chain_enforced() {
        // One app, C1 (1 CPU) + C2 (1 CPU), but only the C2 would "pay" more
        // if activated alone — the chain forbids C2 without C1.
        let mut b = AppSpecBuilder::new("a");
        b.add_service("c1", Resources::cpu(2.0), Some(Criticality::C1), 1);
        b.add_service("c2", Resources::cpu(1.0), Some(Criticality::C2), 1);
        let w = Workload::new(vec![b.build().unwrap()]);
        // 1 CPU total: C1 (2 CPU) can't fit, so C2 must stay off too.
        let mut state = ClusterState::homogeneous(1, Resources::cpu(1.0));
        let plan = LpPolicy::cost().plan(&w, &mut state);
        assert_eq!(state.pod_count(), 0, "notes: {}", plan.notes);
    }

    #[test]
    fn topology_constraint_enforced() {
        // fe(C1, 2cpu) -> be(C1, 1cpu): with 1 CPU, be alone is forbidden.
        let mut b = AppSpecBuilder::new("a");
        let fe = b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
        let be = b.add_service("be", Resources::cpu(1.0), Some(Criticality::C1), 1);
        b.add_dependency(fe, be);
        let w = Workload::new(vec![b.build().unwrap()]);
        let mut state = ClusterState::homogeneous(1, Resources::cpu(1.0));
        let plan = LpPolicy::cost().plan(&w, &mut state);
        assert_eq!(state.pod_count(), 0, "notes: {}", plan.notes);
    }

    #[test]
    fn lpfair_splits_capacity() {
        let w = Workload::new(vec![
            app("x", &[1, 1, 1, 1], 1.0),
            app("y", &[1, 1, 1, 1], 5.0),
        ]);
        let mut state = ClusterState::homogeneous(4, Resources::cpu(1.0));
        let plan = LpPolicy::fair().plan(&w, &mut state);
        let per = |a: u32| state.assignments().filter(|(p, _, _)| p.app == a).count();
        assert_eq!((per(0), per(1)), (2, 2), "notes: {}", plan.notes);
    }

    #[test]
    fn oversize_instance_skipped_not_hung() {
        let w = Workload::new(vec![app("a", &[1; 10], 1.0)]);
        let mut state = ClusterState::homogeneous(100, Resources::cpu(1.0));
        let mut p = LpPolicy::cost();
        p.max_vars = 5;
        let plan = p.plan(&w, &mut state);
        assert!(plan.notes.contains("skipped"));
        assert!(plan.actions.is_empty());
        assert_eq!(state.pod_count(), 0);
    }

    #[test]
    fn full_placement_mode_solves_tiny_instances() {
        let w = Workload::new(vec![app("a", &[1, 2], 1.0), app("b", &[1], 3.0)]);
        let mut state = ClusterState::homogeneous(3, Resources::cpu(1.0));
        let plan = LpPolicy::cost()
            .with_placement(LpPlacement::FullPlacement)
            .plan(&w, &mut state);
        state.check_invariants().unwrap();
        // 3 CPUs across 3 nodes: all three 1-CPU services fit.
        assert_eq!(state.pod_count(), 3, "notes: {}", plan.notes);
    }

    #[test]
    fn aggregate_and_full_agree_on_tiny_instances() {
        let w = Workload::new(vec![app("a", &[1, 2], 2.0), app("b", &[1, 3], 1.0)]);
        let state = ClusterState::homogeneous(2, Resources::cpu(1.0));
        let (mut agg, mut full) = (state.clone(), state);
        LpPolicy::cost().plan(&w, &mut agg);
        LpPolicy::cost()
            .with_placement(LpPlacement::FullPlacement)
            .plan(&w, &mut full);
        assert_eq!(agg.pod_count(), full.pod_count());
    }

    #[test]
    fn capacity_never_violated() {
        let w = Workload::new(vec![app("a", &[1, 1, 2, 3], 2.0), app("b", &[1, 2], 1.0)]);
        let mut state = ClusterState::homogeneous(2, Resources::cpu(2.0));
        LpPolicy::cost().plan(&w, &mut state);
        state.check_invariants().unwrap();
        assert!(state.total_used().cpu <= 4.0 + 1e-9);
    }
}
