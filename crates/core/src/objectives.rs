//! Operator objectives for the Global Ranking stage (§4.1).
//!
//! The operator supplies a scoring function that decides, each round, which
//! application's next-most-critical container to activate. The paper ships
//! two: revenue maximization (`PhoenixCost`) and max-min fairness
//! (`PhoenixFair`); the [`OperatorObjective`] trait keeps the set open
//! ("the operator has the flexibility to define any monotonically
//! increasing function F").

use std::fmt;

use crate::spec::AppId;
use crate::tags::Criticality;

/// Context for scoring one candidate container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankContext {
    /// Application the candidate belongs to.
    pub app: AppId,
    /// Scalar demand of the candidate container (all replicas).
    pub next_demand: f64,
    /// Scalar resources already granted to this app in this ranking run.
    pub allocated: f64,
    /// The app's precomputed water-filling fair share.
    pub fair_share: f64,
    /// The app's revenue per unit resource.
    pub price: f64,
    /// Effective criticality of the candidate container.
    pub criticality: Criticality,
    /// Marginal utility weight this candidate adds across its replicas:
    /// `replicas × 1.0` for services without a mode table, the rung's
    /// marginal utility for a mode-ladder step. Built-in objectives
    /// ignore it; custom objectives can rank by marginal utility per
    /// resource (`mode_utility / next_demand`).
    pub mode_utility: f64,
}

/// An operator scoring function: **higher scores are activated sooner**.
///
/// Implementations must be deterministic; ties are broken by application id
/// in the ranker so runs are reproducible.
pub trait OperatorObjective: fmt::Debug + Send + Sync {
    /// Scores a candidate container.
    fn score(&self, ctx: &RankContext) -> f64;

    /// Short name for reports ("cost", "fairness", …).
    fn name(&self) -> &'static str;

    /// `true` when [`score`](OperatorObjective::score) ignores the
    /// allocation-dependent context fields (`allocated` and `fair_share`),
    /// i.e. depends only on static facts about the app and service.
    ///
    /// For such objectives the global-ranking pop order is independent of
    /// cluster capacity, so warm replanning can replay a cached merge
    /// order instead of re-scoring a heap (see `phoenix_core::replan`).
    /// Returning `true` while reading `allocated`/`fair_share` breaks the
    /// warm/cold equivalence guarantee; when in doubt keep the default.
    fn capacity_invariant(&self) -> bool {
        false
    }

    /// The built-in objective this instance *is*, if any.
    ///
    /// Warm replanning keys its merge-order caches on this: a built-in
    /// cannot change between rounds, a custom objective (`None`) may, so
    /// its caches are rebuilt every round. Only return `Some` when `score`
    /// is byte-for-byte the built-in's scoring function; custom objectives
    /// keep the `None` default.
    fn as_builtin(&self) -> Option<ObjectiveKind> {
        None
    }
}

/// Revenue maximization: containers from apps paying more per unit resource
/// are activated first (the `PhoenixCost` ranking key).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostObjective;

impl OperatorObjective for CostObjective {
    fn score(&self, ctx: &RankContext) -> f64 {
        ctx.price
    }

    fn name(&self) -> &'static str {
        "cost"
    }

    fn capacity_invariant(&self) -> bool {
        true
    }

    fn as_builtin(&self) -> Option<ObjectiveKind> {
        Some(ObjectiveKind::Cost)
    }
}

/// Max-min fairness: activate the container whose application would end up
/// *least ahead* of its water-filling fair share (the `PhoenixFair` key:
/// "least resulting deviation from the precomputed fair share").
///
/// Apps below their share get strongly positive scores; apps about to
/// exceed it get negative ones, so under-served apps always win the round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FairnessObjective;

impl OperatorObjective for FairnessObjective {
    fn score(&self, ctx: &RankContext) -> f64 {
        if ctx.fair_share <= 1e-12 {
            // No fair share (zero demand or zero capacity): lowest priority.
            return f64::NEG_INFINITY;
        }
        // Resulting relative usage after activating the candidate; lower is
        // better, so negate.
        -((ctx.allocated + ctx.next_demand) / ctx.fair_share)
    }

    fn name(&self) -> &'static str {
        "fairness"
    }

    fn as_builtin(&self) -> Option<ObjectiveKind> {
        Some(ObjectiveKind::Fairness)
    }
}

/// Raw criticality ordering: all `C1` containers cluster-wide before any
/// `C2`, with **no per-application quota** — the paper's non-cooperative
/// `Priority` baseline. Applications with many high-criticality containers
/// monopolize capacity, which is exactly the failure mode Fig. 7a shows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalityObjective;

impl OperatorObjective for CriticalityObjective {
    fn score(&self, ctx: &RankContext) -> f64 {
        -f64::from(ctx.criticality.level())
    }

    fn name(&self) -> &'static str {
        "criticality"
    }

    fn capacity_invariant(&self) -> bool {
        true
    }
}

/// Built-in objective selection for configs and CLIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObjectiveKind {
    /// Revenue maximization ([`CostObjective`]).
    Cost,
    /// Max-min fairness ([`FairnessObjective`]).
    #[default]
    Fairness,
}

impl ObjectiveKind {
    /// Instantiates the objective.
    pub fn build(self) -> Box<dyn OperatorObjective> {
        match self {
            ObjectiveKind::Cost => Box::new(CostObjective),
            ObjectiveKind::Fairness => Box::new(FairnessObjective),
        }
    }
}

impl fmt::Display for ObjectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectiveKind::Cost => write!(f, "cost"),
            ObjectiveKind::Fairness => write!(f, "fairness"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(allocated: f64, demand: f64, fair: f64, price: f64) -> RankContext {
        RankContext {
            app: AppId::new(0),
            next_demand: demand,
            allocated,
            fair_share: fair,
            price,
            criticality: Criticality::C1,
            mode_utility: 1.0,
        }
    }

    #[test]
    fn criticality_objective_orders_by_level() {
        let o = CriticalityObjective;
        let mut c1 = ctx(0.0, 1.0, 1.0, 1.0);
        let mut c5 = c1;
        c1.criticality = Criticality::C1;
        c5.criticality = Criticality::C5;
        assert!(o.score(&c1) > o.score(&c5));
        assert_eq!(o.name(), "criticality");
    }

    #[test]
    fn cost_scores_by_price_only() {
        let o = CostObjective;
        assert_eq!(o.score(&ctx(0.0, 1.0, 10.0, 3.5)), 3.5);
        assert_eq!(o.score(&ctx(99.0, 5.0, 1.0, 3.5)), 3.5);
    }

    #[test]
    fn fairness_prefers_underserved_apps() {
        let o = FairnessObjective;
        let behind = o.score(&ctx(1.0, 1.0, 10.0, 1.0)); // would be at 20% of share
        let ahead = o.score(&ctx(9.0, 1.0, 10.0, 1.0)); // would be at 100%
        assert!(behind > ahead);
    }

    #[test]
    fn fairness_zero_share_is_last() {
        let o = FairnessObjective;
        assert_eq!(o.score(&ctx(0.0, 1.0, 0.0, 1.0)), f64::NEG_INFINITY);
    }

    #[test]
    fn kind_builds_named_objectives() {
        assert_eq!(ObjectiveKind::Cost.build().name(), "cost");
        assert_eq!(ObjectiveKind::Fairness.build().name(), "fairness");
        assert_eq!(ObjectiveKind::Fairness.to_string(), "fairness");
    }
}
