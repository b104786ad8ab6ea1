//! Plugging a custom operator objective into Phoenix.
//!
//! The paper's global ranking accepts "any monotonically increasing
//! function F" (§4). This example implements an **SLA-tier objective** —
//! gold tenants are served before silver, silver before bronze, with
//! max-min fairness *within* each tier — and runs it against the built-in
//! cost objective on the same capacity crunch.
//!
//! ```sh
//! cargo run --example custom_objective
//! ```

use phoenix::cluster::{ClusterState, Resources};
use phoenix::core::controller::{plan, PhoenixConfig};
use phoenix::core::objectives::{ObjectiveKind, OperatorObjective, RankContext};
use phoenix::core::planner::PlannerConfig;
use phoenix::core::spec::{AppSpecBuilder, SpecError, Workload};
use phoenix::core::stateful::StatefulMarks;
use phoenix::core::tags::Criticality;

/// Contractual SLA tiers, mapped from each app's price band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Gold,
    Silver,
    Bronze,
}

impl Tier {
    fn of_price(price: f64) -> Tier {
        if price >= 3.0 {
            Tier::Gold
        } else if price >= 1.5 {
            Tier::Silver
        } else {
            Tier::Bronze
        }
    }

    fn rank(self) -> f64 {
        match self {
            Tier::Gold => 2.0,
            Tier::Silver => 1.0,
            Tier::Bronze => 0.0,
        }
    }
}

/// Strict tier priority, fairness within a tier.
///
/// The score is `tier_rank * K - resulting_share`, with `K` large enough
/// that no within-tier fairness delta can cross tiers.
#[derive(Debug)]
struct SlaTierObjective;

impl OperatorObjective for SlaTierObjective {
    fn score(&self, ctx: &RankContext) -> f64 {
        let tier = Tier::of_price(ctx.price);
        let share = if ctx.fair_share > 1e-12 {
            (ctx.allocated + ctx.next_demand) / ctx.fair_share
        } else {
            f64::MAX / 1e6
        };
        tier.rank() * 1e6 - share
    }

    fn name(&self) -> &'static str {
        "sla-tier"
    }
}

fn tenant(name: &str, price: f64) -> Result<phoenix::core::spec::AppSpec, SpecError> {
    let mut b = AppSpecBuilder::new(name);
    b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
    b.add_service("api", Resources::cpu(2.0), Some(Criticality::C2), 1);
    b.add_service("extras", Resources::cpu(2.0), Some(Criticality::new(5)), 1);
    b.price_per_unit(price);
    b.build()
}

fn main() -> Result<(), SpecError> {
    let workload = Workload::new(vec![
        tenant("gold-bank", 4.0)?,
        tenant("gold-shop", 3.5)?,
        tenant("silver-blog", 2.0)?,
        tenant("bronze-lab", 1.0)?,
    ]);

    // 6 of 24 CPUs survive the failure — a deep crunch that forces a
    // choice even between the two gold tenants.
    let cluster = ClusterState::homogeneous(3, Resources::cpu(2.0));

    let tiered = PhoenixConfig {
        objective: Box::new(SlaTierObjective),
        planner: PlannerConfig {
            continue_on_saturation: true,
            ..PlannerConfig::default()
        },
        packing: Default::default(),
    };
    let cost = PhoenixConfig::with_objective(ObjectiveKind::Cost);

    println!(
        "{:<14} {:>6} | {:>16} {:>16}",
        "tenant", "tier", "sla-tier alloc", "cost alloc"
    );
    let pins = StatefulMarks::new();
    let tier_plan = plan(&workload, cluster.clone(), &tiered, &pins);
    let cost_plan = plan(&workload, cluster, &cost, &pins);
    for (app, spec) in workload.apps() {
        println!(
            "{:<14} {:>6} | {:>16.1} {:>16.1}",
            spec.name(),
            format!("{:?}", Tier::of_price(spec.price_per_unit())),
            tier_plan.rank.allocated[app.index()],
            cost_plan.rank.allocated[app.index()],
        );
    }
    println!(
        "\nsla-tier: the crunch is split across both gold tenants (each keeps its C1\n\
         frontend) before silver sees a CPU. cost: the single highest payer takes\n\
         everything it can use first, so gold-shop's frontend goes dark."
    );
    Ok(())
}
