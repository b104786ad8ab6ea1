//! Adversarial criticality tags: audit a workload for tag inflation, then
//! measure the blast radius of a lying tenant under a quota-free priority
//! scheme vs. Phoenix's fairness objective (§7, *Adversarial or Incorrect
//! Criticality Tags*).
//!
//! ```sh
//! cargo run --example adversarial_tags
//! ```

use phoenix::cluster::{ClusterState, Resources};
use phoenix::core::audit::{audit_workload, blast_radius, inflate_tags};
use phoenix::core::controller::PhoenixConfig;
use phoenix::core::objectives::{CriticalityObjective, ObjectiveKind};
use phoenix::core::planner::PlannerConfig;
use phoenix::core::spec::{AppId, AppSpecBuilder, SpecError, Workload};
use phoenix::core::tags::Criticality;

fn tenant(name: &str) -> Result<phoenix::core::spec::AppSpec, SpecError> {
    let mut b = AppSpecBuilder::new(name);
    b.add_service("frontend", Resources::cpu(2.0), Some(Criticality::C1), 1);
    b.add_service("api", Resources::cpu(2.0), Some(Criticality::C2), 1);
    b.add_service("batch", Resources::cpu(2.0), Some(Criticality::new(4)), 1);
    b.add_service(
        "analytics",
        Resources::cpu(2.0),
        Some(Criticality::new(6)),
        1,
    );
    b.build()
}

fn main() -> Result<(), SpecError> {
    // Four tenants with identical demand; the last will lie about its tags.
    let workload = Workload::new(vec![
        tenant("alpha")?,
        tenant("beta")?,
        tenant("gamma")?,
        tenant("liar")?,
    ]);

    // 1. The static audit catches the inflation before any failure occurs.
    let mut submitted: Vec<_> = workload.apps().map(|(_, a)| a.clone()).collect();
    submitted[3] = inflate_tags(&submitted[3]);
    let report = audit_workload(&Workload::new(submitted));
    println!("audit: passed = {}", report.passed());
    for app in report.suspicious() {
        for finding in &app.findings {
            println!("  {}: {finding}", app.name);
        }
    }

    // 2. Blast radius during a 50% capacity crunch: 16 of 32 CPUs survive.
    let mut cluster = ClusterState::homogeneous(8, Resources::cpu(4.0));
    for node in cluster.node_ids().into_iter().take(4) {
        cluster.fail_node(node);
    }
    let inflator = AppId::new(3);

    let priority_cfg = PhoenixConfig {
        objective: Box::new(CriticalityObjective),
        planner: PlannerConfig {
            continue_on_saturation: true,
            ..PlannerConfig::default()
        },
        packing: Default::default(),
    };
    let fair_cfg = PhoenixConfig::with_objective(ObjectiveKind::Fairness);

    println!(
        "\n{:<22} {:>12} {:>12} {:>14}",
        "objective", "liar gain", "victim loss", "worst victim"
    );
    for (label, cfg) in [
        ("priority (no quotas)", priority_cfg),
        ("phoenix fairness", fair_cfg),
    ] {
        let br = blast_radius(&workload, inflator, &cluster, &cfg);
        let worst = br
            .worst_victim()
            .map(|(app, drop)| format!("{} -{:.0}% C1", workload.app(app).name(), drop * 100.0))
            .unwrap_or_else(|| "none".into());
        println!(
            "{label:<22} {:>10.1} {:>12.1} {:>16}",
            br.inflator_gain(),
            br.victim_loss(),
            worst
        );
    }
    println!("\nfairness bounds the liar to its fair share; quota-free priority lets it steal.");
    Ok(())
}
