//! Stateful-workload handling: split a mixed workload onto a dedicated
//! stateful cluster (the paper's §6.1 deployment), then run the pinned
//! co-location mode and watch a node failure degrade only the stateless
//! half while the database never moves.
//!
//! ```sh
//! cargo run --example stateful_split
//! ```

use phoenix::cluster::{ClusterState, Resources};
use phoenix::core::controller::{PhoenixConfig, PhoenixController};
use phoenix::core::spec::{AppSpecBuilder, SpecError, Workload};
use phoenix::core::stateful::{partition, place_stateful, plan_pinned, StatefulMarks};
use phoenix::core::tags::Criticality;

fn main() -> Result<(), SpecError> {
    // A document service: web tier + compile farm are stateless; MongoDB
    // and a Redis session cache hold state.
    let mut b = AppSpecBuilder::new("docs");
    let web = b.add_service("web", Resources::cpu(2.0), Some(Criticality::C1), 2);
    let compile = b.add_service("compile", Resources::cpu(2.0), Some(Criticality::C2), 1);
    let chat = b.add_service("chat", Resources::cpu(1.0), Some(Criticality::new(5)), 1);
    let mongo = b.add_service("mongodb", Resources::cpu(3.0), Some(Criticality::C1), 1);
    let redis = b.add_service(
        "redis-sessions",
        Resources::cpu(1.0),
        Some(Criticality::C1),
        1,
    );
    b.add_dependency(web, compile);
    b.add_dependency(web, chat);
    b.add_dependency(web, mongo);
    b.add_dependency(mongo, redis);
    let workload = Workload::new(vec![b.build()?]);

    let marks = StatefulMarks::by_name(&workload, |n| n.contains("mongo") || n.contains("redis"));
    println!("marked {} stateful services", marks.len());

    // --- Pattern 1: separate stateful cluster (§6.1) --------------------
    let part = partition(&workload, &marks);
    println!(
        "partition: {} stateless / {} stateful services",
        part.stateless
            .app(phoenix::core::spec::AppId::new(0))
            .service_count(),
        part.stateful
            .app(phoenix::core::spec::AppId::new(0))
            .service_count(),
    );

    let mut stateful_cluster = ClusterState::homogeneous(2, Resources::cpu(4.0));
    let placed = place_stateful(&part.stateful, &mut stateful_cluster)
        .expect("stateful cluster is provisioned for its workload");
    for (pod, node) in &placed {
        println!("  stateful {pod} pinned to {node}");
    }

    let compute = ClusterState::homogeneous(4, Resources::cpu(3.0));
    let controller = PhoenixController::new(part.stateless.clone(), PhoenixConfig::default());
    let plan = controller.plan(&compute);
    println!(
        "compute cluster plans {} stateless pods; stateful cluster untouched\n",
        plan.target.pod_count()
    );

    // --- Pattern 2: pinned co-location ----------------------------------
    let config = PhoenixConfig::default();
    let mut shared = ClusterState::homogeneous(4, Resources::cpu(4.0));
    let first = plan_pinned(&workload, &marks, &shared, &config);
    first
        .check(&workload, &marks, &shared, &config)
        .expect("the first plan keeps every pin promise");
    for (pod, node, demand) in first.target.assignments() {
        shared.assign(pod, demand, node).expect("plan fits");
    }
    println!(
        "shared cluster: {} pods running (stateful co-located)",
        shared.pod_count()
    );

    // Fail everything except mongodb's node and one other: capacity drops
    // from 16 to 8 CPUs against 11 CPUs of demand. The stateless tail is
    // shed; the pins hold.
    let mongo_pod = shared
        .assignments()
        .find(|(p, _, _)| p.service == mongo.index() as u32)
        .map(|(p, n, _)| (p, n))
        .expect("mongo is running");
    let mut spared = 1;
    for node in shared.node_ids() {
        if node == mongo_pod.1 {
            continue;
        }
        if spared > 0 {
            spared -= 1;
            continue;
        }
        shared.fail_node(node);
    }
    let replan = plan_pinned(&workload, &marks, &shared, &config);
    replan
        .check(&workload, &marks, &shared, &config)
        .expect("stateful pods are never deleted or migrated");
    println!(
        "after failure: {} pods planned, mongodb still on {} ({} stranded)",
        replan.target.pod_count(),
        replan
            .target
            .node_of(mongo_pod.0)
            .map(|n| n.to_string())
            .unwrap_or_else(|| "-".into()),
        replan.stranded.len(),
    );
    let (d, m, s) = replan.actions.counts();
    println!("agent actions: {d} deletes, {m} migrations, {s} starts — none touch state");
    Ok(())
}
