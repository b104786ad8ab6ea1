//! Criterion bench: ILP solve time growth on the Appendix-C placement
//! formulation (the mechanism behind the LP curves of Fig. 8b).

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use phoenix_cluster::{ClusterState, Resources};
use phoenix_core::policies::{LpPolicy, ResiliencePolicy};
use phoenix_core::spec::{AppSpecBuilder, Workload};
use phoenix_core::tags::Criticality;

fn workload_of(apps: usize, services: usize) -> Workload {
    let mut out = Vec::new();
    for a in 0..apps {
        let mut b = AppSpecBuilder::new(format!("app{a}"));
        for s in 0..services {
            b.add_service(
                format!("ms{s}"),
                Resources::cpu(1.0 + (s % 3) as f64),
                Some(Criticality::new(1 + (s % 4) as u8)),
                1,
            );
        }
        b.price_per_unit(1.0 + a as f64);
        out.push(b.build().unwrap());
    }
    Workload::new(out)
}

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_placement");
    group.sample_size(10);
    for nodes in [4usize, 8, 16] {
        let workload = workload_of(2, 4);
        let mut state = ClusterState::homogeneous(nodes, Resources::cpu(8.0));
        state.fail_node(phoenix_cluster::NodeId::new(0));
        let policy = LpPolicy::cost().with_time_limit(Duration::from_secs(20));
        group.bench_with_input(BenchmarkId::new("LPCost", nodes), &nodes, |b, _| {
            b.iter(|| policy.plan(&workload, &mut state.clone()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lp);
// Expanded `criterion_main!` so the harness honours the standard
// `--threads N` flag (and `PHOENIX_THREADS`) before any group runs.
fn main() {
    phoenix_bench::init_threads();
    benches();
}
