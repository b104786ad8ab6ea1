//! Criterion bench: overheads of the hardening layers — pinned stateful
//! planning vs. the plain pipeline, and log-based criticality inference.

use criterion::{criterion_group, BenchmarkId, Criterion};
use phoenix_adaptlab::alibaba::AlibabaConfig;
use phoenix_adaptlab::inference::{infer_tags, synthesize_log, InferenceConfig, LogConfig};
use phoenix_adaptlab::scenario::{build_env, EnvConfig};
use phoenix_adaptlab::tagging::TaggingScheme;
use phoenix_cluster::failure::fail_fraction;
use phoenix_core::controller::{plan, PhoenixConfig};
use phoenix_core::stateful::StatefulMarks;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_pinned_planning(c: &mut Criterion) {
    let env = build_env(&EnvConfig {
        nodes: 300,
        node_capacity: 32.0,
        target_utilization: 0.8,
        tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
        alibaba: AlibabaConfig {
            max_services: 160,
            ..AlibabaConfig::default()
        },
        seed: 61,
        ..EnvConfig::default()
    });
    // Mark ~10% of services stateful (every tenth service of each app).
    let mut marks = StatefulMarks::new();
    for (app, spec) in env.workload.apps() {
        for s in spec.service_ids().step_by(10) {
            marks.mark(app, s);
        }
    }
    let mut failed = env.baseline.clone();
    let mut rng = StdRng::seed_from_u64(61);
    fail_fraction(&mut failed, 0.5, &mut rng);
    let (config, no_pins) = (PhoenixConfig::default(), StatefulMarks::new());

    let mut g = c.benchmark_group("stateful");
    g.sample_size(20);
    g.bench_function(BenchmarkId::new("plan", "plain"), |b| {
        b.iter(|| plan(&env.workload, failed.clone(), &config, &no_pins))
    });
    g.bench_function(BenchmarkId::new("plan", "pinned"), |b| {
        b.iter(|| plan(&env.workload, failed.clone(), &config, &marks))
    });
    g.finish();
}

fn bench_inference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(62);
    let apps = phoenix_adaptlab::alibaba::generate(
        &mut rng,
        &AlibabaConfig {
            apps: 1,
            max_services: 1000,
            max_requests: 500_000.0,
        },
    );
    let log = synthesize_log(&apps[0], &LogConfig { sample_rate: 0.05 }, &mut rng);
    let cfg = InferenceConfig::default();

    let mut g = c.benchmark_group("inference");
    g.sample_size(30);
    g.bench_function("infer_tags_1000_services", |b| {
        b.iter(|| infer_tags(&log, &cfg))
    });
    g.finish();
}

criterion_group!(benches, bench_pinned_planning, bench_inference);
// Expanded `criterion_main!` so the harness honours the standard
// `--threads N` flag (and `PHOENIX_THREADS`) before any group runs.
fn main() {
    phoenix_bench::init_threads();
    benches();
}
