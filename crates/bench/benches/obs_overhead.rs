//! Guard bench: the **disabled** recorder must be free on the planner's
//! hot path.
//!
//! The instrumentation is compiled into release planners unconditionally
//! — `phoenix_obs::current()` is one relaxed atomic load, and every
//! counter/timer call is a branch on `None`. This bench holds that
//! contract to a number: a 10k-node cold plan with the default (disabled)
//! recorder installed must stay within **2%** of the same plan measured
//! back-to-back, and a burst of one million disabled `incr` calls must be
//! a rounding error next to the plan itself. The wall-clock comparison is
//! honest only with real parallelism available, so the verdict line
//! records `host_cpus` like every other timing in this repo.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use phoenix_bench::replan_scenario::replan_env;
use phoenix_core::controller::{plan, PhoenixConfig};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::stateful::StatefulMarks;
use phoenix_obs::Counter;

fn bench_obs_overhead(c: &mut Criterion) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = replan_env(10_000);
    let cfg = PhoenixConfig::with_objective(ObjectiveKind::Fairness);
    let pins = StatefulMarks::new();

    // Outside every `with_recorder` scope the recorder is disabled.
    assert!(!phoenix_obs::current().is_enabled());

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.bench_function("cold_plan_10k_disabled_recorder", |b| {
        b.iter(|| plan(&env.workload, env.baseline.clone(), &cfg, &pins))
    });

    // A million disabled counter increments: the raw per-call cost of
    // instrumentation that did not fire.
    group.bench_function("disabled_incr_1m", |b| {
        b.iter(|| {
            let obs = phoenix_obs::current();
            for _ in 0..1_000_000u32 {
                obs.incr(black_box(Counter::PackPlacements));
            }
        })
    });
    group.finish();

    // The <2% assertion, measured back-to-back outside criterion so the
    // two sides see identical cache/frequency conditions: plan time vs
    // plan time plus a proportional burst of disabled recorder calls.
    let plan_t0 = Instant::now();
    let planned = plan(&env.workload, env.baseline.clone(), &cfg, &pins);
    let plan_secs = plan_t0.elapsed().as_secs_f64();
    black_box(planned.target.pod_count());

    let obs = phoenix_obs::current();
    let obs_t0 = Instant::now();
    for _ in 0..1_000_000u32 {
        obs.incr(black_box(Counter::PackPlacements));
    }
    let obs_secs = obs_t0.elapsed().as_secs_f64();

    let ratio = obs_secs / plan_secs;
    println!(
        "obs_overhead verdict: 1M disabled incrs = {:.3}ms vs 10k-node cold plan = {:.1}ms \
         ({:.2}% — budget 2%), host_cpus = {host_cpus}",
        obs_secs * 1e3,
        plan_secs * 1e3,
        ratio * 100.0
    );
    assert!(
        ratio < 0.02,
        "disabled recorder costs {:.2}% of a 10k-node cold plan (budget 2%)",
        ratio * 100.0
    );
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
