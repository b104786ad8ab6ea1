//! The four workloads. Each is a closed loop with one client: the next
//! operation starts when the previous one (and its output checks) is
//! done. Loops are time-boxed by `--seconds` of wall clock; latencies
//! cover only the call under test, checks run outside the timed region.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::adapter::{CampaignSummary, Drill, Env, EvalStack, Lane, Objective, Planned};
use crate::inputs::{drill_scenarios, failure_sets, TickScript, TickStep};
use crate::json::Value;
use crate::sizes::Sizes;
use crate::stats::{balanced_median, mean, median, percentile, Fnv};
use crate::trace::Tracer;

/// What one workload run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (one of [`crate::metrics::WORKLOADS`]).
    pub workload: String,
    /// Seed of the injected failures.
    pub seed: u64,
    /// Wall-clock seconds the measured loop runs.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
    /// A short side run (the threads = 1 child of a traced run): one
    /// set-up, and one cycle at least instead of a full round.
    pub probe: bool,
}

impl RunArgs {
    /// Set-ups this run builds at least: one when traced or probing
    /// (`setup_s` is an untraced metric), else [`Sizes::min_setups`].
    fn min_setups(&self) -> usize {
        if self.trace || self.probe {
            1
        } else {
            self.sizes.min_setups
        }
    }

    /// Cycles the measured loop runs at least: a `full` round, so that
    /// every input is visited (and the exact metrics follow the seed
    /// alone) — or a single one when probing.
    fn min_cycles(&self, full: usize) -> usize {
        if self.probe {
            1
        } else {
            full
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (warm-ups included).
    pub attempted: u64,
    /// Operations that panicked, errored, or failed an output check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Untraced: the end-to-end metrics. Traced: the per-layer metrics.
    pub metrics: Vec<(&'static str, f64)>,
    /// Run facts that are not metrics: sample counts, digest, sizes.
    pub info: Vec<(&'static str, Value)>,
    /// For workloads whose fan-out is worth an `exec.*_speedup` row: that
    /// row's name, and this run's `op_ms_p50` over the inputs a `probe`
    /// child run covers (the first cycle).
    pub probe: Option<(&'static str, f64)>,
}

/// Failure accounting: an operation fails once, however many of its
/// checks miss.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    open_units: u64,
    open_failed: bool,
}

impl Ops {
    /// Starts an operation worth `units` attempts (a campaign is one call
    /// but `cells` attempts).
    fn begin(&mut self, units: u64) {
        self.attempted += units;
        self.open_units = units;
        self.open_failed = false;
    }

    fn fail(&mut self, msg: String) {
        if !self.open_failed {
            self.failed += self.open_units;
            self.open_failed = true;
        }
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Runs `f` under `catch_unwind`; a panic fails the open operation.
    fn guarded<R>(&mut self, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_string());
                self.fail(format!("{what} panicked: {msg}"));
                None
            }
        }
    }

    /// Compares `digest` with the one `slot` saw before (same inputs must
    /// give the same outputs inside one run).
    fn same_digest(&mut self, what: &str, slot: &mut Option<u64>, digest: u64) {
        match *slot {
            Some(prev) if prev != digest => {
                self.fail(format!(
                    "{what}: digest {digest:016x} != earlier {prev:016x}"
                ));
            }
            _ => *slot = Some(digest),
        }
    }
}

/// Wall-clock budget of the measured loop.
struct Clock {
    start: Instant,
    seconds: f64,
}

impl Clock {
    fn start(seconds: f64) -> Clock {
        Clock {
            start: Instant::now(),
            seconds,
        }
    }

    fn up(&self) -> bool {
        self.start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// A built set-up, its median build time in seconds, and how many times it
/// was built.
type Setup<T> = (T, f64, usize);

/// Builds the workload's set-up several times and keeps the last one;
/// the median build time is `setup_s`. The previous build is dropped
/// before the next starts, so peak memory holds one set-up, not two.
/// Short set-ups repeat until two seconds have been spent (at most 40
/// times): a burst of machine noise lasts about as long as a 0.3 s
/// set-up, and the median of three would sit inside it.
fn repeat_setup<T>(
    min_reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<Setup<T>, String> {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let t = Instant::now();
        let built = build()?;
        let s = t.elapsed().as_secs_f64();
        times.push(s);
        total += s;
        if times.len() >= min_reps && (total >= 2.0 || times.len() >= 40 || min_reps <= 1) {
            return Ok((built, median(&times), times.len()));
        }
        drop(built);
    }
}

/// `VmHWM` of this process in MB (0.0 where `/proc` is not there).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-operation counts gathered in traced runs (mean per op is reported).
#[derive(Debug, Default)]
struct Counts(BTreeMap<&'static str, Vec<f64>>);

impl Counts {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| mean(v))
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// Latency samples by operation class. A sample is one timed call worth
/// `units` operations (1 everywhere except evalstack, where a campaign
/// call is `cells` operations); the latency kept is per operation.
#[derive(Debug)]
struct Latencies {
    classes: Vec<Vec<f64>>,
    busy_ms: Vec<f64>,
    units: Vec<f64>,
}

impl Latencies {
    fn new(classes: usize) -> Latencies {
        Latencies {
            classes: vec![Vec::new(); classes],
            busy_ms: vec![0.0; classes],
            units: vec![0.0; classes],
        }
    }

    fn push(&mut self, class: usize, ms: f64, units: u64) {
        self.classes[class].push(ms / units.max(1) as f64);
        self.busy_ms[class] += ms;
        self.units[class] += units as f64;
    }

    /// Timed calls recorded.
    fn n(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    fn all(&self) -> Vec<f64> {
        self.classes.iter().flatten().copied().collect()
    }

    /// Class-balanced median latency of one operation.
    fn p50(&self) -> f64 {
        balanced_median(&self.classes)
    }

    fn busy_s(&self) -> f64 {
        self.busy_ms.iter().sum::<f64>() / 1e3
    }

    /// Operations per busy second over the given classes.
    fn rate_of(&self, classes: impl Iterator<Item = usize> + Clone) -> f64 {
        let units: f64 = classes.clone().map(|c| self.units[c]).sum();
        let busy_ms: f64 = classes.map(|c| self.busy_ms[c]).sum();
        units / (busy_ms / 1e3).max(f64::MIN_POSITIVE)
    }

    /// Operations per busy second, over all classes.
    fn rate(&self) -> f64 {
        self.rate_of(0..self.classes.len())
    }
}

/// Runs the workload named in `args`.
///
/// # Errors
///
/// An unknown workload name, or a set-up the system under test rejects.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "storm-10k" => storm(args, tracer),
        "tick-10k" => tick(args, tracer),
        "drill-64" => drill(args, tracer),
        "evalstack-16" => evalstack(args, tracer),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// What a workload hands to [`finish`].
struct Measured {
    ops: Ops,
    lat: Latencies,
    /// Median set-up seconds and how many set-ups were built.
    setup: (f64, usize),
    goal_met_frac: f64,
    /// The workload's own end-to-end metrics ([`crate::metrics::EXTRA`]).
    extra: Vec<(&'static str, f64)>,
    /// The workload's per-layer metrics (traced runs).
    layers: Vec<(&'static str, f64)>,
    info: Vec<(&'static str, Value)>,
    /// See [`Outcome::probe`].
    probe: Option<(&'static str, f64)>,
}

/// Fills the fields every workload reports the same way.
fn finish(args: &RunArgs, tracer: &Tracer, measured: Measured) -> Outcome {
    let Measured {
        ops,
        lat,
        setup,
        goal_met_frac,
        extra,
        mut layers,
        mut info,
        probe,
    } = measured;
    let op_fail_frac = if ops.attempted == 0 {
        1.0
    } else {
        ops.failed as f64 / ops.attempted as f64
    };
    info.push(("samples", Value::Num(lat.n() as f64)));
    info.push(("setups", Value::Num(setup.1 as f64)));
    info.push(("busy_s", Value::Num(lat.busy_s())));
    let metrics = if args.trace {
        layers.push(("harness.traced_op_ms_p50", lat.p50()));
        layers.push(("harness.peak_rss_mb", peak_rss_mb()));
        layers.push((
            "adaptlab.scenario.build_env_ms",
            median(&tracer.durations_ms("adaptlab.scenario.build_env")),
        ));
        layers
    } else {
        let mut m = vec![
            ("setup_s", setup.0),
            ("op_ms_p50", lat.p50()),
            ("ops_per_s", lat.rate()),
            ("goal_met_frac", goal_met_frac),
        ];
        m.extend(extra);
        m.push(("op_fail_frac", op_fail_frac));
        m
    };
    Outcome {
        attempted: ops.attempted,
        failed: ops.failed,
        failures: ops.failures,
        metrics,
        info,
        probe,
    }
}

/// The converged 10k-node environment `storm` and `tick` share: one
/// controller per objective, each managing its own live cluster.
fn planner_setup(args: &RunArgs, tracer: &mut Tracer) -> Result<Setup<(Env, [Lane; 2])>, String> {
    repeat_setup(args.min_setups(), || {
        let env = Env::build(args.sizes.planner_nodes, tracer);
        let lanes = [
            Lane::converged(&env, Objective::Fairness),
            Lane::converged(&env, Objective::Cost),
        ];
        Ok((env, lanes))
    })
}

/// Output checks every planning round gets, outside the timed region.
fn check_plan(ops: &mut Ops, planned: &Planned, tracer: &mut Tracer) {
    let span = tracer.begin("harness.checks");
    let r = planned.check(tracer);
    ops.check("check_invariants", r);
    tracer.end(span);
}

fn storm(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    let sizes = args.sizes;
    let ((env, mut lanes), setup_s, setups) = planner_setup(args, tracer)?;
    let sets = failure_sets(
        args.seed,
        env.nodes() as u32,
        sizes.storm_fail_frac,
        sizes.storm_sets,
    );

    let mut ops = Ops::default();
    let mut lat = Latencies::new(2);
    let mut counts = Counts::default();
    // Digest and availability of each (failure set, lane), from its first
    // visit: every run visits all of them, so what is derived from these is
    // a function of the seed alone, however many plans the time box holds.
    let mut seen: Vec<Option<u64>> = vec![None; sets.len() * 2];
    let mut avail: Vec<Option<f64>> = vec![None; sets.len() * 2];

    let mut op = |set: usize,
                  lane_ix: usize,
                  timed: bool,
                  ops: &mut Ops,
                  lat: &mut Latencies,
                  tracer: &mut Tracer| {
        let lane = &mut lanes[lane_ix];
        ops.begin(1);
        let root = tracer.begin_op("storm.op");
        lane.mark();
        lane.fail(&sets[set], tracer);
        let t = Instant::now();
        let planned = ops.guarded("plan", || lane.plan(tracer));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(planned) = planned {
            check_plan(ops, &planned, tracer);
            let mut h = Fnv::default();
            planned.digest(&mut h);
            ops.same_digest("storm plan", &mut seen[set * 2 + lane_ix], h.finish());
            let a = lane.availability(&planned, tracer);
            avail[set * 2 + lane_ix].get_or_insert(a);
            if tracer.enabled() {
                if let Some(staged) = ops.guarded("staged pipeline", || lane.staged(tracer)) {
                    if !planned.same_actions_as_staged(&staged) {
                        ops.fail("staged pipeline composed a different ActionPlan".into());
                    }
                    let (starts, deletions, migrations, unplaced) = staged.pack_counts();
                    let planned_pods = staged.planned as f64;
                    counts.push("core.planner.app_rank_calls", staged.app_rank_calls as f64);
                    counts.push("core.ranking.items", staged.rank_items as f64);
                    counts.push("cluster.packing.planned", planned_pods);
                    counts.push("cluster.packing.starts", starts as f64);
                    counts.push("cluster.packing.deletions", deletions as f64);
                    counts.push("cluster.packing.migrations", migrations as f64);
                    counts.push("cluster.packing.unplaced", unplaced as f64);
                    counts.push(
                        "cluster.packing.inplace_frac",
                        (planned_pods - (starts + migrations + unplaced) as f64)
                            / planned_pods.max(1.0),
                    );
                }
                counts.push("core.actions.actions", planned.actions() as f64);
            }
            if timed {
                lat.push(lane_ix, ms, 1);
            }
        }
        lane.rewind(tracer);
        tracer.end(root);
    };

    // Warm-up: one untimed, untraced pair on set 0. The first timed pair
    // repeats it, so every run compares at least one digest.
    let mut off = Tracer::new(false);
    for lane in 0..2 {
        op(0, lane, false, &mut ops, &mut lat, &mut off);
    }
    let clock = Clock::start(args.seconds);
    let mut pair = 0;
    loop {
        for lane in 0..2 {
            op(pair % sets.len(), lane, true, &mut ops, &mut lat, tracer);
        }
        pair += 1;
        if clock.up() && pair >= args.min_cycles(sets.len()) {
            break;
        }
    }

    let probe_ms = lat.p50();
    let c1 = mean(&avail.iter().flatten().copied().collect::<Vec<f64>>());
    let mut digest = Fnv::default();
    for d in seen.iter().flatten() {
        digest.word(*d);
    }
    let layers = if args.trace {
        let med = |name: &str| median(&tracer.durations_ms(name));
        let plan_ms = med("core.controller.plan");
        let children = med("core.planner.app_rank")
            + med("core.ranking.global_rank")
            + med("cluster.state.clone")
            + med("cluster.packing.pack")
            + med("core.actions.diff_states");
        let mut l = vec![
            ("core.controller.plan_ms", plan_ms),
            ("core.controller.staged_ms", med("core.controller.staged")),
            ("core.controller.flatten_ms", med("core.controller.flatten")),
            ("core.controller.other_ms", plan_ms - children),
            ("core.planner.app_rank_ms", med("core.planner.app_rank")),
            (
                "core.ranking.global_rank_ms",
                med("core.ranking.global_rank"),
            ),
            (
                "core.waterfill.fair_shares_us",
                med("core.waterfill.fair_shares") * 1e3,
            ),
            ("core.actions.diff_ms", med("core.actions.diff_states")),
            ("cluster.packing.pack_ms", med("cluster.packing.pack")),
            ("cluster.state.clone_ms", med("cluster.state.clone")),
            ("harness.op_self_ms", median(&tracer.self_ms("storm.op"))),
        ];
        l.extend(state_layers(tracer));
        for name in [
            "core.planner.app_rank_calls",
            "core.ranking.items",
            "core.actions.actions",
            "cluster.packing.planned",
            "cluster.packing.starts",
            "cluster.packing.deletions",
            "cluster.packing.migrations",
            "cluster.packing.unplaced",
            "cluster.packing.inplace_frac",
        ] {
            l.push((name, counts.mean(name)));
        }
        l
    } else {
        Vec::new()
    };
    let info = vec![
        ("nodes", Value::Num(env.nodes() as f64)),
        ("pods", Value::Num(env.pods() as f64)),
        ("apps", Value::Num(env.apps() as f64)),
        ("failed_nodes", Value::Num(sets[0].len() as f64)),
        (
            "plans_digest",
            Value::Str(format!("{:016x}", digest.finish())),
        ),
    ];
    let measured = Measured {
        ops,
        lat,
        setup: (setup_s, setups),
        goal_met_frac: c1,
        extra: vec![("peak_rss_mb", peak_rss_mb())],
        layers,
        info,
        probe: Some(("exec.plan_speedup", probe_ms)),
    };
    Ok(finish(args, tracer, measured))
}

/// `cluster.state.*` and availability rows shared by storm and tick.
fn state_layers(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    vec![
        (
            "cluster.state.snapshot_restore_us",
            median(&tracer.durations_ms("cluster.state.snapshot_restore")) * 1e3,
        ),
        (
            "cluster.state.fail_node_us",
            median(&tracer.per_unit_us("cluster.state.fail_node")),
        ),
        (
            "cluster.state.restore_node_us",
            median(&tracer.per_unit_us("cluster.state.restore_node")),
        ),
        (
            "cluster.state.check_invariants_ms",
            median(&tracer.durations_ms("cluster.state.check_invariants")),
        ),
        (
            "adaptlab.metrics.availability_ms",
            median(&tracer.durations_ms("adaptlab.metrics.availability")),
        ),
    ]
}

fn tick(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    let sizes = args.sizes;
    let ((env, mut lanes), setup_s, setups) = planner_setup(args, tracer)?;
    let nodes = env.nodes() as u32;
    let max_down = (f64::from(nodes) * sizes.tick_max_down_frac).ceil() as usize;
    let mut scripts = [
        TickScript::new(args.seed, 0, nodes, max_down),
        TickScript::new(args.seed, 1, nodes, max_down),
    ];

    let mut ops = Ops::default();
    let mut lat = Latencies::new(2);
    let mut counts = Counts::default();
    // Availability and digest cover the first `fixed` timed ticks — every
    // run gets that far — so they are a function of the seed alone,
    // however many ticks the time box holds.
    let fixed = 2 * sizes.tick_check_every;
    let mut avail = Vec::new();
    let mut digest = Fnv::default();
    let mut checked = 0u64;

    let mut op =
        |index: usize, timed: bool, ops: &mut Ops, lat: &mut Latencies, tracer: &mut Tracer| {
            let lane_ix = index % 2;
            let lane = &mut lanes[lane_ix];
            ops.begin(1);
            let root = tracer.begin_op("tick.op");
            match scripts[lane_ix].next() {
                Some(TickStep::Fail(nodes)) => lane.fail(&nodes, tracer),
                Some(TickStep::Restore(nodes)) => lane.restore(&nodes, tracer),
                None => {}
            }
            let t = Instant::now();
            let planned = ops.guarded("replan", || lane.replan(tracer));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let Some(planned) = planned else {
                tracer.end(root);
                return;
            };
            // `check_invariants` costs more than the tick itself at 10k nodes
            // (~100 ms vs. ~100 ms), so only every Nth target gets it.
            let cold_check = timed && (index / 2 + 1) % sizes.tick_check_every == 0;
            if cold_check || index % sizes.tick_invariants_every == 0 {
                check_plan(ops, &planned, tracer);
            }
            let a = lane.availability(&planned, tracer);
            // Every Nth tick of a lane: the warm replan must equal a cold
            // plan of the same live state.
            if cold_check {
                let t = Instant::now();
                let cold = ops.guarded("cold plan", || lane.plan(tracer));
                let cold_ms = t.elapsed().as_secs_f64() * 1e3;
                if let Some(cold) = cold {
                    checked += 1;
                    if !cold.same_actions(&planned) {
                        ops.fail(format!("tick {index}: warm replan != cold plan"));
                    }
                    counts.push("core.replan.warm_over_cold", ms / cold_ms.max(1e-9));
                }
            }
            if timed {
                lat.push(lane_ix, ms, 1);
                if index < fixed {
                    avail.push(a);
                    planned.digest(&mut digest);
                }
                counts.push("core.replan.planner_ms", planned.planner_ms());
                counts.push("core.replan.scheduler_ms", planned.scheduler_ms());
                counts.push("core.actions.actions", planned.actions() as f64);
            }
            lane.adopt(planned);
            tracer.end(root);
        };

    let mut off = Tracer::new(false);
    for i in 0..sizes.tick_warmup {
        op(i, false, &mut ops, &mut lat, &mut off);
    }
    // Timed ticks are numbered from 0 again so the cold check lands on
    // the same ticks of each lane whatever the warm-up length.
    let clock = Clock::start(args.seconds);
    let mut index = 0;
    loop {
        op(index, true, &mut ops, &mut lat, tracer);
        index += 1;
        if clock.up() && index >= fixed {
            break;
        }
    }

    let c1 = mean(&avail);
    let extra = vec![
        ("replan_ms_p80", percentile(&lat.all(), 0.80)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let layers = if args.trace {
        let mut l = vec![
            (
                "core.controller.plan_ms",
                median(&tracer.durations_ms("core.controller.plan")),
            ),
            (
                "core.replan.planner_ms",
                counts.median("core.replan.planner_ms"),
            ),
            (
                "core.replan.scheduler_ms",
                counts.median("core.replan.scheduler_ms"),
            ),
            (
                "core.replan.warm_over_cold",
                counts.median("core.replan.warm_over_cold"),
            ),
            ("core.actions.actions", counts.mean("core.actions.actions")),
            ("harness.op_self_ms", median(&tracer.self_ms("tick.op"))),
        ];
        l.extend(state_layers(tracer));
        l
    } else {
        Vec::new()
    };
    let down: usize = scripts.iter().map(|s| s.down().len()).sum();
    let info = vec![
        ("nodes", Value::Num(env.nodes() as f64)),
        ("pods", Value::Num(env.pods() as f64)),
        ("cold_checks", Value::Num(checked as f64)),
        ("nodes_down_at_end", Value::Num(down as f64)),
        (
            "plans_digest",
            Value::Str(format!("{:016x}", digest.finish())),
        ),
    ];
    let measured = Measured {
        ops,
        lat,
        setup: (setup_s, setups),
        goal_met_frac: c1,
        extra,
        layers,
        info,
        probe: None,
    };
    Ok(finish(args, tracer, measured))
}

fn drill(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    let sizes = args.sizes;
    let horizon_ms = sizes.drill_horizon_s * 1000;
    let ((env, drill), setup_s, setups) = repeat_setup(args.min_setups(), || {
        let env = Env::build(sizes.drill_nodes, tracer);
        let scenarios = drill_scenarios(args.seed, env.nodes() as u32, horizon_ms);
        let drill = Drill::new(&env, &scenarios, horizon_ms, args.seed, tracer)?;
        Ok((env, drill))
    })?;
    let cells = drill.cells();

    let mut ops = Ops::default();
    let mut lat = Latencies::new(cells);
    let mut counts = Counts::default();
    let mut seen: Vec<Option<u64>> = vec![None; cells];
    let (mut outages, mut violations) = (0u64, 0u64);
    // C1 outage episodes under the Phoenix policies, from each cell's first
    // visit: how long the restored ones lasted, and how many never were.
    let mut c1_restores_s: Vec<f64> = Vec::new();
    let (mut c1_outages, mut c1_unrestored) = (0usize, 0usize);

    let clock = Clock::start(args.seconds);
    let mut cycles = 0;
    loop {
        for (cell, slot) in seen.iter_mut().enumerate() {
            ops.begin(1);
            let root = tracer.begin_op("drill.op");
            let t = Instant::now();
            let out = ops.guarded("simulate + score", || drill.run(cell, tracer));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.end(root);
            let Some(out) = out else { continue };
            let label = drill.label(cell);
            if !out.ordered {
                ops.fail(format!("{label}: milestones out of time order"));
            }
            let first_visit = slot.is_none();
            ops.same_digest(&label, slot, out.digest);
            lat.push(cell, ms, 1);
            outages += out.outages as u64;
            violations += out.violations as u64;
            counts.push("kubesim.run.plan_ms", out.plan_ms);
            counts.push("kubesim.run.samples", out.samples as f64);
            counts.push("kubesim.run.plans", out.plans as f64);
            counts.push("kubesim.rto.outages", out.outages as f64);
            counts.push("utility_mean", out.utility_mean);
            if drill.is_phoenix(cell) {
                if first_visit {
                    c1_outages += out.c1_outages;
                    c1_unrestored += out.c1_unrestored;
                    c1_restores_s.extend(&out.c1_restores_s);
                }
                if let Some((detect, plan, actuate)) = out.legs {
                    counts.push("kubesim.leg.detect_sim_s", detect);
                    counts.push("kubesim.leg.plan_sim_s", plan);
                    counts.push("kubesim.leg.actuate_sim_s", actuate);
                }
            }
        }
        cycles += 1;
        if clock.up() && cycles >= args.min_cycles(sizes.drill_min_cycles) {
            break;
        }
    }

    let goal = 1.0 - violations as f64 / (outages as f64).max(1.0);
    let extra = vec![
        ("c1_restore_sim_s", median(&c1_restores_s)),
        (
            "c1_unrestored_frac",
            c1_unrestored as f64 / (c1_outages as f64).max(1.0),
        ),
    ];
    let layers = if args.trace {
        let simulate = tracer.durations_ms("kubesim.run.simulate");
        let plan_ms = counts
            .0
            .get("kubesim.run.plan_ms")
            .cloned()
            .unwrap_or_default();
        // `simulate` self time: the span minus the planning it contains.
        let loop_ms: Vec<f64> = simulate.iter().zip(&plan_ms).map(|(s, p)| s - p).collect();
        vec![
            ("kubesim.run.simulate_ms", median(&simulate)),
            ("kubesim.run.plan_ms", median(&plan_ms)),
            ("kubesim.run.loop_ms", median(&loop_ms)),
            ("kubesim.run.samples", counts.mean("kubesim.run.samples")),
            ("kubesim.run.plans", counts.mean("kubesim.run.plans")),
            (
                "kubesim.rto.evaluate_rto_ms",
                median(&tracer.durations_ms("kubesim.rto.evaluate_rto")),
            ),
            (
                "kubesim.rto.evaluate_utility_ms",
                median(&tracer.durations_ms("kubesim.rto.evaluate_utility")),
            ),
            ("kubesim.rto.outages", counts.mean("kubesim.rto.outages")),
            (
                "kubesim.leg.detect_sim_s",
                counts.mean("kubesim.leg.detect_sim_s"),
            ),
            (
                "kubesim.leg.plan_sim_s",
                counts.mean("kubesim.leg.plan_sim_s"),
            ),
            (
                "kubesim.leg.actuate_sim_s",
                counts.mean("kubesim.leg.actuate_sim_s"),
            ),
            (
                "scenarios.model.compile_us",
                median(&tracer.per_unit_us("scenarios.model.compile")),
            ),
            ("harness.op_self_ms", median(&tracer.self_ms("drill.op"))),
        ]
    } else {
        Vec::new()
    };
    let mut digest = Fnv::default();
    for d in seen.iter().flatten() {
        digest.word(*d);
    }
    let info = vec![
        ("nodes", Value::Num(env.nodes() as f64)),
        ("pods", Value::Num(env.pods() as f64)),
        ("cells", Value::Num(cells as f64)),
        ("cycles", Value::Num(cycles as f64)),
        ("sim_horizon_s", Value::Num(sizes.drill_horizon_s as f64)),
        ("c1_outages", Value::Num(c1_outages as f64)),
        ("utility_mean_frac", Value::Num(counts.mean("utility_mean"))),
        (
            "traces_digest",
            Value::Str(format!("{:016x}", digest.finish())),
        ),
    ];
    let measured = Measured {
        ops,
        lat,
        setup: (setup_s, setups),
        goal_met_frac: goal,
        extra,
        layers,
        info,
        probe: None,
    };
    Ok(finish(args, tracer, measured))
}

fn evalstack(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    let sizes = args.sizes;
    let ((env, stack), setup_s, setups) = repeat_setup(args.min_setups(), || {
        let env = Env::build(sizes.eval_nodes, tracer);
        let stack = EvalStack::new(
            &env,
            sizes.eval_variants,
            sizes.eval_per_family,
            sizes.hunt_population,
            sizes.hunt_rounds,
            args.seed,
            tracer,
        )?;
        Ok((env, stack))
    })?;
    if args.trace {
        stack.fixed_costs(tracer)?;
    }
    let variants = stack.variants();
    let (cells, evals) = (stack.cells() as u64, stack.evaluations() as u64);

    let mut ops = Ops::default();
    // Class 0: ms per campaign cell; class 1: ms per hunt evaluation. The
    // variants share a class, so its median drops a batch that a burst of
    // machine noise hit and sits on the middle variant otherwise.
    let mut lat = Latencies::new(2);
    let mut seen: Vec<Option<u64>> = vec![None; 2 * variants];
    // Each variant's campaign summary, from its first visit (every full
    // run visits all of them: the quality metrics follow the seed alone).
    let mut first: Vec<Option<CampaignSummary>> = vec![None; variants];

    let clock = Clock::start(args.seconds);
    let mut cycles = 0;
    loop {
        let v = cycles % variants;
        ops.begin(cells);
        let root = tracer.begin_op("evalstack.campaign");
        let t = Instant::now();
        let run = ops.guarded("run_campaign", || stack.run_campaign(v, tracer));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(root);
        match run {
            Some(Ok(sum)) => {
                if sum.cells as u64 != cells {
                    ops.fail(format!("campaign scored {} of {cells} cells", sum.cells));
                }
                ops.same_digest("campaign scores", &mut seen[2 * v], sum.digest);
                lat.push(0, ms, cells);
                first[v].get_or_insert(sum);
            }
            Some(Err(e)) => ops.fail(format!("run_campaign: {e}")),
            None => {}
        }

        ops.begin(evals);
        let root = tracer.begin_op("evalstack.hunt");
        let t = Instant::now();
        let hunt = ops.guarded("run_hunt", || stack.run_hunt(v, tracer));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(root);
        if let Some(hunt) = hunt {
            if hunt.evaluations as u64 != evals {
                ops.fail(format!(
                    "hunt ran {} of {evals} evaluations",
                    hunt.evaluations
                ));
            }
            ops.same_digest("hunt champions", &mut seen[2 * v + 1], hunt.digest);
            lat.push(1, ms, evals);
        }

        cycles += 1;
        if clock.up() && cycles >= args.min_cycles(variants) {
            break;
        }
    }

    // Variant 0 alone (the first batch of each class): what a probe run
    // covers.
    let probe_ms = mean(
        &lat.classes
            .iter()
            .filter_map(|c| c.first().copied())
            .collect::<Vec<f64>>(),
    );
    let sum = |f: fn(&CampaignSummary) -> u64| first.iter().flatten().map(f).sum::<u64>() as f64;
    let goal = 1.0 - sum(|c| c.violations) / sum(|c| c.outages).max(1.0);
    let extra = vec![
        ("cells_per_s", lat.rate_of(0..1)),
        ("hunt_evals_per_s", lat.rate_of(1..2)),
        (
            "rto_pass_frac",
            sum(|c| c.rto_pass as u64) / sum(|c| c.cells as u64).max(1.0),
        ),
    ];
    let layers = if args.trace {
        let med = |name: &str| median(&tracer.durations_ms(name));
        vec![
            ("scenarios.campaign.run_ms", med("scenarios.campaign.run")),
            ("scenarios.campaign.cells", cells as f64),
            ("scenarios.search.hunt_ms", med("scenarios.search.hunt")),
            ("scenarios.search.evaluations", evals as f64),
            (
                "scenarios.generate.suite_ms",
                med("scenarios.generate.suite"),
            ),
            (
                "scenarios.model.json_roundtrip_ms",
                med("scenarios.model.json_roundtrip"),
            ),
            (
                "scenarios.model.compile_us",
                median(&tracer.per_unit_us("scenarios.model.compile")),
            ),
            (
                "kubesim.run.steady_compute_ms",
                med("kubesim.run.steady_compute"),
            ),
            (
                "harness.op_self_ms",
                median(&tracer.self_ms("evalstack.campaign")),
            ),
        ]
    } else {
        Vec::new()
    };
    let mut digest = Fnv::default();
    for d in seen.iter().flatten() {
        digest.word(*d);
    }
    let info = vec![
        ("nodes", Value::Num(env.nodes() as f64)),
        ("pods", Value::Num(env.pods() as f64)),
        ("variants", Value::Num(variants as f64)),
        ("campaign_cells", Value::Num(cells as f64)),
        ("hunt_evaluations", Value::Num(evals as f64)),
        ("cycles", Value::Num(cycles as f64)),
        (
            "scores_digest",
            Value::Str(format!("{:016x}", digest.finish())),
        ),
    ];
    let measured = Measured {
        ops,
        lat,
        setup: (setup_s, setups),
        goal_met_frac: goal,
        extra,
        layers,
        info,
        probe: Some(("exec.fanout_speedup", probe_ms)),
    };
    Ok(finish(args, tracer, measured))
}
