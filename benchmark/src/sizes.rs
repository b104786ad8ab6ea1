//! Every size the workloads use, in one place. `FULL` is what
//! `BENCHMARK.json` measures; `SMOKE` is the < 15 s shape `--smoke` and
//! `cargo test` run.

/// Seed of the environment generator (cluster + AdaptLab workload). Fixed
/// — `--seed` draws the injected failures, not the system under test — so
/// two runs with different seeds time the same cluster.
pub const ENV_SEED: u64 = 11;

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Nodes of the `storm-10k` / `tick-10k` environment.
    pub planner_nodes: usize,
    /// Share of nodes each storm failure set kills.
    pub storm_fail_frac: f64,
    /// Failure sets a storm run cycles through.
    pub storm_sets: usize,
    /// Untimed warm-up ticks before the tick loop is timed.
    pub tick_warmup: usize,
    /// Share of nodes the tick script keeps down at most.
    pub tick_max_down_frac: f64,
    /// Every this-many ticks of a lane the warm replan is checked against
    /// a cold plan.
    pub tick_check_every: usize,
    /// Every this-many ticks the target goes through `check_invariants`.
    pub tick_invariants_every: usize,
    /// Nodes of the drill environment.
    pub drill_nodes: usize,
    /// Simulated seconds per drill simulation (1 s sampling).
    pub drill_horizon_s: u64,
    /// Nodes of the evalstack environment.
    pub eval_nodes: usize,
    /// Suites (and hunts) one evalstack run cycles through, each drawn from
    /// its own sub-seed.
    pub eval_variants: usize,
    /// Scenarios per family in the campaign suite (× 6 families × 3 policies cells).
    pub eval_per_family: usize,
    /// Hunt population; evaluations = population × (rounds + 1) × 3 policies.
    pub hunt_population: usize,
    /// Hunt mutation rounds after the generator round.
    pub hunt_rounds: u32,
    /// Set-ups per run at least (the median is `setup_s`).
    pub min_setups: usize,
    /// Whole 12-cell cycles the drill runs at least, so every cell repeats
    /// and its digest can be compared.
    pub drill_min_cycles: usize,
}

/// The measured shape. The time cap (92 driver runs in 3420 s, so ~30 s a
/// run with its set-ups) sets it: `storm` keeps the 10k-node / 852k-pod
/// cluster and therefore yields ~8 cold plans per objective in a run; the
/// drill runs at 64 nodes and 900 simulated seconds because one 200-node /
/// 1800 s simulation plus its `evaluate_rto` costs ~9 host seconds; a
/// campaign is 18 cells and a hunt 18 evaluations (~2 s each at 2 threads)
/// so that a run visits all three variants and revisits one.
pub const FULL: Sizes = Sizes {
    planner_nodes: 10_000,
    storm_fail_frac: 0.30,
    storm_sets: 4,
    tick_warmup: 10,
    tick_max_down_frac: 0.02,
    tick_check_every: 25,
    tick_invariants_every: 5,
    drill_nodes: 64,
    drill_horizon_s: 900,
    eval_nodes: 16,
    eval_variants: 3,
    eval_per_family: 1,
    hunt_population: 3,
    hunt_rounds: 1,
    min_setups: 3,
    drill_min_cycles: 2,
};

/// The smoke shape: same code paths, toy sizes.
pub const SMOKE: Sizes = Sizes {
    planner_nodes: 100,
    storm_fail_frac: 0.30,
    storm_sets: 2,
    tick_warmup: 4,
    tick_max_down_frac: 0.05,
    tick_check_every: 10,
    tick_invariants_every: 1,
    drill_nodes: 20,
    drill_horizon_s: 400,
    eval_nodes: 8,
    eval_variants: 2,
    eval_per_family: 1,
    hunt_population: 3,
    hunt_rounds: 1,
    min_setups: 2,
    drill_min_cycles: 2,
};

/// Measured seconds of one run: `run_seconds` in `BENCHMARK.json` and the
/// default of `--seconds`, for a single workload and for the suite alike.
pub const RUN_SECONDS: f64 = 15.0;

/// Measured seconds per run under `--smoke`.
pub const SMOKE_SECONDS: f64 = 1.0;
