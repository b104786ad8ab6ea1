//! Adversarial scenario search: *hunt* for the failure shapes a policy
//! handles worst.
//!
//! The campaign runner ([`crate::campaign`]) measures how a policy fares
//! on a fixed suite; this module turns that measurement into an
//! objective. Starting from the seeded generator families, the search
//! mutates and crosses over [`ScenarioDoc`]s — perturbing event times,
//! deepening degrade factors, widening blast radii, boosting surge
//! magnitudes, delaying or deleting restores — and fans every
//! `(candidate, policy)` evaluation over the `phoenix-exec` pool,
//! climbing the tiered-RTO **violation severity** gradient
//! ([`phoenix_kubesim::rto::RtoReport::severity`]) per policy.
//!
//! Determinism is load-bearing: every mutation draws from a per-candidate
//! RNG stream keyed on `(seed, round, slot)`, evaluations reduce strictly
//! in candidate order, and selection breaks ties by candidate index — so
//! a hunt is byte-identical at any `PHOENIX_THREADS`, reproducible from
//! its seed alone, and extendable (more rounds never rewrite earlier
//! rounds' candidates). Champions found here feed the scenario shrinker
//! ([`crate::shrink`]) and the persisted regression suite
//! ([`crate::regression`]).

use phoenix_core::policies::ResiliencePolicy;
use phoenix_core::spec::Workload;
use phoenix_core::tags::Criticality;
use phoenix_kubesim::rto::{evaluate_rto, evaluate_utility};
use phoenix_kubesim::run::{simulate, simulate_from, SteadyState};
use phoenix_kubesim::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::campaign::CampaignConfig;
use crate::generate::{generate, Family, GeneratorConfig};
use crate::model::{EventDoc, ScenarioDoc, ScenarioError};

/// Event kinds that *undo* damage — the ones the search likes to delay or
/// delete, and the shrinker's deletion pass tries first.
pub const RESTORE_KINDS: [&str; 4] = [
    "kubelet_start",
    "capacity_restore",
    "zone_restore",
    "rack_restore",
];

fn is_none_u64(v: &Option<u64>) -> bool {
    v.is_none()
}

/// Knobs of one adversarial hunt.
#[derive(Debug, Clone, PartialEq)]
pub struct HuntConfig {
    /// Cluster size every candidate runs on.
    pub nodes: u32,
    /// Per-node CPU capacity.
    pub node_cpu: f64,
    /// Applications surge mutations may target (clamped to the workload's
    /// app count at hunt time).
    pub apps: u32,
    /// Candidates per round.
    pub population: usize,
    /// Mutation rounds after the initial generator population (round 0).
    pub rounds: u32,
    /// Parents eligible for mutation/crossover each round.
    pub elites: usize,
    /// Master seed: the whole hunt is a pure function of it.
    pub seed: u64,
}

impl Default for HuntConfig {
    fn default() -> HuntConfig {
        HuntConfig::smoke(42)
    }
}

impl HuntConfig {
    /// The CI-sized hunt: the `scenario_matrix --smoke` suite shape
    /// (8 nodes, 30 candidates = 5 per family) plus 3 mutation rounds.
    pub fn smoke(seed: u64) -> HuntConfig {
        HuntConfig {
            nodes: 8,
            node_cpu: 4.0,
            apps: 3,
            population: 30,
            rounds: 3,
            elites: 6,
            seed,
        }
    }

    /// A wider hunt for overnight runs: 16 nodes, 48 candidates,
    /// 6 rounds.
    pub fn full(seed: u64) -> HuntConfig {
        HuntConfig {
            nodes: 16,
            node_cpu: 4.0,
            apps: 3,
            population: 48,
            rounds: 6,
            elites: 8,
            seed,
        }
    }
}

/// The stable fingerprint of one `(scenario, policy)` violation — what a
/// persisted regression asserts never drifts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViolationSignature {
    /// Total tiered-RTO violation severity
    /// ([`RtoReport::severity`](phoenix_kubesim::rto::RtoReport::severity)),
    /// milliseconds. Zero = no violation.
    pub severity_ms: u64,
    /// Outage episodes after the first disruption.
    pub outages: u32,
    /// Episodes violating their tier's objective.
    pub violations: u32,
    /// Worst restored-C1 outage duration (milliseconds).
    #[serde(default, skip_serializing_if = "is_none_u64")]
    pub worst_c1_recovery_ms: Option<u64>,
}

/// Simulates `doc` under `policy` and scores the tiered-RTO outcome.
///
/// This is the hunt's objective function, the shrinker's oracle, and the
/// regression suite's replay — one definition, so the three can never
/// disagree about what "still violates" means.
///
/// `steady` is an optional precomputed [`SteadyState`] for the
/// `(workload, policy, doc shape)` triple: hunts and shrink oracles
/// evaluate thousands of same-shape candidates, so replaying one captured
/// `t = 0` plan instead of re-planning it per evaluation is the fan-out
/// hot path. The result is byte-identical either way (the simulator falls
/// back to a cold plan on any shape mismatch).
///
/// # Errors
///
/// Propagates [`ScenarioDoc::validate`]/compile errors.
pub fn signature_of(
    workload: &Workload,
    doc: &ScenarioDoc,
    policy: &dyn ResiliencePolicy,
    cfg: &CampaignConfig,
    steady: Option<&SteadyState>,
) -> Result<ViolationSignature, ScenarioError> {
    let scenario = doc.compile()?;
    let trace = simulate_from(workload, policy, &scenario, &cfg.sim, doc.horizon(), steady);
    let disruption = doc.first_disruption().unwrap_or(SimTime::ZERO);
    let report = evaluate_rto(&trace, workload, &cfg.rto, disruption);
    Ok(ViolationSignature {
        severity_ms: report.severity(doc.horizon()),
        outages: report.outages.len() as u32,
        violations: report.violations().len() as u32,
        worst_c1_recovery_ms: report
            .outages
            .iter()
            .filter(|o| o.criticality == Criticality::C1)
            .filter_map(|o| o.duration())
            .max()
            .map(SimTime::as_millis),
    })
}

/// One policy's worst-found scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Champion {
    /// Policy display name.
    pub policy: String,
    /// Round the champion was found in (0 = generator population).
    pub round: u32,
    /// Candidate slot within its round.
    pub candidate: u32,
    /// The violation it achieves.
    pub signature: ViolationSignature,
    /// Secondary-objective score, when a secondary objective broke a
    /// severity tie for this champion.
    #[serde(default, skip_serializing_if = "is_none_u64")]
    pub secondary: Option<u64>,
    /// The offending scenario itself.
    pub doc: ScenarioDoc,
}

/// Full hunt output: per-policy champions (policies with no violation
/// found have no entry) plus bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HuntOutcome {
    /// The seed the hunt is a pure function of.
    pub seed: u64,
    /// Mutation rounds run.
    pub rounds: u32,
    /// Candidates per round.
    pub population: u32,
    /// Total `(candidate, policy)` simulations.
    pub evaluations: u32,
    /// Worst scenario per policy, in roster order; only policies for
    /// which a violation was found.
    pub champions: Vec<Champion>,
}

/// A deterministic secondary objective: scores a candidate when two tie
/// on severity (higher wins). The `scenario_hunt` bin wires
/// `phoenix_chaos::scenario_chaos::scenario_audit` in here.
pub type SecondaryObjective<'a> = &'a (dyn Fn(&ScenarioDoc) -> u64 + Sync);

/// A ready-made [`SecondaryObjective`]: how much served utility the
/// scenario starves out of `workload` under `policy` — the
/// baseline-minus-worst deficit of [`evaluate_utility`], in millionths
/// of a utility unit so the hunt's integer tie-break stays exact. On
/// modal workloads this steers severity ties toward scenarios that
/// defeat degraded serving too, not just whole-pod availability.
///
/// Deliberately **not** wired in by default: the seed-pinned hunts (and
/// the persisted regressions they produced) only use it when a caller
/// passes it to [`run_hunt_with`] explicitly.
pub fn utility_deficit_objective<'a>(
    workload: &'a Workload,
    policy: &'a dyn ResiliencePolicy,
    cfg: &'a CampaignConfig,
) -> impl Fn(&ScenarioDoc) -> u64 + Sync + 'a {
    move |doc: &ScenarioDoc| {
        let Ok(scenario) = doc.compile() else {
            return 0;
        };
        let trace = simulate(workload, policy, &scenario, &cfg.sim, doc.horizon());
        let disruption = doc.first_disruption().unwrap_or(SimTime::ZERO);
        let u = evaluate_utility(&trace, disruption);
        let deficit = (u.baseline - u.worst).max(0.0);
        (deficit * 1_000_000.0).round() as u64
    }
}

/// Runs the hunt: each round's `(candidate, policy)` evaluations fan out
/// on the [exec pool](phoenix_exec::global) (`PHOENIX_THREADS`, or the
/// caller's [`with_threads`](phoenix_exec::with_threads) scope).
///
/// # Panics
///
/// Panics if a generated or mutated candidate fails to validate — that is
/// a bug in the mutation fix-up, not an input error.
pub fn run_hunt(
    workload: &Workload,
    policies: &[Box<dyn ResiliencePolicy>],
    hunt: &HuntConfig,
    eval: &CampaignConfig,
) -> HuntOutcome {
    run_hunt_with(workload, policies, hunt, eval, None)
}

/// [`run_hunt`] with an optional secondary objective for severity
/// tie-breaks.
///
/// # Panics
///
/// As [`run_hunt`].
pub fn run_hunt_with(
    workload: &Workload,
    policies: &[Box<dyn ResiliencePolicy>],
    hunt: &HuntConfig,
    eval: &CampaignConfig,
    secondary: Option<SecondaryObjective<'_>>,
) -> HuntOutcome {
    let apps = hunt.apps.min(workload.app_count() as u32).max(1);
    let population_size = hunt.population.max(1);
    let mut population = initial_population(hunt, apps, population_size);
    let mut champions: Vec<Option<Champion>> = vec![None; policies.len()];
    let mut evaluations = 0u32;

    // The whole hunt runs on one cluster shape (mutations never touch
    // `nodes`/`node_cpu`; crossover keeps the first parent's shape), so
    // capture each policy's t = 0 steady state once up front. Every
    // evaluation then replays the capture instead of re-planning the same
    // cold start; the simulator's shape check backstops exotic candidates.
    let steady: Vec<Option<SteadyState>> = match population.first().and_then(|d| d.compile().ok()) {
        Some(scenario) => policies
            .iter()
            .map(|p| {
                Some(SteadyState::compute(
                    workload,
                    p.as_ref(),
                    &scenario.node_capacities,
                ))
            })
            .collect(),
        None => policies.iter().map(|_| None).collect(),
    };

    for round in 0..=hunt.rounds {
        // Evaluate every (candidate, policy) pair on the pool; results
        // come back strictly in job order.
        let jobs: Vec<(usize, usize)> = (0..population.len())
            .flat_map(|ci| (0..policies.len()).map(move |pi| (ci, pi)))
            .collect();
        let sigs = phoenix_exec::global().par_map(&jobs, |&(ci, pi)| {
            phoenix_obs::current().incr(phoenix_obs::Counter::HuntEvaluations);
            signature_of(
                workload,
                &population[ci],
                policies[pi].as_ref(),
                eval,
                steady[pi].as_ref(),
            )
            .expect("hunt candidates always validate")
        });
        evaluations += sigs.len() as u32;

        // Champion update, in job order (candidate-major): severity
        // first, then the secondary objective, then the earlier find.
        for (&(ci, pi), sig) in jobs.iter().zip(&sigs) {
            if sig.severity_ms == 0 {
                continue;
            }
            let challenger = |sec: Option<u64>| Champion {
                policy: policies[pi].name().to_string(),
                round,
                candidate: ci as u32,
                signature: sig.clone(),
                secondary: sec,
                doc: population[ci].clone(),
            };
            match &mut champions[pi] {
                slot @ None => *slot = Some(challenger(None)),
                Some(best) => {
                    if sig.severity_ms > best.signature.severity_ms {
                        champions[pi] = Some(challenger(None));
                    } else if sig.severity_ms == best.signature.severity_ms {
                        if let Some(sec) = secondary {
                            if best.secondary.is_none() {
                                best.secondary = Some(sec(&best.doc));
                            }
                            let score = sec(&population[ci]);
                            if Some(score) > best.secondary {
                                champions[pi] = Some(challenger(Some(score)));
                            }
                        }
                    }
                }
            }
        }
        if round == hunt.rounds {
            break;
        }

        // Fitness = worst severity the candidate inflicts on any policy.
        let mut fitness = vec![0u64; population.len()];
        for (&(ci, _), sig) in jobs.iter().zip(&sigs) {
            fitness[ci] = fitness[ci].max(sig.severity_ms);
        }
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.sort_by(|&a, &b| fitness[b].cmp(&fitness[a]).then(a.cmp(&b)));
        let elites: Vec<usize> = order.into_iter().take(hunt.elites.max(1)).collect();

        // Breed the next generation: every slot gets its own RNG stream
        // keyed on (seed, round, slot).
        population = (0..population_size)
            .map(|slot| {
                let mut rng = candidate_rng(hunt.seed, round + 1, slot);
                let roll = rng.gen_range(0..10u32);
                let mut child = if roll < 6 || elites.len() < 2 {
                    let p = elites[rng.gen_range(0..elites.len())];
                    mutate(&population[p], apps, &mut rng)
                } else if roll < 8 {
                    let ai = rng.gen_range(0..elites.len());
                    let mut bi = rng.gen_range(0..elites.len());
                    if bi == ai {
                        bi = (ai + 1) % elites.len();
                    }
                    crossover(&population[elites[ai]], &population[elites[bi]], &mut rng)
                } else {
                    fresh(hunt, apps, round + 1, slot, &mut rng)
                };
                child.name = format!("hunt-r{:02}-c{slot:03}", round + 1);
                child
            })
            .collect();
    }

    HuntOutcome {
        seed: hunt.seed,
        rounds: hunt.rounds,
        population: population_size as u32,
        evaluations,
        champions: champions.into_iter().flatten().collect(),
    }
}

/// Round 0: the seeded generator families, family-major, truncated to the
/// population size.
fn initial_population(hunt: &HuntConfig, apps: u32, size: usize) -> Vec<ScenarioDoc> {
    let cfg = GeneratorConfig {
        nodes: hunt.nodes,
        node_cpu: hunt.node_cpu,
        scenarios_per_family: size.div_ceil(Family::all().len()),
        apps,
        seed: hunt.seed,
    };
    let mut docs: Vec<ScenarioDoc> = Family::all()
        .into_iter()
        .flat_map(|f| generate(f, &cfg))
        .collect();
    docs.truncate(size);
    docs
}

/// The per-candidate RNG stream: `(seed, round, slot)` fully determines
/// every draw, so hunts are reproducible and extendable.
fn candidate_rng(seed: u64, round: u32, slot: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(round).wrapping_mul(0x0000_0100_0000_01b3))
            .wrapping_add(slot as u64),
    )
}

/// Fresh blood: one generator scenario of an RNG-chosen family on a
/// round-specific seed stream.
fn fresh(hunt: &HuntConfig, apps: u32, round: u32, slot: usize, rng: &mut StdRng) -> ScenarioDoc {
    let families = Family::all();
    let family = families[rng.gen_range(0..families.len())];
    let cfg = GeneratorConfig {
        nodes: hunt.nodes,
        node_cpu: hunt.node_cpu,
        scenarios_per_family: 1,
        apps,
        seed: hunt
            .seed
            .wrapping_add(u64::from(round) * 65_537)
            .wrapping_add(slot as u64),
    };
    generate(family, &cfg)
        .into_iter()
        .next()
        .expect("one scenario per family")
}

/// Uniformly picks an event index whose kind is in `kinds`.
fn pick_kind(d: &ScenarioDoc, rng: &mut StdRng, kinds: &[&str]) -> Option<usize> {
    let hits: Vec<usize> = d
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| kinds.contains(&e.kind.as_str()))
        .map(|(i, _)| i)
        .collect();
    (!hits.is_empty()).then(|| hits[rng.gen_range(0..hits.len())])
}

/// Uniformly picks an event index that carries a node list.
fn pick_with_nodes(d: &ScenarioDoc, rng: &mut StdRng) -> Option<usize> {
    let hits: Vec<usize> = d
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| !e.nodes.is_empty())
        .map(|(i, _)| i)
        .collect();
    (!hits.is_empty()).then(|| hits[rng.gen_range(0..hits.len())])
}

/// One point mutation of `parent`: 1–2 ops from the mutation table, then
/// the validity fix-up. Falls back to the parent verbatim if fix-up ever
/// failed to restore validity (debug-asserted — it should not happen).
fn mutate(parent: &ScenarioDoc, apps: u32, rng: &mut StdRng) -> ScenarioDoc {
    let mut d = parent.clone();
    for _ in 0..rng.gen_range(1..=2u32) {
        apply_op(&mut d, apps, rng);
    }
    fixup(&mut d);
    if d.validate().is_err() {
        debug_assert!(
            false,
            "mutation fix-up left an invalid doc: {:?}",
            d.validate()
        );
        return parent.clone();
    }
    d
}

/// The mutation table (see ARCHITECTURE.md "Adversarial search &
/// shrinking").
fn apply_op(d: &mut ScenarioDoc, apps: u32, rng: &mut StdRng) {
    if d.events.is_empty() {
        let node = rng.gen_range(0..d.nodes);
        d.events.push(EventDoc {
            nodes: vec![node],
            ..EventDoc::new(d.horizon_ms / 4, "kubelet_stop")
        });
        return;
    }
    match rng.gen_range(0..8u32) {
        // Perturb an event time.
        0 => {
            let i = rng.gen_range(0..d.events.len());
            let f: f64 = rng.gen_range(0.6..1.4);
            d.events[i].at_ms = (d.events[i].at_ms as f64 * f) as u64;
        }
        // Deepen a gray degrade.
        1 => {
            if let Some(i) = pick_kind(d, rng, &["capacity_degrade"]) {
                d.events[i].factor *= rng.gen_range(0.5..0.95);
            }
        }
        // Widen a blast radius by one node.
        2 => {
            if let Some(i) = pick_with_nodes(d, rng) {
                let absent: Vec<u32> = (0..d.nodes)
                    .filter(|n| !d.events[i].nodes.contains(n))
                    .collect();
                if !absent.is_empty() {
                    let add = absent[rng.gen_range(0..absent.len())];
                    d.events[i].nodes.push(add);
                }
            }
        }
        // Narrow a blast radius by one node.
        3 => {
            if let Some(i) = pick_with_nodes(d, rng) {
                if d.events[i].nodes.len() > 1 {
                    let k = rng.gen_range(0..d.events[i].nodes.len());
                    d.events[i].nodes.remove(k);
                }
            }
        }
        // Boost or retarget a demand surge.
        4 => {
            if let Some(i) = pick_kind(d, rng, &["demand_surge"]) {
                if rng.gen_bool(0.3) {
                    d.events[i].app = rng.gen_range(0..apps);
                } else if rng.gen_bool(0.5) {
                    let boost: f64 = rng.gen_range(1.05..1.4);
                    d.events[i].demand_factor = (d.events[i].demand_factor * boost).min(8.0);
                } else {
                    d.events[i].replica_factor = (d.events[i].replica_factor + 1.0).min(4.0);
                }
            }
        }
        // Delay a restore.
        5 => {
            if let Some(i) = pick_kind(d, rng, &RESTORE_KINDS) {
                let delay = (d.horizon_ms as f64 * rng.gen_range(0.1..0.5)) as u64;
                d.events[i].at_ms = d.events[i].at_ms.saturating_add(delay);
            }
        }
        // Delete a restore outright.
        6 => {
            if let Some(i) = pick_kind(d, rng, &RESTORE_KINDS) {
                d.events.remove(i);
            }
        }
        // Duplicate a disruptive event at a fresh time.
        _ => {
            let disruptive: Vec<usize> = d
                .events
                .iter()
                .enumerate()
                .filter(|(_, e)| !RESTORE_KINDS.contains(&e.kind.as_str()))
                .map(|(i, _)| i)
                .collect();
            if !disruptive.is_empty() {
                let i = disruptive[rng.gen_range(0..disruptive.len())];
                let mut e = d.events[i].clone();
                e.at_ms = rng.gen_range(0..d.horizon_ms);
                d.events.push(e);
            }
        }
    }
}

/// Single-cut time crossover: `a`'s events before the cut, `b`'s at/after
/// it (node ids remapped into `a`'s cluster), on `a`'s cluster shape and
/// the wider of the two horizons.
fn crossover(a: &ScenarioDoc, b: &ScenarioDoc, rng: &mut StdRng) -> ScenarioDoc {
    let mut d = a.clone();
    d.horizon_ms = a.horizon_ms.max(b.horizon_ms);
    let cut = rng.gen_range(0..d.horizon_ms);
    d.events.retain(|e| e.at_ms < cut);
    for e in &b.events {
        if e.at_ms >= cut {
            let mut e = e.clone();
            for n in &mut e.nodes {
                *n %= d.nodes;
            }
            d.events.push(e);
        }
    }
    fixup(&mut d);
    if d.validate().is_err() {
        debug_assert!(
            false,
            "crossover fix-up left an invalid doc: {:?}",
            d.validate()
        );
        return a.clone();
    }
    d
}

/// Restores document validity after a mutation: clamps times inside the
/// horizon, factors into range, re-sorts/dedups node lists, drops events
/// whose node lists emptied.
fn fixup(d: &mut ScenarioDoc) {
    d.horizon_ms = d.horizon_ms.clamp(60_000, 3_600_000);
    let nodes = d.nodes;
    let horizon = d.horizon_ms;
    for e in &mut d.events {
        e.at_ms = e.at_ms.min(horizon - 1);
        e.nodes.retain(|n| *n < nodes);
        e.nodes.sort_unstable();
        e.nodes.dedup();
        match e.kind.as_str() {
            "capacity_degrade" => {
                if !e.factor.is_finite() {
                    e.factor = 0.5;
                }
                e.factor = e.factor.clamp(0.0, 1.0);
            }
            "demand_surge" => {
                if !e.demand_factor.is_finite() || e.demand_factor <= 0.0 {
                    e.demand_factor = 1.0;
                }
                if !e.replica_factor.is_finite() || e.replica_factor <= 0.0 {
                    e.replica_factor = 1.0;
                }
            }
            "flap" => {
                e.cycles = e.cycles.max(1);
                e.down_ms = e.down_ms.max(1_000);
                e.up_ms = e.up_ms.max(1_000);
            }
            "zone_outage" | "zone_restore" | "rack_outage" | "rack_restore" => {
                e.zones = e.zones.max(2);
                e.zone = e.zone.min(e.zones - 1);
            }
            _ => {}
        }
    }
    d.events.retain(|e| match e.kind.as_str() {
        "kubelet_stop" | "kubelet_start" | "capacity_degrade" | "capacity_restore" | "flap" => {
            !e.nodes.is_empty()
        }
        _ => true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::demo_workload;
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy};

    fn roster() -> Vec<Box<dyn ResiliencePolicy>> {
        vec![Box::new(PhoenixPolicy::cost()), Box::new(DefaultPolicy)]
    }

    #[test]
    fn mutations_always_yield_valid_documents() {
        let hunt = HuntConfig::smoke(7);
        let docs = initial_population(&hunt, 3, 12);
        for (i, doc) in docs.iter().enumerate() {
            let mut current = doc.clone();
            for step in 0..40u64 {
                let mut rng = StdRng::seed_from_u64(i as u64 * 1000 + step);
                current = mutate(&current, 3, &mut rng);
                current.validate().unwrap_or_else(|e| {
                    panic!("doc {i} step {step}: {e}");
                });
            }
        }
    }

    #[test]
    fn crossover_always_yields_valid_documents() {
        let hunt = HuntConfig::smoke(11);
        let docs = initial_population(&hunt, 3, 12);
        for a in 0..docs.len() {
            for b in 0..docs.len() {
                let mut rng = StdRng::seed_from_u64((a * docs.len() + b) as u64);
                let child = crossover(&docs[a], &docs[b], &mut rng);
                child.validate().unwrap_or_else(|e| {
                    panic!("crossover {a}x{b}: {e}");
                });
            }
        }
    }

    #[test]
    fn hunt_round_zero_finds_the_known_smoke_violations() {
        // Round 0 is exactly the scenario_matrix --smoke suite, where
        // PhoenixCost and Default are known to violate; one mutation
        // round can only push severity up.
        let hunt = HuntConfig {
            rounds: 1,
            ..HuntConfig::smoke(42)
        };
        let out = run_hunt(
            &demo_workload(3),
            &roster(),
            &hunt,
            &CampaignConfig::default(),
        );
        assert_eq!(out.evaluations, 2 * 30 * 2);
        assert!(!out.champions.is_empty(), "no violations found at all");
        for c in &out.champions {
            assert!(c.signature.severity_ms > 0);
            assert!(c.signature.violations > 0);
            c.doc.validate().unwrap();
        }
        let cost = out.champions.iter().find(|c| c.policy == "PhoenixCost");
        assert!(
            cost.is_some(),
            "known PhoenixCost violation not rediscovered"
        );
    }

    #[test]
    fn hunts_are_pure_functions_of_their_seed() {
        let hunt = HuntConfig {
            population: 12,
            rounds: 2,
            nodes: 6,
            ..HuntConfig::smoke(9)
        };
        let w = demo_workload(3);
        let cfg = CampaignConfig::default();
        let a = run_hunt(&w, &roster(), &hunt, &cfg);
        let b = run_hunt(&w, &roster(), &hunt, &cfg);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap()
        );
        // A different seed genuinely moves the hunt.
        let c = run_hunt(
            &w,
            &roster(),
            &HuntConfig {
                seed: 10,
                ..hunt.clone()
            },
            &cfg,
        );
        assert_ne!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&c).unwrap()
        );
    }

    #[test]
    fn utility_deficit_objective_scores_crunch_above_calm() {
        use crate::campaign::demo_workload_modal;
        let w = demo_workload_modal(3);
        let policy = PhoenixPolicy::fair();
        let cfg = CampaignConfig::default();
        let objective = utility_deficit_objective(&w, &policy, &cfg);
        let hunt = HuntConfig::smoke(42);
        let docs = initial_population(&hunt, 3, 30);
        // Deterministic: same doc, same score.
        let scores: Vec<u64> = docs.iter().map(&objective).collect();
        let again: Vec<u64> = docs.iter().map(&objective).collect();
        assert_eq!(scores, again);
        // A calm scenario (no events) starves nothing.
        let mut calm = docs[0].clone();
        calm.events.clear();
        assert_eq!(objective(&calm), 0);
        // At least one generator scenario drives utility below baseline.
        assert!(
            scores.iter().any(|&s| s > 0),
            "no generator scenario produced a utility deficit: {scores:?}"
        );
    }

    #[test]
    fn secondary_objective_breaks_severity_ties_deterministically() {
        // A constant-severity oracle cannot exist in the real sim, so
        // exercise the tie-break arm directly: two identical candidates
        // tie, and the secondary objective must pick the *earlier* one
        // unless the later strictly wins.
        let hunt = HuntConfig {
            population: 6,
            rounds: 0,
            ..HuntConfig::smoke(42)
        };
        let w = demo_workload(3);
        let cfg = CampaignConfig::default();
        // Secondary that prefers later event counts: deterministic and
        // doc-derived, so the run stays reproducible.
        let secondary = |d: &ScenarioDoc| d.events.len() as u64;
        let a = run_hunt_with(&w, &roster(), &hunt, &cfg, Some(&secondary));
        let b = run_hunt_with(&w, &roster(), &hunt, &cfg, Some(&secondary));
        assert_eq!(a, b);
    }
}
