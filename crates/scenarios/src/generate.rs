//! Seeded, deterministic generators for scenario *families*.
//!
//! A family is a shape of trouble — a cascading failure, a rolling
//! maintenance window, a correlated rack/zone blast radius, a demand
//! surge landing in the middle of a capacity crunch, a flap storm, or
//! creeping software aging. Each generator expands a
//! [`GeneratorConfig`] + seed into concrete [`ScenarioDoc`]s whose every
//! parameter came out of one seeded stream: the same seed always yields
//! byte-identical suites, so a suite can be regenerated, diffed, and
//! replayed instead of stored — and stored suites are still plain JSON
//! ([`crate::model::to_json`]).

use phoenix_kubesim::time::SimTime;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::model::{EventDoc, ScenarioDoc, SuiteDoc};

/// The built-in scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Staggered waves of node failures, each wave widening the hole,
    /// with late partial restores.
    Cascade,
    /// Nodes drained and rebooted in id order, one small group at a time
    /// — the planned-churn case where nothing should ever violate an RTO.
    RollingMaintenance,
    /// Whole zones or racks lost at once (PDU/switch blast radius),
    /// restored as a unit.
    CorrelatedBlastRadius,
    /// A demand surge landing while a chunk of the cluster is already
    /// down — cooperative degradation's hardest case.
    SurgeUnderCrunch,
    /// Groups of nodes flapping with seeded jitter.
    FlapStorm,
    /// Software aging: effective capacity creeping down in steps across a
    /// growing node subset, then healed.
    GrayAging,
}

impl Family {
    /// Every built-in family, in generation order.
    pub fn all() -> [Family; 6] {
        [
            Family::Cascade,
            Family::RollingMaintenance,
            Family::CorrelatedBlastRadius,
            Family::SurgeUnderCrunch,
            Family::FlapStorm,
            Family::GrayAging,
        ]
    }

    /// Stable slug used in docs, scorecards, and JSON.
    pub fn slug(self) -> &'static str {
        match self {
            Family::Cascade => "cascade",
            Family::RollingMaintenance => "rolling-maintenance",
            Family::CorrelatedBlastRadius => "correlated-blast-radius",
            Family::SurgeUnderCrunch => "surge-under-crunch",
            Family::FlapStorm => "flap-storm",
            Family::GrayAging => "gray-aging",
        }
    }
}

/// Knobs shared by every generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Cluster size.
    pub nodes: u32,
    /// Per-node CPU capacity.
    pub node_cpu: f64,
    /// Scenarios generated per family.
    pub scenarios_per_family: usize,
    /// Number of applications surge events may target.
    pub apps: u32,
    /// Master seed; every scenario derives its own stream from it.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> GeneratorConfig {
        GeneratorConfig {
            nodes: 10,
            node_cpu: 8.0,
            scenarios_per_family: 5,
            apps: 3,
            seed: 42,
        }
    }
}

/// Per-scenario RNG: one stream per `(seed, family, index)`, so adding a
/// family or changing one scenario count never shifts another scenario's
/// bytes.
fn scenario_rng(cfg: &GeneratorConfig, family: Family, index: usize) -> StdRng {
    let fam = Family::all()
        .iter()
        .position(|&f| f == family)
        .expect("family is built in") as u64;
    StdRng::seed_from_u64(
        cfg.seed
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(fam * 10_007)
            .wrapping_add(index as u64),
    )
}

/// `count` distinct random node ids (ascending), like a failure draw.
fn pick_nodes(rng: &mut StdRng, nodes: u32, count: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..nodes).collect();
    ids.shuffle(rng);
    ids.truncate(count.clamp(1, nodes as usize));
    ids.sort_unstable();
    ids
}

fn doc(cfg: &GeneratorConfig, family: Family, index: usize, horizon: SimTime) -> ScenarioDoc {
    ScenarioDoc {
        name: format!("{}-{index:02}", family.slug()),
        family: family.slug().to_string(),
        nodes: cfg.nodes,
        node_cpu: cfg.node_cpu,
        node_mem: 0.0,
        horizon_ms: horizon.as_millis(),
        events: Vec::new(),
    }
}

/// Generates one family's scenarios.
pub fn generate(family: Family, cfg: &GeneratorConfig) -> Vec<ScenarioDoc> {
    (0..cfg.scenarios_per_family)
        .map(|i| {
            let mut rng = scenario_rng(cfg, family, i);
            match family {
                Family::Cascade => cascade(cfg, family, i, &mut rng),
                Family::RollingMaintenance => rolling(cfg, family, i, &mut rng),
                Family::CorrelatedBlastRadius => blast_radius(cfg, family, i, &mut rng),
                Family::SurgeUnderCrunch => surge_under_crunch(cfg, family, i, &mut rng),
                Family::FlapStorm => flap_storm(cfg, family, i, &mut rng),
                Family::GrayAging => gray_aging(cfg, family, i, &mut rng),
            }
        })
        .collect()
}

/// Generates the full suite: every family, `scenarios_per_family` each,
/// family-major in [`Family::all`] order.
pub fn generate_suite(cfg: &GeneratorConfig) -> SuiteDoc {
    SuiteDoc {
        version: SuiteDoc::VERSION,
        seed: cfg.seed,
        scenarios: Family::all()
            .into_iter()
            .flat_map(|f| generate(f, cfg))
            .collect(),
    }
}

fn cascade(cfg: &GeneratorConfig, family: Family, index: usize, rng: &mut StdRng) -> ScenarioDoc {
    let mut d = doc(cfg, family, index, SimTime::from_secs(2400));
    let waves = rng.gen_range(2..=3u32);
    let mut t = rng.gen_range(120..=240u64);
    let mut all_victims: Vec<u32> = Vec::new();
    for _ in 0..waves {
        let width = rng.gen_range(1..=((cfg.nodes as usize) / 3).max(1));
        let fresh: Vec<u32> = pick_nodes(rng, cfg.nodes, width)
            .into_iter()
            .filter(|n| !all_victims.contains(n))
            .collect();
        if fresh.is_empty() {
            continue;
        }
        d.events.push(EventDoc {
            nodes: fresh.clone(),
            ..EventDoc::new(t * 1000, "kubelet_stop")
        });
        all_victims.extend(fresh);
        t += rng.gen_range(90..=240u64);
    }
    // Late restore of the whole hole.
    let restore = t + rng.gen_range(300..=600u64);
    all_victims.sort_unstable();
    d.events.push(EventDoc {
        nodes: all_victims,
        ..EventDoc::new(restore * 1000, "kubelet_start")
    });
    d
}

fn rolling(cfg: &GeneratorConfig, family: Family, index: usize, rng: &mut StdRng) -> ScenarioDoc {
    let group = rng.gen_range(1..=2u32).min(cfg.nodes);
    let dwell = rng.gen_range(90..=180u64);
    let step = dwell + rng.gen_range(60..=120u64);
    let mut t = rng.gen_range(120..=240u64);
    let mut events = Vec::new();
    let mut node = 0u32;
    while node < cfg.nodes {
        let batch: Vec<u32> = (node..(node + group).min(cfg.nodes)).collect();
        events.push(EventDoc {
            nodes: batch.clone(),
            ..EventDoc::new(t * 1000, "kubelet_stop")
        });
        events.push(EventDoc {
            nodes: batch,
            ..EventDoc::new((t + dwell) * 1000, "kubelet_start")
        });
        t += step;
        node += group;
    }
    let mut d = doc(
        cfg,
        family,
        index,
        SimTime::from_secs(t + 600), // cover the last restart + settling
    );
    d.events = events;
    d
}

fn blast_radius(
    cfg: &GeneratorConfig,
    family: Family,
    index: usize,
    rng: &mut StdRng,
) -> ScenarioDoc {
    let mut d = doc(cfg, family, index, SimTime::from_secs(2400));
    let zones = rng.gen_range(2..=4u32).min(cfg.nodes.max(2));
    let zone = rng.gen_range(0..zones);
    // Even scenarios stripe (zone/PDU), odd ones take contiguous racks
    // (top-of-rack switch).
    let (outage, restore) = if index.is_multiple_of(2) {
        ("zone_outage", "zone_restore")
    } else {
        ("rack_outage", "rack_restore")
    };
    let t = rng.gen_range(180..=360u64);
    let heal = t + rng.gen_range(600..=900u64);
    d.events.push(EventDoc {
        zones,
        zone,
        ..EventDoc::new(t * 1000, outage)
    });
    // Sometimes a second, overlapping blast before the first heals.
    if rng.gen_bool(0.5) && zones > 2 {
        let second = (zone + 1) % zones;
        let t2 = t + rng.gen_range(120..=360u64);
        d.events.push(EventDoc {
            zones,
            zone: second,
            ..EventDoc::new(t2 * 1000, outage)
        });
        d.events.push(EventDoc {
            zones,
            zone: second,
            ..EventDoc::new((heal + 120) * 1000, restore)
        });
    }
    d.events.push(EventDoc {
        zones,
        zone,
        ..EventDoc::new(heal * 1000, restore)
    });
    d
}

fn surge_under_crunch(
    cfg: &GeneratorConfig,
    family: Family,
    index: usize,
    rng: &mut StdRng,
) -> ScenarioDoc {
    let mut d = doc(cfg, family, index, SimTime::from_secs(2400));
    // The crunch: lose 25–50 % of the nodes…
    let frac: f64 = rng.gen_range(0.25..=0.5);
    let width = ((cfg.nodes as f64) * frac).round() as usize;
    let victims = pick_nodes(rng, cfg.nodes, width.max(1));
    let t = rng.gen_range(180..=300u64);
    d.events.push(EventDoc {
        nodes: victims.clone(),
        ..EventDoc::new(t * 1000, "kubelet_stop")
    });
    // …then the surge lands while the hole is open.
    let surge_at = t + rng.gen_range(60..=240u64);
    d.events.push(EventDoc {
        app: rng.gen_range(0..cfg.apps.max(1)),
        demand_factor: rng.gen_range(1.2..=1.8),
        replica_factor: if rng.gen_bool(0.5) { 2.0 } else { 1.0 },
        ..EventDoc::new(surge_at * 1000, "demand_surge")
    });
    let heal = surge_at + rng.gen_range(600..=900u64);
    d.events.push(EventDoc {
        nodes: victims,
        ..EventDoc::new(heal * 1000, "kubelet_start")
    });
    d
}

fn flap_storm(
    cfg: &GeneratorConfig,
    family: Family,
    index: usize,
    rng: &mut StdRng,
) -> ScenarioDoc {
    let mut d = doc(cfg, family, index, SimTime::from_secs(3000));
    let groups = rng.gen_range(1..=2usize);
    for _ in 0..groups {
        let width = rng.gen_range(1..=((cfg.nodes as usize) / 4).max(1));
        let nodes = pick_nodes(rng, cfg.nodes, width);
        d.events.push(EventDoc {
            nodes,
            down_ms: rng.gen_range(60..=180u64) * 1000,
            up_ms: rng.gen_range(120..=300u64) * 1000,
            cycles: rng.gen_range(2..=4u32),
            jitter_ms: rng.gen_range(0..=30u64) * 1000,
            ..EventDoc::new(rng.gen_range(120..=480u64) * 1000, "flap")
        });
    }
    d
}

fn gray_aging(
    cfg: &GeneratorConfig,
    family: Family,
    index: usize,
    rng: &mut StdRng,
) -> ScenarioDoc {
    let mut d = doc(cfg, family, index, SimTime::from_secs(2700));
    let width = rng.gen_range(1..=((cfg.nodes as usize) / 2).max(1));
    let aging = pick_nodes(rng, cfg.nodes, width);
    let mut t = rng.gen_range(180..=300u64);
    let mut factor = 1.0f64;
    let steps = rng.gen_range(2..=3u32);
    for _ in 0..steps {
        factor *= rng.gen_range(0.6..=0.8);
        d.events.push(EventDoc {
            nodes: aging.clone(),
            // Two-decimal factors keep the JSON human-diffable.
            factor: (factor * 100.0).round() / 100.0,
            ..EventDoc::new(t * 1000, "capacity_degrade")
        });
        t += rng.gen_range(180..=360u64);
    }
    // The reboot that heals the aging.
    let heal = t + rng.gen_range(240..=480u64);
    d.events.push(EventDoc {
        nodes: aging,
        ..EventDoc::new(heal * 1000, "capacity_restore")
    });
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::to_json;

    #[test]
    fn suites_are_deterministic_under_seed() {
        let cfg = GeneratorConfig::default();
        let a = generate_suite(&cfg);
        let b = generate_suite(&cfg);
        assert_eq!(a, b);
        assert_eq!(to_json(&a).unwrap(), to_json(&b).unwrap());
        // A different seed genuinely moves the suite.
        let c = generate_suite(&GeneratorConfig {
            seed: 43,
            ..cfg.clone()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn every_generated_scenario_validates_and_compiles() {
        for seed in [1u64, 7, 42] {
            let cfg = GeneratorConfig {
                seed,
                scenarios_per_family: 4,
                ..GeneratorConfig::default()
            };
            let suite = generate_suite(&cfg);
            assert_eq!(suite.scenarios.len(), 6 * 4);
            suite.validate().expect("generated suite validates");
            for s in &suite.scenarios {
                s.compile().expect("generated scenario compiles");
                assert!(s.first_disruption().is_some(), "{} never disrupts", s.name);
                assert!(
                    s.events.iter().all(|e| e.at_ms < s.horizon_ms),
                    "{}: event beyond horizon",
                    s.name
                );
            }
        }
    }

    #[test]
    fn family_slugs_cover_all_scenarios() {
        let suite = generate_suite(&GeneratorConfig::default());
        for f in Family::all() {
            assert_eq!(
                suite
                    .scenarios
                    .iter()
                    .filter(|s| s.family == f.slug())
                    .count(),
                5,
                "{}",
                f.slug()
            );
        }
    }

    #[test]
    fn scenario_streams_are_independent_of_sibling_count() {
        // Scenario i's bytes depend only on (seed, family, i): generating
        // more scenarios per family extends the suite without rewriting
        // the prefix (what makes saved suites diffable across growth).
        let small = generate(Family::Cascade, &GeneratorConfig::default());
        let big = generate(
            Family::Cascade,
            &GeneratorConfig {
                scenarios_per_family: 8,
                ..GeneratorConfig::default()
            },
        );
        assert_eq!(&big[..small.len()], &small[..]);
    }
}
