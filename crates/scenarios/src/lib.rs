//! The scenario engine: a declarative failure-scenario DSL, seeded
//! generators for whole scenario *families*, and a parallel campaign
//! runner — the subsystem that turns "as many scenarios as you can
//! imagine" into a first-class, generatable, persistable, mass-runnable
//! artifact.
//!
//! Three layers:
//!
//! 1. **Vocabulary** ([`model`]) — a [`model::ScenarioDoc`] describes a
//!    cluster shape plus a timed script over the full kubesim event
//!    vocabulary (kubelet stop/start, gray [`CapacityDegrade`], seeded
//!    [`Flap`], mid-run [`DemandSurge`], correlated zone/rack outages),
//!    and compiles down to a `phoenix_kubesim::scenario::Scenario`. Docs
//!    round-trip **exactly** through JSON, so suites can be saved,
//!    diffed, and replayed.
//! 2. **Generation** ([`generate`]) — seeded deterministic generators
//!    expand a [`generate::GeneratorConfig`] into scenario families
//!    (cascade, rolling-maintenance, correlated-blast-radius,
//!    surge-under-crunch, flap-storm, gray-aging); the same seed always
//!    yields byte-identical suites.
//! 3. **Campaign** ([`campaign`]) — fans a suite over the
//!    `phoenix-exec` pool, simulating every `(scenario, policy)` pair
//!    and scoring it against tiered RTOs into per-family scorecards,
//!    byte-identical at any `PHOENIX_THREADS`.
//!
//! On top of those sit the adversarial layers:
//!
//! 4. **Search** ([`search`]) — a seeded evolutionary hunt that mutates
//!    and crosses over scenario docs to *maximize* tiered-RTO violation
//!    severity per policy, fanned over the same pool with per-candidate
//!    RNG streams (byte-identical at any thread count).
//! 5. **Shrink** ([`shrink`]) — greedy, deterministic minimal-repro
//!    reduction of any violating doc, re-checking the violation after
//!    every cut.
//! 6. **Regression** ([`regression`]) — persisted minimal repros under
//!    `crates/scenarios/regressions/`, replayed with pinned violation
//!    signatures by `tests/regression_suite.rs` so every hunt
//!    permanently grows tier-1 coverage.
//!
//! [`CapacityDegrade`]: phoenix_kubesim::scenario::ScenarioKind::CapacityDegrade
//! [`Flap`]: phoenix_kubesim::scenario::ScenarioKind::Flap
//! [`DemandSurge`]: phoenix_kubesim::scenario::ScenarioKind::DemandSurge
//!
//! # Examples
//!
//! ```
//! use phoenix_core::policies::{PhoenixPolicy, ResiliencePolicy};
//! use phoenix_scenarios::campaign::{demo_workload, run_campaign, CampaignConfig};
//! use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};
//! use phoenix_scenarios::model;
//!
//! let cfg = GeneratorConfig {
//!     nodes: 6,
//!     scenarios_per_family: 1,
//!     ..GeneratorConfig::default()
//! };
//! let suite = generate_suite(&cfg);
//!
//! // Suites persist as JSON and round-trip exactly.
//! let json = model::to_json(&suite)?;
//! assert_eq!(model::from_json(&json)?, suite);
//!
//! // Run the campaign and read the per-family scorecards.
//! let policies: Vec<Box<dyn ResiliencePolicy>> = vec![Box::new(PhoenixPolicy::fair())];
//! let outcome = run_campaign(
//!     &demo_workload(2),
//!     &suite,
//!     &policies,
//!     &CampaignConfig,
//! )?;
//! assert_eq!(outcome.scorecards.len(), 6);
//! # Ok::<(), phoenix_scenarios::model::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod generate;
pub mod model;
pub mod regression;
pub mod search;
pub mod shrink;
