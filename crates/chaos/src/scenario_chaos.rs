//! Scenario-suite chaos: pre-production audits over *generated* failure
//! families instead of a single hand-picked node kill.
//!
//! [`crate::node_chaos`] sweeps one failure shape at increasing degrees;
//! this module replays a whole `phoenix-scenarios` suite (cascades,
//! rolling maintenance, blast radii, surges, flap storms, gray aging)
//! through the simulated control plane and reports, per family, whether
//! the application's critical request survived and how fast it came back
//! — the "different degrees of failure" report of §5 extended to
//! different *shapes* of failure.

use phoenix_apps::AppModel;
use phoenix_core::policies::ResiliencePolicy;
use phoenix_core::spec::{ServiceId, Workload};
use phoenix_kubesim::run::{simulate, SimConfig};
use phoenix_kubesim::time::SimTime;
use phoenix_scenarios::model::{ScenarioError, SuiteDoc};

/// Per-family resilience summary over one suite.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyResilience {
    /// Family slug.
    pub family: String,
    /// Scenarios simulated.
    pub scenarios: u32,
    /// Scenarios in which the critical request is serving at the horizon
    /// (it recovered from every wave, or never stopped).
    pub critical_recovered: u32,
    /// Worst time from first disruption until the critical request came
    /// back **for good** (stayed up through the horizon), among the
    /// scenarios that went down and recovered.
    pub worst_restore: Option<SimTime>,
    /// Mean harvest (Σ served·utility / Σ offered) at the final sample.
    pub mean_settled_utility: f64,
}

/// Replays `suite` for `model` under `policy`. Scenarios fan out
/// independently on the [exec pool](phoenix_exec::global) and fold per
/// family strictly in suite order, so the report is byte-identical for
/// every thread count.
///
/// # Errors
///
/// Propagates suite validation/compilation errors before simulating.
pub fn scenario_audit(
    model: &AppModel,
    policy: &dyn ResiliencePolicy,
    suite: &SuiteDoc,
    sim: &SimConfig,
) -> Result<Vec<FamilyResilience>, ScenarioError> {
    if suite.version != SuiteDoc::VERSION {
        return Err(ScenarioError::Version(suite.version));
    }
    // One app under test: surges must target app 0 or the suite is a
    // mismatch for this audit.
    suite.check_surge_targets(1)?;
    // `compile` validates each scenario — no separate validation pass.
    let compiled: Vec<_> = suite
        .scenarios
        .iter()
        .map(|s| s.compile().map(|c| (s, c)))
        .collect::<Result<_, _>>()?;
    let workload = Workload::new(vec![model.spec.clone()]);

    let runs = phoenix_exec::global().par_map(&compiled, |(doc, scenario)| {
        let trace = simulate(&workload, policy, scenario, sim, doc.horizon());
        let disruption = doc.first_disruption().unwrap_or(SimTime::ZERO);
        let up_at = |t: SimTime, s: ServiceId| trace.service_up(&workload, 0, s.index() as u32, t);
        // "Recovered" means recovered *for good*: walk the post-disruption
        // samples tracking the last instant the critical goal was unmet —
        // a first wave that misses the critical nodes must not mask a
        // later wave that takes them down through the horizon.
        // The goal is evaluated once per run of equal serving sets.
        let mut last_down: Option<SimTime> = None;
        let mut final_up = true;
        for run in trace.serving_runs(disruption) {
            final_up = model.critical_goal_met(|s| up_at(run[0].at, s));
            if !final_up {
                last_down = run.last().map(|smp| smp.at);
            }
        }
        // Still down at the horizon: `None`. Never down: zero. Otherwise up
        // for good from the sample after the last down instant.
        let restore = final_up.then(|| {
            last_down.map_or(SimTime::ZERO, |t| {
                (t + sim.sample_interval).saturating_sub(disruption)
            })
        });
        let settled = trace
            .samples
            .last()
            .map(|smp| crate::utility_score(model, |s| up_at(smp.at, s)))
            .unwrap_or(0.0);
        (doc.family.clone(), restore, settled)
    });

    // Family fold, strictly in suite order.
    let mut out: Vec<FamilyResilience> = Vec::new();
    for (family, restore, settled) in runs {
        let card = match out.iter_mut().find(|c| c.family == family) {
            Some(c) => c,
            None => {
                out.push(FamilyResilience {
                    family,
                    scenarios: 0,
                    critical_recovered: 0,
                    worst_restore: None,
                    mean_settled_utility: 0.0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        card.scenarios += 1;
        if restore.is_some() {
            card.critical_recovered += 1;
            card.worst_restore = card.worst_restore.max(restore);
        }
        card.mean_settled_utility += settled;
    }
    for c in &mut out {
        c.mean_settled_utility /= f64::from(c.scenarios.max(1));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_apps::overleaf::{overleaf, OverleafVariant};
    use phoenix_core::policies::PhoenixPolicy;
    use phoenix_exec::with_threads;
    use phoenix_scenarios::generate::{generate_suite, Family, GeneratorConfig};

    fn suite() -> SuiteDoc {
        generate_suite(&GeneratorConfig {
            nodes: 6,
            node_cpu: 8.0,
            scenarios_per_family: 2,
            apps: 1,
            seed: 5,
        })
    }

    #[test]
    fn audit_covers_every_family_and_recovers_critical() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let report =
            scenario_audit(&m, &PhoenixPolicy::fair(), &suite(), &SimConfig::default()).unwrap();
        assert_eq!(report.len(), Family::all().len());
        for card in &report {
            assert_eq!(card.scenarios, 2, "{}", card.family);
            assert!(
                card.mean_settled_utility > 0.0,
                "{}: no harvest at all",
                card.family
            );
            // Phoenix brings the critical request back in every generated
            // scenario of this small suite.
            assert_eq!(
                card.critical_recovered, card.scenarios,
                "{}: critical request lost",
                card.family
            );
        }
    }

    #[test]
    fn audit_is_thread_count_invariant() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let s = suite();
        let sim = SimConfig::default();
        let run = |threads| {
            with_threads(threads, || {
                scenario_audit(&m, &PhoenixPolicy::fair(), &s, &sim)
            })
        };
        let (seq, par) = (run(1).unwrap(), run(4).unwrap());
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.family, b.family);
            assert_eq!(a.critical_recovered, b.critical_recovered);
            assert_eq!(a.worst_restore, b.worst_restore);
            assert_eq!(
                a.mean_settled_utility.to_bits(),
                b.mean_settled_utility.to_bits()
            );
        }
    }

    #[test]
    fn invalid_suite_rejected() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let mut s = suite();
        s.scenarios[0].nodes = 0;
        assert!(scenario_audit(&m, &PhoenixPolicy::fair(), &s, &SimConfig::default()).is_err());
    }
}
