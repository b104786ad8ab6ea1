//! Request-level load shedding and QoS degradation (§7, *Other
//! degradation modes*).
//!
//! Diagonal scaling turns whole containers off; the paper notes it is
//! orthogonal to the degradation modes applications already run
//! *inside* a container — dropping a fraction of the load (load shedding
//! [43, 78–82]) and serving requests in a cheaper mode (brownout / QoS
//! dimming [33, 71]) — and that Phoenix "can be combined with these
//! complementary resilience solutions". This module provides that
//! combination for [`AppModel`]s:
//!
//! * an **overload scenario** fixes the offered load and the serving
//!   capacity the app's *activated* containers provide — diagonal scaling
//!   enters through the `service_up` predicate, exactly as in
//!   [`AppModel::outcomes`];
//! * a [`SheddingPolicy`] decides which requests are admitted when offered
//!   load exceeds capacity. `None` reproduces congestion collapse (goodput
//!   falls as overload grows — the failure mode shedding exists to
//!   prevent); `Uniform` drops all request types proportionally;
//!   `PriorityAware` fills capacity by utility-per-request, so the
//!   critical request survives 2× overload untouched;
//! * a [`QosPolicy`] optionally dims requests under overload: each served
//!   request costs less and harvests less, trading per-request quality for
//!   admitted volume — worth it whenever `utility_factor > cost_factor`.
//!
//! The ablation bench `ablation_degradation_modes` compares diagonal-only,
//! shedding-only, and combined operation on the CloudLab app models.

use phoenix_core::spec::ServiceId;

use crate::catalog::AppModel;

/// Admission-control policy under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SheddingPolicy {
    /// No admission control: every request enters and competes for
    /// capacity. Past saturation, goodput *decays* with offered load
    /// (retries, queue bloat): `goodput = capacity²/demand` — the classic
    /// congestion-collapse model from the overload literature the paper
    /// cites.
    #[default]
    None,
    /// Admit the same fraction of every request type so that admitted load
    /// equals capacity. Goodput holds at capacity, but critical and
    /// optional requests are shed alike.
    Uniform,
    /// Admit request types in decreasing utility-per-request order (the
    /// app's critical request first among ties), partially admitting the
    /// marginal type. Low-value requests absorb the entire shortfall.
    PriorityAware,
}

impl SheddingPolicy {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SheddingPolicy::None => "no-shedding",
            SheddingPolicy::Uniform => "uniform-shed",
            SheddingPolicy::PriorityAware => "priority-shed",
        }
    }
}

/// Quality-of-service dimming policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum QosPolicy {
    /// Always serve at full quality.
    #[default]
    Full,
    /// When offered load exceeds capacity, serve every admitted request in
    /// a degraded mode: cheaper to serve, lower harvest.
    DimUnderOverload {
        /// Serving cost multiplier in degraded mode (0 < factor ≤ 1).
        cost_factor: f64,
        /// Harvest multiplier in degraded mode (0 ≤ factor ≤ 1).
        utility_factor: f64,
    },
}

impl QosPolicy {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            QosPolicy::Full => "full-qos",
            QosPolicy::DimUnderOverload { .. } => "dimmed-qos",
        }
    }
}

/// The load/capacity situation an app faces after a failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadScenario {
    /// Offered load as a multiple of the nominal request mix (1.0 =
    /// normal day, 2.0 = the flash crowd that follows a region failover).
    pub load_multiplier: f64,
    /// Serving capacity of the app's activated containers, in requests
    /// per second at full QoS (each request costs one unit).
    pub capacity_rps: f64,
}

/// Per-request-type outcome under shedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedOutcome {
    /// Index into [`AppModel::requests`].
    pub request: usize,
    /// Offered requests per second (nominal × multiplier).
    pub offered_rps: f64,
    /// Requests per second past admission control.
    pub admitted_rps: f64,
    /// Requests per second actually served (0 when the request type fails
    /// because a required container is off).
    pub served_rps: f64,
    /// Harvest per second: `served × per-request utility × QoS factor`.
    pub utility_rate: f64,
}

/// Aggregate view over [`ShedOutcome`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedSummary {
    /// Total served requests per second.
    pub served_rps: f64,
    /// Total harvest per second.
    pub utility_rate: f64,
    /// Served fraction of the critical request type's offered load.
    pub critical_served_frac: f64,
}

/// Evaluates `model` under an overload scenario, a shedding policy, and a
/// QoS policy, with container availability given by `service_up` (the
/// diagonal-scaling input).
///
/// Request types whose required containers are off fail fast and consume
/// no capacity; their load is lost, not shed.
///
/// # Examples
///
/// ```
/// use phoenix_apps::overleaf::{overleaf, OverleafVariant};
/// use phoenix_apps::shedding::{shed, summarize, OverloadScenario, QosPolicy, SheddingPolicy};
///
/// let model = overleaf("overleaf0", OverleafVariant::Edits, 1.0);
/// let nominal: f64 = model.requests.iter().map(|r| r.rate_rps).sum();
/// // A 2x flash crowd against half the nominal serving capacity.
/// let scenario = OverloadScenario {
///     load_multiplier: 2.0,
///     capacity_rps: nominal * 0.5,
/// };
/// let run = |policy| {
///     summarize(&model, &shed(&model, |_| true, &scenario, policy, QosPolicy::Full))
/// };
/// let uniform = run(SheddingPolicy::Uniform);
/// let priority = run(SheddingPolicy::PriorityAware);
/// // Both hold goodput at capacity, but priority shedding spends it on
/// // the critical request (edits) first.
/// assert!(priority.critical_served_frac > uniform.critical_served_frac);
/// assert!(priority.served_rps <= nominal * 0.5 + 1e-9);
/// ```
pub fn shed(
    model: &AppModel,
    mut service_up: impl FnMut(ServiceId) -> bool,
    scenario: &OverloadScenario,
    policy: SheddingPolicy,
    qos: QosPolicy,
) -> Vec<ShedOutcome> {
    // Which types can serve at all, and at what per-request utility, is
    // diagonal scaling's verdict — delegate to the catalog semantics.
    let base = model.outcomes(&mut service_up);
    let m = scenario.load_multiplier.max(0.0);
    let offered: Vec<f64> = base.iter().map(|o| o.offered_rps * m).collect();
    let alive: Vec<bool> = base.iter().map(|o| o.served_rps > 0.0).collect();
    let live_demand: f64 = offered
        .iter()
        .zip(&alive)
        .filter(|&(_, &a)| a)
        .map(|(&o, _)| o)
        .sum();

    let overloaded = live_demand > scenario.capacity_rps + 1e-12;
    let (cost_factor, utility_factor) = match qos {
        QosPolicy::Full => (1.0, 1.0),
        QosPolicy::DimUnderOverload {
            cost_factor,
            utility_factor,
        } => {
            if overloaded {
                (cost_factor.clamp(1e-9, 1.0), utility_factor.clamp(0.0, 1.0))
            } else {
                (1.0, 1.0)
            }
        }
    };
    // Dimming stretches capacity: at cost_factor f, the same containers
    // serve 1/f as many requests.
    let effective_capacity = scenario.capacity_rps / cost_factor;

    let admitted = admit(
        model,
        &offered,
        &alive,
        live_demand,
        effective_capacity,
        policy,
    );

    base.iter()
        .enumerate()
        .map(|(i, o)| {
            let served = if alive[i] { admitted[i] } else { 0.0 };
            ShedOutcome {
                request: i,
                offered_rps: offered[i],
                admitted_rps: admitted[i],
                served_rps: served,
                utility_rate: served * o.utility * utility_factor,
            }
        })
        .collect()
}

/// Admission per request type, in offered-RPS units.
fn admit(
    model: &AppModel,
    offered: &[f64],
    alive: &[bool],
    live_demand: f64,
    capacity: f64,
    policy: SheddingPolicy,
) -> Vec<f64> {
    let mut admitted = vec![0.0; offered.len()];
    if live_demand <= capacity {
        for i in 0..offered.len() {
            if alive[i] {
                admitted[i] = offered[i];
            }
        }
        return admitted;
    }
    match policy {
        SheddingPolicy::None => {
            // Congestion collapse: goodput = capacity × (capacity/demand),
            // spread proportionally to offered load.
            let goodput = capacity * (capacity / live_demand);
            for i in 0..offered.len() {
                if alive[i] {
                    admitted[i] = offered[i] / live_demand * goodput;
                }
            }
        }
        SheddingPolicy::Uniform => {
            let frac = capacity / live_demand;
            for i in 0..offered.len() {
                if alive[i] {
                    admitted[i] = offered[i] * frac;
                }
            }
        }
        SheddingPolicy::PriorityAware => {
            // Utility-per-request order; the critical request wins ties.
            let mut order: Vec<usize> = (0..offered.len()).filter(|&i| alive[i]).collect();
            order.sort_by(|&a, &b| {
                let (ua, ub) = (
                    model.requests[a].utility_full,
                    model.requests[b].utility_full,
                );
                ub.total_cmp(&ua)
                    .then_with(|| (b == model.critical_request).cmp(&(a == model.critical_request)))
                    .then(a.cmp(&b))
            });
            let mut left = capacity;
            for i in order {
                let take = offered[i].min(left);
                admitted[i] = take;
                left -= take;
                if left <= 1e-12 {
                    break;
                }
            }
        }
    }
    admitted
}

/// Summarizes shed outcomes for one app.
pub fn summarize(model: &AppModel, outcomes: &[ShedOutcome]) -> ShedSummary {
    let served_rps = outcomes.iter().map(|o| o.served_rps).sum();
    let utility_rate = outcomes.iter().map(|o| o.utility_rate).sum();
    let crit = &outcomes[model.critical_request];
    ShedSummary {
        served_rps,
        utility_rate,
        critical_served_frac: if crit.offered_rps > 0.0 {
            crit.served_rps / crit.offered_rps
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RequestType;
    use phoenix_cluster::Resources;
    use phoenix_core::spec::AppSpecBuilder;
    use phoenix_core::tags::Criticality;

    /// Critical "pay" (utility 1.0, 60 rps) and optional "browse"
    /// (utility 0.3, 140 rps); browse routes through an optional C5
    /// recommender.
    fn shop() -> AppModel {
        let mut b = AppSpecBuilder::new("shop");
        let fe = b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
        let pay = b.add_service("pay", Resources::cpu(2.0), Some(Criticality::C1), 1);
        let rec = b.add_service("rec", Resources::cpu(1.0), Some(Criticality::new(5)), 1);
        b.add_dependency(fe, pay);
        b.add_dependency(fe, rec);
        AppModel {
            spec: b.build().unwrap(),
            requests: vec![
                RequestType {
                    name: "pay".into(),
                    path: vec![fe, pay],
                    optional: vec![],
                    rate_rps: 60.0,
                    utility_full: 1.0,
                    utility_degraded: 1.0,
                },
                RequestType {
                    name: "browse".into(),
                    path: vec![fe, rec],
                    optional: vec![rec],
                    rate_rps: 140.0,
                    utility_full: 0.3,
                    utility_degraded: 0.2,
                },
            ],
            crash_proof: true,
            critical_request: 0,
        }
    }

    fn all_up(_: ServiceId) -> bool {
        true
    }

    #[test]
    fn no_overload_admits_everything_under_all_policies() {
        let m = shop();
        let scenario = OverloadScenario {
            load_multiplier: 1.0,
            capacity_rps: 200.0,
        };
        for policy in [
            SheddingPolicy::None,
            SheddingPolicy::Uniform,
            SheddingPolicy::PriorityAware,
        ] {
            let out = shed(&m, all_up, &scenario, policy, QosPolicy::Full);
            let s = summarize(&m, &out);
            assert_eq!(s.served_rps, 200.0, "{}", policy.label());
            assert_eq!(s.critical_served_frac, 1.0);
        }
    }

    #[test]
    fn congestion_collapse_without_shedding() {
        let m = shop();
        let scenario = OverloadScenario {
            load_multiplier: 2.0, // offered 400 vs capacity 200
            capacity_rps: 200.0,
        };
        let none = summarize(
            &m,
            &shed(&m, all_up, &scenario, SheddingPolicy::None, QosPolicy::Full),
        );
        let uniform = summarize(
            &m,
            &shed(
                &m,
                all_up,
                &scenario,
                SheddingPolicy::Uniform,
                QosPolicy::Full,
            ),
        );
        // Collapse: goodput 200×(200/400) = 100 < 200 held by shedding.
        assert!((none.served_rps - 100.0).abs() < 1e-9);
        assert!((uniform.served_rps - 200.0).abs() < 1e-9);
        assert!(none.utility_rate < uniform.utility_rate);
    }

    #[test]
    fn priority_shedding_protects_the_critical_request() {
        let m = shop();
        let scenario = OverloadScenario {
            load_multiplier: 2.0,
            capacity_rps: 200.0,
        };
        let uniform = summarize(
            &m,
            &shed(
                &m,
                all_up,
                &scenario,
                SheddingPolicy::Uniform,
                QosPolicy::Full,
            ),
        );
        let priority = summarize(
            &m,
            &shed(
                &m,
                all_up,
                &scenario,
                SheddingPolicy::PriorityAware,
                QosPolicy::Full,
            ),
        );
        // Uniform sheds pay to 50 %; priority serves all 120 offered pay rps
        // and gives browse the 80 rps remainder.
        assert!((uniform.critical_served_frac - 0.5).abs() < 1e-9);
        assert_eq!(priority.critical_served_frac, 1.0);
        assert!(priority.utility_rate > uniform.utility_rate);
        // Both hold total goodput at capacity.
        assert!((priority.served_rps - 200.0).abs() < 1e-9);
    }

    #[test]
    fn partial_admission_of_the_marginal_type() {
        let m = shop();
        let out = shed(
            &m,
            all_up,
            &OverloadScenario {
                load_multiplier: 1.0,
                capacity_rps: 100.0,
            },
            SheddingPolicy::PriorityAware,
            QosPolicy::Full,
        );
        assert_eq!(out[0].admitted_rps, 60.0);
        assert!((out[1].admitted_rps - 40.0).abs() < 1e-9);
    }

    #[test]
    fn qos_dimming_stretches_capacity() {
        let m = shop();
        let scenario = OverloadScenario {
            load_multiplier: 2.0,
            capacity_rps: 200.0,
        };
        let dim = QosPolicy::DimUnderOverload {
            cost_factor: 0.5,
            utility_factor: 0.8,
        };
        let full = summarize(
            &m,
            &shed(
                &m,
                all_up,
                &scenario,
                SheddingPolicy::Uniform,
                QosPolicy::Full,
            ),
        );
        let dimmed = summarize(
            &m,
            &shed(&m, all_up, &scenario, SheddingPolicy::Uniform, dim),
        );
        // Half-cost requests double effective capacity: all 400 rps served.
        assert!((dimmed.served_rps - 400.0).abs() < 1e-9);
        assert!(dimmed.served_rps > full.served_rps);
        // utility_factor (0.8) > cost_factor (0.5) ⇒ dimming wins overall.
        assert!(dimmed.utility_rate > full.utility_rate);
    }

    #[test]
    fn qos_dimming_inactive_without_overload() {
        let m = shop();
        let dim = QosPolicy::DimUnderOverload {
            cost_factor: 0.5,
            utility_factor: 0.1,
        };
        let out = shed(
            &m,
            all_up,
            &OverloadScenario {
                load_multiplier: 1.0,
                capacity_rps: 500.0,
            },
            SheddingPolicy::Uniform,
            dim,
        );
        let s = summarize(&m, &out);
        // No overload ⇒ full quality, full harvest.
        assert!((s.utility_rate - (60.0 + 140.0 * 0.3)).abs() < 1e-9);
    }

    #[test]
    fn diagonal_scaling_composes_with_shedding() {
        let m = shop();
        let scenario = OverloadScenario {
            load_multiplier: 2.0,
            capacity_rps: 150.0,
        };
        // Diagonal scaling turned the recommender off: browse degrades but
        // still serves (crash-proof), pay unaffected.
        let rec_down = |s: ServiceId| s.index() != 2;
        let out = shed(
            &m,
            rec_down,
            &scenario,
            SheddingPolicy::PriorityAware,
            QosPolicy::Full,
        );
        let s = summarize(&m, &out);
        assert_eq!(s.critical_served_frac, 1.0);
        // Browse survives at degraded utility 0.2 for the 30 rps remainder.
        assert!((out[1].served_rps - 30.0).abs() < 1e-9);
        assert!((out[1].utility_rate - 30.0 * 0.2).abs() < 1e-9);
    }

    #[test]
    fn failed_required_service_loses_load_entirely() {
        let m = shop();
        // Pay service down: the critical type fails regardless of policy.
        let pay_down = |s: ServiceId| s.index() != 1;
        let out = shed(
            &m,
            pay_down,
            &OverloadScenario {
                load_multiplier: 1.0,
                capacity_rps: 500.0,
            },
            SheddingPolicy::PriorityAware,
            QosPolicy::Full,
        );
        assert_eq!(out[0].served_rps, 0.0);
        assert_eq!(out[0].utility_rate, 0.0);
        // Browse is unaffected and fully served.
        assert_eq!(out[1].served_rps, 140.0);
        let s = summarize(&m, &out);
        assert_eq!(s.critical_served_frac, 0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SheddingPolicy::None.label(), "no-shedding");
        assert_eq!(SheddingPolicy::Uniform.label(), "uniform-shed");
        assert_eq!(SheddingPolicy::PriorityAware.label(), "priority-shed");
        assert_eq!(QosPolicy::Full.label(), "full-qos");
        assert_eq!(
            QosPolicy::DimUnderOverload {
                cost_factor: 0.5,
                utility_factor: 0.8
            }
            .label(),
            "dimmed-qos"
        );
    }
}
