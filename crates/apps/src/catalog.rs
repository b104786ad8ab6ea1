//! Application behaviour model: request types over call paths.
//!
//! A *request type* (edit, compile, search-hotel, …) touches a set of
//! microservices. Whether it succeeds when some of them are off depends on
//! the application's error handling (§5, *Diagonal Scaling Practical
//! Experience*):
//!
//! * **Crash-proof** apps (Overleaf) wrap downstream calls in error
//!   handlers: a request fails only when a *required* service is down;
//!   missing *optional* services degrade the harvest (utility) instead.
//! * **Crash-prone** apps (HotelReservation as shipped) crash the request
//!   when any service on the path is down, optional or not. The paper's
//!   patch — and ours, [`AppModel::patched`] — restores the crash-proof
//!   behaviour.

use phoenix_core::spec::{AppSpec, ServiceId};

/// One request type of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestType {
    /// Name used in plots ("edits", "spell_check", "reserve", …).
    pub name: String,
    /// Every microservice the request touches, callers before callees.
    pub path: Vec<ServiceId>,
    /// Subset of `path` whose absence only degrades utility.
    pub optional: Vec<ServiceId>,
    /// Offered load in requests per second.
    pub rate_rps: f64,
    /// Harvest per successful request with the full path.
    pub utility_full: f64,
    /// Harvest when at least one optional service is off (e.g. 0.8 for
    /// reserve-as-guest in Fig. 6f).
    pub utility_degraded: f64,
}

impl RequestType {
    /// Services that must be up for the request to succeed at all.
    pub fn required(&self) -> impl Iterator<Item = ServiceId> + '_ {
        self.path
            .iter()
            .copied()
            .filter(move |s| !self.optional.contains(s))
    }
}

/// Outcome of offering one request type against the current service
/// availability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Index into [`AppModel::requests`].
    pub request: usize,
    /// Offered requests per second.
    pub offered_rps: f64,
    /// Served requests per second.
    pub served_rps: f64,
    /// Harvest per served request (0 when failing).
    pub utility: f64,
}

/// A complete application model: spec (tags, demands, DG) + behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct AppModel {
    /// The planner-facing spec.
    pub spec: AppSpec,
    /// Request mix.
    pub requests: Vec<RequestType>,
    /// Error-handling semantics (see module docs).
    pub crash_proof: bool,
    /// Index of the request type whose throughput defines the app's
    /// critical-service goal (Table 4).
    pub critical_request: usize,
}

impl AppModel {
    /// Returns the model with crash-proof error handling (the §5 patch).
    pub fn patched(mut self) -> AppModel {
        self.crash_proof = true;
        self
    }

    /// The request type defining the critical-service goal.
    pub fn critical(&self) -> &RequestType {
        &self.requests[self.critical_request]
    }

    /// Evaluates every request type against an availability predicate.
    pub fn outcomes(&self, mut service_up: impl FnMut(ServiceId) -> bool) -> Vec<RequestOutcome> {
        self.requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let required_up = r.required().all(&mut service_up);
                let optional_up = r.optional.iter().all(|&s| service_up(s));
                let succeeds = if self.crash_proof {
                    required_up
                } else {
                    required_up && optional_up
                };
                let (served, utility) = if !succeeds {
                    (0.0, 0.0)
                } else if optional_up {
                    (r.rate_rps, r.utility_full)
                } else {
                    (r.rate_rps, r.utility_degraded)
                };
                RequestOutcome {
                    request: i,
                    offered_rps: r.rate_rps,
                    served_rps: served,
                    utility,
                }
            })
            .collect()
    }

    /// Is the critical-service goal met (its full RPS retained)?
    pub fn critical_goal_met(&self, service_up: impl FnMut(ServiceId) -> bool) -> bool {
        let o = &self.outcomes(service_up)[self.critical_request];
        o.served_rps >= o.offered_rps - 1e-9
    }

    /// Validates that every path/optional id exists in the spec and that
    /// the critical request index is in range.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.spec.service_count();
        for r in &self.requests {
            for s in r.path.iter().chain(&r.optional) {
                if s.index() >= n {
                    return Err(format!("request {} references unknown {s}", r.name));
                }
            }
            for s in &r.optional {
                if !r.path.contains(s) {
                    return Err(format!("request {}: optional {s} not on path", r.name));
                }
            }
        }
        if self.critical_request >= self.requests.len() {
            return Err("critical request out of range".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_cluster::Resources;
    use phoenix_core::spec::AppSpecBuilder;
    use phoenix_core::tags::Criticality;

    fn model(crash_proof: bool) -> AppModel {
        let mut b = AppSpecBuilder::new("m");
        let fe = b.add_service("fe", Resources::cpu(1.0), Some(Criticality::C1), 1);
        let be = b.add_service("be", Resources::cpu(1.0), Some(Criticality::C2), 1);
        let opt = b.add_service("opt", Resources::cpu(1.0), Some(Criticality::C5), 1);
        b.add_dependency(fe, be);
        b.add_dependency(fe, opt);
        AppModel {
            spec: b.build().unwrap(),
            requests: vec![RequestType {
                name: "main".into(),
                path: vec![fe, be, opt],
                optional: vec![opt],
                rate_rps: 100.0,
                utility_full: 1.0,
                utility_degraded: 0.8,
            }],
            crash_proof,
            critical_request: 0,
        }
    }

    fn up_except(down: ServiceId) -> impl Fn(ServiceId) -> bool {
        move |s| s != down
    }

    #[test]
    fn crash_proof_serves_degraded_without_optional() {
        let m = model(true);
        m.validate().unwrap();
        let o = &m.outcomes(up_except(ServiceId::new(2)))[0];
        assert_eq!(o.served_rps, 100.0);
        assert_eq!(o.utility, 0.8);
        assert!(m.critical_goal_met(up_except(ServiceId::new(2))));
    }

    #[test]
    fn crash_prone_fails_without_optional() {
        let m = model(false);
        let o = &m.outcomes(up_except(ServiceId::new(2)))[0];
        assert_eq!(o.served_rps, 0.0);
        assert_eq!(o.utility, 0.0);
        assert!(!m.critical_goal_met(up_except(ServiceId::new(2))));
        // The patch restores service.
        let p = m.patched();
        assert!(p.critical_goal_met(up_except(ServiceId::new(2))));
    }

    #[test]
    fn required_service_down_always_fails() {
        for cp in [true, false] {
            let m = model(cp);
            let o = &m.outcomes(up_except(ServiceId::new(1)))[0];
            assert_eq!(o.served_rps, 0.0, "crash_proof={cp}");
        }
    }

    #[test]
    fn all_up_full_utility() {
        let m = model(true);
        let o = &m.outcomes(|_| true)[0];
        assert_eq!((o.served_rps, o.utility), (100.0, 1.0));
    }

    #[test]
    fn validate_catches_bad_references() {
        let mut m = model(true);
        m.requests[0].path.push(ServiceId::new(9));
        assert!(m.validate().is_err());
        let mut m2 = model(true);
        m2.requests[0].optional = vec![ServiceId::new(1), ServiceId::new(0)];
        // optional ⊆ path holds here, so this validates fine.
        assert!(m2.validate().is_ok());
        let mut m3 = model(true);
        m3.critical_request = 5;
        assert!(m3.validate().is_err());
    }
}
