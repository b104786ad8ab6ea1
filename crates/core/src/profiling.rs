//! Dynamic resource profiling (§7, *Dynamic Resource Profiling*).
//!
//! Phoenix sizes capacity savings from deployment specs, but "degrading
//! user-facing services can influence user behavior, which in turn can
//! change resource demands". This module is the learning hook the paper
//! sketches: an exponentially-weighted profiler ingests observed usage
//! and produces refreshed demand estimates, which [`ResourceProfiler::apply`] folds back
//! into a workload (with a configurable safety margin) before planning.
//!
//! # Examples
//!
//! ```
//! use phoenix_core::profiling::ResourceProfiler;
//! use phoenix_core::spec::{AppId, ServiceId};
//! use phoenix_cluster::Resources;
//!
//! let mut profiler = ResourceProfiler::new(0.3);
//! let (app, svc) = (AppId::new(0), ServiceId::new(0));
//! for _ in 0..50 {
//!     profiler.observe(app, svc, Resources::cpu(1.2));
//! }
//! let est = profiler.estimate(app, svc).unwrap();
//! assert!((est.cpu - 1.2).abs() < 0.05);
//! ```

use std::collections::HashMap;

use phoenix_cluster::Resources;

use crate::spec::{AppId, ServiceId, Workload};

/// EWMA-based per-service demand estimator.
#[derive(Debug, Clone)]
pub struct ResourceProfiler {
    alpha: f64,
    estimates: HashMap<(u32, u32), Resources>,
    observations: HashMap<(u32, u32), u64>,
}

impl ResourceProfiler {
    /// Creates a profiler with smoothing factor `alpha` (0 < α ≤ 1;
    /// higher = faster adaptation).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> ResourceProfiler {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        ResourceProfiler {
            alpha,
            estimates: HashMap::new(),
            observations: HashMap::new(),
        }
    }

    /// Ingests one usage observation for `(app, service)`.
    pub fn observe(&mut self, app: AppId, service: ServiceId, usage: Resources) {
        let key = (app.index() as u32, service.index() as u32);
        let entry = self.estimates.entry(key);
        match entry {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(usage);
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let prev = *o.get();
                o.insert(prev * (1.0 - self.alpha) + usage * self.alpha);
            }
        }
        *self.observations.entry(key).or_insert(0) += 1;
    }

    /// Current estimate for `(app, service)`, if any observations exist.
    pub fn estimate(&self, app: AppId, service: ServiceId) -> Option<Resources> {
        self.estimates
            .get(&(app.index() as u32, service.index() as u32))
            .copied()
    }

    /// Number of observations ingested for `(app, service)`.
    pub fn observation_count(&self, app: AppId, service: ServiceId) -> u64 {
        self.observations
            .get(&(app.index() as u32, service.index() as u32))
            .copied()
            .unwrap_or(0)
    }

    /// Rewrites `workload` demands from the profile.
    ///
    /// A service's demand becomes `estimate × (1 + margin)` once at least
    /// `min_observations` samples exist; under-sampled services keep their
    /// declared spec. Margins guard against the profiler under-estimating
    /// bursty services (the conservative direction for capacity planning).
    pub fn apply(&self, workload: &Workload, margin: f64, min_observations: u64) -> Workload {
        let apps = workload
            .apps()
            .map(|(ai, app)| {
                let mut b = crate::spec::AppSpecBuilder::new(app.name());
                for (si, svc) in app.services().iter().enumerate() {
                    let service = ServiceId::new(si as u32);
                    let demand = if self.observation_count(ai, service) >= min_observations {
                        self.estimate(ai, service)
                            .map(|e| e * (1.0 + margin.max(0.0)))
                            .unwrap_or(svc.demand)
                    } else {
                        svc.demand
                    };
                    b.add_service(svc.name.clone(), demand, svc.criticality, svc.replicas);
                }
                if let Some(g) = app.dependency() {
                    b.with_graph();
                    for (f, t) in g.edges() {
                        b.add_dependency(
                            ServiceId::new(f.index() as u32),
                            ServiceId::new(t.index() as u32),
                        );
                    }
                }
                b.price_per_unit(app.price_per_unit());
                b.phoenix_enabled(app.phoenix_enabled());
                b.build().expect("profiling preserves spec validity")
            })
            .collect();
        Workload::new(apps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppSpecBuilder;
    use crate::tags::Criticality;

    fn workload() -> Workload {
        let mut b = AppSpecBuilder::new("a");
        b.add_service("fe", Resources::cpu(4.0), Some(Criticality::C1), 1);
        b.add_service("aux", Resources::cpu(4.0), Some(Criticality::C3), 1);
        Workload::new(vec![b.build().unwrap()])
    }

    #[test]
    fn ewma_converges_and_adapts() {
        let mut p = ResourceProfiler::new(0.5);
        let (a, s) = (AppId::new(0), ServiceId::new(0));
        for _ in 0..20 {
            p.observe(a, s, Resources::cpu(2.0));
        }
        assert!((p.estimate(a, s).unwrap().cpu - 2.0).abs() < 1e-6);
        // Demand shifts; the estimate follows.
        for _ in 0..20 {
            p.observe(a, s, Resources::cpu(6.0));
        }
        assert!((p.estimate(a, s).unwrap().cpu - 6.0).abs() < 1e-3);
        assert_eq!(p.observation_count(a, s), 40);
    }

    #[test]
    fn apply_respects_min_observations_and_margin() {
        let w = workload();
        let mut p = ResourceProfiler::new(0.5);
        let (a, fe) = (AppId::new(0), ServiceId::new(0));
        for _ in 0..10 {
            p.observe(a, fe, Resources::cpu(1.0));
        }
        // aux never observed → keeps its 4.0 spec.
        let refreshed = p.apply(&w, 0.2, 5);
        let app = refreshed.app(a);
        assert!((app.service(fe).demand.cpu - 1.2).abs() < 1e-6);
        assert_eq!(app.service(ServiceId::new(1)).demand.cpu, 4.0);
        // Below the observation floor nothing changes.
        let gated = p.apply(&w, 0.2, 100);
        assert_eq!(gated.app(a).service(fe).demand.cpu, 4.0);
    }

    #[test]
    fn profiled_workload_packs_more_services() {
        use crate::policies::{PhoenixPolicy, ResiliencePolicy};
        use phoenix_cluster::ClusterState;
        // Specs say 4+4 CPU; reality is 1.5 each. A 4-CPU cluster fits
        // nothing by spec but everything by profile.
        let w = workload();
        let mut by_spec = ClusterState::homogeneous(2, Resources::cpu(2.0));
        let mut by_profile = by_spec.clone();
        PhoenixPolicy::fair().plan(&w, &mut by_spec);
        assert_eq!(by_spec.pod_count(), 0);
        let mut p = ResourceProfiler::new(0.5);
        for s in 0..2 {
            for _ in 0..10 {
                p.observe(AppId::new(0), ServiceId::new(s), Resources::cpu(1.5));
            }
        }
        let refreshed = p.apply(&w, 0.1, 5);
        PhoenixPolicy::fair().plan(&refreshed, &mut by_profile);
        assert_eq!(by_profile.pod_count(), 2);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        ResourceProfiler::new(0.0);
    }
}
