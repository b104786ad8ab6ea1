//! Dynamic criticality tagging (§7, *Dynamic Criticality Tagging*).
//!
//! The paper's future-work list asks for "criticality tagging APIs that
//! allow applications to assign criticality tags dynamically", adjusting
//! to contextual factors such as time of day or user behaviour. This
//! module provides that API: a [`TagProvider`] computes context-dependent
//! overrides, and [`retag`] materializes a workload with the adjusted
//! tags so the (static-tag) planner runs unchanged.
//!
//! # Examples
//!
//! A batch-analytics service is sheddable during business hours but
//! becomes important overnight when its reports are due:
//!
//! ```
//! use phoenix_core::dynamic::{retag, ScheduleTagProvider, TagContext};
//! use phoenix_core::spec::{AppId, AppSpecBuilder, ServiceId, Workload};
//! use phoenix_core::tags::Criticality;
//! use phoenix_cluster::Resources;
//!
//! let mut b = AppSpecBuilder::new("analytics");
//! b.add_service("api", Resources::cpu(2.0), Some(Criticality::C1), 1);
//! b.add_service("batch", Resources::cpu(2.0), Some(Criticality::new(6)), 1);
//! let workload = Workload::new(vec![b.build()?]);
//!
//! let mut provider = ScheduleTagProvider::new();
//! provider.add_window(AppId::new(0), ServiceId::new(1),
//!     22 * 3600, 6 * 3600, Criticality::C2); // 22:00–06:00 → C2
//!
//! let night = retag(&workload, &provider, &TagContext::at_seconds(23 * 3600));
//! assert_eq!(
//!     night.app(AppId::new(0)).criticality_of(ServiceId::new(1)),
//!     Criticality::C2,
//! );
//! # Ok::<(), phoenix_core::spec::SpecError>(())
//! ```

use std::fmt;

use crate::spec::{AppId, ServiceId, Workload};
use crate::tags::Criticality;

/// Contextual inputs a provider may condition on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagContext {
    /// Seconds since local midnight (0..86400).
    pub seconds_into_day: u64,
    /// Free-form load signal (e.g. requests per second observed), for
    /// behaviour-conditioned providers.
    pub load_level: u64,
}

impl TagContext {
    /// A context at the given time of day.
    pub fn at_seconds(seconds_into_day: u64) -> TagContext {
        TagContext {
            seconds_into_day: seconds_into_day % 86_400,
            load_level: 0,
        }
    }
}

/// Computes context-dependent criticality overrides.
///
/// Returning `None` keeps the service's static tag.
pub trait TagProvider: fmt::Debug + Send + Sync {
    /// The override for `(app, service)` under `ctx`, if any.
    fn criticality(&self, app: AppId, service: ServiceId, ctx: &TagContext) -> Option<Criticality>;
}

/// Time-of-day windows: within `[start, end)` seconds-into-day (wrapping
/// across midnight when `start > end`), the service takes the window's
/// criticality.
#[derive(Debug, Clone, Default)]
pub struct ScheduleTagProvider {
    windows: Vec<Window>,
}

#[derive(Debug, Clone)]
struct Window {
    app: AppId,
    service: ServiceId,
    start: u64,
    end: u64,
    criticality: Criticality,
}

impl ScheduleTagProvider {
    /// An empty schedule (no overrides).
    pub fn new() -> ScheduleTagProvider {
        ScheduleTagProvider::default()
    }

    /// Adds a window; `start`/`end` are seconds into the day, and a window
    /// with `start > end` wraps past midnight.
    pub fn add_window(
        &mut self,
        app: AppId,
        service: ServiceId,
        start: u64,
        end: u64,
        criticality: Criticality,
    ) -> &mut ScheduleTagProvider {
        self.windows.push(Window {
            app,
            service,
            start: start % 86_400,
            end: end % 86_400,
            criticality,
        });
        self
    }
}

impl TagProvider for ScheduleTagProvider {
    fn criticality(&self, app: AppId, service: ServiceId, ctx: &TagContext) -> Option<Criticality> {
        let t = ctx.seconds_into_day % 86_400;
        self.windows
            .iter()
            .filter(|w| w.app == app && w.service == service)
            .find(|w| {
                if w.start <= w.end {
                    (w.start..w.end).contains(&t)
                } else {
                    t >= w.start || t < w.end
                }
            })
            .map(|w| w.criticality)
    }
}

/// Materializes `workload` with `provider`'s overrides applied under
/// `ctx`. Untouched services keep their static tags; the result feeds the
/// ordinary (static) planner, so the whole pipeline supports dynamic tags
/// without modification.
pub fn retag(workload: &Workload, provider: &dyn TagProvider, ctx: &TagContext) -> Workload {
    let apps = workload
        .apps()
        .map(|(ai, app)| {
            let mut b = crate::spec::AppSpecBuilder::new(app.name());
            for (si, svc) in app.services().iter().enumerate() {
                let service = ServiceId::new(si as u32);
                let tag = provider.criticality(ai, service, ctx).or(svc.criticality);
                b.add_service(svc.name.clone(), svc.demand, tag, svc.replicas);
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
            b.build().expect("retagging preserves spec validity")
        })
        .collect();
    Workload::new(apps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{PhoenixPolicy, ResiliencePolicy};
    use crate::spec::AppSpecBuilder;
    use phoenix_cluster::{ClusterState, PodKey, Resources};

    fn workload() -> Workload {
        let mut b = AppSpecBuilder::new("a");
        b.add_service("api", Resources::cpu(2.0), Some(Criticality::C1), 1);
        b.add_service("batch", Resources::cpu(2.0), Some(Criticality::new(6)), 1);
        b.add_service("chat", Resources::cpu(2.0), Some(Criticality::new(5)), 1);
        Workload::new(vec![b.build().unwrap()])
    }

    fn nightly_provider() -> ScheduleTagProvider {
        let mut p = ScheduleTagProvider::new();
        p.add_window(
            AppId::new(0),
            ServiceId::new(1),
            22 * 3600,
            6 * 3600,
            Criticality::C2,
        );
        p
    }

    #[test]
    fn windows_wrap_midnight() {
        let p = nightly_provider();
        let svc = ServiceId::new(1);
        let app = AppId::new(0);
        assert_eq!(p.criticality(&app_ctx(23), app, svc), Some(Criticality::C2));
        assert_eq!(p.criticality(&app_ctx(2), app, svc), Some(Criticality::C2));
        assert_eq!(p.criticality(&app_ctx(12), app, svc), None);
        // Other services unaffected.
        assert_eq!(p.criticality(&app_ctx(23), app, ServiceId::new(0)), None);
    }

    fn app_ctx(hour: u64) -> TagContext {
        TagContext::at_seconds(hour * 3600)
    }

    // Helper shim so the test above reads naturally.
    impl ScheduleTagProvider {
        fn criticality(
            &self,
            ctx: &TagContext,
            app: AppId,
            service: ServiceId,
        ) -> Option<Criticality> {
            TagProvider::criticality(self, app, service, ctx)
        }
    }

    #[test]
    fn retag_changes_planning_outcome_by_time_of_day() {
        let w = workload();
        let p = nightly_provider();
        // Capacity for exactly two services.
        let mut day = ClusterState::homogeneous(2, Resources::cpu(2.0));
        let mut night = day.clone();
        PhoenixPolicy::fair().plan(&retag(&w, &p, &app_ctx(12)), &mut day);
        PhoenixPolicy::fair().plan(&retag(&w, &p, &app_ctx(23)), &mut night);
        // Day: api (C1) + chat (C5 beats batch C6).
        assert!(day.node_of(PodKey::new(0, 2, 0)).is_some());
        assert!(day.node_of(PodKey::new(0, 1, 0)).is_none());
        // Night: batch is C2 and displaces chat.
        assert!(night.node_of(PodKey::new(0, 1, 0)).is_some());
        assert!(night.node_of(PodKey::new(0, 2, 0)).is_none());
    }

    #[test]
    fn retag_preserves_structure_and_prices() {
        let w = workload();
        let p = nightly_provider();
        let re = retag(&w, &p, &app_ctx(23));
        let (a, b) = (w.app(AppId::new(0)), re.app(AppId::new(0)));
        assert_eq!(a.service_count(), b.service_count());
        assert_eq!(a.price_per_unit(), b.price_per_unit());
        assert_eq!(a.total_demand(), b.total_demand());
        assert_eq!(
            a.dependency().map(|g| g.edges().count()),
            b.dependency().map(|g| g.edges().count())
        );
    }
}
