//! Workload persistence (§5, *Fault Tolerance*).
//!
//! Phoenix keeps criticality tags and dependency graphs in memory but also
//! persists them "on a storage service that can be fetched on-demand", so
//! a crashed controller restarts on a healthy node, pulls its inputs, and
//! resumes. This module is that wire format: a stable JSON encoding of
//! [`Workload`] with full round-tripping.
//!
//! # Examples
//!
//! ```
//! use phoenix_core::persist;
//! use phoenix_core::spec::{AppSpecBuilder, Workload};
//! use phoenix_core::tags::Criticality;
//! use phoenix_cluster::Resources;
//!
//! let mut b = AppSpecBuilder::new("shop");
//! b.add_service("web", Resources::cpu(2.0), Some(Criticality::C1), 2);
//! let workload = Workload::new(vec![b.build()?]);
//!
//! let json = persist::to_json(&workload)?;
//! let restored = persist::from_json(&json)?;
//! assert_eq!(restored.app_count(), 1);
//! assert_eq!(restored.app(phoenix_core::spec::AppId::new(0)).service_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::error::Error;
use std::fmt;

use phoenix_cluster::Resources;
use serde::{Deserialize, Serialize};

use crate::spec::{AppSpec, AppSpecBuilder, ModeSpec, ServiceId, ServingMode, SpecError, Workload};
use crate::tags::Criticality;

/// Wire format for one service.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ServiceDoc {
    /// Service name.
    pub name: String,
    /// CPU cores per replica.
    pub cpu: f64,
    /// Memory (GiB) per replica.
    #[serde(default)]
    pub mem: f64,
    /// Criticality level (1 = most critical); absent = untagged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub criticality: Option<u8>,
    /// Replica count.
    #[serde(default = "one")]
    pub replicas: u16,
    /// Degraded-serving ladder, best mode first; absent = `Full`-only.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub modes: Vec<ModeDoc>,
}

/// Wire format for one rung of a service's mode ladder.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ModeDoc {
    /// [`ServingMode::label`] (`full`, `stale-cache`, `read-only`, `shed`).
    pub mode: String,
    /// CPU cores per replica at this mode.
    pub cpu: f64,
    /// Memory (GiB) per replica at this mode.
    #[serde(default)]
    pub mem: f64,
    /// Utility weight per replica, relative to `Full`.
    pub utility: f64,
}

fn one() -> u16 {
    1
}

/// Wire format for one application.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct AppDoc {
    /// App name.
    pub name: String,
    /// Services, indexed by position.
    pub services: Vec<ServiceDoc>,
    /// Caller → callee edges over service indices; absent = no DG shared.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dependencies: Option<Vec<(u32, u32)>>,
    /// Revenue per unit resource.
    #[serde(default = "unit_price")]
    pub price_per_unit: f64,
    /// Diagonal-scaling subscription (`phoenix=enabled`).
    #[serde(default = "yes")]
    pub phoenix_enabled: bool,
}

fn unit_price() -> f64 {
    1.0
}

fn yes() -> bool {
    true
}

/// Wire format for a whole workload.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Default)]
pub struct WorkloadDoc {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The applications.
    pub apps: Vec<AppDoc>,
}

/// Errors from decoding a persisted workload.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// The JSON was malformed.
    Json(serde_json::Error),
    /// The decoded document violated spec invariants.
    Spec(SpecError),
    /// Unsupported format version.
    Version(u32),
    /// A service field holds a value no spec can carry.
    Field {
        /// The app's name.
        app: String,
        /// The service's name.
        service: String,
        /// `criticality`, `cpu`, `mem` or `mode`.
        field: &'static str,
        /// The rejected value, as decoded.
        value: String,
        /// What the field accepts.
        expected: &'static str,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Json(e) => write!(f, "malformed workload json: {e}"),
            PersistError::Spec(e) => write!(f, "invalid workload spec: {e}"),
            PersistError::Version(v) => write!(f, "unsupported workload version {v}"),
            PersistError::Field {
                app,
                service,
                field,
                value,
                expected,
            } => write!(
                f,
                "invalid {field} {value} for service '{service}' of app '{app}' ({expected})"
            ),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Json(e) => Some(e),
            PersistError::Spec(e) => Some(e),
            PersistError::Version(_) | PersistError::Field { .. } => None,
        }
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> PersistError {
        PersistError::Json(e)
    }
}

impl From<SpecError> for PersistError {
    fn from(e: SpecError) -> PersistError {
        PersistError::Spec(e)
    }
}

/// Converts a workload into its wire document.
pub fn to_doc(workload: &Workload) -> WorkloadDoc {
    WorkloadDoc {
        version: 1,
        apps: workload.apps().map(|(_, a)| app_to_doc(a)).collect(),
    }
}

fn app_to_doc(app: &AppSpec) -> AppDoc {
    AppDoc {
        name: app.name().to_string(),
        services: app
            .services()
            .iter()
            .map(|s| ServiceDoc {
                name: s.name.clone(),
                cpu: s.demand.cpu,
                mem: s.demand.mem,
                criticality: s.criticality.map(|c| c.level()),
                replicas: s.replicas,
                modes: s
                    .modes
                    .iter()
                    .map(|m| ModeDoc {
                        mode: m.mode.label().to_string(),
                        cpu: m.demand.cpu,
                        mem: m.demand.mem,
                        utility: m.utility,
                    })
                    .collect(),
            })
            .collect(),
        dependencies: app.dependency().map(|g| {
            g.edges()
                .map(|(a, b)| (a.index() as u32, b.index() as u32))
                .collect()
        }),
        price_per_unit: app.price_per_unit(),
        phoenix_enabled: app.phoenix_enabled(),
    }
}

/// Rejects the service values [`Criticality::new`] and
/// [`Resources::new`] cannot take: level 0, and non-finite or negative
/// demands (JSON's `1e999` decodes to infinity); and unknown mode labels.
fn check_service(app: &AppDoc, s: &ServiceDoc) -> Result<(), PersistError> {
    let bad = |field, value: String, expected| PersistError::Field {
        app: app.name.clone(),
        service: s.name.clone(),
        field,
        value,
        expected,
    };
    if s.criticality == Some(0) {
        return Err(bad("criticality", "0".into(), "expected a level >= 1"));
    }
    for (field, v) in [("cpu", s.cpu), ("mem", s.mem)] {
        if !(v.is_finite() && v >= 0.0) {
            return Err(bad(field, v.to_string(), "expected a finite number >= 0"));
        }
    }
    if let Some(m) = s.modes.iter().find(|m| mode_spec(m).is_none()) {
        let expected = "expected full, stale-cache, read-only or shed";
        return Err(bad("mode", m.mode.clone(), expected));
    }
    Ok(())
}

/// One rung of a mode ladder, or `None` for an unknown label. A literal
/// demand, not `Resources::new`: the builder rejects a negative or
/// non-finite rung instead of it being clamped.
fn mode_spec(m: &ModeDoc) -> Option<ModeSpec> {
    let mode = ServingMode::ALL.into_iter().find(|x| x.label() == m.mode)?;
    let demand = Resources {
        cpu: m.cpu,
        mem: m.mem,
    };
    Some(ModeSpec::new(mode, demand, m.utility))
}

/// Rebuilds a workload from its wire document.
///
/// # Errors
///
/// [`PersistError::Version`] for unknown versions,
/// [`PersistError::Field`] for a criticality of 0, a non-finite or
/// negative demand or an unknown mode label, and [`PersistError::Spec`]
/// when the document violates spec invariants.
pub fn from_doc(doc: &WorkloadDoc) -> Result<Workload, PersistError> {
    if doc.version != 1 {
        return Err(PersistError::Version(doc.version));
    }
    let mut apps = Vec::with_capacity(doc.apps.len());
    for app in &doc.apps {
        let mut b = AppSpecBuilder::new(&app.name);
        for s in &app.services {
            check_service(app, s)?;
            let id = b.add_service(
                &s.name,
                Resources::new(s.cpu, s.mem),
                s.criticality.map(Criticality::new),
                s.replicas,
            );
            b.service_modes(id, s.modes.iter().filter_map(mode_spec).collect());
        }
        if let Some(edges) = &app.dependencies {
            b.with_graph();
            for &(x, y) in edges {
                b.add_dependency(ServiceId::new(x), ServiceId::new(y));
            }
        }
        b.price_per_unit(app.price_per_unit);
        b.phoenix_enabled(app.phoenix_enabled);
        apps.push(b.build()?);
    }
    Ok(Workload::new(apps))
}

/// Serializes a workload to pretty JSON.
///
/// # Errors
///
/// Propagates [`PersistError::Json`] (cannot happen for valid docs).
pub fn to_json(workload: &Workload) -> Result<String, PersistError> {
    Ok(serde_json::to_string_pretty(&to_doc(workload))?)
}

/// Restores a workload from JSON.
///
/// # Errors
///
/// See [`from_doc`] plus [`PersistError::Json`] for malformed input.
pub fn from_json(json: &str) -> Result<Workload, PersistError> {
    from_doc(&serde_json::from_str(json)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppId;

    fn sample() -> Workload {
        let mut b = AppSpecBuilder::new("shop");
        let web = b.add_service("web", Resources::new(2.0, 4.0), Some(Criticality::C1), 2);
        let rec = b.add_service("rec", Resources::cpu(1.0), None, 1);
        b.add_dependency(web, rec);
        b.price_per_unit(2.5);
        let mut legacy = AppSpecBuilder::new("legacy");
        legacy.add_service("bb", Resources::cpu(1.0), Some(Criticality::new(7)), 1);
        legacy.phoenix_enabled(false);
        Workload::new(vec![b.build().unwrap(), legacy.build().unwrap()])
    }

    /// One app whose cache can step down to read-only at a quarter of its
    /// demand: on a 3-CPU node it fits beside `web` only degraded.
    fn modal() -> Workload {
        let mut b = AppSpecBuilder::new("docs");
        b.add_service("web", Resources::cpu(2.0), Some(Criticality::C1), 1);
        let cache = b.add_service("cache", Resources::new(2.0, 1.0), Some(Criticality::C3), 1);
        b.service_modes(
            cache,
            vec![
                ModeSpec::new(ServingMode::Full, Resources::new(2.0, 1.0), 1.0),
                ModeSpec::new(ServingMode::ReadOnly, Resources::new(0.5, 0.25), 0.6),
            ],
        );
        Workload::new(vec![b.build().unwrap()])
    }

    #[test]
    fn round_trip_preserves_everything() {
        let w = sample();
        let restored = from_json(&to_json(&w).unwrap()).unwrap();
        assert_eq!(restored.app_count(), 2);
        let app = restored.app(AppId::new(0));
        assert_eq!(app.name(), "shop");
        assert_eq!(app.service_count(), 2);
        assert_eq!(app.services()[0].replicas, 2);
        assert_eq!(app.services()[0].demand, Resources::new(2.0, 4.0));
        assert_eq!(app.services()[1].criticality, None);
        assert_eq!(app.dependency().unwrap().edges().count(), 1);
        assert_eq!(app.price_per_unit(), 2.5);
        let legacy = restored.app(AppId::new(1));
        assert!(!legacy.phoenix_enabled());
        assert_eq!(legacy.criticality_of(ServiceId::new(0)), Criticality::C1);

        let w = modal();
        let restored = from_json(&to_json(&w).unwrap()).unwrap();
        assert_eq!(restored.app(AppId::new(0)), w.app(AppId::new(0)));
    }

    #[test]
    fn restarted_controller_plans_identically_from_persisted_inputs() {
        use crate::controller::{PhoenixConfig, PhoenixController};
        use phoenix_cluster::ClusterState;
        let snap = |s: &ClusterState| {
            let mut v: Vec<_> = s
                .assignments()
                .map(|(p, n, d)| (p, n, d.cpu.to_bits()))
                .collect();
            v.sort();
            v
        };
        for (w, nodes) in [(sample(), 2), (modal(), 1)] {
            let state = ClusterState::homogeneous(nodes, Resources::new(3.0, 8.0));
            let before = PhoenixController::new(w.clone(), PhoenixConfig::default()).plan(&state);
            let restored = from_json(&to_json(&w).unwrap()).unwrap();
            let after = PhoenixController::new(restored, PhoenixConfig::default()).plan(&state);
            assert_eq!(snap(&before.target), snap(&after.target));
            assert_eq!(before.modes, after.modes);
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let doc = WorkloadDoc {
            version: 99,
            apps: vec![],
        };
        assert!(matches!(from_doc(&doc), Err(PersistError::Version(99))));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(from_json("{nope"), Err(PersistError::Json(_))));
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        assert!(matches!(from_json(&deep), Err(PersistError::Json(_))));
    }

    #[test]
    fn defaults_applied_on_sparse_documents() {
        let json = r#"{
            "version": 1,
            "apps": [{
                "name": "minimal",
                "services": [{"name": "svc", "cpu": 1.5}]
            }]
        }"#;
        let w = from_json(json).unwrap();
        let app = w.app(AppId::new(0));
        assert_eq!(app.services()[0].replicas, 1);
        assert_eq!(app.price_per_unit(), 1.0);
        assert!(app.phoenix_enabled());
        assert!(app.dependency().is_none());
    }

    /// Decodes one app `shop` holding one service `web` with `fields`.
    fn decode_service(fields: &str) -> Result<Workload, PersistError> {
        from_json(&format!(
            r#"{{"version": 1, "apps": [{{"name": "shop", "services": [{{"name": "web", {fields}}}]}}]}}"#
        ))
    }

    fn assert_field_error(fields: &str, want_field: &str, want_value: &str) {
        match decode_service(fields) {
            Err(PersistError::Field {
                app,
                service,
                field,
                value,
                ..
            }) => assert_eq!(
                (app.as_str(), service.as_str(), field, value.as_str()),
                ("shop", "web", want_field, want_value)
            ),
            other => panic!("{fields}: expected a {want_field} field error, got {other:?}"),
        }
    }

    #[test]
    fn criticality_zero_is_a_field_error_not_a_panic() {
        assert_field_error(r#""cpu": 1, "criticality": 0"#, "criticality", "0");
    }

    #[test]
    fn negative_demand_is_a_field_error_not_a_clamp() {
        assert_field_error(r#""cpu": -1"#, "cpu", "-1");
        assert_field_error(r#""cpu": 1, "mem": -0.5"#, "mem", "-0.5");
    }

    #[test]
    fn overflowing_demand_is_a_field_error_not_infinity() {
        assert_field_error(r#""cpu": 1e999"#, "cpu", "inf");
        assert_field_error(r#""cpu": 1, "mem": -1e999"#, "mem", "-inf");
    }

    #[test]
    fn unknown_mode_label_is_a_field_error() {
        assert_field_error(
            r#""cpu": 1, "modes": [{"mode": "turbo", "cpu": 1, "utility": 1}]"#,
            "mode",
            "turbo",
        );
    }

    #[test]
    fn invalid_spec_surfaces_as_spec_error() {
        let json = r#"{
            "version": 1,
            "apps": [{"name": "empty", "services": []}]
        }"#;
        assert!(matches!(from_json(json), Err(PersistError::Spec(_))));
    }
}
