//! The declarative scenario model: a serializable description of one
//! failure scenario that compiles down to a kubesim event timeline.
//!
//! A [`ScenarioDoc`] is the persistence unit — a cluster shape, a horizon,
//! and a flat list of [`EventDoc`]s. The wire format is deliberately a
//! single tagged struct per event (`kind` string + the union of all
//! parameter fields, each defaulted and skipped when at its default) so
//! the vendored serde shim's named-field derive carries it, and the JSON
//! round-trips **exactly**: floats print in shortest-round-trip form and
//! defaulted fields are omitted symmetrically.

use std::error::Error;
use std::fmt;

use phoenix_cluster::Resources;
use phoenix_kubesim::scenario::{rack_members, zone_members, Scenario};
use phoenix_kubesim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Event-kind slugs accepted in [`EventDoc::kind`].
pub const EVENT_KINDS: [&str; 10] = [
    "kubelet_stop",
    "kubelet_start",
    "capacity_degrade",
    "capacity_restore",
    "flap",
    "demand_surge",
    "zone_outage",
    "zone_restore",
    "rack_outage",
    "rack_restore",
];

/// The [`EVENT_KINDS`] that *undo* damage: [`ScenarioDoc::first_disruption`]
/// skips them, the search likes to delay or delete them, and the
/// shrinker's deletion pass tries them first.
pub const RESTORE_KINDS: [&str; 4] = [
    "kubelet_start",
    "capacity_restore",
    "zone_restore",
    "rack_restore",
];

fn one_f64() -> f64 {
    1.0
}

fn is_one(v: &f64) -> bool {
    *v == 1.0
}

fn is_zero_f64(v: &f64) -> bool {
    *v == 0.0
}

fn is_zero_u32(v: &u32) -> bool {
    *v == 0
}

fn is_zero_u64(v: &u64) -> bool {
    *v == 0
}

/// One timed event: the `kind` slug selects which parameter fields are
/// meaningful; everything else stays at its default and is omitted from
/// the JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventDoc {
    /// When the event fires (milliseconds since scenario start).
    pub at_ms: u64,
    /// One of [`EVENT_KINDS`].
    pub kind: String,
    /// Target nodes (`kubelet_stop`/`kubelet_start`/`capacity_degrade`/
    /// `capacity_restore`/`flap`).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub nodes: Vec<u32>,
    /// Effective-capacity factor (`capacity_degrade`).
    #[serde(default = "one_f64", skip_serializing_if = "is_one")]
    pub factor: f64,
    /// Target application (`demand_surge`).
    #[serde(default, skip_serializing_if = "is_zero_u32")]
    pub app: u32,
    /// Per-replica demand multiplier (`demand_surge`).
    #[serde(default = "one_f64", skip_serializing_if = "is_one")]
    pub demand_factor: f64,
    /// Replica-count multiplier (`demand_surge`).
    #[serde(default = "one_f64", skip_serializing_if = "is_one")]
    pub replica_factor: f64,
    /// Stopped dwell time (`flap`).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub down_ms: u64,
    /// Serving dwell time (`flap`).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub up_ms: u64,
    /// Stop/start rounds (`flap`).
    #[serde(default, skip_serializing_if = "is_zero_u32")]
    pub cycles: u32,
    /// Max per-transition jitter (`flap`).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub jitter_ms: u64,
    /// Zone count (`zone_outage`/`zone_restore`) or rack count
    /// (`rack_outage`/`rack_restore`).
    #[serde(default, skip_serializing_if = "is_zero_u32")]
    pub zones: u32,
    /// The zone/rack index hit or restored.
    #[serde(default, skip_serializing_if = "is_zero_u32")]
    pub zone: u32,
}

impl EventDoc {
    /// A bare event of `kind` at `at_ms` with every parameter defaulted.
    pub fn new(at_ms: u64, kind: &str) -> EventDoc {
        EventDoc {
            at_ms,
            kind: kind.to_string(),
            nodes: Vec::new(),
            factor: 1.0,
            app: 0,
            demand_factor: 1.0,
            replica_factor: 1.0,
            down_ms: 0,
            up_ms: 0,
            cycles: 0,
            jitter_ms: 0,
            zones: 0,
            zone: 0,
        }
    }
}

/// One declarative scenario: cluster shape, horizon, event script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioDoc {
    /// Scenario name (unique within a suite by convention).
    pub name: String,
    /// Family slug (`"cascade"`, `"rolling-maintenance"`, …, or
    /// `"custom"` for hand-written scenarios).
    pub family: String,
    /// Number of (homogeneous) nodes.
    pub nodes: u32,
    /// Per-node CPU capacity.
    pub node_cpu: f64,
    /// Per-node memory capacity (0 = scalar CPU-only model).
    #[serde(default, skip_serializing_if = "is_zero_f64")]
    pub node_mem: f64,
    /// Simulation horizon in milliseconds.
    pub horizon_ms: u64,
    /// The timed script (any order; the simulator sorts).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub events: Vec<EventDoc>,
}

/// A persisted scenario suite: what the generators emit and the campaign
/// runner consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteDoc {
    /// Wire-format version.
    pub version: u32,
    /// The seed the suite was generated from (0 for hand-written suites).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub seed: u64,
    /// The scenarios, family-major.
    pub scenarios: Vec<ScenarioDoc>,
}

/// Errors from validating or decoding a scenario document.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The JSON was malformed.
    Json(String),
    /// Unsupported wire-format version.
    Version(u32),
    /// The scenario has no nodes or a non-positive capacity.
    BadCluster(String),
    /// An event referenced an unknown kind.
    UnknownKind {
        /// Scenario name.
        scenario: String,
        /// The offending slug.
        kind: String,
    },
    /// An event parameter was out of range for its kind.
    BadEvent {
        /// Scenario name.
        scenario: String,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "malformed scenario json: {e}"),
            ScenarioError::Version(v) => write!(f, "unsupported suite version {v}"),
            ScenarioError::BadCluster(d) => write!(f, "invalid cluster shape: {d}"),
            ScenarioError::UnknownKind { scenario, kind } => {
                write!(f, "scenario {scenario}: unknown event kind `{kind}`")
            }
            ScenarioError::BadEvent { scenario, detail } => {
                write!(f, "scenario {scenario}: {detail}")
            }
        }
    }
}

impl Error for ScenarioError {}

impl From<serde_json::Error> for ScenarioError {
    fn from(e: serde_json::Error) -> ScenarioError {
        ScenarioError::Json(e.to_string())
    }
}

impl ScenarioDoc {
    /// The simulation horizon as a [`SimTime`].
    pub fn horizon(&self) -> SimTime {
        SimTime::from_millis(self.horizon_ms)
    }

    /// Checks the document's internal consistency: known kinds, in-range
    /// node/zone indices, sane factors. This is [`compile`](ScenarioDoc::compile)
    /// with the compiled scenario dropped.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.compile().map(drop)
    }

    /// Compiles the document into a kubesim [`Scenario`], checking each
    /// event as it lowers it. Zone and rack events become kubelet stops
    /// and starts over their member nodes.
    ///
    /// Hardened against the degenerate shapes a shrinker (or a hand edit)
    /// can produce: empty names, zero or non-finite capacities, a zero
    /// horizon, events scheduled at/past the horizon, duplicate node ids,
    /// and non-finite or zero-duration event parameters are all rejected
    /// rather than silently compiled.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found, in event order.
    pub fn compile(&self) -> Result<Scenario, ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::BadCluster("empty scenario name".into()));
        }
        if self.nodes == 0
            || !self.node_cpu.is_finite()
            || self.node_cpu <= 0.0
            || !self.node_mem.is_finite()
            || self.node_mem < 0.0
        {
            return Err(ScenarioError::BadCluster(format!(
                "{}: nodes {} cpu {} mem {}",
                self.name, self.nodes, self.node_cpu, self.node_mem
            )));
        }
        let bad = |detail: String| ScenarioError::BadEvent {
            scenario: self.name.clone(),
            detail,
        };
        if self.horizon_ms == 0 {
            return Err(bad("zero simulation horizon".into()));
        }
        let mut s = Scenario::new(
            self.nodes as usize,
            Resources::new(self.node_cpu, self.node_mem),
        );
        for ev in &self.events {
            if !EVENT_KINDS.contains(&ev.kind.as_str()) {
                return Err(ScenarioError::UnknownKind {
                    scenario: self.name.clone(),
                    kind: ev.kind.clone(),
                });
            }
            if ev.at_ms >= self.horizon_ms {
                return Err(bad(format!(
                    "{}: fires at {} ms, at/past the {} ms horizon",
                    ev.kind, ev.at_ms, self.horizon_ms
                )));
            }
            if let Some(&n) = ev.nodes.iter().find(|&&n| n >= self.nodes) {
                return Err(bad(format!("{}: node {n} out of range", ev.kind)));
            }
            if (1..ev.nodes.len()).any(|i| ev.nodes[i..].contains(&ev.nodes[i - 1])) {
                return Err(bad(format!("{}: duplicate node id", ev.kind)));
            }
            let at = SimTime::from_millis(ev.at_ms);
            let nodes = || {
                if ev.nodes.is_empty() {
                    return Err(bad(format!("{}: empty node list", ev.kind)));
                }
                Ok(ev.nodes.iter().copied())
            };
            // The zone (or rack) count and index of a blast-radius event.
            let blast = || {
                if ev.zones == 0 || ev.zone >= ev.zones {
                    return Err(bad(format!(
                        "{}: zone {} of {}",
                        ev.kind, ev.zone, ev.zones
                    )));
                }
                Ok((ev.zones, ev.zone))
            };
            let n = s.node_count();
            match ev.kind.as_str() {
                "kubelet_stop" => {
                    s.kubelet_stop_at(at, nodes()?);
                }
                "kubelet_start" => {
                    s.kubelet_start_at(at, nodes()?);
                }
                "capacity_degrade" => {
                    let nodes = nodes()?;
                    if !(0.0..=1.0).contains(&ev.factor) {
                        return Err(bad(format!("capacity_degrade: factor {}", ev.factor)));
                    }
                    s.capacity_degrade_at(at, nodes, ev.factor);
                }
                "capacity_restore" => {
                    s.capacity_restore_at(at, nodes()?);
                }
                "flap" => {
                    if ev.nodes.is_empty() || ev.cycles == 0 || ev.down_ms == 0 || ev.up_ms == 0 {
                        return Err(bad(format!(
                            "flap: nodes {:?} cycles {} down {} up {}",
                            ev.nodes, ev.cycles, ev.down_ms, ev.up_ms
                        )));
                    }
                    s.flap_at(
                        at,
                        ev.nodes.iter().copied(),
                        SimTime::from_millis(ev.down_ms),
                        SimTime::from_millis(ev.up_ms),
                        ev.cycles,
                        ev.jitter_ms,
                    );
                }
                "demand_surge" => {
                    if !ev.demand_factor.is_finite()
                        || !ev.replica_factor.is_finite()
                        || ev.demand_factor <= 0.0
                        || ev.replica_factor <= 0.0
                    {
                        return Err(bad(format!(
                            "demand_surge: factors {} / {}",
                            ev.demand_factor, ev.replica_factor
                        )));
                    }
                    s.demand_surge_at(at, ev.app, ev.demand_factor, ev.replica_factor);
                }
                "zone_outage" => {
                    let (zones, zone) = blast()?;
                    s.zone_outage_at(at, zones, zone);
                }
                "zone_restore" => {
                    let (zones, zone) = blast()?;
                    s.kubelet_start_at(at, zone_members(n, zones, zone));
                }
                "rack_outage" => {
                    let (racks, rack) = blast()?;
                    s.rack_outage_at(at, racks, rack);
                }
                "rack_restore" => {
                    let (racks, rack) = blast()?;
                    s.kubelet_start_at(at, rack_members(n, racks, rack));
                }
                _ => unreachable!("kind checked against EVENT_KINDS"),
            }
        }
        Ok(s)
    }

    /// Checks that every `demand_surge` event targets an application the
    /// consumer's workload actually has — the doc-vs-workload contract a
    /// runner must enforce, or surges silently vanish mid-simulation and
    /// the surge families measure nothing.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadEvent`] naming the first out-of-range target.
    pub(crate) fn check_surge_targets(&self, app_count: usize) -> Result<(), ScenarioError> {
        for ev in &self.events {
            if ev.kind == "demand_surge" && (ev.app as usize) >= app_count {
                return Err(ScenarioError::BadEvent {
                    scenario: self.name.clone(),
                    detail: format!(
                        "demand_surge targets app {} but the workload has {app_count} app(s)",
                        ev.app
                    ),
                });
            }
        }
        Ok(())
    }

    /// First time any disruptive event fires (everything except restores),
    /// for RTO evaluation. `None` when the script never disrupts.
    pub fn first_disruption(&self) -> Option<SimTime> {
        self.events
            .iter()
            .filter(|e| !RESTORE_KINDS.contains(&e.kind.as_str()))
            .map(|e| SimTime::from_millis(e.at_ms))
            .min()
    }
}

impl SuiteDoc {
    /// Current wire-format version.
    pub const VERSION: u32 = 1;

    /// Validates every scenario in the suite.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Version`] for unknown versions, otherwise the
    /// first failing scenario's error.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.version != SuiteDoc::VERSION {
            return Err(ScenarioError::Version(self.version));
        }
        self.scenarios.iter().try_for_each(ScenarioDoc::validate)
    }

    /// [`ScenarioDoc::check_surge_targets`] for every scenario.
    ///
    /// # Errors
    ///
    /// The first scenario's [`ScenarioError::BadEvent`].
    pub(crate) fn check_surge_targets(&self, app_count: usize) -> Result<(), ScenarioError> {
        self.scenarios
            .iter()
            .try_for_each(|s| s.check_surge_targets(app_count))
    }
}

/// Serializes a suite to pretty JSON.
///
/// # Errors
///
/// Propagates the underlying serializer error (cannot happen for valid
/// docs).
pub fn to_json(suite: &SuiteDoc) -> Result<String, ScenarioError> {
    Ok(serde_json::to_string_pretty(suite)?)
}

/// Restores and validates a suite from JSON.
///
/// # Errors
///
/// [`ScenarioError::Json`] on malformed input plus anything
/// [`SuiteDoc::validate`] rejects.
pub fn from_json(json: &str) -> Result<SuiteDoc, ScenarioError> {
    let suite: SuiteDoc = serde_json::from_str(json)?;
    suite.validate()?;
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioDoc {
        ScenarioDoc {
            name: "hand".into(),
            family: "custom".into(),
            nodes: 6,
            node_cpu: 8.0,
            node_mem: 0.0,
            horizon_ms: 1_800_000,
            events: vec![
                EventDoc {
                    nodes: vec![4, 5],
                    ..EventDoc::new(300_000, "kubelet_stop")
                },
                EventDoc {
                    nodes: vec![0, 1],
                    factor: 0.5,
                    ..EventDoc::new(400_000, "capacity_degrade")
                },
                EventDoc {
                    nodes: vec![3],
                    down_ms: 60_000,
                    up_ms: 120_000,
                    cycles: 2,
                    jitter_ms: 5_000,
                    ..EventDoc::new(500_000, "flap")
                },
                EventDoc {
                    app: 1,
                    demand_factor: 1.5,
                    replica_factor: 2.0,
                    ..EventDoc::new(600_000, "demand_surge")
                },
                EventDoc {
                    zones: 3,
                    zone: 2,
                    ..EventDoc::new(700_000, "zone_outage")
                },
                EventDoc {
                    nodes: vec![4, 5],
                    ..EventDoc::new(1_200_000, "kubelet_start")
                },
            ],
        }
    }

    #[test]
    fn round_trips_exactly_through_json() {
        let suite = SuiteDoc {
            version: SuiteDoc::VERSION,
            seed: 42,
            scenarios: vec![sample()],
        };
        let json = to_json(&suite).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back, suite);
        // Printing the parse reproduces the text byte-for-byte.
        assert_eq!(to_json(&back).unwrap(), json);
    }

    #[test]
    fn compiles_to_kubesim_events() {
        let s = sample().compile().unwrap();
        assert_eq!(s.node_count(), 6);
        assert_eq!(s.events.len(), 6);
        assert_eq!(
            sample().first_disruption(),
            Some(SimTime::from_millis(300_000))
        );
    }

    #[test]
    fn compile_lowers_zone_and_rack_events_to_stop_start() {
        let mut d = sample();
        d.nodes = 10;
        d.events = ["zone_outage", "zone_restore", "rack_outage", "rack_restore"]
            .into_iter()
            .enumerate()
            .map(|(i, kind)| EventDoc {
                zones: 3,
                zone: 2,
                ..EventDoc::new(100_000 * (i as u64 + 1), kind)
            })
            .collect();
        let at = |i: u64| SimTime::from_millis(100_000 * i);
        let mut explicit = Scenario::new(10, Resources::cpu(8.0));
        explicit.kubelet_stop_at(at(1), zone_members(10, 3, 2));
        explicit.kubelet_start_at(at(2), zone_members(10, 3, 2));
        explicit.kubelet_stop_at(at(3), rack_members(10, 3, 2));
        explicit.kubelet_start_at(at(4), rack_members(10, 3, 2));
        assert_eq!(d.compile().unwrap(), explicit);
    }

    /// A flap whose down time saturates the clock stays down to the
    /// horizon: its restart is scheduled past every horizon, never wrapped
    /// into the past.
    #[test]
    fn flap_down_forever_stays_down_at_the_horizon() {
        use phoenix_core::policies::PhoenixPolicy;
        use phoenix_kubesim::run::{simulate, MilestoneKind, SimConfig};

        let d = ScenarioDoc {
            name: "down-forever".into(),
            family: "custom".into(),
            nodes: 4,
            node_cpu: 8.0,
            node_mem: 0.0,
            horizon_ms: 600_000,
            events: vec![EventDoc {
                nodes: vec![0, 1, 2, 3],
                down_ms: u64::MAX,
                up_ms: 60_000,
                cycles: 2,
                jitter_ms: 1_000,
                ..EventDoc::new(100_000, "flap")
            }],
        };
        let scenario = d.compile().expect("validates");
        let w = crate::campaign::demo_workload(2);
        let cfg = SimConfig::default();
        let trace = simulate(&w, &PhoenixPolicy::fair(), &scenario, &cfg, d.horizon());
        let failure = trace.first_kind(MilestoneKind::Failure);
        assert_eq!(failure, Some(SimTime::from_millis(100_000)));
        assert_eq!(trace.first_kind(MilestoneKind::NodesRestored), None);
        assert_eq!(trace.samples.last().map(|s| s.at), Some(d.horizon()));
        assert!(trace.serving_at(d.horizon()).is_empty());
    }

    #[test]
    fn validation_rejects_bad_documents() {
        let mut d = sample();
        d.events[0].nodes = vec![9];
        assert!(matches!(d.validate(), Err(ScenarioError::BadEvent { .. })));

        let mut d = sample();
        d.events[1].factor = 1.5;
        assert!(d.validate().is_err());

        let mut d = sample();
        d.events[4].zone = 3;
        assert!(d.validate().is_err());

        let mut d = sample();
        d.events[2].cycles = 0;
        assert!(d.validate().is_err());

        let mut d = sample();
        d.events[0].kind = "meteor_strike".into();
        assert!(matches!(
            d.validate(),
            Err(ScenarioError::UnknownKind { .. })
        ));

        let mut d = sample();
        d.nodes = 0;
        assert!(matches!(d.validate(), Err(ScenarioError::BadCluster(_))));

        let suite = SuiteDoc {
            version: 99,
            seed: 0,
            scenarios: vec![],
        };
        assert!(matches!(suite.validate(), Err(ScenarioError::Version(99))));
    }

    /// The degenerate shapes a shrinker can emit: every one either
    /// round-trips exactly (when legal) or is rejected by `validate`
    /// (when a hostile hand edit could otherwise sneak it through).
    #[test]
    fn adversarial_shrinker_shapes_round_trip_or_are_rejected() {
        // Empty event list: legal (a scenario that never disrupts),
        // serializes without an `events` key, and restores exactly.
        let mut d = sample();
        d.events.clear();
        d.validate().unwrap();
        assert_eq!(d.first_disruption(), None);
        let suite = SuiteDoc {
            version: SuiteDoc::VERSION,
            seed: 0,
            scenarios: vec![d],
        };
        let json = to_json(&suite).unwrap();
        assert!(!json.contains("\"events\""));
        assert_eq!(from_json(&json).unwrap(), suite);

        // Degenerate single-node topology: legal and exact.
        let d = ScenarioDoc {
            name: "one-node".into(),
            family: "custom".into(),
            nodes: 1,
            node_cpu: 1.0,
            node_mem: 0.0,
            horizon_ms: 60_000,
            events: vec![EventDoc {
                nodes: vec![0],
                ..EventDoc::new(1_000, "kubelet_stop")
            }],
        };
        d.validate().unwrap();
        let suite = SuiteDoc {
            version: SuiteDoc::VERSION,
            seed: 0,
            scenarios: vec![d],
        };
        let json = to_json(&suite).unwrap();
        assert_eq!(from_json(&json).unwrap(), suite);
        assert_eq!(to_json(&from_json(&json).unwrap()).unwrap(), json);

        // Zero-duration flap: rejected, never silently compiled.
        let mut d = sample();
        d.events[2].down_ms = 0;
        assert!(matches!(d.validate(), Err(ScenarioError::BadEvent { .. })));
        let mut d = sample();
        d.events[2].up_ms = 0;
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_documents() {
        // Empty scenario name.
        let mut d = sample();
        d.name.clear();
        assert!(matches!(d.validate(), Err(ScenarioError::BadCluster(_))));

        // Zero horizon.
        let mut d = sample();
        d.horizon_ms = 0;
        assert!(matches!(d.validate(), Err(ScenarioError::BadEvent { .. })));

        // An event scheduled at (or past) the horizon.
        let mut d = sample();
        d.horizon_ms = d.events[0].at_ms;
        assert!(d.validate().is_err());

        // Duplicate node ids in one event.
        let mut d = sample();
        d.events[0].nodes = vec![4, 4];
        assert!(d.validate().is_err());

        // Non-finite cluster capacities and surge factors.
        let mut d = sample();
        d.node_cpu = f64::NAN;
        assert!(d.validate().is_err());
        let mut d = sample();
        d.node_cpu = f64::INFINITY;
        assert!(d.validate().is_err());
        let mut d = sample();
        d.node_mem = f64::NAN;
        assert!(d.validate().is_err());
        let mut d = sample();
        d.events[3].demand_factor = f64::INFINITY;
        assert!(d.validate().is_err());
        let mut d = sample();
        d.events[3].replica_factor = f64::NAN;
        assert!(d.validate().is_err());
        let mut d = sample();
        d.events[1].factor = f64::NAN;
        assert!(d.validate().is_err());
    }

    #[test]
    fn surge_targets_checked_against_app_count() {
        let suite = SuiteDoc {
            version: SuiteDoc::VERSION,
            seed: 0,
            scenarios: vec![sample()],
        };
        // sample()'s surge targets app 1: fine with 2 apps, not with 1.
        suite.check_surge_targets(2).unwrap();
        assert!(matches!(
            suite.check_surge_targets(1),
            Err(ScenarioError::BadEvent { .. })
        ));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(from_json("{nope"), Err(ScenarioError::Json(_))));
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        assert!(matches!(from_json(&deep), Err(ScenarioError::Json(_))));
    }

    #[test]
    fn defaults_omitted_and_restored() {
        let suite = SuiteDoc {
            version: SuiteDoc::VERSION,
            seed: 0,
            scenarios: vec![sample()],
        };
        let json = to_json(&suite).unwrap();
        // Defaulted fields never appear in the wire text…
        assert!(!json.contains("\"seed\""));
        assert!(!json.contains("\"node_mem\""));
        assert!(!json.contains("\"jitter_ms\": 0"));
        // …and parse back to their defaults.
        let back = from_json(&json).unwrap();
        assert_eq!(back.seed, 0);
        assert_eq!(back.scenarios[0].events[0].factor, 1.0);
    }
}
