//! The persisted RTO regression suite: minimal repros that hunts found
//! and the shrinker reduced, pinned forever.
//!
//! Each file under `crates/scenarios/regressions/` is one
//! [`RegressionDoc`]: a shrunk [`ScenarioDoc`], the policy it defeats,
//! the workload size it ran against, and the exact
//! [`ViolationSignature`] observed at capture time. The always-on
//! harness (`tests/regression_suite.rs`) replays every file through
//! [`replay`] and asserts the signature byte-for-byte — so a planner or
//! simulator change that silently *changes* a known failure (better or
//! worse) fails tier-1 until the repro is re-captured deliberately.
//!
//! Files are discovered by directory scan in filename order, so adding a
//! repro is `scenario_hunt --smoke` plus `git add` — no registry edits.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use phoenix_core::policies::{standard_roster, ResiliencePolicy};
use serde::{Deserialize, Serialize};

use crate::campaign::demo_workload;
use crate::model::{ScenarioDoc, ScenarioError};
use crate::search::{signature_of, ViolationSignature};

/// One persisted minimal repro.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionDoc {
    /// Wire-format version ([`RegressionDoc::VERSION`]).
    pub version: u32,
    /// Repro name; by convention `{scenario}--{policy}` and equal to the
    /// file stem.
    pub name: String,
    /// Roster name of the policy that violates ([`standard_roster`]).
    pub policy: String,
    /// `demo_workload` size the repro runs against.
    pub apps: u32,
    /// Where the repro came from (free-form: hunt seed, baseline sweep…).
    pub origin: String,
    /// The pinned violation, asserted on every replay.
    pub signature: ViolationSignature,
    /// The shrunk scenario itself.
    pub scenario: ScenarioDoc,
}

impl RegressionDoc {
    /// Current wire-format version.
    pub const VERSION: u32 = 1;
}

/// The checked-in regressions directory,
/// `crates/scenarios/regressions/`.
pub fn regressions_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("regressions")
}

/// Loads every `*.json` repro under `dir`, in filename order (so replay
/// order — and any probe output built from it — is stable across
/// filesystems).
///
/// # Errors
///
/// I/O errors from the scan, [`ScenarioError::Json`]/`Version` for
/// undecodable files — a corrupt repro must fail loudly, not vanish.
pub fn load_all(dir: &Path) -> io::Result<Vec<RegressionDoc>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            paths.push(path);
        }
    }
    paths.sort();
    let mut docs = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)?;
        let doc =
            decode(&text).map_err(|e| io::Error::other(format!("{}: {e}", path.display())))?;
        docs.push(doc);
    }
    Ok(docs)
}

/// Decodes and validates one repro.
///
/// # Errors
///
/// [`ScenarioError::Json`] on malformed text, `Version` on unknown
/// versions, `BadEvent` for a `demand_surge` on an app past the `apps`
/// that [`replay`] runs, plus anything [`ScenarioDoc::validate`] rejects.
pub fn decode(json: &str) -> Result<RegressionDoc, ScenarioError> {
    let doc: RegressionDoc = serde_json::from_str(json)?;
    if doc.version != RegressionDoc::VERSION {
        return Err(ScenarioError::Version(doc.version));
    }
    doc.scenario.validate()?;
    doc.scenario.check_surge_targets(doc.apps.max(1) as usize)?;
    Ok(doc)
}

/// Encodes a repro as the pretty JSON that gets checked in.
///
/// # Errors
///
/// Propagates the serializer error (cannot happen for valid docs).
pub fn encode(doc: &RegressionDoc) -> Result<String, ScenarioError> {
    Ok(serde_json::to_string_pretty(doc)?)
}

/// Resolves a roster policy by display name.
pub fn policy_by_name(name: &str) -> Option<Box<dyn ResiliencePolicy>> {
    standard_roster().into_iter().find(|p| p.name() == name)
}

/// Replays one repro and returns the freshly observed signature; the
/// harness compares it against [`RegressionDoc::signature`].
///
/// # Errors
///
/// [`ScenarioError::BadCluster`] when the policy name is unknown,
/// otherwise whatever [`signature_of`] reports.
pub fn replay(doc: &RegressionDoc) -> Result<ViolationSignature, ScenarioError> {
    let policy = policy_by_name(&doc.policy).ok_or_else(|| {
        ScenarioError::BadCluster(format!("{}: unknown policy {}", doc.name, doc.policy))
    })?;
    let workload = demo_workload(doc.apps.max(1));
    signature_of(&workload, &doc.scenario, policy.as_ref(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EventDoc;

    fn repro() -> RegressionDoc {
        RegressionDoc {
            version: RegressionDoc::VERSION,
            name: "crunch--Default".into(),
            policy: "Default".into(),
            apps: 2,
            origin: "test".into(),
            signature: ViolationSignature {
                severity_ms: 1,
                outages: 1,
                violations: 1,
                worst_c1_recovery_ms: None,
            },
            scenario: ScenarioDoc {
                name: "crunch".into(),
                family: "custom".into(),
                nodes: 4,
                node_cpu: 4.0,
                node_mem: 0.0,
                horizon_ms: 600_000,
                events: vec![EventDoc {
                    nodes: vec![0, 1],
                    ..EventDoc::new(60_000, "kubelet_stop")
                }],
            },
        }
    }

    #[test]
    fn repros_round_trip_exactly() {
        let doc = repro();
        let json = encode(&doc).unwrap();
        let back = decode(&json).unwrap();
        assert_eq!(back, doc);
        assert_eq!(encode(&back).unwrap(), json);
    }

    #[test]
    fn decode_rejects_bad_versions_and_bad_scenarios() {
        let mut doc = repro();
        doc.version = 9;
        let json = serde_json::to_string_pretty(&doc).unwrap();
        assert!(matches!(decode(&json), Err(ScenarioError::Version(9))));

        let mut doc = repro();
        doc.scenario.events[0].nodes = vec![99];
        let json = serde_json::to_string_pretty(&doc).unwrap();
        assert!(decode(&json).is_err());
    }

    /// `replay` runs `demo_workload(apps)`, and the simulator ignores a
    /// surge on an app that workload lacks: such a repro would pin a
    /// signature in which its surge never happened.
    #[test]
    fn decode_rejects_a_surge_past_the_replayed_apps() {
        let mut doc = repro();
        doc.scenario.events.push(EventDoc {
            app: 2,
            demand_factor: 2.0,
            ..EventDoc::new(90_000, "demand_surge")
        });
        let json = serde_json::to_string_pretty(&doc).unwrap();
        assert!(
            matches!(decode(&json), Err(ScenarioError::BadEvent { .. })),
            "surge on app 2 of 2 decoded"
        );
        doc.apps = 3;
        let json = serde_json::to_string_pretty(&doc).unwrap();
        assert_eq!(decode(&json).unwrap(), doc);
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        assert!(matches!(decode(&deep), Err(ScenarioError::Json(_))));
    }

    #[test]
    fn replay_resolves_policies_by_roster_name() {
        let doc = repro();
        let sig = replay(&doc).unwrap();
        // Two of four nodes down under Default: the replay yields *some*
        // deterministic signature (asserted exactly by the harness once a
        // real repro is captured).
        assert_eq!(sig, replay(&doc).unwrap());

        let mut doc = repro();
        doc.policy = "Nonexistent".into();
        assert!(replay(&doc).is_err());
    }

    #[test]
    fn load_all_reads_the_checked_in_directory() {
        let dir = regressions_dir();
        let docs = load_all(&dir).unwrap();
        // Filename order and stem==name convention.
        let mut names: Vec<String> = docs.iter().map(|d| d.name.clone()).collect();
        let sorted = {
            let mut s = names.clone();
            s.sort();
            s
        };
        assert_eq!(names, sorted);
        names.dedup();
        assert_eq!(names.len(), docs.len(), "duplicate repro names");
    }
}
