//! Overleaf: the paper's flagship diagonal-scaling-compliant application.
//!
//! Overleaf is a collaborative LaTeX editor of 14 microservices (§3.2).
//! Edits flow over web sockets through `real-time` → `document-updater` →
//! `docstore`; most other features (compile, spell-check, chat, history…)
//! are REST services hanging off `web`. Its error handlers wrap downstream
//! calls, so turning off non-critical services leaves the rest working —
//! crash-proof by construction (§5).
//!
//! The evaluation runs three instances with different business metrics
//! (Table 4): `Overleaf0` cares about document edits, `Overleaf1` about
//! versioning, `Overleaf2` about PDF downloads; the criticality taggings
//! differ accordingly.

use phoenix_cluster::Resources;
use phoenix_core::spec::{AppSpecBuilder, ServiceId};
use phoenix_core::tags::Criticality;

use crate::catalog::{AppModel, RequestType};

/// Which business metric an Overleaf instance optimizes (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverleafVariant {
    /// Critical service: document edits per second.
    Edits,
    /// Critical service: version snapshots.
    Versions,
    /// Critical service: PDF downloads.
    Downloads,
}

/// The 14 microservices: `(name, cpu_weight)`.
const SERVICES: [(&str, f64); 14] = [
    ("web", 6.0),
    ("real-time", 4.0),
    ("document-updater", 4.0),
    ("docstore", 2.0),
    ("clsi", 4.0),
    ("spelling", 2.0),
    ("chat", 1.0),
    ("tags", 1.0),
    ("contacts", 1.0),
    ("filestore", 2.0),
    ("track-changes", 2.0),
    ("notifications", 1.0),
    ("project-history", 1.5),
    ("references", 0.5),
];

const WEB: usize = 0;
const REAL_TIME: usize = 1;
const DOC_UPDATER: usize = 2;
const DOCSTORE: usize = 3;
const CLSI: usize = 4;
const SPELLING: usize = 5;
const CHAT: usize = 6;
const TAGS: usize = 7;
const CONTACTS: usize = 8;
const FILESTORE: usize = 9;
const TRACK_CHANGES: usize = 10;
const NOTIFICATIONS: usize = 11;
const PROJECT_HISTORY: usize = 12;
const REFERENCES: usize = 13;

/// Caller → callee edges of the dependency graph.
const EDGES: [(usize, usize); 15] = [
    (WEB, REAL_TIME),
    (REAL_TIME, DOC_UPDATER),
    (DOC_UPDATER, DOCSTORE),
    (DOC_UPDATER, TRACK_CHANGES),
    (TRACK_CHANGES, PROJECT_HISTORY),
    (WEB, CLSI),
    (CLSI, FILESTORE),
    (WEB, SPELLING),
    (WEB, CHAT),
    (CHAT, NOTIFICATIONS),
    (WEB, TAGS),
    (WEB, CONTACTS),
    (WEB, FILESTORE),
    (WEB, REFERENCES),
    (WEB, DOCSTORE),
];

/// Criticality tagging per variant: service index → level.
fn tag(variant: OverleafVariant, service: usize) -> Criticality {
    use OverleafVariant::*;
    let level: u8 = match variant {
        Edits => match service {
            WEB | REAL_TIME | DOC_UPDATER | DOCSTORE => 1,
            CLSI | FILESTORE => 2,
            SPELLING => 3,
            TRACK_CHANGES | PROJECT_HISTORY => 4,
            _ => 5,
        },
        Versions => match service {
            WEB | REAL_TIME | DOC_UPDATER | DOCSTORE | TRACK_CHANGES | PROJECT_HISTORY => 1,
            CLSI | FILESTORE => 3,
            SPELLING => 4,
            _ => 5,
        },
        Downloads => match service {
            WEB | CLSI | FILESTORE | DOCSTORE => 1,
            REAL_TIME | DOC_UPDATER => 2,
            SPELLING => 4,
            _ => 5,
        },
    };
    Criticality::new(level)
}

fn sid(i: usize) -> ServiceId {
    ServiceId::new(i as u32)
}

/// Builds an Overleaf instance.
///
/// `scale` multiplies both resource demands and request rates, letting the
/// evaluation run instances with different resource distributions (§6.1,
/// "we tweak the parameters so each application's resource distribution
/// across containers is different").
pub fn overleaf(name: &str, variant: OverleafVariant, scale: f64) -> AppModel {
    let mut b = AppSpecBuilder::new(name);
    for (i, &(svc, cpu)) in SERVICES.iter().enumerate() {
        b.add_service(svc, Resources::cpu(cpu * scale), Some(tag(variant, i)), 1);
    }
    for &(f, t) in &EDGES {
        b.add_dependency(sid(f), sid(t));
    }
    let spec = b.build().expect("overleaf spec is valid");

    let req = |name: &str, path: &[usize], optional: &[usize], rate: f64| RequestType {
        name: name.into(),
        path: path.iter().map(|&i| sid(i)).collect(),
        optional: optional.iter().map(|&i| sid(i)).collect(),
        rate_rps: rate * scale,
        utility_full: 1.0,
        utility_degraded: 0.8,
    };
    let requests = vec![
        req(
            "edits",
            &[WEB, REAL_TIME, DOC_UPDATER, DOCSTORE],
            &[],
            100.0,
        ),
        req("compile", &[WEB, CLSI, FILESTORE], &[], 10.0),
        req("spell_check", &[WEB, SPELLING], &[], 30.0),
        req(
            "versioning",
            &[WEB, REAL_TIME, DOC_UPDATER, TRACK_CHANGES, PROJECT_HISTORY],
            &[],
            10.0,
        ),
        req("chat", &[WEB, CHAT, NOTIFICATIONS], &[NOTIFICATIONS], 5.0),
        req("downloads", &[WEB, FILESTORE], &[], 8.0),
        req("tagging", &[WEB, TAGS], &[], 2.0),
        req("contacts", &[WEB, CONTACTS], &[], 1.0),
        req("references", &[WEB, REFERENCES], &[], 1.0),
    ];
    let critical_request = match variant {
        OverleafVariant::Edits => 0,
        OverleafVariant::Versions => 3,
        OverleafVariant::Downloads => 5,
    };
    let model = AppModel {
        spec,
        requests,
        crash_proof: true, // §5: Overleaf is crash-proof out of the box
        critical_request,
    };
    debug_assert!(model.validate().is_ok());
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_services_with_dg() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        assert_eq!(m.spec.service_count(), 14);
        assert!(m.spec.dependency().is_some());
        m.validate().unwrap();
        assert_eq!(m.critical().name, "edits");
    }

    #[test]
    fn edit_path_is_fully_c1_for_edits_variant() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        for &i in &[WEB, REAL_TIME, DOC_UPDATER, DOCSTORE] {
            assert_eq!(m.spec.criticality_of(sid(i)), Criticality::C1, "svc {i}");
        }
        assert_eq!(m.spec.criticality_of(sid(CHAT)), Criticality::C5);
    }

    #[test]
    fn variants_shift_c1_sets() {
        let v = overleaf("o", OverleafVariant::Versions, 1.0);
        assert_eq!(v.spec.criticality_of(sid(TRACK_CHANGES)), Criticality::C1);
        let d = overleaf("o", OverleafVariant::Downloads, 1.0);
        assert_eq!(d.spec.criticality_of(sid(FILESTORE)), Criticality::C1);
        assert_eq!(d.critical().name, "downloads");
    }

    #[test]
    fn works_with_c5_services_off_crash_proof() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        // Turn off every C5 service: edits keep flowing (the §3.2 demo).
        let up = |s: ServiceId| !matches!(m.spec.criticality_of(s), c if c == Criticality::C5);
        assert!(m.critical_goal_met(up));
        // But chat (whose path includes a C5 service) is down.
        let chat = &m.outcomes(up)[4];
        assert_eq!(chat.served_rps, 0.0);
    }

    #[test]
    fn scale_multiplies_demands_and_rates() {
        let base = overleaf("o", OverleafVariant::Edits, 1.0);
        let big = overleaf("o", OverleafVariant::Edits, 2.0);
        assert!((big.spec.total_demand().cpu - 2.0 * base.spec.total_demand().cpu).abs() < 1e-9);
        assert_eq!(big.requests[0].rate_rps, 200.0);
    }

    #[test]
    fn c1_share_near_sixty_percent() {
        // Fig. 9: the C1:rest split across instances is ≈60:40.
        let m = overleaf("o", OverleafVariant::Versions, 1.0);
        let c1 = m.spec.demand_at_criticality(Criticality::C1).cpu;
        let total = m.spec.total_demand().cpu;
        let share = c1 / total;
        assert!((0.5..0.7).contains(&share), "C1 share {share}");
    }
}
