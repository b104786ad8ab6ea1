//! HotelReservation from DeathStarBench (§5, §6.1).
//!
//! Eight stateless microservices (the MongoDB/memcached backends live on a
//! separate stateful cluster, as the paper assumes). Unlike Overleaf, the
//! shipped application is **not** crash-proof: the frontend crashes
//! requests when downstream services like `user` are unreachable. The
//! paper adds error-handling logic so that e.g. reservations proceed as a
//! guest when `user` is off (utility 0.8, Fig. 6f); [`hotel`] builds the
//! as-shipped model and [`AppModel::patched`] applies that fix.
//!
//! [`AppModel::patched`]: crate::catalog::AppModel::patched

use phoenix_cluster::Resources;
use phoenix_core::spec::{AppSpecBuilder, ServiceId};
use phoenix_core::tags::Criticality;

use crate::catalog::{AppModel, RequestType};

/// Which business metric an HR instance optimizes (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotelVariant {
    /// Critical service: hotel search.
    Search,
    /// Critical service: reservations.
    Reserve,
}

/// `(name, cpu_weight)` of the stateless services.
const SERVICES: [(&str, f64); 8] = [
    ("frontend", 5.0),
    ("search", 4.0),
    ("geo", 2.0),
    ("rate", 2.0),
    ("profile", 2.0),
    ("recommendation", 2.0),
    ("user", 2.0),
    ("reservation", 3.0),
];

const FRONTEND: usize = 0;
const SEARCH: usize = 1;
const GEO: usize = 2;
const RATE: usize = 3;
const PROFILE: usize = 4;
const RECOMMENDATION: usize = 5;
const USER: usize = 6;
const RESERVATION: usize = 7;

const EDGES: [(usize, usize); 8] = [
    (FRONTEND, SEARCH),
    (SEARCH, GEO),
    (SEARCH, RATE),
    (FRONTEND, PROFILE),
    (FRONTEND, RECOMMENDATION),
    (RECOMMENDATION, PROFILE),
    (FRONTEND, USER),
    (FRONTEND, RESERVATION),
];

fn tag(variant: HotelVariant, service: usize) -> Criticality {
    use HotelVariant::*;
    let level: u8 = match variant {
        Search => match service {
            FRONTEND | SEARCH | GEO | RATE | PROFILE => 1,
            RESERVATION => 2,
            USER => 3,
            _ => 5,
        },
        Reserve => match service {
            FRONTEND | RESERVATION => 1,
            SEARCH | GEO | RATE | PROFILE => 2,
            USER => 3,
            _ => 5,
        },
    };
    Criticality::new(level)
}

fn sid(i: usize) -> ServiceId {
    ServiceId::new(i as u32)
}

/// Builds a HotelReservation instance **as shipped** (crash-prone).
///
/// Apply [`AppModel::patched`] for the diagonal-scaling-compliant version
/// used in the CloudLab runs.
///
/// [`AppModel::patched`]: crate::catalog::AppModel::patched
pub fn hotel(name: &str, variant: HotelVariant, scale: f64) -> AppModel {
    let mut b = AppSpecBuilder::new(name);
    for (i, &(svc, cpu)) in SERVICES.iter().enumerate() {
        b.add_service(svc, Resources::cpu(cpu * scale), Some(tag(variant, i)), 1);
    }
    for &(f, t) in &EDGES {
        b.add_dependency(sid(f), sid(t));
    }
    let spec = b.build().expect("hotel spec is valid");

    let req =
        |name: &str, path: &[usize], optional: &[usize], rate: f64, degraded: f64| RequestType {
            name: name.into(),
            path: path.iter().map(|&i| sid(i)).collect(),
            optional: optional.iter().map(|&i| sid(i)).collect(),
            rate_rps: rate * scale,
            utility_full: 1.0,
            utility_degraded: degraded,
        };
    let requests = vec![
        req(
            "search",
            &[FRONTEND, SEARCH, GEO, RATE, PROFILE],
            &[],
            60.0,
            1.0,
        ),
        req(
            "recommend",
            &[FRONTEND, RECOMMENDATION, PROFILE],
            &[],
            20.0,
            1.0,
        ),
        // Reserving as a guest when `user` is off: utility 0.8 (Fig. 6f).
        req(
            "reserve",
            &[FRONTEND, RESERVATION, USER],
            &[USER],
            20.0,
            0.8,
        ),
        req("login", &[FRONTEND, USER], &[], 10.0, 1.0),
    ];
    let critical_request = match variant {
        HotelVariant::Search => 0,
        HotelVariant::Reserve => 2,
    };
    let model = AppModel {
        spec,
        requests,
        crash_proof: false, // as shipped: no robust error handling (§5)
        critical_request,
    };
    debug_assert!(model.validate().is_ok());
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_variants() {
        let m = hotel("hr", HotelVariant::Search, 1.0);
        assert_eq!(m.spec.service_count(), 8);
        m.validate().unwrap();
        assert_eq!(m.critical().name, "search");
        let r = hotel("hr", HotelVariant::Reserve, 1.0);
        assert_eq!(r.critical().name, "reserve");
        assert_eq!(r.spec.criticality_of(sid(RESERVATION)), Criticality::C1);
    }

    #[test]
    fn shipped_hr_crashes_without_user_service() {
        let m = hotel("hr", HotelVariant::Reserve, 1.0);
        let up = |s: ServiceId| s != sid(USER);
        // As shipped: reserve crashes even though `user` is "optional".
        assert!(!m.critical_goal_met(up));
    }

    #[test]
    fn patched_hr_reserves_as_guest() {
        let m = hotel("hr", HotelVariant::Reserve, 1.0).patched();
        let up = |s: ServiceId| s != sid(USER);
        assert!(m.critical_goal_met(up));
        let reserve = &m.outcomes(up)[2];
        assert_eq!(reserve.utility, 0.8, "guest-mode harvest drop (Fig. 6f)");
        // Login (user required) is down either way.
        assert_eq!(m.outcomes(up)[3].served_rps, 0.0);
    }

    #[test]
    fn search_needs_whole_fanout() {
        let m = hotel("hr", HotelVariant::Search, 1.0).patched();
        let up = |s: ServiceId| s != sid(RATE);
        assert!(!m.critical_goal_met(up), "search requires geo+rate+profile");
    }

    #[test]
    fn recommendation_is_sheddable() {
        let m = hotel("hr", HotelVariant::Search, 1.0).patched();
        let up = |s: ServiceId| s != sid(RECOMMENDATION);
        assert!(m.critical_goal_met(up));
        assert_eq!(m.outcomes(up)[1].served_rps, 0.0);
    }
}
