//! Property tests for the fluid load generator: conservation, bounds, and
//! backlog sanity under arbitrary availability patterns.

use phoenix_apps::loadgen::generate_series;
use phoenix_apps::overleaf::{overleaf, OverleafVariant};
use phoenix_core::spec::ServiceId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Served RPS is bounded by nominal + the 1.5x drain overdrive,
    /// utilities stay in [0,1], and the backlog only defers: cumulative
    /// service is at least what the model serves with no backlog.
    #[test]
    fn series_bounds(
        down_mask in proptest::collection::vec(proptest::bool::ANY, 30),
        victim in 0u32..14,
    ) {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let times: Vec<f64> = (0..down_mask.len()).map(|i| i as f64).collect();
        let up = |tick: usize, svc: ServiceId| !(svc == ServiceId::new(victim) && down_mask[tick]);
        let s = generate_series(&m, &times, up);
        for (r, req) in m.requests.iter().enumerate() {
            for (&served, &util) in s.served[r].iter().zip(&s.utility[r]) {
                prop_assert!(served >= -1e-9);
                prop_assert!(served <= req.rate_rps * 1.5 + 1e-9,
                    "served {served} above overdrive for {}", req.name);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&util));
            }
        }
        // Without a backlog each tick serves what the model's outcomes
        // say, never above nominal.
        let no_backlog: Vec<Vec<f64>> = (0..times.len())
            .map(|tick| m.outcomes(|svc| up(tick, svc)).iter().map(|o| o.served_rps).collect())
            .collect();
        for (r, req) in m.requests.iter().enumerate() {
            prop_assert!(no_backlog.iter().all(|tick| tick[r] <= req.rate_rps + 1e-9));
            let with: f64 = s.served[r].iter().sum();
            let without: f64 = no_backlog.iter().map(|tick| tick[r]).sum();
            prop_assert!(with >= without - 1e-6);
        }
    }

    /// All-up availability ⇒ exact nominal rates and full utility forever.
    #[test]
    fn steady_state_is_exact(n in 2usize..40) {
        let m = overleaf("o", OverleafVariant::Downloads, 1.0);
        let times: Vec<f64> = (0..n).map(|i| i as f64 * 5.0).collect();
        let s = generate_series(&m, &times, |_, _| true);
        for (r, req) in m.requests.iter().enumerate() {
            prop_assert!(s.served[r].iter().all(|&v| (v - req.rate_rps).abs() < 1e-9));
            prop_assert!(s.utility[r].iter().all(|&u| u == 1.0));
        }
        prop_assert!(s.served.iter().flatten().any(|&v| v > 0.0));
    }
}
