//! Property tests for the fluid load generator: conservation, bounds, and
//! backlog sanity under arbitrary availability patterns.

use phoenix_apps::loadgen::{generate_series, BacklogConfig};
use phoenix_apps::overleaf::{overleaf, OverleafVariant};
use phoenix_core::spec::ServiceId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Served RPS is bounded by nominal + drain overdrive, utilities stay
    /// in [0,1], and with backlog disabled served never exceeds nominal.
    #[test]
    fn series_bounds(
        down_mask in proptest::collection::vec(proptest::bool::ANY, 30),
        victim in 0u32..14,
        drain in 1.0f64..3.0,
    ) {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let times: Vec<f64> = (0..down_mask.len()).map(|i| i as f64).collect();
        let cfg = BacklogConfig { drain_factor: drain, ..BacklogConfig::default() };
        let s = generate_series(&m, &times, &cfg, |tick, svc| {
            !(svc == ServiceId::new(victim) && down_mask[tick])
        });
        for (r, req) in m.requests.iter().enumerate() {
            for (&served, &util) in s.served[r].iter().zip(&s.utility[r]) {
                prop_assert!(served >= -1e-9);
                prop_assert!(served <= req.rate_rps * drain + 1e-9,
                    "served {served} above overdrive for {}", req.name);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&util));
            }
        }
        // Total served never exceeds total offered (backlog only defers).
        let no_backlog = BacklogConfig { enabled: false, ..cfg };
        let s2 = generate_series(&m, &times, &no_backlog, |tick, svc| {
            !(svc == ServiceId::new(victim) && down_mask[tick])
        });
        for (r, req) in m.requests.iter().enumerate() {
            for &served in &s2.served[r] {
                prop_assert!(served <= req.rate_rps + 1e-9);
            }
            // With backlog, cumulative service is at least the no-backlog
            // cumulative (drain only adds).
            let with: f64 = s.served[r].iter().sum();
            let without: f64 = s2.served[r].iter().sum();
            prop_assert!(with >= without - 1e-6);
        }
    }

    /// All-up availability ⇒ exact nominal rates and full utility forever.
    #[test]
    fn steady_state_is_exact(n in 2usize..40) {
        let m = overleaf("o", OverleafVariant::Downloads, 1.0);
        let times: Vec<f64> = (0..n).map(|i| i as f64 * 5.0).collect();
        let s = generate_series(&m, &times, &BacklogConfig::default(), |_, _| true);
        for (r, req) in m.requests.iter().enumerate() {
            prop_assert!(s.served[r].iter().all(|&v| (v - req.rate_rps).abs() < 1e-9));
            prop_assert!(s.utility[r].iter().all(|&u| u == 1.0));
        }
        prop_assert!(s.served.iter().flatten().any(|&v| v > 0.0));
    }
}
