//! Fluid-rate load generation (the Locust/wrk2 stand-in).
//!
//! The paper's plots are requests-per-second per request type, sampled
//! every few seconds — not per-request packets. A fluid model computes
//! served RPS from which services are up at each tick, plus a *backlog*
//! term: while a service is down its work queues up, and on recovery the
//! pending requests drain at above-nominal rate — the sharp spell-check
//! spike right after the 1500 s mark in Fig. 6c.

use phoenix_core::spec::ServiceId;

use crate::catalog::AppModel;

/// Backlog behaviour for interrupted request types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacklogConfig {
    /// Accumulate unserved offered load and drain it after recovery?
    pub enabled: bool,
    /// Serving rate during drain, as a multiple of the nominal rate
    /// (e.g. 1.5 = 50 % overdrive until the backlog clears).
    pub drain_factor: f64,
    /// Cap on accumulated backlog, in seconds of nominal load.
    pub max_backlog_secs: f64,
}

impl Default for BacklogConfig {
    fn default() -> BacklogConfig {
        BacklogConfig {
            enabled: true,
            drain_factor: 1.5,
            max_backlog_secs: 120.0,
        }
    }
}

/// Served-RPS / utility time series for one application.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadSeries {
    /// Sample times (seconds).
    pub times: Vec<f64>,
    /// `served[r][t]`: served RPS of request type `r` at tick `t`.
    pub served: Vec<Vec<f64>>,
    /// `utility[r][t]`: harvest per request at tick `t` (0 when failing).
    pub utility: Vec<Vec<f64>>,
}

/// Generates the series for `model`, asking `service_up(tick, service)` for
/// availability at each of `times` (seconds, ascending).
pub fn generate_series(
    model: &AppModel,
    times: &[f64],
    backlog_cfg: &BacklogConfig,
    mut service_up: impl FnMut(usize, ServiceId) -> bool,
) -> LoadSeries {
    let nreq = model.requests.len();
    let mut series = LoadSeries {
        times: times.to_vec(),
        served: vec![Vec::with_capacity(times.len()); nreq],
        utility: vec![Vec::with_capacity(times.len()); nreq],
    };
    let mut backlog = vec![0.0f64; nreq];
    for (tick, &t) in times.iter().enumerate() {
        let dt = if tick == 0 { 0.0 } else { t - times[tick - 1] };
        let outcomes = model.outcomes(|s| service_up(tick, s));
        for (r, o) in outcomes.iter().enumerate() {
            let mut served = o.served_rps;
            if backlog_cfg.enabled {
                let nominal = model.requests[r].rate_rps;
                if o.served_rps <= 0.0 {
                    backlog[r] =
                        (backlog[r] + nominal * dt).min(nominal * backlog_cfg.max_backlog_secs);
                } else if backlog[r] > 0.0 {
                    let extra_rate = nominal * (backlog_cfg.drain_factor - 1.0).max(0.0);
                    let drained = (extra_rate * dt).min(backlog[r]);
                    backlog[r] -= drained;
                    served += if dt > 0.0 { drained / dt } else { 0.0 };
                }
            }
            series.served[r].push(served);
            series.utility[r].push(o.utility);
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overleaf::{overleaf, OverleafVariant};

    fn times(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn steady_state_serves_nominal_rates() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let s = generate_series(&m, &times(10), &BacklogConfig::default(), |_, _| true);
        for (r, req) in m.requests.iter().enumerate() {
            assert!(s.served[r].iter().all(|&v| (v - req.rate_rps).abs() < 1e-9));
        }
        assert!(s.served.iter().flatten().any(|&v| v > 0.0));
    }

    #[test]
    fn outage_zeroes_series_then_backlog_spike() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        // Spelling down for ticks 3..=6, back at 7.
        let spelling = phoenix_core::spec::ServiceId::new(5);
        let s = generate_series(&m, &times(20), &BacklogConfig::default(), |tick, svc| {
            !(svc == spelling && (3..=6).contains(&tick))
        });
        let spell = 2; // request index of spell_check
        assert_eq!(s.served[spell][4], 0.0);
        let nominal = m.requests[spell].rate_rps;
        // Post-recovery drain exceeds nominal (the Fig. 6c spike)…
        assert!(
            s.served[spell][8] > nominal,
            "{} !> {}",
            s.served[spell][8],
            nominal
        );
        // …and eventually settles back to nominal.
        assert!((s.served[spell][19] - nominal).abs() < 1e-9);
        // Other request types are unaffected.
        assert!((s.served[0][4] - m.requests[0].rate_rps).abs() < 1e-9);
    }

    #[test]
    fn backlog_disabled_returns_to_nominal_without_spike() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let spelling = phoenix_core::spec::ServiceId::new(5);
        let cfg = BacklogConfig {
            enabled: false,
            ..BacklogConfig::default()
        };
        let s = generate_series(&m, &times(12), &cfg, |tick, svc| {
            !(svc == spelling && (3..=6).contains(&tick))
        });
        let nominal = m.requests[2].rate_rps;
        assert!((s.served[2][8] - nominal).abs() < 1e-9);
    }

    #[test]
    fn backlog_is_capped() {
        let m = overleaf("o", OverleafVariant::Edits, 1.0);
        let spelling = phoenix_core::spec::ServiceId::new(5);
        let cfg = BacklogConfig {
            max_backlog_secs: 2.0,
            ..BacklogConfig::default()
        };
        // Very long outage: backlog must not exceed 2 s of nominal load.
        let s = generate_series(&m, &times(300), &cfg, |tick, svc| {
            !(svc == spelling && (3..250).contains(&tick))
        });
        let nominal = m.requests[2].rate_rps;
        let extra: f64 = s.served[2].iter().map(|&v| (v - nominal).max(0.0)).sum();
        assert!(extra <= nominal * 2.0 + 1e-6, "extra {extra}");
    }

    #[test]
    fn utility_tracks_degradation() {
        let m = crate::hotel::hotel("hr", crate::hotel::HotelVariant::Reserve, 1.0).patched();
        let user = phoenix_core::spec::ServiceId::new(6);
        let s = generate_series(&m, &times(5), &BacklogConfig::default(), |tick, svc| {
            !(svc == user && tick >= 2)
        });
        let reserve = 2;
        assert_eq!(s.utility[reserve][1], 1.0);
        assert_eq!(s.utility[reserve][3], 0.8);
    }
}
