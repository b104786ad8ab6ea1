//! Pod lifecycle latency model.
//!
//! The paper's end-to-end recovery time is dominated by pod deletion and
//! startup latencies (§6.1: "the time elapsed between executing action (t3)
//! and completion (t4) can vary depending on the pod deletion and startup
//! times"). We model each as a log-normal around configurable medians —
//! the standard shape for container start times (image pull + runtime
//! init) — sampled per action from a deterministic RNG.

use rand::Rng;

use crate::time::SimTime;

/// A log-normal latency: `exp(N(ln median, sigma))`, clamped to
/// `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalLatency {
    /// Median latency in seconds.
    pub median_secs: f64,
    /// Log-space standard deviation (0 = deterministic).
    pub sigma: f64,
    /// Lower clamp (seconds).
    pub min_secs: f64,
    /// Upper clamp (seconds).
    pub max_secs: f64,
}

impl LogNormalLatency {
    /// A deterministic latency of `secs`.
    pub fn fixed(secs: f64) -> LogNormalLatency {
        LogNormalLatency {
            median_secs: secs,
            sigma: 0.0,
            min_secs: secs,
            max_secs: secs,
        }
    }

    /// Samples one latency.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        let secs = if self.sigma <= 0.0 {
            self.median_secs
        } else {
            // Box–Muller standard normal.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (self.median_secs.ln() + self.sigma * z).exp()
        };
        SimTime::from_secs_f64(secs.clamp(self.min_secs, self.max_secs))
    }
}

/// Latencies for every agent action (Appendix E).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Graceful pod deletion: endpoint removal, SIGTERM drain, SIGKILL cap.
    pub delete: LogNormalLatency,
    /// Pod start: scheduling ack, image pull (usually cached), container
    /// boot, readiness probe.
    pub start: LogNormalLatency,
    /// Extra reroute/iptables reconfiguration time on a migration, on top
    /// of start + delete.
    pub reroute: LogNormalLatency,
    /// Per-action API-server issue overhead (serialized in the agent).
    pub issue_overhead: LogNormalLatency,
}

impl Default for LatencyModel {
    /// Medians calibrated to the paper's CloudLab timeline: detection
    /// ≈100 s, full recovery of all apps < 4 min after the plan is issued.
    fn default() -> LatencyModel {
        LatencyModel {
            delete: LogNormalLatency {
                median_secs: 8.0,
                sigma: 0.4,
                min_secs: 1.0,
                max_secs: 30.0,
            },
            start: LogNormalLatency {
                median_secs: 25.0,
                sigma: 0.5,
                min_secs: 5.0,
                max_secs: 120.0,
            },
            reroute: LogNormalLatency {
                median_secs: 2.0,
                sigma: 0.3,
                min_secs: 0.5,
                max_secs: 10.0,
            },
            issue_overhead: LogNormalLatency {
                median_secs: 0.15,
                sigma: 0.2,
                min_secs: 0.05,
                max_secs: 1.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = LogNormalLatency::fixed(7.0);
        for _ in 0..10 {
            assert_eq!(l.sample(&mut rng), SimTime::from_secs(7));
        }
    }

    #[test]
    fn samples_cluster_near_median_and_respect_clamps() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = LogNormalLatency {
            median_secs: 20.0,
            sigma: 0.5,
            min_secs: 5.0,
            max_secs: 60.0,
        };
        let samples: Vec<f64> = (0..2000)
            .map(|_| l.sample(&mut rng).as_secs_f64())
            .collect();
        assert!(samples.iter().all(|&s| (5.0..=60.0).contains(&s)));
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let median = phoenix_obs::stats::percentile(&sorted, 0.5);
        assert!((median - 20.0).abs() < 3.0, "median {median}");
    }

    #[test]
    fn deterministic_under_seed() {
        let l = LatencyModel::default();
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert_eq!(l.start.sample(&mut a), l.start.sample(&mut b));
        }
    }
}
