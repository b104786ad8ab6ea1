//! Resource assignment models (§6.2, *Resource Assignment*).
//!
//! The Alibaba traces carry no per-microservice CPU/memory numbers, so the
//! paper approximates them two ways; both are reproduced here:
//!
//! * **Calls-per-minute (CPM)**: demand grows sublinearly with call volume
//!   (per the Alibaba autoscaling study the paper cites) — hot services
//!   are bigger, but not linearly so;
//! * **Long-tailed**: demands drawn from the Azure-packing-trace-like
//!   discrete distribution (most containers tiny, a heavy tail of large
//!   ones), independent of call volume.

use phoenix_cluster::Resources;
use rand::Rng;

use crate::alibaba::TraceApp;

/// Which model sizes the microservices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResourceModel {
    /// Demand as a function of calls-per-minute.
    #[default]
    CallsPerMinute,
    /// Azure-like long-tailed size distribution.
    LongTailed,
}

impl ResourceModel {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ResourceModel::CallsPerMinute => "CPM",
            ResourceModel::LongTailed => "LongTailed",
        }
    }
}

/// Azure-packing-like discrete core sizes with long-tail probabilities.
const AZURE_SIZES: [(f64, f64); 6] = [
    (1.0, 0.38),
    (2.0, 0.27),
    (4.0, 0.18),
    (8.0, 0.10),
    (16.0, 0.05),
    (24.0, 0.02),
];

/// Assigns a demand vector (CPU-only, the paper's scalar model) to every
/// service of `app`.
pub fn assign<R: Rng + ?Sized>(
    model: ResourceModel,
    app: &TraceApp,
    rng: &mut R,
) -> Vec<Resources> {
    match model {
        ResourceModel::CallsPerMinute => {
            let cpm = app.calls_per_minute();
            cpm.iter()
                .map(|&c| {
                    // Sublinear in CPM: 0.5 cores baseline, ~24 cores for the
                    // hottest hubs.
                    let cores = 0.5 + 0.9 * c.max(0.0).powf(0.55);
                    Resources::cpu(cores.min(24.0))
                })
                .collect()
        }
        ResourceModel::LongTailed => (0..app.graph.node_count())
            .map(|_| {
                let mut ticket: f64 = rng.gen_range(0.0..1.0);
                for &(size, p) in &AZURE_SIZES {
                    if ticket < p {
                        return Resources::cpu(size);
                    }
                    ticket -= p;
                }
                Resources::cpu(AZURE_SIZES.last().expect("non-empty table").0)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alibaba::{generate, AlibabaConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn app() -> TraceApp {
        let mut rng = StdRng::seed_from_u64(1);
        generate(
            &mut rng,
            &AlibabaConfig {
                apps: 1,
                max_services: 300,
                max_requests: 200_000.0,
            },
        )
        .remove(0)
    }

    #[test]
    fn cpm_gives_hot_services_more_resources() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(2);
        let demands = assign(ResourceModel::CallsPerMinute, &a, &mut rng);
        let cpm = a.calls_per_minute();
        // Hottest service demands strictly more than a cold one.
        let hot = cpm
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let cold = cpm
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(demands[hot].cpu > demands[cold].cpu);
        assert!(demands.iter().all(|d| d.cpu >= 0.5 && d.cpu <= 24.0));
    }

    #[test]
    fn long_tailed_matches_distribution_roughly() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(3);
        let demands = assign(ResourceModel::LongTailed, &a, &mut rng);
        let n = demands.len() as f64;
        let small = demands.iter().filter(|d| d.cpu <= 2.0).count() as f64 / n;
        let large = demands.iter().filter(|d| d.cpu >= 16.0).count() as f64 / n;
        assert!(small > 0.5, "small fraction {small}");
        assert!(large < 0.15, "large fraction {large}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = app();
        let run = || {
            let mut rng = StdRng::seed_from_u64(9);
            assign(ResourceModel::LongTailed, &a, &mut rng)
        };
        assert_eq!(run(), run());
        assert_eq!(ResourceModel::CallsPerMinute.label(), "CPM");
    }
}
