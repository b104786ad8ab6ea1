//! Criticality tagging schemes for trace-driven apps (§6.2, *Criticality
//! Tagging*).
//!
//! The traces carry no criticality information, so the paper derives tags
//! two ways, each at the 50th and 90th request percentile:
//!
//! * **Service-level**: rank whole *services* (call-graph templates — "a
//!   set of microservices that together offer a useful functionality") by
//!   popularity; every microservice of the templates covering the target
//!   percentile becomes `C1`;
//! * **Frequency-based**: solve the Appendix-G coverage problem for the
//!   *minimal* microservice set serving the target percentile; that set
//!   becomes `C1`.
//!
//! Remaining microservices are bucketed `C2…C10` by decreasing call
//! volume. In both schemes a small random sample of infrequently-invoked
//! services is promoted to `C1` to stand in for critical background jobs
//! (garbage collection and the like).

use phoenix_core::tags::Criticality;
use phoenix_lp::coverage::{greedy_min_items_for_target, CoverageInstance};
use rand::Rng;

use crate::alibaba::TraceApp;

/// Which tagging scheme to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaggingScheme {
    /// Template-popularity prefix (§6.2 "service-level tagging").
    ServiceLevel {
        /// Request percentile to cover with `C1` (0.5 or 0.9).
        percentile: f64,
    },
    /// Minimal coverage set via the Appendix-G LP/greedy.
    FrequencyBased {
        /// Request percentile to cover with `C1` (0.5 or 0.9).
        percentile: f64,
    },
}

impl TaggingScheme {
    /// Report label (`Service-Level-P90` etc.).
    pub fn label(self) -> String {
        match self {
            TaggingScheme::ServiceLevel { percentile } => {
                format!("Service-Level-P{:.0}", percentile * 100.0)
            }
            TaggingScheme::FrequencyBased { percentile } => {
                format!("Freq-Based-P{:.0}", percentile * 100.0)
            }
        }
    }
}

/// Fraction of cold services promoted to `C1` as background-critical.
const BACKGROUND_CRITICAL_FRACTION: f64 = 0.01;

/// Number of criticality buckets below `C1`.
const LOW_BUCKETS: u8 = 9; // C2..=C10

/// Assigns a criticality per service of `app`.
pub fn assign<R: Rng + ?Sized>(
    scheme: TaggingScheme,
    app: &TraceApp,
    rng: &mut R,
) -> Vec<Criticality> {
    let n = app.graph.node_count();
    let c1: Vec<bool> = match scheme {
        TaggingScheme::ServiceLevel { percentile } => service_level_c1(app, percentile),
        TaggingScheme::FrequencyBased { percentile } => frequency_based_c1(app, percentile),
    };
    // Bucket the rest C2..C10 by decreasing CPM (deciles of the non-C1
    // population).
    let cpm = app.calls_per_minute();
    let mut rest: Vec<usize> = (0..n).filter(|&i| !c1[i]).collect();
    rest.sort_by(|&a, &b| cpm[b].total_cmp(&cpm[a]));
    let mut tags = vec![Criticality::C1; n];
    let per_bucket = (rest.len() as f64 / f64::from(LOW_BUCKETS)).ceil().max(1.0) as usize;
    for (pos, &svc) in rest.iter().enumerate() {
        let bucket = (pos / per_bucket) as u8;
        tags[svc] = Criticality::new(2 + bucket.min(LOW_BUCKETS - 1));
    }
    // Promote a sprinkle of cold services to C1 (critical background jobs).
    for i in 0..n {
        if !c1[i] && rng.gen_bool(BACKGROUND_CRITICAL_FRACTION) {
            tags[i] = Criticality::C1;
        }
    }
    tags
}

/// Service-level: most popular templates until `percentile` of requests.
fn service_level_c1(app: &TraceApp, percentile: f64) -> Vec<bool> {
    let total = app.total_requests();
    let mut order: Vec<usize> = (0..app.templates.len()).collect();
    order.sort_by(|&a, &b| app.templates[b].weight.total_cmp(&app.templates[a].weight));
    let mut c1 = vec![false; app.graph.node_count()];
    let mut covered = 0.0;
    for t in order {
        if covered >= total * percentile.clamp(0.0, 1.0) {
            break;
        }
        covered += app.templates[t].weight;
        for &s in &app.templates[t].services {
            c1[s.index()] = true;
        }
    }
    c1
}

/// Frequency-based: Appendix-G minimal coverage set (greedy at scale).
fn frequency_based_c1(app: &TraceApp, percentile: f64) -> Vec<bool> {
    let inst = CoverageInstance::new(
        app.graph.node_count(),
        app.templates
            .iter()
            .map(|t| t.services.iter().map(|s| s.index()).collect())
            .collect(),
        app.templates.iter().map(|t| t.weight).collect(),
    );
    let result = greedy_min_items_for_target(&inst, percentile.clamp(0.0, 1.0));
    let mut c1 = vec![false; app.graph.node_count()];
    for i in result.chosen {
        c1[i] = true;
    }
    c1
}

/// Services with exactly one upstream caller — the §3.2 "stub"
/// microservices (74 % of the top-4 apps, 82 % overall in the Alibaba
/// analysis).
fn single_upstream_stubs(app: &TraceApp) -> Vec<bool> {
    app.graph
        .node_ids()
        .map(|n| app.graph.in_degree(n) == 1)
        .collect()
}

/// Applies the §3.2 rule — "single-upstream stub microservices can be
/// safely degraded if marked as low criticality by the upstream caller" —
/// as a post-pass over any tagging: a stub is never more critical than
/// its only caller, so its level is raised (made less critical) to the
/// caller's when the caller is less critical.
///
/// Callers are processed in topological order where possible, so chains
/// of stubs inherit transitively; cycles (never single-upstream chains in
/// practice) fall back to one non-transitive pass.
pub fn inherit_stub_tags(app: &TraceApp, tags: &[Criticality]) -> Vec<Criticality> {
    let mut out = tags.to_vec();
    let stubs = single_upstream_stubs(app);
    let order: Vec<usize> = match phoenix_dgraph::topo::topo_sort(&app.graph) {
        Ok(order) => order.into_iter().map(|n| n.index()).collect(),
        Err(_) => (0..app.graph.node_count()).collect(),
    };
    for i in order {
        let node = phoenix_dgraph::NodeId::from_index(i);
        if !stubs[i] {
            continue;
        }
        let caller = app.graph.predecessors(node)[0];
        let caller_tag = out[caller.index()];
        if !out[i].is_at_least_as_critical_as(caller_tag) {
            continue; // already at or below the caller's criticality
        }
        if caller_tag != out[i] {
            out[i] = caller_tag;
        }
    }
    out
}

/// Request-weight fraction served when only `C1` services are up — the
/// design intent of both schemes (≥ the percentile).
pub fn c1_coverage(app: &TraceApp, tags: &[Criticality]) -> f64 {
    let total = app.total_requests();
    if total <= 0.0 {
        return 0.0;
    }
    let served: f64 = app
        .templates
        .iter()
        .filter(|t| {
            t.services
                .iter()
                .all(|s| tags[s.index()] == Criticality::C1)
        })
        .map(|t| t.weight)
        .sum();
    served / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alibaba::{generate, AlibabaConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn app() -> TraceApp {
        let mut rng = StdRng::seed_from_u64(11);
        generate(
            &mut rng,
            &AlibabaConfig {
                apps: 1,
                max_services: 250,
                max_requests: 150_000.0,
            },
        )
        .remove(0)
    }

    #[test]
    fn both_schemes_hit_their_percentile() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(1);
        for scheme in [
            TaggingScheme::ServiceLevel { percentile: 0.5 },
            TaggingScheme::ServiceLevel { percentile: 0.9 },
            TaggingScheme::FrequencyBased { percentile: 0.5 },
            TaggingScheme::FrequencyBased { percentile: 0.9 },
        ] {
            let tags = assign(scheme, &a, &mut rng);
            assert_eq!(tags.len(), a.graph.node_count());
            let cov = c1_coverage(&a, &tags);
            let target = match scheme {
                TaggingScheme::ServiceLevel { percentile }
                | TaggingScheme::FrequencyBased { percentile } => percentile,
            };
            assert!(
                cov >= target - 1e-9,
                "{}: coverage {cov} < {target}",
                scheme.label()
            );
        }
    }

    #[test]
    fn frequency_based_uses_fewer_c1_services() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(2);
        let count = |tags: &[Criticality]| tags.iter().filter(|&&t| t == Criticality::C1).count();
        let sl = assign(
            TaggingScheme::ServiceLevel { percentile: 0.9 },
            &a,
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(2);
        let fb = assign(
            TaggingScheme::FrequencyBased { percentile: 0.9 },
            &a,
            &mut rng,
        );
        assert!(
            count(&fb) <= count(&sl),
            "freq-based {} should not exceed service-level {}",
            count(&fb),
            count(&sl)
        );
    }

    #[test]
    fn coverage_skew_small_c1_fraction() {
        // Fig. 17c: a large share of requests from a small service subset.
        let a = app();
        let mut rng = StdRng::seed_from_u64(3);
        let tags = assign(
            TaggingScheme::FrequencyBased { percentile: 0.8 },
            &a,
            &mut rng,
        );
        let c1 = tags.iter().filter(|&&t| t == Criticality::C1).count();
        let frac = c1 as f64 / tags.len() as f64;
        assert!(frac < 0.35, "C1 fraction {frac} too large for 80% coverage");
    }

    #[test]
    fn rest_bucketed_by_cpm() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(4);
        let tags = assign(
            TaggingScheme::ServiceLevel { percentile: 0.5 },
            &a,
            &mut rng,
        );
        let cpm = a.calls_per_minute();
        // Among non-C1 services, average CPM of C2s exceeds that of C9/C10s.
        let avg = |lo: u8, hi: u8| {
            let xs: Vec<f64> = (0..tags.len())
                .filter(|&i| (lo..=hi).contains(&tags[i].level()))
                .map(|i| cpm[i])
                .collect();
            if xs.is_empty() {
                None
            } else {
                Some(xs.iter().sum::<f64>() / xs.len() as f64)
            }
        };
        if let (Some(hot), Some(cold)) = (avg(2, 3), avg(9, 10)) {
            assert!(hot >= cold, "hot {hot} vs cold {cold}");
        }
    }

    #[test]
    fn stub_detection_matches_trace_stats() {
        let a = app();
        let stubs = single_upstream_stubs(&a);
        let frac = stubs.iter().filter(|&&s| s).count() as f64 / stubs.len() as f64;
        // The generator targets ≈74 % single-upstream for a top-4-style app.
        assert!((0.6..=0.9).contains(&frac), "stub fraction {frac}");
    }

    #[test]
    fn stubs_inherit_their_callers_criticality() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(9);
        let tags = assign(
            TaggingScheme::ServiceLevel { percentile: 0.5 },
            &a,
            &mut rng,
        );
        let adjusted = inherit_stub_tags(&a, &tags);
        let stubs = single_upstream_stubs(&a);
        for n in a.graph.node_ids() {
            let i = n.index();
            if stubs[i] {
                let caller = a.graph.predecessors(n)[0];
                assert!(
                    !adjusted[i].is_at_least_as_critical_as(adjusted[caller.index()])
                        || adjusted[i] == adjusted[caller.index()],
                    "stub {i} ({}) outranks its only caller {} ({})",
                    adjusted[i],
                    caller.index(),
                    adjusted[caller.index()],
                );
            } else {
                assert_eq!(adjusted[i], tags[i], "non-stub {i} must not change");
            }
        }
        // Demotion only: no service becomes more critical.
        for (before, after) in tags.iter().zip(&adjusted) {
            assert!(after.level() >= before.level());
        }
    }

    #[test]
    fn stub_inheritance_preserves_c1_coverage() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(10);
        for scheme in [
            TaggingScheme::ServiceLevel { percentile: 0.9 },
            TaggingScheme::FrequencyBased { percentile: 0.9 },
        ] {
            let tags = assign(scheme, &a, &mut rng);
            let adjusted = inherit_stub_tags(&a, &tags);
            // A demoted C1 stub had a non-C1 caller, so the templates it
            // served were not fully-C1 before either.
            assert!(
                c1_coverage(&a, &adjusted) >= c1_coverage(&a, &tags) - 1e-9,
                "{}",
                scheme.label()
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(
            TaggingScheme::ServiceLevel { percentile: 0.9 }.label(),
            "Service-Level-P90"
        );
        assert_eq!(
            TaggingScheme::FrequencyBased { percentile: 0.5 }.label(),
            "Freq-Based-P50"
        );
    }
}
