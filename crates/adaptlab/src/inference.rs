//! Automated criticality inference from system logs (§3.2, *Automated
//! Criticality Tagging and Testing*).
//!
//! The paper envisions developers "leveraging their system logs to infer
//! criticalities" instead of tagging thousands of microservices by hand.
//! This module closes that loop on AdaptLab traces:
//!
//! 1. [`synthesize_log`] produces the observable artifact — a sampled,
//!    aggregated call log. Sampling is the realistic part: production
//!    tracing pipelines record a few percent of requests, so cold request
//!    shapes may never be observed at all.
//! 2. [`infer_tags`] runs the frequency-based scheme *on the log*: greedy
//!    minimal coverage of the observed request weight becomes `C1`, the
//!    remainder is bucketed by observed call volume, and services that
//!    never appear in the log fall to [`Criticality::LOWEST`].
//! 3. [`apply_overrides`] is the manual escape hatch the paper calls out:
//!    "developers may need to override and tag known high-criticality
//!    low-frequency microservices manually" — garbage collectors and other
//!    critical-but-cold jobs are exactly the services sampling hides.
//! 4. [`agreement`] scores inferred tags against ground truth
//!    (`C1` precision/recall, exact matches, mean level distance), which
//!    is what a developer would inspect before trusting the inference;
//!    the chaos service (§5) then validates behaviourally.

use phoenix_core::tags::Criticality;
use phoenix_lp::coverage::{greedy_min_items_for_target, CoverageInstance};
use rand::Rng;

use crate::alibaba::TraceApp;

/// One aggregated log line: a request shape and how often it was observed.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Service indices the request touched.
    pub services: Vec<usize>,
    /// Observed occurrences in the log window.
    pub count: u64,
}

/// A sampled, aggregated call log — all the inference gets to see.
#[derive(Debug, Clone, PartialEq)]
pub struct CallLog {
    /// Aggregated request shapes with non-zero observations.
    pub entries: Vec<LogEntry>,
    /// Number of services in the application (known from deployment specs
    /// even when a service never logs).
    pub service_count: usize,
}

impl CallLog {
    /// Observed calls per service.
    pub fn per_service_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.service_count];
        for e in &self.entries {
            for &s in &e.services {
                counts[s] += e.count;
            }
        }
        counts
    }

    /// Services with zero observations — invisible to any log-based scheme.
    pub fn unobserved(&self) -> Vec<usize> {
        self.per_service_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == 0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Log-synthesis knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogConfig {
    /// Fraction of requests the tracing pipeline records (head sampling).
    pub sample_rate: f64,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig { sample_rate: 0.05 }
    }
}

/// Samples a call log from a trace application.
///
/// Each template's observation count is drawn binomially (normal
/// approximation for large weights), so hot templates are always seen
/// while cold ones may vanish — the bias every log-based inference
/// inherits.
pub fn synthesize_log<R: Rng + ?Sized>(app: &TraceApp, cfg: &LogConfig, rng: &mut R) -> CallLog {
    let rate = cfg.sample_rate.clamp(0.0, 1.0);
    let mut entries = Vec::new();
    for t in &app.templates {
        let count = sample_binomial(t.weight, rate, rng);
        if count > 0 {
            entries.push(LogEntry {
                services: t.services.iter().map(|s| s.index()).collect(),
                count,
            });
        }
    }
    CallLog {
        entries,
        service_count: app.graph.node_count(),
    }
}

/// Binomial(n≈weight, p) sample; exact for small n, normal approximation
/// beyond that (the weights reach millions).
fn sample_binomial<R: Rng + ?Sized>(weight: f64, p: f64, rng: &mut R) -> u64 {
    let n = weight.round().max(0.0);
    if n == 0.0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n as u64;
    }
    if n <= 64.0 {
        let mut hits = 0u64;
        for _ in 0..n as u64 {
            if rng.gen_bool(p) {
                hits += 1;
            }
        }
        return hits;
    }
    let mean = n * p;
    let sd = (n * p * (1.0 - p)).sqrt();
    // Box–Muller with two uniform draws.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mean + sd * z).round().clamp(0.0, n) as u64
}

/// Observed-request percentile the inferred `C1` set must cover.
const PERCENTILE: f64 = 0.9;
/// Number of buckets below `C1` (`C2..`), matching the tagging schemes.
const LOW_BUCKETS: u8 = 9;

/// Infers per-service criticality tags from a call log.
///
/// Greedy minimal coverage of 90 % of the observed weight (the Appendix-G
/// scheme run on observations instead of ground truth) becomes `C1`;
/// observed non-`C1` services are bucketed by call volume into the nine
/// levels below `C1`; unobserved services get [`Criticality::LOWEST`] —
/// the inference has no evidence they matter, which is precisely when
/// [`apply_overrides`] is needed.
///
/// # Examples
///
/// ```
/// use phoenix_adaptlab::inference::{infer_tags, CallLog, LogEntry};
/// use phoenix_core::tags::Criticality;
///
/// // 95 requests hit {0, 1}; 5 hit {0, 2}; service 3 never logs.
/// let log = CallLog {
///     entries: vec![
///         LogEntry { services: vec![0, 1], count: 95 },
///         LogEntry { services: vec![0, 2], count: 5 },
///     ],
///     service_count: 4,
/// };
/// let tags = infer_tags(&log);
/// assert_eq!(tags[0], Criticality::C1); // covers 100% of requests
/// assert_eq!(tags[1], Criticality::C1); // needed for the 95% shape
/// assert_ne!(tags[2], Criticality::C1); // the 5% tail is not in the P90 set
/// assert_eq!(tags[3], Criticality::LOWEST); // unobserved → manual override
/// ```
pub fn infer_tags(log: &CallLog) -> Vec<Criticality> {
    let n = log.service_count;
    let inst = CoverageInstance::new(
        n,
        log.entries.iter().map(|e| e.services.clone()).collect(),
        log.entries.iter().map(|e| e.count as f64).collect(),
    );
    let chosen = greedy_min_items_for_target(&inst, PERCENTILE).chosen;
    let mut is_c1 = vec![false; n];
    for i in chosen {
        is_c1[i] = true;
    }

    let counts = log.per_service_counts();
    let mut tags = vec![Criticality::LOWEST; n];
    let mut rest: Vec<usize> = (0..n).filter(|&i| !is_c1[i] && counts[i] > 0).collect();
    rest.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
    let per_bucket = (rest.len() as f64 / f64::from(LOW_BUCKETS)).ceil().max(1.0) as usize;
    for (pos, &svc) in rest.iter().enumerate() {
        let bucket = (pos / per_bucket) as u8;
        tags[svc] = Criticality::new(2 + bucket.min(LOW_BUCKETS - 1));
    }
    for (i, tag) in tags.iter_mut().enumerate() {
        if is_c1[i] {
            *tag = Criticality::C1;
        }
    }
    tags
}

/// Applies manual overrides (service index → tag) on top of inferred tags.
///
/// Out-of-range indices are ignored; later overrides win.
pub fn apply_overrides(
    mut tags: Vec<Criticality>,
    overrides: &[(usize, Criticality)],
) -> Vec<Criticality> {
    for &(service, tag) in overrides {
        if let Some(slot) = tags.get_mut(service) {
            *slot = tag;
        }
    }
    tags
}

/// How well inferred tags match ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagAgreement {
    /// Of the services inferred `C1`, the fraction truly `C1`.
    pub c1_precision: f64,
    /// Of the truly-`C1` services, the fraction inferred `C1`.
    pub c1_recall: f64,
    /// Fraction of services whose level matches exactly.
    pub exact_match: f64,
    /// Mean |inferred − true| level distance.
    pub mean_level_distance: f64,
}

/// Scores `inferred` against `truth`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn agreement(inferred: &[Criticality], truth: &[Criticality]) -> TagAgreement {
    assert_eq!(inferred.len(), truth.len(), "tag vectors must align");
    let n = inferred.len().max(1) as f64;
    let c1_inferred = inferred.iter().filter(|&&t| t == Criticality::C1).count();
    let c1_truth = truth.iter().filter(|&&t| t == Criticality::C1).count();
    let c1_both = inferred
        .iter()
        .zip(truth)
        .filter(|&(&i, &t)| i == Criticality::C1 && t == Criticality::C1)
        .count();
    let exact = inferred
        .iter()
        .zip(truth)
        .filter(|&(&i, &t)| i == t)
        .count();
    let distance: f64 = inferred
        .iter()
        .zip(truth)
        .map(|(&i, &t)| (f64::from(i.level()) - f64::from(t.level())).abs())
        .sum();
    TagAgreement {
        c1_precision: if c1_inferred > 0 {
            c1_both as f64 / c1_inferred as f64
        } else {
            1.0
        },
        c1_recall: if c1_truth > 0 {
            c1_both as f64 / c1_truth as f64
        } else {
            1.0
        },
        exact_match: exact as f64 / n,
        mean_level_distance: distance / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alibaba::{generate, AlibabaConfig};
    use crate::tagging::{assign, c1_coverage, TaggingScheme};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Total observed requests.
    fn observed(log: &CallLog) -> u64 {
        log.entries.iter().map(|e| e.count).sum()
    }

    fn app() -> TraceApp {
        let mut rng = StdRng::seed_from_u64(21);
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
    fn log_sampling_shrinks_with_rate() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(1);
        let dense = synthesize_log(&a, &LogConfig { sample_rate: 0.5 }, &mut rng);
        let sparse = synthesize_log(
            &a,
            &LogConfig {
                sample_rate: 0.0005,
            },
            &mut rng,
        );
        assert!(observed(&dense) > observed(&sparse));
        assert!(dense.entries.len() >= sparse.entries.len());
        assert!(sparse.unobserved().len() >= dense.unobserved().len());
        // Rough unbiasedness: the dense log sees about half the requests.
        let expect = a.total_requests() * 0.5;
        let got = observed(&dense) as f64;
        assert!(
            (got - expect).abs() / expect < 0.05,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn zero_and_full_rates_are_exact() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(2);
        let none = synthesize_log(&a, &LogConfig { sample_rate: 0.0 }, &mut rng);
        assert_eq!(observed(&none), 0);
        assert!(none.entries.is_empty());
        let all = synthesize_log(&a, &LogConfig { sample_rate: 1.0 }, &mut rng);
        let expect: u64 = a.templates.iter().map(|t| t.weight.round() as u64).sum();
        assert_eq!(observed(&all), expect);
    }

    #[test]
    fn inference_recovers_frequency_scheme_at_high_sample_rate() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(3);
        let truth = assign(
            TaggingScheme::FrequencyBased { percentile: 0.9 },
            &a,
            &mut rng,
        );
        let log = synthesize_log(&a, &LogConfig { sample_rate: 0.5 }, &mut rng);
        let inferred = infer_tags(&log);
        let score = agreement(&inferred, &truth);
        // Ground truth includes ~1 % random background-critical promotions
        // the log cannot reveal, so recall is capped just below 1.0.
        assert!(score.c1_precision > 0.9, "precision {}", score.c1_precision);
        assert!(score.c1_recall > 0.8, "recall {}", score.c1_recall);
        // The inferred C1 set actually serves the target percentile.
        assert!(c1_coverage(&a, &inferred) >= 0.9 - 0.02);
    }

    #[test]
    fn sparse_logs_leave_services_unobserved_and_lowest() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(4);
        let log = synthesize_log(
            &a,
            &LogConfig {
                sample_rate: 0.0002,
            },
            &mut rng,
        );
        let inferred = infer_tags(&log);
        let hidden = log.unobserved();
        assert!(!hidden.is_empty(), "expected unobserved services at 0.02%");
        for &s in &hidden {
            assert_eq!(inferred[s], Criticality::LOWEST);
        }
    }

    #[test]
    fn overrides_rescue_critical_cold_services() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(5);
        let log = synthesize_log(&a, &LogConfig { sample_rate: 0.001 }, &mut rng);
        let inferred = infer_tags(&log);
        let hidden = log.unobserved();
        if hidden.is_empty() {
            return; // seed produced full visibility; nothing to rescue
        }
        let gc = hidden[0];
        let fixed = apply_overrides(
            inferred,
            &[(gc, Criticality::C1), (usize::MAX, Criticality::C1)],
        );
        assert_eq!(fixed[gc], Criticality::C1);
    }

    #[test]
    fn agreement_is_perfect_on_identical_tags() {
        let tags = vec![Criticality::C1, Criticality::C2, Criticality::new(7)];
        let score = agreement(&tags, &tags);
        assert_eq!(score.c1_precision, 1.0);
        assert_eq!(score.c1_recall, 1.0);
        assert_eq!(score.exact_match, 1.0);
        assert_eq!(score.mean_level_distance, 0.0);
    }

    #[test]
    fn agreement_counts_misses() {
        let inferred = vec![Criticality::C1, Criticality::C1, Criticality::new(5)];
        let truth = vec![Criticality::C1, Criticality::C2, Criticality::C1];
        let score = agreement(&inferred, &truth);
        assert!((score.c1_precision - 0.5).abs() < 1e-9);
        assert!((score.c1_recall - 0.5).abs() < 1e-9);
        assert!((score.exact_match - 1.0 / 3.0).abs() < 1e-9);
        assert!((score.mean_level_distance - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = app();
        let mk = || {
            let mut rng = StdRng::seed_from_u64(6);
            let log = synthesize_log(&a, &LogConfig::default(), &mut rng);
            infer_tags(&log)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn bucket_ordering_follows_observed_volume() {
        let a = app();
        let mut rng = StdRng::seed_from_u64(7);
        let log = synthesize_log(&a, &LogConfig { sample_rate: 0.3 }, &mut rng);
        let tags = infer_tags(&log);
        let counts = log.per_service_counts();
        // Every C2 service was observed at least as often as every C9+.
        let min_hot = (0..tags.len())
            .filter(|&i| tags[i] == Criticality::C2)
            .map(|i| counts[i])
            .min();
        let max_cold = (0..tags.len())
            .filter(|&i| tags[i].level() >= 9 && tags[i] != Criticality::LOWEST)
            .map(|i| counts[i])
            .max();
        if let (Some(hot), Some(cold)) = (min_hot, max_cold) {
            assert!(hot >= cold, "C2 min {hot} vs C9+ max {cold}");
        }
    }
}
