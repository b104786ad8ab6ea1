//! The figures about the synthetic Alibaba-like workload itself.

use phoenix_adaptlab::alibaba::{generate, stats, AlibabaConfig, TraceApp};
use phoenix_adaptlab::inference::{agreement, infer_tags, synthesize_log, LogConfig};
use phoenix_adaptlab::tagging::{assign, c1_coverage, TaggingScheme};
use phoenix_lp::coverage::{
    coverage_curve, greedy_max_coverage, lp_max_coverage, CoverageInstance,
};
use phoenix_lp::SolveOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{Claim, Scale};
use crate::{f3, Line, Table};

/// Figure 17 + §3.2: analysis of the synthetic Alibaba workload — the
/// calibration check for the trace generator. (a) app DG size vs.
/// requests served; (b) call-graph size distribution of the top-4 apps;
/// (c) requests served vs. % microservices enabled (the Appendix-G
/// coverage LP, greedy at scale, exact on small apps).
pub(super) fn fig17(_: Scale, seed: Option<u64>, out: &mut String) -> Vec<Claim> {
    let mut rng = StdRng::seed_from_u64(seed.unwrap_or(3));
    let apps = generate(&mut rng, &AlibabaConfig::default());

    // (a) Size vs. requests.
    let mut t = Table::new(["app", "microservices", "requests"]);
    for a in &apps {
        t.row([
            a.name.clone(),
            a.graph.node_count().to_string(),
            format!("{:.0}", a.total_requests()),
        ]);
    }
    out.push_str(&t.titled("Figure 17a: dependency-graph size vs. user requests served"));

    // (b) Call-graph size CDF for the top-4 apps.
    let mut t = Table::new([
        "app",
        "P50 size",
        "P80 size",
        "P90 size",
        "max",
        "<10 services",
    ]);
    for a in apps.iter().take(4) {
        let mut weighted: Vec<(usize, f64)> = a
            .templates
            .iter()
            .map(|tp| (tp.services.len(), tp.weight))
            .collect();
        weighted.sort_by_key(|&(s, _)| s);
        let total: f64 = weighted.iter().map(|&(_, w)| w).sum();
        let pct = |q: f64| {
            let mut acc = 0.0;
            for &(s, w) in &weighted {
                acc += w;
                if acc >= total * q {
                    return s;
                }
            }
            weighted.last().map_or(0, |&(s, _)| s)
        };
        let small: f64 = weighted
            .iter()
            .filter(|&&(s, _)| s < 10)
            .map(|&(_, w)| w)
            .sum::<f64>()
            / total;
        t.row([
            a.name.clone(),
            pct(0.5).to_string(),
            pct(0.8).to_string(),
            pct(0.9).to_string(),
            weighted.last().unwrap().0.to_string(),
            f3(small),
        ]);
    }
    out.push_str(&t.titled("Figure 17b: call-graph size distribution (request-weighted)"));

    // (c) Coverage curves: requests served vs. % of microservices enabled.
    let instance = |a: &TraceApp| {
        CoverageInstance::new(
            a.graph.node_count(),
            a.templates
                .iter()
                .map(|tp| tp.services.iter().map(|s| s.index()).collect())
                .collect(),
            a.templates.iter().map(|tp| tp.weight).collect(),
        )
    };
    let mut t = Table::new(["app", "1%", "2%", "3%", "5%", "10%"]);
    for a in apps.iter().take(4) {
        let n = a.graph.node_count();
        let budgets: Vec<usize> = [0.01, 0.02, 0.03, 0.05, 0.10]
            .iter()
            .map(|f| ((n as f64 * f).round() as usize).max(1))
            .collect();
        let mut row = vec![a.name.clone()];
        row.extend(
            coverage_curve(&instance(a), &budgets)
                .iter()
                .map(|&(_, frac)| f3(frac)),
        );
        t.row(row);
    }
    out.push_str(&t.titled("Figure 17c: requests served vs. % microservices enabled (greedy)"));

    // Exact LP cross-check on a small app (Appendix G's formulation).
    if let Some(a) = apps.iter().rev().find(|a| a.graph.node_count() <= 40) {
        let inst = instance(a);
        let budget = (a.graph.node_count() / 2).max(1);
        let greedy = greedy_max_coverage(&inst, budget);
        if let Ok(exact) = lp_max_coverage(&inst, budget, &SolveOptions::default()) {
            out.line(format!(
                "\nExact-vs-greedy cross-check on {} (budget {budget}): LP {:.0} vs greedy {:.0} ({:.1}% of optimal)",
                a.name,
                exact.covered_weight,
                greedy.covered_weight,
                100.0 * greedy.covered_weight / exact.covered_weight.max(1e-9)
            ));
        }
    }

    // §3.2 statistics.
    let st = stats(&apps);
    let mut t = Table::new(["statistic", "measured", "paper"]);
    for (statistic, measured, paper) in [
        ("single-upstream (top-4)", st.single_upstream_top4, "0.74"),
        ("single-upstream (all 18)", st.single_upstream_all, "0.82"),
        ("top-4 request share", st.top4_request_share, "\"most\""),
        (
            "App1 call graphs <10 services",
            st.app1_small_template_share,
            ">0.80",
        ),
    ] {
        t.row([statistic, &f3(measured), paper]);
    }
    out.push_str(&t.titled("§3.2 calibration statistics"));
    Vec::new()
}

/// Automated criticality inference quality (§3.2, *Automated
/// Criticality Tagging and Testing*).
///
/// Sweeps the tracing sample rate and reports how well log-based
/// inference recovers the Frequency-Based-P90 ground-truth tagging on
/// the top-4 Alibaba-like applications: `C1` precision/recall, exact
/// level matches, services the log never observed, and the request
/// coverage the inferred `C1` set delivers. Smoke scale caps the apps at
/// 100 services instead of 600.
pub(super) fn inference_quality(scale: Scale, seed: Option<u64>, out: &mut String) -> Vec<Claim> {
    let max_services = scale.pick(100, 600, 600);
    let mut rng = StdRng::seed_from_u64(seed.unwrap_or(7));
    let config = AlibabaConfig {
        max_services,
        ..AlibabaConfig::default()
    };
    let apps = generate(&mut rng, &config);
    let top4 = &apps[..4];

    let mut t = Table::new([
        "sample rate",
        "C1 precision",
        "C1 recall",
        "exact (obs)",
        "lvl dist (obs)",
        "unobserved",
        "C1 coverage",
    ]);
    for rate in [0.001, 0.01, 0.05, 0.2, 1.0] {
        let (mut p, mut r, mut e, mut d, mut cov) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let mut unobserved = 0usize;
        for app in top4 {
            let truth = assign(
                TaggingScheme::FrequencyBased { percentile: 0.9 },
                app,
                &mut rng,
            );
            let log = synthesize_log(app, &LogConfig { sample_rate: rate }, &mut rng);
            let inferred = infer_tags(&log);
            let score = agreement(&inferred, &truth);
            p += score.c1_precision;
            r += score.c1_recall;
            // Exact-level agreement is only meaningful where the log saw
            // the service at all; never-observed services sit at LOWEST by
            // design and are counted separately.
            let counts = log.per_service_counts();
            let observed: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
            let obs_inferred: Vec<_> = observed.iter().map(|&i| inferred[i]).collect();
            let obs_truth: Vec<_> = observed.iter().map(|&i| truth[i]).collect();
            let obs_score = agreement(&obs_inferred, &obs_truth);
            e += obs_score.exact_match;
            d += obs_score.mean_level_distance;
            cov += c1_coverage(app, &inferred);
            unobserved += log.unobserved().len();
        }
        let n = top4.len() as f64;
        t.row([
            format!("{:.2}%", rate * 100.0),
            f3(p / n),
            f3(r / n),
            f3(e / n),
            f3(d / n),
            unobserved.to_string(),
            f3(cov / n),
        ]);
    }
    out.push_str(&t.titled(&format!(
        "Log-based criticality inference vs Freq-Based-P90 truth (top-4 apps, largest {max_services} services)"
    )));
    out.line(
        "\nDense logs recover the C1 set almost exactly (residual misses are the\n\
         ~1% random background-critical promotions logs cannot reveal); sparse\n\
         logs leave cold services unobserved — the manual-override case of §3.2."
            .into(),
    );
    Vec::new()
}
