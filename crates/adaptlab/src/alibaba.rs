//! Synthetic Alibaba-2021-calibrated microservice traces.
//!
//! The real dataset contains >20 M call graphs over 7 days from which the
//! paper mines 18 application dependency graphs (10–3000 microservices).
//! This module generates equivalents matching the published statistics:
//!
//! * DG sizes follow the paper's long tail (App1 ≈ 3000 services, most
//!   apps a few dozen);
//! * 74 % of non-entry services in the top-4 apps — 82 % across all 18 —
//!   have a **single upstream caller** (§3.2);
//! * request templates (call graphs) are small and heavy-tailed: >80 % of
//!   App1's call graphs touch <10 services (Fig. 17b);
//! * template popularity is Zipf-skewed and concentrated on hub services,
//!   so a few percent of microservices serve ≈80 % of requests
//!   (Fig. 17c);
//! * the top-4 apps serve the bulk of all requests (Fig. 17a), with App1
//!   at ≈1.3 M requests.

use phoenix_dgraph::generate::{attachment_dag, AttachmentConfig};
use phoenix_dgraph::{DiGraph, NodeId};
use rand::Rng;

/// One call-graph template: the set of services a request touches, with
/// its request count over the trace window.
#[derive(Debug, Clone, PartialEq)]
pub struct CallTemplate {
    /// Services touched (entry first).
    pub services: Vec<NodeId>,
    /// Requests of this shape over the trace window.
    pub weight: f64,
}

/// One application mined from the (synthetic) trace.
#[derive(Debug, Clone)]
pub struct TraceApp {
    /// Display name (`App1`…`App18`, ordered by request volume).
    pub name: String,
    /// Dependency graph (payload = service index).
    pub graph: DiGraph<usize>,
    /// Call-graph templates with weights.
    pub templates: Vec<CallTemplate>,
}

impl TraceApp {
    /// Total requests across templates.
    pub fn total_requests(&self) -> f64 {
        self.templates.iter().map(|t| t.weight).sum()
    }

    /// Calls-per-minute per service over a 7-day window (the CPM input of
    /// the resource model).
    pub fn calls_per_minute(&self) -> Vec<f64> {
        let minutes = 7.0 * 24.0 * 60.0;
        let mut cpm = vec![0.0; self.graph.node_count()];
        for t in &self.templates {
            for &s in &t.services {
                cpm[s.index()] += t.weight / minutes;
            }
        }
        cpm
    }
}

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AlibabaConfig {
    /// Number of applications (the paper mines 18).
    pub apps: usize,
    /// Size of the largest app's DG (the paper's App1 ≈ 3000).
    pub max_services: usize,
    /// Requests served by the most popular app (≈1.3 M in the paper).
    pub max_requests: f64,
}

/// Single-upstream fraction target for the top-4 apps (≈0.74).
const TOP_SINGLE_UPSTREAM: f64 = 0.74;
/// Single-upstream fraction target for the rest (≈0.97; the small apps
/// are almost pure trees, pulling the paper's overall mix to 0.82).
const REST_SINGLE_UPSTREAM: f64 = 0.97;
/// Zipf exponent for template popularity.
const TEMPLATE_ZIPF: f64 = 1.25;

impl Default for AlibabaConfig {
    fn default() -> AlibabaConfig {
        AlibabaConfig {
            apps: 18,
            max_services: 3000,
            max_requests: 1_300_000.0,
        }
    }
}

/// DG sizes: App1 gets `max`, the rest decay geometrically to ≈10.
fn app_sizes(cfg: &AlibabaConfig) -> Vec<usize> {
    let n = cfg.apps.max(1);
    let ratio = (10.0 / cfg.max_services as f64).powf(1.0 / (n.max(2) - 1) as f64);
    (0..n)
        .map(|i| {
            ((cfg.max_services as f64) * ratio.powi(i as i32))
                .round()
                .max(10.0) as usize
        })
        .collect()
}

/// Request volumes: App1 gets `max_requests`; volume decays steeply so the
/// top-4 apps dominate (Fig. 17a).
fn app_requests(cfg: &AlibabaConfig) -> Vec<f64> {
    (0..cfg.apps)
        .map(|i| cfg.max_requests / ((i + 1) as f64).powf(2.2))
        .collect()
}

/// Generates the full 18-app trace.
pub fn generate<R: Rng + ?Sized>(rng: &mut R, cfg: &AlibabaConfig) -> Vec<TraceApp> {
    let sizes = app_sizes(cfg);
    let volumes = app_requests(cfg);
    sizes
        .iter()
        .zip(&volumes)
        .enumerate()
        .map(|(i, (&size, &requests))| {
            let single_upstream = if i < 4 {
                TOP_SINGLE_UPSTREAM
            } else {
                REST_SINGLE_UPSTREAM
            };
            generate_app(rng, i, size, requests, single_upstream)
        })
        .collect()
}

fn generate_app<R: Rng + ?Sized>(
    rng: &mut R,
    index: usize,
    size: usize,
    requests: f64,
    single_upstream: f64,
) -> TraceApp {
    let graph = attachment_dag(
        rng,
        &AttachmentConfig {
            nodes: size,
            entry_nodes: (size / 100).clamp(1, 8),
            multi_parent_prob: (1.0 - single_upstream).clamp(0.0, 1.0),
            max_extra_parents: 2,
            hub_bias: 0.7,
        },
    );
    let templates = generate_templates(rng, &graph, requests);
    TraceApp {
        name: format!("App{}", index + 1),
        graph,
        templates,
    }
}

/// Samples call-graph templates over the DG.
///
/// Template sizes are geometric (most <10 services). Walks are biased by a
/// per-app random "heat" score, so popular templates overlap heavily on a
/// small hot service set — but that set is *not* correlated with node age
/// or topological position (in the real traces, frequently-exercised
/// functionality is scattered across the graph).
fn generate_templates<R: Rng + ?Sized>(
    rng: &mut R,
    graph: &DiGraph<usize>,
    requests: f64,
) -> Vec<CallTemplate> {
    let n = graph.node_count();
    let count = (n / 3).clamp(4, 400);
    let sources: Vec<NodeId> = graph.sources().collect();
    // Heavy-tailed per-service heat, independent of node index.
    let heat: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(0.02f64..1.0).powi(3))
        .collect();
    let mut templates: Vec<Vec<NodeId>> = Vec::with_capacity(count);
    for t in 0..count {
        // Popular (low-rank) templates are small (2-5 services); deep rare
        // templates grow towards ~25 — the Fig. 17b shape.
        let ramp = t * 20 / count;
        let target = (1 + rng.gen_range(1..=4usize) + ramp).min(n.max(2) - 1);
        // Hot entry for hot templates; arbitrary entry for cold ones.
        let entry = if t < count / 4 || sources.len() == 1 {
            sources[0]
        } else {
            sources[rng.gen_range(0..sources.len())]
        };
        let mut visited = vec![entry];
        let mut member = vec![false; n];
        member[entry.index()] = true;
        'grow: while visited.len() < target {
            // Expand from a uniformly random visited node with unvisited
            // successors, preferring low-index (hub) successors.
            let mut expandable: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
            for &v in &visited {
                let open: Vec<NodeId> = graph
                    .successors(v)
                    .iter()
                    .copied()
                    .filter(|s| !member[s.index()])
                    .collect();
                if !open.is_empty() {
                    expandable.push((v, open));
                }
            }
            if expandable.is_empty() {
                break 'grow;
            }
            let (_, open) = expandable.swap_remove(rng.gen_range(0..expandable.len()));
            // Heat-weighted successor pick: popular templates concentrate
            // on the same hot services.
            let total: f64 = open.iter().map(|s| heat[s.index()]).sum();
            let mut ticket = rng.gen_range(0.0..total);
            let mut next = *open.last().expect("open is non-empty");
            for &s in &open {
                if ticket < heat[s.index()] {
                    next = s;
                    break;
                }
                ticket -= heat[s.index()];
            }
            member[next.index()] = true;
            visited.push(next);
        }
        templates.push(visited);
    }
    // Zipf weights over rank; smallest templates get the top ranks, making
    // "most call graphs small" hold in the weighted distribution too.
    templates.sort_by_key(Vec::len);
    let raw: Vec<f64> = (0..templates.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(TEMPLATE_ZIPF))
        .collect();
    let total: f64 = raw.iter().sum();
    templates
        .into_iter()
        .zip(raw)
        .map(|(services, w)| CallTemplate {
            services,
            weight: requests * w / total,
        })
        .collect()
}

/// §3.2/Fig. 17 statistics over a generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Single-upstream fraction over the top-4 apps (paper: 0.74).
    pub single_upstream_top4: f64,
    /// Single-upstream fraction over all apps (paper: 0.82).
    pub single_upstream_all: f64,
    /// Fraction of all requests served by the top-4 apps.
    pub top4_request_share: f64,
    /// Fraction of App1 call-graph weight on templates touching <10
    /// services (paper: >0.8).
    pub app1_small_template_share: f64,
}

/// Computes the calibration statistics.
pub fn stats(apps: &[TraceApp]) -> TraceStats {
    let frac_over = |slice: &[TraceApp]| {
        let (mut singles, mut non_sources) = (0usize, 0usize);
        for a in slice {
            for n in a.graph.node_ids() {
                let d = a.graph.in_degree(n);
                if d > 0 {
                    non_sources += 1;
                    if d == 1 {
                        singles += 1;
                    }
                }
            }
        }
        if non_sources == 0 {
            0.0
        } else {
            singles as f64 / non_sources as f64
        }
    };
    let total: f64 = apps.iter().map(TraceApp::total_requests).sum();
    let top4: f64 = apps.iter().take(4).map(TraceApp::total_requests).sum();
    let app1_small = apps.first().map_or(0.0, |a| {
        let w: f64 = a
            .templates
            .iter()
            .filter(|t| t.services.len() < 10)
            .map(|t| t.weight)
            .sum();
        w / a.total_requests()
    });
    TraceStats {
        single_upstream_top4: frac_over(&apps[..apps.len().min(4)]),
        single_upstream_all: frac_over(apps),
        top4_request_share: if total > 0.0 { top4 / total } else { 0.0 },
        app1_small_template_share: app1_small,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> AlibabaConfig {
        AlibabaConfig {
            apps: 8,
            max_services: 400,
            max_requests: 100_000.0,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let apps = generate(&mut rng, &small_cfg());
        assert_eq!(apps.len(), 8);
        assert_eq!(apps[0].graph.node_count(), 400);
        assert!(apps.last().unwrap().graph.node_count() >= 10);
        // Sizes decay monotonically.
        for w in apps.windows(2) {
            assert!(w[0].graph.node_count() >= w[1].graph.node_count());
        }
    }

    #[test]
    fn templates_reach_only_existing_services_from_entries() {
        let mut rng = StdRng::seed_from_u64(2);
        let apps = generate(&mut rng, &small_cfg());
        for a in &apps {
            assert!(!a.templates.is_empty());
            for t in &a.templates {
                assert!(!t.services.is_empty());
                assert!(t.weight > 0.0);
                for &s in &t.services {
                    assert!(a.graph.contains(s));
                }
            }
        }
    }

    #[test]
    fn calibration_bands() {
        let mut rng = StdRng::seed_from_u64(3);
        let apps = generate(&mut rng, &AlibabaConfig::default());
        let st = stats(&apps);
        assert!(
            (0.65..=0.85).contains(&st.single_upstream_top4),
            "top4 single-upstream {}",
            st.single_upstream_top4
        );
        assert!(
            (0.72..=0.92).contains(&st.single_upstream_all),
            "all single-upstream {}",
            st.single_upstream_all
        );
        assert!(
            st.top4_request_share > 0.85,
            "top-4 share {}",
            st.top4_request_share
        );
        assert!(
            st.app1_small_template_share > 0.8,
            "small-template share {}",
            st.app1_small_template_share
        );
    }

    #[test]
    fn cpm_positive_on_hot_services() {
        let mut rng = StdRng::seed_from_u64(4);
        let apps = generate(&mut rng, &small_cfg());
        let cpm = apps[0].calls_per_minute();
        assert_eq!(cpm.len(), apps[0].graph.node_count());
        // The entry service of App1 is on the hottest templates.
        let entry = apps[0].graph.sources().next().unwrap();
        assert!(cpm[entry.index()] > 0.0);
        // Total CPM ≈ weighted touches / minutes.
        assert!(cpm.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let gen = || {
            let mut rng = StdRng::seed_from_u64(5);
            generate(&mut rng, &small_cfg())
        };
        let (a, b) = (gen(), gen());
        assert_eq!(a[0].templates, b[0].templates);
        assert_eq!(
            a[3].graph.edges().collect::<Vec<_>>(),
            b[3].graph.edges().collect::<Vec<_>>()
        );
    }
}
