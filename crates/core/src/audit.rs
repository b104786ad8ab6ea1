//! Adversarial / incorrect criticality-tag auditing (§7).
//!
//! Criticality tags are self-reported: a tenant that marks *everything*
//! `C1` asks the cloud to treat its chat widget like another tenant's
//! payment path. The paper's discussion names two defences — independent
//! tag-verification tools, and operator objectives (resource fairness)
//! that bound the damage a liar can do. This module implements both sides:
//!
//! * [`audit_workload`] is the verification tool: a static scan that flags
//!   tag distributions inconsistent with a degradable application
//!   (everything-critical, single-level, or fully untagged specs).
//! * [`blast_radius`] quantifies the damage: it plans the same failure
//!   twice — once with honest tags, once with one application's tags
//!   inflated to all-`C1` — and reports who gained and who lost, measured
//!   against the *honest* tags. Under [`FairnessObjective`] the inflator's
//!   gain is bounded by its water-filling fair share (lying reorders only
//!   its own chain); under quota-free criticality ordering (the `Priority`
//!   baseline) inflation steals capacity from every honest tenant. The
//!   ablation bench `ablation_adversarial` regenerates the comparison.
//!
//! [`FairnessObjective`]: crate::objectives::FairnessObjective

use std::fmt;

use phoenix_cluster::ClusterState;

use crate::controller::{rank_inputs, rank_round, PhoenixConfig};
use crate::ranking::GlobalRank;
use crate::spec::{AppId, AppSpec, AppSpecBuilder, ServiceId, Workload};
use crate::stateful::StatefulMarks;
use crate::tags::Criticality;

/// Flag an app as inflated when more than this fraction of its demand
/// claims `C1`. The paper's real deployments sit near 60 % critical
/// (Fig. 9), so 0.8 leaves honest headroom.
const C1_SHARE_THRESHOLD: f64 = 0.8;

/// Apps with fewer services than this are never flagged as inflated — a
/// single-container app is legitimately all-critical.
const MIN_SERVICES: usize = 3;

/// One suspicious pattern in an application's tags.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Finding {
    /// More than the threshold fraction of demand claims `C1`.
    Inflated {
        /// Fraction of demand tagged (effectively) `C1`.
        share: f64,
    },
    /// Every tagged service uses one level: the tags carry no ordering
    /// information, so diagonal scaling cannot choose what to shed.
    SingleLevel {
        /// The only level in use.
        level: Criticality,
    },
    /// No service carries a tag; the app defaults to fully critical (§5)
    /// and the operator pays for capacity it could have reclaimed.
    FullyUntagged,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::Inflated { share } => {
                write!(f, "{:.0}% of demand claims C1", share * 100.0)
            }
            Finding::SingleLevel { level } => write!(f, "all tags are {level}"),
            Finding::FullyUntagged => write!(f, "no criticality tags"),
        }
    }
}

/// Audit result for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppAudit {
    /// Application id.
    pub app: AppId,
    /// Application name.
    pub name: String,
    /// Fraction of demand whose *effective* tag is `C1`.
    pub c1_demand_share: f64,
    /// Fraction of demand carrying no tag at all.
    pub untagged_share: f64,
    /// Number of distinct effective levels in use.
    pub distinct_levels: usize,
    /// Suspicious patterns, empty when the app looks healthy.
    pub findings: Vec<Finding>,
}

impl AppAudit {
    /// `true` when no finding was raised.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Audit results for a whole workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// One entry per application, in workload order.
    pub apps: Vec<AppAudit>,
}

impl AuditReport {
    /// Applications with at least one finding.
    pub fn suspicious(&self) -> impl Iterator<Item = &AppAudit> {
        self.apps.iter().filter(|a| !a.clean())
    }

    /// `true` when every application is clean.
    pub fn passed(&self) -> bool {
        self.apps.iter().all(AppAudit::clean)
    }
}

/// Statically audits every application's tag distribution.
///
/// Unsubscribed apps (`phoenix_enabled(false)`) are skipped — they opted
/// out of diagonal scaling, so their tags are not load-bearing.
///
/// # Examples
///
/// ```
/// use phoenix_core::audit::{audit_workload, inflate_tags};
/// use phoenix_core::spec::{AppSpecBuilder, Workload};
/// use phoenix_core::tags::Criticality;
/// use phoenix_cluster::Resources;
///
/// let mut b = AppSpecBuilder::new("shop");
/// b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
/// b.add_service("api", Resources::cpu(2.0), Some(Criticality::C2), 1);
/// b.add_service("rec", Resources::cpu(2.0), Some(Criticality::C5), 1);
/// let honest = b.build()?;
///
/// let ok = audit_workload(&Workload::new(vec![honest.clone()]));
/// assert!(ok.passed());
///
/// let flagged = audit_workload(&Workload::new(vec![inflate_tags(&honest)]));
/// assert_eq!(flagged.suspicious().count(), 1);
/// # Ok::<(), phoenix_core::spec::SpecError>(())
/// ```
pub fn audit_workload(workload: &Workload) -> AuditReport {
    let apps = workload
        .apps()
        .map(|(id, spec)| audit_app(id, spec))
        .collect();
    AuditReport { apps }
}

fn audit_app(id: AppId, spec: &AppSpec) -> AppAudit {
    let total = spec.total_demand().scalar();
    let mut c1 = 0.0;
    let mut untagged = 0.0;
    let mut levels: Vec<Criticality> = Vec::new();
    for s in spec.service_ids() {
        let svc = spec.service(s);
        let demand = svc.total_demand().scalar();
        if spec.criticality_of(s) == Criticality::C1 {
            c1 += demand;
        }
        match svc.criticality {
            None => untagged += demand,
            Some(level) => {
                if !levels.contains(&level) {
                    levels.push(level);
                }
            }
        }
    }
    let c1_demand_share = if total > 0.0 { c1 / total } else { 0.0 };
    let untagged_share = if total > 0.0 { untagged / total } else { 0.0 };
    let distinct_levels = if untagged > 0.0 {
        levels.len() + usize::from(!levels.contains(&Criticality::C1))
    } else {
        levels.len()
    };

    let mut findings = Vec::new();
    if spec.phoenix_enabled() && spec.service_count() >= MIN_SERVICES {
        if untagged_share >= 1.0 {
            findings.push(Finding::FullyUntagged);
        } else if c1_demand_share > C1_SHARE_THRESHOLD {
            findings.push(Finding::Inflated {
                share: c1_demand_share,
            });
        }
        if distinct_levels == 1 && untagged_share < 1.0 {
            let level = levels.first().copied().unwrap_or_default();
            // All-C1 single-level apps are already covered by Inflated.
            if level != Criticality::C1 {
                findings.push(Finding::SingleLevel { level });
            }
        }
    }
    AppAudit {
        app: id,
        name: spec.name().to_string(),
        c1_demand_share,
        untagged_share,
        distinct_levels,
        findings,
    }
}

/// The all-`C1` adversarial transformation: the same app claiming maximal
/// criticality everywhere. Dependencies, replicas, prices, and the
/// subscription flag are preserved.
pub fn inflate_tags(spec: &AppSpec) -> AppSpec {
    let mut b = AppSpecBuilder::new(spec.name());
    for s in spec.service_ids() {
        let svc = spec.service(s);
        b.add_service(
            svc.name.clone(),
            svc.demand,
            Some(Criticality::C1),
            svc.replicas,
        );
    }
    if let Some(graph) = spec.dependency() {
        b.with_graph();
        for u in graph.node_ids() {
            for &v in graph.successors(u) {
                b.add_dependency(
                    ServiceId::new(u.index() as u32),
                    ServiceId::new(v.index() as u32),
                );
            }
        }
    }
    b.price_per_unit(spec.price_per_unit());
    b.phoenix_enabled(spec.phoenix_enabled());
    b.build().expect("a valid spec stays valid under retagging")
}

/// Outcome of the honest-vs-inflated planning comparison.
///
/// All `Vec`s are indexed by [`AppId`]; `C1` coverage is always measured
/// against the **honest** tags, so a liar's own numbers reflect what its
/// genuinely critical services received.
#[derive(Debug, Clone, PartialEq)]
pub struct BlastRadius {
    /// The application whose tags were inflated.
    pub inflator: AppId,
    /// Scalar resources granted per app with honest tags.
    pub honest_alloc: Vec<f64>,
    /// Scalar resources granted per app after the inflation.
    pub adversarial_alloc: Vec<f64>,
    /// Fraction of each app's truly-`C1` demand activated, honest run.
    pub honest_c1: Vec<f64>,
    /// Same fraction in the adversarial run (still against honest tags).
    pub adversarial_c1: Vec<f64>,
}

impl BlastRadius {
    /// Extra resources the liar obtained by inflating.
    pub fn inflator_gain(&self) -> f64 {
        self.adversarial_alloc[self.inflator.index()] - self.honest_alloc[self.inflator.index()]
    }

    /// Total resources honest applications lost.
    pub fn victim_loss(&self) -> f64 {
        self.honest_alloc
            .iter()
            .zip(&self.adversarial_alloc)
            .enumerate()
            .filter(|&(i, _)| i != self.inflator.index())
            .map(|(_, (&h, &a))| (h - a).max(0.0))
            .sum()
    }

    /// The honest application whose truly-critical coverage dropped most,
    /// with the size of the drop. `None` when no victim lost coverage.
    pub fn worst_victim(&self) -> Option<(AppId, f64)> {
        self.honest_c1
            .iter()
            .zip(&self.adversarial_c1)
            .enumerate()
            .filter(|&(i, _)| i != self.inflator.index())
            .map(|(i, (&h, &a))| (AppId::new(i as u32), h - a))
            .filter(|&(_, drop)| drop > 1e-9)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Ranks `state` twice (the pipeline's planner half; nothing is packed) —
/// honest tags vs. `inflator` claiming all-`C1` — and reports the damage.
///
/// # Panics
///
/// Panics if `inflator` is out of bounds for the workload.
pub fn blast_radius(
    workload: &Workload,
    inflator: AppId,
    state: &ClusterState,
    config: &PhoenixConfig,
) -> BlastRadius {
    let pins = StatefulMarks::new();
    let honest = rank_round(
        workload,
        &rank_inputs(workload, config, &pins),
        state,
        config,
        &[],
    );

    let mut apps: Vec<AppSpec> = workload.apps().map(|(_, a)| a.clone()).collect();
    apps[inflator.index()] = inflate_tags(&apps[inflator.index()]);
    let lying = Workload::new(apps);
    let inputs = rank_inputs(&lying, config, &pins);
    let adversarial = rank_round(&lying, &inputs, state, config, &[]);

    BlastRadius {
        inflator,
        honest_c1: c1_coverage(workload, &honest),
        adversarial_c1: c1_coverage(workload, &adversarial),
        honest_alloc: honest.allocated,
        adversarial_alloc: adversarial.allocated,
    }
}

/// Per-app fraction of truly-`C1` demand the ranking activated, judged by
/// the honest workload's tags.
pub fn c1_coverage(honest: &Workload, rank: &GlobalRank) -> Vec<f64> {
    let mut total = vec![0.0; honest.app_count()];
    let mut active = vec![0.0; honest.app_count()];
    for (app, spec) in honest.apps() {
        for s in spec.service_ids() {
            if spec.criticality_of(s) == Criticality::C1 {
                total[app.index()] += spec.service(s).total_demand().scalar();
            }
        }
    }
    for item in &rank.items {
        let spec = honest.app(item.app);
        if item.service.index() < spec.service_count()
            && spec.criticality_of(item.service) == Criticality::C1
        {
            active[item.app.index()] += item.demand.scalar();
        }
    }
    total
        .iter()
        .zip(&active)
        .map(|(&t, &a)| if t > 0.0 { (a / t).min(1.0) } else { 1.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectives::{CriticalityObjective, ObjectiveKind};
    use crate::planner::PlannerConfig;
    use phoenix_cluster::packing::PackingConfig;
    use phoenix_cluster::Resources;

    /// A healthy app: C1 frontend, C2 api, C5 chat (C1 share = 0.4).
    fn honest_app(name: &str) -> AppSpec {
        let mut b = AppSpecBuilder::new(name);
        let fe = b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
        let api = b.add_service("api", Resources::cpu(2.0), Some(Criticality::C2), 1);
        let chat = b.add_service("chat", Resources::cpu(1.0), Some(Criticality::C5), 1);
        b.add_dependency(fe, api);
        b.add_dependency(fe, chat);
        b.build().unwrap()
    }

    #[test]
    fn healthy_tags_pass_the_audit() {
        let w = Workload::new(vec![honest_app("a")]);
        let report = audit_workload(&w);
        assert!(report.passed());
        assert!(report.apps[0].clean());
        assert!((report.apps[0].c1_demand_share - 0.4).abs() < 1e-9);
        assert_eq!(report.apps[0].distinct_levels, 3);
        assert_eq!(report.suspicious().count(), 0);
    }

    #[test]
    fn inflated_app_is_flagged() {
        let w = Workload::new(vec![inflate_tags(&honest_app("liar"))]);
        let report = audit_workload(&w);
        assert!(!report.passed());
        let finding = &report.apps[0].findings[0];
        assert!(matches!(finding, Finding::Inflated { share } if *share > 0.99));
        assert!(finding.to_string().contains("claims C1"));
    }

    #[test]
    fn fully_untagged_app_is_flagged() {
        let mut b = AppSpecBuilder::new("untagged");
        for i in 0..3 {
            b.add_service(format!("s{i}"), Resources::cpu(1.0), None, 1);
        }
        let report = audit_workload(&Workload::new(vec![b.build().unwrap()]));
        assert_eq!(report.apps[0].findings, vec![Finding::FullyUntagged]);
        assert_eq!(report.apps[0].untagged_share, 1.0);
    }

    #[test]
    fn single_level_non_c1_is_flagged() {
        let mut b = AppSpecBuilder::new("flat");
        for i in 0..3 {
            b.add_service(
                format!("s{i}"),
                Resources::cpu(1.0),
                Some(Criticality::C3),
                1,
            );
        }
        let report = audit_workload(&Workload::new(vec![b.build().unwrap()]));
        assert_eq!(
            report.apps[0].findings,
            vec![Finding::SingleLevel {
                level: Criticality::C3
            }]
        );
        assert!(report.apps[0].findings[0].to_string().contains("C3"));
    }

    #[test]
    fn small_and_unsubscribed_apps_are_exempt() {
        let mut tiny = AppSpecBuilder::new("tiny");
        tiny.add_service("only", Resources::cpu(1.0), Some(Criticality::C1), 1);
        let mut legacy = AppSpecBuilder::new("legacy");
        for i in 0..4 {
            legacy.add_service(
                format!("s{i}"),
                Resources::cpu(1.0),
                Some(Criticality::C1),
                1,
            );
        }
        legacy.phoenix_enabled(false);
        let w = Workload::new(vec![tiny.build().unwrap(), legacy.build().unwrap()]);
        assert!(audit_workload(&w).passed());
    }

    #[test]
    fn inflate_preserves_everything_but_tags() {
        let app = honest_app("x");
        let lying = inflate_tags(&app);
        assert_eq!(lying.name(), app.name());
        assert_eq!(lying.service_count(), app.service_count());
        assert_eq!(lying.total_demand(), app.total_demand());
        assert_eq!(
            lying.dependency().unwrap().edges().count(),
            app.dependency().unwrap().edges().count()
        );
        for s in lying.service_ids() {
            assert_eq!(lying.criticality_of(s), Criticality::C1);
        }
    }

    /// Two identical apps: C1 frontend (2 CPU) + three C3 workers (2 CPU
    /// each). Total demand 8 per app; the cluster holds 8.
    fn contested_workload() -> Workload {
        let mut apps = Vec::new();
        for name in ["honest", "liar"] {
            let mut b = AppSpecBuilder::new(name);
            b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
            for i in 0..3 {
                b.add_service(
                    format!("w{i}"),
                    Resources::cpu(2.0),
                    Some(Criticality::C3),
                    1,
                );
            }
            apps.push(b.build().unwrap());
        }
        Workload::new(apps)
    }

    fn priority_config() -> PhoenixConfig {
        PhoenixConfig {
            objective: Box::new(CriticalityObjective),
            planner: PlannerConfig {
                continue_on_saturation: true,
                ..PlannerConfig::default()
            },
            packing: PackingConfig::default(),
        }
    }

    #[test]
    fn quota_free_priority_rewards_inflation() {
        let w = contested_workload();
        let state = ClusterState::homogeneous(2, Resources::cpu(4.0));
        let br = blast_radius(&w, AppId::new(1), &state, &priority_config());
        // Honest: both C1s, ties favour app0's workers → liar held 2.
        // Inflated: the liar's "C1" workers outrank app0's C3 workers.
        assert!(br.inflator_gain() > 1.9, "gain = {}", br.inflator_gain());
        assert!(br.victim_loss() > 1.9, "loss = {}", br.victim_loss());
        // The honest app's truly-critical frontend still runs (C1 beats
        // C1-tie-broken-by-id), so harm lands on its lower tiers here.
        assert_eq!(br.honest_c1[0], 1.0);
    }

    #[test]
    fn fairness_objective_bounds_inflation_gain() {
        let w = contested_workload();
        let state = ClusterState::homogeneous(2, Resources::cpu(4.0));
        let br = blast_radius(
            &w,
            AppId::new(1),
            &state,
            &PhoenixConfig::with_objective(ObjectiveKind::Fairness),
        );
        // Fair share is 4 per app regardless of what the tags claim, so the
        // liar gains nothing and no victim loses anything.
        assert!(
            br.inflator_gain().abs() < 1e-9,
            "gain = {}",
            br.inflator_gain()
        );
        assert!(br.victim_loss() < 1e-9, "loss = {}", br.victim_loss());
        assert_eq!(br.worst_victim(), None);
        assert_eq!(br.adversarial_c1[0], 1.0, "honest C1s keep running");
    }

    #[test]
    fn c1_coverage_judges_against_honest_tags() {
        let w = contested_workload();
        let state = ClusterState::homogeneous(2, Resources::cpu(4.0));
        let br = blast_radius(&w, AppId::new(1), &state, &priority_config());
        // The liar's own truly-C1 frontend keeps running in both runs; its
        // inflated workers do NOT count as critical coverage.
        assert_eq!(br.honest_c1[1], 1.0);
        assert_eq!(br.adversarial_c1[1], 1.0);
    }
}
