//! Per-criticality Recovery Time Objectives (§3.1).
//!
//! Diagonal scaling "expands the resilience metrics space": instead of one
//! RTO for the whole application, an app can declare a stringent RTO for
//! its critical functionality and lenient ones for auxiliary tiers. This
//! module evaluates a [`SimTrace`] against such tiered targets: per
//! service, when did it go down, when was it restored, and did its tier's
//! objective hold?

use phoenix_cluster::PodKey;
use phoenix_core::spec::{AppId, ServiceId, Workload};
use phoenix_core::tags::Criticality;

use crate::run::SimTrace;
use crate::time::SimTime;

/// Tiered RTO targets: the maximum acceptable outage per criticality
/// level. Levels without an entry have **no** objective (may stay down
/// until capacity returns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RtoPolicy {
    targets: Vec<(Criticality, SimTime)>,
}

impl RtoPolicy {
    /// An empty policy (no objectives).
    pub fn new() -> RtoPolicy {
        RtoPolicy::default()
    }

    /// Sets the RTO for every service at `level` **or more critical** that
    /// has no tighter target yet.
    pub fn with_target(mut self, level: Criticality, rto: SimTime) -> RtoPolicy {
        self.targets.push((level, rto));
        self.targets.sort_by_key(|&(c, _)| c);
        self
    }

    /// The paper's running example: critical sub-services get a stringent
    /// bound (4 minutes — the measured full-recovery time), non-critical
    /// ones a lenient one (20 minutes — "until the nodes come back").
    pub fn paper_example() -> RtoPolicy {
        RtoPolicy::new()
            .with_target(Criticality::C1, SimTime::from_secs(240))
            .with_target(Criticality::C3, SimTime::from_secs(1200))
    }

    /// The objective applying to `level`: the tightest target whose level
    /// is ≥ `level` (i.e. the first tier that covers it).
    pub fn target_for(&self, level: Criticality) -> Option<SimTime> {
        self.targets
            .iter()
            .find(|&&(tier, _)| level.is_at_least_as_critical_as(tier))
            .map(|&(_, rto)| rto)
    }
}

/// One service's outage episode after a failure event.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutage {
    /// Application.
    pub app: AppId,
    /// Service.
    pub service: ServiceId,
    /// Effective criticality.
    pub criticality: Criticality,
    /// First sample at which the service stopped serving.
    pub down_at: SimTime,
    /// First sample at which it served again (`None` = never within the
    /// trace horizon).
    pub restored_at: Option<SimTime>,
    /// The tier's objective, if any.
    pub target: Option<SimTime>,
}

impl ServiceOutage {
    /// Outage duration, when restoration happened.
    pub fn duration(&self) -> Option<SimTime> {
        self.restored_at.map(|r| r.saturating_sub(self.down_at))
    }

    /// Did this outage violate its tier's objective?
    ///
    /// Unrestored services violate any finite target; services without a
    /// target never violate.
    pub fn violated(&self) -> bool {
        match (self.target, self.duration()) {
            (None, _) => false,
            (Some(t), Some(d)) => d > t,
            (Some(_), None) => true,
        }
    }

    /// How far past its tier's objective the restoration ran, in
    /// milliseconds. Unrestored outages are censored at `horizon` (the
    /// outage lasted at least until the trace ended). Zero when the
    /// objective held or the tier has none.
    pub fn excess_over_target(&self, horizon: SimTime) -> u64 {
        let Some(target) = self.target else { return 0 };
        let duration = self
            .duration()
            .unwrap_or_else(|| horizon.saturating_sub(self.down_at));
        duration.saturating_sub(target).as_millis()
    }
}

/// RTO evaluation of one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RtoReport {
    /// All outage episodes that started at or after the failure.
    pub outages: Vec<ServiceOutage>,
}

impl RtoReport {
    /// Episodes violating their objectives.
    pub fn violations(&self) -> Vec<&ServiceOutage> {
        self.outages.iter().filter(|o| o.violated()).collect()
    }

    /// `true` when every tiered objective held.
    pub fn satisfied(&self) -> bool {
        self.outages.iter().all(|o| !o.violated())
    }

    /// Total violation severity of the trace: the sum over violating
    /// outages of [`ServiceOutage::excess_over_target`] (milliseconds past
    /// the tier objective, censored at `horizon` when never restored).
    ///
    /// Zero when every objective held, and strictly ordered beyond that —
    /// a scheme that misses a 240 s objective by ten minutes scores worse
    /// than one that misses it by one — which is exactly the gradient an
    /// adversarial scenario search climbs. One asymmetry with
    /// [`satisfied`](RtoReport::satisfied): an unrestored outage whose
    /// *censored* duration has not yet exceeded its target counts as a
    /// (pessimistic) violation there but contributes zero severity here.
    pub fn severity(&self, horizon: SimTime) -> u64 {
        self.outages
            .iter()
            .map(|o| o.excess_over_target(horizon))
            .sum()
    }
}

/// Served-utility summary of a trace around a disruption: how much
/// utility the cluster kept serving while degraded. Binary place/evict
/// policies give up a service's whole weight the moment it no longer
/// fits; mode-aware plans keep a degraded fraction — this report is what
/// the scorecards compare.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityReport {
    /// Served utility just before the disruption.
    pub baseline: f64,
    /// Minimum served utility at or after the disruption.
    pub worst: f64,
    /// Mean served utility over all samples at or after the disruption.
    pub mean: f64,
}

impl UtilityReport {
    /// `worst / baseline`, clamped to 1.0 when nothing was served before
    /// the disruption (an empty baseline cannot be degraded).
    pub fn worst_fraction(&self) -> f64 {
        if self.baseline > 0.0 {
            self.worst / self.baseline
        } else {
            1.0
        }
    }

    /// `mean / baseline` with the same empty-baseline convention.
    pub fn mean_fraction(&self) -> f64 {
        if self.baseline > 0.0 {
            self.mean / self.baseline
        } else {
            1.0
        }
    }
}

/// Summarizes served utility around a disruption at `failure_at`: the
/// baseline is the last sample strictly before the event, `worst`/`mean`
/// aggregate every sample at or after it. With no post-event samples the
/// report degenerates to the baseline (nothing was disrupted in-trace).
pub fn evaluate_utility(trace: &SimTrace, failure_at: SimTime) -> UtilityReport {
    let baseline = trace.utility_at(failure_at.saturating_sub(SimTime::from_millis(1)));
    let mut worst = f64::INFINITY;
    let mut sum = 0.0;
    let mut count = 0usize;
    for sample in trace.samples.iter().filter(|s| s.at >= failure_at) {
        worst = worst.min(sample.utility);
        sum += sample.utility;
        count += 1;
    }
    if count == 0 {
        return UtilityReport {
            baseline,
            worst: baseline,
            mean: baseline,
        };
    }
    UtilityReport {
        baseline,
        worst,
        mean: sum / count as f64,
    }
}

/// Evaluates `trace` against `policy`: for every service that was serving
/// before `failure_at` and stopped at/after it, record the first outage
/// episode and check its tier's objective.
///
/// A service is up at a sample when every replica `0..replicas` of the
/// workload's spec is serving; extra surge replicas and pods outside the
/// workload are ignored. "Before the failure" is the last sample at or
/// before `failure_at − 1 ms` (saturating). An episode counts when the
/// service was up before the failure or went down strictly after it;
/// only the first episode and its restore are reported, in
/// `(app, service)` order.
///
/// The cost is one forward walk over the runs of
/// [`serving_runs`](SimTrace::serving_runs) from `failure_at` on,
/// recounting the per-service flags once per run — O(distinct serving
/// sets × pods), not O(samples × replicas × log pods). A simulated trace
/// shares one list per run, so finding where a run ends compares
/// pointers rather than pod lists.
///
/// Blind spot at `t = 0`: with `failure_at == 0` the "before" sample is
/// the `t = 0` sample itself, which already shows what a `t = 0` event
/// knocked out, so those services are never reported.
pub fn evaluate_rto(
    trace: &SimTrace,
    workload: &Workload,
    policy: &RtoPolicy,
    failure_at: SimTime,
) -> RtoReport {
    let table = ServiceTable::new(
        workload
            .apps()
            .map(|(_, app)| app.services().iter().map(|s| s.replicas)),
    );
    let mut slots = first_outages(trace, &table, failure_at).into_iter();
    let mut outages = Vec::new();
    for (ai, app) in workload.apps() {
        for service in app.service_ids() {
            let Some((down_at, restored_at)) = slots.next().flatten() else {
                continue;
            };
            let criticality = app.criticality_of(service);
            outages.push(ServiceOutage {
                app: ai,
                service,
                criticality,
                down_at,
                restored_at,
                target: policy.target_for(criticality),
            });
        }
    }
    RtoReport { outages }
}

/// The workload's services flattened in `(app, service)` order: service
/// `s` of app `a` is slot `offsets[a] + s`.
struct ServiceTable {
    /// Per-app first slot, plus the total slot count at the end.
    offsets: Vec<usize>,
    /// Spec replica count per slot.
    replicas: Vec<u16>,
}

impl ServiceTable {
    fn new<A, S>(apps: A) -> ServiceTable
    where
        A: IntoIterator<Item = S>,
        S: IntoIterator<Item = u16>,
    {
        let mut offsets = vec![0];
        let mut replicas = Vec::new();
        for services in apps {
            replicas.extend(services);
            offsets.push(replicas.len());
        }
        ServiceTable { offsets, replicas }
    }

    /// Per slot: is every replica `0..replicas` in the sorted `serving`
    /// list? Sorted order lists a service's replicas ascending, so
    /// counting only the next expected replica counts `0..k` without
    /// gaps; pods outside the workload's apps, services or replica range
    /// are skipped.
    fn up_flags(&self, serving: &[PodKey]) -> Vec<bool> {
        let mut counts = vec![0u16; self.replicas.len()];
        for pod in serving {
            let app = pod.app as usize;
            let Some(&[start, end]) = self.offsets.get(app..app + 2) else {
                continue;
            };
            let slot = start + pod.service as usize;
            if slot < end && pod.replica < self.replicas[slot] && pod.replica == counts[slot] {
                counts[slot] += 1;
            }
        }
        counts
            .iter()
            .zip(&self.replicas)
            .map(|(c, r)| c == r)
            .collect()
    }
}

/// One `(down_at, restored_at)` per slot of `table`: the first outage
/// episode [`evaluate_rto`] counts, or `None`.
fn first_outages(
    trace: &SimTrace,
    table: &ServiceTable,
    failure_at: SimTime,
) -> Vec<Option<(SimTime, Option<SimTime>)>> {
    let was_up =
        table.up_flags(trace.serving_at(failure_at.saturating_sub(SimTime::from_millis(1))));
    let mut episodes = vec![None; was_up.len()];
    // Equal serving sets give equal flags, and equal flags cannot open or
    // close an episode the previous sample did not.
    for run in trace.serving_runs(failure_at) {
        let sample = &run[0];
        let up = table.up_flags(&sample.serving);
        for (episode, &is_up) in episodes.iter_mut().zip(&up) {
            match episode {
                None if !is_up => *episode = Some((sample.at, None)),
                Some((_, restored @ None)) if is_up => *restored = Some(sample.at),
                _ => {}
            }
        }
    }
    for (episode, &was_up) in episodes.iter_mut().zip(&was_up) {
        if matches!(*episode, Some((down, _)) if !was_up && down <= failure_at) {
            *episode = None;
        }
    }
    episodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{simulate, SimConfig, TraceSample};
    use crate::scenario::Scenario;
    use phoenix_cluster::Resources;
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy};
    use phoenix_core::spec::AppSpecBuilder;

    fn workload() -> Workload {
        let mut b = AppSpecBuilder::new("tiered");
        b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
        b.add_service("aux", Resources::cpu(2.0), Some(Criticality::C3), 1);
        b.add_service("extra", Resources::cpu(2.0), Some(Criticality::new(6)), 1);
        Workload::new(vec![b.build().unwrap()])
    }

    fn scenario() -> Scenario {
        // 4 nodes; 3 fail at 300 s, return at 1500 s: only the C1 frontend
        // fits the surviving node until then.
        let mut s = Scenario::new(4, Resources::cpu(2.0));
        s.kubelet_stop_at(SimTime::from_secs(300), [0, 1, 2]);
        s.kubelet_start_at(SimTime::from_secs(1500), [0, 1, 2]);
        s
    }

    #[test]
    fn policy_tiers_resolve_tightest_cover() {
        let p = RtoPolicy::paper_example();
        assert_eq!(p.target_for(Criticality::C1), Some(SimTime::from_secs(240)));
        assert_eq!(
            p.target_for(Criticality::C2),
            Some(SimTime::from_secs(1200))
        );
        assert_eq!(
            p.target_for(Criticality::C3),
            Some(SimTime::from_secs(1200))
        );
        assert_eq!(p.target_for(Criticality::new(6)), None);
    }

    #[test]
    fn phoenix_meets_tiered_rto_default_does_not() {
        let w = workload();
        let policy = RtoPolicy::new().with_target(Criticality::C1, SimTime::from_secs(240));
        let cfg = SimConfig::default();
        let horizon = SimTime::from_secs(2000);

        let phx = simulate(&w, &PhoenixPolicy::fair(), &scenario(), &cfg, horizon);
        let report = evaluate_rto(&phx, &w, &policy, SimTime::from_secs(300));
        assert!(report.satisfied(), "violations: {:?}", report.violations());
        // The C1 outage was real but short.
        let c1 = report
            .outages
            .iter()
            .find(|o| o.criticality == Criticality::C1);
        if let Some(o) = c1 {
            assert!(o.duration().unwrap() <= SimTime::from_secs(240));
        }

        let dfl = simulate(&w, &DefaultPolicy, &scenario(), &cfg, horizon);
        let report = evaluate_rto(&dfl, &w, &policy, SimTime::from_secs(300));
        // Default cannot restore the frontend until nodes return at 1500 s
        // (if the frontend landed on a failed node), so either it violated
        // the RTO or it was lucky enough to be on the surviving node — in
        // which case nothing critical went down at all.
        let c1_down = report
            .outages
            .iter()
            .any(|o| o.criticality == Criticality::C1);
        if c1_down {
            assert!(!report.satisfied(), "Default met a 240s RTO it should miss");
        }
    }

    #[test]
    fn unrestored_services_violate_finite_targets() {
        let w = workload();
        // No restore event: non-critical tiers stay down past the horizon.
        let mut s = Scenario::new(4, Resources::cpu(2.0));
        s.kubelet_stop_at(SimTime::from_secs(300), [0, 1, 2]);
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &SimConfig::default(),
            SimTime::from_secs(1200),
        );
        let strict_everything =
            RtoPolicy::new().with_target(Criticality::new(10), SimTime::from_secs(300));
        let report = evaluate_rto(&trace, &w, &strict_everything, SimTime::from_secs(300));
        assert!(!report.satisfied());
        // With the paper's tiering, the same trace passes: C1 recovers and
        // the C6 service has no objective.
        let tiered = RtoPolicy::new().with_target(Criticality::C1, SimTime::from_secs(240));
        let report = evaluate_rto(&trace, &w, &tiered, SimTime::from_secs(300));
        assert!(report.satisfied(), "violations: {:?}", report.violations());
    }

    #[test]
    fn severity_orders_violations_and_censors_at_horizon() {
        let outage = |down_s: u64, restored_s: Option<u64>, target_s: Option<u64>| ServiceOutage {
            app: AppId::new(0),
            service: ServiceId::new(0),
            criticality: Criticality::C1,
            down_at: SimTime::from_secs(down_s),
            restored_at: restored_s.map(SimTime::from_secs),
            target: target_s.map(SimTime::from_secs),
        };
        let horizon = SimTime::from_secs(2000);

        // Met objective and objective-free tiers contribute nothing.
        assert_eq!(
            outage(300, Some(500), Some(240)).excess_over_target(horizon),
            0
        );
        assert_eq!(outage(300, None, None).excess_over_target(horizon), 0);
        // Restored late: the excess is duration - target.
        assert_eq!(
            outage(300, Some(900), Some(240)).excess_over_target(horizon),
            (600 - 240) * 1000
        );
        // Never restored: censored at the horizon.
        assert_eq!(
            outage(300, None, Some(240)).excess_over_target(horizon),
            (2000 - 300 - 240) * 1000
        );
        // Unrestored but censored before the target elapsed: no severity
        // yet (the `satisfied` asymmetry called out in the docs).
        assert_eq!(outage(1900, None, Some(240)).excess_over_target(horizon), 0);

        let report = RtoReport {
            outages: vec![
                outage(300, Some(900), Some(240)),
                outage(300, None, Some(240)),
                outage(300, Some(500), Some(240)),
            ],
        };
        assert_eq!(report.severity(horizon), (360 + 1460) * 1000);
        // A satisfied report scores zero.
        let ok = RtoReport {
            outages: vec![outage(300, Some(500), Some(240))],
        };
        assert_eq!(ok.severity(horizon), 0);
        assert!(ok.satisfied());
    }

    #[test]
    fn utility_report_ranks_modal_above_binary_under_crunch() {
        use phoenix_core::spec::{ModeSpec, ServingMode};
        // One 2-service app; chat can degrade to a 1-CPU read-only mode.
        let web = |ladder: bool| {
            let mut b = AppSpecBuilder::new("web");
            b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
            let chat = b.add_service("chat", Resources::cpu(2.0), Some(Criticality::C5), 1);
            if ladder {
                b.service_modes(
                    chat,
                    vec![
                        ModeSpec::new(ServingMode::Full, Resources::cpu(2.0), 1.0),
                        ModeSpec::new(ServingMode::ReadOnly, Resources::cpu(1.0), 0.6),
                    ],
                );
            }
            Workload::new(vec![b.build().unwrap()])
        };
        let cfg = SimConfig::default();
        let horizon = SimTime::from_secs(2000);
        let failure_at = SimTime::from_secs(300);
        // One 4-CPU node gray-fails to 3 CPUs for 20 minutes. Binary keeps
        // only the frontend; modal also serves chat read-only.
        let mut s = Scenario::new(1, Resources::cpu(4.0));
        s.capacity_degrade_at(failure_at, [0], 0.75);
        s.capacity_restore_at(SimTime::from_secs(1500), [0]);
        let m = simulate(&web(true), &PhoenixPolicy::fair(), &s, &cfg, horizon);
        let b = simulate(&web(false), &PhoenixPolicy::fair(), &s, &cfg, horizon);
        let mu = evaluate_utility(&m, failure_at);
        let bu = evaluate_utility(&b, failure_at);
        assert!((mu.baseline - 2.0).abs() < 1e-9);
        assert!((bu.baseline - 2.0).abs() < 1e-9);
        // The crunch costs the binary plan a whole service; the modal plan
        // keeps every tier serving in some mode.
        assert!(
            mu.mean > bu.mean,
            "modal mean {} should beat binary mean {}",
            mu.mean,
            bu.mean
        );
        assert!(mu.mean_fraction() <= 1.0 + 1e-9);
        assert!(bu.worst_fraction() < mu.mean_fraction());
    }

    #[test]
    fn utility_report_degenerates_without_post_event_samples() {
        let w = workload();
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &Scenario::new(4, Resources::cpu(2.0)),
            &SimConfig::default(),
            SimTime::from_secs(120),
        );
        let report = evaluate_utility(&trace, SimTime::from_secs(600));
        assert_eq!(report.baseline, report.worst);
        assert_eq!(report.baseline, report.mean);
        assert!((report.worst_fraction() - 1.0).abs() < 1e-9);
    }

    /// A hand-built sample at `at_s` serving `(app, service, replica)`s.
    fn sample(at_s: u64, pods: &[(u32, u32, u16)]) -> TraceSample {
        let mut serving: Vec<PodKey> = pods.iter().map(|&(a, s, r)| PodKey::new(a, s, r)).collect();
        serving.sort();
        TraceSample {
            at: SimTime::from_secs(at_s),
            serving: serving.into(),
            utility: 0.0,
        }
    }

    fn trace_of(samples: Vec<TraceSample>) -> SimTrace {
        SimTrace {
            samples,
            ..SimTrace::default()
        }
    }

    /// `(service, down_s, restored_s)` per reported outage.
    fn episodes(report: &RtoReport) -> Vec<(usize, u64, Option<u64>)> {
        report
            .outages
            .iter()
            .map(|o| {
                let secs = |t: SimTime| t.as_millis() / 1000;
                (o.service.index(), secs(o.down_at), o.restored_at.map(secs))
            })
            .collect()
    }

    const ALL: [(u32, u32, u16); 3] = [(0, 0, 0), (0, 1, 0), (0, 2, 0)];

    #[test]
    fn empty_trace_reports_nothing() {
        let (w, p) = (workload(), RtoPolicy::paper_example());
        for failure_s in [0, 100] {
            let report = evaluate_rto(&trace_of(vec![]), &w, &p, SimTime::from_secs(failure_s));
            assert!(report.outages.is_empty());
        }
    }

    #[test]
    fn failure_before_the_first_sample_and_after_the_last() {
        let (w, p) = (workload(), RtoPolicy::paper_example());
        // fe is dark in the first sample and back in the second.
        let trace = trace_of(vec![
            sample(10, &ALL[1..]),
            sample(11, &ALL),
            sample(12, &ALL),
        ]);
        // Nothing precedes the failure, so nothing was up; fe still counts
        // because it went down strictly after the failure instant.
        let early = evaluate_rto(&trace, &w, &p, SimTime::from_secs(5));
        assert_eq!(episodes(&early), vec![(0, 10, Some(11))]);
        // No sample at or after the failure: no episode.
        let late = evaluate_rto(&trace, &w, &p, SimTime::from_secs(20));
        assert!(late.outages.is_empty());
    }

    #[test]
    fn serving_keys_outside_the_workload_are_ignored() {
        let (w, p) = (workload(), RtoPolicy::paper_example());
        let strays = [
            (0, 0, 1),
            (0, 3, 0),
            (0, u32::MAX, 0),
            (1, 0, 0),
            (u32::MAX, 0, 0),
        ];
        let with_strays = |pods: &[(u32, u32, u16)]| {
            let mut all = pods.to_vec();
            all.extend(strays);
            all
        };
        let trace = trace_of(vec![
            sample(0, &with_strays(&ALL)),
            sample(1, &with_strays(&ALL[..2])),
            sample(2, &with_strays(&ALL)),
        ]);
        let report = evaluate_rto(&trace, &w, &p, SimTime::from_secs(1));
        assert_eq!(episodes(&report), vec![(2, 1, Some(2))]);
    }

    #[test]
    fn only_the_first_episode_and_its_restore_are_reported() {
        let (w, p) = (workload(), RtoPolicy::paper_example());
        let trace = trace_of(vec![
            sample(0, &ALL),
            sample(1, &ALL[1..]),
            sample(2, &ALL[1..]),
            sample(3, &ALL),
            sample(4, &ALL[1..]),
            sample(5, &ALL[1..]),
        ]);
        let report = evaluate_rto(&trace, &w, &p, SimTime::from_secs(1));
        assert_eq!(episodes(&report), vec![(0, 1, Some(3))]);
    }

    #[test]
    fn a_zero_replica_service_is_never_an_outage() {
        // `AppSpecBuilder` rejects zero replicas, so drive the walk on a
        // raw table: app 0 = [0 replicas, 1 replica].
        let table = ServiceTable::new([[0u16, 1]]);
        let trace = trace_of(vec![
            sample(0, &[(0, 1, 0)]),
            sample(1, &[]),
            sample(2, &[]),
        ]);
        for failure_s in [0, 1, 5] {
            let got = first_outages(&trace, &table, SimTime::from_secs(failure_s));
            assert_eq!(got[0], None, "failure at {failure_s}s");
        }
        let got = first_outages(&trace, &table, SimTime::from_secs(1));
        assert_eq!(got[1], Some((SimTime::from_secs(1), None)));
    }

    #[test]
    fn no_failure_no_outages() {
        let w = workload();
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &Scenario::new(4, Resources::cpu(2.0)),
            &SimConfig::default(),
            SimTime::from_secs(600),
        );
        let report = evaluate_rto(
            &trace,
            &w,
            &RtoPolicy::paper_example(),
            SimTime::from_secs(100),
        );
        assert!(report.outages.is_empty());
        assert!(report.satisfied());
    }
}
