//! The control-plane event loop: kubelet health, failure detection, the
//! Phoenix agent's monitor/plan/execute cycle, and per-second serving
//! traces.

use std::time::Duration;

use phoenix_cluster::{ClusterState, FxHashMap, NodeId, PodKey, Resources};
use phoenix_core::actions::{diff_states, mode_shift_actions, Action};
use phoenix_core::policies::ResiliencePolicy;
use phoenix_core::spec::{AppId, ServingMode, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::events::EventQueue;
use crate::latency::LatencyModel;
use crate::scenario::{rack_members, zone_members, Scenario, ScenarioKind};
use crate::time::SimTime;

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Phoenix agent monitor period (§5: 15 s, tunable).
    pub monitor_interval: SimTime,
    /// Node-monitor grace: a silent kubelet is declared failed after this
    /// long (yields the paper's ≈100 s detection together with the tick).
    pub heartbeat_grace: SimTime,
    /// Serving-status sampling period for the output trace.
    pub sample_interval: SimTime,
    /// Pod lifecycle latencies.
    pub latency: LatencyModel,
    /// RNG seed (latency sampling).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            monitor_interval: SimTime::from_secs(15),
            heartbeat_grace: SimTime::from_secs(90),
            sample_interval: SimTime::from_secs(1),
            latency: LatencyModel::default(),
            seed: 7,
        }
    }
}

/// What a [`Milestone`] marks.
///
/// This used to be a bare `&'static str` label, which blocked new event
/// kinds from emitting milestones without stringly-typed drift; the enum
/// keeps the old labels available through [`MilestoneKind::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilestoneKind {
    /// Kubelets stopped (the ground truth, before detection).
    Failure,
    /// The node monitor declared dead kubelets failed.
    Detected,
    /// The agent produced a plan.
    Plan,
    /// The agent issued at least one action.
    ActionsIssued,
    /// All in-flight actions of a recovery completed.
    Recovered,
    /// Stopped kubelets came back.
    NodesRestored,
    /// Nodes lost part of their capacity (gray failure).
    Degraded,
    /// Degraded nodes returned to nominal capacity.
    CapacityRestored,
    /// An application's demand surged mid-run.
    Surge,
}

impl MilestoneKind {
    /// The legacy string label (`"failure"`, `"detected"`, …) used by
    /// reports and [`SimTrace::first`].
    pub fn label(self) -> &'static str {
        match self {
            MilestoneKind::Failure => "failure",
            MilestoneKind::Detected => "detected",
            MilestoneKind::Plan => "plan",
            MilestoneKind::ActionsIssued => "actions-issued",
            MilestoneKind::Recovered => "recovered",
            MilestoneKind::NodesRestored => "nodes-restored",
            MilestoneKind::Degraded => "degraded",
            MilestoneKind::CapacityRestored => "capacity-restored",
            MilestoneKind::Surge => "surge",
        }
    }
}

/// A labelled moment in the run (the `t1…t5` markers of Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct Milestone {
    /// When it happened.
    pub at: SimTime,
    /// What it marks.
    pub kind: MilestoneKind,
}

impl Milestone {
    /// The milestone's string label (see [`MilestoneKind::label`]).
    pub fn label(&self) -> &'static str {
        self.kind.label()
    }
}

/// Pods serving user traffic at one sample instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Sample time.
    pub at: SimTime,
    /// Sorted list of serving pods.
    pub serving: Vec<PodKey>,
    /// Served utility at this instant: every serving pod contributes its
    /// service's current-mode utility weight, normalized by replica count,
    /// so a fully-served service contributes exactly its weight. Mode-less
    /// workloads weigh every service 1.0 — utility is then the count of
    /// fully-served services.
    pub utility: f64,
}

/// Full output of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimTrace {
    /// Serving status over time, one sample per `sample_interval`.
    /// Consecutive samples may be equal apart from `at`: a sample with no
    /// other event since the previous one is a copy of it.
    pub samples: Vec<TraceSample>,
    /// Milestones in time order.
    pub milestones: Vec<Milestone>,
    /// `(when, how long)` for every planning invocation.
    pub plans: Vec<(SimTime, Duration)>,
}

impl SimTrace {
    /// Serving pods at the latest sample ≤ `t` (empty before first sample).
    pub fn serving_at(&self, t: SimTime) -> &[PodKey] {
        match self.samples.binary_search_by_key(&t, |s| s.at) {
            Ok(i) => &self.samples[i].serving,
            Err(0) => &[],
            Err(i) => &self.samples[i - 1].serving,
        }
    }

    /// Served utility at the latest sample ≤ `t` (0.0 before first sample).
    pub fn utility_at(&self, t: SimTime) -> f64 {
        match self.samples.binary_search_by_key(&t, |s| s.at) {
            Ok(i) => self.samples[i].utility,
            Err(0) => 0.0,
            Err(i) => self.samples[i - 1].utility,
        }
    }

    /// Is every replica of `(app, service)` serving at `t`?
    pub fn service_up(&self, workload: &Workload, app: u32, service: u32, t: SimTime) -> bool {
        let spec = workload
            .app(phoenix_core::spec::AppId::new(app))
            .service(phoenix_core::spec::ServiceId::new(service));
        let serving = self.serving_at(t);
        (0..spec.replicas).all(|r| serving.binary_search(&PodKey::new(app, service, r)).is_ok())
    }

    /// First milestone with `label`, if any.
    pub fn first(&self, label: &str) -> Option<SimTime> {
        self.milestones
            .iter()
            .find(|m| m.kind.label() == label)
            .map(|m| m.at)
    }

    /// First milestone of `kind`, if any.
    pub fn first_kind(&self, kind: MilestoneKind) -> Option<SimTime> {
        self.milestones
            .iter()
            .find(|m| m.kind == kind)
            .map(|m| m.at)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Starting,
    Running,
    Terminating,
}

#[derive(Debug, Clone)]
enum Event {
    Scenario(ScenarioKind),
    MonitorTick,
    Sample,
    DeleteDone(PodKey),
    /// Issue a start: the capacity it needs was freed by deletions whose
    /// completion events fire strictly earlier. `mode` is the serving mode
    /// the plan chose for the pod's service (always `Full` on mode-less
    /// workloads) — the booking is sized to that mode's demand.
    StartIssued {
        pod: PodKey,
        node: NodeId,
        mode: ServingMode,
        ready_at: SimTime,
    },
    /// Issue a migration (start replacement, reroute, delete original).
    /// The replacement instance comes up in the plan's chosen `mode`.
    MigrateIssued {
        pod: PodKey,
        to: NodeId,
        mode: ServingMode,
        done_at: SimTime,
    },
    /// An in-place serving-mode reconfiguration reached the pod: resize
    /// its booking and flip the ledger. Only emitted for modal workloads.
    ModeShiftApplied {
        pod: PodKey,
        to: ServingMode,
    },
    StartDone(PodKey),
}

/// Marks dead kubelets; returns `true` when any state actually changed.
fn stop_kubelets(
    nodes: &[NodeId],
    alive: &mut [bool],
    stopped_at: &mut [SimTime],
    now: SimTime,
) -> bool {
    let mut any = false;
    for node in nodes {
        let Some(a) = alive.get_mut(node.index()) else {
            continue; // out-of-shape scenario id: ignore defensively
        };
        if *a {
            *a = false;
            stopped_at[node.index()] = now;
            any = true;
        }
    }
    any
}

/// Marks kubelets back up; returns `true` when any state actually changed.
fn start_kubelets(nodes: &[NodeId], alive: &mut [bool]) -> bool {
    let mut any = false;
    for node in nodes {
        let Some(a) = alive.get_mut(node.index()) else {
            continue;
        };
        if !*a {
            *a = true;
            any = true;
        }
    }
    any
}

/// The serving status at `now`: every `Running` pod on a live kubelet,
/// sorted, and the utility they serve under `workload` (the current,
/// possibly surged spec).
fn serving_sample(
    now: SimTime,
    state: &ClusterState,
    kubelet_alive: &[bool],
    phase: &FxHashMap<PodKey, Phase>,
    pod_mode: &FxHashMap<PodKey, ServingMode>,
    workload: &Workload,
) -> TraceSample {
    let mut serving: Vec<PodKey> = state
        .assignments()
        .filter(|&(pod, node, _)| {
            kubelet_alive[node.index()] && phase.get(&pod) == Some(&Phase::Running)
        })
        .map(|(pod, _, _)| pod)
        .collect();
    serving.sort();
    let utility = serving
        .iter()
        .filter_map(|&pod| {
            let (_, svc) = workload.service_of_pod(pod)?;
            let mode = pod_mode.get(&pod).copied().unwrap_or(ServingMode::Full);
            Some(svc.mode_utility(mode) / f64::from(svc.replicas))
        })
        .sum();
    TraceSample {
        at: now,
        serving,
        utility,
    }
}

/// The captured `t = 0` steady state of one `(workload, policy, cluster
/// shape)` triple: the policy's cold plan over the healthy cluster,
/// recorded as an ordered assignment list.
///
/// That plan is a pure function of its three inputs and is *not* part of
/// the trace ([`SimTrace::plans`] starts at the first in-run replan), so
/// trial fan-outs — campaign cells, hunt candidates, shrink probes — can
/// compute it **once** per `(policy, shape)` and hand it to
/// [`simulate_from`], which replays the list in captured order instead of
/// re-planning the identical cold start per trial. Replay is byte-exact:
/// assignments land in the same order the plan's own iteration produced,
/// so downstream pod-list order (and everything keyed on it) matches a
/// cold [`simulate`] bit for bit.
#[derive(Debug, Clone)]
pub struct SteadyState {
    /// The per-node capacities the plan was computed for.
    capacities: Vec<Resources>,
    /// Per-app [`AppSpec::fingerprint`](phoenix_core::spec::AppSpec::fingerprint)s
    /// of the workload the plan was computed for.
    fingerprints: Vec<u64>,
    /// [`ResiliencePolicy::name`] of the planning policy.
    policy: &'static str,
    /// `(pod, node, demand, mode)` in the plan's own assignment order.
    assigns: Vec<(PodKey, NodeId, Resources, ServingMode)>,
}

impl SteadyState {
    /// Plans `workload` under `policy` on a fresh healthy cluster with
    /// `capacities` and captures the resulting steady state.
    pub fn compute(
        workload: &Workload,
        policy: &dyn ResiliencePolicy,
        capacities: &[Resources],
    ) -> SteadyState {
        let state = ClusterState::new(capacities.iter().copied());
        let initial = policy.plan(workload, &state);
        let assigns = initial
            .target
            .assignments()
            .map(|(pod, node, demand)| (pod, node, demand, initial.modes.mode_of_pod(pod)))
            .collect();
        SteadyState {
            capacities: capacities.to_vec(),
            fingerprints: workload.apps().map(|(_, a)| a.fingerprint()).collect(),
            policy: policy.name(),
            assigns,
        }
    }

    /// True when this steady state was captured for exactly this
    /// `(workload, policy, capacities)` triple — capacities bit-compared,
    /// the workload by per-app fingerprint, the policy by name. Anything
    /// else means the capture must not be replayed.
    fn matches(
        &self,
        workload: &Workload,
        policy: &dyn ResiliencePolicy,
        capacities: &[Resources],
    ) -> bool {
        self.capacities.len() == capacities.len()
            && self.capacities.iter().zip(capacities).all(|(a, b)| {
                a.cpu.to_bits() == b.cpu.to_bits() && a.mem.to_bits() == b.mem.to_bits()
            })
            && self.policy == policy.name()
            && self.fingerprints.len() == workload.app_count()
            && workload
                .apps()
                .zip(&self.fingerprints)
                .all(|((_, a), &f)| a.fingerprint() == f)
    }
}

/// Runs `scenario` under `policy` until `horizon`.
///
/// The initial state is the policy's own plan over the full cluster,
/// applied instantaneously at `t = 0` (steady state before the disaster).
///
/// Scenarios restricted to the legacy stop/start vocabulary behave
/// **bit-for-bit** as before the richer event kinds existed: the flap
/// jitter stream is a dedicated RNG (never advanced unless a flap fires)
/// and the workload is only copied when a surge rewrites it.
pub fn simulate(
    workload: &Workload,
    policy: &dyn ResiliencePolicy,
    scenario: &Scenario,
    config: &SimConfig,
    horizon: SimTime,
) -> SimTrace {
    simulate_from(workload, policy, scenario, config, horizon, None)
}

/// [`simulate`] with an optional precomputed [`SteadyState`].
///
/// When `steady` is present and was captured for this `workload`,
/// `policy` and `scenario`'s cluster shape, the `t = 0` plan is replayed
/// from the capture instead of recomputed — byte-identical output, minus
/// one cold plan per call. Any mismatch (a shrink probe that dropped
/// trailing nodes, a capture handed to a different workload or policy)
/// falls back to planning cold, so a stale capture costs time, never
/// correctness.
pub fn simulate_from(
    workload: &Workload,
    policy: &dyn ResiliencePolicy,
    scenario: &Scenario,
    config: &SimConfig,
    horizon: SimTime,
    steady: Option<&SteadyState>,
) -> SimTrace {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Flap jitter comes out of its own stream so flapping scenarios do
    // not perturb the pod-latency samples of co-scheduled events (and
    // legacy scenarios never touch it at all).
    let mut flap_rng = StdRng::seed_from_u64(config.seed ^ 0xF1A9_0000_F1A9_0000);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut trace = SimTrace::default();
    // One handle for the whole run. Per-cell runs execute inside the
    // campaign fan-out, so everything recorded here must be commutative
    // (sums only) for the deterministic plane to stay thread-invariant.
    let obs = phoenix_obs::current();

    // Control-plane view of the cluster.
    let mut state = ClusterState::new(scenario.node_capacities.iter().copied());
    // Ground truth about kubelets and gray capacity.
    let n = scenario.node_count();
    let mut kubelet_alive = vec![true; n];
    let mut kubelet_stopped_at = vec![SimTime::ZERO; n];
    let mut degrade_truth = vec![1.0f64; n];

    // Point lookups only: neither ledger is ever iterated, so the hasher
    // cannot leak into the output.
    let mut phase: FxHashMap<PodKey, Phase> = FxHashMap::default();
    // Which serving mode each live pod currently runs in. Absent = `Full`,
    // so mode-less workloads never touch it meaningfully.
    let mut pod_mode: FxHashMap<PodKey, ServingMode> = FxHashMap::default();
    let mut actions_in_flight: usize = 0;
    let mut dirty = false;
    // Only non-`Sample` events change what a sample reads; until one
    // fires, the next sample repeats the previous one.
    let mut sample_dirty = true;
    let mut failure_pending_recovery = false;
    // Copy-on-surge workload: `None` means the original is still current.
    let mut surged: Option<Workload> = None;

    // Steady state at t = 0: replay the capture when it was taken for
    // these inputs, else plan cold — identical output either way, because
    // the cold plan is a pure function of (workload, policy, capacities)
    // and the capture preserves its assignment order.
    match steady.filter(|s| s.matches(workload, policy, &scenario.node_capacities)) {
        Some(s) => {
            for &(pod, node, demand, mode) in &s.assigns {
                state.assign(pod, demand, node).expect("steady plan fits");
                phase.insert(pod, Phase::Running);
                pod_mode.insert(pod, mode);
            }
        }
        None => {
            let initial = policy.plan(workload, &state);
            for (pod, node, demand) in initial.target.assignments() {
                state.assign(pod, demand, node).expect("initial plan fits");
                phase.insert(pod, Phase::Running);
                pod_mode.insert(pod, initial.modes.mode_of_pod(pod));
            }
        }
    }

    for ev in &scenario.events {
        queue.schedule(ev.at, Event::Scenario(ev.kind.clone()));
    }
    queue.schedule(config.monitor_interval, Event::MonitorTick);
    queue.schedule(SimTime::ZERO, Event::Sample);

    while let Some((now, event)) = queue.pop() {
        if now > horizon {
            break;
        }
        obs.incr(phoenix_obs::Counter::SimEvents);
        if !matches!(event, Event::Sample) {
            sample_dirty = true;
        }
        match event {
            Event::Scenario(ScenarioKind::KubeletStop(nodes)) => {
                if stop_kubelets(&nodes, &mut kubelet_alive, &mut kubelet_stopped_at, now) {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::Failure,
                    });
                }
            }
            Event::Scenario(ScenarioKind::KubeletStart(nodes)) => {
                if start_kubelets(&nodes, &mut kubelet_alive) {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::NodesRestored,
                    });
                }
            }
            Event::Scenario(ScenarioKind::ZoneOutage { zones, zone }) => {
                let members: Vec<NodeId> = zone_members(n, zones, zone)
                    .into_iter()
                    .map(NodeId::new)
                    .collect();
                if stop_kubelets(&members, &mut kubelet_alive, &mut kubelet_stopped_at, now) {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::Failure,
                    });
                }
            }
            Event::Scenario(ScenarioKind::ZoneRestore { zones, zone }) => {
                let members: Vec<NodeId> = zone_members(n, zones, zone)
                    .into_iter()
                    .map(NodeId::new)
                    .collect();
                if start_kubelets(&members, &mut kubelet_alive) {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::NodesRestored,
                    });
                }
            }
            Event::Scenario(ScenarioKind::RackOutage { racks, rack }) => {
                let members: Vec<NodeId> = rack_members(n, racks, rack)
                    .into_iter()
                    .map(NodeId::new)
                    .collect();
                if stop_kubelets(&members, &mut kubelet_alive, &mut kubelet_stopped_at, now) {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::Failure,
                    });
                }
            }
            Event::Scenario(ScenarioKind::RackRestore { racks, rack }) => {
                let members: Vec<NodeId> = rack_members(n, racks, rack)
                    .into_iter()
                    .map(NodeId::new)
                    .collect();
                if start_kubelets(&members, &mut kubelet_alive) {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::NodesRestored,
                    });
                }
            }
            Event::Scenario(ScenarioKind::Flap {
                nodes,
                down,
                up,
                cycles,
                jitter_ms,
            }) => {
                if cycles > 0 {
                    if stop_kubelets(&nodes, &mut kubelet_alive, &mut kubelet_stopped_at, now) {
                        trace.milestones.push(Milestone {
                            at: now,
                            kind: MilestoneKind::Failure,
                        });
                    }
                    let jitter = |rng: &mut StdRng, cap: u64| {
                        SimTime::from_millis(if cap > 0 { rng.gen_range(0..=cap) } else { 0 })
                    };
                    // The restart's jitter is capped below the serving
                    // dwell when another cycle follows: an unbounded draw
                    // could push this cycle's KubeletStart past the next
                    // cycle's stop, silently erasing a down phase.
                    let up_cap = if cycles > 1 {
                        jitter_ms.min(up.as_millis().saturating_sub(1))
                    } else {
                        jitter_ms
                    };
                    let back_up = now + down + jitter(&mut flap_rng, up_cap);
                    queue.schedule(
                        back_up,
                        Event::Scenario(ScenarioKind::KubeletStart(nodes.clone())),
                    );
                    if cycles > 1 {
                        let next_drop = now + down + up + jitter(&mut flap_rng, jitter_ms);
                        queue.schedule(
                            next_drop,
                            Event::Scenario(ScenarioKind::Flap {
                                nodes,
                                down,
                                up,
                                cycles: cycles - 1,
                                jitter_ms,
                            }),
                        );
                    }
                }
            }
            Event::Scenario(ScenarioKind::CapacityDegrade { nodes, factor }) => {
                let factor = factor.clamp(0.0, 1.0);
                let mut any = false;
                for node in nodes {
                    if let Some(t) = degrade_truth.get_mut(node.index()) {
                        if t.to_bits() != factor.to_bits() {
                            *t = factor;
                            any = true;
                        }
                    }
                }
                if any {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::Degraded,
                    });
                }
            }
            Event::Scenario(ScenarioKind::CapacityRestore { nodes }) => {
                let mut any = false;
                for node in nodes {
                    if let Some(t) = degrade_truth.get_mut(node.index()) {
                        if t.to_bits() != 1.0f64.to_bits() {
                            *t = 1.0;
                            any = true;
                        }
                    }
                }
                if any {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::CapacityRestored,
                    });
                }
            }
            Event::Scenario(ScenarioKind::DemandSurge {
                app,
                demand_factor,
                replica_factor,
            }) => {
                if (app as usize) < workload.app_count() {
                    surged.get_or_insert_with(|| workload.clone()).scale_app(
                        AppId::new(app),
                        demand_factor,
                        replica_factor,
                    );
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::Surge,
                    });
                    dirty = true;
                }
            }
            Event::MonitorTick => {
                // Detect dead kubelets past the grace period.
                let mut detected_failure = false;
                let mut detected_recovery = false;
                for i in 0..n {
                    let node = NodeId::new(i as u32);
                    if !kubelet_alive[i]
                        && state.is_healthy(node)
                        && now.saturating_sub(kubelet_stopped_at[i]) >= config.heartbeat_grace
                    {
                        for (pod, _) in state.fail_node(node) {
                            phase.remove(&pod);
                            pod_mode.remove(&pod);
                        }
                        detected_failure = true;
                    }
                    if kubelet_alive[i] && !state.is_healthy(node) {
                        state.restore_node(node);
                        detected_recovery = true;
                    }
                }
                // Gray capacity changes are visible at the very next tick:
                // a degraded kubelet still heartbeats, it just reports a
                // smaller allocatable. Converge the control-plane view to
                // the ground truth, evicting overflowing pods.
                let mut degrade_changed = false;
                let mut degrade_evicted = false;
                for i in 0..n {
                    let node = NodeId::new(i as u32);
                    if state.degrade_factor(node).to_bits() != degrade_truth[i].to_bits() {
                        degrade_changed = true;
                        for (pod, _) in state.set_degrade(node, degrade_truth[i]) {
                            phase.remove(&pod);
                            pod_mode.remove(&pod);
                            degrade_evicted = true;
                        }
                    }
                }
                if detected_failure {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::Detected,
                    });
                    failure_pending_recovery = true;
                    dirty = true;
                }
                if detected_recovery || degrade_changed {
                    dirty = true;
                }
                if degrade_evicted {
                    // Evictions took services down; track the replan that
                    // restores them like any other recovery.
                    failure_pending_recovery = true;
                }

                if dirty && actions_in_flight == 0 {
                    let wl = surged.as_ref().unwrap_or(workload);
                    let modal = wl.has_modes();
                    let plan = policy.plan(wl, &state);
                    obs.incr(phoenix_obs::Counter::SimPlans);
                    obs.record_duration(phoenix_obs::Phase::Replan, plan.planning_time);
                    trace.plans.push((now, plan.planning_time));
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::Plan,
                    });
                    let mut actions = diff_states(&state, &plan.target);
                    if modal {
                        // Placement-stable pods whose chosen mode changed
                        // get an in-place reconfiguration instead of a
                        // restart; the splice keeps the safe order
                        // (deletes → migrations → shifts → starts).
                        let shifts = mode_shift_actions(
                            &state,
                            &plan.target,
                            |p| pod_mode.get(&p).copied().unwrap_or(ServingMode::Full),
                            &plan.modes,
                        );
                        actions.insert_mode_shifts(shifts);
                    }
                    dirty = false;
                    if !actions.is_empty() {
                        trace.milestones.push(Milestone {
                            at: now,
                            kind: MilestoneKind::ActionsIssued,
                        });
                        // Phase A: deletions, issued back-to-back.
                        let mut cursor = now;
                        let mut last_delete_done = now;
                        for a in &actions.actions {
                            if let Action::Delete { pod, .. } = *a {
                                cursor += config.latency.issue_overhead.sample(&mut rng);
                                let done = cursor + config.latency.delete.sample(&mut rng);
                                phase.insert(pod, Phase::Terminating);
                                queue.schedule(done, Event::DeleteDone(pod));
                                actions_in_flight += 1;
                                last_delete_done = last_delete_done.max(done);
                            }
                        }
                        // Phase B: migrations and starts are *issued* only
                        // after the deletions have freed their capacity in
                        // the live state (their events fire later).
                        let mut cursor =
                            last_delete_done + config.latency.issue_overhead.sample(&mut rng);
                        for a in &actions.actions {
                            match *a {
                                Action::Migrate { pod, to, .. } => {
                                    cursor += config.latency.issue_overhead.sample(&mut rng);
                                    let done_at = cursor
                                        + config.latency.start.sample(&mut rng)
                                        + config.latency.reroute.sample(&mut rng);
                                    let mode = plan.modes.mode_of_pod(pod);
                                    queue.schedule(
                                        cursor,
                                        Event::MigrateIssued {
                                            pod,
                                            to,
                                            mode,
                                            done_at,
                                        },
                                    );
                                    actions_in_flight += 1;
                                }
                                Action::ModeShift { pod, to, .. } => {
                                    // A config push plus traffic reroute:
                                    // no pod restart, so only the reroute
                                    // latency applies.
                                    cursor += config.latency.issue_overhead.sample(&mut rng);
                                    let apply_at = cursor + config.latency.reroute.sample(&mut rng);
                                    queue.schedule(apply_at, Event::ModeShiftApplied { pod, to });
                                    actions_in_flight += 1;
                                }
                                Action::Start { pod, node } => {
                                    cursor += config.latency.issue_overhead.sample(&mut rng);
                                    let ready_at = cursor + config.latency.start.sample(&mut rng);
                                    let mode = plan.modes.mode_of_pod(pod);
                                    queue.schedule(
                                        cursor,
                                        Event::StartIssued {
                                            pod,
                                            node,
                                            mode,
                                            ready_at,
                                        },
                                    );
                                    actions_in_flight += 1;
                                }
                                Action::Delete { .. } => {}
                            }
                        }
                    } else if failure_pending_recovery {
                        // Nothing to do (e.g. NoAdapt): recovery is trivially
                        // "complete".
                        failure_pending_recovery = false;
                    }
                }
                let next = now + config.monitor_interval;
                if next <= horizon {
                    queue.schedule(next, Event::MonitorTick);
                }
            }
            Event::DeleteDone(pod) => {
                if phase.get(&pod) == Some(&Phase::Terminating) {
                    let _ = state.remove(pod);
                    phase.remove(&pod);
                    pod_mode.remove(&pod);
                }
                actions_in_flight = actions_in_flight.saturating_sub(1);
                if actions_in_flight == 0 && failure_pending_recovery {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::Recovered,
                    });
                    failure_pending_recovery = false;
                }
            }
            Event::StartIssued {
                pod,
                node,
                mode,
                ready_at,
            } => {
                // Book the chosen mode's demand; `mode_demand(Full)` is the
                // plain service demand, so mode-less plans book as before.
                let looked_up = surged
                    .as_ref()
                    .unwrap_or(workload)
                    .service_of_pod(pod)
                    .map(|(_, s)| s.mode_demand(mode));
                let Some(demand) = looked_up else {
                    // A surge shrank the app between plan and issue and the
                    // pod no longer exists: drop the start and replan.
                    actions_in_flight = actions_in_flight.saturating_sub(1);
                    dirty = true;
                    if actions_in_flight == 0 && failure_pending_recovery {
                        trace.milestones.push(Milestone {
                            at: now,
                            kind: MilestoneKind::Recovered,
                        });
                        failure_pending_recovery = false;
                    }
                    continue;
                };
                match state.assign(pod, demand, node) {
                    Ok(()) => {
                        phase.insert(pod, Phase::Starting);
                        pod_mode.insert(pod, mode);
                        queue.schedule(ready_at, Event::StartDone(pod));
                    }
                    Err(_) => {
                        // The node failed (or shrank) between plan and
                        // issue: drop the start and replan at next tick.
                        actions_in_flight = actions_in_flight.saturating_sub(1);
                        dirty = true;
                        if actions_in_flight == 0 && failure_pending_recovery {
                            trace.milestones.push(Milestone {
                                at: now,
                                kind: MilestoneKind::Recovered,
                            });
                            failure_pending_recovery = false;
                        }
                    }
                }
            }
            Event::MigrateIssued {
                pod,
                to,
                mode,
                done_at,
            } => {
                // Old instance keeps serving while the replacement starts;
                // the booking moves atomically, falling back to staying put
                // when the target cannot host the pod anymore.
                if state.node_of(pod).is_some() && state.migrate(pod, to).is_ok() {
                    let wl = surged.as_ref().unwrap_or(workload);
                    if wl.has_modes() {
                        // The replacement instance comes up in the plan's
                        // chosen mode: rebook at that mode's demand. Shrinks
                        // always fit; a grow that no longer fits keeps the
                        // old booking and lets the next tick replan.
                        let want = wl.service_of_pod(pod).map(|(_, s)| s.mode_demand(mode));
                        match want {
                            Some(want) if state.demand_of(pod) != Some(want) => {
                                let (node, old) = state.remove(pod).expect("just migrated");
                                if state.assign(pod, want, node).is_ok() {
                                    pod_mode.insert(pod, mode);
                                } else {
                                    state.assign(pod, old, node).expect("old booking fits");
                                    dirty = true;
                                }
                            }
                            Some(_) => {
                                pod_mode.insert(pod, mode);
                            }
                            None => {}
                        }
                    }
                    queue.schedule(done_at, Event::StartDone(pod));
                } else {
                    actions_in_flight = actions_in_flight.saturating_sub(1);
                    dirty = true;
                    if actions_in_flight == 0 && failure_pending_recovery {
                        trace.milestones.push(Milestone {
                            at: now,
                            kind: MilestoneKind::Recovered,
                        });
                        failure_pending_recovery = false;
                    }
                }
            }
            Event::ModeShiftApplied { pod, to } => {
                obs.incr(phoenix_obs::Counter::SimModeShifts);
                // Resize the live booking to the new mode's demand. The pod
                // never stops serving: a shift is a config flip, not a
                // restart. A grow that no longer fits (capacity changed
                // since the plan) keeps the old booking and replans.
                let want = surged
                    .as_ref()
                    .unwrap_or(workload)
                    .service_of_pod(pod)
                    .map(|(_, s)| s.mode_demand(to));
                match (state.node_of(pod), want) {
                    (Some(node), Some(want)) => {
                        if state.demand_of(pod) == Some(want) {
                            pod_mode.insert(pod, to);
                        } else {
                            let (_, old) = state.remove(pod).expect("pod is assigned");
                            if state.assign(pod, want, node).is_ok() {
                                pod_mode.insert(pod, to);
                            } else {
                                state.assign(pod, old, node).expect("old booking fits");
                                dirty = true;
                            }
                        }
                    }
                    // The pod was evicted (or the service vanished in a
                    // surge) between plan and apply: nothing to shift.
                    _ => dirty = true,
                }
                actions_in_flight = actions_in_flight.saturating_sub(1);
                if actions_in_flight == 0 && failure_pending_recovery {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::Recovered,
                    });
                    failure_pending_recovery = false;
                }
            }
            Event::StartDone(pod) => {
                if state.node_of(pod).is_some() {
                    phase.insert(pod, Phase::Running);
                }
                actions_in_flight = actions_in_flight.saturating_sub(1);
                if actions_in_flight == 0 && failure_pending_recovery {
                    trace.milestones.push(Milestone {
                        at: now,
                        kind: MilestoneKind::Recovered,
                    });
                    failure_pending_recovery = false;
                }
            }
            Event::Sample => {
                let wl = surged.as_ref().unwrap_or(workload);
                let fresh = || serving_sample(now, &state, &kubelet_alive, &phase, &pod_mode, wl);
                let sample = match trace.samples.last() {
                    Some(last) if !sample_dirty => {
                        let reused = TraceSample {
                            at: now,
                            ..last.clone()
                        };
                        debug_assert_eq!(reused, fresh(), "reused sample differs at {now}");
                        reused
                    }
                    _ => fresh(),
                };
                trace.samples.push(sample);
                sample_dirty = false;
                let next = now + config.sample_interval;
                if next <= horizon {
                    queue.schedule(next, Event::Sample);
                }
            }
        }
    }
    trace.milestones.sort_by_key(|m| m.at);
    obs.add(
        phoenix_obs::Counter::SimMilestones,
        trace.milestones.len() as u64,
    );
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_cluster::Resources;
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy};
    use phoenix_core::spec::AppSpecBuilder;
    use phoenix_core::tags::Criticality;

    /// One app: 2-CPU critical frontend, 2-CPU optional chat.
    fn workload() -> Workload {
        let mut b = AppSpecBuilder::new("web");
        let fe = b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
        let chat = b.add_service("chat", Resources::cpu(2.0), Some(Criticality::C5), 1);
        b.add_dependency(fe, chat);
        Workload::new(vec![b.build().unwrap()])
    }

    fn failure_scenario() -> Scenario {
        let mut s = Scenario::new(2, Resources::cpu(2.0));
        // Fail the frontend's node at 300 s, restore at 900 s.
        s.kubelet_stop_at(SimTime::from_secs(300), [0, 1]);
        s.kubelet_start_at(SimTime::from_secs(900), [0, 1]);
        s
    }

    #[test]
    fn steady_state_serves_everything() {
        let w = workload();
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &Scenario::new(2, Resources::cpu(2.0)),
            &SimConfig::default(),
            SimTime::from_secs(60),
        );
        assert!(trace.service_up(&w, 0, 0, SimTime::from_secs(30)));
        assert!(trace.service_up(&w, 0, 1, SimTime::from_secs(30)));
        assert!(trace.milestones.is_empty());
    }

    #[test]
    fn detection_roughly_grace_plus_tick() {
        let w = workload();
        let mut s = Scenario::new(3, Resources::cpu(2.0));
        s.kubelet_stop_at(SimTime::from_secs(300), [2]);
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &SimConfig::default(),
            SimTime::from_secs(600),
        );
        let detected = trace.first("detected").expect("failure detected");
        let delay = detected
            .saturating_sub(SimTime::from_secs(300))
            .as_secs_f64();
        assert!(
            (90.0..=110.0).contains(&delay),
            "detection delay {delay}s outside the ≈100 s band"
        );
    }

    #[test]
    fn phoenix_recovers_critical_service_before_nodes_return() {
        let w = workload();
        // 2 nodes, both fail? That kills everything. Use 3 nodes: fail two,
        // leaving one 2-CPU node — room for exactly the C1 frontend.
        let mut s = Scenario::new(3, Resources::cpu(2.0));
        s.kubelet_stop_at(SimTime::from_secs(300), [0, 1]);
        s.kubelet_start_at(SimTime::from_secs(900), [0, 1]);
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &SimConfig::default(),
            SimTime::from_secs(1400),
        );
        let recovered = trace.first("recovered").expect("recovery completes");
        assert!(
            recovered < SimTime::from_secs(900),
            "recovered at {recovered}"
        );
        // Critical service is up between recovery and node return…
        assert!(trace.service_up(&w, 0, 0, SimTime::from_secs(880)));
        // …and full recovery is < 4 min after the failure (paper claim).
        let failure = trace.first("failure").unwrap();
        assert!(
            recovered.saturating_sub(failure) < SimTime::from_secs(240),
            "recovery took {}",
            recovered.saturating_sub(failure)
        );
        // After nodes return, chat is spawned again.
        let end = SimTime::from_secs(1390);
        assert!(trace.service_up(&w, 0, 0, end));
        assert!(trace.service_up(&w, 0, 1, end), "chat restored after t5");
    }

    #[test]
    fn default_waits_for_nodes_to_return() {
        let w = workload();
        let mut s = Scenario::new(3, Resources::cpu(2.0));
        s.kubelet_stop_at(SimTime::from_secs(300), [0, 1]);
        s.kubelet_start_at(SimTime::from_secs(900), [0, 1]);
        let cfg = SimConfig::default();
        let trace = simulate(&w, &DefaultPolicy, &s, &cfg, SimTime::from_secs(1400));
        // Whichever pod was on the failed nodes stays down until restore…
        // Default spreads one pod per node across the 3 nodes; the two pods
        // on nodes 0/1 lose service at t1.
        let t_down = SimTime::from_secs(850);
        let up0 = trace.service_up(&w, 0, 0, t_down);
        let up1 = trace.service_up(&w, 0, 1, t_down);
        assert!(!(up0 && up1), "Default cannot restore both on one node");
        // After restore, everything returns.
        assert!(trace.service_up(&w, 0, 0, SimTime::from_secs(1390)));
        assert!(trace.service_up(&w, 0, 1, SimTime::from_secs(1390)));
    }

    #[test]
    fn deterministic_under_seed() {
        let w = workload();
        let s = failure_scenario();
        let cfg = SimConfig::default();
        let a = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &cfg,
            SimTime::from_secs(1200),
        );
        let b = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &cfg,
            SimTime::from_secs(1200),
        );
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.milestones, b.milestones);
    }

    #[test]
    fn capacity_degrade_evicts_and_phoenix_sheds_optional_tier() {
        // One 4-CPU node serving fe (2) + chat (2). At 300 s the node gray-
        // fails to 50 % capacity: 2 effective CPUs. The monitor applies the
        // shrink at its next tick, evicts the overflow, and Phoenix keeps
        // the C1 frontend while chat stays shed until capacity returns.
        let w = workload();
        let mut s = Scenario::new(1, Resources::cpu(4.0));
        s.capacity_degrade_at(SimTime::from_secs(300), [0], 0.5);
        s.capacity_restore_at(SimTime::from_secs(900), [0]);
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &SimConfig::default(),
            SimTime::from_secs(1400),
        );
        let degraded = trace.first_kind(MilestoneKind::Degraded).unwrap();
        assert_eq!(degraded, SimTime::from_secs(300));
        // Both services serve before the degrade…
        assert!(trace.service_up(&w, 0, 0, SimTime::from_secs(250)));
        assert!(trace.service_up(&w, 0, 1, SimTime::from_secs(250)));
        // …after it settles only the critical frontend fits…
        assert!(trace.service_up(&w, 0, 0, SimTime::from_secs(800)));
        assert!(!trace.service_up(&w, 0, 1, SimTime::from_secs(800)));
        // …and the restore brings chat back.
        assert!(trace.first_kind(MilestoneKind::CapacityRestored).is_some());
        assert!(trace.service_up(&w, 0, 1, SimTime::from_secs(1390)));
    }

    #[test]
    fn modal_workload_serves_partial_utility_under_crunch() {
        use phoenix_core::spec::{ModeSpec, ServingMode};
        // Same shapes as `workload()`, but chat can degrade to a 1-CPU
        // read-only mode worth 0.6 of its full utility.
        let modal = {
            let mut b = AppSpecBuilder::new("web");
            b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
            let chat = b.add_service("chat", Resources::cpu(2.0), Some(Criticality::C5), 1);
            b.service_modes(
                chat,
                vec![
                    ModeSpec::new(ServingMode::Full, Resources::cpu(2.0), 1.0),
                    ModeSpec::new(ServingMode::ReadOnly, Resources::cpu(1.0), 0.6),
                ],
            );
            Workload::new(vec![b.build().unwrap()])
        };
        let binary = workload();
        // One 4-CPU node gray-fails to 3 CPUs at 300 s, restores at 900 s.
        let mut s = Scenario::new(1, Resources::cpu(4.0));
        s.capacity_degrade_at(SimTime::from_secs(300), [0], 0.75);
        s.capacity_restore_at(SimTime::from_secs(900), [0]);
        let cfg = SimConfig::default();
        let horizon = SimTime::from_secs(1400);
        let m = simulate(&modal, &PhoenixPolicy::fair(), &s, &cfg, horizon);
        let b = simulate(&binary, &PhoenixPolicy::fair(), &s, &cfg, horizon);
        // Steady state: both serve every service at full weight.
        assert!((m.utility_at(SimTime::from_secs(250)) - 2.0).abs() < 1e-9);
        assert!((b.utility_at(SimTime::from_secs(250)) - 2.0).abs() < 1e-9);
        // Under the crunch the binary planner keeps only the frontend; the
        // modal planner also serves chat read-only — strictly more utility.
        assert!((b.utility_at(SimTime::from_secs(850)) - 1.0).abs() < 1e-9);
        assert!((m.utility_at(SimTime::from_secs(850)) - 1.6).abs() < 1e-9);
        // Capacity returns: both recover full utility (the modal path via
        // an in-place upgrade shift when chat stayed put).
        assert!((m.utility_at(SimTime::from_secs(1390)) - 2.0).abs() < 1e-9);
        assert!((b.utility_at(SimTime::from_secs(1390)) - 2.0).abs() < 1e-9);
        // The run stays deterministic with modes in play.
        let again = simulate(&modal, &PhoenixPolicy::fair(), &s, &cfg, horizon);
        assert_eq!(m.samples, again.samples);
        assert_eq!(m.milestones, again.milestones);
    }

    #[test]
    fn flap_cycles_stop_and_restart_repeatedly() {
        let w = workload();
        let mut s = Scenario::new(3, Resources::cpu(2.0));
        s.flap_at(
            SimTime::from_secs(300),
            [2],
            SimTime::from_secs(120),
            SimTime::from_secs(240),
            3,
            10_000,
        );
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &SimConfig::default(),
            SimTime::from_secs(2400),
        );
        let failures = trace
            .milestones
            .iter()
            .filter(|m| m.kind == MilestoneKind::Failure)
            .count();
        let restores = trace
            .milestones
            .iter()
            .filter(|m| m.kind == MilestoneKind::NodesRestored)
            .count();
        assert_eq!(failures, 3, "milestones: {:?}", trace.milestones);
        assert_eq!(restores, 3);
        // Deterministic under the same seed, jitter included.
        let again = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &SimConfig::default(),
            SimTime::from_secs(2400),
        );
        assert_eq!(trace.milestones, again.milestones);
        assert_eq!(trace.samples, again.samples);
    }

    #[test]
    fn demand_surge_triggers_replan_onto_wider_footprint() {
        // Plenty of room: the surge doubles the app's replicas, and the
        // next tick plans + starts the new pods.
        let w = workload();
        let mut s = Scenario::new(4, Resources::cpu(4.0));
        s.demand_surge_at(SimTime::from_secs(300), 0, 1.0, 2.0);
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &SimConfig::default(),
            SimTime::from_secs(900),
        );
        assert_eq!(
            trace.first_kind(MilestoneKind::Surge),
            Some(SimTime::from_secs(300))
        );
        let before = trace.serving_at(SimTime::from_secs(290)).len();
        let after = trace.serving_at(SimTime::from_secs(890)).len();
        assert_eq!(before, 2);
        assert_eq!(after, 4, "surged replicas must be serving");
    }

    #[test]
    fn zone_outage_maps_to_striped_members() {
        let w = workload();
        // 6 nodes, 3 zones: zone 1 = nodes {1, 4}.
        let mut s = Scenario::new(6, Resources::cpu(2.0));
        s.zone_outage_at(SimTime::from_secs(300), 3, 1, Some(SimTime::from_secs(900)));
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &SimConfig::default(),
            SimTime::from_secs(1200),
        );
        // Equivalent explicit stop/start scripts the very same trace.
        let mut explicit = Scenario::new(6, Resources::cpu(2.0));
        explicit.kubelet_stop_at(SimTime::from_secs(300), [1, 4]);
        explicit.kubelet_start_at(SimTime::from_secs(900), [1, 4]);
        let reference = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &explicit,
            &SimConfig::default(),
            SimTime::from_secs(1200),
        );
        assert_eq!(trace.samples, reference.samples);
        assert_eq!(trace.milestones, reference.milestones);
    }

    #[test]
    fn rack_outage_maps_to_contiguous_members() {
        let w = workload();
        // 6 nodes, 2 racks: rack 0 = nodes {0, 1, 2}.
        let mut s = Scenario::new(6, Resources::cpu(2.0));
        s.rack_outage_at(SimTime::from_secs(300), 2, 0, Some(SimTime::from_secs(900)));
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &SimConfig::default(),
            SimTime::from_secs(1200),
        );
        let mut explicit = Scenario::new(6, Resources::cpu(2.0));
        explicit.kubelet_stop_at(SimTime::from_secs(300), [0, 1, 2]);
        explicit.kubelet_start_at(SimTime::from_secs(900), [0, 1, 2]);
        let reference = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &explicit,
            &SimConfig::default(),
            SimTime::from_secs(1200),
        );
        assert_eq!(trace.samples, reference.samples);
        assert_eq!(trace.milestones, reference.milestones);
    }

    #[test]
    fn undetected_failure_stops_serving_immediately() {
        let w = workload();
        let mut s = Scenario::new(2, Resources::cpu(2.0));
        s.kubelet_stop_at(SimTime::from_secs(100), [0, 1]);
        let trace = simulate(
            &w,
            &PhoenixPolicy::fair(),
            &s,
            &SimConfig::default(),
            SimTime::from_secs(150),
        );
        // 10 s after the silent failure — long before detection — no pod
        // on the dead nodes serves traffic.
        assert!(trace.serving_at(SimTime::from_secs(110)).is_empty());
    }
}
