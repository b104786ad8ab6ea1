//! The control-plane event loop: kubelet health, failure detection, the
//! Phoenix agent's monitor/plan/execute cycle, and per-second serving
//! traces.
//!
//! The agent is the only code that turns a policy's plan into work: it
//! derives the in-place mode shifts from the plan's actions and its own
//! pod ledger, and issues deletes, migrations, shifts and starts in that
//! order on one issue lane.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

use phoenix_cluster::{clamp_degrade, ClusterState, FxHashMap, NodeId, PodKey, Resources};
use phoenix_core::actions::Action;
use phoenix_core::policies::ResiliencePolicy;
use phoenix_core::spec::{AppId, ModeAssignment, ServingMode, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::events::EventQueue;
use crate::latency::LatencyModel;
use crate::scenario::{Scenario, ScenarioKind};
use crate::time::SimTime;

/// Serving-status sampling period of the output trace.
const SAMPLE_INTERVAL: SimTime = SimTime::from_secs(1);

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Phoenix agent monitor period (§5: 15 s, tunable). Zero reads as
    /// the clock's 1 ms resolution.
    pub monitor_interval: SimTime,
    /// Node-monitor grace: a silent kubelet is declared failed after this
    /// long (yields the paper's ≈100 s detection together with the tick).
    pub heartbeat_grace: SimTime,
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
            latency: LatencyModel::default(),
            seed: 7,
        }
    }
}

/// What a [`Milestone`] marks.
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
    /// The string label (`"failure"`, `"detected"`, …) reports print.
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

/// An immutable, reference-counted, sorted list of serving pods. A clone
/// shares the list: it costs a reference-count bump, not a copy, and `==`
/// on two handles to one list answers without reading it.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ServingSet(Arc<[PodKey]>);

impl Deref for ServingSet {
    type Target = [PodKey];

    fn deref(&self) -> &[PodKey] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a ServingSet {
    type Item = &'a PodKey;
    type IntoIter = std::slice::Iter<'a, PodKey>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Takes `pods` as given: the caller keeps them sorted.
impl From<Vec<PodKey>> for ServingSet {
    fn from(pods: Vec<PodKey>) -> ServingSet {
        ServingSet(pods.into())
    }
}

impl fmt::Debug for ServingSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

/// Pods serving user traffic at one sample instant. A sample shares its
/// serving list with the previous sample exactly when the two lists are
/// equal; one taken while the serving set and its weights did not change
/// is the previous sample apart from `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Sample time.
    pub at: SimTime,
    /// Sorted list of serving pods.
    pub serving: ServingSet,
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
    /// Serving status over time, one sample per simulated second.
    /// Consecutive samples may be equal apart from `at`: a sample taken
    /// while the serving set and its weights stayed unchanged since the
    /// previous one shares its list, whatever events fired in between.
    /// Consecutive samples with equal lists share one allocation, so the
    /// trace holds one list per [run](SimTrace::serving_runs).
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

    /// The samples at or after `t`, cut into maximal runs that share one
    /// serving set: each run opens with a sample whose set differs from
    /// the previous sample's. A walk that scores only the serving set
    /// scores each run once. In a simulated trace the samples of a run
    /// share one list, so finding a run's end compares pointers, not
    /// pod lists.
    pub fn serving_runs(&self, t: SimTime) -> impl Iterator<Item = &[TraceSample]> + '_ {
        let first = self.samples.partition_point(|s| s.at < t);
        let mut rest = &self.samples[first..];
        std::iter::from_fn(move || {
            let head = rest.first()?;
            let len = rest.iter().position(|s| s.serving != head.serving);
            let (run, tail) = rest.split_at(len.unwrap_or(rest.len()));
            rest = tail;
            Some(run)
        })
    }

    /// Served utility at the latest sample ≤ `t` (0.0 before first sample).
    pub fn utility_at(&self, t: SimTime) -> f64 {
        match self.samples.binary_search_by_key(&t, |s| s.at) {
            Ok(i) => self.samples[i].utility,
            Err(0) => 0.0,
            Err(i) => self.samples[i - 1].utility,
        }
    }

    /// Is every replica of `(app, service)` serving at `t`? An `(app,
    /// service)` the workload lacks is never up.
    pub fn service_up(&self, workload: &Workload, app: u32, service: u32, t: SimTime) -> bool {
        if app as usize >= workload.app_count() {
            return false;
        }
        let Some(spec) = workload
            .app(AppId::new(app))
            .services()
            .get(service as usize)
        else {
            return false;
        };
        let serving = self.serving_at(t);
        (0..spec.replicas).all(|r| serving.binary_search(&PodKey::new(app, service, r)).is_ok())
    }

    /// First milestone of `kind`, if any.
    pub fn first_kind(&self, kind: MilestoneKind) -> Option<SimTime> {
        self.milestones
            .iter()
            .find(|m| m.kind == kind)
            .map(|m| m.at)
    }
}

/// A pod's lifecycle stage in the simulator's ledger.
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
    /// completion events fire strictly earlier.
    StartIssued(Issued),
    /// Issue a migration (start replacement, reroute, delete original).
    MigrateIssued(Issued),
    /// An in-place serving-mode reconfiguration reached the pod: resize
    /// its booking and flip the ledger. Only emitted for modal workloads.
    ModeShiftApplied {
        pod: PodKey,
        to: ServingMode,
    },
    StartDone(PodKey),
}

/// A start or migration of `pod` onto `node`, sized to the demand of the
/// serving `mode` the plan chose (always `Full` on mode-less workloads),
/// and ready — or rerouted — at `done_at`.
#[derive(Debug, Clone, Copy)]
struct Issued {
    pod: PodKey,
    node: NodeId,
    mode: ServingMode,
    done_at: SimTime,
}

/// `interval`, with zero read as the clock's 1 ms resolution.
fn period(interval: SimTime) -> SimTime {
    interval.max(SimTime::from_millis(1))
}

/// A flap jitter drawn uniformly from `[0, cap]` ms.
fn jitter(rng: &mut StdRng, cap: u64) -> SimTime {
    SimTime::from_millis(if cap > 0 { rng.gen_range(0..=cap) } else { 0 })
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
    /// The planning policy's `Debug` rendering: its name and knobs.
    policy: String,
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
        let mut state = ClusterState::new(capacities.iter().copied());
        let modes = policy.plan(workload, &mut state).modes;
        let assigns = state.assignments();
        SteadyState {
            capacities: capacities.to_vec(),
            fingerprints: workload.apps().map(|(_, a)| a.fingerprint()).collect(),
            policy: format!("{policy:?}"),
            assigns: assigns
                .map(|(pod, node, demand)| (pod, node, demand, modes.mode_of_pod(pod)))
                .collect(),
        }
    }

    /// True when this steady state was captured for exactly this
    /// `(workload, policy, capacities)` triple — capacities bit-compared,
    /// the workload by per-app fingerprint, the policy by its `Debug`
    /// rendering. Anything else means the capture must not be replayed.
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
            && self.policy == format!("{policy:?}")
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
/// Flap jitter comes out of a dedicated RNG (never advanced unless a flap
/// fires) and the workload is only copied when a surge rewrites it, so
/// plain stop/start scenarios draw pod latencies exactly as if the
/// richer event kinds did not exist.
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
    let mut sim = Sim::new(workload, policy, scenario, config, horizon, steady);
    while let Some((now, event)) = sim.queue.pop() {
        if now > horizon {
            break;
        }
        sim.obs.incr(phoenix_obs::Counter::SimEvents);
        match event {
            Event::Scenario(kind) => sim.scenario(now, kind),
            Event::MonitorTick => sim.monitor_tick(now),
            Event::DeleteDone(pod) => sim.delete_done(now, pod),
            Event::StartIssued(start) => sim.start_issued(now, start),
            Event::MigrateIssued(migration) => sim.migrate_issued(now, migration),
            Event::ModeShiftApplied { pod, to } => sim.mode_shift_applied(now, pod, to),
            Event::StartDone(pod) => sim.start_done(now, pod),
            Event::Sample => sim.sample(now),
        }
        debug_assert_eq!(sim.pods.len(), sim.state.pod_count(), "ledger drifted");
    }
    let milestones = sim.trace.milestones.len() as u64;
    sim.obs.add(phoenix_obs::Counter::SimMilestones, milestones);
    sim.trace
}

/// One run in flight: the control plane's view, the kubelet ground truth,
/// the pod ledger, the event queue and the trace it records. Each event
/// kind has one handler; every milestone is stamped with the popped event
/// time, which never decreases, so the trace comes out in time order.
struct Sim<'a> {
    workload: &'a Workload,
    /// Copy-on-surge workload: `None` means the original is still current.
    surged: Option<Workload>,
    policy: &'a dyn ResiliencePolicy,
    config: &'a SimConfig,
    horizon: SimTime,
    /// Pod-latency draws.
    rng: StdRng,
    /// Flap jitter, so flaps never perturb co-scheduled latency draws.
    flap_rng: StdRng,
    queue: EventQueue<Event>,
    trace: SimTrace,
    /// Per-cell runs execute inside the campaign fan-out, so everything
    /// recorded here must be commutative (sums only) for the
    /// deterministic plane to stay thread-invariant.
    obs: phoenix_obs::Recorder,
    /// Control-plane view of the cluster.
    state: ClusterState,
    kubelet_alive: Vec<bool>,
    kubelet_stopped_at: Vec<SimTime>,
    degrade_truth: Vec<f64>,
    /// Phase and serving mode of every pod `state` books, and of no other.
    /// Point lookups only: never iterated, so the hasher cannot leak into
    /// the output.
    pods: FxHashMap<PodKey, (Phase, ServingMode)>,
    /// The serving set, in key order: exactly the pods `state` books,
    /// `pods` holds as `Running`, on a live kubelet. Each maps to its
    /// weight `mode_utility(mode) / replicas` under the current workload,
    /// `None` once the workload lacks that replica. Every fact this reads
    /// changes only at a call site of [`refresh`](Sim::refresh) or
    /// [`unserve`](Sim::unserve): kubelet liveness flips, evictions,
    /// `Terminating` marks, deletions, migrations, mode shifts, start
    /// completions, surges and the steady-state assigns. A restored node
    /// comes back empty and a `Starting` pod never serves, so neither
    /// needs a call. Every removal from `pods` unserves the pod, even
    /// where it cannot be serving (a failed node's kubelet is dead; a
    /// deleted pod was unserved when marked `Terminating`). Debug builds
    /// check every sample against [`fresh_sample`](Sim::fresh_sample).
    serving: BTreeMap<PodKey, Option<f64>>,
    /// Scratch for [`sample`](Sim::sample): the ledger's keys, reused
    /// across samples.
    keys: Vec<PodKey>,
    actions_in_flight: usize,
    /// The next monitor tick must replan.
    dirty: bool,
    /// `serving` changed since the last sample; until it does, the next
    /// sample repeats the previous one.
    sample_dirty: bool,
    failure_pending_recovery: bool,
}

impl<'a> Sim<'a> {
    /// The `t = 0` steady state with the scenario, the first monitor tick
    /// and the first sample queued. A matching `steady` capture is
    /// replayed, else the policy plans cold — identical output either way,
    /// because the cold plan is a pure function of (workload, policy,
    /// capacities) and the capture preserves its assignment order.
    fn new(
        workload: &'a Workload,
        policy: &'a dyn ResiliencePolicy,
        scenario: &Scenario,
        config: &'a SimConfig,
        horizon: SimTime,
        steady: Option<&SteadyState>,
    ) -> Sim<'a> {
        let n = scenario.node_count();
        let mut sim = Sim {
            workload,
            surged: None,
            policy,
            config,
            horizon,
            rng: StdRng::seed_from_u64(config.seed),
            flap_rng: StdRng::seed_from_u64(config.seed ^ 0xF1A9_0000_F1A9_0000),
            queue: EventQueue::new(),
            trace: SimTrace::default(),
            obs: phoenix_obs::current(),
            state: ClusterState::new(scenario.node_capacities.iter().copied()),
            kubelet_alive: vec![true; n],
            kubelet_stopped_at: vec![SimTime::ZERO; n],
            degrade_truth: vec![1.0; n],
            pods: FxHashMap::default(),
            serving: BTreeMap::new(),
            keys: Vec::new(),
            actions_in_flight: 0,
            dirty: false,
            sample_dirty: true,
            failure_pending_recovery: false,
        };
        let cold;
        let assigns =
            match steady.filter(|s| s.matches(workload, policy, &scenario.node_capacities)) {
                Some(s) => &s.assigns,
                None => {
                    cold = SteadyState::compute(workload, policy, &scenario.node_capacities);
                    &cold.assigns
                }
            };
        for &(pod, node, demand, mode) in assigns {
            sim.state
                .assign(pod, demand, node)
                .expect("steady plan fits");
            sim.pods.insert(pod, (Phase::Running, mode));
            sim.refresh(pod);
        }
        for ev in &scenario.events {
            sim.queue.schedule(ev.at, Event::Scenario(ev.kind.clone()));
        }
        sim.queue
            .schedule(period(config.monitor_interval), Event::MonitorTick);
        sim.queue.schedule(SimTime::ZERO, Event::Sample);
        sim
    }

    /// The current workload: the surged copy once a surge rewrote it.
    fn workload(&self) -> &Workload {
        self.surged.as_ref().unwrap_or(self.workload)
    }

    /// Re-derives `pod`'s entry in the serving ledger from the booking,
    /// its phase and mode, its node's kubelet and the current workload.
    fn refresh(&mut self, pod: PodKey) {
        let live = |node: NodeId| self.kubelet_alive[node.index()];
        let mode = match self.pods.get(&pod) {
            Some(&(Phase::Running, mode)) if self.state.node_of(pod).is_some_and(live) => mode,
            _ => return self.unserve(pod),
        };
        let weight = self
            .workload()
            .service_of_pod(pod)
            .map(|(_, svc)| svc.mode_utility(mode) / f64::from(svc.replicas));
        let old = self.serving.insert(pod, weight);
        if old.map(|w| w.map(f64::to_bits)) != Some(weight.map(f64::to_bits)) {
            self.sample_dirty = true;
        }
    }

    /// Drops `pod` from the serving ledger.
    fn unserve(&mut self, pod: PodKey) {
        if self.serving.remove(&pod).is_some() {
            self.sample_dirty = true;
        }
    }

    fn refresh_all(&mut self, pods: Vec<PodKey>) {
        for pod in pods {
            self.refresh(pod);
        }
    }

    fn mark(&mut self, now: SimTime, kind: MilestoneKind) {
        self.trace.milestones.push(Milestone { at: now, kind });
    }

    /// Schedules `event` one (nonzero) `interval` after `now`, if that is
    /// still within the horizon.
    fn reschedule(&mut self, now: SimTime, interval: SimTime, event: Event) {
        let next = now + period(interval);
        if next > now && next <= self.horizon {
            self.queue.schedule(next, event);
        }
    }

    /// One in-flight action completed; the last one completes a pending
    /// recovery.
    fn finish_action(&mut self, now: SimTime) {
        debug_assert!(self.actions_in_flight > 0, "an action finished twice");
        self.actions_in_flight -= 1;
        if self.actions_in_flight == 0 && self.failure_pending_recovery {
            self.mark(now, MilestoneKind::Recovered);
            self.failure_pending_recovery = false;
        }
    }

    /// An issued action can no longer apply: drop it and replan at the
    /// next tick.
    fn abandon(&mut self, now: SimTime) {
        self.dirty = true;
        self.finish_action(now);
    }

    /// Resizes `pod`'s booking on `node` to `demand`, returning whether it
    /// now holds that booking. Shrinks always fit; a grow that no longer
    /// fits keeps the old booking and replans.
    fn rebook(&mut self, pod: PodKey, node: NodeId, demand: Resources) -> bool {
        if self.state.demand_of(pod) == Some(demand) {
            return true;
        }
        let (_, old) = self.state.remove(pod).expect("pod is assigned");
        if self.state.assign(pod, demand, node).is_ok() {
            return true;
        }
        self.state.assign(pod, old, node).expect("old booking fits");
        self.dirty = true;
        false
    }

    /// A scripted change to the ground truth or the workload.
    fn scenario(&mut self, now: SimTime, kind: ScenarioKind) {
        match kind {
            ScenarioKind::KubeletStop(nodes) => self.stop_kubelets(now, &nodes),
            ScenarioKind::KubeletStart(nodes) => {
                let mut any = false;
                for node in nodes {
                    if self.kubelet_alive.get(node.index()) == Some(&false) {
                        self.kubelet_alive[node.index()] = true;
                        self.refresh_all(self.state.pods_on(node).collect());
                        any = true;
                    }
                }
                if any {
                    self.mark(now, MilestoneKind::NodesRestored);
                }
            }
            ScenarioKind::Flap {
                nodes,
                down,
                up,
                cycles,
                jitter_ms,
            } => {
                if cycles == 0 {
                    return;
                }
                self.stop_kubelets(now, &nodes);
                // The restart's jitter is capped below the serving dwell
                // when another cycle follows: an unbounded draw could push
                // this cycle's KubeletStart past the next cycle's stop,
                // silently erasing a down phase.
                let up_cap = if cycles > 1 {
                    jitter_ms.min(up.as_millis().saturating_sub(1))
                } else {
                    jitter_ms
                };
                let back_up = now + down + jitter(&mut self.flap_rng, up_cap);
                let start = ScenarioKind::KubeletStart(nodes.clone());
                self.queue.schedule(back_up, Event::Scenario(start));
                if cycles > 1 {
                    let next_drop = now + down + up + jitter(&mut self.flap_rng, jitter_ms);
                    let cycles = cycles - 1;
                    let flap = ScenarioKind::Flap {
                        nodes,
                        down,
                        up,
                        cycles,
                        jitter_ms,
                    };
                    self.queue.schedule(next_drop, Event::Scenario(flap));
                }
            }
            ScenarioKind::CapacityDegrade { nodes, factor } => {
                let factor = clamp_degrade(factor);
                self.set_capacity(now, &nodes, factor, MilestoneKind::Degraded);
            }
            ScenarioKind::CapacityRestore { nodes } => {
                self.set_capacity(now, &nodes, 1.0, MilestoneKind::CapacityRestored);
            }
            ScenarioKind::DemandSurge {
                app,
                demand_factor,
                replica_factor,
            } => {
                if (app as usize) < self.workload.app_count() {
                    let original = self.workload;
                    self.surged
                        .get_or_insert_with(|| original.clone())
                        .scale_app(AppId::new(app), demand_factor, replica_factor);
                    let first = PodKey::new(app, 0, 0);
                    let last = PodKey::new(app, u32::MAX, u16::MAX);
                    self.refresh_all(self.serving.range(first..=last).map(|(&p, _)| p).collect());
                    self.mark(now, MilestoneKind::Surge);
                    self.dirty = true;
                }
            }
        }
    }

    /// Kills the live kubelets among `nodes` (out-of-shape ids are
    /// ignored), marking a failure if any was live.
    fn stop_kubelets(&mut self, now: SimTime, nodes: &[NodeId]) {
        let mut any = false;
        for node in nodes {
            let i = node.index();
            if self.kubelet_alive.get(i) == Some(&true) {
                self.kubelet_alive[i] = false;
                self.kubelet_stopped_at[i] = now;
                self.refresh_all(self.state.pods_on(*node).collect());
                any = true;
            }
        }
        if any {
            self.mark(now, MilestoneKind::Failure);
        }
    }

    /// Sets the true capacity factor of `nodes`, marking `kind` if any
    /// node's factor changed.
    fn set_capacity(&mut self, now: SimTime, nodes: &[NodeId], factor: f64, kind: MilestoneKind) {
        let mut any = false;
        for node in nodes {
            if let Some(t) = self.degrade_truth.get_mut(node.index()) {
                any |= t.to_bits() != factor.to_bits();
                *t = factor;
            }
        }
        if any {
            self.mark(now, kind);
        }
    }

    /// The agent's cycle: detect dead and returning kubelets, converge
    /// gray capacity, and replan once nothing is in flight.
    fn monitor_tick(&mut self, now: SimTime) {
        let mut detected = false;
        for i in 0..self.kubelet_alive.len() {
            let node = NodeId::new(i as u32);
            let alive = self.kubelet_alive[i];
            let silent_for = now.saturating_sub(self.kubelet_stopped_at[i]);
            if !alive && self.state.is_healthy(node) && silent_for >= self.config.heartbeat_grace {
                for (pod, _) in self.state.fail_node(node) {
                    self.pods.remove(&pod);
                    self.unserve(pod);
                }
                detected = true;
            }
            if alive && !self.state.is_healthy(node) {
                self.state.restore_node(node);
                self.dirty = true;
            }
        }
        if detected {
            self.mark(now, MilestoneKind::Detected);
            self.failure_pending_recovery = true;
            self.dirty = true;
        }
        // Gray capacity changes are visible at the very next tick: a
        // degraded kubelet still heartbeats, it just reports a smaller
        // allocatable. Converge the control-plane view to the ground
        // truth; evictions took services down, so the replan that restores
        // them is tracked like any other recovery.
        for i in 0..self.degrade_truth.len() {
            let (node, truth) = (NodeId::new(i as u32), self.degrade_truth[i]);
            if self.state.degrade_factor(node).to_bits() != truth.to_bits() {
                self.dirty = true;
                for (pod, _) in self.state.set_degrade(node, truth) {
                    self.pods.remove(&pod);
                    self.unserve(pod);
                    self.failure_pending_recovery = true;
                }
            }
        }
        if self.dirty && self.actions_in_flight == 0 {
            self.replan(now);
        }
        self.reschedule(now, self.config.monitor_interval, Event::MonitorTick);
    }

    /// Plans onto a copy of the control plane's view and issues the plan:
    /// every delete, then the barrier, then every migration, in-place
    /// mode shift and start, on one serial issue lane in pod-key order
    /// within each kind. The barrier is one `issue_overhead` after the
    /// last delete completes, so what follows lands in the capacity the
    /// deletes freed.
    fn replan(&mut self, now: SimTime) {
        let wl = self.workload();
        let plan = self.policy.plan(wl, &mut self.state.clone());
        let actions = &plan.actions.actions;
        let shifts = if wl.has_modes() {
            self.mode_shifts(actions, &plan.modes)
        } else {
            Vec::new()
        };
        self.obs.incr(phoenix_obs::Counter::SimPlans);
        self.obs
            .record_duration(phoenix_obs::Phase::Replan, plan.planning_time);
        self.trace.plans.push((now, plan.planning_time));
        self.mark(now, MilestoneKind::Plan);
        self.dirty = false;
        if plan.actions.is_empty() && shifts.is_empty() {
            // Nothing to do (e.g. NoAdapt): recovery is trivially complete.
            self.failure_pending_recovery = false;
            return;
        }
        self.mark(now, MilestoneKind::ActionsIssued);
        // The policy contract orders `actions` deletes, migrations, starts.
        let first_kept = actions.partition_point(|a| matches!(a, Action::Delete { .. }));
        let (deletes, rest) = actions.split_at(first_kept);
        let first_start = rest.partition_point(|a| matches!(a, Action::Migrate { .. }));
        let (migrations, starts) = rest.split_at(first_start);
        let overhead = &self.config.latency.issue_overhead;
        let (mut cursor, mut barrier) = (now, now);
        for delete in deletes {
            cursor += overhead.sample(&mut self.rng);
            barrier = barrier.max(self.issue(cursor, delete, &plan.modes));
        }
        let mut cursor = barrier + overhead.sample(&mut self.rng);
        for action in migrations.iter().chain(&shifts).chain(starts) {
            cursor += overhead.sample(&mut self.rng);
            self.issue(cursor, action, &plan.modes);
        }
    }

    /// The in-place mode shifts a plan implies: one for every pod the
    /// control-plane view books that `actions` neither deletes nor
    /// migrates and whose ledger mode differs from `modes`, in pod-key
    /// order. Such a pod keeps its node, since `actions` is the policy's
    /// whole diff; a pod that moves or starts carries its mode in that
    /// action instead.
    fn mode_shifts(&self, actions: &[Action], modes: &ModeAssignment) -> Vec<Action> {
        let mut named: Vec<PodKey> = actions.iter().map(Action::pod).collect();
        named.sort_unstable();
        let mut shifts: Vec<Action> = (self.state.assignments())
            .filter(|(pod, _, _)| named.binary_search(pod).is_err())
            .filter_map(|(pod, node, _)| {
                let from = self.pods.get(&pod).map_or(ServingMode::Full, |&(_, m)| m);
                let to = modes.mode_of_pod(pod);
                (from != to).then_some(Action::ModeShift {
                    pod,
                    node,
                    from,
                    to,
                })
            })
            .collect();
        shifts.sort_by_key(Action::pod);
        shifts
    }

    /// Puts `action`, issued at `at`, in flight: draws its latencies,
    /// schedules its first event and returns that event's time (a
    /// delete's completion, a shift's application, a migration's or
    /// start's issue). Starts and migrations come up at the mode `modes`
    /// chose.
    fn issue(&mut self, at: SimTime, action: &Action, modes: &ModeAssignment) -> SimTime {
        let lat = &self.config.latency;
        let issued = |pod, node, done_at| Issued {
            pod,
            node,
            mode: modes.mode_of_pod(pod),
            done_at,
        };
        let (at, event) = match *action {
            Action::Delete { pod, .. } => {
                let done = at + lat.delete.sample(&mut self.rng);
                if let Some((phase, _)) = self.pods.get_mut(&pod) {
                    *phase = Phase::Terminating;
                }
                self.unserve(pod);
                (done, Event::DeleteDone(pod))
            }
            Action::Migrate { pod, to, .. } => {
                let start = lat.start.sample(&mut self.rng);
                let done_at = at + start + lat.reroute.sample(&mut self.rng);
                (at, Event::MigrateIssued(issued(pod, to, done_at)))
            }
            // A config push plus traffic reroute: no pod restart, so only
            // the reroute latency applies.
            Action::ModeShift { pod, to, .. } => {
                let applied_at = at + lat.reroute.sample(&mut self.rng);
                (applied_at, Event::ModeShiftApplied { pod, to })
            }
            Action::Start { pod, node } => {
                let ready_at = at + lat.start.sample(&mut self.rng);
                (at, Event::StartIssued(issued(pod, node, ready_at)))
            }
        };
        self.queue.schedule(at, event);
        self.actions_in_flight += 1;
        at
    }

    fn delete_done(&mut self, now: SimTime, pod: PodKey) {
        if matches!(self.pods.get(&pod), Some((Phase::Terminating, _))) {
            let _ = self.state.remove(pod);
            self.pods.remove(&pod);
            self.unserve(pod);
        }
        self.finish_action(now);
    }

    /// Books the start at the chosen mode's demand (`mode_demand(Full)` is
    /// the plain service demand). A surge that removed the pod, or a node
    /// that failed or shrank since the plan, drops the start.
    fn start_issued(&mut self, now: SimTime, start: Issued) {
        let Issued { pod, mode, .. } = start;
        let service = self.workload().service_of_pod(pod);
        let demand = service.map(|(_, s)| s.mode_demand(mode));
        match demand.map(|d| self.state.assign(pod, d, start.node)) {
            Some(Ok(())) => {
                self.pods.insert(pod, (Phase::Starting, mode));
                self.queue.schedule(start.done_at, Event::StartDone(pod));
            }
            _ => self.abandon(now),
        }
    }

    /// The old instance keeps serving while the replacement starts; the
    /// booking moves atomically, and the migration is dropped when the
    /// target cannot host the pod anymore. On modal workloads the
    /// replacement comes up at the plan's chosen mode.
    fn migrate_issued(&mut self, now: SimTime, migration: Issued) {
        let (pod, node, mode) = (migration.pod, migration.node, migration.mode);
        if self.state.node_of(pod).is_none() || self.state.migrate(pod, node).is_err() {
            return self.abandon(now);
        }
        let wl = self.workload();
        if wl.has_modes() {
            if let Some((_, svc)) = wl.service_of_pod(pod) {
                let want = svc.mode_demand(mode);
                if self.rebook(pod, node, want) {
                    self.pods.entry(pod).and_modify(|e| e.1 = mode);
                }
            }
        }
        self.refresh(pod);
        self.queue
            .schedule(migration.done_at, Event::StartDone(pod));
    }

    /// Resizes the live booking to the new mode's demand. The pod never
    /// stops serving: a shift is a config flip, not a restart.
    fn mode_shift_applied(&mut self, now: SimTime, pod: PodKey, to: ServingMode) {
        self.obs.incr(phoenix_obs::Counter::SimModeShifts);
        let service = self.workload().service_of_pod(pod);
        let want = service.map(|(_, s)| s.mode_demand(to));
        match (self.state.node_of(pod), want) {
            (Some(node), Some(want)) => {
                if self.rebook(pod, node, want) {
                    self.pods.entry(pod).and_modify(|e| e.1 = to);
                    self.refresh(pod);
                }
            }
            // The pod was evicted (or the service vanished in a surge)
            // between plan and apply: nothing to shift.
            _ => self.dirty = true,
        }
        self.finish_action(now);
    }

    fn start_done(&mut self, now: SimTime, pod: PodKey) {
        if let Some((phase, _)) = self.pods.get_mut(&pod) {
            *phase = Phase::Running;
        }
        self.refresh(pod);
        self.finish_action(now);
    }

    /// Records the serving status at `now` from the serving ledger. While
    /// the ledger did not change, the sample repeats the previous one;
    /// otherwise one walk of the ledger collects its keys and sums its
    /// weights, and the previous sample's list is shared when only
    /// weights moved.
    fn sample(&mut self, now: SimTime) {
        let sample = match self.trace.samples.last() {
            Some(last) if !self.sample_dirty => TraceSample {
                at: now,
                ..last.clone()
            },
            last => {
                self.keys.clear();
                let keys = &mut self.keys;
                let utility = self
                    .serving
                    .iter()
                    .filter_map(|(&pod, &weight)| {
                        keys.push(pod);
                        weight
                    })
                    .sum();
                let serving = match last {
                    Some(last) if *last.serving == *self.keys => last.serving.clone(),
                    _ => ServingSet(self.keys.as_slice().into()),
                };
                TraceSample {
                    at: now,
                    serving,
                    utility,
                }
            }
        };
        debug_assert_eq!(sample, self.fresh_sample(now), "sample differs at {now}");
        debug_assert!(
            self.trace.samples.last().is_none_or(|last| {
                (last.serving.as_ptr() == sample.serving.as_ptr())
                    == (*last.serving == *sample.serving)
            }),
            "sample at {now} shares its list unlike its content"
        );
        self.trace.samples.push(sample);
        self.sample_dirty = false;
        self.reschedule(now, SAMPLE_INTERVAL, Event::Sample);
    }

    /// Every `Running` pod on a live kubelet, sorted, and the utility they
    /// serve under the current (possibly surged) workload, derived from
    /// every booking: the reference the serving ledger is checked against.
    fn fresh_sample(&self, now: SimTime) -> TraceSample {
        let mut serving: Vec<PodKey> = self
            .state
            .assignments()
            .filter(|&(pod, node, _)| {
                self.kubelet_alive[node.index()]
                    && matches!(self.pods.get(&pod), Some((Phase::Running, _)))
            })
            .map(|(pod, _, _)| pod)
            .collect();
        serving.sort();
        let wl = self.workload();
        let utility = serving
            .iter()
            .filter_map(|&pod| {
                let (_, svc) = wl.service_of_pod(pod)?;
                let mode = self.pods.get(&pod).map_or(ServingMode::Full, |&(_, m)| m);
                Some(svc.mode_utility(mode) / f64::from(svc.replicas))
            })
            .sum();
        TraceSample {
            at: now,
            serving: serving.into(),
            utility,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_cluster::Resources;
    use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy};
    use phoenix_core::spec::{AppSpecBuilder, ServiceId};
    use phoenix_core::tags::Criticality;

    /// One app: 2-CPU critical frontend, 2-CPU optional chat.
    fn workload() -> Workload {
        let mut b = AppSpecBuilder::new("web");
        let fe = b.add_service("fe", Resources::cpu(2.0), Some(Criticality::C1), 1);
        let chat = b.add_service("chat", Resources::cpu(2.0), Some(Criticality::C5), 1);
        b.add_dependency(fe, chat);
        Workload::new(vec![b.build().unwrap()])
    }

    /// `workload()` under PhoenixFair with the default config.
    fn fair(s: &Scenario, horizon_secs: u64) -> SimTrace {
        let horizon = SimTime::from_secs(horizon_secs);
        simulate(
            &workload(),
            &PhoenixPolicy::fair(),
            s,
            &SimConfig::default(),
            horizon,
        )
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
        let trace = fair(&Scenario::new(2, Resources::cpu(2.0)), 60);
        assert!(trace.service_up(&w, 0, 0, SimTime::from_secs(30)));
        assert!(trace.service_up(&w, 0, 1, SimTime::from_secs(30)));
        assert!(trace.milestones.is_empty());
    }

    #[test]
    fn detection_roughly_grace_plus_tick() {
        let mut s = Scenario::new(3, Resources::cpu(2.0));
        s.kubelet_stop_at(SimTime::from_secs(300), [2]);
        let trace = fair(&s, 600);
        let detected = trace
            .first_kind(MilestoneKind::Detected)
            .expect("failure detected");
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
        let trace = fair(&s, 1400);
        let recovered = trace
            .first_kind(MilestoneKind::Recovered)
            .expect("recovery completes");
        assert!(
            recovered < SimTime::from_secs(900),
            "recovered at {recovered}"
        );
        // Critical service is up between recovery and node return…
        assert!(trace.service_up(&w, 0, 0, SimTime::from_secs(880)));
        // …and full recovery is < 4 min after the failure (paper claim).
        let failure = trace.first_kind(MilestoneKind::Failure).unwrap();
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
        let s = failure_scenario();
        let a = fair(&s, 1200);
        let b = fair(&s, 1200);
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
        let trace = fair(&s, 1400);
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
    fn nan_capacity_degrade_runs_as_a_degrade_to_zero() {
        // The view stores a NaN factor as 0.0; the ground truth must too,
        // or the two never agree and every monitor tick replans.
        let run = |factor: f64| {
            let mut s = Scenario::new(2, Resources::cpu(4.0));
            s.capacity_degrade_at(SimTime::from_secs(300), [0], factor);
            fair(&s, 900)
        };
        let (nan, zero) = (run(f64::NAN), run(0.0));
        assert_eq!(nan.samples, zero.samples);
        assert_eq!(nan.milestones, zero.milestones);
        assert_eq!(nan.plans.len(), zero.plans.len());
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
    fn mode_shifts_go_to_placement_stable_pods_in_key_order() {
        let pod = |s| PodKey::new(0, s, 0);
        let w = {
            let mut b = AppSpecBuilder::new("a");
            for s in 0..6 {
                b.add_service(format!("s{s}"), Resources::cpu(1.0), None, 1);
            }
            Workload::new(vec![b.build().unwrap()])
        };
        let (policy, cfg) = (PhoenixPolicy::fair(), SimConfig::default());
        let s = Scenario::new(2, Resources::cpu(10.0));
        let mut sim = Sim::new(&w, &policy, &s, &cfg, SimTime::from_secs(1), None);
        // Booked out of key order; pods 4 and 5 already serve read-only.
        sim.state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        sim.pods.clear();
        for (p, node, mode) in [
            (5, 0, ServingMode::ReadOnly),
            (0, 1, ServingMode::Full),
            (1, 0, ServingMode::Full),
            (2, 1, ServingMode::Full),
            (4, 1, ServingMode::ReadOnly),
        ] {
            let node = NodeId::new(node);
            sim.state.assign(pod(p), Resources::cpu(1.0), node).unwrap();
            sim.pods.insert(pod(p), (Phase::Running, mode));
        }
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        let actions = [
            Action::Delete {
                pod: pod(2),
                node: n1,
            },
            Action::Migrate {
                pod: pod(1),
                from: n0,
                to: n1,
            },
            Action::Start {
                pod: pod(3),
                node: n0,
            },
        ];
        // The plan serves everything read-only but service 5.
        let mut modes = ModeAssignment::for_workload(&w);
        for s in 0..5 {
            modes.set(AppId::new(0), ServiceId::new(s), ServingMode::ReadOnly);
        }
        let shifts = sim.mode_shifts(&actions, &modes);
        assert_eq!(
            shifts,
            [
                Action::ModeShift {
                    pod: pod(0),
                    node: n1,
                    from: ServingMode::Full,
                    to: ServingMode::ReadOnly,
                },
                Action::ModeShift {
                    pod: pod(5),
                    node: n0,
                    from: ServingMode::ReadOnly,
                    to: ServingMode::Full,
                },
            ]
        );
        assert!(shifts
            .iter()
            .all(|shift| actions.iter().all(|a| a.pod() != shift.pod())));
    }

    #[test]
    fn flap_cycles_stop_and_restart_repeatedly() {
        let mut s = Scenario::new(3, Resources::cpu(2.0));
        s.flap_at(
            SimTime::from_secs(300),
            [2],
            SimTime::from_secs(120),
            SimTime::from_secs(240),
            3,
            10_000,
        );
        let trace = fair(&s, 2400);
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
        let again = fair(&s, 2400);
        assert_eq!(trace.milestones, again.milestones);
        assert_eq!(trace.samples, again.samples);
    }

    #[test]
    fn demand_surge_triggers_replan_onto_wider_footprint() {
        // Plenty of room: the surge doubles the app's replicas, and the
        // next tick plans + starts the new pods.
        let mut s = Scenario::new(4, Resources::cpu(4.0));
        s.demand_surge_at(SimTime::from_secs(300), 0, 1.0, 2.0);
        s.demand_surge_at(SimTime::from_secs(900), 0, 1.0, 0.5);
        s.kubelet_stop_at(SimTime::from_secs(1000), [0, 1]);
        let trace = fair(&s, 1700);
        assert_eq!(
            trace.first_kind(MilestoneKind::Surge),
            Some(SimTime::from_secs(300))
        );
        let before = trace.serving_at(SimTime::from_secs(290)).len();
        let after = trace.serving_at(SimTime::from_secs(890)).len();
        assert_eq!(before, 2);
        assert_eq!(after, 4, "surged replicas must be serving");
        // The surge reweighs the serving replicas at once: each old one now
        // counts 1/2 of its service while the new replicas still start.
        assert_eq!(trace.utility_at(SimTime::from_secs(290)), 2.0);
        assert_eq!(trace.utility_at(SimTime::from_secs(301)), 1.0);
        assert_eq!(trace.utility_at(SimTime::from_secs(890)), 2.0);
        // Halving the replicas again plans deletes only. That plan still
        // draws the barrier's `issue_overhead`, so the latencies of the
        // recovery after the failure, and its completion, are fixed.
        assert_eq!(trace.serving_at(SimTime::from_secs(990)).len(), 2);
        assert_eq!(
            trace.first_kind(MilestoneKind::Recovered),
            Some(SimTime::from_millis(1_127_754))
        );
    }

    #[test]
    fn kubelet_back_before_detection_serves_again() {
        let fe = PodKey::new(0, 0, 0);
        let mut s = Scenario::new(3, Resources::cpu(2.0));
        s.kubelet_stop_at(SimTime::from_secs(100), [0]);
        s.kubelet_start_at(SimTime::from_secs(130), [0]);
        let trace = fair(&s, 200);
        // The frontend's kubelet is silent: it stops serving at once…
        let down = SimTime::from_secs(110);
        assert!(!trace.serving_at(down).contains(&fe));
        assert_eq!(trace.utility_at(down), 1.0);
        // …and serves again the moment it returns, before any detection.
        let back = SimTime::from_secs(130);
        assert_eq!(trace.serving_at(back).len(), 2);
        assert!(trace.serving_at(back).contains(&fe));
        assert_eq!(trace.utility_at(back), 2.0);
        let milestones: Vec<(SimTime, MilestoneKind)> =
            trace.milestones.iter().map(|m| (m.at, m.kind)).collect();
        assert_eq!(
            milestones,
            [
                (SimTime::from_secs(100), MilestoneKind::Failure),
                (back, MilestoneKind::NodesRestored),
            ]
        );
    }

    #[test]
    fn service_up_is_false_for_unknown_services() {
        let w = workload();
        let trace = fair(&Scenario::new(2, Resources::cpu(2.0)), 60);
        let t = SimTime::from_secs(30);
        assert!(trace.service_up(&w, 0, 1, t));
        assert!(!trace.service_up(&w, 0, 2, t));
        assert!(!trace.service_up(&w, 1, 0, t));
        assert!(!trace.service_up(&w, u32::MAX, u32::MAX, t));
    }

    #[test]
    fn zero_intervals_tick_at_clock_resolution() {
        let cfg = SimConfig {
            monitor_interval: SimTime::ZERO,
            heartbeat_grace: SimTime::from_secs(2),
            ..SimConfig::default()
        };
        let mut s = Scenario::new(3, Resources::cpu(2.0));
        s.kubelet_stop_at(SimTime::from_secs(1), [2]);
        let horizon = SimTime::from_secs(10);
        let trace = simulate(&workload(), &PhoenixPolicy::fair(), &s, &cfg, horizon);
        // One sample per second, and the monitor sees the grace expire on
        // the very millisecond it does.
        assert_eq!(trace.samples.len(), 11);
        assert_eq!(trace.samples.last().map(|s| s.at), Some(horizon));
        assert_eq!(
            trace.first_kind(MilestoneKind::Detected),
            Some(SimTime::from_secs(3))
        );
    }

    #[test]
    fn undetected_failure_stops_serving_immediately() {
        let mut s = Scenario::new(2, Resources::cpu(2.0));
        s.kubelet_stop_at(SimTime::from_secs(100), [0, 1]);
        let trace = fair(&s, 150);
        // 10 s after the silent failure — long before detection — no pod
        // on the dead nodes serves traffic.
        assert!(trace.serving_at(SimTime::from_secs(110)).is_empty());
    }
}
