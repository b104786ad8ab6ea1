//! The [`Recorder`] handle: deterministic counters + wall-clock phase
//! timers, a thread-scoped install point ([`with_recorder`] /
//! [`current`]), and JSON / Chrome-trace export.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::hist::{summarize, Summary};

/// Deterministic-plane counters: integer event counts that are pure
/// functions of the planner's inputs.
///
/// Adding a variant is additive — append it (order is the export order)
/// and give it a name in [`Counter::name`]. Every variant must satisfy
/// the plane's contract: the count may **never** depend on thread
/// scheduling, pool chunking, or a clock. Counts that derive from the
/// exec pool's chunk boundaries (which scale with the worker count) are
/// banned from this plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Cold `plan_with` pipeline runs.
    ColdPlans,
    /// Warm `ReplanCache` pipeline runs.
    WarmReplans,
    /// Per-app rank cache entries revalidated as reusable (fingerprint
    /// unchanged).
    ReplanCacheHits,
    /// Per-app rank cache entries invalidated (fingerprint changed or
    /// first sight) and recomputed.
    ReplanCacheMisses,
    /// Whole cached `GlobalRank`s reused because healthy-capacity bits
    /// matched.
    RankFullReuses,
    /// Global rankings rebuilt by replaying the cached merge order
    /// (capacity-invariant objectives).
    MergeOrderReplays,
    /// Global rankings rebuilt by replaying the share-keyed merge order
    /// (fair shares repeated bit-for-bit).
    ShareOrderReplays,
    /// Share vectors recomputed and invested into the one-round
    /// hysteresis cache.
    ShareInvestments,
    /// Global rankings rebuilt cold through the scoring heap merge.
    ColdMerges,
    /// Water-filling invocations (fair-share computation).
    WaterfillRuns,
    /// Degraded-serving rungs admitted by global ranking (`mode != Full`
    /// items — a rung "purchase" under crunch).
    RungPurchases,
    /// App chains retired at saturation (the ranking stopped buying an
    /// app's remaining rungs — the eviction side of the ladder).
    ChainRetirements,
    /// Pods placed by packing.
    PackPlacements,
    /// Victims deleted by delete-lower-ranks.
    PackVictimDeletes,
    /// Pods migrated by repack-to-fit.
    PackRepackMigrations,
    /// `ClusterState::snapshot` marks taken.
    StateSnapshots,
    /// `ClusterState::restore_to` rewinds performed.
    StateRestores,
    /// Journal entries undone across all restores (the O(Δ) work).
    JournalEntriesUndone,
    /// Deepest journal observed at restore time (a gauge: merged by
    /// maximum, not sum — still scheduling-invariant).
    JournalDepthMax,
    /// Simulator events processed by `kubesim::run`.
    SimEvents,
    /// Milestones recorded by the simulator.
    SimMilestones,
    /// In-run replans (`SimTrace::plans` pushes).
    SimPlans,
    /// `ModeShiftApplied` events (in-place serving-mode reconfigurations).
    SimModeShifts,
    /// `(scenario, policy)` campaign cells simulated.
    CampaignCells,
    /// AdaptLab sweep trials executed.
    SweepTrials,
    /// Adversarial hunt candidate evaluations.
    HuntEvaluations,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 26] = [
        Counter::ColdPlans,
        Counter::WarmReplans,
        Counter::ReplanCacheHits,
        Counter::ReplanCacheMisses,
        Counter::RankFullReuses,
        Counter::MergeOrderReplays,
        Counter::ShareOrderReplays,
        Counter::ShareInvestments,
        Counter::ColdMerges,
        Counter::WaterfillRuns,
        Counter::RungPurchases,
        Counter::ChainRetirements,
        Counter::PackPlacements,
        Counter::PackVictimDeletes,
        Counter::PackRepackMigrations,
        Counter::StateSnapshots,
        Counter::StateRestores,
        Counter::JournalEntriesUndone,
        Counter::JournalDepthMax,
        Counter::SimEvents,
        Counter::SimMilestones,
        Counter::SimPlans,
        Counter::SimModeShifts,
        Counter::CampaignCells,
        Counter::SweepTrials,
        Counter::HuntEvaluations,
    ];

    /// Stable snake_case name used in exports and the determinism probe.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ColdPlans => "cold_plans",
            Counter::WarmReplans => "warm_replans",
            Counter::ReplanCacheHits => "replan_cache_hits",
            Counter::ReplanCacheMisses => "replan_cache_misses",
            Counter::RankFullReuses => "rank_full_reuses",
            Counter::MergeOrderReplays => "merge_order_replays",
            Counter::ShareOrderReplays => "share_order_replays",
            Counter::ShareInvestments => "share_investments",
            Counter::ColdMerges => "cold_merges",
            Counter::WaterfillRuns => "waterfill_runs",
            Counter::RungPurchases => "rung_purchases",
            Counter::ChainRetirements => "chain_retirements",
            Counter::PackPlacements => "pack_placements",
            Counter::PackVictimDeletes => "pack_victim_deletes",
            Counter::PackRepackMigrations => "pack_repack_migrations",
            Counter::StateSnapshots => "state_snapshots",
            Counter::StateRestores => "state_restores",
            Counter::JournalEntriesUndone => "journal_entries_undone",
            Counter::JournalDepthMax => "journal_depth_max",
            Counter::SimEvents => "sim_events",
            Counter::SimMilestones => "sim_milestones",
            Counter::SimPlans => "sim_plans",
            Counter::SimModeShifts => "sim_mode_shifts",
            Counter::CampaignCells => "campaign_cells",
            Counter::SweepTrials => "sweep_trials",
            Counter::HuntEvaluations => "hunt_evaluations",
        }
    }
}

/// Wall-clock-plane phases: scoped timers over the pipeline's stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Planner section of a cold/warm plan: per-app ranks + global
    /// ranking.
    Rank,
    /// Water-filling fair-share computation.
    Waterfill,
    /// Scheduler section: packing + action diff.
    Pack,
    /// One simulated monitor-tick replan (`PlanResult::planning_time`).
    Replan,
}

impl Phase {
    /// Every phase, in export order.
    pub const ALL: [Phase; 4] = [Phase::Rank, Phase::Waterfill, Phase::Pack, Phase::Replan];

    /// Stable snake_case name used in exports and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Rank => "rank",
            Phase::Waterfill => "waterfill",
            Phase::Pack => "pack",
            Phase::Replan => "replan",
        }
    }
}

/// One completed wall-clock span, for Chrome trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    phase: Phase,
    /// Offset from the recorder's epoch, µs.
    start_us: u64,
    dur_us: u64,
    /// Dense per-recorder thread index (trace rows), not an OS id.
    tid: u32,
}

/// The wall-clock plane: per-phase duration samples plus trace spans.
#[derive(Debug, Default)]
struct WallPlane {
    samples: [Vec<u64>; Phase::ALL.len()],
    spans: Vec<Span>,
}

#[derive(Debug)]
struct Inner {
    /// Trace epoch: span timestamps are offsets from here.
    epoch: Instant,
    counters: [AtomicU64; Counter::ALL.len()],
    wall: Mutex<WallPlane>,
    /// Next dense thread index for trace rows.
    next_tid: AtomicU32,
}

thread_local! {
    /// This thread's dense trace row, keyed by the recorder store it was
    /// allocated from (its address): a thread that moves to another
    /// recorder's scope gets a fresh row there.
    static TRACE_TID: Cell<(usize, u32)> = const { Cell::new((0, 0)) };
}

impl Inner {
    fn new() -> Inner {
        Inner {
            epoch: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            wall: Mutex::new(WallPlane::default()),
            next_tid: AtomicU32::new(1),
        }
    }

    fn tid(&self) -> u32 {
        let key = self as *const Inner as usize;
        TRACE_TID.with(|c| match c.get() {
            (k, t) if k == key => t,
            _ => {
                let t = self.next_tid.fetch_add(1, Ordering::Relaxed);
                c.set((key, t));
                t
            }
        })
    }
}

/// A cheap-to-clone handle into the observability planes.
///
/// The default ([`Recorder::disabled`]) handle records nothing: every
/// operation is a branch on `None`, and the phase-timer guard never
/// reads the clock. An enabled handle shares one [`Arc`]'d store across
/// clones, so the planner, packing, and simulator all report into the
/// same snapshot.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Arc<Inner>>);

impl Recorder {
    /// The no-op recorder (what [`current`] returns outside every scope).
    pub fn disabled() -> Recorder {
        Recorder(None)
    }

    /// A fresh enabled recorder with zeroed planes.
    pub fn enabled() -> Recorder {
        Recorder(Some(Arc::new(Inner::new())))
    }

    /// `true` when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Increments `counter` by one (deterministic plane).
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `n` to `counter` (deterministic plane). Sums are
    /// commutative, so the total is identical under any scheduling of
    /// the same events.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.0 {
            inner.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raises `counter` to at least `value` (deterministic plane, gauge
    /// semantics). Max is commutative, so still scheduling-invariant.
    #[inline]
    pub fn gauge_max(&self, counter: Counter, value: u64) {
        if let Some(inner) = &self.0 {
            inner.counters[counter as usize].fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        match &self.0 {
            Some(inner) => inner.counters[counter as usize].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// `(name, value)` for every counter, in [`Counter::ALL`] order
    /// (zeros included, so the shape of the output is input-independent).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.counter(c)))
            .collect()
    }

    /// Starts a scoped wall-clock timer for `phase`; the elapsed time is
    /// recorded (histogram sample + trace span) when the guard drops.
    /// Disabled recorders never read the clock.
    #[inline]
    pub fn phase(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            live: self.0.as_deref().map(|inner| (inner, Instant::now())),
            phase,
        }
    }

    /// Records an externally measured duration for `phase` (histogram
    /// only, no trace span) — e.g. the simulator feeding each
    /// `PlanResult::planning_time` into the replan-latency histogram.
    pub fn record_duration(&self, phase: Phase, d: Duration) {
        if let Some(inner) = &self.0 {
            let mut wall = inner.wall.lock().expect("wall plane lock");
            wall.samples[phase as usize].push(duration_us(d));
        }
    }

    /// Nearest-rank summary of `phase`'s samples (`None` when the phase
    /// never fired or the recorder is disabled).
    pub fn phase_summary(&self, phase: Phase) -> Option<Summary> {
        let inner = self.0.as_deref()?;
        let wall = inner.wall.lock().expect("wall plane lock");
        summarize(&wall.samples[phase as usize])
    }

    /// Exports both planes as a JSON object.
    ///
    /// The deterministic plane is under `"deterministic"` (counter name →
    /// value, [`Counter::ALL`] order); the wall-clock plane is under
    /// `"wall_clock"` with the mandatory `host_cpus`/`threads` honesty
    /// tags, per-phase nearest-rank summaries, and the span count.
    /// Hand-rolled (this crate has no deps); keys never need escaping.
    pub fn snapshot_json(&self, threads: usize, host_cpus: usize) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"obs\": \"phoenix-obs\",\n  \"schema_version\": 2,\n");
        out.push_str("  \"deterministic\": {\n");
        let counters = self.counters();
        for (i, (name, value)) in counters.iter().enumerate() {
            let comma = if i + 1 == counters.len() { "" } else { "," };
            out.push_str(&format!("    \"{name}\": {value}{comma}\n"));
        }
        out.push_str("  },\n");
        out.push_str("  \"wall_clock\": {\n");
        out.push_str(&format!("    \"threads\": {threads},\n"));
        out.push_str(&format!("    \"host_cpus\": {host_cpus},\n"));
        out.push_str("    \"note\": \"wall-clock plane: quarantined from determinism checks; parallel speedups are only meaningful when host_cpus > 1\",\n");
        out.push_str("    \"phases\": [\n");
        let mut rows = Vec::new();
        for &p in &Phase::ALL {
            if let Some(s) = self.phase_summary(p) {
                rows.push(format!(
                    "      {{\"phase\": \"{}\", \"count\": {}, \"min_us\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                    p.name(),
                    s.count,
                    s.min_us,
                    s.p50_us,
                    s.p95_us,
                    s.p99_us,
                    s.max_us,
                ));
            }
        }
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("    ],\n");
        let spans = match &self.0 {
            Some(inner) => inner.wall.lock().expect("wall plane lock").spans.len(),
            None => 0,
        };
        out.push_str(&format!("    \"spans\": {spans}\n"));
        out.push_str("  }\n}\n");
        out
    }

    /// Exports the recorded spans as a Chrome trace-event JSON array
    /// (loadable in Perfetto / `chrome://tracing`). Wall-clock plane
    /// only — span timestamps and row assignment are scheduling truth,
    /// not determinism-checked output.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("[\n");
        if let Some(inner) = &self.0 {
            let wall = inner.wall.lock().expect("wall plane lock");
            let rows: Vec<String> = wall
                .spans
                .iter()
                .map(|s| {
                    format!(
                        "  {{\"name\": \"{}\", \"cat\": \"phoenix\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}}}",
                        s.phase.name(),
                        s.tid,
                        s.start_us,
                        s.dur_us,
                    )
                })
                .collect();
            out.push_str(&rows.join(",\n"));
            if !rows.is_empty() {
                out.push('\n');
            }
        }
        out.push_str("]\n");
        out
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Scoped timer returned by [`Recorder::phase`]; records on drop.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    live: Option<(&'a Inner, Instant)>,
    phase: Phase,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some((inner, started)) = self.live.take() {
            let dur_us = duration_us(started.elapsed());
            let start_us = duration_us(started.duration_since(inner.epoch));
            let tid = inner.tid();
            let mut wall = inner.wall.lock().expect("wall plane lock");
            wall.samples[self.phase as usize].push(dur_us);
            wall.spans.push(Span {
                phase: self.phase,
                start_us,
                dur_us,
                tid,
            });
        }
    }
}

thread_local! {
    /// This thread's recorder: the innermost [`with_recorder`] scope, or
    /// the disabled handle outside every scope.
    static CURRENT: RefCell<Recorder> = const { RefCell::new(Recorder(None)) };
}

/// The calling thread's recorder handle. Disabled unless an enclosing
/// [`with_recorder`] scope (on this thread, or on the thread whose exec
/// pool spawned this worker) installed an enabled one; entry points grab
/// it once per call.
pub fn current() -> Recorder {
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` with `recorder` as this thread's [`current`] handle, then
/// restores the previous one (even when `f` panics). Scopes nest; exec
/// pool workers spawned inside `f` inherit `recorder`, and concurrent
/// scopes on other threads never see each other's counts.
pub fn with_recorder<R>(recorder: Recorder, f: impl FnOnce() -> R) -> R {
    struct Restore(Recorder);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| std::mem::swap(&mut *c.borrow_mut(), &mut self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(recorder)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        r.incr(Counter::ColdPlans);
        r.add(Counter::SimEvents, 10);
        r.gauge_max(Counter::JournalDepthMax, 99);
        r.record_duration(Phase::Replan, Duration::from_millis(5));
        drop(r.phase(Phase::Rank));
        assert!(!r.is_enabled());
        assert_eq!(r.counter(Counter::ColdPlans), 0);
        assert_eq!(r.phase_summary(Phase::Rank), None);
        assert!(r.counters().iter().all(|&(_, v)| v == 0));
        assert_eq!(r.chrome_trace_json(), "[\n]\n");
    }

    #[test]
    fn counters_sum_and_gauge_maxes() {
        let r = Recorder::enabled();
        let clone = r.clone();
        r.incr(Counter::PackPlacements);
        clone.add(Counter::PackPlacements, 2);
        r.gauge_max(Counter::JournalDepthMax, 5);
        r.gauge_max(Counter::JournalDepthMax, 3);
        assert_eq!(r.counter(Counter::PackPlacements), 3);
        assert_eq!(r.counter(Counter::JournalDepthMax), 5);
        assert_eq!(clone.counter(Counter::PackPlacements), 3);
    }

    #[test]
    fn phase_guard_records_samples_and_spans() {
        let r = Recorder::enabled();
        drop(r.phase(Phase::Rank));
        drop(r.phase(Phase::Rank));
        r.record_duration(Phase::Replan, Duration::from_micros(7));
        let s = r.phase_summary(Phase::Rank).expect("two samples");
        assert_eq!(s.count, 2);
        assert_eq!(r.phase_summary(Phase::Replan).expect("one").p99_us, 7);
        assert_eq!(r.phase_summary(Phase::Pack), None);
        // Two spans from the guards; record_duration adds none.
        let trace = r.chrome_trace_json();
        assert_eq!(trace.matches("\"ph\": \"X\"").count(), 2);
        assert!(trace.starts_with("[\n"));
        assert!(trace.trim_end().ends_with(']'));
    }

    #[test]
    fn snapshot_json_lists_every_counter_in_order() {
        let r = Recorder::enabled();
        r.incr(Counter::ColdPlans);
        let json = r.snapshot_json(4, 1);
        for &c in &Counter::ALL {
            assert!(
                json.contains(&format!("\"{}\"", c.name())),
                "missing {}",
                c.name()
            );
        }
        assert!(json.contains("\"cold_plans\": 1"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"host_cpus\": 1"));
        // Deterministic plane precedes the wall-clock plane.
        let det = json.find("\"deterministic\"").expect("plane key");
        let wall = json.find("\"wall_clock\"").expect("plane key");
        assert!(det < wall);
    }

    #[test]
    fn with_recorder_scopes_nest_and_restore() {
        let outer = Recorder::enabled();
        let inner = Recorder::enabled();
        with_recorder(outer.clone(), || {
            current().incr(Counter::HuntEvaluations);
            with_recorder(inner.clone(), || current().incr(Counter::HuntEvaluations));
            current().incr(Counter::HuntEvaluations);
        });
        assert_eq!(outer.counter(Counter::HuntEvaluations), 2);
        assert_eq!(inner.counter(Counter::HuntEvaluations), 1);
        // Outside every scope the disabled handle is back, panics included.
        let _ = std::panic::catch_unwind(|| with_recorder(outer.clone(), || panic!("boom")));
        assert!(!current().is_enabled());
        current().incr(Counter::HuntEvaluations);
        assert_eq!(outer.counter(Counter::HuntEvaluations), 2);
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }
}
