//! Global Ranking (Algorithm 1, `GetGlobalRank`): merge per-application
//! activation orders into one cluster-wide list under an operator
//! objective, stopping at the aggregate capacity.
//!
//! A priority queue holds at most one candidate per application — the app's
//! next-most-critical unactivated container. Each round pops the candidate
//! with the best operator score, deducts its demand from the remaining
//! aggregate capacity, and enqueues that app's next container.

use std::collections::BinaryHeap;

use phoenix_cluster::Resources;

use crate::objectives::{OperatorObjective, RankContext};
use crate::planner::PlannerConfig;
use crate::spec::{AppId, ServiceId, ServingMode, Workload};
use crate::waterfill::{demand_order, waterfill_with_order};

/// One entry of the global activation list: a `(service, mode)` candidate.
///
/// A service without a mode table contributes exactly one `Full` item
/// carrying its whole demand — the pre-modes representation. A service
/// *with* a table contributes a ladder of items, most-degraded rung
/// first: the base item activates the service at its cheapest mode and
/// each later item upgrades it one mode, carrying only the **marginal**
/// demand of that step. Under capacity crunch the merge cuts the ladder
/// mid-way, so the planner steps a replica down a mode instead of
/// evicting it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalRankItem {
    /// Application.
    pub app: AppId,
    /// Microservice within the application.
    pub service: ServiceId,
    /// Demand this item adds across all replicas: the full mode-less
    /// demand for a plain service, the marginal upgrade demand for a
    /// mode-ladder rung.
    pub demand: Resources,
    /// The serving mode this item activates (or upgrades) the service to;
    /// always [`ServingMode::Full`] for mode-less services.
    pub mode: ServingMode,
}

/// Output of global ranking, including fair-share bookkeeping that the
/// metrics layer reuses.
#[derive(Debug, Clone, Default)]
pub struct GlobalRank {
    /// Activation list, best first.
    pub items: Vec<GlobalRankItem>,
    /// Water-filling fair share per app (scalar), indexed by app id.
    pub fair_shares: Vec<f64>,
    /// Scalar resources granted per app by this ranking.
    pub allocated: Vec<f64>,
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    score: f64,
    app: AppId,
    pos: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &HeapEntry) -> std::cmp::Ordering {
        // Max-heap on score; deterministic tie-break on app id (smaller id
        // first ⇒ reversed comparison inside the max-heap). `total_cmp`
        // keeps the order total even for NaN scores from a degenerate
        // operator objective: NaN ranks above +∞, never panics.
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.app.cmp(&self.app))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &HeapEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One candidate of one app's activation chain, with every fact the merge
/// loop reads flattened out of the [`Workload`].
#[derive(Debug, Clone, Copy)]
struct ChainEntry {
    service: ServiceId,
    /// Marginal demand of this rung across replicas (the whole service
    /// demand for mode-less entries).
    demand: Resources,
    scalar: f64,
    criticality: crate::tags::Criticality,
    /// Mode this rung activates/upgrades the service to.
    mode: ServingMode,
    /// Marginal utility weight of this rung across replicas (`replicas ×
    /// 1.0` for mode-less entries).
    utility: f64,
}

/// Precomputed inputs to global ranking: the per-app activation chains from
/// [`crate::planner::app_rank`] with demands, tags, and prices resolved
/// into dense arrays.
///
/// The free cold plan builds this per round; the controller's replan
/// cache ([`crate::replan`]) keeps it across rounds keyed by app
/// fingerprints, for its warm rounds and its cold ones alike. Both feed
/// the same merge loop, so their outputs are identical by construction.
#[derive(Debug, Clone, Default)]
pub struct RankInputs {
    chains: Vec<Vec<ChainEntry>>,
    prices: Vec<f64>,
    demand_scalars: Vec<f64>,
    demand_sort: Vec<usize>,
}

impl RankInputs {
    /// Flattens `app_ranks` against `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `app_ranks.len()` differs from the workload's app count.
    pub fn new(workload: &Workload, app_ranks: &[Vec<ServiceId>]) -> RankInputs {
        assert_eq!(
            app_ranks.len(),
            workload.app_count(),
            "one rank list per app required"
        );
        let chains: Vec<Vec<ChainEntry>> = workload
            .apps()
            .zip(app_ranks)
            .map(|((_, app), rank)| {
                let mut chain = Vec::with_capacity(rank.len());
                for &service in rank {
                    let svc = app.service(service);
                    let criticality = app.criticality_of(service);
                    if !svc.has_modes() {
                        // Pre-modes representation, bit-identical: one
                        // Full entry carrying the whole demand.
                        let demand = svc.total_demand();
                        chain.push(ChainEntry {
                            service,
                            demand,
                            scalar: demand.scalar(),
                            criticality,
                            mode: ServingMode::Full,
                            utility: f64::from(svc.replicas),
                        });
                        continue;
                    }
                    // Mode ladder, most-degraded rung first: the base
                    // activates the cheapest mode, each later entry
                    // upgrades one rung at its marginal demand/utility.
                    let replicas = f64::from(svc.replicas);
                    chain.extend(svc.modes.iter().enumerate().rev().map(|(i, rung)| {
                        let (d, u) = match svc.modes.get(i + 1) {
                            Some(worse) => (
                                rung.demand.saturating_sub(&worse.demand),
                                rung.utility - worse.utility,
                            ),
                            None => (rung.demand, rung.utility),
                        };
                        let demand = d * replicas;
                        ChainEntry {
                            service,
                            demand,
                            scalar: demand.scalar(),
                            criticality,
                            mode: rung.mode,
                            utility: u * replicas,
                        }
                    }));
                }
                chain
            })
            .collect();
        let prices = workload.apps().map(|(_, a)| a.price_per_unit()).collect();
        let demand_scalars: Vec<f64> = workload
            .apps()
            .map(|(_, a)| a.total_demand().scalar())
            .collect();
        let demand_sort = demand_order(&demand_scalars);
        RankInputs {
            chains,
            prices,
            demand_scalars,
            demand_sort,
        }
    }

    /// Water-fills over `demands` (one scalar per app) instead of each
    /// app's whole demand: pinned planning leaves the pins' demand out of
    /// the fair shares.
    pub(crate) fn with_app_demands(mut self, demands: Vec<f64>) -> RankInputs {
        self.demand_sort = demand_order(&demands);
        self.demand_scalars = demands;
        self
    }

    /// Number of applications.
    pub fn app_count(&self) -> usize {
        self.chains.len()
    }

    /// Water-filling fair shares under `capacity` — exactly what the merge
    /// loop would compute internally (same cached sort order).
    pub fn fair_shares(&self, capacity: f64) -> Vec<f64> {
        waterfill_with_order(&self.demand_scalars, &self.demand_sort, capacity)
    }

    /// The rank item of a [`MergeOrder`] step.
    fn item(&self, step: &Step) -> GlobalRankItem {
        let e = &self.chains[step.app as usize][step.pos as usize];
        GlobalRankItem {
            app: AppId::new(step.app),
            service: e.service,
            demand: e.demand,
            mode: e.mode,
        }
    }

    fn entry<O: OperatorObjective + ?Sized>(
        &self,
        objective: &O,
        fair_shares: &[f64],
        allocated: &[f64],
        app: AppId,
        pos: usize,
    ) -> Option<HeapEntry> {
        let e = self.chains[app.index()].get(pos)?;
        let score = objective.score(&RankContext {
            app,
            next_demand: e.scalar,
            allocated: allocated[app.index()],
            fair_share: fair_shares[app.index()],
            price: self.prices[app.index()],
            criticality: e.criticality,
            mode_utility: e.utility,
        });
        Some(HeapEntry { score, app, pos })
    }
}

/// Merges `app_ranks` (one activation order per app, from
/// [`crate::planner::app_rank`]) into a global list bounded by `capacity`.
///
/// # Panics
///
/// Panics if `app_ranks.len()` differs from the workload's app count.
pub fn global_rank(
    workload: &Workload,
    app_ranks: &[Vec<ServiceId>],
    objective: &dyn OperatorObjective,
    capacity: Resources,
    cfg: &PlannerConfig,
) -> GlobalRank {
    global_rank_prepared(
        &RankInputs::new(workload, app_ranks),
        objective,
        capacity,
        cfg,
    )
}

/// What the merge does with a popped candidate.
enum Pop {
    /// Take it: the app's allocation grows by the candidate's demand and
    /// the app's next candidate is scored.
    Take,
    /// Retire the app's chain: none of its later candidates is scored.
    Retire,
    /// Stop the merge.
    Stop,
}

/// The one heap loop of global ranking: pops every app's next candidate in
/// score order and lets `decide` take it, retire the app's chain, or stop
/// the merge. `allocated` starts at zero per app and ends as each app's
/// taken demand; a candidate is scored against its app's allocation at
/// the time it enters the heap.
fn merge<O: OperatorObjective + ?Sized>(
    inputs: &RankInputs,
    objective: &O,
    fair_shares: &[f64],
    allocated: &mut [f64],
    mut decide: impl FnMut(AppId, usize, &ChainEntry) -> Pop,
) {
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    for app in 0..inputs.app_count() as u32 {
        if let Some(e) = inputs.entry(objective, fair_shares, allocated, AppId::new(app), 0) {
            heap.push(e);
        }
    }
    while let Some(HeapEntry { app, pos, .. }) = heap.pop() {
        let e = &inputs.chains[app.index()][pos];
        match decide(app, pos, e) {
            Pop::Take => {
                allocated[app.index()] += e.scalar;
                if let Some(e) = inputs.entry(objective, fair_shares, allocated, app, pos + 1) {
                    heap.push(e);
                }
            }
            Pop::Retire => {}
            Pop::Stop => break,
        }
    }
}

/// [`global_rank`] over prebuilt [`RankInputs`]: the merge takes each
/// candidate that [`Fits`] the remaining aggregate capacity.
pub(crate) fn global_rank_prepared<O: OperatorObjective + ?Sized>(
    inputs: &RankInputs,
    objective: &O,
    capacity: Resources,
    cfg: &PlannerConfig,
) -> GlobalRank {
    let fair_shares = inputs.fair_shares(capacity.scalar());
    let mut allocated = vec![0.0; inputs.app_count()];
    let mut fits = Fits::new(capacity.scalar(), inputs.app_count(), cfg);
    let mut items = Vec::new();
    merge(
        inputs,
        objective,
        &fair_shares,
        &mut allocated,
        |app, _, e| match fits.take(app.index(), e.scalar, e.mode != ServingMode::Full) {
            Some(true) => {
                items.push(GlobalRankItem {
                    app,
                    service: e.service,
                    demand: e.demand,
                    mode: e.mode,
                });
                Pop::Take
            }
            Some(false) => Pop::Retire,
            None => Pop::Stop,
        },
    );
    fits.record();
    GlobalRank {
        items,
        fair_shares,
        allocated,
    }
}

/// One position of a [`MergeOrder`]: the `(app, chain position)` the heap
/// pops there and that entry's demand scalar, so a replay reads one
/// sequential array instead of chasing the app chains.
#[derive(Debug, Clone, Copy)]
struct Step {
    scalar: f64,
    app: u32,
    pos: u32,
}

/// The unbounded-capacity pop order of the merge heap, as
/// [`merged_order`] computes it, plus the marks that let
/// [`global_rank_replay`] verify a repeat ranking instead of rewriting it,
/// and C\*: a capacity at which a replay took every step, from a probe
/// just above the total demand when the order is built, lowered by every
/// later replay that took every step.
#[derive(Debug, Clone, Default)]
pub struct MergeOrder {
    steps: Vec<Step>,
    /// Per step: whether its entry is a degraded (non-`Full`) rung.
    degraded: Vec<bool>,
    /// Per step: whether the last in-place replay took it (its mark).
    taken: Vec<bool>,
    /// The marks describe the ranking the last replay wrote: its
    /// `taken` marks below `end` (the step a break stopped at, or the
    /// whole order) are its fit decisions, and every later step was
    /// not taken.
    marked: bool,
    end: usize,
    /// Whether the last replay took every step.
    all_taken: bool,
    /// C*: a capacity scalar at which a replay took every step, once one
    /// is known. Subtraction rounded to nearest and the fit test are
    /// both monotone in the remaining capacity, so every replay at a
    /// capacity of at least C* takes every step too.
    all_fit: Option<f64>,
    /// Each app's allocation when every step is taken, summed in step
    /// order as a replay sums it.
    all_allocated: Vec<f64>,
    /// The degraded steps: a replay that takes every step buys them all.
    all_degraded: u64,
}

impl MergeOrder {
    /// Forgets the last replay's marks. Call it whenever the ranking the
    /// next replay writes into is no longer the one the last replay of
    /// this order wrote; that replay then compares items instead.
    pub fn forget_marks(&mut self) {
        self.marked = false;
    }
}

/// The unbounded-capacity pop order of the merge heap under fixed fair
/// shares: every `(app, chain position)` candidate in the order the heap
/// would consider it if every candidate fit. A
/// [capacity-invariant](OperatorObjective::capacity_invariant) objective
/// ignores the shares, so its order is valid under any capacity.
///
/// Sound because a candidate's score is static per `(app, position)` once
/// the shares are fixed: `allocated` at scoring time is always the app's
/// chain-prefix demand sum, which does not depend on capacity or on the
/// other apps. [`global_rank_replay`] may replay this order for any round
/// whose water-filling shares are bit-identical to `fair_shares` — the
/// common case when total demand fits the degraded capacity, where shares
/// equal demands regardless of the exact node count.
pub fn merged_order<O: OperatorObjective + ?Sized>(
    inputs: &RankInputs,
    objective: &O,
    fair_shares: &[f64],
) -> MergeOrder {
    let len = inputs.chains.iter().map(Vec::len).sum();
    let mut order = MergeOrder {
        steps: Vec::with_capacity(len),
        degraded: Vec::with_capacity(len),
        ..MergeOrder::default()
    };
    let mut allocated = vec![0.0; inputs.app_count()];
    merge(
        inputs,
        objective,
        fair_shares,
        &mut allocated,
        |app, pos, e| {
            order.steps.push(Step {
                scalar: e.scalar,
                app: app.index() as u32,
                pos: pos as u32,
            });
            order.degraded.push(e.mode != ServingMode::Full);
            Pop::Take
        },
    );
    order.taken = vec![false; order.steps.len()];
    // Every step is taken: the merge's allocations are the all-taken
    // ones, summed in step order.
    order.all_allocated = allocated;
    order.all_degraded = order.degraded.iter().map(|&d| u64::from(d)).sum();
    // One probe replay just above the total demand sets C* when it takes
    // every step (the fit rule's slack absorbs the sum's rounding).
    let total: f64 = order.steps.iter().map(|s| s.scalar).sum();
    let probe = total + total.abs() * 1e-9;
    let mut fits = Fits::new(probe, inputs.app_count(), &PlannerConfig::default());
    let apps = order.steps.iter().map(|s| s.app as usize);
    if (apps.zip(&order.steps)).all(|(app, s)| fits.take(app, s.scalar, false) == Some(true)) {
        order.all_fit = Some(probe);
    }
    order
}

/// The bounded merge's fit rule, the one both the heap
/// ([`global_rank_prepared`]) and a [`MergeOrder`] replay decide by: a
/// candidate is taken while it fits the remaining aggregate capacity. The
/// caller keeps each app's allocation. Counts rung purchases and chain
/// retirements until [`record`](Fits::record).
struct Fits {
    remaining: f64,
    retired: Vec<bool>,
    continue_on_saturation: bool,
    rung_purchases: u64,
    chain_retirements: u64,
}

impl Fits {
    /// The rule at aggregate capacity scalar `capacity`.
    fn new(capacity: f64, apps: usize, cfg: &PlannerConfig) -> Fits {
        Fits {
            remaining: capacity,
            retired: vec![false; apps],
            continue_on_saturation: cfg.continue_on_saturation,
            rung_purchases: 0,
            chain_retirements: 0,
        }
    }

    /// Whether the merge takes `app`'s next candidate, of demand `scalar`
    /// (`degraded`: a non-`Full` rung); `None` where the break rule
    /// (`continue_on_saturation = false`) stops the merge.
    #[inline]
    fn take(&mut self, app: usize, scalar: f64, degraded: bool) -> Option<bool> {
        if self.retired[app] {
            Some(false)
        } else if scalar <= self.remaining + 1e-9 {
            self.remaining -= scalar;
            // A degraded rung bought under crunch.
            self.rung_purchases += u64::from(degraded);
            Some(true)
        } else if self.continue_on_saturation {
            // Retire only this app's chain; other apps keep ranking.
            self.chain_retirements += 1;
            self.retired[app] = true;
            Some(false)
        } else {
            // Algorithm 1 line 29: stop at the first container that no
            // longer fits the aggregate capacity.
            None
        }
    }

    /// Adds the counted rung purchases and chain retirements to the
    /// current recorder.
    fn record(&self) {
        let obs = phoenix_obs::current();
        obs.add(phoenix_obs::Counter::RungPurchases, self.rung_purchases);
        obs.add(
            phoenix_obs::Counter::ChainRetirements,
            self.chain_retirements,
        );
    }
}

/// The one replay loop, which reads the order only: decides `steps` (with
/// their `degraded` flags) in order under the fit rule at `capacity`,
/// adding each taken step's demand to its app in `allocated`, until the
/// break rule stops it. `decided(i, step, take)` sees every decision.
/// Returns the step a break stopped at (the order's length when none
/// did) and whether every step was taken, and records the rung
/// purchases, chain retirements and steps walked.
#[inline]
fn walk(
    steps: &[Step],
    degraded: &[bool],
    capacity: f64,
    cfg: &PlannerConfig,
    allocated: &mut [f64],
    mut decided: impl FnMut(usize, &Step, bool),
) -> (usize, bool) {
    let mut fits = Fits::new(capacity, allocated.len(), cfg);
    let mut end = steps.len();
    let mut all_taken = true;
    for (i, (step, &degraded)) in steps.iter().zip(degraded).enumerate() {
        let app = step.app as usize;
        let Some(take) = fits.take(app, step.scalar, degraded) else {
            all_taken = false;
            end = i;
            break;
        };
        all_taken &= take;
        if take {
            allocated[app] += step.scalar;
        }
        decided(i, step, take);
    }
    fits.record();
    // The steps decided: all of them, or up to the one a break stopped at.
    let walked = steps.len().min(end + 1);
    phoenix_obs::current().add(phoenix_obs::Counter::ReplaySteps, walked as u64);
    (end, all_taken)
}

/// Replays a cached [`MergeOrder`] under a (possibly different) capacity
/// into `rank`, the ranking of an earlier round: the warm-start path of
/// global ranking. Returns how many leading items of `rank` were kept —
/// the common prefix of its previous and its new activation list.
///
/// Leaves `rank` identical to what [`global_rank`] computes from
/// the same inputs (for the order's objective and shares): chains whose
/// head no longer fits retire exactly as the heap would retire them, and
/// the break rule stops at the same step. It does no scoring and no heap
/// operations: one linear pass over the order, or none when the last
/// replay took every step and `capacity` is at least the order's C\*
/// (see [`MergeOrder`]). While the order holds
/// marks, `rank` must be the ranking its last replay wrote; the pass then
/// only checks each fit decision against its mark and writes items from
/// the first decision that changed. Without marks it compares items
/// instead (the previous ranking came from the heap, or from another
/// order).
pub fn global_rank_replay(
    inputs: &RankInputs,
    order: &mut MergeOrder,
    capacity: Resources,
    cfg: &PlannerConfig,
    rank: &mut GlobalRank,
) -> usize {
    #[cfg(debug_assertions)]
    let previous = rank.items.clone();
    let kept = replay(inputs, order, capacity, cfg, rank);
    #[cfg(debug_assertions)]
    replay_cross_check(inputs, order, capacity, cfg, rank, &previous, kept);
    kept
}

/// [`global_rank_replay`] without its debug cross-check.
///
/// **All-fit short-cut:** when the last replay took every step and wrote
/// `rank` (the order is marked), any capacity of at least the order's C*
/// takes every step again (see [`MergeOrder`]), so the ranking stands:
/// the replay recomputes the shares, books the all-taken allocations and
/// rung purchases, and walks no step.
fn replay(
    inputs: &RankInputs,
    order: &mut MergeOrder,
    capacity: Resources,
    cfg: &PlannerConfig,
    rank: &mut GlobalRank,
) -> usize {
    let capacity = capacity.scalar();
    rank.fair_shares = inputs.fair_shares(capacity);
    if order.marked && order.all_taken && order.all_fit.is_some_and(|c| capacity >= c) {
        rank.allocated.clone_from(&order.all_allocated);
        let obs = phoenix_obs::current();
        obs.add(phoenix_obs::Counter::RungPurchases, order.all_degraded);
        return rank.items.len();
    }
    rank.allocated.clear();
    rank.allocated.resize(inputs.app_count(), 0.0);
    let items = &mut rank.items;
    let marked = order.marked;
    let marked_end = if marked { order.end } else { 0 };
    let mut kept = 0;
    let mut diverged = false;
    let MergeOrder {
        steps,
        degraded,
        taken,
        ..
    } = order;
    let (end, all_taken) = walk(
        steps,
        degraded,
        capacity,
        cfg,
        &mut rank.allocated,
        |i, step, take| {
            let was_taken = i < marked_end && taken[i];
            taken[i] = take;
            if !diverged {
                let same = if marked {
                    take == was_taken
                } else {
                    !take || items.get(kept) == Some(&inputs.item(step))
                };
                if same {
                    kept += usize::from(take);
                    return;
                }
                diverged = true;
                items.truncate(kept);
            }
            if take {
                items.push(inputs.item(step));
            }
        },
    );
    if !diverged {
        // Every decision repeated up to `end`: whatever the previous
        // ranking took past it is gone.
        items.truncate(kept);
    }
    order.marked = true;
    order.end = end;
    order.all_taken = all_taken;
    if all_taken {
        order.all_fit = Some(order.all_fit.map_or(capacity, |c| c.min(capacity)));
    }
    kept
}

/// The read-only replay: `order` under `capacity` into a fresh ranking,
/// equal to what [`global_rank`] computes from the same inputs (for the
/// order's objective and shares). It writes no marks, so the order's
/// next in-place replay is unaffected, and takes no short-cut: it walks
/// every step up to a break. `decided(i, take)` sees every decision;
/// returns the ranking and the step a break stopped at (the order's
/// length when none did).
fn replay_fresh(
    inputs: &RankInputs,
    order: &MergeOrder,
    capacity: Resources,
    cfg: &PlannerConfig,
    mut decided: impl FnMut(usize, bool),
) -> (GlobalRank, usize) {
    let capacity = capacity.scalar();
    let fair_shares = inputs.fair_shares(capacity);
    let mut allocated = vec![0.0; inputs.app_count()];
    let mut items = Vec::new();
    let (end, _) = walk(
        &order.steps,
        &order.degraded,
        capacity,
        cfg,
        &mut allocated,
        |i, step, take| {
            if take {
                items.push(inputs.item(step));
            }
            decided(i, take);
        },
    );
    let rank = GlobalRank {
        items,
        fair_shares,
        allocated,
    };
    (rank, end)
}

/// [`replay_fresh`] without its decisions: a cold round's ranking from a
/// cached order.
pub(crate) fn global_rank_replayed(
    inputs: &RankInputs,
    order: &MergeOrder,
    capacity: Resources,
    cfg: &PlannerConfig,
) -> GlobalRank {
    replay_fresh(inputs, order, capacity, cfg, |_, _| {}).0
}

/// Debug builds: `rank` must equal a read-only replay of `order` bit for
/// bit, `kept` must be the common prefix with the `previous` items, and
/// the marks must be that replay's decisions.
#[cfg(debug_assertions)]
fn replay_cross_check(
    inputs: &RankInputs,
    order: &MergeOrder,
    capacity: Resources,
    cfg: &PlannerConfig,
    rank: &GlobalRank,
    previous: &[GlobalRankItem],
    kept: usize,
) {
    let mut taken = Vec::with_capacity(order.steps.len());
    // Outside any recorder: the counters count the checked replay once.
    let (fresh, end) = phoenix_obs::with_recorder(phoenix_obs::Recorder::disabled(), || {
        replay_fresh(inputs, order, capacity, cfg, |_, take| taken.push(take))
    });
    assert_same_rank(rank, &fresh, "in-place replay diverged");
    let common = previous.iter().zip(&rank.items).take_while(|(a, b)| a == b);
    assert_eq!(
        kept,
        common.count(),
        "replay prefix is not the common prefix"
    );
    assert_eq!(order.end, end, "replay stopped elsewhere");
    assert_eq!(order.taken[..end], taken[..end], "stale replay marks");
}

/// Debug builds: `got` equals `want` item for item, its shares and
/// allocations bit for bit.
#[cfg(any(debug_assertions, test))]
pub(crate) fn assert_same_rank(got: &GlobalRank, want: &GlobalRank, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.items, want.items, "{what}");
    assert_eq!(bits(&got.fair_shares), bits(&want.fair_shares), "{what}");
    assert_eq!(bits(&got.allocated), bits(&want.allocated), "{what}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectives::{CostObjective, FairnessObjective};
    use crate::planner::{app_rank, Traversal};
    use crate::spec::AppSpecBuilder;
    use crate::tags::Criticality;

    /// Two flat apps: app0 with 3×1-CPU services at price 1, app1 with
    /// 3×1-CPU services at price 5.
    fn two_apps() -> Workload {
        let mut apps = Vec::new();
        for (name, price) in [("cheap", 1.0), ("premium", 5.0)] {
            let mut b = AppSpecBuilder::new(name);
            for i in 0..3 {
                b.add_service(
                    format!("s{i}"),
                    Resources::cpu(1.0),
                    Some(Criticality::new(i + 1)),
                    1,
                );
            }
            b.price_per_unit(price);
            apps.push(b.build().unwrap());
        }
        Workload::new(apps)
    }

    fn ranks(w: &Workload) -> Vec<Vec<ServiceId>> {
        w.apps()
            .map(|(_, a)| app_rank(a, Traversal::CriticalityGuidedDfs))
            .collect()
    }

    #[test]
    fn cost_objective_prioritizes_premium_app() {
        let w = two_apps();
        let gr = global_rank(
            &w,
            &ranks(&w),
            &CostObjective,
            Resources::cpu(4.0),
            &PlannerConfig::default(),
        );
        assert_eq!(gr.items.len(), 4);
        // All three premium services first, then one cheap one.
        let apps: Vec<usize> = gr.items.iter().map(|i| i.app.index()).collect();
        assert_eq!(apps, vec![1, 1, 1, 0]);
        assert_eq!(gr.allocated, vec![1.0, 3.0]);
    }

    #[test]
    fn fairness_objective_alternates_apps() {
        let w = two_apps();
        let gr = global_rank(
            &w,
            &ranks(&w),
            &FairnessObjective,
            Resources::cpu(4.0),
            &PlannerConfig::default(),
        );
        assert_eq!(gr.allocated, vec![2.0, 2.0]);
        // Within each app, criticality order is preserved.
        let app0: Vec<usize> = gr
            .items
            .iter()
            .filter(|i| i.app.index() == 0)
            .map(|i| i.service.index())
            .collect();
        assert_eq!(app0, vec![0, 1]);
    }

    #[test]
    fn full_capacity_activates_everything() {
        let w = two_apps();
        let gr = global_rank(
            &w,
            &ranks(&w),
            &FairnessObjective,
            Resources::cpu(100.0),
            &PlannerConfig::default(),
        );
        assert_eq!(gr.items.len(), 6);
    }

    #[test]
    fn break_vs_continue_on_saturation() {
        // app0 has one huge service then a tiny one; app1 has tiny services.
        let mut b0 = AppSpecBuilder::new("big");
        b0.add_service("huge", Resources::cpu(10.0), Some(Criticality::C1), 1);
        b0.add_service("tiny", Resources::cpu(0.5), Some(Criticality::C2), 1);
        b0.price_per_unit(100.0); // cost objective puts "huge" first
        let mut b1 = AppSpecBuilder::new("small");
        b1.add_service("a", Resources::cpu(1.0), Some(Criticality::C1), 1);
        b1.add_service("b", Resources::cpu(1.0), Some(Criticality::C2), 1);
        let w = Workload::new(vec![b0.build().unwrap(), b1.build().unwrap()]);

        // Capacity 3: "huge" (10) never fits.
        let strict = global_rank(
            &w,
            &ranks(&w),
            &CostObjective,
            Resources::cpu(3.0),
            &PlannerConfig::default(),
        );
        // Paper semantics: break immediately → nothing activated.
        assert!(strict.items.is_empty());

        let relaxed = global_rank(
            &w,
            &ranks(&w),
            &CostObjective,
            Resources::cpu(3.0),
            &PlannerConfig {
                continue_on_saturation: true,
                ..PlannerConfig::default()
            },
        );
        // app0's chain retires at "huge" (its tiny C2 must not jump the
        // queue), but app1 activates fully.
        assert_eq!(relaxed.items.len(), 2);
        assert!(relaxed.items.iter().all(|i| i.app.index() == 1));
    }

    #[test]
    fn replicas_count_toward_demand() {
        let mut b = AppSpecBuilder::new("r");
        b.add_service("s", Resources::cpu(1.0), Some(Criticality::C1), 3);
        let w = Workload::new(vec![b.build().unwrap()]);
        let gr = global_rank(
            &w,
            &ranks(&w),
            &CostObjective,
            Resources::cpu(2.0),
            &PlannerConfig::default(),
        );
        // 3 replicas à 1 CPU don't fit in 2 → nothing activated.
        assert!(gr.items.is_empty());
    }

    #[test]
    fn deterministic_tie_break_by_app_id() {
        let w = two_apps();
        // Same price for both → cost objective ties everywhere.
        let gr = global_rank(
            &w,
            &ranks(&w),
            &CostObjective,
            Resources::cpu(2.0),
            &PlannerConfig::default(),
        );
        // premium has higher price so it wins; instead build a tie workload:
        let mut apps = Vec::new();
        for name in ["x", "y"] {
            let mut b = AppSpecBuilder::new(name);
            b.add_service("s", Resources::cpu(1.0), Some(Criticality::C1), 1);
            apps.push(b.build().unwrap());
        }
        let tied = Workload::new(apps);
        let gr2 = global_rank(
            &tied,
            &ranks(&tied),
            &CostObjective,
            Resources::cpu(1.0),
            &PlannerConfig::default(),
        );
        assert_eq!(gr2.items[0].app.index(), 0);
        drop(gr);
    }

    /// The heap loop of the bounded ranking before the merge was shared
    /// with [`merged_order`], kept verbatim as the differential reference
    /// for [`global_rank`]. Do not edit.
    mod reference {
        use super::super::*;

        pub(super) fn global_rank_prepared<O: OperatorObjective + ?Sized>(
            inputs: &RankInputs,
            objective: &O,
            capacity: Resources,
            cfg: &PlannerConfig,
        ) -> GlobalRank {
            let n = inputs.app_count();
            let fair_shares = waterfill_with_order(
                &inputs.demand_scalars,
                &inputs.demand_sort,
                capacity.scalar(),
            );
            let mut allocated = vec![0.0; n];
            let mut remaining = capacity.scalar();
            let mut items = Vec::new();
            let obs = phoenix_obs::current();

            let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
            for app in 0..n as u32 {
                if let Some(e) =
                    inputs.entry(objective, &fair_shares, &allocated, AppId::new(app), 0)
                {
                    heap.push(e);
                }
            }

            while let Some(HeapEntry { app, pos, .. }) = heap.pop() {
                let e = inputs.chains[app.index()][pos];
                if e.scalar <= remaining + 1e-9 {
                    remaining -= e.scalar;
                    allocated[app.index()] += e.scalar;
                    if e.mode != ServingMode::Full {
                        // A degraded rung bought under crunch.
                        obs.incr(phoenix_obs::Counter::RungPurchases);
                    }
                    items.push(GlobalRankItem {
                        app,
                        service: e.service,
                        demand: e.demand,
                        mode: e.mode,
                    });
                    if let Some(e) = inputs.entry(objective, &fair_shares, &allocated, app, pos + 1)
                    {
                        heap.push(e);
                    }
                } else if cfg.continue_on_saturation {
                    // Retire only this app's chain; other apps keep ranking.
                    obs.incr(phoenix_obs::Counter::ChainRetirements);
                    continue;
                } else {
                    // Algorithm 1 line 29: stop at the first container that no
                    // longer fits the aggregate capacity.
                    break;
                }
            }

            GlobalRank {
                items,
                fair_shares,
                allocated,
            }
        }
    }

    /// One service draw: demand index (0 = zero demand), criticality,
    /// replicas, ladder kind (0 none, 1 Full/Shed, 2 four rungs; only
    /// used by modal workloads).
    type ServiceDraw = (usize, u8, u16, u8);

    /// 1–5 apps of 1–6 services with tied and distinct prices, chained and
    /// flat graphs, and mode ladders on some services when `modal`.
    fn arb_workload() -> impl proptest::strategy::Strategy<Value = Workload> {
        use proptest::prelude::*;
        let service = (0usize..5, 1u8..6, 1u16..3, 0u8..3);
        let app = (
            1u8..4,
            any::<bool>(),
            proptest::collection::vec(service, 1..7),
        );
        (proptest::collection::vec(app, 1..6), any::<bool>()).prop_map(|(apps, modal)| {
            let specs = apps
                .iter()
                .enumerate()
                .map(|(a, (price, chained, services))| {
                    build_app(a, f64::from(*price), *chained, services, modal)
                });
            Workload::new(specs.collect())
        })
    }

    fn build_app(
        a: usize,
        price: f64,
        chained: bool,
        services: &[ServiceDraw],
        modal: bool,
    ) -> crate::spec::AppSpec {
        use crate::spec::ModeSpec;
        const DEMANDS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 3.0];
        let mut b = AppSpecBuilder::new(format!("app{a}"));
        let mut ids = Vec::new();
        for (i, &(d, level, replicas, ladder)) in services.iter().enumerate() {
            let full = DEMANDS[d];
            let id = b.add_service(
                format!("s{i}"),
                Resources::cpu(full),
                Some(Criticality::new(level)),
                replicas,
            );
            let rung = |mode, frac: f64, utility| {
                ModeSpec::new(mode, Resources::cpu(full * frac), utility)
            };
            let modes = match ladder {
                1 => vec![
                    rung(ServingMode::Full, 1.0, 1.0),
                    rung(ServingMode::Shed, 0.25, 0.1),
                ],
                2 => vec![
                    rung(ServingMode::Full, 1.0, 1.0),
                    rung(ServingMode::StaleCache, 0.75, 0.8),
                    rung(ServingMode::ReadOnly, 0.5, 0.5),
                    rung(ServingMode::Shed, 0.25, 0.1),
                ],
                _ => Vec::new(),
            };
            if modal && !modes.is_empty() {
                b.service_modes(id, modes);
            }
            ids.push(id);
        }
        if chained {
            for w in ids.windows(2) {
                b.add_dependency(w[0], w[1]);
            }
        }
        b.price_per_unit(price);
        b.build().expect("valid generated spec")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The shared merge ranks exactly as the verbatim pre-merge heap
        /// loop: items, fair shares and allocations bit for bit, and the
        /// same rung purchases and chain retirements.
        #[test]
        fn global_rank_matches_the_reference_heap_loop(
            w in arb_workload(),
            fairness in proptest::prelude::any::<bool>(),
            continue_on_saturation in proptest::prelude::any::<bool>(),
            fraction in 0.0f64..1.5,
        ) {
            use phoenix_obs::{with_recorder, Counter, Recorder};
            let objective: &dyn OperatorObjective =
                if fairness { &FairnessObjective } else { &CostObjective };
            let cfg = PlannerConfig { continue_on_saturation, ..PlannerConfig::default() };
            let total: f64 = w.apps().map(|(_, a)| a.total_demand().scalar()).sum();
            let capacity = Resources::cpu(total * fraction);
            let ranks = ranks(&w);
            let counted = |f: &dyn Fn() -> GlobalRank| {
                let recorder = Recorder::enabled();
                let rank = with_recorder(recorder.clone(), f);
                let counts =
                    [Counter::RungPurchases, Counter::ChainRetirements].map(|c| recorder.counter(c));
                (rank, counts)
            };
            let (got, got_counts) =
                counted(&|| global_rank(&w, &ranks, objective, capacity, &cfg));
            let inputs = RankInputs::new(&w, &ranks);
            let (want, want_counts) = counted(&|| {
                reference::global_rank_prepared(&inputs, objective, capacity, &cfg)
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(&got.items, &want.items);
            proptest::prop_assert_eq!(bits(&got.fair_shares), bits(&want.fair_shares));
            proptest::prop_assert_eq!(bits(&got.allocated), bits(&want.allocated));
            proptest::prop_assert_eq!(got_counts, want_counts);
        }
    }
}
