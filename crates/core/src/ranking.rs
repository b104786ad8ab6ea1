//! Global Ranking (Algorithm 1, `GetGlobalRank`): merge per-application
//! activation orders into one cluster-wide list under an operator
//! objective, stopping at the aggregate capacity.
//!
//! A priority queue holds at most one candidate per application — the app's
//! next-most-critical unactivated container. Each round pops the candidate
//! with the best operator score, deducts its demand from the remaining
//! aggregate capacity, and enqueues that app's next container.
//!
//! Every ranking is one fit walk (`walk`) over one pop order, the queue's
//! order under fixed fair shares as if every candidate fit. The order
//! comes from one of three sources: the lazy heap (`Heap`, the queue
//! itself), a cached [`MergeOrder`] (the heap's order collected once), or
//! an order derived in linear time from the two orders an epoch sorts
//! (`EpochOrders`, share-scaled objectives only). The walk decides each
//! step by one fit rule (`Fits`), so all three rank alike.

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
/// the same fit walk, so their outputs are identical by construction.
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

    /// The number of chain entries, every app's: the length of a pop order.
    fn entries(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// The `(step, degraded)` pair of `app`'s chain entry at `pos`.
    fn step(&self, app: u32, pos: u32) -> (Step, bool) {
        let e = &self.chains[app as usize][pos as usize];
        let step = Step {
            scalar: e.scalar,
            app,
            pos,
        };
        (step, e.mode != ServingMode::Full)
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

/// [`global_rank`] over prebuilt [`RankInputs`]: the lazy heap walked
/// under the fit rule.
pub(crate) fn global_rank_prepared<O: OperatorObjective + ?Sized>(
    inputs: &RankInputs,
    objective: &O,
    capacity: Resources,
    cfg: &PlannerConfig,
) -> GlobalRank {
    let capacity = capacity.scalar();
    let fair_shares = inputs.fair_shares(capacity);
    rank_from(inputs, None, None, objective, fair_shares, capacity, cfg)
}

/// A fresh ranking at aggregate capacity scalar `capacity` under
/// `fair_shares` (`inputs`' water-fill at it), walked over the first
/// source that holds: `cached`, a cached order the caller found valid
/// under these shares; else the order `orders` derive under them; else
/// the lazy heap under `objective`. Only a walk of a cached or derived
/// order counts its steps as replay steps. Debug builds check a derived
/// order against the heap's.
pub(crate) fn rank_from<O: OperatorObjective + ?Sized>(
    inputs: &RankInputs,
    cached: Option<&MergeOrder>,
    orders: Option<&EpochOrders>,
    objective: &O,
    fair_shares: Vec<f64>,
    capacity: f64,
    cfg: &PlannerConfig,
) -> GlobalRank {
    let mut walked = 0;
    let counted = |_: &(Step, bool)| walked += 1;
    let mut rank = if let Some(order) = cached {
        walk_fresh(inputs, order.pairs().inspect(counted), capacity, cfg)
    } else if let Some(steps) = orders.and_then(|o| o.derive(inputs, &fair_shares)) {
        #[cfg(debug_assertions)]
        derive_cross_check(steps.clone(), objective, &fair_shares);
        walk_fresh(inputs, steps.inspect(counted), capacity, cfg)
    } else {
        let heap = Heap::new(inputs, objective, &fair_shares);
        walk_fresh(inputs, heap, capacity, cfg)
    };
    phoenix_obs::current().add(phoenix_obs::Counter::ReplaySteps, walked);
    rank.fair_shares = fair_shares;
    rank
}

/// The merge heap's pop order under fixed fair shares, popped lazily:
/// every `(app, chain position)` candidate in the order the heap would
/// consider it if every candidate fit, as `(step, degraded)` pairs. A
/// pop scores the app's next candidate against the app's chain-prefix
/// demand sum. A walk that breaks pops nothing past the break, so under
/// `continue_on_saturation = false` the bounded ranking scores at most
/// one candidate more than the verbatim heap loop.
///
/// Its one cost beyond that loop: under `continue_on_saturation = true`
/// it still pops and scores the tail of every chain the walk retired,
/// and the walk skips each of those steps. At benchmark scale only
/// kubesim's free cold plans (`drill-64`, `evalstack-16`) rank on the
/// heap.
struct Heap<'a, O: ?Sized> {
    inputs: &'a RankInputs,
    objective: &'a O,
    fair_shares: &'a [f64],
    /// Each app's demand popped so far: its next candidate's allocation.
    allocated: Vec<f64>,
    heap: BinaryHeap<HeapEntry>,
}

impl<'a, O: OperatorObjective + ?Sized> Heap<'a, O> {
    /// The heap holding every app's chain head.
    fn new(inputs: &'a RankInputs, objective: &'a O, fair_shares: &'a [f64]) -> Heap<'a, O> {
        let allocated = vec![0.0; inputs.app_count()];
        let heads = (0..inputs.app_count() as u32)
            .filter_map(|app| inputs.entry(objective, fair_shares, &allocated, AppId::new(app), 0));
        let heap = heads.collect();
        Heap {
            inputs,
            objective,
            fair_shares,
            allocated,
            heap,
        }
    }
}

impl<O: OperatorObjective + ?Sized> Iterator for Heap<'_, O> {
    type Item = (Step, bool);

    fn next(&mut self) -> Option<(Step, bool)> {
        let (inputs, objective, shares) = (self.inputs, self.objective, self.fair_shares);
        let HeapEntry { app, pos, .. } = self.heap.pop()?;
        let pair = inputs.step(app.index() as u32, pos as u32);
        self.allocated[app.index()] += pair.0.scalar;
        let next = inputs.entry(objective, shares, &self.allocated, app, pos + 1);
        self.heap.extend(next);
        Some(pair)
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
    /// `pairs` (a whole pop order of `inputs`' chain entries, as
    /// `(step, degraded)` pairs) collected: every step unmarked, the
    /// all-taken allocations summed in step order as a replay sums them,
    /// and C\* set by one probe replay just above the total demand when
    /// that probe takes every step (the fit rule's slack absorbs the
    /// sum's rounding).
    fn of_steps(inputs: &RankInputs, pairs: impl Iterator<Item = (Step, bool)>) -> MergeOrder {
        let (apps, len) = (inputs.app_count(), inputs.entries());
        let (mut steps, mut degraded) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let mut allocated = vec![0.0; apps];
        for (step, d) in pairs {
            allocated[step.app as usize] += step.scalar;
            steps.push(step);
            degraded.push(d);
        }
        let total: f64 = steps.iter().map(|s| s.scalar).sum();
        let probe = total + total.abs() * 1e-9;
        let mut fits = Fits::new(probe, apps, &PlannerConfig::default());
        let all_fit = (steps.iter())
            .all(|s| fits.take(s.app as usize, s.scalar, false) == Some(true))
            .then_some(probe);
        MergeOrder {
            taken: vec![false; steps.len()],
            all_degraded: degraded.iter().map(|&d| u64::from(d)).sum(),
            steps,
            degraded,
            marked: false,
            end: 0,
            all_taken: false,
            all_fit,
            all_allocated: allocated,
        }
    }

    /// The `(step, degraded)` pairs, in order.
    fn pairs(&self) -> impl Iterator<Item = (Step, bool)> + '_ {
        self.steps
            .iter()
            .copied()
            .zip(self.degraded.iter().copied())
    }
}

/// The unbounded-capacity pop order of the merge heap under fixed fair
/// shares: every `(app, chain position)` candidate in the order the heap
/// would consider it if every candidate fit. A
/// [`Static`](crate::objectives::ScoreForm::Static) objective ignores
/// the shares, so its order is valid under any capacity.
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
    MergeOrder::of_steps(inputs, Heap::new(inputs, objective, fair_shares))
}

/// The pop order under `fair_shares` that a warm round caches for a
/// non-[`Static`](crate::objectives::ScoreForm::Static) objective:
/// derived from `orders` where they derive one, else merged on the heap
/// ([`merged_order`], counted as a cold merge). Debug builds check a
/// derived order against the heap's.
pub(crate) fn warm_order<O: OperatorObjective + ?Sized>(
    inputs: &RankInputs,
    orders: Option<&EpochOrders>,
    objective: &O,
    fair_shares: &[f64],
) -> MergeOrder {
    let Some(steps) = orders.and_then(|o| o.derive(inputs, fair_shares)) else {
        phoenix_obs::current().incr(phoenix_obs::Counter::ColdMerges);
        return merged_order(inputs, objective, fair_shares);
    };
    #[cfg(debug_assertions)]
    derive_cross_check(steps.clone(), objective, fair_shares);
    MergeOrder::of_steps(inputs, steps)
}

/// The fit rule every walk decides by: a candidate is taken while it fits
/// the remaining aggregate capacity. The caller keeps each app's
/// allocation. Counts rung purchases and chain retirements until
/// [`record`](Fits::record).
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

/// The one fit walk: decides `steps` (`(step, degraded)` pairs from any
/// source, pulled one at a time) in order under the fit rule at
/// `capacity`, adding each taken step's demand to its app in
/// `allocated`, until the break rule stops it; it pulls nothing past the
/// break. `decided(i, step, take)` sees every decision. Returns the step
/// a break stopped at (the number of steps when none did) and whether
/// every step was taken, and records the rung purchases and chain
/// retirements.
#[inline]
fn walk(
    steps: impl Iterator<Item = (Step, bool)>,
    capacity: f64,
    cfg: &PlannerConfig,
    allocated: &mut [f64],
    mut decided: impl FnMut(usize, &Step, bool),
) -> (usize, bool) {
    let mut fits = Fits::new(capacity, allocated.len(), cfg);
    let mut end = 0;
    let mut all_taken = true;
    for (step, degraded) in steps {
        let app = step.app as usize;
        let Some(take) = fits.take(app, step.scalar, degraded) else {
            all_taken = false;
            break;
        };
        all_taken &= take;
        if take {
            allocated[app] += step.scalar;
        }
        decided(end, &step, take);
        end += 1;
    }
    fits.record();
    (end, all_taken)
}

/// `steps` walked at `capacity` into a fresh ranking, whose shares the
/// caller sets.
fn walk_fresh(
    inputs: &RankInputs,
    steps: impl Iterator<Item = (Step, bool)>,
    capacity: f64,
    cfg: &PlannerConfig,
) -> GlobalRank {
    let mut rank = GlobalRank {
        allocated: vec![0.0; inputs.app_count()],
        ..GlobalRank::default()
    };
    let items = &mut rank.items;
    walk(
        steps,
        capacity,
        cfg,
        &mut rank.allocated,
        |_, step, take| {
            if take {
                items.push(inputs.item(step));
            }
        },
    );
    rank
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
    let capacity = capacity.scalar();
    #[cfg(debug_assertions)]
    let previous = rank.items.clone();
    let kept = replay(inputs, order, capacity, cfg, rank);
    #[cfg(debug_assertions)]
    replay_cross_check(inputs, order, capacity, cfg, rank, &previous, kept);
    kept
}

/// [`global_rank_replay`] without its debug cross-check. Counts the
/// steps it walks as replay steps.
///
/// **All-fit short-cut:** when the last replay took every step and wrote
/// `rank` (the order is marked), any capacity of at least the order's C*
/// takes every step again (see [`MergeOrder`]), so the ranking stands:
/// the replay recomputes the shares, books the all-taken allocations and
/// rung purchases, and walks no step.
fn replay(
    inputs: &RankInputs,
    order: &mut MergeOrder,
    capacity: f64,
    cfg: &PlannerConfig,
    rank: &mut GlobalRank,
) -> usize {
    rank.fair_shares = inputs.fair_shares(capacity);
    let obs = phoenix_obs::current();
    if order.marked && order.all_taken && order.all_fit.is_some_and(|c| capacity >= c) {
        rank.allocated.clone_from(&order.all_allocated);
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
    let mut walked = 0;
    let MergeOrder {
        steps,
        degraded,
        taken,
        ..
    } = order;
    let pairs = (steps.iter().copied().zip(degraded.iter().copied())).inspect(|_| walked += 1);
    let (end, all_taken) = walk(
        pairs,
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
    obs.add(phoenix_obs::Counter::ReplaySteps, walked);
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

/// One per-epoch order of chain entries: a key and an app per entry. An
/// app's entries appear in chain order, so their chain positions are
/// counted off as the order is read instead of stored.
#[derive(Debug, Clone, Default)]
struct Keyed {
    keys: Vec<f64>,
    apps: Vec<u32>,
}

impl Keyed {
    /// `entries` (`(key, app)` in `(app, position)` order, every key
    /// finite and ≥ 0) sorted by `(key, app, position)`: stably by key,
    /// whose bits order non-negative floats as their values.
    fn sorted(mut entries: Vec<(f64, u32)>) -> Keyed {
        entries.sort_by_key(|&(key, _)| key.to_bits());
        let (keys, apps) = entries.into_iter().unzip();
        Keyed { keys, apps }
    }
}

/// The two orders a
/// [`ShareScaled`](crate::objectives::ScoreForm::ShareScaled) objective
/// derives every round's pop order from, built once per epoch by
/// [`EpochOrders::of`].
///
/// Let x be a chain entry's prefix sum: the app's allocation before it
/// plus its own demand scalar, summed as the heap sums `allocated`. The
/// heap scores it `-(x / share)`, and water-filling gives every app
/// either its own demand d_a as its share (satisfied) or one common
/// level L (capped). So, for any capacity, the heap pops the satisfied
/// apps' entries by x / d_a, fixed per epoch, and the capped apps'
/// entries by x / L, which is x's order up to ties: division rounds, so
/// distinct x can meet at one x / L, and the heap breaks such ties by
/// app id. Apps whose share is at most 1e-12 score −∞ and come last, by
/// app id. Chain scalars are finite and ≥ 0, so x does not decrease
/// along a chain and the heap's one-candidate-per-app rule never bites.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochOrders {
    /// Every entry of every app with d_a > 1e-12, by (x / d_a, app,
    /// position), keyed by x / d_a.
    satisfied: Keyed,
    /// Every entry, by (x, app, position), keyed by x.
    capped: Keyed,
    /// Each app's chain total: its last entry's x (0 for an empty chain).
    totals: Vec<f64>,
}

/// An app's part in one round's derived order ([`EpochOrders::derive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Share {
    /// Share equal to its demand, bit for bit.
    Satisfied,
    /// Share at the common level.
    Capped,
    /// Share at most 1e-12: scored −∞.
    Zero,
}

impl EpochOrders {
    /// The orders of `inputs`' chains, or `None` when a chain scalar is
    /// negative or not finite, a prefix sum or an app demand is not
    /// finite, or an x / d_a overflows: those epochs rank on the heap.
    pub(crate) fn of(inputs: &RankInputs) -> Option<EpochOrders> {
        if inputs.demand_scalars.iter().any(|d| !d.is_finite()) {
            return None;
        }
        let len = inputs.entries();
        let mut capped = Vec::with_capacity(len);
        let mut satisfied = Vec::with_capacity(len);
        let mut totals = Vec::with_capacity(inputs.app_count());
        for (app, chain) in inputs.chains.iter().enumerate() {
            let demand = inputs.demand_scalars[app];
            let mut x = 0.0f64;
            for e in chain {
                if !(e.scalar >= 0.0 && e.scalar.is_finite()) {
                    return None;
                }
                x += e.scalar;
                let q = x / demand;
                if !x.is_finite() || (demand > 1e-12 && !q.is_finite()) {
                    return None;
                }
                capped.push((x, app as u32));
                if demand > 1e-12 {
                    satisfied.push((q, app as u32));
                }
            }
            totals.push(x);
        }
        Some(EpochOrders {
            satisfied: Keyed::sorted(satisfied),
            capped: Keyed::sorted(capped),
            totals,
        })
    }

    /// The heap's unbounded pop order under `fair_shares` (`inputs`'
    /// water-fill at some capacity), as `(step, degraded)` pairs in
    /// O(entries): the satisfied and the capped orders filtered to this
    /// round's apps and merged by score, ties on app id, then the apps
    /// with shares ≤ 1e-12 by (app, position). `None` when the capped
    /// shares are not one level bit for bit, or an x / L overflows.
    fn derive<'a>(&'a self, inputs: &'a RankInputs, fair_shares: &[f64]) -> Option<Derived<'a>> {
        let mut level: Option<f64> = None;
        let mut class = Vec::with_capacity(fair_shares.len());
        for (app, &share) in fair_shares.iter().enumerate() {
            class.push(if share.is_nan() || share <= 1e-12 {
                Share::Zero
            } else if share.to_bits() == inputs.demand_scalars[app].to_bits() {
                Share::Satisfied
            } else {
                let level = *level.get_or_insert(share);
                if level.to_bits() != share.to_bits() || !(self.totals[app] / level).is_finite() {
                    return None;
                }
                Share::Capped
            });
        }
        Some(Derived {
            inputs,
            orders: self,
            level: level.unwrap_or(1.0),
            next: vec![0; class.len()],
            class,
            satisfied: 0,
            capped: 0,
            run: Vec::new(),
            run_at: 0,
            run_q: 0.0,
            zero_app: 0,
        })
    }
}

/// The merge of one round's derived order ([`EpochOrders::derive`]).
#[derive(Clone)]
struct Derived<'a> {
    inputs: &'a RankInputs,
    orders: &'a EpochOrders,
    class: Vec<Share>,
    /// The common level L of the capped shares.
    level: f64,
    /// Each app's next chain position.
    next: Vec<u32>,
    /// Read cursors into the satisfied and the capped order.
    satisfied: usize,
    capped: usize,
    /// The capped entries at the next x / L, `run_q`, in (app, position)
    /// order; `run_at` is the next one to yield.
    run: Vec<(u32, u32)>,
    run_at: usize,
    run_q: f64,
    /// The next app whose zero-share chain comes last.
    zero_app: usize,
}

impl Derived<'_> {
    /// The satisfied order's next entry of a satisfied app: its x / d_a
    /// and app.
    fn satisfied_head(&mut self) -> Option<(f64, u32)> {
        let Keyed { keys, apps } = &self.orders.satisfied;
        while let Some(&app) = apps.get(self.satisfied) {
            if self.class[app as usize] == Share::Satisfied {
                return Some((keys[self.satisfied], app));
            }
            self.satisfied += 1;
        }
        None
    }

    /// The capped order's next entry of a capped app, by (x / L, app,
    /// position): its x / L and app. Reads the next run of equal x / L
    /// when the last one is spent.
    fn capped_head(&mut self) -> Option<(f64, u32)> {
        if self.run_at == self.run.len() {
            self.run.clear();
            self.run_at = 0;
            let Keyed { keys, apps } = &self.orders.capped;
            while let Some(&app) = apps.get(self.capped) {
                if self.class[app as usize] == Share::Capped {
                    let q = keys[self.capped] / self.level;
                    if self.run.is_empty() {
                        self.run_q = q;
                    } else if q != self.run_q {
                        break;
                    }
                    let pos = &mut self.next[app as usize];
                    self.run.push((app, *pos));
                    *pos += 1;
                }
                self.capped += 1;
            }
            // Distinct x that divide to one q: the heap takes them by app.
            if !self.run.is_sorted_by_key(|&(app, _)| app) {
                self.run.sort_by_key(|&(app, _)| app);
            }
        }
        let &(app, _) = self.run.get(self.run_at)?;
        Some((self.run_q, app))
    }

    /// Yields the current capped run's next entry.
    fn run_pop(&mut self) -> (u32, u32) {
        self.run_at += 1;
        self.run[self.run_at - 1]
    }

    /// The next zero-share app's next entry.
    fn zero_next(&mut self) -> Option<(u32, u32)> {
        let chains = &self.inputs.chains;
        while self.zero_app < chains.len() {
            let app = self.zero_app;
            let pos = self.next[app];
            if self.class[app] == Share::Zero && (pos as usize) < chains[app].len() {
                self.next[app] += 1;
                return Some((app as u32, pos));
            }
            self.zero_app += 1;
        }
        None
    }
}

impl Iterator for Derived<'_> {
    type Item = (Step, bool);

    /// The lower (score, app) of the two streams' heads, then the
    /// zero-share chains.
    fn next(&mut self) -> Option<(Step, bool)> {
        let satisfied = self.satisfied_head();
        let capped = self.capped_head();
        let (app, pos) = match (satisfied, capped) {
            (Some(s), Some(c)) if c < s => self.run_pop(),
            (Some((_, app)), _) => {
                self.satisfied += 1;
                let pos = &mut self.next[app as usize];
                *pos += 1;
                (app, *pos - 1)
            }
            (None, Some(_)) => self.run_pop(),
            (None, None) => self.zero_next()?,
        };
        Some(self.inputs.step(app, pos))
    }
}

/// Debug builds: the order `derived` under `fair_shares` is the heap's
/// ([`merged_order`] under `objective`), step for step.
#[cfg(debug_assertions)]
fn derive_cross_check<O: OperatorObjective + ?Sized>(
    derived: Derived<'_>,
    objective: &O,
    fair_shares: &[f64],
) {
    debug_assert_eq!(objective.form(), crate::objectives::ScoreForm::ShareScaled);
    let inputs = derived.inputs;
    let derived: Vec<(u32, u32)> = derived.map(|(s, _)| (s.app, s.pos)).collect();
    let heap = merged_order(inputs, objective, fair_shares);
    let heap: Vec<(u32, u32)> = heap.steps.iter().map(|s| (s.app, s.pos)).collect();
    assert!(derived == heap, "derived order diverged from the heap's");
}

/// Debug builds: `rank` must equal a read-only walk of `order` bit for
/// bit, `kept` must be the common prefix with the `previous` items, and
/// the marks must be that walk's decisions.
#[cfg(debug_assertions)]
fn replay_cross_check(
    inputs: &RankInputs,
    order: &MergeOrder,
    capacity: f64,
    cfg: &PlannerConfig,
    rank: &GlobalRank,
    previous: &[GlobalRankItem],
    kept: usize,
) {
    let mut taken = Vec::with_capacity(order.steps.len());
    let mut fresh = GlobalRank {
        allocated: vec![0.0; inputs.app_count()],
        ..GlobalRank::default()
    };
    // Outside any recorder: the counters count the checked replay once.
    let end = phoenix_obs::with_recorder(phoenix_obs::Recorder::disabled(), || {
        fresh.fair_shares = inputs.fair_shares(capacity);
        let items = &mut fresh.items;
        let walked = walk(
            order.pairs(),
            capacity,
            cfg,
            &mut fresh.allocated,
            |_, step, take| {
                taken.push(take);
                if take {
                    items.push(inputs.item(step));
                }
            },
        );
        walked.0
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
                    build_app(a, f64::from(*price), *chained, services, modal, &DEMANDS)
                });
            Workload::new(specs.collect())
        })
    }

    /// The per-replica demands a [`ServiceDraw`] indexes.
    const DEMANDS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 3.0];

    fn build_app(
        a: usize,
        price: f64,
        chained: bool,
        services: &[ServiceDraw],
        modal: bool,
        demands: &[f64],
    ) -> crate::spec::AppSpec {
        use crate::spec::ModeSpec;
        let mut b = AppSpecBuilder::new(format!("app{a}"));
        let mut ids = Vec::new();
        for (i, &(d, level, replicas, ladder)) in services.iter().enumerate() {
            let full = demands[d];
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

    /// Per-replica demands of the derivation differential: zero, exact
    /// halves, inexact tenths, and two neighbours of 1.7 whose prefix sums
    /// meet after division by a water level below 1.
    const SHARE_DEMANDS: [f64; 8] = [
        0.0,
        0.5,
        1.0,
        3.0,
        0.1,
        0.7,
        1.700_000_000_000_000_2,
        1.700_000_000_000_000_4,
    ];

    /// Like [`arb_workload`] over [`SHARE_DEMANDS`], with up to two
    /// zero-demand apps in front.
    fn arb_share_workload() -> impl proptest::strategy::Strategy<Value = Workload> {
        use proptest::prelude::*;
        let service = (0usize..SHARE_DEMANDS.len(), 1u8..6, 1u16..3, 0u8..3);
        let app = (
            1u8..4,
            any::<bool>(),
            proptest::collection::vec(service, 1..7),
        );
        let apps = proptest::collection::vec(app, 1..7);
        (apps, any::<bool>(), 0usize..3).prop_map(|(apps, modal, idle)| {
            let idle = (0..idle).map(|a| build_app(a, 1.0, false, &[(0, 1, 1, 0)], modal, &[0.0]));
            let drawn = apps
                .iter()
                .enumerate()
                .map(|(a, (price, chained, services))| {
                    let price = f64::from(*price);
                    build_app(a + 3, price, *chained, services, modal, &SHARE_DEMANDS)
                });
            Workload::new(idle.chain(drawn).collect())
        })
    }

    /// The capacities where the water level lands exactly on an app's
    /// demand (every share at or below it satisfied, the rest capped at
    /// it), plus `extra`.
    fn water_level_boundaries(inputs: &RankInputs, extra: &[f64]) -> Vec<f64> {
        let mut demands = inputs.demand_scalars.clone();
        demands.sort_by(f64::total_cmp);
        let n = demands.len();
        let mut below = 0.0;
        let mut caps = extra.to_vec();
        for (k, &d) in demands.iter().enumerate() {
            caps.push(below + (n - k) as f64 * d);
            below += d;
        }
        caps
    }

    #[test]
    fn derived_order_breaks_quotient_ties_by_app() {
        // App 0's entry has the larger x, app 1's the smaller; both are
        // capped at L = 0.75, where the two x divide to one score. The
        // heap pops app 0 first, though the capped order lists app 1's x
        // first.
        let apps = [1.700_000_000_000_000_4, 1.700_000_000_000_000_2].map(|d| {
            let mut b = AppSpecBuilder::new(format!("d{d}"));
            b.add_service("s", Resources::cpu(d), Some(Criticality::C1), 1);
            b.build().unwrap()
        });
        let w = Workload::new(apps.to_vec());
        let inputs = RankInputs::new(&w, &ranks(&w));
        let shares = inputs.fair_shares(1.5);
        assert_eq!(shares, vec![0.75, 0.75]);
        assert_eq!(
            1.700_000_000_000_000_4 / 0.75,
            1.700_000_000_000_000_2 / 0.75
        );
        let orders = EpochOrders::of(&inputs).unwrap();
        let derived: Vec<u32> = orders
            .derive(&inputs, &shares)
            .unwrap()
            .map(|(s, _)| s.app)
            .collect();
        let heap = merged_order(&inputs, &FairnessObjective, &shares);
        assert_eq!(
            derived,
            heap.steps.iter().map(|s| s.app).collect::<Vec<_>>()
        );
        assert_eq!(derived, vec![0, 1]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// A share-scaled objective's derived order is the heap's pop
        /// order step for step, and the ranking walked from it is the
        /// heap's bit for bit (items, shares, allocations, rung purchases
        /// and chain retirements), at every water-level boundary, at
        /// levels below 1 where quotients collide, and at random
        /// capacities, under both saturation rules.
        #[test]
        fn derived_order_and_ranking_match_the_heap(
            w in arb_share_workload(),
            continue_on_saturation in proptest::prelude::any::<bool>(),
            fraction in 0.0f64..1.5,
        ) {
            use phoenix_obs::{with_recorder, Counter, Recorder};
            let inputs = RankInputs::new(&w, &ranks(&w));
            let orders = EpochOrders::of(&inputs).expect("finite, non-negative chains");
            let cfg = PlannerConfig { continue_on_saturation, ..PlannerConfig::default() };
            let total: f64 = inputs.demand_scalars.iter().sum();
            let n = inputs.app_count() as f64;
            let extra = [total * fraction, 0.75 * n, 0.6 * n, total * 2.0, 0.0, 1e-13];
            for cap in water_level_boundaries(&inputs, &extra) {
                let shares = inputs.fair_shares(cap);
                let heap = merged_order(&inputs, &FairnessObjective, &shares);
                let derived = orders.derive(&inputs, &shares).expect("one capped level");
                let derived: Vec<_> = derived.collect();
                proptest::prop_assert_eq!(derived.len(), heap.steps.len());
                for (i, ((got, degraded), want)) in derived.iter().zip(&heap.steps).enumerate() {
                    proptest::prop_assert_eq!(
                        (got.app, got.pos, got.scalar.to_bits(), *degraded),
                        (want.app, want.pos, want.scalar.to_bits(), heap.degraded[i]),
                        "step {} at capacity {}", i, cap
                    );
                }
                let counted = |f: &dyn Fn() -> GlobalRank| {
                    let recorder = Recorder::enabled();
                    let rank = with_recorder(recorder.clone(), f);
                    let counts =
                        [Counter::RungPurchases, Counter::ChainRetirements].map(|c| recorder.counter(c));
                    (rank, counts)
                };
                let capacity = Resources::cpu(cap);
                let (want, want_counts) =
                    counted(&|| global_rank_prepared(&inputs, &FairnessObjective, capacity, &cfg));
                let (got, got_counts) = counted(&|| {
                    let shares = shares.clone();
                    rank_from(&inputs, None, Some(&orders), &FairnessObjective, shares, cap, &cfg)
                });
                assert_same_rank(&got, &want, "derived ranking");
                proptest::prop_assert_eq!(got_counts, want_counts);
            }
        }
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
            // The lazy heap pops nothing past a break: under the break
            // rule it scores at most the successor of the step the walk
            // broke at beyond what the reference scores.
            if !continue_on_saturation {
                let scored = Scored::new(objective);
                let _ = global_rank(&w, &ranks, &scored, capacity, &cfg);
                let reference = Scored::new(objective);
                let _ = reference::global_rank_prepared(&inputs, &reference, capacity, &cfg);
                proptest::prop_assert!(scored.calls() <= reference.calls() + 1);
            }
        }
    }

    /// An objective that counts its `score` calls.
    #[derive(Debug)]
    struct Scored<'a> {
        inner: &'a dyn OperatorObjective,
        calls: std::sync::atomic::AtomicU64,
    }

    impl<'a> Scored<'a> {
        fn new(inner: &'a dyn OperatorObjective) -> Scored<'a> {
            let calls = std::sync::atomic::AtomicU64::new(0);
            Scored { inner, calls }
        }

        fn calls(&self) -> u64 {
            self.calls.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl OperatorObjective for Scored<'_> {
        fn score(&self, ctx: &RankContext) -> f64 {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.score(ctx)
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn form(&self) -> crate::objectives::ScoreForm {
            self.inner.form()
        }
    }
}
