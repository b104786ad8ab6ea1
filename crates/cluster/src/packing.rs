//! The Phoenix scheduler's packing module (paper Algorithm 2, Appendix B).
//!
//! Given the planner's globally-ranked list of microservices, map each one
//! to a healthy server with a three-pronged strategy. With `P` plan
//! entries, `A` resulting actions and `N` healthy nodes, one pack costs
//! O(P + A · log N): a running pod costs one dense `rank_of` lookup and
//! one flag write in the drop pass, then one flag test in the placement
//! loop — no pod-map probe; a pod that moves pays for the ordered node
//! set, and a fallback event (a repack attempt, a victim) costs what the
//! migration budgets and the pods of the few nodes it touches allow —
//! never something proportional to `P`.
//!
//! 0. **Drop** — one pass over the running pods deletes those the plan
//!    turned off and records the *standing* of every planned position:
//!    vacant, running at a booking the plan changes (a serving-mode
//!    rebook), or running and settled.
//!    **Standing invariant:** for every position the placement loop has
//!    not reached yet, the recorded standing is what a probe of the state
//!    would answer. Nothing in a pack assigns a pod at a later position:
//!    starts and rebooks happen at the current one, and repack migrations
//!    keep a pod assigned at the same booking. Only the victim cursor
//!    removes a later pod, it marks that position vacant as it does, and
//!    it never revisits a position. Debug builds check the recorded
//!    standing against the probe on every loop entry and cursor step.
//!
//! 1. **Best-fit** — the node with the smallest remaining capacity that
//!    still accommodates the demand: one O(log N) range query on
//!    [`SortedNodes`] per pod that is not already running.
//! 2. **Repack** — if nothing fits, pick an emptyish node and migrate its
//!    smallest pods elsewhere until the demand fits. At most
//!    `max_migration_nodes` candidates are tried, each moving at most
//!    `max_migration_moves` pods at O(log N) apiece. A candidate's pods
//!    are tried smallest first, and a pod can only move to a node whose
//!    key reaches the pod's *floor* (`scalar − 1e-9`, where its best-fit
//!    candidate range starts).
//!    **Early-out invariant:** when a pod finds no destination and even
//!    the emptiest *other* node's key is below that pod's floor, no later
//!    pod of the candidate can find one either — floors only grow along
//!    the sorted list and nothing changed in between — so the candidate
//!    is abandoned after one query instead of one per pod. (A miss while
//!    some node still reaches the floor proves nothing: that node may
//!    lack memory or pod slots this pod needs and the next does not.)
//!    A full cluster fails every candidate this way, and a full cluster
//!    is when repack is called most.
//! 3. **Delete-lower-ranks** — as a last resort, delete currently running
//!    pods in reverse rank order (lowest priority first) until space
//!    opens. The next victim is found by a **cursor** that starts past
//!    the end of the plan and walks towards its head, skipping entries
//!    whose standing is vacant.
//!    **Cursor invariant:** a plan entry the cursor has passed is either
//!    not running, a pin, or was (re-)placed by this pack when its own
//!    turn came.
//!    A victim must sit after the pod being placed; a victim that is
//!    re-placed later is placed at its own position, which the placement
//!    loop has reached by then, so it can never be chosen again. Passed
//!    entries therefore never need a second look: O(P) flag tests over
//!    the whole pack, and no ordered set of every running pod.
//!
//! **Pins.** A [pinned](PlannedPod::pinned) entry (a stateful pod) ranks
//! ahead of every unpinned one: pins form a prefix of the plan. A running
//! pin stands settled whatever its booking, the victim cursor passes it,
//! and repack never migrates it; repack looks a pod's entry up only when
//! the plan holds a pin. A lost pin is placed like any vacant entry.
//!
//! A victim re-placed at its own rank collapses its delete + start pair
//! into a keep or a migration; its slot in the deletion list is
//! remembered next to its origin node, so the collapse is O(1). The
//! converse collapse — deleting a pod this very pack started — cannot
//! arise: starts happen at positions up to the current one, victims sit
//! strictly after it.
//!
//! All work happens on a scratch [`ClusterState`] copy owned by the caller;
//! enforcement is the agent's job (§4.2).

use phoenix_obs::{Counter, Recorder};

use crate::{ClusterState, FxHashMap, NodeId, PodKey, Resources, SortedNodes};

/// One entry of the planner's globally-ranked list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedPod {
    /// The container to activate.
    pub key: PodKey,
    /// Its resource demand.
    pub demand: Resources,
    /// A pin (a stateful pod, see the [module docs](self)): once running
    /// it is never deleted, migrated or re-booked.
    pub pinned: bool,
}

impl PlannedPod {
    /// Creates an unpinned planned pod.
    pub fn new(key: PodKey, demand: Resources) -> PlannedPod {
        PlannedPod {
            key,
            demand,
            pinned: false,
        }
    }
}

/// Node-selection strategy for the fit step (ablation knob; the paper uses
/// best-fit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitStrategy {
    /// Smallest remaining capacity that fits (paper default).
    #[default]
    BestFit,
    /// Lowest node id that fits (classic first-fit).
    FirstFit,
    /// Largest remaining capacity (Kubernetes' least-allocated spreading).
    WorstFit,
}

/// Packing configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PackingConfig {
    /// Fit strategy for step 1.
    pub fit: FitStrategy,
    /// Enable the migration/repack step.
    pub enable_migration: bool,
    /// Maximum pods moved per repack attempt.
    pub max_migration_moves: usize,
    /// Maximum candidate source nodes examined per repack attempt.
    pub max_migration_nodes: usize,
    /// Abort the whole pack on the first unplaceable pod (the paper's
    /// Algorithm 2 returns `None`); when `false`, skip and continue.
    pub strict: bool,
    /// Per-node pod-count cap — the "per-node microservice limits imposed
    /// by underlying cluster schedulers" the paper lists as an operator
    /// constraint (§4); Kubernetes ships with `max-pods = 110`. `None`
    /// disables the check.
    pub max_pods_per_node: Option<usize>,
    /// Re-book running pods whose planned demand differs from their live
    /// booking (serving-mode shifts). Off, a running pod keeps its old
    /// booking untouched — the historical contract mode-less plans are
    /// pinned to. On, such a pod is re-booked in place when it still
    /// fits, and otherwise re-enters the fit/repack/victim flow like a
    /// self-victimized pod (same node ⇒ keep, elsewhere ⇒ migration).
    pub rebook_in_place: bool,
}

impl Default for PackingConfig {
    fn default() -> PackingConfig {
        PackingConfig {
            fit: FitStrategy::BestFit,
            enable_migration: true,
            max_migration_moves: 8,
            max_migration_nodes: 8,
            strict: false,
            max_pods_per_node: None,
            rebook_in_place: false,
        }
    }
}

/// Result of a packing run: the target state and the actions that reach it.
#[derive(Debug, Clone, Default)]
pub struct PackOutcome {
    /// Pods deleted (pre-existing pods turned off, including plan victims).
    pub deletions: Vec<PodKey>,
    /// Pods migrated between healthy nodes: `(pod, from, to)`.
    pub migrations: Vec<(PodKey, NodeId, NodeId)>,
    /// Pods newly started: `(pod, node)`.
    pub starts: Vec<(PodKey, NodeId)>,
    /// Planned pods that could not be placed.
    pub unplaced: Vec<PodKey>,
    /// `true` when `strict` mode aborted mid-plan.
    pub aborted: bool,
}

/// Packs the planner's ranked `plan` into `state` (mutated in place).
///
/// Pods currently assigned but absent from the plan are deleted first —
/// that is the diagonal-scaling step. Remaining plan entries are placed in
/// rank order with the three-pronged strategy.
pub fn pack(state: &mut ClusterState, plan: &[PlannedPod], cfg: &PackingConfig) -> PackOutcome {
    let ranks = PlanRanks::new(plan);
    pack_prepared(state, plan, cfg, |p| ranks.get(p))
}

/// `pod key → plan index` for an arbitrary plan, derived from the plan
/// itself in three hash-free passes: pod keys are dense workload indices
/// (see [`PodKey`]), so a three-level offset table — app → service slot →
/// replica cell — answers a lookup with three array reads and costs a few
/// bytes per planned pod.
enum PlanRanks {
    Dense {
        /// Start of each app's service slots; `len = apps + 1`.
        app_offsets: Vec<u32>,
        /// Start of each service slot's replica cells; `len = slots + 1`.
        slot_offsets: Vec<u32>,
        /// Plan index per replica cell, [`ABSENT`] when not planned.
        cells: Vec<u32>,
    },
    /// Key spaces too sparse for the table (hand-built keys far apart):
    /// `(key, plan index)` sorted by key.
    Sorted(Vec<(PodKey, usize)>),
}

/// [`PlanRanks::Dense`] cell of a key that lies between planned ones.
const ABSENT: u32 = u32::MAX;

impl PlanRanks {
    fn new(plan: &[PlannedPod]) -> PlanRanks {
        PlanRanks::dense(plan).unwrap_or_else(|| {
            let mut sorted: Vec<(PodKey, usize)> =
                plan.iter().enumerate().map(|(i, p)| (p.key, i)).collect();
            sorted.sort_unstable();
            PlanRanks::Sorted(sorted)
        })
    }

    /// The dense table, or `None` when any level would outgrow a small
    /// multiple of the plan (or the plan outgrows `u32` indices).
    fn dense(plan: &[PlannedPod]) -> Option<PlanRanks> {
        let budget = plan.len().checked_mul(4)?.saturating_add(1024);
        if budget >= ABSENT as usize {
            return None;
        }
        // Exclusive prefix sums of `counts`, refused past `budget`.
        let offsets = |counts: &[u32]| {
            let mut total = 0u32;
            let mut offsets = Vec::with_capacity(counts.len() + 1);
            offsets.push(0);
            for &c in counts {
                total = total.checked_add(c).filter(|&t| t as usize <= budget)?;
                offsets.push(total);
            }
            Some(offsets)
        };
        let mut services: Vec<u32> = Vec::new();
        for p in plan {
            let app = p.key.app as usize;
            if app >= services.len() {
                if app >= budget {
                    return None;
                }
                services.resize(app + 1, 0);
            }
            services[app] = services[app].max(p.key.service.checked_add(1)?);
        }
        let app_offsets = offsets(&services)?;
        let slot_of = |key: PodKey| app_offsets[key.app as usize] as usize + key.service as usize;
        let mut replicas = vec![0u32; *app_offsets.last().expect("non-empty") as usize];
        for p in plan {
            let slot = slot_of(p.key);
            replicas[slot] = replicas[slot].max(u32::from(p.key.replica) + 1);
        }
        let slot_offsets = offsets(&replicas)?;
        let mut cells = vec![ABSENT; *slot_offsets.last().expect("non-empty") as usize];
        for (i, p) in plan.iter().enumerate() {
            cells[slot_offsets[slot_of(p.key)] as usize + usize::from(p.key.replica)] = i as u32;
        }
        Some(PlanRanks::Dense {
            app_offsets,
            slot_offsets,
            cells,
        })
    }

    #[inline]
    fn get(&self, pod: PodKey) -> Option<usize> {
        match self {
            PlanRanks::Dense {
                app_offsets,
                slot_offsets,
                cells,
            } => {
                let app = pod.app as usize;
                let slot = *app_offsets.get(app)? as usize + pod.service as usize;
                if slot >= *app_offsets.get(app + 1)? as usize {
                    return None;
                }
                let cell = slot_offsets[slot] as usize + usize::from(pod.replica);
                if cell >= slot_offsets[slot + 1] as usize {
                    return None;
                }
                Some(cells[cell])
                    .filter(|&i| i != ABSENT)
                    .map(|i| i as usize)
            }
            PlanRanks::Sorted(sorted) => sorted
                .binary_search_by_key(&pod, |&(key, _)| key)
                .ok()
                .map(|at| sorted[at].1),
        }
    }
}

/// [`pack`] with a caller-supplied `pod key → plan index` lookup.
///
/// Pinned entries must form a prefix of `plan` ([module docs](self)).
///
/// The planner (`phoenix_core::controller`, cold and warm) passes a dense
/// workload-shaped table here that it derives in O(services) while it
/// flattens the activation list, instead of having [`pack`] re-derive one
/// from the flattened plan. `rank_of` **must** return exactly `Some(i)` for
/// `plan[i].key` and `None` for every other pod; anything else loses the
/// byte-identical-to-[`pack`] guarantee.
///
/// # Panics
///
/// Panics (in debug builds) when `rank_of` disagrees with `plan`, and in
/// all builds when it returns an index past the plan's end for an
/// assigned pod.
pub fn pack_prepared(
    state: &mut ClusterState,
    plan: &[PlannedPod],
    cfg: &PackingConfig,
    rank_of: impl Fn(PodKey) -> Option<usize>,
) -> PackOutcome {
    debug_assert!(plan
        .iter()
        .enumerate()
        .all(|(i, p)| rank_of(p.key) == Some(i)));
    debug_assert!(plan.iter().skip_while(|p| p.pinned).all(|p| !p.pinned));
    let mut out = PackOutcome::default();
    let standing = drop_unplanned(state, plan, cfg, &rank_of, &mut out);
    let mut sorted = healthy_by_remaining(state);
    let mut ctx = PackCtx::new(standing);
    let holds_pins = plan.first().is_some_and(|p| p.pinned);
    let is_pin = |pod: PodKey| holds_pins && rank_of(pod).is_some_and(|i| plan[i].pinned);
    for (rank, planned) in plan.iter().enumerate() {
        debug_assert_eq!(
            ctx.standing[rank],
            Standing::probe(state, planned, cfg),
            "standing of {} at rank {rank}",
            planned.key
        );
        let mut in_place = None;
        match ctx.standing[rank] {
            Standing::Settled => continue, // already running; keep in place
            Standing::Vacant => {}
            Standing::Rebook => {
                // Serving-mode rebook: free the old booking and re-place
                // at the planned demand, preferring the pod's own node so
                // a shrink (or a grow that still fits) never moves it. A
                // grow that no longer fits re-enters the regular flow as
                // a self-victimization: same node ⇒ keep, elsewhere ⇒
                // migration, nowhere ⇒ the delete stands.
                let (from, _) = state.remove(planned.key).expect("pod is assigned");
                sorted.update(from, state.remaining(from).scalar());
                ctx.evicted(planned.key, from, &mut out);
                if fits_node(state, cfg, from, planned.demand) {
                    in_place = Some(from);
                }
            }
        }
        let mut target = in_place.or_else(|| try_fit(state, &sorted, planned.demand, cfg));
        if target.is_none() && cfg.enable_migration {
            let migrations_before = out.migrations.len();
            target = repack_to_fit(
                state,
                &mut sorted,
                planned.demand,
                cfg,
                &mut out,
                &mut ctx.repack,
                is_pin,
            );
            ctx.obs.add(
                Counter::PackRepackMigrations,
                (out.migrations.len() - migrations_before) as u64,
            );
        }
        while target.is_none() {
            // Delete the lowest-priority running pod that ranks below us.
            let Some(victim) = ctx.next_victim(state, plan, rank) else {
                break;
            };
            let (node, _) = state.remove(victim).expect("victim is assigned");
            sorted.update(node, state.remaining(node).scalar());
            ctx.obs.incr(Counter::PackVictimDeletes);
            ctx.evicted(victim, node, &mut out);
            target = try_fit(state, &sorted, planned.demand, cfg);
        }
        match target {
            Some(node) => {
                state
                    .assign(planned.key, planned.demand, node)
                    .expect("fit was just verified");
                sorted.update(node, state.remaining(node).scalar());
                ctx.obs.incr(Counter::PackPlacements);
                ctx.placed(planned.key, node, &mut out);
            }
            None => {
                out.unplaced.push(planned.key);
                if cfg.strict {
                    out.aborted = true;
                    break;
                }
            }
        }
    }
    out
}

/// Where a plan position stands before the placement loop reaches it (see
/// the standing invariant in the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Standing {
    /// Not running: the position goes through the fit flow.
    Vacant,
    /// Running at a booking the plan changes: a serving-mode rebook.
    Rebook,
    /// Running and kept in place: the placement loop skips it.
    Settled,
}

impl Standing {
    /// The standing of a running pod booked at `booked`. A pin is never
    /// re-booked.
    fn running(booked: Resources, planned: &PlannedPod, cfg: &PackingConfig) -> Standing {
        if !cfg.rebook_in_place || booked == planned.demand || planned.pinned {
            Standing::Settled
        } else {
            Standing::Rebook
        }
    }

    /// The standing a pod-map probe of `state` gives — what the recorded
    /// standing replaces, kept for the debug cross-checks.
    fn probe(state: &ClusterState, planned: &PlannedPod, cfg: &PackingConfig) -> Standing {
        state
            .placement_of(planned.key)
            .map_or(Standing::Vacant, |(_, booked)| {
                Standing::running(booked, planned, cfg)
            })
    }
}

/// Step 0: diagonal scaling — drop running pods the plan turned off — and,
/// in the same pass, the [`Standing`] of every plan position.
fn drop_unplanned(
    state: &mut ClusterState,
    plan: &[PlannedPod],
    cfg: &PackingConfig,
    rank_of: &impl Fn(PodKey) -> Option<usize>,
    out: &mut PackOutcome,
) -> Vec<Standing> {
    let mut standing = vec![Standing::Vacant; plan.len()];
    let mut to_drop = Vec::new();
    for (p, _, booked) in state.assignments() {
        match rank_of(p) {
            Some(i) => standing[i] = Standing::running(booked, &plan[i], cfg),
            None => to_drop.push(p),
        }
    }
    for p in to_drop {
        state.remove(p).expect("pod listed in assignments");
        out.deletions.push(p);
    }
    standing
}

/// The healthy nodes keyed by remaining capacity — the ordered set every
/// fit query of one pack runs against. The packing loop updates a node's
/// key after each mutation of its bookings.
fn healthy_by_remaining(state: &ClusterState) -> SortedNodes {
    let mut sorted = SortedNodes::new();
    for n in state.healthy_nodes() {
        sorted.insert(n, state.remaining(n).scalar());
    }
    sorted
}

/// Cross-pod bookkeeping of one pack.
struct PackCtx {
    /// Observability handle, grabbed once per pack.
    obs: Recorder,
    /// Per plan position, from the drop pass: exact for every position
    /// the placement loop has not reached yet.
    standing: Vec<Standing>,
    /// The deletion fallback's cursor into the plan (see the
    /// [module docs](self) for its invariant): the next victim is the
    /// first running pod before it. Starts past the plan's end and only
    /// ever moves towards its head.
    victim_cursor: usize,
    /// Origin node of every running pod this pack took off its node (the
    /// deletion fallback's victims and serving-mode rebooks), with the
    /// pod's index in [`PackOutcome::deletions`]: consulted on
    /// re-placement to collapse the delete + start pair into a keep or a
    /// migration without searching the deletion list.
    victim_origin: FxHashMap<PodKey, (NodeId, usize)>,
    /// [`repack_to_fit`]'s buffers.
    repack: RepackScratch,
}

impl PackCtx {
    fn new(standing: Vec<Standing>) -> PackCtx {
        PackCtx {
            obs: phoenix_obs::current(),
            victim_cursor: standing.len(),
            standing,
            victim_origin: FxHashMap::default(),
            repack: RepackScratch::default(),
        }
    }

    /// Records that running `pod` left `node` and is, for now, deleted.
    fn evicted(&mut self, pod: PodKey, node: NodeId, out: &mut PackOutcome) {
        self.victim_origin.insert(pod, (node, out.deletions.len()));
        out.deletions.push(pod);
    }

    /// `pod` was just placed on `node`: a start — unless this pack took
    /// it off a node earlier, in which case the recorded delete is
    /// withdrawn (`swap_remove`, so the list keeps the order a linear
    /// search-and-remove gives it) and the pod is a keep or a migration.
    fn placed(&mut self, pod: PodKey, node: NodeId, out: &mut PackOutcome) {
        let Some((from, at)) = self.victim_origin.remove(&pod) else {
            out.starts.push((pod, node));
            return;
        };
        debug_assert_eq!(out.deletions[at], pod);
        out.deletions.swap_remove(at);
        // The entry `swap_remove` moved into `at`, if it is one of ours
        // (unplanned drops share the list but are never re-placed, so
        // they have no slot to keep current).
        let moved = out.deletions.get(at);
        if let Some(slot) = moved.and_then(|pod| self.victim_origin.get_mut(pod)) {
            slot.1 = at;
        }
        // Reporting the delete + start pair would make the agent restart
        // a running pod (exactly what cooperative degradation forbids):
        // back on its old node it is a keep, elsewhere a migration.
        if from != node {
            out.migrations.push((pod, from, node));
        }
    }

    /// Moves the victim cursor towards the head of the plan to the next
    /// running unpinned pod that still sits after `rank` — the deletion
    /// fallback's next victim, whose position it marks vacant for the
    /// caller to remove — or to `rank + 1` when there is none.
    fn next_victim(
        &mut self,
        state: &ClusterState,
        plan: &[PlannedPod],
        rank: usize,
    ) -> Option<PodKey> {
        while self.victim_cursor > rank + 1 {
            self.victim_cursor -= 1;
            let at = self.victim_cursor;
            let key = plan[at].key;
            debug_assert_eq!(
                self.standing[at] != Standing::Vacant,
                state.node_of(key).is_some(),
                "standing of victim candidate {key} at rank {at}"
            );
            if self.standing[at] != Standing::Vacant && !plan[at].pinned {
                self.standing[at] = Standing::Vacant;
                return Some(key);
            }
        }
        None
    }
}

/// Whether `node` can take `demand`: capacity in both dimensions plus the
/// per-node pod-count cap.
fn fits_node(state: &ClusterState, cfg: &PackingConfig, node: NodeId, demand: Resources) -> bool {
    demand.fits_in(&state.remaining(node))
        && cfg
            .max_pods_per_node
            .is_none_or(|cap| state.pods_on(node).len() < cap)
}

/// Step 1: find a node for `demand` under the configured strategy.
fn try_fit(
    state: &ClusterState,
    sorted: &SortedNodes,
    demand: Resources,
    cfg: &PackingConfig,
) -> Option<NodeId> {
    match cfg.fit {
        FitStrategy::BestFit => sorted
            .best_fit_candidates(demand.scalar())
            .find(|&n| fits_node(state, cfg, n, demand)),
        // First fit by id order, stopping at the first fit. (This used to
        // materialize every fitting node from the capacity-sorted view and
        // take `.min()` — an O(tracked nodes) scan per placement. The
        // placements are identical: a fitting node's remaining capacity
        // always clears the scalar key filter, so "min id among all
        // fitting" equals "first fit in id order".)
        FitStrategy::FirstFit => sorted
            .iter_by_id()
            .map(|(n, _)| n)
            .find(|&n| fits_node(state, cfg, n, demand)),
        FitStrategy::WorstFit => sorted
            .iter_desc()
            .map(|(n, _)| n)
            .find(|&n| fits_node(state, cfg, n, demand)),
    }
}

/// [`repack_to_fit`]'s per-candidate buffers, reused across candidates
/// and across the calls of one pack.
#[derive(Default)]
struct RepackScratch {
    pods: Vec<(PodKey, Resources)>,
    moves: Vec<(PodKey, NodeId, NodeId)>,
}

/// Step 2: free up one node by migrating its smallest pods elsewhere.
///
/// Examines candidate source nodes from most to least remaining capacity
/// (emptier nodes need fewer moves). Tentative moves are rolled back when a
/// candidate cannot be freed within the move budget. A pod `is_pin` holds
/// stays on its node.
fn repack_to_fit(
    state: &mut ClusterState,
    sorted: &mut SortedNodes,
    demand: Resources,
    cfg: &PackingConfig,
    out: &mut PackOutcome,
    scratch: &mut RepackScratch,
    is_pin: impl Fn(PodKey) -> bool,
) -> Option<NodeId> {
    let candidates: Vec<NodeId> = sorted
        .iter_desc()
        .take(cfg.max_migration_nodes)
        .map(|(n, _)| n)
        .collect();
    let RepackScratch { pods, moves } = scratch;
    for source in candidates {
        moves.clear();
        // Smallest pods first: they are the easiest to re-home.
        pods.clear();
        pods.extend(state.pod_demands_on(source).filter(|&(p, _)| !is_pin(p)));
        // `total_cmp`: a degenerate (NaN) demand must order deterministically
        // (last, as the hardest to re-home), not panic mid-incident.
        pods.sort_by(|a, b| a.1.scalar().total_cmp(&b.1.scalar()));
        let mut ok = false;
        for &(p, d) in pods.iter() {
            if fits_node(state, cfg, source, demand) {
                ok = true;
                break;
            }
            if moves.len() >= cfg.max_migration_moves {
                break;
            }
            // Find a home on any *other* node (best-fit).
            let Some(dest) = sorted
                .best_fit_candidates(d.scalar())
                .find(|&n| n != source && fits_node(state, cfg, n, d))
            else {
                // Early-out (see the module docs): with every other
                // node's key below this pod's floor, the larger pods
                // that follow have nowhere to go either. `total_cmp`
                // is the sorted set's own order, so a NaN key (sorted
                // above everything) never ends the loop early; a NaN
                // floor says nothing about the floors after it.
                let floor = d.scalar() - 1e-9;
                let roomiest_other = sorted.iter_desc().find(|&(n, _)| n != source);
                if !floor.is_nan()
                    && roomiest_other.is_none_or(|(_, key)| key.total_cmp(&floor).is_lt())
                {
                    break;
                }
                continue;
            };
            state.migrate(p, dest).expect("fit was just verified");
            sorted.update(source, state.remaining(source).scalar());
            sorted.update(dest, state.remaining(dest).scalar());
            moves.push((p, source, dest));
        }
        if !ok && fits_node(state, cfg, source, demand) {
            ok = true;
        }
        if ok {
            out.migrations.extend(moves.iter().copied());
            return Some(source);
        }
        // Roll back tentative moves, most recent first.
        for &(p, src, dest) in moves.iter().rev() {
            state.migrate(p, src).expect("rollback to source succeeds");
            sorted.update(src, state.remaining(src).scalar());
            sorted.update(dest, state.remaining(dest).scalar());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod(s: u32) -> PodKey {
        PodKey::new(0, s, 0)
    }

    fn plan_of(entries: &[(u32, f64)]) -> Vec<PlannedPod> {
        entries
            .iter()
            .map(|&(s, cpu)| PlannedPod::new(pod(s), Resources::cpu(cpu)))
            .collect()
    }

    #[test]
    fn fresh_cluster_best_fit_packs_tightly() {
        let mut state = ClusterState::new([Resources::cpu(10.0), Resources::cpu(4.0)]);
        let plan = plan_of(&[(0, 4.0), (1, 6.0), (2, 4.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert!(out.unplaced.is_empty());
        assert_eq!(out.starts.len(), 3);
        // Best-fit: pod0 (4.0) goes to the 4-CPU node, pods 1+2 fill node 0.
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        assert_eq!(state.remaining(NodeId::new(0)).cpu, 0.0);
        state.check_invariants().unwrap();
    }

    #[test]
    fn running_pods_kept_in_place() {
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(0), Resources::cpu(3.0), NodeId::new(1))
            .unwrap();
        let plan = plan_of(&[(0, 3.0), (1, 2.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        assert_eq!(out.starts.len(), 1);
        assert!(out.deletions.is_empty());
    }

    #[test]
    fn pods_not_in_plan_are_deleted() {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        state
            .assign(pod(7), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 9.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(out.deletions, vec![pod(7)]);
        assert_eq!(state.node_of(pod(7)), None);
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(0)));
    }

    #[test]
    fn migration_frees_a_node() {
        // Node0: 6/10 used by two 3-CPU pods; node1: 8/10 used.
        // An 8-CPU pod fits nowhere, but moving one 3-CPU pod from node0 to
        // node1 leaves node0 with 7... still not 8; moving both leaves 10.
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(3), Resources::cpu(4.0), NodeId::new(1))
            .unwrap();
        let plan = plan_of(&[(1, 3.0), (2, 3.0), (3, 4.0), (0, 8.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert!(out.unplaced.is_empty(), "unplaced: {:?}", out.unplaced);
        // Repack empties node1 (most remaining) by moving pod3 to node0,
        // then places the 8-CPU pod on the freed node1.
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        assert_eq!(
            out.migrations,
            vec![(pod(3), NodeId::new(1), NodeId::new(0))]
        );
        assert!(out.deletions.is_empty());
        state.check_invariants().unwrap();
    }

    #[test]
    fn migration_disabled_falls_through_to_deletion() {
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(3), Resources::cpu(4.0), NodeId::new(1))
            .unwrap();
        let plan = plan_of(&[(0, 8.0), (1, 3.0), (2, 3.0), (3, 4.0)]);
        let cfg = PackingConfig {
            enable_migration: false,
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        // Lowest-priority pod3 is victimized, freeing node1 for the 8-CPU
        // pod; when pod3's own turn comes it is re-placed in the leftover
        // space on node0. The delete + start pair collapses into the one
        // action the agent actually needs: a migration (a running pod is
        // never restarted in place of a move).
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        assert_eq!(state.node_of(pod(3)), Some(NodeId::new(0)));
        assert!(out.deletions.is_empty(), "deletions: {:?}", out.deletions);
        assert_eq!(
            out.migrations,
            vec![(pod(3), NodeId::new(1), NodeId::new(0))]
        );
        assert!(!out.starts.iter().any(|&(p, _)| p == pod(3)));
        state.check_invariants().unwrap();
    }

    #[test]
    fn victim_replaced_on_its_own_node_is_a_keep() {
        // One 12-CPU node running pod5 at 3 CPUs. The plan puts a 10-CPU
        // pod first and shrinks pod5 to 2 CPUs: pod5 is victimized to fit
        // rank 0, then re-placed on the very same node. Net effect for the
        // agent: nothing — no delete, no start, no migration for pod5.
        let mut state = ClusterState::homogeneous(1, Resources::cpu(12.0));
        state
            .assign(pod(5), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 10.0), (5, 2.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(0)));
        assert_eq!(state.node_of(pod(5)), Some(NodeId::new(0)));
        assert!(out.deletions.is_empty(), "deletions: {:?}", out.deletions);
        assert!(out.migrations.is_empty());
        assert_eq!(out.starts, vec![(pod(0), NodeId::new(0))]);
        assert!(out.unplaced.is_empty());
        state.check_invariants().unwrap();
    }

    /// One 10-CPU node running pod5 at 3 CPUs; the plan puts an 8-CPU pod
    /// first and re-books pod5 at `demand`. Rank 0 needs pod5's room, so
    /// the cursor takes pod5 as a victim before its own turn, while its
    /// standing still says "rebook".
    fn rebook_victim(demand: f64) -> (ClusterState, PackOutcome) {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        state
            .assign(pod(5), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 8.0), (5, demand)]);
        let cfg = PackingConfig {
            enable_migration: false,
            rebook_in_place: true,
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        state.check_invariants().unwrap();
        (state, out)
    }

    #[test]
    fn rebook_victim_that_fits_again_is_kept_at_its_new_demand() {
        // pod5 shrinks to 2 CPUs: it fits beside pod0 at its own turn, so
        // the victim delete collapses into a keep.
        let (state, out) = rebook_victim(2.0);
        assert_eq!(out.starts, vec![(pod(0), NodeId::new(0))]);
        assert!(out.deletions.is_empty(), "deletions: {:?}", out.deletions);
        assert!(out.migrations.is_empty() && out.unplaced.is_empty());
        assert_eq!(
            state.placement_of(pod(5)),
            Some((NodeId::new(0), Resources::cpu(2.0)))
        );
    }

    #[test]
    fn rebook_victim_that_no_longer_fits_is_deleted_once() {
        // pod5 grows to 4 CPUs: only 2 are left at its turn. Its position
        // must read as vacant, not as a second rebook of a pod that is
        // already gone.
        let (state, out) = rebook_victim(4.0);
        assert_eq!(out.starts, vec![(pod(0), NodeId::new(0))]);
        assert_eq!(out.deletions, vec![pod(5)]);
        assert_eq!(out.unplaced, vec![pod(5)]);
        assert!(out.migrations.is_empty());
        assert_eq!(state.node_of(pod(5)), None);
    }

    #[test]
    fn starts_and_deletions_never_share_a_pod() {
        // The `migration_disabled_falls_through_to_deletion` shape used to
        // report pod3 in both `deletions` and `starts` — a spurious
        // restart of a running pod. Assert the contract directly.
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(3), Resources::cpu(4.0), NodeId::new(1))
            .unwrap();
        let plan = plan_of(&[(0, 8.0), (1, 3.0), (2, 3.0), (3, 4.0)]);
        for enable_migration in [false, true] {
            let mut s = state.clone();
            let cfg = PackingConfig {
                enable_migration,
                ..PackingConfig::default()
            };
            let out = pack(&mut s, &plan, &cfg);
            for &(p, _) in &out.starts {
                assert!(
                    !out.deletions.contains(&p),
                    "pod {p} reported deleted and started (migration={enable_migration})"
                );
            }
            for &p in &out.deletions {
                assert_eq!(s.node_of(p), None, "deleted pod {p} still assigned");
            }
        }
    }

    #[test]
    fn deletion_respects_rank_order() {
        // One 10-CPU node fully used by two running pods ranked 1 and 2;
        // plan puts a new 6-CPU pod at rank 0.
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(5.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(5.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 6.0), (1, 5.0), (2, 5.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        // Lowest priority (pod2, rank 2) deleted first; that frees 5, still
        // short → pod1 also deleted; pod0 placed; then pod1/pod2 retried:
        // pod1 has 4 left → unplaced... wait, pod1 retried at its own rank
        // with 4 CPU free and 5 demanded → unplaced, pod2 same.
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(0)));
        assert!(out.unplaced.contains(&pod(1)) || out.deletions.contains(&pod(1)));
        assert!(state.node_of(pod(2)).is_none());
        state.check_invariants().unwrap();
    }

    #[test]
    fn victim_started_this_pack_is_not_reported_deleted() {
        // Plan: rank0 big pod arrives *after* rank1 was started? No — plan
        // order is rank order, so a started pod can only be victimized by an
        // *earlier*-ranked pod... which is impossible. But a *surviving*
        // pod placed before the pack can be victimized and then re-placed
        // later. Exercise the bookkeeping: a pod started by this pack is
        // never deleted, so starts/deletions stay disjoint.
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        state
            .assign(pod(5), Resources::cpu(8.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 6.0), (5, 8.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(0)));
        assert!(out.deletions.contains(&pod(5)));
        assert!(out.unplaced.contains(&pod(5)));
        let started: Vec<_> = out.starts.iter().map(|&(p, _)| p).collect();
        assert!(!started.contains(&pod(5)));
        state.check_invariants().unwrap();
    }

    #[test]
    fn strict_mode_aborts() {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(5.0));
        let plan = plan_of(&[(0, 4.0), (1, 4.0), (2, 1.0)]);
        let cfg = PackingConfig {
            strict: true,
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        assert!(out.aborted);
        assert_eq!(out.unplaced, vec![pod(1)]);
        // pod2 never attempted.
        assert_eq!(state.node_of(pod(2)), None);
    }

    #[test]
    fn skip_mode_continues_past_unplaceable() {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(5.0));
        let plan = plan_of(&[(0, 4.0), (1, 4.0), (2, 1.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert!(!out.aborted);
        assert_eq!(out.unplaced, vec![pod(1)]);
        assert_eq!(state.node_of(pod(2)), Some(NodeId::new(0)));
    }

    #[test]
    fn failed_nodes_not_used() {
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state.fail_node(NodeId::new(0));
        let plan = plan_of(&[(0, 6.0), (1, 6.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        assert_eq!(out.unplaced, vec![pod(1)]);
    }

    #[test]
    fn first_fit_and_worst_fit_strategies() {
        let mk = || {
            let mut s = ClusterState::new([Resources::cpu(10.0), Resources::cpu(6.0)]);
            s.assign(pod(9), Resources::cpu(5.0), NodeId::new(0))
                .unwrap();
            s
        };
        let plan = vec![
            PlannedPod::new(pod(9), Resources::cpu(5.0)),
            PlannedPod::new(pod(0), Resources::cpu(3.0)),
        ];
        // Best fit: remaining are node0=5, node1=6 → node0 (5 is tightest ≥3).
        let mut s1 = mk();
        pack(&mut s1, &plan, &PackingConfig::default());
        assert_eq!(s1.node_of(pod(0)), Some(NodeId::new(0)));
        // Worst fit: node1 (6 remaining).
        let mut s2 = mk();
        pack(
            &mut s2,
            &plan,
            &PackingConfig {
                fit: FitStrategy::WorstFit,
                ..PackingConfig::default()
            },
        );
        assert_eq!(s2.node_of(pod(0)), Some(NodeId::new(1)));
        // First fit: node0 (lowest id that fits).
        let mut s3 = mk();
        pack(
            &mut s3,
            &plan,
            &PackingConfig {
                fit: FitStrategy::FirstFit,
                ..PackingConfig::default()
            },
        );
        assert_eq!(s3.node_of(pod(0)), Some(NodeId::new(0)));
    }

    #[test]
    fn pod_limit_forces_spreading() {
        // Two roomy nodes, limit 2 pods each: four 1-CPU pods must split
        // 2+2 even though best-fit would stack all four on one node.
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        let plan = plan_of(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]);
        let cfg = PackingConfig {
            max_pods_per_node: Some(2),
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        assert!(out.unplaced.is_empty());
        assert_eq!(state.pods_on(NodeId::new(0)).len(), 2);
        assert_eq!(state.pods_on(NodeId::new(1)).len(), 2);
        state.check_invariants().unwrap();
    }

    #[test]
    fn pod_limit_binds_before_capacity() {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        let plan = plan_of(&[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let cfg = PackingConfig {
            max_pods_per_node: Some(2),
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        // Capacity allows all three; the count cap strands the lowest rank.
        assert_eq!(out.unplaced, vec![pod(2)]);
        assert_eq!(state.pod_count(), 2);
    }

    #[test]
    fn pod_limit_deletion_fallback_frees_slots() {
        // Node full by count with two low-rank pods; a higher-ranked pod
        // arrives: one victim is deleted to free a slot.
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let cfg = PackingConfig {
            max_pods_per_node: Some(2),
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(0)));
        assert_eq!(state.node_of(pod(1)), Some(NodeId::new(0)));
        assert!(out.deletions.contains(&pod(2)) || out.unplaced.contains(&pod(2)));
        assert_eq!(state.pod_count(), 2);
        state.check_invariants().unwrap();
    }

    #[test]
    fn pod_limit_respected_by_migration_destinations() {
        // Node0 holds two small pods (limit 3); node1 is full by count.
        // An 8-CPU pod needs node0 freed; the small pods cannot move to
        // node1 (count cap) so repack fails and deletion kicks in.
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(3), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        state
            .assign(pod(4), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        state
            .assign(pod(5), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        let plan = plan_of(&[(1, 3.0), (2, 3.0), (3, 1.0), (4, 1.0), (5, 1.0), (0, 8.0)]);
        let cfg = PackingConfig {
            max_pods_per_node: Some(3),
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        // No migration may land on node1 (already at 3 pods).
        for &(_, _, to) in &out.migrations {
            assert_ne!(to, NodeId::new(1));
        }
        for n in [NodeId::new(0), NodeId::new(1)] {
            assert!(state.pods_on(n).len() <= 3);
        }
        state.check_invariants().unwrap();
    }

    /// Snapshot of everything `repack_to_fit` may touch: pod placements
    /// and the `SortedNodes` keys.
    fn snapshot(state: &ClusterState, sorted: &SortedNodes) -> (Vec<(PodKey, NodeId)>, Vec<f64>) {
        let mut pods: Vec<(PodKey, NodeId)> = state.assignments().map(|(p, n, _)| (p, n)).collect();
        pods.sort_unstable();
        let keys = state
            .node_ids()
            .iter()
            .map(|&n| sorted.key(n).unwrap_or(f64::NEG_INFINITY))
            .collect();
        (pods, keys)
    }

    #[test]
    fn repack_rollback_restores_exact_pre_attempt_state() {
        // Node0 full (3×2 CPU of 6); node1 5/6 free with one 1-CPU pod.
        // An incoming 6-CPU demand: candidate node1 cannot be freed (its
        // 1-CPU pod has no destination — node0 is full), candidate node0
        // makes one tentative move (budget 1), still cannot host 6, and
        // must roll back. After the failed attempt every placement and
        // every SortedNodes key must be byte-identical to the snapshot.
        let mut state = ClusterState::new([Resources::cpu(6.0), Resources::cpu(6.0)]);
        for (s, node) in [(1, 0), (2, 0), (3, 0), (4, 1)] {
            let cpu = if s == 4 { 1.0 } else { 2.0 };
            state
                .assign(pod(s), Resources::cpu(cpu), NodeId::new(node as u32))
                .unwrap();
        }
        let mut sorted = healthy_by_remaining(&state);
        let before = snapshot(&state, &sorted);

        let cfg = PackingConfig {
            max_migration_moves: 1,
            ..PackingConfig::default()
        };
        let mut out = PackOutcome::default();
        let target = repack_to_fit(
            &mut state,
            &mut sorted,
            Resources::cpu(6.0),
            &cfg,
            &mut out,
            &mut RepackScratch::default(),
            |_| false,
        );

        assert_eq!(target, None, "no candidate can be freed");
        assert_eq!(snapshot(&state, &sorted), before, "rollback incomplete");
        assert!(out.migrations.is_empty(), "tentative moves leaked");
        assert!(out.deletions.is_empty() && out.starts.is_empty());
        state.check_invariants().unwrap();
    }

    #[test]
    fn repack_success_after_failed_candidate_keeps_bookkeeping_consistent() {
        // Demand 10 with a 1-move budget. Candidate node0 (rem 6, two
        // 3-CPU pods) moves one pod to node2, is still short (rem 9),
        // and rolls back. Candidate node1 (rem 5, one 6-CPU pod) then
        // succeeds by moving its pod into node0's restored 6 CPUs —
        // which only fits if the rollback really restored them. The
        // outcome must record the successful candidate's move only.
        let mut state = ClusterState::new([
            Resources::cpu(12.0),
            Resources::cpu(11.0),
            Resources::cpu(3.0),
        ]);
        state
            .assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(3), Resources::cpu(6.0), NodeId::new(1))
            .unwrap();
        let mut sorted = healthy_by_remaining(&state);
        let cfg = PackingConfig {
            max_migration_moves: 1,
            ..PackingConfig::default()
        };
        let mut out = PackOutcome::default();
        let target = repack_to_fit(
            &mut state,
            &mut sorted,
            Resources::cpu(10.0),
            &cfg,
            &mut out,
            &mut RepackScratch::default(),
            |_| false,
        );
        assert_eq!(target, Some(NodeId::new(1)));
        // Only the successful candidate's move is recorded; node0's
        // tentative move was rolled back and left no trace.
        assert_eq!(
            out.migrations,
            vec![(pod(3), NodeId::new(1), NodeId::new(0))]
        );
        assert!(Resources::cpu(10.0).fits_in(&state.remaining(NodeId::new(1))));
        assert_eq!(state.node_of(pod(1)), Some(NodeId::new(0)));
        assert_eq!(state.node_of(pod(2)), Some(NodeId::new(0)));
        // SortedNodes keys agree with the mutated state on every node.
        for n in state.node_ids() {
            assert_eq!(sorted.key(n), Some(state.remaining(n).scalar()), "{n}");
        }
        state.check_invariants().unwrap();
    }

    #[test]
    fn repack_early_out_spares_a_node_sitting_exactly_on_the_floor() {
        // Node1's remaining CPU is *exactly* the best-fit floor of the two
        // 1-CPU pods on node0 (`1.0 - 1e-9`; the candidate range is
        // inclusive there). pod1 misses — node1 lacks the memory — but
        // the emptiest other node is on the floor, not below it, so the
        // candidate must not be abandoned: pod2 (same CPU, less memory)
        // moves over and frees node0 for the 2-CPU demand.
        let mut state =
            ClusterState::new([Resources::new(3.0, 8.0), Resources::new(1.0 - 1e-9, 2.0)]);
        state
            .assign(pod(1), Resources::new(1.0, 5.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::new(1.0, 1.0), NodeId::new(0))
            .unwrap();
        let mut sorted = healthy_by_remaining(&state);
        let mut out = PackOutcome::default();
        let target = repack_to_fit(
            &mut state,
            &mut sorted,
            Resources::cpu(2.0),
            &PackingConfig::default(),
            &mut out,
            &mut RepackScratch::default(),
            |_| false,
        );
        assert_eq!(target, Some(NodeId::new(0)));
        assert_eq!(
            out.migrations,
            vec![(pod(2), NodeId::new(0), NodeId::new(1))]
        );
        state.check_invariants().unwrap();
    }

    #[test]
    fn sparse_key_spaces_pack_like_dense_ones() {
        // Keys far apart would blow a dense rank table up; `pack` must
        // still treat them as any other plan (and drop the unplanned pod
        // that sits between them).
        let far = PodKey::new(u32::MAX, u32::MAX, u16::MAX);
        let between = PodKey::new(7, 0, 0);
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        state
            .assign(between, Resources::cpu(4.0), NodeId::new(0))
            .unwrap();
        state
            .assign(far, Resources::cpu(4.0), NodeId::new(0))
            .unwrap();
        let plan = vec![
            PlannedPod::new(pod(0), Resources::cpu(6.0)),
            PlannedPod::new(far, Resources::cpu(4.0)),
        ];
        assert!(matches!(PlanRanks::new(&plan), PlanRanks::Sorted(_)));
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(out.deletions, vec![between]);
        assert_eq!(out.starts, vec![(pod(0), NodeId::new(0))]);
        assert_eq!(state.node_of(far), Some(NodeId::new(0)));
        assert!(out.unplaced.is_empty());
    }

    #[test]
    fn dense_ranks_answer_exactly_the_plan() {
        // Out-of-order replicas, gaps between services, several apps.
        let keys = [
            PodKey::new(2, 1, 1),
            PodKey::new(0, 3, 0),
            PodKey::new(2, 1, 0),
            PodKey::new(1, 0, 2),
        ];
        let plan: Vec<PlannedPod> = keys
            .iter()
            .map(|&k| PlannedPod::new(k, Resources::cpu(1.0)))
            .collect();
        let ranks = PlanRanks::new(&plan);
        assert!(matches!(ranks, PlanRanks::Dense { .. }));
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ranks.get(k), Some(i), "{k}");
        }
        for absent in [
            PodKey::new(0, 0, 0), // slot inside the table, never planned
            PodKey::new(1, 0, 1), // replica gap below a planned replica
            PodKey::new(2, 1, 2), // replica past the block
            PodKey::new(0, 4, 0), // service past the app
            PodKey::new(3, 0, 0), // app past the table
        ] {
            assert_eq!(ranks.get(absent), None, "{absent}");
        }
    }

    #[test]
    fn two_dimensional_fit_respected() {
        let mut state = ClusterState::new([
            Resources::new(10.0, 1.0), // plenty of CPU, tiny memory
            Resources::new(4.0, 16.0),
        ]);
        let plan = vec![PlannedPod::new(pod(0), Resources::new(3.0, 8.0))];
        pack(&mut state, &plan, &PackingConfig::default());
        // CPU-sorted best-fit would pick node1 anyway, but ensure the memory
        // dimension rejects node0 even when CPU fits.
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        let plan2 = vec![
            PlannedPod::new(pod(0), Resources::new(3.0, 8.0)),
            PlannedPod::new(pod(1), Resources::new(1.0, 8.0)),
            PlannedPod::new(pod(2), Resources::new(5.0, 0.5)),
        ];
        let mut s2 = ClusterState::new([Resources::new(10.0, 1.0), Resources::new(4.0, 16.0)]);
        let out = pack(&mut s2, &plan2, &PackingConfig::default());
        assert!(out.unplaced.is_empty());
        assert_eq!(s2.node_of(pod(2)), Some(NodeId::new(0)));
        s2.check_invariants().unwrap();
    }
}
