use crate::fxhash::FxHashMap;
use std::fmt;
use std::sync::Arc;

use crate::{ClusterError, Resources};

/// Identifier of a server in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    pub fn new(index: u32) -> NodeId {
        NodeId(index)
    }

    /// Dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identity of one container replica: `(application, microservice, replica)`.
///
/// `app` and `service` are dense indices assigned by the workload layer;
/// `replica` distinguishes horizontal copies (Appendix D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PodKey {
    /// Application index.
    pub app: u32,
    /// Microservice index within the application.
    pub service: u32,
    /// Replica index of the microservice.
    pub replica: u16,
}

impl PodKey {
    /// Creates a pod key.
    pub fn new(app: u32, service: u32, replica: u16) -> PodKey {
        PodKey {
            app,
            service,
            replica,
        }
    }
}

impl fmt::Display for PodKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}/ms{}/r{}", self.app, self.service, self.replica)
    }
}

/// Dense index into the interned pod table (internal).
type PodId = u32;

/// [`Slot::node`] sentinel: the pod is interned but not currently
/// assigned.
const UNASSIGNED: u32 = u32::MAX;

/// Where one interned pod stands.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Node index, or [`UNASSIGNED`].
    node: u32,
    /// Demand bits: meaningful while assigned, preserved bit-exactly
    /// across restore either way.
    demand: Resources,
}

impl Slot {
    /// The slot of a pod that is interned but not assigned, keeping its
    /// demand bits.
    fn unassigned(demand: Resources) -> Slot {
        Slot {
            node: UNASSIGNED,
            demand,
        }
    }
}

/// log2 of [`PAGE`].
const PAGE_BITS: u32 = 8;

/// Pods per page of the per-pod column ([`Paged`]). A boundary clone
/// bumps one refcount per page and a write copies one whole page, so the
/// size trades the clone (fewer, larger pages) against the pages a tick
/// writes (each costs its size in bytes). On the 852k-pod `tick-10k`
/// cluster 256 measured best at 100 writes per tick and 128 at 300; its
/// failure ticks restart ~85 pods per failed node.
const PAGE: usize = 1 << PAGE_BITS;

/// A per-pod column in fixed-size pages, each behind its own `Arc`,
/// shared copy-on-write between a state and its clones (see
/// [`ClusterState`]): a clone costs one refcount per page, and a write
/// copies its page first unless this column holds it alone. Slots past
/// `len` in the last page are filler and never read.
#[derive(Debug)]
struct Paged<T> {
    pages: Vec<Arc<[T; PAGE]>>,
    len: usize,
}

impl<T> Default for Paged<T> {
    fn default() -> Paged<T> {
        Paged {
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Clone for Paged<T> {
    fn clone(&self) -> Paged<T> {
        Paged {
            pages: self.pages.clone(),
            len: self.len,
        }
    }

    /// Reuses this column's page table.
    fn clone_from(&mut self, source: &Paged<T>) {
        self.pages.clone_from(&source.pages);
        self.len = source.len;
    }
}

impl<T: Copy> Paged<T> {
    fn len(&self) -> usize {
        self.len
    }

    /// Appends `value`, opening a page (filled with `value`) when the
    /// last one is full.
    fn push(&mut self, value: T) {
        if self.len.is_multiple_of(PAGE) {
            self.pages.push(Arc::new([value; PAGE]));
            self.len += 1;
        } else {
            self.len += 1;
            self.set(self.len - 1, value);
        }
    }

    /// Writes slot `i`, copying its page first if a clone shares it.
    #[inline]
    fn set(&mut self, i: usize, value: T) {
        debug_assert!(i < self.len, "slot {i} of {}", self.len);
        Arc::make_mut(&mut self.pages[i >> PAGE_BITS])[i & (PAGE - 1)] = value;
    }

    fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self[i])
    }

    /// The column one slice per page, the last cut at `len`.
    fn slices(&self) -> impl Iterator<Item = &[T]> + '_ {
        let pages = self.pages.iter().enumerate();
        pages.map(|(k, page)| &page[..(self.len - k * PAGE).min(PAGE)])
    }

    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.slices().flat_map(|slots| slots.iter().copied())
    }
}

impl<T> std::ops::Index<usize> for Paged<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "slot {i} of {}", self.len);
        &self.pages[i >> PAGE_BITS][i & (PAGE - 1)]
    }
}

/// A gray-failure factor as a node takes it: clamped to `[0, 1]`, with
/// NaN (which `f64::clamp` passes through) read as `0.0`, a node that
/// delivers nothing. A NaN factor would make every capacity test on the
/// node false and leave it failing [`ClusterState::check_invariants`].
pub fn clamp_degrade(factor: f64) -> f64 {
    if factor.is_nan() {
        0.0
    } else {
        factor.clamp(0.0, 1.0)
    }
}

/// A saved state, returned by [`ClusterState::snapshot`]: a clone, so
/// it shares the pod table and every node's pod list copy-on-write.
///
/// [`ClusterState::restore_to`] hands the saved state back **bit for
/// bit** — same `used` bits, same pod-list order, same iteration order —
/// which is what lets sweep trials, campaign cells, and hunt candidates
/// share one working state instead of deep-cloning per trial. A snapshot
/// restores any number of times, in any order, into any state.
#[derive(Debug, Clone)]
pub struct Snapshot(ClusterState);

/// The cluster: nodes with capacities, pod assignments, health status.
///
/// This is the state object both the Phoenix scheduler and the baselines
/// mutate. Storage is a struct-of-arrays arena — dense per-node columns
/// keyed by [`NodeId`] plus an interned pod table (`PodKey` → dense pod
/// id, grow-only). The packing module books onto the state it is handed
/// and records where each pod it touched came from, so the agent's task
/// list (§4.2) needs no pre-pack copy.
///
/// **Copy-on-write.** The interned pod table sits behind one `Arc`, each
/// node's pod list behind its own, and the per-pod column (each pod's
/// node and demand) is cut into fixed-size pages of 256 pods, each page
/// behind its own `Arc`; all of it is shared between a state and its
/// clones. A [`Clone`] copies the node columns and bumps one refcount
/// per list and per page: O(nodes + pods / 256), whatever the pods
/// weigh. The
/// first mutation of a shared part copies that part alone — a node's
/// list when a pod joins or leaves it, a page when one of its pods is
/// booked or unbooked, the table only when a never-seen pod is
/// interned. Neither side of a clone ever sees the other's mutations. A
/// [`snapshot`](ClusterState::snapshot) is such a clone, and
/// [`restore_to`](ClusterState::restore_to) copies it back. The warm pack
/// relies on the sharing the other way round: a node list still shared
/// with the previous round's target is a node nothing moved on.
#[derive(Debug, Clone, Default)]
pub struct ClusterState {
    // ---- node columns (indexed by NodeId) ----
    capacity: Vec<Resources>,
    used: Vec<Resources>,
    healthy: Vec<bool>,
    /// Gray-failure factor in `[0, 1]`: the fraction of nominal capacity
    /// the node can actually deliver (software aging, thermal throttling,
    /// a sick disk). `1.0` = fully healthy capacity.
    degrade: Vec<f64>,
    /// Pods on each node, in assignment order, by interned id: the `used`
    /// recompute and node eviction read keys and demands straight out of
    /// the pod columns, with no hashing. Each list is shared
    /// copy-on-write (see the type docs).
    node_pods: Vec<Arc<Vec<PodId>>>,
    // ---- interned pod table (indexed by PodId; grow-only) ----
    /// Shared copy-on-write (see the type docs).
    table: Arc<PodTable>,
    /// id -> where the pod stands. Paged copy-on-write.
    pods: Paged<Slot>,
    /// Number of currently assigned pods.
    assigned: usize,
}

/// The interned pod table: pod key ↔ dense id, grow-only.
///
/// Pod keys are dense workload indices (see [`PodKey`]), so key → id is a
/// table per app in the dense layout of `packing::PlanIndex`: each
/// service's start into the app's replica cells, and an id per cell. A
/// lookup is three array reads, with no hashing. The tables grow as keys
/// arrive, in any order: a key past an app's services appends to its
/// tables, and a replica past a service's cells inserts cells after
/// that service's. A key whose growth would take the tables past their
/// budget, a small multiple of the interned keys, goes to an overflow map
/// instead, so memory stays O(interned pods) for any key: a hand-built
/// key far outside the key space (such as `u32::MAX`) stays there, and a
/// workload key that arrived while the table was small moves into the
/// tables once the keys double.
#[derive(Debug, Clone, Default)]
struct PodTable {
    /// Per app: its services' replica cells.
    apps: Vec<AppCells>,
    /// The 4-byte words the tables hold: service starts, cells, and
    /// [`AppCells::WORDS`] per app.
    words: usize,
    /// pod key -> dense id, for keys the tables declined. Fx-hashed; only
    /// probed, and drained in id order by [`PodTable::absorb`].
    overflow: FxHashMap<PodKey, PodId>,
    /// The key count at which the next intern retries the overflow.
    retry_at: usize,
    /// dense id -> pod key.
    keys: Vec<PodKey>,
}

/// One app's part of the [`PodTable`].
#[derive(Debug, Clone, Default)]
struct AppCells {
    /// Start of each service's cells in `cells`; `len = services + 1`
    /// once the app has a service, empty before.
    starts: Vec<u32>,
    /// Pod id per replica cell, [`NO_POD`] where none is interned.
    cells: Vec<PodId>,
}

impl AppCells {
    /// Words an app's entry weighs in [`PodTable::words`]: its two `Vec`
    /// headers.
    const WORDS: usize = std::mem::size_of::<AppCells>() / 4;

    /// The cell range of `service`, if the app has it.
    #[inline]
    fn range(&self, service: u32) -> Option<std::ops::Range<usize>> {
        let s = service as usize;
        let end = *self.starts.get(s.checked_add(1)?)? as usize;
        Some(self.starts[s] as usize..end)
    }
}

/// [`AppCells::cells`] entry of a cell no pod is interned at.
const NO_POD: PodId = PodId::MAX;

impl PodTable {
    /// The words the tables may hold with `keys` interned: a small
    /// multiple of the keys, plus slack for the first keys of a table.
    /// Workload keys fit whatever their order: the tables end at one
    /// word per pod, one per service and [`AppCells::WORDS`] per app.
    fn budget(keys: usize) -> usize {
        keys.saturating_mul(16).saturating_add(1 << 16)
    }

    /// The id of `pod`, if interned.
    #[inline]
    fn id(&self, pod: PodKey) -> Option<PodId> {
        let dense = self.apps.get(pod.app as usize).and_then(|app| {
            let cells = app.range(pod.service)?;
            let cell = cells.start + usize::from(pod.replica);
            (cell < cells.end).then(|| app.cells[cell])
        });
        match dense {
            Some(id) if id != NO_POD => Some(id),
            _ if self.overflow.is_empty() => None,
            _ => self.overflow.get(&pod).copied(),
        }
    }

    /// Interns `pod`, which must not be interned yet, and returns its id.
    fn intern(&mut self, pod: PodKey) -> PodId {
        let id = self.keys.len() as PodId;
        self.keys.push(pod);
        if !self.place(pod, id) {
            if self.overflow.is_empty() {
                self.retry_at = 2 * self.keys.len();
            }
            self.overflow.insert(pod, id);
        } else if !self.overflow.is_empty() && self.keys.len() >= self.retry_at {
            self.absorb();
        }
        id
    }

    /// Moves every overflow key the budget now allows into the tables, in
    /// id order, and retries again once the keys double. Keys interned
    /// early in an order that touches many services at once (a workload
    /// packed by decreasing demand) overflow only until the table grows;
    /// a key far outside the key space never leaves.
    fn absorb(&mut self) {
        let mut spilled: Vec<(PodId, PodKey)> =
            self.overflow.drain().map(|(k, id)| (id, k)).collect();
        spilled.sort_unstable();
        for (id, pod) in spilled {
            if !self.place(pod, id) {
                self.overflow.insert(pod, id);
            }
        }
        self.retry_at = 2 * self.keys.len();
    }

    /// Writes `id` into `pod`'s cell, growing the tables to it; `false`
    /// (and nothing grown) when that would pass the budget.
    fn place(&mut self, pod: PodKey, id: PodId) -> bool {
        let (a, s, r) = (
            pod.app as usize,
            pod.service as usize,
            usize::from(pod.replica),
        );
        let empty = AppCells::default();
        let app = self.apps.get(a).unwrap_or(&empty);
        let services = app.starts.len().saturating_sub(1);
        // A new service opens with one cell, the common replica count; a
        // replica past a service's cells at least doubles them, so a
        // service's replicas arriving in order splice O(log) times.
        let (new_starts, new_cells) = match app.range(pod.service) {
            Some(cells) if r < cells.len() => (0, 0),
            Some(cells) => (0, (r + 1).max(2 * cells.len()) - cells.len()),
            None => {
                let services = s + 1 - services;
                (services + usize::from(app.starts.is_empty()), services + r)
            }
        };
        let new_apps = (a + 1).saturating_sub(self.apps.len());
        let growth = new_apps
            .saturating_mul(AppCells::WORDS)
            .saturating_add(new_starts)
            .saturating_add(new_cells);
        let words = self.words.saturating_add(growth);
        if words > PodTable::budget(self.keys.len())
            || app.cells.len() + new_cells >= NO_POD as usize
        {
            return false;
        }
        self.words = words;
        if new_apps > 0 {
            self.apps.resize_with(a + 1, AppCells::default);
        }
        let app = &mut self.apps[a];
        if new_starts > 0 {
            // Services up to `s`, one cell each, then `s`'s extra replicas.
            let mut end = app.starts.last().copied().unwrap_or(0);
            app.starts.resize(app.starts.len().max(1), 0);
            while app.starts.len() < s + 2 {
                end += 1;
                app.starts.push(end);
            }
            *app.starts.last_mut().expect("just pushed") += r as u32;
            app.cells.resize(app.cells.len() + new_cells, NO_POD);
        } else if new_cells > 0 {
            // The service's cells end at `at`: open the new ones there and
            // move every later service's start past them.
            let at = app.starts[s + 1] as usize;
            app.cells
                .splice(at..at, std::iter::repeat_n(NO_POD, new_cells));
            app.starts[s + 1..]
                .iter_mut()
                .for_each(|st| *st += new_cells as u32);
        }
        let start = app.starts[s] as usize;
        app.cells[start + r] = id;
        true
    }

    /// Debug check: every key resolves to its own id, the tables and the
    /// overflow hold each key once, and the tables hold the words counted
    /// and no more than the budget.
    fn check(&self) -> Result<(), String> {
        let mut dense = 0;
        let mut words = 0;
        for app in &self.apps {
            words += AppCells::WORDS + app.starts.len() + app.cells.len();
            if app.starts.windows(2).any(|w| w[0] > w[1])
                || app
                    .starts
                    .last()
                    .is_some_and(|&end| end as usize != app.cells.len())
            {
                return Err("pod table service starts out of order".into());
            }
            dense += app.cells.iter().filter(|&&id| id != NO_POD).count();
        }
        if dense + self.overflow.len() != self.keys.len() {
            return Err(format!(
                "pod table holds {dense} dense and {} overflow ids for {} keys",
                self.overflow.len(),
                self.keys.len()
            ));
        }
        if words != self.words || words > PodTable::budget(self.keys.len()) {
            return Err(format!(
                "pod table holds {words} words, counted {}, budget {}",
                self.words,
                PodTable::budget(self.keys.len())
            ));
        }
        for (id, &key) in self.keys.iter().enumerate() {
            if self.id(key) != Some(id as PodId) {
                return Err(format!("interned pod {key} lost its id {id}"));
            }
        }
        Ok(())
    }
}

/// Handles on a state's shared storage (its pod table and every node's
/// pod list), kept to learn later which nodes a state has mutated since:
/// while the handles are held, any mutation of a list or of the table
/// copies it, so a list still pointer-equal to its handle is unchanged.
#[derive(Debug)]
pub(crate) struct Lineage {
    table: Arc<PodTable>,
    lists: Vec<Arc<Vec<PodId>>>,
}

impl ClusterState {
    /// Creates a cluster from per-node capacities.
    pub fn new(capacities: impl IntoIterator<Item = Resources>) -> ClusterState {
        let capacity: Vec<Resources> = capacities.into_iter().collect();
        let n = capacity.len();
        ClusterState {
            capacity,
            used: vec![Resources::ZERO; n],
            healthy: vec![true; n],
            degrade: vec![1.0; n],
            // One shared empty list: the first assign to a node copies it.
            node_pods: vec![Arc::default(); n],
            table: Arc::default(),
            pods: Paged::default(),
            assigned: 0,
        }
    }

    /// Creates `count` identical nodes.
    pub fn homogeneous(count: usize, capacity: Resources) -> ClusterState {
        ClusterState::new(std::iter::repeat_n(capacity, count))
    }

    /// Capacity the node can actually deliver right now.
    ///
    /// Guarded so the undegraded path returns the nominal capacity
    /// **bit-for-bit** (no `* 1.0` round trip), keeping every pre-existing
    /// trace and `SortedNodes` key exactly what it was before partial
    /// degradation existed.
    fn effective(&self, idx: usize) -> Resources {
        if self.degrade[idx] == 1.0 {
            self.capacity[idx]
        } else {
            self.capacity[idx] * self.degrade[idx]
        }
    }

    /// Number of nodes (healthy or not).
    pub fn node_count(&self) -> usize {
        self.capacity.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.capacity.len() as u32).map(NodeId).collect()
    }

    /// Number of assigned pods.
    pub fn pod_count(&self) -> usize {
        self.assigned
    }

    /// `true` when the node exists and is healthy.
    pub fn is_healthy(&self, node: NodeId) -> bool {
        self.healthy.get(node.index()).copied().unwrap_or(false)
    }

    /// Capacity of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn capacity(&self, node: NodeId) -> Resources {
        self.capacity[node.index()]
    }

    /// Remaining capacity on `node` (zero when failed), measured against
    /// the node's *effective* capacity — a partially degraded node offers
    /// only `capacity × degrade_factor`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn remaining(&self, node: NodeId) -> Resources {
        let idx = node.index();
        if self.healthy[idx] {
            self.effective(idx).saturating_sub(&self.used[idx])
        } else {
            Resources::ZERO
        }
    }

    /// Capacity `node` can actually deliver: nominal scaled by the
    /// gray-failure factor (equal to [`capacity`](ClusterState::capacity)
    /// while undegraded).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn effective_capacity(&self, node: NodeId) -> Resources {
        self.effective(node.index())
    }

    /// The node's gray-failure factor (`1.0` = full nominal capacity).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn degrade_factor(&self, node: NodeId) -> f64 {
        self.degrade[node.index()]
    }

    /// Partially degrades (or restores) `node`: its effective capacity
    /// becomes `capacity × factor` (`factor` clamped by [`clamp_degrade`];
    /// `1.0` restores full capacity). The node keeps serving — this is the
    /// gray failure the stop/start vocabulary cannot express — but pods
    /// that no longer fit are evicted newest-assigned-first until the
    /// survivors fit, and returned with their demands (for restart
    /// planning).
    ///
    /// Degradation is orthogonal to health: failing and restoring a node
    /// does not reset the factor, and degrading a failed (empty) node only
    /// records the factor for when it returns.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn set_degrade(&mut self, node: NodeId, factor: f64) -> Vec<(PodKey, Resources)> {
        let idx = node.index();
        self.degrade[idx] = clamp_degrade(factor);
        let mut evicted = Vec::new();
        loop {
            if self.used[idx].fits_in(&self.effective(idx)) {
                break;
            }
            // Newest assignment first: the eviction mirrors how a shrinking
            // node OOM-kills its most recent arrivals, and popping the pod
            // list tail keeps `remove`'s recomputed `used` bit-identical to
            // the running sum the surviving prefix built.
            let Some(&victim) = self.node_pods[idx].last() else {
                break;
            };
            let victim = self.table.keys[victim as usize];
            let (_, demand) = self.remove(victim).expect("pod on node is assigned");
            evicted.push((victim, demand));
        }
        evicted
    }

    /// Pods currently running on `node`, in assignment order.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn pods_on(&self, node: NodeId) -> impl ExactSizeIterator<Item = PodKey> + '_ {
        self.node_pods[node.index()]
            .iter()
            .map(|&id| self.table.keys[id as usize])
    }

    /// `(pod, demand)` of every pod running on `node`, in
    /// [`pods_on`](ClusterState::pods_on) order.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn pod_demands_on(&self, node: NodeId) -> impl Iterator<Item = (PodKey, Resources)> + '_ {
        self.node_pods[node.index()]
            .iter()
            .map(|&id| (self.table.keys[id as usize], self.pods[id as usize].demand))
    }

    /// Where `pod` runs, if assigned.
    #[inline]
    pub fn node_of(&self, pod: PodKey) -> Option<NodeId> {
        let id = self.table.id(pod)?;
        let node = self.pods[id as usize].node;
        (node != UNASSIGNED).then_some(NodeId(node))
    }

    /// Demand of `pod`, if assigned.
    pub fn demand_of(&self, pod: PodKey) -> Option<Resources> {
        self.placement_of(pod).map(|(_, demand)| demand)
    }

    /// Where `pod` runs and what it books there, if assigned —
    /// [`node_of`](ClusterState::node_of) and
    /// [`demand_of`](ClusterState::demand_of) in one table probe.
    #[inline]
    pub fn placement_of(&self, pod: PodKey) -> Option<(NodeId, Resources)> {
        let id = self.table.id(pod)?;
        let Slot { node, demand } = self.pods[id as usize];
        (node != UNASSIGNED).then_some((NodeId(node), demand))
    }

    /// Iterates `(pod, node, demand)` over all assignments, in the stable
    /// intern order (first time each pod was ever assigned to this state).
    /// The order survives [`restore_to`](ClusterState::restore_to) and is
    /// identical across clones — unlike the hash-map iteration the arena
    /// replaced, it never depends on hasher state or map capacity.
    pub fn assignments(&self) -> impl Iterator<Item = (PodKey, NodeId, Resources)> + '_ {
        let pages = self.pods.slices().enumerate();
        pages.flat_map(move |(k, slots)| {
            let slots = slots.iter().zip(&self.table.keys[k * PAGE..]);
            slots
                .filter(|(slot, _)| slot.node != UNASSIGNED)
                .map(|(slot, &pod)| (pod, NodeId(slot.node), slot.demand))
        })
    }

    /// Assigns `pod` with `demand` onto `node`.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::UnknownNode`] / [`ClusterError::NodeFailed`] for bad
    ///   targets,
    /// * [`ClusterError::AlreadyAssigned`] when the pod is already placed,
    /// * [`ClusterError::InsufficientCapacity`] when it does not fit.
    pub fn assign(
        &mut self,
        pod: PodKey,
        demand: Resources,
        node: NodeId,
    ) -> Result<(), ClusterError> {
        let idx = node.index();
        if idx >= self.capacity.len() {
            return Err(ClusterError::UnknownNode(node));
        }
        if !self.healthy[idx] {
            return Err(ClusterError::NodeFailed(node));
        }
        let remaining = self.effective(idx).saturating_sub(&self.used[idx]);
        let fits = demand.fits_in(&remaining);
        // One probe resolves "already assigned?" and the id. A pod seen
        // for the first time is interned only once the assignment is
        // known to succeed: a failed assign must leave no trace in the
        // intern order. Only interning writes the (shared) table.
        let known = self.table.id(pod);
        if known.is_some_and(|id| self.pods[id as usize].node != UNASSIGNED) {
            return Err(ClusterError::AlreadyAssigned(pod));
        }
        if !fits {
            return Err(ClusterError::InsufficientCapacity {
                node,
                detail: format!("demand {demand} vs remaining {remaining}"),
            });
        }
        let slot = Slot {
            node: node.0,
            demand,
        };
        let id = match known {
            Some(id) => {
                self.pods.set(id as usize, slot);
                id
            }
            None => {
                let id = Arc::make_mut(&mut self.table).intern(pod);
                self.pods.push(slot);
                id
            }
        };
        self.used[idx] += demand;
        Arc::make_mut(&mut self.node_pods[idx]).push(id);
        self.assigned += 1;
        Ok(())
    }

    /// Removes `pod` from the cluster, freeing its capacity.
    ///
    /// `used` is recomputed exactly from the surviving pods rather than
    /// decremented: an incremental `used -= demand` accumulates f64
    /// rounding drift across assign/remove cycles, and drifted
    /// remaining-capacity keys make `SortedNodes` orderings diverge
    /// between states that hold the very same pods (warm replans churn
    /// through thousands of such cycles). Summing in pod-list order
    /// keeps `used` bit-identical to the running sum [`assign`] builds
    /// (an append extends the fold at its tail), so
    /// [`check_invariants`] can demand exact equality.
    ///
    /// [`assign`]: ClusterState::assign
    /// [`check_invariants`]: ClusterState::check_invariants
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownPod`] when the pod is not assigned.
    pub fn remove(&mut self, pod: PodKey) -> Result<(NodeId, Resources), ClusterError> {
        let id = self.table.id(pod).ok_or(ClusterError::UnknownPod(pod))?;
        let Slot { node, demand } = self.pods[id as usize];
        if node == UNASSIGNED {
            return Err(ClusterError::UnknownPod(pod));
        }
        let idx = node as usize;
        let pos = self.node_pods[idx]
            .iter()
            .position(|&i| i == id)
            .expect("assigned pod is on its node's list");
        Arc::make_mut(&mut self.node_pods[idx]).swap_remove(pos);
        self.pods.set(id as usize, Slot::unassigned(demand));
        self.assigned -= 1;
        self.used[idx] = self.node_pods[idx]
            .iter()
            .map(|&i| self.pods[i as usize].demand)
            .sum();
        Ok((NodeId(node), demand))
    }

    /// Moves `pod` to `target`, atomically (no-op on failure).
    ///
    /// # Errors
    ///
    /// Same as [`ClusterState::remove`] + [`ClusterState::assign`].
    pub fn migrate(&mut self, pod: PodKey, target: NodeId) -> Result<(), ClusterError> {
        let (source, demand) = self.remove(pod)?;
        match self.assign(pod, demand, target) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Roll back.
                self.assign(pod, demand, source)
                    .expect("rollback to source node cannot fail");
                Err(e)
            }
        }
    }

    /// Marks `node` failed, evicting and returning its pods (with demands).
    ///
    /// Failing an already-failed node returns an empty list.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<(PodKey, Resources)> {
        let idx = node.index();
        if !self.healthy[idx] {
            return Vec::new();
        }
        self.healthy[idx] = false;
        let ids = std::mem::take(&mut self.node_pods[idx]);
        let evicted: Vec<(PodKey, Resources)> = ids
            .iter()
            .map(|&id| {
                let demand = self.pods[id as usize].demand;
                self.pods.set(id as usize, Slot::unassigned(demand));
                (self.table.keys[id as usize], demand)
            })
            .collect();
        self.assigned -= evicted.len();
        self.used[idx] = Resources::ZERO;
        evicted
    }

    /// Restores a failed node to service (empty).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn restore_node(&mut self, node: NodeId) {
        self.healthy[node.index()] = true;
    }

    /// Ids of healthy nodes.
    pub fn healthy_nodes(&self) -> Vec<NodeId> {
        (0..self.capacity.len() as u32)
            .map(NodeId)
            .filter(|&n| self.healthy[n.index()])
            .collect()
    }

    /// Total *effective* capacity across healthy nodes (partially degraded
    /// nodes contribute only what they can deliver).
    pub fn healthy_capacity(&self) -> Resources {
        (0..self.capacity.len())
            .filter(|&i| self.healthy[i])
            .map(|i| self.effective(i))
            .sum()
    }

    /// Total capacity across all nodes regardless of health.
    pub fn total_capacity(&self) -> Resources {
        self.capacity.iter().copied().sum()
    }

    /// Total resources in use.
    pub fn total_used(&self) -> Resources {
        self.used.iter().copied().sum()
    }

    /// Scalar utilization: used / healthy capacity (0 when no capacity).
    pub fn utilization(&self) -> f64 {
        self.total_used().fraction_of(&self.healthy_capacity())
    }

    /// Saves the current state: a clone, sharing the pod table and every
    /// node's pod list copy-on-write (see the type docs).
    pub fn snapshot(&self) -> Snapshot {
        phoenix_obs::current().incr(phoenix_obs::Counter::StateSnapshots);
        Snapshot(self.clone())
    }

    /// Makes this state exactly `snap`'s — bit for bit: same `used` bits,
    /// same degrade factors, same pod-list order, same intern order and
    /// with it the same [`assignments`](ClusterState::assignments)
    /// iteration order ([`bitwise_eq`](ClusterState::bitwise_eq) to a
    /// clone taken at snapshot time). Any snapshot restores into any
    /// state, any number of times. Costs what a clone costs, O(nodes +
    /// pods / 256), reusing this state's allocations; the table, the node
    /// lists and the pod pages come back as the snapshot's own shared
    /// handles.
    pub fn restore_to(&mut self, snap: &Snapshot) {
        phoenix_obs::current().incr(phoenix_obs::Counter::StateRestores);
        let ClusterState {
            capacity,
            used,
            healthy,
            degrade,
            node_pods,
            table,
            pods,
            assigned,
        } = &snap.0;
        self.capacity.clone_from(capacity);
        self.used.clone_from(used);
        self.healthy.clone_from(healthy);
        self.degrade.clone_from(degrade);
        self.node_pods.clone_from(node_pods);
        self.table.clone_from(table);
        self.pods.clone_from(pods);
        self.assigned = *assigned;
    }

    /// Handles on this state's shared storage (see [`Lineage`]).
    pub(crate) fn lineage(&self) -> Lineage {
        Lineage {
            table: Arc::clone(&self.table),
            lists: self.node_pods.clone(),
        }
    }

    /// The pods of every node whose list is no longer the one `lineage`
    /// holds, from both lists (then and now; a pod may appear twice): a
    /// superset of the pods whose placement or booking changed since
    /// `lineage` was taken. `None` when this state does not share
    /// `lineage`'s pod table: a pod was interned since, a restore brought
    /// back another table, or the state is of another lineage.
    pub(crate) fn moved_since(&self, lineage: &Lineage) -> Option<Vec<PodKey>> {
        if !Arc::ptr_eq(&self.table, &lineage.table) || lineage.lists.len() != self.node_pods.len()
        {
            return None;
        }
        let mut moved = Vec::new();
        for (now, then) in self.node_pods.iter().zip(&lineage.lists) {
            if !Arc::ptr_eq(now, then) {
                let ids = then.iter().chain(now.iter());
                moved.extend(ids.map(|&id| self.table.keys[id as usize]));
            }
        }
        Some(moved)
    }

    /// Sorts interned `pods` into intern order (the order of
    /// [`assignments`](ClusterState::assignments)) and drops repeats.
    ///
    /// # Panics
    ///
    /// Panics if a pod was never interned.
    pub(crate) fn sort_interned(&self, pods: &mut Vec<PodKey>) {
        let id = |p: &PodKey| self.table.id(*p).expect("an interned pod");
        let mut ids: Vec<PodId> = pods.iter().map(id).collect();
        ids.sort_unstable();
        ids.dedup();
        pods.clear();
        pods.extend(ids.iter().map(|&id| self.table.keys[id as usize]));
    }

    /// Bit-exact equality over everything observable: node columns
    /// (capacities, `used` bits, health, degrade bits), pod-list order,
    /// the interned pod table, and assignment demand bits. This is the
    /// equality [`restore_to`](ClusterState::restore_to) promises against
    /// a clone taken at snapshot time, and what the proptests assert.
    pub fn bitwise_eq(&self, other: &ClusterState) -> bool {
        let res_eq = |a: &Resources, b: &Resources| {
            a.cpu.to_bits() == b.cpu.to_bits() && a.mem.to_bits() == b.mem.to_bits()
        };
        self.capacity.len() == other.capacity.len()
            && self
                .capacity
                .iter()
                .zip(&other.capacity)
                .all(|(a, b)| res_eq(a, b))
            && self.used.iter().zip(&other.used).all(|(a, b)| res_eq(a, b))
            && self.healthy == other.healthy
            && self.degrade.len() == other.degrade.len()
            && self
                .degrade
                .iter()
                .zip(&other.degrade)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.node_pods == other.node_pods
            && self.table.keys == other.table.keys
            && self.assigned == other.assigned
            && self.pods.len() == other.pods.len()
            && (self.pods.iter().zip(other.pods.iter()))
                .all(|(a, b)| a.node == b.node && res_eq(&a.demand, &b.demand))
    }

    /// Debug invariant check: per-node `used` equals the sum of its pods'
    /// demands **bit-for-bit** (drift-freedom — see [`remove`]), and the
    /// interned pod table agrees with the node pod lists in both
    /// directions.
    ///
    /// [`remove`]: ClusterState::remove
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.capacity.len() {
            for &id in self.node_pods[i].iter() {
                match self.pods.get(id as usize).map(|slot| slot.node) {
                    Some(node) if node as usize == i => {}
                    Some(node) => {
                        return Err(format!(
                            "pod {} on node {i} maps to node {node}",
                            self.table.keys[id as usize]
                        ));
                    }
                    None => return Err(format!("pod id {id} on node {i} is not interned")),
                }
            }
            let sum: Resources = self.node_pods[i]
                .iter()
                .map(|&id| self.pods[id as usize].demand)
                .sum();
            if sum.cpu.to_bits() != self.used[i].cpu.to_bits()
                || sum.mem.to_bits() != self.used[i].mem.to_bits()
            {
                return Err(format!(
                    "node {i}: used {} drifted from pod sum {sum}",
                    self.used[i]
                ));
            }
            if !self.used[i].fits_in(&self.effective(i)) {
                return Err(format!(
                    "node {i}: overcommitted {} > effective {}",
                    self.used[i],
                    self.effective(i)
                ));
            }
        }
        let mut assigned = 0usize;
        if self.table.keys.len() != self.pods.len() {
            return Err(format!(
                "pod table holds {} keys for {} pod slots",
                self.table.keys.len(),
                self.pods.len(),
            ));
        }
        self.table.check()?;
        for (id, Slot { node, .. }) in self.pods.iter().enumerate() {
            let key = self.table.keys[id];
            if node == UNASSIGNED {
                continue;
            }
            assigned += 1;
            if !self.node_pods[node as usize].contains(&(id as PodId)) {
                return Err(format!(
                    "assignment {key} -> node{node} missing from node list"
                ));
            }
        }
        if assigned != self.assigned {
            return Err(format!(
                "assigned count {} drifted from column scan {assigned}",
                self.assigned
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod(a: u32, s: u32) -> PodKey {
        PodKey::new(a, s, 0)
    }

    #[test]
    fn assign_and_remove_roundtrip() {
        let mut c = ClusterState::homogeneous(2, Resources::cpu(10.0));
        let n0 = NodeId::new(0);
        c.assign(pod(0, 0), Resources::cpu(4.0), n0).unwrap();
        assert_eq!(c.remaining(n0).cpu, 6.0);
        assert_eq!(c.node_of(pod(0, 0)), Some(n0));
        let (node, demand) = c.remove(pod(0, 0)).unwrap();
        assert_eq!(node, n0);
        assert_eq!(demand.cpu, 4.0);
        assert_eq!(c.remaining(n0).cpu, 10.0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn capacity_enforced() {
        let mut c = ClusterState::homogeneous(1, Resources::cpu(5.0));
        let n0 = NodeId::new(0);
        c.assign(pod(0, 0), Resources::cpu(4.0), n0).unwrap();
        let err = c.assign(pod(0, 1), Resources::cpu(2.0), n0).unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientCapacity { .. }));
        // Exactly-fitting demand is allowed.
        c.assign(pod(0, 2), Resources::cpu(1.0), n0).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn double_assign_rejected() {
        let mut c = ClusterState::homogeneous(2, Resources::cpu(5.0));
        c.assign(pod(0, 0), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        let err = c
            .assign(pod(0, 0), Resources::cpu(1.0), NodeId::new(1))
            .unwrap_err();
        assert_eq!(err, ClusterError::AlreadyAssigned(pod(0, 0)));
    }

    #[test]
    fn migrate_moves_capacity() {
        let mut c = ClusterState::homogeneous(2, Resources::cpu(5.0));
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        c.assign(pod(0, 0), Resources::cpu(3.0), n0).unwrap();
        c.migrate(pod(0, 0), n1).unwrap();
        assert_eq!(c.node_of(pod(0, 0)), Some(n1));
        assert_eq!(c.remaining(n0).cpu, 5.0);
        assert_eq!(c.remaining(n1).cpu, 2.0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn migrate_rolls_back_on_failure() {
        let mut c = ClusterState::homogeneous(2, Resources::cpu(5.0));
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        c.assign(pod(0, 0), Resources::cpu(3.0), n0).unwrap();
        c.assign(pod(0, 1), Resources::cpu(4.0), n1).unwrap();
        let err = c.migrate(pod(0, 0), n1).unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientCapacity { .. }));
        assert_eq!(c.node_of(pod(0, 0)), Some(n0));
        c.check_invariants().unwrap();
    }

    #[test]
    fn fail_node_evicts_and_blocks_assign() {
        let mut c = ClusterState::homogeneous(2, Resources::cpu(5.0));
        let n0 = NodeId::new(0);
        c.assign(pod(0, 0), Resources::cpu(2.0), n0).unwrap();
        c.assign(pod(0, 1), Resources::cpu(1.0), n0).unwrap();
        let evicted = c.fail_node(n0);
        assert_eq!(evicted.len(), 2);
        assert_eq!(c.pod_count(), 0);
        assert!(!c.is_healthy(n0));
        assert_eq!(c.remaining(n0), Resources::ZERO);
        assert_eq!(
            c.assign(pod(0, 0), Resources::cpu(1.0), n0),
            Err(ClusterError::NodeFailed(n0))
        );
        // Idempotent failure.
        assert!(c.fail_node(n0).is_empty());
        c.restore_node(n0);
        assert!(c.is_healthy(n0));
        c.assign(pod(0, 0), Resources::cpu(1.0), n0).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn degrade_shrinks_effective_capacity_and_evicts_lifo() {
        let mut c = ClusterState::homogeneous(1, Resources::cpu(10.0));
        let n0 = NodeId::new(0);
        c.assign(pod(0, 0), Resources::cpu(4.0), n0).unwrap();
        c.assign(pod(0, 1), Resources::cpu(3.0), n0).unwrap();
        c.assign(pod(0, 2), Resources::cpu(2.0), n0).unwrap();
        // 60 % capacity: 9 CPUs used vs 6 effective — evict newest first
        // until the survivors fit (pod2, then pod1; pod0 alone fits).
        let evicted = c.set_degrade(n0, 0.6);
        assert_eq!(
            evicted.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            vec![pod(0, 2), pod(0, 1)]
        );
        assert_eq!(c.effective_capacity(n0).cpu, 6.0);
        assert_eq!(c.remaining(n0).cpu, 2.0);
        assert_eq!(c.degrade_factor(n0), 0.6);
        c.check_invariants().unwrap();
        // A demand over the effective (but under the nominal) capacity is
        // rejected.
        let err = c.assign(pod(0, 3), Resources::cpu(5.0), n0).unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientCapacity { .. }));
        // Restoring the factor reopens the nominal capacity bit-for-bit.
        assert!(c.set_degrade(n0, 1.0).is_empty());
        assert_eq!(c.remaining(n0).cpu.to_bits(), 6.0f64.to_bits());
        c.assign(pod(0, 3), Resources::cpu(5.0), n0).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn degrade_is_orthogonal_to_health() {
        let mut c = ClusterState::homogeneous(2, Resources::cpu(8.0));
        let n0 = NodeId::new(0);
        c.assign(pod(0, 0), Resources::cpu(6.0), n0).unwrap();
        c.fail_node(n0);
        // Degrading a failed node evicts nothing (it is already empty)…
        assert!(c.set_degrade(n0, 0.5).is_empty());
        assert_eq!(c.remaining(n0), Resources::ZERO);
        // …and the factor survives restore: the node rejoins at half size.
        c.restore_node(n0);
        assert_eq!(c.effective_capacity(n0).cpu, 4.0);
        assert_eq!(c.healthy_capacity().cpu, 12.0);
        let err = c.assign(pod(0, 0), Resources::cpu(6.0), n0).unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientCapacity { .. }));
        c.assign(pod(0, 0), Resources::cpu(4.0), n0).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn degrade_factor_clamped_and_exact_fit_allowed() {
        let mut c = ClusterState::homogeneous(1, Resources::cpu(8.0));
        let n0 = NodeId::new(0);
        c.set_degrade(n0, 7.0);
        assert_eq!(c.degrade_factor(n0), 1.0);
        c.set_degrade(n0, -3.0);
        assert_eq!(c.degrade_factor(n0), 0.0);
        assert_eq!(c.remaining(n0), Resources::ZERO);
        c.set_degrade(n0, 0.25);
        c.assign(pod(0, 0), Resources::cpu(2.0), n0).unwrap();
        assert_eq!(c.remaining(n0).cpu, 0.0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn nan_degrade_factor_reads_as_zero() {
        let mut c = ClusterState::homogeneous(2, Resources::cpu(8.0));
        let n0 = NodeId::new(0);
        c.assign(pod(0, 0), Resources::cpu(2.0), n0).unwrap();
        let evicted = c.set_degrade(n0, f64::NAN);
        assert_eq!(evicted.len(), 1);
        assert_eq!(c.degrade_factor(n0).to_bits(), 0.0f64.to_bits());
        assert_eq!(c.remaining(n0), Resources::ZERO);
        c.check_invariants().unwrap();
    }

    #[test]
    fn capacity_metrics() {
        let mut c = ClusterState::new([Resources::cpu(10.0), Resources::cpu(6.0)]);
        c.assign(pod(0, 0), Resources::cpu(8.0), NodeId::new(0))
            .unwrap();
        assert_eq!(c.total_capacity().cpu, 16.0);
        assert_eq!(c.healthy_capacity().cpu, 16.0);
        assert!((c.utilization() - 0.5).abs() < 1e-9);
        c.fail_node(NodeId::new(0));
        assert_eq!(c.healthy_capacity().cpu, 6.0);
        assert_eq!(c.utilization(), 0.0);
        assert_eq!(c.healthy_nodes(), vec![NodeId::new(1)]);
    }

    #[test]
    fn snapshot_restore_is_bit_exact_across_all_mutations() {
        let mut c = ClusterState::homogeneous(3, Resources::cpu(10.0));
        c.assign(pod(0, 0), Resources::cpu(4.0), NodeId::new(0))
            .unwrap();
        c.assign(pod(0, 1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        c.assign(pod(1, 0), Resources::cpu(5.0), NodeId::new(1))
            .unwrap();
        c.set_degrade(NodeId::new(2), 0.5);
        let before = c.clone();
        let snap = c.snapshot();

        // Every mutation class: assign (new + re-interned), remove,
        // migrate (incl. a failed one), fail, restore, degrade w/ eviction.
        c.remove(pod(0, 1)).unwrap();
        c.assign(pod(0, 1), Resources::cpu(1.0), NodeId::new(2))
            .unwrap();
        c.assign(pod(2, 0), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        c.migrate(pod(0, 0), NodeId::new(1)).unwrap();
        assert!(c.migrate(pod(1, 0), NodeId::new(2)).is_err());
        c.set_degrade(NodeId::new(0), 0.2);
        c.fail_node(NodeId::new(1));
        c.restore_node(NodeId::new(1));
        c.fail_node(NodeId::new(1));
        c.check_invariants().unwrap();
        assert!(!c.bitwise_eq(&before));

        c.restore_to(&snap);
        assert!(c.bitwise_eq(&before), "restore must be bit-exact");
        c.check_invariants().unwrap();

        // The snapshot stays valid: mutate and restore again.
        c.fail_node(NodeId::new(0));
        c.restore_to(&snap);
        assert!(c.bitwise_eq(&before));

        // Restored state behaves identically going forward.
        assert_eq!(c.node_of(pod(0, 1)), Some(NodeId::new(0)));
        assert_eq!(c.demand_of(pod(0, 1)).unwrap().cpu, 3.0);
        assert_eq!(c.node_of(pod(2, 0)), None);
        let evicted = c.set_degrade(NodeId::new(0), 0.5);
        assert_eq!(
            evicted.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            vec![pod(0, 1)]
        );
    }

    #[test]
    fn nested_snapshots_restore_in_lifo_order() {
        let mut c = ClusterState::homogeneous(2, Resources::cpu(8.0));
        c.assign(pod(0, 0), Resources::cpu(2.0), NodeId::new(0))
            .unwrap();
        let outer_state = c.clone();
        let outer = c.snapshot();
        c.assign(pod(0, 1), Resources::cpu(2.0), NodeId::new(1))
            .unwrap();
        let inner_state = c.clone();
        let inner = c.snapshot();
        c.fail_node(NodeId::new(0));
        c.restore_to(&inner);
        assert!(c.bitwise_eq(&inner_state));
        // The outer snapshot is still valid after the inner restore.
        c.restore_to(&outer);
        assert!(c.bitwise_eq(&outer_state));
    }

    /// `snapshot_props` walks the page edges at this size.
    #[test]
    fn pod_pages_are_the_size_snapshot_props_walks() {
        assert_eq!(PAGE, 256);
    }

    #[test]
    fn one_assign_after_a_clone_copies_only_its_own_page() {
        let mut c = ClusterState::homogeneous(4, Resources::cpu(1e6));
        for s in 0..(3 * PAGE + 1) as u32 {
            c.assign(pod(0, s), Resources::cpu(1.0), NodeId::new(s % 4))
                .unwrap();
        }
        // Free a pod in the second page, then clone.
        c.remove(pod(0, PAGE as u32 + 5)).unwrap();
        let shared = |a: &ClusterState, b: &ClusterState| {
            let pages = a.pods.pages.iter().zip(&b.pods.pages);
            pages.map(|(x, y)| Arc::ptr_eq(x, y)).collect::<Vec<_>>()
        };
        let mut copy = c.clone();
        assert_eq!(shared(&c, &copy), vec![true; 4]);
        // Re-booking a known pod copies its page alone.
        copy.assign(pod(0, PAGE as u32 + 5), Resources::cpu(2.0), NodeId::new(0))
            .unwrap();
        assert_eq!(shared(&c, &copy), vec![true, false, true, true]);
        // A never-seen pod lands in the last page, which the clone copies.
        let mut copy = c.clone();
        copy.assign(pod(1, 0), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        assert_eq!(shared(&c, &copy), vec![true, true, true, false]);
        assert_eq!(c.node_of(pod(1, 0)), None);
        copy.check_invariants().unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn restore_rewinds_intern_order_for_identical_iteration() {
        let mut c = ClusterState::homogeneous(2, Resources::cpu(8.0));
        c.assign(pod(0, 0), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        let snap = c.snapshot();
        // Intern two fresh pods after the snapshot, in this order…
        c.assign(pod(5, 0), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        c.assign(pod(1, 0), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        c.restore_to(&snap);
        // …then re-intern them in the *opposite* order: iteration must
        // follow the new first-assignment order, exactly as a fresh state
        // would, because restore handed back the snapshot's table.
        c.assign(pod(1, 0), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        c.assign(pod(5, 0), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        let order: Vec<PodKey> = c.assignments().map(|(p, _, _)| p).collect();
        assert_eq!(order, vec![pod(0, 0), pod(1, 0), pod(5, 0)]);
        c.check_invariants().unwrap();
    }

    /// One operation of the pod-table differential, on state 0 or 1.
    #[derive(Debug, Clone)]
    enum TableOp {
        Assign(usize, PodKey, u32),
        Remove(usize, PodKey),
        /// State `1 - i` becomes a clone of state `i`.
        Clone(usize),
        /// State `1 - i` is `clone_from` state `i`.
        CloneFrom(usize),
    }

    /// The reference model of one state's pod table: the hash map the
    /// dense tables replaced, the intern order and the placements.
    #[derive(Debug, Clone, Default)]
    struct TableModel {
        ids: FxHashMap<PodKey, PodId>,
        keys: Vec<PodKey>,
        nodes: FxHashMap<PodKey, u32>,
    }

    /// Keys from a small dense key space, and adversarial ones: `u32::MAX`
    /// apps and services, far-apart apps and services, the last replica.
    fn arb_key() -> impl proptest::strategy::Strategy<Value = PodKey> {
        use proptest::prelude::*;
        const FAR: [u32; 5] = [u32::MAX, u32::MAX - 1, 1 << 20, 70_000, 3_000_000];
        const REPLICAS: [u16; 4] = [0, 1, 300, u16::MAX];
        let draw = (
            0u8..8,
            (0u32..5, 0u32..7, 0u16..3),
            (0usize..5, 0usize..4, 0u32..3),
        );
        draw.prop_map(|(kind, (a, s, r), (far, replica, near))| match kind {
            0..6 => PodKey::new(a, s, r),
            6 => PodKey::new(FAR[far], near, REPLICAS[replica]),
            _ => PodKey::new(near, FAR[far], REPLICAS[replica]),
        })
    }

    fn arb_op() -> impl proptest::strategy::Strategy<Value = TableOp> {
        use proptest::prelude::*;
        (0u8..13, 0usize..2, arb_key(), 0u32..3).prop_map(|(kind, i, key, node)| match kind {
            0..8 => TableOp::Assign(i, key, node),
            8..11 => TableOp::Remove(i, key),
            11 => TableOp::Clone(i),
            _ => TableOp::CloneFrom(i),
        })
    }

    /// `state` agrees with `model`: every key's id and node, the intern
    /// order, `assignments()` in intern order, the table's size bound and
    /// the invariants.
    fn agrees(state: &ClusterState, model: &TableModel) -> Result<(), String> {
        let table = &state.table;
        if table.keys != model.keys {
            return Err("intern order differs".into());
        }
        for (&key, &id) in &model.ids {
            if table.id(key) != Some(id) {
                return Err(format!("{key}: id {:?}, model {id}", table.id(key)));
            }
            if state.node_of(key).map(|n| n.0) != model.nodes.get(&key).copied() {
                return Err(format!("{key}: placement differs"));
            }
        }
        let assigned: Vec<PodKey> = state.assignments().map(|(p, _, _)| p).collect();
        let want: Vec<PodKey> = (model.keys.iter().copied())
            .filter(|k| model.nodes.contains_key(k))
            .collect();
        if assigned != want {
            return Err("assignments() differs".into());
        }
        if table.words > PodTable::budget(table.keys.len()) {
            return Err(format!(
                "{} words for {} keys",
                table.words,
                table.keys.len()
            ));
        }
        state.check_invariants()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The dense pod table answers as the hash map it replaced, under
        /// interleaved assigns, removes, clones and `clone_from`s of two
        /// states, for dense and adversarial keys; its words stay within
        /// the budget.
        #[test]
        fn dense_pod_table_matches_a_hash_map_model(
            ops in proptest::collection::vec(arb_op(), 1..60),
        ) {
            let fresh = || ClusterState::homogeneous(3, Resources::cpu(1e9));
            let mut states = [fresh(), fresh()];
            let mut models = [TableModel::default(), TableModel::default()];
            for op in ops {
                match op {
                    TableOp::Assign(i, key, node) => {
                        let ok = states[i].assign(key, Resources::cpu(1.0), NodeId(node)).is_ok();
                        let model = &mut models[i];
                        proptest::prop_assert_eq!(ok, !model.nodes.contains_key(&key));
                        if ok {
                            if !model.ids.contains_key(&key) {
                                model.ids.insert(key, model.keys.len() as PodId);
                                model.keys.push(key);
                            }
                            model.nodes.insert(key, node);
                        }
                    }
                    TableOp::Remove(i, key) => {
                        let ok = states[i].remove(key).is_ok();
                        proptest::prop_assert_eq!(ok, models[i].nodes.remove(&key).is_some());
                    }
                    TableOp::Clone(i) => {
                        states[1 - i] = states[i].clone();
                        models[1 - i] = models[i].clone();
                    }
                    TableOp::CloneFrom(i) => {
                        let [a, b] = &mut states;
                        let (from, to) = if i == 0 { (&*a, b) } else { (&*b, a) };
                        to.clone_from(from);
                        models[1 - i] = models[i].clone();
                    }
                }
                for (state, model) in states.iter().zip(&models) {
                    agrees(state, model).unwrap();
                }
            }
        }
    }

    #[test]
    fn far_keys_take_no_dense_room() {
        let mut c = ClusterState::homogeneous(1, Resources::cpu(8.0));
        let far = [
            PodKey::new(u32::MAX, u32::MAX, u16::MAX),
            PodKey::new(u32::MAX, 0, 0),
            PodKey::new(0, u32::MAX, 0),
        ];
        for key in far {
            c.assign(key, Resources::cpu(1.0), NodeId::new(0)).unwrap();
        }
        assert_eq!(c.table.overflow.len(), far.len());
        assert!(c.table.words <= PodTable::budget(far.len()));
        c.assign(pod(2, 3), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        assert_eq!(c.table.overflow.len(), far.len(), "a dense key is dense");
        c.check_invariants().unwrap();
    }
}
