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
#[derive(Debug, Clone, Default)]
struct PodTable {
    /// pod key -> dense id. Fx-hashed: pod keys are dense internal ids
    /// and this map is the packing/diff hot path. The map is only ever
    /// probed (never iterated).
    ids: FxHashMap<PodKey, PodId>,
    /// dense id -> pod key.
    keys: Vec<PodKey>,
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
        let &id = self.table.ids.get(&pod)?;
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
        let &id = self.table.ids.get(&pod)?;
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
        let known = self.table.ids.get(&pod).copied();
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
                let table = Arc::make_mut(&mut self.table);
                let id = table.keys.len() as PodId;
                table.ids.insert(pod, id);
                table.keys.push(pod);
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
        let id = *self
            .table
            .ids
            .get(&pod)
            .ok_or(ClusterError::UnknownPod(pod))?;
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
        let mut ids: Vec<PodId> = pods.iter().map(|p| self.table.ids[p]).collect();
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
        if self.table.keys.len() != self.pods.len() || self.table.ids.len() != self.table.keys.len()
        {
            return Err(format!(
                "pod table holds {} keys / {} ids for {} pod slots",
                self.table.keys.len(),
                self.table.ids.len(),
                self.pods.len(),
            ));
        }
        for (id, Slot { node, .. }) in self.pods.iter().enumerate() {
            let key = self.table.keys[id];
            if self.table.ids.get(&key) != Some(&(id as PodId)) {
                return Err(format!("interned pod {key} lost its id {id}"));
            }
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
}
