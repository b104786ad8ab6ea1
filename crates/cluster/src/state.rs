use crate::fxhash::FxHashMap;
use std::collections::hash_map;
use std::fmt;

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

/// `pod_node` sentinel: the pod is interned but not currently assigned.
const UNASSIGNED: u32 = u32::MAX;

/// One reversible mutation, recorded while a [`Snapshot`] is live.
///
/// Every entry stores the *previous* bit-values of whatever the mutation
/// overwrote, so popping entries in reverse restores the state exactly —
/// no recomputation, no float round trips.
#[derive(Debug, Clone)]
enum Entry {
    /// `assign(pod → node)`: undo pops the node's pod-list tail and
    /// restores the previous `used` / `pod_demand` bits.
    Assign {
        pod: PodId,
        node: u32,
        prev_used: Resources,
        prev_demand: Resources,
    },
    /// `remove(pod)` from `node`: `pos` is where the `swap_remove` hit,
    /// so undo re-inserts at exactly that slot (list order is observable
    /// through LIFO degrade eviction and the `used` recompute fold).
    Remove {
        pod: PodId,
        node: u32,
        demand: Resources,
        pos: u32,
        prev_used: Resources,
    },
    /// `fail_node(node)`: the evicted pod list, in list order, with the
    /// demand bits each pod held at eviction time.
    Fail {
        node: u32,
        pods: Vec<(PodId, Resources)>,
        prev_used: Resources,
    },
    /// `restore_node(node)` that actually flipped health.
    Restore { node: u32 },
    /// `set_degrade(node, …)`: the previous factor (evictions it caused
    /// journal their own [`Entry::Remove`]s).
    Degrade { node: u32, prev: f64 },
}

/// A point-in-time marker returned by [`ClusterState::snapshot`].
///
/// Restoring to it with [`ClusterState::restore_to`] costs
/// O(mutations since the snapshot) and reproduces the state **bit for
/// bit** — same `used` bits, same pod-list order, same iteration order —
/// which is what lets sweep trials, campaign cells, and hunt candidates
/// share one working state instead of deep-cloning per trial.
///
/// Snapshots nest: taking a second snapshot and restoring to it leaves
/// the first one valid. Restoring to an *outer* snapshot invalidates
/// every inner one (they point past the truncated journal); restoring to
/// an invalidated or foreign snapshot panics.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Journal length at snapshot time.
    entries: usize,
    /// Interned-pod count at snapshot time.
    interned: usize,
}

/// The cluster: nodes with capacities, pod assignments, health status.
///
/// This is the state object both the Phoenix scheduler and the baselines
/// mutate. Storage is a struct-of-arrays arena — dense per-node columns
/// keyed by [`NodeId`] plus an interned pod table (`PodKey` → dense pod
/// id, grow-only) — so a [`Clone`] is a handful of flat `memcpy`s and
/// [`snapshot`](ClusterState::snapshot) /
/// [`restore_to`](ClusterState::restore_to) rewind in O(Δ) via an undo
/// journal. The packing module still works on a scratch copy before the
/// agent enforces anything (as §4.2 requires); the trial loops above it
/// (sweeps, campaigns, hunts) restore instead of cloning.
///
/// Cloning resets the journal: a clone starts with no recording and no
/// live snapshots (snapshots never transfer between states).
#[derive(Debug, Default)]
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
    /// the pod columns, with no hashing.
    node_pods: Vec<Vec<PodId>>,
    // ---- interned pod table (indexed by PodId; grow-only) ----
    /// pod key -> dense id. Fx-hashed: pod keys are dense internal ids
    /// and this map is the packing/diff hot path. The map is only ever
    /// probed (never iterated), so tombstones from restore-time
    /// truncation cannot leak into any observable order.
    pod_ids: FxHashMap<PodKey, PodId>,
    pod_keys: Vec<PodKey>,
    /// id -> node index, or [`UNASSIGNED`].
    pod_node: Vec<u32>,
    /// id -> demand bits (meaningful while assigned; preserved bit-exactly
    /// across restore either way).
    pod_demand: Vec<Resources>,
    /// Number of currently assigned pods.
    assigned: usize,
    // ---- mutation journal ----
    /// `Some` once the first snapshot is taken; `None` costs one branch
    /// per mutation and nothing else.
    journal: Option<Vec<Entry>>,
}

impl Clone for ClusterState {
    fn clone(&self) -> ClusterState {
        ClusterState {
            capacity: self.capacity.clone(),
            used: self.used.clone(),
            healthy: self.healthy.clone(),
            degrade: self.degrade.clone(),
            node_pods: self.node_pods.clone(),
            pod_ids: self.pod_ids.clone(),
            pod_keys: self.pod_keys.clone(),
            pod_node: self.pod_node.clone(),
            pod_demand: self.pod_demand.clone(),
            assigned: self.assigned,
            // A clone is a fresh state: no recording, no live snapshots.
            journal: None,
        }
    }
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
            node_pods: vec![Vec::new(); n],
            pod_ids: FxHashMap::default(),
            pod_keys: Vec::new(),
            pod_node: Vec::new(),
            pod_demand: Vec::new(),
            assigned: 0,
            journal: None,
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

    /// Records `entry` when a snapshot is live.
    #[inline]
    fn record(&mut self, entry: Entry) {
        if let Some(journal) = &mut self.journal {
            journal.push(entry);
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
    /// becomes `capacity × factor` (`factor` clamped to `[0, 1]`; `1.0`
    /// restores full capacity). The node keeps serving — this is the gray
    /// failure the stop/start vocabulary cannot express — but pods that no
    /// longer fit are evicted newest-assigned-first until the survivors
    /// fit, and returned with their demands (for restart planning).
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
        self.record(Entry::Degrade {
            node: node.0,
            prev: self.degrade[idx],
        });
        self.degrade[idx] = factor.clamp(0.0, 1.0);
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
            let victim = self.pod_keys[victim as usize];
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
            .map(|&id| self.pod_keys[id as usize])
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
            .map(|&id| (self.pod_keys[id as usize], self.pod_demand[id as usize]))
    }

    /// Where `pod` runs, if assigned.
    #[inline]
    pub fn node_of(&self, pod: PodKey) -> Option<NodeId> {
        let &id = self.pod_ids.get(&pod)?;
        let node = self.pod_node[id as usize];
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
        let &id = self.pod_ids.get(&pod)?;
        let node = self.pod_node[id as usize];
        (node != UNASSIGNED).then(|| (NodeId(node), self.pod_demand[id as usize]))
    }

    /// Iterates `(pod, node, demand)` over all assignments, in the stable
    /// intern order (first time each pod was ever assigned to this state).
    /// The order survives [`restore_to`](ClusterState::restore_to) and is
    /// identical across clones — unlike the hash-map iteration the arena
    /// replaced, it never depends on hasher state or map capacity.
    pub fn assignments(&self) -> impl Iterator<Item = (PodKey, NodeId, Resources)> + '_ {
        (self.pod_node.iter().enumerate())
            .filter(|&(_, &n)| n != UNASSIGNED)
            .map(move |(i, &n)| (self.pod_keys[i], NodeId(n), self.pod_demand[i]))
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
        // intern order.
        let id = match self.pod_ids.entry(pod) {
            hash_map::Entry::Occupied(slot)
                if self.pod_node[*slot.get() as usize] != UNASSIGNED =>
            {
                return Err(ClusterError::AlreadyAssigned(pod));
            }
            _ if !fits => {
                return Err(ClusterError::InsufficientCapacity {
                    node,
                    detail: format!("demand {demand} vs remaining {remaining}"),
                });
            }
            hash_map::Entry::Occupied(slot) => *slot.get(),
            hash_map::Entry::Vacant(slot) => {
                let id = self.pod_keys.len() as PodId;
                slot.insert(id);
                self.pod_keys.push(pod);
                self.pod_node.push(UNASSIGNED);
                self.pod_demand.push(Resources::ZERO);
                id
            }
        };
        self.record(Entry::Assign {
            pod: id,
            node: node.0,
            prev_used: self.used[idx],
            prev_demand: self.pod_demand[id as usize],
        });
        self.used[idx] += demand;
        self.node_pods[idx].push(id);
        self.pod_node[id as usize] = node.0;
        self.pod_demand[id as usize] = demand;
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
            .pod_ids
            .get(&pod)
            .ok_or(ClusterError::UnknownPod(pod))?;
        let node = self.pod_node[id as usize];
        if node == UNASSIGNED {
            return Err(ClusterError::UnknownPod(pod));
        }
        let demand = self.pod_demand[id as usize];
        let idx = node as usize;
        let pos = self.node_pods[idx]
            .iter()
            .position(|&i| i == id)
            .expect("assigned pod is on its node's list");
        self.record(Entry::Remove {
            pod: id,
            node,
            demand,
            pos: pos as u32,
            prev_used: self.used[idx],
        });
        self.node_pods[idx].swap_remove(pos);
        self.pod_node[id as usize] = UNASSIGNED;
        self.assigned -= 1;
        self.used[idx] = self.node_pods[idx]
            .iter()
            .map(|&i| self.pod_demand[i as usize])
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
                self.pod_node[id as usize] = UNASSIGNED;
                (self.pod_keys[id as usize], self.pod_demand[id as usize])
            })
            .collect();
        self.assigned -= evicted.len();
        if self.journal.is_some() {
            let entry = Entry::Fail {
                node: node.0,
                pods: ids
                    .iter()
                    .zip(&evicted)
                    .map(|(&id, &(_, d))| (id, d))
                    .collect(),
                prev_used: self.used[idx],
            };
            self.record(entry);
        }
        self.used[idx] = Resources::ZERO;
        evicted
    }

    /// Restores a failed node to service (empty).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn restore_node(&mut self, node: NodeId) {
        let idx = node.index();
        if !self.healthy[idx] {
            self.record(Entry::Restore { node: node.0 });
            self.healthy[idx] = true;
        }
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

    /// Marks the current state and starts (or continues) journaling.
    ///
    /// Until the first snapshot, mutations cost exactly what they did
    /// before the journal existed (one `Option` branch); from the first
    /// snapshot on, every mutation records the previous bit-values of
    /// what it overwrites so [`restore_to`](ClusterState::restore_to) can
    /// rewind in O(mutations-since-snapshot).
    pub fn snapshot(&mut self) -> Snapshot {
        let journal = self.journal.get_or_insert_with(Vec::new);
        let obs = phoenix_obs::current();
        obs.incr(phoenix_obs::Counter::StateSnapshots);
        obs.gauge_max(phoenix_obs::Counter::JournalDepthMax, journal.len() as u64);
        Snapshot {
            entries: journal.len(),
            interned: self.pod_keys.len(),
        }
    }

    /// Rewinds the state to exactly what it was when `snap` was taken —
    /// bit for bit: same `used` bits, same degrade factors, same pod-list
    /// order, same [`assignments`](ClusterState::assignments) iteration
    /// order ([`bitwise_eq`](ClusterState::bitwise_eq) to a clone taken at
    /// snapshot time). Costs O(mutations since the snapshot).
    ///
    /// `snap` stays valid afterwards: a trial loop snapshots once and
    /// restores per trial. Pods interned after the snapshot are
    /// un-interned (the table tail is truncated), so intern order — and
    /// with it every downstream iteration order — is restored too.
    ///
    /// # Panics
    ///
    /// Panics if `snap` was invalidated by an earlier restore to an
    /// *older* snapshot, or was taken from a different state (detected
    /// when it points past this journal).
    pub fn restore_to(&mut self, snap: &Snapshot) {
        let journal_len = self.journal.as_ref().map_or(0, Vec::len);
        assert!(
            self.journal.is_some()
                && snap.entries <= journal_len
                && snap.interned <= self.pod_keys.len(),
            "restore_to: snapshot is stale or from another state \
             (snapshot at {} entries / {} pods, state has {} / {})",
            snap.entries,
            snap.interned,
            journal_len,
            self.pod_keys.len(),
        );
        let obs = phoenix_obs::current();
        obs.incr(phoenix_obs::Counter::StateRestores);
        obs.add(
            phoenix_obs::Counter::JournalEntriesUndone,
            (journal_len - snap.entries) as u64,
        );
        obs.gauge_max(phoenix_obs::Counter::JournalDepthMax, journal_len as u64);
        // Undo journal entries newest-first.
        while self.journal.as_ref().expect("journal is live").len() > snap.entries {
            let entry = self
                .journal
                .as_mut()
                .expect("journal is live")
                .pop()
                .expect("len > snap.entries");
            self.undo(entry);
        }
        // Un-intern pods first seen after the snapshot. Only the tail is
        // ever removed, so surviving ids — and the iteration order built
        // on them — are untouched. The id map is probe-only (never
        // iterated), so removal tombstones have no observable effect.
        for id in snap.interned..self.pod_keys.len() {
            let key = self.pod_keys[id];
            self.pod_ids.remove(&key);
        }
        self.pod_keys.truncate(snap.interned);
        self.pod_node.truncate(snap.interned);
        self.pod_demand.truncate(snap.interned);
    }

    /// Reverses one journal entry (see [`Entry`] for the per-variant
    /// contracts).
    fn undo(&mut self, entry: Entry) {
        match entry {
            Entry::Assign {
                pod,
                node,
                prev_used,
                prev_demand,
            } => {
                let idx = node as usize;
                let popped = self.node_pods[idx].pop();
                debug_assert_eq!(popped, Some(pod));
                self.pod_node[pod as usize] = UNASSIGNED;
                self.pod_demand[pod as usize] = prev_demand;
                self.used[idx] = prev_used;
                self.assigned -= 1;
            }
            Entry::Remove {
                pod,
                node,
                demand,
                pos,
                prev_used,
            } => {
                let idx = node as usize;
                let pos = pos as usize;
                // Invert the swap_remove: the element that was moved into
                // `pos` goes back to the tail, the removed pod back to
                // `pos` (or the tail, if it *was* the tail).
                let list = &mut self.node_pods[idx];
                if pos == list.len() {
                    list.push(pod);
                } else {
                    let moved = list[pos];
                    list.push(moved);
                    list[pos] = pod;
                }
                self.pod_node[pod as usize] = node;
                self.pod_demand[pod as usize] = demand;
                self.used[idx] = prev_used;
                self.assigned += 1;
            }
            Entry::Fail {
                node,
                pods,
                prev_used,
            } => {
                let idx = node as usize;
                self.healthy[idx] = true;
                self.node_pods[idx] = pods.iter().map(|&(id, _)| id).collect();
                for &(id, demand) in &pods {
                    self.pod_node[id as usize] = node;
                    self.pod_demand[id as usize] = demand;
                }
                self.assigned += pods.len();
                self.used[idx] = prev_used;
            }
            Entry::Restore { node } => {
                self.healthy[node as usize] = false;
            }
            Entry::Degrade { node, prev } => {
                self.degrade[node as usize] = prev;
            }
        }
    }

    /// Bit-exact equality over everything observable: node columns
    /// (capacities, `used` bits, health, degrade bits), pod-list order,
    /// the interned pod table, and assignment demand bits. This is the
    /// equality [`restore_to`](ClusterState::restore_to) promises against
    /// a clone taken at snapshot time, and what the proptests assert.
    /// (The journal itself is not compared — it is bookkeeping, not
    /// state.)
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
            && self.pod_keys == other.pod_keys
            && self.pod_node == other.pod_node
            && self.assigned == other.assigned
            && self
                .pod_demand
                .iter()
                .zip(&other.pod_demand)
                .all(|(a, b)| res_eq(a, b))
    }

    /// Debug invariant check: per-node `used` equals the sum of its pods'
    /// demands **bit-for-bit** (drift-freedom — see [`remove`]), and the
    /// interned pod table agrees with the node pod lists in both
    /// directions.
    ///
    /// [`remove`]: ClusterState::remove
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.capacity.len() {
            for &id in &self.node_pods[i] {
                match self.pod_node.get(id as usize) {
                    Some(&node) if node as usize == i => {}
                    Some(&node) => {
                        return Err(format!(
                            "pod {} on node {i} maps to node {node}",
                            self.pod_keys[id as usize]
                        ));
                    }
                    None => return Err(format!("pod id {id} on node {i} is not interned")),
                }
            }
            let sum: Resources = self.node_pods[i]
                .iter()
                .map(|&id| self.pod_demand[id as usize])
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
        for (id, &node) in self.pod_node.iter().enumerate() {
            let key = self.pod_keys[id];
            if self.pod_ids.get(&key) != Some(&(id as PodId)) {
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

    #[test]
    #[should_panic(expected = "restore_to")]
    fn restoring_an_invalidated_inner_snapshot_panics() {
        let mut c = ClusterState::homogeneous(2, Resources::cpu(8.0));
        let outer = c.snapshot();
        c.assign(pod(0, 0), Resources::cpu(2.0), NodeId::new(0))
            .unwrap();
        let inner = c.snapshot();
        c.fail_node(NodeId::new(1));
        c.restore_to(&outer);
        // `inner` points past the truncated journal: restoring "forward"
        // is a logic error and must fail loudly, not corrupt state.
        c.restore_to(&inner);
    }

    #[test]
    fn clone_resets_journal_and_snapshots_do_not_transfer() {
        let mut c = ClusterState::homogeneous(1, Resources::cpu(4.0));
        let snap = c.snapshot();
        c.assign(pod(0, 0), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        let mut copy = c.clone();
        // The clone has no journal: restoring the original's snapshot in
        // it must panic instead of silently rewinding nothing.
        let panicked = std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| {
            copy.restore_to(&snap);
        }))
        .is_err();
        assert!(panicked, "foreign snapshot must not restore in a clone");
        // The original restores fine.
        c.restore_to(&snap);
        assert_eq!(c.pod_count(), 0);
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
        // would, because restore truncated the intern tail.
        c.assign(pod(1, 0), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        c.assign(pod(5, 0), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        let order: Vec<PodKey> = c.assignments().map(|(p, _, _)| p).collect();
        assert_eq!(order, vec![pod(0, 0), pod(1, 0), pod(5, 0)]);
        c.check_invariants().unwrap();
    }
}
