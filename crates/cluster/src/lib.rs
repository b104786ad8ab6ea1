//! Cluster-state substrate: nodes, pods, capacity accounting, failure
//! injection, and the criticality-aware bin-packing scheduler of the Phoenix
//! paper (Algorithm 2).
//!
//! The reference implementation tracks cluster state in Python dictionaries
//! and a `SortedList`; this crate provides the same capabilities natively:
//!
//! * [`Resources`] — two-dimensional (CPU, memory) capacity vectors,
//! * [`ClusterState`] — node/pod assignment bookkeeping with failure
//!   injection and utilization metrics,
//! * [`SortedNodes`] — an ordered multiset over node remaining capacity
//!   (the `SortedContainers` stand-in) powering O(log n) best-fit queries,
//! * [`packing`] — the three-pronged packing heuristic: best-fit →
//!   repack-by-migration → delete-lower-ranks,
//! * [`default_sched`] — the vanilla Kubernetes scheduler emulation
//!   (spread/least-allocated, no criticality awareness) used as the
//!   `Default` baseline.
//!
//! # Examples
//!
//! ```
//! use phoenix_cluster::{ClusterState, PodKey, Resources};
//!
//! // Four 8-CPU nodes; place one pod, fail its node, watch it evict.
//! let mut state = ClusterState::homogeneous(4, Resources::cpu(8.0));
//! let pod = PodKey::new(0, 0, 0);
//! state.assign(pod, Resources::cpu(3.0), state.node_ids()[0])?;
//! assert_eq!(state.pod_count(), 1);
//! let evicted = state.fail_node(state.node_ids()[0]);
//! assert_eq!(evicted.len(), 1);
//! assert_eq!(state.pod_count(), 0);
//! # Ok::<(), phoenix_cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod default_sched;
mod error;
pub mod failure;
pub mod fxhash;
pub mod packing;
mod resources;
mod sorted;
mod state;

pub use error::ClusterError;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use resources::Resources;
pub use sorted::{OrderedF64, SortedNodes};
pub use state::{ClusterState, NodeId, PodKey, Snapshot};
