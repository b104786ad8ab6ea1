//! Failure scenarios: timed events over a cluster shape.
//!
//! The paper's qualitative run (Fig. 6) stops kubelets on a node subset at
//! `t1` and restarts them 10 minutes later; AdaptLab sweeps failure
//! fractions. A [`Scenario`] captures the cluster shape plus that timed
//! script — and, beyond the paper's stop/start vocabulary, the richer
//! event kinds real degradation is made of: gray capacity loss
//! ([`ScenarioKind::CapacityDegrade`]), flapping nodes
//! ([`ScenarioKind::Flap`]), mid-run load surges
//! ([`ScenarioKind::DemandSurge`]), and correlated zone/rack blast radii
//! ([`Scenario::zone_outage_at`] / [`Scenario::rack_outage_at`]: kubelet
//! stops and starts over the member lists of the same topology seeds as
//! `phoenix_cluster::failure`).

use phoenix_cluster::{NodeId, Resources};

use crate::time::SimTime;

/// What happens to the cluster (or the workload) at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// Kubelet processes stop (node goes dark; pods on it stop serving).
    KubeletStop(Vec<NodeId>),
    /// Kubelets come back (nodes rejoin empty).
    KubeletStart(Vec<NodeId>),
    /// Gray failure: the nodes keep serving but can deliver only
    /// `factor × nominal` capacity from now on (software aging, thermal
    /// throttling). The control plane observes the shrunken allocatable at
    /// its next monitor tick — no heartbeat grace, the kubelet still
    /// reports — evicting overflowing pods and replanning.
    CapacityDegrade {
        /// Affected nodes.
        nodes: Vec<NodeId>,
        /// Effective-capacity factor in `[0, 1]`.
        factor: f64,
    },
    /// Gray-failure recovery: the nodes return to full nominal capacity.
    CapacityRestore {
        /// Affected nodes.
        nodes: Vec<NodeId>,
    },
    /// A flapping node group: stops now, restarts after `down`, stops
    /// again after a further `up`, for `cycles` rounds total. Each
    /// transition is delayed by a jitter drawn uniformly from
    /// `[0, jitter_ms]` out of a dedicated seeded stream, so flap phase
    /// drifts realistically while staying fully reproducible.
    Flap {
        /// Affected nodes.
        nodes: Vec<NodeId>,
        /// Dwell time in the stopped state (before jitter).
        down: SimTime,
        /// Dwell time in the serving state (before jitter).
        up: SimTime,
        /// Number of stop/start rounds (0 = no-op).
        cycles: u32,
        /// Maximum per-transition jitter, in milliseconds.
        jitter_ms: u64,
    },
    /// Mid-run load surge: one application's per-replica demand and/or
    /// replica counts are multiplied from now on (see
    /// `phoenix_core::spec::AppSpec::scaled`). The agent replans at the
    /// next monitor tick.
    DemandSurge {
        /// Target application index.
        app: u32,
        /// Per-replica demand multiplier.
        demand_factor: f64,
        /// Replica-count multiplier (rounded, min 1).
        replica_factor: f64,
    },
}

/// Node ids of zone `zone` under round-robin striping into `zones` zones
/// (the topology seed shared with `phoenix_cluster::failure::fail_zones`).
pub fn zone_members(node_count: usize, zones: u32, zone: u32) -> Vec<u32> {
    let zones = zones.max(1);
    (0..node_count as u32)
        .filter(|id| id % zones == zone % zones)
        .collect()
}

/// Node ids of rack `rack` when `node_count` nodes are split into `racks`
/// contiguous blocks (earlier racks take the remainder).
pub fn rack_members(node_count: usize, racks: u32, rack: u32) -> Vec<u32> {
    let racks = (racks.max(1) as usize).min(node_count.max(1));
    let rack = (rack as usize).min(racks.saturating_sub(1));
    let base = node_count / racks;
    let rem = node_count % racks;
    let start = rack * base + rack.min(rem);
    let len = base + usize::from(rack < rem);
    (start as u32..(start + len) as u32).collect()
}

/// One timed scenario step.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEvent {
    /// When the step fires.
    pub at: SimTime,
    /// What it does.
    pub kind: ScenarioKind,
}

/// Cluster shape + failure script.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Per-node capacities.
    pub node_capacities: Vec<Resources>,
    /// Timed steps, in any order (the simulator sorts them).
    pub events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// A homogeneous cluster with no failures yet.
    pub fn new(nodes: usize, capacity: Resources) -> Scenario {
        Scenario {
            node_capacities: vec![capacity; nodes],
            events: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_capacities.len()
    }

    /// Schedules an arbitrary event.
    pub fn event_at(&mut self, at: SimTime, kind: ScenarioKind) -> &mut Scenario {
        self.events.push(ScenarioEvent { at, kind });
        self
    }

    /// Schedules kubelet stops on `nodes` at `at`.
    pub fn kubelet_stop_at(
        &mut self,
        at: SimTime,
        nodes: impl IntoIterator<Item = u32>,
    ) -> &mut Scenario {
        let kind = ScenarioKind::KubeletStop(nodes.into_iter().map(NodeId::new).collect());
        self.event_at(at, kind)
    }

    /// Schedules kubelet restarts on `nodes` at `at`.
    pub fn kubelet_start_at(
        &mut self,
        at: SimTime,
        nodes: impl IntoIterator<Item = u32>,
    ) -> &mut Scenario {
        let kind = ScenarioKind::KubeletStart(nodes.into_iter().map(NodeId::new).collect());
        self.event_at(at, kind)
    }

    /// Schedules a gray capacity loss: `nodes` drop to `factor × nominal`
    /// capacity at `at`.
    pub fn capacity_degrade_at(
        &mut self,
        at: SimTime,
        nodes: impl IntoIterator<Item = u32>,
        factor: f64,
    ) -> &mut Scenario {
        let kind = ScenarioKind::CapacityDegrade {
            nodes: nodes.into_iter().map(NodeId::new).collect(),
            factor,
        };
        self.event_at(at, kind)
    }

    /// Schedules a gray-failure recovery: `nodes` return to nominal
    /// capacity at `at`.
    pub fn capacity_restore_at(
        &mut self,
        at: SimTime,
        nodes: impl IntoIterator<Item = u32>,
    ) -> &mut Scenario {
        let kind = ScenarioKind::CapacityRestore {
            nodes: nodes.into_iter().map(NodeId::new).collect(),
        };
        self.event_at(at, kind)
    }

    /// Schedules a flapping node group starting at `at`.
    pub fn flap_at(
        &mut self,
        at: SimTime,
        nodes: impl IntoIterator<Item = u32>,
        down: SimTime,
        up: SimTime,
        cycles: u32,
        jitter_ms: u64,
    ) -> &mut Scenario {
        let kind = ScenarioKind::Flap {
            nodes: nodes.into_iter().map(NodeId::new).collect(),
            down,
            up,
            cycles,
            jitter_ms,
        };
        self.event_at(at, kind)
    }

    /// Schedules a demand surge on application `app` at `at`.
    pub fn demand_surge_at(
        &mut self,
        at: SimTime,
        app: u32,
        demand_factor: f64,
        replica_factor: f64,
    ) -> &mut Scenario {
        self.event_at(
            at,
            ScenarioKind::DemandSurge {
                app,
                demand_factor,
                replica_factor,
            },
        )
    }

    /// Schedules a correlated outage of striped zone `zone` of `zones`
    /// at `at` — kubelet stops on its [`zone_members`] — restarting them
    /// at `restore_at` if given.
    pub fn zone_outage_at(
        &mut self,
        at: SimTime,
        zones: u32,
        zone: u32,
        restore_at: Option<SimTime>,
    ) -> &mut Scenario {
        let members = zone_members(self.node_count(), zones, zone);
        self.outage_at(at, members, restore_at)
    }

    /// Schedules a correlated outage of contiguous rack `rack` of `racks`
    /// at `at` — kubelet stops on its [`rack_members`] — restarting them
    /// at `restore_at` if given.
    pub fn rack_outage_at(
        &mut self,
        at: SimTime,
        racks: u32,
        rack: u32,
        restore_at: Option<SimTime>,
    ) -> &mut Scenario {
        let members = rack_members(self.node_count(), racks, rack);
        self.outage_at(at, members, restore_at)
    }

    /// Stops `nodes` at `at`, restarting them at `restore_at` if given.
    fn outage_at(
        &mut self,
        at: SimTime,
        nodes: Vec<u32>,
        restore_at: Option<SimTime>,
    ) -> &mut Scenario {
        self.kubelet_stop_at(at, nodes.iter().copied());
        if let Some(r) = restore_at {
            self.kubelet_start_at(r, nodes);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_events() {
        let mut s = Scenario::new(4, Resources::cpu(8.0));
        s.kubelet_stop_at(SimTime::from_secs(60), [1, 2]);
        s.kubelet_start_at(SimTime::from_secs(600), [1, 2]);
        assert_eq!(s.node_count(), 4);
        assert_eq!(s.events.len(), 2);
        assert!(matches!(s.events[0].kind, ScenarioKind::KubeletStop(ref v) if v.len() == 2));
    }

    #[test]
    fn rich_builders_record_their_kinds() {
        let mut s = Scenario::new(6, Resources::cpu(8.0));
        s.capacity_degrade_at(SimTime::from_secs(100), [0, 1], 0.5);
        s.capacity_restore_at(SimTime::from_secs(900), [0, 1]);
        s.flap_at(
            SimTime::from_secs(50),
            [2],
            SimTime::from_secs(60),
            SimTime::from_secs(120),
            3,
            5000,
        );
        s.demand_surge_at(SimTime::from_secs(400), 0, 1.5, 2.0);
        s.zone_outage_at(SimTime::from_secs(200), 3, 1, Some(SimTime::from_secs(800)));
        s.rack_outage_at(SimTime::from_secs(300), 2, 0, None);
        assert_eq!(s.events.len(), 7);
        assert!(matches!(
            s.events[0].kind,
            ScenarioKind::CapacityDegrade { factor, .. } if factor == 0.5
        ));
        assert!(matches!(
            s.events[2].kind,
            ScenarioKind::Flap {
                cycles: 3,
                jitter_ms: 5000,
                ..
            }
        ));
        // Zone 1 of 3 over 6 nodes is {1, 4}; rack 0 of 2 is {0, 1, 2}.
        let ids = |v: &[u32]| v.iter().copied().map(NodeId::new).collect::<Vec<_>>();
        assert_eq!(s.events[4].kind, ScenarioKind::KubeletStop(ids(&[1, 4])));
        assert_eq!(s.events[5].kind, ScenarioKind::KubeletStart(ids(&[1, 4])));
        assert_eq!(s.events[6].kind, ScenarioKind::KubeletStop(ids(&[0, 1, 2])));
    }

    #[test]
    fn outages_lower_to_stop_start_over_members() {
        let (at, back) = (SimTime::from_secs(300), SimTime::from_secs(900));
        let mut s = Scenario::new(10, Resources::cpu(2.0));
        s.zone_outage_at(at, 3, 2, Some(back));
        s.rack_outage_at(at, 3, 0, Some(back));
        s.zone_outage_at(at, 4, 1, None);
        let mut explicit = Scenario::new(10, Resources::cpu(2.0));
        explicit.kubelet_stop_at(at, zone_members(10, 3, 2));
        explicit.kubelet_start_at(back, zone_members(10, 3, 2));
        explicit.kubelet_stop_at(at, rack_members(10, 3, 0));
        explicit.kubelet_start_at(back, rack_members(10, 3, 0));
        explicit.kubelet_stop_at(at, zone_members(10, 4, 1));
        assert_eq!(s, explicit);
    }

    #[test]
    fn zone_and_rack_membership() {
        assert_eq!(zone_members(10, 3, 0), vec![0, 3, 6, 9]);
        assert_eq!(zone_members(10, 3, 2), vec![2, 5, 8]);
        // Rack split of 10 into 3: sizes 4, 3, 3 — contiguous.
        assert_eq!(rack_members(10, 3, 0), vec![0, 1, 2, 3]);
        assert_eq!(rack_members(10, 3, 1), vec![4, 5, 6]);
        assert_eq!(rack_members(10, 3, 2), vec![7, 8, 9]);
        // Every node lands in exactly one zone and one rack.
        for n in 0..10u32 {
            let z = (0..3)
                .filter(|&z| zone_members(10, 3, z).contains(&n))
                .count();
            let r = (0..3)
                .filter(|&r| rack_members(10, 3, r).contains(&n))
                .count();
            assert_eq!((z, r), (1, 1), "node {n}");
        }
        // Degenerate shapes clamp instead of panicking.
        assert_eq!(rack_members(2, 5, 4), vec![1]);
        assert_eq!(zone_members(4, 1, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn heterogeneous_capacities() {
        let s = Scenario {
            node_capacities: vec![Resources::cpu(16.0), Resources::cpu(4.0)],
            events: Vec::new(),
        };
        assert_eq!(s.node_count(), 2);
        assert_eq!(s.node_capacities[0].cpu, 16.0);
    }
}
