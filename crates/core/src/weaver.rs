//! Code-interface criticality and deploy-time container separation
//! (§3.2, *Support for Flexible Adoption of Tagging*).
//!
//! Not every application is diagonally scalable: "when a single
//! microservice contains both critical and non-critical functionalities"
//! the container is all-or-nothing and Phoenix must keep the whole thing.
//! The paper points at Service-Weaver-style runtimes as the way out —
//! "developers can specify the criticality on the code-interface level
//! which can then be leveraged by the container-runtime policy to
//! separate critical and non-critical containers."
//!
//! This module implements that container-runtime policy. Developers
//! describe their application as a graph of **components** (code units
//! with interface-level criticality annotations and call edges); a
//! [`Colocation`] policy decides how components are packed into
//! containers; [`deploy`] materializes the resulting [`AppSpec`] —
//! derived container tags (a container is as critical as its most
//! critical member), summed demands plus per-container runtime overhead,
//! and cross-container call edges as the dependency graph.
//!
//! [`sheddable_fraction`] measures what the choice buys: the demand share
//! diagonal scaling may reclaim. A monolith strands everything behind one
//! `C1` tag; per-component packing maximizes reclaimable capacity but
//! pays the overhead per component; criticality-tiered packing keeps the
//! reclaimable share of per-component at a fraction of the containers —
//! which is exactly why the paper expects such runtimes to widen
//! Phoenix's applicability.

use std::collections::BTreeMap;
use std::fmt;

use phoenix_cluster::Resources;

use crate::spec::{AppSpec, AppSpecBuilder, ServiceId, SpecError};
use crate::tags::Criticality;

/// Index of a component within a [`ComponentGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u32);

impl ComponentId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comp{}", self.0)
    }
}

/// One code component with its interface-level criticality annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Code-unit name (e.g. `"Checkout"`, `"RecommendationEngine"`).
    pub name: String,
    /// Interface-level criticality annotation.
    pub criticality: Criticality,
    /// Resource demand of the component's share of the binary.
    pub demand: Resources,
}

/// An application as its developers see it: annotated components and the
/// calls between them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentGraph {
    name: String,
    components: Vec<Component>,
    calls: Vec<(ComponentId, ComponentId)>,
}

impl ComponentGraph {
    /// Starts an empty component graph for an app called `name`.
    pub fn new(name: impl Into<String>) -> ComponentGraph {
        ComponentGraph {
            name: name.into(),
            ..ComponentGraph::default()
        }
    }

    /// Adds an annotated component; returns its id.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        criticality: Criticality,
        demand: Resources,
    ) -> ComponentId {
        let id = ComponentId(self.components.len() as u32);
        self.components.push(Component {
            name: name.into(),
            criticality,
            demand,
        });
        id
    }

    /// Declares that `caller` invokes `callee`.
    pub fn add_call(&mut self, caller: ComponentId, callee: ComponentId) -> &mut ComponentGraph {
        self.calls.push((caller, callee));
        self
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when no components were added.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The components, indexed by [`ComponentId`].
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The declared calls, in insertion order (duplicates preserved).
    pub fn calls(&self) -> &[(ComponentId, ComponentId)] {
        &self.calls
    }

    /// Total demand across components (without container overhead).
    pub fn total_demand(&self) -> Resources {
        self.components.iter().map(|c| c.demand).sum()
    }
}

/// How the container runtime packs components into containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Colocation {
    /// Everything in one container — the classic binary. The container
    /// inherits the most critical member's tag, so nothing is sheddable.
    Monolith,
    /// One container per component — maximal diagonal-scaling surface,
    /// maximal per-container overhead.
    PerComponent,
    /// One container per criticality level (the §3.2 proposal): critical
    /// and non-critical code end up in different containers, with the
    /// per-container overhead paid once per level in use.
    #[default]
    ByCriticality,
}

impl Colocation {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Colocation::Monolith => "monolith",
            Colocation::PerComponent => "per-component",
            Colocation::ByCriticality => "by-criticality",
        }
    }
}

/// Result of a deployment: the planner-facing spec plus the
/// container-membership map for tracing decisions back to code.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    /// The spec Phoenix plans over.
    pub spec: AppSpec,
    /// `membership[service] → component ids packed into that container`.
    pub membership: Vec<Vec<ComponentId>>,
}

impl Deployment {
    /// The container a component was packed into.
    pub fn container_of(&self, component: ComponentId) -> Option<ServiceId> {
        self.membership
            .iter()
            .position(|members| members.contains(&component))
            .map(|i| ServiceId::new(i as u32))
    }
}

/// Packs `graph` into containers under `policy` and derives the spec.
///
/// Each container is tagged with its most critical member's level, sized
/// as the sum of member demands plus `overhead_per_container`, and the
/// dependency graph contains an edge per pair of containers with at least
/// one cross-container call (intra-container calls are function calls and
/// vanish).
///
/// # Errors
///
/// Returns [`SpecError::EmptyApp`] for an empty component graph.
///
/// # Examples
///
/// ```
/// use phoenix_core::tags::Criticality;
/// use phoenix_core::weaver::{deploy, sheddable_fraction, Colocation, ComponentGraph};
/// use phoenix_cluster::Resources;
///
/// let mut g = ComponentGraph::new("store");
/// let pay = g.add_component("Pay", Criticality::C1, Resources::cpu(2.0));
/// let rec = g.add_component("Recommend", Criticality::new(5), Resources::cpu(2.0));
/// g.add_call(pay, rec);
///
/// let mono = deploy(&g, Colocation::Monolith, Resources::cpu(0.1))?;
/// let tiered = deploy(&g, Colocation::ByCriticality, Resources::cpu(0.1))?;
/// assert_eq!(sheddable_fraction(&mono.spec), 0.0);   // all-or-nothing
/// assert!(sheddable_fraction(&tiered.spec) > 0.45);  // recommender sheds
/// # Ok::<(), phoenix_core::spec::SpecError>(())
/// ```
pub fn deploy(
    graph: &ComponentGraph,
    policy: Colocation,
    overhead_per_container: Resources,
) -> Result<Deployment, SpecError> {
    if graph.is_empty() {
        return Err(SpecError::EmptyApp(graph.name.clone()));
    }
    // Group components into containers.
    let membership: Vec<Vec<ComponentId>> = match policy {
        Colocation::Monolith => {
            vec![(0..graph.len() as u32).map(ComponentId).collect()]
        }
        Colocation::PerComponent => (0..graph.len() as u32)
            .map(|i| vec![ComponentId(i)])
            .collect(),
        Colocation::ByCriticality => {
            let mut tiers: BTreeMap<Criticality, Vec<ComponentId>> = BTreeMap::new();
            for (i, c) in graph.components.iter().enumerate() {
                tiers
                    .entry(c.criticality)
                    .or_default()
                    .push(ComponentId(i as u32));
            }
            tiers.into_values().collect()
        }
    };

    let mut b = AppSpecBuilder::new(graph.name.clone());
    let mut container_of = vec![ServiceId::new(0); graph.len()];
    for (ci, members) in membership.iter().enumerate() {
        let tag = members
            .iter()
            .map(|&m| graph.components[m.index()].criticality)
            .min()
            .expect("containers are non-empty by construction");
        let demand: Resources = members
            .iter()
            .map(|&m| graph.components[m.index()].demand)
            .sum::<Resources>()
            + overhead_per_container;
        let name = match policy {
            Colocation::PerComponent => graph.components[members[0].index()].name.clone(),
            _ => format!("{}-{}", graph.name, tag.to_string().to_lowercase()),
        };
        let sid = b.add_service(name, demand, Some(tag), 1);
        debug_assert_eq!(sid.index(), ci);
        for &m in members {
            container_of[m.index()] = sid;
        }
    }
    // Cross-container calls become (deduplicated) dependency edges.
    if membership.len() > 1 {
        b.with_graph();
        let mut seen = std::collections::BTreeSet::new();
        for &(x, y) in &graph.calls {
            let (cx, cy) = (container_of[x.index()], container_of[y.index()]);
            if cx != cy && seen.insert((cx, cy)) {
                b.add_dependency(cx, cy);
            }
        }
    }
    Ok(Deployment {
        spec: b.build()?,
        membership,
    })
}

/// Demand share of containers tagged less critical than `C1` — what
/// diagonal scaling may reclaim from this spec in a crunch.
pub fn sheddable_fraction(spec: &AppSpec) -> f64 {
    let total = spec.total_demand().scalar();
    if total <= 0.0 {
        return 0.0;
    }
    let sheddable: f64 = spec
        .service_ids()
        .filter(|&s| spec.criticality_of(s) != Criticality::C1)
        .map(|s| spec.service(s).total_demand().scalar())
        .sum();
    let fraction = sheddable / total;
    // An empty f64 sum is -0.0; report the all-critical case as plain 0.
    if fraction == 0.0 {
        0.0
    } else {
        fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checkout (C1) → {Cart (C1), Recommend (C5)}; Recommend → Trending
    /// (C5); plus a C3 Analytics sink fed by Checkout.
    fn shop() -> ComponentGraph {
        let mut g = ComponentGraph::new("shop");
        let checkout = g.add_component("Checkout", Criticality::C1, Resources::cpu(2.0));
        let cart = g.add_component("Cart", Criticality::C1, Resources::cpu(1.0));
        let rec = g.add_component("Recommend", Criticality::C5, Resources::cpu(2.0));
        let trend = g.add_component("Trending", Criticality::C5, Resources::cpu(1.0));
        let analytics = g.add_component("Analytics", Criticality::C3, Resources::cpu(2.0));
        g.add_call(checkout, cart);
        g.add_call(checkout, rec);
        g.add_call(rec, trend);
        g.add_call(checkout, analytics);
        g
    }

    const OVERHEAD: Resources = Resources {
        cpu: 0.25,
        mem: 0.0,
    };

    #[test]
    fn monolith_is_one_unsheddable_container() {
        let d = deploy(&shop(), Colocation::Monolith, OVERHEAD).unwrap();
        assert_eq!(d.spec.service_count(), 1);
        assert_eq!(d.spec.criticality_of(ServiceId::new(0)), Criticality::C1);
        assert_eq!(sheddable_fraction(&d.spec), 0.0);
        assert_eq!(d.spec.total_demand(), Resources::cpu(8.25));
        assert!(d.spec.dependency().is_none());
    }

    #[test]
    fn per_component_maximizes_sheddable_share() {
        let d = deploy(&shop(), Colocation::PerComponent, OVERHEAD).unwrap();
        assert_eq!(d.spec.service_count(), 5);
        // 3 non-C1 components of 5 CPU + 3 × overhead out of 8 + 5 × overhead.
        let sheddable = sheddable_fraction(&d.spec);
        assert!((sheddable - 5.75 / 9.25).abs() < 1e-9, "{sheddable}");
        // Container names are the component names.
        assert_eq!(d.spec.service(ServiceId::new(0)).name, "Checkout");
        // Call edges survive one-to-one (all calls are cross-container).
        assert_eq!(d.spec.dependency().unwrap().edges().count(), 4);
    }

    #[test]
    fn by_criticality_separates_tiers() {
        let d = deploy(&shop(), Colocation::ByCriticality, OVERHEAD).unwrap();
        // Tiers in use: C1, C3, C5 → three containers, most critical first.
        assert_eq!(d.spec.service_count(), 3);
        let tags: Vec<Criticality> = d
            .spec
            .service_ids()
            .map(|s| d.spec.criticality_of(s))
            .collect();
        assert_eq!(
            tags,
            vec![Criticality::C1, Criticality::C3, Criticality::C5]
        );
        // C1 container: Checkout + Cart + overhead = 3.25.
        assert_eq!(
            d.spec.service(ServiceId::new(0)).demand,
            Resources::cpu(3.25)
        );
        // Same reclaimable demand as per-component, minus the overhead of
        // the containers it avoided.
        let sheddable = sheddable_fraction(&d.spec);
        assert!((sheddable - 5.5 / 8.75).abs() < 1e-9, "{sheddable}");
        // Cross-tier calls dedupe: C1→C5 (checkout→rec), C5→C5 vanishes,
        // C1→C3 remains.
        assert_eq!(d.spec.dependency().unwrap().edges().count(), 2);
    }

    #[test]
    fn sheddable_ordering_matches_the_papers_argument() {
        let g = shop();
        let shed = |p| sheddable_fraction(&deploy(&g, p, OVERHEAD).unwrap().spec);
        let mono = shed(Colocation::Monolith);
        let tiered = shed(Colocation::ByCriticality);
        let per = shed(Colocation::PerComponent);
        // Any separation beats the monolith. Between the two separated
        // forms, per-component reclaims more *absolute* CPU (finer
        // shedding granularity) while tiered wins on *fraction* because it
        // pays container overhead once per tier instead of per component.
        assert!(mono < tiered && mono < per, "{mono} {tiered} {per}");
        let abs = |p| {
            let d = deploy(&g, p, OVERHEAD).unwrap();
            sheddable_fraction(&d.spec) * d.spec.total_demand().scalar()
        };
        assert!(abs(Colocation::PerComponent) >= abs(Colocation::ByCriticality));
        assert!(tiered > per, "tiered amortizes overhead: {tiered} vs {per}");
    }

    #[test]
    fn membership_round_trips() {
        let g = shop();
        for policy in [
            Colocation::Monolith,
            Colocation::PerComponent,
            Colocation::ByCriticality,
        ] {
            let d = deploy(&g, policy, OVERHEAD).unwrap();
            let mut seen = 0;
            for (ci, members) in d.membership.iter().enumerate() {
                for &m in members {
                    assert_eq!(
                        d.container_of(m),
                        Some(ServiceId::new(ci as u32)),
                        "{}",
                        policy.label()
                    );
                    seen += 1;
                }
            }
            assert_eq!(seen, g.len(), "{}", policy.label());
        }
    }

    #[test]
    fn mixed_criticality_component_pins_its_container() {
        // A C1 component packed with C5s drags the whole container to C1 —
        // the exact failure mode §3.2 says code-level separation avoids.
        let mut g = ComponentGraph::new("mixed");
        let a = g.add_component("CriticalBit", Criticality::C1, Resources::cpu(0.1));
        let b = g.add_component("BulkOptional", Criticality::C5, Resources::cpu(9.9));
        g.add_call(a, b);
        let mono = deploy(&g, Colocation::Monolith, Resources::ZERO).unwrap();
        assert_eq!(sheddable_fraction(&mono.spec), 0.0);
        let tiered = deploy(&g, Colocation::ByCriticality, Resources::ZERO).unwrap();
        assert!((sheddable_fraction(&tiered.spec) - 0.99).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = ComponentGraph::new("empty");
        assert!(g.is_empty());
        assert!(matches!(
            deploy(&g, Colocation::Monolith, Resources::ZERO),
            Err(SpecError::EmptyApp(_))
        ));
    }

    #[test]
    fn deployed_specs_plan_end_to_end() {
        use crate::controller::{PhoenixConfig, PhoenixController};
        use crate::spec::Workload;
        use phoenix_cluster::ClusterState;

        let tiered = deploy(&shop(), Colocation::ByCriticality, OVERHEAD).unwrap();
        let controller = PhoenixController::new(
            Workload::new(vec![tiered.spec.clone()]),
            PhoenixConfig::default(),
        );
        // 4 CPUs: only the C1 container (3.25) fits.
        let state = ClusterState::homogeneous(1, Resources::cpu(4.0));
        let plan = controller.plan(&state);
        assert_eq!(plan.target.pod_count(), 1);
        let pod = plan.target.assignments().next().unwrap().0;
        assert_eq!(pod.service, 0, "the C1 tier survives the crunch");
    }
}
