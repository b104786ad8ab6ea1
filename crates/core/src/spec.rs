//! Application specifications: microservices, criticality tags, dependency
//! graphs, and the multi-tenant [`Workload`] the controller plans over.
//!
//! A spec is the paper's "standardized format" input to the planner:
//! container-level resource requirements + criticality tags (+ optionally a
//! dependency graph), with **no application business logic** — the
//! cooperative-degradation interface of §3.

use std::error::Error;
use std::fmt;

use phoenix_cluster::{PodKey, Resources};
use phoenix_dgraph::{DiGraph, NodeId};

use crate::tags::Criticality;

/// Index of an application within a [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub(crate) u32);

impl AppId {
    /// Creates an app id from a dense index.
    pub fn new(index: u32) -> AppId {
        AppId(index)
    }

    /// Dense index of the app.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// Index of a microservice within its application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(pub(crate) u32);

impl ServiceId {
    /// Creates a service id from a dense index.
    pub fn new(index: u32) -> ServiceId {
        ServiceId(index)
    }

    /// Dense index of the service within its app.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ms{}", self.0)
    }
}

/// A discrete serving mode — the cooperative-degradation lattice an
/// application can declare per service, ordered from best to most degraded.
///
/// `Full` is mandatory for every mode table; the degraded rungs are the
/// production patterns the paper's cooperation story names: serve from a
/// stale cache, fall back to read-only, or shed all but a trickle of
/// traffic. A service without a mode table is implicitly `Full`-only and
/// plans exactly as before modes existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServingMode {
    /// Normal serving at full capacity and utility.
    Full,
    /// Serve cached (possibly stale) responses; writes still accepted.
    StaleCache,
    /// Reject writes, keep reads up.
    ReadOnly,
    /// Shed almost all traffic; keep a health-check trickle alive.
    Shed,
}

impl ServingMode {
    /// All modes, best first.
    pub const ALL: [ServingMode; 4] = [
        ServingMode::Full,
        ServingMode::StaleCache,
        ServingMode::ReadOnly,
        ServingMode::Shed,
    ];

    /// Depth in the degradation lattice: `Full` is 0, `Shed` is 3.
    /// "Tightening capacity never *upgrades* a replica" is "depth never
    /// decreases" in these terms.
    pub fn depth(self) -> u8 {
        match self {
            ServingMode::Full => 0,
            ServingMode::StaleCache => 1,
            ServingMode::ReadOnly => 2,
            ServingMode::Shed => 3,
        }
    }

    /// Stable kebab-case label (scorecards, JSON plans).
    pub fn label(self) -> &'static str {
        match self {
            ServingMode::Full => "full",
            ServingMode::StaleCache => "stale-cache",
            ServingMode::ReadOnly => "read-only",
            ServingMode::Shed => "shed",
        }
    }
}

impl fmt::Display for ServingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One rung of a service's mode table: what running at `mode` costs and
/// what fraction of the service's value it still delivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeSpec {
    /// The serving mode this rung describes.
    pub mode: ServingMode,
    /// Per-replica resource demand at this mode.
    pub demand: Resources,
    /// Utility weight in `[0, ∞)` — the served value per replica relative
    /// to the service's full value (`Full` is conventionally `1.0`).
    pub utility: f64,
}

impl ModeSpec {
    /// Creates a mode rung.
    pub fn new(mode: ServingMode, demand: Resources, utility: f64) -> ModeSpec {
        ModeSpec {
            mode,
            demand,
            utility,
        }
    }
}

/// One microservice of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Human-readable name (e.g. `"spell-check"`).
    pub name: String,
    /// Per-replica resource demand (from the deployment spec, §7).
    pub demand: Resources,
    /// Criticality tag; `None` means untagged → treated as `C1`.
    pub criticality: Option<Criticality>,
    /// Number of replicas (Appendix D); all-or-nothing activation.
    pub replicas: u16,
    /// Ordered degraded-serving table (best mode first, `Full` mandatory,
    /// demand monotonically non-increasing). Empty means the service is
    /// `Full`-only and plans exactly as it did before modes existed.
    pub modes: Vec<ModeSpec>,
}

impl ServiceSpec {
    /// Effective criticality: the tag, or `C1` when untagged (§5).
    pub fn effective_criticality(&self) -> Criticality {
        self.criticality.unwrap_or_default()
    }

    /// Total demand across replicas.
    pub fn total_demand(&self) -> Resources {
        self.demand * f64::from(self.replicas)
    }

    /// `true` when the service declared a degraded-serving table.
    pub fn has_modes(&self) -> bool {
        !self.modes.is_empty()
    }

    /// Per-replica demand at `mode`: the table rung when declared,
    /// otherwise the service's plain demand (so `Full` and mode-less
    /// lookups are bit-identical to the pre-modes planner).
    pub fn mode_demand(&self, mode: ServingMode) -> Resources {
        self.modes
            .iter()
            .find(|m| m.mode == mode)
            .map_or(self.demand, |m| m.demand)
    }

    /// Per-replica utility weight at `mode` (`1.0` when undeclared).
    pub fn mode_utility(&self, mode: ServingMode) -> f64 {
        self.modes
            .iter()
            .find(|m| m.mode == mode)
            .map_or(1.0, |m| m.utility)
    }
}

/// Errors from building or validating application specs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpecError {
    /// The app has no services.
    EmptyApp(String),
    /// A dependency edge referenced an unknown service.
    UnknownService {
        /// App being built.
        app: String,
        /// Offending index.
        index: usize,
    },
    /// A dependency edge was a self-loop.
    SelfDependency {
        /// App being built.
        app: String,
        /// The service that would depend on itself.
        index: usize,
    },
    /// A replica count of zero.
    ZeroReplicas {
        /// App being built.
        app: String,
        /// The service with zero replicas.
        service: String,
    },
    /// A mode table that does not start at `Full` in strictly descending
    /// lattice order (covers duplicate mode entries).
    ModeTableOrder {
        /// App being built.
        app: String,
        /// The service with the malformed table.
        service: String,
    },
    /// A per-mode demand or utility weight that is non-finite or negative.
    ModeValueInvalid {
        /// App being built.
        app: String,
        /// The service with the bad rung.
        service: String,
        /// The offending mode.
        mode: ServingMode,
    },
    /// A mode whose demand exceeds the next better mode's demand
    /// (demand must be monotonically non-increasing from `Full`).
    ModeDemandNotMonotone {
        /// App being built.
        app: String,
        /// The service with the non-monotone table.
        service: String,
        /// The rung that grew.
        mode: ServingMode,
    },
    /// A `Full` table rung whose demand disagrees with the service's
    /// declared demand — the two would make the planner ambiguous.
    ModeFullMismatch {
        /// App being built.
        app: String,
        /// The service with the conflicting rung.
        service: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyApp(a) => write!(f, "app {a} has no services"),
            SpecError::UnknownService { app, index } => {
                write!(
                    f,
                    "app {app}: dependency references unknown service {index}"
                )
            }
            SpecError::SelfDependency { app, index } => {
                write!(f, "app {app}: service {index} cannot depend on itself")
            }
            SpecError::ZeroReplicas { app, service } => {
                write!(f, "app {app}: service {service} has zero replicas")
            }
            SpecError::ModeTableOrder { app, service } => {
                write!(
                    f,
                    "app {app}: service {service} mode table must start at Full \
                     and descend the lattice strictly (no duplicates)"
                )
            }
            SpecError::ModeValueInvalid { app, service, mode } => {
                write!(
                    f,
                    "app {app}: service {service} mode {mode} has a non-finite \
                     or negative demand/utility"
                )
            }
            SpecError::ModeDemandNotMonotone { app, service, mode } => {
                write!(
                    f,
                    "app {app}: service {service} mode {mode} demands more than \
                     a better mode (demand must not increase down the lattice)"
                )
            }
            SpecError::ModeFullMismatch { app, service } => {
                write!(
                    f,
                    "app {app}: service {service} Full mode rung disagrees with \
                     the declared service demand"
                )
            }
        }
    }
}

impl Error for SpecError {}

/// A complete application: services, optional dependency graph, and the
/// operator-facing pricing/subscription knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    name: String,
    services: Vec<ServiceSpec>,
    /// Caller→callee edges over service indices; `None` when the app did
    /// not share a dependency graph (planning falls back to tag order).
    dependency: Option<DiGraph<()>>,
    /// Revenue per unit resource (the Cost objective's `C_i`).
    price_per_unit: f64,
    /// Whether the app subscribed to diagonal scaling (`phoenix=enabled`
    /// namespace label, §5). Unsubscribed apps are fully critical.
    phoenix_enabled: bool,
}

impl AppSpec {
    /// App name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The services, indexed by [`ServiceId`].
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// Number of services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Spec of one service.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    pub fn service(&self, id: ServiceId) -> &ServiceSpec {
        &self.services[id.index()]
    }

    /// All service ids.
    pub fn service_ids(&self) -> impl ExactSizeIterator<Item = ServiceId> {
        (0..self.services.len() as u32).map(ServiceId)
    }

    /// The dependency graph, when provided.
    pub fn dependency(&self) -> Option<&DiGraph<()>> {
        self.dependency.as_ref()
    }

    /// Revenue per unit resource.
    pub fn price_per_unit(&self) -> f64 {
        self.price_per_unit
    }

    /// Whether the app subscribed to diagonal scaling.
    pub fn phoenix_enabled(&self) -> bool {
        self.phoenix_enabled
    }

    /// Effective criticality of a service, accounting for subscription:
    /// services of unsubscribed apps are always `C1` (never shed early).
    pub fn criticality_of(&self, id: ServiceId) -> Criticality {
        if self.phoenix_enabled {
            self.services[id.index()].effective_criticality()
        } else {
            Criticality::C1
        }
    }

    /// Total demand of the whole app (all services × replicas).
    pub fn total_demand(&self) -> Resources {
        self.services.iter().map(ServiceSpec::total_demand).sum()
    }

    /// `true` when any service declared a degraded-serving table.
    pub fn has_modes(&self) -> bool {
        self.services.iter().any(ServiceSpec::has_modes)
    }

    /// A cheap structural fingerprint of everything the planner reads:
    /// name, services (name, demand bits, tag, replicas), dependency
    /// edges, price, and the subscription flag.
    ///
    /// Two specs with equal fingerprints rank identically, so warm
    /// replanning uses this to skip [`crate::planner::app_rank`] for
    /// unchanged applications across rounds. FNV-1a over the raw field
    /// bytes: one linear pass, no allocation.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.name.as_bytes());
        h.u64(self.services.len() as u64);
        for s in &self.services {
            h.bytes(s.name.as_bytes());
            h.u64(s.demand.cpu.to_bits());
            h.u64(s.demand.mem.to_bits());
            h.u64(match s.criticality {
                Some(c) => 1 + u64::from(c.level()),
                None => 0,
            });
            h.u64(u64::from(s.replicas));
            h.u64(s.modes.len() as u64);
            for m in &s.modes {
                h.u64(u64::from(m.mode.depth()));
                h.u64(m.demand.cpu.to_bits());
                h.u64(m.demand.mem.to_bits());
                h.u64(m.utility.to_bits());
            }
        }
        match &self.dependency {
            None => h.u64(0),
            Some(g) => {
                h.u64(1 + g.node_count() as u64);
                for n in g.node_ids() {
                    h.u64(g.successors(n).len() as u64);
                    for m in g.successors(n) {
                        h.u64(m.index() as u64);
                    }
                }
            }
        }
        h.u64(self.price_per_unit.to_bits());
        h.u64(u64::from(self.phoenix_enabled));
        h.finish()
    }

    /// A copy of the spec with every service's per-replica demand scaled
    /// by `demand_factor` and its replica count scaled by `replica_factor`
    /// (rounded to the nearest count, clamped to at least one replica).
    ///
    /// This is the mid-run demand-surge primitive: a load spike multiplies
    /// resource needs and/or horizontal width without touching names,
    /// tags, dependencies, pricing, or subscription. A factor of exactly
    /// `1.0` leaves its axis **bit-identical** (the field is not
    /// re-multiplied), so a no-op surge cannot perturb a plan.
    pub fn scaled(&self, demand_factor: f64, replica_factor: f64) -> AppSpec {
        let mut app = self.clone();
        for s in &mut app.services {
            if demand_factor != 1.0 {
                s.demand = s.demand * demand_factor.max(0.0);
                // Scale the mode rungs by the same factor: a non-negative
                // multiplier preserves the table's monotonicity invariant.
                for m in &mut s.modes {
                    m.demand = m.demand * demand_factor.max(0.0);
                }
            }
            if replica_factor != 1.0 {
                let scaled = (f64::from(s.replicas) * replica_factor.max(0.0)).round();
                s.replicas = scaled.clamp(1.0, f64::from(u16::MAX)) as u16;
            }
        }
        app
    }

    /// Demand of the subset of services at criticality `c` or more critical.
    pub fn demand_at_criticality(&self, c: Criticality) -> Resources {
        self.service_ids()
            .filter(|&s| self.criticality_of(s).is_at_least_as_critical_as(c))
            .map(|s| self.services[s.index()].total_demand())
            .sum()
    }
}

/// FNV-1a, the classic non-cryptographic byte hash. A collision between
/// a spec's old and new contents would silently reuse a stale cached
/// rank (warm ≠ cold), so the 64-bit width is load-bearing: over
/// structured, non-adversarial spec bytes the chance is negligible, and
/// speed beats cryptographic strength.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length terminator so ("ab","c") and ("a","bc") differ.
        self.u64(bytes.len() as u64);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builder for [`AppSpec`] (non-consuming, per the Rust API guidelines).
///
/// # Examples
///
/// ```
/// use phoenix_core::spec::AppSpecBuilder;
/// use phoenix_core::tags::Criticality;
/// use phoenix_cluster::Resources;
///
/// let mut b = AppSpecBuilder::new("shop");
/// let web = b.add_service("web", Resources::cpu(2.0), Some(Criticality::C1), 2);
/// let rec = b.add_service("recommend", Resources::cpu(1.0), Some(Criticality::C5), 1);
/// b.add_dependency(web, rec);
/// b.price_per_unit(3.0);
/// let app = b.build()?;
/// assert_eq!(app.service_count(), 2);
/// assert_eq!(app.total_demand(), Resources::cpu(5.0));
/// # Ok::<(), phoenix_core::spec::SpecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AppSpecBuilder {
    name: String,
    services: Vec<ServiceSpec>,
    edges: Vec<(usize, usize)>,
    has_graph: bool,
    price_per_unit: f64,
    phoenix_enabled: bool,
}

impl AppSpecBuilder {
    /// Starts a builder for an app called `name`.
    pub fn new(name: impl Into<String>) -> AppSpecBuilder {
        AppSpecBuilder {
            name: name.into(),
            services: Vec::new(),
            edges: Vec::new(),
            has_graph: false,
            price_per_unit: 1.0,
            phoenix_enabled: true,
        }
    }

    /// Adds a microservice; returns its id.
    pub fn add_service(
        &mut self,
        name: impl Into<String>,
        demand: Resources,
        criticality: Option<Criticality>,
        replicas: u16,
    ) -> ServiceId {
        let id = ServiceId(self.services.len() as u32);
        self.services.push(ServiceSpec {
            name: name.into(),
            demand,
            criticality,
            replicas,
            modes: Vec::new(),
        });
        id
    }

    /// Declares `service`'s degraded-serving table (best mode first;
    /// validated by [`build`](Self::build): `Full` mandatory and matching
    /// the declared demand, strictly descending lattice order, finite
    /// non-negative values, demand monotonically non-increasing).
    ///
    /// # Panics
    ///
    /// Panics if `service` was not returned by this builder's
    /// [`add_service`](Self::add_service).
    pub fn service_modes(
        &mut self,
        service: ServiceId,
        modes: Vec<ModeSpec>,
    ) -> &mut AppSpecBuilder {
        self.services[service.index()].modes = modes;
        self
    }

    /// Declares that `caller` invokes `callee` (adds a DG edge). Calling
    /// this at least once marks the app as having a dependency graph.
    pub fn add_dependency(&mut self, caller: ServiceId, callee: ServiceId) -> &mut AppSpecBuilder {
        self.edges.push((caller.index(), callee.index()));
        self.has_graph = true;
        self
    }

    /// Marks the app as having a dependency graph even with no edges yet
    /// (single-service apps with DGs).
    pub fn with_graph(&mut self) -> &mut AppSpecBuilder {
        self.has_graph = true;
        self
    }

    /// Sets the revenue per unit resource (default 1.0).
    pub fn price_per_unit(&mut self, price: f64) -> &mut AppSpecBuilder {
        self.price_per_unit = price;
        self
    }

    /// Sets the diagonal-scaling subscription (default `true`).
    pub fn phoenix_enabled(&mut self, enabled: bool) -> &mut AppSpecBuilder {
        self.phoenix_enabled = enabled;
        self
    }

    /// Finalizes the spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the app is empty, a replica count is zero,
    /// or a dependency references a missing/self service.
    pub fn build(&self) -> Result<AppSpec, SpecError> {
        if self.services.is_empty() {
            return Err(SpecError::EmptyApp(self.name.clone()));
        }
        for s in &self.services {
            if s.replicas == 0 {
                return Err(SpecError::ZeroReplicas {
                    app: self.name.clone(),
                    service: s.name.clone(),
                });
            }
            self.validate_modes(s)?;
        }
        let dependency = if self.has_graph {
            let mut g = DiGraph::with_capacity(self.services.len());
            for _ in &self.services {
                g.add_node(());
            }
            for &(a, b) in &self.edges {
                if a >= self.services.len() || b >= self.services.len() {
                    return Err(SpecError::UnknownService {
                        app: self.name.clone(),
                        index: a.max(b),
                    });
                }
                if a == b {
                    return Err(SpecError::SelfDependency {
                        app: self.name.clone(),
                        index: a,
                    });
                }
                let _ = g.add_edge(NodeId::from_index(a), NodeId::from_index(b));
            }
            Some(g)
        } else {
            None
        };
        Ok(AppSpec {
            name: self.name.clone(),
            services: self.services.clone(),
            dependency,
            price_per_unit: self.price_per_unit,
            phoenix_enabled: self.phoenix_enabled,
        })
    }

    /// Mode-table validation (satellite of the serving-modes refactor):
    /// the table is either absent or a well-formed descending ladder the
    /// planner can step down without re-checking anything.
    fn validate_modes(&self, s: &ServiceSpec) -> Result<(), SpecError> {
        if s.modes.is_empty() {
            return Ok(());
        }
        let bad_number = |r: &ModeSpec| {
            !r.demand.cpu.is_finite()
                || !r.demand.mem.is_finite()
                || !r.utility.is_finite()
                || r.demand.cpu < 0.0
                || r.demand.mem < 0.0
                || r.utility < 0.0
        };
        for r in &s.modes {
            if bad_number(r) {
                return Err(SpecError::ModeValueInvalid {
                    app: self.name.clone(),
                    service: s.name.clone(),
                    mode: r.mode,
                });
            }
        }
        if s.modes[0].mode != ServingMode::Full {
            return Err(SpecError::ModeTableOrder {
                app: self.name.clone(),
                service: s.name.clone(),
            });
        }
        if s.modes[0].demand != s.demand {
            return Err(SpecError::ModeFullMismatch {
                app: self.name.clone(),
                service: s.name.clone(),
            });
        }
        for pair in s.modes.windows(2) {
            // Strictly descending lattice order also rejects duplicates.
            if pair[1].mode.depth() <= pair[0].mode.depth() {
                return Err(SpecError::ModeTableOrder {
                    app: self.name.clone(),
                    service: s.name.clone(),
                });
            }
            if pair[1].demand.cpu > pair[0].demand.cpu || pair[1].demand.mem > pair[0].demand.mem {
                return Err(SpecError::ModeDemandNotMonotone {
                    app: self.name.clone(),
                    service: s.name.clone(),
                    mode: pair[1].mode,
                });
            }
        }
        Ok(())
    }
}

/// The multi-tenant workload: all applications sharing the cluster.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    apps: Vec<AppSpec>,
}

impl Workload {
    /// Creates a workload from app specs (ids assigned by position).
    pub fn new(apps: Vec<AppSpec>) -> Workload {
        Workload { apps }
    }

    /// Number of applications.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// One app.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    pub fn app(&self, id: AppId) -> &AppSpec {
        &self.apps[id.index()]
    }

    /// Iterates `(id, app)` pairs.
    pub fn apps(&self) -> impl ExactSizeIterator<Item = (AppId, &AppSpec)> {
        self.apps
            .iter()
            .enumerate()
            .map(|(i, a)| (AppId(i as u32), a))
    }

    /// Adds an app, returning its id.
    pub fn push(&mut self, app: AppSpec) -> AppId {
        let id = AppId(self.apps.len() as u32);
        self.apps.push(app);
        id
    }

    /// The pod keys of one service's replicas.
    pub fn pod_keys(&self, app: AppId, service: ServiceId) -> Vec<PodKey> {
        let replicas = self.app(app).service(service).replicas;
        (0..replicas)
            .map(|r| PodKey::new(app.0, service.0, r))
            .collect()
    }

    /// Looks up the spec behind a pod key, when valid.
    pub fn service_of_pod(&self, pod: PodKey) -> Option<(&AppSpec, &ServiceSpec)> {
        let app = self.apps.get(pod.app as usize)?;
        let svc = app.services.get(pod.service as usize)?;
        (pod.replica < svc.replicas).then_some((app, svc))
    }

    /// Total demand across all apps.
    pub fn total_demand(&self) -> Resources {
        self.apps.iter().map(AppSpec::total_demand).sum()
    }

    /// Replaces `app` with a scaled copy (see [`AppSpec::scaled`]) — the
    /// in-place form the simulator's demand-surge events use.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    pub fn scale_app(&mut self, app: AppId, demand_factor: f64, replica_factor: f64) {
        self.apps[app.index()] = self.apps[app.index()].scaled(demand_factor, replica_factor);
    }

    /// `true` when any app declared degraded-serving tables. Gates every
    /// mode-aware planner path, so mode-less workloads run the exact
    /// pre-modes code.
    pub fn has_modes(&self) -> bool {
        self.apps.iter().any(AppSpec::has_modes)
    }
}

/// The planner's chosen serving mode per `(app, service)` — the mode half
/// of a plan, next to the placement half ([`ActionPlan`]).
///
/// Unset slots read as [`ServingMode::Full`], so the empty assignment is
/// the correct answer for every mode-less plan.
///
/// [`ActionPlan`]: crate::actions::ActionPlan
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModeAssignment {
    per_app: Vec<Vec<ServingMode>>,
}

impl ModeAssignment {
    /// The all-`Full` assignment (what mode-less planning produces).
    pub fn empty() -> ModeAssignment {
        ModeAssignment::default()
    }

    /// Shapes an all-`Full` assignment for `workload`.
    pub fn for_workload(workload: &Workload) -> ModeAssignment {
        ModeAssignment {
            per_app: workload
                .apps()
                .map(|(_, a)| vec![ServingMode::Full; a.service_count()])
                .collect(),
        }
    }

    /// Sets one service's chosen mode.
    ///
    /// # Panics
    ///
    /// Panics if the slot was not shaped by
    /// [`for_workload`](Self::for_workload).
    pub fn set(&mut self, app: AppId, service: ServiceId, mode: ServingMode) {
        self.per_app[app.index()][service.index()] = mode;
    }

    /// One service's chosen mode (`Full` when never set).
    pub fn get(&self, app: AppId, service: ServiceId) -> ServingMode {
        self.per_app
            .get(app.index())
            .and_then(|svcs| svcs.get(service.index()))
            .copied()
            .unwrap_or(ServingMode::Full)
    }

    /// The chosen mode of a pod's service (`Full` when never set).
    pub fn mode_of_pod(&self, pod: PodKey) -> ServingMode {
        self.get(AppId(pod.app), ServiceId(pod.service))
    }

    /// `true` when every slot is `Full` — i.e. the assignment carries no
    /// information beyond the default.
    pub fn is_all_full(&self) -> bool {
        self.per_app
            .iter()
            .all(|svcs| svcs.iter().all(|&m| m == ServingMode::Full))
    }
}

impl FromIterator<AppSpec> for Workload {
    fn from_iter<T: IntoIterator<Item = AppSpec>>(iter: T) -> Workload {
        Workload {
            apps: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_service_app() -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let a = b.add_service("a", Resources::cpu(2.0), Some(Criticality::C1), 1);
        let c = b.add_service("c", Resources::cpu(1.0), Some(Criticality::C5), 2);
        b.add_dependency(a, c);
        b.build().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let app = two_service_app();
        assert_eq!(app.service_count(), 2);
        assert_eq!(app.total_demand(), Resources::cpu(4.0));
        assert!(app.dependency().is_some());
        assert_eq!(app.dependency().unwrap().edge_count(), 1);
        assert_eq!(app.criticality_of(ServiceId(1)), Criticality::C5);
    }

    #[test]
    fn untagged_defaults_to_c1() {
        let mut b = AppSpecBuilder::new("u");
        b.add_service("s", Resources::cpu(1.0), None, 1);
        let app = b.build().unwrap();
        assert_eq!(app.criticality_of(ServiceId(0)), Criticality::C1);
    }

    #[test]
    fn unsubscribed_apps_fully_critical() {
        let mut b = AppSpecBuilder::new("legacy");
        b.add_service("s", Resources::cpu(1.0), Some(Criticality::new(9)), 1);
        b.phoenix_enabled(false);
        let app = b.build().unwrap();
        assert_eq!(app.criticality_of(ServiceId(0)), Criticality::C1);
    }

    #[test]
    fn demand_at_criticality_filters() {
        let app = two_service_app();
        assert_eq!(
            app.demand_at_criticality(Criticality::C1),
            Resources::cpu(2.0)
        );
        assert_eq!(
            app.demand_at_criticality(Criticality::C5),
            Resources::cpu(4.0)
        );
    }

    #[test]
    fn build_errors() {
        assert_eq!(
            AppSpecBuilder::new("e").build(),
            Err(SpecError::EmptyApp("e".into()))
        );

        let mut b = AppSpecBuilder::new("z");
        b.add_service("s", Resources::cpu(1.0), None, 0);
        assert!(matches!(b.build(), Err(SpecError::ZeroReplicas { .. })));

        let mut b = AppSpecBuilder::new("self");
        let s = b.add_service("s", Resources::cpu(1.0), None, 1);
        b.add_dependency(s, s);
        assert!(matches!(b.build(), Err(SpecError::SelfDependency { .. })));
    }

    #[test]
    fn scaled_app_multiplies_demand_and_replicas() {
        let app = two_service_app();
        let surged = app.scaled(1.5, 2.0);
        assert_eq!(surged.services()[0].demand, Resources::cpu(3.0));
        assert_eq!(surged.services()[0].replicas, 2);
        assert_eq!(surged.services()[1].replicas, 4);
        // Tags, edges, and pricing survive untouched.
        assert_eq!(surged.criticality_of(ServiceId(1)), Criticality::C5);
        assert_eq!(surged.dependency().unwrap().edge_count(), 1);
        assert_eq!(surged.price_per_unit(), app.price_per_unit());
        // Identity factors are bit-exact no-ops; the fingerprint agrees.
        let same = app.scaled(1.0, 1.0);
        assert_eq!(same, app);
        assert_eq!(same.fingerprint(), app.fingerprint());
        // Replica scaling never drops below one.
        let shrunk = app.scaled(1.0, 0.01);
        assert!(shrunk.services().iter().all(|s| s.replicas == 1));
    }

    #[test]
    fn workload_scale_app_targets_one_app() {
        let mut w = Workload::new(vec![two_service_app(), two_service_app()]);
        w.scale_app(AppId(1), 2.0, 1.0);
        assert_eq!(w.app(AppId(0)).total_demand(), Resources::cpu(4.0));
        assert_eq!(w.app(AppId(1)).total_demand(), Resources::cpu(8.0));
    }

    #[test]
    fn workload_pod_keys_and_lookup() {
        let w = Workload::new(vec![two_service_app()]);
        let keys = w.pod_keys(AppId(0), ServiceId(1));
        assert_eq!(keys.len(), 2);
        assert!(w.service_of_pod(keys[1]).is_some());
        assert!(w.service_of_pod(PodKey::new(0, 1, 5)).is_none());
        assert!(w.service_of_pod(PodKey::new(9, 0, 0)).is_none());
        assert_eq!(w.total_demand(), Resources::cpu(4.0));
    }

    fn full_ladder() -> Vec<ModeSpec> {
        vec![
            ModeSpec::new(ServingMode::Full, Resources::cpu(4.0), 1.0),
            ModeSpec::new(ServingMode::StaleCache, Resources::cpu(3.0), 0.8),
            ModeSpec::new(ServingMode::ReadOnly, Resources::cpu(2.0), 0.5),
            ModeSpec::new(ServingMode::Shed, Resources::cpu(0.5), 0.05),
        ]
    }

    fn modal_build(modes: Vec<ModeSpec>) -> Result<AppSpec, SpecError> {
        let mut b = AppSpecBuilder::new("m");
        let s = b.add_service("fe", Resources::cpu(4.0), Some(Criticality::C1), 2);
        b.service_modes(s, modes);
        b.build()
    }

    #[test]
    fn mode_table_builds_and_is_queryable() {
        let app = modal_build(full_ladder()).unwrap();
        let svc = &app.services()[0];
        assert!(svc.has_modes() && app.has_modes());
        assert_eq!(svc.mode_demand(ServingMode::ReadOnly), Resources::cpu(2.0));
        assert_eq!(svc.mode_utility(ServingMode::Shed), 0.05);
        // A mode-less service answers every mode query with its plain
        // demand and unit utility.
        let plain = two_service_app();
        assert_eq!(
            plain.services()[0].mode_demand(ServingMode::Shed),
            Resources::cpu(2.0)
        );
        assert_eq!(plain.services()[0].mode_utility(ServingMode::ReadOnly), 1.0);
        // The table is part of the structural identity.
        let modeless = modal_build(Vec::new()).unwrap();
        assert_ne!(app.fingerprint(), modeless.fingerprint());
    }

    #[test]
    fn mode_table_rejects_non_finite_demand() {
        let mut ladder = full_ladder();
        // Raw literal: `Resources::cpu` would reject NaN itself, but specs
        // can arrive from non-builder paths (deserialization).
        ladder[2].demand = Resources {
            cpu: f64::NAN,
            mem: 0.0,
        };
        assert_eq!(
            modal_build(ladder),
            Err(SpecError::ModeValueInvalid {
                app: "m".into(),
                service: "fe".into(),
                mode: ServingMode::ReadOnly,
            })
        );
    }

    #[test]
    fn mode_table_rejects_negative_demand_or_utility() {
        let mut ladder = full_ladder();
        ladder[3].utility = -0.1;
        assert!(matches!(
            modal_build(ladder),
            Err(SpecError::ModeValueInvalid {
                mode: ServingMode::Shed,
                ..
            })
        ));
        let mut ladder = full_ladder();
        ladder[1].demand = Resources {
            cpu: -1.0,
            mem: 0.0,
        };
        assert!(matches!(
            modal_build(ladder),
            Err(SpecError::ModeValueInvalid {
                mode: ServingMode::StaleCache,
                ..
            })
        ));
    }

    #[test]
    fn mode_table_rejects_non_monotone_demand() {
        let mut ladder = full_ladder();
        ladder[2].demand = Resources::cpu(3.5); // above the stale-cache rung
        assert_eq!(
            modal_build(ladder),
            Err(SpecError::ModeDemandNotMonotone {
                app: "m".into(),
                service: "fe".into(),
                mode: ServingMode::ReadOnly,
            })
        );
    }

    #[test]
    fn mode_table_rejects_duplicate_and_misordered_modes() {
        let mut ladder = full_ladder();
        ladder[2].mode = ServingMode::StaleCache; // duplicate rung
        assert!(matches!(
            modal_build(ladder),
            Err(SpecError::ModeTableOrder { .. })
        ));
        let mut ladder = full_ladder();
        ladder.swap(1, 2); // ascending-order violation
        assert!(matches!(
            modal_build(ladder),
            Err(SpecError::ModeTableOrder { .. })
        ));
        // First rung must be Full.
        let headless = full_ladder()[1..].to_vec();
        assert!(matches!(
            modal_build(headless),
            Err(SpecError::ModeTableOrder { .. })
        ));
    }

    #[test]
    fn mode_table_rejects_full_rung_demand_mismatch() {
        let mut ladder = full_ladder();
        ladder[0].demand = Resources::cpu(3.9); // != declared service demand
        assert_eq!(
            modal_build(ladder),
            Err(SpecError::ModeFullMismatch {
                app: "m".into(),
                service: "fe".into(),
            })
        );
    }

    #[test]
    fn mode_assignment_defaults_and_lookup() {
        let w = Workload::new(vec![two_service_app()]);
        let empty = ModeAssignment::empty();
        assert!(empty.is_all_full());
        assert_eq!(empty.get(AppId(0), ServiceId(1)), ServingMode::Full);
        let mut m = ModeAssignment::for_workload(&w);
        assert!(m.is_all_full());
        m.set(AppId(0), ServiceId(1), ServingMode::Shed);
        assert!(!m.is_all_full());
        assert_eq!(m.mode_of_pod(PodKey::new(0, 1, 0)), ServingMode::Shed);
        assert_eq!(m.get(AppId(0), ServiceId(0)), ServingMode::Full);
    }
}
