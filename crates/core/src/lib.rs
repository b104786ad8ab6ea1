//! Phoenix: cooperative graceful degradation for containerized clouds.
//!
//! This crate is the paper's primary contribution — the automated resilience
//! management layer that converts application-level **criticality tags** and
//! operator objectives into capacity reallocation decisions during
//! large-scale failures (*diagonal scaling*, §3–§4 of the ASPLOS'25 paper).
//!
//! The pipeline mirrors Figure 3:
//!
//! 1. [`planner`] — the **Priority Estimator** orders each application's
//!    microservices by criticality and dependency structure (Algorithm 1);
//! 2. [`ranking`] — **Global Ranking** merges the per-app orders under an
//!    [`objectives::OperatorObjective`] (max-min fairness or revenue) into
//!    one cluster-wide activation list;
//! 3. the **Scheduler** ([`phoenix_cluster::packing`]) maps that list onto
//!    healthy servers with best-fit → repack → delete-lower-ranks;
//! 4. [`actions`] — the **Agent**'s task list (delete, migrate, restart) is
//!    derived by diffing live and target states.
//!
//! [`controller::PhoenixController`] ties the stages together, and
//! [`policies`] exposes Phoenix plus every baseline from the evaluation
//! (`Fair`, `Priority`, `Default`, `LPFair`, `LPCost`) behind one
//! [`policies::ResiliencePolicy`] trait.
//!
//! # Examples
//!
//! ```
//! use phoenix_core::spec::{AppSpecBuilder, Workload};
//! use phoenix_core::tags::Criticality;
//! use phoenix_core::controller::{PhoenixConfig, PhoenixController};
//! use phoenix_core::objectives::ObjectiveKind;
//! use phoenix_cluster::{ClusterState, Resources};
//!
//! // A two-service app: critical frontend calling an optional chat service.
//! let mut b = AppSpecBuilder::new("docs");
//! let fe = b.add_service("frontend", Resources::cpu(2.0), Some(Criticality::C1), 1);
//! let chat = b.add_service("chat", Resources::cpu(1.0), Some(Criticality::new(5)), 1);
//! b.add_dependency(fe, chat);
//! let workload = Workload::new(vec![b.build()?]);
//!
//! let state = ClusterState::homogeneous(2, Resources::cpu(2.0));
//! let controller = PhoenixController::new(
//!     workload,
//!     PhoenixConfig::with_objective(ObjectiveKind::Fairness),
//! );
//! let plan = controller.plan(&state);
//! // Only 4 CPUs are healthy: the C1 frontend is activated, chat is shed.
//! assert!(plan.target.pod_count() >= 1);
//! # Ok::<(), phoenix_core::spec::SpecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod audit;
pub mod controller;
pub mod dynamic;
pub mod objectives;
pub mod persist;
pub mod planner;
pub mod policies;
pub mod profiling;
pub mod ranking;
pub mod replan;
pub mod spec;
pub mod stateful;
pub mod tags;
pub mod waterfill;
pub mod weaver;

pub use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources};
