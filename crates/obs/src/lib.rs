//! Two-plane observability substrate for Phoenix.
//!
//! Every layer of the workspace — planner, packing, simulator, campaign
//! runners — reports into one [`Recorder`] handle, and the data it
//! collects is split into two strictly separated planes:
//!
//! * the **deterministic plane** ([`Counter`]) holds integer counters
//!   that are pure functions of the planner's *inputs* (cache hits,
//!   packing placements, serving-mode rung purchases, simulator event
//!   counts, …). Increments are commutative sums, every instrumented
//!   event fires regardless of how work is scheduled, and nothing in
//!   this plane ever reads a clock — so a counter snapshot is
//!   **byte-identical at any `PHOENIX_THREADS`** and can join the CI
//!   determinism diff (`determinism_probe`'s `probe_obs` section);
//! * the **wall-clock plane** ([`Phase`] timers feeding nearest-rank
//!   p50/p95/p99 histograms plus Chrome trace-event spans) measures how
//!   long those same stages took. It is quarantined from every
//!   determinism check and always reported next to `host_cpus`, because
//!   wall-clock on a 1-CPU container says nothing about parallel code.
//!
//! The default recorder is **disabled** and its hot path is one relaxed
//! atomic load plus a branch — cheap enough to leave the instrumentation
//! compiled into release planners (guarded by the `obs_overhead` bench).
//! Bins and tests that want data [`install`] an enabled recorder
//! ([`install_scoped`] serializes tests sharing one process) and export
//! via [`Recorder::snapshot_json`] / [`Recorder::chrome_trace_json`].
//!
//! This crate is a substrate: std-only, no intra-workspace dependencies,
//! so even `phoenix-cluster` (itself a substrate crate) can report into
//! it. The one nearest-rank percentile implementation for the whole
//! workspace lives in [`stats`] (re-exported by `phoenix_core::stats`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod recorder;
pub mod stats;

pub use recorder::{
    global, install, install_scoped, Counter, Installed, Phase, PhaseGuard, Recorder,
};
