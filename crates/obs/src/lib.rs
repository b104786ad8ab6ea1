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
//!   **byte-identical at any `PHOENIX_THREADS`** and can join the
//!   determinism probe's golden fixture (`phoenix_bench::probe`'s `obs`
//!   section);
//! * the **wall-clock plane** ([`Phase`] timers feeding nearest-rank
//!   p50/p95/p99 histograms plus Chrome trace-event spans) measures how
//!   long those same stages took. It is quarantined from every
//!   determinism check and always reported next to `host_cpus`, because
//!   wall-clock on a 1-CPU container says nothing about parallel code.
//!
//! The recorder is **thread-scoped**, not process-global: [`current`]
//! returns the handle of the innermost [`with_recorder`] scope on the
//! calling thread, and `phoenix-exec` pool workers inherit the handle of
//! the thread that spawned them, so a scope covers a whole call tree —
//! fan-outs included — while concurrent scopes on other threads (parallel
//! tests, per-cell recorders) never see each other's counts and need no
//! lock. Outside every scope the handle is **disabled**: every operation
//! is a branch on `None` — cheap enough to leave the instrumentation
//! compiled into release planners (guarded by the `obs_overhead` bench).
//! Export via [`Recorder::snapshot_json`] / [`Recorder::chrome_trace_json`].
//!
//! This crate is a substrate: std-only, no intra-workspace dependencies,
//! so even `phoenix-cluster` (itself a substrate crate) can report into
//! it, and `phoenix-exec` can hand the scope to its workers. The one
//! nearest-rank percentile implementation for the whole workspace lives
//! in [`stats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod recorder;
pub mod stats;

pub use recorder::{current, with_recorder, Counter, Phase, PhaseGuard, Recorder};
