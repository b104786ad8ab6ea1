//! Deterministic data-parallel execution substrate.
//!
//! Phoenix's reaction time during a capacity crunch is bounded by its
//! planner, and the evaluation loop (multi-trial sweeps, chaos audits)
//! is bounded by how many independent trials fit in wall-clock. Both are
//! embarrassingly parallel *per item* — per-app graph walks, per-trial
//! sweeps, per-degree injections — but every consumer in this workspace
//! also promises **bit-for-bit reproducible output under any seed**, so
//! naive parallelism (reduce-in-completion-order, shared accumulators)
//! is off the table.
//!
//! This crate provides the one primitive the rest of the stack builds
//! on: the [`global()`] [`Pool`], whose [`par_map`](Pool::par_map) is
//! **byte-identical to the sequential map by construction**:
//!
//! * the input is split into contiguous index chunks;
//! * workers claim chunks from an atomic cursor and write each chunk's
//!   results into its own index-ordered slot (never a shared
//!   accumulator);
//! * the results are concatenated in input order on the calling thread,
//!   so any reduction the caller folds over them is the sequential one.
//!
//! Because the mapped closure runs exactly once per item and results
//! come back in input order, the only thing threads change is *when*
//! each item is computed — never what is computed, nor the order
//! anything is combined. `PHOENIX_THREADS=1` and `PHOENIX_THREADS=64`
//! produce the same bytes.
//!
//! # Worker count: process default and thread scope
//!
//! Outside any scope the pool's worker count is a process-wide default
//! initialised from the `PHOENIX_THREADS` environment variable:
//!
//! | `PHOENIX_THREADS` | behaviour |
//! |-------------------|-----------|
//! | unset / unparseable | one worker per available CPU |
//! | `0` or `1` | strictly sequential — no threads are ever spawned |
//! | `N` | `N` workers |
//!
//! Binaries can override the variable before first use with
//! [`set_global_threads`] (the bench bins' `--threads` flag).
//!
//! [`with_threads(n, f)`](with_threads) overrides that default for every
//! `par_*` call `f` makes — directly or through any layer it calls — on
//! the calling thread; `n = 1` spawns nothing. Scopes nest and restore on
//! exit (panics included). This is how tests and benches pin a whole call
//! tree (campaign → simulator → planner) to one thread count without a
//! pool parameter at every layer.
//!
//! # Nested fan-out and inherited context
//!
//! Pool workers run inside a `with_threads(1)` scope: a `par_*` call made
//! from a worker runs sequentially on that worker, because the outer
//! fan-out already owns the cores and nesting would only multiply threads
//! (N trial workers × N planner workers) without adding parallelism.
//! Workers also inherit the calling thread's
//! [`phoenix_obs` recorder](phoenix_obs::current), so counters recorded
//! inside a fan-out land where the caller's scope points. Both are pure
//! scheduling decisions — the bytes never change.
//!
//! # Panics
//!
//! A panic in the mapped closure propagates to the caller (the scope
//! joins every worker, then resumes the first panic); it never deadlocks
//! the pool. Workers that did not panic finish their current chunk.
//!
//! # Examples
//!
//! ```
//! use phoenix_exec::{global, with_threads};
//!
//! let squares = with_threads(4, || global().par_map(&[1u64, 2, 3, 4], |&x| x * x));
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Ordered reduction: fold the in-order results, bit for bit the
//! // sequential fold.
//! let doubled = global().par_map(&[1.0f64, 2.5, 3.25], |&x| x * 2.0);
//! let sum = doubled.into_iter().fold(0.0, |a, b| a + b);
//! assert_eq!(sum.to_bits(), (1.0f64 * 2.0 + 2.5 * 2.0 + 3.25 * 2.0).to_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Worker count of the innermost [`with_threads`] scope on this
    /// thread; `None` outside every scope (the process default applies).
    /// Pool workers run in a `Some(1)` scope.
    static SCOPE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with every `par_*` call on this thread (and in anything it
/// calls) using `threads` workers; `0` and `1` both mean strictly
/// sequential — no worker is ever spawned, so the whole call tree stays
/// on the calling thread. The previous scope is restored on exit, even
/// when `f` panics.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.set(self.0);
        }
    }
    let _restore = Restore(SCOPE.replace(Some(threads.max(1))));
    f()
}

/// How many chunks each worker should get on average: enough that an
/// uneven item (one app with a huge dependency graph, one slow trial)
/// doesn't leave the other workers idle, few enough that the per-chunk
/// bookkeeping stays invisible next to real work.
const CHUNKS_PER_THREAD: usize = 4;

/// The deterministic data-parallel worker pool, reached through
/// [`global()`].
///
/// The pool is a *policy*, not a set of live threads: workers are scoped
/// to each call (`std::thread::scope`), so nothing ever leaks, and the
/// worker count is resolved per call from the caller's [`with_threads`]
/// scope or the process default. See the crate docs for the determinism
/// contract.
#[derive(Debug)]
pub struct Pool(());

static POOL: Pool = Pool(());
static PROCESS_THREADS: OnceLock<usize> = OnceLock::new();

impl Pool {
    /// Worker count a `par_*` call made here would use (`1` means
    /// sequential): the innermost [`with_threads`] scope, else the
    /// process default.
    pub fn threads(&self) -> usize {
        SCOPE
            .get()
            .unwrap_or_else(|| *PROCESS_THREADS.get_or_init(threads_from_env))
    }

    /// Maps `f` over `0..n`, returning results in index order.
    ///
    /// Byte-identical to `(0..n).map(f).collect()` for any thread count.
    pub fn par_map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let chunk = n.div_ceil(self.threads() * CHUNKS_PER_THREAD).max(1);
        self.par_map_range_chunked(n, chunk, f)
    }

    /// [`par_map_range`](Pool::par_map_range) with an explicit chunk
    /// size (exposed for the equivalence property tests and for callers
    /// whose items have known, very uneven cost).
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0` while `n > 0`, or when the mapped closure
    /// panics (the worker panic is propagated, never swallowed).
    pub fn par_map_range_chunked<R, F>(&self, n: usize, chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        assert!(chunk > 0, "chunk size must be positive");
        let chunk_count = n.div_ceil(chunk);
        let workers = self.threads().min(chunk_count);
        if workers <= 1 {
            // Sequential: no threads, no slots, no locking. Also taken
            // for nested calls from inside a pool worker (a `Some(1)`
            // scope) — byte-identical by construction.
            return (0..n).map(f).collect();
        }

        // One index-ordered slot per chunk; workers never share a slot.
        let slots: Vec<Mutex<Option<Vec<R>>>> =
            (0..chunk_count).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        // Fail fast: a panicking worker raises this flag on unwind so
        // siblings stop claiming new chunks (they still finish the one
        // in flight) instead of draining the whole input first.
        let abort = AtomicBool::new(false);
        let recorder = phoenix_obs::current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    SCOPE.set(Some(1));
                    struct AbortOnPanic<'a>(&'a AtomicBool);
                    impl Drop for AbortOnPanic<'_> {
                        fn drop(&mut self) {
                            if std::thread::panicking() {
                                self.0.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    let _flag = AbortOnPanic(&abort);
                    phoenix_obs::with_recorder(recorder.clone(), || {
                        while !abort.load(Ordering::Relaxed) {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= chunk_count {
                                break;
                            }
                            let lo = i * chunk;
                            let hi = n.min(lo + chunk);
                            let out: Vec<R> = (lo..hi).map(&f).collect();
                            *slots[i]
                                .lock()
                                .expect("slot poisoned by a panicking sibling") = Some(out);
                        }
                    });
                });
            }
        });

        let mut results = Vec::with_capacity(n);
        for slot in slots {
            let chunk_out = slot
                .into_inner()
                .expect("slot poisoned")
                .expect("every chunk was claimed before the scope closed");
            results.extend(chunk_out);
        }
        results
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Byte-identical to `items.iter().map(f).collect()` for any thread
    /// count.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_range(items.len(), |i| f(&items[i]))
    }
}

/// Parses `PHOENIX_THREADS`; unset or unparseable falls back to the
/// available parallelism.
fn threads_from_env() -> usize {
    match std::env::var("PHOENIX_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => available_parallelism(),
        },
        Err(_) => available_parallelism(),
    }
}

/// `std::thread::available_parallelism` with a sequential fallback.
fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The pool every fan-out in the workspace runs on. Its worker count is
/// resolved per call: the caller's [`with_threads`] scope, else the
/// process default (`PHOENIX_THREADS`, see the crate docs for the table).
pub fn global() -> &'static Pool {
    &POOL
}

/// Overrides the process-default worker count **before first use** (the
/// bench binaries' `--threads` flag). Returns `false` — and changes
/// nothing — if the default was already initialised.
pub fn set_global_threads(threads: usize) -> bool {
    PROCESS_THREADS.set(threads.max(1)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        for threads in [1, 4] {
            with_threads(threads, || {
                assert!(global().par_map::<u32, u32, _>(&[], |&x| x).is_empty());
                assert!(global().par_map_range(0, |i| i).is_empty());
            });
        }
    }

    #[test]
    fn zero_and_one_threads_are_sequential() {
        assert_eq!(with_threads(0, || global().threads()), 1);
        assert_eq!(with_threads(1, || global().threads()), 1);
        assert_eq!(with_threads(2, || global().threads()), 2);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = with_threads(threads, || global().par_map(&items, |&x| x * 3));
            assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fold_is_bitwise_equal_to_sequential_for_floats() {
        // Non-associative float sums: only in-order reduction matches.
        let items: Vec<f64> = (0..500).map(|i| 1.0 + (i as f64) * 1e-13).collect();
        let expected = items.iter().map(|&x| x / 3.0).fold(0.0f64, |a, b| a + b);
        for threads in [1, 2, 7] {
            let mapped = with_threads(threads, || global().par_map(&items, |&x| x / 3.0));
            let got = mapped.into_iter().fold(0.0f64, |a, b| a + b);
            assert_eq!(got.to_bits(), expected.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn explicit_chunk_sizes_do_not_change_results() {
        let n = 97;
        let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
        for threads in [1, 3, 16] {
            for chunk in [1, 2, 5, 96, 97, 1000] {
                let got = with_threads(threads, || {
                    global().par_map_range_chunked(n, chunk, |i| i * i)
                });
                assert_eq!(got, expected, "threads {threads} chunk {chunk}");
            }
        }
    }

    #[test]
    fn nested_fan_out_stays_on_the_worker_thread() {
        // An inner par_map issued from a pool worker must not spawn: all
        // its items run on the worker's own thread, in order.
        let results = with_threads(4, || {
            global().par_map_range_chunked(8, 1, |i| {
                let worker = std::thread::current().id();
                let inner = global().par_map_range(16, |j| (std::thread::current().id(), i * j));
                let values: Vec<usize> = inner.iter().map(|&(_, v)| v).collect();
                let all_on_worker = inner.iter().all(|&(id, _)| id == worker);
                (all_on_worker, values)
            })
        });
        for (i, (all_on_worker, values)) in results.into_iter().enumerate() {
            assert!(all_on_worker, "item {i} nested fan-out left its worker");
            assert_eq!(values, (0..16).map(|j| i * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn with_threads_one_pins_the_calling_thread() {
        let caller = std::thread::current().id();
        let outside = global().threads();
        let ids = with_threads(8, || {
            assert_eq!(global().threads(), 8);
            with_threads(1, || {
                assert_eq!(global().threads(), 1);
                global().par_map_range(32, |_| std::thread::current().id())
            })
        });
        assert_eq!(global().threads(), outside, "scope must restore on exit");
        assert!(ids.into_iter().all(|id| id == caller));
        // Restores even when the closure panics.
        let _ = std::panic::catch_unwind(|| with_threads(1, || panic!("boom")));
        assert_eq!(global().threads(), outside);
    }

    #[test]
    fn workers_inherit_the_callers_recorder() {
        use phoenix_obs::{current, with_recorder, Counter, Recorder};
        let recorder = Recorder::enabled();
        with_recorder(recorder.clone(), || {
            with_threads(4, || {
                global().par_map_range_chunked(64, 1, |_| current().incr(Counter::SimEvents))
            })
        });
        assert_eq!(recorder.counter(Counter::SimEvents), 64);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(move || {
                with_threads(threads, || {
                    global().par_map_range(64, |i| {
                        if i == 13 {
                            panic!("boom at {i}");
                        }
                        i
                    })
                })
            });
            assert!(result.is_err(), "threads = {threads}");
        }
    }

    #[test]
    fn global_pool_is_stable_across_calls() {
        let a = global().threads();
        let b = global().threads();
        assert_eq!(a, b);
        assert!(a >= 1);
        // Once initialised, overrides are rejected.
        assert!(!set_global_threads(a + 7));
        assert_eq!(global().threads(), a);
    }
}
