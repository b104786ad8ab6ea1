//! Scenario-level minimal-repro shrinking.
//!
//! The vendored proptest shim deliberately has no shrinking; what this
//! repo actually needs is shrinking at the *scenario* level — given a
//! [`ScenarioDoc`] that provokes a tiered-RTO violation, reduce it to the
//! smallest document that still does, so the persisted regression reads
//! like a postmortem instead of a fuzzer dump.
//!
//! The shrinker is a greedy fixpoint walk over a shrink lattice, ordered
//! cheapest-first:
//!
//! 1. **delete events** (restores first — removing the healing usually
//!    keeps the violation — then everything else),
//! 2. **shrink node sets** one node at a time,
//! 3. **shrink per-event parameters** (halve flap dwell/cycles, zero
//!    jitter, pull degrade/surge factors toward benign, halve event
//!    times, retarget surges to app 0),
//! 4. **shorten the horizon** by interval halving down to just past the
//!    last event,
//! 5. **shrink the cluster** by dropping unreferenced trailing nodes.
//!
//! Every candidate step must keep [`ScenarioDoc::validate`] green *and*
//! re-satisfy the caller's oracle, so the output provably still violates.
//! The walk is pure and ordered — no RNG — which makes shrinking
//! deterministic: the same input and oracle always produce byte-identical
//! minimal repros, and the output never has more events or a longer
//! horizon than the input.

use serde::{Deserialize, Serialize};

use crate::model::{ScenarioDoc, RESTORE_KINDS};

/// What one shrink run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShrinkReport {
    /// Oracle invocations spent.
    pub evals: u32,
    /// Full lattice sweeps until the fixpoint (or the cap).
    pub passes: u32,
    /// Events deleted.
    pub removed_events: u32,
    /// Horizon milliseconds shaved off.
    pub horizon_saved_ms: u64,
}

/// Upper bound on full lattice sweeps; each sweep is itself bounded, so
/// this caps total work on adversarially slow oracles.
const MAX_PASSES: u32 = 8;

/// Greedily shrinks `doc` while `oracle` keeps accepting (an oracle
/// returns `true` when the candidate still exhibits the violation under
/// investigation).
///
/// Returns the shrunk document and a [`ShrinkReport`]. If the oracle
/// rejects `doc` itself there is nothing to preserve, and the input is
/// returned untouched with `evals == 1`.
pub fn shrink(
    doc: &ScenarioDoc,
    oracle: &mut dyn FnMut(&ScenarioDoc) -> bool,
) -> (ScenarioDoc, ShrinkReport) {
    let mut report = ShrinkReport {
        evals: 1,
        passes: 0,
        removed_events: 0,
        horizon_saved_ms: 0,
    };
    if !oracle(doc) {
        return (doc.clone(), report);
    }
    let mut best = doc.clone();
    // Try a candidate: accept only when it stays valid and still violates.
    let mut accept = |cand: &ScenarioDoc, report: &mut ShrinkReport| -> bool {
        if cand.validate().is_err() {
            return false;
        }
        report.evals += 1;
        oracle(cand)
    };

    for pass in 0..MAX_PASSES {
        report.passes = pass + 1;
        let before = best.clone();

        // 1. Event deletion, restores first.
        for restores_only in [true, false] {
            let mut i = 0;
            while i < best.events.len() {
                let is_restore = RESTORE_KINDS.contains(&best.events[i].kind.as_str());
                if restores_only != is_restore {
                    i += 1;
                    continue;
                }
                let mut cand = best.clone();
                cand.events.remove(i);
                if accept(&cand, &mut report) {
                    best = cand;
                    report.removed_events += 1;
                } else {
                    i += 1;
                }
            }
        }

        // 2. Node-set shrinking, one node at a time.
        for i in 0..best.events.len() {
            let mut k = 0;
            while best.events[i].nodes.len() > 1 && k < best.events[i].nodes.len() {
                let mut cand = best.clone();
                cand.events[i].nodes.remove(k);
                if accept(&cand, &mut report) {
                    best = cand;
                } else {
                    k += 1;
                }
            }
        }

        // 3. Per-event parameter shrinking.
        for i in 0..best.events.len() {
            shrink_params(&mut best, i, &mut accept, &mut report);
        }

        // 4. Horizon shortening: interval-halving toward just past the
        // last event. Violations need not be monotone in the horizon
        // (shortening censors unrestored outages), so every candidate is
        // re-checked rather than binary-searched blindly.
        let mut lo = best
            .events
            .iter()
            .map(|e| e.at_ms + 1)
            .max()
            .unwrap_or(1)
            .max(60_000.min(best.horizon_ms));
        while lo < best.horizon_ms {
            let mid = lo + (best.horizon_ms - lo) / 2;
            if mid == best.horizon_ms {
                break;
            }
            let mut cand = best.clone();
            cand.horizon_ms = mid;
            if accept(&cand, &mut report) {
                report.horizon_saved_ms += best.horizon_ms - mid;
                best = cand;
            } else {
                lo = mid + 1;
            }
        }

        // 5. Cluster shrinking: drop the highest node while nothing
        // references it. (Zone/rack striping changes with the node count;
        // the oracle re-check keeps that honest.)
        while best.nodes > 1
            && best
                .events
                .iter()
                .all(|e| e.nodes.iter().all(|&n| n < best.nodes - 1))
        {
            let mut cand = best.clone();
            cand.nodes -= 1;
            if accept(&cand, &mut report) {
                best = cand;
            } else {
                break;
            }
        }

        if best == before {
            break; // fixpoint
        }
    }
    (best, report)
}

/// Parameter-lattice moves for event `i`, each applied while it keeps
/// shrinking and the oracle keeps accepting.
fn shrink_params(
    best: &mut ScenarioDoc,
    i: usize,
    accept: &mut impl FnMut(&ScenarioDoc, &mut ShrinkReport) -> bool,
    report: &mut ShrinkReport,
) {
    // Each closure proposes the next smaller value, or None when already
    // minimal along its axis.
    type Move = fn(&ScenarioDoc, usize) -> Option<ScenarioDoc>;
    let moves: [Move; 9] = [
        // Zero the flap jitter.
        |d, i| {
            (d.events[i].jitter_ms > 0).then(|| {
                let mut c = d.clone();
                c.events[i].jitter_ms = 0;
                c
            })
        },
        // Halve flap cycles toward 1.
        |d, i| {
            (d.events[i].cycles > 1).then(|| {
                let mut c = d.clone();
                c.events[i].cycles = (c.events[i].cycles / 2).max(1);
                c
            })
        },
        // Halve flap down-dwell toward 1 s.
        |d, i| {
            (d.events[i].down_ms > 1_000).then(|| {
                let mut c = d.clone();
                c.events[i].down_ms = (c.events[i].down_ms / 2).max(1_000);
                c
            })
        },
        // Halve flap up-dwell toward 1 s.
        |d, i| {
            (d.events[i].up_ms > 1_000).then(|| {
                let mut c = d.clone();
                c.events[i].up_ms = (c.events[i].up_ms / 2).max(1_000);
                c
            })
        },
        // Pull a degrade factor halfway toward benign 1.0.
        |d, i| {
            (d.events[i].kind == "capacity_degrade" && d.events[i].factor < 1.0).then(|| {
                let mut c = d.clone();
                c.events[i].factor = (c.events[i].factor + 1.0) / 2.0;
                c
            })
        },
        // Pull a surge demand factor halfway toward 1.0.
        |d, i| {
            (d.events[i].kind == "demand_surge" && d.events[i].demand_factor > 1.0).then(|| {
                let mut c = d.clone();
                c.events[i].demand_factor = (c.events[i].demand_factor + 1.0) / 2.0;
                c
            })
        },
        // Pull a surge replica factor halfway toward 1.0.
        |d, i| {
            (d.events[i].kind == "demand_surge" && d.events[i].replica_factor > 1.0).then(|| {
                let mut c = d.clone();
                c.events[i].replica_factor = (c.events[i].replica_factor + 1.0) / 2.0;
                c
            })
        },
        // Retarget a surge at app 0.
        |d, i| {
            (d.events[i].kind == "demand_surge" && d.events[i].app != 0).then(|| {
                let mut c = d.clone();
                c.events[i].app = 0;
                c
            })
        },
        // Halve the event time (earlier is smaller).
        |d, i| {
            (d.events[i].at_ms > 0).then(|| {
                let mut c = d.clone();
                c.events[i].at_ms /= 2;
                c
            })
        },
    ];
    for mv in moves {
        // Re-apply each move until it stops paying — halving converges in
        // O(log) steps per axis.
        while let Some(cand) = mv(best, i) {
            if accept(&cand, report) {
                *best = cand;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::demo_workload;
    use crate::generate::{generate, Family, GeneratorConfig};
    use crate::model::EventDoc;
    use crate::search::signature_of;
    use phoenix_core::policies::DefaultPolicy;

    /// A surge-under-crunch doc large enough to have plenty of fat.
    fn fat_doc() -> ScenarioDoc {
        ScenarioDoc {
            name: "fat".into(),
            family: "custom".into(),
            nodes: 8,
            node_cpu: 4.0,
            node_mem: 0.0,
            horizon_ms: 2_400_000,
            events: vec![
                EventDoc {
                    nodes: vec![0, 1, 2, 3],
                    ..EventDoc::new(200_000, "kubelet_stop")
                },
                EventDoc {
                    nodes: vec![4],
                    factor: 0.5,
                    ..EventDoc::new(250_000, "capacity_degrade")
                },
                EventDoc {
                    nodes: vec![5],
                    down_ms: 60_000,
                    up_ms: 120_000,
                    cycles: 4,
                    jitter_ms: 10_000,
                    ..EventDoc::new(300_000, "flap")
                },
                EventDoc {
                    app: 1,
                    demand_factor: 2.0,
                    replica_factor: 2.0,
                    ..EventDoc::new(350_000, "demand_surge")
                },
                EventDoc {
                    nodes: vec![0, 1, 2, 3],
                    ..EventDoc::new(1_800_000, "kubelet_start")
                },
            ],
        }
    }

    #[test]
    fn syntactic_oracle_shrinks_to_the_minimal_core() {
        // Oracle: "some kubelet_stop still takes node 0 down".
        let doc = fat_doc();
        let mut oracle = |d: &ScenarioDoc| {
            d.events
                .iter()
                .any(|e| e.kind == "kubelet_stop" && e.nodes.contains(&0))
        };
        let (small, report) = shrink(&doc, &mut oracle);
        small.validate().unwrap();
        assert!(oracle(&small), "shrunk doc lost the violation");
        // Everything but the single stop event on node 0 is gone.
        assert_eq!(small.events.len(), 1);
        assert_eq!(small.events[0].kind, "kubelet_stop");
        assert_eq!(small.events[0].nodes, vec![0]);
        assert_eq!(small.events[0].at_ms, 0);
        assert!(small.horizon_ms < doc.horizon_ms);
        assert!(small.nodes < doc.nodes);
        assert_eq!(report.removed_events, 4);
        assert!(report.evals > 0 && report.passes >= 2);
    }

    #[test]
    fn rejected_input_is_returned_untouched() {
        let doc = fat_doc();
        let (same, report) = shrink(&doc, &mut |_| false);
        assert_eq!(same, doc);
        assert_eq!(report.evals, 1);
        assert_eq!(report.removed_events, 0);
    }

    #[test]
    fn shrinking_never_grows_and_is_deterministic() {
        for family in Family::all() {
            let docs = generate(
                family,
                &GeneratorConfig {
                    nodes: 8,
                    node_cpu: 4.0,
                    scenarios_per_family: 2,
                    apps: 2,
                    seed: 13,
                },
            );
            for doc in &docs {
                // Oracle: "still disrupts at least two distinct nodes or
                // zones" — cheap, syntactic, and satisfiable.
                let mut oracle = |d: &ScenarioDoc| !d.events.is_empty();
                let (a, _) = shrink(doc, &mut oracle);
                let (b, _) = shrink(doc, &mut oracle);
                assert_eq!(a, b, "{}: shrink not deterministic", doc.name);
                a.validate().unwrap();
                assert!(a.events.len() <= doc.events.len());
                assert!(a.horizon_ms <= doc.horizon_ms);
            }
        }
    }

    #[test]
    fn real_rto_oracle_shrinks_a_violation_strictly() {
        // A real simulator-backed oracle: Default policy, everything held
        // to a tight RTO, no restore in sight — guaranteed violation.
        let w = demo_workload(2);
        let policy = DefaultPolicy;
        let doc = ScenarioDoc {
            name: "crunch".into(),
            family: "custom".into(),
            nodes: 6,
            node_cpu: 4.0,
            node_mem: 0.0,
            horizon_ms: 2_400_000,
            events: vec![
                EventDoc {
                    nodes: vec![0, 1, 2, 3],
                    ..EventDoc::new(300_000, "kubelet_stop")
                },
                EventDoc {
                    nodes: vec![4],
                    factor: 0.4,
                    ..EventDoc::new(400_000, "capacity_degrade")
                },
            ],
        };
        let sig = signature_of(&w, &doc, &policy, None).unwrap();
        assert!(sig.severity_ms > 0, "setup must violate");
        let mut oracle = |d: &ScenarioDoc| {
            signature_of(&w, d, &policy, None)
                .map(|s| s.severity_ms > 0)
                .unwrap_or(false)
        };
        let (small, _) = shrink(&doc, &mut oracle);
        small.validate().unwrap();
        assert!(oracle(&small), "shrunk doc no longer violates");
        assert!(
            small.events.len() < doc.events.len() || small.horizon_ms < doc.horizon_ms,
            "shrink made no progress: {small:?}"
        );
    }
}
