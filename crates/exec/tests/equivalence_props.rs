//! The substrate's load-bearing property: for any input, chunk size, and
//! thread count, `par_map` + in-order reduction is **byte-identical** to
//! the sequential fold. Every layer above (cold planning, sweeps, chaos
//! audits) inherits its determinism guarantee from exactly this. Thread
//! counts are swept through the `with_threads` scope, the same way every
//! invariance test above this crate pins them.

use phoenix_exec::{global, with_threads};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn par_map_equals_sequential_map(
        items in vec(-1e12f64..1e12, 0..200),
        threads in 0usize..9,
        chunk in 1usize..64,
    ) {
        // A mapper whose output depends on value *and* index, so any
        // chunk-boundary or ordering mistake changes the bytes.
        let par = with_threads(threads, || {
            global().par_map_range_chunked(items.len(), chunk, |i| {
                (items[i] * 0.1 + i as f64).to_bits()
            })
        });
        let seq: Vec<u64> = (0..items.len())
            .map(|i| (items[i] * 0.1 + i as f64).to_bits())
            .collect();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn uneven_item_costs_do_not_reorder_results(
        sizes in vec(0usize..300, 1..40),
        threads in 1usize..9,
        chunk in 1usize..8,
    ) {
        // Items with wildly different costs finish out of order across
        // workers; the slot layout must still emit input order.
        let cost = |i: usize| {
            // Cost proportional to sizes[i]: a tiny deterministic hash loop.
            let mut h = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
            for _ in 0..sizes[i] {
                h = h.wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
            }
            h
        };
        let par = with_threads(threads, || {
            global().par_map_range_chunked(sizes.len(), chunk, cost)
        });
        let seq: Vec<u64> = (0..sizes.len()).map(cost).collect();
        prop_assert_eq!(par, seq);
    }
}

/// A panic anywhere in the mapped closure must reach the caller (never a
/// deadlock, never a silently missing chunk) — for sequential pools,
/// oversubscribed pools, and every chunking in between.
#[test]
fn panics_propagate_for_all_thread_and_chunk_shapes() {
    for threads in [1usize, 2, 4, 9] {
        for chunk in [1usize, 3, 50] {
            let caught = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    global().par_map_range_chunked(40, chunk, |i| {
                        if i == 17 {
                            panic!("injected failure");
                        }
                        i * 2
                    })
                })
            });
            assert!(caught.is_err(), "threads {threads} chunk {chunk}");
        }
    }
}
