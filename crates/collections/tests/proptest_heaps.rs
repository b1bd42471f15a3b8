//! Property tests for the priority queues backing `CmpIndex` (bounded
//! max-heap) and I-PBS's cardinality index (lazy-invalidation min-heap),
//! checked against naive reference models under randomized operation
//! sequences.

use std::collections::{BTreeSet, HashMap};

use pier_collections::{BoundedMaxHeap, LazyMinHeap};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bounded_heap_keeps_the_top_capacity_distinct_items(
        capacity in 1usize..12,
        items in prop::collection::vec(-50i64..50, 0..120),
    ) {
        let mut heap = BoundedMaxHeap::new(capacity);
        for &item in &items {
            heap.push(item);
            prop_assert!(heap.len() <= capacity);
            prop_assert!(heap.peek() >= heap.peek_min());
        }
        // Equal pushes are duplicates, so the survivors are exactly the
        // `capacity` largest *distinct* values, best first.
        let expect: Vec<i64> = items
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .rev()
            .take(capacity)
            .collect();
        prop_assert_eq!(heap.into_sorted_vec_desc(), expect);
    }

    #[test]
    fn bounded_heap_push_tracks_a_btreeset_model(
        capacity in 1usize..8,
        items in prop::collection::vec(0i64..20, 0..80),
    ) {
        let mut heap = BoundedMaxHeap::new(capacity);
        let mut model: BTreeSet<i64> = BTreeSet::new();
        for &item in &items {
            let left_out = heap.push(item);
            let inserted = model.insert(item);
            let evicted = if model.len() > capacity {
                model.pop_first()
            } else {
                None
            };
            // `push` hands back what it left out: the item itself if it was
            // a duplicate or lost the overflow eviction, else the evicted
            // minimum, if any.
            let want = if inserted { evicted } else { Some(item) };
            prop_assert_eq!(left_out, want);
            prop_assert_eq!(heap.len(), model.len());
            prop_assert_eq!(heap.peek(), model.last());
            prop_assert_eq!(heap.peek_min(), model.first());
            prop_assert_eq!(heap.is_full(), model.len() >= capacity);
        }
        let drained: Vec<i64> = model.into_iter().rev().collect();
        prop_assert_eq!(heap.into_sorted_vec_desc(), drained);
    }

    #[test]
    fn lazy_heap_matches_a_map_model_under_interleaved_ops(
        ops in prop::collection::vec((0u8..4, 0u32..12, 0u64..30), 0..200),
    ) {
        let mut heap: LazyMinHeap<u64, u32> = LazyMinHeap::new();
        let mut model: HashMap<u32, u64> = HashMap::new();
        for (op, value, key) in ops {
            match op {
                // `set` twice as likely: stale entries only accumulate
                // through re-sets of live values.
                0 | 1 => {
                    heap.set(value, key);
                    model.insert(value, key);
                }
                2 => {
                    prop_assert_eq!(heap.remove(&value), model.remove(&value));
                }
                _ => {
                    let popped = heap.pop_min();
                    let min_key = model.values().copied().min();
                    match (popped, min_key) {
                        (None, None) => {}
                        (Some((v, k)), Some(mk)) => {
                            // The popped entry carries the minimal *live*
                            // key — a stale (older, smaller) version of a
                            // re-set value must never resurface.
                            prop_assert_eq!(k, mk);
                            prop_assert_eq!(model.remove(&v), Some(k));
                        }
                        (popped, min) => {
                            prop_assert!(false, "heap {popped:?} vs model min {min:?}");
                        }
                    }
                }
            }
            prop_assert_eq!(heap.len(), model.len());
            prop_assert_eq!(heap.is_empty(), model.is_empty());
            prop_assert_eq!(heap.get(&value), model.get(&value).copied());
            if let Some((v, k)) = heap.peek_min() {
                prop_assert_eq!(model.get(&v).copied(), Some(k));
                prop_assert_eq!(Some(k), model.values().copied().min());
            } else {
                prop_assert!(model.is_empty());
            }
        }
        // Draining pops every live value exactly once, in key order.
        let mut last_key = None;
        while let Some((v, k)) = heap.pop_min() {
            prop_assert!(last_key <= Some(k));
            last_key = Some(k);
            prop_assert_eq!(model.remove(&v), Some(k));
        }
        prop_assert!(model.is_empty());
    }
}
