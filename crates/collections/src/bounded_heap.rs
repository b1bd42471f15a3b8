//! A bounded max-priority queue.
//!
//! The paper's `CmpIndex` structures are "bounded priority queues returning
//! as first element the comparison with highest weight" (§4). Boundedness
//! matters for incrementality: streams are unbounded, so any global index
//! must cap its memory; when full, inserting a better element evicts the
//! current worst, and inserting a worse-than-worst element is a no-op.
//!
//! Backed by a `BTreeSet`, giving `O(log n)` push/pop/evict and — important
//! for reproducibility — a total, deterministic order. Elements that compare
//! equal (`Ord::cmp == Equal`) are treated as duplicates and not inserted
//! twice; callers that need multiset behaviour must disambiguate in their
//! `Ord` (as `WeightedComparison` does via its pair tie-break).

use std::collections::BTreeSet;

/// A max-priority queue holding at most `capacity` elements.
///
/// ```
/// use pier_collections::BoundedMaxHeap;
/// let mut heap = BoundedMaxHeap::new(2);
/// heap.push(3);
/// heap.push(9);
/// assert_eq!(heap.push(5), Some(3)); // full: evicts 3 (the minimum)
/// assert_eq!(heap.pop(), Some(9));
/// assert_eq!(heap.pop(), Some(5));
/// assert_eq!(heap.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedMaxHeap<T: Ord> {
    set: BTreeSet<T>,
    capacity: usize,
}

impl<T: Ord> BoundedMaxHeap<T> {
    /// Creates a queue bounded to `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        BoundedMaxHeap {
            set: BTreeSet::new(),
            capacity,
        }
    }

    /// An effectively unbounded queue (capacity `usize::MAX`); used by batch
    /// baselines that are allowed to hold everything.
    pub fn unbounded() -> Self {
        BoundedMaxHeap {
            set: BTreeSet::new(),
            capacity: usize::MAX,
        }
    }

    /// Inserts `item`, evicting the current minimum if the queue is full and
    /// `item` ranks above it.
    ///
    /// Returns what the push left out: `None` if `item` was stored and
    /// nothing was evicted, the evicted minimum if `item` displaced it, or
    /// `item` itself if it was rejected (full queue and `item` ranks at or
    /// below the current minimum; of an equal element already present, one
    /// of the two equals comes back).
    pub fn push(&mut self, item: T) -> Option<T> {
        if self.is_full() && self.set.first().is_some_and(|min| item <= *min) {
            return Some(item);
        }
        if let Some(equal) = self.set.replace(item) {
            return Some(equal);
        }
        if self.set.len() > self.capacity {
            self.set.pop_first()
        } else {
            None
        }
    }

    /// Removes and returns the maximum element.
    pub fn pop(&mut self) -> Option<T> {
        self.set.pop_last()
    }

    /// The current maximum, if any.
    pub fn peek(&self) -> Option<&T> {
        self.set.last()
    }

    /// The current minimum (the next eviction victim), if any.
    pub fn peek_min(&self) -> Option<&T> {
        self.set.first()
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.set.len() >= self.capacity
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drains the queue into a vector sorted from best (max) to worst.
    pub fn into_sorted_vec_desc(self) -> Vec<T> {
        self.set.into_iter().rev().collect()
    }

    /// Iterates from best (max) to worst without consuming.
    #[cfg(test)]
    pub fn iter_desc(&self) -> impl Iterator<Item = &T> {
        self.set.iter().rev()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.set.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_orders_by_max() {
        let mut h = BoundedMaxHeap::new(10);
        for v in [3, 1, 4, 1, 5, 9, 2, 6] {
            h.push(v);
        }
        let drained: Vec<i32> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(drained, vec![9, 6, 5, 4, 3, 2, 1]); // duplicate 1 dropped
    }

    #[test]
    fn capacity_evicts_minimum() {
        let mut h = BoundedMaxHeap::new(3);
        assert_eq!(h.push(5), None);
        assert_eq!(h.push(7), None);
        assert_eq!(h.push(3), None);
        assert!(h.is_full());
        // 6 > min(3): inserted, 3 evicted.
        assert_eq!(h.push(6), Some(3));
        assert_eq!(h.len(), 3);
        assert_eq!(h.peek_min(), Some(&5));
        // 2 < min(5): rejected.
        assert_eq!(h.push(2), Some(2));
        assert_eq!(h.len(), 3);
        assert_eq!(h.into_sorted_vec_desc(), vec![7, 6, 5]);
    }

    #[test]
    fn duplicate_push_is_rejected() {
        let mut h = BoundedMaxHeap::new(4);
        assert_eq!(h.push(1), None);
        assert_eq!(h.push(1), Some(1));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn duplicate_push_when_full_keeps_size() {
        let mut h = BoundedMaxHeap::new(2);
        h.push(1);
        h.push(5);
        assert_eq!(h.push(5), Some(5));
        assert_eq!(h.len(), 2);
        assert_eq!(h.peek(), Some(&5));
        assert_eq!(h.peek_min(), Some(&1));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut h = BoundedMaxHeap::new(4);
        h.push(2);
        h.push(8);
        assert_eq!(h.peek(), Some(&8));
        assert_eq!(h.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedMaxHeap::<i32>::new(0);
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut h = BoundedMaxHeap::unbounded();
        for v in 0..1000 {
            assert_eq!(h.push(v), None);
        }
        assert_eq!(h.len(), 1000);
        assert!(!h.is_full());
    }

    #[test]
    fn clear_empties() {
        let mut h = BoundedMaxHeap::new(4);
        h.push(1);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn iter_desc_matches_pop_order() {
        let mut h = BoundedMaxHeap::new(8);
        for v in [4, 2, 9] {
            h.push(v);
        }
        let seen: Vec<i32> = h.iter_desc().copied().collect();
        assert_eq!(seen, vec![9, 4, 2]);
    }
}
