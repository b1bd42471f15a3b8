//! I-PBS — Incremental Progressive Block Scheduling (Algorithm 3).
//!
//! The block-centric strategy, built on the hypothesis that *smaller blocks
//! are more likely to contain duplicates*. Two global indexes track pending
//! work: the cardinality index `CI` (block → number of unexecuted
//! comparisons contributed by newly arrived profiles) and the profile index
//! `PI` (block → unexecuted profiles). The block `b_min` with minimal
//! `CI(b)` is materialized into the comparison index when the index is
//! empty or when the index's top comparison originates from a block smaller
//! than `b_min` (the paper's literal line-9 condition; see DESIGN.md §3).
//! Repeats are decided exactly by visit order (DESIGN.md §14), not with the
//! paper's scalable Bloom filter `CF` (reference \[16\]).
//!
//! The comparison index orders by `(bsize, weight)`: smaller generating
//! block first, then higher CBS weight.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pier_blocking::{BlockId, IncrementalBlocker};
use pier_collections::{BoundedMaxHeap, FxHashMap, FxHashSet, LazyMinHeap};
use pier_observe::{Event, Observer};
use pier_types::{Comparison, ProfileId, WeightedComparison};

use crate::framework::{ComparisonEmitter, PierConfig, Visits};

/// An entry of the I-PBS comparison index. The paper's weight is the pair
/// `⟨bsize, weight⟩`: comparisons from smaller blocks rank higher, CBS
/// weight breaks ties within a block.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PbsEntry {
    bsize: usize,
    weight: f64,
    cmp: Comparison,
}

impl Eq for PbsEntry {}

impl PartialOrd for PbsEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PbsEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: "greater" = better = smaller bsize, then larger weight,
        // then smaller pair (for determinism).
        other
            .bsize
            .cmp(&self.bsize)
            .then_with(|| {
                self.weight
                    .partial_cmp(&other.weight)
                    .expect("non-NaN weights")
            })
            .then_with(|| other.cmp.cmp(&self.cmp))
    }
}

/// The I-PBS emitter.
pub struct Ipbs {
    index: BoundedMaxHeap<PbsEntry>,
    /// `CI`: pending-comparison counts with an O(log n) argmin.
    ci: LazyMinHeap<u64, BlockId>,
    /// `PI`: unexecuted profiles per block.
    pi: FxHashMap<BlockId, Vec<ProfileId>>,
    /// Each block's mark: every pair of its members up to it is out.
    visits: Visits,
    /// Pairs handed out with a member past their block's unexecuted ones
    /// (not yet weighed, or joined after a purge): no visit mark covers them.
    beyond: FxHashSet<Comparison>,
    /// Materialized pairs the bounded index displaced or refused; the next
    /// refill hands them back before it materializes another block.
    owed: BinaryHeap<PbsEntry>,
    ops: u64,
    observer: Observer,
}

impl Ipbs {
    /// Creates an I-PBS emitter.
    pub fn new(config: PierConfig) -> Self {
        Ipbs {
            index: BoundedMaxHeap::new(config.index_capacity),
            ci: LazyMinHeap::new(),
            pi: FxHashMap::default(),
            visits: Visits::default(),
            beyond: FxHashSet::default(),
            owed: BinaryHeap::new(),
            ops: 0,
            observer: Observer::disabled(),
        }
    }

    /// Algorithm 3 lines 6–16: if the refresh condition holds, materialize
    /// the comparisons of `b_min` into the index and reset its `CI`/`PI`
    /// entries. Pairs the index left out earlier go back first, one per op,
    /// and no block is materialized while any are left. Returns whether
    /// owed pairs were handed back or a block with unexecuted profiles was
    /// materialized.
    fn try_refill(&mut self, blocker: &IncrementalBlocker) -> bool {
        if !self.owed.is_empty() {
            while let Some(entry) = self.owed.pop() {
                self.ops += 1;
                if let Some(lost) = self.index.push(entry) {
                    self.owed.push(lost);
                    break;
                }
            }
            return true;
        }
        let collection = blocker.collection();
        let Some((b_min, _count)) = self.ci.peek_min() else {
            return false;
        };
        let Some(block) = collection.block(b_min) else {
            // Block vanished (cannot happen today, defensive).
            self.ci.remove(&b_min);
            self.pi.remove(&b_min);
            return false;
        };
        let b_min_size = block.len();
        // Line 9: update only when the index is exhausted or its best
        // comparison stems from a block smaller than b_min.
        if let Some(top) = self.index.peek() {
            if top.bsize >= b_min_size {
                return false;
            }
        }
        self.ci.remove(&b_min);
        let unexecuted = self.pi.remove(&b_min).unwrap_or_default();
        // The unexecuted profiles are the block's members from the first
        // to the last of them in arrival order.
        let Some(last) = unexecuted.iter().map(|&p| collection.arrival(p)).max() else {
            return false;
        };
        let kind = collection.kind();
        for &p_x in &unexecuted {
            let source = collection.source_of(p_x);
            self.visits.stamp(collection, p_x);
            let x_arrival = collection.arrival(p_x);
            for p_y in block.partners_of(p_x, source, kind) {
                self.ops += 1;
                let cmp = Comparison::new(p_x, p_y);
                let y_arrival = collection.arrival(p_y);
                // Two unexecuted profiles meet twice: the later one takes
                // the pair.
                let twice = x_arrival < y_arrival && y_arrival <= last;
                let weight = match self.visits.weigh(collection, x_arrival, p_y) {
                    Some(cbs) if !twice && !self.beyond.contains(&cmp) => cbs,
                    _ => {
                        self.observer.emit(|| Event::CfFiltered { cmp });
                        continue; // redundant (line 11)
                    }
                };
                if y_arrival > last {
                    self.beyond.insert(cmp);
                }
                self.ops += collection
                    .blocks_of(cmp.a)
                    .len()
                    .min(collection.blocks_of(cmp.b).len()) as u64;
                let entry = PbsEntry {
                    bsize: b_min_size,
                    weight: weight as f64,
                    cmp,
                };
                if let Some(lost) = self.index.push(entry) {
                    self.owed.push(lost);
                }
            }
        }
        self.visits.mark(b_min, last as u32);
        true
    }
}

impl ComparisonEmitter for Ipbs {
    fn on_increment(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
        let collection = blocker.collection();
        let kind = collection.kind();
        // Lines 1–5: bump CI and PI for every block of every new profile.
        for &p in new_ids {
            let source = collection.source_of(p);
            for (bid, _) in collection.active_blocks_of(p) {
                let block = collection.block(bid).expect("active block");
                let new_cmps = block.partner_count(p, source, kind) as u64;
                self.ops += 1;
                let current = self.ci.get(&bid).unwrap_or(0);
                self.ci.set(bid, current + new_cmps);
                self.pi.entry(bid).or_default().push(p);
            }
        }
        // Lines 6–16: one refresh attempt per update, as in the paper.
        self.try_refill(blocker);
    }

    fn next_weighted_batch(
        &mut self,
        blocker: &IncrementalBlocker,
        k: usize,
    ) -> Vec<WeightedComparison> {
        // The exposed weight is the entry's CBS tie-breaker: a global
        // merger then interleaves shards weight-ordered while each shard's
        // own block-centric (bsize-first) order decided *which* pairs were
        // materialized.
        let mut batch = Vec::with_capacity(k.min(self.index.len()));
        while batch.len() < k {
            if self.index.is_empty() && !self.try_refill(blocker) {
                break;
            }
            if let Some(entry) = self.index.pop() {
                self.ops += 1;
                self.observer.emit(|| Event::ComparisonEmitted {
                    cmp: entry.cmp,
                    weight: entry.weight,
                });
                batch.push(WeightedComparison::new(entry.cmp, entry.weight));
            }
        }
        batch
    }

    fn drain_ops(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }

    fn has_pending(&self) -> bool {
        !self.index.is_empty() || !self.owed.is_empty() || !self.ci.is_empty()
    }

    fn name(&self) -> String {
        "I-PBS".to_string()
    }

    fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::drain_all_unique;
    use pier_types::{EntityProfile, ErKind, SourceId};

    fn blocker(texts: &[&str]) -> IncrementalBlocker {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        for (i, t) in texts.iter().enumerate() {
            b.process_profile(
                EntityProfile::new(ProfileId(i as u32), SourceId(0)).with("text", *t),
            );
        }
        b
    }

    fn feed(e: &mut Ipbs, b: &IncrementalBlocker, n: u32) {
        let ids: Vec<ProfileId> = (0..n).map(ProfileId).collect();
        e.on_increment(b, &ids);
    }

    #[test]
    fn smaller_blocks_are_emitted_first() {
        // "rare" appears in 2 profiles (small block), "common" in 4.
        let b = blocker(&[
            "rare common",
            "rare common",
            "common filler1",
            "common filler2",
        ]);
        let mut e = Ipbs::new(PierConfig::default());
        feed(&mut e, &b, 4);
        let first = e.next_batch(&b, 1);
        // The pair sharing the rare (smallest) block comes first.
        assert_eq!(first, vec![Comparison::new(ProfileId(0), ProfileId(1))]);
    }

    #[test]
    fn all_comparisons_eventually_emitted_without_duplicates() {
        let b = blocker(&["aa bb", "aa bb", "aa cc", "bb cc"]);
        let mut e = Ipbs::new(PierConfig::default());
        feed(&mut e, &b, 4);
        let all = drain_all_unique(&mut e, &b, 8);
        // Blocks: a={0,1,2}, b={0,1,3}, c={2,3}.
        // Distinct pairs: (0,1),(0,2),(1,2),(0,3),(1,3),(2,3) = 6.
        assert_eq!(all.len(), 6);
        assert!(!e.has_pending());
    }

    #[test]
    fn weight_breaks_ties_within_a_block() {
        // Block "x" = {0,1,2}; pair (0,1) also shares "y" (CBS 2), (0,2)
        // and (1,2) share only "x" (CBS 1).
        let b = blocker(&["xx yy", "xx yy", "xx zz"]);
        let mut e = Ipbs::new(PierConfig::default());
        feed(&mut e, &b, 3);
        // Drain until we see comparisons from the size-3 block "x".
        let mut order = Vec::new();
        loop {
            let batch = e.next_batch(&b, 1);
            if batch.is_empty() {
                break;
            }
            order.push(batch[0]);
        }
        let c01 = Comparison::new(ProfileId(0), ProfileId(1));
        let c02 = Comparison::new(ProfileId(0), ProfileId(2));
        let c12 = Comparison::new(ProfileId(1), ProfileId(2));
        let pos = |c| order.iter().position(|&x| x == c).unwrap();
        assert!(pos(c01) < pos(c02));
        assert!(pos(c01) < pos(c12));
    }

    #[test]
    fn refill_waits_while_top_is_from_smaller_block() {
        // First increment: two profiles sharing a rare token (block size 2).
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        b.process_profile(EntityProfile::new(ProfileId(0), SourceId(0)).with("t", "tiny"));
        b.process_profile(EntityProfile::new(ProfileId(1), SourceId(0)).with("t", "tiny"));
        let mut e = Ipbs::new(PierConfig::default());
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        assert_eq!(e.index.len(), 1); // (0,1) materialized, bsize 2
                                      // Second increment: three profiles in a bigger block.
        for i in 2..5u32 {
            b.process_profile(EntityProfile::new(ProfileId(i), SourceId(0)).with("t", "big"));
        }
        e.on_increment(&b, &[ProfileId(2), ProfileId(3), ProfileId(4)]);
        // Top bsize (2) < |b_min| (3) -> the paper's condition *does*
        // materialize the bigger block behind the top.
        assert!(e.index.len() > 1);
        // And the small-block pair is still emitted first.
        let first = e.next_batch(&b, 1);
        assert_eq!(first, vec![Comparison::new(ProfileId(0), ProfileId(1))]);
    }

    #[test]
    fn clean_clean_pairs_are_cross_source() {
        let mut b = IncrementalBlocker::new(ErKind::CleanClean);
        b.process_profile(EntityProfile::new(ProfileId(0), SourceId(0)).with("t", "tok"));
        b.process_profile(EntityProfile::new(ProfileId(1), SourceId(0)).with("t", "tok"));
        b.process_profile(EntityProfile::new(ProfileId(2), SourceId(1)).with("t", "tok"));
        let mut e = Ipbs::new(PierConfig::default());
        feed(&mut e, &b, 3);
        let mut all = Vec::new();
        loop {
            let batch = e.next_batch(&b, 8);
            if batch.is_empty() {
                break;
            }
            all.extend(batch);
        }
        assert_eq!(all.len(), 2);
        for c in all {
            assert_ne!(b.collection().source_of(c.a), b.collection().source_of(c.b));
        }
    }

    #[test]
    fn ops_are_charged() {
        let b = blocker(&["qq rr", "qq rr"]);
        let mut e = Ipbs::new(PierConfig::default());
        feed(&mut e, &b, 2);
        e.next_batch(&b, 4);
        assert!(e.drain_ops() > 0);
    }

    #[test]
    fn empty_emitter_has_no_pending() {
        let b = blocker(&[]);
        let e = Ipbs::new(PierConfig::default());
        let _ = &b;
        assert!(!e.has_pending());
    }
}
