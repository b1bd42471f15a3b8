//! I-PES — Incremental Progressive Entity Scheduling (Algorithm 4).
//!
//! The entity-centric strategy and the paper's overall method of choice.
//! Instead of trusting raw comparison weights (I-PCS) or block sizes
//! (I-PBS), I-PES ranks *entities* by their duplication likelihood and
//! emits each entity's best comparison when the entity's turn comes. The
//! `CmpIndex` is the triple `⟨EntityQueue, E_PQ, PQ⟩`:
//!
//! * `E_PQ` maps each profile to a priority queue of its weighted
//!   comparisons;
//! * `EntityQueue` holds `⟨profile, weight⟩` tuples, weight being the
//!   profile's best comparison weight at insertion time;
//! * `PQ` is a bounded queue of low-weight leftovers.
//!
//! New comparisons are distributed by a *double pruning* rule: a comparison
//! enters `E_PQ(p)` if it beats `p`'s current best, else the other
//! endpoint's best, else (if above the global running average) the smaller
//! of the two entity queues — but only if it also beats that entity's own
//! running average (`insert()`); everything else falls into `PQ`. This
//! bounds memory and sheds superfluous comparisons without a meta-blocking
//! graph, which is what makes the approach incrementally maintainable (§6).
//! What `PQ` evicts is not lost: repeats are decided exactly as in I-PCS
//! (DESIGN.md §14), so the `GetComparisons` fallback hands it out later.

use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

use pier_blocking::IncrementalBlocker;
use pier_collections::{BoundedMaxHeap, FxHashMap, ScratchStats};
use pier_metablocking::Iwnp;
use pier_observe::{Event, Observer};
use pier_types::{ProfileId, WeightedComparison};

use crate::framework::{
    generate_for_profile_observed, refill_from_blocks, ComparisonEmitter, Fallback, FallbackSink,
    PierConfig,
};

/// An `EntityQueue` entry: `⟨profile, weight⟩`, max-ordered by weight.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EntityEntry {
    weight: f64,
    profile: ProfileId,
}

impl Eq for EntityEntry {}

impl PartialOrd for EntityEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EntityEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.weight
            .partial_cmp(&other.weight)
            .expect("non-NaN weights")
            .then_with(|| other.profile.cmp(&self.profile))
    }
}

/// Per-entity insertion statistics backing the `insert()` average test.
#[derive(Debug, Clone, Copy, Default)]
struct EntityStats {
    sum: f64,
    count: u64,
}

impl EntityStats {
    fn average(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The I-PES emitter.
pub struct Ipes {
    config: PierConfig,
    entity_queue: BinaryHeap<EntityEntry>,
    epq: FxHashMap<ProfileId, BinaryHeap<WeightedComparison>>,
    stats: FxHashMap<ProfileId, EntityStats>,
    pq: BoundedMaxHeap<WeightedComparison>,
    /// Global running sum/count of all distributed comparison weights.
    total: f64,
    count: u64,
    /// The exact repeat record: the fallback's block visits, and the I-WNP
    /// pairs `E_PQ` and `PQ` kept.
    fallback: Fallback,
    /// Reusable I-WNP executor (warm scratch across arrivals).
    iwnp: Iwnp,
    ops: u64,
    observer: Observer,
}

impl Ipes {
    /// Creates an I-PES emitter.
    pub fn new(config: PierConfig) -> Self {
        Ipes {
            entity_queue: BinaryHeap::new(),
            epq: FxHashMap::default(),
            stats: FxHashMap::default(),
            pq: BoundedMaxHeap::new(config.index_capacity),
            total: 0.0,
            count: 0,
            fallback: Fallback::default(),
            iwnp: Iwnp::new(),
            config,
            ops: 0,
            observer: Observer::disabled(),
        }
    }

    fn push_epq(&mut self, owner: ProfileId, wc: WeightedComparison) {
        let stat = self.stats.entry(owner).or_default();
        stat.sum += wc.weight;
        stat.count += 1;
        self.epq.entry(owner).or_default().push(wc);
        self.ops += 1;
    }

    /// Distributes one weighted comparison per Algorithm 4, lines 1–14,
    /// and returns the one the bounded `PQ` left out, if any. It is known
    /// not to be a repeat ([`FallbackSink::offer`] for I-WNP pairs,
    /// `refill_from_blocks` for the fallback's).
    fn distribute(&mut self, wc: WeightedComparison) -> Option<WeightedComparison> {
        let (p_x, p_y) = (wc.cmp.a, wc.cmp.b);
        let w = wc.weight;
        self.total += w;
        self.count += 1;
        let top_x = self
            .epq
            .get(&p_x)
            .and_then(|h| h.peek())
            .map_or(f64::NEG_INFINITY, |t| t.weight);
        let top_y = self
            .epq
            .get(&p_y)
            .and_then(|h| h.peek())
            .map_or(f64::NEG_INFINITY, |t| t.weight);
        let lost = if top_x < w {
            self.push_epq(p_x, wc);
            self.entity_queue.push(EntityEntry {
                weight: w,
                profile: p_x,
            });
            None
        } else if top_y < w {
            self.push_epq(p_y, wc);
            self.entity_queue.push(EntityEntry {
                weight: w,
                profile: p_y,
            });
            None
        } else if w > self.total / self.count as f64 {
            // Route to the endpoint with the smaller queue...
            let len_x = self.epq.get(&p_x).map_or(0, BinaryHeap::len);
            let len_y = self.epq.get(&p_y).map_or(0, BinaryHeap::len);
            let owner = if len_x <= len_y { p_x } else { p_y };
            // ...but only if it beats that entity's own running average
            // (the second half of the double pruning).
            let avg = self
                .stats
                .get(&owner)
                .copied()
                .unwrap_or_default()
                .average();
            if w > avg {
                self.push_epq(owner, wc);
                None
            } else {
                self.pq.push(wc)
            }
        } else {
            self.pq.push(wc)
        };
        self.ops += 1;
        lost
    }

    /// `CmpIndex.dequeue()`: pop the best entity, then its best comparison.
    /// Refills `EntityQueue` from `E_PQ` when it runs dry.
    fn dequeue_entity_path(&mut self) -> Option<WeightedComparison> {
        loop {
            if let Some(entry) = self.entity_queue.pop() {
                self.ops += 1;
                if let Entry::Occupied(mut occ) = self.epq.entry(entry.profile) {
                    if let Some(wc) = occ.get_mut().pop() {
                        if occ.get().is_empty() {
                            occ.remove();
                        }
                        return Some(wc);
                    }
                    occ.remove();
                }
                // Stale entry (entity already drained): keep popping.
                continue;
            }
            // EntityQueue exhausted: rebuild it from every non-empty E_PQ.
            let mut refilled = false;
            for (&e, heap) in &self.epq {
                if let Some(top) = heap.peek() {
                    self.entity_queue.push(EntityEntry {
                        weight: top.weight,
                        profile: e,
                    });
                    refilled = true;
                    self.ops += 1;
                }
            }
            if !refilled {
                return None;
            }
        }
    }

    fn index_is_empty(&self) -> bool {
        self.pq.is_empty() && self.epq.is_empty() && self.entity_queue.is_empty()
    }
}

impl FallbackSink for Ipes {
    fn fallback(&mut self) -> &mut Fallback {
        &mut self.fallback
    }

    fn observer(&self) -> &Observer {
        &self.observer
    }

    fn accept(&mut self, wc: WeightedComparison) -> Option<WeightedComparison> {
        self.distribute(wc)
    }
}

impl ComparisonEmitter for Ipes {
    fn on_increment(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
        // Algorithm 2 lines 1–9 (shared generation pipeline)...
        for &p in new_ids {
            let (list, ops) = generate_for_profile_observed(
                blocker,
                p,
                &self.config,
                &mut self.iwnp,
                &self.observer,
            );
            self.ops += ops;
            // ...then Algorithm 4's distribution instead of a flat enqueue.
            for wc in list {
                self.offer(blocker.collection(), wc);
            }
        }
        // Algorithm 2 lines 10–11: block-cursor fallback when idle.
        if new_ids.is_empty() && self.index_is_empty() {
            self.ops += refill_from_blocks(self, blocker);
        }
    }

    fn next_weighted_batch(
        &mut self,
        _blocker: &IncrementalBlocker,
        k: usize,
    ) -> Vec<WeightedComparison> {
        // The `GetComparisons` fallback runs exclusively on empty-increment
        // ticks (input idle), never mid-stream — see I-PCS.
        let mut batch = Vec::with_capacity(k);
        while batch.len() < k {
            if let Some(wc) = self.dequeue_entity_path() {
                self.observer.emit(|| Event::ComparisonEmitted {
                    cmp: wc.cmp,
                    weight: wc.weight,
                });
                batch.push(wc);
                continue;
            }
            // Entity structures dry: take the missing comparisons from PQ.
            if let Some(wc) = self.pq.pop() {
                self.ops += 1;
                self.observer.emit(|| Event::ComparisonEmitted {
                    cmp: wc.cmp,
                    weight: wc.weight,
                });
                batch.push(wc);
                continue;
            }
            break;
        }
        batch
    }

    fn drain_ops(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }

    fn has_pending(&self) -> bool {
        !self.index_is_empty()
    }

    fn name(&self) -> String {
        "I-PES".to_string()
    }

    fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    fn scratch_stats(&self) -> Option<ScratchStats> {
        Some(self.iwnp.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::drain_all_unique;
    use pier_types::{Comparison, EntityProfile, ErKind, SourceId};

    fn blocker(texts: &[&str]) -> IncrementalBlocker {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        for (i, t) in texts.iter().enumerate() {
            b.process_profile(
                EntityProfile::new(ProfileId(i as u32), SourceId(0)).with("text", *t),
            );
        }
        b
    }

    fn feed(e: &mut Ipes, b: &IncrementalBlocker, n: u32) {
        let ids: Vec<ProfileId> = (0..n).map(ProfileId).collect();
        e.on_increment(b, &ids);
    }

    #[test]
    fn best_entity_comparison_comes_first() {
        let b = blocker(&[
            "alpha beta gamma delta",
            "alpha beta gamma delta",
            "alpha noise1 noise2",
        ]);
        let mut e = Ipes::new(PierConfig::default());
        feed(&mut e, &b, 3);
        let batch = e.next_batch(&b, 1);
        assert_eq!(batch, vec![Comparison::new(ProfileId(0), ProfileId(1))]);
    }

    #[test]
    fn no_duplicate_emissions() {
        let b = blocker(&["xx yy", "xx yy", "xx zz", "yy zz"]);
        let mut e = Ipes::new(PierConfig::default());
        feed(&mut e, &b, 4);
        let all = drain_all_unique(&mut e, &b, 4);
        assert!(!all.is_empty());
        assert!(!e.has_pending());
    }

    #[test]
    fn low_weight_comparisons_fall_to_pq_but_are_not_lost() {
        // Many profiles sharing one common token and a strong pair.
        let mut texts = vec!["strong pair match", "strong pair match"];
        let fillers: Vec<String> = (0..6).map(|i| format!("common extra{i}")).collect();
        texts.extend(fillers.iter().map(String::as_str));
        let b = blocker(&texts);
        let mut e = Ipes::new(PierConfig::default());
        feed(&mut e, &b, 8);
        let mut all = Vec::new();
        loop {
            let batch = e.next_batch(&b, 16);
            if batch.is_empty() {
                // Idle tick: lets the GetComparisons fallback refill.
                e.drain_ops();
                e.on_increment(&b, &[]);
                if e.drain_ops() == 0 {
                    break;
                }
                continue;
            }
            all.extend(batch);
        }
        // The strong pair is emitted, and emitted early.
        let strong = Comparison::new(ProfileId(0), ProfileId(1));
        assert_eq!(all[0], strong);
        // Common-token pairs also get their turn eventually.
        assert!(all.len() > 1);
    }

    #[test]
    fn entity_queue_refills_after_draining() {
        let b = blocker(&["pp qq rr", "pp qq rr", "pp qq ss", "qq rr ss"]);
        let mut e = Ipes::new(PierConfig::default());
        feed(&mut e, &b, 4);
        // Drain one at a time; the entity queue must refill transparently.
        let mut count = 0;
        while !e.next_batch(&b, 1).is_empty() {
            count += 1;
            assert!(count < 100, "runaway loop");
        }
        assert!(count >= 3);
    }

    #[test]
    fn empty_tick_triggers_fallback() {
        let b = blocker(&["mm nn", "mm nn"]);
        let mut e = Ipes::new(PierConfig::default());
        e.on_increment(&b, &[]);
        assert!(e.has_pending());
        assert_eq!(e.next_batch(&b, 4).len(), 1);
    }

    /// Number of comparisons stored across `E_PQ` and `PQ`.
    fn stored_comparisons(e: &Ipes) -> usize {
        e.epq.values().map(BinaryHeap::len).sum::<usize>() + e.pq.len()
    }

    #[test]
    fn stored_comparisons_reflects_structures() {
        let b = blocker(&["aa bb cc", "aa bb cc", "aa bb dd"]);
        let mut e = Ipes::new(PierConfig::default());
        feed(&mut e, &b, 3);
        assert!(stored_comparisons(&e) > 0);
        while !e.next_batch(&b, 8).is_empty() {}
        assert_eq!(stored_comparisons(&e), 0);
    }

    #[test]
    fn running_average_prunes_into_pq() {
        let mut e = Ipes::new(PierConfig::default());
        // Distribute directly to exercise the branches deterministically.
        let mk = |a: u32, b: u32, w: f64| {
            WeightedComparison::new(Comparison::new(ProfileId(a), ProfileId(b)), w)
        };
        e.distribute(mk(0, 1, 10.0)); // tops for 0
        e.distribute(mk(0, 2, 5.0)); // beats top of 2 -> E_PQ(2)
        e.distribute(mk(0, 3, 4.0)); // beats top of 3 -> E_PQ(3)
                                     // Now a weight below every top and below global average -> PQ.
        e.distribute(mk(2, 3, 1.0));
        assert!(!e.pq.is_empty());
    }

    #[test]
    fn ops_accumulate() {
        let b = blocker(&["kk ll", "kk ll"]);
        let mut e = Ipes::new(PierConfig::default());
        feed(&mut e, &b, 2);
        assert!(e.drain_ops() > 0);
        assert_eq!(e.drain_ops(), 0);
    }
}
