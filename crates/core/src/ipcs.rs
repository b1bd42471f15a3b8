//! I-PCS — Incremental Progressive Comparison Scheduling (Algorithm 2).
//!
//! The comparison-centric strategy: a single bounded priority queue
//! (`CmpIndex`) holds the best unexecuted comparisons over all profiles
//! seen so far, weighted by the incremental CBS approximation. For each
//! arriving profile, its candidate comparisons are generated (block
//! ghosting → I-WNP) and enqueued; the best `K` are dequeued per round.
//! When both the stream and the index are exhausted, `GetComparisons`
//! (the [`crate::BlockCursor`] fallback) feeds comparisons from the smallest
//! remaining blocks so the time budget keeps being used. Repeats are
//! dropped exactly, with no comparison filter (DESIGN.md §14): by block
//! visit order, and by a set of the I-WNP pairs the index kept; an evicted
//! I-WNP pair leaves that set, so the fallback hands it out later.
//!
//! Its strength is simplicity; its weakness (§4, §7) is total dependence on
//! the weighting scheme: CBS over-ranks verbose non-matches, which gets
//! expensive with the ED matcher.

use pier_blocking::IncrementalBlocker;
use pier_collections::{BoundedMaxHeap, ScratchStats};
use pier_metablocking::Iwnp;
use pier_observe::{Event, Observer};
use pier_types::{ProfileId, WeightedComparison};

use crate::framework::{
    generate_for_profile_observed, refill_from_blocks, ComparisonEmitter, Fallback, FallbackSink,
    PierConfig,
};

/// The I-PCS emitter.
pub struct Ipcs {
    config: PierConfig,
    index: BoundedMaxHeap<WeightedComparison>,
    /// The exact repeat record: the fallback's block visits, and the I-WNP
    /// pairs the index kept.
    fallback: Fallback,
    /// Reusable I-WNP executor (warm scratch across arrivals).
    iwnp: Iwnp,
    ops: u64,
    observer: Observer,
}

impl Ipcs {
    /// Creates an I-PCS emitter.
    pub fn new(config: PierConfig) -> Self {
        Ipcs {
            index: BoundedMaxHeap::new(config.index_capacity),
            fallback: Fallback::default(),
            iwnp: Iwnp::new(),
            config,
            ops: 0,
            observer: Observer::disabled(),
        }
    }
}

impl FallbackSink for Ipcs {
    fn fallback(&mut self) -> &mut Fallback {
        &mut self.fallback
    }

    fn observer(&self) -> &Observer {
        &self.observer
    }

    fn accept(&mut self, wc: WeightedComparison) -> Option<WeightedComparison> {
        self.ops += 1;
        self.index.push(wc)
    }
}

impl ComparisonEmitter for Ipcs {
    fn on_increment(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
        for &p in new_ids {
            let (list, ops) = generate_for_profile_observed(
                blocker,
                p,
                &self.config,
                &mut self.iwnp,
                &self.observer,
            );
            self.ops += ops;
            for wc in list {
                self.offer(blocker.collection(), wc);
            }
        }
        // Algorithm 2, lines 10-11: empty increment and empty index —
        // continue with comparisons from the smallest remaining blocks.
        if new_ids.is_empty() && self.index.is_empty() {
            self.ops += refill_from_blocks(self, blocker);
        }
    }

    fn next_weighted_batch(
        &mut self,
        _blocker: &IncrementalBlocker,
        k: usize,
    ) -> Vec<WeightedComparison> {
        // Only the index is drained here; the `GetComparisons` fallback
        // runs exclusively on empty-increment ticks (Algorithm 2, lines
        // 10-11), i.e. when blocking signals that the input is idle —
        // consuming blocks mid-stream would freeze them at partial size.
        let mut batch = Vec::with_capacity(k.min(self.index.len()));
        while batch.len() < k {
            let Some(wc) = self.index.pop() else {
                break;
            };
            self.ops += 1;
            self.observer.emit(|| Event::ComparisonEmitted {
                cmp: wc.cmp,
                weight: wc.weight,
            });
            batch.push(wc);
        }
        batch
    }

    fn drain_ops(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }

    fn has_pending(&self) -> bool {
        !self.index.is_empty()
    }

    fn name(&self) -> String {
        "I-PCS".to_string()
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

    #[test]
    fn emits_best_weighted_first() {
        let b = blocker(&[
            "alpha beta gamma delta",
            "alpha beta gamma delta", // strong match with p0 (4 shared)
            "alpha unrelated words here",
        ]);
        let mut e = Ipcs::new(PierConfig::default());
        e.on_increment(&b, &[ProfileId(0), ProfileId(1), ProfileId(2)]);
        let batch = e.next_batch(&b, 1);
        assert_eq!(batch, vec![Comparison::new(ProfileId(0), ProfileId(1))]);
    }

    #[test]
    fn never_emits_a_pair_twice() {
        let b = blocker(&["xx yy zz", "xx yy zz", "xx yy zz"]);
        let mut e = Ipcs::new(PierConfig::default());
        e.on_increment(&b, &[ProfileId(0), ProfileId(1), ProfileId(2)]);
        // Drain everything, including block-cursor refills.
        let all = drain_all_unique(&mut e, &b, 16);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn empty_tick_triggers_block_fallback() {
        let b = blocker(&["pp qq", "pp qq"]);
        let mut e = Ipcs::new(PierConfig::default());
        // Never told about the profiles — only an empty tick.
        e.on_increment(&b, &[]);
        assert!(e.has_pending());
        let batch = e.next_batch(&b, 10);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn k_bounds_the_batch() {
        let b = blocker(&["aa bb", "aa bb", "aa cc", "bb cc"]);
        let mut e = Ipcs::new(PierConfig::default());
        e.on_increment(
            &b,
            &[ProfileId(0), ProfileId(1), ProfileId(2), ProfileId(3)],
        );
        let batch = e.next_batch(&b, 2);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn ops_accumulate_and_drain() {
        let b = blocker(&["mm nn", "mm nn"]);
        let mut e = Ipcs::new(PierConfig::default());
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        assert!(e.drain_ops() > 0);
        assert_eq!(e.drain_ops(), 0);
    }

    #[test]
    fn bounded_index_evicts_lowest() {
        let cfg = PierConfig {
            index_capacity: 2,
            ..PierConfig::default()
        };
        let b = blocker(&["aa bb cc", "aa bb cc", "aa x1", "bb x2", "cc x3"]);
        let mut e = Ipcs::new(cfg);
        e.on_increment(
            &b,
            &[
                ProfileId(0),
                ProfileId(1),
                ProfileId(2),
                ProfileId(3),
                ProfileId(4),
            ],
        );
        assert!(e.index.len() <= 2);
        // The strongest pair must have survived the evictions.
        let batch = e.next_batch(&b, 1);
        assert_eq!(batch, vec![Comparison::new(ProfileId(0), ProfileId(1))]);
    }

    #[test]
    fn exhausted_emitter_returns_empty() {
        let b = blocker(&["solo profile"]);
        let mut e = Ipcs::new(PierConfig::default());
        e.on_increment(&b, &[ProfileId(0)]);
        assert!(e.next_batch(&b, 5).is_empty());
        assert!(!e.has_pending());
    }
}
