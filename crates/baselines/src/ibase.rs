//! I-BASE — the incremental (but not progressive) baseline \[17\].
//!
//! The state-of-the-art incremental ER pipeline the paper extends: for each
//! arriving profile, incremental blocking → block ghosting → I-WNP selects
//! a set of comparisons, *all* of which are executed in generation (FIFO)
//! order. Two properties distinguish it from the PIER algorithms:
//!
//! 1. **No prioritization** — comparisons run in arrival order, so early
//!    quality is whatever the stream order yields.
//! 2. **No adaptivity** — the number of comparisons generated per increment
//!    is fixed by blocking/cleaning alone, "independently of the input rate
//!    or the system's response" (§7.3.1). With an expensive matcher the
//!    FIFO backlog grows without bound and stream consumption stalls.
//!
//! Only two profiles of one increment can both retain a pair, so an exact
//! set of the increment's pairs drops I-WNP's repeats (DESIGN.md §14).

use std::collections::VecDeque;

use pier_blocking::IncrementalBlocker;
use pier_collections::{FxHashSet, ScratchStats};
use pier_core::{framework::generate_for_profile, ComparisonEmitter, PierConfig};
use pier_metablocking::Iwnp;
use pier_types::{Comparison, ProfileId, WeightedComparison};

/// The I-BASE emitter.
pub struct IBase {
    config: PierConfig,
    /// Retained comparisons in generation order, with their I-WNP weight.
    queue: VecDeque<WeightedComparison>,
    /// The pairs enqueued during the current increment.
    enqueued: FxHashSet<Comparison>,
    iwnp: Iwnp,
    ops: u64,
}

impl IBase {
    /// Creates an I-BASE emitter (same β/scheme configuration as the PIER
    /// strategies, so eventual quality is comparable).
    pub fn new(config: PierConfig) -> Self {
        IBase {
            config,
            queue: VecDeque::new(),
            enqueued: FxHashSet::default(),
            iwnp: Iwnp::new(),
            ops: 0,
        }
    }

    /// Current FIFO backlog (the quantity that explodes on fast streams).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }
}

impl ComparisonEmitter for IBase {
    fn on_increment(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
        self.enqueued.clear();
        for &p in new_ids {
            let (list, ops) = generate_for_profile(blocker, p, &self.config, &mut self.iwnp);
            self.ops += ops;
            for wc in list {
                if self.enqueued.insert(wc.cmp) {
                    self.queue.push_back(wc);
                    self.ops += 1;
                }
            }
        }
    }

    fn next_weighted_batch(
        &mut self,
        _blocker: &IncrementalBlocker,
        _k: usize,
    ) -> Vec<WeightedComparison> {
        // Non-adaptive: the whole backlog is handed over regardless of `k`.
        self.ops += self.queue.len() as u64;
        self.queue.drain(..).collect()
    }

    fn drain_ops(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }

    fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    fn name(&self) -> String {
        "I-BASE".to_string()
    }

    fn scratch_stats(&self) -> Option<ScratchStats> {
        Some(self.iwnp.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn emits_in_generation_order_ignoring_k() {
        let b = blocker(&["aa bb", "aa bb", "aa bb cc", "cc dd"]);
        let mut e = IBase::new(PierConfig::default());
        e.on_increment(
            &b,
            &[ProfileId(0), ProfileId(1), ProfileId(2), ProfileId(3)],
        );
        let backlog = e.backlog();
        assert!(backlog >= 2);
        // k = 1 is ignored: everything is handed over at once.
        let batch = e.next_batch(&b, 1);
        assert_eq!(batch.len(), backlog);
        assert!(!e.has_pending());
    }

    #[test]
    fn never_enqueues_a_pair_twice() {
        let mut b = blocker(&["xx yy", "xx yy"]);
        let mut e = IBase::new(PierConfig::default());
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        let first = e.next_batch(&b, 100);
        assert_eq!(first.len(), 1);
        // A third profile sharing the block generates pairs to 0 and 1 but
        // must not regenerate (0,1).
        b.process_profile(EntityProfile::new(ProfileId(2), SourceId(0)).with("t", "xx yy"));
        e.on_increment(&b, &[ProfileId(2)]);
        let second = e.next_batch(&b, 100);
        assert_eq!(second.len(), 2);
        assert!(!second.contains(&Comparison::new(ProfileId(0), ProfileId(1))));
    }

    #[test]
    fn empty_tick_generates_nothing() {
        let b = blocker(&["mm nn", "mm nn"]);
        let mut e = IBase::new(PierConfig::default());
        e.on_increment(&b, &[]);
        assert_eq!(e.backlog(), 0);
        assert!(!e.has_pending());
    }

    #[test]
    fn iwnp_prunes_weak_candidates() {
        // p3 shares 3 tokens with p0 and 1 token with p1/p2: I-WNP keeps
        // only the strong candidate.
        let b = blocker(&["t1 t2 t3", "t4 filler0", "t5 filler1", "t1 t2 t3 t4 t5"]);
        let mut e = IBase::new(PierConfig::default());
        e.on_increment(&b, &[ProfileId(3)]);
        let batch = e.next_batch(&b, 100);
        assert_eq!(batch, vec![Comparison::new(ProfileId(0), ProfileId(3))]);
    }

    #[test]
    fn ops_accumulate() {
        let b = blocker(&["qq rr", "qq rr"]);
        let mut e = IBase::new(PierConfig::default());
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        assert!(e.drain_ops() > 0);
    }
}
