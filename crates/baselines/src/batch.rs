//! Plain batch ER (`F_batch`).
//!
//! No prioritization whatsoever: comparisons are generated block by block
//! in block-id order (i.e. token discovery order — arbitrary but
//! deterministic) with hash-set redundancy removal, and executed in that
//! order. Progressive behaviour is absent by construction; batch ER is the
//! baseline whose *eventual* quality the progressive methods must reach
//! (Definition 1) and whose matches-over-time curve is the step function of
//! Figure 1.

use std::collections::HashSet;

use pier_blocking::{BlockId, IncrementalBlocker};
use pier_core::ComparisonEmitter;
use pier_types::{Comparison, ProfileId, WeightedComparison};

/// The batch ER emitter.
#[derive(Debug, Default)]
pub struct BatchEr {
    /// Blocks whose comparisons were already generated.
    generated_blocks: HashSet<BlockId>,
    /// All pairs ever queued (redundancy removal).
    seen: HashSet<Comparison>,
    queue: std::collections::VecDeque<Comparison>,
    ops: u64,
}

impl BatchEr {
    /// Creates a batch ER emitter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates the comparisons of every block not yet generated, in
    /// block-id order.
    fn generate_all(&mut self, blocker: &IncrementalBlocker) {
        let collection = blocker.collection();
        let kind = collection.kind();
        let mut block_ids: Vec<BlockId> = collection
            .active_blocks()
            .filter(|(bid, b)| !self.generated_blocks.contains(bid) && b.cardinality(kind) > 0)
            .map(|(bid, _)| bid)
            .collect();
        block_ids.sort_unstable();
        for bid in block_ids {
            self.generated_blocks.insert(bid);
            let block = collection.block(bid).expect("active block");
            let members: Vec<ProfileId> = block.members().collect();
            for (i, &x) in members.iter().enumerate() {
                for &y in &members[i + 1..] {
                    self.ops += 1;
                    if kind == pier_types::ErKind::CleanClean
                        && collection.source_of(x) == collection.source_of(y)
                    {
                        continue;
                    }
                    let cmp = Comparison::new(x, y);
                    if self.seen.insert(cmp) {
                        self.queue.push_back(cmp);
                    }
                }
            }
        }
    }
}

impl ComparisonEmitter for BatchEr {
    fn on_increment(&mut self, blocker: &IncrementalBlocker, _new_ids: &[ProfileId]) {
        self.generate_all(blocker);
    }

    /// Batch ER does not rank: every comparison carries weight 0.0, and
    /// the batch is in generation (block-id) order.
    fn next_weighted_batch(
        &mut self,
        _blocker: &IncrementalBlocker,
        k: usize,
    ) -> Vec<WeightedComparison> {
        let take = k.min(self.queue.len());
        self.ops += take as u64;
        self.queue
            .drain(..take)
            .map(|cmp| WeightedComparison::new(cmp, 0.0))
            .collect()
    }

    fn drain_ops(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }

    fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    fn name(&self) -> String {
        "BATCH".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn generates_all_non_redundant_comparisons() {
        let b = blocker(&["aa bb", "aa bb", "aa cc", "bb cc"]);
        let mut e = BatchEr::new();
        e.on_increment(&b, &[]);
        let mut all = Vec::new();
        loop {
            let batch = e.next_batch(&b, 3);
            if batch.is_empty() {
                break;
            }
            all.extend(batch);
        }
        // Blocks: aa={0,1,2}, bb={0,1,3}, cc={2,3} -> pairs
        // (0,1),(0,2),(1,2),(0,3),(1,3),(2,3) = 6 distinct.
        assert_eq!(all.len(), 6);
        let set: HashSet<Comparison> = all.iter().copied().collect();
        assert_eq!(set.len(), 6, "no duplicates");
    }

    #[test]
    fn later_increments_only_add_new_blocks() {
        let mut b = blocker(&["aa bb", "aa bb"]);
        let mut e = BatchEr::new();
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        let first: Vec<Comparison> = e.next_batch(&b, 100);
        assert_eq!(first.len(), 1);
        // New profile joins block aa: the block was already generated, so
        // only the freshly appearing block dd yields the remaining pairs...
        b.process_profile(EntityProfile::new(ProfileId(2), SourceId(0)).with("t", "dd ee"));
        b.process_profile(EntityProfile::new(ProfileId(3), SourceId(0)).with("t", "dd ee"));
        e.on_increment(&b, &[ProfileId(2), ProfileId(3)]);
        let second = e.next_batch(&b, 100);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0], Comparison::new(ProfileId(2), ProfileId(3)));
    }

    #[test]
    fn emission_order_is_block_id_order() {
        let b = blocker(&["first shared", "first shared", "later token", "later token"]);
        let mut e = BatchEr::new();
        e.on_increment(&b, &[]);
        let all = e.next_batch(&b, 100);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], Comparison::new(ProfileId(0), ProfileId(1)));
    }

    #[test]
    fn respects_k() {
        let b = blocker(&["zz", "zz", "zz"]);
        let mut e = BatchEr::new();
        e.on_increment(&b, &[]);
        assert_eq!(e.next_batch(&b, 2).len(), 2);
        assert!(e.has_pending());
        assert_eq!(e.next_batch(&b, 2).len(), 1);
        assert!(!e.has_pending());
    }

    #[test]
    fn ops_count_generation_work() {
        let b = blocker(&["ww xx", "ww xx"]);
        let mut e = BatchEr::new();
        e.on_increment(&b, &[]);
        assert!(e.drain_ops() > 0);
    }
}
