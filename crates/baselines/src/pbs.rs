//! Progressive Block Scheduling (PBS) and its GLOBAL adaptation.
//!
//! PBS \[36\] sorts the block collection ascending by block size; the
//! comparisons *inside* a block are ordered by a meta-blocking weight (CBS
//! here) lazily, when the block's turn comes. Initialization is therefore
//! much cheaper than PPS's graph build — the reason PBS shows the best
//! early quality on large static datasets in §7.2.1 — but it still scans
//! every block and profile occurrence, which as **PBS-GLOBAL** (full
//! re-initialization per increment, §7.3) is re-paid on every increment
//! and swamps fast streams.
//!
//! Driven with a single increment containing the whole dataset this is the
//! batch PBS baseline of Figures 4–6; driven per increment it is
//! PBS-GLOBAL.

use std::collections::{HashSet, VecDeque};

use pier_blocking::{BlockId, IncrementalBlocker};
use pier_collections::EpochStamps;
use pier_core::ComparisonEmitter;
use pier_types::{Comparison, ProfileId, WeightedComparison};

/// The PBS emitter (batch PBS or PBS-GLOBAL depending on how it is driven).
#[derive(Debug)]
pub struct Pbs {
    /// Comparisons already handed to the matcher — never re-emitted across
    /// re-initializations.
    emitted: HashSet<Comparison>,
    /// Blocks of the current schedule, smallest first (snapshot of the last
    /// re-initialization).
    block_queue: VecDeque<BlockId>,
    /// CBS-ordered comparisons of the block currently being drained.
    buffer: VecDeque<WeightedComparison>,
    /// Reusable block-stamp scratch of the CBS kernel.
    stamps: EpochStamps,
    rebuild_cost_multiplier: u64,
    ops: u64,
}

impl Default for Pbs {
    fn default() -> Self {
        Self::new()
    }
}

impl Pbs {
    /// Creates a PBS emitter.
    pub fn new() -> Self {
        Pbs {
            emitted: HashSet::new(),
            block_queue: VecDeque::new(),
            buffer: VecDeque::new(),
            stamps: EpochStamps::new(),
            rebuild_cost_multiplier: 8,
            ops: 0,
        }
    }

    /// Overrides the re-initialization cost multiplier (see the PPS
    /// equivalent: calibrates virtual init cost to the original JVM
    /// implementation's measured behaviour; default 8, 1 = raw ops).
    #[must_use]
    pub fn with_rebuild_cost_multiplier(mut self, m: u64) -> Self {
        assert!(m > 0, "multiplier must be positive");
        self.rebuild_cost_multiplier = m;
        self
    }

    /// (Re-)initialization: snapshot all blocks sorted ascending by size.
    /// Comparisons are *not* materialized here (they are CBS-ordered lazily
    /// per block during emission); the charged cost still scans every block
    /// and member occurrence, which is what PBS-GLOBAL re-pays per
    /// increment.
    fn rebuild(&mut self, blocker: &IncrementalBlocker) {
        self.buffer.clear();
        let collection = blocker.collection();
        let kind = collection.kind();
        let mut blocks: Vec<(usize, BlockId)> = Vec::new();
        for (bid, b) in collection.active_blocks() {
            // Scanning a block costs its size (membership bookkeeping).
            self.ops += 1 + b.len() as u64;
            if b.cardinality(kind) > 0 {
                blocks.push((b.len(), bid));
            }
        }
        blocks.sort_unstable();
        self.block_queue = blocks.into_iter().map(|(_, bid)| bid).collect();
    }

    /// Materializes the next block's comparisons, CBS-ordered, skipping
    /// already-emitted pairs. Returns whether anything was buffered.
    fn fill_buffer(&mut self, blocker: &IncrementalBlocker) -> bool {
        let collection = blocker.collection();
        let kind = collection.kind();
        while let Some(bid) = self.block_queue.pop_front() {
            let Some(block) = collection.block(bid) else {
                continue;
            };
            if block.is_purged() {
                continue;
            }
            let members: Vec<ProfileId> = block.members().collect();
            let mut in_block: Vec<WeightedComparison> = Vec::new();
            for (i, &x) in members.iter().enumerate() {
                let cbs = collection.cbs_from(x, &mut self.stamps);
                for &y in &members[i + 1..] {
                    self.ops += 1;
                    if kind == pier_types::ErKind::CleanClean
                        && collection.source_of(x) == collection.source_of(y)
                    {
                        continue;
                    }
                    let cmp = Comparison::new(x, y);
                    if self.emitted.contains(&cmp) {
                        continue;
                    }
                    let w = cbs.with(y) as f64;
                    self.ops += 1;
                    in_block.push(WeightedComparison::new(cmp, w));
                }
            }
            if in_block.is_empty() {
                continue;
            }
            in_block.sort_unstable_by(|a, b| b.cmp(a));
            self.buffer.extend(in_block);
            return true;
        }
        false
    }
}

impl ComparisonEmitter for Pbs {
    fn on_increment(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
        // Empty ticks do not trigger the (expensive) re-initialization.
        if !new_ids.is_empty() {
            let before = self.ops;
            self.rebuild(blocker);
            self.ops += (self.ops - before) * (self.rebuild_cost_multiplier - 1);
        }
    }

    /// Each comparison carries its in-block CBS weight.
    fn next_weighted_batch(
        &mut self,
        blocker: &IncrementalBlocker,
        k: usize,
    ) -> Vec<WeightedComparison> {
        let mut batch = Vec::with_capacity(k);
        while batch.len() < k {
            if self.buffer.is_empty() && !self.fill_buffer(blocker) {
                break;
            }
            if let Some(wc) = self.buffer.pop_front() {
                // `emitted` marks the pair at hand-out time, which also
                // dedups pairs appearing in several queued blocks.
                if self.emitted.insert(wc.cmp) {
                    self.ops += 1;
                    batch.push(wc);
                }
            }
        }
        batch
    }

    fn drain_ops(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }

    fn has_pending(&self) -> bool {
        !self.buffer.is_empty() || !self.block_queue.is_empty()
    }

    fn name(&self) -> String {
        "PBS".to_string()
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
    fn smallest_blocks_first_cbs_within() {
        // Block "rare"={0,1} (size 2); block "pop"={0,1,2,3} (size 4).
        // Within "pop": (0,1) has CBS 2 but is deduped by the rare block;
        // remaining pairs have CBS 1.
        let b = blocker(&["rare pop", "rare pop", "pop aux1", "pop aux2"]);
        let mut e = Pbs::new();
        e.on_increment(&b, &[ProfileId(0)]); // any non-empty trigger
        let all = e.next_batch(&b, 100);
        assert_eq!(all[0], Comparison::new(ProfileId(0), ProfileId(1)));
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn reinitialization_never_reemits() {
        let mut b = blocker(&["tok aa", "tok aa"]);
        let mut e = Pbs::new();
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        let first = e.next_batch(&b, 10);
        assert_eq!(first.len(), 1);
        // New increment extends the same block; rebuild happens.
        b.process_profile(EntityProfile::new(ProfileId(2), SourceId(0)).with("t", "tok"));
        e.on_increment(&b, &[ProfileId(2)]);
        let second = e.next_batch(&b, 10);
        // Only the two new pairs appear, (0,1) is not repeated.
        assert_eq!(second.len(), 2);
        assert!(!second.contains(&Comparison::new(ProfileId(0), ProfileId(1))));
    }

    #[test]
    fn rebuild_cost_grows_with_data() {
        let texts: Vec<String> = (0..20).map(|i| format!("shared uniq{i}")).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let b = blocker(&refs);
        let mut e = Pbs::new();
        e.on_increment(&b, &[ProfileId(0)]);
        let cost_full = e.drain_ops();

        let b_small = blocker(&refs[..5]);
        let mut e2 = Pbs::new();
        e2.on_increment(&b_small, &[ProfileId(0)]);
        let cost_small = e2.drain_ops();
        assert!(
            cost_full > cost_small * 3,
            "full {cost_full} vs small {cost_small}"
        );
    }

    #[test]
    fn empty_tick_is_free() {
        let b = blocker(&["xx yy", "xx yy"]);
        let mut e = Pbs::new();
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        e.drain_ops();
        e.on_increment(&b, &[]); // tick
        assert_eq!(e.drain_ops(), 0);
    }

    #[test]
    fn respects_k() {
        let b = blocker(&["zz", "zz", "zz"]);
        let mut e = Pbs::new();
        e.on_increment(&b, &[ProfileId(0)]);
        assert_eq!(e.next_batch(&b, 2).len(), 2);
        assert!(e.has_pending());
    }
}
