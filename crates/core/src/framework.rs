//! The shared emitter abstraction and common generation helpers.
//!
//! Every comparison-producing component — the three PIER strategies, the
//! incremental baseline I-BASE, and the batch progressive algorithms in
//! their GLOBAL/LOCAL adaptations — implements [`ComparisonEmitter`]: it is
//! told about increments after blocking, and it is asked for batches of
//! weighted comparisons when the matcher is ready. That batch method,
//! [`ComparisonEmitter::next_weighted_batch`], is the one an emitter
//! writes: each comparison carries the weight the emitter orders by, and
//! `next_batch` is the same batch with the weights dropped. The drivers
//! (the discrete-event simulator and the threaded runtime) own timing,
//! rates and the adaptive `K`; the emitters own *which comparisons come
//! next*.

use pier_blocking::{ghost_blocks, Block, BlockCollection, BlockId, IncrementalBlocker};
use pier_collections::{EpochStamps, FxHashSet, ScratchStats};
use pier_metablocking::{Iwnp, IwnpConfig, WeightingScheme};
use pier_observe::{Event, Observer};
use pier_types::{Comparison, ErKind, ProfileId, SourceId, WeightedComparison};
use std::collections::BinaryHeap;

/// Configuration shared by the PIER strategies.
#[derive(Debug, Clone, Copy)]
pub struct PierConfig {
    /// Block-ghosting parameter β ∈ (0, 1] (Algorithm 2). Default 0.5.
    pub beta: f64,
    /// Weighting scheme for I-WNP and the comparison indexes. Default CBS.
    pub scheme: WeightingScheme,
    /// Capacity bound of the global comparison index. Default 1 << 20.
    pub index_capacity: usize,
}

impl Default for PierConfig {
    fn default() -> Self {
        PierConfig {
            beta: 0.5,
            scheme: WeightingScheme::Cbs,
            index_capacity: 1 << 20,
        }
    }
}

impl PierConfig {
    /// The I-WNP configuration implied by this PIER configuration.
    pub fn iwnp(&self) -> IwnpConfig {
        IwnpConfig {
            scheme: self.scheme,
            prune_below_average: true,
        }
    }
}

/// A streaming comparison emitter — the "Incremental Comparison
/// Prioritization" stage of the framework, or a baseline playing that role.
pub trait ComparisonEmitter {
    /// Notifies the emitter that the blocker ingested the profiles
    /// `new_ids` (empty slice = the periodic empty-increment tick of §3.2).
    fn on_increment(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]);

    /// Returns the next batch of at most `k` comparisons, best first, each
    /// with the weight it was scheduled under — what a k-way merger orders
    /// several emitters' batches by and what weight-floor shedding reads.
    /// Non-adaptive emitters (e.g. I-BASE) may ignore `k`. An empty result
    /// means no comparison is currently available.
    fn next_weighted_batch(
        &mut self,
        blocker: &IncrementalBlocker,
        k: usize,
    ) -> Vec<WeightedComparison>;

    /// [`ComparisonEmitter::next_weighted_batch`] without the weights.
    fn next_batch(&mut self, blocker: &IncrementalBlocker, k: usize) -> Vec<Comparison> {
        self.next_weighted_batch(blocker, k)
            .into_iter()
            .map(|wc| wc.cmp)
            .collect()
    }

    /// Abstract work (ops) performed since the last call, for virtual-time
    /// accounting. Implementations accumulate internally and reset here.
    fn drain_ops(&mut self) -> u64;

    /// Whether the emitter believes it can still produce comparisons
    /// without further input (used to decide stream completion).
    fn has_pending(&self) -> bool;

    /// Display name for experiment output (e.g. `"I-PES"`).
    fn name(&self) -> String;

    /// Attaches a pipeline observer. Instrumented emitters report
    /// comparison emission, redundancy filtering and ghosting through it;
    /// the default implementation (baselines) ignores it.
    fn set_observer(&mut self, _observer: Observer) {}

    /// Occupancy of the emitter's reusable I-WNP scratch accumulator, if it
    /// owns one (`--stage-a-stats`). Emitters that never run I-WNP (e.g.
    /// I-PBS) return `None`, the default.
    fn scratch_stats(&self) -> Option<ScratchStats> {
        None
    }
}

/// Drains `emitter` to exhaustion in batches of `k` and returns everything
/// it emitted, in emission order, while checking the no-duplicate contract
/// every emitter shares.
///
/// # Panics
/// Panics if the emitter emits any comparison twice — this is the shared
/// assertion behind the I-PCS/I-PBS/I-PES redundancy tests.
pub fn drain_all_unique(
    emitter: &mut dyn ComparisonEmitter,
    blocker: &IncrementalBlocker,
    k: usize,
) -> Vec<Comparison> {
    let mut seen: FxHashSet<Comparison> = FxHashSet::default();
    let mut all = Vec::new();
    loop {
        let batch = emitter.next_batch(blocker, k);
        if batch.is_empty() {
            return all;
        }
        for c in batch {
            assert!(seen.insert(c), "duplicate emission of {c}");
            all.push(c);
        }
    }
}

/// Runs the per-profile generation pipeline of Algorithm 2, lines 2–8:
/// active blocks of `p_x` → block ghosting(β) → I-WNP. Returns the retained
/// weighted comparisons and the ops spent (proportional to the partner
/// occurrences scanned).
///
/// `iwnp` is the caller's reusable executor — one per driver lane (emitter
/// or shard worker), so repeated arrivals hit the warm scratch accumulator
/// instead of allocating per call.
pub fn generate_for_profile(
    blocker: &IncrementalBlocker,
    p_x: ProfileId,
    config: &PierConfig,
    iwnp: &mut Iwnp,
) -> (Vec<WeightedComparison>, u64) {
    generate_for_profile_observed(blocker, p_x, config, iwnp, &Observer::disabled())
}

/// [`generate_for_profile`] with instrumentation: ghosting reports its
/// kept/dropped split through `observer`. Identical result and ops — a
/// disabled observer compiles down to the pristine reference path (the
/// zero-overhead contract of DESIGN.md §7).
pub fn generate_for_profile_observed(
    blocker: &IncrementalBlocker,
    p_x: ProfileId,
    config: &PierConfig,
    iwnp: &mut Iwnp,
    observer: &Observer,
) -> (Vec<WeightedComparison>, u64) {
    let collection = blocker.collection();
    let blocks = collection.active_blocks_of(p_x);
    // Scan cost: one op per member of each surviving block. The ghost
    // floor (set only by the sharded router) keeps per-shard ghosting
    // aligned with the global |b_min|.
    let ghosted = ghost_blocks(
        &blocks,
        config.beta,
        blocker.ghost_floor(p_x),
        p_x,
        observer,
    )
    .expect("beta validated at construction");
    let ops: u64 = ghosted
        .iter()
        .filter_map(|bid| collection.block(*bid))
        .map(|b| b.len() as u64)
        .sum::<u64>()
        + blocks.len() as u64;
    let list = iwnp.run(collection, p_x, &ghosted, config.iwnp());
    (list, ops)
}

/// One block's not-yet-materialized pairs, grouped by their outer-loop
/// member (the *pivot*): an iterator of `(pivot, partners)` where the pairs
/// are `Comparison::new(pivot, partner)` for each partner in slice order.
///
/// Grouping is what lets a caller weigh the block cheaply — the pivot's
/// blocks stamped once, then one pass per partner — and it borrows the
/// block's member lists, so no pair is materialized before it is known not
/// to be a repeat. Flattened, the groups enumerate
/// exactly: Dirty ER old × new then new × new (member `i` against every
/// member before it, from the watermark on); Clean-Clean ER new₀ × all₁,
/// then old₀ × new₁.
#[derive(Debug, Clone)]
pub struct PivotGroups<'a> {
    kind: ErKind,
    m0: &'a [ProfileId],
    m1: &'a [ProfileId],
    /// Members already paired up by earlier visits, per source.
    w0: usize,
    w1: usize,
    /// Outer-loop steps taken.
    step: usize,
}

impl<'a> PivotGroups<'a> {
    fn empty(kind: ErKind) -> Self {
        PivotGroups {
            kind,
            m0: &[],
            m1: &[],
            w0: 0,
            w1: 0,
            step: 0,
        }
    }

    /// Number of pairs over all groups (independent of iteration state).
    pub fn pair_count(&self) -> u64 {
        let (n0, n1) = (self.m0.len() as u64, self.m1.len() as u64);
        let (w0, w1) = (self.w0 as u64, self.w1 as u64);
        match self.kind {
            // Σ_{i=w0}^{n0-1} i
            ErKind::Dirty => (n0 * n0.saturating_sub(1) - w0 * w0.saturating_sub(1)) / 2,
            ErKind::CleanClean => (n0 - w0) * n1 + w0 * (n1 - w1),
        }
    }
}

impl<'a> Iterator for PivotGroups<'a> {
    type Item = (ProfileId, &'a [ProfileId]);

    fn next(&mut self) -> Option<Self::Item> {
        let (m0, m1) = (self.m0, self.m1);
        let fresh = m0.len() - self.w0;
        let step = self.step;
        let group = match self.kind {
            ErKind::Dirty if step < fresh => (m0[self.w0 + step], &m0[..self.w0 + step]),
            ErKind::CleanClean if step < fresh => (m0[self.w0 + step], m1),
            ErKind::CleanClean if step < m0.len() => (m0[step - fresh], &m1[self.w1..]),
            _ => return None,
        };
        self.step += 1;
        Some(group)
    }
}

/// The visit-order kernel: per block, the profile count by which every
/// pair of its members has been handed out, and the warm block-stamp
/// scratch that weighs a pair against those marks and judges it a repeat
/// (DESIGN.md §14, "Fallback weighting").
#[derive(Debug, Default)]
pub(crate) struct Visits {
    /// Per block, indexed by [`BlockId`]: every pair of its members that
    /// had both arrived by this profile count is out; 0 = none.
    marks: Vec<u32>,
    /// The pivot's blocks, each with its mark, plus [`LIVE`] if it is not
    /// purged.
    stamps: EpochStamps<u32>,
}

/// The mark bit of a stamped block that counts towards the CBS weight.
/// Visit counts stay below it: profile ids, and so profile counts, are
/// bounded by `ProfileId::LIMIT` = 2²⁴.
const LIVE: u32 = 1 << 31;

impl Visits {
    /// Records that every pair of `bid`'s members that arrived by the
    /// `at`-th arrival has been handed out.
    pub(crate) fn mark(&mut self, bid: BlockId, at: u32) {
        if self.marks.len() <= bid.index() {
            self.marks.resize(bid.index() + 1, 0);
        }
        self.marks[bid.index()] = at;
    }

    /// Stamps all of `pivot`'s blocks, purged ones included, for
    /// [`Visits::weigh`].
    pub(crate) fn stamp(&mut self, collection: &BlockCollection, pivot: ProfileId) {
        self.stamps.begin();
        for &bid in collection.blocks_of(pivot) {
            let live = collection.block(bid).is_some_and(|b| !b.is_purged());
            let mark = self.marks.get(bid.index()).copied().unwrap_or(0);
            self.stamps
                .insert_with(bid.index(), mark | if live { LIVE } else { 0 });
        }
    }

    /// One pass over `partner`'s blocks against the stamped pivot's, whose
    /// arrival is `pivot_arrival`: the pair's exact CBS weight, or `None`
    /// if the pair was handed out before.
    ///
    /// It was iff some block `b` both share has `mark[b] ≥
    /// max(arrival(pivot), arrival(partner))`: by then both were members,
    /// and a mark means every pair of those members is out. Purged blocks
    /// count for this (a block consumed before it was purged did hand its
    /// pairs out), not for the weight. Branch-free: an unstamped block
    /// reads as mark 0.
    pub(crate) fn weigh(
        &self,
        collection: &BlockCollection,
        pivot_arrival: usize,
        partner: ProfileId,
    ) -> Option<u32> {
        let since = pivot_arrival.max(collection.arrival(partner)) as u32;
        let (mut cbs, mut last_visit) = (0, 0);
        for &bid in collection.blocks_of(partner) {
            let mark = self.stamps.get(bid.index()).unwrap_or(0);
            cbs += mark >> 31; // the LIVE bit
            last_visit = last_visit.max(mark & !LIVE);
        }
        (last_visit < since).then_some(cbs)
    }
}

/// Stateful cursor over the blocks of a collection from smallest to largest
/// — the `GetComparisons(B)` fallback of Algorithm 2 that keeps the pipeline
/// busy while the input is idle.
///
/// Each call to [`BlockCursor::next_block`] picks the smallest block with
/// pending work and hands out its new pairs as [`PivotGroups`]. A consumed
/// block records a per-source *watermark* (how many members it had); if it
/// grows later, it is revisited and only the pairs involving post-watermark
/// members are handed out, so no in-block pair is ever lost to early
/// consumption and none is handed out twice by the cursor.
///
/// Each visit also marks the block with the collection's profile count,
/// which makes "did the cursor already hand out this pair?" exact for
/// pairs offered by *other* blocks: every pair of a block's members that
/// had both arrived by its last visit was handed out (DESIGN.md §14,
/// "Fallback weighting").
#[derive(Debug, Default)]
pub struct BlockCursor {
    /// The visit marks, and the scratch that weighs against them.
    visits: Visits,
    /// Members per source already paired up, per block (the watermarks);
    /// blocks past the end were never visited.
    watermarks: Vec<(u32, u32)>,
    /// The profile count at the latest visit: no pair with a member that
    /// arrived after it was handed out yet.
    latest: u32,
    /// Cached size-ascending order of pending blocks, valid while the
    /// collection's profile count is unchanged (the fallback phase is
    /// exactly the no-new-input phase, so the cache almost always holds).
    order: Vec<BlockId>,
    order_pos: usize,
    order_profile_count: usize,
    /// Set when a snapshot came up empty; repeated calls are then free
    /// until new profiles arrive.
    exhausted: bool,
}

impl BlockCursor {
    /// Creates a cursor with nothing consumed.
    pub fn new() -> Self {
        Self::default()
    }

    fn watermark(&self, bid: BlockId) -> (u32, u32) {
        self.watermarks
            .get(bid.index())
            .copied()
            .unwrap_or_default()
    }

    /// Whether `block` still has unmaterialized pairs for this cursor.
    fn has_pending_work(&self, bid: BlockId, block: &Block, kind: ErKind) -> bool {
        let (w0, w1) = self.watermark(bid);
        let n0 = block.members_of(SourceId(0)).len() as u32;
        let n1 = block.members_of(SourceId(1)).len() as u32;
        if n0 == w0 && n1 == w1 {
            return false;
        }
        match kind {
            ErKind::Dirty => n0 >= 2 && n0 > w0,
            ErKind::CleanClean => (n0 > w0 && n1 > 0) || (n1 > w1 && n0 > 0),
        }
    }

    /// Pops the smallest pending block's new pairs, or `None` when no block
    /// has pending work. Also returns the ops spent: the scan plus one per
    /// pair handed out.
    pub fn next_block<'a>(
        &mut self,
        collection: &'a BlockCollection,
    ) -> Option<(PivotGroups<'a>, u64)> {
        let (bid, groups, ops) = self.take(collection)?;
        self.mark_visited(bid, collection);
        Some((groups, ops))
    }

    /// [`BlockCursor::next_block`], naming the block and leaving its visit
    /// mark at the previous visit's until [`BlockCursor::mark_visited`].
    fn take<'a>(
        &mut self,
        collection: &'a BlockCollection,
    ) -> Option<(BlockId, PivotGroups<'a>, u64)> {
        let kind = collection.kind();
        let mut scanned = 0u64;
        if self.order_profile_count != collection.profile_count() {
            self.exhausted = false;
        }
        if self.exhausted {
            return None;
        }
        if self.order_profile_count != collection.profile_count()
            || self.order_pos >= self.order.len()
        {
            // (Re-)snapshot the pending blocks sorted ascending by size.
            let mut sized: Vec<(usize, BlockId)> = collection
                .active_blocks()
                .filter(|&(bid, b)| self.has_pending_work(bid, b, kind))
                .map(|(bid, b)| (b.len(), bid))
                .collect();
            sized.sort_unstable();
            scanned += collection.block_count() as u64;
            self.order = sized.into_iter().map(|(_, bid)| bid).collect();
            self.order_pos = 0;
            self.order_profile_count = collection.profile_count();
            if self.order.is_empty() {
                self.exhausted = true;
                return None;
            }
        }
        let bid = self.order[self.order_pos];
        self.order_pos += 1;
        let block = collection.block(bid).expect("active block exists");
        // Cached order entries may have lost their pending work to an
        // interleaved arrival + re-snapshot; re-check cheaply.
        if !self.has_pending_work(bid, block, kind) {
            return Some((bid, PivotGroups::empty(kind), scanned + 1));
        }
        let (w0, w1) = self.watermark(bid);
        let groups = PivotGroups {
            kind,
            m0: block.members_of(SourceId(0)),
            m1: block.members_of(SourceId(1)),
            w0: w0 as usize,
            w1: w1 as usize,
            step: 0,
        };
        if self.watermarks.len() <= bid.index() {
            self.watermarks.resize(bid.index() + 1, (0, 0));
        }
        self.watermarks[bid.index()] = (groups.m0.len() as u32, groups.m1.len() as u32);
        let ops = scanned + groups.pair_count() + 1;
        Some((bid, groups, ops))
    }

    /// Records that `bid`'s pairs have been handed out at the collection's
    /// current profile count. A block with no pending work may be marked
    /// too: all pairs of its current members are already out.
    fn mark_visited(&mut self, bid: BlockId, collection: &BlockCollection) {
        self.latest = collection.profile_count() as u32;
        self.visits.mark(bid, self.latest);
    }

    /// Whether the cursor already handed out `cmp` ([`Visits::weigh`]'s
    /// rule). Free unless the cursor visited a block since the later of
    /// the two arrived — which only a caller that blocks, ticks and then
    /// weighs can make happen.
    fn covers(&mut self, collection: &BlockCollection, cmp: Comparison) -> bool {
        let arrival = collection.arrival(cmp.a);
        if arrival.max(collection.arrival(cmp.b)) > self.latest as usize {
            return false;
        }
        self.visits.stamp(collection, cmp.a);
        self.visits.weigh(collection, arrival, cmp.b).is_none()
    }
}

/// The exact repeat state of an I-PCS or I-PES lane.
#[derive(Debug, Default)]
pub(crate) struct Fallback {
    cursor: BlockCursor,
    /// The I-WNP pairs the index kept (held or since emitted).
    scheduled: FxHashSet<Comparison>,
    /// Pairs the cursor handed out that the bounded index then displaced;
    /// the next refill hands them back before it visits another block.
    owed: BinaryHeap<WeightedComparison>,
}

impl Fallback {
    /// Files a pair the bounded index left out: an I-WNP pair leaves
    /// `scheduled` (the fallback refills only an empty index, so no block
    /// visit has covered it since it was kept, and a later one hands it
    /// out); a pair the cursor handed out is owed.
    fn displaced(&mut self, wc: WeightedComparison) {
        if !self.scheduled.remove(&wc.cmp) {
            self.owed.push(wc);
        }
    }
}

/// What [`refill_from_blocks`] needs from the emitter it refills. I-PCS and
/// I-PES differ only in how a surviving comparison is scheduled.
pub(crate) trait FallbackSink {
    /// The lane's repeat state.
    fn fallback(&mut self) -> &mut Fallback;

    /// The observer repeats are reported to.
    fn observer(&self) -> &Observer;

    /// Schedules a comparison that is not a repeat, and returns the one its
    /// bounded index left out, if any: this one, or a displaced one.
    fn accept(&mut self, wc: WeightedComparison) -> Option<WeightedComparison>;

    /// The path of an I-WNP comparison into the index: dropped if the
    /// fallback already handed it out or the index already kept it, else
    /// scheduled and recorded as long as the index keeps it.
    fn offer(&mut self, collection: &BlockCollection, wc: WeightedComparison) {
        let fallback = self.fallback();
        if fallback.cursor.covers(collection, wc.cmp) || !fallback.scheduled.insert(wc.cmp) {
            self.observer().emit(|| Event::CfFiltered { cmp: wc.cmp });
            return;
        }
        if let Some(lost) = self.accept(wc) {
            self.fallback().displaced(lost);
        }
    }
}

/// `GetComparisons(B)` (Algorithm 2, lines 10–11): takes the smallest
/// unconsumed block's new pairs and schedules each under its exact CBS
/// weight, unless it is a repeat. Returns the ops to charge: the cursor's,
/// plus one per pair — dropped or not — for the weighing step (what
/// `accept` charges for scheduling is the sink's own).
///
/// A pair is a repeat if the cursor handed it out at an earlier visit of
/// another block ([`Visits::weigh`] decides that exactly, in the pass that
/// weighs it) or if the index kept it from I-WNP (a lookup in `scheduled`).
/// Pairs owed from earlier visits go back into the index first, one per
/// op, and the refill visits no block while any are left.
pub(crate) fn refill_from_blocks<S: FallbackSink>(
    sink: &mut S,
    blocker: &IncrementalBlocker,
) -> u64 {
    let collection = blocker.collection();
    // Moved out for the duration so the sink stays borrowable.
    let mut fallback = std::mem::take(sink.fallback());
    let mut ops = 0;
    if !fallback.owed.is_empty() {
        while let Some(wc) = fallback.owed.pop() {
            ops += 1;
            if let Some(lost) = sink.accept(wc) {
                fallback.owed.push(lost);
                break;
            }
        }
    } else if let Some((bid, groups, cursor_ops)) = fallback.cursor.take(collection) {
        ops = cursor_ops + groups.pair_count();
        for (pivot, partners) in groups {
            if partners.is_empty() {
                continue;
            }
            fallback.cursor.visits.stamp(collection, pivot);
            let pivot_arrival = collection.arrival(pivot);
            for &partner in partners {
                let cmp = Comparison::new(pivot, partner);
                match fallback
                    .cursor
                    .visits
                    .weigh(collection, pivot_arrival, partner)
                {
                    Some(cbs) if !fallback.scheduled.contains(&cmp) => {
                        debug_assert_eq!(cbs, collection.common_blocks(pivot, partner));
                        if let Some(lost) = sink.accept(WeightedComparison::new(cmp, cbs as f64)) {
                            fallback.displaced(lost);
                        }
                    }
                    _ => sink.observer().emit(|| Event::CfFiltered { cmp }),
                }
            }
        }
        // Stamped only now, so this visit's pairs were judged by the block's
        // previous visit: a revisit hands out only pairs with a newer member.
        fallback.cursor.mark_visited(bid, collection);
    }
    *sink.fallback() = fallback;
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::EntityProfile;

    fn blocker_with(texts: &[(&str, u8)]) -> IncrementalBlocker {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        for (i, (t, src)) in texts.iter().enumerate() {
            b.process_profile(
                EntityProfile::new(ProfileId(i as u32), SourceId(*src)).with("text", *t),
            );
        }
        b
    }

    /// The groups flattened into the pairs they stand for, in order.
    fn pairs(groups: PivotGroups<'_>) -> Vec<Comparison> {
        let count = groups.pair_count();
        let flat: Vec<Comparison> = groups
            .flat_map(|(pivot, partners)| partners.iter().map(move |&q| Comparison::new(pivot, q)))
            .collect();
        assert_eq!(
            flat.len() as u64,
            count,
            "pair_count matches the enumeration"
        );
        flat
    }

    #[test]
    fn generate_for_profile_runs_ghosting_and_iwnp() {
        let b = blocker_with(&[
            ("alpha beta gamma", 0),
            ("delta epsilon", 0),
            ("alpha beta gamma zeta", 0),
        ]);
        let cfg = PierConfig::default();
        let (list, ops) = generate_for_profile(&b, ProfileId(2), &cfg, &mut Iwnp::new());
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].cmp, Comparison::new(ProfileId(0), ProfileId(2)));
        assert_eq!(list[0].weight, 3.0);
        assert!(ops > 0);
    }

    #[test]
    fn generate_for_isolated_profile_is_empty() {
        let b = blocker_with(&[("unique tokens here", 0)]);
        let (list, _) =
            generate_for_profile(&b, ProfileId(0), &PierConfig::default(), &mut Iwnp::new());
        assert!(list.is_empty());
    }

    #[test]
    fn cursor_visits_blocks_smallest_first() {
        // tokens: "aa" in p0,p1 (size 2); "bb" in p0,p1,p2 (size 3).
        let b = blocker_with(&[("aa bb", 0), ("aa bb", 0), ("bb", 0)]);
        let mut cur = BlockCursor::new();
        let (first, ops) = cur.next_block(b.collection()).unwrap();
        // size-2 block: one pair; ops = snapshot scan + the pair + 1.
        assert_eq!(pairs(first).len(), 1);
        assert_eq!(ops, b.collection().block_count() as u64 + 1 + 1);
        let (second, ops) = cur.next_block(b.collection()).unwrap();
        assert_eq!(pairs(second).len(), 3); // size-3 block: three pairs
        assert_eq!(ops, 3 + 1);
        assert!(cur.next_block(b.collection()).is_none());
    }

    #[test]
    fn cursor_skips_cardinality_zero_blocks() {
        let mut b = IncrementalBlocker::new(ErKind::CleanClean);
        b.process_profile(EntityProfile::new(ProfileId(0), SourceId(0)).with("t", "lonely token"));
        let mut cur = BlockCursor::new();
        // Single-source blocks have zero Clean-Clean cardinality.
        assert!(cur.next_block(b.collection()).is_none());
    }

    #[test]
    fn cursor_respects_clean_clean_sources() {
        let mut b = IncrementalBlocker::new(ErKind::CleanClean);
        b.process_profile(EntityProfile::new(ProfileId(0), SourceId(0)).with("t", "shared"));
        b.process_profile(EntityProfile::new(ProfileId(1), SourceId(0)).with("t", "shared"));
        b.process_profile(EntityProfile::new(ProfileId(2), SourceId(1)).with("t", "shared"));
        let mut cur = BlockCursor::new();
        let (groups, _) = cur.next_block(b.collection()).unwrap();
        assert_eq!(pairs(groups).len(), 2); // cross-source only
    }

    #[test]
    fn cursor_revisits_grown_blocks_without_duplicates() {
        let mut b = blocker_with(&[("aa bb", 0), ("aa bb", 0)]);
        let mut cur = BlockCursor::new();
        // First pass: consume both size-2 blocks.
        let mut first = Vec::new();
        while let Some((groups, _)) = cur.next_block(b.collection()) {
            first.extend(pairs(groups));
        }
        assert_eq!(first.len(), 2); // (0,1) from aa and bb
                                    // Grow block "aa" with a new member.
        b.process_profile(EntityProfile::new(ProfileId(2), SourceId(0)).with("text", "aa"));
        let mut second = Vec::new();
        while let Some((groups, _)) = cur.next_block(b.collection()) {
            second.extend(pairs(groups));
        }
        // Only the new member's pairs appear, (0,1) is not repeated.
        second.sort_unstable();
        assert_eq!(
            second,
            vec![
                Comparison::new(ProfileId(0), ProfileId(2)),
                Comparison::new(ProfileId(1), ProfileId(2)),
            ]
        );
        // Fully exhausted afterwards.
        assert!(cur.next_block(b.collection()).is_none());
    }

    #[test]
    fn cursor_covers_all_pairs_under_interleaved_growth() {
        // Alternate ingestion and consumption; the union of everything
        // emitted must equal the full in-block pair set.
        let texts = ["tok xx0", "tok xx1", "tok xx2", "tok xx3", "tok xx4"];
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        let mut cur = BlockCursor::new();
        let mut got = std::collections::HashSet::new();
        for (i, t) in texts.iter().enumerate() {
            b.process_profile(
                EntityProfile::new(ProfileId(i as u32), SourceId(0)).with("text", *t),
            );
            while let Some((groups, _)) = cur.next_block(b.collection()) {
                for c in pairs(groups) {
                    assert!(got.insert(c), "duplicate {c}");
                }
            }
        }
        // Block "tok" holds all 5 profiles: C(5,2) = 10 pairs.
        assert_eq!(
            got.iter()
                .filter(|c| {
                    b.tokens_of(c.a)
                        .iter()
                        .any(|t| b.tokens_of(c.b).contains(t))
                })
                .count(),
            got.len()
        );
        assert!(got.len() >= 10);
    }

    /// The grouped hand-out flattens to the reference nested loops, for
    /// first visits and for revisits past a watermark.
    #[test]
    fn pivot_groups_enumerate_in_nested_loop_order() {
        let ids = |r: std::ops::Range<u32>| r.map(ProfileId).collect::<Vec<_>>();
        let (m0, m1) = (ids(0..5), ids(10..14));
        for (w0, w1) in [(0, 0), (2, 0), (2, 3), (5, 1), (0, 4)] {
            let groups = |kind| PivotGroups {
                kind,
                m0: &m0,
                m1: &m1,
                w0,
                w1,
                step: 0,
            };
            // Dirty: old × new, then new × new.
            let mut want = Vec::new();
            for (i, &x) in m0.iter().enumerate().skip(w0) {
                for &y in &m0[..i] {
                    want.push(Comparison::new(x, y));
                }
            }
            assert_eq!(pairs(groups(ErKind::Dirty)), want, "dirty w0={w0}");
            // Clean-Clean: new0 × all1, then old0 × new1.
            let mut want = Vec::new();
            for &x in &m0[w0..] {
                for &y in &m1 {
                    want.push(Comparison::new(x, y));
                }
            }
            for &x in &m0[..w0] {
                for &y in &m1[w1..] {
                    want.push(Comparison::new(x, y));
                }
            }
            assert_eq!(
                pairs(groups(ErKind::CleanClean)),
                want,
                "clean-clean w0={w0} w1={w1}"
            );
        }
        assert_eq!(pairs(PivotGroups::empty(ErKind::Dirty)), vec![]);
    }

    /// The record holds I-WNP pairs only: draining the fallback to the end
    /// emits more pairs than I-WNP scheduled and records none of them.
    #[test]
    fn the_fallback_never_records_its_own_pairs() {
        fn check<E: ComparisonEmitter + FallbackSink>(mut e: E) {
            let b = blocker_with(&[
                ("tok aa1 aa2 aa3", 0),
                ("tok aa1 aa2 aa3", 0),
                ("tok bb1 bb2", 0),
                ("bb1 bb2 cc1", 0),
                ("cc1 aa3 tok", 0),
            ]);
            e.on_increment(&b, &(0..5).map(ProfileId).collect::<Vec<_>>());
            let scheduled = e.fallback().scheduled.len();
            let mut emitted = 0;
            loop {
                let batch = e.next_batch(&b, 4);
                if batch.is_empty() {
                    e.drain_ops();
                    e.on_increment(&b, &[]);
                    if e.drain_ops() == 0 && !e.has_pending() {
                        break;
                    }
                }
                emitted += batch.len();
            }
            assert!(scheduled > 0 && emitted > scheduled, "{}", e.name());
            assert_eq!(e.fallback().scheduled.len(), scheduled, "{}", e.name());
        }
        check(crate::Ipcs::new(PierConfig::default()));
        check(crate::Ipes::new(PierConfig::default()));
    }

    #[test]
    fn default_config_is_sane() {
        let c = PierConfig::default();
        assert!(c.beta > 0.0 && c.beta <= 1.0);
        assert_eq!(c.scheme, WeightingScheme::Cbs);
        assert!(c.index_capacity > 0);
        assert!(c.iwnp().prune_below_average);
    }
}
