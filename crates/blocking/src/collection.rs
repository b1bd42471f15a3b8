//! The incrementally-maintained block collection.

use pier_collections::{EpochStamps, NeighborAccumulator};
use pier_observe::{Event, Observer};
use pier_types::{ErKind, ProfileId, SourceId, TokenId};

use crate::purging::PurgePolicy;

/// Identifier of a block. Token blocking uses the block's token id, so the
/// two id spaces coincide; the newtype keeps them from being mixed up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The token this block was built from.
    #[inline]
    pub fn token(self) -> TokenId {
        TokenId(self.0)
    }
}

impl From<TokenId> for BlockId {
    fn from(t: TokenId) -> Self {
        BlockId(t.0)
    }
}

/// One block: the profiles sharing a token, kept separated by source so
/// Clean-Clean comparison cardinalities are cheap to compute.
#[derive(Debug, Clone, Default)]
pub struct Block {
    members: [Vec<ProfileId>; 2],
    purged: bool,
    /// `1/max(‖b‖, 1)` under the owning collection's ER kind, refreshed by
    /// [`BlockCollection::add_profile`] on every membership change so the
    /// ARCS gather never divides in the hot loop.
    recip: f64,
}

impl Block {
    /// Total number of profiles in the block (the paper's `|b|`).
    pub fn len(&self) -> usize {
        self.members[0].len() + self.members[1].len()
    }

    /// Whether the block has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Profiles of one source, in arrival order.
    pub fn members_of(&self, source: SourceId) -> &[ProfileId] {
        &self.members[source.0 as usize]
    }

    /// All member profiles, source 0 first, each in arrival order.
    pub fn members(&self) -> impl Iterator<Item = ProfileId> + '_ {
        self.members[0]
            .iter()
            .chain(self.members[1].iter())
            .copied()
    }

    /// Number of comparisons this block can generate (the paper's `||b||`):
    /// `n·(n−1)/2` for Dirty ER, `|b∩S0| · |b∩S1|` for Clean-Clean ER.
    pub fn cardinality(&self, kind: ErKind) -> u64 {
        match kind {
            ErKind::Dirty => {
                let n = self.len() as u64;
                n * n.saturating_sub(1) / 2
            }
            ErKind::CleanClean => self.members[0].len() as u64 * self.members[1].len() as u64,
        }
    }

    /// The cached `1/max(‖b‖, 1)` under the owning collection's ER kind —
    /// maintained by [`BlockCollection::add_profile`], so the ARCS gather
    /// reads a precomputed reciprocal instead of recomputing the
    /// cardinality and dividing per visit.
    #[inline]
    pub fn recip_cardinality(&self) -> f64 {
        self.recip
    }

    /// Whether this block was removed by block purging. Purged blocks stay
    /// registered (their size keeps growing for statistics) but generate no
    /// comparisons.
    pub fn is_purged(&self) -> bool {
        self.purged
    }

    /// Comparison partners of `p` inside this block: all other members
    /// (Dirty) or members of the other source (Clean-Clean).
    ///
    /// Returns a concrete enum iterator, so the per-block call in the
    /// stage-A gather is monomorphized and allocation-free (the previous
    /// `Box<dyn Iterator>` paid one heap allocation plus virtual dispatch
    /// per partner per block).
    #[inline]
    pub fn partners_of(&self, p: ProfileId, source: SourceId, kind: ErKind) -> Partners<'_> {
        match kind {
            ErKind::Dirty => Partners::Dirty {
                head: self.members[0].iter(),
                tail: self.members[1].iter(),
                exclude: p,
            },
            ErKind::CleanClean => {
                let other = SourceId(1 - source.0);
                Partners::CleanClean(self.members_of(other).iter())
            }
        }
    }

    /// Number of comparison partners `p` has inside this block, without
    /// iterating them.
    ///
    /// For Dirty ER this assumes `p` *is* a member of the block (every call
    /// site reaches blocks through `B(p)`, where that holds by
    /// construction); profiles appear at most once per block, so the count
    /// is `|b| − 1`.
    #[inline]
    pub fn partner_count(&self, p: ProfileId, source: SourceId, kind: ErKind) -> usize {
        match kind {
            ErKind::Dirty => {
                debug_assert!(self.members().any(|q| q == p), "p must be a member");
                self.len() - 1
            }
            ErKind::CleanClean => self.members_of(SourceId(1 - source.0)).len(),
        }
    }
}

/// Concrete iterator over a profile's comparison partners within one block
/// (see [`Block::partners_of`]).
#[derive(Debug, Clone)]
pub enum Partners<'a> {
    /// Dirty ER: both member lists, skipping the profile itself.
    Dirty {
        /// Remaining source-0 members.
        head: std::slice::Iter<'a, ProfileId>,
        /// Remaining source-1 members.
        tail: std::slice::Iter<'a, ProfileId>,
        /// The profile whose partners are being listed (skipped).
        exclude: ProfileId,
    },
    /// Clean-Clean ER: the members of the other source.
    CleanClean(std::slice::Iter<'a, ProfileId>),
}

impl Iterator for Partners<'_> {
    type Item = ProfileId;

    #[inline]
    fn next(&mut self) -> Option<ProfileId> {
        match self {
            Partners::Dirty {
                head,
                tail,
                exclude,
            } => loop {
                let q = match head.next() {
                    Some(&q) => q,
                    None => *tail.next()?,
                };
                if q != *exclude {
                    return Some(q);
                }
            },
            Partners::CleanClean(iter) => iter.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Partners::Dirty { head, tail, .. } => {
                let n = head.len() + tail.len();
                (n.saturating_sub(1), Some(n))
            }
            Partners::CleanClean(iter) => (iter.len(), Some(iter.len())),
        }
    }
}

/// Occupancy of the dense block slab (see
/// [`BlockCollection::slab_stats`]), surfaced by
/// `observed_stream --stage-a-stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlabStats {
    /// Blocks created (including purged ones).
    pub blocks: usize,
    /// Slab slots allocated (largest block id seen + 1). The gap to
    /// `blocks` is the sparsity a shard's token subspace leaves behind.
    pub slots: usize,
}

/// The block collection `B_D`, maintained incrementally as increments arrive.
///
/// Profiles may arrive in any order (streams interleave sources), so
/// per-profile state is stored sparsely by id: ids only need to be unique
/// and reasonably dense overall (they index vectors).
///
/// Blocks live in a dense `Vec<Block>` slab indexed by [`BlockId`] (block
/// ids *are* interned token ids, which are dense per stream), so the hot
/// per-ingest lookups are direct indexing instead of hashing. A slot whose
/// block has no members yet reads as absent: a block always receives its
/// first member in the same `add_profile` call that creates it, so
/// "non-empty" and "created" coincide.
#[derive(Debug)]
pub struct BlockCollection {
    kind: ErKind,
    /// Dense slab: `slab[id]` is the block with that id, or an untouched
    /// default (empty = absent).
    slab: Vec<Block>,
    /// Ids of created blocks in creation order — the iteration set, kept
    /// separate so sparse id subspaces (sharding) don't slow scans.
    created: Vec<BlockId>,
    /// Blocks of each profile, indexed by `ProfileId`; `None` = not seen.
    profile_blocks: Vec<Option<Vec<BlockId>>>,
    /// Source of each profile, indexed by `ProfileId`.
    profile_sources: Vec<SourceId>,
    /// Arrival ordinal of each profile, indexed by `ProfileId` (see
    /// [`BlockCollection::arrival`]).
    profile_arrivals: Vec<u32>,
    profile_count: usize,
    purge_policy: PurgePolicy,
    purged_count: usize,
    observer: Observer,
}

impl BlockCollection {
    /// Creates an empty collection for the given ER kind, with the default
    /// purge policy.
    pub fn new(kind: ErKind) -> Self {
        Self::with_policy(kind, PurgePolicy::default())
    }

    /// Creates an empty collection with an explicit purge policy.
    pub fn with_policy(kind: ErKind, purge_policy: PurgePolicy) -> Self {
        BlockCollection {
            kind,
            slab: Vec::new(),
            created: Vec::new(),
            profile_blocks: Vec::new(),
            profile_sources: Vec::new(),
            profile_arrivals: Vec::new(),
            profile_count: 0,
            purge_policy,
            purged_count: 0,
            observer: Observer::disabled(),
        }
    }

    /// Attaches a pipeline observer; the collection reports
    /// [`Event::BlockBuilt`] and [`Event::BlockPurged`] through it.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// The ER task kind this collection serves.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// Inserts a profile with its distinct token ids, updating or creating
    /// one block per token and applying the purge policy to grown blocks.
    ///
    /// Profiles may arrive in any order; each id must be inserted at most
    /// once.
    ///
    /// # Panics
    /// Panics if `id` was already inserted, or if `source` is neither 0
    /// nor 1. The per-profile tables grow to `id`, so callers validate
    /// outside input with [`ErKind::check_profile`] first;
    /// [`crate::IncrementalBlocker`] does.
    pub fn add_profile(&mut self, id: ProfileId, source: SourceId, tokens: &[TokenId]) {
        if self.profile_blocks.len() <= id.index() {
            self.profile_blocks.resize(id.index() + 1, None);
            self.profile_sources.resize(id.index() + 1, SourceId(0));
            self.profile_arrivals.resize(id.index() + 1, 0);
        }
        assert!(
            self.profile_blocks[id.index()].is_none(),
            "profile {id} inserted twice"
        );
        let kind = self.kind;
        let mut blocks = Vec::with_capacity(tokens.len());
        for &t in tokens {
            let bid = BlockId::from(t);
            if self.slab.len() <= bid.index() {
                self.slab.resize_with(bid.index() + 1, Block::default);
            }
            let block = &mut self.slab[bid.index()];
            if block.is_empty() {
                self.created.push(bid);
                self.observer.emit(|| Event::BlockBuilt { block: bid.0 });
            }
            block.members[source.0 as usize].push(id);
            block.recip = 1.0 / block.cardinality(kind).max(1) as f64;
            if !block.purged && self.purge_policy.should_purge(block, kind) {
                block.purged = true;
                self.purged_count += 1;
                let size = block.len();
                self.observer
                    .emit(|| Event::BlockPurged { block: bid.0, size });
            }
            blocks.push(bid);
        }
        self.profile_blocks[id.index()] = Some(blocks);
        self.profile_sources[id.index()] = source;
        self.profile_count += 1;
        self.profile_arrivals[id.index()] = self.profile_count as u32;
    }

    /// The blocks containing profile `p` (the paper's `B(p)`), including
    /// purged ones.
    pub fn blocks_of(&self, p: ProfileId) -> &[BlockId] {
        self.profile_blocks[p.index()]
            .as_deref()
            .expect("profile registered")
    }

    /// The blocks containing `p`, excluding purged blocks, paired with their
    /// current sizes — the input to block ghosting.
    pub fn active_blocks_of(&self, p: ProfileId) -> Vec<(BlockId, usize)> {
        self.blocks_of(p)
            .iter()
            .filter_map(|&bid| {
                let b = &self.slab[bid.index()];
                (!b.is_purged()).then(|| (bid, b.len()))
            })
            .collect()
    }

    /// Source of a registered profile.
    pub fn source_of(&self, p: ProfileId) -> SourceId {
        self.profile_sources[p.index()]
    }

    /// Arrival ordinal of a registered profile: the profile count right
    /// after its [`add_profile`](Self::add_profile), counting from 1. Every
    /// block lists its members of each source in this order.
    #[inline]
    pub fn arrival(&self, p: ProfileId) -> usize {
        self.profile_arrivals[p.index()] as usize
    }

    /// Iterates over all registered profile ids, ascending.
    pub fn profile_ids(&self) -> impl Iterator<Item = ProfileId> + '_ {
        self.profile_blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|_| ProfileId(i as u32)))
    }

    /// Looks up a block.
    #[inline]
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.slab.get(id.index()).filter(|b| !b.is_empty())
    }

    /// Number of blocks (including purged).
    pub fn block_count(&self) -> usize {
        self.created.len()
    }

    /// Number of purged blocks.
    pub fn purged_count(&self) -> usize {
        self.purged_count
    }

    /// Number of registered profiles.
    pub fn profile_count(&self) -> usize {
        self.profile_count
    }

    /// Iterates over `(id, block)` for all non-purged blocks, in creation
    /// order.
    pub fn active_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.created
            .iter()
            .map(|&id| (id, &self.slab[id.index()]))
            .filter(|(_, b)| !b.is_purged())
    }

    /// Slab occupancy: created blocks vs allocated slots.
    pub fn slab_stats(&self) -> SlabStats {
        SlabStats {
            blocks: self.created.len(),
            slots: self.slab.len(),
        }
    }

    /// Total comparisons over all active blocks (with redundancy).
    pub fn total_cardinality(&self) -> u64 {
        self.active_blocks()
            .map(|(_, b)| b.cardinality(self.kind))
            .sum()
    }

    /// Comparison partners of `p` across the given blocks, with the number
    /// of those blocks each partner co-occurs in — i.e. the **CBS weight
    /// restricted to `block_ids`** (the incremental CBS approximation used
    /// by I-PCS/I-PES). Partners are restricted to the other source for
    /// Clean-Clean ER and deduplicated.
    ///
    /// The result is ordered by the same contract I-WNP sorts its retained
    /// comparisons under: **descending count first, ascending partner id on
    /// ties** (for a fixed `p`, ascending partner id is exactly ascending
    /// canonical-pair order, so a caller ranking partners here and a caller
    /// ranking [`pier_types::WeightedComparison`]s agree on every prefix).
    ///
    /// `scratch` is the caller-owned accumulator; its previous contents are
    /// discarded. Reusing one across calls makes the gather allocation-free
    /// once warm.
    pub fn cbs_counts(
        &self,
        p: ProfileId,
        block_ids: &[BlockId],
        scratch: &mut NeighborAccumulator,
    ) -> Vec<(ProfileId, u32)> {
        let source = self.source_of(p);
        scratch.begin();
        for &bid in block_ids {
            let Some(block) = self.block(bid) else {
                continue;
            };
            if block.is_purged() {
                continue;
            }
            for q in block.partners_of(p, source, self.kind) {
                scratch.bump(q);
            }
        }
        let mut out: Vec<(ProfileId, u32)> = Vec::with_capacity(scratch.len());
        scratch.for_each(|q, count, _| out.push((q, count)));
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Prepares exact CBS weights of many pairs sharing the endpoint
    /// `pivot`: stamps the pivot's non-purged blocks into `stamps`
    /// (discarding its previous contents), after which
    /// [`PivotCbs::with`] weighs a partner by one pass over the partner's
    /// own block list. Every weight equals
    /// [`common_blocks`](Self::common_blocks)`(pivot, partner)`.
    ///
    /// `stamps` is the caller's reusable scratch, one per driver lane; it
    /// grows to the largest block id stamped (4 bytes per block).
    pub fn cbs_from<'a>(&'a self, pivot: ProfileId, stamps: &'a mut EpochStamps) -> PivotCbs<'a> {
        stamps.begin();
        for &bid in self.blocks_of(pivot) {
            if !self.slab[bid.index()].is_purged() {
                stamps.insert(bid.index());
            }
        }
        PivotCbs {
            collection: self,
            pivot,
            stamps,
        }
    }

    /// Exact CBS weight of a pair over the full collection:
    /// `|B(p_x) ∩ B(p_y)|`, counting only non-purged blocks.
    ///
    /// The two-profile form for arbitrary pairs; callers weighing many
    /// pairs with a common endpoint use [`cbs_from`](Self::cbs_from).
    ///
    /// Runs as a linear merge: a profile's block list is sorted because
    /// token blocking inserts blocks in (sorted) token-id order.
    pub fn common_blocks(&self, x: ProfileId, y: ProfileId) -> u32 {
        let bx = self.blocks_of(x);
        let by = self.blocks_of(y);
        debug_assert!(bx.windows(2).all(|w| w[0] < w[1]), "block lists sorted");
        let mut i = 0;
        let mut j = 0;
        let mut count = 0u32;
        while i < bx.len() && j < by.len() {
            match bx[i].cmp(&by[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if !self.slab[bx[i].index()].is_purged() {
                        count += 1;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }
}

/// The stamped non-purged blocks of one pivot profile, ready to weigh its
/// partners (see [`BlockCollection::cbs_from`]).
#[derive(Debug)]
pub struct PivotCbs<'a> {
    collection: &'a BlockCollection,
    pivot: ProfileId,
    stamps: &'a EpochStamps,
}

impl PivotCbs<'_> {
    /// Exact CBS weight of `(pivot, partner)`: how many of the partner's
    /// blocks carry the pivot's stamp — a branch-free count, where the
    /// sorted merge of [`BlockCollection::common_blocks`] takes one
    /// unpredictable branch per step.
    #[inline]
    pub fn with(&self, partner: ProfileId) -> u32 {
        let blocks = self.collection.blocks_of(partner);
        let count = self.stamps.count_in(blocks.iter().map(|bid| bid.index()));
        debug_assert_eq!(
            count,
            self.collection.common_blocks(self.pivot, partner),
            "stamped CBS of ({}, {partner}) disagrees with the merge",
            self.pivot
        );
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: u32) -> TokenId {
        TokenId(i)
    }

    fn add(c: &mut BlockCollection, id: u32, src: u8, tokens: &[u32]) {
        let toks: Vec<TokenId> = tokens.iter().map(|&t| tid(t)).collect();
        c.add_profile(ProfileId(id), SourceId(src), &toks);
    }

    fn counts(c: &BlockCollection, p: u32, block_ids: &[BlockId]) -> Vec<(ProfileId, u32)> {
        let mut scratch = NeighborAccumulator::new();
        c.cbs_counts(ProfileId(p), block_ids, &mut scratch)
    }

    #[test]
    fn blocks_group_by_token() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[1, 2]);
        add(&mut c, 1, 0, &[2, 3]);
        assert_eq!(c.block_count(), 3);
        let b2 = c.block(BlockId(2)).unwrap();
        assert_eq!(b2.len(), 2);
        assert_eq!(b2.cardinality(ErKind::Dirty), 1);
        assert_eq!(c.blocks_of(ProfileId(0)), &[BlockId(1), BlockId(2)]);
    }

    #[test]
    fn absent_slab_slots_read_as_missing_blocks() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[5]);
        // Slot 3 was allocated by the resize to id 5 but never created.
        assert!(c.block(BlockId(3)).is_none());
        // Beyond the slab entirely.
        assert!(c.block(BlockId(99)).is_none());
        assert_eq!(c.block_count(), 1);
        assert_eq!(
            c.slab_stats(),
            SlabStats {
                blocks: 1,
                slots: 6
            }
        );
    }

    #[test]
    fn active_blocks_iterate_in_creation_order() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[7, 2]);
        add(&mut c, 1, 0, &[4]);
        let order: Vec<BlockId> = c.active_blocks().map(|(id, _)| id).collect();
        assert_eq!(order, vec![BlockId(7), BlockId(2), BlockId(4)]);
    }

    #[test]
    fn out_of_order_ids_are_accepted() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 5, 0, &[1]);
        add(&mut c, 1, 0, &[1]);
        assert_eq!(c.profile_count(), 2);
        assert_eq!(c.blocks_of(ProfileId(5)), &[BlockId(1)]);
        let ids: Vec<ProfileId> = c.profile_ids().collect();
        assert_eq!(ids, vec![ProfileId(1), ProfileId(5)]);
    }

    #[test]
    fn arrival_counts_insertions_not_ids() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 5, 0, &[1]);
        add(&mut c, 1, 0, &[1, 2]);
        add(&mut c, 3, 0, &[2]);
        assert_eq!(c.arrival(ProfileId(5)), 1);
        assert_eq!(c.arrival(ProfileId(1)), 2);
        assert_eq!(c.arrival(ProfileId(3)), 3);
        // Members are listed in arrival order.
        let members: Vec<usize> = c
            .block(BlockId(1))
            .unwrap()
            .members()
            .map(|p| c.arrival(p))
            .collect();
        assert_eq!(members, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_profile_id_panics() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 1, 0, &[1]);
        add(&mut c, 1, 0, &[2]);
    }

    #[test]
    fn clean_clean_cardinality_is_cross_product() {
        let mut c = BlockCollection::new(ErKind::CleanClean);
        add(&mut c, 0, 0, &[7]);
        add(&mut c, 1, 0, &[7]);
        add(&mut c, 2, 1, &[7]);
        let b = c.block(BlockId(7)).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.cardinality(ErKind::CleanClean), 2);
        assert_eq!(b.cardinality(ErKind::Dirty), 3);
    }

    #[test]
    fn cached_reciprocal_tracks_cardinality() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[1]);
        // Singleton block: cardinality 0, clamped to 1.
        assert_eq!(c.block(BlockId(1)).unwrap().recip_cardinality(), 1.0);
        add(&mut c, 1, 0, &[1]);
        assert_eq!(c.block(BlockId(1)).unwrap().recip_cardinality(), 1.0);
        add(&mut c, 2, 0, &[1]); // 3 members -> ||b|| = 3
        let b = c.block(BlockId(1)).unwrap();
        assert_eq!(b.recip_cardinality(), 1.0 / 3.0);
        assert_eq!(
            b.recip_cardinality(),
            1.0 / b.cardinality(ErKind::Dirty) as f64
        );
    }

    #[test]
    fn partners_respect_clean_clean_sources() {
        let mut c = BlockCollection::new(ErKind::CleanClean);
        add(&mut c, 0, 0, &[7]);
        add(&mut c, 1, 0, &[7]);
        add(&mut c, 2, 1, &[7]);
        let partners = counts(&c, 0, &[BlockId(7)]);
        assert_eq!(partners, vec![(ProfileId(2), 1)]);
        let partners = counts(&c, 2, &[BlockId(7)]);
        assert_eq!(partners, vec![(ProfileId(0), 1), (ProfileId(1), 1)]);
    }

    #[test]
    fn partner_count_matches_iteration() {
        let mut c = BlockCollection::new(ErKind::CleanClean);
        add(&mut c, 0, 0, &[7]);
        add(&mut c, 1, 0, &[7]);
        add(&mut c, 2, 1, &[7]);
        let b = c.block(BlockId(7)).unwrap();
        for p in [0u32, 1, 2] {
            let p = ProfileId(p);
            let src = c.source_of(p);
            for kind in [ErKind::Dirty, ErKind::CleanClean] {
                assert_eq!(
                    b.partner_count(p, src, kind),
                    b.partners_of(p, src, kind).count(),
                    "{p} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn partners_count_common_blocks() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[1, 2, 3]);
        add(&mut c, 1, 0, &[1, 2]);
        add(&mut c, 2, 0, &[3]);
        let partners = counts(&c, 0, c.blocks_of(ProfileId(0)));
        assert_eq!(partners, vec![(ProfileId(1), 2), (ProfileId(2), 1)]);
    }

    #[test]
    fn cbs_counts_order_is_count_desc_then_id_asc() {
        // p0 shares 2 blocks with p3, 1 with p1, 1 with p2, 2 with p4:
        // the (weight, id) contract must yield [p3|p4 by id? no: both 2 ->
        // id ascending], then the weight-1 partners id-ascending.
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[1, 2, 3, 4]);
        add(&mut c, 4, 0, &[1, 2]);
        add(&mut c, 3, 0, &[3, 4]);
        add(&mut c, 2, 0, &[4]);
        add(&mut c, 1, 0, &[3]);
        let partners = counts(&c, 0, c.blocks_of(ProfileId(0)));
        assert_eq!(
            partners,
            vec![
                (ProfileId(3), 2), // count 2, smaller id first
                (ProfileId(4), 2),
                (ProfileId(1), 1), // then count 1, id ascending
                (ProfileId(2), 1),
            ]
        );
    }

    #[test]
    fn cbs_counts_order_agrees_with_weighted_comparison_order() {
        // The documented contract: for fixed p, (count desc, id asc) is the
        // exact order `WeightedComparison` sorting would produce.
        use pier_types::{Comparison, WeightedComparison};
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 5, 0, &[1, 2, 3]);
        add(&mut c, 0, 0, &[1, 2]);
        add(&mut c, 9, 0, &[1, 2]);
        add(&mut c, 3, 0, &[3]);
        let partners = counts(&c, 5, c.blocks_of(ProfileId(5)));
        let mut weighted: Vec<WeightedComparison> = partners
            .iter()
            .map(|&(q, n)| WeightedComparison::new(Comparison::new(ProfileId(5), q), n as f64))
            .collect();
        weighted.sort_unstable_by(|a, b| b.cmp(a));
        let from_weighted: Vec<ProfileId> = weighted
            .iter()
            .map(|wc| {
                if wc.cmp.a == ProfileId(5) {
                    wc.cmp.b
                } else {
                    wc.cmp.a
                }
            })
            .collect();
        let from_counts: Vec<ProfileId> = partners.iter().map(|&(q, _)| q).collect();
        assert_eq!(from_counts, from_weighted);
    }

    #[test]
    fn cbs_counts_scratch_is_reusable() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[1, 2]);
        add(&mut c, 1, 0, &[1, 2]);
        add(&mut c, 2, 0, &[2]);
        let mut scratch = NeighborAccumulator::new();
        let first = c.cbs_counts(ProfileId(0), c.blocks_of(ProfileId(0)), &mut scratch);
        let second = c.cbs_counts(ProfileId(0), c.blocks_of(ProfileId(0)), &mut scratch);
        assert_eq!(first, second, "stale epoch state leaked between calls");
        assert_eq!(first, vec![(ProfileId(1), 2), (ProfileId(2), 1)]);
    }

    #[test]
    fn common_blocks_symmetric() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[1, 2, 3]);
        add(&mut c, 1, 0, &[2, 3, 4]);
        assert_eq!(c.common_blocks(ProfileId(0), ProfileId(1)), 2);
        assert_eq!(c.common_blocks(ProfileId(1), ProfileId(0)), 2);
    }

    #[test]
    fn purged_blocks_generate_nothing() {
        let policy = PurgePolicy::max_size(2);
        let mut c = BlockCollection::with_policy(ErKind::Dirty, policy);
        add(&mut c, 0, 0, &[1]);
        add(&mut c, 1, 0, &[1]);
        add(&mut c, 2, 0, &[1]); // block 1 now has 3 members > 2 -> purged
        assert_eq!(c.purged_count(), 1);
        assert!(c.block(BlockId(1)).unwrap().is_purged());
        assert!(counts(&c, 0, &[BlockId(1)]).is_empty());
        assert!(c.active_blocks_of(ProfileId(0)).is_empty());
        assert_eq!(c.common_blocks(ProfileId(0), ProfileId(1)), 0);
        assert_eq!(c.total_cardinality(), 0);
    }

    #[test]
    fn active_blocks_of_reports_sizes() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[1, 2]);
        add(&mut c, 1, 0, &[2]);
        let mut got = c.active_blocks_of(ProfileId(0));
        got.sort_unstable();
        assert_eq!(got, vec![(BlockId(1), 1), (BlockId(2), 2)]);
    }

    #[test]
    fn total_cardinality_sums_blocks() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[1]);
        add(&mut c, 1, 0, &[1, 2]);
        add(&mut c, 2, 0, &[1, 2]);
        // block 1: 3 members -> 3 cmp; block 2: 2 members -> 1 cmp
        assert_eq!(c.total_cardinality(), 4);
    }

    #[test]
    fn dirty_partners_exclude_self() {
        let mut c = BlockCollection::new(ErKind::Dirty);
        add(&mut c, 0, 0, &[5]);
        let partners = counts(&c, 0, &[BlockId(5)]);
        assert!(partners.is_empty());
        let b = c.block(BlockId(5)).unwrap();
        assert_eq!(
            b.partners_of(ProfileId(0), SourceId(0), ErKind::Dirty)
                .count(),
            0
        );
    }
}
