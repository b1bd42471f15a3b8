//! Epoch-stamped scratch accumulators for the stage-A hot loop.
//!
//! The per-arrival work of every PIER strategy funnels through one gather:
//! walk the new profile's retained blocks and accumulate, per candidate
//! partner, a common-block count (CBS) and optionally a reciprocal-
//! cardinality sum (ARCS). Doing that with a freshly allocated
//! `HashMap<ProfileId, _>` per ingest pays an allocation, SipHash on every
//! partner occurrence, and cache-hostile probing. The
//! [`NeighborAccumulator`] here replaces the map with dense slots indexed
//! directly by [`ProfileId`]:
//!
//! * slots are *epoch-stamped* — [`NeighborAccumulator::begin`] bumps a
//!   generation counter instead of clearing, so reset is O(1) and a slot's
//!   contents are valid only when its stamp matches the current epoch;
//! * a *touched list* records first-touch order, making the drain
//!   O(candidates) — not O(capacity) — and deterministic across runs
//!   (unlike `HashMap` iteration order under a random SipHash key);
//! * slot vectors grow to the largest profile id seen and are then reused
//!   for the life of the owning emitter, so the steady state allocates
//!   nothing per ingest.

use pier_types::ProfileId;

/// A set over dense `usize` indices, emptied in O(1) by epoch stamping,
/// where each member may carry a small `Copy` value `V` (none by default).
///
/// One `u32` stamp per index, beside its value; an index is in the set iff
/// its stamp equals the current epoch. [`begin`](Self::begin) bumps the
/// epoch instead of clearing, and zeroes the stamps once on the
/// (astronomically rare) `u32` wrap-around so stamps of the previous cycle
/// cannot alias the new epoch.
///
/// It is the reset mechanism of [`NeighborAccumulator`] (indices are
/// profile ids) and, on its own, the block-stamp scratch of the CBS
/// kernels (indices are block ids: stamp a pivot's blocks once, then a
/// partner's weight is a count of its block list against the stamps; the
/// `GetComparisons` fallback stamps each block with what it knows of it).
#[derive(Debug, Clone)]
pub struct EpochStamps<V = ()> {
    /// Current generation, never 0: fresh stamps are 0, so an index that
    /// was never inserted is absent in every epoch.
    epoch: u32,
    stamps: Vec<(u32, V)>,
}

impl<V> Default for EpochStamps<V> {
    fn default() -> Self {
        EpochStamps {
            epoch: 1,
            stamps: Vec::new(),
        }
    }
}

impl EpochStamps {
    /// Creates an empty set; stamps grow on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `i`, growing the stamp vector to hold it. Returns whether
    /// `i` was absent.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        self.insert_with(i, ())
    }
}

impl<V: Copy + Default> EpochStamps<V> {
    /// Empties the set. O(1), except for the one `fill` at the wrap.
    pub fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill((0, V::default()));
            self.epoch = 1;
        }
    }

    /// Inserts `i` carrying `value` (replacing the value of an `i` already
    /// present), growing the stamp vector to hold it. Returns whether `i`
    /// was absent.
    #[inline]
    pub fn insert_with(&mut self, i: usize, value: V) -> bool {
        if self.stamps.len() <= i {
            self.stamps.resize(i + 1, (0, V::default()));
        }
        let fresh = self.stamps[i].0 != self.epoch;
        self.stamps[i] = (self.epoch, value);
        fresh
    }

    /// Whether `i` was inserted since the last [`begin`](Self::begin).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamps.get(i).is_some_and(|s| s.0 == self.epoch)
    }

    /// The value `i` was inserted with since the last
    /// [`begin`](Self::begin), if it was.
    #[inline]
    pub fn get(&self, i: usize) -> Option<V> {
        let (stamp, value) = self.stamps.get(i).copied().unwrap_or_default();
        (stamp == self.epoch).then_some(value)
    }

    /// How many of `indices` are in the set — a branch-free sum of stamp
    /// comparisons (indices beyond the stamp vector were never inserted
    /// and count as absent).
    #[inline]
    pub fn count_in(&self, indices: impl IntoIterator<Item = usize>) -> u32 {
        indices
            .into_iter()
            .map(|i| u32::from(self.stamps.get(i).map_or(0, |s| s.0) == self.epoch))
            .sum()
    }

    /// Number of stamp slots allocated (largest index inserted + 1).
    pub fn slots(&self) -> usize {
        self.stamps.len()
    }

    /// Invalidates the current contents and moves the epoch to the end of
    /// its `u32` cycle, so the next [`begin`](Self::begin) takes the
    /// wrap-around path. Exists so tests can reach that path without four
    /// billion epochs; harmless elsewhere.
    pub fn fast_forward_to_wrap(&mut self) {
        self.begin();
        self.epoch = u32::MAX;
    }
}

/// Occupancy statistics of a [`NeighborAccumulator`], surfaced by
/// `observed_stream --stage-a-stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Current slot capacity (largest profile id touched + 1).
    pub slots: usize,
    /// Largest number of candidates accumulated in any single epoch — the
    /// high-water mark of per-profile neighborhood size.
    pub high_water: usize,
}

/// A sparse-to-dense accumulator over [`ProfileId`]-keyed `u32` counts and
/// `f64` sums, reset in O(1) by epoch stamping.
///
/// Usage per gather: [`begin`](Self::begin), then
/// [`bump`](Self::bump)/[`add`](Self::add) per partner occurrence, then
/// [`for_each`](Self::for_each) (or [`touched`](Self::touched) plus the
/// accessors) to drain in first-touch order. Contents become stale at the
/// next `begin`.
#[derive(Debug, Clone, Default)]
pub struct NeighborAccumulator {
    /// Which slots hold this epoch's values.
    live: EpochStamps,
    counts: Vec<u32>,
    sums: Vec<f64>,
    touched: Vec<ProfileId>,
    high_water: usize,
}

impl NeighborAccumulator {
    /// Creates an empty accumulator; slots grow on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new accumulation epoch. O(1): previous contents are
    /// invalidated by the stamp bump ([`EpochStamps::begin`]), not cleared.
    pub fn begin(&mut self) {
        self.live.begin();
        self.touched.clear();
    }

    /// Ensures `p` has a live slot for the current epoch and returns its
    /// index.
    #[inline]
    fn slot(&mut self, p: ProfileId) -> usize {
        let i = p.index();
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
            self.sums.resize(i + 1, 0.0);
        }
        if self.live.insert(i) {
            self.counts[i] = 0;
            self.sums[i] = 0.0;
            self.touched.push(p);
            self.high_water = self.high_water.max(self.touched.len());
        }
        i
    }

    /// Increments `p`'s count (a CBS co-occurrence).
    #[inline]
    pub fn bump(&mut self, p: ProfileId) {
        let i = self.slot(p);
        self.counts[i] += 1;
    }

    /// Increments `p`'s count and adds `delta` to its sum (a CBS
    /// co-occurrence plus an ARCS reciprocal-cardinality contribution).
    #[inline]
    pub fn add(&mut self, p: ProfileId, delta: f64) {
        let i = self.slot(p);
        self.counts[i] += 1;
        self.sums[i] += delta;
    }

    /// `p`'s accumulated count this epoch (0 if untouched).
    #[inline]
    pub fn count(&self, p: ProfileId) -> u32 {
        if self.live.contains(p.index()) {
            self.counts[p.index()]
        } else {
            0
        }
    }

    /// `p`'s accumulated sum this epoch (0.0 if untouched).
    #[inline]
    pub fn sum(&self, p: ProfileId) -> f64 {
        if self.live.contains(p.index()) {
            self.sums[p.index()]
        } else {
            0.0
        }
    }

    /// The profiles touched this epoch, in first-touch order.
    pub fn touched(&self) -> &[ProfileId] {
        &self.touched
    }

    /// Number of distinct profiles touched this epoch.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether no profile was touched this epoch.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Visits `(profile, count, sum)` for every touched profile in
    /// first-touch order — the deterministic drain.
    pub fn for_each(&self, mut f: impl FnMut(ProfileId, u32, f64)) {
        for &p in &self.touched {
            f(p, self.counts[p.index()], self.sums[p.index()]);
        }
    }

    /// Current occupancy statistics.
    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            slots: self.live.slots(),
            high_water: self.high_water,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProfileId {
        ProfileId(i)
    }

    #[test]
    fn stamps_insert_contain_and_count() {
        let mut set = EpochStamps::new();
        assert!(!set.contains(0), "a fresh set is empty before any begin");
        assert_eq!(set.count_in([0, 7]), 0);
        set.begin();
        assert!(set.insert(4));
        assert!(!set.insert(4), "second insert reports presence");
        assert!(set.insert(9));
        assert!(set.contains(4) && set.contains(9) && !set.contains(5));
        // Repeated and out-of-range indices are counted per occurrence / as
        // absent.
        assert_eq!(set.count_in([4, 9, 5, 4, 1_000]), 3);
        assert_eq!(set.slots(), 10);
        set.begin();
        assert!(!set.contains(4));
        assert_eq!(set.count_in([4, 9]), 0);
    }

    #[test]
    fn stamps_carry_values_for_one_epoch() {
        let mut marks: EpochStamps<u32> = EpochStamps::default();
        marks.begin();
        assert!(marks.insert_with(2, 7));
        assert!(
            !marks.insert_with(2, 9),
            "a second insert replaces the value"
        );
        assert_eq!(marks.get(2), Some(9));
        assert_eq!(marks.get(1), None);
        assert_eq!(marks.get(1_000), None);
        marks.begin();
        assert_eq!(marks.get(2), None);
        marks.fast_forward_to_wrap();
        marks.insert_with(4, 1);
        marks.begin();
        marks.begin();
        assert_eq!(marks.get(4), None, "the wrap clears values too");
    }

    #[test]
    fn stamps_survive_the_epoch_wrap() {
        let mut set = EpochStamps::new();
        set.begin();
        set.insert(3); // stamped with the first epoch handed out
        set.fast_forward_to_wrap();
        assert!(!set.contains(3), "fast-forwarding invalidates the contents");
        set.insert(5); // stamped u32::MAX
        set.begin(); // wraps
        set.begin(); // same epoch value as index 3's stale stamp
        assert!(!set.contains(3) && !set.contains(5));
        assert_eq!(set.count_in([3, 5]), 0);
        assert!(set.insert(3));
        assert_eq!(set.count_in([3, 5]), 1);
    }

    #[test]
    fn accumulates_counts_and_sums() {
        let mut acc = NeighborAccumulator::new();
        acc.begin();
        acc.bump(p(3));
        acc.add(p(3), 0.5);
        acc.add(p(7), 0.25);
        assert_eq!(acc.count(p(3)), 2);
        assert_eq!(acc.sum(p(3)), 0.5);
        assert_eq!(acc.count(p(7)), 1);
        assert_eq!(acc.sum(p(7)), 0.25);
        assert_eq!(acc.count(p(0)), 0);
        assert_eq!(acc.len(), 2);
    }

    #[test]
    fn drain_follows_first_touch_order() {
        let mut acc = NeighborAccumulator::new();
        acc.begin();
        for &i in &[9u32, 2, 9, 5, 2] {
            acc.bump(p(i));
        }
        assert_eq!(acc.touched(), &[p(9), p(2), p(5)]);
        let mut seen = Vec::new();
        acc.for_each(|q, c, _| seen.push((q, c)));
        assert_eq!(seen, vec![(p(9), 2), (p(2), 2), (p(5), 1)]);
    }

    #[test]
    fn begin_invalidates_without_clearing_slots() {
        let mut acc = NeighborAccumulator::new();
        acc.begin();
        acc.add(p(4), 1.0);
        acc.begin();
        assert!(acc.is_empty());
        assert_eq!(acc.count(p(4)), 0);
        assert_eq!(acc.sum(p(4)), 0.0);
        // Reuse in the new epoch starts from zero.
        acc.bump(p(4));
        assert_eq!(acc.count(p(4)), 1);
    }

    #[test]
    fn unbegun_accumulator_reads_as_empty() {
        let acc = NeighborAccumulator::new();
        assert!(acc.is_empty());
        assert_eq!(acc.count(p(0)), 0);
        assert_eq!(acc.sum(p(0)), 0.0);
    }

    #[test]
    fn epoch_wraparound_does_not_resurrect_stale_slots() {
        let mut acc = NeighborAccumulator::new();
        acc.begin();
        acc.bump(p(1)); // stamped with the first epoch handed out
        acc.live.fast_forward_to_wrap();
        acc.begin(); // wraps: stamps zeroed, epochs restart...
        acc.begin(); // ...and reach the stale stamp's value again
        assert_eq!(
            acc.count(p(1)),
            0,
            "a slot stamped before the wrap must not leak into the epoch that reuses its stamp"
        );
        acc.bump(p(1));
        assert_eq!(acc.count(p(1)), 1);
    }

    #[test]
    fn stats_track_slots_and_high_water() {
        let mut acc = NeighborAccumulator::new();
        acc.begin();
        acc.bump(p(10));
        acc.bump(p(2));
        acc.bump(p(5));
        acc.begin();
        acc.bump(p(0));
        let s = acc.stats();
        assert_eq!(s.slots, 11);
        assert_eq!(s.high_water, 3, "high water survives later smaller epochs");
    }
}
