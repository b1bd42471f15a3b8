//! LS-PSN — Local Schema-agnostic Progressive Sorted Neighborhood.
//!
//! One of the four schema-agnostic progressive methods of \[36\] (§2.4 of the
//! PIER paper): all profiles are laid out in a *sorted position array* —
//! for every distinct token, in lexicographic token order, the profiles
//! containing it — and comparisons are emitted by increasing positional
//! distance (window size `w = 1, 2, ...`). Nearby positions mean shared or
//! lexicographically-close tokens, so small windows are enriched with
//! matches; the "local" variant weighs a pair purely by the window at
//! which it is first encountered.
//!
//! Two variants, per \[36\]:
//! * [`LsPsn`] (*local*): emits pairs by increasing window, each weighed
//!   by the window at which it is first seen.
//! * [`GsPsn`] (*global*): accumulates, across **all** windows up to the
//!   maximum, the weight `Σ (max_window − distance + 1)` per pair, then
//!   emits by descending weight — a better order at a much higher
//!   initialization cost (it materializes every in-window pair upfront).
//!
//! Like PBS/PPS these are batch methods; driven per increment they
//! re-sort from scratch (charged like the other GLOBAL adaptations).
//! Provided as additional baselines beyond the paper's evaluated set.

use std::collections::HashSet;

use pier_blocking::IncrementalBlocker;
use pier_core::ComparisonEmitter;
use pier_types::{Comparison, ProfileId, TokenId, WeightedComparison};

/// The LS-PSN emitter.
#[derive(Debug)]
pub struct LsPsn {
    /// Position array: profiles listed under each token, token-sorted.
    positions: Vec<ProfileId>,
    /// Current window size (distance being emitted).
    window: usize,
    /// Cursor within the current window pass.
    cursor: usize,
    /// Largest window to consider; beyond it remaining pairs are dropped
    /// (PSN's inherent recall cut-off).
    pub max_window: usize,
    emitted: HashSet<Comparison>,
    rebuild_cost_multiplier: u64,
    ops: u64,
}

impl LsPsn {
    /// Creates an LS-PSN emitter with the default maximum window of 10.
    pub fn new() -> Self {
        LsPsn {
            positions: Vec::new(),
            window: 1,
            cursor: 0,
            max_window: 10,
            emitted: HashSet::new(),
            rebuild_cost_multiplier: 8,
            ops: 0,
        }
    }

    /// Overrides the maximum window.
    #[must_use]
    pub fn with_max_window(mut self, w: usize) -> Self {
        assert!(w >= 1, "window must be at least 1");
        self.max_window = w;
        self
    }

    /// Rebuilds the sorted position array over all data.
    fn rebuild(&mut self, blocker: &IncrementalBlocker) {
        self.positions = build_positions(blocker, &mut self.ops);
        self.window = 1;
        self.cursor = 0;
    }

    /// Advances to the next candidate pair in window order, if any.
    fn next_pair(&mut self, blocker: &IncrementalBlocker) -> Option<Comparison> {
        let collection = blocker.collection();
        let kind = collection.kind();
        while self.window <= self.max_window {
            while self.cursor + self.window < self.positions.len() {
                let x = self.positions[self.cursor];
                let y = self.positions[self.cursor + self.window];
                self.cursor += 1;
                self.ops += 1;
                if x == y {
                    continue;
                }
                if kind == pier_types::ErKind::CleanClean
                    && collection.source_of(x) == collection.source_of(y)
                {
                    continue;
                }
                let cmp = Comparison::new(x, y);
                if self.emitted.insert(cmp) {
                    return Some(cmp);
                }
            }
            self.window += 1;
            self.cursor = 0;
        }
        None
    }
}

impl Default for LsPsn {
    fn default() -> Self {
        Self::new()
    }
}

impl ComparisonEmitter for LsPsn {
    fn on_increment(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
        if !new_ids.is_empty() {
            let before = self.ops;
            self.rebuild(blocker);
            self.ops += (self.ops - before) * (self.rebuild_cost_multiplier - 1);
        }
    }

    /// A pair first seen at window `w` weighs `max_window − w + 1`: GS-PSN's
    /// term for that one window.
    fn next_weighted_batch(
        &mut self,
        blocker: &IncrementalBlocker,
        k: usize,
    ) -> Vec<WeightedComparison> {
        let mut batch = Vec::with_capacity(k);
        while batch.len() < k {
            match self.next_pair(blocker) {
                Some(c) => {
                    let weight = (self.max_window - self.window + 1) as f64;
                    batch.push(WeightedComparison::new(c, weight));
                }
                None => break,
            }
        }
        batch
    }

    fn drain_ops(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }

    fn has_pending(&self) -> bool {
        self.window <= self.max_window && self.positions.len() > self.window
    }

    fn name(&self) -> String {
        "LS-PSN".to_string()
    }
}

/// Builds the token-sorted position array shared by both PSN variants.
fn build_positions(blocker: &IncrementalBlocker, ops: &mut u64) -> Vec<ProfileId> {
    let collection = blocker.collection();
    // Tokens sorted lexicographically; the dictionary interns in
    // first-seen order, so sort the strings.
    let dict = blocker.dictionary();
    let mut tokens: Vec<(String, TokenId)> = (0..dict.len() as u32)
        .map(TokenId)
        .filter_map(|id| dict.resolve(id).map(|s| (s, id)))
        .collect();
    tokens.sort_unstable();
    let mut positions = Vec::new();
    for (_, tid) in tokens {
        if let Some(block) = collection.block(tid.into()) {
            if block.is_purged() {
                continue;
            }
            positions.extend(block.members());
            *ops += block.len() as u64;
        }
    }
    positions
}

/// GS-PSN — the global variant: pair weights aggregated over all windows.
#[derive(Debug)]
pub struct GsPsn {
    /// Descending-weight emission schedule built at (re-)initialization,
    /// each comparison with its window sum.
    schedule: std::collections::VecDeque<WeightedComparison>,
    /// Largest window considered.
    pub max_window: usize,
    emitted: HashSet<Comparison>,
    rebuild_cost_multiplier: u64,
    ops: u64,
}

impl GsPsn {
    /// Creates a GS-PSN emitter with the default maximum window of 10.
    pub fn new() -> Self {
        GsPsn {
            schedule: std::collections::VecDeque::new(),
            max_window: 10,
            emitted: HashSet::new(),
            rebuild_cost_multiplier: 8,
            ops: 0,
        }
    }

    /// Overrides the maximum window.
    #[must_use]
    pub fn with_max_window(mut self, w: usize) -> Self {
        assert!(w >= 1, "window must be at least 1");
        self.max_window = w;
        self
    }

    fn rebuild(&mut self, blocker: &IncrementalBlocker) {
        let collection = blocker.collection();
        let kind = collection.kind();
        let positions = build_positions(blocker, &mut self.ops);
        let mut weights: std::collections::HashMap<Comparison, u64> =
            std::collections::HashMap::new();
        for w in 1..=self.max_window {
            for i in 0..positions.len().saturating_sub(w) {
                let (x, y) = (positions[i], positions[i + w]);
                self.ops += 1;
                if x == y {
                    continue;
                }
                if kind == pier_types::ErKind::CleanClean
                    && collection.source_of(x) == collection.source_of(y)
                {
                    continue;
                }
                let cmp = Comparison::new(x, y);
                if self.emitted.contains(&cmp) {
                    continue;
                }
                // Closer co-occurrences weigh more.
                *weights.entry(cmp).or_insert(0) += (self.max_window - w + 1) as u64;
            }
        }
        let mut ranked: Vec<(u64, Comparison)> = weights.into_iter().map(|(c, w)| (w, c)).collect();
        // Descending weight, pair id as deterministic tie-break.
        ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        self.ops += ranked.len() as u64;
        self.schedule = ranked
            .into_iter()
            .map(|(w, c)| WeightedComparison::new(c, w as f64))
            .collect();
    }
}

impl Default for GsPsn {
    fn default() -> Self {
        Self::new()
    }
}

impl ComparisonEmitter for GsPsn {
    fn on_increment(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
        if !new_ids.is_empty() {
            let before = self.ops;
            self.rebuild(blocker);
            self.ops += (self.ops - before) * (self.rebuild_cost_multiplier - 1);
        }
    }

    fn next_weighted_batch(
        &mut self,
        _blocker: &IncrementalBlocker,
        k: usize,
    ) -> Vec<WeightedComparison> {
        let mut batch = Vec::with_capacity(k);
        while batch.len() < k {
            let Some(wc) = self.schedule.pop_front() else {
                break;
            };
            if self.emitted.insert(wc.cmp) {
                self.ops += 1;
                batch.push(wc);
            }
        }
        batch
    }

    fn drain_ops(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }

    fn has_pending(&self) -> bool {
        !self.schedule.is_empty()
    }

    fn name(&self) -> String {
        "GS-PSN".to_string()
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
    fn window_one_finds_token_sharing_pairs_first() {
        // p0 and p1 share "match": adjacent under that token -> window 1.
        let b = blocker(&["match alpha", "match beta", "gamma delta"]);
        let mut e = LsPsn::new();
        e.on_increment(&b, &[ProfileId(0)]);
        let first = e.next_batch(&b, 1);
        assert_eq!(first, vec![Comparison::new(ProfileId(0), ProfileId(1))]);
    }

    #[test]
    fn no_duplicate_emissions() {
        let b = blocker(&["aa bb", "aa bb", "aa cc", "bb cc"]);
        let mut e = LsPsn::new().with_max_window(50);
        e.on_increment(&b, &[ProfileId(0)]);
        let mut seen = HashSet::new();
        loop {
            let batch = e.next_batch(&b, 8);
            if batch.is_empty() {
                break;
            }
            for c in batch {
                assert!(seen.insert(c), "duplicate {c}");
            }
        }
        assert!(seen.len() >= 4);
    }

    #[test]
    fn max_window_bounds_recall() {
        // Profiles that share no token can still pair within a window if
        // their tokens sort adjacently; a tiny window emits fewer pairs
        // than a large one.
        let texts: Vec<String> = (0..12).map(|i| format!("tok{i:02} shared")).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let b = blocker(&refs);
        let count = |w: usize| {
            let mut e = LsPsn::new().with_max_window(w);
            e.on_increment(&b, &[ProfileId(0)]);
            let mut n = 0;
            loop {
                let batch = e.next_batch(&b, 64);
                if batch.is_empty() {
                    break;
                }
                n += batch.len();
            }
            n
        };
        assert!(count(1) < count(8));
    }

    #[test]
    fn clean_clean_pairs_cross_sources() {
        let mut b = IncrementalBlocker::new(ErKind::CleanClean);
        b.process_profile(EntityProfile::new(ProfileId(0), SourceId(0)).with("t", "tok"));
        b.process_profile(EntityProfile::new(ProfileId(1), SourceId(0)).with("t", "tok"));
        b.process_profile(EntityProfile::new(ProfileId(2), SourceId(1)).with("t", "tok"));
        let mut e = LsPsn::new();
        e.on_increment(&b, &[ProfileId(0)]);
        let mut all = Vec::new();
        loop {
            let batch = e.next_batch(&b, 8);
            if batch.is_empty() {
                break;
            }
            all.extend(batch);
        }
        for c in &all {
            assert_ne!(b.collection().source_of(c.a), b.collection().source_of(c.b));
        }
        assert!(!all.is_empty());
    }

    #[test]
    fn rebuild_resets_the_scan_but_not_emissions() {
        let mut b = blocker(&["xx yy", "xx yy"]);
        let mut e = LsPsn::new();
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        let first = e.next_batch(&b, 10);
        assert_eq!(first.len(), 1);
        b.process_profile(EntityProfile::new(ProfileId(2), SourceId(0)).with("t", "xx"));
        e.on_increment(&b, &[ProfileId(2)]);
        let second = e.next_batch(&b, 10);
        assert!(!second.contains(&Comparison::new(ProfileId(0), ProfileId(1))));
    }

    #[test]
    fn ops_accumulate_with_multiplier() {
        let b = blocker(&["mm nn", "mm nn"]);
        let mut e = LsPsn::new();
        e.on_increment(&b, &[ProfileId(0)]);
        assert!(e.drain_ops() > 0);
    }

    #[test]
    fn gs_psn_ranks_repeated_cooccurrences_first() {
        // p0/p1 co-occur under two tokens (higher aggregate weight) while
        // p2 shares only one token with each.
        let b = blocker(&["aa bb", "aa bb", "aa cc"]);
        let mut e = GsPsn::new();
        e.on_increment(&b, &[ProfileId(0)]);
        let first = e.next_batch(&b, 1);
        assert_eq!(first, vec![Comparison::new(ProfileId(0), ProfileId(1))]);
    }

    #[test]
    fn gs_psn_never_repeats() {
        let b = blocker(&["aa bb", "aa bb", "aa cc", "bb cc"]);
        let mut e = GsPsn::new().with_max_window(30);
        e.on_increment(&b, &[ProfileId(0)]);
        let mut seen = HashSet::new();
        loop {
            let batch = e.next_batch(&b, 8);
            if batch.is_empty() {
                break;
            }
            for c in batch {
                assert!(seen.insert(c), "duplicate {c}");
            }
        }
        assert!(seen.len() >= 4);
        assert!(!e.has_pending());
    }

    #[test]
    fn gs_psn_rebuild_skips_emitted() {
        let mut b = blocker(&["xx yy", "xx yy"]);
        let mut e = GsPsn::new();
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        assert_eq!(e.next_batch(&b, 10).len(), 1);
        b.process_profile(EntityProfile::new(ProfileId(2), SourceId(0)).with("t", "xx"));
        e.on_increment(&b, &[ProfileId(2)]);
        let second = e.next_batch(&b, 10);
        assert!(!second.contains(&Comparison::new(ProfileId(0), ProfileId(1))));
    }

    #[test]
    fn gs_psn_init_costs_more_than_ls_psn() {
        let texts: Vec<String> = (0..30).map(|i| format!("shared uniq{i}")).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let b = blocker(&refs);
        let mut ls = LsPsn::new();
        ls.on_increment(&b, &[ProfileId(0)]);
        let ls_ops = ls.drain_ops();
        let mut gs = GsPsn::new();
        gs.on_increment(&b, &[ProfileId(0)]);
        let gs_ops = gs.drain_ops();
        assert!(gs_ops > ls_ops * 2, "gs {gs_ops} vs ls {ls_ops}");
    }
}
