//! Stage B, the Incremental Classification component (Figure 3 of the
//! paper): it classifies pairs "processed in received order" and keeps the
//! discovered duplicates `M_D` and the entity clusters across increments,
//! "without reconsidering the already discovered duplicates" (§2.3).
//!
//! [`StageB`] takes three steps: [`StageB::materialize`] turns pulled
//! comparisons into [`PreparedPair`]s through a [`ProfileTable`], which
//! prepares each profile once; [`StageB::classify`] is the matcher's
//! verdict on one pair; [`StageB::confirm`] records it in the ledger.
//! `PierPipeline` takes all three steps and the simulator the first two.
//! The threaded runtime spreads them over its threads: its stage-A lane
//! owns a [`ProfileTable`], its match workers call
//! [`PreparedPair::compare`], and its classifier thread keeps the run's
//! ledger (match events, metrics, the entity index).

use std::collections::HashSet;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use pier_observe::{Event, Observer};
use pier_types::{Comparison, EntityProfile, IncrementalClusters, ProfileId, TokenId};

use crate::matcher::{MatchFunction, MatchOutcome, PreparedProfile};

/// One profile as stage B keeps it: the store's handle to its token-id set
/// and what the table's matcher prepared from it.
#[derive(Debug)]
pub struct ProfileEntry {
    /// The profile's sorted distinct token ids.
    pub tokens: Arc<[TokenId]>,
    /// What the matcher kept of the profile.
    pub prepared: PreparedProfile,
}

/// A comparison materialized so that classifying it needs nothing from
/// stage A: one handle per side to that profile's [`ProfileEntry`]. Two
/// refcount bumps, so fanning a batch out to match workers copies no
/// profile, token set or prepared text.
#[derive(Debug)]
pub struct PreparedPair {
    /// The pair's first profile.
    pub a: Arc<ProfileEntry>,
    /// The pair's second profile.
    pub b: Arc<ProfileEntry>,
}

impl PreparedPair {
    /// The verdict of `matcher` — the one that prepared both sides.
    #[inline]
    pub fn compare<F: MatchFunction + ?Sized>(&self, matcher: &F) -> MatchOutcome {
        let (a, b) = (&*self.a, &*self.b);
        matcher.compare(&a.prepared, &a.tokens, &b.prepared, &b.tokens)
    }

    /// The pair's canonical comparison.
    #[inline]
    pub fn comparison(&self) -> Comparison {
        Comparison::new(self.a.prepared.id(), self.b.prepared.id())
    }
}

/// Stage B's per-profile table: one [`ProfileEntry`] per profile id, built
/// the first time a pull names that profile and shared by every later pair
/// it takes part in.
///
/// A table is prepared by one matcher for its whole life: it owns it, as
/// whatever `M` points to it (a `Box`, a `&dyn MatchFunction`, an
/// `Arc<dyn MatchFunction>`). It has one writer, the thread that pulls from
/// stage A, and needs no lock. An entry never goes stale: profiles are
/// immutable once stored, an id that arrives a second time is rejected at
/// ingest with the first profile kept, and a shard worker rebuilt from its
/// journal replays the same profiles under the same ids. Ingest also
/// bounds the table: it admits no id at or above [`ProfileId::LIMIT`].
pub struct ProfileTable<M> {
    matcher: M,
    entries: Vec<Option<Arc<ProfileEntry>>>,
}

impl<M: Deref<Target: MatchFunction>> ProfileTable<M> {
    /// An empty table whose entries `matcher` prepares.
    pub fn new(matcher: M) -> Self {
        ProfileTable {
            matcher,
            entries: Vec::new(),
        }
    }

    /// Turns pulled comparisons into pairs. `store` reads a profile and
    /// its token handle from wherever the caller keeps them; it is asked
    /// once per profile, not per pair.
    pub fn materialize<'s>(
        &mut self,
        cmps: Vec<Comparison>,
        store: impl Fn(ProfileId) -> (&'s EntityProfile, Arc<[TokenId]>),
    ) -> Vec<PreparedPair> {
        let mut side = |id: ProfileId| {
            if self.entries.len() <= id.index() {
                self.entries.resize(id.index() + 1, None);
            }
            let entry = self.entries[id.index()].get_or_insert_with(|| {
                let (profile, tokens) = store(id);
                let prepared = self.matcher.prepare(profile, &tokens);
                Arc::new(ProfileEntry { tokens, prepared })
            });
            Arc::clone(entry)
        };
        cmps.into_iter()
            .map(|c| PreparedPair {
                a: side(c.a),
                b: side(c.b),
            })
            .collect()
    }
}

/// A confirmed duplicate with its similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifiedMatch {
    /// The duplicate pair.
    pub pair: Comparison,
    /// Similarity reported by the match function.
    pub similarity: f64,
}

/// The stage-B step machine: a [`ProfileTable`], and with it the matcher,
/// plus the confirmed-match ledger (see the module docs).
pub struct StageB<M> {
    table: ProfileTable<M>,
    /// Every pair confirmed so far, so that none is counted twice. Nothing
    /// repeats today: stage A's comparison filter emits a pair once, and
    /// `PierPipeline` cannot restore a checkpoint. The guard goes once a
    /// restore replays stage A exactly (ROADMAP item 12(c)).
    evaluated: HashSet<Comparison>,
    duplicates: Vec<ClassifiedMatch>,
    clusters: IncrementalClusters,
    observer: Observer,
    /// Origin for the `at_secs` timestamp of [`Event::MatchConfirmed`].
    epoch: Instant,
}

impl<M: Deref<Target: MatchFunction>> StageB<M> {
    /// A stage B around a match function.
    pub fn new(matcher: M) -> Self {
        StageB {
            table: ProfileTable::new(matcher),
            evaluated: HashSet::new(),
            duplicates: Vec::new(),
            clusters: IncrementalClusters::new(),
            observer: Observer::disabled(),
            epoch: Instant::now(),
        }
    }

    /// Attaches a pipeline observer ([`Event::MatchConfirmed`] for every
    /// new duplicate, stamped with seconds since the stage was built).
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// Step 1: [`ProfileTable::materialize`].
    pub fn materialize<'s>(
        &mut self,
        cmps: Vec<Comparison>,
        store: impl Fn(ProfileId) -> (&'s EntityProfile, Arc<[TokenId]>),
    ) -> Vec<PreparedPair> {
        self.table.materialize(cmps, store)
    }

    /// Step 2: the matcher's verdict on one materialized pair.
    pub fn classify(&self, pair: &PreparedPair) -> MatchOutcome {
        pair.compare(&*self.table.matcher)
    }

    /// Step 3: records a classified pair; a match also becomes a duplicate,
    /// a cluster merge and an [`Event::MatchConfirmed`]. A pair recorded
    /// before is ignored.
    pub fn confirm(&mut self, pair: Comparison, outcome: &MatchOutcome) {
        if !self.evaluated.insert(pair) || !outcome.is_match {
            return;
        }
        self.duplicates.push(ClassifiedMatch {
            pair,
            similarity: outcome.similarity,
        });
        self.clusters.union(pair);
        self.observer.emit(|| Event::MatchConfirmed {
            cmp: pair,
            similarity: outcome.similarity,
            at_secs: self.epoch.elapsed().as_secs_f64(),
        });
    }

    /// The duplicates confirmed so far (`M_D`), in confirmation order.
    pub fn duplicates(&self) -> &[ClassifiedMatch] {
        &self.duplicates
    }

    /// The entity clusters implied by the duplicates so far.
    pub fn clusters(&self) -> &IncrementalClusters {
        &self.clusters
    }

    /// Pairs confirmed, matching or not.
    pub fn comparisons(&self) -> u64 {
        self.evaluated.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{EditDistanceMatcher, JaccardMatcher};
    use pier_types::SourceId;

    /// A store of `n` profiles, profile `i` carrying `texts[i]` and the
    /// token ids `tokens[i]`.
    struct Store {
        profiles: Vec<EntityProfile>,
        tokens: Vec<Arc<[TokenId]>>,
    }

    impl Store {
        fn new(texts: &[&str], tokens: &[&[u32]]) -> Self {
            Store {
                profiles: (0..texts.len() as u32)
                    .map(|i| {
                        EntityProfile::new(ProfileId(i), SourceId(0)).with("t", texts[i as usize])
                    })
                    .collect(),
                tokens: tokens
                    .iter()
                    .map(|t| t.iter().map(|&i| TokenId(i)).collect())
                    .collect(),
            }
        }

        fn get(&self, id: ProfileId) -> (&EntityProfile, Arc<[TokenId]>) {
            (
                &self.profiles[id.index()],
                Arc::clone(&self.tokens[id.index()]),
            )
        }
    }

    fn cmp(a: u32, b: u32) -> Comparison {
        Comparison::new(ProfileId(a), ProfileId(b))
    }

    /// Materializes, classifies and confirms `cmps`, as `PierPipeline` does.
    fn step<M: Deref<Target: MatchFunction>>(
        stage: &mut StageB<M>,
        store: &Store,
        cmps: Vec<Comparison>,
    ) {
        for pair in stage.materialize(cmps, |id| store.get(id)) {
            let outcome = stage.classify(&pair);
            stage.confirm(pair.comparison(), &outcome);
        }
    }

    #[test]
    fn classifies_and_accumulates_duplicates() {
        let store = Store::new(&["", ""], &[&[1, 2, 3], &[1, 2, 3, 4]]);
        let mut stage = StageB::new(Box::new(JaccardMatcher { threshold: 0.5 }));
        step(&mut stage, &store, vec![cmp(0, 1)]);
        assert_eq!(stage.duplicates().len(), 1);
        assert_eq!(stage.duplicates()[0].pair, cmp(0, 1));
        assert_eq!(stage.comparisons(), 1);
    }

    #[test]
    fn repeated_pairs_are_absorbed() {
        let store = Store::new(&["", ""], &[&[1, 2], &[1, 2]]);
        let mut stage = StageB::new(Box::new(JaccardMatcher::default()));
        step(&mut stage, &store, vec![cmp(0, 1), cmp(0, 1)]);
        assert_eq!(stage.comparisons(), 1);
        assert_eq!(stage.duplicates().len(), 1, "duplicate reported once");
    }

    #[test]
    fn clusters_follow_matches() {
        let store = Store::new(&["", "", ""], &[&[1, 2, 3], &[1, 2, 3], &[1, 2, 3]]);
        let mut stage = StageB::new(Box::new(JaccardMatcher { threshold: 0.5 }));
        step(&mut stage, &store, vec![cmp(0, 1), cmp(1, 2)]);
        assert!(stage.clusters().same_entity(ProfileId(0), ProfileId(2)));
        assert_eq!(stage.clusters().cluster_size(ProfileId(0)), 3);
    }

    #[test]
    fn non_matches_accumulate_nothing() {
        let store = Store::new(&["", ""], &[&[1, 2], &[3, 4]]);
        let mut stage = StageB::new(Box::new(JaccardMatcher { threshold: 0.9 }));
        step(&mut stage, &store, vec![cmp(0, 1)]);
        assert_eq!(stage.comparisons(), 1);
        assert!(stage.duplicates().is_empty());
        assert_eq!(stage.clusters().cluster_count(), 0);
    }

    #[test]
    fn each_profile_is_prepared_once_and_shared() {
        let store = Store::new(&["alpha beta", "alpha betx", "gamma"], &[&[], &[], &[]]);
        let matcher = EditDistanceMatcher::default();
        let mut table = ProfileTable::new(&matcher as &dyn MatchFunction);
        let asked = std::cell::Cell::new(0);
        let pairs = table.materialize(vec![cmp(0, 1), cmp(0, 2), cmp(1, 2)], |id| {
            asked.set(asked.get() + 1);
            store.get(id)
        });
        assert_eq!(asked.get(), 3, "the store is asked once per profile");
        assert!(Arc::ptr_eq(&pairs[0].a, &pairs[1].a));
        assert_eq!(pairs[2].comparison(), cmp(1, 2));
        // A later pull reuses the entries.
        let again = table.materialize(vec![cmp(0, 1)], |id| store.get(id));
        assert_eq!(asked.get(), 3);
        assert!(Arc::ptr_eq(&again[0].b, &pairs[0].b));
        // A prepared pair decides like the unprepared composition.
        let (pa, ta) = store.get(ProfileId(0));
        let (pb, tb) = store.get(ProfileId(1));
        let fresh = matcher.evaluate(crate::MatchInput {
            profile_a: pa,
            tokens_a: &ta,
            profile_b: pb,
            tokens_b: &tb,
        });
        assert_eq!(pairs[0].compare(&matcher), fresh);
    }
}
