//! The Incremental Blocking pipeline stage.
//!
//! [`IncrementalBlocker`] is the stateful component at the head of the ER
//! pipeline (Figure 3 of the paper): it receives data increments, tokenizes
//! each profile, interns tokens, and maintains the block collection. It also
//! acts as the *profile store* of the stream — downstream components (match
//! functions, prioritizers) reference profiles by id.

use std::sync::Arc;

use pier_types::{
    EntityProfile, ErKind, PierError, ProfileId, SharedTokenDictionary, TokenId, Tokenizer,
};

use crate::collection::BlockCollection;
use crate::purging::PurgePolicy;

/// Incremental blocking state: tokenizer, token dictionary, block
/// collection, and the profiles seen so far.
///
/// Profiles keep the ids they arrive with (streams interleave sources, so
/// arrival order is not id order); per-profile state is stored sparsely.
///
/// ```
/// use pier_blocking::IncrementalBlocker;
/// use pier_types::{EntityProfile, ErKind, ProfileId, SourceId};
///
/// let mut blocker = IncrementalBlocker::new(ErKind::Dirty);
/// blocker.process_increment(&[
///     EntityProfile::new(ProfileId(0), SourceId(0)).with("name", "Ada Lovelace"),
///     EntityProfile::new(ProfileId(1), SourceId(0)).with("who", "Ada Byron Lovelace"),
/// ]);
/// // Both profiles landed in the "ada" and "lovelace" token blocks.
/// assert_eq!(blocker.collection().common_blocks(ProfileId(0), ProfileId(1)), 2);
/// ```
#[derive(Debug)]
pub struct IncrementalBlocker {
    tokenizer: Tokenizer,
    /// A fresh dictionary of its own, or one the surrounding pipeline
    /// shares (the streaming/sharded runtimes, where the tokenize stage
    /// interns once and every consumer speaks global ids).
    dictionary: SharedTokenDictionary,
    collection: BlockCollection,
    /// Profiles and token sets live behind `Arc` so an executor can keep
    /// hold of them outside the blocker's lock without deep clones
    /// (profiles are immutable once ingested).
    profiles: Vec<Option<Arc<EntityProfile>>>,
    token_sets: Vec<Option<Arc<[TokenId]>>>,
    arrival_order: Vec<ProfileId>,
    profile_count: usize,
    /// Per-profile global minimum block size (0 = unset), supplied by the
    /// sharded router so per-shard block ghosting uses the same `|b_min|`
    /// as the unsharded pipeline. See [`IncrementalBlocker::set_ghost_floor`].
    ghost_floors: Vec<u32>,
    /// Reusable lowercase buffer for allocation-free tokenization.
    scratch: String,
}

impl IncrementalBlocker {
    /// Creates a blocker with the default tokenizer and purge policy.
    pub fn new(kind: ErKind) -> Self {
        Self::with_config(kind, Tokenizer::default(), PurgePolicy::default())
    }

    /// Creates a blocker with explicit tokenizer and purge policy, interning
    /// into a fresh dictionary.
    pub fn with_config(kind: ErKind, tokenizer: Tokenizer, policy: PurgePolicy) -> Self {
        Self::with_shared_dictionary(kind, tokenizer, policy, SharedTokenDictionary::new())
    }

    /// Creates a blocker interning into an external shared dictionary.
    ///
    /// Token ids handed to [`IncrementalBlocker::process_profile_with_token_ids`]
    /// and the ids this blocker interns itself then live in one global id
    /// space, so block ids are comparable across every consumer of the same
    /// dictionary (the contract the sharded pipeline relies on).
    pub fn with_shared_dictionary(
        kind: ErKind,
        tokenizer: Tokenizer,
        policy: PurgePolicy,
        dictionary: SharedTokenDictionary,
    ) -> Self {
        IncrementalBlocker {
            tokenizer,
            dictionary,
            collection: BlockCollection::with_policy(kind, policy),
            profiles: Vec::new(),
            token_sets: Vec::new(),
            arrival_order: Vec::new(),
            profile_count: 0,
            ghost_floors: Vec::new(),
            scratch: String::new(),
        }
    }

    /// Ingests one increment of profiles, in arrival order, and returns
    /// their ids.
    pub fn process_increment(&mut self, increment: &[EntityProfile]) -> Vec<ProfileId> {
        let mut ids = Vec::with_capacity(increment.len());
        for p in increment {
            ids.push(self.process_profile(p.clone()));
        }
        ids
    }

    /// Ingests a single profile under its own id.
    ///
    /// # Panics
    /// Panics if a profile with the same id was already ingested or its
    /// source does not fit the ER kind. Pipelines that must survive such
    /// input use [`IncrementalBlocker::try_process_profile`].
    pub fn process_profile(&mut self, profile: EntityProfile) -> ProfileId {
        match self.try_process_profile(profile) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Ingests a single profile under its own id, tokenizing and interning
    /// through this blocker's dictionary.
    ///
    /// # Errors
    /// Returns [`PierError::DuplicateProfile`] if a profile with the same
    /// id was already ingested, and [`PierError::InvalidConfig`] if its id
    /// is past the limit or its source is not one this ER kind has
    /// ([`ErKind::check_profile`]). The blocker is left unchanged either
    /// way.
    pub fn try_process_profile(&mut self, profile: EntityProfile) -> Result<ProfileId, PierError> {
        self.check_admissible(&profile)?;
        let ids = self
            .dictionary
            .tokenize_and_intern(&self.tokenizer, &profile, &mut self.scratch);
        Ok(self.store(profile, Arc::from(ids)))
    }

    /// Ingests a profile under externally interned token ids instead of
    /// running the built-in tokenizer — the hot entry point of the sharded
    /// pipeline, where the tokenize stage interns each profile exactly once
    /// against the shared dictionary and fans dense per-shard id subsets
    /// out to per-shard blockers. The ids must come from this blocker's
    /// (shared) dictionary, sorted and distinct, as every producer hands
    /// them out: `SharedTokenDictionary::tokenize_and_intern`, and any
    /// order-keeping subset of its output (a shard router's per-shard ids);
    /// debug builds assert it.
    ///
    /// # Errors
    /// As [`IncrementalBlocker::try_process_profile`].
    pub fn try_process_profile_with_token_ids(
        &mut self,
        profile: EntityProfile,
        tokens: &[TokenId],
    ) -> Result<ProfileId, PierError> {
        debug_assert!(
            tokens.windows(2).all(|w| w[0] < w[1]),
            "token ids must be sorted and distinct"
        );
        self.check_admissible(&profile)?;
        Ok(self.store(profile, Arc::from(tokens)))
    }

    /// Panicking wrapper around
    /// [`IncrementalBlocker::try_process_profile_with_token_ids`].
    ///
    /// # Panics
    /// As [`IncrementalBlocker::process_profile`].
    pub fn process_profile_with_token_ids(
        &mut self,
        profile: EntityProfile,
        tokens: &[TokenId],
    ) -> ProfileId {
        match self.try_process_profile_with_token_ids(profile, tokens) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Shared head of the ingest entry points. Streamed profiles are
    /// outside input: id bound, source and id reuse are checked before any
    /// state — the dictionary included — is touched.
    fn check_admissible(&self, profile: &EntityProfile) -> Result<(), PierError> {
        self.collection.kind().check_profile(profile)?;
        match self.profiles.get(profile.id.index()) {
            Some(Some(_)) => Err(PierError::DuplicateProfile(profile.id.0)),
            _ => Ok(()),
        }
    }

    /// Shared tail of the ingest entry points: stores an admissible profile
    /// and its sorted distinct token ids, updating the block collection.
    fn store(&mut self, profile: EntityProfile, ids: Arc<[TokenId]>) -> ProfileId {
        let id = profile.id;
        if self.profiles.len() <= id.index() {
            self.profiles.resize(id.index() + 1, None);
            self.token_sets.resize(id.index() + 1, None);
        }
        self.collection.add_profile(id, profile.source, &ids);
        self.token_sets[id.index()] = Some(ids);
        self.profiles[id.index()] = Some(Arc::new(profile));
        self.arrival_order.push(id);
        self.profile_count += 1;
        id
    }

    /// Records the *global* minimum block size of a profile's blocks.
    ///
    /// A shard-local blocker only sees the blocks of its token subspace, so
    /// the `|b_min|` that block ghosting divides by would be the shard-local
    /// minimum — systematically larger than the unsharded one, which makes
    /// each shard keep (and scan) oversized blocks the unsharded pipeline
    /// ghosts. The sharded router knows every token's global frequency and
    /// stores the true minimum here; generation then ghosts against
    /// `min(local minimum, floor)`. Unsharded pipelines never set it.
    pub fn set_ghost_floor(&mut self, id: ProfileId, floor: usize) {
        if self.ghost_floors.len() <= id.index() {
            self.ghost_floors.resize(id.index() + 1, 0);
        }
        self.ghost_floors[id.index()] = floor as u32;
    }

    /// The global minimum block size recorded for a profile, if any.
    pub fn ghost_floor(&self, id: ProfileId) -> Option<usize> {
        self.ghost_floors
            .get(id.index())
            .copied()
            .filter(|&f| f > 0)
            .map(|f| f as usize)
    }

    /// Attaches a pipeline observer to the block collection (which reports
    /// block creation and purging through it).
    pub fn set_observer(&mut self, observer: pier_observe::Observer) {
        self.collection.set_observer(observer);
    }

    /// The maintained block collection `B_D`.
    pub fn collection(&self) -> &BlockCollection {
        &self.collection
    }

    /// A stored profile by id.
    ///
    /// # Panics
    /// Panics if no profile with this id was ingested.
    pub fn profile(&self, id: ProfileId) -> &EntityProfile {
        self.profiles[id.index()]
            .as_deref()
            .expect("profile ingested")
    }

    /// A shared handle to a stored profile — cloning it is one refcount
    /// bump, so a caller can classify outside the blocker's lock without
    /// deep-copying profile payloads.
    ///
    /// # Panics
    /// Panics if no profile with this id was ingested.
    pub fn profile_handle(&self, id: ProfileId) -> Arc<EntityProfile> {
        self.profiles[id.index()]
            .as_ref()
            .expect("profile ingested")
            .clone()
    }

    /// The sorted distinct token ids of a stored profile.
    pub fn tokens_of(&self, id: ProfileId) -> &[TokenId] {
        self.token_sets[id.index()].as_deref().unwrap_or(&[])
    }

    /// A shared handle to a stored profile's token set (see
    /// [`IncrementalBlocker::profile_handle`]).
    ///
    /// # Panics
    /// Panics if no profile with this id was ingested.
    pub fn tokens_handle(&self, id: ProfileId) -> Arc<[TokenId]> {
        self.token_sets[id.index()]
            .as_ref()
            .expect("profile ingested")
            .clone()
    }

    /// All stored profiles, in id order.
    pub fn profiles(&self) -> impl Iterator<Item = &EntityProfile> {
        self.profiles.iter().filter_map(Option::as_deref)
    }

    /// All stored profiles, in arrival order (the order that determines
    /// block membership order; used by checkpointing).
    pub fn profiles_in_arrival_order(&self) -> impl Iterator<Item = &EntityProfile> {
        self.arrival_order.iter().map(|id| self.profile(*id))
    }

    /// Number of profiles ingested so far.
    pub fn profile_count(&self) -> usize {
        self.profile_count
    }

    /// The token dictionary (grows monotonically across increments): the
    /// handle passed to [`IncrementalBlocker::with_shared_dictionary`], or
    /// the blocker's own.
    pub fn dictionary(&self) -> &SharedTokenDictionary {
        &self.dictionary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::SourceId;

    fn p(id: u32, src: u8, text: &str) -> EntityProfile {
        EntityProfile::new(ProfileId(id), SourceId(src)).with("text", text)
    }

    #[test]
    fn increments_accumulate_state() {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        let ids1 = b.process_increment(&[p(0, 0, "alpha beta"), p(1, 0, "beta gamma")]);
        assert_eq!(ids1, vec![ProfileId(0), ProfileId(1)]);
        let ids2 = b.process_increment(&[p(2, 0, "gamma alpha")]);
        assert_eq!(ids2, vec![ProfileId(2)]);
        assert_eq!(b.profile_count(), 3);
        assert_eq!(b.collection().block_count(), 3);
        // "beta" block holds profiles 0 and 1.
        let beta = b.dictionary().get("beta").unwrap();
        let block = b.collection().block(beta.into()).unwrap();
        assert_eq!(block.len(), 2);
    }

    #[test]
    fn ids_are_preserved_and_may_be_sparse() {
        // Streams interleave sources, so arrival order is not id order.
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        let id = b.process_profile(p(999, 0, "xx yy"));
        assert_eq!(id, ProfileId(999));
        assert_eq!(b.profile(id).id, ProfileId(999));
        let id2 = b.process_profile(p(3, 0, "xx zz"));
        assert_eq!(id2, ProfileId(3));
        assert_eq!(b.profile_count(), 2);
    }

    #[test]
    #[should_panic(expected = "ingested twice")]
    fn duplicate_id_panics() {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        b.process_profile(p(7, 0, "aa"));
        b.process_profile(p(7, 0, "bb"));
    }

    #[test]
    fn token_sets_are_stored_sorted() {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        let id = b.process_profile(p(0, 0, "zeta alpha zeta"));
        let toks = b.tokens_of(id);
        assert_eq!(toks.len(), 2);
        assert!(toks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn clean_clean_blocker_tracks_sources() {
        let mut b = IncrementalBlocker::new(ErKind::CleanClean);
        b.process_profile(p(0, 0, "shared token"));
        b.process_profile(p(1, 1, "shared other"));
        let shared = b.dictionary().get("shared").unwrap();
        let block = b.collection().block(shared.into()).unwrap();
        assert_eq!(block.members_of(SourceId(0)).len(), 1);
        assert_eq!(block.members_of(SourceId(1)).len(), 1);
        assert_eq!(block.cardinality(ErKind::CleanClean), 1);
    }

    #[test]
    fn external_token_ids_match_builtin_tokenization() {
        // Tokenizing once against a shared dictionary and feeding the ids
        // back must reproduce the built-in tokenize path exactly.
        let tokenizer = Tokenizer::default();
        let shared = SharedTokenDictionary::new();
        let mut via_tokenizer = IncrementalBlocker::new(ErKind::Dirty);
        let mut via_ids = IncrementalBlocker::with_shared_dictionary(
            ErKind::Dirty,
            tokenizer.clone(),
            PurgePolicy::default(),
            shared.clone(),
        );
        let mut scratch = String::new();
        for profile in [p(0, 0, "alpha beta beta"), p(1, 0, "beta gamma")] {
            let ids = shared.tokenize_and_intern(&tokenizer, &profile, &mut scratch);
            via_tokenizer.process_profile(profile.clone());
            via_ids.process_profile_with_token_ids(profile, &ids);
        }
        for id in [ProfileId(0), ProfileId(1)] {
            assert_eq!(via_tokenizer.tokens_of(id), via_ids.tokens_of(id));
        }
        assert_eq!(
            via_tokenizer.collection().block_count(),
            via_ids.collection().block_count()
        );
        assert_eq!(
            via_tokenizer
                .collection()
                .common_blocks(ProfileId(0), ProfileId(1)),
            via_ids
                .collection()
                .common_blocks(ProfileId(0), ProfileId(1))
        );
    }

    #[test]
    fn external_token_id_subset_builds_only_its_blocks() {
        let shared = SharedTokenDictionary::new();
        let alpha = shared.intern("alpha");
        let beta = shared.intern("beta");
        let mut b = IncrementalBlocker::with_shared_dictionary(
            ErKind::Dirty,
            Tokenizer::default(),
            PurgePolicy::default(),
            shared,
        );
        b.process_profile_with_token_ids(p(0, 0, "ignored"), &[alpha, beta]);
        b.process_profile_with_token_ids(p(1, 0, "ignored"), &[beta]);
        assert_eq!(b.collection().block_count(), 2);
        assert_eq!(b.collection().common_blocks(ProfileId(0), ProfileId(1)), 1);
    }

    #[test]
    fn duplicate_id_is_a_typed_error() {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        b.process_profile(p(7, 0, "aa bb"));
        let before_blocks = b.collection().block_count();
        let err = b.try_process_profile(p(7, 0, "cc dd")).unwrap_err();
        assert!(matches!(err, PierError::DuplicateProfile(7)));
        assert_eq!(err.to_string(), "profile 7 ingested twice");
        // The failed ingest left the blocker untouched.
        assert_eq!(b.profile_count(), 1);
        assert_eq!(b.collection().block_count(), before_blocks);
    }

    #[test]
    fn a_source_the_kind_lacks_is_a_typed_error() {
        // Dirty ER has one source; Clean-Clean has two. Anything else would
        // index past `Block.members` (panic) or sit in a member list the
        // block cursor never enumerates.
        for (kind, src) in [(ErKind::Dirty, 1), (ErKind::CleanClean, 2)] {
            let mut b = IncrementalBlocker::new(kind);
            b.process_profile(p(0, 0, "aa bb"));
            let err = b.try_process_profile(p(1, src, "aa bb")).unwrap_err();
            assert!(
                matches!(
                    err,
                    PierError::InvalidConfig {
                        parameter: "profiles",
                        ..
                    }
                ),
                "{kind:?}: {err}"
            );
            let err = b
                .try_process_profile_with_token_ids(p(1, src, "ignored"), &[TokenId(0)])
                .unwrap_err();
            assert!(matches!(err, PierError::InvalidConfig { .. }), "{err}");
            // Nothing was touched: the id is still free for a valid profile.
            assert_eq!(b.profile_count(), 1);
            assert_eq!(b.collection().block_count(), 2);
            assert_eq!(b.try_process_profile(p(1, 0, "aa")).unwrap(), ProfileId(1));
        }
    }

    /// Every per-profile table grows to the largest id it is handed, so an
    /// id at or past the limit is refused before any of them is touched
    /// (let in, `ProfileId(u32::MAX)` asks for tens of GiB).
    #[test]
    fn an_id_past_the_limit_is_a_typed_error() {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        b.process_profile(p(0, 0, "aa bb"));
        for id in [ProfileId::LIMIT, u32::MAX] {
            let err = b.try_process_profile(p(id, 0, "aa cc")).unwrap_err();
            assert!(
                matches!(
                    err,
                    PierError::InvalidConfig {
                        parameter: "profiles",
                        ..
                    }
                ),
                "{err}"
            );
            let err = b
                .try_process_profile_with_token_ids(p(id, 0, "ignored"), &[TokenId(0)])
                .unwrap_err();
            assert!(matches!(err, PierError::InvalidConfig { .. }), "{err}");
        }
        // Nothing was touched, the dictionary included ("cc" is unknown).
        assert_eq!(b.profile_count(), 1);
        assert_eq!(b.collection().block_count(), 2);
        assert_eq!(b.dictionary().len(), 2);
        assert!(b.profiles.len() <= 1 && b.token_sets.len() <= 1);
    }

    #[test]
    fn a_shared_dictionary_is_the_one_the_blocker_answers_with() {
        let shared = SharedTokenDictionary::new();
        let mut b = IncrementalBlocker::with_shared_dictionary(
            ErKind::Dirty,
            Tokenizer::default(),
            PurgePolicy::default(),
            shared.clone(),
        );
        b.process_profile(p(0, 0, "alpha beta"));
        // The caller's handle sees the blocker's interning and vice versa.
        assert_eq!(shared.len(), 2);
        let gamma = shared.intern("gamma");
        assert_eq!(b.dictionary().get("gamma"), Some(gamma));
        assert_eq!(b.dictionary().get("alpha"), shared.get("alpha"));
    }

    #[test]
    fn handles_share_storage_with_the_blocker() {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        let id = b.process_profile(p(0, 0, "alpha beta"));
        let profile = b.profile_handle(id);
        let tokens = b.tokens_handle(id);
        // Handles alias the stored data: no copy was made.
        assert!(std::ptr::eq(&*profile, b.profile(id)));
        assert!(std::ptr::eq(tokens.as_ptr(), b.tokens_of(id).as_ptr()));
        assert_eq!(&*tokens, b.tokens_of(id));
        // Cloning a handle is a refcount bump, not a deep clone.
        let again = b.profile_handle(id);
        assert_eq!(Arc::strong_count(&profile), 3); // store + 2 handles
        drop(again);
    }

    #[test]
    fn empty_increment_is_a_noop() {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        let ids = b.process_increment(&[]);
        assert!(ids.is_empty());
        assert_eq!(b.profile_count(), 0);
    }
}
