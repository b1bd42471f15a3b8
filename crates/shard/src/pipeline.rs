//! The synchronous sharded stage A: router → workers → merger in one
//! struct, mirroring the single-shard `blocker + emitter` pair so drivers
//! (tests, benches, the threaded runtime's building blocks) can swap one
//! for the other.

use std::sync::Arc;

use pier_blocking::PurgePolicy;
use pier_core::{PierConfig, Strategy};
use pier_observe::{Event, Observer};
use pier_types::{Comparison, EntityProfile, ErKind, PierError, ProfileId, TokenId, Tokenizer};

use crate::merger::ShardMerger;
use crate::router::ShardRouter;
use crate::worker::ShardWorker;

/// Configuration of the sharded stage A.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of stage-A shards. Default 4.
    pub shards: u16,
    /// The prioritization strategy instantiated per shard. Default I-PCS.
    pub strategy: Strategy,
    /// Per-shard PIER configuration (β, scheme, index capacity).
    pub pier: PierConfig,
    /// Per-shard block purge policy.
    pub purge_policy: PurgePolicy,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            strategy: Strategy::Pcs,
            pier: PierConfig::default(),
            purge_policy: PurgePolicy::default(),
        }
    }
}

/// The global profile store of the sharded pipeline.
///
/// Shard blockers only know their token subspace, so the matcher-facing
/// profile/token lookups live here: the *full* token-id sets, exactly what
/// the unsharded blocker would expose. The store holds no dictionary of its
/// own — ids arrive already interned (once, by the router against the
/// shared dictionary) and are never mapped back to strings on this path.
#[derive(Debug, Default)]
pub struct ProfileStore {
    /// Stored behind `Arc` so stage B can keep hold of a profile's token
    /// set outside the store's lock without a deep clone (profiles are
    /// immutable once stored).
    profiles: Vec<Option<Arc<EntityProfile>>>,
    token_sets: Vec<Option<Arc<[TokenId]>>>,
    /// Global per-token occurrence counts — block sizes before purging,
    /// used to hand each shard the global ghosting floor. Indexed by the
    /// shared dictionary's dense [`TokenId`]s.
    token_counts: Vec<u32>,
}

impl ProfileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a profile with its full sorted distinct token-id list (as
    /// produced by [`crate::ShardRouter::tokenize`]).
    ///
    /// # Errors
    /// Returns [`PierError::DuplicateProfile`] if the id was already
    /// stored, and [`PierError::InvalidConfig`] if it is past
    /// [`ProfileId::LIMIT`] (the tables grow to the id); the store is left
    /// unchanged.
    pub fn insert(&mut self, profile: EntityProfile, tokens: &[TokenId]) -> Result<(), PierError> {
        profile.id.check()?;
        let idx = profile.id.index();
        if self.profiles.len() <= idx {
            self.profiles.resize(idx + 1, None);
            self.token_sets.resize(idx + 1, None);
        }
        if self.profiles[idx].is_some() {
            return Err(PierError::DuplicateProfile(profile.id.0));
        }
        let mut ids = tokens.to_vec();
        ids.sort_unstable();
        ids.dedup();
        for &t in &ids {
            if self.token_counts.len() <= t.index() {
                self.token_counts.resize(t.index() + 1, 0);
            }
            self.token_counts[t.index()] += 1;
        }
        self.token_sets[idx] = Some(Arc::from(ids));
        self.profiles[idx] = Some(Arc::new(profile));
        Ok(())
    }

    /// Stores one tokenized increment and fans it out: the routing step
    /// shared by [`ShardedStageA`] and the threaded runtime's router.
    ///
    /// The whole increment enters the store before any ghost floor is
    /// read, so the floors see the block sizes the unsharded pipeline
    /// would at generation time (it too blocks a full increment before
    /// generating). Profiles whose id is already stored, and profiles
    /// [`ErKind::check_profile`] rejects (id past the limit, a source
    /// `kind` does not have), are skipped before the store is touched and
    /// reported, never fanned out. Shards only
    /// block and weight, so each owning shard gets an attribute-less
    /// skeleton (id + source) with its token-id subset and the floor, not a
    /// clone of the profile.
    pub fn fan_out(
        &mut self,
        router: &ShardRouter,
        kind: ErKind,
        increment: impl IntoIterator<Item = (EntityProfile, Vec<TokenId>)>,
    ) -> FanOut {
        let mut out = FanOut {
            per_shard: vec![Vec::new(); router.shards() as usize],
            accepted: 0,
            errors: Vec::new(),
        };
        let mut accepted = Vec::new();
        for (profile, tokens) in increment {
            let (id, source) = (profile.id, profile.source);
            let stored = kind
                .check_profile(&profile)
                .and_then(|()| self.insert(profile, &tokens));
            match stored {
                Ok(()) => accepted.push((id, source, tokens)),
                Err(e) => out.errors.push(e),
            }
        }
        out.accepted = accepted.len();
        for (id, source, tokens) in accepted {
            let floor = self.min_token_count(id).unwrap_or(1);
            for (shard, subset) in router.route_ids(&tokens) {
                out.per_shard[shard as usize].push((EntityProfile::new(id, source), subset, floor));
            }
        }
        out
    }

    /// Total token occurrences across all stored profiles (the Σ of every
    /// profile's distinct-token count) — what a string-shipping pipeline
    /// would have cloned at least once more.
    pub fn token_occurrences(&self) -> u64 {
        self.token_counts.iter().map(|&c| c as u64).sum()
    }

    /// The global minimum block size over a profile's tokens — the
    /// unsharded `|b_min|` its block ghosting would divide by. `None` for
    /// token-less profiles.
    pub fn min_token_count(&self, id: ProfileId) -> Option<usize> {
        self.tokens_of(id)
            .iter()
            .map(|t| self.token_counts[t.index()] as usize)
            .min()
    }

    /// A stored profile by id.
    ///
    /// # Panics
    /// Panics if the id was never stored.
    pub fn profile(&self, id: ProfileId) -> &EntityProfile {
        self.profiles[id.index()]
            .as_deref()
            .expect("profile stored")
    }

    /// A shared handle to a stored profile — cloning it is a refcount bump,
    /// not a deep copy.
    ///
    /// # Panics
    /// Panics if the id was never stored.
    pub fn profile_handle(&self, id: ProfileId) -> Arc<EntityProfile> {
        self.profiles[id.index()]
            .as_ref()
            .expect("profile stored")
            .clone()
    }

    /// The sorted distinct token ids of a stored profile.
    pub fn tokens_of(&self, id: ProfileId) -> &[TokenId] {
        self.token_sets[id.index()].as_deref().unwrap_or(&[])
    }

    /// A shared handle to a stored profile's token set (see
    /// [`ProfileStore::profile_handle`]).
    ///
    /// # Panics
    /// Panics if the id was never stored.
    pub fn tokens_handle(&self, id: ProfileId) -> Arc<[TokenId]> {
        self.token_sets[id.index()]
            .as_ref()
            .expect("profile stored")
            .clone()
    }

    /// Profiles stored so far.
    pub fn len(&self) -> usize {
        self.profiles.iter().filter(|p| p.is_some()).count()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One increment after [`ProfileStore::fan_out`].
#[derive(Debug)]
pub struct FanOut {
    /// Per shard (indexed by shard id), the [`ShardWorker::ingest`] batch:
    /// profile skeleton, the shard's token-id subset, global ghost floor.
    pub per_shard: Vec<Vec<(EntityProfile, Vec<TokenId>, usize)>>,
    /// Profiles the store accepted.
    pub accepted: usize,
    /// One error per skipped profile: [`PierError::DuplicateProfile`] or
    /// the [`ErKind::check_profile`] rejection.
    pub errors: Vec<PierError>,
}

/// Hash-partitioned parallel stage A, synchronous form.
///
/// Routes each incoming profile to every shard owning ≥ 1 of its tokens,
/// runs one unchanged PIER emitter per shard over that shard's blocks,
/// and k-way-merges the per-shard streams so [`ShardedStageA::next_batch`]
/// returns the globally top-`k` comparisons with cross-shard duplicates
/// removed by the shared Bloom `CF`.
pub struct ShardedStageA {
    kind: ErKind,
    router: ShardRouter,
    workers: Vec<ShardWorker>,
    merger: ShardMerger,
    store: ProfileStore,
    observer: Observer,
    increments: u64,
    /// Reusable lowercase buffer for the router's tokenize pass.
    scratch: String,
}

impl ShardedStageA {
    /// Creates a sharded stage A without observation.
    pub fn new(kind: ErKind, config: ShardedConfig) -> Self {
        Self::with_observer(kind, config, Observer::disabled())
    }

    /// Creates a sharded stage A reporting through `observer` (workers get
    /// shard-tagged clones; the merger and router report untagged).
    pub fn with_observer(kind: ErKind, config: ShardedConfig, observer: Observer) -> Self {
        let workers = (0..config.shards)
            .map(|s| {
                ShardWorker::new(
                    s,
                    kind,
                    config.strategy,
                    config.pier,
                    config.purge_policy,
                    &observer,
                )
            })
            .collect();
        let mut merger = ShardMerger::new(config.shards as usize);
        merger.set_observer(observer.clone());
        ShardedStageA {
            kind,
            router: ShardRouter::with_tokenizer(config.shards, Tokenizer::default()),
            workers,
            merger,
            store: ProfileStore::new(),
            observer,
            increments: 0,
            scratch: String::new(),
        }
    }

    /// The global profile store backing matcher lookups.
    pub fn store(&self) -> &ProfileStore {
        &self.store
    }

    /// Ingests one increment: tokenize + intern once per profile, store
    /// globally, fan the token-id subsets out to the owning shards, and
    /// notify each touched shard's emitter once.
    ///
    /// Profiles whose id was already ingested, or whose source the ER kind
    /// does not have, are skipped and their errors returned (nothing
    /// panics); an empty vector means the whole increment was ingested.
    pub fn on_increment(&mut self, increment: &[EntityProfile]) -> Vec<PierError> {
        let (router, scratch) = (&self.router, &mut self.scratch);
        let tokenized = increment
            .iter()
            .map(|profile| (profile.clone(), router.tokenize(profile, scratch)));
        let FanOut {
            per_shard,
            accepted,
            mut errors,
        } = self.store.fan_out(router, self.kind, tokenized);
        for (worker, batch) in self.workers.iter_mut().zip(per_shard) {
            if !batch.is_empty() {
                errors.extend(worker.ingest(&batch));
            }
        }
        let seq = self.increments;
        self.increments += 1;
        self.observer.emit(|| Event::IncrementIngested {
            seq,
            profiles: accepted,
        });
        errors
    }

    /// Broadcasts the idle tick to every shard; returns whether any shard
    /// still did (or has) work.
    pub fn tick(&mut self) -> bool {
        let mut made_work = false;
        for w in &mut self.workers {
            made_work |= w.tick();
        }
        made_work
    }

    /// The globally best `k` comparisons across all shards, duplicates
    /// removed.
    pub fn next_batch(&mut self, k: usize) -> Vec<Comparison> {
        let workers = &mut self.workers;
        self.merger.next_batch_with(k, |s, n| workers[s].pull(n))
    }

    /// Whether any shard's emitter still holds schedulable comparisons
    /// (buffered merger leftovers count too).
    pub fn has_pending(&self) -> bool {
        self.merger.buffered() > 0 || self.workers.iter().any(ShardWorker::has_pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_blocking::IncrementalBlocker;
    use pier_core::StageA;
    use pier_types::SourceId;
    use std::collections::BTreeSet;

    fn profiles(texts: &[&str]) -> Vec<EntityProfile> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| EntityProfile::new(ProfileId(i as u32), SourceId(0)).with("text", *t))
            .collect()
    }

    /// Drains a sharded pipeline completely (batches + idle ticks).
    fn drain_sharded(stage: &mut ShardedStageA) -> Vec<Comparison> {
        let mut out = Vec::new();
        loop {
            let batch = stage.next_batch(64);
            if !batch.is_empty() {
                out.extend(batch);
                continue;
            }
            if !stage.tick() {
                break;
            }
        }
        out
    }

    #[test]
    fn sharded_emits_the_unsharded_comparison_set() {
        let data = profiles(&[
            "alpha beta gamma",
            "alpha beta gamma delta",
            "delta epsilon",
            "epsilon zeta alpha",
            "zeta beta",
        ]);
        // Unsharded reference: one step machine, drained completely.
        let mut reference = StageA::new(
            IncrementalBlocker::new(ErKind::Dirty),
            Strategy::Pcs.build(PierConfig::default()),
        );
        reference.ingest(&data);
        let want: BTreeSet<Comparison> = std::iter::from_fn(|| {
            Some(reference.turn(true, 64, 64, |m, k| m.pull(k).0)).filter(|b| !b.is_empty())
        })
        .flatten()
        .collect();
        assert!(!want.is_empty());

        for shards in [1u16, 2, 4] {
            let mut stage = ShardedStageA::new(
                ErKind::Dirty,
                ShardedConfig {
                    shards,
                    ..ShardedConfig::default()
                },
            );
            stage.on_increment(&data);
            let got: Vec<Comparison> = drain_sharded(&mut stage);
            let got_set: BTreeSet<Comparison> = got.iter().copied().collect();
            assert_eq!(
                got_set.len(),
                got.len(),
                "{shards} shards: duplicate emitted"
            );
            assert_eq!(got_set, want, "{shards} shards: set mismatch");
        }
    }

    #[test]
    fn clean_clean_pairs_stay_cross_source() {
        let mut stage = ShardedStageA::new(ErKind::CleanClean, ShardedConfig::default());
        let data = vec![
            EntityProfile::new(ProfileId(0), SourceId(0)).with("t", "shared token one"),
            EntityProfile::new(ProfileId(1), SourceId(0)).with("t", "shared token two"),
            EntityProfile::new(ProfileId(2), SourceId(1)).with("t", "shared token three"),
        ];
        stage.on_increment(&data);
        let out = drain_sharded(&mut stage);
        assert!(!out.is_empty());
        for c in out {
            assert_ne!(
                stage.store().profile(c.a).source,
                stage.store().profile(c.b).source
            );
        }
    }

    #[test]
    fn store_serves_global_profiles_and_tokens() {
        let mut stage = ShardedStageA::new(ErKind::Dirty, ShardedConfig::default());
        let data = profiles(&["alpha beta", "gamma delta"]);
        let errors = stage.on_increment(&data);
        assert!(errors.is_empty());
        assert_eq!(stage.store().len(), 2);
        assert_eq!(stage.store().profile(ProfileId(1)).id, ProfileId(1));
        assert_eq!(stage.store().tokens_of(ProfileId(0)).len(), 2);
        assert_eq!(stage.store().token_occurrences(), 4);
    }

    #[test]
    fn duplicate_profiles_surface_as_errors_not_panics() {
        let mut stage = ShardedStageA::new(ErKind::Dirty, ShardedConfig::default());
        stage.on_increment(&profiles(&["alpha beta", "alpha gamma"]));
        // Replaying profile 0 (same id, new text) must not kill the stage.
        let errors = stage.on_increment(&profiles(&["alpha beta zeta"]));
        assert_eq!(errors.len(), 1);
        assert!(matches!(
            errors[0],
            pier_types::PierError::DuplicateProfile(0)
        ));
        // The store kept the original ingest and the pipeline still drains.
        assert_eq!(stage.store().len(), 2);
        assert_eq!(stage.store().tokens_of(ProfileId(0)).len(), 2);
        let out = drain_sharded(&mut stage);
        assert!(!out.is_empty());
    }

    #[test]
    fn an_id_past_the_limit_never_reaches_the_store_or_a_shard() {
        let mut stage = ShardedStageA::new(ErKind::Dirty, ShardedConfig::default());
        let mut data = profiles(&["alpha beta", "alpha gamma", "alpha beta"]);
        data[1].id = ProfileId(ProfileId::LIMIT);
        let errors = stage.on_increment(&data);
        assert_eq!(errors.len(), 1);
        assert!(
            matches!(errors[0], pier_types::PierError::InvalidConfig { .. }),
            "{}",
            errors[0]
        );
        assert_eq!(stage.store().len(), 2);
        assert_eq!(
            drain_sharded(&mut stage),
            vec![Comparison::new(ProfileId(0), ProfileId(2))]
        );
        // The store's own door refuses it too.
        let mut store = ProfileStore::new();
        let stray = EntityProfile::new(ProfileId(u32::MAX), SourceId(0));
        assert!(store.insert(stray, &[]).is_err());
        assert!(store.is_empty());
    }

    #[test]
    fn per_shard_work_is_observed() {
        let stats = std::sync::Arc::new(pier_observe::StatsObserver::new());
        let mut stage = ShardedStageA::with_observer(
            ErKind::Dirty,
            ShardedConfig::default(),
            Observer::new(stats.clone()),
        );
        stage.on_increment(&profiles(&["alpha beta gamma", "alpha beta gamma"]));
        let _ = drain_sharded(&mut stage);
        let snap = stats.snapshot();
        assert_eq!(snap.increments, 1);
        assert!(!snap.shards.is_empty());
        let shard_blocks: u64 = snap.shards.iter().map(|s| s.blocks_built).sum();
        assert_eq!(shard_blocks, snap.blocks_built);
        assert!(snap.comparisons_emitted > 0);
    }
}
