//! One shard's stage A: a private blocker + emitter over a token subspace.

use pier_blocking::{IncrementalBlocker, PurgePolicy, SlabStats};
use pier_chaos::{ChaosHandle, FaultPoint};
use pier_collections::ScratchStats;
use pier_core::{ComparisonEmitter, Ingested, PierConfig, StageA, Strategy};
use pier_observe::Observer;
use pier_types::{EntityProfile, ErKind, PierError, TokenId, Tokenizer, WeightedComparison};

/// A single shard of the partitioned stage A: the [`StageA`] step machine
/// over a full [`IncrementalBlocker`] and one of the unchanged
/// I-PCS/I-PBS/I-PES emitters, both restricted to the tokens the router
/// assigned to this shard, reporting through a shard-tagged [`Observer`].
pub struct ShardWorker {
    shard: u16,
    stage_a: StageA,
    chaos: ChaosHandle,
}

impl ShardWorker {
    /// Creates the worker for `shard`.
    pub fn new(
        shard: u16,
        kind: ErKind,
        strategy: Strategy,
        config: PierConfig,
        purge_policy: PurgePolicy,
        observer: &Observer,
    ) -> Self {
        Self::with_emitter(shard, kind, strategy.build(config), purge_policy, observer)
    }

    /// [`ShardWorker::new`] over any emitter, not only the three
    /// [`Strategy`] builds (a test's recording emitter, for one).
    pub fn with_emitter(
        shard: u16,
        kind: ErKind,
        emitter: Box<dyn ComparisonEmitter + Send>,
        purge_policy: PurgePolicy,
        observer: &Observer,
    ) -> Self {
        let mut stage_a = StageA::new(
            IncrementalBlocker::with_config(kind, Tokenizer::default(), purge_policy),
            emitter,
        );
        stage_a.set_observer(observer.for_shard(shard));
        ShardWorker {
            shard,
            stage_a,
            chaos: ChaosHandle::disabled(),
        }
    }

    /// Arms deterministic fault injection for this worker. The handle's
    /// `shard_worker` fault point fires at the top of each [`ShardWorker::ingest`]
    /// call (lane = this shard's id) and its poison registry is consulted
    /// per profile, so a supervised driver can kill the worker (or a
    /// specific profile's ingest) at an exact event count. A disabled
    /// handle — the default — costs one branch per ingest.
    pub fn set_chaos(&mut self, chaos: ChaosHandle) {
        self.chaos = chaos;
    }

    /// This worker's shard id.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// The shard-local blocker (its collection covers only this shard's
    /// token subspace).
    pub fn blocker(&self) -> &IncrementalBlocker {
        self.stage_a.blocker()
    }

    /// Ingests routed profiles: each entry is a profile, the token-id
    /// subset this shard owns (global ids from the router's shared
    /// dictionary — the shard never re-tokenizes or re-interns), and the
    /// profile's *global* minimum block size (the router computes it from
    /// full token counts). The floor keeps this shard's block ghosting
    /// threshold identical to the unsharded pipeline's — a shard-local
    /// `|b_min|` would overestimate it and make the shard scan blocks the
    /// unsharded run ghosts. Only `id` and `source` of the profile are
    /// consulted shard-side, so drivers pass attribute-less skeletons;
    /// matcher-facing lookups go through the global `ProfileStore`.
    ///
    /// Duplicate profile ids are skipped and returned as
    /// [`PierError::DuplicateProfile`] instead of panicking, so a bad
    /// increment cannot kill a worker thread mid-run; the successfully
    /// ingested profiles still reach the emitter. The shard-tagged
    /// `IncrementIngested` this reports is per-shard fan-out accounting;
    /// the driver reports the global increment.
    pub fn ingest(&mut self, batch: &[(EntityProfile, Vec<TokenId>, usize)]) -> Vec<PierError> {
        self.chaos.trip(FaultPoint::ShardWorker, Some(self.shard));
        let mut ingested = Ingested::default();
        for (profile, tokens, floor) in batch {
            // Fires (panics) before the blocker is touched, so a poison
            // profile leaves the worker exactly as it was.
            self.chaos.poison_trip(profile.id.0);
            ingested.record(
                self.stage_a
                    .block_tokenized(profile.clone(), tokens, Some(*floor)),
            );
        }
        self.stage_a.weigh(&ingested.ids);
        ingested.errors
    }

    /// The idle tick of Algorithm 2 lines 10–11: lets the emitter's
    /// `GetComparisons` fallback refill from unconsumed blocks. Returns
    /// whether the tick did (or left) any work.
    pub fn tick(&mut self) -> bool {
        self.stage_a.tick().made_work
    }

    /// Pulls up to `k` comparisons, best first, each with the weight the
    /// shard's emitter scheduled it under ([`StageA::pull_weighted`]).
    pub fn pull(&mut self, k: usize) -> Vec<WeightedComparison> {
        self.stage_a.pull_weighted(k).0
    }

    /// One [`StageA::turn`] over [`ShardWorker::pull`]: pulls `k` and, when
    /// `idle` — the shard's input has ended, so no arrival can be waiting —
    /// tops the batch up from idle ticks to `min(k, fill)`. An empty batch
    /// from an idle turn means the shard is drained.
    pub fn turn(&mut self, idle: bool, k: usize, fill: usize) -> Vec<WeightedComparison> {
        self.stage_a
            .turn(idle, k, fill, |stage_a, n| stage_a.pull_weighted(n).0)
    }

    /// Whether the emitter still holds schedulable comparisons.
    pub fn has_pending(&self) -> bool {
        self.stage_a.emitter().has_pending()
    }

    /// Occupancy of this shard's dense block slab.
    pub fn slab_stats(&self) -> SlabStats {
        self.blocker().collection().slab_stats()
    }

    /// Occupancy of the emitter's I-WNP scratch accumulator, if the
    /// strategy runs I-WNP (I-PBS doesn't).
    pub fn scratch_stats(&self) -> Option<ScratchStats> {
        self.stage_a.emitter().scratch_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::{Comparison, ProfileId, SharedTokenDictionary, SourceId};

    fn profile(
        dict: &SharedTokenDictionary,
        id: u32,
        text: &str,
    ) -> (EntityProfile, Vec<TokenId>, usize) {
        let p = EntityProfile::new(ProfileId(id), SourceId(0)).with("text", text);
        let mut scratch = String::new();
        let tokens = dict.tokenize_and_intern(&Tokenizer::default(), &p, &mut scratch);
        (p, tokens, 1)
    }

    fn worker() -> ShardWorker {
        ShardWorker::new(
            0,
            ErKind::Dirty,
            Strategy::Pcs,
            PierConfig::default(),
            PurgePolicy::default(),
            &Observer::disabled(),
        )
    }

    #[test]
    fn ingest_then_pull_yields_weighted_pairs() {
        let dict = SharedTokenDictionary::new();
        let mut w = worker();
        let errors = w.ingest(&[
            profile(&dict, 0, "alpha beta"),
            profile(&dict, 1, "alpha beta"),
        ]);
        assert!(errors.is_empty());
        let batch = w.pull(8);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].cmp, Comparison::new(ProfileId(0), ProfileId(1)));
        assert_eq!(batch[0].weight, 2.0);
    }

    #[test]
    fn duplicate_ingest_is_reported_not_fatal() {
        let dict = SharedTokenDictionary::new();
        let mut w = worker();
        let errors = w.ingest(&[
            profile(&dict, 0, "alpha beta"),
            profile(&dict, 0, "alpha gamma"),
            profile(&dict, 1, "alpha beta"),
        ]);
        assert_eq!(errors.len(), 1);
        assert!(matches!(errors[0], PierError::DuplicateProfile(0)));
        // The surviving profiles still generate their comparison.
        let batch = w.pull(8);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].cmp, Comparison::new(ProfileId(0), ProfileId(1)));
    }

    /// The property the runtime's drain tail rests on (ROADMAP, C4): once
    /// the last increment is in, no block grows or crosses the purge bound,
    /// so what is still to come out is fixed — topped-up pulls and the
    /// `pull` / `tick` alternation stage B runs during arrivals drain the
    /// same set, each pair once, whatever the strategy.
    #[test]
    fn topped_up_pulls_drain_what_alternating_pull_and_tick_drain() {
        use std::collections::BTreeSet;
        let dict = SharedTokenDictionary::new();
        let increments: Vec<Vec<_>> = (0..4)
            .map(|inc| {
                let ids = inc * 10..(inc + 1) * 10;
                ids.map(|id| {
                    let text = format!("common g{} h{} u{id}", id % 5, id % 7);
                    profile(&dict, id, &text)
                })
                .collect()
            })
            .collect();
        for strategy in [Strategy::Pcs, Strategy::Pbs, Strategy::Pes] {
            let ingested = || {
                let mut w = ShardWorker::new(
                    0,
                    ErKind::Dirty,
                    strategy,
                    PierConfig::default(),
                    // `common` crosses the bound in the second increment.
                    PurgePolicy::max_size(12),
                    &Observer::disabled(),
                );
                for increment in &increments {
                    assert!(w.ingest(increment).is_empty());
                }
                assert!(w.blocker().collection().purged_count() > 0);
                w
            };
            let mut topped_up = BTreeSet::new();
            let mut w = ingested();
            loop {
                let batch = w.turn(true, 16, 8);
                if batch.len() < 8 {
                    assert!(!w.tick(), "{strategy:?}: a short batch means drained");
                }
                if batch.is_empty() {
                    break;
                }
                for wc in batch {
                    assert!(topped_up.insert(wc.cmp), "{strategy:?}: {} twice", wc.cmp);
                }
            }
            let mut alternating = BTreeSet::new();
            let mut w = ingested();
            loop {
                let batch = w.pull(16);
                if batch.is_empty() && !w.tick() {
                    break;
                }
                for wc in batch {
                    assert!(alternating.insert(wc.cmp), "{strategy:?}: {} twice", wc.cmp);
                }
            }
            assert!(alternating.len() > 40, "{strategy:?}: vacuous");
            assert_eq!(topped_up, alternating, "{strategy:?}");
        }
    }

    #[test]
    fn tick_reports_pending_fallback_work() {
        let dict = SharedTokenDictionary::new();
        let mut w = worker();
        // Profiles the emitter was never told about: only the idle-tick
        // fallback can surface their pairs.
        for (p, tokens, _) in [profile(&dict, 0, "mm nn"), profile(&dict, 1, "mm nn")] {
            w.stage_a.block_tokenized(p, &tokens, None).unwrap();
        }
        assert!(w.tick());
        assert_eq!(w.pull(4).len(), 1);
        // Fully drained: a tick eventually reports no work.
        while w.tick() {
            w.pull(4);
        }
        assert!(!w.has_pending());
    }
}
