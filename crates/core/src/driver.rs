//! A synchronous, single-threaded PIER pipeline for library users.
//!
//! The simulator (`pier-sim`) and threaded runtime (`pier-runtime`) exist
//! for experiments and deployments; most applications just want to push
//! increments and receive duplicates. [`PierPipeline`] wires the four
//! framework components — incremental blocking, a prioritization strategy,
//! adaptive batching, and incremental classification — behind two calls:
//!
//! ```
//! use pier_core::driver::PierPipeline;
//! use pier_core::{PierConfig, Strategy};
//! use pier_matching::JaccardMatcher;
//! use pier_types::{EntityProfile, ErKind, ProfileId, SourceId};
//!
//! let mut pipeline = PierPipeline::new(
//!     ErKind::Dirty,
//!     Strategy::Pes,
//!     PierConfig::default(),
//!     JaccardMatcher::default(),
//! );
//! pipeline.push_increment(&[
//!     EntityProfile::new(ProfileId(0), SourceId(0)).with("name", "Grace Hopper"),
//!     EntityProfile::new(ProfileId(1), SourceId(0)).with("who", "Grace  Hopper"),
//! ]);
//! // Work between increments: classify the best pending comparisons.
//! let found = pipeline.drain(100);
//! assert_eq!(found.len(), 1);
//! ```

use pier_blocking::{IncrementalBlocker, PurgePolicy};
use pier_matching::{ClassifiedMatch, MatchFunction, StageB};
use pier_observe::{Observer, Phase};
use pier_types::{EntityProfile, ErKind, IncrementalClusters, Tokenizer};

use crate::framework::PierConfig;
use crate::selector::Strategy;
use crate::stage_a::{Ingested, StageA};

/// The synchronous PIER pipeline: the [`StageA`] and [`StageB`] step
/// machines, stepped on the caller's clock.
pub struct PierPipeline<M: MatchFunction> {
    stage_a: StageA,
    /// Stage B holds its matcher through a pointer; here it owns the box.
    stage_b: StageB<Box<M>>,
    /// Comparisons pulled per round while draining.
    pub batch_size: usize,
    observer: Observer,
}

impl<M: MatchFunction> PierPipeline<M> {
    /// Creates a pipeline with the default tokenizer and purge policy.
    pub fn new(kind: ErKind, strategy: Strategy, config: PierConfig, matcher: M) -> Self {
        Self::with_policy(kind, strategy, config, matcher, PurgePolicy::default())
    }

    /// Creates a pipeline with an explicit purge policy.
    pub fn with_policy(
        kind: ErKind,
        strategy: Strategy,
        config: PierConfig,
        matcher: M,
        policy: PurgePolicy,
    ) -> Self {
        PierPipeline {
            stage_a: StageA::new(
                IncrementalBlocker::with_config(kind, Tokenizer::default(), policy),
                strategy.build(config),
            ),
            stage_b: StageB::new(Box::new(matcher)),
            batch_size: 256,
            observer: Observer::disabled(),
        }
    }

    /// Attaches a pipeline observer and propagates it to every component
    /// (blocker, emitter, stage B). The pipeline itself reports
    /// [`pier_observe::Event::PhaseTiming`]; stage A reports
    /// [`pier_observe::Event::IncrementIngested`].
    pub fn set_observer(&mut self, observer: Observer) {
        self.stage_a.set_observer(observer.clone());
        self.stage_b.set_observer(observer.clone());
        self.observer = observer;
    }

    /// Ingests one increment: blocking + prioritizer update. A profile
    /// whose id was already ingested is skipped and reported in
    /// [`Ingested::errors`]; the rest of the increment goes through.
    pub fn push_increment(&mut self, profiles: &[EntityProfile]) -> Ingested {
        let mut out = Ingested::default();
        self.observer.timed(Phase::Block, || {
            for profile in profiles {
                out.record(self.stage_a.block(profile.clone()));
            }
        });
        out.ops = self
            .observer
            .timed(Phase::Weight, || self.stage_a.weigh(&out.ids));
        out
    }

    /// The shared body of [`PierPipeline::drain`] and
    /// [`PierPipeline::drain_idle`]: [`StageA::turn`]s of at most
    /// [`PierPipeline::batch_size`] until one comes up empty or
    /// `max_comparisons` were executed, stepping stage B over each batch;
    /// returns the new duplicates.
    fn drain_turns(&mut self, max_comparisons: usize, idle: bool) -> Vec<ClassifiedMatch> {
        let before = self.stage_b.duplicates().len();
        let mut executed = 0usize;
        while executed < max_comparisons {
            let want = self.batch_size.min(max_comparisons - executed);
            let batch = self.observer.timed(Phase::Prune, || {
                self.stage_a
                    .turn(idle, want, want, |stage_a, k| stage_a.pull(k).0)
            });
            if batch.is_empty() {
                break;
            }
            executed += batch.len();
            self.observer.timed(Phase::Classify, || {
                let blocker = self.stage_a.blocker();
                let store = |id| (blocker.profile(id), blocker.tokens_handle(id));
                for pair in self.stage_b.materialize(batch, store) {
                    let outcome = self.stage_b.classify(&pair);
                    self.stage_b.confirm(pair.comparison(), &outcome);
                }
            });
        }
        self.stage_b.duplicates()[before..].to_vec()
    }

    /// Executes up to `max_comparisons` of the best pending comparisons
    /// and returns the *new* duplicates found. Call between increments —
    /// this is the progressive work loop.
    pub fn drain(&mut self, max_comparisons: usize) -> Vec<ClassifiedMatch> {
        self.drain_turns(max_comparisons, false)
    }

    /// Like [`PierPipeline::drain`] but in idle turns: each batch is topped
    /// up from idle ticks (the empty increments of §3.2) so the
    /// `GetComparisons` fallback can contribute — use when the input is
    /// known to be idle or finished. Stops early only when stage A is
    /// fully drained.
    pub fn drain_idle(&mut self, max_comparisons: usize) -> Vec<ClassifiedMatch> {
        self.drain_turns(max_comparisons, true)
    }

    /// All duplicates found so far (`M_D`).
    pub fn duplicates(&self) -> &[ClassifiedMatch] {
        self.stage_b.duplicates()
    }

    /// The entity clusters implied by the duplicates.
    pub fn clusters(&self) -> &IncrementalClusters {
        self.stage_b.clusters()
    }

    /// The underlying blocker (profiles, blocks, token dictionary).
    pub fn blocker(&self) -> &IncrementalBlocker {
        self.stage_a.blocker()
    }

    /// Total comparisons classified.
    pub fn comparisons(&self) -> u64 {
        self.stage_b.comparisons()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_matching::JaccardMatcher;
    use pier_types::{ProfileId, SourceId};

    fn p(id: u32, text: &str) -> EntityProfile {
        EntityProfile::new(ProfileId(id), SourceId(0)).with("text", text)
    }

    fn pipeline() -> PierPipeline<JaccardMatcher> {
        PierPipeline::new(
            ErKind::Dirty,
            Strategy::Pes,
            PierConfig::default(),
            JaccardMatcher::default(),
        )
    }

    #[test]
    fn push_and_drain_finds_duplicates() {
        let mut pl = pipeline();
        pl.push_increment(&[p(0, "alpha beta gamma"), p(1, "alpha beta gamma")]);
        let found = pl.drain(100);
        assert_eq!(found.len(), 1);
        assert_eq!(
            found[0].pair,
            pier_types::Comparison::new(ProfileId(0), ProfileId(1))
        );
        assert_eq!(pl.duplicates().len(), 1);
    }

    #[test]
    fn drain_respects_the_comparison_budget() {
        let mut pl = pipeline();
        let profiles: Vec<EntityProfile> = (0..10).map(|i| p(i, "shared token here")).collect();
        pl.push_increment(&profiles);
        pl.drain(3);
        assert!(pl.comparisons() <= 3 + pl.batch_size as u64);
        assert_eq!(pl.comparisons(), 3);
    }

    #[test]
    fn duplicates_accumulate_across_increments() {
        let mut pl = pipeline();
        pl.push_increment(&[p(0, "first pair match"), p(1, "first pair match")]);
        let a = pl.drain(100);
        pl.push_increment(&[p(2, "second pair match"), p(3, "second pair match")]);
        let b = pl.drain(100);
        assert_eq!(a.len(), 1);
        // The second drain reports only the NEW duplicates (which may
        // include cross-increment pairs like (0,2) sharing tokens).
        assert!(b
            .iter()
            .any(|m| m.pair == pier_types::Comparison::new(ProfileId(2), ProfileId(3))));
        assert!(pl.duplicates().len() >= 2);
    }

    #[test]
    fn drain_idle_uses_the_fallback() {
        let mut pl = pipeline();
        // A weakly-connected group: per-profile generation prunes some
        // pairs; the idle fallback recovers them.
        pl.push_increment(&[
            p(0, "tok aa1 aa2 aa3"),
            p(1, "tok aa1 aa2 aa3"),
            p(2, "tok bb1 bb2"),
        ]);
        pl.drain(1000);
        pl.drain_idle(1000);
        assert!(
            pl.comparisons() >= 3,
            "fallback should cover all in-block pairs (got {})",
            pl.comparisons()
        );
    }

    #[test]
    fn a_replayed_id_is_skipped_and_reported() {
        let mut pl = pipeline();
        pl.push_increment(&[p(0, "alpha beta gamma"), p(1, "alpha beta gamma")]);
        let replay = pl.push_increment(&[p(0, "delta epsilon"), p(2, "alpha beta gamma")]);
        assert_eq!(replay.ids, vec![ProfileId(2)]);
        assert!(matches!(
            replay.errors[..],
            [pier_types::PierError::DuplicateProfile(0)]
        ));
        // The original profile 0 is kept and still matches 1 and 2.
        assert_eq!(pl.blocker().tokens_of(ProfileId(0)).len(), 3);
        assert_eq!(pl.drain_idle(100).len(), 3);
    }

    #[test]
    fn observer_sees_the_whole_pipeline() {
        use pier_observe::StatsObserver;
        use std::sync::Arc;

        let stats = Arc::new(StatsObserver::new());
        let mut pl = pipeline();
        pl.set_observer(Observer::new(stats.clone()));
        pl.push_increment(&[p(0, "observe me now"), p(1, "observe me now")]);
        pl.drain(100);
        let snap = stats.snapshot();
        assert_eq!(snap.increments, 1);
        assert_eq!(snap.profiles, 2);
        assert!(snap.blocks_built >= 3);
        assert!(snap.comparisons_emitted >= 1);
        assert_eq!(snap.matches_confirmed, 1);
        // All four phases were timed at least once.
        assert!(snap.phases.iter().all(|ph| ph.count >= 1));
    }

    #[test]
    fn clusters_are_queryable() {
        let mut pl = pipeline();
        pl.push_increment(&[
            p(0, "cluster seed words"),
            p(1, "cluster seed words"),
            p(2, "cluster seed words"),
        ]);
        pl.drain_idle(1000);
        assert!(pl.clusters().same_entity(ProfileId(0), ProfileId(2)));
    }
}
