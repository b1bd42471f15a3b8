//! The stage-A step machine: the loop body of Algorithm 1, once.
//!
//! Every executor in the workspace runs the same steps — block the
//! arriving profiles, update the prioritizer, pull the best `K`, send the
//! empty-increment tick of §3.2 when the input is idle — and differs only
//! in *when* it runs them: the synchronous [`crate::PierPipeline`] steps on
//! the caller's clock, the simulator on a virtual clock that charges the
//! ops each step returns, a shard worker on its command channel, and the
//! threaded runtime's lane on its inbox. [`StageA`] owns the blocker and the
//! emitter together and is the only code that sequences them, so the
//! executors cannot drift apart. It is single-threaded and knows nothing
//! about wall time, channels or fault injection; those stay in the callers,
//! wrapped around the step calls.

use std::ops::DerefMut;

use pier_blocking::IncrementalBlocker;
use pier_observe::{Event, Observer};
use pier_types::{Comparison, EntityProfile, PierError, ProfileId, TokenId, WeightedComparison};

use crate::framework::ComparisonEmitter;

/// One lane of stage A: an [`IncrementalBlocker`] and the
/// [`ComparisonEmitter`] prioritizing over it.
///
/// `E` is any handle that dereferences to an emitter: the boxed strategy
/// ([`crate::Strategy::build`], the default) or a `&mut dyn
/// ComparisonEmitter` borrowed for one run.
pub struct StageA<E = Box<dyn ComparisonEmitter + Send>> {
    blocker: IncrementalBlocker,
    emitter: E,
    observer: Observer,
    increments: u64,
}

/// The outcome of blocking one increment's profiles.
#[derive(Debug, Default)]
pub struct Ingested {
    /// The profiles the blocker accepted, in arrival order.
    pub ids: Vec<ProfileId>,
    /// One error per skipped profile (a repeated id, or a source the ER
    /// kind does not have, is skipped and reported, never fatal; of a
    /// repeated id the profile ingested first is kept).
    pub errors: Vec<PierError>,
    /// Abstract work the emitter spent on the increment.
    pub ops: u64,
}

impl Ingested {
    /// Files the result of one [`StageA::block`] call.
    pub fn record(&mut self, blocked: Result<ProfileId, PierError>) {
        match blocked {
            Ok(id) => self.ids.push(id),
            Err(e) => self.errors.push(e),
        }
    }
}

/// The outcome of one idle tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// Abstract work the tick itself performed.
    pub ops: u64,
    /// Whether the tick did work or left schedulable comparisons behind:
    /// `ops > 0 || emitter.has_pending()`. A `false` from an idle stage A
    /// means it is fully drained.
    pub made_work: bool,
}

impl<E> StageA<E>
where
    E: DerefMut,
    E::Target: ComparisonEmitter,
{
    /// Joins a blocker and an emitter into one lane.
    pub fn new(blocker: IncrementalBlocker, emitter: E) -> Self {
        StageA {
            blocker,
            emitter,
            observer: Observer::disabled(),
            increments: 0,
        }
    }

    /// Attaches `observer` to the blocker, the emitter and the machine's
    /// own [`Event::IncrementIngested`] reports.
    pub fn set_observer(&mut self, observer: Observer) {
        self.blocker.set_observer(observer.clone());
        self.emitter.set_observer(observer.clone());
        self.observer = observer;
    }

    /// The blocker: profiles, token sets, block collection.
    pub fn blocker(&self) -> &IncrementalBlocker {
        &self.blocker
    }

    /// The emitter, for its read-only side (`name`, `has_pending`,
    /// `scratch_stats`); stepping it is the machine's job.
    pub fn emitter(&self) -> &E::Target {
        &self.emitter
    }

    /// Blocks one arriving profile, tokenizing it with the blocker's own
    /// tokenizer and dictionary.
    ///
    /// # Errors
    /// [`PierError::DuplicateProfile`] if the id was already ingested,
    /// [`PierError::InvalidConfig`] if the profile's source is not one the
    /// ER kind has; the machine is left unchanged.
    pub fn block(&mut self, profile: EntityProfile) -> Result<ProfileId, PierError> {
        self.blocker.try_process_profile(profile)
    }

    /// Blocks one profile under token ids interned upstream. `ghost_floor`
    /// is the profile's global minimum block size when this lane sees only
    /// a token subspace (see [`IncrementalBlocker::set_ghost_floor`]).
    ///
    /// # Errors
    /// As [`StageA::block`].
    pub fn block_tokenized(
        &mut self,
        profile: EntityProfile,
        tokens: &[TokenId],
        ghost_floor: Option<usize>,
    ) -> Result<ProfileId, PierError> {
        let id = self
            .blocker
            .try_process_profile_with_token_ids(profile, tokens)?;
        if let Some(floor) = ghost_floor {
            self.blocker.set_ghost_floor(id, floor);
        }
        Ok(id)
    }

    /// Closes an increment: tells the emitter about the accepted `ids`,
    /// reports [`Event::IncrementIngested`] (counting accepted profiles
    /// only) and returns the ops spent.
    pub fn weigh(&mut self, ids: &[ProfileId]) -> u64 {
        self.emitter.on_increment(&self.blocker, ids);
        let seq = self.increments;
        self.increments += 1;
        self.observer.emit(|| Event::IncrementIngested {
            seq,
            profiles: ids.len(),
        });
        self.emitter.drain_ops()
    }

    /// Ingests one increment of raw profiles: [`StageA::block`] each, then
    /// [`StageA::weigh`].
    pub fn ingest(&mut self, increment: &[EntityProfile]) -> Ingested {
        let mut out = Ingested::default();
        for profile in increment {
            out.record(self.block(profile.clone()));
        }
        out.ops = self.weigh(&out.ids);
        out
    }

    /// The best `k` pending comparisons, best first, and the ops spent.
    pub fn pull(&mut self, k: usize) -> (Vec<Comparison>, u64) {
        let batch = self.emitter.next_batch(&self.blocker, k);
        (batch, self.emitter.drain_ops())
    }

    /// [`StageA::pull`] keeping each comparison's scheduling weight, for
    /// k-way merging and weight-floor shedding.
    pub fn pull_weighted(&mut self, k: usize) -> (Vec<WeightedComparison>, u64) {
        if k == 0 {
            return (Vec::new(), 0);
        }
        let batch = self.emitter.next_weighted_batch(&self.blocker, k);
        (batch, self.emitter.drain_ops())
    }

    /// The idle tick (the empty increment of §3.2): lets the emitter's
    /// `GetComparisons` fallback refill from unconsumed blocks.
    pub fn tick(&mut self) -> Tick {
        self.emitter.on_increment(&self.blocker, &[]);
        let ops = self.emitter.drain_ops();
        Tick {
            ops,
            made_work: ops > 0 || self.emitter.has_pending(),
        }
    }

    /// The rule of an idle lane (DESIGN §3 note 6), once: while `batch` is
    /// short of `fill` and an idle tick makes work, appends what
    /// `pull(self, missing)` yields, and stops at the first tick that makes
    /// none. `pull` is how the caller takes comparisons out of the machine
    /// (weighted for a shard's merger, materialized for the runtime's
    /// lane); a caller runs this only when no arrival is waiting — its
    /// inbox was empty, or its input has ended.
    pub fn top_up<T>(
        &mut self,
        batch: &mut Vec<T>,
        fill: usize,
        mut pull: impl FnMut(&mut Self, usize) -> Vec<T>,
    ) {
        while batch.len() < fill && self.tick().made_work {
            batch.extend(pull(self, fill - batch.len()));
        }
    }

    /// [`StageA::pull`] for an idle input: ticks while pulls come up empty
    /// and returns an empty batch only once a tick finds nothing — stage A
    /// is then fully drained.
    pub fn pull_idle(&mut self, k: usize) -> Vec<Comparison> {
        loop {
            let (batch, _) = self.pull(k);
            if !batch.is_empty() || !self.tick().made_work {
                return batch;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ipcs, PierConfig, Strategy};
    use pier_observe::StatsObserver;
    use pier_types::{ErKind, SourceId};
    use std::sync::Arc;

    fn p(id: u32, text: &str) -> EntityProfile {
        EntityProfile::new(ProfileId(id), SourceId(0)).with("text", text)
    }

    fn machine(strategy: Strategy) -> StageA {
        StageA::new(
            IncrementalBlocker::new(ErKind::Dirty),
            strategy.build(PierConfig::default()),
        )
    }

    /// A weakly connected corpus: generation prunes some in-block pairs,
    /// so only the idle-tick fallback reaches all of them.
    fn corpus() -> Vec<EntityProfile> {
        vec![
            p(0, "tok aa1 aa2 aa3"),
            p(1, "tok aa1 aa2 aa3"),
            p(2, "tok bb1 bb2"),
            p(3, "bb1 bb2 cc1"),
            p(4, "cc1 aa3 tok"),
        ]
    }

    #[test]
    fn a_repeated_id_is_skipped_reported_and_not_counted() {
        let stats = Arc::new(StatsObserver::new());
        let mut m = machine(Strategy::Pcs);
        m.set_observer(Observer::new(stats.clone()));
        m.ingest(&[p(0, "alpha beta"), p(1, "alpha beta")]);
        let replay = m.ingest(&[p(0, "gamma delta"), p(2, "alpha gamma")]);
        assert_eq!(replay.ids, vec![ProfileId(2)]);
        assert!(matches!(
            replay.errors[..],
            [PierError::DuplicateProfile(0)]
        ));
        // The profile ingested first is the one kept.
        assert_eq!(m.blocker().profile(ProfileId(0)).id, ProfileId(0));
        assert_eq!(m.blocker().tokens_of(ProfileId(0)).len(), 2);
        // IncrementIngested counts accepted profiles, not submitted ones.
        let snap = stats.snapshot();
        assert_eq!(snap.increments, 2);
        assert_eq!(snap.profiles, 3);
    }

    /// A source the ER kind lacks is refused at `block`, before anything is
    /// touched: let in, a third source panics `BlockCollection::add_profile`
    /// and a second source under Dirty ER lands in a member list the block
    /// cursor never enumerates, losing in-block pairs.
    #[test]
    fn a_source_the_kind_lacks_is_rejected_at_block() {
        for (kind, src) in [(ErKind::Dirty, 1u8), (ErKind::CleanClean, 2)] {
            let mut m = StageA::new(
                IncrementalBlocker::new(kind),
                Strategy::Pcs.build(PierConfig::default()),
            );
            let stray = EntityProfile::new(ProfileId(1), SourceId(src)).with("text", "alpha beta");
            let got = m.ingest(&[p(0, "alpha beta"), stray, p(2, "alpha beta")]);
            assert_eq!(got.ids, vec![ProfileId(0), ProfileId(2)], "{kind:?}");
            assert!(
                matches!(
                    got.errors[..],
                    [PierError::InvalidConfig {
                        parameter: "profiles",
                        ..
                    }]
                ),
                "{kind:?}: {:?}",
                got.errors
            );
            assert_eq!(m.blocker().profile_count(), 2);
            // The id stays free for a well-formed profile.
            assert_eq!(m.block(p(1, "alpha")).unwrap(), ProfileId(1));
        }
    }

    /// So is an id at or past `ProfileId::LIMIT`: the per-profile tables
    /// grow to the id they are handed, and one streamed `u32::MAX` would
    /// ask for tens of GiB. Reported, skipped, the rest of the increment
    /// ingested.
    #[test]
    fn an_id_past_the_limit_is_rejected_at_block() {
        let mut m = machine(Strategy::Pcs);
        let got = m.ingest(&[
            p(0, "alpha beta"),
            p(ProfileId::LIMIT, "alpha beta"),
            p(u32::MAX, "alpha beta"),
            p(2, "alpha beta"),
        ]);
        assert_eq!(got.ids, vec![ProfileId(0), ProfileId(2)]);
        assert!(
            matches!(
                got.errors[..],
                [
                    PierError::InvalidConfig {
                        parameter: "profiles",
                        ..
                    },
                    PierError::InvalidConfig { .. }
                ]
            ),
            "{:?}",
            got.errors
        );
        assert_eq!(m.blocker().profile_count(), 2);
        assert_eq!(
            m.pull(8).0,
            vec![Comparison::new(ProfileId(0), ProfileId(2))]
        );
    }

    /// The weighted pull is what `ShardWorker::pull` returned before the
    /// machine existed: the emitter's own weights.
    #[test]
    fn pull_weighted_prefers_the_emitters_weights() {
        let mut m = machine(Strategy::Pcs);
        m.ingest(&corpus());
        let mut reference = Ipcs::new(PierConfig::default());
        reference.on_increment(m.blocker(), &(0..5).map(ProfileId).collect::<Vec<_>>());
        let want = reference.next_weighted_batch(m.blocker(), 8);
        assert!(!want.is_empty());
        assert_eq!(m.pull_weighted(8).0, want);
        assert!(m.pull_weighted(0).0.is_empty());
    }

    #[test]
    fn tick_reports_its_own_ops_or_pending_work() {
        let mut m = machine(Strategy::Pcs);
        m.ingest(&corpus());
        // With a non-empty index the tick does no work itself, yet must not
        // report "drained": comparisons are still pending.
        let idle = m.tick();
        assert_eq!(idle.ops, 0);
        assert!(idle.made_work);
        while !m.pull(64).0.is_empty() {}
        // The index is dry but blocks are unconsumed: the tick refills, and
        // its ops are its own (the pulls above drained theirs).
        let refill = m.tick();
        assert!(refill.ops > 0 && refill.made_work);
    }

    /// A caller may block, tick and only then weigh (a shard worker's tick
    /// runs between its commands). The tick's fallback hands `(0, 1)` out
    /// first, and it is pulled; the weighing after it must drop the pair,
    /// not schedule it again.
    #[test]
    fn block_then_tick_then_weigh_emits_once() {
        for strategy in [Strategy::Pcs, Strategy::Pes] {
            let mut m = machine(strategy);
            let ids = [
                m.block(p(0, "alpha beta")).unwrap(),
                m.block(p(1, "alpha beta")).unwrap(),
            ];
            assert!(m.tick().made_work);
            let mut emitted = m.pull(8).0;
            m.weigh(&ids);
            loop {
                let batch = m.pull_idle(8);
                if batch.is_empty() {
                    break;
                }
                emitted.extend(batch);
            }
            assert_eq!(
                emitted,
                vec![Comparison::new(ProfileId(0), ProfileId(1))],
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn pull_idle_ends_only_when_a_tick_finds_nothing() {
        for strategy in [Strategy::Pcs, Strategy::Pbs, Strategy::Pes] {
            let mut m = machine(strategy);
            m.ingest(&corpus());
            let mut seen = std::collections::BTreeSet::new();
            loop {
                let batch = m.pull_idle(2);
                if batch.is_empty() {
                    break;
                }
                for cmp in batch {
                    assert!(seen.insert(cmp), "{strategy:?}: {cmp} emitted twice");
                }
            }
            // Drained means drained: nothing pending, ticks are no-ops, and
            // every pair sharing a block was emitted.
            assert!(!m.emitter().has_pending());
            assert!(!m.tick().made_work);
            let collection = m.blocker().collection();
            for a in 0..5 {
                for b in a + 1..5 {
                    let cmp = Comparison::new(ProfileId(a), ProfileId(b));
                    assert_eq!(
                        seen.contains(&cmp),
                        collection.common_blocks(cmp.a, cmp.b) > 0,
                        "{strategy:?}: {cmp}"
                    );
                }
            }
        }
    }
}
