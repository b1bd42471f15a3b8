//! The stage-A step machine: the loop body of Algorithm 1, once.
//!
//! Every executor in the workspace runs the same steps — block the
//! arriving profiles, update the prioritizer, pull the best `K`, send the
//! empty-increment tick of §3.2 when the input is idle — and the same rule
//! for combining the last two: [`StageA::turn`] pulls `K` and, only when
//! no arrival is waiting, tops the batch up from idle ticks. The executors
//! differ only in *when* they ingest and take a turn: the synchronous
//! [`crate::PierPipeline`] on the caller's clock, a shard worker on its
//! command channel, and the threaded runtime's lane on its inbox. (The
//! simulator steps on a virtual clock that charges the ops each step
//! returns, and still keeps its own pull-and-tick rule.) [`StageA`] owns
//! the blocker and the emitter together and is the only code that
//! sequences them, so the executors cannot drift apart. It is
//! single-threaded and knows nothing about wall time, channels or fault
//! injection; those stay in the callers, wrapped around the step calls.

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

    /// One turn of stage A, the rule every executor runs (DESIGN §3
    /// note 6): pulls `k` through `pull` and, when `idle` — no arrival is
    /// waiting — tops the batch up from idle ticks to `min(k, fill)`,
    /// asking each pull only for what is still missing and stopping at the
    /// first tick that makes no work. A busy turn never ticks. An empty
    /// batch from an idle turn (`k` and `fill` above zero) means stage A is
    /// fully drained.
    ///
    /// `pull` is how the caller takes comparisons out of the machine
    /// (weighted for a shard's merger, materialized for the runtime's
    /// lane); ingesting is the caller's, before the turn. Outside tests
    /// `fill` has one value other than `k`: the threaded runtime's `FILL`
    /// (1024), which its lane and shard lane pass; [`crate::PierPipeline`]
    /// passes `k`, so its idle turns fill to `k`. Each tick's
    /// refill is appended best first; the batch is not re-sorted, exactly
    /// as consecutive pulls are not.
    pub fn turn<T>(
        &mut self,
        idle: bool,
        k: usize,
        fill: usize,
        mut pull: impl FnMut(&mut Self, usize) -> Vec<T>,
    ) -> Vec<T> {
        let mut batch = pull(self, k);
        let fill = if idle { k.min(fill) } else { 0 };
        while batch.len() < fill && self.tick().made_work {
            batch.extend(pull(self, fill - batch.len()));
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ipcs, PierConfig, Strategy};
    use pier_observe::StatsObserver;
    use pier_types::{ErKind, SourceId};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
            emitted.extend(drain(&mut m, 8));
            assert_eq!(
                emitted,
                vec![Comparison::new(ProfileId(0), ProfileId(1))],
                "{strategy:?}"
            );
        }
    }

    /// Takes comparisons out of the machine, unweighted.
    fn take(m: &mut StageA, k: usize) -> Vec<Comparison> {
        m.pull(k).0
    }

    /// Idle turns of `k` until one comes back empty.
    fn drain(m: &mut StageA, k: usize) -> Vec<Comparison> {
        std::iter::from_fn(|| Some(m.turn(true, k, k, take)).filter(|b| !b.is_empty()))
            .flatten()
            .collect()
    }

    /// A strategy's emitter that counts the idle ticks it is sent.
    struct Counted {
        inner: Box<dyn ComparisonEmitter + Send>,
        ticks: Arc<AtomicUsize>,
    }

    impl ComparisonEmitter for Counted {
        fn on_increment(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
            if new_ids.is_empty() {
                self.ticks.fetch_add(1, Ordering::Relaxed);
            }
            self.inner.on_increment(blocker, new_ids);
        }

        fn next_weighted_batch(
            &mut self,
            blocker: &IncrementalBlocker,
            k: usize,
        ) -> Vec<WeightedComparison> {
            self.inner.next_weighted_batch(blocker, k)
        }

        fn drain_ops(&mut self) -> u64 {
            self.inner.drain_ops()
        }

        fn has_pending(&self) -> bool {
            self.inner.has_pending()
        }

        fn name(&self) -> String {
            self.inner.name()
        }
    }

    /// `profiles` in a machine whose emitter counts its ticks.
    fn counted(strategy: Strategy, profiles: &[EntityProfile]) -> (StageA, Arc<AtomicUsize>) {
        let ticks = Arc::new(AtomicUsize::new(0));
        let emitter: Box<dyn ComparisonEmitter + Send> = Box::new(Counted {
            inner: strategy.build(PierConfig::default()),
            ticks: Arc::clone(&ticks),
        });
        let mut m = StageA::new(IncrementalBlocker::new(ErKind::Dirty), emitter);
        m.ingest(profiles);
        (m, ticks)
    }

    /// Every pair of the machine's profiles that shares a block.
    fn co_blocked(m: &StageA) -> BTreeSet<Comparison> {
        let collection = m.blocker().collection();
        let n = m.blocker().profile_count() as u32;
        (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| Comparison::new(ProfileId(a), ProfileId(b))))
            .filter(|c| collection.common_blocks(c.a, c.b) > 0)
            .collect()
    }

    /// A busy turn is one pull, even with work only a tick would find.
    /// (I-PBS is left out here and below: on these corpora its pulls
    /// materialize every block, so its ticks never find anything.)
    #[test]
    fn a_busy_turn_never_ticks() {
        for strategy in [Strategy::Pcs, Strategy::Pes] {
            let (mut m, ticks) = counted(strategy, &corpus());
            let mut emitted = 0;
            loop {
                let batch = m.turn(false, 2, 64, take);
                if batch.is_empty() {
                    break;
                }
                emitted += batch.len();
            }
            assert_eq!(ticks.load(Ordering::Relaxed), 0, "{strategy:?}");
            assert!(emitted < co_blocked(&m).len(), "{strategy:?}");
            assert!(m.tick().made_work, "{strategy:?}");
        }
    }

    /// With the index dry, an idle turn gathers exactly `min(k, fill)`
    /// pairs from the ticks, or everything that is left; the first empty
    /// one leaves stage A drained, with every co-blocked pair emitted once.
    #[test]
    fn an_idle_turn_tops_up_to_min_k_fill_and_empty_means_drained() {
        let sizes = [(3, 1), (1, 3), (2, 2), (4, 3), (2, 5)];
        // Six twins sharing two tokens, chained by one-token links that
        // generation prunes: a tick finds one link at a time.
        let chain: Vec<EntityProfile> = (0..12)
            .map(|i| p(i, &format!("pa{} pb{} link{}", i / 2, i / 2, i.div_ceil(2))))
            .collect();
        for strategy in [Strategy::Pcs, Strategy::Pes] {
            let (mut m, _) = counted(strategy, &chain);
            let want = co_blocked(&m);
            let mut seen = BTreeSet::new();
            let mut full = 0;
            for &(k, fill) in sizes.iter().cycle() {
                loop {
                    let batch = m.pull(64).0;
                    if batch.is_empty() {
                        break;
                    }
                    for cmp in batch {
                        assert!(seen.insert(cmp), "{strategy:?}: {cmp} emitted twice");
                    }
                }
                let left = want.len() - seen.len();
                let batch = m.turn(true, k, fill, take);
                assert_eq!(batch.len(), left.min(k.min(fill)), "{strategy:?}");
                if batch.is_empty() {
                    break;
                }
                full += usize::from(batch.len() == k.min(fill) && batch.len() > 1);
                for cmp in batch {
                    assert!(seen.insert(cmp), "{strategy:?}: {cmp} emitted twice");
                }
            }
            assert!(
                full > 0,
                "{strategy:?}: no turn was topped up past one pair"
            );
            assert_eq!(seen, want, "{strategy:?}");
            assert!(!m.emitter().has_pending());
            assert!(!m.tick().made_work);
        }
    }

    /// A tick that makes no work ends the turn: on a drained machine an
    /// idle turn ticks once, however far short of `fill` it is. Drained
    /// means drained: every pair sharing a block was emitted, once.
    #[test]
    fn an_idle_turn_stops_at_the_first_dry_tick() {
        for strategy in [Strategy::Pcs, Strategy::Pbs, Strategy::Pes] {
            let (mut m, ticks) = counted(strategy, &corpus());
            let emitted = drain(&mut m, 2);
            let seen: BTreeSet<Comparison> = emitted.iter().copied().collect();
            assert_eq!(seen.len(), emitted.len(), "{strategy:?}: a pair twice");
            assert_eq!(seen, co_blocked(&m), "{strategy:?}");
            assert!(!m.emitter().has_pending());
            ticks.store(0, Ordering::Relaxed);
            assert!(m.turn(true, 8, 8, take).is_empty());
            assert_eq!(ticks.load(Ordering::Relaxed), 1, "{strategy:?}");
        }
    }
}
