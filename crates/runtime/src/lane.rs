//! The stage-A lane: the one thread that owns a [`StageA`] machine.
//!
//! The paper runs incremental prioritization and matching as concurrent
//! components exchanging asynchronous messages, with `findK` pacing what
//! crosses between them (§3.2, Fig. 3). A [`Lane`] is the prioritizer half:
//! tokenized increments come in through one channel, batches of
//! materialized pairs leave through another, and nothing else can reach
//! the machine — there is no lock to take because there is no second
//! owner. One turn of the lane
//!
//! 1. ingests at most one queued increment (block each profile, weigh);
//! 2. reads the adaptive `K` and runs [`StageA::turn`], which pulls once
//!    and materializes the batch and, only when no increment was queued —
//!    DESIGN §3 note 6's "the blocking stage is idle", taken literally —
//!    tops it up from idle ticks to `min(K, FILL)` pairs, stopping at the
//!    first tick that makes no work.
//!
//! A non-empty batch goes into the batch channel, whose capacity
//! ([`AHEAD`](crate::stages::AHEAD)) is the credit the classifier extends
//! and the only throttle. A lane out of credit does not sleep: as any
//! thread of stage B's work pool does (`crate::pool`), it claims the next
//! chunk of the batch it holds, classifies it through the matcher its
//! [`ProfileTable`] owns, and offers the batch again. The classifier
//! records the chunks it brings as given. Only a batch with nothing left to
//! claim waits in a blocking send.
//!
//! An idle turn that comes back empty means stage A is drained: the lane
//! then sleeps in `recv()` on its inbox (no polling) and ends when the
//! inbox has hung up — which in turn hangs up the batch channel and ends
//! the classifier.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use pier_core::StageA;
use pier_matching::{MatchFunction, PreparedPair, ProfileTable};
use pier_metrics::{GaugedReceiver, GaugedSender};
use pier_observe::{Event, Phase};

use crate::pipeline::Run;
use crate::pool::Batch;
use crate::stages::{pull_past_merger_fault, TokenizedIncrement, FILL};

/// What a tokenizer hands stage A (the lane, or the sharded router): an
/// increment and the seconds spent tokenizing it, which stage A folds into
/// the increment's one [`Phase::Block`] timing (0 when nothing observes).
pub(crate) type Tokenized = (TokenizedIncrement, f64);

/// What a lane handed the classifier, for the report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Handed {
    /// Pairs of every batch the lane published, and of the one it held
    /// when the classifier hung up.
    pub pairs: u64,
    /// Verdicts the lane computed while it was out of credit.
    pub classified: u64,
}

/// A stage-A machine and everything that must live on its thread: the
/// per-profile table that materializes its pulls (and classifies them
/// while the lane has no credit).
pub(crate) struct Lane<'a> {
    run: Run<'a>,
    machine: StageA,
    table: ProfileTable<Arc<dyn MatchFunction>>,
    handed: Handed,
}

impl<'a> Lane<'a> {
    pub fn new(run: Run<'a>, machine: StageA, matcher: Arc<dyn MatchFunction>) -> Self {
        Lane {
            run,
            machine,
            table: ProfileTable::new(matcher),
            handed: Handed::default(),
        }
    }

    /// Takes turns until the inbox has hung up and the machine is drained,
    /// or until the classifier has gone away; returns the machine for its
    /// occupancy and what it handed over. `batches` is dropped on return,
    /// which is what tells the classifier that no batch will follow.
    pub fn run(
        mut self,
        inbox: &GaugedReceiver<Tokenized>,
        batches: GaugedSender<Batch>,
    ) -> (StageA, Handed) {
        let mut arrived = None;
        loop {
            let queued = arrived.take().or_else(|| inbox.try_recv());
            let idle = queued.is_none();
            let pairs = self.turn(queued);
            if !pairs.is_empty() {
                if !self.publish(&batches, pairs) {
                    break;
                }
            } else if idle {
                // A tick found nothing and no increment was queued when the
                // turn began: only an arrival can make work. One that
                // slipped in since is what this returns; `Err` means the
                // inbox is empty for good.
                match inbox.recv() {
                    Ok(increment) => arrived = Some(increment),
                    Err(_) => break,
                }
            }
        }
        (self.machine, self.handed)
    }

    /// Hands `pairs` to the classifier, classifying them while it has no
    /// credit (see the module docs); `false` once it has hung up, which
    /// drops the batch and any verdicts computed for it.
    fn publish(&mut self, batches: &GaugedSender<Batch>, pairs: Vec<PreparedPair>) -> bool {
        self.handed.pairs += pairs.len() as u64;
        let sent = batches.send_helping(Batch::new(pairs), |batch| {
            let Some(chunk) = batch.claim() else {
                return false;
            };
            let since = Instant::now();
            // A panic poisons the chunk: the classifier evaluates it again.
            let table = &self.table;
            let classified = batch.evaluate(chunk, 0, self.run.chaos, |pair| table.classify(pair));
            batch.secs += since.elapsed().as_secs_f64();
            self.handed.classified += classified.unwrap_or(0) as u64;
            true
        });
        sent.is_ok()
    }

    /// One turn (see the module docs): ingests what was queued, then runs
    /// stage A's one turn rule, [`StageA::turn`]; an empty batch from a
    /// turn that had nothing queued means the machine is drained.
    fn turn(&mut self, queued: Option<Tokenized>) -> Vec<PreparedPair> {
        let idle = queued.is_none();
        if let Some((increment, tokenize_secs)) = queued {
            self.ingest(increment, tokenize_secs);
        }
        let k = self.run.adaptive.lock().k();
        // Pulls best pairs and materializes them, so that classification
        // needs nothing from this thread: two refcount bumps per pair, not
        // a deep clone.
        let (run, table) = (self.run, &mut self.table);
        self.machine.turn(idle, k, FILL, |machine, k| {
            pull_past_merger_fault(run.chaos, run.supervisor, run.observer, || {
                let cmps = run.observer.timed(Phase::Prune, || machine.pull(k).0);
                let blocker = machine.blocker();
                table.materialize(cmps, |id| (blocker.profile(id), blocker.tokens_handle(id)))
            })
        })
    }

    /// Blocks one increment and tells the prioritizer about it. The
    /// arrival is recorded here, where the increment enters stage A: that
    /// spacing is what `findK` compares the matcher's service time with.
    fn ingest(&mut self, increment: TokenizedIncrement, tokenize_secs: f64) {
        let run = self.run;
        run.arrival();
        let since = run.observer.is_enabled().then(Instant::now);
        let mut ids = Vec::with_capacity(increment.len());
        for tp in increment.profiles {
            let id = tp.profile.id.0;
            let blocked = if run.chaos.is_armed() {
                if run.supervisor.is_quarantined(id) {
                    continue;
                }
                // The poison trip fires before the machine is touched, so a
                // panicking profile can be quarantined and skipped without
                // corrupting state.
                match catch_unwind(AssertUnwindSafe(|| {
                    run.chaos.poison_trip(id);
                    self.machine.block_tokenized(tp.profile, &tp.tokens, None)
                })) {
                    Ok(blocked) => blocked,
                    Err(_) => {
                        run.supervisor.quarantine_profile(id, None, run.observer);
                        continue;
                    }
                }
            } else {
                self.machine.block_tokenized(tp.profile, &tp.tokens, None)
            };
            match blocked {
                Ok(id) => ids.push(id),
                Err(e) => run.ingest_error(e),
            }
        }
        // `Phase::Block` means tokenize + block, on whichever threads.
        if let Some(since) = since {
            run.observer.emit(|| Event::PhaseTiming {
                phase: Phase::Block,
                secs: tokenize_secs + since.elapsed().as_secs_f64(),
            });
        }
        run.observer
            .timed(Phase::Weight, || self.machine.weigh(&ids));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::{BTreeSet, VecDeque};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Instant;

    use parking_lot::Mutex;

    use pier_blocking::{IncrementalBlocker, PurgePolicy};
    use pier_chaos::ChaosHandle;
    use pier_core::{AdaptiveK, ComparisonEmitter};
    use pier_matching::{JaccardMatcher, MatchOutcome, PreparedProfile};
    use pier_observe::Observer;
    use pier_types::{
        Comparison, EntityProfile, ErKind, ProfileId, SharedTokenDictionary, SourceId, TokenId,
        Tokenizer, WeightedComparison,
    };

    use crate::pipeline::RuntimeConfig;
    use crate::pool::{tests::verdicts, HELP_CHUNK};
    use crate::stages::{pipeline_channel, tokenize_increment};
    use crate::supervisor::Supervisor;

    /// One call the lane made into its emitter.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Call {
        /// `on_increment` with this many new profiles.
        Ingest(usize),
        /// `on_increment(&[])`, and whether it made work.
        Tick { made_work: bool },
        /// `next_weighted_batch(asked)`, and how many pairs came back.
        Pull { asked: usize, got: usize },
    }

    /// A scripted emitter: an arrival puts every pair it forms with an
    /// older profile in reserve, a tick moves up to `per_tick` of them into
    /// the index (the `GetComparisons` fallback in miniature), a pull takes
    /// from the index, in order and unweighted (0.0). Every call lands in
    /// `log`.
    pub(crate) struct Scripted {
        per_tick: usize,
        seen: Vec<ProfileId>,
        reserve: VecDeque<Comparison>,
        index: VecDeque<Comparison>,
        ops: u64,
        log: Arc<Mutex<Vec<Call>>>,
    }

    impl Scripted {
        pub(crate) fn boxed(
            per_tick: usize,
            log: Arc<Mutex<Vec<Call>>>,
        ) -> Box<dyn ComparisonEmitter + Send> {
            Box::new(Scripted {
                per_tick,
                seen: Vec::new(),
                reserve: VecDeque::new(),
                index: VecDeque::new(),
                ops: 0,
                log,
            })
        }
    }

    impl ComparisonEmitter for Scripted {
        fn on_increment(&mut self, _blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
            if new_ids.is_empty() {
                let moved = self.per_tick.min(self.reserve.len());
                self.index.extend(self.reserve.drain(..moved));
                self.ops += moved as u64;
                let made_work = moved > 0 || !self.index.is_empty();
                self.log.lock().push(Call::Tick { made_work });
                return;
            }
            for &id in new_ids {
                let pairs = self.seen.iter().map(|&old| Comparison::new(old, id));
                self.reserve.extend(pairs);
                self.seen.push(id);
            }
            self.log.lock().push(Call::Ingest(new_ids.len()));
        }

        fn next_weighted_batch(
            &mut self,
            _blocker: &IncrementalBlocker,
            k: usize,
        ) -> Vec<WeightedComparison> {
            let got = k.min(self.index.len());
            self.log.lock().push(Call::Pull { asked: k, got });
            self.index
                .drain(..got)
                .map(|cmp| WeightedComparison::new(cmp, 0.0))
                .collect()
        }

        fn drain_ops(&mut self) -> u64 {
            std::mem::take(&mut self.ops)
        }

        fn has_pending(&self) -> bool {
            !self.index.is_empty()
        }

        fn name(&self) -> String {
            "scripted".into()
        }
    }

    /// Everything a [`Run`] borrows, for a lane with no pipeline around it.
    struct Fixture {
        config: RuntimeConfig,
        observer: Observer,
        chaos: ChaosHandle,
        supervisor: Supervisor,
        dictionary: SharedTokenDictionary,
        adaptive: Mutex<AdaptiveK>,
        ingest_done: AtomicBool,
        ingest_errors: Mutex<Vec<String>>,
        log: Arc<Mutex<Vec<Call>>>,
    }

    impl Fixture {
        /// `k` is pinned: no arrival spacing or batch time is ever fed in.
        fn new(k: usize) -> Fixture {
            Fixture {
                config: RuntimeConfig {
                    match_workers: 1,
                    ..RuntimeConfig::default()
                },
                observer: Observer::disabled(),
                chaos: ChaosHandle::disabled(),
                supervisor: Supervisor::new(),
                dictionary: SharedTokenDictionary::new(),
                adaptive: Mutex::new(AdaptiveK::new(k, 1, 65_536)),
                ingest_done: AtomicBool::new(false),
                ingest_errors: Mutex::new(Vec::new()),
                log: Arc::default(),
            }
        }

        fn lane(&self, per_tick: usize) -> Lane<'_> {
            self.lane_with(per_tick, Arc::new(JaccardMatcher::default()))
        }

        fn lane_with(&self, per_tick: usize, matcher: Arc<dyn MatchFunction>) -> Lane<'_> {
            let run = Run {
                kind: ErKind::Dirty,
                start: Instant::now(),
                config: &self.config,
                registry: None,
                observer: &self.observer,
                chaos: &self.chaos,
                supervisor: &self.supervisor,
                dictionary: &self.dictionary,
                adaptive: &self.adaptive,
                ingest_done: &self.ingest_done,
                ingest_errors: &self.ingest_errors,
            };
            let blocker = IncrementalBlocker::with_shared_dictionary(
                ErKind::Dirty,
                Tokenizer::default(),
                PurgePolicy::disabled(),
                self.dictionary.clone(),
            );
            let machine = StageA::new(blocker, Scripted::boxed(per_tick, Arc::clone(&self.log)));
            Lane::new(run, machine, matcher)
        }

        /// Increment `seq`: `size` profiles with consecutive ids.
        fn increment(&self, seq: u64, size: u32) -> Tokenized {
            let profiles = (0..size)
                .map(|i| {
                    let id = seq as u32 * size + i;
                    EntityProfile::new(ProfileId(id), SourceId(0)).with("t", format!("tok w{id}"))
                })
                .collect();
            let tokenized = tokenize_increment(
                &self.dictionary,
                &Tokenizer::default(),
                seq,
                profiles,
                &mut String::new(),
            );
            (tokenized, 0.0)
        }

        fn log(&self) -> Vec<Call> {
            self.log.lock().clone()
        }
    }

    fn pairs(batches: impl IntoIterator<Item = Batch>) -> Vec<Comparison> {
        let batches = batches.into_iter();
        batches
            .flat_map(|b| b.pairs.into_iter().map(|p| p.comparison()))
            .collect()
    }

    /// With the whole stream queued before the lane starts, stage A is
    /// never idle until the last increment is in: no tick may run before
    /// it, and each ingest is followed by exactly one pull.
    #[test]
    fn a_queued_increment_always_goes_before_a_tick() {
        let fixture = Fixture::new(4);
        let (inbox_tx, inbox_rx) = pipeline_channel::<Tokenized>(None, &[], None);
        let (batch_tx, batch_rx) = pipeline_channel(None, &[], None);
        for seq in 0..3 {
            inbox_tx.send(fixture.increment(seq, 3)).unwrap();
        }
        drop(inbox_tx);
        fixture.lane(3).run(&inbox_rx, batch_tx);

        let log = fixture.log();
        let empty_pull = Call::Pull { asked: 4, got: 0 };
        assert_eq!(
            log[..7],
            [
                Call::Ingest(3),
                empty_pull,
                Call::Ingest(3),
                empty_pull,
                Call::Ingest(3),
                empty_pull,
                // Only now is the inbox empty.
                empty_pull,
            ]
        );
        assert!(log[7..].iter().all(|c| !matches!(c, Call::Ingest(_))));
        // The lane ended on the hang-up and not before it was drained:
        // every pair of the nine profiles came out, once, and the last
        // thing it did was a tick that found nothing.
        assert_eq!(log.last(), Some(&Call::Tick { made_work: false }));
        let got = pairs(batch_rx.iter());
        assert_eq!(got.len(), 36);
        assert_eq!(got.iter().collect::<BTreeSet<_>>().len(), 36);
    }

    /// An idle turn gathers `min(K, FILL)` pairs from as many ticks as that
    /// takes — asking each pull only for what is still missing — and stops
    /// at the first tick that makes no work.
    #[test]
    fn an_idle_turn_tops_up_to_k_or_fill_and_stops_at_a_dry_tick() {
        // K below FILL: 5 profiles hold 10 pairs, a tick releases 3.
        let fixture = Fixture::new(8);
        let mut lane = fixture.lane(3);
        assert!(lane.turn(Some(fixture.increment(0, 5))).is_empty());
        fixture.log.lock().clear();
        assert_eq!(lane.turn(None).len(), 8);
        let tick = Call::Tick { made_work: true };
        assert_eq!(
            fixture.log(),
            [
                Call::Pull { asked: 8, got: 0 },
                tick,
                Call::Pull { asked: 8, got: 3 },
                tick,
                Call::Pull { asked: 5, got: 3 },
                tick,
                Call::Pull { asked: 2, got: 2 },
            ]
        );
        // The next turn starts with what that left in the index, and ends
        // short of K because the reserve runs dry.
        fixture.log.lock().clear();
        assert_eq!(lane.turn(None).len(), 2);
        assert_eq!(
            fixture.log(),
            [
                Call::Pull { asked: 8, got: 1 },
                tick,
                Call::Pull { asked: 7, got: 1 },
                Call::Tick { made_work: false },
            ]
        );
        assert!(lane.turn(None).is_empty());

        // K above FILL: 50 profiles hold 1 225 pairs.
        let fixture = Fixture::new(2048);
        let mut lane = fixture.lane(100);
        lane.turn(Some(fixture.increment(0, 50)));
        assert_eq!(lane.turn(None).len(), FILL);
        assert_eq!(lane.turn(None).len(), 1225 - FILL);
        assert!(lane.turn(None).is_empty());
    }

    /// A drained lane whose inbox is still open waits for the next arrival;
    /// it ends only once the inbox has hung up *and* a tick found nothing.
    #[test]
    fn the_lane_outlives_a_drain_and_ends_on_the_hang_up() {
        let fixture = Fixture::new(4);
        let (inbox_tx, inbox_rx) = pipeline_channel::<Tokenized>(None, &[], Some(1));
        let (batch_tx, batch_rx) = pipeline_channel(None, &[], Some(1));
        std::thread::scope(|scope| {
            let lane = fixture.lane(3);
            scope.spawn(move || lane.run(&inbox_rx, batch_tx));
            let mut got = Vec::new();
            let mut receive_up_to = |total: usize| {
                while got.len() < total {
                    got.extend(pairs([batch_rx.recv().expect("the lane is still up")]));
                }
            };
            inbox_tx.send(fixture.increment(0, 4)).unwrap();
            receive_up_to(6);
            // All six pairs are out, so the lane is drained. Had it ended,
            // the batch channel would have hung up and this arrival's 22
            // pairs could never come.
            inbox_tx.send(fixture.increment(1, 4)).unwrap();
            receive_up_to(28);
            drop(inbox_tx);
            assert!(batch_rx.recv().is_err(), "a drained lane publishes nothing");
            assert_eq!(got.iter().collect::<BTreeSet<_>>().len(), 28);
        });
        assert_eq!(fixture.log().last(), Some(&Call::Tick { made_work: false }));
    }

    /// The Jaccard matcher, saying so once it has made `after` comparisons.
    struct Telling {
        after: usize,
        calls: AtomicUsize,
        told: Mutex<mpsc::Sender<()>>,
    }

    impl MatchFunction for Telling {
        fn compare(
            &self,
            a: &PreparedProfile,
            tokens_a: &[TokenId],
            b: &PreparedProfile,
            tokens_b: &[TokenId],
        ) -> MatchOutcome {
            if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.after {
                self.told.lock().send(()).unwrap();
            }
            JaccardMatcher::default().compare(a, tokens_a, b, tokens_b)
        }

        fn profile_size(&self, profile: &EntityProfile, tokens: &[TokenId]) -> u64 {
            JaccardMatcher::default().profile_size(profile, tokens)
        }

        fn pair_ops(&self, size_a: u64, size_b: u64) -> u64 {
            JaccardMatcher::default().pair_ops(size_a, size_b)
        }

        fn name(&self) -> &'static str {
            "telling"
        }
    }

    /// A lane with no credit classifies the batch it holds, a chunk at a
    /// time, and hands it over with the chunks it reached — all of them
    /// here, the one slot being freed only once the matcher has made the
    /// first batch's comparisons.
    #[test]
    fn a_lane_out_of_credit_classifies_the_batch_it_holds() {
        // 30 profiles hold 435 pairs: batches of 200, 200 and 35.
        let fixture = Fixture::new(200);
        let (inbox_tx, inbox_rx) = pipeline_channel::<Tokenized>(None, &[], None);
        let (batch_tx, batch_rx) = pipeline_channel(None, &[], Some(1));
        batch_tx.send(Batch::new(Vec::new())).unwrap();
        inbox_tx.send(fixture.increment(0, 30)).unwrap();
        drop(inbox_tx);
        let (told, first_batch_classified) = mpsc::channel();
        let matcher = Arc::new(Telling {
            after: 200,
            calls: AtomicUsize::new(0),
            told: Mutex::new(told),
        });
        let (handed, batches) = std::thread::scope(|scope| {
            let lane = fixture.lane_with(1_000, matcher);
            let lane = scope.spawn(move || lane.run(&inbox_rx, batch_tx));
            first_batch_classified.recv().unwrap();
            assert!(batch_rx.recv().unwrap().pairs.is_empty());
            let batches: Vec<Batch> = batch_rx.iter().collect();
            (lane.join().unwrap().1, batches)
        });
        let sizes: Vec<usize> = batches.iter().map(|b| b.pairs.len()).collect();
        assert_eq!(sizes, [200, 200, 35]);
        assert_eq!(handed.pairs, 435);
        let prefixes: Vec<Vec<MatchOutcome>> = batches.iter().map(verdicts).collect();
        let classified: usize = prefixes.iter().map(Vec::len).sum();
        assert_eq!(handed.classified, classified as u64);
        assert_eq!(prefixes[0].len(), 200);
        assert!(batches[0].secs > 0.0);
        for (batch, prefix) in batches.iter().zip(&prefixes) {
            let n = prefix.len();
            assert!(n == batch.pairs.len() || n % HELP_CHUNK == 0, "{n}");
            let want = batch.pairs[..n]
                .iter()
                .map(|pair| pair.compare(&JaccardMatcher::default()));
            assert!(prefix.iter().copied().eq(want));
        }
    }
}
