//! Stage scaffolding shared by both topologies of the [`crate::Pipeline`].
//!
//! The single and the sharded topology are the same pipeline with a
//! different stage A in the middle: a source replays increments at a
//! configured rate, a tokenize stage interns each profile exactly once
//! against a [`SharedTokenDictionary`] (producing one
//! [`TokenizedIncrement`] per source increment), stage A turns them into
//! batches of materialized profile pairs, and a stage B classifies the
//! batches. This module holds those shared pieces so each topology only
//! contributes its wiring (one lane that owns its step machine and pushes
//! batches, vs. router + shard workers that stage B has to ask).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, TrySendError};
use parking_lot::Mutex;

use pier_chaos::{ChaosHandle, FaultKind, FaultPoint};
use pier_core::AdaptiveK;
use pier_matching::{MatchFunction, MatchOutcome, PreparedPair};
use pier_metrics::{
    queue::gauged, Counter, Gauge, GaugedReceiver, GaugedSender, MetricsRegistry, QueueGauges,
};
use pier_observe::{Event, Observer, Phase, WorkerRole};
use pier_types::{EntityProfile, PierError, SharedTokenDictionary, TokenId, Tokenizer};

use crate::pool::MatchPool;
use crate::report::MatchEvent;
use crate::supervisor::Supervisor;

/// A profile together with its interned sorted-distinct token ids.
#[derive(Debug, Clone)]
pub struct TokenizedProfile {
    /// The profile as it arrived.
    pub profile: EntityProfile,
    /// Its sorted distinct token ids in the pipeline's shared dictionary.
    pub tokens: Vec<TokenId>,
}

/// One source increment after the tokenize stage: every profile carries its
/// token ids, so no downstream stage ever re-tokenizes or re-interns.
#[derive(Debug, Clone)]
pub struct TokenizedIncrement {
    /// Position of the increment in the stream (0-based).
    pub seq: u64,
    /// The increment's profiles with their token ids.
    pub profiles: Vec<TokenizedProfile>,
}

impl TokenizedIncrement {
    /// Number of profiles in the increment.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the increment carries no profiles.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// Tokenizes one increment against the shared dictionary: each token string
/// is hashed (and, if unseen, allocated) exactly once here, and everything
/// downstream speaks dense ids. `scratch` is the reusable lowercase buffer
/// of the calling thread.
pub fn tokenize_increment(
    dictionary: &SharedTokenDictionary,
    tokenizer: &Tokenizer,
    seq: u64,
    increment: Vec<EntityProfile>,
    scratch: &mut String,
) -> TokenizedIncrement {
    let profiles = increment
        .into_iter()
        .map(|profile| {
            let tokens = dictionary.tokenize_and_intern(tokenizer, &profile, scratch);
            TokenizedProfile { profile, tokens }
        })
        .collect();
    TokenizedIncrement { seq, profiles }
}

/// Spawns the source thread: replays `increments` with `interarrival`
/// pauses, dispatching each through `send` (which returns `false` when the
/// pipeline has gone away). A set `shutdown` flag stops the replay early.
pub(crate) fn spawn_source(
    increments: Vec<Vec<EntityProfile>>,
    interarrival: Duration,
    shutdown: Arc<AtomicBool>,
    mut send: impl FnMut(usize, Vec<EntityProfile>) -> bool + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for (i, inc) in increments.into_iter().enumerate() {
            if i > 0 {
                std::thread::sleep(interarrival);
            }
            if shutdown.load(Ordering::SeqCst) || !send(i, inc) {
                break;
            }
        }
        // Dropping `send` (and the channel senders it owns) closes the
        // stream.
    })
}

/// Shared `# HELP` text for `pier_worker_comparisons_total`, registered by
/// both the pool (one counter per worker) and the sequential classifier
/// (`worker="0"` only).
pub(crate) const WORKER_COMPARISONS_HELP: &str =
    "Comparisons evaluated per match worker (the report's worker_comparisons).";

/// Live classifier metrics: the scraped totals that must equal the final
/// [`crate::RuntimeReport`] exactly (`pier_comparisons_total` ==
/// `report.comparisons`, and in sequential mode
/// `pier_worker_comparisons_total{worker="0"}` == its single
/// `worker_comparisons` entry).
pub(crate) struct ClassifierMetrics {
    comparisons: Arc<Counter>,
    budget_remaining: Arc<Gauge>,
    /// Sequential mode only; pooled runs count per worker in the pool.
    sequential_worker: Option<Arc<Counter>>,
}

impl ClassifierMetrics {
    /// Registers the classifier's live families, seeding the budget gauge
    /// with the run's full comparison cap.
    pub fn register(registry: &MetricsRegistry, max_comparisons: u64, sequential: bool) -> Self {
        let budget_remaining = registry.gauge(
            "pier_budget_remaining",
            "Comparisons left before the run's safety cap.",
            &[],
        );
        budget_remaining.set(max_comparisons.min(i64::MAX as u64) as i64);
        ClassifierMetrics {
            comparisons: registry.counter(
                "pier_comparisons_total",
                "Comparisons executed by the classifier (the report's total).",
                &[],
            ),
            budget_remaining,
            sequential_worker: sequential.then(|| {
                registry.counter(
                    "pier_worker_comparisons_total",
                    WORKER_COMPARISONS_HELP,
                    &[("worker", "0")],
                )
            }),
        }
    }
}

/// How long a pipeline send keeps retrying against a full bounded channel
/// before declaring the receiver unresponsive.
pub(crate) const SEND_TIMEOUT: Duration = Duration::from_secs(2);

/// Batches the single topology's lane may publish ahead of the classifier:
/// the capacity of its batch channel, whose blocking send is the lane's
/// only throttle. Small on purpose, and deliberately not
/// [`crate::RuntimeConfig::channel_capacity`]: whatever is published was
/// prioritized before the next arrival, so with the batch in the
/// classifier's hands at most `(AHEAD + 1) * FILL` pairs (about 1.5 ms of
/// Jaccard or 4 ms of edit-distance work, against 50-60 ms between
/// arrivals on the stream workloads) are executed in a stale order, where
/// 4 096 batches would freeze the order of half a run.
pub(crate) const AHEAD: usize = 2;

/// Pairs an idle lane gathers from idle ticks before it hands a batch
/// over (never more than the adaptive `K`). One tick refills from one
/// block — about 175 pairs on the dbpedia corpus, 26 on census — and a
/// thread wake on the benchmark VM costs tens of microseconds: a
/// prototype that handed over every tick-sized pull (about 11 k handoffs)
/// took `dbpedia-js-static` from 3.12 s to 7.00 s, the overlap eaten by
/// wakes. At 1 024 the same run makes about 1.9 k handoffs.
///
/// The sharded topology is the second user, once its input has ended: a
/// shard then tops a `Pull` up to `min(k, FILL)` inside the one round trip
/// and stage B asks for no more than `FILL` at a time. Drained one block
/// per `Tick` fan-out, the census backlog paid two thread wakes per 26
/// pairs (37 % of `wall_s` after the last arrival); uncapped, the adaptive
/// `K` makes 65 k-pair batches of the same backlog and `peak_rss_mb`
/// rises 6 %.
pub(crate) const FILL: usize = 1024;

/// Sends `value` with bounded patience: one immediate `try_send`, then
/// retries under an [`IdleBackoff`] ladder until `timeout`. Returns
/// [`PierError::ChannelClosed`] when the receiver is gone — a channel that
/// stays full past the timeout is treated the same way (the receiving
/// stage is unresponsive), so callers can dead-letter the payload rather
/// than block the pipeline forever.
pub(crate) fn send_with_backoff<T>(
    tx: &GaugedSender<T>,
    value: T,
    timeout: Duration,
    channel: &'static str,
) -> Result<(), PierError> {
    let mut value = match tx.try_send(value) {
        Ok(()) => return Ok(()),
        Err(TrySendError::Disconnected(_)) => return Err(PierError::ChannelClosed { channel }),
        Err(TrySendError::Full(v)) => v,
    };
    let mut backoff = IdleBackoff::new();
    let deadline = Instant::now() + timeout;
    loop {
        backoff.sleep();
        value = match tx.try_send(value) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(_)) => return Err(PierError::ChannelClosed { channel }),
            Err(TrySendError::Full(v)) => v,
        };
        if Instant::now() >= deadline {
            return Err(PierError::ChannelClosed { channel });
        }
    }
}

/// Exponential backoff for the polled stage-B idle loop
/// (the sharded topology's; the single topology's lane sleeps on its inbox
/// instead): rather than spinning at a fixed 200µs poll while the input is
/// quiet, consecutive idle ticks sleep 200µs, 400µs, … up to a 5ms cap,
/// and any tick that finds work resets the ladder. The tick itself (the empty increment driving the
/// `GetComparisons` fallback of §3.2) still runs on every iteration — only
/// the sleep between unproductive ticks stretches.
///
/// The same ladder paces retries of a blocked pipeline send (see the
/// bounded-channel hardening in [`crate::RuntimeConfig::channel_capacity`]).
#[derive(Debug)]
pub struct IdleBackoff {
    delay: Duration,
}

impl IdleBackoff {
    /// First (and post-reset) sleep between unproductive idle ticks.
    pub const INITIAL: Duration = Duration::from_micros(200);
    /// Ceiling the doubling stops at.
    pub const MAX: Duration = Duration::from_millis(5);

    /// A fresh ladder starting at [`IdleBackoff::INITIAL`].
    pub fn new() -> IdleBackoff {
        IdleBackoff {
            delay: Self::INITIAL,
        }
    }

    /// Drops back to [`IdleBackoff::INITIAL`]; call when a tick made work.
    pub fn reset(&mut self) {
        self.delay = Self::INITIAL;
    }

    /// The next sleep duration, doubling up to [`IdleBackoff::MAX`].
    pub fn next_delay(&mut self) -> Duration {
        let delay = self.delay;
        self.delay = (self.delay * 2).min(Self::MAX);
        delay
    }

    /// Sleeps for [`IdleBackoff::next_delay`].
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

impl Default for IdleBackoff {
    fn default() -> IdleBackoff {
        IdleBackoff::new()
    }
}

/// Builds one pipeline channel, registering queue-depth/backpressure
/// gauges under `labels` when the run has a telemetry registry. `capacity`
/// of `None` means unbounded. This is the single place channel-gauge
/// wiring lives; every channel of every topology goes through it.
pub(crate) fn pipeline_channel<T>(
    registry: Option<&MetricsRegistry>,
    labels: &[(&str, &str)],
    capacity: Option<usize>,
) -> (GaugedSender<T>, GaugedReceiver<T>) {
    let gauges = registry.map(|r| QueueGauges::register(r, labels, capacity));
    let raw = match capacity {
        Some(cap) => channel::bounded::<T>(cap),
        None => channel::unbounded::<T>(),
    };
    gauged(raw, gauges)
}

/// Sets a shutdown flag when dropped — including during a panic unwind.
///
/// Stage B owns the run's lifetime: when its loop exits (budget, deadline,
/// stream drained) the source must stop replaying and every upstream stage
/// wind down. Holding this guard on the stage-B thread is the one shared
/// implementation of that shutdown/poison sequence: a clean exit and a
/// panicking matcher both flip the flag, so the source never keeps
/// replaying into a dead pipeline.
pub(crate) struct ShutdownOnDrop {
    flag: Arc<AtomicBool>,
}

impl ShutdownOnDrop {
    /// Arms the guard over `flag`.
    pub fn new(flag: Arc<AtomicBool>) -> ShutdownOnDrop {
        ShutdownOnDrop { flag }
    }
}

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

/// Runs one stage-A pull behind the `merger` fault point. The trip fires
/// before the pull touches any state, so an injected panic is recovered by
/// simply pulling again (counted as a merger restart) — and only armed
/// runs pay for the `catch_unwind`.
pub(crate) fn pull_past_merger_fault<T>(
    chaos: &ChaosHandle,
    supervisor: &Supervisor,
    observer: &Observer,
    mut pull: impl FnMut() -> T,
) -> T {
    if !chaos.is_armed() {
        return pull();
    }
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        chaos.trip(FaultPoint::Merger, None);
        pull()
    }));
    attempt.unwrap_or_else(|_| {
        let t0 = Instant::now();
        let batch = pull();
        supervisor.worker_restarted(WorkerRole::Merger, 0, t0.elapsed().as_secs_f64(), observer);
        batch
    })
}

/// The classifier thread: the topology-independent half of stage B, shared
/// by every pipeline configuration. Around a stream of materialized batches
/// it runs the matcher (here or on a [`MatchPool`]), emits `MatchConfirmed`
/// events and [`MatchEvent`]s, times the phase, feeds the adaptive-`K`
/// controller, and owns the budget cutoff, worker accounting and the
/// shutdown sequence. A topology contributes only where the batches come
/// from: the single topology's lane pushes them into a channel
/// ([`StageB::run`]), the sharded topology's workers have to be asked
/// ([`StageB::run_polled`]).
pub(crate) struct StageB {
    pub start: Instant,
    pub deadline: Duration,
    pub max_comparisons: u64,
    /// Effective worker count (>= 1); `1` keeps classification on the
    /// stage-B thread itself.
    pub match_workers: usize,
    pub matcher: Arc<dyn MatchFunction>,
    pub observer: Observer,
    pub match_tx: GaugedSender<MatchEvent>,
    pub registry: Option<Arc<MetricsRegistry>>,
    pub adaptive: Arc<Mutex<AdaptiveK>>,
    pub shutdown: Arc<AtomicBool>,
    pub executed_total: Arc<AtomicU64>,
    pub worker_comparisons: Arc<Mutex<Vec<u64>>>,
    pub chaos: ChaosHandle,
    pub supervisor: Arc<Supervisor>,
    /// Comparisons classified so far (0 when built).
    pub executed: u64,
    /// The live classifier families; `run` registers them with `registry`.
    pub metrics: Option<ClassifierMetrics>,
}

impl StageB {
    /// Classifies batches to completion on the calling thread.
    ///
    /// `next_batch(left)` yields the next non-empty batch, waiting at most
    /// `left` — the time to the deadline, so that a stage B with nothing
    /// to do still ends on time — and `None` once stage A is drained (or
    /// the wait ran out). Between batches the budget is checked with a
    /// clock read; within one, see [`StageB::CLOCK_EVERY`].
    ///
    /// Exiting — cleanly or by panic — sets `shutdown` (stopping the
    /// source), drops `next_batch` (a lane blocked on its full batch
    /// channel sees the hang-up and ends; batches it had published or was
    /// holding are dropped unexecuted) and drops the classifier's match
    /// sender (letting the collector finish).
    pub fn run(mut self, mut next_batch: impl FnMut(Duration) -> Option<Vec<PreparedPair>>) {
        let _stop_source = ShutdownOnDrop::new(Arc::clone(&self.shutdown));
        let mut pool = (self.match_workers > 1).then(|| {
            MatchPool::new(
                self.match_workers,
                Arc::clone(&self.matcher),
                &self.observer,
                self.registry.clone(),
                self.chaos.clone(),
                Arc::clone(&self.supervisor),
            )
        });
        self.metrics = self
            .registry
            .as_deref()
            .map(|r| ClassifierMetrics::register(r, self.max_comparisons, self.match_workers <= 1));
        while let Some(batch) = self.time_left().and_then(&mut next_batch) {
            self.classify_batch(batch, pool.as_mut());
        }
        self.executed_total.store(self.executed, Ordering::SeqCst);
        *self.worker_comparisons.lock() = match &pool {
            Some(pool) => pool.executed_per_worker().to_vec(),
            None => vec![self.executed],
        };
    }

    /// [`StageB::run`] over a stage A that has to be asked: `pull`
    /// materializes up to `k` best pairs, `tick` is the empty increment of
    /// §3.2 driving the `GetComparisons` fallback (it returns whether it
    /// made or found work).
    ///
    /// On every pass: pull up to the adaptive `K` best pairs; an empty
    /// pull runs the idle tick instead, backing off exponentially between
    /// unproductive ticks (shards whose input has ended tick inside their
    /// pulls, so there an empty pull already means dry and the tick that
    /// follows only confirms it). The `ingest_done` flag is read *before*
    /// ticking, so when ingestion had already finished the tick is ordered
    /// behind every ingest and a "no work" result is conclusive — the loop
    /// can never abandon an increment that slipped in between the tick and
    /// the check.
    pub fn run_polled(
        self,
        ingest_done: &AtomicBool,
        mut pull: impl FnMut(usize) -> Vec<PreparedPair>,
        mut tick: impl FnMut() -> bool,
    ) {
        let adaptive = Arc::clone(&self.adaptive);
        let (chaos, observer) = (self.chaos.clone(), self.observer.clone());
        let supervisor = Arc::clone(&self.supervisor);
        let mut backoff = IdleBackoff::new();
        self.run(move |left| {
            let asked = Instant::now();
            loop {
                let k = adaptive.lock().k();
                let batch = pull_past_merger_fault(&chaos, &supervisor, &observer, || pull(k));
                if !batch.is_empty() {
                    backoff.reset();
                    return Some(batch);
                }
                let done_before_tick = ingest_done.load(Ordering::SeqCst);
                if tick() {
                    backoff.reset();
                } else if done_before_tick {
                    return None;
                } else {
                    backoff.sleep();
                }
                if asked.elapsed() >= left {
                    return None;
                }
            }
        });
    }

    /// Pairs classified between two looks at the wall clock. The comparison
    /// cap is an integer compare and stays exact per pair; the deadline is
    /// a clock read (46 ns on the benchmark VM, 4 % of a Jaccard run when
    /// paid per pair), so it is honoured to within this many comparisons.
    const CLOCK_EVERY: usize = 256;

    /// Time left until the deadline; `None` once it has passed or the
    /// comparison cap is reached. Reads the clock.
    fn time_left(&self) -> Option<Duration> {
        if self.executed >= self.max_comparisons {
            return None;
        }
        let left = self.deadline.saturating_sub(self.start.elapsed());
        (!left.is_zero()).then_some(left)
    }

    /// Whether classification stops after the `done`-th pair of a batch:
    /// at the cap exactly, past the deadline to within
    /// [`Self::CLOCK_EVERY`] pairs.
    fn stops_after(&self, done: usize) -> bool {
        self.executed >= self.max_comparisons
            || (done.is_multiple_of(Self::CLOCK_EVERY) && self.start.elapsed() >= self.deadline)
    }

    /// Classifies one batch (stopping early if the budget runs out mid-way)
    /// and records the batch time with the adaptive-`K` controller.
    ///
    /// With a pool the matcher evaluations fan out across its workers, but
    /// every externally visible effect — comparison accounting,
    /// `MatchConfirmed` events, [`MatchEvent`] delivery, the budget cutoff —
    /// happens here on the coordinator, over the re-sequenced outcomes, in
    /// exactly the order the sequential path produces. The one intentional
    /// difference: the pool always evaluates the whole batch, so a budget
    /// cutoff discards already-computed tail outcomes instead of skipping
    /// their evaluation (the counted comparisons are identical).
    ///
    /// The batch timing fed to the adaptive-`K` controller is wall-clock
    /// in both modes; with `N` workers it reflects the slowest chunk, so
    /// the controller sizes `K` against the pool's aggregate throughput.
    fn classify_batch(&mut self, batch: Vec<PreparedPair>, pool: Option<&mut MatchPool>) {
        let t0 = self.start.elapsed().as_secs_f64();
        match pool {
            Some(pool) => {
                let batch = Arc::new(batch);
                let evaluated = pool.evaluate(&batch);
                for (done, (pair, ev)) in batch.iter().zip(evaluated).enumerate() {
                    self.record(pair, &ev.outcome, Some(ev.worker));
                    if self.stops_after(done + 1) {
                        break;
                    }
                }
            }
            None => {
                for (done, pair) in batch.iter().enumerate() {
                    let outcome = pair.compare(&*self.matcher);
                    self.record(pair, &outcome, None);
                    if self.stops_after(done + 1) {
                        break;
                    }
                }
            }
        }
        let batch_secs = self.start.elapsed().as_secs_f64() - t0;
        self.observer.emit(|| Event::PhaseTiming {
            phase: Phase::Classify,
            secs: batch_secs,
        });
        self.adaptive.lock().record_batch(batch_secs);
    }

    /// Accounts one evaluated pair and emits its match events if confirmed.
    /// `worker` attributes the confirmation to the match worker that
    /// evaluated the pair (parallel mode only; the sequential path stays
    /// untagged, preserving its exact event stream).
    fn record(&mut self, pair: &PreparedPair, outcome: &MatchOutcome, worker: Option<u16>) {
        self.executed += 1;
        if let Some(m) = &self.metrics {
            m.comparisons.inc();
            m.budget_remaining.dec();
            if let Some(w) = &m.sequential_worker {
                w.inc();
            }
        }
        if outcome.is_match {
            let at = self.start.elapsed();
            let cmp = pair.comparison();
            // The entity_apply fault point sits between confirmation and
            // delivery: a Delay stretches the apply, a SendFail simulates a
            // dead match channel, a Panic loses the match outright. All
            // three end in the dead-letter queue, never in a crash.
            let mut deliver = true;
            if self.chaos.is_armed() {
                let tripped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.chaos.trip(FaultPoint::EntityApply, None)
                }));
                match tripped {
                    Err(_) => {
                        self.supervisor
                            .lost_match(cmp, outcome.similarity, &self.observer);
                        return;
                    }
                    Ok(Some(FaultKind::SendFail)) => deliver = false,
                    Ok(_) => {}
                }
            }
            let event = || Event::MatchConfirmed {
                cmp,
                similarity: outcome.similarity,
                at_secs: at.as_secs_f64(),
            };
            match worker {
                Some(worker) => self.observer.for_worker(worker).emit(event),
                None => self.observer.emit(event),
            }
            let sent = deliver
                && send_with_backoff(
                    &self.match_tx,
                    MatchEvent {
                        at,
                        pair: cmp,
                        similarity: outcome.similarity,
                    },
                    SEND_TIMEOUT,
                    "matches",
                )
                .is_ok();
            if !sent {
                // Confirmed but undeliverable: surface the loss instead of
                // silently dropping the event.
                self.supervisor
                    .lost_match(cmp, outcome.similarity, &self.observer);
            }
        }
    }
}

/// The collector half of every driver: streams match events to the caller
/// as they are confirmed and returns them in confirmation order. Runs on
/// the caller's thread until every match sender is dropped.
pub(crate) fn collect_matches(
    match_rx: &GaugedReceiver<MatchEvent>,
    mut on_match: impl FnMut(MatchEvent),
) -> Vec<MatchEvent> {
    let mut matches = Vec::new();
    for event in match_rx.iter() {
        on_match(event);
        matches.push(event);
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_matching::{PreparedProfile, ProfileEntry};
    use pier_types::{ProfileId, SourceId};

    #[test]
    fn tokenize_increment_interns_each_token_once() {
        let dictionary = SharedTokenDictionary::new();
        let tokenizer = Tokenizer::default();
        let mut scratch = String::new();
        let inc = vec![
            EntityProfile::new(ProfileId(0), SourceId(0)).with("t", "alpha beta"),
            EntityProfile::new(ProfileId(1), SourceId(0)).with("t", "beta gamma"),
        ];
        let tokenized = tokenize_increment(&dictionary, &tokenizer, 3, inc, &mut scratch);
        assert_eq!(tokenized.seq, 3);
        assert_eq!(tokenized.len(), 2);
        assert!(!tokenized.is_empty());
        // "beta" shared: three distinct tokens total, one id each.
        assert_eq!(dictionary.len(), 3);
        let beta = dictionary.get("beta").unwrap();
        assert!(tokenized.profiles[0].tokens.contains(&beta));
        assert!(tokenized.profiles[1].tokens.contains(&beta));
        for tp in &tokenized.profiles {
            assert!(tp.tokens.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn shutdown_guard_fires_on_clean_exit_and_on_panic() {
        let clean = Arc::new(AtomicBool::new(false));
        {
            let _guard = ShutdownOnDrop::new(Arc::clone(&clean));
            assert!(!clean.load(Ordering::SeqCst));
        }
        assert!(clean.load(Ordering::SeqCst));

        // Poison propagation: a panicking holder still sets the flag.
        let poisoned = Arc::new(AtomicBool::new(false));
        let result = std::panic::catch_unwind({
            let poisoned = Arc::clone(&poisoned);
            move || {
                let _guard = ShutdownOnDrop::new(poisoned);
                panic!("injected stage-B panic");
            }
        });
        assert!(result.is_err());
        assert!(poisoned.load(Ordering::SeqCst));
    }

    struct ConstMatcher {
        is_match: bool,
        panics: bool,
    }

    impl MatchFunction for ConstMatcher {
        fn compare(
            &self,
            _a: &PreparedProfile,
            _tokens_a: &[TokenId],
            _b: &PreparedProfile,
            _tokens_b: &[TokenId],
        ) -> MatchOutcome {
            assert!(!self.panics, "injected matcher panic");
            MatchOutcome {
                is_match: self.is_match,
                similarity: 1.0,
                ops: 1,
            }
        }

        fn profile_size(&self, _profile: &EntityProfile, tokens: &[TokenId]) -> u64 {
            tokens.len() as u64
        }

        fn pair_ops(&self, _size_a: u64, _size_b: u64) -> u64 {
            1
        }

        fn name(&self) -> &'static str {
            "const"
        }
    }

    fn pair(a: u32, b: u32) -> PreparedPair {
        let side = |id| {
            Arc::new(ProfileEntry {
                tokens: Arc::from(Vec::new()),
                prepared: PreparedProfile::new(ProfileId(id), 1),
            })
        };
        PreparedPair {
            a: side(a),
            b: side(b),
        }
    }

    fn stage_b(matcher: ConstMatcher) -> (StageB, GaugedReceiver<MatchEvent>) {
        let (match_tx, match_rx) = pipeline_channel::<MatchEvent>(None, &[], None);
        let mut adaptive = AdaptiveK::new(4, 1, 16);
        adaptive.set_observer(Observer::disabled());
        let stage = StageB {
            start: Instant::now(),
            deadline: Duration::from_secs(10),
            max_comparisons: 1_000,
            match_workers: 1,
            matcher: Arc::new(matcher),
            observer: Observer::disabled(),
            match_tx,
            registry: None,
            adaptive: Arc::new(Mutex::new(adaptive)),
            shutdown: Arc::new(AtomicBool::new(false)),
            executed_total: Arc::new(AtomicU64::new(0)),
            worker_comparisons: Arc::new(Mutex::new(Vec::new())),
            chaos: ChaosHandle::disabled(),
            supervisor: Arc::new(Supervisor::new()),
            executed: 0,
            metrics: None,
        };
        (stage, match_rx)
    }

    #[test]
    fn stage_b_loop_classifies_then_winds_down() {
        let (stage, match_rx) = stage_b(ConstMatcher {
            is_match: true,
            panics: false,
        });
        let executed_total = Arc::clone(&stage.executed_total);
        let shutdown = Arc::clone(&stage.shutdown);
        let worker_comparisons = Arc::clone(&stage.worker_comparisons);
        let mut batches = vec![vec![pair(0, 1), pair(2, 3)]];
        let mut ticks = 0;
        stage.run_polled(
            &AtomicBool::new(true),
            |_k| batches.pop().unwrap_or_default(),
            || {
                ticks += 1;
                false
            },
        );
        // Both pairs classified, then one conclusive idle tick ended the
        // loop (ingest_done was set before the run).
        assert_eq!(executed_total.load(Ordering::SeqCst), 2);
        assert_eq!(ticks, 1);
        assert!(shutdown.load(Ordering::SeqCst));
        assert_eq!(*worker_comparisons.lock(), vec![2]);
        assert_eq!(match_rx.iter().count(), 2);
    }

    #[test]
    fn stage_b_panic_propagates_shutdown_and_closes_the_match_stream() {
        let (stage, match_rx) = stage_b(ConstMatcher {
            is_match: false,
            panics: true,
        });
        let shutdown = Arc::clone(&stage.shutdown);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            stage.run(|_left| Some(vec![pair(0, 1)]));
        }));
        assert!(result.is_err());
        // The drop guard flipped the flag mid-unwind and the classifier's
        // sender died with the stack frame: the source stops and the
        // collector drains instead of hanging.
        assert!(shutdown.load(Ordering::SeqCst));
        assert_eq!(match_rx.iter().count(), 0);
    }

    #[test]
    fn idle_backoff_doubles_to_the_cap_and_resets() {
        let mut backoff = IdleBackoff::new();
        assert_eq!(backoff.next_delay(), Duration::from_micros(200));
        assert_eq!(backoff.next_delay(), Duration::from_micros(400));
        assert_eq!(backoff.next_delay(), Duration::from_micros(800));
        assert_eq!(backoff.next_delay(), Duration::from_micros(1_600));
        assert_eq!(backoff.next_delay(), Duration::from_micros(3_200));
        // 6.4ms clamps to the 5ms cap and stays there.
        assert_eq!(backoff.next_delay(), Duration::from_millis(5));
        assert_eq!(backoff.next_delay(), Duration::from_millis(5));
        backoff.reset();
        assert_eq!(backoff.next_delay(), IdleBackoff::INITIAL);
    }
}
