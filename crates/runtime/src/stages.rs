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

use std::sync::atomic::{AtomicBool, Ordering};
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

use crate::pool::{Batch, MatchPool};
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

/// Spawns the source thread: replays `increments` open-loop, increment `i`
/// due `i * interarrival` after the replay starts, dispatching each through
/// `send` (which returns `false` when the pipeline has gone away). The time
/// a send takes and any oversleep do not push later arrivals back: a source
/// that is behind its schedule sends at once. A set `shutdown` flag stops
/// the replay early.
pub(crate) fn spawn_source(
    increments: Vec<Vec<EntityProfile>>,
    interarrival: Duration,
    shutdown: Arc<AtomicBool>,
    mut send: impl FnMut(usize, Vec<EntityProfile>) -> bool + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let start = Instant::now();
        for (i, inc) in increments.into_iter().enumerate() {
            let due = start + interarrival * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if shutdown.load(Ordering::SeqCst) || !send(i, inc) {
                break;
            }
        }
        // Dropping `send` (and the channel senders it owns) closes the
        // stream.
    })
}

/// How long a pipeline send keeps retrying against a full bounded channel
/// before declaring the receiver unresponsive.
pub(crate) const SEND_TIMEOUT: Duration = Duration::from_secs(2);

/// Batches the single topology's lane may publish ahead of the classifier:
/// the capacity of its batch channel, the credit the classifier extends
/// and the lane's only throttle (out of it, the lane classifies the batch
/// it holds: `crate::lane`). Small on purpose, and deliberately not
/// [`CHANNEL_CAPACITY`]: whatever is published was prioritized before the
/// next arrival, so with the batch in the classifier's hands and the one
/// the lane holds at most `(AHEAD + 2) * FILL` pairs (about 2 ms of Jaccard
/// or 5 ms of edit-distance work, against 50-60 ms between arrivals on the
/// stream workloads) are executed in a stale order, where 4 096 batches
/// would freeze the order of half a run. The same pairs are what an early
/// end can drop ([`crate::RuntimeReport::comparisons_dropped`]).
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

/// Capacity of the bounded pipeline channels: the match stream and each
/// shard's command and reply channels. A bounded channel turns a stalled
/// downstream stage into backpressure instead of unbounded memory growth;
/// send paths retry under an [`IdleBackoff`] ladder and dead-letter a
/// payload the receiver never accepts. The single topology's batch channel
/// is sized by [`AHEAD`] instead.
pub(crate) const CHANNEL_CAPACITY: usize = 4096;

/// Profiles each shard's ingest journal retains for crash recovery. A
/// shard worker that panics is rebuilt by replaying its journal; once the
/// journal overflows, the oldest entries are evicted (counted, so a lossy
/// recovery is auditable).
pub(crate) const JOURNAL_CAPACITY: usize = 65_536;

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
    let (mut value, mut backoff) = (value, IdleBackoff::new());
    let deadline = Instant::now() + timeout;
    loop {
        value = match tx.try_send(value) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Full(v)) if Instant::now() < deadline => v,
            Err(_) => return Err(PierError::ChannelClosed { channel }),
        };
        backoff.sleep();
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
/// bounded-channel hardening at `CHANNEL_CAPACITY`).
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
/// by every pipeline configuration. It records a stream of batches in
/// order, computing what nobody else has on its [`MatchPool`] (of which it
/// is worker 0); it emits `MatchConfirmed` events and [`MatchEvent`]s,
/// times the phase, feeds the adaptive-`K` controller, and owns the budget
/// cutoff and the shutdown sequence, and it returns what was executed. A
/// topology contributes only where the batches come from: the single
/// topology's lane pushes them into a channel ([`StageB::run`]), the
/// sharded topology's workers have to be asked ([`StageB::run_polled`]).
pub(crate) struct StageB {
    pub start: Instant,
    pub deadline: Duration,
    pub max_comparisons: u64,
    /// Effective worker count (>= 1): the classifier and `match_workers - 1`
    /// helpers.
    pub match_workers: usize,
    pub matcher: Arc<dyn MatchFunction>,
    pub observer: Observer,
    pub match_tx: GaugedSender<MatchEvent>,
    pub registry: Option<Arc<MetricsRegistry>>,
    pub adaptive: Arc<Mutex<AdaptiveK>>,
    pub shutdown: Arc<AtomicBool>,
    pub chaos: ChaosHandle,
    pub supervisor: Arc<Supervisor>,
    /// Comparisons classified so far (0 when built).
    pub executed: u64,
    /// The live `pier_comparisons_total` and `pier_budget_remaining`,
    /// which must equal the final report exactly; `run` registers them
    /// with `registry` (the per-worker counters live in the [`MatchPool`]).
    pub metrics: Option<(Arc<Counter>, Arc<Gauge>)>,
}

impl StageB {
    /// Classifies batches to completion on the calling thread and returns
    /// the comparisons it executed, in total and per match worker.
    ///
    /// `next_batch(left)` yields the next non-empty batch, waiting at most
    /// `left` — the time to the deadline, so that a stage B with nothing
    /// to do still ends on time — and `None` once stage A is drained (or
    /// the wait ran out). Between batches the budget is checked with a
    /// clock read; within one, see [`StageB::CLOCK_EVERY`].
    ///
    /// Exiting — cleanly or by panic — sets `shutdown` (stopping the
    /// source), drops `next_batch` (a lane blocked on, or classifying
    /// against, its full batch channel sees the hang-up and ends; batches
    /// it had published or was holding are dropped unrecorded, counted in
    /// [`crate::RuntimeReport::comparisons_dropped`]) and drops the
    /// classifier's match sender (letting the collector finish).
    pub fn run(mut self, mut next_batch: impl FnMut(Duration) -> Option<Batch>) -> (u64, Vec<u64>) {
        let _stop_source = ShutdownOnDrop::new(Arc::clone(&self.shutdown));
        let mut pool = MatchPool::new(&self);
        self.metrics = self.registry.as_deref().map(|r| {
            let help = "Comparisons left before the run's safety cap.";
            let budget = r.gauge("pier_budget_remaining", help, &[]);
            budget.set(self.max_comparisons.min(i64::MAX as u64) as i64);
            let help = "Comparisons executed by the classifier (the report's total).";
            (r.counter("pier_comparisons_total", help, &[]), budget)
        });
        while let Some(batch) = self.time_left().and_then(&mut next_batch) {
            self.classify_batch(batch, &mut pool);
        }
        (self.executed, pool.finish())
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
    ) -> (u64, Vec<u64>) {
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
                    return Some(Batch::new(batch));
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
        })
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

    /// Records one batch in order, chunk by chunk as [`MatchPool::next_chunk`]
    /// hands them over, stopping early if the budget runs out: nobody
    /// claims a pair past the cap, and after a stop nobody claims another
    /// chunk. The batch time fed to the adaptive-`K` controller, and timed
    /// as the batch's one `Phase::Classify`, is the lane's seconds on it
    /// plus this thread's wall clock over it: the pool's throughput.
    fn classify_batch(&mut self, mut batch: Batch, pool: &mut MatchPool) {
        let t0 = self.start.elapsed().as_secs_f64();
        batch.cap(self.max_comparisons - self.executed);
        let batch = Arc::new(batch);
        pool.post(&batch);
        let pooled = self.match_workers > 1;
        'chunks: for chunk in 0..batch.chunks() {
            let (outcomes, worker) = pool.next_chunk(&batch, chunk);
            let range = batch.range(chunk);
            // A chunk the lane filled before the cap may run past it.
            let verdicts = batch.pairs[range.clone()].iter().zip(&outcomes);
            for (done, (pair, outcome)) in (range.start + 1..).zip(verdicts) {
                self.record(pair, outcome, pooled.then_some(worker));
                if self.stops_after(done) {
                    batch.stop();
                    break 'chunks;
                }
            }
        }
        let batch_secs = batch.secs + self.start.elapsed().as_secs_f64() - t0;
        self.observer.emit(|| Event::PhaseTiming {
            phase: Phase::Classify,
            secs: batch_secs,
        });
        self.adaptive.lock().record_batch(batch_secs);
    }

    /// Accounts one evaluated pair and emits its match events if confirmed.
    /// `worker` attributes the confirmation to the match worker that
    /// evaluated the pair (runs with helpers only; a run without one stays
    /// untagged, emitting the sequential event stream exactly).
    fn record(&mut self, pair: &PreparedPair, outcome: &MatchOutcome, worker: Option<u16>) {
        self.executed += 1;
        if let Some((comparisons, budget)) = &self.metrics {
            comparisons.inc();
            budget.dec();
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
    use crate::pool::HELP_CHUNK;
    use crate::supervisor::DeadLetter;
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

    /// A send that takes 3 ms does not delay the schedule: at 10 ms
    /// inter-arrival increment 9 leaves at about 90 ms, where a source that
    /// slept after each send would let it go at about 117 ms.
    #[test]
    fn source_sends_on_an_open_loop_schedule() {
        let start = Instant::now();
        let departures = Arc::new(Mutex::new(Vec::new()));
        let source = spawn_source(
            vec![Vec::new(); 10],
            Duration::from_millis(10),
            Arc::default(),
            {
                let departures = Arc::clone(&departures);
                move |i, _| {
                    departures.lock().push((i, start.elapsed()));
                    std::thread::sleep(Duration::from_millis(3));
                    true
                }
            },
        );
        source.join().unwrap();
        let departures = departures.lock();
        assert_eq!(departures.len(), 10);
        for &(i, at) in departures.iter() {
            assert!(
                at >= Duration::from_millis(10 * i as u64),
                "increment {i} left early at {at:?}"
            );
        }
        let (_, last) = departures[9];
        assert!(
            last < Duration::from_millis(110),
            "increment 9 left at {last:?}"
        );
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

    /// Says `is_match` to every pair, and panics on those whose first
    /// profile `panics` names.
    struct ConstMatcher {
        is_match: bool,
        panics: fn(u32) -> bool,
    }

    impl MatchFunction for ConstMatcher {
        fn compare(
            &self,
            a: &PreparedProfile,
            _tokens_a: &[TokenId],
            _b: &PreparedProfile,
            _tokens_b: &[TokenId],
        ) -> MatchOutcome {
            assert!(!(self.panics)(a.id().0), "injected matcher panic");
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
        stage_b_with(matcher, 1)
    }

    fn stage_b_with(
        matcher: ConstMatcher,
        match_workers: usize,
    ) -> (StageB, GaugedReceiver<MatchEvent>) {
        let (match_tx, match_rx) = pipeline_channel::<MatchEvent>(None, &[], None);
        let mut adaptive = AdaptiveK::new(4, 1, 16);
        adaptive.set_observer(Observer::disabled());
        let stage = StageB {
            start: Instant::now(),
            deadline: Duration::from_secs(10),
            max_comparisons: 1_000,
            match_workers,
            matcher: Arc::new(matcher),
            observer: Observer::disabled(),
            match_tx,
            registry: None,
            adaptive: Arc::new(Mutex::new(adaptive)),
            shutdown: Arc::new(AtomicBool::new(false)),
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
            panics: |_| false,
        });
        let shutdown = Arc::clone(&stage.shutdown);
        let mut batches = vec![vec![pair(0, 1), pair(2, 3)]];
        let mut ticks = 0;
        let executed = stage.run_polled(
            &AtomicBool::new(true),
            |_k| batches.pop().unwrap_or_default(),
            || {
                ticks += 1;
                false
            },
        );
        // Both pairs classified, then one conclusive idle tick ended the
        // loop (ingest_done was set before the run).
        assert_eq!(executed, (2, vec![2]));
        assert_eq!(ticks, 1);
        assert!(shutdown.load(Ordering::SeqCst));
        assert_eq!(match_rx.iter().count(), 2);
    }

    #[test]
    fn stage_b_panic_propagates_shutdown_and_closes_the_match_stream() {
        let (stage, match_rx) = stage_b(ConstMatcher {
            is_match: true,
            panics: |_| false,
        });
        let shutdown = Arc::clone(&stage.shutdown);
        let mut batches = vec![Batch::new(vec![pair(0, 1)])];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            stage.run(|_left| Some(batches.pop().expect("injected stage-B panic")));
        }));
        assert!(result.is_err());
        // The drop guard flipped the flag mid-unwind and the classifier's
        // sender died with the stack frame: the source stops and the
        // collector drains the one match instead of hanging.
        assert!(shutdown.load(Ordering::SeqCst));
        assert_eq!(match_rx.iter().count(), 1);
    }

    /// A matcher that panics on one pair costs that pair alone, quarantined
    /// as a dead letter, whichever thread claimed its chunk: every chunk is
    /// evaluated under the same unwind guard, the classifier's own too.
    #[test]
    fn a_matcher_panic_quarantines_its_pair_at_any_worker_count() {
        for match_workers in [1, 4] {
            let (stage, match_rx) = stage_b_with(
                ConstMatcher {
                    is_match: true,
                    panics: |a| a == 2 * 70,
                },
                match_workers,
            );
            let supervisor = Arc::clone(&stage.supervisor);
            let pairs = (0..300).map(|i| pair(2 * i, 2 * i + 1)).collect();
            let mut batches = vec![Batch::new(pairs)];
            let (executed, per_worker) = stage.run(|_| batches.pop());
            assert_eq!(executed, 300, "x{match_workers}");
            assert_eq!(per_worker.iter().sum::<u64>(), 300, "x{match_workers}");
            let quarantined = DeadLetter::QuarantinedPair {
                pair: pair(140, 141).comparison(),
            };
            assert_eq!(supervisor.dead_letters(), [quarantined], "x{match_workers}");
            assert_eq!(supervisor.restarts(), 1, "x{match_workers}");
            assert_eq!(match_rx.iter().count(), 299, "x{match_workers}");
        }
    }

    /// The chunks a batch brings classified are recorded as given, and only
    /// the rest is computed — inline or with helpers — in batch order
    /// either way; the cap stops inside a classified chunk as it would
    /// anywhere else.
    #[test]
    fn classified_chunks_are_recorded_as_given() {
        let verdict = |is_match| MatchOutcome {
            is_match,
            similarity: 0.5,
            ops: 1,
        };
        // 70 pairs, the first chunk classified: pair `i` a match iff even.
        let batch = || {
            let pairs = (0..70).map(|i| pair(2 * i, 2 * i + 1)).collect();
            let mut batch = Batch::new(pairs);
            let chunk = batch.claim().unwrap();
            let classified = batch.evaluate(chunk, 0, &ChaosHandle::disabled(), |pair| {
                verdict(pair.comparison().a.0 % 4 == 0)
            });
            assert_eq!(classified.ok(), Some(HELP_CHUNK));
            batch.secs = 0.25;
            batch
        };
        let matched = |match_rx: GaugedReceiver<MatchEvent>| -> Vec<(u32, f64)> {
            let events = match_rx.iter();
            events.map(|m| (m.pair.a.0, m.similarity)).collect()
        };
        for match_workers in [1, 3] {
            // Whatever the matcher says, the first chunk's 32 matches stand;
            // the rest's six come from the matcher, at its similarity 1.0.
            let (stage, match_rx) = stage_b_with(
                ConstMatcher {
                    is_match: true,
                    panics: |_| false,
                },
                match_workers,
            );
            let mut batches = vec![batch()];
            let (executed, per_worker) = stage.run(|_| batches.pop());
            assert_eq!(executed, 70, "x{match_workers}");
            assert_eq!(per_worker.iter().sum::<u64>(), 70, "x{match_workers}");
            let given = (0..32).map(|i| (4 * i, 0.5));
            let computed = (64..70).map(|i| (2 * i, 1.0));
            let want: Vec<(u32, f64)> = given.chain(computed).collect();
            assert_eq!(matched(match_rx), want, "x{match_workers}");
        }
        // A cap inside the classified chunk: the matcher is never asked.
        let (mut stage, match_rx) = stage_b(ConstMatcher {
            is_match: false,
            panics: |_| true,
        });
        stage.max_comparisons = 2;
        let supervisor = Arc::clone(&stage.supervisor);
        let mut batches = vec![batch()];
        assert_eq!(stage.run(|_| batches.pop()), (2, vec![2]));
        assert_eq!(matched(match_rx), [(0, 0.5)]);
        assert_eq!(supervisor.restarts(), 0);
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
