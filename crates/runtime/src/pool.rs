//! Stage B's one work pool.
//!
//! A [`Batch`] holds its pairs, cut into [`HELP_CHUNK`]-pair chunks, an
//! atomic cursor over the chunks and a verdict slot per chunk. Whoever has
//! nothing better to do claims the next chunk and fills its slot: the lane
//! while refused credit (`crate::lane`), the `match_workers - 1` helpers
//! of the [`MatchPool`], told of each batch by one mutex and condition
//! variable, and the classifier, which alone records, in batch order
//! ([`MatchPool::next_chunk`]). It caps a batch at what is left of the
//! budget before sharing it, and a stop moves the cursor to the end.
//!
//! Every thread evaluates a chunk the same way, under `catch_unwind`. A
//! chunk whose evaluation panicked is poisoned: the classifier evaluates
//! it again pair by pair, quarantining a pair that panics again, and
//! counts a restart of its worker — respawning a helper, which dies with
//! its panic.
//!
//! `worker_comparisons` counts each verdict once, as it is computed: a
//! helper's in its slot, the classifier's in slot 0, the lane's in slot 0
//! when the classifier takes its batch over (up to the cap). With helpers,
//! worker 0's chunks are timed worker-tagged, as each helper's are, the
//! lane's seconds on a batch as one chunk.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use pier_chaos::{ChaosHandle, FaultPoint};
use pier_matching::{MatchFunction, MatchOutcome, PreparedPair};
use pier_metrics::{Counter, MetricsRegistry};
use pier_observe::{Event, Observer, Phase, WorkerRole};

use crate::stages::StageB;
use crate::supervisor::Supervisor;

/// The most pairs one claim takes: about 40-60 µs of Jaccard or edit
/// distance on the benchmark VM. A lane out of credit offers its batch
/// again after each chunk, so a batch waits no longer than that once credit
/// returns; a stop wastes no more per helper. A batch of at most this many
/// pairs is one chunk, classified on one thread: on `census-ed-wide-stream`
/// that is 93-95 % of stage B's batches but 9-20 % of its pairs (seeds 1
/// and 2).
pub const HELP_CHUNK: usize = 64;

/// One chunk's verdicts, and the worker that computed them (0: the
/// classifier's thread or the lane).
#[derive(Debug)]
enum Slot {
    /// Unclaimed, or claimed and not filled yet.
    Open,
    Filled(Vec<MatchOutcome>, u16),
    Poisoned(u16),
}

#[derive(Debug)]
struct Slots {
    slots: Vec<Slot>,
    /// The classifier waits for a slot to be filled.
    waiting: bool,
}

/// A batch on its way from stage A to the classifier (see the module docs).
#[derive(Debug)]
pub(crate) struct Batch {
    /// In the order the classifier records them.
    pub pairs: Vec<PreparedPair>,
    /// Pairs that may be claimed: all, until the classifier caps the batch
    /// at what is left of its budget.
    end: usize,
    /// The next chunk to claim. It publishes no data (a chunk's verdicts
    /// cross through its slot's mutex), so it is `Relaxed` throughout.
    next: AtomicUsize,
    slots: Mutex<Slots>,
    filled: Condvar,
    /// Seconds the lane spent filling chunks.
    pub secs: f64,
}

impl Batch {
    pub fn new(pairs: Vec<PreparedPair>) -> Batch {
        let slots = (0..pairs.len().div_ceil(HELP_CHUNK)).map(|_| Slot::Open);
        let slots = Slots {
            slots: slots.collect(),
            waiting: false,
        };
        Batch {
            end: pairs.len(),
            next: AtomicUsize::new(0),
            slots: Mutex::new(slots),
            filled: Condvar::new(),
            secs: 0.0,
            pairs,
        }
    }

    pub fn chunks(&self) -> usize {
        self.end.div_ceil(HELP_CHUNK)
    }

    pub fn range(&self, chunk: usize) -> Range<usize> {
        let start = chunk * HELP_CHUNK;
        start..(start + HELP_CHUNK).min(self.end)
    }

    pub fn claim(&self) -> Option<usize> {
        let chunk = self.next.fetch_add(1, Relaxed);
        (chunk < self.chunks()).then_some(chunk)
    }

    /// Claims `chunk` if it is the next unclaimed one.
    fn claim_at(&self, chunk: usize) -> bool {
        self.next
            .compare_exchange(chunk, chunk + 1, Relaxed, Relaxed)
            .is_ok()
    }

    /// Chunks claimed so far; while the lane holds the batch, all filled.
    pub fn claimed(&self) -> usize {
        self.next.load(Relaxed).min(self.chunks())
    }

    /// Lets nobody claim a pair past the first `budget`.
    pub fn cap(&mut self, budget: u64) {
        self.end = self.end.min(usize::try_from(budget).unwrap_or(usize::MAX));
    }

    /// Lets nobody claim another chunk.
    pub fn stop(&self) {
        self.next.fetch_max(self.chunks(), Relaxed);
    }

    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fill(&self, chunk: usize, slot: Slot) {
        let mut slots = self.slots();
        slots.slots[chunk] = slot;
        if slots.waiting {
            self.filled.notify_one();
        }
    }

    fn is_open(&self, chunk: usize) -> bool {
        matches!(self.slots().slots[chunk], Slot::Open)
    }

    /// Chunk `chunk`'s slot, taken once it is filled.
    fn take(&self, chunk: usize) -> Slot {
        let mut slots = self.slots();
        slots.waiting = true;
        let open = |s: &mut Slots| matches!(s.slots[chunk], Slot::Open);
        let waited = self.filled.wait_while(slots, open);
        let mut slots = waited.unwrap_or_else(PoisonError::into_inner);
        slots.waiting = false;
        std::mem::replace(&mut slots.slots[chunk], Slot::Open)
    }

    /// Verdicts the lane brought in the chunks it filled; by the time the
    /// classifier has the batch, every claimed chunk is filled or poisoned.
    fn handed(&self) -> usize {
        let slots = self.slots();
        let filled = (0..self.claimed()).filter(|&c| matches!(slots.slots[c], Slot::Filled(..)));
        filled.map(|c| self.range(c).len()).sum()
    }

    /// Classifies claimed chunk `chunk` as `worker` and fills its slot,
    /// returning the number of verdicts, or the panic of an evaluation that
    /// unwound and poisoned the slot. The `match_worker` fault point fires
    /// inside the unwind guard, so an injected panic takes a real one's path.
    pub fn evaluate(
        &self,
        chunk: usize,
        worker: u16,
        chaos: &ChaosHandle,
        classify: impl Fn(&PreparedPair) -> MatchOutcome,
    ) -> std::thread::Result<usize> {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            chaos.trip(FaultPoint::MatchWorker, Some(worker));
            let pairs = self.pairs[self.range(chunk)].iter();
            pairs.map(classify).collect::<Vec<MatchOutcome>>()
        }));
        let (verdicts, slot) = match attempt {
            Ok(outcomes) => (Ok(outcomes.len()), Slot::Filled(outcomes, worker)),
            Err(panic) => (Err(panic), Slot::Poisoned(worker)),
        };
        self.fill(chunk, slot);
        verdicts
    }
}

/// Where the helpers find the batch being recorded.
#[derive(Default)]
struct Board {
    batch: Option<Arc<Batch>>,
    /// Batches posted so far.
    round: u64,
    closed: bool,
}

/// What the classifier and its helpers share.
struct Crew {
    board: Mutex<Board>,
    posted: Condvar,
    matcher: Arc<dyn MatchFunction>,
    observer: Observer,
    chaos: ChaosHandle,
    /// Verdicts per worker, and their live counters when telemetry is on.
    executed: Vec<AtomicU64>,
    counters: Option<Vec<Arc<Counter>>>,
}

impl Crew {
    fn board(&self) -> MutexGuard<'_, Board> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn credit(&self, worker: u16, n: usize) {
        self.executed[usize::from(worker)].fetch_add(n as u64, Relaxed);
        if let Some(counters) = &self.counters {
            counters[usize::from(worker)].add(n as u64);
        }
    }

    /// Evaluates claimed chunk `chunk` of `batch` as `worker`, timed
    /// through `observer` and counted if it did not panic.
    fn evaluate(
        &self,
        batch: &Batch,
        chunk: usize,
        worker: u16,
        observer: &Observer,
    ) -> std::thread::Result<usize> {
        let evaluated = observer.timed(Phase::Classify, || {
            let classify = |pair: &PreparedPair| pair.compare(&*self.matcher);
            batch.evaluate(chunk, worker, &self.chaos, classify)
        });
        if let Ok(n) = evaluated {
            self.credit(worker, n);
        }
        evaluated
    }
}

/// A helper's life: claim chunks of each posted batch until none is left,
/// and die with a chunk's panic.
fn help(worker: u16, crew: &Crew) {
    let observer = crew.observer.for_worker(worker);
    let mut seen = 0;
    loop {
        let quiet = |board: &mut Board| board.round == seen && !board.closed;
        let board = crew.posted.wait_while(crew.board(), quiet);
        let board = board.unwrap_or_else(PoisonError::into_inner);
        let (Some(batch), false) = (board.batch.clone(), board.closed) else {
            return;
        };
        seen = board.round;
        drop(board);
        while let Some(chunk) = batch.claim() {
            if let Err(panic) = crew.evaluate(&batch, chunk, worker, &observer) {
                resume_unwind(panic);
            }
        }
    }
}

fn spawn(worker: u16, crew: &Arc<Crew>) -> JoinHandle<()> {
    let crew = Arc::clone(crew);
    std::thread::Builder::new()
        .name(format!("pier-match-{worker}"))
        .spawn(move || help(worker, &crew))
        .expect("spawning a match helper thread succeeds")
}

/// The classifier's side of the pool: its helpers (see the module docs).
/// Dropping the pool stops the posted batch and joins them.
pub(crate) struct MatchPool {
    crew: Arc<Crew>,
    /// Helper `w` at index `w - 1`.
    helpers: Vec<JoinHandle<()>>,
    supervisor: Arc<Supervisor>,
    /// Times worker 0's chunks: worker-tagged beside helpers, else off.
    timer: Observer,
}

impl MatchPool {
    /// Spawns `stage`'s `match_workers - 1` helpers, each observing through
    /// a worker-tagged clone of its observer (see the module docs for
    /// worker 0's). With telemetry,
    /// `pier_worker_comparisons_total{worker}` mirrors [`MatchPool::finish`].
    pub fn new(stage: &StageB) -> MatchPool {
        let workers = stage.match_workers.max(1);
        let help = "Comparisons evaluated per match worker (the report's worker_comparisons).";
        let counter = |r: &MetricsRegistry, w: usize| {
            let label = w.to_string();
            r.counter("pier_worker_comparisons_total", help, &[("worker", &label)])
        };
        let registry = stage.registry.as_deref();
        let crew = Arc::new(Crew {
            board: Mutex::default(),
            posted: Condvar::new(),
            matcher: Arc::clone(&stage.matcher),
            observer: stage.observer.clone(),
            chaos: stage.chaos.clone(),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            counters: registry.map(|r| (0..workers).map(|w| counter(r, w)).collect()),
        });
        let timer = (workers > 1).then(|| stage.observer.for_worker(0));
        MatchPool {
            helpers: (1..workers).map(|w| spawn(w as u16, &crew)).collect(),
            crew,
            supervisor: Arc::clone(&stage.supervisor),
            timer: timer.unwrap_or_else(Observer::disabled),
        }
    }

    /// Takes (capped) `batch` over from the lane: counts the verdicts it
    /// brings and times the lane's seconds on it as one chunk of worker 0,
    /// and shows the batch to the helpers if more than the one chunk the
    /// classifier takes first is left to claim.
    pub fn post(&self, batch: &Arc<Batch>) {
        if batch.claimed() > 0 {
            self.crew.credit(0, batch.handed());
            let (phase, secs) = (Phase::Classify, batch.secs);
            self.timer.emit(|| Event::PhaseTiming { phase, secs });
        }
        if self.helpers.is_empty() || batch.claimed() + 1 >= batch.chunks() {
            return;
        }
        let mut board = self.crew.board();
        board.batch = Some(Arc::clone(batch));
        board.round += 1;
        self.crew.posted.notify_all();
    }

    /// The verdicts of chunk `chunk` of `batch`, the classifier's next to
    /// record, and the worker that computed them: computed here if nobody
    /// has claimed it, else taken once filled, filling later chunks
    /// meanwhile. A poisoned chunk is recovered here.
    pub fn next_chunk(&mut self, batch: &Batch, chunk: usize) -> (Vec<MatchOutcome>, u16) {
        // A panic poisons the chunk's slot, which `take` hands back.
        if batch.claim_at(chunk) {
            let _ = self.crew.evaluate(batch, chunk, 0, &self.timer);
        }
        while batch.is_open(chunk) {
            let Some(ahead) = batch.claim() else { break };
            let _ = self.crew.evaluate(batch, ahead, 0, &self.timer);
        }
        match batch.take(chunk) {
            Slot::Filled(outcomes, worker) => (outcomes, worker),
            Slot::Poisoned(worker) => self.recover(batch, chunk, worker),
            Slot::Open => unreachable!("a slot is taken once filled"),
        }
    }

    /// Evaluates poisoned chunk `chunk` again here, pair by pair: a pair
    /// that panics again is quarantined as a non-match, keeping the
    /// verdicts aligned with the batch. Counts the verdicts for `worker`
    /// and its restart, and respawns it if it was a helper.
    fn recover(&mut self, batch: &Batch, chunk: usize, worker: u16) -> (Vec<MatchOutcome>, u16) {
        let died_at = Instant::now();
        let (crew, supervisor) = (&self.crew, &self.supervisor);
        let outcomes = batch.pairs[batch.range(chunk)].iter().map(|pair| {
            let verdict = catch_unwind(AssertUnwindSafe(|| pair.compare(&*crew.matcher)));
            verdict.unwrap_or_else(|_| {
                supervisor.quarantine_pair(pair.comparison(), &crew.observer);
                MatchOutcome::default()
            })
        });
        let outcomes: Vec<MatchOutcome> = outcomes.collect();
        if let Some(helper) = self.helpers.get_mut(usize::from(worker).wrapping_sub(1)) {
            let _ = std::mem::replace(helper, spawn(worker, crew)).join();
        }
        crew.credit(worker, outcomes.len());
        let secs = died_at.elapsed().as_secs_f64();
        supervisor.worker_restarted(WorkerRole::Match, worker, secs, &crew.observer);
        (outcomes, worker)
    }

    /// Closes the pool and returns the verdicts each worker computed.
    pub fn finish(self) -> Vec<u64> {
        let crew = Arc::clone(&self.crew);
        drop(self);
        crew.executed.iter().map(|n| n.load(Relaxed)).collect()
    }
}

impl Drop for MatchPool {
    fn drop(&mut self) {
        let mut board = self.crew.board();
        board.closed = true;
        board.batch.as_ref().inspect(|batch| batch.stop());
        drop(board);
        self.crew.posted.notify_all();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stages::pipeline_channel;
    use pier_core::AdaptiveK;
    use pier_matching::{EditDistanceMatcher, PreparedProfile, ProfileEntry};
    use pier_types::{EntityProfile, ProfileId, SourceId, TokenId};
    use std::time::Duration;

    /// The verdicts of `batch`'s claimed chunks, in batch order.
    pub(crate) fn verdicts(batch: &Batch) -> Vec<MatchOutcome> {
        let slots = batch.slots();
        let claimed = slots.slots[..batch.claimed()].iter();
        let filled = claimed.map(|slot| match slot {
            Slot::Filled(outcomes, _) => outcomes.clone(),
            slot => panic!("a claimed chunk is {slot:?}"),
        });
        filled.flatten().collect()
    }

    /// A pair prepared for the default `EditDistanceMatcher`.
    fn pair(a: u32, b: u32, same: bool) -> PreparedPair {
        let text_b = if same {
            "alpha beta gamma"
        } else {
            "zzz yyy xxx www"
        };
        let side = |id: u32, text: &str| {
            let tokens: Arc<[TokenId]> = Arc::from(vec![TokenId(id), TokenId(id + 1)]);
            let profile = EntityProfile::new(ProfileId(id), SourceId(0)).with("t", text);
            let prepared = EditDistanceMatcher::default().prepare(&profile, &tokens);
            Arc::new(ProfileEntry { tokens, prepared })
        };
        PreparedPair {
            a: side(a, "alpha beta gamma"),
            b: side(b, text_b),
        }
    }

    /// `len` pairs, pair `i` a match iff `i % 3 == 0`.
    fn batch(len: u32) -> Batch {
        Batch::new(
            (0..len)
                .map(|i| pair(2 * i, 2 * i + 1, i % 3 == 0))
                .collect(),
        )
    }

    /// A pool of `workers` for a stage B with no telemetry unless `registry`.
    fn pool_with(
        workers: usize,
        matcher: Arc<dyn MatchFunction>,
        registry: Option<Arc<MetricsRegistry>>,
    ) -> (MatchPool, Arc<Supervisor>) {
        let stage = StageB {
            start: Instant::now(),
            deadline: Duration::from_secs(10),
            max_comparisons: 1_000_000,
            match_workers: workers,
            matcher,
            observer: Observer::disabled(),
            match_tx: pipeline_channel(None, &[], None).0,
            registry,
            adaptive: Arc::new(parking_lot::Mutex::new(AdaptiveK::new(4, 1, 16))),
            shutdown: Arc::default(),
            chaos: ChaosHandle::disabled(),
            supervisor: Arc::new(Supervisor::new()),
            executed: 0,
            metrics: None,
        };
        (MatchPool::new(&stage), Arc::clone(&stage.supervisor))
    }

    fn pool_of(workers: usize, matcher: Arc<dyn MatchFunction>) -> (MatchPool, Arc<Supervisor>) {
        pool_with(workers, matcher, None)
    }

    /// Records `batch` as the classifier does and returns each pair's
    /// `is_match` in batch order.
    fn record(pool: &mut MatchPool, batch: &Arc<Batch>) -> Vec<bool> {
        pool.post(batch);
        let chunks = (0..batch.chunks()).map(|chunk| pool.next_chunk(batch, chunk).0);
        chunks.flatten().map(|o| o.is_match).collect()
    }

    fn expected(len: u32) -> Vec<bool> {
        (0..len).map(|i| i % 3 == 0).collect()
    }

    #[test]
    fn the_pool_keeps_batch_order_and_counts_each_verdict_once() {
        for workers in [1, 3] {
            let matcher = Arc::new(EditDistanceMatcher::default());
            let (mut pool, _) = pool_of(workers, matcher);
            // 20 full chunks and a partial one, then a batch of one pair.
            let first = Arc::new(batch(20 * 64 + 5));
            assert_eq!(record(&mut pool, &first), expected(20 * 64 + 5));
            assert_eq!(record(&mut pool, &Arc::new(batch(1))), [true]);
            assert!(record(&mut pool, &Arc::new(batch(0))).is_empty());
            let executed = pool.finish();
            assert_eq!(executed.len(), workers);
            assert_eq!(executed.iter().sum::<u64>(), 20 * 64 + 6, "x{workers}");
        }
    }

    #[test]
    fn a_batch_is_cut_into_help_chunks() {
        fn ranges(batch: &Batch) -> Vec<Range<usize>> {
            (0..batch.chunks()).map(|c| batch.range(c)).collect()
        }
        assert_eq!(ranges(&batch(200)), [0..64, 64..128, 128..192, 192..200]);
        let (full, short) = (batch(64), batch(2));
        assert_eq!((full.chunks(), full.range(0)), (1, 0..64));
        assert_eq!((short.chunks(), short.range(0)), (1, 0..2));
        assert!(ranges(&batch(0)).is_empty());
    }

    #[test]
    fn a_capped_or_stopped_batch_lets_nobody_claim_past_the_end() {
        let mut capped = batch(5 * 64);
        capped.cap(100);
        assert_eq!((capped.chunks(), capped.range(1)), (2, 64..100));
        assert_eq!(
            (capped.claim(), capped.claim(), capped.claim()),
            (Some(0), Some(1), None)
        );
        let stopped = batch(5 * 64);
        assert_eq!(stopped.claim(), Some(0));
        stopped.stop();
        assert_eq!((stopped.claim(), stopped.claimed()), (None, 5));
    }

    #[test]
    fn registry_counters_mirror_per_worker_execution() {
        let registry = MetricsRegistry::shared();
        let matcher: Arc<dyn MatchFunction> = Arc::new(EditDistanceMatcher::default());
        let (mut pool, _) = pool_with(2, matcher, Some(Arc::clone(&registry)));
        record(&mut pool, &Arc::new(batch(9 * 64)));
        let executed = pool.finish();
        assert_eq!(executed.iter().sum::<u64>(), 9 * 64);
        for (worker, &executed) in executed.iter().enumerate() {
            let label = worker.to_string();
            let labels = [("worker", label.as_str())];
            let counter = registry.counter("pier_worker_comparisons_total", "", &labels);
            assert_eq!(counter.get(), executed, "worker {worker}");
        }
    }

    /// The edit-distance matcher, panicking on every helper thread.
    struct PanicsOnHelpers;

    impl MatchFunction for PanicsOnHelpers {
        fn compare(
            &self,
            a: &PreparedProfile,
            tokens_a: &[TokenId],
            b: &PreparedProfile,
            tokens_b: &[TokenId],
        ) -> MatchOutcome {
            let name = std::thread::current().name().map(str::to_owned);
            assert!(
                !name.unwrap_or_default().starts_with("pier-match-"),
                "helper"
            );
            EditDistanceMatcher::default().compare(a, tokens_a, b, tokens_b)
        }

        fn profile_size(&self, profile: &EntityProfile, tokens: &[TokenId]) -> u64 {
            EditDistanceMatcher::default().profile_size(profile, tokens)
        }

        fn pair_ops(&self, size_a: u64, size_b: u64) -> u64 {
            EditDistanceMatcher::default().pair_ops(size_a, size_b)
        }

        fn name(&self) -> &'static str {
            "panics-on-helpers"
        }
    }

    /// A helper that panics poisons its chunk and dies; the classifier
    /// evaluates the chunk again, counts it for the helper and respawns the
    /// helper, which panics on its next chunk in turn.
    #[test]
    fn a_poisoned_chunk_is_recovered_and_its_helper_respawned() {
        let (mut pool, supervisor) = pool_of(2, Arc::new(PanicsOnHelpers));
        let batch = Arc::new(batch(8 * 64));
        pool.post(&batch);
        while batch.claimed() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(record(&mut pool, &batch), expected(8 * 64));
        let restarts = supervisor.restarts();
        assert!(restarts >= 1);
        assert!(supervisor.dead_letters().is_empty());
        let executed = pool.finish();
        assert_eq!(executed.iter().sum::<u64>(), 8 * 64);
        assert_eq!(executed[1], restarts * 64);
    }
}
