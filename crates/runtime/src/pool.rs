//! The parallel stage-B match executor.
//!
//! A `MatchPool` (crate-private; configured through
//! [`RuntimeConfig::match_workers`](crate::RuntimeConfig::match_workers))
//! owns `N` long-lived worker threads that fan out over
//! each materialized batch: the coordinator (the stage-B thread) splits
//! the batch into `N` contiguous chunks ([`chunk_ranges`]), ships chunk
//! `i` to worker `i` over its private job channel, and collects replies
//! from one shared reply channel. Replies carry their chunk index, so the
//! coordinator re-sequences outcomes into the original batch order before
//! emitting anything — `MatchEvent`s, `MatchConfirmed` observer events and
//! budget accounting therefore happen in exactly the order the sequential
//! executor would have produced.
//!
//! Workers never emit match events themselves. They only time their own
//! chunk (a worker-tagged [`Phase::Classify`] timing, routed to per-worker
//! accounting by [`pier_observe::StatsObserver`]) and return raw
//! [`MatchOutcome`]s. All externally visible effects stay on the
//! coordinator, which is what makes a `match_workers = N` run emit the
//! identical match set and comparison count as `match_workers = 1`.
//!
//! The channels are the vendored `crossbeam` shim (std `mpsc` underneath),
//! whose receivers are single-consumer — hence one job channel *per
//! worker* plus one shared reply channel, rather than a single shared job
//! queue.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel;

use pier_chaos::{ChaosHandle, FaultPoint};
use pier_matching::{MatchFunction, MatchOutcome, PreparedPair};
use pier_metrics::{
    queue::gauged, Counter, GaugedReceiver, GaugedSender, MetricsRegistry, QueueGauges,
};
use pier_observe::{Observer, Phase, WorkerRole};

use crate::stages::WORKER_COMPARISONS_HELP;
use crate::supervisor::Supervisor;

/// One evaluated pair: the matcher's verdict plus the worker that ran it
/// (so the coordinator can attribute the confirmation to that worker).
pub(crate) struct Evaluated {
    /// The matcher's verdict for the pair.
    pub outcome: MatchOutcome,
    /// Index of the worker that evaluated the pair.
    pub worker: u16,
}

/// A chunk of one batch, shipped to a single worker. The batch is shared
/// by `Arc` — fanning out clones refcounts, never profiles.
struct Job {
    batch: Arc<Vec<PreparedPair>>,
    start: usize,
    end: usize,
    chunk: usize,
}

/// A worker's outcomes for one chunk, keyed for re-sequencing.
struct Reply {
    chunk: usize,
    worker: usize,
    outcomes: Vec<MatchOutcome>,
    panicked: bool,
}

/// Splits `len` items into `chunks` contiguous near-equal ranges: the
/// first `len % chunks` ranges get one extra item. Ranges are returned in
/// order and cover `0..len` exactly; when `len < chunks` the tail ranges
/// are empty.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1);
    let base = len / chunks;
    let extra = len % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        ranges.push((start, start + size));
        start += size;
    }
    ranges
}

/// A pool of stage-B match workers (see the module docs).
///
/// Dropping the pool closes the job channels and joins every worker.
pub(crate) struct MatchPool {
    job_txs: Vec<GaugedSender<Job>>,
    reply_tx: GaugedSender<Reply>,
    reply_rx: GaugedReceiver<Reply>,
    handles: Vec<Option<std::thread::JoinHandle<()>>>,
    executed: Vec<u64>,
    /// Live `pier_worker_comparisons_total{worker=i}` counters, kept in
    /// lock-step with `executed` when telemetry is attached.
    counters: Option<Vec<Arc<Counter>>>,
    // Everything a respawn needs: a dead worker is replaced with a fresh
    // thread + job channel built from the same ingredients as the original.
    matcher: Arc<dyn MatchFunction>,
    observer: Observer,
    registry: Option<Arc<MetricsRegistry>>,
    chaos: ChaosHandle,
    supervisor: Arc<Supervisor>,
}

impl MatchPool {
    /// Spawns `workers` match workers sharing `matcher`. Each worker
    /// observes through a worker-tagged clone of `observer`. With a
    /// `registry`, every job channel gets queue gauges
    /// (`queue="match_jobs"`, `worker=i`), the shared reply channel gets
    /// `queue="match_replies"`, and per-worker comparison counters mirror
    /// [`MatchPool::executed_per_worker`] exactly.
    pub fn new(
        workers: usize,
        matcher: Arc<dyn MatchFunction>,
        observer: &Observer,
        registry: Option<Arc<MetricsRegistry>>,
        chaos: ChaosHandle,
        supervisor: Arc<Supervisor>,
    ) -> MatchPool {
        let workers = workers.max(1);
        let reply_gauges = registry
            .as_deref()
            .map(|r| QueueGauges::register(r, &[("queue", "match_replies")], None));
        let (reply_tx, reply_rx) = gauged(channel::unbounded::<Reply>(), reply_gauges);
        let mut counters = registry.as_deref().map(|_| Vec::with_capacity(workers));
        if let (Some(counters), Some(r)) = (&mut counters, registry.as_deref()) {
            for worker in 0..workers {
                let label = worker.to_string();
                counters.push(r.counter(
                    "pier_worker_comparisons_total",
                    WORKER_COMPARISONS_HELP,
                    &[("worker", label.as_str())],
                ));
            }
        }
        let mut pool = MatchPool {
            job_txs: Vec::with_capacity(workers),
            reply_tx,
            reply_rx,
            handles: Vec::with_capacity(workers),
            executed: vec![0; workers],
            counters,
            matcher,
            observer: observer.clone(),
            registry,
            chaos,
            supervisor,
        };
        for worker in 0..workers {
            let (job_tx, handle) = pool.spawn_worker(worker);
            pool.job_txs.push(job_tx);
            pool.handles.push(Some(handle));
        }
        pool
    }

    /// Builds worker `worker`'s job channel and thread — used both at pool
    /// construction and to replace a worker that died mid-run.
    fn spawn_worker(&self, worker: usize) -> (GaugedSender<Job>, std::thread::JoinHandle<()>) {
        let label = worker.to_string();
        let job_gauges = self.registry.as_deref().map(|r| {
            QueueGauges::register(
                r,
                &[("queue", "match_jobs"), ("worker", label.as_str())],
                None,
            )
        });
        let (job_tx, job_rx) = gauged(channel::unbounded::<Job>(), job_gauges);
        let matcher = Arc::clone(&self.matcher);
        let observer = self.observer.for_worker(worker as u16);
        let reply_tx = self.reply_tx.clone();
        let chaos = self.chaos.clone();
        let handle = std::thread::Builder::new()
            .name(format!("pier-match-{worker}"))
            .spawn(move || worker_loop(worker, &job_rx, &reply_tx, &*matcher, &observer, &chaos))
            .expect("spawning a match worker thread succeeds");
        (job_tx, handle)
    }

    /// Replaces a dead worker: joins its corpse, spawns a fresh thread on
    /// a fresh job channel, and accounts the restart.
    fn restart_worker(&mut self, worker: usize, died_at: Instant) {
        if let Some(handle) = self.handles[worker].take() {
            let _ = handle.join();
        }
        let (job_tx, handle) = self.spawn_worker(worker);
        self.job_txs[worker] = job_tx;
        self.handles[worker] = Some(handle);
        self.supervisor.worker_restarted(
            WorkerRole::Match,
            worker as u16,
            died_at.elapsed().as_secs_f64(),
            &self.observer,
        );
    }

    /// Fallback evaluation of one chunk on the coordinator after its
    /// worker died: each pair runs under `catch_unwind`, and a pair that
    /// panics again is quarantined (dead-lettered) and substituted with a
    /// non-match — keeping the outcome list aligned with the batch and the
    /// executed count identical to a fault-free run.
    fn evaluate_chunk_here(
        &self,
        batch: &[PreparedPair],
        start: usize,
        end: usize,
    ) -> Vec<MatchOutcome> {
        batch[start..end]
            .iter()
            .map(|pair| {
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pair.compare(&*self.matcher)
                }));
                attempt.unwrap_or_else(|_| {
                    self.supervisor
                        .quarantine_pair(pair.comparison(), &self.observer);
                    MatchOutcome {
                        is_match: false,
                        similarity: 0.0,
                        ops: 0,
                    }
                })
            })
            .collect()
    }

    /// Number of workers in the pool.
    pub fn workers(&self) -> usize {
        self.job_txs.len()
    }

    /// Comparisons evaluated by each worker so far, indexed by worker.
    pub fn executed_per_worker(&self) -> &[u64] {
        &self.executed
    }

    /// Credits `n` evaluated pairs to `worker` (report + live counter).
    fn account(&mut self, worker: usize, n: usize) {
        self.executed[worker] += n as u64;
        if let Some(counters) = &self.counters {
            counters[worker].add(n as u64);
        }
    }

    /// Evaluates `batch[from..]` across the pool and returns the outcomes
    /// in the batch's original order, each tagged with the worker that ran
    /// it. (`batch[..from]` came classified from the lane.)
    ///
    /// Blocks until every chunk is back. The whole suffix is always
    /// evaluated — budget enforcement happens afterwards, on the
    /// coordinator, exactly as in the sequential path.
    pub fn evaluate(&mut self, batch: &Arc<Vec<PreparedPair>>, from: usize) -> Vec<Evaluated> {
        let ranges: Vec<(usize, usize)> = chunk_ranges(batch.len() - from, self.workers())
            .into_iter()
            .map(|(start, end)| (from + start, from + end))
            .collect();
        let mut slots: Vec<Option<Reply>> = (0..ranges.len()).map(|_| None).collect();
        let mut outstanding = 0usize;
        for (chunk, &(start, end)) in ranges.iter().enumerate() {
            if start == end {
                continue;
            }
            let job = Job {
                batch: Arc::clone(batch),
                start,
                end,
                chunk,
            };
            // Chunk i always rides worker i's private channel. A closed
            // channel means the worker is dead: respawn it and retry once;
            // if it still cannot accept work, the coordinator evaluates
            // the chunk itself rather than losing it.
            if self.job_txs[chunk].send(job).is_err() {
                self.restart_worker(chunk, Instant::now());
                let retry = Job {
                    batch: Arc::clone(batch),
                    start,
                    end,
                    chunk,
                };
                if self.job_txs[chunk].send(retry).is_err() {
                    let outcomes = self.evaluate_chunk_here(batch, start, end);
                    self.account(chunk, outcomes.len());
                    slots[chunk] = Some(Reply {
                        chunk,
                        worker: chunk,
                        outcomes,
                        panicked: false,
                    });
                    continue;
                }
            }
            outstanding += 1;
        }
        // The pool holds its own `reply_tx`, so the reply channel can
        // never disconnect; every outstanding chunk produces exactly one
        // reply (workers answer even a panic with a poisoned reply).
        while outstanding > 0 {
            let Ok(reply) = self.reply_rx.recv() else {
                break;
            };
            outstanding -= 1;
            if !reply.panicked {
                let chunk = reply.chunk;
                self.account(reply.worker, reply.outcomes.len());
                slots[chunk] = Some(reply);
                continue;
            }
            // The worker died mid-chunk and is unwinding. Re-evaluate the
            // whole chunk on the coordinator (quarantining any pair that
            // panics again), credit it to the dead worker so per-worker
            // counts match a fault-free run, and respawn the worker.
            let died_at = Instant::now();
            let (start, end) = ranges[reply.chunk];
            let outcomes = self.evaluate_chunk_here(batch, start, end);
            self.account(reply.worker, outcomes.len());
            slots[reply.chunk] = Some(Reply {
                chunk: reply.chunk,
                worker: reply.worker,
                outcomes,
                panicked: false,
            });
            self.restart_worker(reply.worker, died_at);
        }
        let mut out = Vec::with_capacity(batch.len() - from);
        for reply in slots.into_iter().flatten() {
            let worker = reply.worker as u16;
            out.extend(
                reply
                    .outcomes
                    .into_iter()
                    .map(|outcome| Evaluated { outcome, worker }),
            );
        }
        out
    }
}

impl Drop for MatchPool {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's receive loop.
        self.job_txs.clear();
        for handle in self.handles.drain(..).flatten() {
            let _ = handle.join();
        }
    }
}

/// One worker's receive loop: evaluate the chunk, report a worker-tagged
/// classify timing, reply. A panicking matcher still produces a (poisoned)
/// reply so the coordinator fails loudly instead of deadlocking.
fn worker_loop(
    worker: usize,
    job_rx: &GaugedReceiver<Job>,
    reply_tx: &GaugedSender<Reply>,
    matcher: &dyn MatchFunction,
    observer: &Observer,
    chaos: &ChaosHandle,
) {
    for job in job_rx.iter() {
        let outcomes = observer.timed(Phase::Classify, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Fires at chunk entry, inside the unwind guard: an injected
                // panic takes the same poisoned-reply path a real one would.
                chaos.trip(FaultPoint::MatchWorker, Some(worker as u16));
                job.batch[job.start..job.end]
                    .iter()
                    .map(|pair| pair.compare(matcher))
                    .collect::<Vec<MatchOutcome>>()
            }))
        });
        match outcomes {
            Ok(outcomes) => {
                let reply = Reply {
                    chunk: job.chunk,
                    worker,
                    outcomes,
                    panicked: false,
                };
                if reply_tx.send(reply).is_err() {
                    break;
                }
            }
            Err(payload) => {
                let _ = reply_tx.send(Reply {
                    chunk: job.chunk,
                    worker,
                    outcomes: Vec::new(),
                    panicked: true,
                });
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_matching::{EditDistanceMatcher, ProfileEntry};
    use pier_types::{EntityProfile, ProfileId, SourceId, TokenId};

    /// A pair prepared for the default `EditDistanceMatcher`, which every
    /// pool test here runs.
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

    #[test]
    fn chunk_ranges_cover_the_batch_contiguously() {
        for len in 0..40usize {
            for chunks in 1..8usize {
                let ranges = chunk_ranges(len, chunks);
                assert_eq!(ranges.len(), chunks);
                let mut next = 0;
                for &(start, end) in &ranges {
                    assert_eq!(start, next);
                    assert!(end >= start);
                    next = end;
                }
                assert_eq!(next, len);
                // Near-equal: sizes differ by at most one, larger first.
                let sizes: Vec<usize> = ranges.iter().map(|&(s, e)| e - s).collect();
                assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
                assert!(sizes[0] - sizes[chunks - 1] <= 1);
            }
        }
        assert_eq!(chunk_ranges(10, 0), vec![(0, 10)]);
    }

    #[test]
    fn pool_preserves_batch_order_and_counts_per_worker() {
        let matcher: Arc<dyn MatchFunction> = Arc::new(EditDistanceMatcher::default());
        let mut pool = MatchPool::new(
            3,
            Arc::clone(&matcher),
            &Observer::disabled(),
            None,
            ChaosHandle::disabled(),
            Arc::new(Supervisor::new()),
        );
        // Pair i matches iff i is even; order must survive the fan-out.
        let batch: Vec<PreparedPair> = (0..20u32)
            .map(|i| pair(2 * i, 2 * i + 1, i % 2 == 0))
            .collect();
        let batch = Arc::new(batch);
        let evaluated = pool.evaluate(&batch, 0);
        assert_eq!(evaluated.len(), 20);
        for (i, ev) in evaluated.iter().enumerate() {
            assert_eq!(ev.outcome.is_match, i % 2 == 0, "pair {i}");
            assert!((ev.worker as usize) < 3);
        }
        // Chunk i went to worker i: 7 + 7 + 6 with the larger chunks first.
        assert_eq!(pool.executed_per_worker(), &[7, 7, 6]);
        // A second batch accumulates.
        pool.evaluate(&Arc::new(vec![pair(100, 101, true)]), 0);
        assert_eq!(pool.executed_per_worker(), &[8, 7, 6]);
        // A batch whose prefix the lane classified: only the suffix is
        // evaluated, split 2 + 2 + 1, and it comes back in order.
        let suffix: Vec<bool> = pool
            .evaluate(&batch, 15)
            .iter()
            .map(|ev| ev.outcome.is_match)
            .collect();
        assert_eq!(suffix, [false, true, false, true, false]);
        assert_eq!(pool.executed_per_worker(), &[10, 9, 7]);
    }

    #[test]
    fn empty_batch_needs_no_replies() {
        let matcher: Arc<dyn MatchFunction> = Arc::new(EditDistanceMatcher::default());
        let mut pool = MatchPool::new(
            2,
            matcher,
            &Observer::disabled(),
            None,
            ChaosHandle::disabled(),
            Arc::new(Supervisor::new()),
        );
        assert!(pool.evaluate(&Arc::new(Vec::new()), 0).is_empty());
        assert_eq!(pool.executed_per_worker(), &[0, 0]);
    }

    #[test]
    fn registry_counters_mirror_per_worker_execution() {
        let registry = MetricsRegistry::shared();
        let matcher: Arc<dyn MatchFunction> = Arc::new(EditDistanceMatcher::default());
        let mut pool = MatchPool::new(
            2,
            matcher,
            &Observer::disabled(),
            Some(Arc::clone(&registry)),
            ChaosHandle::disabled(),
            Arc::new(Supervisor::new()),
        );
        let batch: Vec<PreparedPair> = (0..9u32).map(|i| pair(2 * i, 2 * i + 1, true)).collect();
        pool.evaluate(&Arc::new(batch), 0);
        for (worker, &executed) in pool.executed_per_worker().iter().enumerate() {
            let label = worker.to_string();
            let counter = registry.counter(
                "pier_worker_comparisons_total",
                "",
                &[("worker", label.as_str())],
            );
            assert_eq!(counter.get(), executed, "worker {worker}");
        }
        // The job queues drained back to zero depth and counted their sends.
        let depth = registry.gauge(
            "pier_queue_depth",
            "",
            &[("queue", "match_jobs"), ("worker", "0")],
        );
        assert_eq!(depth.get(), 0);
        let sends = registry.counter(
            "pier_queue_sends_total",
            "",
            &[("queue", "match_jobs"), ("worker", "0")],
        );
        assert_eq!(sends.get(), 1);
    }
}
