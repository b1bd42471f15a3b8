//! The hand-offs of the single topology — tokenizer → lane → classifier —
//! and the two ways a run ends early.
//!
//! The lane owns the stage-A machine and runs ahead of the classifier by
//! up to `AHEAD` published batches, and out of that credit it classifies
//! the batch it holds, so four things can go wrong that no other test
//! would see: a batch lost between the lane's hang-up and the classifier's
//! last receive, a lane that ends with an increment still queued, a pair
//! classified twice (or not at all) across the hand-over, and a classifier
//! that waits for a batch past its deadline because nothing polls any
//! more. The first three are raced here over many schedules against the
//! synchronous `PierPipeline`; the deadline and the comparison cap are
//! pinned for both topologies.
//!
//! Determinism setup as in `pipeline_equivalence.rs`: CBS weights and
//! purging disabled, so a drained run executes one comparison set whatever
//! the schedule.

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use pier_blocking::PurgePolicy;
use pier_chaos::{Fault, FaultKind, FaultPlan, FaultPoint};
use pier_core::{PierConfig, PierPipeline, Strategy};
use pier_datagen::{generate_bibliographic, BibliographicConfig};
use pier_matching::{JaccardMatcher, MatchFunction, MatchOutcome, PreparedProfile};
use pier_observe::StatsObserver;
use pier_runtime::{Pipeline, RuntimeConfig, RuntimeReport};
use pier_shard::ShardedConfig;
use pier_types::{Comparison, Dataset, EntityProfile, TokenId};

fn corpus() -> Dataset {
    generate_bibliographic(&BibliographicConfig {
        seed: 7,
        source0_size: 120,
        source1_size: 100,
        matches: 80,
    })
}

fn increments(dataset: &Dataset) -> Vec<Vec<EntityProfile>> {
    dataset
        .into_increments(8)
        .unwrap()
        .into_iter()
        .map(|i| i.profiles)
        .collect()
}

/// The sync pipeline's drained match set and executed-comparison count.
fn sync_run(dataset: &Dataset, strategy: Strategy) -> (BTreeSet<Comparison>, u64) {
    let mut pipeline = PierPipeline::with_policy(
        dataset.kind,
        strategy,
        PierConfig::default(),
        JaccardMatcher::default(),
        PurgePolicy::disabled(),
    );
    for inc in increments(dataset) {
        assert!(pipeline.push_increment(&inc).errors.is_empty());
    }
    pipeline.drain_idle(usize::MAX);
    let pairs = pipeline.duplicates().iter().map(|m| m.pair).collect();
    (pairs, pipeline.comparisons())
}

/// Runs the corpus through the threaded pipeline; the returned observer
/// saw every event of the run.
fn threaded_run(
    dataset: &Dataset,
    strategy: Strategy,
    shards: Option<u16>,
    config: RuntimeConfig,
) -> (RuntimeReport, Arc<StatsObserver>) {
    let matcher = Arc::new(JaccardMatcher::default());
    threaded_run_with(dataset, strategy, shards, config, matcher)
}

/// [`threaded_run`] with another matcher.
fn threaded_run_with(
    dataset: &Dataset,
    strategy: Strategy,
    shards: Option<u16>,
    config: RuntimeConfig,
    matcher: Arc<dyn MatchFunction>,
) -> (RuntimeReport, Arc<StatsObserver>) {
    let stats = Arc::new(StatsObserver::new());
    let builder = Pipeline::builder(dataset.kind)
        .config(RuntimeConfig {
            purge_policy: PurgePolicy::disabled(),
            ..config
        })
        .observe("stats", stats.clone());
    let builder = match shards {
        Some(shards) => builder.sharded(ShardedConfig {
            shards,
            strategy,
            pier: PierConfig::default(),
            purge_policy: PurgePolicy::disabled(),
        }),
        None => builder.emitter(strategy.build(PierConfig::default())),
    };
    let report = builder
        .build()
        .unwrap()
        .run(increments(dataset), matcher, |_| {});
    (report, stats)
}

/// The reported pairs as a set, after checking none is reported twice.
fn unique_pairs(report: &RuntimeReport, label: &str) -> BTreeSet<Comparison> {
    let pairs: BTreeSet<Comparison> = report.matches.iter().map(|m| m.pair).collect();
    assert_eq!(
        pairs.len(),
        report.matches.len(),
        "{label}: a pair reported twice"
    );
    pairs
}

/// 48 drained runs — back-to-back arrivals (everything queued before the
/// lane's first turn), arrivals racing the lane's turns, and arrivals
/// slower than a drain (the lane sleeps on its inbox between them and the
/// last hang-up finds it asleep) — each executing exactly the sync
/// pipeline's comparisons.
#[test]
fn every_schedule_executes_the_sync_pipelines_comparisons() {
    let dataset = corpus();
    for strategy in [Strategy::Pcs, Strategy::Pes] {
        let (want_pairs, want_comparisons) = sync_run(&dataset, strategy);
        assert!(want_pairs.len() > 10, "{strategy:?}: vacuous reference");
        for round in 0..4 {
            for interarrival_us in [0, 50, 1_000] {
                for match_workers in [1, 2] {
                    let label = format!(
                        "{strategy:?} round {round} interarrival {interarrival_us} µs \
                         x{match_workers}"
                    );
                    let (report, _) = threaded_run(
                        &dataset,
                        strategy,
                        None,
                        RuntimeConfig {
                            interarrival: Duration::from_micros(interarrival_us),
                            match_workers,
                            ..RuntimeConfig::default()
                        },
                    );
                    assert_eq!(report.comparisons, want_comparisons, "{label}");
                    assert_eq!(unique_pairs(&report, &label), want_pairs, "{label}");
                    assert!(report.ingest_errors.is_empty(), "{label}");
                    assert!(report.dead_letters.is_empty(), "{label}");
                    assert_eq!(report.comparisons_dropped, 0, "{label}");
                    if match_workers > 1 {
                        assert_eq!(report.lane_classified, 0, "{label}");
                    }
                }
            }
        }
    }
}

/// A deadline that passes while nothing arrives ends the run there and
/// then: the classifier is blocked on an empty batch channel and the lane
/// on a quiet inbox (sharded: stage B is polling idle shards), so it is the
/// wait itself that has to time out. A classifier that slept until the
/// second increment woke it would let that increment in and release the
/// source only on its third wake.
#[test]
fn a_deadline_is_honoured_while_nothing_arrives() {
    let dataset = corpus();
    let deadline = Duration::from_millis(100);
    let interarrival = Duration::from_millis(800);
    // The cells sleep through most of their run, so they can share it.
    std::thread::scope(|scope| {
        for (shards, match_workers) in [(None, 1), (None, 2), (Some(2), 1), (Some(2), 2)] {
            let dataset = &dataset;
            scope.spawn(move || {
                let label = format!("shards={shards:?} x{match_workers}");
                let began = Instant::now();
                let (report, stats) = threaded_run(
                    dataset,
                    Strategy::Pcs,
                    shards,
                    RuntimeConfig {
                        interarrival,
                        deadline,
                        match_workers,
                        ..RuntimeConfig::default()
                    },
                );
                let took = began.elapsed();
                assert!(report.elapsed >= deadline, "{label}: {:?}", report.elapsed);
                // The source notices the shutdown when it wakes to send the
                // second increment, one interarrival in.
                assert_eq!(stats.snapshot().increments, 1, "{label}");
                assert!(
                    took < deadline + interarrival + Duration::from_millis(500),
                    "{label}: the run took {took:?}"
                );
                assert_eq!(report.profiles, dataset.len(), "{label}");
                assert!(report.dead_letters.is_empty(), "{label}");
                assert_eq!(report.worker_restarts, 0, "{label}");
                unique_pairs(&report, &label);
            });
        }
    });
}

/// The comparison cap is exact — the classifier stops inside a batch —
/// and ends the run although stage A still has work: the batches the lane
/// had published or was holding are dropped unexecuted.
///
/// A classifier slower than stage A keeps the lane out of credit, holding
/// a batch it has classified in part or in whole, and the cap still lands
/// on the pair. What such an early end drops is bounded by how far stage A
/// may run ahead: the rest of the batch in the classifier's hands, the
/// `AHEAD` published batches and the one the lane holds — fewer than
/// `(AHEAD + 2) * K` pairs, with `K` pinned.
#[test]
fn the_comparison_cap_is_exact_and_ends_the_run() {
    let dataset = corpus();
    let (_, total) = sync_run(&dataset, Strategy::Pcs);
    let cap = total / 3;
    assert!(cap > 256, "the cap should fall inside a later batch");
    for shards in [None, Some(2)] {
        for match_workers in [1, 2] {
            let label = format!("shards={shards:?} x{match_workers}");
            let (report, _) = threaded_run(
                &dataset,
                Strategy::Pcs,
                shards,
                RuntimeConfig {
                    interarrival: Duration::ZERO,
                    max_comparisons: cap,
                    match_workers,
                    ..RuntimeConfig::default()
                },
            );
            assert_eq!(report.comparisons, cap, "{label}");
            assert_eq!(report.profiles, dataset.len(), "{label}");
            assert!(report.dead_letters.is_empty(), "{label}");
            unique_pairs(&report, &label);
        }
    }
    const K: usize = 256;
    for match_workers in [1, 2] {
        let label = format!("slow x{match_workers}");
        let slow = Slow::new(Duration::from_micros(20));
        let (report, _) = threaded_run_with(
            &dataset,
            Strategy::Pcs,
            None,
            RuntimeConfig {
                interarrival: Duration::ZERO,
                max_comparisons: cap,
                match_workers,
                k: (K, K, K),
                ..RuntimeConfig::default()
            },
            slow,
        );
        assert_eq!(report.comparisons, cap, "{label}");
        assert_eq!(report.profiles, dataset.len(), "{label}");
        assert!(report.dead_letters.is_empty(), "{label}");
        unique_pairs(&report, &label);
        let dropped = report.comparisons_dropped;
        assert!(dropped > 0, "{label}: stage A ran no batch ahead");
        assert!(dropped < ((AHEAD + 2) * K) as u64, "{label}: {dropped}");
        if match_workers == 1 {
            assert!(report.lane_classified > 0, "{label}: the lane never helped");
        }
    }
}

/// The lane's credit, `AHEAD` (`runtime/src/stages.rs`): batches it may
/// publish ahead of the classifier.
const AHEAD: usize = 2;

/// The idle lane's `FILL` (`runtime/src/stages.rs`): what a shard whose
/// input has ended tops a pull up to, and what stage B then asks for.
const FILL: usize = 1024;

/// The Jaccard matcher, sleeping at least `pause` over each comparison; it
/// counts its comparisons and notes every thread that made one.
struct Slow {
    pause: Duration,
    inner: JaccardMatcher,
    evaluated: AtomicU64,
    threads: Mutex<HashSet<ThreadId>>,
}

impl Slow {
    fn new(pause: Duration) -> Arc<Slow> {
        Arc::new(Slow {
            pause,
            inner: JaccardMatcher::default(),
            evaluated: AtomicU64::new(0),
            threads: Mutex::default(),
        })
    }

    fn evaluated(&self) -> u64 {
        self.evaluated.load(Ordering::Relaxed)
    }

    fn threads(&self) -> usize {
        self.threads.lock().unwrap().len()
    }
}

impl MatchFunction for Slow {
    fn prepare(&self, profile: &EntityProfile, tokens: &[TokenId]) -> PreparedProfile {
        self.inner.prepare(profile, tokens)
    }

    fn compare(
        &self,
        a: &PreparedProfile,
        tokens_a: &[TokenId],
        b: &PreparedProfile,
        tokens_b: &[TokenId],
    ) -> MatchOutcome {
        self.evaluated.fetch_add(1, Ordering::Relaxed);
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        std::thread::sleep(self.pause);
        self.inner.compare(a, tokens_a, b, tokens_b)
    }

    fn profile_size(&self, profile: &EntityProfile, tokens: &[TokenId]) -> u64 {
        self.inner.profile_size(profile, tokens)
    }

    fn pair_ops(&self, size_a: u64, size_b: u64) -> u64 {
        self.inner.pair_ops(size_a, size_b)
    }

    fn name(&self) -> &'static str {
        "slow"
    }
}

/// A classifier slower than stage A keeps the lane out of credit, and the
/// lane classifies instead of waiting: `compare` runs on the lane's thread
/// as well as the classifier's. Every pair is still classified exactly
/// once — the matcher's calls are the run's comparisons — and the drained
/// run reaches the sync pipeline's match set and count. Beside a match
/// pool the lane waits, and the same holds.
#[test]
fn a_lane_out_of_credit_helps_and_each_pair_is_classified_once() {
    let dataset = corpus();
    let (want_pairs, want_comparisons) = sync_run(&dataset, Strategy::Pcs);
    for match_workers in [1, 2] {
        let label = format!("x{match_workers}");
        let slow = Slow::new(Duration::from_micros(20));
        let (report, _) = threaded_run_with(
            &dataset,
            Strategy::Pcs,
            None,
            RuntimeConfig {
                interarrival: Duration::ZERO,
                match_workers,
                ..RuntimeConfig::default()
            },
            slow.clone(),
        );
        assert_eq!(slow.evaluated(), report.comparisons, "{label}");
        assert_eq!(report.comparisons, want_comparisons, "{label}");
        assert_eq!(unique_pairs(&report, &label), want_pairs, "{label}");
        assert_eq!(report.comparisons_dropped, 0, "{label}");
        if match_workers == 1 {
            assert!(slow.threads() >= 2, "{label}: the lane never helped");
            assert!(report.lane_classified > 0, "{label}");
            assert!(report.lane_classified < report.comparisons, "{label}");
        } else {
            assert_eq!(report.lane_classified, 0, "{label}");
        }
    }
}

/// The sharded drain tail — every increment in, shards topping their pulls
/// up — ends early the way the arrival phase does. A cap that leaves all
/// but a handful of the run's comparisons is met to the pair. A deadline
/// stops the run within one `FILL` batch: a pool evaluates the whole batch
/// in hand before the clock is looked at again and the outcomes past the
/// deadline are thrown away, so it is stage B asking an ended stream for
/// no more than `FILL` at a time (here against an adaptive `K` pinned at
/// 4 096) that bounds the waste. A merger delay holds stage B's first pull
/// back until the input, 8 increments back to back, has ended.
#[test]
fn a_cap_or_deadline_in_the_sharded_drain_tail_is_honoured() {
    let dataset = corpus();
    let (_, total) = sync_run(&dataset, Strategy::Pcs);
    assert!(
        total > 4 * FILL as u64,
        "the tail should span several batches"
    );
    let config = |match_workers| RuntimeConfig {
        interarrival: Duration::ZERO,
        match_workers,
        k: (4096, 4096, 65_536),
        fault_plan: Some(FaultPlan::empty(7).with(Fault {
            point: FaultPoint::Merger,
            lane: None,
            at_event: 0,
            kind: FaultKind::Delay(100),
        })),
        ..RuntimeConfig::default()
    };
    for match_workers in [1, 2] {
        let label = format!("x{match_workers}");
        let cap = total - 7;
        let (report, _) = threaded_run(
            &dataset,
            Strategy::Pcs,
            Some(2),
            RuntimeConfig {
                max_comparisons: cap,
                ..config(match_workers)
            },
        );
        assert_eq!(report.comparisons, cap, "{label}");
        unique_pairs(&report, &label);

        // 100 µs a pair and more: the comparisons take several times the
        // 150 ms the deadline leaves them.
        let slow = Slow::new(Duration::from_micros(100));
        let report = Pipeline::builder(dataset.kind)
            .config(RuntimeConfig {
                deadline: Duration::from_millis(250),
                purge_policy: PurgePolicy::disabled(),
                ..config(match_workers)
            })
            .sharded(ShardedConfig {
                shards: 2,
                strategy: Strategy::Pcs,
                pier: PierConfig::default(),
                purge_policy: PurgePolicy::disabled(),
            })
            .build()
            .unwrap()
            .run(increments(&dataset), slow.clone(), |_| {});
        assert_eq!(report.profiles, dataset.len(), "{label}");
        assert!(
            report.comparisons > 0,
            "{label}: the deadline came too soon"
        );
        assert!(
            report.comparisons < total,
            "{label}: the deadline never bit"
        );
        let wasted = slow.evaluated() - report.comparisons;
        assert!(wasted <= FILL as u64, "{label}: {wasted} pairs thrown away");
    }
}
