//! The fault-tolerance contract: every cell of the
//! `{single, 4-shard} × {worker-panic, merger-delay, poison-profile} ×
//! {1, 4 match workers}` chaos matrix recovers and reports the *identical*
//! final match set, pair completeness, and executed-comparison count as
//! the fault-free run of the same topology — supervision may only change
//! wall-clock behaviour, never results.
//!
//! Determinism setup (same as `tests/pipeline_equivalence.rs`): CBS
//! weighting (additive over hash-partitioned blocks) and purging disabled,
//! so a fully drained run emits exactly one deterministic comparison set.
//! Recovery keeps that exact: shard workers are rebuilt by replaying the
//! per-shard ingest journal (re-emitted comparisons are absorbed by the
//! merger's CF dedup), a panicked match-worker chunk is re-evaluated on
//! the coordinator and credited to the dead worker, and an injected poison
//! profile carries tokens shared with nothing real, so quarantining it
//! leaves every real block and ghost floor untouched.

use std::sync::Arc;
use std::time::Duration;

use pier_blocking::PurgePolicy;
use pier_chaos::{Fault, FaultKind, FaultPlan, FaultPoint, POISON_ID_BASE};
use pier_core::{PierConfig, Strategy};
use pier_datagen::{generate_bibliographic, BibliographicConfig};
use pier_matching::{JaccardMatcher, MatchFunction};
use pier_observe::{Event, PipelineObserver, WorkerRole};
use pier_runtime::{DeadLetter, Pipeline, RuntimeConfig, RuntimeReport, ShedPolicy};
use pier_shard::ShardedConfig;
use pier_types::{Comparison, Dataset, EntityProfile};

fn corpus() -> Dataset {
    generate_bibliographic(&BibliographicConfig {
        seed: 7,
        source0_size: 120,
        source1_size: 100,
        matches: 80,
    })
}

fn runtime_config(match_workers: usize, fault_plan: Option<FaultPlan>) -> RuntimeConfig {
    RuntimeConfig {
        interarrival: Duration::from_millis(1),
        deadline: Duration::from_secs(60),
        match_workers,
        purge_policy: PurgePolicy::disabled(),
        fault_plan,
        ..RuntimeConfig::default()
    }
}

fn sharded_config(shards: u16) -> ShardedConfig {
    ShardedConfig {
        shards,
        strategy: Strategy::Pcs,
        pier: PierConfig::default(),
        purge_policy: PurgePolicy::disabled(),
    }
}

fn increments(dataset: &Dataset) -> Vec<Vec<EntityProfile>> {
    dataset
        .clone()
        .into_increments(8)
        .unwrap()
        .into_iter()
        .map(|i| i.profiles)
        .collect()
}

fn run_cell(
    dataset: &Dataset,
    increments: Vec<Vec<EntityProfile>>,
    shards: Option<u16>,
    workers: usize,
    fault_plan: Option<FaultPlan>,
) -> RuntimeReport {
    let mut builder = Pipeline::builder(dataset.kind).config(runtime_config(workers, fault_plan));
    builder = match shards {
        Some(n) => builder.sharded(sharded_config(n)),
        None => builder.emitter(Strategy::Pcs.build(PierConfig::default())),
    };
    let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
    builder.build().unwrap().run(increments, matcher, |_| {})
}

/// The externally visible outcome of a run, in comparable form.
#[derive(Debug, PartialEq)]
struct Outcome {
    pairs: Vec<Comparison>,
    comparisons: u64,
    pc: f64,
}

fn outcome(dataset: &Dataset, report: &RuntimeReport) -> Outcome {
    let mut pairs: Vec<Comparison> = report.matches.iter().map(|m| m.pair).collect();
    pairs.sort_unstable();
    pairs.dedup();
    Outcome {
        pairs,
        comparisons: report.comparisons,
        pc: report.progress_trajectory(&dataset.ground_truth).pc(),
    }
}

#[derive(Clone, Copy, Debug)]
enum Scenario {
    WorkerPanic,
    MergerDelay,
    PoisonProfile,
}

impl Scenario {
    const ALL: [Scenario; 3] = [
        Scenario::WorkerPanic,
        Scenario::MergerDelay,
        Scenario::PoisonProfile,
    ];

    /// The fault plan for one matrix cell. `worker-panic` targets the
    /// topology's supervised worker kind: shard workers when sharded, the
    /// match pool otherwise (with one match worker there is no pool thread
    /// to kill — the plan stays armed and must change nothing).
    fn plan(self, sharded: bool) -> FaultPlan {
        let fault = match self {
            Scenario::WorkerPanic if sharded => Fault {
                point: FaultPoint::ShardWorker,
                lane: None,
                at_event: 2,
                kind: FaultKind::Panic,
            },
            Scenario::WorkerPanic => Fault {
                point: FaultPoint::MatchWorker,
                lane: None,
                at_event: 5,
                kind: FaultKind::Panic,
            },
            Scenario::MergerDelay => Fault {
                point: FaultPoint::Merger,
                lane: None,
                at_event: 3,
                kind: FaultKind::Delay(25),
            },
            Scenario::PoisonProfile => Fault {
                point: FaultPoint::StageAIngest,
                lane: None,
                at_event: 1,
                kind: FaultKind::MalformedProfile,
            },
        };
        FaultPlan::empty(7).with(fault)
    }
}

fn quarantined(report: &RuntimeReport) -> Vec<u32> {
    report
        .dead_letters
        .iter()
        .filter_map(|d| match d {
            DeadLetter::QuarantinedProfile { profile, .. } => Some(*profile),
            _ => None,
        })
        .collect()
}

/// The headline matrix: every faulted cell equals its fault-free baseline.
#[test]
fn chaos_matrix_recovers_to_fault_free_outcomes() {
    let dataset = corpus();
    for shards in [None, Some(4)] {
        for workers in [1usize, 4] {
            let baseline_report = run_cell(&dataset, increments(&dataset), shards, workers, None);
            let baseline = outcome(&dataset, &baseline_report);
            assert!(
                baseline.pairs.len() > 10,
                "vacuous baseline ({} matches)",
                baseline.pairs.len()
            );
            assert!(baseline_report.dead_letters.is_empty());
            assert_eq!(baseline_report.worker_restarts, 0);
            assert_eq!(baseline_report.comparisons_shed, 0);

            for scenario in Scenario::ALL {
                let label = format!(
                    "{}x{workers}/{scenario:?}",
                    shards.map_or("single".into(), |n| format!("sharded{n}"))
                );
                let plan = scenario.plan(shards.is_some());
                let report = run_cell(&dataset, increments(&dataset), shards, workers, Some(plan));
                let got = outcome(&dataset, &report);
                assert_eq!(got, baseline, "{label} diverged from fault-free run");
                assert_eq!(report.comparisons_dropped, 0, "{label}: a drained run");

                // The fault must actually have been survived, not skipped.
                match scenario {
                    Scenario::WorkerPanic => {
                        if shards.is_some() || workers > 1 {
                            assert!(
                                report.worker_restarts >= 1,
                                "{label}: no worker was restarted"
                            );
                        }
                    }
                    Scenario::MergerDelay => {
                        // A delay is invisible in the report; equality above
                        // is the whole contract.
                    }
                    Scenario::PoisonProfile => {
                        let poisoned = quarantined(&report);
                        assert_eq!(
                            poisoned.len(),
                            1,
                            "{label}: poison profile quarantined {} times",
                            poisoned.len()
                        );
                        assert!(
                            poisoned[0] >= POISON_ID_BASE,
                            "{label}: quarantined a real profile ({})",
                            poisoned[0]
                        );
                    }
                }
            }
        }
    }
}

/// A duplicate profile id and a poison (ingest-panicking) profile each
/// land in the dead-letter queue exactly once, in both topologies, and
/// neither kills the run.
#[test]
fn duplicates_and_poison_dead_letter_exactly_once() {
    let dataset = corpus();
    for shards in [None, Some(4)] {
        let label = shards.map_or("single".to_string(), |n| format!("sharded{n}"));
        let mut increments = increments(&dataset);
        // Re-send an early profile in a later increment: same id, rejected
        // by the store/blocker as PierError::DuplicateProfile.
        let dup = increments[0][0].clone();
        let dup_id = dup.id.0;
        increments[4].push(dup);
        let plan = Scenario::PoisonProfile.plan(shards.is_some());
        let report = run_cell(&dataset, increments, shards, 2, Some(plan));

        let duplicates: Vec<u32> = report
            .dead_letters
            .iter()
            .filter_map(|d| match d {
                DeadLetter::DuplicateProfile { profile } => Some(*profile),
                _ => None,
            })
            .collect();
        assert_eq!(duplicates, vec![dup_id], "{label}: duplicate dead letters");
        assert_eq!(
            quarantined(&report).len(),
            1,
            "{label}: poison dead letters"
        );
        // The duplicate is also reported as a (non-fatal) ingest error.
        assert!(
            report
                .ingest_errors
                .iter()
                .any(|e| e.contains("ingested twice")),
            "{label}: duplicate missing from ingest_errors: {:?}",
            report.ingest_errors
        );
        // And the run itself still produced the full match set.
        assert!(outcome(&dataset, &report).pairs.len() > 10, "{label}");
    }
}

/// Load shedding under a saturated pull stream drops exactly the
/// below-threshold comparisons, counts them, and keeps everything else:
/// executed + shed equals the unshedded comparison count.
#[test]
fn load_shedding_drops_only_below_threshold_comparisons() {
    let dataset = corpus();
    let baseline = run_cell(&dataset, increments(&dataset), None, 1, None);

    let config = RuntimeConfig {
        shed: Some(ShedPolicy {
            min_weight: 2.0,
            // Every full pull counts as overload and the pull size is
            // capped well below the backlog, so shedding engages
            // deterministically in this saturated drain.
            trigger_full_pulls: 1,
            max_pull: 64,
        }),
        ..runtime_config(1, None)
    };
    let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
    let report = Pipeline::builder(dataset.kind)
        .config(config)
        .emitter(Strategy::Pcs.build(PierConfig::default()))
        .build()
        .unwrap()
        .run(increments(&dataset), matcher, |_| {});

    assert!(report.comparisons_shed > 0, "shedding never engaged");
    assert!(report.comparisons < baseline.comparisons);
    assert_eq!(
        report.comparisons + report.comparisons_shed,
        baseline.comparisons,
        "shedding must only drop, never duplicate or invent comparisons"
    );
}

/// What the tail test's observer keeps of the event stream, in order.
#[derive(Debug, PartialEq)]
enum Seen {
    /// A shard finished ingesting one routed batch.
    ShardIngested,
    /// The merger was restarted.
    MergerRestarted,
}

#[derive(Default)]
struct Order(std::sync::Mutex<Vec<Seen>>);

impl PipelineObserver for Order {
    fn on_event(&self, event: &Event) {
        if let Event::WorkerRestarted {
            role: WorkerRole::Merger,
            ..
        } = event
        {
            self.0.lock().unwrap().push(Seen::MergerRestarted);
        }
    }

    fn on_shard_event(&self, _shard: u16, event: &Event) {
        if let Event::IncrementIngested { .. } = event {
            self.0.lock().unwrap().push(Seen::ShardIngested);
        }
    }
}

/// Faults in the drain tail, where a shard's pulls top themselves up
/// (sharded only: the single lane has no end-of-input state). A merger
/// panic after the last increment is in — stage B's first pull is held
/// back for 400 ms while 8 increments arrive 1 ms apart, its second pull
/// panics — and a poison profile riding the *last* increment, whose shard
/// worker is rebuilt from its journal just before `InputEnded` reaches the
/// lane: both runs still drain to the fault-free outcome.
#[test]
fn faults_in_the_drain_tail_recover_to_fault_free_outcomes() {
    let dataset = corpus();
    let last_increment = increments(&dataset).len() as u64 - 1;
    let fault = |point, at_event, kind| Fault {
        point,
        lane: None,
        at_event,
        kind,
    };
    for workers in [1usize, 2] {
        let baseline = outcome(
            &dataset,
            &run_cell(&dataset, increments(&dataset), Some(4), workers, None),
        );

        let order = Arc::new(Order::default());
        let plan = FaultPlan::empty(7)
            .with(fault(FaultPoint::Merger, 0, FaultKind::Delay(400)))
            .with(fault(FaultPoint::Merger, 1, FaultKind::Panic));
        let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
        let report = Pipeline::builder(dataset.kind)
            .config(runtime_config(workers, Some(plan)))
            .sharded(sharded_config(4))
            .observe("order", order.clone())
            .build()
            .unwrap()
            .run(increments(&dataset), matcher, |_| {});
        assert_eq!(outcome(&dataset, &report), baseline, "merger x{workers}");
        assert_eq!(report.worker_restarts, 1, "merger x{workers}");
        let seen = order.0.lock().unwrap();
        assert!(seen.len() > 8, "merger x{workers}: {seen:?}");
        assert_eq!(
            seen.iter().position(|s| *s == Seen::MergerRestarted),
            Some(seen.len() - 1),
            "merger x{workers}: the fault fired before the input had ended"
        );
        drop(seen);

        let plan = FaultPlan::empty(7).with(fault(
            FaultPoint::StageAIngest,
            last_increment,
            FaultKind::MalformedProfile,
        ));
        let report = run_cell(&dataset, increments(&dataset), Some(4), workers, Some(plan));
        assert_eq!(outcome(&dataset, &report), baseline, "poison x{workers}");
        assert!(report.worker_restarts >= 1, "poison x{workers}");
        let poisoned = quarantined(&report);
        assert_eq!(poisoned.len(), 1, "poison x{workers}: {poisoned:?}");
        assert!(poisoned[0] >= POISON_ID_BASE, "poison x{workers}");
    }
}
