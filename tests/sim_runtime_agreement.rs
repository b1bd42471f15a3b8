//! Cross-validation of every executor: the synchronous `PierPipeline`,
//! the virtual-clock simulator, the threaded runtime (single and 4-shard)
//! and the synchronous `ShardedStageA` (1 and 4 shards) must drain to the
//! same match set — they step the *same* stage-A machine, differing only
//! in how time passes and how many lanes there are.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pier::prelude::*;

fn dataset() -> Dataset {
    generate_bibliographic(&BibliographicConfig {
        seed: 33,
        source0_size: 200,
        source1_size: 170,
        matches: 160,
    })
}

fn increments(d: &Dataset, n: usize) -> Vec<Vec<EntityProfile>> {
    d.clone()
        .into_increments(n)
        .unwrap()
        .into_iter()
        .map(|i| i.profiles)
        .collect()
}

/// The oracle makes classification exact, so a column's match set is
/// decided by what its stage A emitted and nothing else.
fn oracle(d: &Dataset) -> OracleMatcher {
    OracleMatcher::new(d.ground_truth.clone(), 10)
}

fn sharded_config(shards: u16, strategy: Strategy) -> ShardedConfig {
    ShardedConfig {
        shards,
        strategy,
        pier: PierConfig::default(),
        purge_policy: PurgePolicy::disabled(),
    }
}

/// Sync `PierPipeline`: push every increment, then `drain_idle`.
fn sync_pipeline(d: &Dataset, strategy: Strategy) -> BTreeSet<Comparison> {
    let mut pl = PierPipeline::with_policy(
        d.kind,
        strategy,
        PierConfig::default(),
        oracle(d),
        PurgePolicy::disabled(),
    );
    for inc in increments(d, 10) {
        pl.push_increment(&inc);
    }
    pl.drain_idle(usize::MAX);
    pl.duplicates().iter().map(|m| m.pair).collect()
}

/// `PipelineSim` with real classification and an ample virtual budget.
fn simulator(d: &Dataset, strategy: Strategy) -> BTreeSet<Comparison> {
    #[derive(Default)]
    struct Confirmed(Mutex<BTreeSet<Comparison>>);
    impl PipelineObserver for Confirmed {
        fn on_event(&self, event: &Event) {
            if let Event::MatchConfirmed { cmp, .. } = event {
                self.0.lock().unwrap().insert(*cmp);
            }
        }
    }
    let confirmed = Arc::new(Confirmed::default());
    let arrivals: Vec<_> = increments(d, 10).into_iter().map(|i| (0.0, i)).collect();
    let mut emitter = strategy.build(PierConfig::default());
    let matcher = oracle(d);
    let mut sim = PipelineSim::new(
        emitter.as_mut(),
        &matcher,
        SimConfig {
            time_budget: 1.0e6,
            matcher_mode: MatcherMode::Real,
            purge_policy: PurgePolicy::disabled(),
            ..SimConfig::default()
        },
    );
    sim.set_observer(Observer::new(confirmed.clone()));
    let out = sim.run(d.kind, &arrivals, &d.ground_truth);
    let set = confirmed.0.lock().unwrap().clone();
    assert_eq!(out.classified_matches as usize, set.len());
    set
}

/// Threaded `Pipeline`, single topology or `shards`-way sharded.
fn threaded(d: &Dataset, strategy: Strategy, shards: Option<u16>) -> BTreeSet<Comparison> {
    let builder = Pipeline::builder(d.kind).config(RuntimeConfig {
        interarrival: Duration::from_millis(1),
        deadline: Duration::from_secs(60),
        purge_policy: PurgePolicy::disabled(),
        ..RuntimeConfig::default()
    });
    let builder = match shards {
        Some(n) => builder.sharded(sharded_config(n, strategy)),
        None => builder.emitter(strategy.build(PierConfig::default())),
    };
    let report = builder.build().unwrap().run(
        increments(d, 10),
        Arc::new(oracle(d)) as Arc<dyn MatchFunction>,
        |_| {},
    );
    report.matches.iter().map(|m| m.pair).collect()
}

/// Sync `ShardedStageA`: ingest everything, then pull/tick to exhaustion.
fn sync_sharded(d: &Dataset, strategy: Strategy, shards: u16) -> BTreeSet<Comparison> {
    let mut stage = ShardedStageA::new(d.kind, sharded_config(shards, strategy));
    for inc in increments(d, 10) {
        assert!(stage.on_increment(&inc).is_empty());
    }
    let mut matches = BTreeSet::new();
    loop {
        let batch = stage.next_batch(64);
        if batch.is_empty() && !stage.tick() {
            return matches;
        }
        // What the oracle matcher answers, without materializing the pair.
        matches.extend(
            batch
                .into_iter()
                .filter(|cmp| d.ground_truth.is_match(*cmp)),
        );
    }
}

#[test]
fn simulator_and_runtime_find_the_same_matches() {
    let d = dataset();
    // Purging is disabled in every column, so a full drain reaches every
    // pair that shares a block whatever the schedule or the lane count.
    for strategy in [Strategy::Pcs, Strategy::Pes] {
        let want = sync_pipeline(&d, strategy);
        assert!(
            want.len() * 10 >= d.ground_truth.len() * 9,
            "{strategy:?}: only {}/{} matches",
            want.len(),
            d.ground_truth.len()
        );
        let columns = [
            ("simulator", simulator(&d, strategy)),
            ("threaded single", threaded(&d, strategy, None)),
            ("threaded 4-shard", threaded(&d, strategy, Some(4))),
            ("sync 1-shard", sync_sharded(&d, strategy, 1)),
            ("sync 4-shard", sync_sharded(&d, strategy, 4)),
        ];
        for (column, got) in columns {
            assert_eq!(
                got, want,
                "{strategy:?}: {column} differs from PierPipeline"
            );
        }
    }
}

#[test]
fn runtime_oracle_matches_ground_truth_exactly() {
    let d = dataset();
    let report = Pipeline::builder(d.kind)
        .config(RuntimeConfig {
            interarrival: Duration::from_millis(1),
            deadline: Duration::from_secs(60),
            ..RuntimeConfig::default()
        })
        .emitter(Box::new(Ipes::new(PierConfig::default())))
        .build()
        .unwrap()
        .run(
            increments(&d, 5),
            Arc::new(oracle(&d)) as Arc<dyn MatchFunction>,
            |_| {},
        );
    // With an oracle, every confirmed match is a true match.
    for m in &report.matches {
        assert!(d.ground_truth.is_match(m.pair));
    }
    assert!(report.matches.len() * 10 >= d.ground_truth.len() * 9);
}
