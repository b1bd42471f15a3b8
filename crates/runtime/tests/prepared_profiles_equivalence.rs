//! Stage B compares the right text, end to end.
//!
//! The threaded `Pipeline` prepares each profile once, keyed by its id, and
//! compares prepared profiles; the synchronous `PierPipeline` evaluates
//! every pair from the stored profiles, unprepared. Over a movies
//! (Clean-Clean) and a census (Dirty) stream under the edit-distance
//! matcher — whose verdict is nothing but the two texts — every cell of
//! `{single, 2 shards} × {1, 2 match workers}` must drain to the sync
//! pipeline's match set with the same similarity, bit for bit. One
//! increment repeats an earlier id under a different text: ingest rejects
//! it and keeps the first, so an entry that was keyed or refreshed wrongly
//! would show here as a lost match or a changed similarity. (The other
//! equivalence matrices run the oracle or Jaccard, neither of which reads a
//! prepared text.)
//!
//! Determinism setup as in `pipeline_equivalence.rs`: I-PCS with CBS
//! weights and purging disabled, so a drained run executes one comparison
//! set whatever the arrival timing.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use pier_blocking::PurgePolicy;
use pier_core::{PierConfig, PierPipeline, Strategy};
use pier_datagen::{generate_census, generate_movies, CensusConfig, MoviesConfig};
use pier_matching::{EditDistanceMatcher, MatchFunction};
use pier_runtime::{Pipeline, RuntimeConfig};
use pier_shard::ShardedConfig;
use pier_types::{Comparison, Dataset, EntityProfile};

/// Each match with its similarity's bit pattern.
type Matches = BTreeMap<Comparison, u64>;

/// The dataset as eight increments, the sixth also carrying a profile that
/// reuses the id of the first ground-truth match's first member — which
/// arrived earlier — under the text of an unrelated profile.
fn stream(dataset: &Dataset) -> (Vec<Vec<EntityProfile>>, EntityProfile) {
    let mut increments: Vec<Vec<EntityProfile>> = dataset
        .into_increments(8)
        .unwrap()
        .into_iter()
        .map(|inc| inc.profiles)
        .collect();
    let victim = dataset
        .ground_truth
        .iter()
        .map(|cmp| cmp.a)
        .filter(|id| increments[..5].iter().flatten().any(|p| p.id == *id))
        .min()
        .expect("a matching profile arrives in the first five increments");
    let mut repeat = dataset.profiles.last().unwrap().clone();
    assert_ne!(repeat.id, victim);
    repeat.id = victim;
    repeat.source = dataset.profile(victim).source;
    increments[5].push(repeat.clone());
    (increments, repeat)
}

fn sync_run(dataset: &Dataset) -> Matches {
    let (increments, repeat) = stream(dataset);
    let mut pipeline = PierPipeline::with_policy(
        dataset.kind,
        Strategy::Pcs,
        PierConfig::default(),
        EditDistanceMatcher::default(),
        PurgePolicy::disabled(),
    );
    let mut errors = Vec::new();
    for inc in &increments {
        errors.extend(pipeline.push_increment(inc).errors);
    }
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(
        errors[0].to_string(),
        format!("profile {} ingested twice", repeat.id.0)
    );
    pipeline.drain_idle(usize::MAX);
    pipeline
        .duplicates()
        .iter()
        .map(|m| (m.pair, m.similarity.to_bits()))
        .collect()
}

fn threaded_run(dataset: &Dataset, shards: Option<u16>, match_workers: usize) -> Matches {
    let (increments, repeat) = stream(dataset);
    let builder = Pipeline::builder(dataset.kind).config(RuntimeConfig {
        interarrival: Duration::from_millis(1),
        deadline: Duration::from_secs(120),
        match_workers,
        purge_policy: PurgePolicy::disabled(),
        ..RuntimeConfig::default()
    });
    let builder = match shards {
        Some(shards) => builder.sharded(ShardedConfig {
            shards,
            strategy: Strategy::Pcs,
            pier: PierConfig::default(),
            purge_policy: PurgePolicy::disabled(),
        }),
        None => builder.emitter(Strategy::Pcs.build(PierConfig::default())),
    };
    let matcher: Arc<dyn MatchFunction> = Arc::new(EditDistanceMatcher::default());
    let report = builder.build().unwrap().run(increments, matcher, |_| {});
    assert_eq!(
        report.ingest_errors,
        vec![format!("profile {} ingested twice", repeat.id.0)]
    );
    let matches: Matches = report
        .matches
        .iter()
        .map(|m| (m.pair, m.similarity.to_bits()))
        .collect();
    assert_eq!(matches.len(), report.matches.len(), "a pair matched twice");
    matches
}

#[test]
fn threaded_matches_and_similarities_equal_the_unprepared_sync_pipeline() {
    let corpora = [
        generate_movies(&MoviesConfig {
            seed: 17,
            source0_size: 90,
            source1_size: 80,
            matches: 60,
        }),
        generate_census(&CensusConfig {
            seed: 17,
            target_profiles: 180,
        }),
    ];
    for dataset in &corpora {
        let want = sync_run(dataset);
        let (_, repeat) = stream(dataset);
        assert!(
            want.len() > 10,
            "{}: vacuous ({} matches)",
            dataset.name,
            want.len()
        );
        assert!(
            want.keys().any(|cmp| cmp.involves(repeat.id)),
            "{}: the repeated id takes part in no match",
            dataset.name
        );
        for shards in [None, Some(2)] {
            for match_workers in [1, 2] {
                assert_eq!(
                    threaded_run(dataset, shards, match_workers),
                    want,
                    "{} shards={shards:?} match_workers={match_workers}",
                    dataset.name
                );
            }
        }
    }
}
