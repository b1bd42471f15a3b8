//! The unification contract of the composable [`Pipeline`]: every cell of
//! the `{single, 4-shard} × {1, 4 match workers} × {observed, noop}`
//! matrix reports the identical match set, pair completeness, and
//! executed-comparison count — topology, stage-B parallelism, and
//! observation may only change wall-clock behaviour.
//!
//! Determinism setup (same as `tests/sharded_equivalence.rs`): CBS
//! weighting, which is additive over hash-partitioned blocks, and purging
//! disabled, so a fully drained run emits exactly one deterministic
//! comparison set regardless of arrival timing.

use std::sync::Arc;
use std::time::Duration;

use pier_blocking::PurgePolicy;
use pier_core::{PierConfig, Strategy};
use pier_datagen::{generate_bibliographic, BibliographicConfig};
use pier_matching::{JaccardMatcher, MatchFunction};
use pier_observe::StatsObserver;
use pier_runtime::{Pipeline, RuntimeConfig, RuntimeReport};
use pier_shard::ShardedConfig;
use pier_types::{Comparison, Dataset};

fn corpus() -> Dataset {
    generate_bibliographic(&BibliographicConfig {
        seed: 7,
        source0_size: 120,
        source1_size: 100,
        matches: 80,
    })
}

fn pier_config() -> PierConfig {
    // The default scheme is CBS — the one scheme that is additive over
    // hash-partitioned blocks and therefore shard-exact (DESIGN.md §8).
    PierConfig::default()
}

fn runtime_config(match_workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        interarrival: Duration::from_millis(1),
        deadline: Duration::from_secs(60),
        match_workers,
        purge_policy: PurgePolicy::disabled(),
        ..RuntimeConfig::default()
    }
}

fn sharded_config(shards: u16) -> ShardedConfig {
    ShardedConfig {
        shards,
        strategy: Strategy::Pcs,
        pier: pier_config(),
        purge_policy: PurgePolicy::disabled(),
    }
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

/// One matrix cell: builds the pipeline for `(shards, workers, observed)`
/// and runs it to completion. Returns the observer so observed cells can
/// also check the fan-out saw every event.
fn run_cell(
    dataset: &Dataset,
    shards: Option<u16>,
    workers: usize,
    observed: bool,
) -> (RuntimeReport, Option<Arc<StatsObserver>>) {
    let increments: Vec<_> = dataset
        .clone()
        .into_increments(8)
        .unwrap()
        .into_iter()
        .map(|i| i.profiles)
        .collect();
    let mut builder = Pipeline::builder(dataset.kind).config(runtime_config(workers));
    builder = match shards {
        Some(n) => builder.sharded(sharded_config(n)),
        None => builder.emitter(Strategy::Pcs.build(pier_config())),
    };
    let stats = observed.then(|| Arc::new(StatsObserver::new()));
    if let Some(stats) = &stats {
        builder = builder.observe("stats", stats.clone());
    }
    let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
    let report = builder.build().unwrap().run(increments, matcher, |_| {});
    (report, stats)
}

/// The full 8-cell matrix agrees on match set, PC, and comparison count.
#[test]
fn topology_workers_and_observation_matrix_is_equivalent() {
    let dataset = corpus();
    let mut reference: Option<(String, Outcome)> = None;
    for shards in [None, Some(4)] {
        for workers in [1usize, 4] {
            for observed in [false, true] {
                let label = format!(
                    "{}x{workers}{}",
                    shards.map_or("single".into(), |n| format!("sharded{n}")),
                    if observed { "+observed" } else { "" }
                );
                let (report, stats) = run_cell(&dataset, shards, workers, observed);
                assert_eq!(report.comparisons_dropped, 0, "{label}: a drained run");
                let got = outcome(&dataset, &report);
                assert!(
                    got.pairs.len() > 10,
                    "{label}: vacuous run ({} matches)",
                    got.pairs.len()
                );
                if let Some(stats) = stats {
                    // The composed observer saw exactly the confirmed set.
                    assert_eq!(
                        stats.snapshot().matches_confirmed as usize,
                        got.pairs.len(),
                        "{label}: observer missed matches"
                    );
                }
                match &reference {
                    None => reference = Some((label, got)),
                    Some((ref_label, want)) => {
                        assert_eq!(&got, want, "{label} differs from {ref_label}");
                    }
                }
            }
        }
    }
}

/// Streamed profiles are outside input: one naming a source its ER kind
/// does not have (a second source in Dirty ER, a third in Clean-Clean ER),
/// or carrying an id at or past `ProfileId::LIMIT`, is rejected at the
/// ingest door, reported like a duplicate, and the run carries on to the
/// match set it reaches without the intruder. Let in, the third source
/// indexes past a block's two member lists and takes the ingest thread (and
/// `Pipeline::run`) down, the Dirty intruder sits in a member list the
/// block cursor never enumerates, and the id makes every per-profile table
/// (stage B's prepared entries included) grow to it — tens of GiB for
/// `u32::MAX`, an allocation failure no supervisor catches.
#[test]
fn a_profile_the_ingest_door_refuses_is_reported_and_skipped() {
    use pier_types::{EntityProfile, ErKind, ProfileId, SourceId};

    let dirty: Vec<EntityProfile> = [
        "ada lovelace analytical engine",
        "ada lovelace analytical engine notes",
        "alan turing computing machinery",
        "alan turing computing machinery intelligence",
        "grace hopper compiler",
        "grace hopper cobol compiler",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| EntityProfile::new(ProfileId(i as u32), SourceId(0)).with("text", *text))
    .collect();
    let clean = corpus().profiles;
    let next_id = |profiles: &[EntityProfile]| ProfileId(profiles.len() as u32);
    let past_limit = format!("is not below the limit {}", ProfileId::LIMIT);
    let cases = [
        (
            ErKind::Dirty,
            dirty.clone(),
            next_id(&dirty),
            SourceId(1),
            "dirty ER requires a single source, p6 has s1".to_string(),
        ),
        (
            ErKind::CleanClean,
            clean.clone(),
            next_id(&clean),
            SourceId(2),
            "clean-clean ER requires source 0 or 1, p220 has s2".to_string(),
        ),
        (
            ErKind::Dirty,
            dirty,
            ProfileId(ProfileId::LIMIT),
            SourceId(0),
            format!("profile id p{} {past_limit}", ProfileId::LIMIT),
        ),
        (
            ErKind::CleanClean,
            clean,
            ProfileId(u32::MAX),
            SourceId(1),
            format!("profile id p{} {past_limit}", u32::MAX),
        ),
    ];
    for (kind, profiles, bad_id, bad_source, wording) in cases {
        // The intruder shares every token of profile 0, so it would pair up
        // if it got in.
        let mut intruder = profiles[0].clone();
        intruder.id = bad_id;
        intruder.source = bad_source;
        let mut with_intruder = profiles.clone();
        with_intruder.insert(profiles.len() / 2, intruder);
        for shards in [None, Some(2)] {
            let label = format!("{kind:?} {shards:?} {bad_id} {bad_source}");
            let run = |stream: &[EntityProfile]| {
                let increments: Vec<Vec<EntityProfile>> = stream
                    .chunks(3.max(stream.len() / 8))
                    .map(<[_]>::to_vec)
                    .collect();
                let builder = Pipeline::builder(kind).config(runtime_config(1));
                let builder = match shards {
                    Some(n) => builder.sharded(sharded_config(n)),
                    None => builder.emitter(Strategy::Pcs.build(pier_config())),
                };
                let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
                builder.build().unwrap().run(increments, matcher, |_| {})
            };
            let pairs = |report: &RuntimeReport| {
                let mut pairs: Vec<Comparison> = report.matches.iter().map(|m| m.pair).collect();
                pairs.sort_unstable();
                pairs
            };
            let clean_run = run(&profiles);
            assert!(clean_run.ingest_errors.is_empty(), "{label}");
            assert!(!clean_run.matches.is_empty(), "{label}: vacuous run");
            let report = run(&with_intruder);
            assert_eq!(
                report.ingest_errors,
                vec![format!("invalid configuration for `profiles`: {wording}")],
                "{label}"
            );
            assert_eq!(pairs(&report), pairs(&clean_run), "{label}");
        }
    }
}
