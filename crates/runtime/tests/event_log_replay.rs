//! What a real run leaves in its event log, and what replays of the log
//! rebuild. In either topology every ingested increment carries exactly one
//! `Phase::Block` timing (tokenize + block, wherever those ran), and the
//! Perfetto trace replayed from the log holds one match instant per
//! reported match and exactly the rows the run used.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pier_datagen::{generate_bibliographic, BibliographicConfig};
use pier_matching::{JaccardMatcher, MatchFunction};
use pier_observe::{read_events, write_chrome_trace, Event, JsonlObserver, Phase, TimedEvent};
use pier_runtime::{Pipeline, RuntimeConfig, RuntimeReport};
use pier_shard::ShardedConfig;
use pier_types::EntityProfile;

/// One run of a small bibliographic stream through `shards` stage-A shards
/// (`None`: the single topology) and `match_workers` workers, logged to a
/// JSONL file and read back.
fn logged_run(
    name: &str,
    shards: Option<u16>,
    match_workers: usize,
) -> (RuntimeReport, usize, Vec<TimedEvent>) {
    let dataset = generate_bibliographic(&BibliographicConfig {
        seed: 11,
        source0_size: 120,
        source1_size: 100,
        matches: 80,
    });
    let increments: Vec<Vec<EntityProfile>> = dataset
        .into_increments(8)
        .unwrap()
        .into_iter()
        .map(|i| i.profiles)
        .collect();
    let arrivals = increments.len();
    let path: PathBuf = std::env::temp_dir().join(format!(
        "pier-event-log-{}-{name}.jsonl",
        std::process::id()
    ));
    let log = Arc::new(JsonlObserver::create(&path).unwrap());
    let mut builder = Pipeline::builder(dataset.kind)
        .config(RuntimeConfig {
            interarrival: Duration::from_millis(1),
            deadline: Duration::from_secs(60),
            match_workers,
            ..RuntimeConfig::default()
        })
        .observe("events", log.clone());
    if let Some(shards) = shards {
        builder = builder.sharded(ShardedConfig {
            shards,
            ..ShardedConfig::default()
        });
    }
    let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
    let report = builder.build().unwrap().run(increments, matcher, |_| {});
    log.flush().unwrap();
    let events = read_events(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    (report, arrivals, events)
}

#[test]
fn every_ingested_increment_has_one_block_timing() {
    for (name, shards) in [("block-single", None), ("block-sharded", Some(2))] {
        let (_, arrivals, events) = logged_run(name, shards, 1);
        let ingested = events
            .iter()
            .filter(|e| e.shard.is_none() && matches!(e.event, Event::IncrementIngested { .. }))
            .count();
        let block_timings = events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    Event::PhaseTiming {
                        phase: Phase::Block,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(ingested, arrivals, "{name}");
        assert_eq!(block_timings, ingested, "{name}");
    }
}

#[test]
fn the_replayed_trace_matches_the_run() {
    for (name, shards, workers) in [("trace-single", None, 1), ("trace-sharded", Some(2), 2)] {
        let (report, _, events) = logged_run(name, shards, workers);
        let mut trace = Vec::new();
        write_chrome_trace(&events, &mut trace).unwrap();
        let trace = String::from_utf8(trace).unwrap();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.ends_with("]}\n"));
        assert!(!report.matches.is_empty(), "{name}");
        assert_eq!(
            trace.matches("\"ph\":\"i\"").count(),
            report.matches.len(),
            "{name}"
        );
        for phase in Phase::ALL {
            let span = format!("\"cat\":\"phase\",\"name\":\"{}\"", phase.name());
            assert!(trace.contains(&span), "{name}: no {} span", phase.name());
        }
        assert!(trace.contains("\"name\":\"stage A (block+weight)\""));
        assert_eq!(
            trace.contains("\"name\":\"shard 0\""),
            shards.is_some(),
            "{name}: shard rows"
        );
        assert_eq!(
            trace.contains("\"name\":\"match worker 0\""),
            workers > 1,
            "{name}: worker rows"
        );
    }
}
