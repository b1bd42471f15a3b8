//! The scrape contract of the event→metrics bridge, over a fixed event
//! log: every `Event` kind through `on_event`, `on_shard_event` and
//! `on_worker_event`, with a ground truth attached.
//!
//! Pinned as an FNV-1a digest of `render_prometheus()` with the `# HELP`
//! lines left out — help text is prose; the `# TYPE` and sample lines, in
//! their order, are the contract. The digest was captured on the commit
//! where the bridge still folded events itself (PR 19); it must never be
//! re-captured for a refactor.
//!
//! The same scrape must also equal, family by family, the `StatsSnapshot`
//! of the bridge's fold: the bridge publishes `StatsObserver`'s own atoms,
//! and a second fold beside it would drift from them here first.

use std::sync::Arc;

use pier_metrics::{MetricsObserver, MetricsRegistry, Telemetry};
use pier_observe::{DeadLetterReason, Event, Phase, PipelineObserver, WorkerRole};
use pier_types::{Comparison, GroundTruth, ProfileId};

const SHARD: u16 = 1;
const WORKER: u16 = 2;

fn cmp(a: u32, b: u32) -> Comparison {
    Comparison::new(ProfileId(a), ProfileId(b))
}

fn log() -> Vec<Event> {
    let timing = |phase, secs| Event::PhaseTiming { phase, secs };
    vec![
        Event::IncrementIngested {
            seq: 0,
            profiles: 7,
        },
        Event::BlockBuilt { block: 3 },
        Event::BlockPurged { block: 3, size: 40 },
        Event::BlockGhosted {
            profile: ProfileId(1),
            kept: 4,
            dropped: 2,
        },
        Event::ComparisonEmitted {
            cmp: cmp(0, 1),
            weight: 2.5,
        },
        Event::CfFiltered { cmp: cmp(0, 1) },
        Event::AdaptiveKChanged {
            old_k: 64,
            new_k: 96,
        },
        Event::MatchConfirmed {
            cmp: cmp(0, 1),
            similarity: 0.9,
            at_secs: 0.25,
        },
        timing(Phase::Block, 3e-6),
        timing(Phase::Weight, 7e-5),
        timing(Phase::Prune, 2e-4),
        timing(Phase::Classify, 1.5e-3),
        Event::WorkerRestarted {
            role: WorkerRole::Shard,
            lane: 1,
            recovery_secs: 0.02,
        },
        Event::DeadLettered {
            reason: DeadLetterReason::PoisonedPair,
            a: ProfileId(4),
            b: ProfileId(5),
        },
        Event::ComparisonsShed { count: 5 },
    ]
}

/// Replays the log into a fresh bridge with a ground truth attached — one
/// worker-tagged restart first (so the supervision families register
/// before that worker's own), then the whole log untagged, shard-tagged
/// and worker-tagged — and returns the bridge and its registry's scrape.
fn replay() -> (Arc<MetricsObserver>, String) {
    let telemetry = Telemetry::new().with_ground_truth(GroundTruth::from_pairs([
        (ProfileId(0), ProfileId(1)),
        (ProfileId(2), ProfileId(3)),
    ]));
    let sink = telemetry.observer();
    sink.on_worker_event(
        0,
        &Event::WorkerRestarted {
            role: WorkerRole::Match,
            lane: 0,
            recovery_secs: 0.004,
        },
    );
    for event in log() {
        sink.on_event(&event);
    }
    for event in log() {
        sink.on_shard_event(SHARD, &event);
    }
    for event in log() {
        sink.on_worker_event(WORKER, &event);
    }
    (sink, telemetry.registry().render_prometheus())
}

#[test]
fn scrape_of_the_fixed_log_matches_the_pinned_digest() {
    let (_, scrape) = replay();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut lines = 0;
    for line in scrape.lines().filter(|l| !l.starts_with("# HELP")) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
        lines += 1;
    }
    assert_eq!(
        (lines, digest),
        (96, 0xf90c_eb88_be14_ffac),
        "the scrape's # TYPE and sample lines changed:\n{scrape}"
    );
}

#[test]
fn scrape_equals_the_snapshot_of_the_bridges_fold() {
    let (bridge, scrape) = replay();
    // The sample `key` names — or, for a `name{` prefix, the sum of that
    // labelled family.
    let sample = |key: &str| -> f64 {
        let family = key.ends_with('{');
        let samples = scrape.lines().filter_map(|l| l.rsplit_once(' '));
        let mut hits = samples
            .filter(|(k, _)| {
                if family {
                    k.starts_with(key)
                } else {
                    *k == key
                }
            })
            .peekable();
        assert!(hits.peek().is_some(), "no sample {key}");
        hits.map(|(_, v)| v.parse::<f64>().unwrap()).sum()
    };
    let snap = bridge.stats().snapshot();
    let mut expected: Vec<(String, f64)> = [
        ("pier_increments_total", snap.increments),
        ("pier_profiles_total", snap.profiles),
        ("pier_blocks_built_total", snap.blocks_built),
        ("pier_blocks_purged_total", snap.blocks_purged),
        ("pier_ghost_kept_total", snap.ghost_kept),
        ("pier_ghost_dropped_total", snap.ghost_dropped),
        ("pier_comparisons_emitted_total", snap.comparisons_emitted),
        ("pier_cf_filtered_total", snap.cf_filtered),
        ("pier_matches_confirmed_total", snap.matches_confirmed),
        ("pier_adaptive_k_changes_total", snap.k_changes),
        ("pier_adaptive_k", snap.current_k.unwrap() as u64),
        ("pier_comparisons_shed_total", snap.comparisons_shed),
        ("pier_worker_restarts_total{", snap.worker_restarts),
        ("pier_dead_letters_total{", snap.dead_letters),
    ]
    .map(|(key, value)| (key.to_string(), value as f64))
    .to_vec();
    expected.push(("pier_recall_estimate".into(), snap.pc.unwrap()));
    for p in snap.phases {
        let labels = format!("{{phase=\"{}\"}}", p.phase.name());
        expected.push((format!("pier_phase_seconds_count{labels}"), p.count as f64));
        expected.push((format!("pier_phase_seconds_sum{labels}"), p.total_secs));
    }
    assert_eq!(snap.shards.len(), SHARD as usize + 1);
    for s in &snap.shards {
        for (family, value) in [
            ("profiles", s.profiles),
            ("blocks_built", s.blocks_built),
            ("blocks_purged", s.blocks_purged),
            ("comparisons_emitted", s.comparisons_emitted),
            ("cf_filtered", s.cf_filtered),
        ] {
            let key = format!("pier_shard_{family}_total{{shard=\"{}\"}}", s.shard);
            expected.push((key, value as f64));
        }
    }
    assert_eq!(snap.workers.len(), WORKER as usize + 1);
    for w in &snap.workers {
        for (family, value) in [
            ("classify_seconds_count", w.classify_chunks as f64),
            ("classify_seconds_sum", w.classify_secs),
            ("matches_confirmed_total", w.matches_confirmed as f64),
        ] {
            let key = format!("pier_worker_{family}{{worker=\"{}\"}}", w.worker);
            expected.push((key, value));
        }
    }
    for (key, value) in expected {
        assert!(
            (sample(&key) - value).abs() < 1e-9,
            "{key}: snapshot {value}"
        );
    }
}

/// Registration is idempotent: bridges built from one shared registry
/// resolve — and publish into — the same atoms.
#[test]
fn observers_of_one_shared_registry_publish_into_the_same_atoms() {
    let telemetry = Telemetry::with_registry(MetricsRegistry::shared());
    let bridges = [telemetry.observer(), telemetry.observer()];
    for bridge in &bridges {
        bridge.on_event(&Event::BlockBuilt { block: 1 });
        bridge.on_shard_event(0, &Event::BlockBuilt { block: 2 });
    }
    for bridge in &bridges {
        let snap = bridge.stats().snapshot();
        assert_eq!((snap.blocks_built, snap.shards[0].blocks_built), (4, 2));
    }
    let scrape = telemetry.registry().render_prometheus();
    assert!(scrape.contains("pier_blocks_built_total 4\n"), "{scrape}");
    assert!(scrape.contains("pier_shard_blocks_built_total{shard=\"0\"} 2\n"));
}
