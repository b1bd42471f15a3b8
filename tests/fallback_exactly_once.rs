//! With purging off, I-PCS and I-PES drained to exhaustion emit every
//! co-blocked pair exactly once: the `GetComparisons` fallback drops its
//! own repeats by visit order, not by asking a Bloom filter, so no pair is
//! lost to a false positive.
//!
//! The corpora are sized so that a comparison filter holding every
//! fallback pair does reject some pairs that were never emitted (its
//! first slice fills past half its capacity); at a few thousand pairs the
//! filter never errs and the check would pass either way.

use std::collections::HashSet;

use pier::prelude::{
    generate_census, generate_dbpedia, CensusConfig, Comparison, Dataset, DbpediaConfig,
    EntityProfile, ErKind, IncrementalBlocker, PierConfig, PurgePolicy, SourceId, StageA, Strategy,
    Tokenizer,
};

/// Every pair sharing a block: all member pairs for Dirty ER,
/// cross-source pairs only for Clean-Clean ER.
fn co_blocked(blocker: &IncrementalBlocker) -> HashSet<Comparison> {
    let mut pairs = HashSet::new();
    for (_, block) in blocker.collection().active_blocks() {
        let m0 = block.members_of(SourceId(0));
        match blocker.collection().kind() {
            ErKind::Dirty => {
                for (i, &x) in m0.iter().enumerate() {
                    for &y in &m0[..i] {
                        pairs.insert(Comparison::new(x, y));
                    }
                }
            }
            ErKind::CleanClean => {
                for &x in m0 {
                    for &y in block.members_of(SourceId(1)) {
                        pairs.insert(Comparison::new(x, y));
                    }
                }
            }
        }
    }
    pairs
}

/// Ingests `profiles` in `increments` equal parts, draining stage A to
/// exhaustion after each (every tick in between runs the fallback), and
/// returns everything emitted, in order, with the co-blocked set.
fn drain(
    strategy: Strategy,
    dataset: &Dataset,
    increments: usize,
) -> (Vec<Comparison>, HashSet<Comparison>) {
    let blocker = IncrementalBlocker::with_config(
        dataset.kind,
        Tokenizer::default(),
        PurgePolicy::disabled(),
    );
    let mut machine = StageA::new(blocker, strategy.build(PierConfig::default()));
    let profiles: &[EntityProfile] = &dataset.profiles;
    let mut emitted = Vec::new();
    for increment in profiles.chunks(profiles.len().div_ceil(increments)) {
        assert!(machine.ingest(increment).errors.is_empty());
        loop {
            let batch = machine.pull_idle(256);
            if batch.is_empty() {
                break;
            }
            emitted.extend(batch);
        }
    }
    let expected = co_blocked(machine.blocker());
    (emitted, expected)
}

fn check(name: &str, dataset: &Dataset) {
    let mut failures = Vec::new();
    for strategy in [Strategy::Pcs, Strategy::Pes] {
        for increments in [1, 8] {
            let (emitted, expected) = drain(strategy, dataset, increments);
            let mut seen = HashSet::with_capacity(emitted.len());
            let repeats = emitted.iter().filter(|&&c| !seen.insert(c)).count();
            let missing = expected.difference(&seen).count();
            let foreign = seen.difference(&expected).count();
            if repeats + missing + foreign > 0 {
                failures.push(format!(
                    "{name} {strategy:?} in {increments} increment(s): {} co-blocked pairs, \
                     {repeats} emitted twice, {missing} never emitted, {foreign} not co-blocked",
                    expected.len()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn clean_clean_drain_emits_every_co_blocked_pair_once() {
    let dataset = generate_dbpedia(&DbpediaConfig {
        seed: 5,
        source0_size: 160,
        source1_size: 220,
        matches: 112,
    });
    check("dbpedia", &dataset);
}

#[test]
fn dirty_drain_emits_every_co_blocked_pair_once() {
    let dataset = generate_census(&CensusConfig {
        seed: 7,
        target_profiles: 400,
    });
    check("census", &dataset);
}
