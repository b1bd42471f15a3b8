//! With purging off, I-PCS, I-PES and I-PBS drained to exhaustion emit
//! every co-blocked pair exactly once: each decides its repeats exactly
//! (by visit order, and a record of the pairs no visit covers), not by
//! asking a Bloom filter, so no pair is lost to a false positive. With an
//! index bound small enough to evict, they still lose no pair: an evicted
//! I-WNP pair leaves the record, and an evicted fallback or materialized
//! I-PBS pair is handed back.
//!
//! I-BASE has no fallback: it emits each pair I-WNP retains exactly once,
//! and only two profiles of one increment can both retain a pair.
//!
//! The corpora are sized so that a comparison filter holding every pair
//! does reject some pairs that were never emitted (its first slice fills
//! past half its capacity); at a few thousand pairs the filter never errs
//! and the check would pass either way.

use std::collections::HashSet;

use pier::core::framework::generate_for_profile;
use pier::metablocking::Iwnp;
use pier::prelude::{
    generate_census, generate_dbpedia, CensusConfig, Comparison, ComparisonEmitter, Dataset,
    DbpediaConfig, EntityProfile, ErKind, IBase, IncrementalBlocker, PierConfig, PurgePolicy,
    SourceId, StageA, Strategy, Tokenizer,
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
    config: PierConfig,
    dataset: &Dataset,
    increments: usize,
) -> (Vec<Comparison>, HashSet<Comparison>) {
    let blocker = IncrementalBlocker::with_config(
        dataset.kind,
        Tokenizer::default(),
        PurgePolicy::disabled(),
    );
    let mut machine = StageA::new(blocker, strategy.build(config));
    let profiles: &[EntityProfile] = &dataset.profiles;
    let mut emitted = Vec::new();
    for increment in profiles.chunks(profiles.len().div_ceil(increments)) {
        assert!(machine.ingest(increment).errors.is_empty());
        loop {
            let batch = machine.turn(true, 256, 256, |m, k| m.pull(k).0);
            if batch.is_empty() {
                break;
            }
            emitted.extend(batch);
        }
    }
    let expected = co_blocked(machine.blocker());
    (emitted, expected)
}

const ALL: [Strategy; 3] = [Strategy::Pcs, Strategy::Pes, Strategy::Pbs];

fn check(name: &str, dataset: &Dataset, strategies: &[Strategy], config: PierConfig) {
    let mut failures = Vec::new();
    for &strategy in strategies {
        for increments in [1, 8] {
            let (emitted, expected) = drain(strategy, config, dataset, increments);
            let mut seen = HashSet::with_capacity(emitted.len());
            let repeats = emitted.iter().filter(|&&c| !seen.insert(c)).count();
            let missing = expected.difference(&seen).count();
            let foreign = seen.difference(&expected).count();
            if repeats + missing + foreign > 0 {
                failures.push(format!(
                    "{name} {strategy:?} (index {}) in {increments} increment(s): {} co-blocked \
                     pairs, {repeats} emitted twice, {missing} never emitted, {foreign} not \
                     co-blocked",
                    config.index_capacity,
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
    check("dbpedia", &dataset, &ALL, PierConfig::default());
}

#[test]
fn dirty_drain_emits_every_co_blocked_pair_once() {
    let dataset = generate_census(&CensusConfig {
        seed: 7,
        target_profiles: 400,
    });
    check("census", &dataset, &ALL, PierConfig::default());
}

/// An index of 64 comparisons evicts in every cell: an increment's I-WNP
/// pairs overflow it, and so do the larger blocks' fallback pairs and the
/// larger blocks I-PBS materializes.
#[test]
fn an_evicting_index_loses_no_co_blocked_pair() {
    let dataset = generate_census(&CensusConfig {
        seed: 7,
        target_profiles: 400,
    });
    let config = PierConfig {
        index_capacity: 64,
        ..PierConfig::default()
    };
    check("census", &dataset, &ALL, config);
}

/// I-BASE drained after every increment emits exactly the pairs I-WNP
/// retains, each once, and the corpus has pairs that both of their
/// profiles retain within one increment.
#[test]
fn ibase_emits_every_retained_pair_once() {
    let dataset = generate_census(&CensusConfig {
        seed: 7,
        target_profiles: 400,
    });
    let config = PierConfig::default();
    for increments in [1, 8] {
        let mut blocker = IncrementalBlocker::new(dataset.kind);
        let mut emitter = IBase::new(config);
        let mut iwnp = Iwnp::new();
        let (mut retained, mut mutual) = (HashSet::new(), 0);
        let mut emitted = Vec::new();
        for increment in dataset.profiles.chunks(dataset.len().div_ceil(increments)) {
            let ids = blocker.process_increment(increment);
            for &p in &ids {
                let (list, _) = generate_for_profile(&blocker, p, &config, &mut iwnp);
                mutual += list.iter().filter(|wc| !retained.insert(wc.cmp)).count();
            }
            emitter.on_increment(&blocker, &ids);
            emitted.extend(emitter.next_batch(&blocker, usize::MAX));
        }
        let mut seen = HashSet::with_capacity(emitted.len());
        let repeats = emitted.iter().filter(|&&c| !seen.insert(c)).count();
        assert_eq!(repeats, 0, "{increments} increment(s): pairs emitted twice");
        assert_eq!(seen, retained, "{increments} increment(s)");
        assert!(
            mutual > 0,
            "{increments} increment(s): no pair retained twice"
        );
    }
}
