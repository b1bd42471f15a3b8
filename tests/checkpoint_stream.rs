//! Checkpoint/restore across a stream interruption: a consumer that
//! crashes mid-stream and restores from its checkpoint must end with the
//! same duplicates as one that never stopped.

use pier::blocking::{load_checkpoint, save_checkpoint};
use pier::prelude::*;

fn dataset() -> Dataset {
    generate_census(&CensusConfig {
        seed: 17,
        target_profiles: 400,
    })
}

/// Drives the stage-A machine over `increments` from `blocker`'s state,
/// returning the machine (its blocker is what gets checkpointed) and the
/// set of duplicates found (classification-level, Jaccard).
fn consume(
    blocker: IncrementalBlocker,
    increments: &[Increment],
    matcher: &JaccardMatcher,
) -> (StageA, std::collections::HashSet<Comparison>) {
    let existing: Vec<ProfileId> = blocker.profiles().map(|p| p.id).collect();
    let mut machine = StageA::new(blocker, Strategy::Pes.build(PierConfig::default()));
    // Cold prioritizer start: replay existing profiles into the emitter
    // (checkpoint semantics — prioritization state is a rebuildable cache).
    if !existing.is_empty() {
        machine.weigh(&existing);
    }
    for inc in increments {
        assert!(machine.ingest(&inc.profiles).errors.is_empty());
    }
    let mut found = std::collections::HashSet::new();
    loop {
        let batch = machine.turn(true, 64, 64, |m, k| m.pull(k).0);
        if batch.is_empty() {
            return (machine, found);
        }
        let blocker = machine.blocker();
        for cmp in batch {
            let out = matcher.evaluate(MatchInput {
                profile_a: blocker.profile(cmp.a),
                tokens_a: blocker.tokens_of(cmp.a),
                profile_b: blocker.profile(cmp.b),
                tokens_b: blocker.tokens_of(cmp.b),
            });
            if out.is_match {
                found.insert(cmp);
            }
        }
    }
}

#[test]
fn restore_mid_stream_matches_uninterrupted_run() {
    let d = dataset();
    let increments = d.into_increments(20).unwrap();
    let matcher = JaccardMatcher::default();
    let tokenizer = Tokenizer::default();
    let policy = PurgePolicy::default();

    // Reference: one uninterrupted consumer.
    let full_blocker = IncrementalBlocker::with_config(d.kind, tokenizer.clone(), policy);
    let (_, reference) = consume(full_blocker, &increments, &matcher);
    assert!(!reference.is_empty());

    // Interrupted consumer: first half, checkpoint, "crash", restore,
    // second half.
    let first = IncrementalBlocker::with_config(d.kind, tokenizer.clone(), policy);
    let (first, half_found) = consume(first, &increments[..10], &matcher);
    let mut checkpoint = Vec::new();
    save_checkpoint(first.blocker(), &tokenizer, &policy, &mut checkpoint).unwrap();
    drop(first); // the crash

    let restored = load_checkpoint(std::io::BufReader::new(&checkpoint[..])).unwrap();
    let (_, second_found) = consume(restored, &increments[10..], &matcher);

    // The union of both phases equals the uninterrupted result: the second
    // phase's cold prioritizer re-emits old pairs, whose classification is
    // deterministic, so nothing is lost and nothing new is invented.
    let union: std::collections::HashSet<Comparison> =
        half_found.union(&second_found).copied().collect();
    assert_eq!(union, reference);
}

#[test]
fn restored_blocker_matches_original_block_structure() {
    let d = dataset();
    let tokenizer = Tokenizer::default();
    let policy = PurgePolicy::default();
    let mut b = IncrementalBlocker::with_config(d.kind, tokenizer.clone(), policy);
    for inc in d.into_increments(7).unwrap() {
        b.process_increment(&inc.profiles);
    }
    let mut buf = Vec::new();
    save_checkpoint(&b, &tokenizer, &policy, &mut buf).unwrap();
    let b2 = load_checkpoint(std::io::BufReader::new(&buf[..])).unwrap();

    assert_eq!(b2.profile_count(), b.profile_count());
    assert_eq!(b2.collection().block_count(), b.collection().block_count());
    assert_eq!(
        b2.collection().purged_count(),
        b.collection().purged_count()
    );
    assert_eq!(
        b2.collection().total_cardinality(),
        b.collection().total_cardinality()
    );
    // Per-profile CBS-relevant state identical.
    for p in b.profiles() {
        assert_eq!(
            b2.collection().blocks_of(p.id),
            b.collection().blocks_of(p.id)
        );
    }
}
