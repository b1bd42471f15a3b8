//! Stage A's step calls in any order a caller may make them: over random
//! small corpora, increment splits, tick placements, purge bounds, the
//! three PIER strategies, both ER kinds and a final drain of random busy
//! and idle turns of random `k` and `fill`, no pair is emitted twice, and
//! with purging off the drain emits exactly the co-blocked pairs.
//!
//! The placement "between block and weigh" hands out pairs of profiles
//! that are blocked but not yet weighed: I-PCS and I-PES's fallback hands
//! them out before their I-WNP generation runs, which must then drop
//! them; I-PBS materializes them beside the weighed profiles they share a
//! block with, and must not hand them out again once they are weighed.

use std::collections::HashSet;

use proptest::prelude::*;

// pier's `Strategy` (the PIER strategy enum) is renamed: proptest's
// `Strategy` trait is in scope under that name.
use pier::prelude::{
    Comparison, EntityProfile, ErKind, IncrementalBlocker, PierConfig, ProfileId, PurgePolicy,
    SourceId, StageA, Strategy as Pier, Tokenizer,
};

/// Where the idle ticks go before the final drain.
#[derive(Debug, Clone, Copy)]
enum Ticks {
    /// Only the final drain ticks.
    None,
    /// Each increment is blocked and weighed, then ticked and pulled from.
    BetweenIncrements,
    /// Each increment is blocked, ticked and pulled from, then weighed.
    BetweenBlockAndWeigh,
}

#[derive(Debug, Clone)]
struct Case {
    profiles: Vec<EntityProfile>,
    cuts: Vec<usize>,
    kind: ErKind,
}

fn case() -> impl proptest::strategy::Strategy<Value = Case> {
    let pool = prop::sample::select(vec![
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ]);
    let value = prop::collection::vec(pool, 1..4).prop_map(|ws| ws.join(" "));
    let profiles = prop::collection::vec(value, 2..28);
    let cuts = prop::collection::btree_set(1usize..28, 0..6);
    (profiles, cuts, any::<bool>()).prop_map(|(values, cuts, clean_clean)| {
        let kind = if clean_clean {
            ErKind::CleanClean
        } else {
            ErKind::Dirty
        };
        let profiles: Vec<EntityProfile> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let source = if clean_clean { (i % 2) as u8 } else { 0 };
                EntityProfile::new(ProfileId(i as u32), SourceId(source)).with("text", v)
            })
            .collect();
        let cuts = cuts.into_iter().filter(|&c| c < profiles.len()).collect();
        Case {
            profiles,
            cuts,
            kind,
        }
    })
}

/// One `StageA::turn` of the final drain: whether it is idle, its `k` and
/// its `fill`.
type Turn = (bool, usize, usize);

/// The final drain's turns, taken in a cycle. The last one is idle, so the
/// cycle ends: an idle turn that comes back empty means stage A is drained.
fn turns() -> impl proptest::strategy::Strategy<Value = Vec<Turn>> {
    let turn = (any::<bool>(), 1usize..6, 1usize..6);
    (prop::collection::vec(turn, 0..6), (1usize..6, 1usize..6)).prop_map(
        |(mut turns, (k, fill))| {
            turns.push((true, k, fill));
            turns
        },
    )
}

/// Runs one case to exhaustion and returns everything emitted, in order,
/// with the drained machine.
fn run(
    case: &Case,
    strategy: Pier,
    ticks: Ticks,
    purge: PurgePolicy,
    turns: &[Turn],
) -> (Vec<Comparison>, StageA) {
    let blocker = IncrementalBlocker::with_config(case.kind, Tokenizer::default(), purge);
    let mut machine = StageA::new(blocker, strategy.build(PierConfig::default()));
    let mut out = Vec::new();
    let mut start = 0;
    for end in case.cuts.iter().copied().chain([case.profiles.len()]) {
        let ids: Vec<ProfileId> = case.profiles[start..end]
            .iter()
            .map(|p| machine.block(p.clone()).expect("well-formed profile"))
            .collect();
        start = end;
        match ticks {
            Ticks::None => {
                machine.weigh(&ids);
            }
            Ticks::BetweenIncrements => {
                machine.weigh(&ids);
                machine.tick();
                out.extend(machine.pull(3).0);
            }
            Ticks::BetweenBlockAndWeigh => {
                machine.tick();
                out.extend(machine.pull(3).0);
                machine.weigh(&ids);
            }
        }
        out.extend(machine.pull(2).0);
    }
    for &(idle, k, fill) in turns.iter().cycle().take(10_000) {
        let batch = machine.turn(idle, k, fill, |m, k| m.pull(k).0);
        if idle && batch.is_empty() {
            return (out, machine);
        }
        out.extend(batch);
    }
    panic!("stage A did not drain");
}

/// Pairs sharing a non-purged block (cross-source only for Clean-Clean).
fn co_blocked(machine: &StageA) -> HashSet<Comparison> {
    let collection = machine.blocker().collection();
    let mut pairs = HashSet::new();
    for (_, block) in collection.active_blocks() {
        let members: Vec<ProfileId> = block.members().collect();
        for (i, &x) in members.iter().enumerate() {
            for &y in &members[..i] {
                let cross = collection.source_of(x) != collection.source_of(y);
                if collection.kind() == ErKind::Dirty || cross {
                    pairs.insert(Comparison::new(x, y));
                }
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_interleaving_emits_a_pair_twice(case in case(), turns in turns()) {
        for strategy in [Pier::Pcs, Pier::Pes, Pier::Pbs] {
            for ticks in [Ticks::None, Ticks::BetweenIncrements, Ticks::BetweenBlockAndWeigh] {
                for purge in [PurgePolicy::disabled(), PurgePolicy::max_size(3)] {
                    let (emitted, machine) = run(&case, strategy, ticks, purge, &turns);
                    let mut seen = HashSet::new();
                    for &c in &emitted {
                        prop_assert!(
                            seen.insert(c),
                            "{strategy:?} {ticks:?} {purge:?}: {c} emitted twice"
                        );
                    }
                    if purge == PurgePolicy::disabled() {
                        prop_assert_eq!(
                            seen,
                            co_blocked(&machine),
                            "{:?} {:?}: drained set is not the co-blocked set",
                            strategy,
                            ticks
                        );
                    }
                }
            }
        }
    }
}
