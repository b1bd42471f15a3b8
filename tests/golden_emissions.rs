//! Golden emission digests: the ordered `(a, b, weight)` list every PIER
//! strategy emits through the stage-A step machine, pinned as an FNV-1a
//! hash per cell together with the comparison count and the total ops
//! charged.
//!
//! The constants were captured on the commit *before* the `GetComparisons`
//! fallback was reworked (comparison filter first, one stamped-block CBS
//! kernel per pivot), so a green run proves that order, weights and the
//! simulator's cost figures are bit-identical to that commit — not merely
//! that the counts agree. A deliberate change of emission order or of the
//! ops model must re-capture them (`GOLDEN_PRINT=1 cargo test --test
//! golden_emissions -- --nocapture` prints the table).
//!
//! A second table pins the seven baselines the same way, over their
//! ordered pairs, count and ops only: it was captured before every emitter
//! handed out the weight it orders by, which changed their weights and
//! nothing else.
//!
//! A third table pins the dense I-WNP core below the step machine: the
//! scheduled list of every weighting scheme, unsharded and over 4 shards —
//! the equivalence matrix the `stage_a_throughput` bench asserted against
//! its reconstruction of the retired map-based stage A, until PR 20
//! retired the bench.

use pier::prelude::*;
use pier::sim::Method;

/// The pinned outcome of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    digest: u64,
    comparisons: usize,
    ops: u64,
}

/// Purging low enough that both small corpora lose blocks to it, so the
/// digests cover CBS weights that skip purged blocks.
const POLICY_MAX_CARDINALITY: u64 = 1_500;

fn dbpedia() -> Dataset {
    generate_dbpedia(&DbpediaConfig {
        seed: 15,
        source0_size: 150,
        source1_size: 250,
        matches: 100,
    })
}

fn census() -> Dataset {
    generate_census(&CensusConfig {
        seed: 15,
        target_profiles: 400,
    })
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Pulls and ticks until a tick finds nothing, or for `rounds` pulls.
/// Not a loop of `StageA::turn`: the digests cover the ops of every pull
/// and tick, which a turn does not hand back, and were pinned on this
/// schedule of one tick per empty pull and `rounds` pulls per increment.
fn drain(
    machine: &mut StageA<Box<dyn ComparisonEmitter>>,
    rounds: Option<usize>,
    out: &mut Vec<WeightedComparison>,
    ops: &mut u64,
) {
    let mut pulls = 0;
    while rounds.is_none_or(|r| pulls < r) {
        pulls += 1;
        let (batch, pulled) = machine.pull_weighted(32);
        *ops += pulled;
        if !batch.is_empty() {
            out.extend(batch);
            continue;
        }
        let tick = machine.tick();
        *ops += tick.ops;
        if !tick.made_work {
            return;
        }
    }
}

/// Drives one cell: `increments == 1` is the static setting; otherwise the
/// corpus arrives in `increments` parts with a bounded pull/tick phase
/// after each, so the block cursor consumes blocks that later grow and
/// revisits them past their watermark. `weights` says whether the digest
/// covers each comparison's weight besides its pair.
fn run(
    dataset: &Dataset,
    emitter: Box<dyn ComparisonEmitter>,
    increments: usize,
    weights: bool,
) -> Golden {
    let blocker = IncrementalBlocker::with_config(
        dataset.kind,
        Tokenizer::default(),
        PurgePolicy::max_cardinality(POLICY_MAX_CARDINALITY),
    );
    let mut machine = StageA::new(blocker, emitter);
    let mut out = Vec::new();
    let mut ops = 0u64;
    for inc in dataset.into_increments(increments).unwrap() {
        let ingested = machine.ingest(&inc.profiles);
        assert!(ingested.errors.is_empty());
        ops += ingested.ops;
        if increments > 1 {
            drain(&mut machine, Some(60), &mut out, &mut ops);
        }
    }
    drain(&mut machine, None, &mut out, &mut ops);
    assert!(
        machine.blocker().collection().purged_count() > 0,
        "the purge policy must bite for the digest to cover purged blocks"
    );
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for wc in &out {
        fnv1a(&mut digest, &wc.cmp.a.0.to_le_bytes());
        fnv1a(&mut digest, &wc.cmp.b.0.to_le_bytes());
        if weights {
            fnv1a(&mut digest, &wc.weight.to_bits().to_le_bytes());
        }
    }
    Golden {
        digest,
        comparisons: out.len(),
        ops,
    }
}

const fn golden(digest: u64, comparisons: usize, ops: u64) -> Golden {
    Golden {
        digest,
        comparisons,
        ops,
    }
}

/// `(corpus, strategy, increments, pinned outcome)`.
const CELLS: &[(&str, Strategy, usize, Golden)] = &[
    (
        "dbpedia",
        Strategy::Pcs,
        1,
        golden(0xd3f842e8a1405a81, 20936, 181834),
    ),
    (
        "dbpedia",
        Strategy::Pcs,
        8,
        golden(0xb2b6e14ce4bc20e4, 20936, 201103),
    ),
    (
        "dbpedia",
        Strategy::Pbs,
        1,
        golden(0xc5baa5063a62ef90, 20936, 1008323),
    ),
    (
        "dbpedia",
        Strategy::Pbs,
        8,
        golden(0x19bbc98988616073, 29789, 1371868),
    ),
    (
        "dbpedia",
        Strategy::Pes,
        1,
        golden(0xbd6fd3412b4c1055, 20936, 194889),
    ),
    (
        "dbpedia",
        Strategy::Pes,
        8,
        golden(0x3139f31cdbd452ac, 20936, 214150),
    ),
    (
        "census",
        Strategy::Pcs,
        1,
        golden(0x0f9751dfc16ec94b, 13687, 72896),
    ),
    (
        "census",
        Strategy::Pcs,
        8,
        golden(0xa66e282a9b021470, 13701, 80290),
    ),
    (
        "census",
        Strategy::Pbs,
        1,
        golden(0x30b0e87e40c972db, 13687, 209644),
    ),
    (
        "census",
        Strategy::Pbs,
        8,
        golden(0xe5f28de7518086c2, 19373, 275408),
    ),
    (
        "census",
        Strategy::Pes,
        1,
        golden(0x03758b3f45c15947, 13687, 75235),
    ),
    (
        "census",
        Strategy::Pes,
        8,
        golden(0xee79676e6c06691c, 13701, 82759),
    ),
];

/// Runs every cell of one table, `build`ing each cell's emitter; prints the
/// table's rows instead under `GOLDEN_PRINT` (`table` names their type).
fn check<E: Copy + std::fmt::Debug>(
    table: &str,
    cells: &[(&str, E, usize, Golden)],
    build: impl Fn(E) -> Box<dyn ComparisonEmitter>,
    weights: bool,
) {
    let corpora = [("dbpedia", dbpedia()), ("census", census())];
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut mismatches = Vec::new();
    for &(corpus, emitter, increments, want) in cells {
        let dataset = &corpora.iter().find(|(name, _)| *name == corpus).unwrap().1;
        let got = run(dataset, build(emitter), increments, weights);
        if print {
            println!(
                "    (\"{corpus}\", {table}::{emitter:?}, {increments}, golden({:#018x}, {}, {})),",
                got.digest, got.comparisons, got.ops
            );
        } else if got != want {
            mismatches.push(format!(
                "{corpus} {emitter:?} x{increments}: got {got:?}, pinned {want:?}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn emission_order_weights_and_ops_match_the_pinned_digests() {
    check("Strategy", CELLS, |s| s.build(PierConfig::default()), true);
}

/// `(corpus, baseline, increments, pinned outcome)`: the baselines' ordered
/// pairs, count and ops, captured before every emitter handed out the
/// weight it schedules by. Their weights are not pinned: the baselines
/// rank by different quantities, and which weight each exposes is a
/// design choice, not part of its schedule.
const BASELINE_CELLS: &[(&str, Method, usize, Golden)] = &[
    (
        "dbpedia",
        Method::Batch,
        1,
        golden(0x9ad924b44001dd3c, 20936, 139596),
    ),
    (
        "dbpedia",
        Method::Batch,
        8,
        golden(0x7dc3e7a79f394d0c, 1889, 14179),
    ),
    (
        "dbpedia",
        Method::Pbs,
        1,
        golden(0x462759e3ab3c10c0, 20936, 294972),
    ),
    (
        "dbpedia",
        Method::Pbs,
        8,
        golden(0x820048b95055c894, 22407, 979736),
    ),
    (
        "dbpedia",
        Method::PpsGlobal,
        1,
        golden(0x604fda58896493c9, 2622, 568310),
    ),
    (
        "dbpedia",
        Method::PpsGlobal,
        8,
        golden(0x8d9c45b858bb746c, 8199, 2249415),
    ),
    (
        "dbpedia",
        Method::PpsLocal,
        1,
        golden(0xfe8160a2217f60a3, 2753, 5256153),
    ),
    (
        "dbpedia",
        Method::PpsLocal,
        8,
        golden(0x0176d7e3b48dc02a, 2811, 664603),
    ),
    (
        "dbpedia",
        Method::IBase,
        1,
        golden(0xb8e18a03729fc025, 173, 19589),
    ),
    (
        "dbpedia",
        Method::IBase,
        8,
        golden(0x58c35707315e3ea0, 358, 22623),
    ),
    (
        "dbpedia",
        Method::LsPsn,
        1,
        golden(0xe1eeebbccd14d615, 25048, 237923),
    ),
    (
        "dbpedia",
        Method::LsPsn,
        8,
        golden(0x2e256f08449abff4, 26391, 822471),
    ),
    (
        "dbpedia",
        Method::GsPsn,
        1,
        golden(0xd02be1ad219000b9, 25048, 1388440),
    ),
    (
        "dbpedia",
        Method::GsPsn,
        8,
        golden(0x4cf0d457497ba08a, 26450, 6055274),
    ),
    (
        "census",
        Method::Batch,
        1,
        golden(0x9dfe50b5bc26e143, 13687, 30979),
    ),
    (
        "census",
        Method::Batch,
        8,
        golden(0x4a7144a273cc4b08, 1471, 4015),
    ),
    (
        "census",
        Method::Pbs,
        1,
        golden(0x5000db86798f1737, 13687, 89002),
    ),
    (
        "census",
        Method::Pbs,
        8,
        golden(0x9c250e80e1da387e, 15779, 306869),
    ),
    (
        "census",
        Method::PpsGlobal,
        1,
        golden(0x242f03a2a040c523, 1297, 171769),
    ),
    (
        "census",
        Method::PpsGlobal,
        8,
        golden(0x0c02fc04735da6f5, 2627, 662987),
    ),
    (
        "census",
        Method::PpsLocal,
        1,
        golden(0x649247eab5a8524b, 2790, 1227294),
    ),
    (
        "census",
        Method::PpsLocal,
        8,
        golden(0x94d9533388d2bd17, 2613, 171061),
    ),
    (
        "census",
        Method::IBase,
        1,
        golden(0xbb3c69f9999dd4c9, 253, 9016),
    ),
    (
        "census",
        Method::IBase,
        8,
        golden(0x230da03412111df1, 310, 9295),
    ),
    (
        "census",
        Method::LsPsn,
        1,
        golden(0x0f515079c10fd20e, 30609, 73313),
    ),
    (
        "census",
        Method::LsPsn,
        8,
        golden(0x426271f7cee72220, 32444, 239462),
    ),
    (
        "census",
        Method::GsPsn,
        1,
        golden(0x2bb4f33dec7d3592, 30609, 633729),
    ),
    (
        "census",
        Method::GsPsn,
        8,
        golden(0x864b5a7ca8de62e4, 32657, 2379537),
    ),
];

#[test]
fn baseline_pairs_and_ops_match_the_pinned_digests() {
    check(
        "Method",
        BASELINE_CELLS,
        |m| m.build(PierConfig::default()),
        false,
    );
}

/// The dense stage-A core's scheduled list — blocking, ghosting (β = 0.5,
/// global floors), I-WNP with below-average pruning, purging off — for one
/// weighting scheme, over token-partitioned collections (`shards == 1` is
/// the unsharded pipeline).
fn dense_schedule(dataset: &Dataset, scheme: WeightingScheme, shards: u16) -> (u64, usize) {
    use pier::metablocking::Iwnp;
    use std::collections::HashMap;

    let config = IwnpConfig {
        scheme,
        prune_below_average: true,
    };
    let observer = Observer::disabled();
    let (dictionary, tokenizer) = (SharedTokenDictionary::new(), Tokenizer::default());
    let router = ShardRouter::new(shards);
    let mut lanes: Vec<(BlockCollection, Iwnp)> = (0..shards)
        .map(|_| {
            let blocks = BlockCollection::with_policy(dataset.kind, PurgePolicy::disabled());
            (blocks, Iwnp::new())
        })
        .collect();
    let mut counts: HashMap<TokenId, usize> = HashMap::new();
    let mut scratch = String::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut scheduled = 0;
    for inc in dataset.into_increments(10).unwrap() {
        // The whole increment enters the store before any floor is read.
        let tokens: Vec<Vec<TokenId>> = inc
            .profiles
            .iter()
            .map(|p| dictionary.tokenize_and_intern(&tokenizer, p, &mut scratch))
            .collect();
        for (p, tokens) in inc.profiles.iter().zip(&tokens) {
            for &t in tokens {
                *counts.entry(t).or_insert(0) += 1;
            }
            for (shard, subset) in router.route_ids(tokens) {
                lanes[shard as usize].0.add_profile(p.id, p.source, &subset);
            }
        }
        for (p, tokens) in inc.profiles.iter().zip(&tokens) {
            let floor = tokens.iter().map(|t| counts[t]).min();
            for (shard, _) in router.route_ids(tokens) {
                let (blocks, iwnp) = &mut lanes[shard as usize];
                let active = blocks.active_blocks_of(p.id);
                let ghosted = ghost_blocks(&active, 0.5, floor, p.id, &observer).unwrap();
                for wc in iwnp.run(blocks, p.id, &ghosted, config) {
                    fnv1a(&mut digest, &wc.cmp.a.0.to_le_bytes());
                    fnv1a(&mut digest, &wc.cmp.b.0.to_le_bytes());
                    fnv1a(&mut digest, &wc.weight.to_bits().to_le_bytes());
                    scheduled += 1;
                }
            }
        }
    }
    (digest, scheduled)
}

/// `(digest, scheduled comparisons)` per scheme in `WeightingScheme::all()`
/// order (CBS, ECBS, JS, EJS, ARCS), unsharded and over 4 shards: the
/// equivalence matrix of the retired `stage_a_throughput` bench, captured
/// on the last commit where that bench still asserted these very lists
/// equal to its in-bench reconstruction of the map-based stage A.
const UNSHARDED: [(u64, usize); 5] = [
    (0x4f4af5c4a899f5a7, 2894),
    (0x91586ef421bb03ae, 2232),
    (0xd11d34df5211bddf, 2235),
    (0x2e3304043156611c, 2231),
    (0xfb7c3a0542c2eaa7, 2825),
];
const FOUR_SHARDS: [(u64, usize); 5] = [
    (0xc1145572cad5ec58, 4836),
    (0x98e96901ef2e84c2, 4251),
    (0xaace3449d9315c61, 4253),
    (0x1f0e105d3faa4588, 4262),
    (0x47d4feb922141c9e, 4748),
];

#[test]
fn dense_schedules_match_the_pinned_digests_for_every_scheme_and_topology() {
    let dataset = generate_dbpedia(&DbpediaConfig {
        seed: 47,
        source0_size: 1_500,
        source1_size: 1_200,
        matches: 1_000,
    });
    for (i, scheme) in WeightingScheme::all().into_iter().enumerate() {
        let got = [1, 4].map(|shards| dense_schedule(&dataset, scheme, shards));
        if std::env::var_os("GOLDEN_PRINT").is_some() {
            let cells = got.map(|(digest, n)| format!("({digest:#018x}, {n})"));
            println!("    {scheme:?}: {}", cells.join(" / "));
        } else {
            assert_eq!(
                got,
                [UNSHARDED[i], FOUR_SHARDS[i]],
                "{scheme:?}, 1 / 4 shards"
            );
        }
    }
}
