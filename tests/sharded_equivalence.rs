//! Integration proof of the sharding correctness contract: with CBS
//! weighting and purging disabled, a fully drained sharded stage A emits
//! **exactly** the comparison set of the unsharded pipeline — the order
//! may differ only within equal-weight ties — and therefore reaches the
//! same final pair completeness. With a single shard the run degenerates
//! to the unsharded pipeline and even the emission *sequence* is
//! identical.

use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex};

use pier::observe::{Event, PipelineObserver};
use pier::prelude::*;

fn corpus() -> Dataset {
    generate_bibliographic(&BibliographicConfig {
        seed: 7,
        source0_size: 120,
        source1_size: 100,
        matches: 80,
    })
}

fn pier_config() -> PierConfig {
    PierConfig {
        scheme: WeightingScheme::Cbs,
        ..PierConfig::default()
    }
}

/// Drains the unsharded reference pipeline to exhaustion, feeding the
/// corpus in `n_inc` increments and interleaving batches with ingestion
/// exactly like the sharded driver does.
fn run_unsharded(dataset: &Dataset, n_inc: usize) -> Vec<Comparison> {
    let mut blocker = IncrementalBlocker::with_config(
        dataset.kind,
        Tokenizer::default(),
        PurgePolicy::disabled(),
    );
    let mut emitter = Strategy::Pcs.build(pier_config());
    let mut out = Vec::new();
    for inc in dataset.clone().into_increments(n_inc).unwrap() {
        let ids = blocker.process_increment(&inc.profiles);
        emitter.on_increment(&blocker, &ids);
        out.extend(emitter.next_batch(&blocker, 64));
    }
    loop {
        let batch = emitter.next_batch(&blocker, 64);
        if !batch.is_empty() {
            out.extend(batch);
            continue;
        }
        emitter.drain_ops();
        emitter.on_increment(&blocker, &[]);
        if emitter.drain_ops() == 0 && !emitter.has_pending() {
            break;
        }
    }
    out
}

/// Drains a sharded stage A to exhaustion over the same increment schedule.
fn run_sharded(dataset: &Dataset, n_inc: usize, shards: u16) -> Vec<Comparison> {
    run_observed(dataset, n_inc, shards, Observer::disabled())
}

/// [`run_sharded`], reporting through `observer`.
fn run_observed(
    dataset: &Dataset,
    n_inc: usize,
    shards: u16,
    observer: Observer,
) -> Vec<Comparison> {
    let mut stage = ShardedStageA::with_observer(
        dataset.kind,
        ShardedConfig {
            shards,
            strategy: Strategy::Pcs,
            pier: pier_config(),
            purge_policy: PurgePolicy::disabled(),
        },
        observer,
    );
    let mut out = Vec::new();
    for inc in dataset.clone().into_increments(n_inc).unwrap() {
        stage.on_increment(&inc.profiles);
        out.extend(stage.next_batch(64));
    }
    loop {
        let batch = stage.next_batch(64);
        if !batch.is_empty() {
            out.extend(batch);
            continue;
        }
        if !stage.tick() {
            break;
        }
    }
    out
}

fn final_pc(emitted: &[Comparison], gt: &GroundTruth) -> f64 {
    let mut ledger = MatchLedger::new();
    for &cmp in emitted {
        ledger.credit(gt, cmp);
    }
    ledger.len() as f64 / gt.len() as f64
}

#[test]
fn four_shards_emit_the_unsharded_comparison_set_and_pc() {
    let dataset = corpus();
    let unsharded = run_unsharded(&dataset, 8);
    let sharded = run_sharded(&dataset, 8, 4);

    // No pair is emitted twice (the shared Bloom CF removes cross-shard
    // copies), and the sets coincide exactly.
    let want: BTreeSet<Comparison> = unsharded.iter().copied().collect();
    let got: BTreeSet<Comparison> = sharded.iter().copied().collect();
    assert_eq!(want.len(), unsharded.len(), "unsharded emitted a duplicate");
    assert_eq!(got.len(), sharded.len(), "sharded emitted a duplicate");
    assert_eq!(got, want, "sharded and unsharded comparison sets differ");

    // Same emitted set ⇒ same final pair completeness — and on this corpus
    // the pipeline actually finds matches, so the equality is not vacuous.
    let pc_unsharded = final_pc(&unsharded, &dataset.ground_truth);
    let pc_sharded = final_pc(&sharded, &dataset.ground_truth);
    assert!(pc_unsharded > 0.5, "reference run found almost nothing");
    assert_eq!(pc_sharded, pc_unsharded);
}

#[test]
fn one_shard_reproduces_the_unsharded_sequence_exactly() {
    let dataset = corpus();
    let unsharded = run_unsharded(&dataset, 5);
    let sharded = run_sharded(&dataset, 5, 1);
    // N = 1 routes every token to shard 0, so the shard-local pipeline is
    // bit-identical to the unsharded one: same order, not just same set.
    assert_eq!(sharded, unsharded);
}

/// The merger's repeats: the pairs its untagged `CfFiltered` events name
/// (the shards' own emitters report theirs tagged with the shard).
#[derive(Default)]
struct MergerRepeats(Mutex<Vec<Comparison>>);

impl PipelineObserver for MergerRepeats {
    fn on_event(&self, event: &Event) {
        if let Event::CfFiltered { cmp } = event {
            self.0.lock().unwrap().push(*cmp);
        }
    }

    fn on_shard_event(&self, _shard: u16, _event: &Event) {}
}

/// The shard merger is the last Bloom comparison filter in stage A, and it
/// states its loss here: each pair it drops as a cross-shard repeat is
/// checked against the exact set of pairs it merged. A pair it drops but
/// never merged is a false positive, and the filter never merges it later
/// either (a false positive is not inserted, so every later copy hits it
/// too). The census corpus of 400 profiles puts ≈ 62 k pairs through the
/// filter, past half its first 2¹⁶-key slice; it loses one pair at 2
/// shards and one at 4 (DESIGN.md §8), pinned here: a change that moves
/// the counts changes which pairs the sharded path loses.
#[test]
fn the_merger_filter_states_its_false_drops() {
    let dataset = generate_census(&CensusConfig {
        seed: 7,
        target_profiles: 400,
    });
    let unsharded = run_unsharded(&dataset, 8).len();
    for (shards, pinned) in [(2, 1), (4, 1)] {
        let repeats = Arc::new(MergerRepeats::default());
        let merged = run_observed(&dataset, 8, shards, Observer::new(repeats.clone()));
        let exact: HashSet<Comparison> = merged.iter().copied().collect();
        assert_eq!(
            exact.len(),
            merged.len(),
            "{shards} shards: merged a pair twice"
        );
        let dropped = repeats.0.lock().unwrap();
        let false_drops = dropped.iter().filter(|c| !exact.contains(c)).count();
        assert!(
            !dropped.is_empty(),
            "{shards} shards: no cross-shard repeat"
        );
        assert_eq!(false_drops, pinned, "{shards} shards: false drops moved");
        // The shards hand out every pair the unsharded lane does; the
        // merger loses exactly its false drops.
        assert_eq!(merged.len() + false_drops, unsharded, "{shards} shards");
    }
}
