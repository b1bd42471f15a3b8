//! Contract tests every comparison emitter must satisfy, run against all
//! ten algorithms (three PIER strategies and seven baselines).

use pier::prelude::*;
use pier::sim::Method;

fn all_methods() -> [Method; 10] {
    [
        Method::Batch,
        Method::Pbs,
        Method::PpsGlobal,
        Method::PpsLocal,
        Method::IBase,
        Method::IPcs,
        Method::IPbs,
        Method::IPes,
        Method::LsPsn,
        Method::GsPsn,
    ]
}

fn small_dataset(kind: ErKind) -> Dataset {
    match kind {
        ErKind::CleanClean => generate_movies(&MoviesConfig {
            seed: 77,
            source0_size: 150,
            source1_size: 120,
            matches: 110,
        }),
        ErKind::Dirty => generate_census(&CensusConfig {
            seed: 78,
            target_profiles: 300,
        }),
    }
}

/// Feeds a dataset increment by increment and drains with idle ticks,
/// taking batches out through `pull`; returns everything pulled, in order,
/// and the total ops the emitter charged.
fn drive_with<T>(
    method: Method,
    dataset: &Dataset,
    n_increments: usize,
    mut pull: impl FnMut(&mut dyn ComparisonEmitter, &IncrementalBlocker, usize) -> Vec<T>,
) -> (Vec<T>, u64) {
    let mut blocker = IncrementalBlocker::new(dataset.kind);
    let mut emitter = method.build(PierConfig::default());
    let mut out = Vec::new();
    let mut ops = 0;
    for inc in dataset.into_increments(n_increments).unwrap() {
        let ids = blocker.process_increment(&inc.profiles);
        emitter.on_increment(&blocker, &ids);
        // Interleave some pulls mid-stream like a real matcher would.
        out.extend(pull(&mut *emitter, &blocker, 8));
    }
    // Drain with idle ticks until the emitter is truly dry.
    loop {
        let batch = pull(&mut *emitter, &blocker, 64);
        if !batch.is_empty() {
            out.extend(batch);
            continue;
        }
        ops += emitter.drain_ops();
        emitter.on_increment(&blocker, &[]);
        let tick_ops = emitter.drain_ops();
        ops += tick_ops;
        if tick_ops == 0 && !emitter.has_pending() {
            break;
        }
    }
    (out, ops)
}

/// [`drive_with`] through `next_batch`: every emitted comparison, in order.
fn drive(method: Method, dataset: &Dataset, n_increments: usize) -> Vec<Comparison> {
    drive_with(method, dataset, n_increments, |e, b, k| e.next_batch(b, k)).0
}

#[test]
fn no_emitter_repeats_a_comparison() {
    for kind in [ErKind::CleanClean, ErKind::Dirty] {
        let dataset = small_dataset(kind);
        for method in all_methods() {
            let emitted = drive(method, &dataset, 6);
            let mut seen = std::collections::HashSet::new();
            for c in &emitted {
                assert!(
                    seen.insert(*c),
                    "{} repeated {c} on {:?}",
                    method.name(),
                    kind
                );
            }
        }
    }
}

#[test]
fn emitted_pairs_are_valid() {
    for kind in [ErKind::CleanClean, ErKind::Dirty] {
        let dataset = small_dataset(kind);
        for method in all_methods() {
            for c in drive(method, &dataset, 6) {
                assert!(c.a < c.b, "{}: non-canonical pair {c}", method.name());
                assert!(c.b.index() < dataset.len());
                if kind == ErKind::CleanClean {
                    assert_ne!(
                        dataset.profile(c.a).source,
                        dataset.profile(c.b).source,
                        "{}: same-source pair {c} in Clean-Clean ER",
                        method.name()
                    );
                }
            }
        }
    }
}

#[test]
fn emissions_are_deterministic() {
    let dataset = small_dataset(ErKind::CleanClean);
    for method in all_methods() {
        let a = drive(method, &dataset, 5);
        let b = drive(method, &dataset, 5);
        assert_eq!(a, b, "{} is non-deterministic", method.name());
    }
}

#[test]
fn pier_emitters_reach_the_blocking_ceiling() {
    // With unlimited pulls (ticks included), each PIER method must find
    // every ground-truth pair that shares at least one non-purged block.
    let dataset = small_dataset(ErKind::CleanClean);
    for method in Method::pier() {
        let emitted: std::collections::HashSet<Comparison> =
            drive(method, &dataset, 6).into_iter().collect();
        let mut missed = 0;
        for c in dataset.ground_truth.iter() {
            if !emitted.contains(&c) {
                missed += 1;
            }
        }
        // Bloom-filter false positives may drop a stray pair; allow 2%.
        assert!(
            missed * 50 <= dataset.ground_truth.len(),
            "{} missed {missed}/{} matches",
            method.name(),
            dataset.ground_truth.len()
        );
    }
}

#[test]
fn emitters_respect_k_where_adaptive() {
    let dataset = small_dataset(ErKind::CleanClean);
    // All PIER methods plus the batch schedulers respect k; I-BASE by
    // design does not (it flushes its whole backlog).
    for method in [
        Method::IPcs,
        Method::IPbs,
        Method::IPes,
        Method::Pbs,
        Method::PpsGlobal,
        Method::Batch,
    ] {
        let mut blocker = IncrementalBlocker::new(dataset.kind);
        let mut emitter = method.build(PierConfig::default());
        let ids = blocker.process_increment(&dataset.profiles);
        emitter.on_increment(&blocker, &ids);
        let batch = emitter.next_batch(&blocker, 3);
        assert!(
            batch.len() <= 3,
            "{} ignored k: got {}",
            method.name(),
            batch.len()
        );
    }
}

#[test]
fn weighted_batches_carry_the_unweighted_schedule() {
    // `next_batch` is `next_weighted_batch` minus the weights: two twins,
    // one drained each way, emit the same pairs in the same order and
    // charge the same ops, and every weight handed out is finite.
    for kind in [ErKind::CleanClean, ErKind::Dirty] {
        let dataset = small_dataset(kind);
        for method in all_methods() {
            let (weighted, weighted_ops) =
                drive_with(method, &dataset, 6, |e, b, k| e.next_weighted_batch(b, k));
            let (plain, plain_ops) = drive_with(method, &dataset, 6, |e, b, k| e.next_batch(b, k));
            let name = method.name();
            assert!(!plain.is_empty(), "{name} emitted nothing on {kind:?}");
            assert!(
                weighted.iter().all(|wc| wc.weight.is_finite()),
                "{name}: a non-finite weight on {kind:?}"
            );
            let pairs: Vec<Comparison> = weighted.iter().map(|wc| wc.cmp).collect();
            assert_eq!(pairs, plain, "{name}: weighted pairs differ on {kind:?}");
            assert_eq!(weighted_ops, plain_ops, "{name}: ops differ on {kind:?}");
        }
    }
}
