//! Determinism contract of the parallel stage-B executor: a pooled run
//! (`match_workers = 4`) must report the identical match set, pair
//! completeness, and executed-comparison count as the sequential executor
//! (`match_workers = 1`) on the same seeded stream. The classifier's helpers
//! compute verdicts, but every externally visible effect happens on the
//! classifier, in batch order, so parallelism may only change wall-clock
//! throughput.
//!
//! The edit-distance kernel keeps its last pattern's `Peq` table per thread,
//! and I-PES emits an entity's comparisons one after another, so which
//! thread claims which `HELP_CHUNK` chunk of a batch decides which thread
//! has seen which string before. The second half of this file pins that
//! this moves time only: every pair's `is_match` and `similarity` bits are
//! the same on 1–4 workers, on batches whose entity runs the chunk
//! boundaries cut through.

use std::sync::Arc;
use std::time::Duration;

use pier_blocking::{IncrementalBlocker, PurgePolicy};
use pier_core::{Ipes, PierConfig, StageA};
use pier_datagen::{generate_bibliographic, BibliographicConfig};
use pier_matching::{EditDistanceMatcher, MatchFunction, MatchOutcome, PreparedProfile};
use pier_runtime::{Pipeline, RuntimeConfig, RuntimeReport, HELP_CHUNK};
use pier_types::{Comparison, Dataset, Tokenizer};

fn seeded_dataset() -> Dataset {
    generate_bibliographic(&BibliographicConfig {
        seed: 7,
        source0_size: 160,
        source1_size: 140,
        matches: 120,
    })
}

fn run_with_workers(dataset: &Dataset, workers: usize) -> (RuntimeReport, Vec<Comparison>) {
    let increments: Vec<_> = dataset
        .into_increments(8)
        .expect("dataset splits into 8 increments")
        .into_iter()
        .map(|inc| inc.profiles)
        .collect();
    let emitter = Box::new(Ipes::new(PierConfig::default()));
    let matcher: Arc<dyn MatchFunction> = Arc::new(EditDistanceMatcher::default());
    let config = RuntimeConfig {
        interarrival: Duration::from_millis(2),
        deadline: Duration::from_secs(120),
        match_workers: workers,
        // Purging makes the emitted candidate set depend on arrival timing;
        // disabling it pins one deterministic set for both executors.
        purge_policy: PurgePolicy::disabled(),
        ..RuntimeConfig::default()
    };
    let report = Pipeline::builder(dataset.kind)
        .config(config)
        .emitter(emitter)
        .build()
        .unwrap()
        .run(increments, matcher, |_| {});
    let mut pairs: Vec<Comparison> = report.matches.iter().map(|m| m.pair).collect();
    pairs.sort_unstable();
    pairs.dedup();
    (report, pairs)
}

#[test]
fn four_workers_report_the_sequential_results_exactly() {
    let dataset = seeded_dataset();
    let (seq, seq_pairs) = run_with_workers(&dataset, 1);
    let (par, par_pairs) = run_with_workers(&dataset, 4);

    // Identical match set.
    assert!(!seq_pairs.is_empty(), "the seeded stream produces matches");
    assert_eq!(seq_pairs, par_pairs);

    // Identical pair completeness against the generator's ground truth.
    let pc = |report: &RuntimeReport| report.progress_trajectory(&dataset.ground_truth).pc();
    assert_eq!(pc(&seq), pc(&par));

    // Identical executed-comparison count: both runs fully drain the same
    // CF-deduplicated candidate set.
    assert_eq!(seq.comparisons, par.comparisons);
    assert_eq!((seq.comparisons_dropped, par.comparisons_dropped), (0, 0));

    // The report exposes the executor configuration and its per-worker
    // split. A sequential run has the single aggregate entry; a drained
    // pooled run counts every comparison once, on the worker that
    // computed it.
    assert_eq!(seq.match_workers, 1);
    assert_eq!(seq.worker_comparisons, vec![seq.comparisons]);
    assert_eq!(par.match_workers, 4);
    assert_eq!(par.worker_comparisons.len(), 4);
    let per_worker_total: u64 = par.worker_comparisons.iter().sum();
    assert_eq!(per_worker_total, par.comparisons);
    // The fan-out actually spread work across workers.
    let busy_workers = par.worker_comparisons.iter().filter(|&&c| c > 0).count();
    assert!(busy_workers >= 2, "got {:?}", par.worker_comparisons);
}

/// One chunk's `bits`, in order.
type Chunk = Vec<(bool, u64)>;

/// `(is_match, similarity bits)`: what must not depend on the executor.
fn bits(outcome: &MatchOutcome) -> (bool, u64) {
    (outcome.is_match, outcome.similarity.to_bits())
}

#[test]
fn entity_runs_cut_by_chunk_boundaries_compare_alike_on_one_to_four_workers() {
    // Stage B's batches as I-PES emits them: runs of comparisons sharing a
    // profile.
    let dataset = seeded_dataset();
    let blocker = IncrementalBlocker::with_config(
        dataset.kind,
        Tokenizer::default(),
        PurgePolicy::disabled(),
    );
    let mut machine = StageA::new(blocker, Box::new(Ipes::new(PierConfig::default())));
    assert!(machine.ingest(&dataset.profiles).errors.is_empty());
    let batches: Vec<Vec<Comparison>> = std::iter::from_fn(|| {
        let batch = machine.turn(true, 256, 256, |m, k| m.pull(k).0);
        (!batch.is_empty()).then_some(batch)
    })
    .collect();
    let matcher = EditDistanceMatcher::default();
    let prepared: Vec<PreparedProfile> = dataset
        .profiles
        .iter()
        .map(|p| matcher.prepare(p, &[]))
        .collect();
    let compare =
        |c: &Comparison| matcher.compare(&prepared[c.a.index()], &[], &prepared[c.b.index()], &[]);

    // The sequential executor: every batch in order on one thread.
    let sequential: Vec<Vec<(bool, u64)>> = batches
        .iter()
        .map(|batch| batch.iter().map(|c| bits(&compare(c))).collect())
        .collect();
    assert!(sequential.iter().flatten().any(|&(is_match, _)| is_match));

    for workers in 1..=4usize {
        // One layout the pool can take: chunk `j` of every batch claimed by
        // worker `j % workers`, a long-lived thread that keeps its kernel
        // state between chunks and batches.
        // Per worker, per batch, the chunks it claimed.
        let per_worker: Vec<Vec<Vec<Chunk>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let (batches, compare) = (&batches, &compare);
                    scope.spawn(move || {
                        batches
                            .iter()
                            .map(|batch| {
                                let chunks = batch.chunks(HELP_CHUNK);
                                chunks
                                    .skip(worker)
                                    .step_by(workers)
                                    .map(|chunk| chunk.iter().map(|c| bits(&compare(c))).collect())
                                    .collect()
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread"))
                .collect()
        });
        for (b, want) in sequential.iter().enumerate() {
            let chunks = want.len().div_ceil(HELP_CHUNK);
            let pooled: Vec<(bool, u64)> = (0..chunks)
                .flat_map(|j| per_worker[j % workers][b][j / workers].iter().copied())
                .collect();
            assert_eq!(&pooled, want, "batch {b} on {workers} workers");
        }
    }
    // The boundaries do cut through runs: some chunk of some batch starts
    // with a pair that shares a profile with the pair before it.
    let cuts_a_run = batches.iter().any(|batch| {
        (HELP_CHUNK..batch.len()).step_by(HELP_CHUNK).any(|start| {
            let (before, first) = (batch[start - 1], batch[start]);
            before.involves(first.a) || before.involves(first.b)
        })
    });
    assert!(cuts_a_run, "the chunk boundaries cut no run");
}

#[test]
fn every_worker_count_confirms_the_same_matches_at_the_same_similarity() {
    let dataset = seeded_dataset();
    let confirmed = |workers: usize| {
        let (report, _) = run_with_workers(&dataset, workers);
        let mut matches: Vec<(Comparison, u64)> = report
            .matches
            .iter()
            .map(|m| (m.pair, m.similarity.to_bits()))
            .collect();
        matches.sort_unstable();
        matches.dedup();
        (report.comparisons, matches)
    };
    let sequential = confirmed(1);
    for workers in 2..=4 {
        assert_eq!(confirmed(workers), sequential, "{workers} workers");
    }
}
