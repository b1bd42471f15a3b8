//! Stage-B matcher throughput: the Myers bit-parallel edit-distance
//! kernel and the parallel match executor (`pier-runtime`'s work pool).
//!
//! Reports five series. The host has 2 vCPUs, so nothing here observes
//! more than two threads running at once; each entry says what its figure
//! is on this host:
//!
//! * **kernel speedup** — the Myers bit-parallel Levenshtein
//!   (`pier_matching::similarity::levenshtein`) against the two-row DP
//!   oracle (`levenshtein_naive`) on random ASCII string pairs, per
//!   length. Single-threaded, a ratio of two timings of one thread. The
//!   contract asserts ≥ 5× at 64 characters (one `u64` word);
//! * **bounded kernel on unrelated pairs** (informational) — nanoseconds
//!   per `levenshtein_bounded` call at the ED matcher's own cut-off
//!   (threshold 0.55) on the unrelated half of the same pairs, per length:
//!   the case the final-diagonal cut-off abandons early, and where the
//!   `u64` → `u128` → blocked steps at 64 and 128 characters show.
//!   Single-threaded. No two calls share a string, so every call builds
//!   its `Peq` table;
//! * **compare by pair order** (informational) — nanoseconds per
//!   `EditDistanceMatcher::compare` over one set of prepared pairs, once in
//!   the order I-PES emits them (an entity's comparisons one after
//!   another) and once shuffled. The kernel keeps its last pattern's `Peq`
//!   table, so the first figure is what stage B pays per pair, the second
//!   what a caller with no runs to offer pays — every call builds, plus
//!   the look-up that found nothing — and their difference is what the
//!   kept table is worth. Single-threaded;
//! * **critical-path throughput** — stage-B comparisons per second of the
//!   parallel executor at the critical path of the threaded pipeline:
//!   profiles are prepared once, as the runtime's stage B does, the batch
//!   is cut into the executor's own `HELP_CHUNK`-pair chunks, each chunk of
//!   prepared pairs is compared under its own timer and handed to whichever
//!   of the N workers (the classifier among them) is least loaded — the
//!   claim rule: whoever is free takes the next chunk — and the classifier's
//!   residue (budget accounting, match collection) is timed under another:
//!   `throughput = pairs / (max_w load_w + t_serial)`. The chunks run one
//!   after another on one thread and each term is measured separately, so
//!   the figure is a model of a host with ≥ N free cores, not an
//!   observation of this one. The contract asserts ≥ 2× at 4 workers over 1;
//! * **threaded wall clock** — a real runtime `Pipeline` with
//!   `match_workers` swept. With 2 vCPUs shared between the lane thread
//!   and the workers, the series can show a gain up to 2 workers at most
//!   and bounds coordination overhead beyond — see the note written next
//!   to the CSVs.
//!
//! Run with `cargo bench --bench matcher_throughput`. CSVs land in
//! `target/experiments/matcher_throughput/`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use pier_bench::{write_note, FigureReport};
use pier_blocking::{IncrementalBlocker, PurgePolicy};
use pier_core::{PierConfig, StageA, Strategy};
use pier_datagen::{generate_bibliographic, BibliographicConfig};
use pier_matching::similarity::levenshtein;
use pier_matching::{
    levenshtein_bounded, levenshtein_naive, EditDistanceMatcher, MatchFunction, MatchOutcome,
    PreparedProfile,
};
use pier_runtime::{Pipeline, RuntimeConfig, HELP_CHUNK};
use pier_types::{Comparison, Dataset, EntityProfile, SharedTokenDictionary, TokenId, Tokenizer};

const ID: &str = "matcher_throughput";
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Best-of reps (min-time benchmarking absorbs scheduler noise on a
/// shared container).
const REPS: usize = 3;
/// String pairs per length in the kernel sweep.
const KERNEL_PAIRS: usize = 2_000;
/// Comparisons evaluated per executor configuration.
const EXECUTOR_PAIRS: usize = 50_000;

fn ascii_string(rng: &mut StdRng, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz 0123456789";
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())] as char)
        .collect()
}

/// Random ASCII pairs of length `len`: the even ones near-duplicates (a few
/// edits apart), the odd ones unrelated (what the bounded kernel abandons).
fn kernel_pairs(rng: &mut StdRng, len: usize) -> Vec<(String, String)> {
    (0..KERNEL_PAIRS)
        .map(|i| {
            let a = ascii_string(rng, len);
            let b = if i % 2 == 0 {
                let mut b: Vec<u8> = a.clone().into_bytes();
                for _ in 0..3.min(len) {
                    let at = rng.random_range(0..b.len());
                    b[at] = b"abcdefgh"[rng.random_range(0..8)];
                }
                String::from_utf8(b).expect("ASCII edits stay ASCII")
            } else {
                ascii_string(rng, len)
            };
            (a, b)
        })
        .collect()
}

/// Seconds to compute `dist` over every pair, best of [`REPS`].
fn time_kernel(pairs: &[(String, String)], dist: impl Fn(&str, &str) -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut total = 0usize;
        for (a, b) in pairs {
            total += dist(a, b);
        }
        black_box(total);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn corpus() -> Dataset {
    generate_bibliographic(&BibliographicConfig {
        seed: 47,
        source0_size: 700,
        source1_size: 600,
        matches: 500,
    })
}

/// The executor's workload, materialized once: every profile's token ids
/// and what the matcher prepared from it, plus a seeded sample of candidate
/// pairs.
struct Workload {
    prepared: Vec<PreparedProfile>,
    tokens: Vec<Vec<TokenId>>,
    pairs: Vec<(usize, usize)>,
}

fn workload(dataset: &Dataset, matcher: &dyn MatchFunction) -> Workload {
    let dictionary = SharedTokenDictionary::new();
    let tokenizer = Tokenizer::default();
    let mut scratch = String::new();
    let tokens: Vec<Vec<TokenId>> = dataset
        .profiles
        .iter()
        .map(|p| dictionary.tokenize_and_intern(&tokenizer, p, &mut scratch))
        .collect();
    let mut rng = StdRng::seed_from_u64(0xb1);
    let n = dataset.profiles.len();
    let pairs = (0..EXECUTOR_PAIRS)
        .map(|_| {
            let a = rng.random_range(0..n);
            let mut b = rng.random_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            (a.min(b), a.max(b))
        })
        .collect();
    let prepared = dataset
        .profiles
        .iter()
        .zip(&tokens)
        .map(|(p, t)| matcher.prepare(p, t))
        .collect();
    Workload {
        prepared,
        tokens,
        pairs,
    }
}

/// One executor configuration under the critical-path model: evaluates
/// each `HELP_CHUNK` chunk under its own timer and adds it to the least
/// loaded of the `workers` (the claim rule), then times the classifier's
/// residue (accounting + match collection) under another timer. Returns
/// `(busiest_worker_secs, serial_secs, matches)`.
fn executor_critical_path(
    w: &Workload,
    matcher: &dyn MatchFunction,
    workers: usize,
) -> (f64, f64, usize) {
    let mut loads = vec![0.0f64; workers];
    let mut outcomes: Vec<Vec<MatchOutcome>> = Vec::new();
    for chunk in w.pairs.chunks(HELP_CHUNK) {
        let t0 = Instant::now();
        let out: Vec<MatchOutcome> = chunk
            .iter()
            .map(|&(a, b)| {
                matcher.compare(&w.prepared[a], &w.tokens[a], &w.prepared[b], &w.tokens[b])
            })
            .collect();
        let least = loads.iter_mut().min_by(|x, y| x.total_cmp(y));
        *least.expect("workers >= 1") += t0.elapsed().as_secs_f64();
        outcomes.push(out);
    }
    let t0 = Instant::now();
    let mut executed = 0u64;
    let mut matches = 0usize;
    for chunk in &outcomes {
        for outcome in chunk {
            executed += 1;
            if outcome.is_match {
                matches += 1;
            }
        }
    }
    black_box(executed);
    let serial = t0.elapsed().as_secs_f64();
    let busiest = loads.iter().cloned().fold(0.0, f64::max);
    (busiest, serial, matches)
}

/// Every comparison I-PES emits for `dataset` in the static setting, in
/// emission order.
fn ipes_emission_order(dataset: &Dataset) -> Vec<Comparison> {
    let blocker =
        IncrementalBlocker::with_config(dataset.kind, Tokenizer::default(), PurgePolicy::default());
    let mut machine = StageA::new(blocker, Strategy::Pes.build(PierConfig::default()));
    let ingested = machine.ingest(&dataset.profiles);
    assert!(ingested.errors.is_empty(), "the corpus blocks cleanly");
    let mut order = Vec::new();
    loop {
        let batch = machine.pull_idle(1024);
        if batch.is_empty() {
            return order;
        }
        order.extend(batch);
    }
}

/// Nanoseconds per `compare` over `pairs` in the given order, best of
/// [`REPS`].
fn compare_ns(matcher: &dyn MatchFunction, w: &Workload, pairs: &[Comparison]) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut matches = 0usize;
        for c in pairs {
            let (a, b) = (c.a.index(), c.b.index());
            let outcome =
                matcher.compare(&w.prepared[a], &w.tokens[a], &w.prepared[b], &w.tokens[b]);
            matches += usize::from(outcome.is_match);
        }
        black_box(matches);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e9 / pairs.len() as f64
}

fn main() {
    let mut report = FigureReport::new(ID);

    // 1. Myers kernel vs the naive DP oracle, per string length.
    let mut rng = StdRng::seed_from_u64(0xed);
    let mut kernel_rows = Vec::new();
    let mut bounded_rows = Vec::new();
    let mut speedup_at_64 = 0.0;
    let matcher = EditDistanceMatcher::default();
    for len in [16usize, 32, 64, 96, 128, 256] {
        let pairs = kernel_pairs(&mut rng, len);
        let naive = time_kernel(&pairs, levenshtein_naive);
        let myers = time_kernel(&pairs, levenshtein);
        let speedup = naive / myers.max(1e-12);
        // The matcher's cut-off for two texts of `len` chars.
        let k = ((1.0 - matcher.threshold) * len as f64).floor() as usize;
        let unrelated: Vec<(String, String)> = pairs.into_iter().skip(1).step_by(2).collect();
        let bounded = time_kernel(&unrelated, |a, b| {
            levenshtein_bounded(a, b, k).unwrap_or(usize::MAX)
        });
        let bounded_ns = bounded * 1e9 / unrelated.len() as f64;
        println!(
            "kernel len={len}: naive {:.1}ns/pair, myers {:.1}ns/pair -> {speedup:.1}x; \
             bounded at k={k} on unrelated pairs {bounded_ns:.1}ns/pair",
            naive * 1e9 / KERNEL_PAIRS as f64,
            myers * 1e9 / KERNEL_PAIRS as f64
        );
        if len == 64 {
            speedup_at_64 = speedup;
        }
        kernel_rows.push((len as f64, speedup));
        bounded_rows.push((len as f64, bounded_ns));
    }
    report.add_series("kernel_speedup", "string_len", kernel_rows);
    report.add_series("bounded_unrelated_ns_per_pair", "string_len", bounded_rows);

    // 2. One set of prepared pairs in I-PES emission order and shuffled.
    let dataset = corpus();
    let w = workload(&dataset, &matcher);
    let emitted = ipes_emission_order(&dataset);
    let in_runs = emitted
        .windows(2)
        .filter(|w| w[0].involves(w[1].a) || w[0].involves(w[1].b))
        .count();
    let mut shuffled = emitted.clone();
    let mut shuffle_rng = StdRng::seed_from_u64(0x5f);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, shuffle_rng.random_range(0..=i));
    }
    let emitted_ns = compare_ns(&matcher, &w, &emitted);
    let shuffled_ns = compare_ns(&matcher, &w, &shuffled);
    println!(
        "compare over {} I-PES pairs ({:.0}% share a profile with the pair before): \
         {emitted_ns:.1}ns/pair in emission order, {shuffled_ns:.1}ns/pair shuffled \
         -> the kept Peq table is worth {:.1}ns/pair",
        emitted.len(),
        100.0 * in_runs as f64 / emitted.len().max(1) as f64,
        shuffled_ns - emitted_ns
    );
    report.add_series(
        "compare_ns_per_pair_by_order",
        "order_0_emission_1_shuffled",
        vec![(0.0, emitted_ns), (1.0, shuffled_ns)],
    );

    // 3. Executor critical-path throughput on the ED matcher.
    let mut critical_rows = Vec::new();
    let mut base_throughput = 0.0;
    for &workers in &WORKER_COUNTS {
        let mut best: Option<(f64, f64, f64)> = None;
        for _ in 0..REPS {
            let (busiest, serial, matches) = executor_critical_path(&w, &matcher, workers);
            let critical = busiest + serial;
            if best.is_none_or(|(c, ..)| critical < c) {
                best = Some((critical, busiest, serial));
            }
            black_box(matches);
        }
        let (critical, busiest, serial) = best.expect("REPS > 0");
        let throughput = w.pairs.len() as f64 / critical;
        if workers == 1 {
            base_throughput = throughput;
        }
        println!(
            "workers={workers}: busiest worker {busiest:.4}s + serial {serial:.4}s \
             -> {throughput:.0} cmp/s ({:.2}x)",
            throughput / base_throughput
        );
        critical_rows.push((workers as f64, throughput));
    }
    report.add_series(
        "critical_path_throughput",
        "match_workers",
        critical_rows.clone(),
    );

    // 4. Real threaded wall clock (2 vCPUs: lane thread + workers share them).
    let increments: Vec<Vec<EntityProfile>> = dataset
        .into_increments(20)
        .expect("corpus splits into 20 increments")
        .into_iter()
        .map(|i| i.profiles)
        .collect();
    let matcher: Arc<dyn MatchFunction> = Arc::new(EditDistanceMatcher::default());
    let mut wall_rows = Vec::new();
    for &workers in &WORKER_COUNTS {
        let config = RuntimeConfig {
            interarrival: Duration::ZERO,
            deadline: Duration::from_secs(120),
            max_comparisons: EXECUTOR_PAIRS as u64,
            match_workers: workers,
            ..RuntimeConfig::default()
        };
        let t0 = Instant::now();
        let run = Pipeline::builder(dataset.kind)
            .config(config)
            .emitter(Strategy::Pcs.build(PierConfig::default()))
            .build()
            .expect("bench config validates")
            .run(increments.clone(), Arc::clone(&matcher), |_| {});
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "threaded match_workers={workers}: {wall:.3}s wall, {} comparisons, \
             {} matches, per-worker {:?}",
            run.comparisons,
            run.matches.len(),
            run.worker_comparisons
        );
        wall_rows.push((workers as f64, run.comparisons as f64 / wall.max(1e-9)));
    }
    report.add_series("threaded_wall_clock_throughput", "match_workers", wall_rows);

    report.emit();
    write_note(
        ID,
        "README.txt",
        "kernel_speedup.csv: Myers bit-parallel Levenshtein vs the two-row\n\
         DP oracle on random ASCII pairs, per string length (contract: >= 5x\n\
         at 64 chars, one u64 word).\n\
         bounded_unrelated_ns_per_pair.csv: ns per levenshtein_bounded call\n\
         at the ED matcher's cut-off (threshold 0.55) on unrelated pairs,\n\
         per string length (informational: the final-diagonal cut-off and\n\
         the u64 / u128 / blocked kernels per length; no two calls share a\n\
         string, so every call builds its Peq table).\n\
         compare_ns_per_pair_by_order.csv: ns per EditDistanceMatcher::compare\n\
         over one set of prepared pairs, x = 0 in I-PES emission order (runs\n\
         of pairs sharing a profile, whose Peq table the kernel keeps), x = 1\n\
         shuffled (every call builds, plus the look-up that found nothing).\n\
         Informational, single-threaded.\n\
         critical_path_throughput.csv: stage-B comparisons/s of the parallel\n\
         match executor under the critical-path model: profiles are prepared\n\
         once, the batch is cut into the executor's own HELP_CHUNK chunks,\n\
         each chunk of prepared pairs runs under its own timer and goes to\n\
         the least loaded of the N workers (the classifier among them: the\n\
         claim rule), and the classifier's residue (budget accounting +\n\
         match collection) runs under another; throughput =\n\
         pairs / (busiest worker + serial residue). The chunks are timed one\n\
         after another on one thread: a model of a host with >= N free cores,\n\
         not an observation of this 2-vCPU one (contract: >= 2x at 4\n\
         workers).\n\
         threaded_wall_clock_throughput.csv: real runtime Pipeline wall clock\n\
         with match_workers swept. The host's 2 vCPUs are shared between the\n\
         lane thread and the workers, so this series can gain up to 2 workers\n\
         at most and bounds coordination overhead beyond; on a host with more\n\
         cores it approaches the critical-path series.\n",
    );

    println!("kernel speedup at 64 chars: {speedup_at_64:.1}x (contract: >= 5x)");
    assert!(
        speedup_at_64 >= 5.0,
        "Myers kernel speedup {speedup_at_64:.2}x below the 5x contract at 64 chars"
    );
    let at4 = critical_rows
        .iter()
        .find(|(workers, _)| *workers == 4.0)
        .map(|(_, t)| *t)
        .unwrap_or(0.0);
    let speedup = at4 / base_throughput;
    println!("stage-B critical-path speedup at 4 workers: {speedup:.2}x (contract: >= 2x)");
    assert!(
        speedup >= 2.0,
        "4-worker stage-B critical-path speedup {speedup:.2}x below the 2x contract"
    );
}
