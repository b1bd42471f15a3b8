//! The ≤5% overhead contract of `pier-entity`, plus its serving capacity.
//!
//! Four measurements, mirroring `metrics_overhead`'s structure:
//!
//! 1. **pipeline** — the full synchronous PIER pipeline in three rungs:
//!    no observer, an enabled observer with a do-nothing sink, and a live
//!    [`ClusterObserver`] folding every confirmed match into a fresh
//!    [`EntityIndex`]. The gated measurement is clustered vs. noop — the
//!    marginal cost of maintaining the index, with the cost of the
//!    observation substrate (reported by the e2e ledger's
//!    `observe.ns_per_event`) held equal on both sides. Timed in
//!    interleaved rounds; the gate reads the median of the per-round
//!    ratios so slow host drift cancels out.
//!    The contract from DESIGN.md §12: within 5%.
//! 2. **apply** — raw union-find merge-apply rate on three synthetic
//!    match-stream topologies: `random` pairs over a large universe,
//!    a pathological `chain` (every apply merges into one growing
//!    cluster), and `redundant` (every apply re-links an already-merged
//!    pair — the find-only fast path). Reported per-apply, plus a
//!    rate-over-progress timeline CSV for the random topology.
//! 3. **query** — point-lookup latency percentiles (p50/p95/p99) from
//!    reader threads hammering [`EntityIndex::lookup`] *while* a writer
//!    thread replays the match stream — the serving-under-merge-load
//!    picture an [`EntityServer`] sees. Reported, not gated: wall-clock
//!    percentiles on a shared host measure the container as much as the
//!    code.
//! 4. **showcase** — a real threaded streaming run with the index
//!    attached; its final cluster-size distribution lands in a CSV, the
//!    raw material for the `cluster_throughput` figure.
//!
//! Run with `cargo bench --bench cluster_throughput`; CSVs land in
//! `target/experiments/cluster_throughput/`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, Criterion};

use pier_bench::{write_note, FigureReport};
use pier_core::{Ipes, PierConfig, PierPipeline, Strategy};
use pier_datagen::{generate_bibliographic, BibliographicConfig};
use pier_entity::{ClusterObserver, EntityIndex};
use pier_matching::{JaccardMatcher, MatchFunction};
use pier_observe::{NoopObserver, Observer, PipelineObserver};
use pier_runtime::{Pipeline, RuntimeConfig};
use pier_types::{Comparison, Dataset, EntityProfile, ProfileId};

const ID: &str = "cluster_throughput";
const INCREMENTS: usize = 10;

fn corpus() -> Dataset {
    generate_bibliographic(&BibliographicConfig {
        seed: 23,
        source0_size: 700,
        source1_size: 550,
        matches: 450,
    })
}

fn increments(dataset: &Dataset) -> Vec<Vec<EntityProfile>> {
    dataset
        .into_increments(INCREMENTS)
        .unwrap()
        .into_iter()
        .map(|i| i.profiles)
        .collect()
}

fn sync_pipeline(dataset: &Dataset, observer: Option<Observer>) -> usize {
    let mut pl = PierPipeline::new(
        dataset.kind,
        Strategy::Pes,
        PierConfig::default(),
        JaccardMatcher::default(),
    );
    if let Some(obs) = observer {
        pl.set_observer(obs);
    }
    for chunk in dataset.profiles.chunks(125) {
        pl.push_increment(chunk);
        pl.drain(10_000);
    }
    pl.duplicates().len()
}

fn overhead_pct(base_ns: f64, other_ns: f64) -> f64 {
    (other_ns / base_ns - 1.0) * 100.0
}

/// A deterministic random match stream: `n` distinct-endpoint pairs over
/// `universe` profiles (xorshift; no `rand` needed).
fn random_stream(n: usize, universe: u32, seed: u64) -> Vec<Comparison> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let a = (next() % universe as u64) as u32;
            let mut b = (next() % universe as u64) as u32;
            if b == a {
                b = (b + 1) % universe;
            }
            Comparison::new(ProfileId(a), ProfileId(b))
        })
        .collect()
}

/// Percentile of a sorted slice of nanosecond latencies.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let dataset = corpus();
    let incs = increments(&dataset);
    println!(
        "corpus: {} profiles in {} increments, {} true matches",
        incs.iter().map(Vec::len).sum::<usize>(),
        incs.len(),
        dataset.ground_truth.len()
    );

    let mut c = Criterion::default().sample_size(15);

    // 1. Gated: the deterministic synchronous pipeline — unobserved, then
    // an enabled observer with a do-nothing sink, then a live cluster
    // observer folding every match into a fresh index. Interleaved rounds
    // so host drift hits every config equally; the gate is the median of
    // the per-round clustered/noop ratios.
    let noop: Arc<dyn PipelineObserver> = Arc::new(NoopObserver);
    let time_one = |observer: Option<Observer>| {
        let start = Instant::now();
        black_box(sync_pipeline(&dataset, observer));
        start.elapsed().as_nanos() as f64
    };
    const ROUNDS: usize = 21;
    let mut unobserved_ns = Vec::with_capacity(ROUNDS);
    let mut noop_ns = Vec::with_capacity(ROUNDS);
    let mut clustered_ns = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS + 2 {
        let u = time_one(None);
        let n = time_one(Some(Observer::new(noop.clone())));
        let sink: Arc<dyn PipelineObserver> = Arc::new(ClusterObserver::new(EntityIndex::shared()));
        let m = time_one(Some(Observer::new(sink)));
        if round < 2 {
            continue; // warm-up rounds
        }
        unobserved_ns.push(u);
        noop_ns.push(n);
        clustered_ns.push(m);
        ratios.push(m / n);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    let pipeline_unobserved = median(&mut unobserved_ns);
    let pipeline_noop = median(&mut noop_ns);
    let pipeline_clustered = median(&mut clustered_ns);
    let pipeline_pct = (median(&mut ratios) - 1.0) * 100.0;
    println!("\n=== pipeline ladder (sync, {ROUNDS} interleaved rounds, median ns/run) ===");
    println!("pipeline/unobserved          {pipeline_unobserved:>14.0} ns");
    println!(
        "pipeline/observed-noop       {:>14.0} ns  ({:+6.2}% vs unobserved)",
        pipeline_noop,
        overhead_pct(pipeline_unobserved, pipeline_noop)
    );
    println!(
        "pipeline/clustered           {:>14.0} ns  ({:+6.2}% vs noop, median of per-round ratios)",
        pipeline_clustered, pipeline_pct
    );

    // 2. Reported: raw merge-apply rate on the three topologies.
    const STREAM: usize = 100_000;
    const UNIVERSE: u32 = 50_000;
    let random = random_stream(STREAM, UNIVERSE, 0x5eed);
    let apply_random = c.measure("apply/random", &mut |bench| {
        bench.iter(|| {
            let index = EntityIndex::new();
            for cmp in &random {
                index.apply(black_box(*cmp));
            }
            index.stats().clusters
        })
    });
    let chain: Vec<Comparison> = (0..UNIVERSE - 1)
        .map(|i| Comparison::new(ProfileId(i), ProfileId(i + 1)))
        .collect();
    let apply_chain = c.measure("apply/chain", &mut |bench| {
        bench.iter(|| {
            let index = EntityIndex::new();
            for cmp in &chain {
                index.apply(black_box(*cmp));
            }
            index.stats().clusters
        })
    });
    let merged = EntityIndex::new();
    for cmp in &random {
        merged.apply(*cmp);
    }
    let apply_redundant = c.measure("apply/redundant", &mut |bench| {
        bench.iter(|| {
            let mut fresh_merges = 0u64;
            for cmp in &random {
                fresh_merges += u64::from(merged.apply(black_box(*cmp)));
            }
            fresh_merges
        })
    });
    println!("\n=== merge-apply rate ===");
    for (m, per) in [
        (&apply_random, random.len()),
        (&apply_chain, chain.len()),
        (&apply_redundant, random.len()),
    ] {
        let per_apply = m.median_ns / per as f64;
        println!(
            "{:18} {:>8.1} ns/apply   ({:>5.1} M applies/s)",
            m.name,
            per_apply,
            1e3 / per_apply
        );
    }

    // Rate-over-progress timeline for the figure: apply the random stream
    // in batches and record the rate of each batch.
    const BATCH: usize = 5_000;
    let index = EntityIndex::new();
    let mut apply_rate_rows = Vec::new();
    for (i, batch) in random.chunks(BATCH).enumerate() {
        let start = Instant::now();
        for cmp in batch {
            index.apply(black_box(*cmp));
        }
        let secs = start.elapsed().as_secs_f64();
        apply_rate_rows.push(((i * BATCH + batch.len()) as f64, batch.len() as f64 / secs));
    }

    // 3. Reported: point-query latency percentiles while a writer merges.
    let query_universe = UNIVERSE;
    let shared = EntityIndex::shared();
    for cmp in random.iter().take(STREAM / 2) {
        shared.apply(*cmp);
    }
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let shared = Arc::clone(&shared);
        let done = Arc::clone(&done);
        let tail: Vec<Comparison> = random[STREAM / 2..].to_vec();
        std::thread::spawn(move || {
            let mut applied = 0u64;
            while !done.load(Ordering::Relaxed) {
                for cmp in &tail {
                    shared.apply(*cmp);
                    applied += 1;
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
            }
            applied
        })
    };
    const READERS: usize = 2;
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let shared = Arc::clone(&shared);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut lat_ns = Vec::new();
                let mut id = (r as u32) * 17 + 1;
                while !done.load(Ordering::Relaxed) {
                    id = (id.wrapping_mul(1_664_525).wrapping_add(1_013_904_223)) % query_universe;
                    let start = Instant::now();
                    black_box(shared.lookup(ProfileId(id)));
                    lat_ns.push(start.elapsed().as_nanos() as f64);
                }
                lat_ns
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    done.store(true, Ordering::Relaxed);
    let writer_applies = writer.join().unwrap();
    let mut lat_ns: Vec<f64> = readers
        .into_iter()
        .flat_map(|r| r.join().unwrap())
        .collect();
    lat_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let (q_p50, q_p95, q_p99) = (
        percentile(&lat_ns, 0.50),
        percentile(&lat_ns, 0.95),
        percentile(&lat_ns, 0.99),
    );
    println!("\n=== point-query latency under concurrent merge load ===");
    println!(
        "{} queries from {READERS} readers while the writer applied {} matches",
        lat_ns.len(),
        writer_applies
    );
    println!("lookup p50 {q_p50:>10.0} ns   p95 {q_p95:>10.0} ns   p99 {q_p99:>10.0} ns");

    // 4. Showcase: a real threaded run with the index attached; keep its
    // cluster-size distribution for the figure.
    let live = EntityIndex::shared();
    let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
    let report = Pipeline::builder(dataset.kind)
        .config(RuntimeConfig {
            interarrival: Duration::ZERO,
            deadline: Duration::from_secs(30),
            match_workers: 2,
            entities: Some(Arc::clone(&live)),
            ..RuntimeConfig::default()
        })
        .emitter(Box::new(Ipes::new(PierConfig::default())))
        .build()
        .expect("bench config validates")
        .run(incs.clone(), matcher, |_| {});
    let snapshot = live.snapshot();
    let summary = report.entity_summary.expect("entities attached");
    println!(
        "\nshowcase run: {} matches -> {} clusters over {} profiles (max size {})",
        report.matches.len(),
        summary.clusters,
        summary.matched_profiles,
        summary.max_size
    );
    let size_rows: Vec<(f64, f64)> = snapshot
        .size_histogram
        .iter()
        .map(|&(size, count)| (size as f64, count as f64))
        .collect();

    let mut fig = FigureReport::new(ID);
    fig.add_series(
        "overhead_pct",
        "config",
        vec![(0.0, 0.0), (1.0, pipeline_pct.max(0.0))],
    );
    fig.add_series("apply_rate", "applied", apply_rate_rows);
    fig.add_series(
        "query_latency_ns",
        "percentile",
        vec![(50.0, q_p50), (95.0, q_p95), (99.0, q_p99)],
    );
    fig.add_series("cluster_size_distribution", "size", size_rows);
    fig.emit();
    write_note(
        ID,
        "NOTE.txt",
        &format!(
            "cluster_throughput: {} profiles, {} increments.\n\
             pipeline (sync): unobserved {:.0} ns, noop-observed {:.0} ns,\n\
             clustered {:.0} ns ({:+.2}% vs noop -- the gated marginal cost\n\
             of maintaining the entity index; the e2e ledger's\n\
             observe.ns_per_event reports the substrate)\n\
             apply rate over {} matches / {} profiles: random {:.1} ns,\n\
             chain {:.1} ns, redundant {:.1} ns per apply (median)\n\
             lookup under merge load ({} readers, writer live): p50 {:.0} ns,\n\
             p95 {:.0} ns, p99 {:.0} ns over {} queries\n\
             The gate runs on the synchronous pipeline for the same reason\n\
             as metrics_overhead: threaded wall clock on a shared 1-CPU\n\
             host swings +/-15% from scheduler interference alone.\n",
            incs.iter().map(Vec::len).sum::<usize>(),
            incs.len(),
            pipeline_unobserved,
            pipeline_noop,
            pipeline_clustered,
            pipeline_pct,
            STREAM,
            UNIVERSE,
            apply_random.median_ns / random.len() as f64,
            apply_chain.median_ns / chain.len() as f64,
            apply_redundant.median_ns / random.len() as f64,
            READERS,
            q_p50,
            q_p95,
            q_p99,
            lat_ns.len(),
        ),
    );

    println!("\ncluster-maintenance pipeline overhead: {pipeline_pct:+.2}% (contract: within 5%)");
    assert!(
        pipeline_pct < 5.0,
        "entity-index overhead {pipeline_pct:.2}% exceeds the 5% contract"
    );
}
