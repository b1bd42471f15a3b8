//! Criterion micro-benchmarks for the building blocks.
//!
//! Real wall-clock throughput of the substrate operations: tokenization,
//! incremental blocking, the probabilistic/priority structures, the two
//! similarity measures, and per-profile candidate generation (ghosting +
//! I-WNP). These validate the cost-model assumptions (ED ≫ JS; blocking
//! linear; queue ops logarithmic).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use pier_blocking::IncrementalBlocker;
use pier_collections::{BoundedMaxHeap, LazyMinHeap, ScalableBloomFilter};
use pier_core::framework::generate_for_profile;
use pier_core::PierConfig;
use pier_datagen::{generate_movies, MoviesConfig};
use pier_matching::similarity::{jaccard_tokens, levenshtein};
use pier_metablocking::{BlockingGraph, Iwnp, WeightingScheme};
use pier_shard::{ShardMerger, ShardRouter};
use pier_types::{Comparison, ErKind, ProfileId, TokenId, Tokenizer, WeightedComparison};

fn movies_blocker() -> (IncrementalBlocker, usize) {
    let d = generate_movies(&MoviesConfig {
        seed: 3,
        source0_size: 1000,
        source1_size: 800,
        matches: 700,
    });
    let mut b = IncrementalBlocker::new(ErKind::CleanClean);
    let n = d.len();
    for p in &d.profiles {
        b.process_profile(p.clone());
    }
    (b, n)
}

fn bench_tokenizer(c: &mut Criterion) {
    let t = Tokenizer::default();
    let value = "The Quick Brown Fox: a 2021 documentary about typography (director's cut)";
    c.bench_function("tokenizer/value", |bench| {
        bench.iter(|| t.tokenize_value(black_box(value)).count())
    });
}

fn bench_blocking(c: &mut Criterion) {
    let d = generate_movies(&MoviesConfig {
        seed: 4,
        source0_size: 600,
        source1_size: 500,
        matches: 450,
    });
    c.bench_function("blocking/ingest-1100-profiles", |bench| {
        bench.iter(|| {
            let mut b = IncrementalBlocker::new(ErKind::CleanClean);
            for p in &d.profiles {
                b.process_profile(black_box(p.clone()));
            }
            b.collection().block_count()
        })
    });
}

fn bench_bloom(c: &mut Criterion) {
    c.bench_function("bloom/insert", |bench| {
        let mut f = ScalableBloomFilter::for_comparisons();
        let mut key = 0u64;
        bench.iter(|| {
            key = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
            f.insert(black_box(key))
        })
    });
    let mut filled = ScalableBloomFilter::for_comparisons();
    for k in 0..100_000u64 {
        filled.insert(k.wrapping_mul(0x5851_f42d_4c95_7f2d));
    }
    c.bench_function("bloom/contains-100k", |bench| {
        let mut k = 0u64;
        bench.iter(|| {
            k = k.wrapping_add(1);
            filled.contains(black_box(k))
        })
    });
}

fn bench_heaps(c: &mut Criterion) {
    c.bench_function("bounded_heap/push-pop-4096", |bench| {
        bench.iter(|| {
            let mut h = BoundedMaxHeap::new(1024);
            for i in 0..4096u32 {
                let w = (i as f64 * 0.7).sin();
                h.push(WeightedComparison::new(
                    Comparison::new(ProfileId(i), ProfileId(i + 1)),
                    w,
                ));
            }
            let mut n = 0;
            while h.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    c.bench_function("lazy_heap/update-heavy", |bench| {
        bench.iter(|| {
            let mut h: LazyMinHeap<u64, u32> = LazyMinHeap::new();
            for round in 1..=16u64 {
                for v in 0..256u32 {
                    h.set(v, round * (v as u64 % 17 + 1));
                }
            }
            h.pop_min()
        })
    });
}

fn bench_similarity(c: &mut Criterion) {
    let a: Vec<TokenId> = (0..24).map(|i| TokenId(i * 2)).collect();
    let b: Vec<TokenId> = (0..24).map(|i| TokenId(i * 3)).collect();
    c.bench_function("similarity/jaccard-24-tokens", |bench| {
        bench.iter(|| jaccard_tokens(black_box(&a), black_box(&b)))
    });
    let s1 = "The Shawshank Redemption, a 1994 American drama film";
    let s2 = "Shawshank Redemption (1994) — American prison drama";
    c.bench_function("similarity/levenshtein-50-chars", |bench| {
        bench.iter(|| levenshtein(black_box(s1), black_box(s2)))
    });
}

fn bench_generation(c: &mut Criterion) {
    let (blocker, n) = movies_blocker();
    let cfg = PierConfig::default();
    c.bench_function("pier/generate-for-profile", |bench| {
        let mut i = 0u32;
        let mut iwnp = Iwnp::new();
        bench.iter(|| {
            i = (i + 1) % n as u32;
            generate_for_profile(&blocker, ProfileId(i), &cfg, &mut iwnp)
                .0
                .len()
        })
    });
}

fn bench_graph(c: &mut Criterion) {
    let (blocker, _) = movies_blocker();
    c.bench_function("metablocking/graph-build-1800-profiles", |bench| {
        bench.iter(|| BlockingGraph::build(blocker.collection(), WeightingScheme::Cbs).edge_count())
    });
}

fn bench_shard_router(c: &mut Criterion) {
    let d = generate_movies(&MoviesConfig {
        seed: 5,
        source0_size: 600,
        source1_size: 500,
        matches: 450,
    });
    let router = ShardRouter::new(4);
    c.bench_function("shard/route-1100-profiles", |bench| {
        let mut scratch = String::new();
        bench.iter(|| {
            let mut fanout = 0usize;
            for p in &d.profiles {
                let tokens = router.tokenize(black_box(p), &mut scratch);
                fanout += router.route_ids(&tokens).len();
            }
            fanout
        })
    });
}

fn bench_kway_merge(c: &mut Criterion) {
    // Four pre-built per-shard streams of descending-weight comparisons;
    // the merger pulls globally top-1024 batches until every stream runs
    // dry, exercising the CF dedup on the way.
    let streams: Vec<Vec<WeightedComparison>> = (0..4u32)
        .map(|s| {
            (0..4096u32)
                .map(|i| {
                    WeightedComparison::new(
                        Comparison::new(ProfileId(s * 10_000 + i), ProfileId(s * 10_000 + i + 1)),
                        (4096 - i) as f64,
                    )
                })
                .collect()
        })
        .collect();
    c.bench_function("shard/kway-merge-4x4096", |bench| {
        bench.iter(|| {
            let mut merger = ShardMerger::new(4);
            let mut cursors = [0usize; 4];
            let mut total = 0usize;
            loop {
                let batch = merger.next_batch_with(1024, |s, n| {
                    let start = cursors[s];
                    let end = (start + n).min(streams[s].len());
                    cursors[s] = end;
                    streams[s][start..end].to_vec()
                });
                if batch.is_empty() {
                    break;
                }
                total += batch.len();
            }
            total
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_tokenizer,
        bench_blocking,
        bench_bloom,
        bench_heaps,
        bench_similarity,
        bench_generation,
        bench_graph,
        bench_shard_router,
        bench_kway_merge
);
criterion_main!(micro);
