//! The layer walk: the benchmark composes the pipeline's layers itself,
//! single-threaded, on a workload's exact increments, with a span around
//! every call into a crate's public functions. Because nothing runs
//! concurrently the spans nest, self times add up to the walk's wall
//! clock, and every count is exact for a seed.

use std::collections::HashSet;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pier_blocking::{IncrementalBlocker, PurgePolicy};
use pier_core::{ComparisonEmitter, PierConfig, Strategy};
use pier_entity::EntityIndex;
use pier_matching::MatchInput;
use pier_observe::{Event, Observer};
use pier_runtime::tokenize_increment;
use pier_shard::{ProfileStore, ShardMerger, ShardRouter, ShardWorker};
use pier_types::{Comparison, EntityProfile, ProfileId, SharedTokenDictionary, TokenId, Tokenizer};

use crate::workloads::{Inputs, Workload};

/// Comparisons pulled per `next_batch` call, and the per-increment budget
/// of the stream walks.
pub const WALK_K: usize = 4096;

const NO_PARENT: u32 = u32::MAX;

/// One timed call: nanoseconds since the walk started, the enclosing span,
/// and the increment it belongs to (`u32::MAX` after the stream ended).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub seq: u32,
}

/// In-memory span recorder; written out only after the walk.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    seq: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            seq: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            seq: self.seq,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// durations of its direct children.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let child = s.end_ns - s.start_ns;
                own[s.parent as usize] = own[s.parent as usize].saturating_sub(child);
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some(entry) => entry.1 += ns as f64 * 1e-9,
                None => by_name.push((s.name, ns as f64 * 1e-9)),
            }
        }
        by_name
    }

    /// Writes one line per span: `id name start_ns end_ns parent seq`
    /// (`-` for no parent / after the stream).
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# id name start_ns end_ns parent seq")?;
        let or_dash = |v: u32| {
            if v == u32::MAX {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id} {} {} {} {} {}",
                s.name,
                s.start_ns,
                s.end_ns,
                or_dash(s.parent),
                or_dash(s.seq)
            )?;
        }
        out.flush()
    }
}

/// Span names that group other spans; their self time is what the walk
/// could not attribute to a layer.
pub const GROUPING_SPANS: [&str; 3] = ["walk", "increment", "drain"];

/// Every exact count the walk takes. Two walks of one seed must agree on
/// all of them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalkCounts {
    pub profiles: u64,
    pub tokens: u64,
    pub distinct_tokens: u64,
    pub dictionary_bytes: u64,
    pub blocks: u64,
    pub slab_slots: u64,
    pub next_batch_calls: u64,
    pub next_batch_empty: u64,
    pub emitted: u64,
    pub tick_calls: u64,
    pub tick_emitted: u64,
    pub comparisons: u64,
    pub matches: u64,
    pub routed_tokens_per_shard: Vec<u64>,
    pub merge_pulled: u64,
    pub merge_emitted: u64,
    pub entity_merges: u64,
    pub entity_clusters: u64,
    pub entity_lookups: u64,
}

/// What one walk produced.
pub struct Walk {
    pub tracer: Tracer,
    pub counts: WalkCounts,
    pub wall_s: f64,
    pub matches: HashSet<Comparison>,
    /// `Comparison::key` of every emitted comparison, in emission order.
    pub emitted_keys: Vec<u64>,
    /// Busiest shard lane's total ingest time (0 when unsharded).
    pub max_lane_ingest_s: f64,
}

/// A comparison with both sides' profile and token handles, as stage B
/// materializes it.
struct Pair {
    cmp: Comparison,
    profile_a: Arc<EntityProfile>,
    tokens_a: Arc<[TokenId]>,
    profile_b: Arc<EntityProfile>,
    tokens_b: Arc<[TokenId]>,
}

/// Stage A as the walk composes it, in either topology.
enum StageA {
    Single {
        blocker: IncrementalBlocker,
        emitter: Box<dyn ComparisonEmitter + Send>,
    },
    Sharded {
        router: ShardRouter,
        store: ProfileStore,
        workers: Vec<ShardWorker>,
        merger: ShardMerger,
        lane_ingest_ns: Vec<u64>,
    },
}

impl StageA {
    fn new(
        workload: &Workload,
        inputs: &Inputs,
        dictionary: &SharedTokenDictionary,
        observer: &Observer,
    ) -> StageA {
        let kind = inputs.dataset.kind;
        match workload.shards() {
            None => {
                let mut blocker = IncrementalBlocker::with_shared_dictionary(
                    kind,
                    Tokenizer::default(),
                    PurgePolicy::default(),
                    dictionary.clone(),
                );
                blocker.set_observer(observer.clone());
                let mut emitter = Strategy::Pes.build(PierConfig::default());
                emitter.set_observer(observer.clone());
                StageA::Single { blocker, emitter }
            }
            Some(config) => {
                let shards = config.shards as usize;
                let mut merger = ShardMerger::new(shards);
                merger.set_observer(observer.clone());
                StageA::Sharded {
                    router: ShardRouter::with_dictionary(
                        config.shards,
                        Tokenizer::default(),
                        dictionary.clone(),
                    ),
                    store: ProfileStore::new(),
                    workers: (0..config.shards)
                        .map(|s| {
                            ShardWorker::new(
                                s,
                                kind,
                                config.strategy,
                                config.pier,
                                config.purge_policy,
                                observer,
                            )
                        })
                        .collect(),
                    merger,
                    lane_ingest_ns: vec![0; shards],
                }
            }
        }
    }

    /// Blocks one tokenized increment and tells the prioritizer about it.
    fn ingest(
        &mut self,
        profiles: Vec<pier_runtime::TokenizedProfile>,
        tr: &mut Tracer,
        counts: &mut WalkCounts,
    ) {
        match self {
            StageA::Single { blocker, emitter } => {
                let s = tr.enter("blocking.ingest");
                let ids: Vec<ProfileId> = profiles
                    .into_iter()
                    .map(|tp| {
                        blocker
                            .try_process_profile_with_token_ids(tp.profile, &tp.tokens)
                            .expect("generated profile ids are unique")
                    })
                    .collect();
                tr.exit(s);
                let s = tr.enter("core.on_increment");
                emitter.on_increment(blocker, &ids);
                let _ = emitter.drain_ops();
                tr.exit(s);
            }
            StageA::Sharded {
                router,
                store,
                workers,
                lane_ingest_ns,
                ..
            } => {
                // Same two passes as the runtime's router thread: the whole
                // increment enters the store before any ghost floor is read.
                let s = tr.enter("shard.route");
                let mut per_shard: Vec<Vec<(EntityProfile, Vec<TokenId>, usize)>> =
                    vec![Vec::new(); workers.len()];
                for tp in &profiles {
                    store
                        .insert(tp.profile.clone(), &tp.tokens)
                        .expect("generated profile ids are unique");
                }
                for tp in &profiles {
                    let floor = store.min_token_count(tp.profile.id).unwrap_or(1);
                    for (shard, tokens) in router.route_ids(&tp.tokens) {
                        counts.routed_tokens_per_shard[shard as usize] += tokens.len() as u64;
                        per_shard[shard as usize].push((
                            EntityProfile::new(tp.profile.id, tp.profile.source),
                            tokens,
                            floor,
                        ));
                    }
                }
                tr.exit(s);
                for (shard, batch) in per_shard.iter().enumerate() {
                    if batch.is_empty() {
                        continue;
                    }
                    let s = tr.enter("shard.ingest");
                    let errors = workers[shard].ingest(batch);
                    tr.exit(s);
                    assert!(
                        errors.is_empty(),
                        "shard {shard} rejected profiles: {errors:?}"
                    );
                    let span = tr.spans()[s as usize];
                    lane_ingest_ns[shard] += span.end_ns - span.start_ns;
                }
            }
        }
    }

    /// Up to `k` best comparisons.
    fn pull(&mut self, k: usize, tr: &mut Tracer, counts: &mut WalkCounts) -> Vec<Comparison> {
        match self {
            StageA::Single { blocker, emitter } => {
                let s = tr.enter("core.next_batch");
                let batch = emitter.next_batch(blocker, k);
                let _ = emitter.drain_ops();
                tr.exit(s);
                batch
            }
            StageA::Sharded {
                workers, merger, ..
            } => {
                let s = tr.enter("shard.merge");
                let batch = merger.next_batch_with(k, |shard, n| {
                    let p = tr.enter("shard.pull");
                    let pulled = workers[shard].pull(n);
                    tr.exit(p);
                    counts.merge_pulled += pulled.len() as u64;
                    pulled
                });
                tr.exit(s);
                counts.merge_emitted += batch.len() as u64;
                batch
            }
        }
    }

    /// The idle tick; returns whether it made (or left) work.
    fn tick(&mut self, tr: &mut Tracer) -> bool {
        let s = tr.enter("core.tick");
        let made = match self {
            StageA::Single { blocker, emitter } => {
                emitter.on_increment(blocker, &[]);
                emitter.drain_ops() > 0 || emitter.has_pending()
            }
            StageA::Sharded { workers, .. } => {
                workers.iter_mut().fold(false, |made, w| w.tick() | made)
            }
        };
        tr.exit(s);
        made
    }

    fn materialize(&self, batch: &[Comparison], tr: &mut Tracer) -> Vec<Pair> {
        let s = tr.enter("runtime.materialize");
        let pairs = batch
            .iter()
            .map(|&cmp| match self {
                StageA::Single { blocker, .. } => Pair {
                    cmp,
                    profile_a: blocker.profile_handle(cmp.a),
                    tokens_a: blocker.tokens_handle(cmp.a),
                    profile_b: blocker.profile_handle(cmp.b),
                    tokens_b: blocker.tokens_handle(cmp.b),
                },
                StageA::Sharded { store, .. } => Pair {
                    cmp,
                    profile_a: store.profile_handle(cmp.a),
                    tokens_a: store.tokens_handle(cmp.a),
                    profile_b: store.profile_handle(cmp.b),
                    tokens_b: store.tokens_handle(cmp.b),
                },
            })
            .collect();
        tr.exit(s);
        pairs
    }

    fn finish(&self, counts: &mut WalkCounts) -> f64 {
        match self {
            StageA::Single { blocker, .. } => {
                let slab = blocker.collection().slab_stats();
                counts.blocks = slab.blocks as u64;
                counts.slab_slots = slab.slots as u64;
                0.0
            }
            StageA::Sharded {
                workers,
                lane_ingest_ns,
                ..
            } => {
                for w in workers {
                    let slab = w.slab_stats();
                    counts.blocks += slab.blocks as u64;
                    counts.slab_slots += slab.slots as u64;
                }
                lane_ingest_ns.iter().copied().max().unwrap_or(0) as f64 * 1e-9
            }
        }
    }
}

/// Walks the layers over `inputs`. Static workloads ingest everything and
/// then drain; stream workloads spend a budget of [`WALK_K`] comparisons
/// after each increment and drain after the last. Spending alternates
/// pulls with idle ticks until a tick finds nothing, the stage-B loop's
/// own exit condition — so a stream walk, like a stream run, consumes
/// blocks through the tick fallback while they are still small.
///
/// `observer` is handed to every layer that takes one (the walk itself
/// reports `IncrementIngested` and `MatchConfirmed`, as the runtime does);
/// the timed walk passes a disabled one.
pub fn layer_walk(workload: &Workload, inputs: &Inputs, observer: &Observer) -> Walk {
    let increments = inputs.increments.clone();
    let matcher = workload.matcher();
    let entities = workload.wide.then(EntityIndex::new);
    let dictionary = SharedTokenDictionary::new();
    let tokenizer = Tokenizer::default();
    let mut scratch = String::new();
    let mut counts = WalkCounts {
        routed_tokens_per_shard: vec![0; workload.shards().map_or(0, |c| c.shards as usize)],
        ..WalkCounts::default()
    };
    let mut stage_a = StageA::new(workload, inputs, &dictionary, observer);
    let mut matches: HashSet<Comparison> = HashSet::new();
    let mut emitted_keys: Vec<u64> = Vec::new();
    let streaming = workload.interarrival_ms > 0;

    let mut tr = Tracer::new();
    let root = tr.enter("walk");

    // The stage-B loop under a comparison budget: pull, materialize,
    // classify and (wide) cluster; when a pull comes back empty run the
    // idle tick, and stop once a tick finds nothing either. Returns how
    // many comparisons were executed.
    let mut spend =
        |budget: usize, stage_a: &mut StageA, tr: &mut Tracer, counts: &mut WalkCounts| -> u64 {
            let mut executed = 0u64;
            let mut after_tick = false;
            while (executed as usize) < budget {
                let k = WALK_K.min(budget - executed as usize);
                let batch = stage_a.pull(k, tr, counts);
                counts.next_batch_calls += 1;
                if batch.is_empty() {
                    counts.next_batch_empty += 1;
                    counts.tick_calls += 1;
                    after_tick = stage_a.tick(tr);
                    if after_tick {
                        continue;
                    }
                    break;
                }
                counts.emitted += batch.len() as u64;
                if after_tick {
                    counts.tick_emitted += batch.len() as u64;
                }
                emitted_keys.extend(batch.iter().map(|c| c.key()));
                let pairs = stage_a.materialize(&batch, tr);
                let s = tr.enter("matching.evaluate");
                let confirmed: Vec<(Comparison, f64)> = pairs
                    .iter()
                    .filter_map(|p| {
                        let outcome = matcher.evaluate(MatchInput {
                            profile_a: &p.profile_a,
                            tokens_a: &p.tokens_a,
                            profile_b: &p.profile_b,
                            tokens_b: &p.tokens_b,
                        });
                        outcome.is_match.then_some((p.cmp, outcome.similarity))
                    })
                    .collect();
                tr.exit(s);
                executed += pairs.len() as u64;
                counts.comparisons += pairs.len() as u64;
                counts.matches += confirmed.len() as u64;
                for &(cmp, similarity) in &confirmed {
                    matches.insert(cmp);
                    observer.emit(|| Event::MatchConfirmed {
                        cmp,
                        similarity,
                        at_secs: tr.now_ns() as f64 * 1e-9,
                    });
                }
                if let Some(index) = &entities {
                    let s = tr.enter("entity.apply");
                    for (cmp, _) in &confirmed {
                        counts.entity_merges += u64::from(index.apply(*cmp));
                    }
                    tr.exit(s);
                    // One read beside every write, as a serving deployment has.
                    let s = tr.enter("entity.lookup");
                    for (cmp, _) in &confirmed {
                        std::hint::black_box(index.entity_of(cmp.a));
                    }
                    tr.exit(s);
                    counts.entity_lookups += confirmed.len() as u64;
                }
            }
            executed
        };

    for (seq, increment) in increments.into_iter().enumerate() {
        tr.seq = seq as u32;
        let inc = tr.enter("increment");
        let s = tr.enter("types.tokenize");
        let tokenized =
            tokenize_increment(&dictionary, &tokenizer, seq as u64, increment, &mut scratch);
        tr.exit(s);
        counts.profiles += tokenized.len() as u64;
        counts.tokens += tokenized
            .profiles
            .iter()
            .map(|tp| tp.tokens.len() as u64)
            .sum::<u64>();
        let profiles = tokenized.len();
        stage_a.ingest(tokenized.profiles, &mut tr, &mut counts);
        observer.emit(|| Event::IncrementIngested {
            seq: seq as u64,
            profiles,
        });
        if streaming {
            spend(WALK_K, &mut stage_a, &mut tr, &mut counts);
        }
        tr.exit(inc);
    }

    tr.seq = u32::MAX;
    let drain = tr.enter("drain");
    spend(usize::MAX, &mut stage_a, &mut tr, &mut counts);
    tr.exit(drain);
    tr.exit(root);

    let wall_s = {
        let root = tr.spans()[root as usize];
        (root.end_ns - root.start_ns) as f64 * 1e-9
    };
    counts.distinct_tokens = dictionary.len() as u64;
    counts.dictionary_bytes = dictionary.string_bytes() as u64;
    if let Some(index) = &entities {
        counts.entity_clusters = index.stats().clusters as u64;
    }
    let max_lane_ingest_s = stage_a.finish(&mut counts);
    Walk {
        tracer: tr,
        counts,
        wall_s,
        matches,
        emitted_keys,
        max_lane_ingest_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut tr = Tracer::new();
        let root = tr.enter("walk");
        let a = tr.enter("a");
        let b = tr.enter("b");
        tr.exit(b);
        tr.exit(a);
        let a2 = tr.enter("a");
        tr.exit(a2);
        tr.exit(root);
        // Replace the clock readings with known ones.
        let times = [(0, 100), (10, 60), (20, 50), (70, 90)];
        for (s, (start, end)) in tr.spans.iter_mut().zip(times) {
            s.start_ns = start;
            s.end_ns = end;
        }
        assert_eq!(tr.spans[2].parent, a);
        assert_eq!(tr.spans[3].parent, root);
        let own = tr.self_times();
        let get = |n: &str| own.iter().find(|(name, _)| *name == n).unwrap().1;
        assert!((get("walk") - 30e-9).abs() < 1e-15); // 100 - 50 - 20
        assert!((get("a") - 40e-9).abs() < 1e-15); // (50 - 30) + 20
        assert!((get("b") - 30e-9).abs() < 1e-15);
        let total: f64 = own.iter().map(|(_, s)| s).sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times add up to the root"
        );
    }
}
