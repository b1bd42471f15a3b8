//! # pier — Progressive Entity Resolution over Incremental Data
//!
//! A from-scratch Rust implementation of the PIER system (Gazzarri &
//! Herschel, EDBT 2023): schema-agnostic entity resolution over streaming
//! data that is simultaneously *incremental* (reuses all state across
//! increments) and *progressive* (executes the globally most promising
//! comparisons first, adaptively throttled by the matcher).
//!
//! ## Quick start
//!
//! ```
//! use pier::prelude::*;
//!
//! // A tiny Dirty-ER stream: two increments with one duplicate pair each.
//! let increments = vec![
//!     vec![
//!         EntityProfile::new(ProfileId(0), SourceId(0)).with("name", "Ada Lovelace"),
//!         EntityProfile::new(ProfileId(1), SourceId(0)).with("full_name", "Ada  Lovelace"),
//!     ],
//!     vec![
//!         EntityProfile::new(ProfileId(2), SourceId(0)).with("name", "Alan Turing"),
//!         EntityProfile::new(ProfileId(3), SourceId(0)).with("who", "Alan Turing"),
//!     ],
//! ];
//!
//! // Feed them through incremental blocking + the I-PES prioritizer.
//! let mut blocker = IncrementalBlocker::new(ErKind::Dirty);
//! let mut prioritizer = Ipes::new(PierConfig::default());
//! let matcher = JaccardMatcher::default();
//!
//! let mut matches = Vec::new();
//! for increment in &increments {
//!     let ids = blocker.process_increment(increment);
//!     prioritizer.on_increment(&blocker, &ids);
//!     // Between increments, execute the best pending comparisons.
//!     for cmp in prioritizer.next_batch(&blocker, 16) {
//!         let outcome = matcher.evaluate(MatchInput {
//!             profile_a: blocker.profile(cmp.a),
//!             tokens_a: blocker.tokens_of(cmp.a),
//!             profile_b: blocker.profile(cmp.b),
//!             tokens_b: blocker.tokens_of(cmp.b),
//!         });
//!         if outcome.is_match {
//!             matches.push(cmp);
//!         }
//!     }
//! }
//! assert_eq!(matches.len(), 2);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`types`] | entity profiles, tokenization, datasets, PC/PQ metrics |
//! | [`collections`] | bounded priority queues, lazy min-heap, scalable Bloom filter |
//! | [`blocking`] | incremental token blocking, purging, ghosting |
//! | [`metablocking`] | CBS & friends, blocking graph, WNP/CNP, I-WNP |
//! | [`matching`] | Jaccard / edit-distance matchers with cost reporting |
//! | [`core`] | the PIER framework + I-PCS, I-PBS, I-PES |
//! | [`shard`] | hash-partitioned parallel stage A with global-priority merge |
//! | [`baselines`] | batch ER, PBS, PPS(-GLOBAL/-LOCAL), I-BASE |
//! | [`datagen`] | seeded generators for the paper's four corpora |
//! | [`sim`] | virtual-clock pipeline simulator behind every figure |
//! | [`runtime`] | real multi-threaded streaming runtime |
//! | [`observe`] | zero-cost pipeline instrumentation, stats, JSONL export and its replays (PC, Perfetto trace) |
//! | [`metrics`] | live telemetry: lock-free registry, queue gauges, Prometheus endpoint |
//! | [`entity`] | incremental entity clustering: concurrent union-find index + live HTTP query endpoint |
//! | [`chaos`] | deterministic fault injection: seeded serializable fault plans for chaos testing |

#![warn(missing_docs)]

pub use pier_baselines as baselines;
pub use pier_blocking as blocking;
pub use pier_chaos as chaos;
pub use pier_collections as collections;
pub use pier_core as core;
pub use pier_datagen as datagen;
pub use pier_entity as entity;
pub use pier_matching as matching;
pub use pier_metablocking as metablocking;
pub use pier_metrics as metrics;
pub use pier_observe as observe;
pub use pier_runtime as runtime;
pub use pier_shard as shard;
pub use pier_sim as sim;
pub use pier_types as types;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use pier_baselines::{BatchEr, GsPsn, IBase, LsPsn, Pbs, Pps, PpsScope};
    pub use pier_blocking::{
        block_stats, ghost_blocks, load_checkpoint, save_checkpoint, BlockCollection, BlockId,
        BlockStats, IncrementalBlocker, PurgePolicy,
    };
    pub use pier_chaos::{Fault, FaultKind, FaultPlan, FaultPoint};
    pub use pier_collections::{BoundedMaxHeap, LazyMinHeap, ScalableBloomFilter};
    pub use pier_core::{
        recommend, AdaptiveK, BlockCursor, ComparisonEmitter, Ipbs, Ipcs, Ipes, PierConfig,
        PierPipeline, Recommendation, StageA, Strategy,
    };
    pub use pier_datagen::{
        generate_bibliographic, generate_census, generate_dbpedia, generate_movies,
        BibliographicConfig, CensusConfig, DbpediaConfig, MoviesConfig, StandardDataset,
    };
    pub use pier_entity::{
        ClusterObserver, EntityCluster, EntityIndex, EntityLookup, EntityServer, EntitySnapshot,
        EntityStats, EntitySummary,
    };
    pub use pier_matching::{
        levenshtein_bounded, levenshtein_naive, ClassifiedMatch, CosineMatcher,
        EditDistanceMatcher, HybridMatcher, JaccardMatcher, MatchFunction, MatchInput,
        MatchOutcome, OracleMatcher, PreparedProfile, StageB,
    };
    pub use pier_metablocking::{iwnp, BlockingGraph, IwnpConfig, WeightingScheme};
    pub use pier_metrics::{
        MetricsObserver, MetricsRegistry, MetricsServer, QueueGauges, Telemetry,
    };
    pub use pier_observe::ObserverSet;
    pub use pier_observe::{
        read_events, replay_match_count, replay_trajectory, write_chrome_trace, Event,
        JsonlObserver, NoopObserver, Observer, Phase, PipelineObserver, ShardSnapshot,
        StatsObserver, StatsSnapshot, TimedEvent, WorkerSnapshot,
    };
    pub use pier_runtime::{
        chunk_ranges, default_match_workers, tokenize_increment, DeadLetter, DictionaryStats,
        IdleBackoff, MatchEvent, Pipeline, PipelineBuilder, RuntimeConfig, RuntimeReport,
        ShedPolicy, TokenizedIncrement, TokenizedProfile,
    };
    pub use pier_shard::{
        FanOut, ProfileStore, ShardMerger, ShardRouter, ShardWorker, ShardedConfig, ShardedStageA,
    };
    pub use pier_sim::{
        arrival_schedule, arrival_times, ArrivalPattern, CostModel, MatcherMode, Method,
        PipelineSim, SimConfig, SimOutcome, StreamPlan,
    };
    pub use pier_types::{
        Comparison, Dataset, EntityProfile, ErKind, GroundTruth, Increment, IncrementalClusters,
        MatchLedger, PierError, ProfileId, ProgressTrajectory, SharedTokenDictionary, SourceId,
        TokenId, Tokenizer, WeightedComparison,
    };
}
