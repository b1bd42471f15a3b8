//! Real-time multi-threaded PIER pipeline.
//!
//! Where [`pier-sim`](../pier_sim/index.html) reproduces the paper's
//! experiments on a virtual clock, this crate runs the same components as
//! an actual streaming system — the role Akka Streams plays in the paper's
//! Scala implementation (§7.1). The one entry point is the composable
//! [`Pipeline`] builder/executor (see [`pipeline`] for the stage graph):
//!
//! * a **source** thread replays increments at a configurable rate;
//! * **stage A** maintains incremental blocking and feeds the
//!   prioritizer — either a single shared blocker
//!   ([`PipelineBuilder::emitter`]) or a hash-partitioned tokenizer pool →
//!   router → shard workers → merger ([`PipelineBuilder::sharded`]);
//! * a **matching** thread (stage B) classifies batches of the
//!   adaptively-sized `K` best comparisons, sharing the matcher
//!   evaluations with `match_workers - 1` helper threads
//!   ([`RuntimeConfig::match_workers`]) and the lane, which claim chunks
//!   of one shared batch, while it records every event in batch order;
//! * match events flow to the caller as they are found, with real
//!   timestamps.
//!
//! Observation is always on and composes through one
//! [`pier_observe::ObserverSet`] (re-exported as [`ObserverSet`]): the
//! caller's labelled sinks, plus the implicit `"metrics"` sink when
//! [`RuntimeConfig::telemetry`] is set and the `"entities"` cluster sink
//! when [`RuntimeConfig::entities`] is set. An empty set costs nothing.
//!
//! Stage A is the [`pier_core::StageA`] step machine in both topologies,
//! and each machine has one owner: the single topology's lane thread
//! takes increments in and pushes materialized batches out, running a
//! batch or two ahead of the classifier; the sharded topology gives each
//! shard worker thread its own and has stage B ask them. Threads
//! communicate over `crossbeam` channels and share no lock around a
//! machine.

#![warn(missing_docs)]

mod lane;
pub mod pipeline;
mod pool;
pub mod report;
pub mod stages;
pub mod supervisor;

pub use pier_entity::{EntityIndex, EntityServer, EntitySummary};
pub use pier_metrics::{MetricsServer, Telemetry};
pub use pier_observe::ObserverSet;
pub use pipeline::{default_match_workers, Pipeline, PipelineBuilder, RuntimeConfig};
pub use pool::HELP_CHUNK;
pub use report::{DictionaryStats, MatchEvent, RuntimeReport};
pub use stages::{tokenize_increment, IdleBackoff, TokenizedIncrement, TokenizedProfile};
pub use supervisor::{DeadLetter, IngestJournal, JournalEntry, Supervisor};
