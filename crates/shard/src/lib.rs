//! Hash-partitioned parallel stage A for PIER.
//!
//! The paper's pipeline has two resources: stage A (blocking + weighting +
//! prioritization) and stage B (matching). Our runtime executes stage A on
//! one thread, so it saturates long before the matcher at high arrival
//! rates. Token blocking shards naturally: a block *is* a token (block id ≡
//! interned [`pier_types::TokenId`]), so hashing each token's dense id to
//! one of N shards partitions the block collection exactly — and with it
//! every per-block decision (membership order, purging). Block ghosting
//! additionally needs the *global* smallest block of a profile, which the
//! router computes from full token counts and ships to each shard as a
//! ghost floor.
//!
//! * [`ShardRouter`] — assigns tokens to shards and fans each profile out
//!   to every shard owning ≥ 1 of its tokens.
//! * [`ShardWorker`] — one shard's [`pier_core::StageA`] step machine
//!   (blocker + unchanged I-PCS/I-PBS/I-PES emitter) over its token
//!   subspace, reporting through a shard-tagged observer.
//! * [`ShardMerger`] — k-way merge over the per-shard streams: globally
//!   top-`k` batches, with the shared scalable-Bloom `CF` deduplicating
//!   pairs that co-occur in several shards' blocks.
//! * [`ShardedStageA`] — the synchronous composition (router → workers →
//!   merger) plus the global [`ProfileStore`] backing matcher lookups.
//!   [`ProfileStore::fan_out`] is the one routing step (store, then ghost
//!   floors, then per-shard skeletons) it shares with the threaded runtime.
//!
//! **Correctness.** With CBS weighting, a fully drained sharded run emits
//! exactly the comparison set of the unsharded run (CBS is additive over
//! the partitioned blocks: `CBS(x,y) = Σ_s CBS_s(x,y)`), differing only in
//! order within equal-weight ties; schemes needing global degree counters
//! (ECBS, JS) are not shard-exact — see DESIGN.md §8. The threaded driver
//! is the sharded topology of `pier-runtime`'s `Pipeline` builder.

#![warn(missing_docs)]

mod merger;
mod pipeline;
mod router;
mod worker;

pub use merger::ShardMerger;
pub use pipeline::{FanOut, ProfileStore, ShardedConfig, ShardedStageA};
pub use router::ShardRouter;
pub use worker::ShardWorker;
