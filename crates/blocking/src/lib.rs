//! Incremental, schema-agnostic blocking for PIER.
//!
//! Token blocking places every profile into one block per distinct token
//! occurring in any of its attribute values (§2.1, §3.2 of the paper). In the
//! incremental setting the block collection is *maintained*, never rebuilt:
//! each arriving profile is appended to the blocks of its tokens, new blocks
//! are created on demand, and oversized blocks are purged.
//!
//! * [`collection`] — the incrementally-maintained [`BlockCollection`].
//! * [`purging`] — incremental block purging (oversized-block cleaning).
//! * [`ghosting`] — block ghosting, the per-profile incremental block
//!   cleaning of \[17\] used by I-PCS and I-PES (parameter β).
//! * [`builder`] — the [`IncrementalBlocker`] pipeline stage: tokenizer +
//!   dictionary + collection, consuming increments of profiles.
//! * [`stats`] — block-size distribution statistics (skew, histogram,
//!   cardinality) for diagnostics.
//! * [`checkpoint`] — save/restore the blocking state of a long-running
//!   stream consumer.

#![warn(missing_docs)]

pub mod builder;
pub mod checkpoint;
pub mod collection;
pub mod ghosting;
pub mod purging;
pub mod stats;

pub use builder::IncrementalBlocker;
pub use checkpoint::{load_checkpoint, save_checkpoint};
pub use collection::{Block, BlockCollection, BlockId, Partners, PivotCbs, SlabStats};
pub use ghosting::ghost_blocks;
pub use purging::PurgePolicy;
pub use stats::{block_stats, BlockStats};
