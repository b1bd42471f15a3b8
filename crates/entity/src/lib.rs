//! Incremental entity clustering and live query serving for PIER.
//!
//! The progressive pipeline emits a ranked stream of confirmed matches;
//! this crate turns that stream into what a client actually wants — an
//! evolving partition of profiles into *entities* — and serves it while
//! the stream is still running. Two layers:
//!
//! * [`EntityIndex`] — a concurrent union-find (path halving + union by
//!   size) over [`pier_types::ProfileId`]s, maintaining cluster count,
//!   size histogram, and per-cluster member lists with a monotone
//!   generation counter, safe to read from any thread mid-merge.
//!   [`ClusterObserver`] bridges it onto a run: compose it into the
//!   run's `ObserverSet` (the runtime `Pipeline` does this, labelled
//!   `"entities"`, when `RuntimeConfig::entities` is set) and every
//!   [`pier_observe::Event::MatchConfirmed`] folds into the partition in
//!   confirmation order, for any stage-B worker count.
//! * [`EntityServer`] — a zero-dependency HTTP endpoint answering
//!   `GET /entity/{profile_id}`, `GET /clusters`, and `GET /healthz` with
//!   hand-rolled JSON, each response built from a single consistent view
//!   of the index.
//!
//! ```
//! use pier_entity::{ClusterObserver, EntityIndex};
//! use pier_observe::{Event, PipelineObserver};
//! use pier_types::{Comparison, ProfileId};
//!
//! let index = EntityIndex::shared();
//! let observer = ClusterObserver::new(std::sync::Arc::clone(&index));
//! observer.on_event(&Event::MatchConfirmed {
//!     cmp: Comparison::new(ProfileId(7), ProfileId(9)),
//!     similarity: 0.93,
//!     at_secs: 0.1,
//! });
//! assert_eq!(index.entity_of(ProfileId(7)), index.entity_of(ProfileId(9)));
//! ```

#![warn(missing_docs)]

mod index;
mod observer;
mod server;

pub use index::{
    EntityCluster, EntityIndex, EntityLookup, EntitySnapshot, EntityStats, EntitySummary,
    TOP_CLUSTERS,
};
pub use observer::ClusterObserver;
pub use server::EntityServer;
