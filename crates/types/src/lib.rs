//! Core data model for the PIER system (Progressive Entity Resolution over
//! Incremental Data, Gazzarri & Herschel, EDBT 2023).
//!
//! This crate defines the schema-agnostic entity model shared by every other
//! crate in the workspace:
//!
//! * [`profile`] — entity profiles as bags of attribute/value pairs with no
//!   fixed schema, plus profile/source identifiers.
//! * [`tokenizer`] — schema-agnostic tokenization of profile values into the
//!   token sets used by token blocking and Jaccard matching.
//! * [`hash`] — the vendored Fx hasher behind the token dictionary and
//!   every internal id-keyed map of the workspace.
//! * [`comparison`] — canonical unordered profile pairs ("comparisons") and
//!   weighted comparisons.
//! * [`clusters`] — incremental entity clustering (online transitive
//!   closure over the match stream).
//! * [`dataset`] — datasets (Dirty or Clean-Clean), ground truth, and
//!   splitting into stream increments.
//! * [`metrics`] — pair completeness (PC), pairs quality (PQ), progressive
//!   recall trajectories and their summary statistics.
//! * [`csv`] — a small dependency-free CSV reader/writer used to export
//!   datasets and experiment trajectories.
//! * [`error`] — the shared error type.

#![warn(missing_docs)]

pub mod clusters;
pub mod comparison;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod hash;
pub mod metrics;
pub mod profile;
pub mod tokenizer;

pub use clusters::IncrementalClusters;
pub use comparison::{Comparison, WeightedComparison};
pub use dataset::{Dataset, ErKind, GroundTruth, Increment};
pub use error::PierError;
pub use metrics::{MatchLedger, ProgressPoint, ProgressTrajectory};
pub use profile::{Attribute, EntityProfile, ProfileId, SourceId};
pub use tokenizer::{SharedTokenDictionary, TokenId, Tokenizer};
