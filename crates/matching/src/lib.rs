//! Match functions for PIER.
//!
//! The paper evaluates every algorithm under two pipeline configurations
//! (§7.1): a *cheap* matcher based on Jaccard similarity over token sets
//! (JS) and an *expensive* matcher based on edit distance over the profiles'
//! flattened text (ED). The matcher's cost is what throttles the adaptive
//! batch size `K` of Algorithm 1, so every match function reports the amount
//! of work it performed in abstract "ops" alongside its decision; the
//! simulator converts ops to virtual seconds, and the threaded runtime just
//! burns the real CPU time.
//!
//! * [`similarity`] — the underlying similarity measures.
//! * [`levenshtein`] — the bit-parallel (Myers) edit-distance kernel, its
//!   threshold-aware bounded variant, and the naive DP oracle.
//! * [`matcher`] — the [`MatchFunction`] trait (`prepare` once per profile,
//!   `compare` per pair) and the JS/ED matchers.
//! * [`oracle`] — a ground-truth oracle matcher for isolating
//!   prioritization quality in tests.
//! * [`extra`] — cosine and hybrid (prefilter + confirm) matchers beyond
//!   the paper's two configurations.
//! * [`stage_b`] — the Incremental Classification pipeline stage: one step
//!   machine over a prepared-profile table, keeping the duplicate set `M_D`
//!   and entity clusters across increments.

#![warn(missing_docs)]

pub mod extra;
pub mod levenshtein;
pub mod matcher;
pub mod oracle;
pub mod similarity;
pub mod stage_b;

pub use extra::{CosineMatcher, HybridMatcher};
pub use levenshtein::{levenshtein_bounded, levenshtein_naive};
pub use matcher::{
    EditDistanceMatcher, JaccardMatcher, MatchFunction, MatchInput, MatchOutcome, PreparedProfile,
};
pub use oracle::OracleMatcher;
pub use stage_b::{ClassifiedMatch, PreparedPair, ProfileEntry, ProfileTable, StageB};
