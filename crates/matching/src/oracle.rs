//! Ground-truth oracle matcher.
//!
//! Classifies a pair by looking it up in the ground truth, with a fixed
//! per-comparison cost. Tests and ablations use it to isolate the quality of
//! the *prioritization* from the quality of the similarity measure: with an
//! oracle, PC and classification recall coincide.

use std::sync::Arc;

use pier_types::{Comparison, EntityProfile, GroundTruth, TokenId};

use crate::matcher::{MatchFunction, MatchOutcome, PreparedProfile};

/// A matcher that consults the ground truth. The truth is immutable after
/// construction, so an `Arc` suffices for cross-thread sharing.
#[derive(Debug, Clone)]
pub struct OracleMatcher {
    truth: Arc<GroundTruth>,
    /// Fixed work charged per comparison, in ops.
    pub ops_per_comparison: u64,
}

impl OracleMatcher {
    /// Creates an oracle over `truth` charging `ops_per_comparison` per
    /// evaluation.
    pub fn new(truth: GroundTruth, ops_per_comparison: u64) -> Self {
        OracleMatcher {
            truth: Arc::new(truth),
            ops_per_comparison: ops_per_comparison.max(1),
        }
    }
}

impl MatchFunction for OracleMatcher {
    fn compare(
        &self,
        a: &PreparedProfile,
        _tokens_a: &[TokenId],
        b: &PreparedProfile,
        _tokens_b: &[TokenId],
    ) -> MatchOutcome {
        let is_match = self.truth.is_match(Comparison::new(a.id(), b.id()));
        MatchOutcome {
            is_match,
            similarity: if is_match { 1.0 } else { 0.0 },
            ops: self.ops_per_comparison,
        }
    }

    fn profile_size(&self, _profile: &EntityProfile, _tokens: &[TokenId]) -> u64 {
        1
    }

    fn pair_ops(&self, _size_a: u64, _size_b: u64) -> u64 {
        self.ops_per_comparison
    }

    fn name(&self) -> &'static str {
        "ORACLE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::MatchInput;
    use pier_types::{ProfileId, SourceId};

    #[test]
    fn oracle_follows_ground_truth() {
        let gt = GroundTruth::from_pairs([(ProfileId(0), ProfileId(1))]);
        let m = OracleMatcher::new(gt, 5);
        let pa = EntityProfile::new(ProfileId(0), SourceId(0));
        let pb = EntityProfile::new(ProfileId(1), SourceId(0));
        let pc = EntityProfile::new(ProfileId(2), SourceId(0));
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &[],
            profile_b: &pb,
            tokens_b: &[],
        });
        assert!(out.is_match);
        assert_eq!(out.similarity, 1.0);
        assert_eq!(out.ops, 5);
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &[],
            profile_b: &pc,
            tokens_b: &[],
        });
        assert!(!out.is_match);
        assert_eq!(out.similarity, 0.0);
    }

    #[test]
    fn zero_ops_is_clamped_to_one() {
        let m = OracleMatcher::new(GroundTruth::new(), 0);
        assert_eq!(m.ops_per_comparison, 1);
    }

    #[test]
    fn oracle_is_cloneable_and_shares_truth() {
        let gt = GroundTruth::from_pairs([(ProfileId(0), ProfileId(1))]);
        let m1 = OracleMatcher::new(gt, 1);
        let m2 = m1.clone();
        let pa = EntityProfile::new(ProfileId(0), SourceId(0));
        let pb = EntityProfile::new(ProfileId(1), SourceId(0));
        let input = MatchInput {
            profile_a: &pa,
            tokens_a: &[],
            profile_b: &pb,
            tokens_b: &[],
        };
        assert!(m1.evaluate(input).is_match);
        assert!(m2.evaluate(input).is_match);
    }
}
