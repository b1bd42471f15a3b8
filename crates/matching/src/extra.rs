//! Additional match functions beyond the paper's JS/ED configurations.
//!
//! * [`CosineMatcher`] — binary cosine over token sets; forgiving of size
//!   imbalance between a terse source and a verbose one (dbpedia-like
//!   snapshots), at the same linear cost as JS.
//! * [`HybridMatcher`] — the common production pattern: a cheap token
//!   prefilter rejects obvious non-matches, the expensive edit-distance
//!   check confirms only plausible candidates. Cost is adaptive: cheap on
//!   most pairs, quadratic only on the survivors — which the PIER cost
//!   model captures faithfully because `compare` reports *measured* ops.

use pier_types::{EntityProfile, TokenId};

use crate::matcher::{EditDistanceMatcher, MatchFunction, MatchOutcome, PreparedProfile};
use crate::similarity::{cosine_tokens, jaccard_tokens};

/// Cosine similarity over distinct token sets with a threshold.
#[derive(Debug, Clone, Copy)]
pub struct CosineMatcher {
    /// Similarity at or above which a pair is classified as a match.
    pub threshold: f64,
}

impl Default for CosineMatcher {
    fn default() -> Self {
        CosineMatcher { threshold: 0.6 }
    }
}

impl MatchFunction for CosineMatcher {
    fn compare(
        &self,
        a: &PreparedProfile,
        tokens_a: &[TokenId],
        b: &PreparedProfile,
        tokens_b: &[TokenId],
    ) -> MatchOutcome {
        let similarity = cosine_tokens(tokens_a, tokens_b);
        MatchOutcome {
            is_match: similarity >= self.threshold,
            similarity,
            ops: self.pair_ops(a.size(), b.size()),
        }
    }

    fn profile_size(&self, _profile: &EntityProfile, tokens: &[TokenId]) -> u64 {
        tokens.len() as u64
    }

    fn pair_ops(&self, size_a: u64, size_b: u64) -> u64 {
        (size_a + size_b).max(1)
    }

    fn name(&self) -> &'static str {
        "COS"
    }
}

/// Two-stage matcher: Jaccard prefilter, edit-distance confirmation.
///
/// A pair whose token overlap is below `prefilter_threshold` is rejected
/// at linear cost; otherwise the (quadratic) edit-distance check decides.
#[derive(Debug, Clone, Copy)]
pub struct HybridMatcher {
    /// Jaccard similarity below which a pair is rejected without running
    /// edit distance.
    pub prefilter_threshold: f64,
    /// The confirmation stage.
    pub confirm: EditDistanceMatcher,
}

impl Default for HybridMatcher {
    fn default() -> Self {
        HybridMatcher {
            prefilter_threshold: 0.2,
            confirm: EditDistanceMatcher::default(),
        }
    }
}

impl MatchFunction for HybridMatcher {
    fn prepare(&self, profile: &EntityProfile, tokens: &[TokenId]) -> PreparedProfile {
        // The confirmation stage's text under this matcher's packed size.
        PreparedProfile::new(profile.id, self.profile_size(profile, tokens))
            .with_text(self.confirm.clipped(profile))
    }

    fn compare(
        &self,
        a: &PreparedProfile,
        tokens_a: &[TokenId],
        b: &PreparedProfile,
        tokens_b: &[TokenId],
    ) -> MatchOutcome {
        let prefilter_ops = (tokens_a.len() + tokens_b.len()).max(1) as u64;
        let jac = jaccard_tokens(tokens_a, tokens_b);
        if jac < self.prefilter_threshold {
            return MatchOutcome {
                is_match: false,
                similarity: jac,
                ops: prefilter_ops,
            };
        }
        let (is_match, similarity) = self.confirm.classify(a, b);
        MatchOutcome {
            is_match,
            similarity,
            // The confirmation stage's own size is the upper part of the
            // packed one (see `profile_size`).
            ops: prefilter_ops + self.confirm.pair_ops(a.size() >> 16, b.size() >> 16),
        }
    }

    fn profile_size(&self, profile: &EntityProfile, tokens: &[TokenId]) -> u64 {
        // Pack both statistics: token count in the low 16 bits, clipped
        // char count above. Token counts beyond 65k clamp (cost-model
        // fidelity is irrelevant at that point).
        let t = (tokens.len() as u64).min(0xFFFF);
        let c = self.confirm.profile_size(profile, tokens);
        (c << 16) | t
    }

    fn pair_ops(&self, size_a: u64, size_b: u64) -> u64 {
        // Cost estimate without knowing the prefilter outcome: assume the
        // worst case (both stages) — conservative for scheduling.
        let (ta, ca) = (size_a & 0xFFFF, size_a >> 16);
        let (tb, cb) = (size_b & 0xFFFF, size_b >> 16);
        (ta + tb).max(1) + ca * cb
    }

    fn name(&self) -> &'static str {
        "JS+ED"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::MatchInput;
    use pier_types::{ProfileId, SourceId};

    fn profile(id: u32, text: &str) -> EntityProfile {
        EntityProfile::new(ProfileId(id), SourceId(0)).with("text", text)
    }

    fn toks(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    #[test]
    fn cosine_matcher_classifies() {
        let m = CosineMatcher { threshold: 0.5 };
        let pa = profile(0, "");
        let ta = toks(&[1, 2, 3]);
        let tb = toks(&[2, 3, 4]);
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &ta,
            profile_b: &pa,
            tokens_b: &tb,
        });
        // cosine = 2/3 >= 0.5
        assert!(out.is_match);
        assert!((out.similarity - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(out.ops, 6);
        assert_eq!(m.name(), "COS");
    }

    #[test]
    fn hybrid_rejects_cheaply_below_prefilter() {
        let m = HybridMatcher::default();
        let pa = profile(0, &"x".repeat(200));
        let pb = profile(1, &"y".repeat(200));
        let ta = toks(&[1, 2, 3]);
        let tb = toks(&[10, 11, 12]);
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &ta,
            profile_b: &pb,
            tokens_b: &tb,
        });
        assert!(!out.is_match);
        // Only the linear prefilter ran.
        assert_eq!(out.ops, 6);
    }

    #[test]
    fn hybrid_confirms_with_edit_distance() {
        let m = HybridMatcher::default();
        let pa = profile(0, "The Matrix Reloaded 2003");
        let pb = profile(1, "The Matrix Reloded 2003");
        let shared = toks(&[1, 2, 3, 4]);
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &shared,
            profile_b: &pb,
            tokens_b: &shared,
        });
        assert!(out.is_match);
        // Both stages ran: ops exceed the prefilter cost.
        assert!(out.ops > 8);
    }

    #[test]
    fn hybrid_pair_ops_packs_both_statistics() {
        let m = HybridMatcher::default();
        let pa = profile(0, "twelve chars");
        let ta = toks(&[1, 2]);
        let sa = m.profile_size(&pa, &ta);
        assert_eq!(sa & 0xFFFF, 2); // token count
        assert_eq!(sa >> 16, 12); // char count
                                  // pair_ops is at least the quadratic term.
        assert!(m.pair_ops(sa, sa) >= 144);
    }

    #[test]
    fn hybrid_name_is_stable() {
        assert_eq!(HybridMatcher::default().name(), "JS+ED");
    }
}
