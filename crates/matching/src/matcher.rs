//! The [`MatchFunction`] trait and the paper's two matcher configurations.
//!
//! A match function works in two steps. [`MatchFunction::prepare`] reads
//! one profile and keeps what the matcher needs from it — work whose cost
//! depends on that profile alone (flattening and clipping its text,
//! counting its characters). [`MatchFunction::compare`] then decides a pair
//! from two prepared profiles. A profile takes part in hundreds of
//! comparisons, so every executor keeps the [`PreparedProfile`] in a
//! [`crate::ProfileTable`] and pays the first step once per profile;
//! [`MatchFunction::evaluate`] is the two steps composed, for library
//! callers that look at a pair once.

use pier_types::{EntityProfile, ProfileId, TokenId};

use crate::levenshtein::levenshtein_bounded;
use crate::similarity::jaccard_tokens;

/// Everything a match function may look at for one comparison.
#[derive(Debug, Clone, Copy)]
pub struct MatchInput<'a> {
    /// First profile.
    pub profile_a: &'a EntityProfile,
    /// Sorted distinct token ids of the first profile.
    pub tokens_a: &'a [TokenId],
    /// Second profile.
    pub profile_b: &'a EntityProfile,
    /// Sorted distinct token ids of the second profile.
    pub tokens_b: &'a [TokenId],
}

/// The result of evaluating one comparison (by default a non-match at
/// similarity 0).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MatchOutcome {
    /// Classification: do the two profiles refer to the same entity?
    pub is_match: bool,
    /// The raw similarity in `[0, 1]`.
    pub similarity: f64,
    /// Abstract work performed, in elementary operations. The simulator
    /// divides by its calibrated ops/second to obtain virtual time; the
    /// threaded runtime ignores it (real time elapses instead).
    pub ops: u64,
}

/// What one match function keeps of one profile between comparisons (see
/// [`MatchFunction::prepare`]). It belongs to the matcher that made it:
/// another matcher, or the same type under another configuration, reads it
/// differently.
///
/// Token matchers keep the id and the size only, which allocates nothing;
/// the edit-distance matchers also keep the clipped text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedProfile {
    id: ProfileId,
    size: u64,
    text: Box<str>,
    chars: usize,
}

impl PreparedProfile {
    /// A prepared profile with no text: the profile's id and the matcher's
    /// [`MatchFunction::profile_size`] of it.
    pub fn new(id: ProfileId, size: u64) -> Self {
        PreparedProfile {
            id,
            size,
            text: Box::default(),
            chars: 0,
        }
    }

    /// Adds the text a string matcher compares.
    #[must_use]
    pub fn with_text(mut self, text: String) -> Self {
        self.chars = text.chars().count();
        self.text = text.into_boxed_str();
        self
    }

    /// The id of the profile this was prepared from.
    pub fn id(&self) -> ProfileId {
        self.id
    }

    /// The preparing matcher's [`MatchFunction::profile_size`].
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// A pluggable match function (§2.1: similarity measure + threshold).
pub trait MatchFunction: Send + Sync {
    /// Reads one profile once: everything [`MatchFunction::compare`] needs
    /// from it, so that no comparison repeats work that depends on one
    /// side only. Profiles are immutable once ingested, so the result may
    /// be kept for as long as the profile is. The default keeps the id and
    /// [`MatchFunction::profile_size`], which is all a matcher over token
    /// sets needs; a matcher over text adds the text.
    fn prepare(&self, profile: &EntityProfile, tokens: &[TokenId]) -> PreparedProfile {
        PreparedProfile::new(profile.id, self.profile_size(profile, tokens))
    }

    /// Decides one pair from two profiles this matcher prepared and their
    /// sorted distinct token ids.
    fn compare(
        &self,
        a: &PreparedProfile,
        tokens_a: &[TokenId],
        b: &PreparedProfile,
        tokens_b: &[TokenId],
    ) -> MatchOutcome;

    /// Evaluates one comparison from scratch: prepares both sides, then
    /// compares them. Matchers implement the two steps, not this.
    fn evaluate(&self, input: MatchInput<'_>) -> MatchOutcome {
        let a = self.prepare(input.profile_a, input.tokens_a);
        let b = self.prepare(input.profile_b, input.tokens_b);
        self.compare(&a, input.tokens_a, &b, input.tokens_b)
    }

    /// A per-profile size statistic from which the pair cost derives: the
    /// token count for JS, and for ED the number of characters in the
    /// profile's values — separators between values not counted — capped
    /// at `max_chars` and at least 1. (The text ED compares does contain
    /// the separators, so this is at most its length, not equal to it;
    /// simulator figures are calibrated on this value.) A prepared profile
    /// keeps it as [`PreparedProfile::size`].
    fn profile_size(&self, profile: &EntityProfile, tokens: &[TokenId]) -> u64;

    /// Work in ops for a pair of profiles with the given size statistics.
    fn pair_ops(&self, size_a: u64, size_b: u64) -> u64;

    /// Short stable name used in experiment output ("JS", "ED", ...).
    fn name(&self) -> &'static str;
}

/// The cheap matcher: Jaccard similarity over distinct token sets.
///
/// Work is linear in the token counts, making the downstream matcher fast —
/// the configuration where Algorithm 1's adaptive `K` grows large.
#[derive(Debug, Clone, Copy)]
pub struct JaccardMatcher {
    /// Similarity at or above which a pair is classified as a match.
    pub threshold: f64,
}

impl Default for JaccardMatcher {
    fn default() -> Self {
        JaccardMatcher { threshold: 0.5 }
    }
}

impl MatchFunction for JaccardMatcher {
    fn compare(
        &self,
        a: &PreparedProfile,
        tokens_a: &[TokenId],
        b: &PreparedProfile,
        tokens_b: &[TokenId],
    ) -> MatchOutcome {
        let similarity = jaccard_tokens(tokens_a, tokens_b);
        MatchOutcome {
            is_match: similarity >= self.threshold,
            similarity,
            ops: self.pair_ops(a.size, b.size),
        }
    }

    fn profile_size(&self, _profile: &EntityProfile, tokens: &[TokenId]) -> u64 {
        tokens.len() as u64
    }

    fn pair_ops(&self, size_a: u64, size_b: u64) -> u64 {
        (size_a + size_b).max(1)
    }

    fn name(&self) -> &'static str {
        "JS"
    }
}

/// The expensive matcher: normalized Levenshtein distance over the
/// flattened profile text.
///
/// Work is quadratic in the value lengths; with long heterogeneous values
/// (dbpedia-like data) this matcher dominates the pipeline and `K` shrinks.
/// `max_chars` caps the compared prefix (and the charged cost) so a single
/// pathological profile cannot stall a run; the default of 256 characters
/// comfortably covers the flattened text of the benchmark generators.
#[derive(Debug, Clone, Copy)]
pub struct EditDistanceMatcher {
    /// Similarity at or above which a pair is classified as a match.
    pub threshold: f64,
    /// Maximum number of characters of flattened text compared per profile.
    pub max_chars: usize,
}

impl Default for EditDistanceMatcher {
    fn default() -> Self {
        EditDistanceMatcher {
            threshold: 0.55,
            max_chars: 256,
        }
    }
}

impl EditDistanceMatcher {
    /// The text this matcher compares: the flattened profile, cut after
    /// `max_chars` characters.
    pub(crate) fn clipped(&self, p: &EntityProfile) -> String {
        let mut text = p.flattened_text();
        // A text of at most `max_chars` bytes has at most as many chars.
        if text.len() > self.max_chars {
            if let Some((byte, _)) = text.char_indices().nth(self.max_chars) {
                text.truncate(byte);
            }
        }
        text
    }

    /// Largest edit distance `k` for which `1 − k/max_len` still passes the
    /// threshold test. Derived with float-consistent adjustment loops so
    /// `distance ≤ k ⟺ similarity ≥ threshold` holds exactly under the same
    /// f64 arithmetic the similarity test uses — no boundary pair can flip
    /// classification relative to the unbounded path.
    fn max_matching_distance(&self, max_len: usize) -> usize {
        let len = max_len as f64;
        let mut k = ((((1.0 - self.threshold) * len).floor()).max(0.0) as usize).min(max_len);
        while k < max_len && 1.0 - (k + 1) as f64 / len >= self.threshold {
            k += 1;
        }
        while k > 0 && 1.0 - k as f64 / len < self.threshold {
            k -= 1;
        }
        k
    }

    /// The classification and similarity of two prepared texts — `compare`
    /// without the cost figure, which [`crate::HybridMatcher`] charges its
    /// own way.
    pub(crate) fn classify(&self, a: &PreparedProfile, b: &PreparedProfile) -> (bool, f64) {
        let max_len = a.chars.max(b.chars);
        if max_len == 0 {
            // Two empty profiles carry no evidence of a match.
            return (false, 0.0);
        }
        let k = self.max_matching_distance(max_len);
        match levenshtein_bounded(&a.text, &b.text, k) {
            Some(d) => {
                let similarity = 1.0 - d as f64 / max_len as f64;
                (similarity >= self.threshold, similarity)
            }
            // The kernel abandoned the pair once distance > k was certain:
            // not a match. The exact similarity was never computed; report
            // the tightest known upper bound.
            None => (false, (1.0 - (k + 1) as f64 / max_len as f64).max(0.0)),
        }
    }
}

impl MatchFunction for EditDistanceMatcher {
    fn prepare(&self, profile: &EntityProfile, tokens: &[TokenId]) -> PreparedProfile {
        PreparedProfile::new(profile.id, self.profile_size(profile, tokens))
            .with_text(self.clipped(profile))
    }

    fn compare(
        &self,
        a: &PreparedProfile,
        _tokens_a: &[TokenId],
        b: &PreparedProfile,
        _tokens_b: &[TokenId],
    ) -> MatchOutcome {
        let (is_match, similarity) = self.classify(a, b);
        MatchOutcome {
            is_match,
            similarity,
            ops: self.pair_ops(a.size, b.size),
        }
    }

    fn profile_size(&self, profile: &EntityProfile, _tokens: &[TokenId]) -> u64 {
        profile.value_len().min(self.max_chars).max(1) as u64
    }

    fn pair_ops(&self, size_a: u64, size_b: u64) -> u64 {
        size_a * size_b
    }

    fn name(&self) -> &'static str {
        "ED"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::{ProfileId, SourceId};

    fn profile(id: u32, text: &str) -> EntityProfile {
        EntityProfile::new(ProfileId(id), SourceId(0)).with("text", text)
    }

    fn toks(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    #[test]
    fn jaccard_matcher_classifies_by_threshold() {
        let m = JaccardMatcher { threshold: 0.5 };
        let pa = profile(0, "x");
        let pb = profile(1, "y");
        let ta = toks(&[1, 2, 3]);
        let tb = toks(&[2, 3, 4]);
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &ta,
            profile_b: &pb,
            tokens_b: &tb,
        });
        assert!(out.is_match); // similarity exactly 0.5
        assert!((out.similarity - 0.5).abs() < 1e-12);
        assert_eq!(out.ops, 6);
    }

    #[test]
    fn jaccard_ops_are_linear() {
        let m = JaccardMatcher::default();
        let pa = profile(0, "");
        let ta = toks(&[1, 2, 3, 4, 5]);
        let tb = toks(&[6, 7]);
        assert_eq!(
            m.pair_ops(m.profile_size(&pa, &ta), m.profile_size(&pa, &tb)),
            7
        );
    }

    #[test]
    fn edit_matcher_detects_typo_duplicates() {
        let m = EditDistanceMatcher::default();
        let pa = profile(0, "The Shawshank Redemption 1994");
        let pb = profile(1, "The Shawshank Redemtion 1994");
        let ta = toks(&[]);
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &ta,
            profile_b: &pb,
            tokens_b: &ta,
        });
        assert!(out.is_match);
        assert!(out.similarity > 0.9);
    }

    #[test]
    fn edit_matcher_rejects_unrelated() {
        let m = EditDistanceMatcher::default();
        let pa = profile(0, "completely different text about gardening");
        let pb = profile(1, "quantum chromodynamics lattice simulations");
        let ta = toks(&[]);
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &ta,
            profile_b: &pb,
            tokens_b: &ta,
        });
        assert!(!out.is_match);
    }

    #[test]
    fn edit_ops_are_quadratic_and_capped() {
        let m = EditDistanceMatcher {
            threshold: 0.5,
            max_chars: 10,
        };
        let long = "x".repeat(100);
        let pa = profile(0, &long);
        let pb = profile(1, "short");
        let ta = toks(&[]);
        let ops = m.pair_ops(m.profile_size(&pa, &ta), m.profile_size(&pb, &ta));
        assert_eq!(ops, 10 * 5);
    }

    #[test]
    fn ed_is_costlier_than_js_for_same_pair() {
        // The premise of the paper's two configurations.
        let js = JaccardMatcher::default();
        let ed = EditDistanceMatcher::default();
        let pa = profile(0, "some reasonably long attribute value here");
        let pb = profile(1, "another reasonably long attribute value there");
        let ta = toks(&[1, 2, 3, 4, 5, 6]);
        let ops =
            |m: &dyn MatchFunction| m.pair_ops(m.profile_size(&pa, &ta), m.profile_size(&pb, &ta));
        assert!(ops(&ed) > 10 * ops(&js));
    }

    #[test]
    fn clipping_respects_char_boundaries() {
        let m = EditDistanceMatcher {
            threshold: 0.5,
            max_chars: 3,
        };
        let pa = profile(0, "héllo wörld");
        assert_eq!(m.clipped(&pa), "hél");
    }

    #[test]
    fn max_matching_distance_agrees_with_float_threshold_test() {
        // The bounded kernel's integer cutoff must classify exactly like the
        // float similarity test it replaces, for every distance and length.
        for threshold in [0.0, 0.25, 0.5, 0.55, 0.7, 0.9, 1.0] {
            let m = EditDistanceMatcher {
                threshold,
                max_chars: 256,
            };
            for max_len in 1usize..=64 {
                let k = m.max_matching_distance(max_len);
                for d in 0..=max_len {
                    let sim_passes = 1.0 - d as f64 / max_len as f64 >= threshold;
                    assert_eq!(
                        d <= k,
                        sim_passes,
                        "t={threshold} len={max_len} d={d} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn edit_matcher_boundary_pair_still_matches() {
        // similarity exactly at the threshold must classify as a match,
        // as it did with the unbounded evaluation.
        let m = EditDistanceMatcher {
            threshold: 0.5,
            max_chars: 256,
        };
        let pa = profile(0, "abcd");
        let pb = profile(1, "abxy"); // distance 2 over max_len 4 → sim 0.5
        let ta = toks(&[]);
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &ta,
            profile_b: &pb,
            tokens_b: &ta,
        });
        assert!(out.is_match);
        assert!((out.similarity - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edit_matcher_rejected_pair_reports_similarity_below_threshold() {
        let m = EditDistanceMatcher::default();
        let pa = profile(0, "completely different text about gardening");
        let pb = profile(1, "quantum chromodynamics lattice simulations");
        let ta = toks(&[]);
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &ta,
            profile_b: &pb,
            tokens_b: &ta,
        });
        assert!(!out.is_match);
        assert!(out.similarity < m.threshold);
        assert!(out.similarity >= 0.0);
    }

    #[test]
    fn edit_matcher_empty_profiles_do_not_match() {
        let m = EditDistanceMatcher::default();
        let pa = profile(0, "");
        let ta = toks(&[]);
        let out = m.evaluate(MatchInput {
            profile_a: &pa,
            tokens_a: &ta,
            profile_b: &pa,
            tokens_b: &ta,
        });
        assert!(!out.is_match);
        assert_eq!(out.similarity, 0.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(JaccardMatcher::default().name(), "JS");
        assert_eq!(EditDistanceMatcher::default().name(), "ED");
    }
}
