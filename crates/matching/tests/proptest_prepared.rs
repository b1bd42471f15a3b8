//! Prepared ≡ unprepared ≡ reference, for every matcher.
//!
//! `MatchFunction::evaluate` is `prepare` + `prepare` + `compare`, and the
//! threaded runtime keeps one `PreparedProfile` per profile for the whole
//! run. Over generated profiles — several attributes, none at all,
//! non-ASCII values, text longer than `max_chars`, `max_chars` cutting next
//! to a multi-byte character — each matcher must give the same outcome,
//! bit for bit, whether a pair is evaluated from scratch or compared from
//! prepared profiles that served other partners before; and that outcome
//! must be the one a direct computation gives: the similarity functions
//! for the token matchers, the ground truth for the oracle, and
//! `1 − levenshtein_naive(clip(a), clip(b)) / max_len ≥ threshold` for edit
//! distance, where `clip` is written out here rather than borrowed from
//! the matcher.

use pier_matching::similarity::{cosine_tokens, jaccard_tokens};
use pier_matching::{
    levenshtein_naive, CosineMatcher, EditDistanceMatcher, HybridMatcher, JaccardMatcher,
    MatchFunction, MatchInput, MatchOutcome, OracleMatcher,
};
use pier_types::{Comparison, EntityProfile, GroundTruth, ProfileId, SourceId, TokenId};
use proptest::prelude::*;

const ASCII: &[char] = &['a', 'b', 'c', 'd', 'e', ' ', '0', '1'];
const MIXED: &[char] = &['a', 'b', 'c', ' ', 'é', 'ü', 'λ', '中', '→', '€', '𝄞'];

fn value(rng: &mut TestRng, pool: &[char], max_len: u64) -> String {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| pool[rng.below(pool.len() as u64) as usize])
        .collect()
}

/// A handful of profiles: some with no attribute, some ASCII only (so
/// pairs of them reach the ASCII kernels at every width), some with
/// multi-byte characters, and some near copies of an earlier profile (so
/// matches occur).
fn profiles(rng: &mut TestRng, count: usize, long: bool) -> Vec<EntityProfile> {
    let max_len = if long { 90 } else { 12 };
    let mut out: Vec<EntityProfile> = Vec::with_capacity(count);
    for id in 0..count {
        let mut p = EntityProfile::new(ProfileId(id as u32), SourceId(0));
        if !out.is_empty() && rng.below(3) == 0 {
            let earlier = &out[rng.below(out.len() as u64) as usize];
            for a in &earlier.attributes {
                let mut chars: Vec<char> = a.value.chars().collect();
                if !chars.is_empty() && rng.below(2) == 0 {
                    let at = rng.below(chars.len() as u64) as usize;
                    chars[at] = 'x';
                }
                p = p.with(a.name.clone(), chars.into_iter().collect::<String>());
            }
        } else {
            let pool = if rng.below(2) == 0 { ASCII } else { MIXED };
            for attr in 0..rng.below(5) {
                p = p.with(format!("a{attr}"), value(rng, pool, max_len));
            }
        }
        out.push(p);
    }
    out
}

fn tokens(rng: &mut TestRng) -> Vec<TokenId> {
    let mut ids: Vec<TokenId> = (0..rng.below(8))
        .map(|_| TokenId(rng.below(10) as u32))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The text edit distance runs on, computed the plain way.
fn clip(p: &EntityProfile, max_chars: usize) -> String {
    p.flattened_text().chars().take(max_chars).collect()
}

/// What the edit-distance test decides for a pair, from the definition.
/// The similarity is exact only for pairs the bounded kernel does not
/// abandon, i.e. matches.
fn ed_reference(m: &EditDistanceMatcher, a: &EntityProfile, b: &EntityProfile) -> (bool, f64) {
    let (ta, tb) = (clip(a, m.max_chars), clip(b, m.max_chars));
    let max_len = ta.chars().count().max(tb.chars().count());
    if max_len == 0 {
        return (false, 0.0);
    }
    let similarity = 1.0 - levenshtein_naive(&ta, &tb) as f64 / max_len as f64;
    (similarity >= m.threshold, similarity)
}

fn assert_same(got: MatchOutcome, want: MatchOutcome, what: &str) {
    assert_eq!(got.is_match, want.is_match, "{what}: is_match");
    assert_eq!(
        got.similarity.to_bits(),
        want.similarity.to_bits(),
        "{what}: similarity {} vs {}",
        got.similarity,
        want.similarity
    );
    assert_eq!(got.ops, want.ops, "{what}: ops");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_matcher_compares_prepared_profiles_like_fresh_ones(
        (seed, count, long, max_chars, threshold) in (
            any::<u64>(),
            2usize..7,
            any::<bool>(),
            prop::sample::select(vec![1usize, 2, 3, 5, 8, 13, 64, 65, 128, 129, 256]),
            prop::sample::select(vec![0.0f64, 0.3, 0.55, 0.8, 1.0]),
        ),
    ) {
        let mut rng = TestRng::from_seed(seed);
        let profiles = profiles(&mut rng, count, long);
        let token_sets: Vec<Vec<TokenId>> = profiles.iter().map(|_| tokens(&mut rng)).collect();
        let truth = GroundTruth::from_pairs(
            (1..count).step_by(2).map(|i| (ProfileId(i as u32 - 1), ProfileId(i as u32))),
        );
        let js = JaccardMatcher { threshold };
        let cos = CosineMatcher { threshold };
        let ed = EditDistanceMatcher { threshold, max_chars };
        let hybrid = HybridMatcher { prefilter_threshold: 0.2, confirm: ed };
        let oracle = OracleMatcher::new(truth.clone(), 3);
        let matchers: [&dyn MatchFunction; 5] = [&js, &cos, &ed, &hybrid, &oracle];
        for m in matchers {
            // One prepared profile per profile, reused for every partner
            // in both roles — what the runtime's per-profile table does.
            let prepared: Vec<_> = profiles
                .iter()
                .zip(&token_sets)
                .map(|(p, t)| m.prepare(p, t))
                .collect();
            for (p, (t, prep)) in profiles.iter().zip(token_sets.iter().zip(&prepared)) {
                prop_assert_eq!(prep.id(), p.id);
                prop_assert_eq!(prep.size(), m.profile_size(p, t), "{}", m.name());
            }
            for i in 0..count {
                for j in 0..count {
                    // A profile against itself is the distance-0 case for
                    // the text matchers; a `Comparison` of one id with
                    // itself does not exist, so the oracle sits it out.
                    if i == j && m.name() == "ORACLE" {
                        continue;
                    }
                    let what = format!("{} {i}/{j} max_chars={max_chars} t={threshold}", m.name());
                    let input = MatchInput {
                        profile_a: &profiles[i],
                        tokens_a: &token_sets[i],
                        profile_b: &profiles[j],
                        tokens_b: &token_sets[j],
                    };
                    let fresh = m.evaluate(input);
                    let reused = m.compare(&prepared[i], &token_sets[i], &prepared[j], &token_sets[j]);
                    assert_same(reused, fresh, &what);
                    if m.name() != "JS+ED" {
                        let sizes = (m.profile_size(&profiles[i], &token_sets[i]), m.profile_size(&profiles[j], &token_sets[j]));
                        prop_assert_eq!(fresh.ops, m.pair_ops(sizes.0, sizes.1), "{}", what);
                    }
                }
            }
        }

        // Each outcome against a direct computation.
        for i in 0..count {
            for j in 0..count {
                let (pa, pb) = (&profiles[i], &profiles[j]);
                let (ta, tb) = (&token_sets[i], &token_sets[j]);
                let input = MatchInput { profile_a: pa, tokens_a: ta, profile_b: pb, tokens_b: tb };
                let what = format!("{i}/{j} max_chars={max_chars} t={threshold}");
                let linear_ops = ((ta.len() + tb.len()) as u64).max(1);

                let jac = jaccard_tokens(ta, tb);
                assert_same(
                    js.evaluate(input),
                    MatchOutcome { is_match: jac >= threshold, similarity: jac, ops: linear_ops },
                    &format!("JS {what}"),
                );
                let cosine = cosine_tokens(ta, tb);
                assert_same(
                    cos.evaluate(input),
                    MatchOutcome { is_match: cosine >= threshold, similarity: cosine, ops: linear_ops },
                    &format!("COS {what}"),
                );

                let (is_match, similarity) = ed_reference(&ed, pa, pb);
                let size = |p: &EntityProfile| p.value_len().min(max_chars).max(1) as u64;
                let ed_ops = size(pa) * size(pb);
                let got = ed.evaluate(input);
                prop_assert_eq!(got.is_match, is_match, "ED {}", what);
                prop_assert_eq!(got.ops, ed_ops, "ED {}", what);
                if is_match {
                    prop_assert_eq!(got.similarity.to_bits(), similarity.to_bits(), "ED {}", what);
                } else {
                    // An abandoned pair reports an upper bound below the
                    // threshold instead of the exact figure.
                    prop_assert!(got.similarity >= similarity && got.similarity >= 0.0, "ED {}", what);
                    prop_assert!(got.similarity < threshold || threshold == 0.0, "ED {}", what);
                }

                let got = hybrid.evaluate(input);
                if jac < 0.2 {
                    assert_same(
                        got,
                        MatchOutcome { is_match: false, similarity: jac, ops: linear_ops },
                        &format!("JS+ED prefiltered {what}"),
                    );
                } else {
                    assert_same(
                        got,
                        MatchOutcome { ops: linear_ops + ed_ops, ..ed.evaluate(input) },
                        &format!("JS+ED confirmed {what}"),
                    );
                }

                if i != j {
                    let truly = truth.is_match(Comparison::new(pa.id, pb.id));
                    assert_same(
                        oracle.evaluate(input),
                        MatchOutcome { is_match: truly, similarity: f64::from(u8::from(truly)), ops: 3 },
                        &format!("ORACLE {what}"),
                    );
                }
            }
        }
    }
}
