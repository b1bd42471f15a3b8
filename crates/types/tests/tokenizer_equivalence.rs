//! `SharedTokenDictionary::tokenize_and_intern` against the string path and
//! a naive interner, over generated profiles that mix ASCII and non-ASCII
//! values (Greek final sigma, `İ`), digit-only tokens on both sides of
//! `min_numeric_len`, tokens longer than the ASCII path's stack buffer and
//! its 64-byte masks, long tokens that differ only past their first 16
//! bytes, and non-default minimum lengths.
//!
//! Asserted per generated corpus:
//! - the ids of each profile resolve to exactly `Tokenizer::profile_tokens`;
//! - they are the ids a naive interner assigns by first appearance, fed the
//!   same profiles in the same order;
//! - two threads interning into one dictionary get one stable id per
//!   token, and `len` and `string_bytes` count the distinct set.

use std::collections::{BTreeSet, HashMap};

use pier_types::{EntityProfile, ProfileId, SharedTokenDictionary, SourceId, TokenId, Tokenizer};
use proptest::prelude::*;

/// Values with a non-ASCII char: `str::to_lowercase` folds `Σ` to `ς` at a
/// word's end and `İ` to two chars, so these take the char path.
const NON_ASCII: [&str; 8] = [
    "ΣΊΣΥΦΟΣ",
    "ΌΣΟΣ",
    "İstanbul",
    "KIİ",
    "Amélie",
    "STRAẞE",
    "中文",
    "Ǆemal",
];

/// Separators; only the last is non-ASCII.
const SEPARATORS: [&str; 6] = [" ", "-", ", ", "\t", "_", "—"];

/// One piece of a value, drawn from `(kind, bits)`; `wide` lets it be
/// non-ASCII.
fn piece(kind: u8, bits: u64, wide: bool) -> String {
    let letters = |len: usize| -> String {
        (0..len)
            .map(|i| {
                let b = bits.rotate_left(7 * i as u32);
                let c = b'a' + (b % 26) as u8;
                if b & 0x100 != 0 {
                    c.to_ascii_uppercase() as char
                } else {
                    c as char
                }
            })
            .collect()
    };
    match kind {
        // Short words over a few letters repeat within and across profiles.
        0..=3 => letters(1 + (bits >> 40) as usize % 6).replace(|c: char| c > 'd' && c < 'x', "a"),
        4..=6 => letters(1 + (bits >> 40) as usize % 12),
        // Digit runs of 1 to 5: either side of every `min_numeric_len`.
        7..=9 => (0..1 + (bits >> 40) % 5)
            .map(|i| char::from(b'0' + (bits >> (3 * i)) as u8 % 10))
            .collect(),
        // Longer than the 64-byte stack buffer, and across mask borders.
        10 => letters(40 + (bits >> 40) as usize % 110),
        11 => format!("{}{}", letters(2), bits % 1000),
        // Same length and first 16 bytes, different tails.
        12 => format!(
            "ProgressiveResolution{}",
            letters(2).to_lowercase().replace(|c: char| c > 'b', "a")
        ),
        _ if wide => NON_ASCII[(bits % NON_ASCII.len() as u64) as usize].to_string(),
        _ => letters(3),
    }
}

/// Builds profiles from generated values, each a `(wide, pieces)` pair.
fn profiles(spec: &Spec) -> Vec<EntityProfile> {
    spec.iter()
        .enumerate()
        .map(|(i, values)| {
            let mut p = EntityProfile::new(ProfileId(i as u32), SourceId(0));
            for (j, (wide, pieces)) in values.iter().enumerate() {
                // One value in three may hold non-ASCII pieces and separators.
                let wide = *wide == 0;
                let mut value = String::new();
                for &(kind, bits) in pieces {
                    value.push_str(&piece(kind, bits, wide));
                    let sep = (bits >> 56) as usize % SEPARATORS.len();
                    value.push_str(if wide {
                        SEPARATORS[sep]
                    } else {
                        SEPARATORS[sep % 5]
                    });
                }
                p = p.with(format!("a{j}"), value);
            }
            p
        })
        .collect()
}

type Spec = Vec<Vec<(u8, Vec<(u8, u64)>)>>;

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let piece = (0u8..15, any::<u64>());
    let value = (0u8..3, prop::collection::vec(piece, 0..24));
    let profile = prop::collection::vec(value, 1..4);
    prop::collection::vec(profile, 1..12)
}

fn tokenizer_strategy() -> impl Strategy<Value = Tokenizer> {
    (1usize..5, 1usize..5).prop_map(|(min_len, min_numeric_len)| Tokenizer {
        min_len,
        min_numeric_len,
    })
}

/// Ids by first appearance over `profiles` in order: what the dictionary
/// must assign, as sorted distinct ids per profile.
fn reference_ids(tokenizer: &Tokenizer, profiles: &[EntityProfile]) -> Vec<Vec<TokenId>> {
    let mut ids: HashMap<String, u32> = HashMap::new();
    profiles
        .iter()
        .map(|p| {
            let mut own: Vec<TokenId> = p
                .values()
                .flat_map(|v| tokenizer.tokenize_value(v))
                .map(|tok| {
                    let next = ids.len() as u32;
                    TokenId(*ids.entry(tok).or_insert(next))
                })
                .collect();
            own.sort_unstable();
            own.dedup();
            own
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ids_resolve_to_the_string_path_in_first_appearance_order(
        spec in spec_strategy(),
        tokenizer in tokenizer_strategy(),
    ) {
        let profiles = profiles(&spec);
        let dict = SharedTokenDictionary::new();
        let mut scratch = String::new();
        let expected = reference_ids(&tokenizer, &profiles);
        let mut distinct = BTreeSet::new();
        for (p, want) in profiles.iter().zip(&expected) {
            let ids = dict.tokenize_and_intern(&tokenizer, p, &mut scratch);
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "unsorted {ids:?}");
            let mut resolved: Vec<String> =
                ids.iter().map(|&id| dict.resolve(id).expect("id resolves")).collect();
            resolved.sort_unstable();
            let tokens = tokenizer.profile_tokens(p);
            prop_assert_eq!(&resolved, &tokens, "profile {:?}", p);
            prop_assert_eq!(&ids, want, "first-appearance ids of {:?}", p);
            distinct.extend(tokens);
        }
        prop_assert_eq!(dict.len(), distinct.len());
        prop_assert_eq!(dict.string_bytes(), distinct.iter().map(String::len).sum::<usize>());
    }

    #[test]
    fn two_threads_get_one_stable_id_per_token(
        spec in spec_strategy(),
        tokenizer in tokenizer_strategy(),
    ) {
        let profiles = profiles(&spec);
        let dict = SharedTokenDictionary::new();
        // Both threads see every profile, in opposite orders.
        let seen: Vec<HashMap<String, TokenId>> = std::thread::scope(|scope| {
            let runs: Vec<_> = [false, true]
                .into_iter()
                .map(|reversed| {
                    let (dict, tokenizer, profiles) = (dict.clone(), &tokenizer, &profiles);
                    scope.spawn(move || {
                        let mut scratch = String::new();
                        let mut seen = HashMap::new();
                        let mut visit = |p: &EntityProfile| {
                            for id in dict.tokenize_and_intern(tokenizer, p, &mut scratch) {
                                let tok = dict.resolve(id).expect("id resolves");
                                let first = *seen.entry(tok).or_insert(id);
                                assert_eq!(first, id, "a token changed id");
                            }
                        };
                        if reversed {
                            profiles.iter().rev().for_each(&mut visit);
                        } else {
                            profiles.iter().for_each(&mut visit);
                        }
                        seen
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().expect("thread")).collect()
        });
        prop_assert_eq!(&seen[0], &seen[1]);
        let distinct: BTreeSet<String> =
            profiles.iter().flat_map(|p| tokenizer.profile_tokens(p)).collect();
        let ids: BTreeSet<TokenId> = seen[0].values().copied().collect();
        prop_assert_eq!(seen[0].len(), distinct.len());
        prop_assert_eq!(ids.len(), distinct.len(), "two tokens share an id");
        prop_assert!(ids.iter().all(|id| id.index() < dict.len()));
        prop_assert_eq!(dict.len(), distinct.len());
        prop_assert_eq!(dict.string_bytes(), distinct.iter().map(String::len).sum::<usize>());
        for (tok, &id) in &seen[0] {
            prop_assert_eq!(dict.get(tok), Some(id));
        }
    }
}
