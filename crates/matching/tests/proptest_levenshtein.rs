//! Property tests pinning the bit-parallel Levenshtein kernels to the
//! naive DP oracle: `levenshtein` must agree with `levenshtein_naive` on
//! arbitrary ASCII and Unicode strings (crossing the 64-char block
//! boundary), and `levenshtein_bounded` must return `Some(d)` exactly when
//! the true distance fits the bound and `None` otherwise — also at the
//! seams between the kernels (pattern lengths 64/65 and 128/129) and with
//! the bound, the distance and the length gap within one of each other.

use pier_matching::levenshtein::{levenshtein, levenshtein_bounded, levenshtein_naive};
use proptest::prelude::*;

/// ASCII string of `len` chars over a small alphabet (plenty of repeats,
/// which is where bit-parallel Peq bookkeeping can go wrong).
fn ascii_string(rng: &mut TestRng, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefgh 0123";
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char)
        .collect()
}

/// Unicode string of `len` chars mixing 1-, 2- and 3-byte characters.
fn unicode_string(rng: &mut TestRng, len: usize) -> String {
    const POOL: [char; 14] = [
        'a', 'b', 'c', 'é', 'ü', 'ñ', 'λ', 'Ω', 'ß', '中', '日', '→', '€', ' ',
    ];
    (0..len)
        .map(|_| POOL[rng.below(POOL.len() as u64) as usize])
        .collect()
}

/// A text for `pattern` with `text.len() == pattern.len() + gap`. A near
/// duplicate is the pattern with `edits` substitutions and `gap` insertions
/// at random places, so its distance sits close to `gap` — which is where a
/// bound of `gap − 1`, `gap` or `gap + 1` decides. (Two random strings are
/// never near any bound worth testing.)
fn text_for(rng: &mut TestRng, pattern: &str, gap: usize, edits: usize, near: bool) -> String {
    if !near {
        return ascii_string(rng, pattern.len() + gap);
    }
    let mut text = pattern.as_bytes().to_vec();
    for _ in 0..edits.min(text.len()) {
        let at = rng.below(text.len() as u64) as usize;
        text[at] = b'#';
    }
    for _ in 0..gap {
        let at = rng.below(text.len() as u64 + 1) as usize;
        text.insert(at, b'+');
    }
    String::from_utf8(text).expect("ASCII")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn bounded_is_exact_at_the_kernel_seams(
        (m, gap, edits, near, seed) in (
            prop::sample::select(vec![1usize, 2, 31, 63, 64, 65, 66, 100, 127, 128, 129, 130, 200]),
            0usize..9,
            0usize..7,
            any::<bool>(),
            any::<u64>(),
        ),
    ) {
        let mut rng = TestRng::from_seed(seed);
        let pattern = ascii_string(&mut rng, m);
        let text = text_for(&mut rng, &pattern, gap, edits, near);
        let d = levenshtein_naive(&pattern, &text);
        prop_assert!(d >= gap);
        // Around the distance, and around the length gap: the final
        // diagonal enters the matrix at column `gap` with value `gap`, so
        // `k = gap − 1` must be refused before the scan, `k = gap` starts
        // the scan with nothing to spare.
        let bounds = [
            0,
            d.saturating_sub(1),
            d,
            d + 1,
            gap.saturating_sub(1),
            gap,
            gap + 1,
            usize::MAX,
        ];
        for k in bounds {
            let want = (d <= k).then_some(d);
            prop_assert_eq!(
                levenshtein_bounded(&pattern, &text, k), want,
                "{:?} vs {:?} k={}", pattern, text, k
            );
            prop_assert_eq!(
                levenshtein_bounded(&text, &pattern, k), want,
                "{:?} vs {:?} k={}", text, pattern, k
            );
        }
    }

    #[test]
    fn myers_equals_naive_on_ascii((la, lb, seed) in (0usize..160, 0usize..160, any::<u64>())) {
        let mut rng = TestRng::from_seed(seed);
        let a = ascii_string(&mut rng, la);
        let b = ascii_string(&mut rng, lb);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein_naive(&a, &b), "{:?} vs {:?}", a, b);
    }

    #[test]
    fn myers_equals_naive_on_unicode((la, lb, seed) in (0usize..100, 0usize..100, any::<u64>())) {
        let mut rng = TestRng::from_seed(seed);
        let a = unicode_string(&mut rng, la);
        let b = unicode_string(&mut rng, lb);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein_naive(&a, &b), "{:?} vs {:?}", a, b);
    }

    #[test]
    fn bounded_is_exact_iff_within_bound(
        (la, lb, seed, k) in (0usize..120, 0usize..120, any::<u64>(), 0usize..130),
    ) {
        let mut rng = TestRng::from_seed(seed);
        let a = ascii_string(&mut rng, la);
        let b = ascii_string(&mut rng, lb);
        let d = levenshtein_naive(&a, &b);
        match levenshtein_bounded(&a, &b, k) {
            Some(got) => {
                prop_assert_eq!(got, d, "{:?} vs {:?} k={}", a, b, k);
                prop_assert!(d <= k);
            }
            None => prop_assert!(d > k, "{:?} vs {:?}: d={} within k={}", a, b, d, k),
        }
    }

    #[test]
    fn bounded_is_exact_iff_within_bound_unicode(
        (la, lb, seed, k) in (0usize..80, 0usize..80, any::<u64>(), 0usize..90),
    ) {
        let mut rng = TestRng::from_seed(seed);
        let a = unicode_string(&mut rng, la);
        let b = unicode_string(&mut rng, lb);
        let d = levenshtein_naive(&a, &b);
        match levenshtein_bounded(&a, &b, k) {
            Some(got) => prop_assert_eq!(got, d),
            None => prop_assert!(d > k),
        }
    }

    #[test]
    fn distance_is_a_metric_sample((l, seed) in (0usize..90, any::<u64>())) {
        // Symmetry + identity on perturbed pairs: cheap sanity net over the
        // dispatcher (single-word, blocked and Unicode paths).
        let mut rng = TestRng::from_seed(seed);
        let a = ascii_string(&mut rng, l);
        let shorter = l.saturating_sub(rng.below(5) as usize);
        let b = ascii_string(&mut rng, shorter);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
    }
}
