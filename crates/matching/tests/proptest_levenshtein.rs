//! Property tests pinning the bit-parallel Levenshtein kernels to the
//! naive DP oracle: `levenshtein` must agree with `levenshtein_naive` on
//! arbitrary ASCII and Unicode strings (crossing the 64-char block
//! boundary), and `levenshtein_bounded` must return `Some(d)` exactly when
//! the true distance fits the bound and `None` otherwise — also at the
//! seams between the kernels (pattern lengths 64/65 and 128/129) and with
//! the bound, the distance and the length gap within one of each other.
//!
//! The single-word kernel keeps the last pattern's `Peq` table between
//! calls, so a result could in principle depend on the calls before it. The
//! *stateful* cases generate whole call sequences shaped like stage B's —
//! runs of calls sharing one string, other kernels' calls in between — and
//! check every call against the oracle, and that a list of calls gives the
//! same answers in any order and on any split over threads.
//!
//! Mutations the stateful cases were checked to catch (PR 23; both of them
//! fail under each): not clearing the replaced pattern's bits in
//! `Scratch::set_pattern` (which the stateless cases catch too — stale bits
//! corrupt the very next call), and starting the final diagonal at
//! `row_bit = 1`, or at `n − m` saturated to 0, when the pattern is longer
//! than its text (which nothing else in this file catches: the other cases
//! never lead the kernel to take the longer string as its pattern).

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

/// One `levenshtein_bounded(a, b, k)` call.
#[derive(Debug, Clone)]
struct Call {
    a: String,
    b: String,
    k: usize,
}

/// Lengths on both sides of every seam of the dispatcher: empty, one char,
/// the `u64` / `u128` step, the single-word / blocked step.
const SEAM_LENGTHS: [usize; 10] = [0, 1, 63, 64, 65, 66, 127, 128, 129, 130];

/// A partner of `len` chars for `entity`: half the time a near duplicate —
/// the entity cut or padded to `len` with up to three substitutions, so the
/// distance sits near the length gap, where the bound decides — otherwise
/// random.
fn partner_for(rng: &mut TestRng, entity: &str, len: usize) -> String {
    if rng.below(2) == 0 {
        return ascii_string(rng, len);
    }
    let mut text = entity.as_bytes().to_vec();
    text.truncate(len);
    while text.len() < len {
        let at = rng.below(text.len() as u64 + 1) as usize;
        text.insert(at, b'+');
    }
    for _ in 0..rng.below(4).min(len as u64) {
        let at = rng.below(len as u64) as usize;
        text[at] = b'#';
    }
    String::from_utf8(text).expect("ASCII")
}

/// A bound within one of the distance or of the length gap, or none at all.
fn bound_near(rng: &mut TestRng, a: &str, b: &str) -> usize {
    let d = levenshtein_naive(a, b);
    let gap = a.chars().count().abs_diff(b.chars().count());
    let bounds = [
        d.saturating_sub(1),
        d,
        d + 1,
        gap.saturating_sub(1),
        gap,
        gap + 1,
        usize::MAX,
    ];
    bounds[rng.below(bounds.len() as u64) as usize]
}

/// A call sequence as stage B makes them: runs of 1–12 calls that share one
/// string, passed as `a` and as `b` in turn, against partners longer and
/// shorter than it; and between them, now and then, a call that goes to
/// another kernel (Unicode, or ASCII with both sides over 128 chars).
fn call_sequence(rng: &mut TestRng) -> Vec<Call> {
    let mut calls = Vec::new();
    for _ in 0..1 + rng.below(8) {
        let entity_len = match rng.below(3) {
            0 => 1 + rng.below(140) as usize,
            _ => SEAM_LENGTHS[1 + rng.below(SEAM_LENGTHS.len() as u64 - 1) as usize],
        };
        let entity = ascii_string(rng, entity_len);
        for call in 0..1 + rng.below(12) {
            let partner_len = match rng.below(3) {
                0 => SEAM_LENGTHS[rng.below(SEAM_LENGTHS.len() as u64) as usize],
                1 => (entity_len + rng.below(7) as usize).saturating_sub(3),
                _ => rng.below(140) as usize,
            };
            let partner = partner_for(rng, &entity, partner_len);
            let k = bound_near(rng, &entity, &partner);
            let (a, b) = if call % 2 == 0 {
                (entity.clone(), partner)
            } else {
                (partner, entity.clone())
            };
            calls.push(Call { a, b, k });
            let (kind, len) = (rng.below(6), rng.below(80) as usize);
            let (a, b) = match kind {
                0 => (unicode_string(rng, 1 + len), entity.clone()),
                1 => {
                    let a = ascii_string(rng, 129 + len);
                    let len = 129 + rng.below(80) as usize;
                    let b = partner_for(rng, &a, len);
                    (a, b)
                }
                _ => continue,
            };
            let k = bound_near(rng, &a, &b);
            calls.push(Call { a, b, k });
        }
    }
    calls
}

fn run(calls: &[Call]) -> Vec<Option<usize>> {
    calls
        .iter()
        .map(|c| levenshtein_bounded(&c.a, &c.b, c.k))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn call_sequences_sharing_a_string_are_exact(seed in any::<u64>()) {
        let calls = call_sequence(&mut TestRng::from_seed(seed));
        for (i, c) in calls.iter().enumerate() {
            let d = levenshtein_naive(&c.a, &c.b);
            prop_assert_eq!(
                levenshtein_bounded(&c.a, &c.b, c.k), (d <= c.k).then_some(d),
                "call {} of {}: {:?}", i, calls.len(), c
            );
        }
    }

    #[test]
    fn outcomes_do_not_depend_on_call_order_or_thread(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let calls = call_sequence(&mut rng);
        let in_order = run(&calls);
        // Any permutation, on this thread (whose kernel state the run above
        // left behind) ...
        let mut order: Vec<usize> = (0..calls.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let permuted: Vec<Call> = order.iter().map(|&i| calls[i].clone()).collect();
        let want: Vec<Option<usize>> = order.iter().map(|&i| in_order[i]).collect();
        prop_assert_eq!(&run(&permuted), &want);
        // ... and split over two threads that start with no state.
        let (front, back) = permuted.split_at(rng.below(permuted.len() as u64 + 1) as usize);
        let split = std::thread::scope(|scope| {
            let front = scope.spawn(|| run(front));
            let back = scope.spawn(|| run(back));
            let mut outcomes = front.join().expect("front half");
            outcomes.extend(back.join().expect("back half"));
            outcomes
        });
        prop_assert_eq!(&split, &want);
    }

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
