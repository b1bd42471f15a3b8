//! Bit-parallel Levenshtein distance (Myers' algorithm).
//!
//! The ED matcher dominates wall-clock on the paper's expensive
//! configuration (§7), so its kernel matters: the classic two-row DP costs
//! `O(n·m)` cell updates plus two `Vec<char>` and two row allocations per
//! call. This module replaces it with Myers' bit-parallel algorithm
//! [Myers, JACM 1999]: a DP column is packed into machine words and one
//! text character advances the whole column with ~15 word operations.
//!
//! One string of a pair is the pattern (`m` chars, the rows of the DP
//! matrix), the other the text (`n` chars, scanned column by column). Three
//! kernels, chosen from the input:
//!
//! * ASCII, one side of at most 128 chars — one word holds the column:
//!   `u64` for a pattern up to 64 chars, `u128` up to 128 (the flattened
//!   text of the benchmark corpora is 65–128 chars for most pairs). One
//!   function, generic over the word. This kernel is *one against many*: it
//!   keeps the last pattern's `Peq` table between calls and takes either
//!   side of a pair as the pattern, longer or shorter than its text, so a
//!   run of calls that share one string — an entity compared with its
//!   candidates one after another, as I-PES emits them — builds the table
//!   once (see `choose_pattern`).
//! * ASCII, both sides over 128 chars — the shorter is the pattern, in
//!   `⌈m/64⌉` `u64` blocks with a carry between them.
//! * anything else — the same blocks over `char`s, with the pattern's
//!   alphabet mapped to dense indices.
//!
//! Three entry points:
//!
//! * [`levenshtein`] — exact distance.
//! * [`levenshtein_bounded`] — threshold-aware variant returning `None` as
//!   soon as the distance provably exceeds `max_dist`: the length-gap
//!   pre-check rejects for free, and the scan abandons a pair as soon as
//!   one column proves the bound exceeded. This is what lets the ED matcher
//!   skip most of the work on pairs that cannot clear its similarity
//!   threshold.
//! * [`levenshtein_naive`] — the original two-row DP, kept verbatim as the
//!   test oracle for the bit-parallel kernels (see the crate's proptest
//!   suite).
//!
//! All scratch state (the `Peq` tables, block vectors, the Unicode alphabet
//! map) lives in a thread-local `Scratch` and is reused across calls, so
//! the steady-state kernel performs no allocation for ASCII inputs of any
//! length and none for Unicode inputs whose alphabet fits the previously
//! grown buffers. What the single-word kernel remembers from one call to
//! the next is looked up by content, never by identity, so every result is
//! the same whatever was computed before it on the thread, and it is two
//! fixed 128-byte buffers, whatever the inputs were.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{BitAnd, BitOr, BitXor, Not, Shl};

const WORD: usize = 64;

/// A machine word wide enough for a whole DP column of the single-word
/// kernel.
trait Word:
    Copy
    + PartialEq
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + Shl<usize, Output = Self>
{
    const ZERO: Self;
    const ONE: Self;
    fn wrapping_add(self, rhs: Self) -> Self;
}

impl Word for u64 {
    const ZERO: u64 = 0;
    const ONE: u64 = 1;
    fn wrapping_add(self, rhs: u64) -> u64 {
        u64::wrapping_add(self, rhs)
    }
}

impl Word for u128 {
    const ZERO: u128 = 0;
    const ONE: u128 = 1;
    fn wrapping_add(self, rhs: u128) -> u128 {
        u128::wrapping_add(self, rhs)
    }
}

/// Longest pattern the single-word kernel takes: one `u128` column.
const SINGLE_WORD_MAX: usize = u128::BITS as usize;

/// A string of at most [`SINGLE_WORD_MAX`] bytes kept from one call to the
/// next, or nothing (`len == 0`; the kernel is never handed an empty
/// string). A fixed buffer: however long the strings a thread has compared,
/// this is all it holds on to.
struct Kept {
    bytes: [u8; SINGLE_WORD_MAX],
    len: usize,
}

impl Kept {
    const NOTHING: Kept = Kept {
        bytes: [0; SINGLE_WORD_MAX],
        len: 0,
    };

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// Whether `s` is the kept string: a length check, then a compare of at
    /// most 128 bytes.
    fn is(&self, s: &[u8]) -> bool {
        self.len == s.len() && self.as_bytes() == s
    }

    /// Keeps `s` if it could be a single-word pattern, nothing otherwise.
    fn keep(&mut self, s: &[u8]) {
        self.len = 0;
        if let Some(kept) = self.bytes.get_mut(..s.len()) {
            kept.copy_from_slice(s);
            self.len = s.len();
        }
    }
}

/// Reusable per-thread kernel state.
struct Scratch {
    /// `Peq[c]` bitmasks of the single-word kernel, one table per word
    /// width, indexed by ASCII code. Between calls the two tables hold
    /// exactly the bits of `pattern` — in `peq_u64` if it is at most 64
    /// bytes long, in `peq_u128` otherwise — and every other entry is zero.
    /// They are cleared lazily, by [`Scratch::set_pattern`], when another
    /// pattern takes their place.
    peq_u64: [u64; 128],
    peq_u128: [u128; 128],
    /// The pattern whose `Peq` is set.
    pattern: Kept,
    /// The text scanned by the call that set `pattern`, if it could become
    /// a pattern itself. Only a hint for [`choose_pattern`].
    text: Kept,
    /// `Peq[c × blocks + b]` for multi-block ASCII patterns (m > 128).
    /// Rows are zeroed after each call via `touched`.
    peq_blocks: Vec<u64>,
    /// Distinct pattern bytes written into `peq_blocks` by the current
    /// call.
    touched: Vec<u8>,
    /// Blocks currently allocated in `peq_blocks` (row stride).
    peq_stride: usize,
    /// Per-block vertical positive/negative delta words.
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// Unicode path: pattern alphabet → dense index.
    uni_map: HashMap<char, u32>,
    /// Unicode path: `Peq[index × blocks + b]`.
    uni_peq: Vec<u64>,
    /// Unicode path: decoded pattern (chars of the shorter string).
    uni_pattern: Vec<char>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            peq_u64: [0; 128],
            peq_u128: [0; 128],
            pattern: Kept::NOTHING,
            text: Kept::NOTHING,
            peq_blocks: Vec::new(),
            touched: Vec::new(),
            peq_stride: 0,
            pv: Vec::new(),
            mv: Vec::new(),
            uni_map: HashMap::new(),
            uni_peq: Vec::new(),
            uni_pattern: Vec::new(),
        }
    }

    /// Makes `pattern` the one whose `Peq` is set: clears the bits of the
    /// pattern it replaces — one store per char, no memset of a table — then
    /// sets its own.
    fn set_pattern(&mut self, pattern: &[u8]) {
        // `& 0x7F` is the identity on ASCII; it shows the compiler that the
        // index is inside the table.
        fn clear<W: Word>(peq: &mut [W; 128], pattern: &[u8]) {
            for &c in pattern {
                peq[usize::from(c & 0x7F)] = W::ZERO;
            }
        }
        fn set<W: Word>(peq: &mut [W; 128], pattern: &[u8]) {
            let mut row_bit = W::ONE;
            for &c in pattern {
                let slot = &mut peq[usize::from(c & 0x7F)];
                *slot = *slot | row_bit;
                row_bit = row_bit << 1;
            }
        }
        debug_assert!(pattern.is_ascii() && (1..=SINGLE_WORD_MAX).contains(&pattern.len()));
        if self.pattern.len <= WORD {
            clear(&mut self.peq_u64, self.pattern.as_bytes());
        } else {
            clear(&mut self.peq_u128, self.pattern.as_bytes());
        }
        if pattern.len() <= WORD {
            set(&mut self.peq_u64, pattern);
        } else {
            set(&mut self.peq_u128, pattern);
        }
        self.pattern.keep(pattern);
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Levenshtein edit distance between two strings.
///
/// Bit-parallel (Myers): `O(⌈min(m,n)/64⌉ · max(m,n))` word operations,
/// allocation-free in steady state for ASCII inputs. Equivalent to
/// [`levenshtein_naive`] on every input (property-tested).
pub fn levenshtein(a: &str, b: &str) -> usize {
    match bounded_impl(a, b, usize::MAX) {
        Some(d) => d,
        // Unreachable: max_dist = usize::MAX never rejects.
        None => unreachable!("unbounded distance cannot exceed usize::MAX"),
    }
}

/// Levenshtein distance if it is at most `max_dist`, `None` otherwise.
///
/// Early-exits as soon as the bound is provably exceeded: first on the
/// length gap `|m − n| > max_dist` (no scan at all), then during the scan
/// whenever even a run of `n − j` matches could not bring the final score
/// back under the bound. A threshold-`t` similarity test over strings of
/// max length `L` maps to `max_dist = ⌊(1 − t)·L⌋`, which is how the ED
/// matcher abandons pairs that cannot clear its threshold.
pub fn levenshtein_bounded(a: &str, b: &str, max_dist: usize) -> Option<usize> {
    bounded_impl(a, b, max_dist)
}

/// Levenshtein edit distance, two-row `O(n·m)` dynamic program.
///
/// This is the seed implementation, kept as the oracle the bit-parallel
/// kernels are tested against. Production paths use [`levenshtein`].
pub fn levenshtein_naive(a: &str, b: &str) -> usize {
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    // Iterate over the longer string, keep rows sized by the shorter one.
    let (outer, inner) = if a_chars.len() >= b_chars.len() {
        (&a_chars, &b_chars)
    } else {
        (&b_chars, &a_chars)
    };
    if inner.is_empty() {
        return outer.len();
    }
    let mut prev: Vec<usize> = (0..=inner.len()).collect();
    let mut cur: Vec<usize> = vec![0; inner.len() + 1];
    for (i, &oc) in outer.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &ic) in inner.iter().enumerate() {
            let sub = prev[j] + usize::from(oc != ic);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[inner.len()]
}

fn bounded_impl(a: &str, b: &str, max_dist: usize) -> Option<usize> {
    if !(a.is_ascii() && b.is_ascii()) {
        return SCRATCH.with(|s| unicode_blocks(&mut s.borrow_mut(), a, b, max_dist));
    }
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len().abs_diff(b.len()) > max_dist {
        return None;
    }
    if a.is_empty() || b.is_empty() {
        return Some(a.len().max(b.len()));
    }
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        if a.len().min(b.len()) > SINGLE_WORD_MAX {
            // Pattern = shorter string: fewest blocks.
            let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            return ascii_multi_block(scratch, pattern, text, max_dist);
        }
        let (pattern, text, is_set) = choose_pattern(scratch, a, b);
        if !is_set {
            scratch.set_pattern(pattern);
            scratch.text.keep(text);
        }
        if pattern.len() <= WORD {
            ascii_single_word(&scratch.peq_u64, pattern.len(), text, max_dist)
        } else {
            ascii_single_word(&scratch.peq_u128, pattern.len(), text, max_dist)
        }
    })
}

/// Which of two non-empty ASCII strings, at least one of them short enough
/// for the single-word kernel, is the pattern, and whether its `Peq` is
/// already set: `(pattern, text, is_set)`.
///
/// 1. The string whose `Peq` is set, if it is either of them: the call
///    builds nothing.
/// 2. Else the string that was the text when that `Peq` was built, if it is
///    either of them. A run's shared string is in both of its first two
///    calls; when the first made it the text (it was the longer side), the
///    second makes it the pattern and the rest of the run hits rule 1.
/// 3. Else the shorter: the narrower word when that decides it.
///
/// The choice moves time only. The distance is symmetric, and the cut-off is
/// taken against the same bound whichever side is the pattern.
fn choose_pattern<'a>(scratch: &Scratch, a: &'a [u8], b: &'a [u8]) -> (&'a [u8], &'a [u8], bool) {
    if scratch.pattern.is(a) {
        (a, b, true)
    } else if scratch.pattern.is(b) {
        (b, a, true)
    } else if scratch.text.is(a) {
        (a, b, false)
    } else if scratch.text.is(b) || b.len() < a.len() {
        (b, a, false)
    } else {
        (a, b, false)
    }
}

/// Single-word Myers scan of an ASCII `text` (`n ≥ 1` chars) against the
/// pattern of `1 ≤ m ≤` the width of `W` chars whose bitmasks `peq` holds,
/// with the cut-off taken on the DP matrix's final diagonal. The pattern
/// may be longer or shorter than the text.
///
/// `D` never decreases along a diagonal, so every cell of the diagonal that
/// ends in `D[m][n]` is a lower bound on the distance. Within a column no
/// other cell gives a tighter one: a cell `r` rows off the diagonal bounds
/// the distance by its value minus `r`, and cells one row apart differ by
/// at most one. That diagonal enters the matrix on its top edge, at
/// `D[0][n − m] = n − m`, when the text is the longer side, and on its left
/// edge, at `D[m − n][0] = m − n`, when the pattern is: at `|n − m|` either
/// way. In each later column it moves one row down and grows by one unless
/// Myers' diagonal-zero vector `D0 = Xh | Mv` has that row's bit set; at
/// the last column it *is* the distance. So the first `n − m` columns (none
/// when `m ≥ n`) only advance the state, and the rest track one counter,
/// starting in row `m − n` (row 0 when `m ≤ n`), that serves as both the
/// cut-off and the result.
fn ascii_single_word<W: Word>(
    peq: &[W; 128],
    m: usize,
    text: &[u8],
    max_dist: usize,
) -> Option<usize> {
    let n = text.len();
    debug_assert!(m >= 1 && n >= 1 && n.abs_diff(m) <= max_dist);
    debug_assert!(text.is_ascii());
    let mut pv = !W::ZERO;
    let mut mv = W::ZERO;
    // One column: returns `D0` and advances `(pv, mv)`.
    let mut step = |c: u8| -> W {
        // `& 0x7F`: as in `Scratch::set_pattern`.
        let eq = peq[usize::from(c & 0x7F)];
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let d0 = xh | mv;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        // The top row of the DP matrix grows by one per column.
        let ph = (ph << 1) | W::ONE;
        pv = (mh << 1) | !(xv | ph);
        mv = ph & xv;
        d0
    };
    let (head, tail) = text.split_at(n.saturating_sub(m));
    for &c in head {
        step(c);
    }
    let mut diagonal = n.abs_diff(m);
    let mut row_bit = W::ONE << m.saturating_sub(n);
    for &c in tail {
        // An add, not a branch: for unrelated strings the bit is a coin
        // toss, while the cut-off below is taken once.
        diagonal += usize::from(step(c) & row_bit == W::ZERO);
        if diagonal > max_dist {
            break;
        }
        row_bit = row_bit << 1;
    }
    (diagonal <= max_dist).then_some(diagonal)
}

/// One column step of the blocked Myers scan: advances block state
/// `(pv, mv)` under horizontal input delta `hin ∈ {−1, 0, +1}` and returns
/// the horizontal output delta at the block's `high` bit.
#[inline(always)]
fn advance_block(pv: &mut u64, mv: &mut u64, eq: u64, hin: i32, high: u64) -> i32 {
    let xv = eq | *mv;
    let eq = eq | u64::from(hin < 0);
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let mut hout = 0i32;
    if ph & high != 0 {
        hout += 1;
    } else if mh & high != 0 {
        hout -= 1;
    }
    let ph = (ph << 1) | u64::from(hin > 0);
    let mh = (mh << 1) | u64::from(hin < 0);
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    hout
}

/// Blocked Myers for ASCII patterns with `m > 128`.
fn ascii_multi_block(
    scratch: &mut Scratch,
    pattern: &[u8],
    text: &[u8],
    max_dist: usize,
) -> Option<usize> {
    let m = pattern.len();
    let n = text.len();
    let blocks = m.div_ceil(WORD);
    if scratch.peq_stride < blocks {
        // Stride change invalidates the layout; start from a clean table.
        scratch.peq_blocks.clear();
        scratch.peq_blocks.resize(256 * blocks, 0);
        scratch.peq_stride = blocks;
    }
    let stride = scratch.peq_stride;
    for (i, &c) in pattern.iter().enumerate() {
        let row = c as usize * stride;
        if scratch.peq_blocks[row..row + blocks]
            .iter()
            .all(|&w| w == 0)
        {
            scratch.touched.push(c);
        }
        scratch.peq_blocks[row + i / WORD] |= 1u64 << (i % WORD);
    }
    scratch.pv.clear();
    scratch.pv.resize(blocks, !0u64);
    scratch.mv.clear();
    scratch.mv.resize(blocks, 0u64);
    let last_high = 1u64 << ((m - 1) % WORD);
    let mut score = m;
    let mut result = None;
    for (j, &c) in text.iter().enumerate() {
        let row = c as usize * stride;
        let mut hin = 1i32; // the top row of the DP matrix grows by 1/col
        for b in 0..blocks {
            let high = if b + 1 == blocks {
                last_high
            } else {
                1u64 << (WORD - 1)
            };
            hin = advance_block(
                &mut scratch.pv[b],
                &mut scratch.mv[b],
                scratch.peq_blocks[row + b],
                hin,
                high,
            );
        }
        score = (score as i64 + hin as i64) as usize;
        if score.saturating_sub(n - 1 - j) > max_dist {
            result = Some(None);
            break;
        }
    }
    for c in scratch.touched.drain(..) {
        let row = c as usize * stride;
        scratch.peq_blocks[row..row + blocks].fill(0);
    }
    match result {
        Some(rejected) => rejected,
        None => (score <= max_dist).then_some(score),
    }
}

/// Blocked Myers over chars for non-ASCII input: the pattern alphabet is
/// mapped to dense indices, text chars outside it contribute `Eq = 0`.
fn unicode_blocks(scratch: &mut Scratch, a: &str, b: &str, max_dist: usize) -> Option<usize> {
    let (pat_str, text_str) = if a.chars().count() <= b.chars().count() {
        (a, b)
    } else {
        (b, a)
    };
    scratch.uni_pattern.clear();
    scratch.uni_pattern.extend(pat_str.chars());
    let m = scratch.uni_pattern.len();
    let n = text_str.chars().count();
    if n - m > max_dist {
        return None;
    }
    if m == 0 {
        return Some(n);
    }
    let blocks = m.div_ceil(WORD);
    scratch.uni_map.clear();
    let mut alphabet = 0u32;
    for &c in &scratch.uni_pattern {
        scratch.uni_map.entry(c).or_insert_with(|| {
            alphabet += 1;
            alphabet - 1
        });
    }
    scratch.uni_peq.clear();
    scratch.uni_peq.resize(alphabet as usize * blocks, 0);
    for (i, &c) in scratch.uni_pattern.iter().enumerate() {
        let row = scratch.uni_map[&c] as usize * blocks;
        scratch.uni_peq[row + i / WORD] |= 1u64 << (i % WORD);
    }
    scratch.pv.clear();
    scratch.pv.resize(blocks, !0u64);
    scratch.mv.clear();
    scratch.mv.resize(blocks, 0u64);
    let last_high = 1u64 << ((m - 1) % WORD);
    let mut score = m;
    for (j, c) in text_str.chars().enumerate() {
        let row = scratch.uni_map.get(&c).map(|&i| i as usize * blocks);
        let mut hin = 1i32;
        for bl in 0..blocks {
            let eq = match row {
                Some(row) => scratch.uni_peq[row + bl],
                None => 0,
            };
            let high = if bl + 1 == blocks {
                last_high
            } else {
                1u64 << (WORD - 1)
            };
            hin = advance_block(&mut scratch.pv[bl], &mut scratch.mv[bl], eq, hin, high);
        }
        score = (score as i64 + hin as i64) as usize;
        if score.saturating_sub(n - 1 - j) > max_dist {
            return None;
        }
    }
    (score <= max_dist).then_some(score)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values_match_the_oracle() {
        for (a, b, d) in [
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("", "abc", 3),
            ("abc", "", 3),
            ("same", "same", 0),
            ("abcdef", "azced", 3),
        ] {
            assert_eq!(levenshtein(a, b), d, "{a:?} vs {b:?}");
            assert_eq!(levenshtein_naive(a, b), d, "oracle {a:?} vs {b:?}");
        }
    }

    #[test]
    fn exhaustive_small_binary_strings() {
        // Every pair of strings over {a, b} up to length 7: the bit-parallel
        // kernel must agree with the DP oracle everywhere.
        fn strings(len: usize) -> Vec<String> {
            if len == 0 {
                return vec![String::new()];
            }
            strings(len - 1)
                .into_iter()
                .flat_map(|s| ["a", "b"].into_iter().map(move |c| format!("{s}{c}")))
                .collect()
        }
        let all: Vec<String> = (0..=7).flat_map(strings).collect();
        for a in &all {
            for b in &all {
                assert_eq!(levenshtein(a, b), levenshtein_naive(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn multi_block_patterns_agree_with_oracle() {
        // Cross the 64- and 128-char block boundaries.
        let base: String = ('a'..='z').cycle().take(200).collect();
        for len_a in [63, 64, 65, 127, 128, 129, 200] {
            for len_b in [60, 64, 70, 130, 200] {
                let a = &base[..len_a];
                let mut b: String = base[..len_b].to_string();
                b = b.replace('c', "x").replace('k', "");
                assert_eq!(
                    levenshtein(a, &b),
                    levenshtein_naive(a, &b),
                    "lens {len_a}/{len_b}"
                );
            }
        }
    }

    #[test]
    fn unicode_agrees_with_oracle() {
        let cases = [
            ("héllo", "hello"),
            ("héllo wörld", "hello world"),
            ("ωμέγα", "omega"),
            ("", "héllo"),
            ("日本語のテキスト", "日本語テキスト"),
            ("αβγ".repeat(30).as_str(), "αβδ".repeat(30).as_str()),
        ]
        .map(|(a, b)| (a.to_string(), b.to_string()));
        for (a, b) in cases {
            assert_eq!(
                levenshtein(&a, &b),
                levenshtein_naive(&a, &b),
                "{a:?}/{b:?}"
            );
        }
    }

    #[test]
    fn bounded_agrees_with_exact_distance() {
        let pairs = [
            ("kitten", "sitting"),
            ("the shawshank redemption", "the shawshank redemtion"),
            ("abcdefgh", "zyxwvuts"),
            ("héllo wörld", "hello world"),
            ("", "abc"),
        ];
        for (a, b) in pairs {
            let d = levenshtein_naive(a, b);
            for k in 0..(d + 3) {
                let got = levenshtein_bounded(a, b, k);
                if k >= d {
                    assert_eq!(got, Some(d), "{a:?}/{b:?} k={k}");
                } else {
                    assert_eq!(got, None, "{a:?}/{b:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn bounded_rejects_on_length_gap_alone() {
        let long = "x".repeat(500);
        assert_eq!(levenshtein_bounded("abc", &long, 10), None);
        assert_eq!(levenshtein_bounded(&long, "abc", 10), None);
        // Unicode path too.
        assert_eq!(levenshtein_bounded("é", &long, 10), None);
    }

    #[test]
    fn bounded_zero_distance() {
        assert_eq!(levenshtein_bounded("same", "same", 0), Some(0));
        assert_eq!(levenshtein_bounded("same", "samx", 0), None);
        assert_eq!(levenshtein_bounded("", "", 0), Some(0));
    }

    #[test]
    fn scratch_reuse_across_alphabets_is_clean() {
        // Back-to-back calls with different patterns on the same thread:
        // a stale Peq entry would corrupt the second result.
        assert_eq!(levenshtein("abcabc", "abc"), 3);
        assert_eq!(levenshtein("xyzxyz", "xyz"), 3);
        assert_eq!(levenshtein("abcabc", "xyzxyz"), 6);
        let long_a = "ab".repeat(80);
        let long_b = "ba".repeat(80);
        assert_eq!(
            levenshtein(&long_a, &long_b),
            levenshtein_naive(&long_a, &long_b)
        );
        // Single-block after multi-block: strides must not leak.
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    /// The invariant between calls: the single-word tables hold exactly the
    /// kept pattern's bits.
    fn assert_tables_hold_the_kept_pattern() {
        SCRATCH.with(|s| {
            let s = s.borrow();
            let (mut narrow, mut wide) = ([0u64; 128], [0u128; 128]);
            for (row, &c) in s.pattern.as_bytes().iter().enumerate() {
                if s.pattern.len <= WORD {
                    narrow[usize::from(c)] |= 1 << row;
                } else {
                    wide[usize::from(c)] |= 1 << row;
                }
            }
            assert!(s.peq_u64 == narrow && s.peq_u128 == wide);
        });
    }

    fn kept_pattern_is(want: &str) -> bool {
        SCRATCH.with(|s| s.borrow().pattern.is(want.as_bytes()))
    }

    #[test]
    fn a_run_sharing_one_string_sets_its_peq_once() {
        let base: String = ('a'..='z').cycle().take(300).collect();
        // Shorter and longer than every partner, on both sides of the
        // u64 / u128 seam, and at the kernel's limit.
        for entity_len in [1, 40, 64, 65, 100, 128] {
            let entity = &base[3..3 + entity_len];
            for (call, partner_len) in [1, 30, 63, 64, 65, 66, 127, 128, 129, 130, 200]
                .into_iter()
                .enumerate()
            {
                let partner = base[..partner_len].replace('e', "#");
                let (a, b) = if call % 2 == 0 {
                    (entity, partner.as_str())
                } else {
                    (partner.as_str(), entity)
                };
                assert_eq!(
                    levenshtein(a, b),
                    levenshtein_naive(a, b),
                    "entity {entity_len}, partner {partner_len}"
                );
                assert_tables_hold_the_kept_pattern();
                // The first call may scan the entity as its text; from the
                // second on it is the pattern, whichever side it is passed
                // on and however short the partner.
                assert!(call == 0 || kept_pattern_is(entity));
            }
        }
    }

    #[test]
    fn a_pattern_longer_than_its_text_cuts_off_exactly() {
        let long: String = ('a'..='z').cycle().take(90).collect();
        // The first call scans `long` as the text of the shorter string;
        // the second finds it there and makes it the pattern.
        levenshtein(&long, "abc");
        for short_len in [1, 26, 27, 63, 64, 65, 89] {
            let short = long[..short_len].replace('k', "#");
            let (d, gap) = (levenshtein_naive(&long, &short), 90 - short_len);
            for k in [gap.saturating_sub(1), gap, d.saturating_sub(1), d, d + 1] {
                let want = (d <= k).then_some(d);
                assert_eq!(levenshtein_bounded(&long, &short, k), want, "k={k}");
                assert_eq!(levenshtein_bounded(&short, &long, k), want, "k={k}");
                // (A bound under the length gap is refused before any scan.)
                assert!(k < gap || kept_pattern_is(&long));
            }
        }
    }

    #[test]
    fn what_a_thread_keeps_is_bounded() {
        let pattern = "b".repeat(100);
        // A text that could never be a single-word pattern is not kept.
        assert_eq!(levenshtein(&pattern, &"a".repeat(5_000)), 5_000);
        SCRATCH.with(|s| assert_eq!(s.borrow().text.len, 0));
        assert!(kept_pattern_is(&pattern));
        // The blocked and Unicode kernels keep nothing and disturb nothing.
        assert_eq!(levenshtein(&"a".repeat(300), &"c".repeat(200)), 300);
        assert_eq!(levenshtein("héllo", "hello"), 1);
        assert!(kept_pattern_is(&pattern));
        assert_tables_hold_the_kept_pattern();
    }
}
