//! Schema-agnostic tokenization.
//!
//! Token blocking (the block-building technique used throughout the paper)
//! places a profile into one block per *distinct token* appearing in any of
//! its attribute values, ignoring attribute names entirely. This module
//! provides the tokenizer and the token dictionary,
//! [`SharedTokenDictionary`], that interns token strings into dense
//! [`TokenId`]s, so the blocking layer can work with integers.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;
use std::sync::{Arc, RwLock};

use crate::hash::FxHasher;
use crate::profile::EntityProfile;

/// Dense identifier for an interned token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Configuration for schema-agnostic tokenization.
///
/// Values are lower-cased and split on any non-alphanumeric character;
/// tokens shorter than [`Tokenizer::min_len`] are dropped (they produce
/// enormous, uninformative blocks), as are purely numeric tokens shorter
/// than [`Tokenizer::min_numeric_len`].
#[derive(Debug, Clone)]
pub struct Tokenizer {
    /// Minimum number of characters for an alphabetic/alphanumeric token.
    pub min_len: usize,
    /// Minimum number of characters for an all-digit token (e.g. years are
    /// kept with the default of 2, single digits are dropped).
    pub min_numeric_len: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer {
            min_len: 2,
            min_numeric_len: 2,
        }
    }
}

impl Tokenizer {
    /// Tokenizes a single string value into lower-cased tokens, in order of
    /// appearance, duplicates included.
    pub fn tokenize_value<'a>(&'a self, value: &'a str) -> impl Iterator<Item = String> + 'a {
        value
            .split(|c: char| !c.is_alphanumeric())
            .filter(move |t| self.keep(t))
            .map(|t| t.to_lowercase())
    }

    /// The *distinct* token set of a whole profile (all attribute values,
    /// attribute names ignored), sorted lexicographically.
    ///
    /// Sorting makes the output deterministic and enables linear-time set
    /// intersection in the Jaccard match function.
    pub fn profile_tokens(&self, profile: &EntityProfile) -> Vec<String> {
        let mut tokens: Vec<String> = profile
            .values()
            .flat_map(|v| self.tokenize_value(v))
            .collect();
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }

    /// Calls `f` once per kept token of `value`, lower-cased into the
    /// caller-supplied `scratch` buffer.
    ///
    /// This is the allocation-free sibling of [`Tokenizer::tokenize_value`]:
    /// the scratch buffer is reused across tokens, so dictionary lookups run
    /// on a `&str` without building a `String` per token. (Non-ASCII tokens
    /// fall back to `str::to_lowercase`, which matches `tokenize_value`'s
    /// context-sensitive case folding exactly.)
    pub fn for_each_token(&self, value: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
        for raw in value.split(|c: char| !c.is_alphanumeric()) {
            if !self.keep(raw) {
                continue;
            }
            scratch.clear();
            if raw.is_ascii() {
                for b in raw.bytes() {
                    scratch.push(b.to_ascii_lowercase() as char);
                }
            } else {
                scratch.push_str(&raw.to_lowercase());
            }
            f(scratch);
        }
    }

    /// The single pass behind [`SharedTokenDictionary::tokenize_and_intern`]
    /// for an ASCII `value`: splits it, lowercases each kept token into a
    /// stack buffer and hashes it, a word at a time, and calls `f` with the
    /// token's [`Key`]. A 64-bit mask per 64 bytes marks the alphanumeric
    /// bytes, and tokens are its runs of ones. A token longer than the
    /// stack buffer is lowercased into `scratch` instead. Byte for byte the
    /// same tokens as [`Tokenizer::for_each_token`], which an ASCII value's
    /// chars make one-byte splits, counts and folds.
    fn for_each_ascii_token(
        &self,
        value: &[u8],
        seed: u64,
        scratch: &mut String,
        mut f: impl FnMut(Key<'_>),
    ) {
        let mut buf = [0u8; STACK_TOKEN];
        // The start of a token that runs into the next 64 bytes.
        let mut open = None;
        for base in (0..value.len()).step_by(64) {
            let mut mask = alnum_mask(value, base);
            if mask & 1 == 0 {
                if let Some(start) = open.take() {
                    self.emit_ascii(value, start..base, seed, &mut buf, scratch, &mut f);
                }
            }
            while mask != 0 {
                let first = mask.trailing_zeros() as usize;
                let end = (!(mask | ((1 << first) - 1))).trailing_zeros() as usize;
                // Still open here only if this run starts at bit 0.
                let start = open.take().unwrap_or(base + first);
                if end == 64 {
                    open = Some(start);
                    break;
                }
                self.emit_ascii(value, start..base + end, seed, &mut buf, scratch, &mut f);
                mask &= !((1 << end) - 1);
            }
        }
        if let Some(start) = open {
            self.emit_ascii(value, start..value.len(), seed, &mut buf, scratch, &mut f);
        }
    }

    /// Hands the alphanumeric run `value[run]` to `f`, lowercased into
    /// `buf` (or `scratch`), if it is kept.
    fn emit_ascii(
        &self,
        value: &[u8],
        run: Range<usize>,
        seed: u64,
        buf: &mut [u8; STACK_TOKEN],
        scratch: &mut String,
        f: &mut impl FnMut(Key<'_>),
    ) {
        let (start, raw) = (run.start, &value[run]);
        if raw.len() < self.min_len.max(self.min_numeric_len) {
            let min = if raw.iter().all(u8::is_ascii_digit) {
                self.min_numeric_len
            } else {
                self.min_len
            };
            if raw.len() < min {
                return;
            }
        }
        if raw.len() > STACK_TOKEN {
            scratch.clear();
            scratch.extend(raw.iter().map(|b| b.to_ascii_lowercase() as char));
            return f(Key::new(scratch.as_bytes(), seed));
        }
        let mut hasher = FxHasher::with_seed(seed);
        let mut head = [0; 2];
        for at in (0..raw.len()).step_by(8) {
            // Every byte of the run is alphanumeric: bit 5 lowercases a
            // letter and is already set in a digit.
            let mut word = load(value, start + at) | (ONES * 0x20);
            if raw.len() - at < 8 {
                word &= (1 << (8 * (raw.len() - at))) - 1;
            }
            buf[at..at + 8].copy_from_slice(&word.to_le_bytes());
            if at < 16 {
                head[at / 8] = word;
            }
            hasher.write_u64(word);
        }
        f(Key {
            bytes: &buf[..raw.len()],
            hash: hasher.finish(),
            head,
        });
    }

    fn keep(&self, raw: &str) -> bool {
        let n = raw.chars().count();
        if n == 0 {
            return false;
        }
        if raw.chars().all(|c| c.is_ascii_digit()) {
            n >= self.min_numeric_len
        } else {
            n >= self.min_len
        }
    }
}

/// The longest token the ASCII path lowercases on the stack.
const STACK_TOKEN: usize = 64;

/// A one in every byte of a word.
const ONES: u64 = u64::from_le_bytes([1; 8]);

/// The little-endian word of `bytes` at `at`, zero-padded past their end.
fn load(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
        None => {
            let tail = bytes.get(at..).unwrap_or_default();
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    }
}

/// The high bit of each byte of `word` set iff the byte lies in `lo..=hi`.
/// Every byte must be below 0x80, so no sum carries into the next byte.
fn in_range(word: u64, lo: u8, hi: u8) -> u64 {
    let at_least_lo = word.wrapping_add(ONES * u64::from(0x80 - lo));
    let above_hi = word.wrapping_add(ONES * u64::from(0x7f - hi));
    at_least_lo & !above_hi & (ONES << 7)
}

/// Bit `i` set iff `value[base + i]` is ASCII alphanumeric; `value` must
/// be ASCII.
fn alnum_mask(value: &[u8], base: usize) -> u64 {
    let mut mask = 0;
    for k in 0..8 {
        let word = load(value, base + 8 * k);
        let hits = in_range(word | (ONES * 0x20), b'a', b'z') | in_range(word, b'0', b'9');
        // Gathers the eight high bits into the top byte, byte j to bit j.
        let bits = (hits >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        mask |= bits << (8 * k);
    }
    mask
}

/// A lowercased token as [`Interner`] looks it up: its bytes, its hash (the
/// workspace's Fx hash over its little-endian 8-byte words, the last one
/// zero-padded, started from the dictionary's seed) and its first two
/// words.
#[derive(Debug, Clone, Copy)]
struct Key<'t> {
    bytes: &'t [u8],
    hash: u64,
    head: [u64; 2],
}

impl<'t> Key<'t> {
    fn new(bytes: &'t [u8], seed: u64) -> Self {
        let mut hasher = FxHasher::with_seed(seed);
        hasher.write(bytes);
        Key {
            bytes,
            hash: hasher.finish(),
            head: [load(bytes, 0), load(bytes, 8)],
        }
    }
}

/// The id of an empty [`Slot`].
const EMPTY: u32 = u32::MAX;

/// One slot of [`Interner`]'s table: a token's id, length and first two
/// words, so a probe settles a token of up to 16 bytes (all but 2 in 10 000
/// occurrences on the dbpedia corpus) without leaving the table.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: [u64; 2],
    len: u32,
    id: u32,
}

/// The string store behind [`SharedTokenDictionary`]'s lock: each distinct
/// token's bytes once, back to back in id order, and an open-addressing
/// table of ids keyed by the token's hash.
#[derive(Debug)]
struct Interner {
    /// Where every [`Key`]'s hash starts: drawn per dictionary, so a corpus
    /// cannot be built offline to pile its tokens into one probe run (the
    /// tokens are outside input). Ids never depend on it.
    seed: u64,
    /// Every token's bytes, in id order.
    arena: Vec<u8>,
    /// Where each token ends in `arena`; it starts where the previous ends.
    ends: Vec<u32>,
    /// Linear probing from the hash's top bits. A power of two, at most
    /// three quarters full (empty before the first token).
    slots: Vec<Slot>,
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            seed: RandomState::new().build_hasher().finish(),
            arena: Vec::new(),
            ends: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl Interner {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn token(&self, id: u32) -> &[u8] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start as usize..self.ends[id] as usize]
    }

    /// The slot holding `key`, or the empty slot it would go in. The table
    /// must not be empty.
    fn probe(&self, key: Key<'_>) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (key.hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY
                || (slot.head == key.head
                    && slot.len as usize == key.bytes.len()
                    && (key.bytes.len() <= 16 || self.token(slot.id) == key.bytes))
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, key: Key<'_>) -> Option<TokenId> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = self.slots[self.probe(key)];
        (slot.id != EMPTY).then_some(TokenId(slot.id))
    }

    /// Returns the id for `key`, interning it as the next id if unseen.
    fn intern(&mut self, key: Key<'_>) -> TokenId {
        if 3 * self.slots.len() < 4 * (self.len() + 1) {
            self.grow();
        }
        let i = self.probe(key);
        if self.slots[i].id == EMPTY {
            let id = u32::try_from(self.len())
                .ok()
                .filter(|&id| id != EMPTY)
                .expect("fewer than u32::MAX distinct tokens");
            self.arena.extend_from_slice(key.bytes);
            let end = u32::try_from(self.arena.len()).expect("token arena under 4 GiB");
            self.ends.push(end);
            self.slots[i] = Slot {
                head: key.head,
                // At most `end`, which fits.
                len: key.bytes.len() as u32,
                id,
            };
        }
        TokenId(self.slots[i].id)
    }

    /// Doubles the table and re-files every token by its hash.
    fn grow(&mut self) {
        let empty = Slot {
            head: [0; 2],
            len: 0,
            id: EMPTY,
        };
        self.slots = vec![empty; (2 * self.slots.len()).max(64)];
        for id in 0..self.len() as u32 {
            let key = Key::new(self.token(id), self.seed);
            let i = self.probe(key);
            self.slots[i] = Slot {
                head: key.head,
                len: key.bytes.len() as u32,
                id,
            };
        }
    }
}

/// Interns token strings into dense [`TokenId`]s, shared across threads.
///
/// The dictionary only ever grows: incremental blocking keeps it alive for
/// the lifetime of a stream so token ids are stable across increments.
/// Cloning is cheap (an `Arc` bump); all clones intern into the same
/// underlying dictionary, so a token gets exactly one stable id no matter
/// which thread first sees it. The dictionary is append-only, which keeps
/// the concurrency story simple: reads (the overwhelmingly common case once
/// the vocabulary saturates) take a shared lock, and only a genuinely new
/// token escalates to the exclusive lock — with a second lookup under it,
/// since another thread may have interned the same token in between.
#[derive(Debug, Default, Clone)]
pub struct SharedTokenDictionary {
    inner: Arc<RwLock<Interner>>,
}

impl SharedTokenDictionary {
    /// Creates an empty shared dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Interner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Interner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the id for `token`, interning it if unseen.
    pub fn intern(&self, token: &str) -> TokenId {
        let dict = self.read();
        let key = Key::new(token.as_bytes(), dict.seed);
        if let Some(id) = dict.get(key) {
            return id;
        }
        drop(dict);
        // Double-checked under the write lock: `intern` re-probes the table,
        // so a racing intern of the same token yields the same id.
        self.write().intern(key)
    }

    /// Looks up an already-interned token.
    pub fn get(&self, token: &str) -> Option<TokenId> {
        let dict = self.read();
        dict.get(Key::new(token.as_bytes(), dict.seed))
    }

    /// The string for an interned id, if valid (copied out of the lock).
    pub fn resolve(&self, id: TokenId) -> Option<String> {
        let dict = self.read();
        (id.index() < dict.len()).then(|| {
            String::from_utf8(dict.token(id.0).to_vec()).expect("tokens are interned from strs")
        })
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no token has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of distinct token strings interned so far — the string
    /// storage a consumer of dense [`TokenId`]s avoids duplicating.
    pub fn string_bytes(&self) -> usize {
        self.read().arena.len()
    }

    /// Tokenizes `profile` and interns every distinct token, returning the
    /// sorted distinct [`TokenId`]s. Unseen tokens get the next ids in
    /// order of first appearance.
    ///
    /// One pass per value splits it, lowercases each token and hashes it
    /// (an ASCII value on the stack, any other through `scratch` and
    /// [`Tokenizer::for_each_token`]'s `str::to_lowercase` folds), and looks
    /// the token up under one read lock per profile. Misses are copied into
    /// one buffer, not a `String` each, and interned in order under a
    /// single write-lock acquisition afterwards.
    pub fn tokenize_and_intern(
        &self,
        tokenizer: &Tokenizer,
        profile: &EntityProfile,
        scratch: &mut String,
    ) -> Vec<TokenId> {
        // At most one token per `min + 1` bytes, one of them a separator.
        let shortest = tokenizer.min_len.min(tokenizer.min_numeric_len).max(1);
        let bound = profile
            .values()
            .map(|v| (v.len() + 1) / (shortest + 1))
            .sum();
        let mut ids: Vec<TokenId> = Vec::with_capacity(bound);
        // The missed tokens' bytes back to back, and where each one ends.
        let mut missed: Vec<u8> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        let seed;
        {
            let dict = self.read();
            seed = dict.seed;
            let mut look_up = |key: Key<'_>| match dict.get(key) {
                Some(id) => ids.push(id),
                None => {
                    missed.extend_from_slice(key.bytes);
                    ends.push(missed.len());
                }
            };
            for value in profile.values() {
                if value.is_ascii() {
                    tokenizer.for_each_ascii_token(value.as_bytes(), seed, scratch, &mut look_up);
                } else {
                    tokenizer.for_each_token(value, scratch, |token| {
                        look_up(Key::new(token.as_bytes(), seed))
                    });
                }
            }
        }
        if !ends.is_empty() {
            let mut dict = self.write();
            let mut start = 0;
            for &end in &ends {
                ids.push(dict.intern(Key::new(&missed[start..end], seed)));
                start = end;
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids.shrink_to_fit();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileId, SourceId};
    use std::collections::HashMap;

    fn profile(values: &[&str]) -> EntityProfile {
        let mut p = EntityProfile::new(ProfileId(0), SourceId(0));
        for (i, v) in values.iter().enumerate() {
            p = p.with(format!("a{i}"), *v);
        }
        p
    }

    #[test]
    fn tokenize_lowercases_and_splits() {
        let t = Tokenizer::default();
        let toks: Vec<String> = t.tokenize_value("The Matrix: Reloaded (2003)").collect();
        assert_eq!(toks, vec!["the", "matrix", "reloaded", "2003"]);
    }

    #[test]
    fn short_tokens_are_dropped() {
        let t = Tokenizer::default();
        let toks: Vec<String> = t.tokenize_value("a I 7 of 42").collect();
        // "a", "I", "7" dropped; "of" (len 2) and "42" kept.
        assert_eq!(toks, vec!["of", "42"]);
    }

    #[test]
    fn min_len_is_configurable() {
        let t = Tokenizer {
            min_len: 4,
            min_numeric_len: 4,
        };
        let toks: Vec<String> = t.tokenize_value("the 1999 matrix ab").collect();
        assert_eq!(toks, vec!["1999", "matrix"]);
    }

    #[test]
    fn profile_tokens_are_distinct_and_sorted() {
        let t = Tokenizer::default();
        let p = profile(&["alpha beta", "beta gamma", "ALPHA"]);
        assert_eq!(t.profile_tokens(&p), vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn profile_tokens_ignore_attribute_names() {
        let t = Tokenizer::default();
        let p = EntityProfile::new(ProfileId(0), SourceId(0)).with("director_name", "kubrick");
        assert_eq!(t.profile_tokens(&p), vec!["kubrick"]);
    }

    #[test]
    fn unicode_values_tokenize() {
        let t = Tokenizer::default();
        let toks: Vec<String> = t.tokenize_value("Amélie—Paris").collect();
        assert_eq!(toks, vec!["amélie", "paris"]);
    }

    #[test]
    fn dictionary_interns_stably() {
        let d = SharedTokenDictionary::new();
        let a = d.intern("alpha");
        let b = d.intern("beta");
        let a2 = d.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(a).as_deref(), Some("alpha"));
        assert_eq!(d.get("beta"), Some(b));
        assert_eq!(d.get("gamma"), None);
    }

    #[test]
    fn empty_dictionary_reports_empty() {
        let d = SharedTokenDictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.resolve(TokenId(0)), None);
    }

    #[test]
    fn for_each_token_matches_tokenize_value() {
        let t = Tokenizer::default();
        for value in [
            "The Matrix: Reloaded (2003)",
            "a I 7 of 42",
            "Amélie—Paris",
            "ΣΊΣΥΦΟΣ rolls",
            "",
        ] {
            let eager: Vec<String> = t.tokenize_value(value).collect();
            let mut scratch = String::new();
            let mut streamed = Vec::new();
            t.for_each_token(value, &mut scratch, |tok| streamed.push(tok.to_string()));
            assert_eq!(eager, streamed, "value {value:?}");
        }
    }

    /// The ASCII path's keys are [`Key::new`]'s, whatever follows the token
    /// in its value: a key hashed differently would miss every lookup (the
    /// write lock's re-probe would still find the token, so ids alone do
    /// not show it).
    #[test]
    fn ascii_keys_match_the_generic_key() {
        let t = Tokenizer {
            min_len: 1,
            min_numeric_len: 1,
        };
        for (len, seed) in (1..=70).zip([0, u64::MAX, 0x9e37_79b9_7f4a_7c15].into_iter().cycle()) {
            let token: String = (0..len).map(|i| (b'A' + (i % 26) as u8) as char).collect();
            let value = format!("{token} Zz9 {}", "Q".repeat(len % 11));
            let mut keys = Vec::new();
            t.for_each_ascii_token(value.as_bytes(), seed, &mut String::new(), |key| {
                let expected = Key::new(key.bytes, seed);
                assert_eq!((key.hash, key.head), (expected.hash, expected.head));
                keys.push(key.bytes.to_vec());
            });
            assert_eq!(keys[0], token.to_lowercase().into_bytes(), "length {len}");
        }
    }

    #[test]
    fn alnum_mask_marks_exactly_the_alphanumeric_bytes() {
        let value: Vec<u8> = (0u8..128).chain(0..128).collect();
        for base in [0, 64, 128, 192] {
            let mask = alnum_mask(&value, base);
            for i in 0..64 {
                let alnum = value.get(base + i).is_some_and(u8::is_ascii_alphanumeric);
                assert_eq!(mask >> i & 1 == 1, alnum, "byte {}", base + i);
            }
        }
        assert_eq!(alnum_mask(b"ab", 0), 0b11);
    }

    #[test]
    fn string_bytes_counts_distinct_tokens_once() {
        let d = SharedTokenDictionary::new();
        d.intern("alpha");
        d.intern("beta");
        d.intern("alpha");
        assert_eq!(d.string_bytes(), "alpha".len() + "beta".len());
    }

    #[test]
    fn tokenize_and_intern_matches_profile_tokens() {
        let t = Tokenizer::default();
        let p = profile(&["Zebra apple", "apple BETA"]);
        let d = SharedTokenDictionary::new();
        let mut scratch = String::new();
        let direct = d.tokenize_and_intern(&t, &p, &mut scratch);
        // Ids are assigned in order of appearance, not lexicographically,
        // but they resolve to exactly the string path's distinct tokens.
        let mut resolved: Vec<String> = direct.iter().map(|&i| d.resolve(i).unwrap()).collect();
        resolved.sort_unstable();
        assert_eq!(resolved, t.profile_tokens(&p));
        assert!(direct.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn shared_dictionary_clones_intern_into_one_store() {
        let shared = SharedTokenDictionary::new();
        let clone = shared.clone();
        let a = shared.intern("alpha");
        let a2 = clone.intern("alpha");
        assert_eq!(a, a2);
        assert_eq!(shared.len(), 1);
        assert_eq!(clone.resolve(a).as_deref(), Some("alpha"));
        assert_eq!(shared.get("alpha"), Some(a));
        assert_eq!(shared.get("beta"), None);
        assert!(!shared.is_empty());
        assert_eq!(shared.string_bytes(), "alpha".len());
    }

    #[test]
    fn shared_tokenize_and_intern_is_sorted_distinct() {
        let shared = SharedTokenDictionary::new();
        let t = Tokenizer::default();
        shared.intern("zebra");
        let p = profile(&["zebra apple", "apple"]);
        let mut scratch = String::new();
        let ids = shared.tokenize_and_intern(&t, &p, &mut scratch);
        assert_eq!(ids.len(), 2);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(shared.len(), 2);
    }

    /// Satellite stress test: N threads interning heavily overlapping
    /// vocabularies concurrently must converge on exactly one stable id per
    /// distinct token, with every id resolving back to its token.
    #[test]
    fn concurrent_interning_yields_one_stable_id_per_token() {
        use std::sync::Mutex;

        const THREADS: usize = 8;
        const ROUNDS: usize = 40;
        let shared = SharedTokenDictionary::new();
        let observed: Mutex<HashMap<String, TokenId>> = Mutex::new(HashMap::new());
        std::thread::scope(|scope| {
            for th in 0..THREADS {
                let shared = shared.clone();
                let observed = &observed;
                scope.spawn(move || {
                    let t = Tokenizer::default();
                    let mut scratch = String::new();
                    for round in 0..ROUNDS {
                        // Overlapping vocabulary: `common-*` tokens are raced
                        // by every thread, `own-*` are thread-private.
                        let p = profile(&[
                            &format!("common-{} common-{}", round, (round + 1) % ROUNDS),
                            &format!("own-{th}-{round} shared-vocab"),
                        ]);
                        let ids = shared.tokenize_and_intern(&t, &p, &mut scratch);
                        let mut seen = observed.lock().unwrap();
                        for id in ids {
                            let tok = shared.resolve(id).expect("id resolves");
                            match seen.get(&tok) {
                                Some(&prev) => assert_eq!(prev, id, "token {tok:?} got two ids"),
                                None => {
                                    seen.insert(tok, id);
                                }
                            }
                        }
                    }
                });
            }
        });
        let seen = observed.lock().unwrap();
        // Every distinct token interned exactly once, ids dense in [0, len).
        assert_eq!(shared.len(), seen.len());
        for (tok, &id) in seen.iter() {
            assert_eq!(shared.get(tok), Some(id));
            assert!(id.index() < shared.len());
        }
    }
}
