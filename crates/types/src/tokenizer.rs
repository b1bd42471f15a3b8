//! Schema-agnostic tokenization.
//!
//! Token blocking (the block-building technique used throughout the paper)
//! places a profile into one block per *distinct token* appearing in any of
//! its attribute values, ignoring attribute names entirely. This module
//! provides the tokenizer and the token dictionary,
//! [`SharedTokenDictionary`], that interns token strings into dense
//! [`TokenId`]s, so the blocking layer can work with integers.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

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

/// The map and string table behind [`SharedTokenDictionary`]'s lock.
#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<String, TokenId>,
    tokens: Vec<String>,
    string_bytes: usize,
}

impl Interner {
    /// Returns the id for `token`, interning it if unseen.
    fn intern(&mut self, token: &str) -> TokenId {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = TokenId(self.tokens.len() as u32);
        self.ids.insert(token.to_string(), id);
        self.tokens.push(token.to_string());
        self.string_bytes += token.len();
        id
    }

    fn get(&self, token: &str) -> Option<TokenId> {
        self.ids.get(token).copied()
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
        if let Some(id) = self.read().get(token) {
            return id;
        }
        // Double-checked under the write lock: `intern` re-probes the map,
        // so a racing intern of the same token yields the same id.
        self.write().intern(token)
    }

    /// Looks up an already-interned token.
    pub fn get(&self, token: &str) -> Option<TokenId> {
        self.read().get(token)
    }

    /// The string for an interned id, if valid (cloned out of the lock).
    pub fn resolve(&self, id: TokenId) -> Option<String> {
        self.read().tokens.get(id.index()).cloned()
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.read().tokens.len()
    }

    /// Whether no token has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.read().tokens.is_empty()
    }

    /// Total bytes of distinct token strings interned so far — the string
    /// storage a consumer of dense [`TokenId`]s avoids duplicating.
    pub fn string_bytes(&self) -> usize {
        self.read().string_bytes
    }

    /// Tokenizes `profile` and interns every distinct token, returning the
    /// sorted distinct [`TokenId`]s.
    ///
    /// Lock discipline: one read-locked pass resolves the (typical) hits
    /// through the reusable `scratch` buffer without allocating; only tokens
    /// missing from the dictionary are collected and interned under a single
    /// write-lock acquisition afterwards.
    pub fn tokenize_and_intern(
        &self,
        tokenizer: &Tokenizer,
        profile: &EntityProfile,
        scratch: &mut String,
    ) -> Vec<TokenId> {
        let mut ids: Vec<TokenId> = Vec::new();
        let mut misses: Vec<String> = Vec::new();
        {
            let dict = self.read();
            for value in profile.values() {
                tokenizer.for_each_token(value, scratch, |tok| match dict.get(tok) {
                    Some(id) => ids.push(id),
                    None => misses.push(tok.to_string()),
                });
            }
        }
        if !misses.is_empty() {
            let mut dict = self.write();
            for tok in &misses {
                ids.push(dict.intern(tok));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileId, SourceId};

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
