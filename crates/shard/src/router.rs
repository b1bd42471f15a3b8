//! Token-hash routing: which shard owns which token.
//!
//! The routing rule is the whole sharding story: a block *is* a token
//! (block id ≡ interned token id), so hashing a token to a shard partitions
//! the block collection exactly — every block lives in precisely one shard,
//! with the same members joining in the same arrival order as in an
//! unsharded run.
//!
//! The hash is computed on the dense interned [`TokenId`] (a splitmix64
//! finalizer over the `u32`), not on the token string: the router owns a
//! [`SharedTokenDictionary`] and tokenizes/interns each profile exactly
//! once, so by the time a token is routed its id is already in hand and a
//! per-shard string hash (one FNV pass per token *per shard copy*) would be
//! pure overhead. The trade: id assignment depends on first-arrival order,
//! so *which* shard owns a token can differ between runs with different
//! arrival orders. That is harmless — the merged output is
//! partition-invariant (every block still lives in exactly one shard, and
//! the CBS-style weights downstream are additive over blocks), which is
//! exactly what the sharded-equivalence integration test pins down.

use pier_types::{EntityProfile, SharedTokenDictionary, TokenId, Tokenizer};

/// Assigns tokens to shards and fans profiles out to the shards owning at
/// least one of their tokens.
///
/// Cloning a router is cheap and shares the dictionary: a pool of tokenizer
/// threads can each hold a clone and still intern into one id space.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: u16,
    tokenizer: Tokenizer,
    dictionary: SharedTokenDictionary,
}

impl ShardRouter {
    /// Creates a router over `shards` shards with the default tokenizer and
    /// a fresh shared dictionary.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: u16) -> Self {
        Self::with_tokenizer(shards, Tokenizer::default())
    }

    /// Creates a router with an explicit tokenizer (must match the
    /// tokenizer an unsharded reference pipeline would use).
    pub fn with_tokenizer(shards: u16, tokenizer: Tokenizer) -> Self {
        Self::with_dictionary(shards, tokenizer, SharedTokenDictionary::new())
    }

    /// Creates a router interning into an externally owned dictionary, so
    /// other pipeline components (profile store, shard blockers, matcher)
    /// speak the same id space.
    pub fn with_dictionary(
        shards: u16,
        tokenizer: Tokenizer,
        dictionary: SharedTokenDictionary,
    ) -> Self {
        assert!(shards > 0, "at least one shard required");
        ShardRouter {
            shards,
            tokenizer,
            dictionary,
        }
    }

    /// Number of shards this router distributes over.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The shared dictionary this router interns into.
    pub fn dictionary(&self) -> &SharedTokenDictionary {
        &self.dictionary
    }

    /// The shard owning the token with id `id`. Deterministic given the id:
    /// a splitmix64 finalizer mixes the dense `u32` so the modulo sees high
    /// entropy even though ids are sequential.
    pub fn shard_of_id(&self, id: TokenId) -> u16 {
        let mut h = (id.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h % self.shards as u64) as u16
    }

    /// Splits a sorted-distinct token-id list into per-shard subsets
    /// (preserving order; shards owning no token are omitted).
    pub fn route_ids(&self, tokens: &[TokenId]) -> Vec<(u16, Vec<TokenId>)> {
        let mut by_shard: Vec<Vec<TokenId>> = vec![Vec::new(); self.shards as usize];
        for &t in tokens {
            by_shard[self.shard_of_id(t) as usize].push(t);
        }
        by_shard
            .into_iter()
            .enumerate()
            .filter(|(_, subset)| !subset.is_empty())
            .map(|(s, subset)| (s as u16, subset))
            .collect()
    }

    /// Tokenizes `profile` once — interning against the shared dictionary
    /// through the reusable `scratch` buffer, so no per-token `String` is
    /// allocated after the vocabulary saturates — into its sorted distinct
    /// token ids, ready for [`ShardRouter::route_ids`].
    pub fn tokenize(&self, profile: &EntityProfile, scratch: &mut String) -> Vec<TokenId> {
        self.dictionary
            .tokenize_and_intern(&self.tokenizer, profile, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::{ProfileId, SourceId};

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let r = ShardRouter::new(4);
        let r2 = ShardRouter::new(4);
        for i in [0u32, 1, 2, 99, 4096] {
            let s = r.shard_of_id(TokenId(i));
            assert!(s < 4);
            assert_eq!(s, r.shard_of_id(TokenId(i)), "unstable for id {i}");
            assert_eq!(s, r2.shard_of_id(TokenId(i)), "router-dependent");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let r = ShardRouter::new(1);
        for i in 0..50u32 {
            assert_eq!(r.shard_of_id(TokenId(i)), 0);
        }
    }

    #[test]
    fn hash_spreads_ids_over_shards() {
        let r = ShardRouter::new(4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200u32 {
            seen.insert(r.shard_of_id(TokenId(i)));
        }
        assert_eq!(seen.len(), 4, "200 sequential ids must hit all 4 shards");
    }

    #[test]
    fn routing_partitions_the_token_set() {
        let r = ShardRouter::new(3);
        let p = EntityProfile::new(ProfileId(0), SourceId(0))
            .with("title", "progressive entity resolution")
            .with("venue", "edbt 2023");
        let mut scratch = String::new();
        let tokens = r.tokenize(&p, &mut scratch);
        assert!(!tokens.is_empty());
        assert_eq!(tokens.len(), r.dictionary().len());
        let by_shard = r.route_ids(&tokens);
        // Subsets are disjoint, ordered, and union back to the global list.
        let mut reunited: Vec<TokenId> = by_shard
            .iter()
            .flat_map(|(s, subset)| {
                for &t in subset {
                    assert_eq!(r.shard_of_id(t), *s);
                }
                assert!(subset.windows(2).all(|w| w[0] < w[1]), "order preserved");
                subset.iter().copied()
            })
            .collect();
        reunited.sort_unstable();
        assert_eq!(reunited, tokens);
        // Shards listed ascending.
        assert!(by_shard.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn cloned_routers_share_one_id_space() {
        let r = ShardRouter::new(2);
        let clone = r.clone();
        let mut scratch = String::new();
        let p0 = EntityProfile::new(ProfileId(0), SourceId(0)).with("t", "alpha beta");
        let p1 = EntityProfile::new(ProfileId(1), SourceId(0)).with("t", "beta gamma");
        let a = r.tokenize(&p0, &mut scratch);
        let b = clone.tokenize(&p1, &mut scratch);
        // "beta" got one id, visible through both clones.
        let beta = r.dictionary().get("beta").unwrap();
        assert!(a.contains(&beta));
        assert!(b.contains(&beta));
        assert_eq!(r.dictionary().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        ShardRouter::new(0);
    }
}
