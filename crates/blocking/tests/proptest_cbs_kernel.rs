//! Property test for the stamped-block CBS kernel
//! ([`BlockCollection::cbs_from`] + [`PivotCbs::with`]) against its oracle,
//! the two-list sorted merge [`BlockCollection::common_blocks`].
//!
//! One [`EpochStamps`] scratch serves every pivot of a case — across growth
//! of the block slab between pivots and across the forced `u32` epoch wrap —
//! which is where a stale stamp would turn into a phantom common block.

use std::collections::BTreeSet;

use pier_blocking::{BlockCollection, PurgePolicy};
use pier_collections::EpochStamps;
use pier_types::{ErKind, ProfileId, SourceId, TokenId};
use proptest::prelude::*;

/// A profile: which source it comes from (Clean-Clean only) and its tokens.
fn profiles() -> impl Strategy<Value = Vec<(bool, BTreeSet<u32>)>> {
    prop::collection::vec(
        (any::<bool>(), prop::collection::btree_set(0u32..14, 1..7)),
        4..28,
    )
}

/// Every ordered (pivot, partner) pair of registered profiles: the stamped
/// count must be the merge's count.
fn check_all_pairs(c: &BlockCollection, stamps: &mut EpochStamps) -> Result<(), String> {
    let ids: Vec<ProfileId> = c.profile_ids().collect();
    for &pivot in &ids {
        let cbs = c.cbs_from(pivot, stamps);
        for &partner in &ids {
            let (got, want) = (cbs.with(partner), c.common_blocks(pivot, partner));
            if got != want {
                return Err(format!("({pivot}, {partner}): stamped {got}, merge {want}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stamped_count_equals_the_sorted_merge(
        profiles in profiles(),
        clean_clean in any::<bool>(),
        max_size in 2usize..6,
    ) {
        let kind = if clean_clean { ErKind::CleanClean } else { ErKind::Dirty };
        // Blocks average several members, so a cap this low purges some.
        let mut c = BlockCollection::with_policy(kind, PurgePolicy::max_size(max_size));
        let mut stamps = EpochStamps::new();
        let half = profiles.len() / 2;
        for (i, (second_source, tokens)) in profiles.iter().enumerate() {
            // The second half draws from a shifted token range: new block
            // ids beyond every stamp slot allocated so far.
            let shift = if i < half { 0 } else { 9 };
            let tokens: Vec<TokenId> = tokens.iter().map(|t| TokenId(t + shift)).collect();
            let source = SourceId(u8::from(clean_clean && *second_source));
            c.add_profile(ProfileId(i as u32), source, &tokens);
            if i + 1 == half {
                // Warm the scratch on the small slab first.
                prop_assert_eq!(check_all_pairs(&c, &mut stamps), Ok(()));
            }
        }
        let slots_before = stamps.slots();
        prop_assert_eq!(check_all_pairs(&c, &mut stamps), Ok(()));
        prop_assert!(stamps.slots() >= slots_before);

        // The next `begin` wraps the epoch; the pass after it walks epochs
        // whose values the pre-wrap stamps still carried.
        stamps.fast_forward_to_wrap();
        prop_assert_eq!(check_all_pairs(&c, &mut stamps), Ok(()));
        prop_assert_eq!(check_all_pairs(&c, &mut stamps), Ok(()));
    }
}

/// The property above is only as strong as its corpora: make sure the
/// generator's shape really produces purged blocks and slab growth.
#[test]
fn the_generated_shape_purges_blocks_and_grows_the_slab() {
    let mut c = BlockCollection::with_policy(ErKind::Dirty, PurgePolicy::max_size(3));
    let mut stamps = EpochStamps::new();
    for i in 0..6u32 {
        c.add_profile(ProfileId(i), SourceId(0), &[TokenId(1), TokenId(2 + i % 2)]);
    }
    assert!(c.purged_count() > 0);
    check_all_pairs(&c, &mut stamps).unwrap();
    let small = stamps.slots();
    c.add_profile(ProfileId(6), SourceId(0), &[TokenId(20)]);
    check_all_pairs(&c, &mut stamps).unwrap();
    assert!(stamps.slots() > small, "the scratch followed the slab");
    // Purged block 1 is shared by everyone and counts for no one.
    let cbs = c.cbs_from(ProfileId(0), &mut stamps);
    assert_eq!(cbs.with(ProfileId(2)), 1);
    assert_eq!(cbs.with(ProfileId(1)), 0);
}
