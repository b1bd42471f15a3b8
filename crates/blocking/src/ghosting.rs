//! Block ghosting — per-profile incremental block cleaning.
//!
//! When generating comparisons for a newly arrived profile `p_x`, not all of
//! its blocks are equally informative: blocks much larger than the smallest
//! block of `B_x` are dominated by frequent tokens. Block ghosting (\[17\],
//! used in Algorithm 2 of the PIER paper) keeps only the most representative
//! blocks: with `b_min` the smallest block of `B_x` and parameter `β ∈
//! (0, 1]`, a block `b` survives iff `|b| ≤ |b_min| / β`.
//!
//! `β = 1` keeps only blocks as small as the smallest; `β → 0` keeps all
//! blocks. The default across experiments is `β = 0.5` (blocks up to twice
//! the smallest survive); the `ablation_ghosting` bench sweeps it.

use pier_observe::{Event, Observer};
use pier_types::{PierError, ProfileId};

use crate::collection::BlockId;

/// Applies block ghosting to the blocks of one profile.
///
/// `blocks` holds `(block id, current size)` pairs (from
/// [`crate::BlockCollection::active_blocks_of`]); the survivors' ids are
/// returned in the input order.
///
/// `floor` is an externally supplied lower bound on `|b_min|`: the sharded
/// pipeline passes the *global* minimum block size of the profile here,
/// because a shard-local block list systematically overestimates `|b_min|`
/// (the globally smallest blocks live on other shards), which inflates the
/// ghosting threshold and makes shards scan oversized blocks the unsharded
/// pipeline ghosts. The effective minimum is `min(local minimum, floor)`.
///
/// When `observer` is enabled, the kept/dropped split for `profile` is
/// reported as an [`Event::BlockGhosted`]; a disabled observer costs one
/// branch and builds no event (the zero-overhead contract of DESIGN.md
/// §7).
///
/// # Errors
/// Returns [`PierError::InvalidConfig`] if `beta` is outside `(0, 1]`.
pub fn ghost_blocks(
    blocks: &[(BlockId, usize)],
    beta: f64,
    floor: Option<usize>,
    profile: ProfileId,
    observer: &Observer,
) -> Result<Vec<BlockId>, PierError> {
    if !(beta > 0.0 && beta <= 1.0) {
        return Err(PierError::InvalidConfig {
            parameter: "beta",
            message: format!("block ghosting requires beta in (0, 1], got {beta}"),
        });
    }
    let Some(local_min) = blocks.iter().map(|&(_, s)| s).min() else {
        return Ok(Vec::new());
    };
    let min_size = floor.map_or(local_min, |f| f.min(local_min));
    let threshold = min_size as f64 / beta;
    let kept: Vec<BlockId> = blocks
        .iter()
        .filter(|&&(_, size)| size as f64 <= threshold)
        .map(|&(id, _)| id)
        .collect();
    observer.emit(|| Event::BlockGhosted {
        profile,
        kept: kept.len(),
        dropped: blocks.len() - kept.len(),
    });
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    /// Unobserved [`ghost_blocks`].
    fn ghost(
        blocks: &[(BlockId, usize)],
        beta: f64,
        floor: Option<usize>,
    ) -> Result<Vec<BlockId>, PierError> {
        ghost_blocks(blocks, beta, floor, ProfileId(0), &Observer::disabled())
    }

    #[test]
    fn keeps_blocks_up_to_threshold() {
        let blocks = vec![(b(1), 2), (b(2), 4), (b(3), 5), (b(4), 10)];
        // beta = 0.5 -> threshold = 2 / 0.5 = 4.
        let kept = ghost(&blocks, 0.5, None).unwrap();
        assert_eq!(kept, vec![b(1), b(2)]);
    }

    #[test]
    fn beta_one_keeps_only_minimum_sized() {
        let blocks = vec![(b(1), 2), (b(2), 2), (b(3), 3)];
        let kept = ghost(&blocks, 1.0, None).unwrap();
        assert_eq!(kept, vec![b(1), b(2)]);
    }

    #[test]
    fn small_beta_keeps_everything() {
        let blocks = vec![(b(1), 1), (b(2), 500)];
        let kept = ghost(&blocks, 0.001, None).unwrap();
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(ghost(&[], 0.5, None).unwrap().is_empty());
    }

    #[test]
    fn single_block_always_survives() {
        let kept = ghost(&[(b(9), 1000)], 1.0, None).unwrap();
        assert_eq!(kept, vec![b(9)]);
    }

    #[test]
    fn invalid_beta_is_rejected() {
        assert!(ghost(&[(b(1), 1)], 0.0, None).is_err());
        assert!(ghost(&[(b(1), 1)], 1.5, None).is_err());
        assert!(ghost(&[(b(1), 1)], -0.5, None).is_err());
        assert!(ghost(&[(b(1), 1)], f64::NAN, None).is_err());
    }

    #[test]
    fn floor_tightens_the_threshold() {
        // Local min = 4 -> threshold 8 keeps everything; a global floor of
        // 2 (the profile's smallest block lives on another shard) tightens
        // the threshold to 4.
        let blocks = vec![(b(1), 4), (b(2), 6), (b(3), 8)];
        assert_eq!(ghost(&blocks, 0.5, None).unwrap().len(), 3);
        assert_eq!(ghost(&blocks, 0.5, Some(2)).unwrap(), vec![b(1)]);
        // A floor above the local minimum is ignored.
        assert_eq!(ghost(&blocks, 0.5, Some(100)).unwrap().len(), 3);
    }

    #[test]
    fn observed_ghosting_reports_the_split() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct Capture(AtomicUsize, AtomicUsize);
        impl pier_observe::PipelineObserver for Capture {
            fn on_event(&self, event: &Event) {
                if let Event::BlockGhosted { kept, dropped, .. } = event {
                    self.0.store(*kept, Ordering::Relaxed);
                    self.1.store(*dropped, Ordering::Relaxed);
                }
            }
        }
        let sink = Arc::new(Capture(AtomicUsize::new(0), AtomicUsize::new(0)));
        let observer = Observer::new(sink.clone());
        let blocks = vec![(b(1), 2), (b(2), 4), (b(3), 10)];
        let kept = ghost_blocks(&blocks, 0.5, None, ProfileId(3), &observer).unwrap();
        assert_eq!(kept, vec![b(1), b(2)]);
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
        assert_eq!(sink.1.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn threshold_is_inclusive() {
        // min = 3, beta = 0.75 -> threshold = 4.0; size-4 block survives.
        let blocks = vec![(b(1), 3), (b(2), 4), (b(3), 5)];
        let kept = ghost(&blocks, 0.75, None).unwrap();
        assert_eq!(kept, vec![b(1), b(2)]);
    }
}
