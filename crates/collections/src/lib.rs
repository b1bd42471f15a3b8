//! Specialized collections backing the PIER prioritization algorithms.
//!
//! * [`bounded_heap`] — a bounded max-priority queue that evicts its lowest
//!   priority element on overflow. Every `CmpIndex` in the paper ("a bounded
//!   priority queue returning as first element the comparison with highest
//!   weight") is built on this.
//! * [`lazy_heap`] — a min-heap with O(1) key updates via lazy invalidation,
//!   used by I-PBS to find `b_min`, the pending block with the fewest
//!   unexecuted comparisons.
//! * [`bloom`] — a scalable Bloom filter (Almeida et al.), the comparison
//!   filter `CF` of Algorithm 3, per the paper's reference \[16\].
//! * [`scratch`] — the epoch-stamped [`NeighborAccumulator`] replacing the
//!   per-ingest `HashMap`s of the stage-A gather loop (I-WNP, CBS counts,
//!   graph building), and the [`EpochStamps`] set it resets with — on its
//!   own the block-stamp scratch of the fallback CBS kernel.
//! * [`hash`] — the vendored Fx-style hasher ([`FxHashMap`],
//!   [`FxHashSet`]) for the internal maps that must remain maps,
//!   re-exported from `pier-types`, whose token dictionary hashes with it
//!   too.

#![warn(missing_docs)]

pub mod bloom;
pub mod bounded_heap;
pub use pier_types::hash;
pub mod lazy_heap;
pub mod scratch;

pub use bloom::ScalableBloomFilter;
pub use bounded_heap::BoundedMaxHeap;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use lazy_heap::LazyMinHeap;
pub use scratch::{EpochStamps, NeighborAccumulator, ScratchStats};
