//! Scalable Bloom filter.
//!
//! The paper's comparison filter `CF` (Algorithm 3) checks whether a
//! comparison was already emitted; here only the shard merger's
//! cross-shard dedup uses it, as the single-lane emitters decide repeats
//! exactly. Streams are unbounded, so a fixed-size
//! Bloom filter would saturate; following the paper's reference \[16\]
//! (Gazzarri & Herschel, EDBT 2020) we use a *scalable* Bloom filter
//! (Almeida et al., 2007): a sequence of plain Bloom slices with
//! geometrically growing capacity and geometrically tightening error
//! probability, so the compound false-positive rate stays bounded by
//! `p0 / (1 - r)` no matter how many elements arrive.
//!
//! Keys are `u64` (PIER uses [`pier_types::Comparison::key`]); hashing uses
//! two independent SplitMix64 finalizers combined with the Kirsch–
//! Mitzenmacher double-hashing scheme `h_i = h1 + i·h2`.

/// One fixed-size Bloom slice.
#[derive(Debug, Clone)]
struct BloomSlice {
    bits: Vec<u64>,
    /// Number of bits (power of two for cheap masking).
    mask: u64,
    /// Number of hash functions.
    k: u32,
    /// Number of elements inserted into this slice.
    count: usize,
    /// Elements this slice is sized for.
    capacity: usize,
}

impl BloomSlice {
    fn new(capacity: usize, error: f64) -> Self {
        // Optimal bits per element: -ln(p) / ln(2)^2.
        let ln2 = std::f64::consts::LN_2;
        let bits_per_elem = -error.ln() / (ln2 * ln2);
        let want_bits = ((capacity as f64) * bits_per_elem).ceil().max(64.0) as u64;
        let nbits = want_bits.next_power_of_two();
        let k = ((nbits as f64 / capacity as f64) * ln2).round().max(1.0) as u32;
        BloomSlice {
            bits: vec![0u64; (nbits / 64) as usize],
            mask: nbits - 1,
            k,
            count: 0,
            capacity,
        }
    }

    #[inline]
    fn index_pair(key: u64) -> (u64, u64) {
        (splitmix64(key), splitmix64(key ^ 0x9e37_79b9_7f4a_7c15))
    }

    fn contains(&self, key: u64) -> bool {
        let (h1, h2) = Self::index_pair(key);
        (0..self.k).all(|i| {
            let bit = (h1.wrapping_add((i as u64).wrapping_mul(h2))) & self.mask;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Sets all k bits; returns `true` if at least one bit was previously
    /// unset (i.e. the key was definitely new to this slice).
    fn insert(&mut self, key: u64) -> bool {
        let (h1, h2) = Self::index_pair(key);
        let mut new = false;
        for i in 0..self.k {
            let bit = (h1.wrapping_add((i as u64).wrapping_mul(h2))) & self.mask;
            let word = &mut self.bits[(bit / 64) as usize];
            let mask = 1 << (bit % 64);
            if *word & mask == 0 {
                *word |= mask;
                new = true;
            }
        }
        if new {
            self.count += 1;
        }
        new
    }

    fn is_full(&self) -> bool {
        self.count >= self.capacity
    }
}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A scalable Bloom filter over `u64` keys.
///
/// ```
/// use pier_collections::ScalableBloomFilter;
/// let mut filter = ScalableBloomFilter::for_comparisons();
/// assert!(filter.insert(42));  // definitely new
/// assert!(!filter.insert(42)); // already present
/// assert!(filter.contains(42));
/// ```
#[derive(Debug, Clone)]
pub struct ScalableBloomFilter {
    slices: Vec<BloomSlice>,
    initial_capacity: usize,
    initial_error: f64,
    /// Capacity growth factor between consecutive slices.
    growth: usize,
    /// Error tightening ratio between consecutive slices.
    tightening: f64,
    inserted: usize,
}

impl ScalableBloomFilter {
    /// Creates a filter sized for `initial_capacity` elements at
    /// `initial_error` false-positive probability; grows automatically.
    ///
    /// # Panics
    /// Panics if `initial_capacity == 0` or `initial_error` ∉ (0, 1).
    pub fn new(initial_capacity: usize, initial_error: f64) -> Self {
        assert!(initial_capacity > 0, "capacity must be positive");
        assert!(
            initial_error > 0.0 && initial_error < 1.0,
            "error must be in (0, 1)"
        );
        ScalableBloomFilter {
            slices: vec![BloomSlice::new(initial_capacity, initial_error)],
            initial_capacity,
            initial_error,
            growth: 2,
            tightening: 0.85,
            inserted: 0,
        }
    }

    /// A filter with defaults suitable for comparison streams
    /// (64k initial capacity, 1% compound-error budget per slice 0).
    pub fn for_comparisons() -> Self {
        Self::new(1 << 16, 0.01)
    }

    /// Whether `key` may have been inserted (false positives possible,
    /// false negatives impossible).
    pub fn contains(&self, key: u64) -> bool {
        self.slices.iter().any(|s| s.contains(key))
    }

    /// Inserts `key`. Returns `true` if the key was definitely not present
    /// before (mirrors the `¬CF.contains` + `CF.add` idiom of Algorithm 3 in
    /// one call).
    pub fn insert(&mut self, key: u64) -> bool {
        if self.contains(key) {
            return false;
        }
        if self.slices.last().expect("at least one slice").is_full() {
            let n = self.slices.len() as u32;
            let cap = self.initial_capacity * self.growth.pow(n);
            let err = self.initial_error * self.tightening.powi(n as i32);
            self.slices.push(BloomSlice::new(cap, err));
        }
        self.slices
            .last_mut()
            .expect("at least one slice")
            .insert(key);
        self.inserted += 1;
        true
    }

    /// Number of distinct keys inserted (exact for keys that were truly new;
    /// keys swallowed by false positives are not counted).
    pub fn len(&self) -> usize {
        self.inserted
    }

    /// Whether nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// Number of underlying slices (grows logarithmically with insertions).
    #[cfg(test)]
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Total memory used by the bit arrays, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slices.iter().map(|s| s.bits.len() * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = ScalableBloomFilter::new(128, 0.01);
        for k in 0..1000u64 {
            f.insert(k.wrapping_mul(0x5851_f42d_4c95_7f2d));
        }
        for k in 0..1000u64 {
            assert!(f.contains(k.wrapping_mul(0x5851_f42d_4c95_7f2d)));
        }
    }

    #[test]
    fn insert_reports_novelty() {
        let mut f = ScalableBloomFilter::new(128, 0.01);
        assert!(f.insert(42));
        assert!(!f.insert(42));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn grows_beyond_initial_capacity() {
        let mut f = ScalableBloomFilter::new(64, 0.01);
        for k in 0..10_000u64 {
            f.insert(splitmix64(k));
        }
        assert!(f.slice_count() > 1, "filter should have grown");
        // Still no false negatives after growth.
        for k in 0..10_000u64 {
            assert!(f.contains(splitmix64(k)));
        }
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        let mut f = ScalableBloomFilter::new(1 << 12, 0.01);
        for k in 0..20_000u64 {
            f.insert(splitmix64(k));
        }
        // Probe 20k keys that were never inserted.
        let mut fp = 0usize;
        for k in 1_000_000..1_020_000u64 {
            if f.contains(splitmix64(k)) {
                fp += 1;
            }
        }
        let rate = fp as f64 / 20_000.0;
        // Compound bound p0/(1-r) ≈ 0.067; allow generous slack.
        assert!(rate < 0.08, "false positive rate too high: {rate}");
    }

    #[test]
    fn empty_filter_contains_nothing_inserted() {
        let f = ScalableBloomFilter::for_comparisons();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.slice_count(), 1);
        assert!(f.memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ScalableBloomFilter::new(0, 0.01);
    }

    #[test]
    #[should_panic(expected = "error must be in (0, 1)")]
    fn bad_error_panics() {
        let _ = ScalableBloomFilter::new(10, 1.5);
    }

    #[test]
    fn splitmix_distributes_bits() {
        // Smoke-check the mixer: consecutive inputs differ in many bits.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert!((a ^ b).count_ones() > 16);
    }
}
