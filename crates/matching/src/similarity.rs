//! Similarity measures.
//!
//! Edit distance lives in [`crate::levenshtein`] (bit-parallel kernel +
//! bounded variant + naive oracle) and is re-exported here so
//! `similarity::levenshtein` keeps working.

use pier_types::TokenId;

/// Jaccard similarity of two **sorted, deduplicated** token-id slices:
/// `|A ∩ B| / |A ∪ B|`, in `[0, 1]`. Runs in `O(|A| + |B|)` via a merge.
///
/// # Panics
/// Debug-asserts that inputs are sorted and deduplicated.
pub fn jaccard_tokens(a: &[TokenId], b: &[TokenId]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be sorted+dedup");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be sorted+dedup");
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Cosine similarity of two **sorted, deduplicated** token-id slices under
/// binary (set) weights: `|A ∩ B| / sqrt(|A| · |B|)`, in `[0, 1]`.
/// Less sensitive than Jaccard to size imbalance between the profiles —
/// useful when one source is much more verbose than the other.
pub fn cosine_tokens(a: &[TokenId], b: &[TokenId]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be sorted+dedup");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be sorted+dedup");
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / ((a.len() as f64) * (b.len() as f64)).sqrt()
}

pub use crate::levenshtein::{levenshtein, levenshtein_bounded, levenshtein_naive};

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    #[test]
    fn jaccard_identical_sets() {
        let a = toks(&[1, 2, 3]);
        assert_eq!(jaccard_tokens(&a, &a), 1.0);
    }

    #[test]
    fn jaccard_disjoint_sets() {
        assert_eq!(jaccard_tokens(&toks(&[1, 2]), &toks(&[3, 4])), 0.0);
    }

    #[test]
    fn jaccard_partial_overlap() {
        // inter=2, union=4 -> 0.5
        let s = jaccard_tokens(&toks(&[1, 2, 3]), &toks(&[2, 3, 4]));
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_empty_inputs() {
        assert_eq!(jaccard_tokens(&[], &[]), 0.0);
        assert_eq!(jaccard_tokens(&toks(&[1]), &[]), 0.0);
    }

    #[test]
    fn jaccard_is_symmetric() {
        let a = toks(&[1, 5, 9]);
        let b = toks(&[1, 2, 9, 10]);
        assert_eq!(jaccard_tokens(&a, &b), jaccard_tokens(&b, &a));
    }

    #[test]
    fn cosine_bounds_and_cases() {
        let a = toks(&[1, 2, 3, 4]);
        let b = toks(&[3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]);
        let c = cosine_tokens(&a, &b);
        assert!(c > 0.0 && c < 1.0);
        assert_eq!(cosine_tokens(&a, &a), 1.0);
        assert_eq!(cosine_tokens(&a, &[]), 0.0);
        assert_eq!(cosine_tokens(&toks(&[1]), &toks(&[2])), 0.0);
        // Cosine forgives size imbalance more than Jaccard.
        assert!(c > jaccard_tokens(&a, &b));
    }

    #[test]
    fn cosine_is_symmetric() {
        let a = toks(&[1, 5, 9]);
        let b = toks(&[1, 2, 9, 10]);
        assert_eq!(cosine_tokens(&a, &b), cosine_tokens(&b, &a));
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn levenshtein_is_symmetric() {
        assert_eq!(
            levenshtein("abcdef", "azced"),
            levenshtein("azced", "abcdef")
        );
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("héllo", "hello"), 1);
    }
}
