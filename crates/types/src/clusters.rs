//! Incremental entity clustering over the match stream.
//!
//! ER's final output is usually not a pair list but *entity clusters*: the
//! transitive closure of the discovered matches. In the incremental
//! setting matches arrive one by one, so the closure must be maintained
//! online; this module provides a union-find (disjoint-set) structure with
//! path halving and union by size — amortized near-O(1) per match — that
//! downstream applications (the paper's anti-fraud and construction
//! examples) can query at any moment.
//!
//! It is the workspace's one union-find: the synchronous pipeline's
//! clusters and the served entity index (`pier-entity`'s `EntityIndex`,
//! this structure behind a read-write lock) are both this type. Only
//! [`IncrementalClusters::union`] writes, and only it compresses paths;
//! every query walks the parent chain through `&self`, so readers can
//! share it. Union by size bounds that walk at O(log n).

use std::collections::HashMap;

use crate::comparison::Comparison;
use crate::profile::ProfileId;

/// Incrementally maintained entity clusters (disjoint sets of profiles).
///
/// ```
/// use pier_types::{Comparison, IncrementalClusters, ProfileId};
/// let mut clusters = IncrementalClusters::new();
/// clusters.union(Comparison::new(ProfileId(1), ProfileId(2)));
/// clusters.union(Comparison::new(ProfileId(2), ProfileId(3)));
/// assert!(clusters.same_entity(ProfileId(1), ProfileId(3)));
/// assert_eq!(clusters.cluster_size(ProfileId(1)), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalClusters {
    /// parent[i] = parent slot of profile i; `UNSET` (`u32::MAX`) =
    /// unregistered.
    parent: Vec<u32>,
    /// size[i] = cluster size if i is a root.
    size: Vec<u32>,
    /// root -> members (unsorted; an absorbed list is appended onto the
    /// kept one).
    members: HashMap<u32, Vec<ProfileId>>,
    merges: usize,
}

const UNSET: u32 = u32::MAX;

impl IncrementalClusters {
    /// Creates an empty clustering.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, p: ProfileId) {
        let i = p.index();
        if self.parent.len() <= i {
            self.parent.resize(i + 1, UNSET);
            self.size.resize(i + 1, 0);
        }
        if self.parent[i] == UNSET {
            self.parent[i] = i as u32;
            self.size[i] = 1;
            self.members.insert(i as u32, vec![p]);
        }
    }

    /// Writer-side find with path halving.
    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] as usize != i {
            let grandparent = self.parent[self.parent[i] as usize];
            self.parent[i] = grandparent;
            i = grandparent as usize;
        }
        i
    }

    /// Records a confirmed match. If it merged two clusters, returns
    /// `(kept, absorbed)`: the root that stays the representative and the
    /// root that stopped being one. `None` if the profiles were already
    /// transitively linked. Union by size; on a tie the root of `cmp.a`'s
    /// cluster is kept.
    pub fn union(&mut self, cmp: Comparison) -> Option<(ProfileId, ProfileId)> {
        self.ensure(cmp.a);
        self.ensure(cmp.b);
        let ra = self.find(cmp.a.index());
        let rb = self.find(cmp.b.index());
        if ra == rb {
            return None;
        }
        let (kept, absorbed) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[absorbed] = kept as u32;
        self.size[kept] += self.size[absorbed];
        let (kept, absorbed) = (ProfileId(kept as u32), ProfileId(absorbed as u32));
        let moved = self
            .members
            .remove(&absorbed.0)
            .expect("a root has members");
        let into = self.members.get_mut(&kept.0).expect("a root has members");
        into.extend(moved);
        self.merges += 1;
        Some((kept, absorbed))
    }

    /// The cluster representative of `p`, if `p` appeared in any match.
    /// Walks the parent chain without compressing it.
    pub fn root(&self, p: ProfileId) -> Option<ProfileId> {
        let mut i = p.index();
        if i >= self.parent.len() || self.parent[i] == UNSET {
            return None;
        }
        while self.parent[i] as usize != i {
            i = self.parent[i] as usize;
        }
        Some(ProfileId(i as u32))
    }

    /// Whether two profiles are (transitively) the same entity.
    pub fn same_entity(&self, a: ProfileId, b: ProfileId) -> bool {
        match (self.root(a), self.root(b)) {
            (Some(ra), Some(rb)) => ra == rb,
            _ => false,
        }
    }

    /// Size of `p`'s cluster (0 if unregistered).
    pub fn cluster_size(&self, p: ProfileId) -> usize {
        self.root(p).map_or(0, |r| self.size[r.index()] as usize)
    }

    /// The members of `p`'s cluster, unsorted, if `p` appeared in any
    /// match.
    pub fn members(&self, p: ProfileId) -> Option<&[ProfileId]> {
        self.root(p).map(|r| self.members[&r.0].as_slice())
    }

    /// Every cluster as its representative and its members (unsorted), in
    /// no particular order.
    pub fn member_lists(&self) -> impl Iterator<Item = (ProfileId, &[ProfileId])> {
        self.members
            .iter()
            .map(|(&root, members)| (ProfileId(root), members.as_slice()))
    }

    /// Number of profiles that appeared in at least one match.
    pub fn registered_profiles(&self) -> usize {
        self.cluster_count() + self.merges
    }

    /// Number of matches that merged two clusters.
    pub fn merges(&self) -> usize {
        self.merges
    }

    /// Number of current clusters (registered profiles minus merges).
    pub fn cluster_count(&self) -> usize {
        self.members.len()
    }

    /// Materializes all clusters with at least `min_size` members, each
    /// sorted by profile id, ordered by (descending size, first member).
    pub fn clusters(&self, min_size: usize) -> Vec<Vec<ProfileId>> {
        let mut out: Vec<Vec<ProfileId>> = self
            .members
            .values()
            .filter(|c| c.len() >= min_size)
            .cloned()
            .collect();
        for c in &mut out {
            c.sort_unstable();
        }
        out.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(a: u32, b: u32) -> Comparison {
        Comparison::new(ProfileId(a), ProfileId(b))
    }

    #[test]
    fn matches_merge_transitively() {
        let mut cl = IncrementalClusters::new();
        assert!(cl.union(c(1, 2)).is_some());
        assert!(cl.union(c(2, 3)).is_some());
        assert!(cl.same_entity(ProfileId(1), ProfileId(3)));
        assert_eq!(cl.cluster_size(ProfileId(1)), 3);
        assert_eq!(cl.cluster_count(), 1);
    }

    #[test]
    fn redundant_match_does_not_merge() {
        let mut cl = IncrementalClusters::new();
        cl.union(c(1, 2));
        cl.union(c(2, 3));
        assert!(cl.union(c(1, 3)).is_none(), "already transitively linked");
        assert_eq!(cl.cluster_count(), 1);
    }

    #[test]
    fn union_reports_the_kept_and_the_absorbed_root() {
        let mut cl = IncrementalClusters::new();
        // A tie keeps the root of the first profile's cluster.
        assert_eq!(cl.union(c(1, 2)), Some((ProfileId(1), ProfileId(2))));
        // Otherwise the bigger cluster's root stays, on either side.
        assert_eq!(cl.union(c(0, 2)), Some((ProfileId(1), ProfileId(0))));
        assert_eq!(cl.members(ProfileId(0)).map(<[_]>::len), Some(3));
        assert_eq!(cl.merges(), 2);
    }

    #[test]
    fn unrelated_profiles_stay_apart() {
        let mut cl = IncrementalClusters::new();
        cl.union(c(1, 2));
        cl.union(c(10, 11));
        assert!(!cl.same_entity(ProfileId(1), ProfileId(10)));
        assert_eq!(cl.cluster_count(), 2);
        assert_eq!(cl.registered_profiles(), 4);
    }

    #[test]
    fn unregistered_profiles_have_no_cluster() {
        let mut cl = IncrementalClusters::new();
        cl.union(c(1, 2));
        assert_eq!(cl.root(ProfileId(99)), None);
        assert_eq!(cl.cluster_size(ProfileId(99)), 0);
        assert!(!cl.same_entity(ProfileId(1), ProfileId(99)));
    }

    #[test]
    fn clusters_materialize_sorted() {
        let mut cl = IncrementalClusters::new();
        cl.union(c(5, 1));
        cl.union(c(1, 9));
        cl.union(c(20, 21));
        let all = cl.clusters(1);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], vec![ProfileId(1), ProfileId(5), ProfileId(9)]);
        assert_eq!(all[1], vec![ProfileId(20), ProfileId(21)]);
        // min_size filter.
        assert_eq!(cl.clusters(3).len(), 1);
    }

    #[test]
    fn long_chains_stay_fast_and_correct() {
        let mut cl = IncrementalClusters::new();
        for i in 0..10_000u32 {
            cl.union(c(i, i + 1));
        }
        assert_eq!(cl.cluster_size(ProfileId(0)), 10_001);
        assert!(cl.same_entity(ProfileId(0), ProfileId(10_000)));
        assert_eq!(cl.cluster_count(), 1);
    }

    #[test]
    fn interleaved_merges_union_by_size() {
        let mut cl = IncrementalClusters::new();
        // Two clusters of different sizes, then a bridge.
        cl.union(c(1, 2));
        cl.union(c(2, 3)); // {1,2,3}
        cl.union(c(10, 11)); // {10,11}
        cl.union(c(3, 10));
        assert_eq!(cl.cluster_size(ProfileId(11)), 5);
        assert_eq!(cl.cluster_count(), 1);
    }
}
