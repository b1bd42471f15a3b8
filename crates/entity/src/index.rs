//! The incremental cluster index: a concurrent union-find over profiles.
//!
//! [`EntityIndex`] maintains the transitive closure of the confirmed-match
//! stream as it arrives — the evolving partition of profiles into entities
//! that is the actual output of progressive ER. Internally it is
//! [`pier_types::IncrementalClusters`] (path halving, union by size, one
//! member list per root), wrapped for concurrency:
//!
//! * **one writer, many readers**: all state — the clusters and every
//!   counter including the generation — lives behind a single
//!   `parking_lot::RwLock`, so any read is one lock acquisition and
//!   internally consistent by construction (no torn views);
//! * **lock-light reads**: the clusters answer every query through `&self`,
//!   walking the parent chain without compressing it, so readers only ever
//!   take the read lock;
//! * **generation counter**: bumped once per applied match, monotone, and
//!   returned inside every snapshot/lookup so clients can order the views
//!   they observe mid-stream.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use pier_types::{Comparison, IncrementalClusters, ProfileId};

/// How many of the largest clusters a [`EntityIndex::snapshot`] carries
/// with full member lists.
pub const TOP_CLUSTERS: usize = 5;

/// Everything the index knows, behind one lock so every read is a
/// consistent view.
#[derive(Default)]
struct IndexState {
    clusters: IncrementalClusters,
    /// Matches applied, merging or not.
    matches_applied: u64,
    /// Bumped once per applied match; monotone.
    generation: u64,
}

/// Counters of the index at one instant (all read under one lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityStats {
    /// Monotone view counter; bumped once per applied match.
    pub generation: u64,
    /// Matches applied so far (merging or redundant).
    pub matches_applied: u64,
    /// Matches that merged two clusters.
    pub merges: u64,
    /// Profiles that appeared in at least one applied match.
    pub profiles: usize,
    /// Current number of clusters.
    pub clusters: usize,
}

/// One profile's cluster, resolved under a single lock acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityLookup {
    /// The cluster's current representative (its union-find root).
    pub entity: ProfileId,
    /// Generation at which this view was taken.
    pub generation: u64,
    /// All members of the cluster, sorted by profile id.
    pub members: Vec<ProfileId>,
}

/// One cluster inside a [`EntitySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityCluster {
    /// The cluster's current representative (its union-find root).
    pub entity: ProfileId,
    /// Number of members.
    pub size: usize,
    /// All members, sorted by profile id.
    pub members: Vec<ProfileId>,
}

/// A consistent view of the whole index at one generation.
#[derive(Debug, Clone, PartialEq)]
pub struct EntitySnapshot {
    /// Generation at which this view was taken.
    pub generation: u64,
    /// Matches applied so far (merging or redundant).
    pub matches_applied: u64,
    /// Matches that merged two clusters.
    pub merges: u64,
    /// Profiles that appeared in at least one applied match.
    pub profiles: usize,
    /// Current number of clusters.
    pub clusters: usize,
    /// `(cluster size, how many clusters have it)`, ascending by size.
    pub size_histogram: Vec<(usize, usize)>,
    /// The [`TOP_CLUSTERS`] largest clusters with full member lists,
    /// ordered by descending size then first member.
    pub largest: Vec<EntityCluster>,
}

/// End-of-run entity summary carried by the runtime report.
#[derive(Debug, Clone, PartialEq)]
pub struct EntitySummary {
    /// Clusters in the index (profiles linked by at least one match).
    pub clusters: usize,
    /// Profiles that appeared in at least one applied match.
    pub matched_profiles: usize,
    /// Profiles the run ingested that never matched anything.
    pub singletons: usize,
    /// Size of the largest cluster (0 when no matches were applied).
    pub max_size: usize,
    /// Mean cluster size over the index's clusters (0.0 when empty).
    pub mean_size: f64,
    /// Matches applied over the run (merging or redundant).
    pub matches_applied: u64,
    /// Matches that merged two clusters.
    pub merges: u64,
}

/// Incrementally maintained entity clusters, safe to query while the
/// pipeline is still writing.
///
/// ```
/// use pier_entity::EntityIndex;
/// use pier_types::{Comparison, ProfileId};
///
/// let index = EntityIndex::new();
/// index.apply(Comparison::new(ProfileId(1), ProfileId(2)));
/// index.apply(Comparison::new(ProfileId(2), ProfileId(3)));
/// assert!(index.same_entity(ProfileId(1), ProfileId(3)));
/// assert_eq!(index.members(ProfileId(3)).unwrap().len(), 3);
/// assert_eq!(index.stats().clusters, 1);
/// ```
#[derive(Default)]
pub struct EntityIndex {
    state: RwLock<IndexState>,
}

impl EntityIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty index behind an `Arc`, ready to share between a
    /// driver (writer) and servers/monitors (readers).
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Folds one confirmed match into the partition; returns `true` if it
    /// merged two clusters (`false` if the pair was already transitively
    /// linked). Bumps the generation either way.
    pub fn apply(&self, cmp: Comparison) -> bool {
        let mut s = self.state.write();
        s.matches_applied += 1;
        s.generation += 1;
        s.clusters.union(cmp).is_some()
    }

    /// The cluster representative of `p`, if `p` appeared in any match.
    pub fn entity_of(&self, p: ProfileId) -> Option<ProfileId> {
        self.state.read().clusters.root(p)
    }

    /// All members of `p`'s cluster (sorted), if `p` appeared in any match.
    pub fn members(&self, p: ProfileId) -> Option<Vec<ProfileId>> {
        self.lookup(p).map(|l| l.members)
    }

    /// Whether two profiles are (transitively) the same entity.
    pub fn same_entity(&self, a: ProfileId, b: ProfileId) -> bool {
        self.state.read().clusters.same_entity(a, b)
    }

    /// Resolves `p`'s cluster — representative, members, generation — in a
    /// single lock acquisition, so the three agree with each other.
    pub fn lookup(&self, p: ProfileId) -> Option<EntityLookup> {
        let s = self.state.read();
        let entity = s.clusters.root(p)?;
        let mut members = s.clusters.members(entity)?.to_vec();
        members.sort_unstable();
        Some(EntityLookup {
            entity,
            generation: s.generation,
            members,
        })
    }

    /// The index's counters at one instant.
    pub fn stats(&self) -> EntityStats {
        let s = self.state.read();
        EntityStats {
            generation: s.generation,
            matches_applied: s.matches_applied,
            merges: s.clusters.merges() as u64,
            profiles: s.clusters.registered_profiles(),
            clusters: s.clusters.cluster_count(),
        }
    }

    /// A consistent whole-index view: counters, the size histogram, and
    /// the [`TOP_CLUSTERS`] largest clusters with members. One lock
    /// acquisition; O(clusters) work.
    pub fn snapshot(&self) -> EntitySnapshot {
        let s = self.state.read();
        let mut histogram: BTreeMap<usize, usize> = BTreeMap::new();
        for (_, m) in s.clusters.member_lists() {
            *histogram.entry(m.len()).or_insert(0) += 1;
        }
        let mut roots: Vec<(ProfileId, &[ProfileId])> = s.clusters.member_lists().collect();
        roots.sort_by_key(|(_, m)| (std::cmp::Reverse(m.len()), m.iter().min().copied()));
        let largest = roots
            .into_iter()
            .take(TOP_CLUSTERS)
            .map(|(entity, m)| {
                let mut members = m.to_vec();
                members.sort_unstable();
                EntityCluster {
                    entity,
                    size: members.len(),
                    members,
                }
            })
            .collect();
        EntitySnapshot {
            generation: s.generation,
            matches_applied: s.matches_applied,
            merges: s.clusters.merges() as u64,
            profiles: s.clusters.registered_profiles(),
            clusters: s.clusters.cluster_count(),
            size_histogram: histogram.into_iter().collect(),
            largest,
        }
    }

    /// The full partition, [`IncrementalClusters::clusters`]`(1)`, for
    /// equivalence testing against a batch transitive closure.
    pub fn partition(&self) -> Vec<Vec<ProfileId>> {
        self.state.read().clusters.clusters(1)
    }

    /// End-of-run summary against the number of profiles the run actually
    /// ingested: profiles the index never saw are singleton entities.
    pub fn summary(&self, total_profiles: usize) -> EntitySummary {
        let s = self.state.read();
        let clusters = s.clusters.cluster_count();
        let registered = s.clusters.registered_profiles();
        let max_size = s.clusters.member_lists().map(|(_, m)| m.len()).max();
        let mean_size = if clusters > 0 {
            registered as f64 / clusters as f64
        } else {
            0.0
        };
        EntitySummary {
            clusters,
            matched_profiles: registered,
            singletons: total_profiles.saturating_sub(registered),
            max_size: max_size.unwrap_or(0),
            mean_size,
            matches_applied: s.matches_applied,
            merges: s.clusters.merges() as u64,
        }
    }
}

impl std::fmt::Debug for EntityIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EntityIndex")
            .field("generation", &stats.generation)
            .field("profiles", &stats.profiles)
            .field("clusters", &stats.clusters)
            .finish()
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
        let index = EntityIndex::new();
        assert!(index.apply(c(1, 2)));
        assert!(index.apply(c(2, 3)));
        assert!(index.same_entity(ProfileId(1), ProfileId(3)));
        assert_eq!(
            index.members(ProfileId(3)).unwrap(),
            vec![ProfileId(1), ProfileId(2), ProfileId(3)]
        );
        let stats = index.stats();
        assert_eq!(stats.clusters, 1);
        assert_eq!(stats.profiles, 3);
        assert_eq!(stats.merges, 2);
        assert_eq!(stats.matches_applied, 2);
    }

    #[test]
    fn redundant_match_bumps_generation_but_not_merges() {
        let index = EntityIndex::new();
        index.apply(c(1, 2));
        index.apply(c(2, 3));
        let before = index.stats();
        assert!(!index.apply(c(1, 3)), "already transitively linked");
        let after = index.stats();
        assert_eq!(after.generation, before.generation + 1);
        assert_eq!(after.matches_applied, before.matches_applied + 1);
        assert_eq!(after.merges, before.merges);
        assert_eq!(after.clusters, 1);
    }

    #[test]
    fn unknown_profiles_resolve_to_none() {
        let index = EntityIndex::new();
        index.apply(c(1, 2));
        assert_eq!(index.entity_of(ProfileId(99)), None);
        assert_eq!(index.members(ProfileId(99)), None);
        assert!(!index.same_entity(ProfileId(1), ProfileId(99)));
        assert!(index.lookup(ProfileId(99)).is_none());
    }

    #[test]
    fn lookup_is_internally_consistent() {
        let index = EntityIndex::new();
        index.apply(c(4, 7));
        index.apply(c(7, 2));
        let l = index.lookup(ProfileId(2)).unwrap();
        assert_eq!(l.members, vec![ProfileId(2), ProfileId(4), ProfileId(7)]);
        assert!(l.members.contains(&l.entity));
        assert_eq!(l.generation, index.stats().generation);
    }

    #[test]
    fn snapshot_histogram_and_largest_agree() {
        let index = EntityIndex::new();
        index.apply(c(0, 1));
        index.apply(c(1, 2)); // {0,1,2}
        index.apply(c(10, 11)); // {10,11}
        index.apply(c(20, 21)); // {20,21}
        let snap = index.snapshot();
        assert_eq!(snap.clusters, 3);
        assert_eq!(snap.profiles, 7);
        assert_eq!(snap.size_histogram, vec![(2, 2), (3, 1)]);
        // Σ size·count == registered profiles.
        let total: usize = snap.size_histogram.iter().map(|(s, n)| s * n).sum();
        assert_eq!(total, snap.profiles);
        // Largest first, ties by first member.
        assert_eq!(snap.largest.len(), 3);
        assert_eq!(
            snap.largest[0].members,
            vec![ProfileId(0), ProfileId(1), ProfileId(2)]
        );
        assert_eq!(snap.largest[1].members, vec![ProfileId(10), ProfileId(11)]);
        assert_eq!(snap.largest[2].members, vec![ProfileId(20), ProfileId(21)]);
        assert!(snap.largest.iter().all(|c| c.members.contains(&c.entity)));
    }

    #[test]
    fn partition_matches_incremental_clusters_shape() {
        use pier_types::IncrementalClusters;
        let pairs = [c(5, 1), c(1, 9), c(20, 21), c(9, 5)];
        let index = EntityIndex::new();
        let mut oracle = IncrementalClusters::new();
        for p in pairs {
            index.apply(p);
            oracle.union(p);
        }
        assert_eq!(index.partition(), oracle.clusters(1));
    }

    #[test]
    fn summary_counts_singletons_against_the_run() {
        let index = EntityIndex::new();
        index.apply(c(0, 1));
        index.apply(c(1, 2));
        index.apply(c(5, 6));
        let summary = index.summary(10);
        assert_eq!(summary.clusters, 2);
        assert_eq!(summary.matched_profiles, 5);
        assert_eq!(summary.singletons, 5);
        assert_eq!(summary.max_size, 3);
        assert!((summary.mean_size - 2.5).abs() < 1e-12);
        // An empty index: everything is a singleton.
        let empty = EntityIndex::new().summary(4);
        assert_eq!(empty.clusters, 0);
        assert_eq!(empty.singletons, 4);
        assert_eq!(empty.max_size, 0);
        assert_eq!(empty.mean_size, 0.0);
    }

    #[test]
    fn long_chains_stay_fast_and_correct() {
        let index = EntityIndex::new();
        for i in 0..10_000u32 {
            index.apply(c(i, i + 1));
        }
        assert!(index.same_entity(ProfileId(0), ProfileId(10_000)));
        let stats = index.stats();
        assert_eq!(stats.clusters, 1);
        assert_eq!(stats.profiles, 10_001);
        assert_eq!(index.members(ProfileId(5_000)).unwrap().len(), 10_001);
    }
}
