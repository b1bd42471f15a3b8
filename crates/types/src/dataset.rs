//! Datasets, ground truth, and stream increments.
//!
//! A [`Dataset`] bundles the profiles of one (Dirty ER) or two (Clean-Clean
//! ER) sources together with the exact set of ground-truth matches. For the
//! incremental/streaming experiments, [`Dataset::into_increments`] splits the
//! profiles into `n` equi-sized increments `ΔD_1..ΔD_n` preserving a
//! round-robin interleaving of the sources, mirroring the setup of §7 of the
//! paper.

use std::collections::HashSet;

use crate::comparison::Comparison;
use crate::error::PierError;
use crate::profile::{EntityProfile, ProfileId};

/// The flavour of an ER task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErKind {
    /// One source that may contain duplicates; all pairs are candidates.
    Dirty,
    /// Two duplicate-free sources; only cross-source pairs are candidates.
    CleanClean,
}

impl ErKind {
    /// Checks what downstream state takes on trust about a profile from
    /// outside: an id below [`ProfileId::LIMIT`] ([`ProfileId::check`]) and
    /// a source this kind of task has ([`ErKind::check_source`]). Every
    /// door a profile can enter through — [`Dataset::new`] and the stage-A
    /// ingest paths — asks here before touching any state.
    ///
    /// # Errors
    /// [`PierError::InvalidConfig`] naming the profile and what is wrong.
    pub fn check_profile(self, profile: &EntityProfile) -> Result<(), PierError> {
        profile.id.check()?;
        self.check_source(profile)
    }

    /// Checks that `profile` names a source this kind of task has: source
    /// 0 for Dirty ER, source 0 or 1 for Clean-Clean ER. Per-source state
    /// downstream (block member lists, pair enumeration) is laid out for
    /// exactly these.
    ///
    /// # Errors
    /// [`PierError::InvalidConfig`] naming the profile and its source.
    pub fn check_source(self, profile: &EntityProfile) -> Result<(), PierError> {
        let message = match (self, profile.source.0) {
            (_, 0) | (ErKind::CleanClean, 1) => return Ok(()),
            (ErKind::Dirty, _) => "dirty ER requires a single source",
            (ErKind::CleanClean, _) => "clean-clean ER requires source 0 or 1",
        };
        Err(PierError::InvalidConfig {
            parameter: "profiles",
            message: format!("{message}, {} has {}", profile.id, profile.source),
        })
    }
}

/// The exact set of duplicate pairs of a dataset.
///
/// Stored as canonical [`Comparison`]s for O(1) membership tests; quality
/// metrics (PC, PQ) are computed against this set.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    pairs: HashSet<Comparison>,
}

impl GroundTruth {
    /// Creates an empty ground truth.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a ground truth from an iterator of (possibly non-canonical)
    /// pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ProfileId, ProfileId)>) -> Self {
        GroundTruth {
            pairs: pairs
                .into_iter()
                .map(|(x, y)| Comparison::new(x, y))
                .collect(),
        }
    }

    /// Registers a duplicate pair. Returns `true` if it was new.
    pub fn insert(&mut self, x: ProfileId, y: ProfileId) -> bool {
        self.pairs.insert(Comparison::new(x, y))
    }

    /// Whether `cmp` is a true match.
    #[inline]
    pub fn is_match(&self, cmp: Comparison) -> bool {
        self.pairs.contains(&cmp)
    }

    /// Total number of ground-truth matches (the denominator of PC).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether there are no ground-truth matches.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over all ground-truth pairs (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = Comparison> + '_ {
        self.pairs.iter().copied()
    }
}

/// One data increment `ΔD_i` of a stream: the profiles that arrive together
/// at a single time instant.
#[derive(Debug, Clone, Default)]
pub struct Increment {
    /// Profiles arriving in this increment. May be empty: incremental
    /// blocking periodically emits empty increments to trigger continued
    /// prioritization work (§3.2).
    pub profiles: Vec<EntityProfile>,
}

impl Increment {
    /// An empty "tick" increment.
    pub fn empty() -> Self {
        Increment::default()
    }

    /// Number of profiles in the increment.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether this is an empty tick.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

impl From<Vec<EntityProfile>> for Increment {
    fn from(profiles: Vec<EntityProfile>) -> Self {
        Increment { profiles }
    }
}

/// A complete ER dataset: profiles, task kind, and ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short machine name, e.g. `"movies"`.
    pub name: String,
    /// Dirty or Clean-Clean.
    pub kind: ErKind,
    /// All profiles, ordered by [`ProfileId`]. `profiles[i].id == ProfileId(i)`.
    pub profiles: Vec<EntityProfile>,
    /// The exact duplicate pairs.
    pub ground_truth: GroundTruth,
}

impl Dataset {
    /// Creates a dataset, validating that profile ids are dense and in
    /// positional order (several components index profiles by id).
    pub fn new(
        name: impl Into<String>,
        kind: ErKind,
        profiles: Vec<EntityProfile>,
        ground_truth: GroundTruth,
    ) -> Result<Self, PierError> {
        for (i, p) in profiles.iter().enumerate() {
            if p.id.index() != i {
                return Err(PierError::InvalidConfig {
                    parameter: "profiles",
                    message: format!("profile at position {i} has id {}", p.id),
                });
            }
            kind.check_profile(p)?;
        }
        Ok(Dataset {
            name: name.into(),
            kind,
            profiles,
            ground_truth,
        })
    }

    /// Number of profiles in total.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the dataset has no profiles.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Profile lookup by id.
    pub fn profile(&self, id: ProfileId) -> &EntityProfile {
        &self.profiles[id.index()]
    }

    /// Number of profiles per source, indexed by source id.
    pub fn source_sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::new();
        for p in &self.profiles {
            let s = p.source.0 as usize;
            if sizes.len() <= s {
                sizes.resize(s + 1, 0);
            }
            sizes[s] += 1;
        }
        sizes
    }

    /// Splits the dataset into `n` increments of (near-)equal size.
    ///
    /// Profiles of different sources are interleaved round-robin first, so
    /// that every prefix of the stream contains a balanced mix of both
    /// sources (as in the paper's experiments, where duplicates can arrive in
    /// any relative order). The per-increment order follows the interleaved
    /// stream order; profile ids are *not* renumbered.
    ///
    /// # Errors
    /// Returns an error if `n == 0` or `n > self.len()` for a non-empty
    /// dataset.
    pub fn into_increments(&self, n: usize) -> Result<Vec<Increment>, PierError> {
        if n == 0 {
            return Err(PierError::InvalidConfig {
                parameter: "n_increments",
                message: "must be at least 1".into(),
            });
        }
        if !self.profiles.is_empty() && n > self.profiles.len() {
            return Err(PierError::InvalidConfig {
                parameter: "n_increments",
                message: format!(
                    "cannot split {} profiles into {n} non-empty increments",
                    self.profiles.len()
                ),
            });
        }
        let stream = self.interleaved_stream();
        let total = stream.len();
        let base = total / n;
        let extra = total % n;
        let mut increments = Vec::with_capacity(n);
        let mut it = stream.into_iter();
        for i in 0..n {
            let size = base + usize::from(i < extra);
            let profiles: Vec<EntityProfile> = it.by_ref().take(size).collect();
            increments.push(Increment::from(profiles));
        }
        Ok(increments)
    }

    /// Interleaves the sources round-robin proportionally to their sizes:
    /// conceptually merges per-source queues by smallest
    /// `emitted_so_far / source_size` ratio, which keeps the blend stable
    /// even for unbalanced sources.
    fn interleaved_stream(&self) -> Vec<EntityProfile> {
        let sizes = self.source_sizes();
        if sizes.len() <= 1 {
            return self.profiles.clone();
        }
        let mut queues: Vec<std::collections::VecDeque<&EntityProfile>> =
            vec![std::collections::VecDeque::new(); sizes.len()];
        for p in &self.profiles {
            queues[p.source.0 as usize].push_back(p);
        }
        let mut emitted = vec![0usize; sizes.len()];
        let mut out = Vec::with_capacity(self.profiles.len());
        for _ in 0..self.profiles.len() {
            // Pick the non-empty source with the smallest progress ratio.
            let s = (0..sizes.len())
                .filter(|&s| !queues[s].is_empty())
                .min_by(|&a, &b| {
                    let ra = (emitted[a] as f64 + 1.0) / sizes[a].max(1) as f64;
                    let rb = (emitted[b] as f64 + 1.0) / sizes[b].max(1) as f64;
                    ra.partial_cmp(&rb).expect("finite ratios")
                })
                .expect("at least one non-empty queue");
            out.push(queues[s].pop_front().expect("non-empty queue").clone());
            emitted[s] += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SourceId;

    fn mk_profiles(n: usize, two_sources: bool) -> Vec<EntityProfile> {
        (0..n)
            .map(|i| {
                let src = if two_sources && i % 3 == 0 { 1 } else { 0 };
                EntityProfile::new(ProfileId(i as u32), SourceId(src))
                    .with("name", format!("value {i}"))
            })
            .collect()
    }

    fn mk_dataset(n: usize) -> Dataset {
        let mut gt = GroundTruth::new();
        gt.insert(ProfileId(0), ProfileId(1));
        Dataset::new("test", ErKind::CleanClean, mk_profiles(n, true), gt).unwrap()
    }

    #[test]
    fn ground_truth_membership() {
        let gt = GroundTruth::from_pairs([(ProfileId(3), ProfileId(1))]);
        assert!(gt.is_match(Comparison::new(ProfileId(1), ProfileId(3))));
        assert!(!gt.is_match(Comparison::new(ProfileId(1), ProfileId(2))));
        assert_eq!(gt.len(), 1);
        assert!(!gt.is_empty());
    }

    #[test]
    fn ground_truth_insert_dedupes() {
        let mut gt = GroundTruth::new();
        assert!(gt.insert(ProfileId(1), ProfileId(2)));
        assert!(!gt.insert(ProfileId(2), ProfileId(1)));
        assert_eq!(gt.len(), 1);
    }

    #[test]
    fn dataset_rejects_non_dense_ids() {
        let profiles = vec![EntityProfile::new(ProfileId(5), SourceId(0))];
        let err = Dataset::new("bad", ErKind::Dirty, profiles, GroundTruth::new());
        assert!(err.is_err());
    }

    #[test]
    fn dirty_dataset_rejects_second_source() {
        let profiles = vec![EntityProfile::new(ProfileId(0), SourceId(1))];
        assert!(Dataset::new("bad", ErKind::Dirty, profiles, GroundTruth::new()).is_err());
    }

    #[test]
    fn check_source_admits_exactly_the_sources_a_kind_has() {
        let from = |src| EntityProfile::new(ProfileId(4), SourceId(src));
        assert!(ErKind::Dirty.check_source(&from(0)).is_ok());
        assert!(ErKind::CleanClean.check_source(&from(0)).is_ok());
        assert!(ErKind::CleanClean.check_source(&from(1)).is_ok());
        assert_eq!(
            ErKind::Dirty
                .check_source(&from(1))
                .unwrap_err()
                .to_string(),
            "invalid configuration for `profiles`: dirty ER requires a single source, p4 has s1"
        );
        assert_eq!(
            ErKind::CleanClean
                .check_source(&from(2))
                .unwrap_err()
                .to_string(),
            "invalid configuration for `profiles`: clean-clean ER requires source 0 or 1, p4 has s2"
        );
        let profiles = vec![EntityProfile::new(ProfileId(0), SourceId(2))];
        assert!(Dataset::new("bad", ErKind::CleanClean, profiles, GroundTruth::new()).is_err());
    }

    #[test]
    fn increments_partition_all_profiles() {
        let d = mk_dataset(10);
        let incs = d.into_increments(3).unwrap();
        assert_eq!(incs.len(), 3);
        let total: usize = incs.iter().map(Increment::len).sum();
        assert_eq!(total, 10);
        // Sizes differ by at most one.
        let min = incs.iter().map(Increment::len).min().unwrap();
        let max = incs.iter().map(Increment::len).max().unwrap();
        assert!(max - min <= 1);
        // Every profile appears exactly once.
        let mut seen: Vec<u32> = incs
            .iter()
            .flat_map(|i| i.profiles.iter().map(|p| p.id.0))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn increments_interleave_sources() {
        let d = mk_dataset(12);
        let incs = d.into_increments(4).unwrap();
        // The first increment should not be single-source even though the
        // raw dataset groups sources unevenly.
        let sources: HashSet<u8> = incs[0].profiles.iter().map(|p| p.source.0).collect();
        assert!(sources.len() > 1, "first increment should mix sources");
    }

    #[test]
    fn zero_increments_is_an_error() {
        let d = mk_dataset(4);
        assert!(d.into_increments(0).is_err());
    }

    #[test]
    fn too_many_increments_is_an_error() {
        let d = mk_dataset(4);
        assert!(d.into_increments(5).is_err());
    }

    #[test]
    fn one_increment_is_the_whole_dataset() {
        let d = mk_dataset(7);
        let incs = d.into_increments(1).unwrap();
        assert_eq!(incs.len(), 1);
        assert_eq!(incs[0].len(), 7);
    }

    #[test]
    fn empty_increment_helpers() {
        let inc = Increment::empty();
        assert!(inc.is_empty());
        assert_eq!(inc.len(), 0);
    }

    #[test]
    fn source_sizes_counts_per_source() {
        let d = mk_dataset(9);
        let sizes = d.source_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 9);
        assert_eq!(sizes.len(), 2);
    }
}
