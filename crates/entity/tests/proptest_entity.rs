//! Property tests for [`EntityIndex`] and the union-find inside it,
//! [`IncrementalClusters`]:
//!
//! 1. on arbitrary match sequences, the index's partition equals a naive
//!    BFS transitive closure over the same pairs (the oracle builds an
//!    adjacency list and floods components — no union-find involved);
//! 2. the synchronous [`IncrementalClusters`] fed the same pairs equals
//!    both, its `&self` queries agree with the closure of every prefix, each
//!    union keeps the root its tie-break names, and the index serves the
//!    same roots;
//! 3. concurrent readers during merges never observe a torn snapshot, and
//!    every reader sees a monotone generation.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pier_entity::EntityIndex;
use pier_types::{Comparison, IncrementalClusters, ProfileId};
use proptest::prelude::*;

/// The oracle: BFS transitive closure over the match pairs, materialized
/// in the same shape as [`EntityIndex::partition`] (each component sorted,
/// components ordered by descending size then first member).
fn bfs_closure(pairs: &[(u32, u32)]) -> Vec<Vec<ProfileId>> {
    let mut adjacency: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(a, b) in pairs {
        adjacency.entry(a).or_default().push(b);
        adjacency.entry(b).or_default().push(a);
    }
    let mut seen: HashSet<u32> = HashSet::new();
    let mut components = Vec::new();
    let mut nodes: Vec<u32> = adjacency.keys().copied().collect();
    nodes.sort_unstable();
    for start in nodes {
        if !seen.insert(start) {
            continue;
        }
        let mut component = vec![start];
        let mut queue = VecDeque::from([start]);
        while let Some(node) = queue.pop_front() {
            for &next in &adjacency[&node] {
                if seen.insert(next) {
                    component.push(next);
                    queue.push_back(next);
                }
            }
        }
        component.sort_unstable();
        components.push(component.into_iter().map(ProfileId).collect::<Vec<_>>());
    }
    components.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    components
}

proptest! {
    #[test]
    fn partition_equals_bfs_transitive_closure(
        raw in proptest::collection::vec((0u32..48, 0u32..48), 0..120)
    ) {
        let pairs: Vec<(u32, u32)> = raw.into_iter().filter(|(a, b)| a != b).collect();
        let index = EntityIndex::new();
        for &(a, b) in &pairs {
            index.apply(Comparison::new(ProfileId(a), ProfileId(b)));
        }
        prop_assert_eq!(index.partition(), bfs_closure(&pairs));
    }

    #[test]
    fn sync_clusters_equal_the_index_and_the_closure(
        raw in proptest::collection::vec((0u32..40, 0u32..40), 0..100)
    ) {
        let pairs: Vec<(u32, u32)> = raw.into_iter().filter(|(a, b)| a != b).collect();
        let index = EntityIndex::new();
        let mut clusters = IncrementalClusters::new();
        for (n, &(a, b)) in pairs.iter().enumerate() {
            let cmp = Comparison::new(ProfileId(a), ProfileId(b));
            // Union by size; on a tie the root of `cmp.a`'s cluster stays.
            let root = |p| clusters.root(p).unwrap_or(p);
            let size = |p| clusters.cluster_size(p).max(1);
            let (ra, rb) = (root(cmp.a), root(cmp.b));
            let kept = if ra == rb {
                None
            } else if size(cmp.a) >= size(cmp.b) {
                Some((ra, rb))
            } else {
                Some((rb, ra))
            };
            prop_assert_eq!(clusters.union(cmp), kept);
            index.apply(cmp);
            let closure = bfs_closure(&pairs[..=n]);
            for id in 0u32..40 {
                let p = ProfileId(id);
                match closure.iter().find(|c| c.contains(&p)) {
                    Some(component) => {
                        let first = component[0];
                        prop_assert!(clusters.same_entity(first, p));
                        prop_assert_eq!(clusters.root(p), clusters.root(first));
                        prop_assert_eq!(clusters.cluster_size(p), component.len());
                    }
                    None => prop_assert_eq!(clusters.root(p), None),
                }
                prop_assert_eq!(index.entity_of(p), clusters.root(p));
            }
            for (c, d) in closure.iter().zip(closure.iter().skip(1)) {
                prop_assert!(!clusters.same_entity(c[0], d[0]));
            }
        }
        let closure = bfs_closure(&pairs);
        prop_assert_eq!(&clusters.clusters(1), &closure);
        prop_assert_eq!(index.partition(), closure);
    }

    #[test]
    fn point_queries_agree_with_the_closure(
        raw in proptest::collection::vec((0u32..32, 0u32..32), 1..80)
    ) {
        let pairs: Vec<(u32, u32)> = raw.into_iter().filter(|(a, b)| a != b).collect();
        let index = EntityIndex::new();
        for &(a, b) in &pairs {
            index.apply(Comparison::new(ProfileId(a), ProfileId(b)));
        }
        let oracle = bfs_closure(&pairs);
        let component_of = |p: ProfileId| oracle.iter().find(|c| c.contains(&p));
        for id in 0u32..32 {
            let p = ProfileId(id);
            match component_of(p) {
                Some(component) => {
                    prop_assert_eq!(index.members(p).as_ref(), Some(component));
                    // Every member resolves to the same representative.
                    let root = index.entity_of(p);
                    prop_assert!(root.is_some());
                    for &q in component.iter() {
                        prop_assert_eq!(index.entity_of(q), root);
                        prop_assert!(index.same_entity(p, q));
                    }
                }
                None => {
                    prop_assert_eq!(index.entity_of(p), None);
                    prop_assert_eq!(index.members(p), None);
                }
            }
        }
        // Counters agree with the closure too.
        let stats = index.stats();
        prop_assert_eq!(stats.clusters, oracle.len());
        prop_assert_eq!(stats.profiles, oracle.iter().map(Vec::len).sum::<usize>());
        prop_assert_eq!(stats.matches_applied, pairs.len() as u64);
        prop_assert_eq!(stats.generation, pairs.len() as u64);
    }

    #[test]
    fn snapshot_histogram_is_the_partition_histogram(
        raw in proptest::collection::vec((0u32..40, 0u32..40), 0..100)
    ) {
        let pairs: Vec<(u32, u32)> = raw.into_iter().filter(|(a, b)| a != b).collect();
        let index = EntityIndex::new();
        for &(a, b) in &pairs {
            index.apply(Comparison::new(ProfileId(a), ProfileId(b)));
        }
        let snap = index.snapshot();
        let partition = index.partition();
        let mut want: HashMap<usize, usize> = HashMap::new();
        for c in &partition {
            *want.entry(c.len()).or_insert(0) += 1;
        }
        let mut want: Vec<(usize, usize)> = want.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(&snap.size_histogram, &want);
        // The "largest" list is a prefix of the canonical partition order.
        for (cluster, component) in snap.largest.iter().zip(partition.iter()) {
            prop_assert_eq!(&cluster.members, component);
            prop_assert_eq!(cluster.size, component.len());
        }
    }
}

/// Deterministic pseudo-random pair stream for the stress test.
fn stress_pairs(n: usize, universe: u32) -> Vec<Comparison> {
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let a = (next() % universe as u64) as u32;
            let mut b = (next() % universe as u64) as u32;
            if b == a {
                b = (b + 1) % universe;
            }
            Comparison::new(ProfileId(a), ProfileId(b))
        })
        .collect()
}

/// Concurrent readers during merges: no torn snapshots (every view's
/// internal invariants hold), generations monotone per reader, and the
/// final state equals a sequential replay.
#[test]
fn concurrent_readers_see_consistent_monotone_views() {
    const MATCHES: usize = 20_000;
    const UNIVERSE: u32 = 2_000;
    const READERS: usize = 4;

    let index = EntityIndex::shared();
    let pairs = stress_pairs(MATCHES, UNIVERSE);
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let index = Arc::clone(&index);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut last_generation = 0u64;
                let mut views = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snap = index.snapshot();
                    // Generation only moves forward.
                    assert!(
                        snap.generation >= last_generation,
                        "reader {reader}: generation went backwards"
                    );
                    last_generation = snap.generation;
                    // A torn view would break these identities.
                    assert!(snap.merges <= snap.matches_applied);
                    assert_eq!(snap.generation, snap.matches_applied);
                    assert_eq!(
                        snap.profiles,
                        snap.clusters + snap.merges as usize,
                        "registered == clusters + merges"
                    );
                    let histogram_profiles: usize =
                        snap.size_histogram.iter().map(|(s, n)| s * n).sum();
                    assert_eq!(histogram_profiles, snap.profiles);
                    let histogram_clusters: usize =
                        snap.size_histogram.iter().map(|(_, n)| n).sum();
                    assert_eq!(histogram_clusters, snap.clusters);
                    // Point lookups are consistent within themselves.
                    if let Some(l) = index.lookup(ProfileId((views % UNIVERSE as u64) as u32)) {
                        assert!(l.members.contains(&l.entity));
                        assert!(l.members.windows(2).all(|w| w[0] < w[1]));
                    }
                    views += 1;
                }
                assert!(views > 0, "reader {reader} never got a view");
            });
        }

        // The writer: one thread, like the stage-B coordinator.
        for &cmp in &pairs {
            index.apply(cmp);
        }
        done.store(true, Ordering::Relaxed);
    });

    // The concurrent run left exactly the sequential closure behind.
    let replay = EntityIndex::new();
    for &cmp in &pairs {
        replay.apply(cmp);
    }
    assert_eq!(index.partition(), replay.partition());
    assert_eq!(index.stats(), replay.stats());
}
