//! Progressive Profile Scheduling (PPS) and its GLOBAL/LOCAL adaptations.
//!
//! PPS \[36\] is the entity-centric batch progressive method: it builds the
//! meta-blocking graph, prunes it with WNP, scores every profile's
//! *duplication likelihood* from its retained edge weights, and emits (1) a
//! global list of each profile's single best comparison, sorted descending,
//! then (2) for each profile in likelihood order, its top-`k` non-redundant
//! comparisons. The graph build makes initialization `O(Σ‖b‖)` — the
//! dominant cost on large datasets (§7.2.1: more than 4 hours on
//! `D_dbpedia`).
//!
//! Adaptations to the incremental setting (§1, §7.3):
//! * [`PpsScope::Global`] — **PPS-GLOBAL** re-initializes over *all* data on
//!   every non-empty increment: good order, crushing overhead on fast or
//!   long streams.
//! * [`PpsScope::Local`] — **PPS-LOCAL** builds the graph over the last
//!   increment only: cheap, but blind to inter-increment comparisons and
//!   therefore finds almost nothing.

use std::collections::{HashMap, HashSet};

use pier_blocking::IncrementalBlocker;
use pier_core::ComparisonEmitter;
use pier_metablocking::{wnp, BlockingGraph, WeightingScheme};
use pier_types::{Comparison, ProfileId, TokenId, WeightedComparison};

/// Which data PPS considers when (re-)initializing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PpsScope {
    /// All profiles seen so far (PPS in batch mode / PPS-GLOBAL).
    Global,
    /// Only the profiles of the last increment (PPS-LOCAL).
    Local,
}

/// The PPS emitter.
pub struct Pps {
    scope: PpsScope,
    /// Per-profile budget for phase-2 emission (top-k comparisons).
    per_profile_k: usize,
    scheme: WeightingScheme,
    emitted: HashSet<Comparison>,
    /// The emission schedule, each comparison with its edge weight.
    schedule: std::collections::VecDeque<WeightedComparison>,
    rebuild_cost_multiplier: u64,
    ops: u64,
}

impl Pps {
    /// Creates a PPS emitter with the given scope, `CBS` weighting and the
    /// default per-profile budget of 10.
    pub fn new(scope: PpsScope) -> Self {
        Pps {
            scope,
            per_profile_k: 10,
            scheme: WeightingScheme::Cbs,
            emitted: HashSet::new(),
            schedule: std::collections::VecDeque::new(),
            rebuild_cost_multiplier: 8,
            ops: 0,
        }
    }

    /// Overrides the per-profile comparison budget.
    #[must_use]
    pub fn with_per_profile_k(mut self, k: usize) -> Self {
        assert!(k > 0, "per-profile budget must be positive");
        self.per_profile_k = k;
        self
    }

    /// Overrides the re-initialization cost multiplier.
    ///
    /// Each (re-)initialization charges its elementary op count times this
    /// constant. The default of 8 calibrates the virtual clock to the
    /// *measured* behaviour of the original JVM implementation, where PPS
    /// initialization is far heavier per elementary operation than this
    /// crate's tight loops (over 4 hours on `D_dbpedia`, §7.2.1); see
    /// DESIGN.md §2. Set to 1 for raw op accounting.
    #[must_use]
    pub fn with_rebuild_cost_multiplier(mut self, m: u64) -> Self {
        assert!(m > 0, "multiplier must be positive");
        self.rebuild_cost_multiplier = m;
        self
    }

    /// Builds the emission schedule from a set of weighted edges.
    fn schedule_from_edges(&mut self, edges: Vec<WeightedComparison>) {
        self.schedule.clear();
        // Adjacency over the retained (pruned) edges.
        let mut incident: HashMap<ProfileId, Vec<WeightedComparison>> = HashMap::new();
        for wc in edges {
            if self.emitted.contains(&wc.cmp) {
                continue;
            }
            incident.entry(wc.cmp.a).or_default().push(wc);
            incident.entry(wc.cmp.b).or_default().push(wc);
            self.ops += 1;
        }
        // Duplication likelihood: best retained weight (avg tie-break).
        let mut profiles: Vec<(ProfileId, f64, f64)> = incident
            .iter()
            .map(|(&p, list)| {
                let best = list.iter().map(|w| w.weight).fold(f64::MIN, f64::max);
                let avg: f64 = list.iter().map(|w| w.weight).sum::<f64>() / list.len() as f64;
                (p, best, avg)
            })
            .collect();
        profiles.sort_unstable_by(|a, b| {
            (b.1, b.2, a.0)
                .partial_cmp(&(a.1, a.2, b.0))
                .expect("finite")
        });
        // Phase 1: the single best comparison of each profile, globally
        // sorted by weight.
        let mut top_list: Vec<WeightedComparison> = profiles
            .iter()
            .filter_map(|&(p, _, _)| incident[&p].iter().max_by(|a, b| a.cmp(b)).copied())
            .collect();
        top_list.sort_unstable_by(|a, b| b.cmp(a));
        let mut scheduled: HashSet<Comparison> = HashSet::new();
        for wc in top_list {
            if scheduled.insert(wc.cmp) {
                self.schedule.push_back(wc);
                self.ops += 1;
            }
        }
        // Phase 2: per profile in likelihood order, its top-k comparisons.
        for &(p, _, _) in &profiles {
            let mut list = incident[&p].clone();
            list.sort_unstable_by(|a, b| b.cmp(a));
            for wc in list.into_iter().take(self.per_profile_k) {
                if scheduled.insert(wc.cmp) {
                    self.schedule.push_back(wc);
                    self.ops += 1;
                }
            }
        }
    }

    /// Global scope: graph over the full block collection.
    fn rebuild_global(&mut self, blocker: &IncrementalBlocker) {
        let graph = BlockingGraph::build(blocker.collection(), self.scheme);
        self.ops += graph.build_work();
        let edges = wnp(&graph);
        self.ops += edges.len() as u64;
        self.schedule_from_edges(edges);
    }

    /// Local scope: token-blocking graph over the last increment only.
    fn rebuild_local(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
        let collection = blocker.collection();
        // Token -> local profiles, built from the stored token sets.
        let mut token_map: HashMap<TokenId, Vec<ProfileId>> = HashMap::new();
        for &p in new_ids {
            for &t in blocker.tokens_of(p) {
                token_map.entry(t).or_default().push(p);
            }
        }
        let mut cbs: HashMap<Comparison, u32> = HashMap::new();
        for members in token_map.values() {
            for (i, &x) in members.iter().enumerate() {
                for &y in &members[i + 1..] {
                    self.ops += 1;
                    if collection.kind() == pier_types::ErKind::CleanClean
                        && collection.source_of(x) == collection.source_of(y)
                    {
                        continue;
                    }
                    *cbs.entry(Comparison::new(x, y)).or_insert(0) += 1;
                }
            }
        }
        let edges: Vec<WeightedComparison> = cbs
            .into_iter()
            .map(|(c, w)| WeightedComparison::new(c, w as f64))
            .collect();
        self.schedule_from_edges(edges);
    }
}

impl ComparisonEmitter for Pps {
    fn on_increment(&mut self, blocker: &IncrementalBlocker, new_ids: &[ProfileId]) {
        if new_ids.is_empty() {
            return; // ticks don't trigger re-initialization
        }
        let before = self.ops;
        match self.scope {
            PpsScope::Global => self.rebuild_global(blocker),
            PpsScope::Local => self.rebuild_local(blocker, new_ids),
        }
        self.ops += (self.ops - before) * (self.rebuild_cost_multiplier - 1);
    }

    fn next_weighted_batch(
        &mut self,
        _blocker: &IncrementalBlocker,
        k: usize,
    ) -> Vec<WeightedComparison> {
        let take = k.min(self.schedule.len());
        let batch: Vec<WeightedComparison> = self.schedule.drain(..take).collect();
        for wc in &batch {
            self.emitted.insert(wc.cmp);
        }
        self.ops += take as u64;
        batch
    }

    fn drain_ops(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }

    fn has_pending(&self) -> bool {
        !self.schedule.is_empty()
    }

    fn name(&self) -> String {
        match self.scope {
            PpsScope::Global => "PPS".to_string(),
            PpsScope::Local => "PPS-LOCAL".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::{EntityProfile, ErKind, SourceId};

    fn blocker(texts: &[&str]) -> IncrementalBlocker {
        let mut b = IncrementalBlocker::new(ErKind::Dirty);
        for (i, t) in texts.iter().enumerate() {
            b.process_profile(
                EntityProfile::new(ProfileId(i as u32), SourceId(0)).with("text", *t),
            );
        }
        b
    }

    #[test]
    fn global_emits_strongest_pair_first() {
        let b = blocker(&[
            "alpha beta gamma delta",
            "alpha beta gamma delta",
            "alpha solo1 solo2",
            "beta other tokens",
        ]);
        let mut e = Pps::new(PpsScope::Global);
        e.on_increment(&b, &[ProfileId(0)]);
        let first = e.next_batch(&b, 1);
        assert_eq!(first, vec![Comparison::new(ProfileId(0), ProfileId(1))]);
    }

    #[test]
    fn local_misses_inter_increment_pairs() {
        let mut b = blocker(&["match tokens here", "filler unrelated"]);
        let mut e = Pps::new(PpsScope::Local);
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        let _ = e.next_batch(&b, 100);
        // The duplicate of p0 arrives in increment 2.
        b.process_profile(
            EntityProfile::new(ProfileId(2), SourceId(0)).with("t", "match tokens here"),
        );
        e.on_increment(&b, &[ProfileId(2)]);
        let batch = e.next_batch(&b, 100);
        // LOCAL only looked inside {p2}: the (p0, p2) match is invisible.
        assert!(batch.is_empty(), "got {batch:?}");
    }

    #[test]
    fn global_catches_inter_increment_pairs() {
        let mut b = blocker(&["match tokens here", "filler unrelated"]);
        let mut e = Pps::new(PpsScope::Global);
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        let _ = e.next_batch(&b, 100);
        b.process_profile(
            EntityProfile::new(ProfileId(2), SourceId(0)).with("t", "match tokens here"),
        );
        e.on_increment(&b, &[ProfileId(2)]);
        let batch = e.next_batch(&b, 100);
        assert!(batch.contains(&Comparison::new(ProfileId(0), ProfileId(2))));
    }

    #[test]
    fn no_reemission_across_rebuilds() {
        let mut b = blocker(&["dup pair one", "dup pair one"]);
        let mut e = Pps::new(PpsScope::Global);
        e.on_increment(&b, &[ProfileId(0), ProfileId(1)]);
        let first = e.next_batch(&b, 100);
        assert!(first.contains(&Comparison::new(ProfileId(0), ProfileId(1))));
        b.process_profile(EntityProfile::new(ProfileId(2), SourceId(0)).with("t", "dup pair"));
        e.on_increment(&b, &[ProfileId(2)]);
        let second = e.next_batch(&b, 100);
        assert!(!second.contains(&Comparison::new(ProfileId(0), ProfileId(1))));
    }

    #[test]
    fn global_rebuild_cost_grows_with_dataset() {
        let texts: Vec<String> = (0..30).map(|i| format!("shared uniq{i}")).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let b_full = blocker(&refs);
        let b_small = blocker(&refs[..5]);
        let mut e1 = Pps::new(PpsScope::Global);
        e1.on_increment(&b_full, &[ProfileId(0)]);
        let full = e1.drain_ops();
        let mut e2 = Pps::new(PpsScope::Global);
        e2.on_increment(&b_small, &[ProfileId(0)]);
        let small = e2.drain_ops();
        assert!(full > small * 5, "full {full} vs small {small}");
    }

    #[test]
    fn per_profile_budget_limits_phase_two() {
        // A hub profile with many weak neighbors.
        let mut texts = vec!["hub tok0 tok1 tok2 tok3"];
        let neighbors: Vec<String> = (0..8).map(|i| format!("hub neigh{i}")).collect();
        texts.extend(neighbors.iter().map(String::as_str));
        let b = blocker(&texts);
        let mut e = Pps::new(PpsScope::Global).with_per_profile_k(2);
        e.on_increment(&b, &[ProfileId(0)]);
        // Should still emit something but bounded overall.
        let batch = e.next_batch(&b, 1000);
        assert!(!batch.is_empty());
    }

    #[test]
    fn ticks_are_free() {
        let b = blocker(&["aa bb", "aa bb"]);
        let mut e = Pps::new(PpsScope::Global);
        e.on_increment(&b, &[ProfileId(0)]);
        e.drain_ops();
        e.on_increment(&b, &[]);
        assert_eq!(e.drain_ops(), 0);
    }

    #[test]
    fn names_reflect_scope() {
        assert_eq!(Pps::new(PpsScope::Global).name(), "PPS");
        assert_eq!(Pps::new(PpsScope::Local).name(), "PPS-LOCAL");
    }
}
