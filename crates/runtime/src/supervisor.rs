//! Supervision and recovery for the threaded pipeline.
//!
//! The progressive guarantee is only useful if the pipeline survives the
//! failures a long-running stream will actually see. This module holds the
//! pieces every topology shares:
//!
//! * [`Supervisor`] — the run-wide fault ledger: the dead-letter queue
//!   (surfaced as `RuntimeReport::dead_letters`), the quarantine set of
//!   profiles proven to panic ingest, and the restart counter. All of its
//!   methods take the run's observer so each fault
//!   also flows through `ObserverSet` into `pier-metrics`.
//! * [`IngestJournal`] — a bounded ring buffer of successfully ingested
//!   profile batches for one stage-A lane. When a shard worker dies, a
//!   fresh worker replays the journal to rebuild its blocking state;
//!   re-emitted comparisons are absorbed by the merger's CF dedup, so the
//!   recovered stream emits exactly the fault-free match set.
//! * [`DeadLetter`] — one quarantined profile, dropped duplicate, lost
//!   match, or quarantined pair.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use pier_observe::{DeadLetterReason, Event, Observer, WorkerRole};
use pier_types::{Comparison, EntityProfile, ProfileId, TokenId};

/// One entry of the run's dead-letter queue.
#[derive(Debug, Clone, PartialEq)]
pub enum DeadLetter {
    /// Ingesting this profile panicked repeatably; the supervisor
    /// quarantined it and the stream continued without it.
    QuarantinedProfile {
        /// The quarantined profile id.
        profile: u32,
        /// The shard whose worker identified it (`None` for the single
        /// topology).
        shard: Option<u16>,
    },
    /// This profile id arrived twice; the repeat was dropped.
    DuplicateProfile {
        /// The duplicated profile id.
        profile: u32,
    },
    /// A confirmed match could not be delivered to the collector (the
    /// match channel was gone or stayed full past the send timeout).
    LostMatch {
        /// The confirmed-but-undelivered pair.
        pair: Comparison,
        /// The similarity the classifier reported for it.
        similarity: f64,
    },
    /// Evaluating this pair panicked repeatably; it was quarantined and
    /// counted as a non-match.
    QuarantinedPair {
        /// The quarantined pair.
        pair: Comparison,
    },
}

impl DeadLetter {
    /// The [`DeadLetterReason`] this entry is observed and counted under.
    pub fn reason(&self) -> DeadLetterReason {
        match self {
            DeadLetter::QuarantinedProfile { .. } => DeadLetterReason::PoisonedProfile,
            DeadLetter::DuplicateProfile { .. } => DeadLetterReason::DuplicateProfile,
            DeadLetter::LostMatch { .. } => DeadLetterReason::LostMatch,
            DeadLetter::QuarantinedPair { .. } => DeadLetterReason::PoisonedPair,
        }
    }
}

impl fmt::Display for DeadLetter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadLetter::QuarantinedProfile {
                profile,
                shard: Some(shard),
            } => write!(f, "profile {profile} quarantined (panicked shard {shard})"),
            DeadLetter::QuarantinedProfile {
                profile,
                shard: None,
            } => write!(f, "profile {profile} quarantined (panicked stage A)"),
            DeadLetter::DuplicateProfile { profile } => {
                write!(f, "profile {profile} ingested twice; repeat dropped")
            }
            DeadLetter::LostMatch { pair, similarity } => write!(
                f,
                "match ({}, {}) @ {similarity:.3} lost: collector unreachable",
                pair.a.0, pair.b.0
            ),
            DeadLetter::QuarantinedPair { pair } => write!(
                f,
                "pair ({}, {}) quarantined (panicked matcher)",
                pair.a.0, pair.b.0
            ),
        }
    }
}

/// The run-wide fault ledger shared by every supervised stage.
///
/// Cheap when nothing fails: the hot paths only consult
/// [`Supervisor::is_quarantined`] (an uncontended read-lock on an empty
/// set) when a chaos plan is armed, and the other methods run once per
/// fault.
#[derive(Debug, Default)]
pub struct Supervisor {
    dead_letters: Mutex<Vec<DeadLetter>>,
    quarantined: Mutex<HashSet<u32>>,
    /// Lock-free mirror of `quarantined.len()`: the per-batch fast path
    /// asks "is anything quarantined at all?" without taking the lock.
    quarantined_count: AtomicU64,
    restarts: AtomicU64,
}

impl Supervisor {
    /// A fresh ledger with nothing quarantined.
    pub fn new() -> Supervisor {
        Supervisor::default()
    }

    /// Whether anything is quarantined at all — a relaxed atomic read, so
    /// fault-free hot paths can skip per-profile quarantine lookups.
    pub fn has_quarantined(&self) -> bool {
        self.quarantined_count.load(Ordering::Relaxed) > 0
    }

    /// Whether `profile` has been quarantined — supervised ingest paths
    /// skip such profiles on retry and replay.
    pub fn is_quarantined(&self, profile: u32) -> bool {
        self.quarantined.lock().contains(&profile)
    }

    /// Quarantines `profile` after its ingest panicked. Returns `true` the
    /// first time only: the quarantine set is global, so a poison profile
    /// fanned out to several shards (each panicking on its copy) still
    /// produces exactly one dead letter and one event.
    pub fn quarantine_profile(
        &self,
        profile: u32,
        shard: Option<u16>,
        observer: &Observer,
    ) -> bool {
        if !self.quarantined.lock().insert(profile) {
            return false;
        }
        self.quarantined_count.fetch_add(1, Ordering::Relaxed);
        self.push(DeadLetter::QuarantinedProfile { profile, shard }, observer);
        true
    }

    /// Records a dropped duplicate ingest of `profile`.
    pub fn duplicate_profile(&self, profile: u32, observer: &Observer) {
        self.push(DeadLetter::DuplicateProfile { profile }, observer);
    }

    /// Records a confirmed match that could not reach the collector.
    pub fn lost_match(&self, pair: Comparison, similarity: f64, observer: &Observer) {
        self.push(DeadLetter::LostMatch { pair, similarity }, observer);
    }

    /// Quarantines a pair whose evaluation panicked repeatably.
    pub fn quarantine_pair(&self, pair: Comparison, observer: &Observer) {
        self.push(DeadLetter::QuarantinedPair { pair }, observer);
    }

    fn push(&self, letter: DeadLetter, observer: &Observer) {
        let reason = letter.reason();
        let (a, b) = match &letter {
            DeadLetter::QuarantinedProfile { profile, .. }
            | DeadLetter::DuplicateProfile { profile } => {
                (ProfileId(*profile), ProfileId(*profile))
            }
            DeadLetter::LostMatch { pair, .. } | DeadLetter::QuarantinedPair { pair } => {
                (pair.a, pair.b)
            }
        };
        self.dead_letters.lock().push(letter);
        observer.emit(|| Event::DeadLettered { reason, a, b });
    }

    /// Records one supervised restart of a `role` worker on `lane`,
    /// measured from panic to resumed stream.
    pub fn worker_restarted(
        &self,
        role: WorkerRole,
        lane: u16,
        recovery_secs: f64,
        observer: &Observer,
    ) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
        observer.emit(|| Event::WorkerRestarted {
            role,
            lane,
            recovery_secs,
        });
    }

    /// Worker restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// A snapshot of the dead-letter queue in arrival order.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.dead_letters.lock().clone()
    }
}

/// One journaled stage-A ingest: the skeleton profile, its token-id
/// subset, and its ghost floor — exactly the triple a `ShardWorker`
/// ingests, so replay re-runs the original call.
pub type JournalEntry = (EntityProfile, Vec<TokenId>, usize);

/// A bounded ring buffer of successfully ingested batches for one stage-A
/// lane. Entries are dense (interned ids, attribute-less skeletons), so
/// journaling costs one clone of each routed triple. When the buffer is
/// full the oldest entries are evicted and counted — a recovery after
/// eviction rebuilds only the journaled suffix, which keeps the worker
/// alive but may lose early comparisons (the eviction count makes that
/// auditable).
#[derive(Debug)]
pub struct IngestJournal {
    entries: VecDeque<JournalEntry>,
    capacity: usize,
    evicted: u64,
}

impl IngestJournal {
    /// An empty journal keeping at most `capacity` profiles.
    pub fn new(capacity: usize) -> IngestJournal {
        IngestJournal {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// Records one successfully ingested profile triple.
    pub fn record(&mut self, entry: &JournalEntry) {
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(entry.clone());
    }

    /// Records every profile of a successfully ingested batch.
    pub fn record_batch(&mut self, batch: &[JournalEntry]) {
        for entry in batch {
            self.record(entry);
        }
    }

    /// The journaled entries, oldest first — feed them back through the
    /// fresh worker's ingest to rebuild its blocking state.
    pub fn entries(&self) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter()
    }

    /// Profiles currently journaled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Profiles evicted by the capacity bound so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::SourceId;

    fn entry(id: u32) -> JournalEntry {
        (
            EntityProfile::new(ProfileId(id), SourceId(0)),
            vec![TokenId(id)],
            1,
        )
    }

    #[test]
    fn quarantine_is_exactly_once() {
        let sup = Supervisor::new();
        let obs = Observer::disabled();
        assert!(!sup.is_quarantined(7));
        assert!(sup.quarantine_profile(7, Some(2), &obs));
        // Second quarantine of the same profile (another shard panicking
        // on its copy) records nothing new.
        assert!(!sup.quarantine_profile(7, Some(3), &obs));
        assert!(sup.is_quarantined(7));
        assert_eq!(
            sup.dead_letters(),
            vec![DeadLetter::QuarantinedProfile {
                profile: 7,
                shard: Some(2)
            }]
        );
    }

    #[test]
    fn ledger_counts_restarts() {
        let sup = Supervisor::new();
        let obs = Observer::disabled();
        sup.worker_restarted(WorkerRole::Shard, 1, 0.01, &obs);
        sup.worker_restarted(WorkerRole::Match, 0, 0.002, &obs);
        assert_eq!(sup.restarts(), 2);
    }

    #[test]
    fn dead_letter_kinds_round_trip_reason_and_display() {
        let pair = Comparison::new(ProfileId(1), ProfileId(2));
        let letters = [
            DeadLetter::QuarantinedProfile {
                profile: 9,
                shard: None,
            },
            DeadLetter::DuplicateProfile { profile: 9 },
            DeadLetter::LostMatch {
                pair,
                similarity: 0.9,
            },
            DeadLetter::QuarantinedPair { pair },
        ];
        let reasons: Vec<DeadLetterReason> = letters.iter().map(|l| l.reason()).collect();
        assert_eq!(reasons, DeadLetterReason::ALL.to_vec());
        for letter in &letters {
            assert!(!letter.to_string().is_empty());
        }
    }

    #[test]
    fn journal_evicts_oldest_beyond_capacity() {
        let mut journal = IngestJournal::new(3);
        assert!(journal.is_empty());
        for id in 0..5 {
            journal.record(&entry(id));
        }
        assert_eq!(journal.len(), 3);
        assert_eq!(journal.evicted(), 2);
        let ids: Vec<u32> = journal.entries().map(|(p, _, _)| p.id.0).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn journal_batch_records_in_order() {
        let mut journal = IngestJournal::new(16);
        journal.record_batch(&[entry(1), entry(2)]);
        journal.record_batch(&[entry(3)]);
        let ids: Vec<u32> = journal.entries().map(|(p, _, _)| p.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(journal.evicted(), 0);
    }
}
