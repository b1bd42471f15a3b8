//! Live run statistics — *the* fold of the event stream: counters,
//! per-phase latency histograms, per-shard and per-worker breakdowns, and
//! an optional pair-completeness timeline.
//!
//! [`StatsObserver`] is the only type in the workspace that turns the
//! counting [`Event`] kinds into numbers. It folds into atoms it is handed
//! by an [`AtomSource`]: private ones ([`StatsObserver::new`]) for an
//! in-process [`StatsSnapshot`], or the handles of a metrics registry
//! ([`StatsObserver::with_atoms`], which `pier-metrics`' bridge uses), in
//! which case the Prometheus scrape and the snapshot read the same words.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use pier_types::{GroundTruth, MatchLedger, ProgressTrajectory};

use crate::atoms::{AtomSource, Counter, Gauge, Histogram, PrivateAtoms};
use crate::{Event, Phase, PipelineObserver};

/// The pair-completeness timeline state, fed from emitted comparisons.
#[derive(Debug)]
struct PcTimeline {
    ground_truth: GroundTruth,
    ledger: MatchLedger,
    trajectory: ProgressTrajectory,
}

/// One shard's counters, kept with its siblings under one mutex:
/// shard-tagged events are orders of magnitude rarer than the global
/// atoms' traffic. The table grows to the highest shard id seen, asking
/// the source for each id's atoms once, on the first event that carries it.
#[derive(Debug)]
struct ShardAtoms {
    profiles: Arc<Counter>,
    blocks_built: Arc<Counter>,
    blocks_purged: Arc<Counter>,
    comparisons_emitted: Arc<Counter>,
    cf_filtered: Arc<Counter>,
}

impl ShardAtoms {
    fn resolve(source: &dyn AtomSource, shard: usize) -> Self {
        let shard = shard.to_string();
        let counter = |name, help| source.counter(name, help, &[("shard", &shard)]);
        ShardAtoms {
            profiles: counter(
                "pier_shard_profiles_total",
                "Profiles routed to each shard (once per owning shard).",
            ),
            blocks_built: counter("pier_shard_blocks_built_total", "Blocks created per shard."),
            blocks_purged: counter("pier_shard_blocks_purged_total", "Blocks purged per shard."),
            comparisons_emitted: counter(
                "pier_shard_comparisons_emitted_total",
                "Comparisons each shard handed to the merger.",
            ),
            cf_filtered: counter(
                "pier_shard_cf_filtered_total",
                "Bloom-rejected pairs per shard.",
            ),
        }
    }
}

/// One match worker's atoms, same strategy as [`ShardAtoms`]: workers
/// report one timing per chunk, not per pair.
#[derive(Debug)]
struct WorkerAtoms {
    classify: Arc<Histogram>,
    matches_confirmed: Arc<Counter>,
}

impl WorkerAtoms {
    fn resolve(source: &dyn AtomSource, worker: usize) -> Self {
        let worker = worker.to_string();
        let labels: &[(&str, &str)] = &[("worker", &worker)];
        WorkerAtoms {
            classify: source.histogram(
                "pier_worker_classify_seconds",
                "Per-chunk classify latency of each match worker.",
                labels,
            ),
            matches_confirmed: source.counter(
                "pier_worker_matches_confirmed_total",
                "Matches confirmed per worker (0 unless the driver attributes them).",
                labels,
            ),
        }
    }
}

/// An observer accumulating run statistics that can be snapshotted at any
/// moment from any thread, mid-run included.
///
/// Every aggregate is a relaxed atomic; the only locks are the lazily
/// grown per-shard / per-worker tables and the optional PC timeline (taken
/// once per `ComparisonEmitted` event). Timeline timestamps are
/// receive-time wall-clock seconds since the observer was created —
/// accurate for live runs; for the virtual-time simulator use the
/// [`crate::JsonlObserver`] export and replay instead.
///
/// Two attribution rules, stated here once:
///
/// * a shard-tagged `IncrementIngested` counts **per shard only** — the
///   router reports the global increment once, untagged, and the shard
///   copies describe fan-out (a profile lands on every shard owning one of
///   its tokens), so counting them globally would multiply the profile
///   total;
/// * a worker-tagged `Classify` timing counts **per worker only** — the
///   coordinator already times the whole batch untagged, and the worker
///   slices overlap it.
///
/// Every other tagged event also counts wherever its untagged form would.
#[derive(Debug)]
pub struct StatsObserver {
    start: Instant,
    source: Arc<dyn AtomSource>,
    increments: Arc<Counter>,
    profiles: Arc<Counter>,
    blocks_built: Arc<Counter>,
    blocks_purged: Arc<Counter>,
    ghost_kept: Arc<Counter>,
    ghost_dropped: Arc<Counter>,
    comparisons_emitted: Arc<Counter>,
    cf_filtered: Arc<Counter>,
    matches_confirmed: Arc<Counter>,
    k_changes: Arc<Counter>,
    /// Latest `K` reported by `AdaptiveKChanged` (0 = never reported).
    adaptive_k: Arc<Gauge>,
    phases: [Arc<Histogram>; 4],
    // Supervision totals are never handed out: a scrape breaks them down
    // by role / reason instead (see `pier_metrics::MetricsObserver`).
    dead_letters: Counter,
    worker_restarts: Counter,
    pc: Option<Mutex<PcTimeline>>,
    shards: Mutex<Vec<ShardAtoms>>,
    workers: Mutex<Vec<WorkerAtoms>>,
}

impl Default for StatsObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsObserver {
    /// Creates an observer with counters and phase histograms only.
    pub fn new() -> Self {
        Self::with_atoms(Arc::new(PrivateAtoms), None)
    }

    /// Creates an observer that additionally maintains a live PC timeline
    /// against `ground_truth`, credited from emitted comparisons (the
    /// paper's PC definition).
    pub fn with_ground_truth(ground_truth: GroundTruth) -> Self {
        Self::with_atoms(Arc::new(PrivateAtoms), Some(ground_truth))
    }

    /// Creates an observer folding into atoms resolved from `source` under
    /// the family names below — the global families up front, in this
    /// order, so a scrape taken before any event shows the full schema;
    /// the `shard`- and `worker`-labelled ones on demand.
    pub fn with_atoms(source: Arc<dyn AtomSource>, ground_truth: Option<GroundTruth>) -> Self {
        let counter = |name, help| source.counter(name, help, &[]);
        StatsObserver {
            start: Instant::now(),
            increments: counter(
                "pier_increments_total",
                "Data increments ingested (idle ticks emit no event and are not counted).",
            ),
            profiles: counter("pier_profiles_total", "Entity profiles ingested."),
            blocks_built: counter("pier_blocks_built_total", "Blocks created."),
            blocks_purged: counter("pier_blocks_purged_total", "Blocks purged."),
            ghost_kept: counter("pier_ghost_kept_total", "Block entries kept by ghosting."),
            ghost_dropped: counter(
                "pier_ghost_dropped_total",
                "Block entries dropped by ghosting.",
            ),
            comparisons_emitted: counter(
                "pier_comparisons_emitted_total",
                "Comparisons handed to the matcher by the prioritizer.",
            ),
            cf_filtered: counter(
                "pier_cf_filtered_total",
                "Pairs rejected by the redundancy (Bloom) filter.",
            ),
            matches_confirmed: counter(
                "pier_matches_confirmed_total",
                "Duplicates confirmed by the classifier.",
            ),
            k_changes: counter(
                "pier_adaptive_k_changes_total",
                "Adaptive batch-size adjustments.",
            ),
            adaptive_k: source.gauge(
                "pier_adaptive_k",
                "Current adaptive batch size K (0 = never adjusted).",
                &[],
            ),
            phases: Phase::ALL.map(|p| {
                source.histogram(
                    "pier_phase_seconds",
                    "Per-unit latency of each pipeline phase.",
                    &[("phase", p.name())],
                )
            }),
            dead_letters: Counter::new(),
            worker_restarts: Counter::new(),
            pc: ground_truth.map(|ground_truth| {
                Mutex::new(PcTimeline {
                    trajectory: ProgressTrajectory::for_ground_truth(&ground_truth),
                    ledger: MatchLedger::new(),
                    ground_truth,
                })
            }),
            shards: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            source,
        }
    }

    /// Takes a consistent-enough snapshot of all statistics. Atoms are
    /// read individually (relaxed), so totals may be skewed by events in
    /// flight — fine for progress display.
    pub fn snapshot(&self) -> StatsSnapshot {
        let (pc, pc_matches) = match &self.pc {
            Some(m) => {
                let t = m.lock();
                (Some(t.trajectory.pc()), t.trajectory.matches())
            }
            None => (None, 0),
        };
        StatsSnapshot {
            uptime_secs: self.start.elapsed().as_secs_f64(),
            increments: self.increments.get(),
            profiles: self.profiles.get(),
            blocks_built: self.blocks_built.get(),
            blocks_purged: self.blocks_purged.get(),
            ghost_kept: self.ghost_kept.get(),
            ghost_dropped: self.ghost_dropped.get(),
            comparisons_emitted: self.comparisons_emitted.get(),
            cf_filtered: self.cf_filtered.get(),
            matches_confirmed: self.matches_confirmed.get(),
            k_changes: self.k_changes.get(),
            current_k: match self.adaptive_k.get() {
                0 => None,
                k => Some(k as usize),
            },
            pc,
            pc_matches,
            dead_letters: self.dead_letters.get(),
            worker_restarts: self.worker_restarts.get(),
            phases: Phase::ALL.map(|phase| {
                let h = &self.phases[phase.index()];
                PhaseSnapshot {
                    phase,
                    count: h.count(),
                    total_secs: h.sum_secs(),
                    p50_secs: h.percentile_secs(0.50),
                    p95_secs: h.percentile_secs(0.95),
                    p99_secs: h.percentile_secs(0.99),
                }
            }),
            shards: (0u16..)
                .zip(self.shards.lock().iter())
                .map(|(shard, a)| ShardSnapshot {
                    shard,
                    profiles: a.profiles.get(),
                    blocks_built: a.blocks_built.get(),
                    blocks_purged: a.blocks_purged.get(),
                    comparisons_emitted: a.comparisons_emitted.get(),
                    cf_filtered: a.cf_filtered.get(),
                })
                .collect(),
            workers: (0u16..)
                .zip(self.workers.lock().iter())
                .map(|(worker, a)| WorkerSnapshot {
                    worker,
                    classify_chunks: a.classify.count(),
                    classify_secs: a.classify.sum_secs(),
                    matches_confirmed: a.matches_confirmed.get(),
                })
                .collect(),
        }
    }

    /// Duplicates confirmed so far (one relaxed load, no snapshot).
    pub fn matches_confirmed(&self) -> u64 {
        self.matches_confirmed.get()
    }

    /// Live pair completeness, if ground truth was provided.
    pub fn pc(&self) -> Option<f64> {
        self.pc.as_ref().map(|m| m.lock().trajectory.pc())
    }

    /// A clone of the live PC trajectory, if ground truth was provided.
    pub fn trajectory(&self) -> Option<ProgressTrajectory> {
        self.pc.as_ref().map(|m| m.lock().trajectory.clone())
    }

    /// Runs `f` on `table[id]`, first growing the table to `id` — one
    /// `resolve(source, id)` per new id, in id order.
    fn lane<A>(
        &self,
        table: &Mutex<Vec<A>>,
        id: u16,
        resolve: fn(&dyn AtomSource, usize) -> A,
        f: impl FnOnce(&A),
    ) {
        let mut table = table.lock();
        while table.len() <= id as usize {
            let next = resolve(&*self.source, table.len());
            table.push(next);
        }
        f(&table[id as usize])
    }
}

impl PipelineObserver for StatsObserver {
    fn on_event(&self, event: &Event) {
        match *event {
            Event::IncrementIngested { profiles, .. } => {
                self.increments.inc();
                self.profiles.add(profiles as u64);
            }
            Event::BlockBuilt { .. } => self.blocks_built.inc(),
            Event::BlockPurged { .. } => self.blocks_purged.inc(),
            Event::BlockGhosted { kept, dropped, .. } => {
                self.ghost_kept.add(kept as u64);
                self.ghost_dropped.add(dropped as u64);
            }
            Event::ComparisonEmitted { cmp, .. } => {
                self.comparisons_emitted.inc();
                if let Some(m) = &self.pc {
                    let t = &mut *m.lock();
                    // Clock read under the lock: racing workers would
                    // otherwise record inverted timestamps and break the
                    // trajectory's monotonicity.
                    let now = self.start.elapsed().as_secs_f64();
                    let was_match = t.ledger.credit(&t.ground_truth, cmp);
                    t.trajectory.record(now, was_match);
                }
            }
            Event::CfFiltered { .. } => self.cf_filtered.inc(),
            Event::AdaptiveKChanged { new_k, .. } => {
                self.k_changes.inc();
                self.adaptive_k.set(new_k as i64);
            }
            Event::MatchConfirmed { .. } => self.matches_confirmed.inc(),
            Event::PhaseTiming { phase, secs } => self.phases[phase.index()].record_secs(secs),
            Event::WorkerRestarted { .. } => self.worker_restarts.inc(),
            Event::DeadLettered { .. } => self.dead_letters.inc(),
        }
    }

    fn on_shard_event(&self, shard: u16, event: &Event) {
        // Globals first (rule one of the type docs).
        if !matches!(event, Event::IncrementIngested { .. }) {
            self.on_event(event);
        }
        self.lane(&self.shards, shard, ShardAtoms::resolve, |a| match *event {
            Event::IncrementIngested { profiles, .. } => a.profiles.add(profiles as u64),
            Event::BlockBuilt { .. } => a.blocks_built.inc(),
            Event::BlockPurged { .. } => a.blocks_purged.inc(),
            Event::ComparisonEmitted { .. } => a.comparisons_emitted.inc(),
            Event::CfFiltered { .. } => a.cf_filtered.inc(),
            _ => {}
        });
    }

    fn on_worker_event(&self, worker: u16, event: &Event) {
        // Globals first (rule two of the type docs).
        let classify_secs = match *event {
            Event::PhaseTiming {
                phase: Phase::Classify,
                secs,
            } => Some(secs),
            _ => None,
        };
        if classify_secs.is_none() {
            self.on_event(event);
        }
        self.lane(&self.workers, worker, WorkerAtoms::resolve, |a| {
            if let Some(secs) = classify_secs {
                a.classify.record_secs(secs);
            } else if matches!(event, Event::MatchConfirmed { .. }) {
                a.matches_confirmed.inc();
            }
        });
    }
}

/// Latency summary of one phase at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSnapshot {
    /// Which phase.
    pub phase: Phase,
    /// Timed work units.
    pub count: u64,
    /// Total seconds spent in the phase.
    pub total_secs: f64,
    /// Median per-unit latency (log₂-bucket approximation), seconds.
    pub p50_secs: f64,
    /// 95th-percentile per-unit latency, seconds.
    pub p95_secs: f64,
    /// 99th-percentile per-unit latency, seconds.
    pub p99_secs: f64,
}

/// A point-in-time view of a [`StatsObserver`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Seconds since the observer was created.
    pub uptime_secs: f64,
    /// Increments ingested. Idle ticks are not increments: no executor
    /// emits `IncrementIngested` for one.
    pub increments: u64,
    /// Profiles ingested.
    pub profiles: u64,
    /// Blocks created.
    pub blocks_built: u64,
    /// Blocks purged.
    pub blocks_purged: u64,
    /// Blocks kept by ghosting, summed over profiles.
    pub ghost_kept: u64,
    /// Blocks dropped by ghosting, summed over profiles.
    pub ghost_dropped: u64,
    /// Comparisons handed to the matcher.
    pub comparisons_emitted: u64,
    /// Pairs rejected by the redundancy (Bloom) filter.
    pub cf_filtered: u64,
    /// Duplicates confirmed by the classifier.
    pub matches_confirmed: u64,
    /// `AdaptiveKChanged` events seen.
    pub k_changes: u64,
    /// Latest adaptive `K`, if it ever changed.
    pub current_k: Option<usize>,
    /// Live pair completeness, if ground truth was provided.
    pub pc: Option<f64>,
    /// Ground-truth matches credited so far (0 without ground truth).
    pub pc_matches: u64,
    /// Profiles/pairs quarantined into the dead-letter queue.
    pub dead_letters: u64,
    /// Supervisor worker restarts.
    pub worker_restarts: u64,
    /// Per-phase latency summaries, in [`Phase::ALL`] order.
    pub phases: [PhaseSnapshot; 4],
    /// Per-shard work breakdown, indexed by shard id. Empty unless events
    /// arrived through shard-tagged handles (see `Observer::for_shard`).
    pub shards: Vec<ShardSnapshot>,
    /// Per-match-worker classify breakdown, indexed by worker id. Empty
    /// unless events arrived through worker-tagged handles (see
    /// `Observer::for_worker`).
    pub workers: Vec<WorkerSnapshot>,
}

/// Work attributed to one stage-A shard at snapshot time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard id the counters belong to.
    pub shard: u16,
    /// Profiles routed to this shard (each profile counts once per shard
    /// that owns at least one of its tokens).
    pub profiles: u64,
    /// Blocks created in this shard's collection.
    pub blocks_built: u64,
    /// Blocks purged in this shard's collection.
    pub blocks_purged: u64,
    /// Comparisons this shard handed to the merger.
    pub comparisons_emitted: u64,
    /// Pairs this shard's (or the merger's) Bloom filter rejected.
    pub cf_filtered: u64,
}

impl ShardSnapshot {
    /// An all-zero snapshot for `shard` — what a shard that received no
    /// events looks like in [`StatsSnapshot::shards`].
    pub fn default_for(shard: u16) -> Self {
        ShardSnapshot {
            shard,
            ..Default::default()
        }
    }
}

/// Classify work attributed to one stage-B match worker at snapshot time.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WorkerSnapshot {
    /// The worker id the counters belong to.
    pub worker: u16,
    /// Batch chunks this worker classified.
    pub classify_chunks: u64,
    /// Seconds this worker spent classifying (sum of its chunk timings —
    /// workers run concurrently, so these overlap and exceed wall time).
    pub classify_secs: f64,
    /// Matches this worker confirmed (0 unless the driver attributes
    /// confirmations per worker; the coordinator normally emits them
    /// untagged to preserve sequential event order).
    pub matches_confirmed: u64,
}

impl WorkerSnapshot {
    /// An all-zero snapshot for `worker` — what a worker that received no
    /// events looks like in [`StatsSnapshot::workers`].
    pub fn default_for(worker: u16) -> Self {
        WorkerSnapshot {
            worker,
            ..Default::default()
        }
    }
}

impl StatsSnapshot {
    /// Emitted comparisons per second of uptime.
    pub fn comparisons_per_second(&self) -> f64 {
        if self.uptime_secs <= 0.0 {
            return 0.0;
        }
        self.comparisons_emitted as f64 / self.uptime_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::{Comparison, ProfileId};

    fn cmp(a: u32, b: u32) -> Comparison {
        Comparison::new(ProfileId(a), ProfileId(b))
    }

    #[test]
    fn counters_accumulate_per_event_kind() {
        let s = StatsObserver::new();
        s.on_event(&Event::IncrementIngested {
            seq: 1,
            profiles: 3,
        });
        s.on_event(&Event::BlockBuilt { block: 0 });
        s.on_event(&Event::BlockBuilt { block: 1 });
        s.on_event(&Event::BlockPurged { block: 0, size: 50 });
        s.on_event(&Event::BlockGhosted {
            profile: ProfileId(0),
            kept: 2,
            dropped: 5,
        });
        s.on_event(&Event::ComparisonEmitted {
            cmp: cmp(0, 1),
            weight: 2.0,
        });
        s.on_event(&Event::CfFiltered { cmp: cmp(0, 1) });
        s.on_event(&Event::MatchConfirmed {
            cmp: cmp(0, 1),
            similarity: 0.9,
            at_secs: 0.1,
        });
        let snap = s.snapshot();
        assert_eq!(snap.increments, 1);
        assert_eq!(snap.profiles, 3);
        assert_eq!(snap.blocks_built, 2);
        assert_eq!(snap.blocks_purged, 1);
        assert_eq!(snap.ghost_kept, 2);
        assert_eq!(snap.ghost_dropped, 5);
        assert_eq!(snap.comparisons_emitted, 1);
        assert_eq!(snap.cf_filtered, 1);
        assert_eq!(snap.matches_confirmed, 1);
        assert_eq!(snap.pc, None);
    }

    #[test]
    fn adaptive_k_is_tracked() {
        let s = StatsObserver::new();
        assert_eq!(s.snapshot().current_k, None);
        s.on_event(&Event::AdaptiveKChanged {
            old_k: 64,
            new_k: 83,
        });
        s.on_event(&Event::AdaptiveKChanged {
            old_k: 83,
            new_k: 64,
        });
        let snap = s.snapshot();
        assert_eq!(snap.k_changes, 2);
        assert_eq!(snap.current_k, Some(64));
    }

    #[test]
    fn phase_histogram_yields_percentiles() {
        let s = StatsObserver::new();
        for _ in 0..90 {
            s.on_event(&Event::PhaseTiming {
                phase: Phase::Classify,
                secs: 1e-6,
            });
        }
        for _ in 0..10 {
            s.on_event(&Event::PhaseTiming {
                phase: Phase::Classify,
                secs: 1e-3,
            });
        }
        let snap = s.snapshot();
        let classify = snap.phases[Phase::Classify.index()];
        assert_eq!(classify.count, 100);
        assert!(classify.total_secs > 1e-3);
        assert!(classify.p50_secs < 1e-5, "p50 = {}", classify.p50_secs);
        assert!(classify.p99_secs > 1e-4, "p99 = {}", classify.p99_secs);
        assert!(classify.p50_secs <= classify.p95_secs);
        assert!(classify.p95_secs <= classify.p99_secs);
        // Other phases untouched.
        assert_eq!(snap.phases[Phase::Block.index()].count, 0);
        assert_eq!(snap.phases[Phase::Block.index()].p99_secs, 0.0);
    }

    #[test]
    fn pc_timeline_credits_ground_truth_once() {
        let gt =
            GroundTruth::from_pairs([(ProfileId(0), ProfileId(1)), (ProfileId(2), ProfileId(3))]);
        let s = StatsObserver::with_ground_truth(gt);
        let emit = |c| {
            s.on_event(&Event::ComparisonEmitted {
                cmp: c,
                weight: 1.0,
            })
        };
        emit(cmp(0, 1)); // match
        emit(cmp(0, 2)); // non-match
        emit(cmp(0, 1)); // repeat: no double credit
        let snap = s.snapshot();
        assert_eq!(snap.pc, Some(0.5));
        assert_eq!(snap.pc_matches, 1);
        assert_eq!(snap.comparisons_emitted, 3);
        let t = s.trajectory().expect("timeline enabled");
        assert_eq!(t.matches(), 1);
        assert_eq!(t.comparisons(), 3);
    }

    #[test]
    fn snapshot_is_usable_concurrently() {
        let s = std::sync::Arc::new(StatsObserver::new());
        let writer = {
            let s = std::sync::Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..10_000u32 {
                    s.on_event(&Event::BlockBuilt { block: i });
                }
            })
        };
        // Snapshot while the writer runs — must not block or panic.
        for _ in 0..50 {
            let _ = s.snapshot();
        }
        writer.join().unwrap();
        assert_eq!(s.snapshot().blocks_built, 10_000);
    }

    #[test]
    fn shard_events_are_attributed_and_counted_globally() {
        let s = StatsObserver::new();
        s.on_shard_event(
            0,
            &Event::IncrementIngested {
                seq: 0,
                profiles: 2,
            },
        );
        s.on_shard_event(2, &Event::BlockBuilt { block: 7 });
        s.on_shard_event(
            2,
            &Event::ComparisonEmitted {
                cmp: cmp(0, 1),
                weight: 2.0,
            },
        );
        s.on_shard_event(2, &Event::CfFiltered { cmp: cmp(0, 1) });
        let snap = s.snapshot();
        // Globals see everything — except `IncrementIngested`, whose
        // shard-tagged copies are fan-out duplicates of the driver's one
        // untagged report and stay per-shard only.
        assert_eq!(snap.profiles, 0);
        assert_eq!(snap.increments, 0);
        assert_eq!(snap.blocks_built, 1);
        assert_eq!(snap.comparisons_emitted, 1);
        assert_eq!(snap.cf_filtered, 1);
        // Per-shard breakdown grows to the highest shard id seen.
        assert_eq!(snap.shards.len(), 3);
        assert_eq!(snap.shards[0].profiles, 2);
        assert_eq!(snap.shards[1], ShardSnapshot::default_for(1));
        assert_eq!(snap.shards[2].blocks_built, 1);
        assert_eq!(snap.shards[2].comparisons_emitted, 1);
        assert_eq!(snap.shards[2].cf_filtered, 1);
    }

    #[test]
    fn untagged_events_leave_shards_empty() {
        let s = StatsObserver::new();
        s.on_event(&Event::BlockBuilt { block: 0 });
        assert!(s.snapshot().shards.is_empty());
        assert!(s.snapshot().workers.is_empty());
    }

    #[test]
    fn worker_classify_timings_stay_out_of_the_global_histogram() {
        let s = StatsObserver::new();
        // Coordinator times the whole batch, untagged.
        s.on_event(&Event::PhaseTiming {
            phase: Phase::Classify,
            secs: 0.010,
        });
        // Workers time their chunks of the same batch, tagged.
        s.on_worker_event(
            0,
            &Event::PhaseTiming {
                phase: Phase::Classify,
                secs: 0.006,
            },
        );
        s.on_worker_event(
            2,
            &Event::PhaseTiming {
                phase: Phase::Classify,
                secs: 0.004,
            },
        );
        let snap = s.snapshot();
        // Global histogram has exactly the coordinator's one entry — the
        // worker slices would double-count classification time.
        assert_eq!(snap.phases[Phase::Classify.index()].count, 1);
        // Per-worker breakdown grows to the highest worker id seen.
        assert_eq!(snap.workers.len(), 3);
        assert_eq!(snap.workers[0].classify_chunks, 1);
        assert!((snap.workers[0].classify_secs - 0.006).abs() < 1e-12);
        assert_eq!(snap.workers[1], WorkerSnapshot::default_for(1));
        assert_eq!(snap.workers[2].classify_chunks, 1);
    }

    #[test]
    fn worker_tagged_non_classify_events_count_globally() {
        let s = StatsObserver::new();
        s.on_worker_event(
            1,
            &Event::MatchConfirmed {
                cmp: cmp(0, 1),
                similarity: 0.9,
                at_secs: 0.1,
            },
        );
        s.on_worker_event(
            1,
            &Event::PhaseTiming {
                phase: Phase::Block,
                secs: 0.001,
            },
        );
        let snap = s.snapshot();
        assert_eq!(snap.matches_confirmed, 1);
        assert_eq!(snap.phases[Phase::Block.index()].count, 1);
        assert_eq!(snap.workers[1].matches_confirmed, 1);
    }

    #[test]
    fn comparisons_per_second_is_finite() {
        let s = StatsObserver::new();
        s.on_event(&Event::ComparisonEmitted {
            cmp: cmp(0, 1),
            weight: 1.0,
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        let snap = s.snapshot();
        assert!(snap.comparisons_per_second() > 0.0);
        assert!(snap.comparisons_per_second().is_finite());
    }
}
