//! Pipeline observability for PIER.
//!
//! Every stage of the pipeline — incremental blocking, comparison
//! prioritization, adaptive batching, classification — reports what it is
//! doing through a shared [`Observer`] handle carrying typed [`Event`]s.
//! Observation is strictly opt-in and designed to cost nothing when off:
//!
//! * the handle is an `Option<Arc<dyn PipelineObserver>>`, so the disabled
//!   path is a single branch on a `None`;
//! * [`Observer::emit`] takes a closure, so event payloads are never even
//!   constructed unless an observer is attached;
//! * no hook acquires a lock, allocates, or reads a clock when disabled.
//!
//! Three observers ship with the crate:
//!
//! * [`NoopObserver`] — receives and discards everything; exists so the
//!   enabled path can be benchmarked against the disabled one.
//! * [`StatsObserver`] — *the* fold of the event stream: lock-free
//!   counters, per-phase latency histograms, per-shard / per-worker
//!   breakdowns and an optional live pair-completeness timeline against a
//!   ground truth; snapshotable mid-run from any thread, and — handed a
//!   metrics registry's atoms — what the Prometheus scrape reads too.
//! * [`JsonlObserver`] — buffered JSON-Lines export of every event under
//!   `target/experiments/<run-id>/events.jsonl`, with a matching reader
//!   ([`read_events`]) and replays of the log: the PC trajectory
//!   ([`replay_trajectory`]) and a Perfetto trace ([`write_chrome_trace`]).

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Instant;

use pier_types::{Comparison, ProfileId};

mod atoms;
mod jsonl;
mod stats;

pub use atoms::{AtomSource, Counter, FloatGauge, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use jsonl::{
    read_events, replay_match_count, replay_trajectory, write_chrome_trace, JsonlObserver,
    TimedEvent,
};
pub use stats::{PhaseSnapshot, ShardSnapshot, StatsObserver, StatsSnapshot, WorkerSnapshot};

/// The four timed stages of the PIER pipeline, in dataflow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Incremental blocking: tokenize + maintain the block collection.
    Block,
    /// Prioritizer update: per-profile generation and index maintenance.
    Weight,
    /// Batch extraction: pulling the best `K` comparisons from the index.
    Prune,
    /// Classification: evaluating the match function on a batch.
    Classify,
}

impl Phase {
    /// All phases, in dataflow order (also the canonical array index
    /// order used by [`StatsObserver`]).
    pub const ALL: [Phase; 4] = [Phase::Block, Phase::Weight, Phase::Prune, Phase::Classify];

    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Block => "block",
            Phase::Weight => "weight",
            Phase::Prune => "prune",
            Phase::Classify => "classify",
        }
    }

    /// Canonical array index (position in [`Phase::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Phase::Block => 0,
            Phase::Weight => 1,
            Phase::Prune => 2,
            Phase::Classify => 3,
        }
    }

    /// Parses a [`Phase::name`] back into a phase.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// The supervised worker roles a [`Event::WorkerRestarted`] can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkerRole {
    /// The single-topology stage-A ingest lane.
    StageA,
    /// A sharded stage-A worker thread.
    Shard,
    /// The stage-B merger / batch puller.
    Merger,
    /// A stage-B match-pool worker thread.
    Match,
}

impl WorkerRole {
    /// All roles, in pipeline order.
    pub const ALL: [WorkerRole; 4] = [
        WorkerRole::StageA,
        WorkerRole::Shard,
        WorkerRole::Merger,
        WorkerRole::Match,
    ];

    /// Stable lowercase name used in JSONL output and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            WorkerRole::StageA => "stage_a",
            WorkerRole::Shard => "shard",
            WorkerRole::Merger => "merger",
            WorkerRole::Match => "match",
        }
    }

    /// Parses a [`WorkerRole::name`] back into a role.
    pub fn from_name(name: &str) -> Option<WorkerRole> {
        WorkerRole::ALL.into_iter().find(|r| r.name() == name)
    }
}

/// Why a profile or pair was routed to the dead-letter queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadLetterReason {
    /// Ingesting the profile panicked repeatably; it was quarantined.
    PoisonedProfile,
    /// The profile id was ingested twice; the repeat was dropped.
    DuplicateProfile,
    /// A confirmed match could not be delivered (match channel gone/full).
    LostMatch,
    /// Evaluating the pair panicked repeatably; it was quarantined.
    PoisonedPair,
}

impl DeadLetterReason {
    /// All reasons.
    pub const ALL: [DeadLetterReason; 4] = [
        DeadLetterReason::PoisonedProfile,
        DeadLetterReason::DuplicateProfile,
        DeadLetterReason::LostMatch,
        DeadLetterReason::PoisonedPair,
    ];

    /// Stable lowercase name used in JSONL output and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            DeadLetterReason::PoisonedProfile => "poisoned_profile",
            DeadLetterReason::DuplicateProfile => "duplicate_profile",
            DeadLetterReason::LostMatch => "lost_match",
            DeadLetterReason::PoisonedPair => "poisoned_pair",
        }
    }

    /// Parses a [`DeadLetterReason::name`] back into a reason.
    pub fn from_name(name: &str) -> Option<DeadLetterReason> {
        DeadLetterReason::ALL.into_iter().find(|r| r.name() == name)
    }
}

/// A typed pipeline event.
///
/// Events are cheap `Copy` payloads; identifiers are raw (`u32` block ids)
/// where the defining type lives downstream of this crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The blocker ingested one data increment.
    IncrementIngested {
        /// 0-based increment sequence number within the run.
        seq: u64,
        /// Profiles accepted from the increment (idle ticks emit no event).
        profiles: usize,
    },
    /// A new block was created in the block collection.
    BlockBuilt {
        /// Raw block id (the interned token id).
        block: u32,
    },
    /// A block crossed the purge threshold and was excluded from
    /// comparison generation.
    BlockPurged {
        /// Raw block id.
        block: u32,
        /// Block size at the moment of purging.
        size: usize,
    },
    /// Block ghosting ran for one profile's block set.
    BlockGhosted {
        /// The profile whose blocks were cleaned.
        profile: ProfileId,
        /// Blocks that survived ghosting.
        kept: usize,
        /// Blocks dropped as dominated (`|b| > |b_min| / β`).
        dropped: usize,
    },
    /// The prioritizer handed one comparison to the matcher.
    ComparisonEmitted {
        /// The emitted pair.
        cmp: Comparison,
        /// The weight it was scheduled under (scheme-dependent).
        weight: f64,
    },
    /// The comparison filter (Bloom) rejected an already-routed pair.
    CfFiltered {
        /// The redundant pair.
        cmp: Comparison,
    },
    /// `findK()` adjusted the adaptive batch size.
    AdaptiveKChanged {
        /// `K` before the adjustment.
        old_k: usize,
        /// `K` after the adjustment.
        new_k: usize,
    },
    /// The classifier confirmed a duplicate.
    MatchConfirmed {
        /// The matching pair.
        cmp: Comparison,
        /// Similarity reported by the match function.
        similarity: f64,
        /// Pipeline-relative time of confirmation in seconds (wall clock
        /// for the threaded runtime and driver, virtual for the simulator).
        at_secs: f64,
    },
    /// One pipeline stage finished a unit of work.
    PhaseTiming {
        /// The stage that ran.
        phase: Phase,
        /// How long it ran, in seconds (wall or virtual, as above).
        secs: f64,
    },
    /// The supervisor rebuilt a dead worker and resumed the stream.
    WorkerRestarted {
        /// Which worker role died.
        role: WorkerRole,
        /// Lane index (shard or worker id; 0 for singleton roles).
        lane: u16,
        /// Wall-clock seconds from panic to resumed stream (journal replay
        /// included).
        recovery_secs: f64,
    },
    /// A profile or pair was quarantined into the dead-letter queue.
    DeadLettered {
        /// Why it was quarantined.
        reason: DeadLetterReason,
        /// First profile of the pair (or the quarantined profile itself).
        a: ProfileId,
        /// Second profile of the pair (equal to `a` for profile letters).
        b: ProfileId,
    },
}

/// A sink for pipeline events. Implementations must be cheap and
/// thread-safe: hooks fire from multiple pipeline threads.
pub trait PipelineObserver: Send + Sync {
    /// Receives one event. Must not block for long — the pipeline's hot
    /// loops call this inline.
    fn on_event(&self, event: &Event);

    /// Receives one event attributed to a stage-A shard (see
    /// [`Observer::for_shard`]). The default forwards to [`on_event`]
    /// unchanged, so observers that do not care about shards need no
    /// changes; shard-aware observers override this to additionally
    /// account per-shard work.
    ///
    /// [`on_event`]: PipelineObserver::on_event
    fn on_shard_event(&self, shard: u16, event: &Event) {
        let _ = shard;
        self.on_event(event);
    }

    /// Receives one event attributed to a stage-B match worker (see
    /// [`Observer::for_worker`]). The default forwards to [`on_event`]
    /// unchanged; worker-aware observers override this to account
    /// per-worker classify work.
    ///
    /// [`on_event`]: PipelineObserver::on_event
    fn on_worker_event(&self, worker: u16, event: &Event) {
        let _ = worker;
        self.on_event(event);
    }
}

/// An observer that receives and discards every event.
///
/// Useful for measuring the cost of the *enabled* hook path itself (the
/// `metrics_overhead` bench's baseline); for the disabled path use
/// [`Observer::disabled`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl PipelineObserver for NoopObserver {
    #[inline]
    fn on_event(&self, _event: &Event) {}
}

/// An observer that forwards every event to several sinks, preserving
/// shard and worker attribution. Built only by [`ObserverSet::compose`].
struct FanoutObserver {
    sinks: Vec<Arc<dyn PipelineObserver>>,
}

impl PipelineObserver for FanoutObserver {
    fn on_event(&self, event: &Event) {
        for sink in &self.sinks {
            sink.on_event(event);
        }
    }

    fn on_shard_event(&self, shard: u16, event: &Event) {
        for sink in &self.sinks {
            sink.on_shard_event(shard, event);
        }
    }

    fn on_worker_event(&self, worker: u16, event: &Event) {
        for sink in &self.sinks {
            sink.on_worker_event(worker, event);
        }
    }
}

/// An ordered, labelled collection of observers composed into one fan-out.
///
/// Runtimes accept an `ObserverSet` as *the* composition point for
/// everything that wants to watch a run — caller stats, JSONL export,
/// live metrics, entity clustering — instead of each driver fanning
/// sinks out by hand. Labels exist purely for humans: a driver
/// or example can print which observers a pipeline was composed with.
///
/// Composition rules ([`ObserverSet::compose`]):
///
/// * an empty set composes to [`Observer::disabled`] — the zero-cost
///   default, so "observation always on" costs nothing when nobody
///   listens;
/// * a single sink is attached directly (no fan-out layer);
/// * two or more sinks route through one flat fan-out, delivering every event to each sink in insertion order with shard
///   and worker attribution preserved.
#[derive(Default, Clone)]
pub struct ObserverSet {
    sinks: Vec<(String, Arc<dyn PipelineObserver>)>,
}

impl ObserverSet {
    /// An empty set (composes to a disabled observer).
    pub fn new() -> Self {
        ObserverSet::default()
    }

    /// Appends `sink` under a human-readable `label`.
    pub fn push(&mut self, label: impl Into<String>, sink: Arc<dyn PipelineObserver>) {
        self.sinks.push((label.into(), sink));
    }

    /// Builder-style [`ObserverSet::push`].
    pub fn with(mut self, label: impl Into<String>, sink: Arc<dyn PipelineObserver>) -> Self {
        self.push(label, sink);
        self
    }

    /// Appends every sink of `other`, preserving order and labels.
    pub fn extend(&mut self, other: ObserverSet) {
        self.sinks.extend(other.sinks);
    }

    /// Number of composed sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the set holds no sinks (composes to a disabled observer).
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// The labels of the composed sinks, in delivery order.
    pub fn labels(&self) -> Vec<&str> {
        self.sinks.iter().map(|(l, _)| l.as_str()).collect()
    }

    /// Composes the set into a single [`Observer`] handle (see the type
    /// docs for the rules).
    pub fn compose(&self) -> Observer {
        match self.sinks.len() {
            0 => Observer::disabled(),
            1 => Observer::new(Arc::clone(&self.sinks[0].1)),
            _ => Observer::new(Arc::new(FanoutObserver {
                sinks: self.sinks.iter().map(|(_, s)| Arc::clone(s)).collect(),
            })),
        }
    }
}

impl From<ObserverSet> for Observer {
    fn from(set: ObserverSet) -> Observer {
        set.compose()
    }
}

impl From<Observer> for ObserverSet {
    /// Wraps an existing handle's sink as a one-element set (labelled
    /// `"observer"`); a disabled handle becomes the empty set. Shard or
    /// worker tags on the handle are not carried over — sets compose
    /// untagged base observers, and runtimes re-tag per stage.
    fn from(observer: Observer) -> ObserverSet {
        match observer.sink() {
            Some(sink) => ObserverSet::new().with("observer", Arc::clone(sink)),
            None => ObserverSet::new(),
        }
    }
}

impl std::fmt::Debug for ObserverSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.labels()).finish()
    }
}

/// The cheap, cloneable handle that pipeline components store.
///
/// `Observer::disabled()` (also the `Default`) holds no sink: emitting
/// through it is one `Option` branch and the event closure is never run.
///
/// A handle can carry a shard tag ([`Observer::for_shard`]) or a match
/// worker tag ([`Observer::for_worker`]): events then arrive through
/// [`PipelineObserver::on_shard_event`] / [`on_worker_event`] so aware
/// sinks can attribute stage-A work per shard and stage-B classify work
/// per worker. Untagged handles (the entire single-shard, single-worker
/// pipeline) are unaffected. A worker tag takes precedence over a shard
/// tag if a handle somehow carries both.
///
/// [`on_worker_event`]: PipelineObserver::on_worker_event
#[derive(Clone, Default)]
pub struct Observer {
    sink: Option<Arc<dyn PipelineObserver>>,
    shard: Option<u16>,
    worker: Option<u16>,
}

impl Observer {
    /// A handle with no sink attached — the zero-overhead default.
    pub fn disabled() -> Self {
        Observer {
            sink: None,
            shard: None,
            worker: None,
        }
    }

    /// Wraps a shared observer into a handle.
    pub fn new(sink: Arc<dyn PipelineObserver>) -> Self {
        Observer {
            sink: Some(sink),
            shard: None,
            worker: None,
        }
    }

    /// Convenience: wrap a concrete observer value.
    pub fn from_sink<O: PipelineObserver + 'static>(sink: O) -> Self {
        Observer {
            sink: Some(Arc::new(sink)),
            shard: None,
            worker: None,
        }
    }

    /// A clone of this handle whose events are attributed to `shard`.
    ///
    /// A disabled handle stays disabled — tagging never enables
    /// observation, so the zero-cost contract is preserved.
    pub fn for_shard(&self, shard: u16) -> Observer {
        Observer {
            sink: self.sink.clone(),
            shard: Some(shard),
            worker: self.worker,
        }
    }

    /// A clone of this handle whose events are attributed to match
    /// worker `worker`.
    ///
    /// A disabled handle stays disabled — tagging never enables
    /// observation, so the zero-cost contract is preserved.
    pub fn for_worker(&self, worker: u16) -> Observer {
        Observer {
            sink: self.sink.clone(),
            shard: self.shard,
            worker: Some(worker),
        }
    }

    /// The shard this handle attributes events to, if any.
    pub fn shard(&self) -> Option<u16> {
        self.shard
    }

    /// The match worker this handle attributes events to, if any.
    pub fn worker(&self) -> Option<u16> {
        self.worker
    }

    /// Whether a sink is attached. Hooks use this to skip work (e.g.
    /// clock reads) that only exists to build events.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one event, lazily: `make` runs only if a sink is attached.
    #[inline(always)]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            match (self.worker, self.shard) {
                (Some(worker), _) => sink.on_worker_event(worker, &make()),
                (None, Some(shard)) => sink.on_shard_event(shard, &make()),
                (None, None) => sink.on_event(&make()),
            }
        }
    }

    /// Runs `step` and, when a sink is attached, reports its wall time as
    /// one [`Event::PhaseTiming`] of `phase`. A disabled handle reads no
    /// clock.
    #[inline]
    pub fn timed<T>(&self, phase: Phase, step: impl FnOnce() -> T) -> T {
        let since = self.is_enabled().then(Instant::now);
        let out = step();
        if let Some(since) = since {
            self.emit(|| Event::PhaseTiming {
                phase,
                secs: since.elapsed().as_secs_f64(),
            });
        }
        out
    }

    /// The attached sink, if any (for snapshot access after a run).
    pub fn sink(&self) -> Option<&Arc<dyn PipelineObserver>> {
        self.sink.as_ref()
    }
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Observer")
            .field(&if self.is_enabled() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counting(AtomicU64);

    impl PipelineObserver for Counting {
        fn on_event(&self, _event: &Event) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn disabled_observer_never_builds_events() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        let mut built = false;
        obs.emit(|| {
            built = true;
            Event::BlockBuilt { block: 0 }
        });
        assert!(!built, "event closure must not run when disabled");
    }

    #[test]
    fn enabled_observer_receives_events() {
        let sink = Arc::new(Counting(AtomicU64::new(0)));
        let obs = Observer::new(sink.clone());
        assert!(obs.is_enabled());
        obs.emit(|| Event::BlockBuilt { block: 1 });
        obs.emit(|| Event::CfFiltered {
            cmp: Comparison::new(ProfileId(0), ProfileId(1)),
        });
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn clones_share_the_sink() {
        let sink = Arc::new(Counting(AtomicU64::new(0)));
        let obs = Observer::new(sink.clone());
        let obs2 = obs.clone();
        obs.emit(|| Event::BlockBuilt { block: 1 });
        obs2.emit(|| Event::BlockBuilt { block: 2 });
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn timed_reports_one_phase_timing_and_passes_the_result_through() {
        struct Phases(std::sync::Mutex<Vec<(Phase, f64)>>);
        impl PipelineObserver for Phases {
            fn on_event(&self, event: &Event) {
                if let Event::PhaseTiming { phase, secs } = event {
                    self.0.lock().unwrap().push((*phase, *secs));
                }
            }
        }
        let sink = Arc::new(Phases(std::sync::Mutex::new(Vec::new())));
        let obs = Observer::new(sink.clone());
        assert_eq!(obs.timed(Phase::Weight, || 7), 7);
        let seen = sink.0.lock().unwrap();
        assert!(matches!(seen[..], [(Phase::Weight, secs)] if secs >= 0.0));
        // A disabled handle still runs the step.
        assert_eq!(Observer::disabled().timed(Phase::Block, || 3), 3);
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
            assert_eq!(Phase::ALL[p.index()], p);
        }
        assert_eq!(Phase::from_name("nonsense"), None);
    }

    #[test]
    fn noop_observer_is_callable() {
        let obs = Observer::from_sink(NoopObserver);
        obs.emit(|| Event::PhaseTiming {
            phase: Phase::Classify,
            secs: 0.5,
        });
        assert!(obs.is_enabled());
        assert!(obs.sink().is_some());
    }

    #[test]
    fn debug_shows_state() {
        assert!(format!("{:?}", Observer::disabled()).contains("disabled"));
        assert!(format!("{:?}", Observer::from_sink(NoopObserver)).contains("enabled"));
    }

    #[test]
    fn default_on_shard_event_delegates_to_on_event() {
        let sink = Arc::new(Counting(AtomicU64::new(0)));
        let obs = Observer::new(sink.clone()).for_shard(3);
        assert_eq!(obs.shard(), Some(3));
        obs.emit(|| Event::BlockBuilt { block: 1 });
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shard_tag_routes_through_on_shard_event() {
        use parking_lot::Mutex;

        #[derive(Default)]
        struct Recording(Mutex<Vec<Option<u16>>>);

        impl PipelineObserver for Recording {
            fn on_event(&self, _event: &Event) {
                self.0.lock().push(None);
            }
            fn on_shard_event(&self, shard: u16, _event: &Event) {
                self.0.lock().push(Some(shard));
            }
        }

        let sink = Arc::new(Recording::default());
        let obs = Observer::new(sink.clone());
        obs.emit(|| Event::BlockBuilt { block: 0 });
        obs.for_shard(2).emit(|| Event::BlockBuilt { block: 1 });
        obs.for_shard(7).emit(|| Event::BlockBuilt { block: 2 });
        assert_eq!(*sink.0.lock(), vec![None, Some(2), Some(7)]);
    }

    #[test]
    fn tagging_a_disabled_handle_stays_disabled() {
        let obs = Observer::disabled().for_shard(1);
        assert!(!obs.is_enabled());
        let mut built = false;
        obs.emit(|| {
            built = true;
            Event::BlockBuilt { block: 0 }
        });
        assert!(!built);
        let obs = Observer::disabled().for_worker(1);
        assert!(!obs.is_enabled());
    }

    #[test]
    fn worker_tag_routes_through_on_worker_event() {
        use parking_lot::Mutex;

        #[derive(Default)]
        struct Recording(Mutex<Vec<(Option<u16>, Option<u16>)>>);

        impl PipelineObserver for Recording {
            fn on_event(&self, _event: &Event) {
                self.0.lock().push((None, None));
            }
            fn on_shard_event(&self, shard: u16, _event: &Event) {
                self.0.lock().push((Some(shard), None));
            }
            fn on_worker_event(&self, worker: u16, _event: &Event) {
                self.0.lock().push((None, Some(worker)));
            }
        }

        let sink = Arc::new(Recording::default());
        let obs = Observer::new(sink.clone());
        obs.emit(|| Event::BlockBuilt { block: 0 });
        obs.for_worker(3).emit(|| Event::BlockBuilt { block: 1 });
        // A worker tag wins over a shard tag.
        obs.for_shard(1)
            .for_worker(0)
            .emit(|| Event::BlockBuilt { block: 2 });
        assert_eq!(obs.for_worker(5).worker(), Some(5));
        assert_eq!(
            *sink.0.lock(),
            vec![(None, None), (None, Some(3)), (None, Some(0))]
        );
    }

    #[test]
    fn default_on_worker_event_delegates_to_on_event() {
        let sink = Arc::new(Counting(AtomicU64::new(0)));
        let obs = Observer::new(sink.clone()).for_worker(2);
        obs.emit(|| Event::BlockBuilt { block: 1 });
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn observer_set_composes_by_size() {
        // Empty -> disabled.
        let empty = ObserverSet::new();
        assert!(empty.is_empty());
        assert!(!empty.compose().is_enabled());
        // One sink -> attached directly, no fan-out layer.
        let a = Arc::new(Counting(AtomicU64::new(0)));
        let one = ObserverSet::new().with("a", a.clone());
        assert_eq!(one.len(), 1);
        let composed = one.compose();
        assert!(Arc::ptr_eq(
            composed.sink().unwrap(),
            &(a.clone() as Arc<dyn PipelineObserver>)
        ));
        composed.emit(|| Event::BlockBuilt { block: 0 });
        assert_eq!(a.0.load(Ordering::Relaxed), 1);
        // Two sinks -> both receive every event, in order.
        let b = Arc::new(Counting(AtomicU64::new(0)));
        let two: Observer = one.with("b", b.clone()).into();
        two.emit(|| Event::BlockBuilt { block: 1 });
        assert_eq!(a.0.load(Ordering::Relaxed), 2);
        assert_eq!(b.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn observer_set_labels_and_debug() {
        let set = ObserverSet::new()
            .with("stats", Arc::new(NoopObserver))
            .with("jsonl", Arc::new(NoopObserver));
        assert_eq!(set.labels(), vec!["stats", "jsonl"]);
        assert_eq!(format!("{set:?}"), r#"["stats", "jsonl"]"#);
        let mut base = ObserverSet::new().with("metrics", Arc::new(NoopObserver));
        base.extend(set);
        assert_eq!(base.labels(), vec!["metrics", "stats", "jsonl"]);
    }

    #[test]
    fn observer_round_trips_through_a_set() {
        let sink = Arc::new(Counting(AtomicU64::new(0)));
        let set = ObserverSet::from(Observer::new(sink.clone()));
        assert_eq!(set.labels(), vec!["observer"]);
        set.compose().emit(|| Event::BlockBuilt { block: 0 });
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
        // A disabled handle becomes the empty set.
        assert!(ObserverSet::from(Observer::disabled()).is_empty());
    }

    #[test]
    fn observer_set_fanout_preserves_attribution() {
        use parking_lot::Mutex;

        #[derive(Default)]
        struct Recording(Mutex<Vec<(Option<u16>, Option<u16>)>>);

        impl PipelineObserver for Recording {
            fn on_event(&self, _event: &Event) {
                self.0.lock().push((None, None));
            }
            fn on_shard_event(&self, shard: u16, _event: &Event) {
                self.0.lock().push((Some(shard), None));
            }
            fn on_worker_event(&self, worker: u16, _event: &Event) {
                self.0.lock().push((None, Some(worker)));
            }
        }

        let a = Arc::new(Recording::default());
        let b = Arc::new(Recording::default());
        let obs = ObserverSet::new()
            .with("a", a.clone())
            .with("b", b.clone())
            .compose();
        obs.emit(|| Event::BlockBuilt { block: 0 });
        obs.for_shard(2).emit(|| Event::BlockBuilt { block: 1 });
        obs.for_worker(5).emit(|| Event::BlockBuilt { block: 2 });
        // A tag put on the composed handle sticks to its clones.
        let tagged = obs.for_shard(7);
        assert_eq!(tagged.clone().shard(), Some(7));
        tagged.clone().emit(|| Event::BlockBuilt { block: 3 });
        let want = vec![
            (None, None),
            (Some(2), None),
            (None, Some(5)),
            (Some(7), None),
        ];
        assert_eq!(*a.0.lock(), want);
        assert_eq!(*b.0.lock(), want);
    }
}
