//! The unified PIER pipeline: one composable builder/executor behind
//! every runtime entry point.
//!
//! The paper's framework (Alg. 1) is a single stage graph; this module is
//! its one threaded implementation:
//!
//! ```text
//!            ┌──────────────────────── stage A ────────────────────────┐
//! source ──▶ │ single:  tokenizer ─▶ lane (owns the one step machine)  │ ══▶ stage B ─▶ collector
//!            │ sharded: tokenizer pool 0..T ─▶ router ─▶ shards 0..N   │ ◀─▶ (merger)   (caller thread)
//!            └─────────────────────────────────────────────────────────┘
//! ```
//!
//! A [`Pipeline`] is built once — topology ([`PipelineBuilder::emitter`]
//! for a single shared blocker, [`PipelineBuilder::sharded`] for the
//! hash-partitioned stage A; the unsharded driver *is* the `shards = 1`
//! shape of the same graph), configuration ([`RuntimeConfig`], validated
//! up front by [`RuntimeConfig::validate`] instead of panicking mid-run),
//! and observation ([`pier_observe::ObserverSet`]) — then consumed by
//! [`Pipeline::run`].
//!
//! Observation is always on and composes in exactly one place: the
//! caller's labelled sinks first, then (when [`RuntimeConfig::telemetry`]
//! is set) the `"metrics"` bridge, then (when [`RuntimeConfig::entities`]
//! is set) the `"entities"` cluster sink. An empty set composes to the
//! disabled observer — one branch per would-be event, nothing else — so
//! the zero-cost contract of the old un-`_observed` entry points is
//! preserved without a second code path.
//!
//! Everything topology-independent — the source replay, stage B's
//! classification loop with its budget and shutdown/poison sequence
//! ([`crate::stages`]), match collection, and the final report, built in
//! [`Pipeline::run`] from what each thread returns when it is joined —
//! exists once; a topology contributes only its channel wiring and where
//! stage B's batches come from. Stage A itself is
//! the [`pier_core::StageA`] step machine in both, and every machine has
//! exactly one owner — no lock guards one anywhere. In the single topology
//! the owner is the lane thread (`crate::lane`): increments reach it
//! through a channel and it *pushes* materialized batches, one or two
//! ahead of the classifier, through another (`══▶`), so prioritizing and
//! matching overlap as the paper's concurrent components do (§3.2,
//! Fig. 3); out of credit, it classifies the batch it holds until the
//! classifier takes it. In the sharded topology each shard worker owns
//! one and stage B's thread *asks* them (`◀─▶`: the `Pull`/`Tick` round
//! trips behind the k-way merger); once the router has told a shard,
//! in-band, that its input has ended, the shard answers a `Pull` as an
//! idle lane would, topped up from its own idle ticks. This module adds
//! clocks, phase timings and supervision *around* the machine's steps and
//! never sequences a blocker and an emitter by hand.

use std::panic::resume_unwind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use pier_blocking::{IncrementalBlocker, PurgePolicy, SlabStats};
use pier_chaos::{ChaosHandle, FaultKind, FaultPlan, FaultPoint};
use pier_collections::ScratchStats;
use pier_core::{AdaptiveK, ComparisonEmitter, PierConfig, StageA, Strategy};
use pier_entity::{ClusterObserver, EntityIndex, EntityServer};
use pier_matching::{MatchFunction, PreparedPair, ProfileTable};
use pier_metrics::{GaugedReceiver, GaugedSender, MetricsRegistry, Telemetry};
use pier_observe::{Event, Observer, ObserverSet, Phase, PipelineObserver, WorkerRole};
use pier_shard::{ProfileStore, ShardMerger, ShardRouter, ShardWorker, ShardedConfig};
use pier_types::{
    EntityProfile, ErKind, PierError, ProfileId, SharedTokenDictionary, SourceId, Tokenizer,
    WeightedComparison,
};

use crate::lane::{Handed, Lane, Tokenized};
use crate::pool::Batch;
use crate::report::{DictionaryStats, MatchEvent, RuntimeReport, StageAStats};
use crate::stages::{
    collect_matches, pipeline_channel, spawn_source, tokenize_increment, StageB,
    TokenizedIncrement, TokenizedProfile, AHEAD, CHANNEL_CAPACITY, FILL, JOURNAL_CAPACITY,
};
use crate::supervisor::{IngestJournal, JournalEntry, Supervisor};

/// Configuration of a real-time run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Time between consecutive increments at the source.
    pub interarrival: Duration,
    /// Block purging for the shared blocker (single topology; a sharded
    /// pipeline purges per shard under
    /// [`pier_shard::ShardedConfig::purge_policy`]).
    pub purge_policy: PurgePolicy,
    /// Initial / minimal / maximal adaptive `K`.
    pub k: (usize, usize, usize),
    /// Safety cap on total comparisons (the pipeline stops afterwards).
    pub max_comparisons: u64,
    /// Hard wall-clock deadline; the pipeline winds down when it passes.
    /// Honoured to within 256 comparisons: the classifier looks at the
    /// clock between batches, every 256 pairs inside one (it records as
    /// the verdicts come in, with or without helpers), and while it waits
    /// for a batch it waits no longer than the deadline allows.
    pub deadline: Duration,
    /// Stage-B match workers evaluating comparisons in parallel: the
    /// classifier and `match_workers - 1` helper threads, all claiming
    /// chunks of the batch being recorded (`crate::pool`). Defaults to the
    /// machine's available parallelism; `1` runs no helper, reproducing
    /// the single-threaded executor exactly. Any value emits the identical
    /// match set, event order, and comparison count — only wall-clock
    /// throughput changes.
    pub match_workers: usize,
    /// Live telemetry. When set, the pipeline composes a
    /// [`pier_metrics::MetricsObserver`] into its observer set (labelled
    /// `"metrics"`), attaches queue-depth/backpressure gauges to every
    /// pipeline channel, exposes the classifier's live comparison count
    /// and remaining budget, and publishes the final report totals into
    /// the telemetry's registry — ready to scrape with a
    /// [`pier_metrics::MetricsServer`]. `None` (the default) adds a
    /// single branch per channel operation and nothing else.
    pub telemetry: Option<Telemetry>,
    /// Incremental entity clustering. When set, the pipeline composes a
    /// [`pier_entity::ClusterObserver`] into its observer set (labelled
    /// `"entities"`), so every confirmed match folds into the shared
    /// [`EntityIndex`] the moment the stage-B coordinator emits it — in
    /// confirmation order for any [`RuntimeConfig::match_workers`] count —
    /// and the final report carries an [`pier_entity::EntitySummary`].
    /// Keep a clone of the `Arc` to query the evolving partition mid-run,
    /// or let the pipeline serve it over HTTP with
    /// [`PipelineBuilder::serve_entities`]. When
    /// [`RuntimeConfig::telemetry`] is also set, the index additionally
    /// maintains `pier_entity_*` cluster-count/merge-rate gauges in the
    /// telemetry registry. `None` (the default) costs nothing.
    pub entities: Option<Arc<EntityIndex>>,
    /// Deterministic fault injection. When set, the pipeline arms a
    /// [`pier_chaos::ChaosInjector`] over the plan and threads the handle
    /// through every supervised stage; named fault points then panic,
    /// delay, drop sends, or inject malformed profiles at exact event
    /// counts. `None` (the default) reduces every fault check to a single
    /// branch on an unarmed handle.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            interarrival: Duration::from_millis(10),
            purge_policy: PurgePolicy::default(),
            k: (64, 4, 65_536),
            max_comparisons: 10_000_000,
            deadline: Duration::from_secs(60),
            match_workers: default_match_workers(),
            telemetry: None,
            entities: None,
            fault_plan: None,
        }
    }
}

impl RuntimeConfig {
    /// Checks the configuration for values no run could make sense of,
    /// returning a typed [`PierError::InvalidConfig`] instead of letting
    /// a pipeline thread panic (or spin) mid-run:
    ///
    /// * `match_workers == 0` — there would be nothing to classify on;
    /// * `max_comparisons == 0` — the budget is exhausted before the
    ///   first comparison, so the run can never produce anything;
    /// * a broken adaptive-`K` triple (`min == 0`, `min > max`, or an
    ///   initial value outside `[min, max]`).
    ///
    /// [`PipelineBuilder::build`] calls this automatically.
    pub fn validate(&self) -> Result<(), PierError> {
        let invalid = |parameter: &'static str, message: String| {
            Err(PierError::InvalidConfig { parameter, message })
        };
        if self.match_workers == 0 {
            return invalid(
                "match_workers",
                "must be >= 1 (1 keeps classification on the stage-B thread)".into(),
            );
        }
        if self.max_comparisons == 0 {
            return invalid(
                "max_comparisons",
                "must be >= 1; a zero budget can never execute a comparison".into(),
            );
        }
        let (init, min, max) = self.k;
        if min == 0 {
            return invalid("k", "minimal K must be >= 1".into());
        }
        if min > max {
            return invalid("k", format!("minimal K {min} exceeds maximal K {max}"));
        }
        if init < min || init > max {
            return invalid(
                "k",
                format!("initial K {init} outside its [{min}, {max}] bounds"),
            );
        }
        Ok(())
    }
}

/// The default for [`RuntimeConfig::match_workers`]: the machine's
/// available parallelism, or `1` when it cannot be determined.
pub fn default_match_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The stage-A topology of a pipeline.
enum Topology {
    /// One step machine over one emitter (the `shards = 1` shape).
    Single {
        emitter: Box<dyn ComparisonEmitter + Send>,
    },
    /// Hash-partitioned: tokenizer pool → router → shard workers → merger.
    Sharded { config: ShardedConfig },
}

/// A command processed by one shard worker thread.
enum ShardMsg {
    /// Routed profiles (skeleton, this shard's token-id subset, ghost
    /// floor) to ingest.
    Ingest(Vec<JournalEntry>),
    /// The router's last message: no `Ingest` follows. In-band, so a shard
    /// learns it only after its last increment — a flag could be read by a
    /// `Pull` queued ahead of one.
    InputEnded,
    /// Request for up to `k` weighted comparisons, best first: one
    /// [`ShardWorker::turn`], idle once the shard's input has ended, as an
    /// idle lane's turn is.
    Pull { k: usize },
    /// The idle tick of §3.2; replies whether the shard did/has work.
    Tick,
}

/// A shard worker's reply to `Pull` or `Tick`.
enum ShardReply {
    Batch(Vec<WeightedComparison>),
    Tick(bool),
}

/// Builder for a [`Pipeline`]; see the module docs for the stage graph.
///
/// Defaults: [`RuntimeConfig::default`], a single-blocker stage A running
/// an I-PES emitter over [`pier_core::PierConfig::default`], no observers,
/// no entity serving.
pub struct PipelineBuilder {
    kind: ErKind,
    config: RuntimeConfig,
    topology: Topology,
    observers: ObserverSet,
    entity_addr: Option<String>,
}

impl PipelineBuilder {
    /// Replaces the run configuration.
    pub fn config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Single-blocker stage A driven by `emitter` (any
    /// [`ComparisonEmitter`]; see [`pier_core::Strategy::build`]).
    pub fn emitter(mut self, emitter: Box<dyn ComparisonEmitter + Send>) -> Self {
        self.topology = Topology::Single { emitter };
        self
    }

    /// Hash-partitioned stage A: one worker thread per shard plus a
    /// tokenizer pool, router, and k-way merger.
    pub fn sharded(mut self, config: ShardedConfig) -> Self {
        self.topology = Topology::Sharded { config };
        self
    }

    /// Adds one labelled observer sink (stats, JSONL, …) to the set the
    /// pipeline composes at run time.
    pub fn observe(mut self, label: impl Into<String>, sink: Arc<dyn PipelineObserver>) -> Self {
        self.observers.push(label, sink);
        self
    }

    /// Adds every sink of `observers`, preserving order and labels. Also
    /// accepts a bare [`pier_observe::Observer`] handle (labelled `"observer"`).
    pub fn observers(mut self, observers: impl Into<ObserverSet>) -> Self {
        self.observers.extend(observers.into());
        self
    }

    /// Serves [`RuntimeConfig::entities`] over HTTP for the lifetime of
    /// the pipeline: [`PipelineBuilder::build`] binds an [`EntityServer`]
    /// on `addr` (requires `entities` to be set, otherwise building fails
    /// with a typed error). Retrieve it through
    /// [`Pipeline::take_entity_server`] to control its lifetime, or leave
    /// it attached to serve until the pipeline is dropped.
    pub fn serve_entities(mut self, addr: impl Into<String>) -> Self {
        self.entity_addr = Some(addr.into());
        self
    }

    /// Validates the configuration and assembles the [`Pipeline`],
    /// binding the entity server when one was requested.
    ///
    /// Errors with [`PierError::InvalidConfig`] on a nonsensical
    /// configuration ([`RuntimeConfig::validate`], `shards == 0`, or
    /// entity serving without [`RuntimeConfig::entities`]) and with
    /// [`PierError::Io`] when the entity server cannot bind.
    pub fn build(self) -> Result<Pipeline, PierError> {
        self.config.validate()?;
        if let Topology::Sharded { config } = &self.topology {
            if config.shards == 0 {
                return Err(PierError::InvalidConfig {
                    parameter: "shards",
                    message: "must be >= 1 (1 reproduces the unsharded topology)".into(),
                });
            }
        }
        let entity_server = match &self.entity_addr {
            Some(addr) => {
                let index =
                    self.config
                        .entities
                        .as_ref()
                        .ok_or_else(|| PierError::InvalidConfig {
                            parameter: "entity_server",
                            message: "serving entities requires RuntimeConfig::entities \
                                  (there is no index to serve)"
                                .into(),
                        })?;
                Some(EntityServer::serve(addr.as_str(), Arc::clone(index))?)
            }
            None => None,
        };
        let mut observer_labels: Vec<String> = self
            .observers
            .labels()
            .iter()
            .map(|l| l.to_string())
            .collect();
        if self.config.telemetry.is_some() {
            observer_labels.push("metrics".into());
        }
        if self.config.entities.is_some() {
            observer_labels.push("entities".into());
        }
        Ok(Pipeline {
            kind: self.kind,
            config: self.config,
            topology: self.topology,
            observers: self.observers,
            observer_labels,
            entity_server,
        })
    }
}

/// A fully assembled pipeline, ready to consume one stream.
///
/// Built by [`Pipeline::builder`]; executed (once) by [`Pipeline::run`].
pub struct Pipeline {
    kind: ErKind,
    config: RuntimeConfig,
    topology: Topology,
    observers: ObserverSet,
    observer_labels: Vec<String>,
    entity_server: Option<EntityServer>,
}

impl Pipeline {
    /// Starts building a pipeline for `kind` (see [`PipelineBuilder`] for
    /// the defaults).
    pub fn builder(kind: ErKind) -> PipelineBuilder {
        PipelineBuilder {
            kind,
            config: RuntimeConfig::default(),
            topology: Topology::Single {
                emitter: Strategy::Pes.build(PierConfig::default()),
            },
            observers: ObserverSet::new(),
            entity_addr: None,
        }
    }

    /// The labels of every observer this pipeline will compose at run
    /// time, in delivery order — the caller's sinks plus the implicit
    /// `"metrics"` / `"entities"` sinks its configuration adds.
    pub fn observer_labels(&self) -> &[String] {
        &self.observer_labels
    }

    /// The entity server bound by [`PipelineBuilder::serve_entities`],
    /// if any.
    pub fn entity_server(&self) -> Option<&EntityServer> {
        self.entity_server.as_ref()
    }

    /// Detaches the bound entity server, transferring its lifetime to the
    /// caller (e.g. to keep serving after the run, or to shut it down at
    /// a chosen moment). A server left attached shuts down when the
    /// pipeline is dropped at the end of [`Pipeline::run`].
    pub fn take_entity_server(&mut self) -> Option<EntityServer> {
        self.entity_server.take()
    }

    /// Runs `matcher` over `increments` replayed in real time.
    ///
    /// Blocks the calling thread until the run completes (stream fully
    /// consumed and stage A drained) or the deadline/comparison cap is
    /// hit, and returns the report. Matches are also delivered
    /// incrementally through `on_match` as they are confirmed.
    pub fn run(
        self,
        increments: Vec<Vec<EntityProfile>>,
        matcher: Arc<dyn MatchFunction>,
        mut on_match: impl FnMut(MatchEvent),
    ) -> RuntimeReport {
        let Pipeline {
            kind,
            config,
            topology,
            observers,
            // The server (when still attached) outlives the run: queries
            // keep being answered while the pipeline executes, and it shuts
            // down when this binding drops with the returned report ready.
            entity_server: _entity_server,
            ..
        } = self;
        let start = Instant::now();
        let total_profiles: usize = increments.iter().map(Vec::len).sum();
        let telemetry = config.telemetry.clone();
        let registry = telemetry.as_ref().map(|t| Arc::clone(t.registry()));
        let entities = config.entities.clone();
        // THE observer composition point: the caller's sinks in insertion
        // order, then the metrics bridge, then the entity cluster sink. An
        // empty set composes to the disabled observer (zero cost).
        let observer = {
            let mut set = observers;
            if let Some(t) = &telemetry {
                set.push("metrics", t.observer() as Arc<dyn PipelineObserver>);
            }
            if let Some(index) = &entities {
                set.push(
                    "entities",
                    Arc::new(ClusterObserver::with_registry(
                        Arc::clone(index),
                        registry.as_deref(),
                    )) as Arc<dyn PipelineObserver>,
                );
            }
            set.compose()
        };
        // The fault-injection handle (unarmed unless a plan is configured —
        // one branch per fault point) and the run-wide fault ledger.
        let chaos = ChaosHandle::from_plan(config.fault_plan.clone());
        let supervisor = Arc::new(Supervisor::new());
        let dictionary = SharedTokenDictionary::new();
        let (match_tx, match_rx) = pipeline_channel::<MatchEvent>(
            registry.as_deref(),
            &[("queue", "matches")],
            Some(CHANNEL_CAPACITY),
        );
        let ingest_done = AtomicBool::new(false);
        let shutdown = Arc::new(AtomicBool::new(false));
        let ingest_errors = Mutex::new(Vec::<String>::new());
        let match_workers = config.match_workers.max(1);
        let adaptive = {
            let mut k = AdaptiveK::new(config.k.0, config.k.1, config.k.2);
            k.set_observer(observer.clone());
            Arc::new(Mutex::new(k))
        };
        let stage_b = StageB {
            start,
            deadline: config.deadline,
            max_comparisons: config.max_comparisons,
            match_workers,
            matcher: Arc::clone(&matcher),
            observer: observer.clone(),
            match_tx,
            registry: registry.clone(),
            adaptive: Arc::clone(&adaptive),
            shutdown: Arc::clone(&shutdown),
            chaos: chaos.clone(),
            supervisor: Arc::clone(&supervisor),
            executed: 0,
            metrics: None,
        };

        let run = Run {
            kind,
            start,
            config: &config,
            registry: registry.as_deref(),
            observer: &observer,
            chaos: &chaos,
            supervisor: &supervisor,
            dictionary: &dictionary,
            adaptive: &adaptive,
            ingest_done: &ingest_done,
            ingest_errors: &ingest_errors,
        };
        let (
            source,
            (token_occurrences, stage_a_parts, lane),
            (comparisons, worker_comparisons),
            matches,
        ) = std::thread::scope(|scope| {
            // Only the topology differs: channel wiring, stage-A threads,
            // and where stage B's batches come from.
            let (send, stage_a, stage_b) = match topology {
                Topology::Single { emitter } => run.spawn_single(scope, emitter, stage_b),
                Topology::Sharded { config: sharded } => run.spawn_sharded(scope, sharded, stage_b),
            };
            // Source: replay increments at the configured rate.
            // Collector (this thread): stream matches to the caller.
            let source = spawn_source(increments, config.interarrival, Arc::clone(&shutdown), send);
            let matches = collect_matches(&match_rx, &mut on_match);
            let stage_b = join(stage_b);
            let stage_a = stage_a.into_iter().map(join).fold(
                (0, StageAParts::new(), None),
                |(occurrences, mut parts, lane), (n, more, handed)| {
                    parts.extend(more);
                    (occurrences + n, parts, lane.or(handed))
                },
            );
            (source, stage_a, stage_b, matches)
        });
        if source.join().is_err() {
            ingest_errors
                .lock()
                .push(PierError::WorkerPanicked { worker: "source" }.to_string());
        }

        let report = RuntimeReport {
            matches,
            comparisons,
            elapsed: start.elapsed(),
            profiles: total_profiles,
            dictionary: Some(DictionaryStats {
                distinct_tokens: dictionary.len(),
                string_bytes: dictionary.string_bytes(),
                token_occurrences,
            }),
            ingest_errors: ingest_errors.into_inner(),
            match_workers,
            worker_comparisons,
            entity_summary: entities.map(|index| index.summary(total_profiles)),
            stage_a: aggregate_stage_a(&stage_a_parts),
            dead_letters: supervisor.dead_letters(),
            worker_restarts: supervisor.restarts(),
            comparisons_shed: 0,
            // The classifier records only pairs the lane handed it.
            comparisons_dropped: lane.map_or(0, |handed| handed.pairs - comparisons),
            lane_classified: lane.map_or(0, |handed| handed.classified),
        };
        if let Some(t) = &telemetry {
            report.publish_final(t);
        }
        report
    }
}

/// Waits for a scoped thread and returns what it counted, re-raising its
/// panic on the caller's thread.
fn join<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|panic| resume_unwind(panic))
}

/// Per-lane stage-A occupancy: one slab + optional scratch reading per
/// ingest lane (the single emitter, or each shard worker).
type StageAParts = Vec<(SlabStats, Option<ScratchStats>)>;

/// Folds per-lane stage-A occupancy into the report's [`StageAStats`]:
/// slab numbers sum over lanes (each shard owns a disjoint token
/// subspace), scratch numbers take the per-lane maximum (each lane owns
/// an independent accumulator).
fn aggregate_stage_a(parts: &[(SlabStats, Option<ScratchStats>)]) -> Option<StageAStats> {
    if parts.is_empty() {
        return None;
    }
    let mut out = StageAStats::default();
    for (slab, scratch) in parts {
        out.blocks += slab.blocks;
        out.slab_slots += slab.slots;
        if let Some(s) = scratch {
            out.scratch_slots = out.scratch_slots.max(s.slots);
            out.scratch_high_water = out.scratch_high_water.max(s.high_water);
        }
    }
    Some(out)
}

/// One shard worker thread's supervised state: the worker, the journal
/// that can rebuild it, and where its faults are accounted. A panic in any
/// worker step rebuilds the worker by replaying the journal instead of
/// killing the run, and a profile that panics ingest repeatably is
/// quarantined into the dead-letter queue.
struct ShardLane<'a> {
    shard: u16,
    worker: ShardWorker,
    journal: IngestJournal,
    /// [`ShardMsg::InputEnded`] was handled. The lane's, not the worker's:
    /// a worker rebuilt from the journal is still past the end of input.
    input_ended: bool,
    make_worker: &'a dyn Fn() -> ShardWorker,
    supervisor: &'a Supervisor,
    /// Shard-tagged.
    observer: &'a Observer,
    ingest_errors: &'a Mutex<Vec<String>>,
}

impl ShardLane<'_> {
    /// Handles one command; a `Pull` or `Tick` yields the reply to send.
    /// Until `InputEnded` each does exactly one worker step — a tick is
    /// stage B's to ask for, since only it may find an increment still on
    /// its way (DESIGN §3 note 6) — so the arrival-phase schedule is the
    /// merger's alone.
    fn handle(&mut self, msg: ShardMsg) -> Option<ShardReply> {
        match msg {
            ShardMsg::Ingest(mut batch) => {
                debug_assert!(!self.input_ended, "an increment after InputEnded");
                if self.supervisor.has_quarantined() {
                    batch.retain(|(p, _, _)| !self.supervisor.is_quarantined(p.id.0));
                }
                if !batch.is_empty() {
                    let observer = self.observer;
                    observer.timed(Phase::Weight, || self.ingest(&batch));
                }
                None
            }
            ShardMsg::InputEnded => {
                self.input_ended = true;
                None
            }
            ShardMsg::Pull { k } => {
                let idle = self.input_ended;
                let batch = self.supervised(|w| w.turn(idle, k, FILL), |_| {});
                Some(ShardReply::Batch(batch.unwrap_or_default()))
            }
            ShardMsg::Tick => {
                let made = self.supervised(ShardWorker::tick, |_| {});
                Some(ShardReply::Tick(made.unwrap_or(true)))
            }
        }
    }

    /// Replaces the worker with a fresh one rebuilt by re-ingesting the
    /// journal. Journal entries already survived one ingest, so errors
    /// (duplicates rejected again by the fresh blocker) are expected and
    /// dropped. Re-emitted comparisons are absorbed by the merger's CF
    /// dedup, so recovery cannot double-schedule (or double-count) a pair.
    fn rebuild(&mut self) {
        self.worker = (self.make_worker)();
        for entry in self.journal.entries() {
            let _ = self.worker.ingest(std::slice::from_ref(entry));
        }
    }

    /// Runs one worker step under an unwind guard. The dead worker may be
    /// mid-mutation, so a panic rebuilds it from the journal, lets
    /// `recover` act on the rebuilt lane, counts the restart and yields
    /// `None`.
    fn supervised<T>(
        &mut self,
        step: impl FnOnce(&mut ShardWorker) -> T,
        recover: impl FnOnce(&mut Self),
    ) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(|| step(&mut self.worker))) {
            Ok(out) => Some(out),
            Err(_) => {
                let died_at = Instant::now();
                self.rebuild();
                recover(self);
                self.supervisor.worker_restarted(
                    WorkerRole::Shard,
                    self.shard,
                    died_at.elapsed().as_secs_f64(),
                    self.observer,
                );
                None
            }
        }
    }

    /// Ingests a routed batch and journals it; a batch that kills the
    /// worker is retried profile by profile to isolate the poison.
    fn ingest(&mut self, batch: &[JournalEntry]) {
        let ingested = self.supervised(
            |worker| worker.ingest(batch),
            |lane| lane.retry_individually(batch),
        );
        if let Some(errors) = ingested {
            self.journal.record_batch(batch);
            self.report(errors);
        }
    }

    /// Re-ingests a batch that killed the worker one profile at a time: a
    /// profile that panics again is quarantined into the dead-letter queue
    /// (and the worker rebuilt once more, since the repeat panic may have
    /// corrupted it too); every survivor lands in the journal as usual.
    fn retry_individually(&mut self, batch: &[JournalEntry]) {
        for entry in batch {
            let id = entry.0.id.0;
            if self.supervisor.is_quarantined(id) {
                continue;
            }
            let one = std::slice::from_ref(entry);
            match catch_unwind(AssertUnwindSafe(|| self.worker.ingest(one))) {
                Ok(errors) => {
                    self.journal.record(entry);
                    self.report(errors);
                }
                Err(_) => {
                    self.supervisor
                        .quarantine_profile(id, Some(self.shard), self.observer);
                    self.rebuild();
                }
            }
        }
    }

    fn report(&self, errors: Vec<PierError>) {
        let mut ingest_errors = self.ingest_errors.lock();
        ingest_errors.extend(errors.iter().map(PierError::to_string));
    }
}

/// One gauged channel per lane `0..lanes` of `queue`, labelled
/// `{queue, <lane_label>=<index>}`.
fn channel_lanes<T>(
    registry: Option<&MetricsRegistry>,
    queue: &str,
    lane_label: &str,
    lanes: usize,
    capacity: Option<usize>,
) -> (Vec<GaugedSender<T>>, Vec<GaugedReceiver<T>>) {
    (0..lanes)
        .map(|lane| {
            let lane = lane.to_string();
            pipeline_channel(
                registry,
                &[("queue", queue), (lane_label, lane.as_str())],
                capacity,
            )
        })
        .unzip()
}

/// Where the source thread sends increment `seq` (`false` once the
/// pipeline has gone away).
type SourceSend = Box<dyn FnMut(usize, Vec<EntityProfile>) -> bool + Send>;

/// A stage-A thread: it returns the token occurrences it ingested, the
/// occupancy of the lanes it owned and, the single topology's lane only,
/// what it handed the classifier.
type StageAThread<'scope> = ScopedJoinHandle<'scope, (u64, StageAParts, Option<Handed>)>;

/// The stage-B thread: it returns the comparisons it executed, in total and
/// per match worker.
type StageBThread<'scope> = ScopedJoinHandle<'scope, (u64, Vec<u64>)>;

/// What every thread of one run shares, by reference: the scoped threads
/// of either topology copy this handle instead of cloning a dozen `Arc`s.
#[derive(Clone, Copy)]
pub(crate) struct Run<'a> {
    pub kind: ErKind,
    pub start: Instant,
    pub config: &'a RuntimeConfig,
    pub registry: Option<&'a MetricsRegistry>,
    pub observer: &'a Observer,
    pub chaos: &'a ChaosHandle,
    pub supervisor: &'a Supervisor,
    pub dictionary: &'a SharedTokenDictionary,
    pub adaptive: &'a Mutex<AdaptiveK>,
    /// Set by the sharded topology's router once every `Ingest` is queued.
    pub ingest_done: &'a AtomicBool,
    pub ingest_errors: &'a Mutex<Vec<String>>,
}

impl<'a> Run<'a> {
    /// Feeds one increment's arrival time to the adaptive-`K` controller.
    pub fn arrival(&self) {
        let at = self.start.elapsed().as_secs_f64();
        self.adaptive.lock().record_arrival(at);
    }

    /// Files a profile stage A skipped: duplicates go to the dead-letter
    /// ledger, every error to the report's `ingest_errors`.
    pub fn ingest_error(&self, error: PierError) {
        if let PierError::DuplicateProfile(dup) = &error {
            self.supervisor.duplicate_profile(*dup, self.observer);
        }
        self.ingest_errors.lock().push(error.to_string());
    }

    /// Fires the `stage_a_ingest` fault point for one arriving increment,
    /// under an unwind guard. The trip happens before the increment
    /// mutates any state, so an injected panic is recovered by simply
    /// continuing (counted as a stage-A restart) and a delay has already
    /// been served inside the trip. A malformed-profile fault appends the
    /// injector's next poison profile, tokenized like any arriving profile
    /// so it flows through blocking and weighting normally — and panics
    /// (via the poison registry) the moment a supervised ingest touches it.
    /// Its tokens are unique to the injection, so it shares no block with
    /// any real profile and cannot change their ghost floors.
    fn trip_stage_a_ingest(
        &self,
        tokenizer: &Tokenizer,
        scratch: &mut String,
        increment: &mut TokenizedIncrement,
    ) {
        if !self.chaos.is_armed() {
            return;
        }
        let t0 = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| {
            self.chaos.trip(FaultPoint::StageAIngest, None)
        })) {
            Ok(Some(FaultKind::MalformedProfile)) => {
                if let Some((id, text)) = self.chaos.poison_payload() {
                    let profile =
                        EntityProfile::new(ProfileId(id), SourceId(0)).with("chaos", text);
                    let tokens = self
                        .dictionary
                        .tokenize_and_intern(tokenizer, &profile, scratch);
                    increment
                        .profiles
                        .push(TokenizedProfile { profile, tokens });
                }
            }
            Ok(_) => {}
            Err(_) => self.supervisor.worker_restarted(
                WorkerRole::StageA,
                0,
                t0.elapsed().as_secs_f64(),
                self.observer,
            ),
        }
    }

    /// The single topology, a pipeline of owners: tokenizer → lane (the
    /// step machine's sole owner) → classifier, joined by channels.
    fn spawn_single<'scope>(
        self,
        scope: &'scope Scope<'scope, 'a>,
        emitter: Box<dyn ComparisonEmitter + Send>,
        stage_b: StageB,
    ) -> (SourceSend, Vec<StageAThread<'scope>>, StageBThread<'scope>) {
        let mut machine = StageA::new(
            IncrementalBlocker::with_shared_dictionary(
                self.kind,
                Tokenizer::default(),
                self.config.purge_policy,
                self.dictionary.clone(),
            ),
            emitter,
        );
        machine.set_observer(self.observer.clone());
        let (inc_tx, inc_rx) = pipeline_channel::<Vec<EntityProfile>>(
            self.registry,
            &[("queue", "increments")],
            Some(1024),
        );
        let (tok_tx, tok_rx) =
            pipeline_channel::<Tokenized>(self.registry, &[("queue", "tokenized")], Some(64));
        // The lane's credit: see `AHEAD` for why this is not
        // `CHANNEL_CAPACITY`.
        let (batch_tx, batch_rx) =
            pipeline_channel::<Batch>(self.registry, &[("queue", "batches")], Some(AHEAD));

        // Tokenizer: token strings are hashed/allocated exactly once for
        // the whole pipeline, off the thread that blocks and prioritizes.
        scope.spawn(move || {
            let tokenizer = Tokenizer::default();
            let mut scratch = String::new();
            for (seq, inc) in inc_rx.iter().enumerate() {
                let since = self.observer.is_enabled().then(Instant::now);
                let mut tokenized =
                    tokenize_increment(self.dictionary, &tokenizer, seq as u64, inc, &mut scratch);
                self.trip_stage_a_ingest(&tokenizer, &mut scratch, &mut tokenized);
                let secs = since.map_or(0.0, |since| since.elapsed().as_secs_f64());
                if tok_tx.send((tokenized, secs)).is_err() {
                    break;
                }
            }
        });

        // Stage A: the lane takes the machine with it and, when it ends,
        // returns what the machine holds.
        let lane = Lane::new(self, machine, Arc::clone(&stage_b.matcher));
        let stage_a = scope.spawn(move || {
            let (machine, handed) = lane.run(&tok_rx, batch_tx);
            let blocker = machine.blocker();
            let token_occurrences = blocker
                .profiles()
                .map(|p| blocker.tokens_of(p.id).len() as u64)
                .sum();
            let slab = blocker.collection().slab_stats();
            (
                token_occurrences,
                vec![(slab, machine.emitter().scratch_stats())],
                Some(handed),
            )
        });

        // Stage B: classify what the lane publishes, waiting no longer
        // than the deadline allows; the lane's hang-up means drained.
        let stage_b = scope.spawn(move || stage_b.run(|left| batch_rx.recv_timeout(left).ok()));

        (
            Box::new(move |_seq, inc| inc_tx.send(inc).is_ok()),
            vec![stage_a],
            stage_b,
        )
    }

    /// The sharded topology: tokenizer pool → router → one supervised step
    /// machine per shard → k-way merger on the stage-B thread.
    fn spawn_sharded<'scope>(
        self,
        scope: &'scope Scope<'scope, 'a>,
        shard_config: ShardedConfig,
        stage_b: StageB,
    ) -> (SourceSend, Vec<StageAThread<'scope>>, StageBThread<'scope>) {
        let observer = self.observer;
        let shards = shard_config.shards as usize;
        let router = ShardRouter::with_dictionary(
            shard_config.shards,
            Tokenizer::default(),
            self.dictionary.clone(),
        );
        let store = Arc::new(RwLock::new(ProfileStore::new()));

        // Per-shard command + reply channels.
        let capacity = Some(CHANNEL_CAPACITY);
        let (cmd_txs, cmd_rxs) =
            channel_lanes::<ShardMsg>(self.registry, "shard_cmd", "shard", shards, capacity);
        let (reply_txs, reply_rxs) =
            channel_lanes::<ShardReply>(self.registry, "shard_reply", "shard", shards, capacity);

        // Tokenizer pool channels: the source dispatches increment `seq`
        // to tokenizer `seq % T`; the router collects from tokenized
        // channel `seq % T`, so increment order survives without `select`.
        let pool = shards.max(1);
        let (tok_txs, tok_rxs) = channel_lanes::<(u64, Vec<EntityProfile>)>(
            self.registry,
            "tokenizer",
            "lane",
            pool,
            Some(64),
        );
        let (routed_txs, routed_rxs) =
            channel_lanes::<Tokenized>(self.registry, "routed", "lane", pool, Some(64));

        // Shard workers: one supervised thread per shard, each owning its
        // step machine, exiting when every command sender is dropped and
        // returning its occupancy.
        let mut stage_a = Vec::with_capacity(shards + 1);
        for (shard, (cmd_rx, reply_tx)) in cmd_rxs.into_iter().zip(reply_txs).enumerate() {
            let shard = shard as u16;
            stage_a.push(scope.spawn(move || {
                let make_worker = || {
                    let mut w = ShardWorker::new(
                        shard,
                        self.kind,
                        shard_config.strategy,
                        shard_config.pier,
                        shard_config.purge_policy,
                        observer,
                    );
                    w.set_chaos(self.chaos.clone());
                    w
                };
                let observer = observer.for_shard(shard);
                let mut lane = ShardLane {
                    shard,
                    worker: make_worker(),
                    journal: IngestJournal::new(JOURNAL_CAPACITY),
                    input_ended: false,
                    make_worker: &make_worker,
                    supervisor: self.supervisor,
                    observer: &observer,
                    ingest_errors: self.ingest_errors,
                };
                for msg in cmd_rx.iter() {
                    if let Some(reply) = lane.handle(msg) {
                        let _ = reply_tx.send(reply);
                    }
                }
                let stats = (lane.worker.slab_stats(), lane.worker.scratch_stats());
                (0, vec![stats], None)
            }));
        }

        // Tokenizer pool: tokenize + intern increments in parallel against
        // the one shared dictionary; the serial router downstream only
        // hashes ids and touches the store. Each increment travels with its
        // tokenize seconds, for the router's one `Phase::Block` timing.
        for (tok_rx, routed_tx) in tok_rxs.into_iter().zip(routed_txs) {
            scope.spawn(move || {
                let tokenizer = Tokenizer::default();
                let mut scratch = String::new();
                for (seq, inc) in tok_rx.iter() {
                    let since = observer.is_enabled().then(Instant::now);
                    let tokenized =
                        tokenize_increment(self.dictionary, &tokenizer, seq, inc, &mut scratch);
                    let secs = since.map_or(0.0, |since| since.elapsed().as_secs_f64());
                    if routed_tx.send((tokenized, secs)).is_err() {
                        break;
                    }
                }
            });
        }

        // Router/ingest: store globally, compute ghost floors, fan out; it
        // returns the token occurrences the store took in.
        let router_store = Arc::clone(&store);
        let router_txs = cmd_txs.clone();
        stage_a.push(scope.spawn(move || {
            let tokenizer = Tokenizer::default();
            let mut scratch = String::new();
            let mut seq = 0usize;
            // Round-robin collection mirrors dispatch: a disconnect on
            // channel `seq % T` means no increment >= seq was sent.
            while let Ok((mut tokenized, tokenize_secs)) = routed_rxs[seq % routed_rxs.len()].recv()
            {
                self.arrival();
                self.trip_stage_a_ingest(&tokenizer, &mut scratch, &mut tokenized);
                let since = observer.is_enabled().then(Instant::now);
                let arrivals = tokenized.profiles.into_iter();
                let fan = router_store.write().fan_out(
                    &router,
                    self.kind,
                    arrivals.map(|tp| (tp.profile, tp.tokens)),
                );
                for e in fan.errors {
                    self.ingest_error(e);
                }
                for (tx, batch) in router_txs.iter().zip(fan.per_shard) {
                    if !batch.is_empty() {
                        let _ = tx.send(ShardMsg::Ingest(batch));
                    }
                }
                // `Phase::Block` means tokenize + block, on whichever threads.
                if let Some(since) = since {
                    observer.emit(|| Event::PhaseTiming {
                        phase: Phase::Block,
                        secs: tokenize_secs + since.elapsed().as_secs_f64(),
                    });
                }
                observer.emit(|| Event::IncrementIngested {
                    seq: seq as u64,
                    profiles: fan.accepted,
                });
                seq += 1;
            }
            // The one way out of the loop (the source ended, or stopped on
            // `shutdown`). Every shard is told in-band, behind its last
            // `Ingest`; only then the flag, so a stage B that *observes*
            // `true` knows its next `Tick` or `Pull` queues behind both.
            for tx in &router_txs {
                let _ = tx.send(ShardMsg::InputEnded);
            }
            self.ingest_done.store(true, Ordering::SeqCst);
            (
                router_store.read().token_occurrences(),
                StageAParts::new(),
                None,
            )
        }));

        // Stage B: the shared loop over this topology's closures.
        let pull_store = Arc::clone(&store);
        let mut merger = ShardMerger::new(shards);
        merger.set_observer(observer.clone());
        let mut table = ProfileTable::new(Arc::clone(&stage_b.matcher));
        let stage_b = scope.spawn(move || {
            // Pull: k-way merge across the shards (each shard is asked for
            // its best `n` on demand), then materialize from the global
            // store.
            let pull = |k: usize| -> Vec<PreparedPair> {
                // An ended stream is asked for `FILL` at a time, as its
                // shards top up: the backlog is plentiful now, and the
                // adaptive `K` would make 65 k-pair batches of it.
                let ended = self.ingest_done.load(Ordering::SeqCst);
                let k = if ended { k.min(FILL) } else { k };
                let mut refill = |s: usize, n: usize| {
                    if cmd_txs[s].send(ShardMsg::Pull { k: n }).is_err() {
                        return Vec::new();
                    }
                    match reply_rxs[s].recv() {
                        Ok(ShardReply::Batch(batch)) => batch,
                        _ => Vec::new(),
                    }
                };
                let cmps = observer.timed(Phase::Prune, || merger.next_batch_with(k, &mut refill));
                if cmps.is_empty() {
                    return Vec::new();
                }
                let store = pull_store.read();
                table.materialize(cmps, |id| (store.profile(id), store.tokens_handle(id)))
            };
            // Tick every shard; any shard reporting work keeps the loop hot.
            let tick = || -> bool {
                let mut made_work = false;
                for tx in &cmd_txs {
                    let _ = tx.send(ShardMsg::Tick);
                }
                for rx in &reply_rxs {
                    if let Ok(ShardReply::Tick(m)) = rx.recv() {
                        made_work |= m;
                    }
                }
                made_work
            };
            // Dropping this thread's `cmd_txs` (and the classifier's match
            // sender) lets the shard workers and the collector exit once
            // the router thread is done too.
            stage_b.run_polled(self.ingest_done, pull, tick)
        });

        (
            // Round-robin over the tokenizer pool.
            Box::new(move |i, inc| tok_txs[i % tok_txs.len()].send((i as u64, inc)).is_ok()),
            stage_a,
            stage_b,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::tests::{Call, Scripted};

    type Log = Arc<Mutex<Vec<Call>>>;

    /// What a [`ShardLane`] borrows, for a lane with no pipeline around it.
    #[derive(Default)]
    struct Fixture {
        supervisor: Supervisor,
        /// Disabled.
        observer: Observer,
        ingest_errors: Mutex<Vec<String>>,
        log: Log,
    }

    /// A worker over the lane tests' scripted emitter: a tick releases
    /// `per_tick` pairs, every call lands in `log`.
    fn scripted_worker(per_tick: usize, log: &Log) -> ShardWorker {
        ShardWorker::with_emitter(
            0,
            ErKind::Dirty,
            Scripted::boxed(per_tick, Arc::clone(log)),
            PurgePolicy::disabled(),
            &Observer::disabled(),
        )
    }

    impl Fixture {
        fn lane<'a>(&'a self, make_worker: &'a dyn Fn() -> ShardWorker) -> ShardLane<'a> {
            ShardLane {
                shard: 0,
                worker: make_worker(),
                journal: IngestJournal::new(1 << 10),
                input_ended: false,
                make_worker,
                supervisor: &self.supervisor,
                observer: &self.observer,
                ingest_errors: &self.ingest_errors,
            }
        }

        /// The calls the emitter saw since the last look.
        fn calls(&self) -> Vec<Call> {
            std::mem::take(&mut *self.log.lock())
        }
    }

    /// `profiles` profiles that all share one block: `n (n - 1) / 2` pairs.
    fn increment(profiles: u32) -> ShardMsg {
        let dictionary = SharedTokenDictionary::new();
        let entries = (0..profiles).map(|id| {
            let profile =
                EntityProfile::new(ProfileId(id), SourceId(0)).with("t", format!("tok w{id}"));
            let tokens =
                dictionary.tokenize_and_intern(&Tokenizer::default(), &profile, &mut String::new());
            (profile, tokens, 1)
        });
        ShardMsg::Ingest(entries.collect())
    }

    fn pull(lane: &mut ShardLane<'_>, k: usize) -> usize {
        match lane.handle(ShardMsg::Pull { k }) {
            Some(ShardReply::Batch(batch)) => batch.len(),
            _ => panic!("a pull is answered with a batch"),
        }
    }

    fn tick(lane: &mut ShardLane<'_>) -> bool {
        match lane.handle(ShardMsg::Tick) {
            Some(ShardReply::Tick(made_work)) => made_work,
            _ => panic!("a tick is answered with a tick"),
        }
    }

    /// The boundary C2 needs: until its input has ended a shard does what
    /// it is asked and nothing more — one `next_batch` per `Pull`, one
    /// empty increment per `Tick` — however empty the pull comes back.
    #[test]
    fn before_input_ended_a_pull_never_ticks() {
        let fixture = Fixture::default();
        let make_worker = || scripted_worker(3, &fixture.log);
        let mut lane = fixture.lane(&make_worker);
        assert!(lane.handle(increment(5)).is_none());
        assert_eq!(fixture.calls(), [Call::Ingest(5)]);
        // Ten pairs in reserve, none in the index: the pull stays empty.
        assert_eq!(pull(&mut lane, 8), 0);
        assert_eq!(fixture.calls(), [Call::Pull { asked: 8, got: 0 }]);
        assert!(tick(&mut lane));
        assert_eq!(fixture.calls(), [Call::Tick { made_work: true }]);
        assert_eq!(pull(&mut lane, 8), 3);
        assert_eq!(fixture.calls(), [Call::Pull { asked: 8, got: 3 }]);
    }

    /// After `InputEnded` a pull runs the idle lane's rule: `min(k, FILL)`
    /// pairs from as many ticks as that takes, each pull asking for what
    /// is still missing, or fewer with the shard left drained.
    #[test]
    fn after_input_ended_a_pull_tops_itself_up() {
        let fixture = Fixture::default();
        let make_worker = || scripted_worker(3, &fixture.log);
        let mut lane = fixture.lane(&make_worker);
        lane.handle(increment(6));
        assert!(lane.handle(ShardMsg::InputEnded).is_none());
        fixture.calls();
        assert_eq!(pull(&mut lane, 8), 8);
        let refill = Call::Tick { made_work: true };
        assert_eq!(
            fixture.calls(),
            [
                Call::Pull { asked: 8, got: 0 },
                refill,
                Call::Pull { asked: 8, got: 3 },
                refill,
                Call::Pull { asked: 5, got: 3 },
                refill,
                Call::Pull { asked: 2, got: 2 },
            ]
        );
        // Seven of the fifteen pairs are left: short of `k`, so drained.
        assert_eq!(pull(&mut lane, 8), 7);
        assert_eq!(
            fixture.calls().last(),
            Some(&Call::Tick { made_work: false })
        );
        assert_eq!(pull(&mut lane, 8), 0);
        assert!(!tick(&mut lane));

        // `k` above `FILL`: 50 profiles hold 1 225 pairs.
        let make_worker = || scripted_worker(100, &fixture.log);
        let mut lane = fixture.lane(&make_worker);
        lane.handle(increment(50));
        lane.handle(ShardMsg::InputEnded);
        assert_eq!(pull(&mut lane, 2048), FILL);
        assert_eq!(pull(&mut lane, 2048), 1225 - FILL);
        assert_eq!(pull(&mut lane, 2048), 0);
    }

    /// The end of input is the lane's to remember: a worker that dies
    /// after it is rebuilt from the journal and still tops its pulls up.
    #[test]
    fn a_rebuilt_worker_is_still_past_the_end_of_input() {
        let fixture = Fixture::default();
        let make_worker = || scripted_worker(3, &fixture.log);
        let mut lane = fixture.lane(&make_worker);
        lane.handle(increment(5));
        lane.handle(ShardMsg::InputEnded);
        assert_eq!(pull(&mut lane, 4), 4);
        let died: Option<()> = lane.supervised(|_| panic!("injected worker panic"), |_| {});
        assert!(died.is_none());
        assert_eq!(fixture.supervisor.restarts(), 1);
        fixture.calls();
        // The fresh emitter offers all ten pairs again (the merger's
        // filter is what drops the four repeats).
        assert_eq!(pull(&mut lane, 16), 10);
        assert_eq!(
            fixture.calls().last(),
            Some(&Call::Tick { made_work: false })
        );
    }

    /// The router sends nothing behind `InputEnded`; an `Ingest` there
    /// would be an increment a topped-up pull had ticked ahead of.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "an increment after InputEnded")]
    fn an_ingest_after_input_ended_is_a_bug() {
        let fixture = Fixture::default();
        let make_worker = || scripted_worker(3, &fixture.log);
        let mut lane = fixture.lane(&make_worker);
        lane.handle(ShardMsg::InputEnded);
        lane.handle(increment(2));
    }
}
