//! The traced pass: everything behind `--trace 1`. One untraced threaded
//! run (the baseline the trace is compared with), one threaded run with
//! telemetry and the benchmark's recorder attached, two layer walks (the
//! timed one unobserved, the second recording events and proving the
//! counts repeat), and three short passes for costs the walk cannot
//! separate: weighting, checkpointing and the comparison filter.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pier_blocking::{save_checkpoint, IncrementalBlocker, PurgePolicy};
use pier_collections::ScalableBloomFilter;
use pier_core::framework::generate_for_profile;
use pier_core::PierConfig;
use pier_metablocking::Iwnp;
use pier_metrics::Telemetry;
use pier_observe::{Event, JsonlObserver, Observer, PipelineObserver, StatsObserver};
use pier_types::{Comparison, Tokenizer};

use crate::host;
use crate::json::Json;
use crate::pass::{check_outputs, confirmed, failed_operations, run_threaded, Better};
use crate::stats::{match_delays_ms, pc_scan, percentile};
use crate::walk::{layer_walk, Walk, GROUPING_SPANS};
use crate::workloads::{Inputs, Workload};

/// The per-layer metrics: `(name, unit, direction)`. The layer is the part
/// of the name before the first dot and is a crate of the workspace
/// (`host` is the machine).
pub const PER_LAYER: [(&str, &str, Better); 74] = {
    use Better::{Higher, Lower};
    [
        ("types.tokenize.busy_s", "s", Lower),
        ("types.tokenize.tokens", "count", Lower),
        ("types.tokenize.ns_per_token", "ns", Lower),
        ("types.dictionary.distinct_tokens", "count", Lower),
        ("types.dictionary.string_bytes", "bytes", Lower),
        ("blocking.ingest.busy_s", "s", Lower),
        ("blocking.ingest.ns_per_profile", "ns", Lower),
        ("blocking.blocks", "count", Lower),
        ("blocking.slab_slots", "count", Lower),
        ("blocking.checkpoint.save_s", "s", Lower),
        ("blocking.checkpoint.bytes", "bytes", Lower),
        ("metablocking.weight.busy_s", "s", Lower),
        ("metablocking.weight.ops", "count", Lower),
        ("metablocking.weight.retained", "count", Lower),
        ("metablocking.weight.ns_per_op", "ns", Lower),
        ("core.on_increment.busy_s", "s", Lower),
        ("core.next_batch.busy_s", "s", Lower),
        ("core.next_batch.calls", "count", Lower),
        ("core.next_batch.emitted", "count", Lower),
        ("core.next_batch.empty_calls", "count", Lower),
        ("core.tick.busy_s", "s", Lower),
        ("core.tick.calls", "count", Lower),
        ("core.tick.emitted", "count", Lower),
        ("collections.cf.busy_s", "s", Lower),
        ("collections.cf.inserts", "count", Lower),
        ("collections.cf.false_positive_ratio", "ratio", Lower),
        ("collections.cf.memory_bytes", "bytes", Lower),
        ("matching.evaluate.busy_s", "s", Lower),
        ("matching.evaluate.comparisons", "count", Lower),
        ("matching.evaluate.matches", "count", Higher),
        ("matching.evaluate.match_ratio", "ratio", Higher),
        ("matching.evaluate.ns_per_cmp", "ns", Lower),
        ("shard.route.busy_s", "s", Lower),
        ("shard.route.token_skew", "ratio", Lower),
        ("shard.ingest.busy_s", "s", Lower),
        ("shard.ingest.max_lane_s", "s", Lower),
        ("shard.pull.busy_s", "s", Lower),
        ("shard.merge.busy_s", "s", Lower),
        ("shard.merge.pulled", "count", Lower),
        ("shard.merge.emitted", "count", Lower),
        ("shard.merge.useful_ratio", "ratio", Higher),
        ("entity.apply.busy_s", "s", Lower),
        ("entity.apply.merges", "count", Higher),
        ("entity.clusters", "count", Lower),
        ("entity.lookup.ns_per_query", "ns", Lower),
        ("observe.events", "count", Lower),
        ("observe.replayed_events", "count", Lower),
        ("observe.stats.busy_s", "s", Lower),
        ("observe.jsonl.busy_s", "s", Lower),
        ("observe.jsonl.bytes", "bytes", Lower),
        ("metrics.observer.busy_s", "s", Lower),
        ("observe.ns_per_event", "ns", Lower),
        ("runtime.materialize.busy_s", "s", Lower),
        ("runtime.walk.wall_s", "s", Lower),
        ("runtime.walk.unaccounted_share", "ratio", Lower),
        ("runtime.walk.match_set_diff_share", "ratio", Lower),
        ("runtime.threading_ratio", "ratio", Lower),
        ("runtime.cpu_util", "ratio", Higher),
        ("runtime.queue.stall_s", "s", Lower),
        ("runtime.queue.stalls", "count", Lower),
        ("runtime.phase.block_s", "s", Lower),
        ("runtime.phase.weight_s", "s", Lower),
        ("runtime.phase.prune_s", "s", Lower),
        ("runtime.phase.classify_s", "s", Lower),
        ("runtime.source.lag_p99_ms", "ms", Lower),
        ("runtime.trace_overhead_pct", "%", Lower),
        ("runtime.untraced.wall_s", "s", Lower),
        ("runtime.traced.wall_s", "s", Lower),
        ("runtime.t_pc50_s", "s", Lower),
        ("runtime.t_pc90_s", "s", Lower),
        ("runtime.match_delay_p50_ms", "ms", Lower),
        ("runtime.match_delay_p99_ms", "ms", Lower),
        ("runtime.match_delay_samples", "count", Higher),
        ("host.calib_s", "s", Lower),
    ]
};

/// Events kept for the observer replay. The walk emits millions on the
/// larger corpora (one `ComparisonEmitted` per pair); the first quarter
/// million hold every event kind in the stream's own mix and keep the
/// replayed JSONL file near 20 MB.
const REPLAY_CAP: usize = 250_000;

/// The benchmark's own observer. Counts every event, keeps the first
/// `cap` with their shard tag for the replay, and timestamps
/// `IncrementIngested` (which the threaded pass needs for source lag).
pub struct Recorder {
    cap: usize,
    total: AtomicU64,
    kept: Mutex<Vec<(Option<u16>, Event)>>,
    /// `(seq, when)` of every global `IncrementIngested`.
    ingested: Mutex<Vec<(u64, Instant)>>,
}

impl Recorder {
    pub fn new(cap: usize) -> Recorder {
        Recorder {
            cap,
            total: AtomicU64::new(0),
            kept: Mutex::new(Vec::new()),
            ingested: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, shard: Option<u16>, event: &Event) {
        let n = self.total.fetch_add(1, Ordering::Relaxed);
        if (n as usize) < self.cap {
            self.kept
                .lock()
                .expect("recorder never panics while locked")
                .push((shard, *event));
        }
        // The router/stage-A thread reports the global increment untagged;
        // shard-tagged copies describe fan-out.
        if let (None, Event::IncrementIngested { seq, .. }) = (shard, event) {
            self.ingested
                .lock()
                .expect("recorder never panics while locked")
                .push((*seq, Instant::now()));
        }
    }
}

impl PipelineObserver for Recorder {
    fn on_event(&self, event: &Event) {
        self.record(None, event);
    }

    fn on_shard_event(&self, shard: u16, event: &Event) {
        self.record(Some(shard), event);
    }
}

/// Replays `events` through `sink`, returning the seconds it took.
fn replay(events: &[(Option<u16>, Event)], sink: &dyn PipelineObserver) -> f64 {
    let t0 = Instant::now();
    for (shard, event) in events {
        match shard {
            Some(shard) => sink.on_shard_event(*shard, event),
            None => sink.on_event(event),
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Sum of every sample of `family` (exact name, any labels) in a
/// Prometheus text rendering.
fn prometheus_sum(text: &str, family: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter(|l| label.is_none_or(|label| l.contains(label)))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Where the traced pass leaves its files.
pub fn experiments_dir() -> PathBuf {
    Path::new("target").join("experiments").join("e2e")
}

/// Where the traced pass of `workload` and `seed` writes its span dump.
pub fn span_dump_path(workload: &Workload, seed: u64) -> PathBuf {
    experiments_dir().join(format!("{}-seed{seed}-spans.txt", workload.name))
}

/// The outcome of a traced pass.
pub struct TraceResult {
    /// `(name, value)` for every entry of [`PER_LAYER`], in that order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl TraceResult {
    /// The line the parent process reads; same shape as a pass's.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(k, v)| (*k, Json::num(*v)))),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
        ])
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Runs the traced pass for one workload and seed.
pub fn run_trace(workload: &Workload, seed: u64, scale: f64) -> TraceResult {
    let calib_s = host::calibrate_s();
    let inputs = workload.prepare(seed, scale);
    let truth = &inputs.dataset.ground_truth;
    let mut errors = Vec::new();

    // (1) Untraced threaded run: the baseline for threading ratio and
    // trace overhead, and the match set the walk must reproduce.
    let untraced = run_threaded(workload, &inputs, false, None);
    let untraced_matches = confirmed(&untraced.report);
    let scan = pc_scan(&untraced_matches, truth, &[0.5, 0.9]);
    errors.extend(check_outputs(
        workload,
        &inputs,
        &untraced.report,
        scan.final_pc,
        scan.duplicates,
    ));
    let interarrival_s = workload.interarrival().as_secs_f64();
    let delays_ms = match_delays_ms(
        &untraced_matches,
        truth,
        &inputs.arrival_seq,
        interarrival_s,
    );

    // (2) Threaded run with telemetry and the recorder attached.
    let recorder = Arc::new(Recorder::new(0));
    let traced = run_threaded(
        workload,
        &inputs,
        true,
        Some(Arc::clone(&recorder) as Arc<dyn PipelineObserver>),
    );
    let registry_text = traced
        .telemetry
        .as_ref()
        .map(Telemetry::registry)
        .map(|r| r.render_prometheus())
        .unwrap_or_default();
    let source_lag_ms: Vec<f64> = recorder
        .ingested
        .lock()
        .expect("run is over")
        .iter()
        .map(|(seq, at)| {
            let since_start = at.duration_since(traced.started).as_secs_f64();
            (since_start - *seq as f64 * interarrival_s) * 1e3
        })
        .collect();
    let traced_failed = failed_operations(&traced.report);
    if traced_failed > 0 {
        errors.push(format!(
            "{traced_failed} failed operations in the traced run"
        ));
    }

    // (3) The timed walk, unobserved; (4) the same walk again with the
    // recorder on every layer.
    let walk = layer_walk(workload, &inputs, &Observer::disabled());
    let walk_recorder = Arc::new(Recorder::new(REPLAY_CAP));
    let rewalk = layer_walk(
        workload,
        &inputs,
        &Observer::new(Arc::clone(&walk_recorder) as Arc<dyn PipelineObserver>),
    );
    if walk.counts != rewalk.counts {
        errors.push(format!(
            "two walks of seed {seed} disagree: {:?} vs {:?}",
            walk.counts, rewalk.counts
        ));
    }
    let threaded_set: HashSet<Comparison> = untraced_matches.iter().map(|m| m.pair).collect();
    let differing = threaded_set.symmetric_difference(&walk.matches).count();
    let diff_share = share(
        differing as f64,
        threaded_set.union(&walk.matches).count() as f64,
    );
    let tolerance = match_set_tolerance(workload);
    if diff_share > tolerance {
        errors.push(format!(
            "threaded and walked match sets differ in {differing} pairs ({:.3} % > {} %)",
            diff_share * 100.0,
            tolerance * 100.0
        ));
    }

    let busy = walk.tracer.self_times();
    let self_s = |name: &str| {
        busy.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    };
    let unaccounted: f64 = GROUPING_SPANS.iter().map(|n| self_s(n)).sum();
    let unaccounted_share = share(unaccounted, walk.wall_s);
    if unaccounted_share > 0.05 {
        errors.push(format!(
            "walk does not reconcile: {:.1} % of its wall clock is outside every layer span",
            unaccounted_share * 100.0
        ));
    }
    let span_dump = span_dump_path(workload, seed);
    if let Err(e) = walk.tracer.dump(&span_dump) {
        errors.push(format!("writing {}: {e}", span_dump.display()));
    }

    let weight = weight_pass(&inputs);
    let cf = cf_pass(&walk);
    let observe = observe_pass(workload, &walk_recorder, &mut errors);

    // A target never reached, or a percentile of nothing, is `null` in the
    // output, not the best possible value.
    let or_nan = |v: Option<f64>| v.unwrap_or(f64::NAN);
    let c = &walk.counts;
    let ns_per = |secs: f64, n: u64| share(secs * 1e9, n as f64);
    let skew = {
        let per = &c.routed_tokens_per_shard;
        let mean = share(per.iter().sum::<u64>() as f64, per.len() as f64);
        share(per.iter().copied().max().unwrap_or(0) as f64, mean)
    };
    let values: Vec<(&str, f64)> = vec![
        ("types.tokenize.busy_s", self_s("types.tokenize")),
        ("types.tokenize.tokens", c.tokens as f64),
        (
            "types.tokenize.ns_per_token",
            ns_per(self_s("types.tokenize"), c.tokens),
        ),
        ("types.dictionary.distinct_tokens", c.distinct_tokens as f64),
        ("types.dictionary.string_bytes", c.dictionary_bytes as f64),
        ("blocking.ingest.busy_s", self_s("blocking.ingest")),
        (
            "blocking.ingest.ns_per_profile",
            ns_per(self_s("blocking.ingest"), c.profiles),
        ),
        ("blocking.blocks", c.blocks as f64),
        ("blocking.slab_slots", c.slab_slots as f64),
        ("blocking.checkpoint.save_s", weight.checkpoint_s),
        ("blocking.checkpoint.bytes", weight.checkpoint_bytes as f64),
        ("metablocking.weight.busy_s", weight.busy_s),
        ("metablocking.weight.ops", weight.ops as f64),
        ("metablocking.weight.retained", weight.retained as f64),
        (
            "metablocking.weight.ns_per_op",
            ns_per(weight.busy_s, weight.ops),
        ),
        ("core.on_increment.busy_s", self_s("core.on_increment")),
        ("core.next_batch.busy_s", self_s("core.next_batch")),
        ("core.next_batch.calls", c.next_batch_calls as f64),
        ("core.next_batch.emitted", c.emitted as f64),
        ("core.next_batch.empty_calls", c.next_batch_empty as f64),
        ("core.tick.busy_s", self_s("core.tick")),
        ("core.tick.calls", c.tick_calls as f64),
        ("core.tick.emitted", c.tick_emitted as f64),
        ("collections.cf.busy_s", cf.busy_s),
        ("collections.cf.inserts", cf.inserts as f64),
        (
            "collections.cf.false_positive_ratio",
            share(cf.false_positives as f64, cf.inserts as f64),
        ),
        ("collections.cf.memory_bytes", cf.memory_bytes as f64),
        ("matching.evaluate.busy_s", self_s("matching.evaluate")),
        ("matching.evaluate.comparisons", c.comparisons as f64),
        ("matching.evaluate.matches", c.matches as f64),
        (
            "matching.evaluate.match_ratio",
            share(c.matches as f64, c.comparisons as f64),
        ),
        (
            "matching.evaluate.ns_per_cmp",
            ns_per(self_s("matching.evaluate"), c.comparisons),
        ),
        ("shard.route.busy_s", self_s("shard.route")),
        ("shard.route.token_skew", skew),
        ("shard.ingest.busy_s", self_s("shard.ingest")),
        ("shard.ingest.max_lane_s", walk.max_lane_ingest_s),
        ("shard.pull.busy_s", self_s("shard.pull")),
        ("shard.merge.busy_s", self_s("shard.merge")),
        ("shard.merge.pulled", c.merge_pulled as f64),
        ("shard.merge.emitted", c.merge_emitted as f64),
        (
            "shard.merge.useful_ratio",
            share(c.merge_emitted as f64, c.merge_pulled as f64),
        ),
        ("entity.apply.busy_s", self_s("entity.apply")),
        ("entity.apply.merges", c.entity_merges as f64),
        ("entity.clusters", c.entity_clusters as f64),
        (
            "entity.lookup.ns_per_query",
            ns_per(self_s("entity.lookup"), c.entity_lookups),
        ),
        ("observe.events", observe.events as f64),
        ("observe.replayed_events", observe.replayed as f64),
        ("observe.stats.busy_s", observe.stats_s),
        ("observe.jsonl.busy_s", observe.jsonl_s),
        ("observe.jsonl.bytes", observe.jsonl_bytes as f64),
        ("metrics.observer.busy_s", observe.metrics_s),
        (
            "observe.ns_per_event",
            ns_per(
                observe.stats_s + observe.jsonl_s + observe.metrics_s,
                3 * observe.replayed,
            ),
        ),
        ("runtime.materialize.busy_s", self_s("runtime.materialize")),
        ("runtime.walk.wall_s", walk.wall_s),
        ("runtime.walk.unaccounted_share", unaccounted_share),
        ("runtime.walk.match_set_diff_share", diff_share),
        (
            "runtime.threading_ratio",
            share(untraced.wall_s, walk.wall_s),
        ),
        ("runtime.cpu_util", share(untraced.cpu_s, untraced.wall_s)),
        (
            "runtime.queue.stall_s",
            prometheus_sum(&registry_text, "pier_queue_send_stall_seconds_sum", None),
        ),
        (
            "runtime.queue.stalls",
            prometheus_sum(&registry_text, "pier_queue_send_stalls_total", None),
        ),
        ("runtime.phase.block_s", phase_s(&registry_text, "block")),
        ("runtime.phase.weight_s", phase_s(&registry_text, "weight")),
        ("runtime.phase.prune_s", phase_s(&registry_text, "prune")),
        (
            "runtime.phase.classify_s",
            phase_s(&registry_text, "classify"),
        ),
        (
            "runtime.source.lag_p99_ms",
            or_nan(percentile(&source_lag_ms, 0.99)),
        ),
        (
            "runtime.trace_overhead_pct",
            (share(traced.wall_s, untraced.wall_s) - 1.0) * 100.0,
        ),
        ("runtime.untraced.wall_s", untraced.wall_s),
        ("runtime.traced.wall_s", traced.wall_s),
        ("runtime.t_pc50_s", or_nan(scan.time_to[0])),
        ("runtime.t_pc90_s", or_nan(scan.time_to[1])),
        (
            "runtime.match_delay_p50_ms",
            or_nan(percentile(&delays_ms, 0.50)),
        ),
        (
            "runtime.match_delay_p99_ms",
            or_nan(percentile(&delays_ms, 0.99)),
        ),
        ("runtime.match_delay_samples", delays_ms.len() as f64),
        ("host.calib_s", calib_s),
    ];
    assert!(
        values.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|m| m.0)),
        "per-layer values are listed in PER_LAYER order"
    );
    TraceResult {
        metrics: values,
        attempted: inputs.dataset.len() as u64 + untraced.report.comparisons,
        failed: failed_operations(&untraced.report) + traced_failed,
        errors,
    }
}

/// How far the threaded run's match set may be from the walk's, as a share
/// of their union. In the static setting both executions drain the same
/// candidate pairs and only the scalable Bloom filter's false positives
/// depend on insertion order. In a stream the candidate set itself depends
/// on the schedule: an idle tick consumes a block through the
/// `GetComparisons` fallback while it is still small, and the same block
/// may cross the purge threshold before a slower schedule gets to it. The
/// walk ticks under a fixed per-increment budget, the threaded run
/// whenever it is idle; across seeds they differ by up to 0.7 %.
fn match_set_tolerance(workload: &Workload) -> f64 {
    if workload.interarrival_ms == 0 {
        0.005
    } else {
        0.02
    }
}

fn phase_s(registry_text: &str, phase: &str) -> f64 {
    prometheus_sum(
        registry_text,
        "pier_phase_seconds_sum",
        Some(&format!("phase=\"{phase}\"")),
    )
}

struct WeightPass {
    busy_s: f64,
    ops: u64,
    retained: u64,
    checkpoint_s: f64,
    checkpoint_bytes: usize,
}

/// Weighting and checkpointing in isolation. The emitters weight inside
/// `on_increment`, where the benchmark cannot put a span, so this pass
/// blocks the same increments into a second, unsharded blocker (untimed)
/// and times `generate_for_profile` — ghosting + I-WNP with one warm
/// scratch — for every profile right after its increment is blocked, as
/// the emitters call it. The finished blocker is then checkpointed into
/// memory.
fn weight_pass(inputs: &Inputs) -> WeightPass {
    let mut blocker = IncrementalBlocker::new(inputs.dataset.kind);
    let config = PierConfig::default();
    let mut iwnp = Iwnp::new();
    let (mut busy_s, mut ops, mut retained) = (0.0, 0u64, 0u64);
    for increment in &inputs.increments {
        let ids = blocker.process_increment(increment);
        let t0 = Instant::now();
        for id in ids {
            let (list, cost) = generate_for_profile(&blocker, id, &config, &mut iwnp);
            ops += cost;
            retained += list.len() as u64;
        }
        busy_s += t0.elapsed().as_secs_f64();
    }
    let mut bytes: Vec<u8> = Vec::new();
    let t0 = Instant::now();
    save_checkpoint(
        &blocker,
        &Tokenizer::default(),
        &PurgePolicy::default(),
        &mut bytes,
    )
    .expect("writing to memory cannot fail");
    WeightPass {
        busy_s,
        ops,
        retained,
        checkpoint_s: t0.elapsed().as_secs_f64(),
        checkpoint_bytes: bytes.len(),
    }
}

struct CfPass {
    busy_s: f64,
    inserts: u64,
    false_positives: u64,
    memory_bytes: usize,
}

/// The comparison filter in isolation: the walk's emitted keys, in
/// emission order, through a fresh filter of the kind every emitter and
/// the merger own. An exact set beside it tells a false positive from a
/// true repeat.
fn cf_pass(walk: &Walk) -> CfPass {
    let mut filter = ScalableBloomFilter::for_comparisons();
    let t0 = Instant::now();
    let accepted: Vec<bool> = walk
        .emitted_keys
        .iter()
        .map(|&k| filter.insert(k))
        .collect();
    let busy_s = t0.elapsed().as_secs_f64();
    let mut exact: HashSet<u64> = HashSet::with_capacity(walk.emitted_keys.len());
    let false_positives = walk
        .emitted_keys
        .iter()
        .zip(accepted)
        .filter(|&(&k, accepted)| exact.insert(k) && !accepted)
        .count() as u64;
    CfPass {
        busy_s,
        inserts: walk.emitted_keys.len() as u64,
        false_positives,
        memory_bytes: filter.memory_bytes(),
    }
}

struct ObservePass {
    events: u64,
    replayed: u64,
    stats_s: f64,
    jsonl_s: f64,
    jsonl_bytes: u64,
    metrics_s: f64,
}

/// The observation stack in isolation: the events the second walk
/// recorded, replayed through each sink the wide workload attaches.
fn observe_pass(workload: &Workload, recorder: &Recorder, errors: &mut Vec<String>) -> ObservePass {
    let events = recorder.kept.lock().expect("walk is over");
    let stats_s = replay(&events, &StatsObserver::new());
    let metrics_s = replay(&events, Telemetry::new().observer().as_ref());
    let path = experiments_dir().join(format!("{}-replay.jsonl", workload.name));
    let (jsonl_s, jsonl_bytes) = match JsonlObserver::create(&path) {
        Ok(sink) => {
            let t0 = Instant::now();
            let _ = replay(&events, &sink);
            let flushed = sink.flush();
            let secs = t0.elapsed().as_secs_f64();
            if let Err(e) = flushed {
                errors.push(format!("writing {}: {e}", path.display()));
            }
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            // Only its size is a result; the span dump is what stays.
            let _ = std::fs::remove_file(&path);
            (secs, bytes)
        }
        Err(e) => {
            errors.push(format!("creating {}: {e}", path.display()));
            (0.0, 0)
        }
    };
    ObservePass {
        events: recorder.total.load(Ordering::Relaxed),
        replayed: events.len() as u64,
        stats_s,
        jsonl_s,
        jsonl_bytes,
        metrics_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_sum_adds_one_family_across_label_sets() {
        let text = "\
# HELP pier_queue_send_stall_seconds x
pier_queue_send_stall_seconds_bucket{queue=\"a\",le=\"+Inf\"} 9
pier_queue_send_stall_seconds_sum{queue=\"a\"} 0.25
pier_queue_send_stall_seconds_sum{queue=\"b\",shard=\"1\"} 0.5
pier_queue_send_stall_seconds_count{queue=\"a\"} 9
pier_queue_send_stalls_total{queue=\"a\"} 3
pier_queue_send_stalls_total 4
pier_phase_seconds_sum{phase=\"block\"} 1.5
pier_phase_seconds_sum{phase=\"weight\"} 2.5
";
        assert_eq!(
            prometheus_sum(text, "pier_queue_send_stall_seconds_sum", None),
            0.75
        );
        assert_eq!(
            prometheus_sum(text, "pier_queue_send_stalls_total", None),
            7.0
        );
        assert_eq!(phase_s(text, "weight"), 2.5);
        assert_eq!(phase_s(text, "classify"), 0.0);
    }

    #[test]
    fn recorder_keeps_the_first_events_and_counts_all() {
        let recorder = Recorder::new(2);
        for seq in 0..5 {
            recorder.on_event(&Event::IncrementIngested { seq, profiles: 1 });
            recorder.on_shard_event(1, &Event::IncrementIngested { seq, profiles: 1 });
        }
        assert_eq!(recorder.total.load(Ordering::Relaxed), 10);
        let kept = recorder.kept.lock().unwrap();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[1].0, Some(1));
        // Only the untagged (global) increments are timestamped.
        assert_eq!(recorder.ingested.lock().unwrap().len(), 5);
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let mut seen = HashSet::new();
        for (name, unit, _) in PER_LAYER {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
