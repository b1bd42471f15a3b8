//! Results of a real-time pipeline run.

use std::time::Duration;

use pier_entity::EntitySummary;
use pier_metrics::Telemetry;
use pier_types::{Comparison, GroundTruth, MatchLedger, ProgressTrajectory};

use crate::supervisor::DeadLetter;

/// One classified match, timestamped relative to pipeline start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchEvent {
    /// When the match was confirmed by the matcher.
    pub at: Duration,
    /// The matching pair.
    pub pair: Comparison,
    /// Similarity reported by the match function.
    pub similarity: f64,
}

/// Size of the pipeline's shared token dictionary at the end of a run,
/// plus how often tokens occurred — enough to estimate what the interned
/// data path saved over shipping owned `String`s between stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DictionaryStats {
    /// Distinct tokens interned over the whole stream.
    pub distinct_tokens: usize,
    /// Total bytes of distinct token text held by the dictionary.
    pub string_bytes: usize,
    /// Total token occurrences ingested (Σ per-profile distinct tokens).
    pub token_occurrences: u64,
}

impl DictionaryStats {
    /// Estimated bytes the id-based data path saved versus materializing an
    /// owned `String` per token occurrence: each occurrence would have cost
    /// roughly one `String` header plus the (average) token text, where the
    /// id path ships a 4-byte `TokenId`. The dictionary itself exists in
    /// both designs, so its storage cancels out.
    pub fn estimated_bytes_saved(&self) -> u64 {
        if self.distinct_tokens == 0 {
            return 0;
        }
        let avg_len = self.string_bytes as u64 / self.distinct_tokens as u64;
        let per_string = avg_len + std::mem::size_of::<String>() as u64;
        let per_id = std::mem::size_of::<pier_types::TokenId>() as u64;
        self.token_occurrences * per_string.saturating_sub(per_id)
    }
}

/// End-of-run occupancy of the stage-A hot-path structures: the dense
/// block slab of each blocker and the epoch-stamped I-WNP scratch
/// accumulator of each emitter. Sharded runs aggregate: slab numbers sum
/// over shards, scratch numbers take the per-lane maximum (each lane owns
/// an independent accumulator). Surfaced by
/// `observed_stream --stage-a-stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageAStats {
    /// Blocks created across all blockers (including purged ones).
    pub blocks: usize,
    /// Block-slab slots allocated across all blockers; the gap to
    /// [`StageAStats::blocks`] is id-space sparsity (per-shard token
    /// subspaces leave gaps).
    pub slab_slots: usize,
    /// Largest scratch-slot capacity any stage-A lane grew to (bounded by
    /// the largest profile id it saw).
    pub scratch_slots: usize,
    /// Largest single-arrival candidate neighborhood any lane accumulated
    /// — the scratch high-water mark.
    pub scratch_high_water: usize,
}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// All matches in confirmation order.
    pub matches: Vec<MatchEvent>,
    /// Total comparisons executed.
    pub comparisons: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Profiles ingested.
    pub profiles: usize,
    /// Shared-dictionary statistics, when the driver interns tokens.
    pub dictionary: Option<DictionaryStats>,
    /// Non-fatal ingest errors (a profile id arriving twice, a source the
    /// ER kind does not have): the offending profile is skipped, the run
    /// continues, and the error is reported here instead of panicking a
    /// pipeline thread.
    pub ingest_errors: Vec<String>,
    /// Stage-B match workers the run was configured with: the classifier
    /// and `match_workers - 1` helper threads (1 = no helper).
    pub match_workers: usize,
    /// Comparisons evaluated by each match worker, indexed by worker, each
    /// counted once as it is computed: a helper's in its own entry, the
    /// classifier's in entry 0, and the lane's in entry 0 when the
    /// classifier takes its batch over. A drained run's entries sum to
    /// [`RuntimeReport::comparisons`]. A run the deadline ended may sum to
    /// more, by the chunks computed past the stop that were never recorded:
    /// those helpers had in hand, those the classifier filled ahead while
    /// it waited for them, and the lane's in the batch being recorded.
    /// Nobody claims a pair past the comparison cap.
    pub worker_comparisons: Vec<u64>,
    /// Verdicts the single topology's stage-A lane computed while it had
    /// no credit to publish the batch it held. Those of a batch the
    /// classifier took over, up to the comparison cap, are also counted in
    /// entry 0 of [`RuntimeReport::worker_comparisons`]; those of the
    /// batches an early end dropped are counted only here.
    pub lane_classified: u64,
    /// Pairs stage A published or held that were never recorded because
    /// the comparison cap or the deadline ended the run first — verdicts
    /// the lane had computed for them included. At most the rest of the
    /// batch in the classifier's hands, the `AHEAD` published batches and
    /// the one the lane held; 0 for a drained run. Counted for the single
    /// topology only: what a sharded run's shards and merger hold at an
    /// early end is not, so there it is always 0.
    pub comparisons_dropped: u64,
    /// End-of-run entity clustering summary, present when the run was
    /// configured with [`crate::RuntimeConfig::entities`]: the transitive
    /// closure of [`RuntimeReport::matches`] folded incrementally into an
    /// [`pier_entity::EntityIndex`] as each match was confirmed.
    pub entity_summary: Option<EntitySummary>,
    /// Stage-A structure occupancy (block slab + I-WNP scratch), when the
    /// driver collected it.
    pub stage_a: Option<StageAStats>,
    /// Work the supervision layer removed from the run instead of crashing
    /// it: quarantined profiles, rejected duplicates, and matches that
    /// could not be delivered. Empty on a healthy run.
    pub dead_letters: Vec<DeadLetter>,
    /// Workers (stage-A lanes, shard workers, the merger, match workers)
    /// rebuilt after a panic.
    pub worker_restarts: u64,
    /// Always 0: load shedding is gone. The field stays until the
    /// benchmark PR (ROADMAP item 1), because the e2e benchmark's
    /// failed-operations count still reads it.
    pub comparisons_shed: u64,
}

impl RuntimeReport {
    /// Number of matches confirmed within `horizon` of the start — the
    /// real-time analogue of early quality.
    pub fn matches_within(&self, horizon: Duration) -> usize {
        self.matches.iter().filter(|m| m.at <= horizon).count()
    }

    /// Comparisons executed per wall-clock second, or 0 for an instant run.
    pub fn comparisons_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.comparisons as f64 / secs
        } else {
            0.0
        }
    }

    /// The `q`-quantile (`q` ∈ [0, 1]) of match confirmation times
    /// ([`MatchEvent::at`]), using the nearest-rank method. `None` when the
    /// run confirmed no matches.
    ///
    /// This is latency from *pipeline start*, the paper's progressive-recall
    /// axis: p50 answers "by when had half the duplicates been found?".
    pub fn match_latency_percentile(&self, q: f64) -> Option<Duration> {
        if self.matches.is_empty() {
            return None;
        }
        let mut times: Vec<Duration> = self.matches.iter().map(|m| m.at).collect();
        times.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((times.len() as f64 * q).ceil() as usize).clamp(1, times.len());
        Some(times[rank - 1])
    }

    /// Median match confirmation time. `None` if there were no matches.
    pub fn match_latency_p50(&self) -> Option<Duration> {
        self.match_latency_percentile(0.50)
    }

    /// 95th-percentile match confirmation time.
    pub fn match_latency_p95(&self) -> Option<Duration> {
        self.match_latency_percentile(0.95)
    }

    /// 99th-percentile match confirmation time.
    pub fn match_latency_p99(&self) -> Option<Duration> {
        self.match_latency_percentile(0.99)
    }

    /// Publishes the finished run's summary into `telemetry`'s registry,
    /// so the final scrape of a run (taken before
    /// [`pier_metrics::MetricsServer::shutdown`]) carries the totals the
    /// report holds: elapsed wall-clock, profiles, matches, throughput,
    /// and the match-latency percentiles on the progressive-recall axis.
    /// [`crate::Pipeline::run`] calls this automatically when
    /// [`crate::RuntimeConfig::telemetry`] is set.
    pub fn publish_final(&self, telemetry: &Telemetry) {
        let r = telemetry.registry();
        r.float_gauge(
            "pier_run_elapsed_seconds",
            "Wall-clock duration of the finished run.",
            &[],
        )
        .set(self.elapsed.as_secs_f64());
        r.gauge(
            "pier_run_profiles",
            "Profiles ingested by the finished run.",
            &[],
        )
        .set(self.profiles.min(i64::MAX as usize) as i64);
        r.gauge(
            "pier_run_matches",
            "Matches confirmed by the finished run.",
            &[],
        )
        .set(self.matches.len() as i64);
        r.gauge(
            "pier_run_ingest_errors",
            "Non-fatal ingest errors over the finished run.",
            &[],
        )
        .set(self.ingest_errors.len() as i64);
        r.float_gauge(
            "pier_run_comparisons_per_second",
            "Comparison throughput of the finished run.",
            &[],
        )
        .set(self.comparisons_per_second());
        for (q, quantile) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            if let Some(at) = self.match_latency_percentile(q) {
                r.float_gauge(
                    "pier_match_latency_seconds",
                    "Match confirmation latency from pipeline start (nearest-rank percentiles).",
                    &[("quantile", quantile)],
                )
                .set(at.as_secs_f64());
            }
        }
    }

    /// Builds the run's progressive-recall trajectory against a ground
    /// truth: each confirmed match event is credited (duplicates counted
    /// once, non-GT matches ignored) at its confirmation time.
    ///
    /// Unlike the simulator's trajectory (one sample per *executed*
    /// comparison), the report only knows about confirmed matches, so the
    /// comparison axis here advances per match event; the time axis is
    /// exact.
    pub fn progress_trajectory(&self, ground_truth: &GroundTruth) -> ProgressTrajectory {
        let mut trajectory = ProgressTrajectory::for_ground_truth(ground_truth);
        let mut ledger = MatchLedger::new();
        let mut events: Vec<&MatchEvent> = self.matches.iter().collect();
        events.sort_by_key(|m| m.at);
        for m in events {
            let was_match = ledger.credit(ground_truth, m.pair);
            trajectory.record(m.at.as_secs_f64(), was_match);
        }
        trajectory.finish(self.elapsed.as_secs_f64());
        trajectory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::ProfileId;

    #[test]
    fn matches_within_filters_by_time() {
        let pair = Comparison::new(ProfileId(0), ProfileId(1));
        let report = RuntimeReport {
            matches: vec![
                MatchEvent {
                    at: Duration::from_millis(5),
                    pair,
                    similarity: 0.9,
                },
                MatchEvent {
                    at: Duration::from_millis(50),
                    pair: Comparison::new(ProfileId(2), ProfileId(3)),
                    similarity: 0.8,
                },
            ],
            comparisons: 10,
            elapsed: Duration::from_millis(60),
            profiles: 4,
            dictionary: None,
            ingest_errors: Vec::new(),
            match_workers: 1,
            worker_comparisons: vec![10],
            entity_summary: None,
            stage_a: None,
            dead_letters: Vec::new(),
            worker_restarts: 0,
            comparisons_shed: 0,
            lane_classified: 0,
            comparisons_dropped: 0,
        };
        assert_eq!(report.matches_within(Duration::from_millis(10)), 1);
        assert_eq!(report.matches_within(Duration::from_millis(100)), 2);
    }

    fn report_with(matches: Vec<MatchEvent>, comparisons: u64, elapsed_ms: u64) -> RuntimeReport {
        RuntimeReport {
            matches,
            comparisons,
            elapsed: Duration::from_millis(elapsed_ms),
            profiles: 0,
            dictionary: None,
            ingest_errors: Vec::new(),
            match_workers: 1,
            worker_comparisons: vec![comparisons],
            entity_summary: None,
            stage_a: None,
            dead_letters: Vec::new(),
            worker_restarts: 0,
            comparisons_shed: 0,
            lane_classified: 0,
            comparisons_dropped: 0,
        }
    }

    fn ev(ms: u64, a: u32, b: u32) -> MatchEvent {
        MatchEvent {
            at: Duration::from_millis(ms),
            pair: Comparison::new(ProfileId(a), ProfileId(b)),
            similarity: 1.0,
        }
    }

    #[test]
    fn dictionary_stats_estimate_savings_per_occurrence() {
        // 10 distinct tokens averaging 6 bytes, each occurring 100 times:
        // the string path would ship 24 (String header) + 6 bytes per
        // occurrence where ids ship 4.
        let stats = DictionaryStats {
            distinct_tokens: 10,
            string_bytes: 60,
            token_occurrences: 1_000,
        };
        assert_eq!(stats.estimated_bytes_saved(), 1_000 * (24 + 6 - 4));
        assert_eq!(DictionaryStats::default().estimated_bytes_saved(), 0);
    }

    #[test]
    fn comparisons_per_second_divides_by_elapsed() {
        let report = report_with(vec![], 500, 2_000);
        assert!((report.comparisons_per_second() - 250.0).abs() < 1e-9);
        // Degenerate zero-duration run does not divide by zero.
        let instant = report_with(vec![], 500, 0);
        assert_eq!(instant.comparisons_per_second(), 0.0);
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let matches: Vec<MatchEvent> = (1..=100).map(|i| ev(i, i as u32, 1000)).collect();
        let report = report_with(matches, 100, 200);
        assert_eq!(report.match_latency_p50(), Some(Duration::from_millis(50)));
        assert_eq!(report.match_latency_p95(), Some(Duration::from_millis(95)));
        assert_eq!(report.match_latency_p99(), Some(Duration::from_millis(99)));
        assert_eq!(
            report.match_latency_percentile(1.0),
            Some(Duration::from_millis(100))
        );
        // q=0 clamps to the first event, out-of-range q is clamped too.
        assert_eq!(
            report.match_latency_percentile(0.0),
            Some(Duration::from_millis(1))
        );
        assert_eq!(
            report.match_latency_percentile(7.0),
            Some(Duration::from_millis(100))
        );
    }

    #[test]
    fn latency_percentiles_on_empty_report_are_none() {
        let report = report_with(vec![], 10, 100);
        assert_eq!(report.match_latency_p50(), None);
        assert_eq!(report.match_latency_p95(), None);
        assert_eq!(report.match_latency_p99(), None);
    }

    #[test]
    fn progress_trajectory_credits_gt_matches_once() {
        let gt = pier_types::GroundTruth::from_pairs([
            (ProfileId(0), ProfileId(1)),
            (ProfileId(2), ProfileId(3)),
            (ProfileId(4), ProfileId(5)),
        ]);
        let report = report_with(
            vec![
                ev(10, 0, 1),
                ev(20, 0, 1), // duplicate report: not credited again
                ev(30, 8, 9), // false positive: not in GT
                ev(40, 2, 3),
            ],
            50,
            100,
        );
        let t = report.progress_trajectory(&gt);
        assert_eq!(t.matches(), 2);
        assert!((t.pc() - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.pc_at_time(0.015) - 1.0 / 3.0).abs() < 1e-12);
        // finish() extends the curve to the run's elapsed time.
        assert!((t.points().last().unwrap().time - 0.1).abs() < 1e-12);
    }

    #[test]
    fn progress_trajectory_sorts_out_of_order_events() {
        // The collector preserves confirmation order, but a caller may have
        // merged reports; the trajectory must still be built time-sorted.
        let gt = pier_types::GroundTruth::from_pairs([
            (ProfileId(0), ProfileId(1)),
            (ProfileId(2), ProfileId(3)),
        ]);
        let report = report_with(vec![ev(40, 2, 3), ev(10, 0, 1)], 2, 100);
        let t = report.progress_trajectory(&gt);
        assert_eq!(t.matches(), 2);
        assert!((t.pc_at_time(0.02) - 0.5).abs() < 1e-12);
    }
}
