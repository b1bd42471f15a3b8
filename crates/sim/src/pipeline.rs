//! The two-resource discrete-event pipeline simulation.

use pier_blocking::{IncrementalBlocker, PurgePolicy};
use pier_core::{AdaptiveK, ComparisonEmitter, StageA};
use pier_matching::{MatchFunction, StageB};
use pier_observe::{Event, Observer, Phase};
use pier_types::{
    EntityProfile, ErKind, GroundTruth, MatchLedger, PierError, ProgressTrajectory, Tokenizer,
};

use crate::cost::CostModel;

/// Whether the matcher actually classifies pairs or only charges their cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatcherMode {
    /// Evaluate the similarity function: classification results are
    /// recorded and the *measured* ops are charged.
    Real,
    /// Charge the estimated ops only. PC (the paper's quality metric) is
    /// unaffected — it counts ground-truth matches among *emitted*
    /// comparisons — so figure benches use this much faster mode.
    CostOnly,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Virtual time budget in seconds; the run stops when it is exhausted.
    pub time_budget: f64,
    /// Real vs cost-only matching.
    pub matcher_mode: MatcherMode,
    /// Ops → seconds calibration.
    pub cost: CostModel,
    /// The batch-size controller `findK()` of Algorithm 1. A fixed `K` is
    /// `AdaptiveK::new(k, k, k)`: the clamp holds it at `k`.
    pub k: AdaptiveK,
    /// Block purging used by the shared incremental blocker.
    pub purge_policy: PurgePolicy,
    /// Hard cap on executed comparisons (event-count safety valve).
    pub max_comparisons: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            time_budget: 300.0,
            matcher_mode: MatcherMode::CostOnly,
            cost: CostModel::default(),
            k: AdaptiveK::default(),
            purge_policy: PurgePolicy::default(),
            max_comparisons: 50_000_000,
        }
    }
}

/// Everything a simulated run produces.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Emitter name (e.g. `"I-PES"`).
    pub name: String,
    /// PC trajectory over virtual time and executed comparisons.
    pub trajectory: ProgressTrajectory,
    /// Virtual time at which the last increment finished blocking, if the
    /// whole stream was ingested within the budget.
    pub all_ingested_at: Option<f64>,
    /// Virtual time at which the stream was *fully consumed* (all
    /// increments ingested and the emitter's backlog drained) — the ×
    /// marker of Figures 7 and 8. `None` if that never happened within the
    /// budget.
    pub consumed_at: Option<f64>,
    /// Comparisons executed.
    pub comparisons: u64,
    /// Pairs the similarity function classified as matches
    /// (only in [`MatcherMode::Real`]).
    pub classified_matches: u64,
    /// Virtual time when the run ended (budget, exhaustion or cap).
    pub final_time: f64,
    /// Per-match detection latency: time from the later profile's arrival
    /// to the match's emission — the paper's "early quality" measured per
    /// duplicate ("spot duplicates in a moment closest to arrival time").
    pub match_latencies: Vec<f64>,
    /// One message per profile stage A skipped (a repeated id is skipped
    /// and reported, not fatal) — as in the runtime's report.
    pub ingest_errors: Vec<String>,
}

impl SimOutcome {
    /// Final pair completeness.
    pub fn pc(&self) -> f64 {
        self.trajectory.pc()
    }

    /// Latency percentile `q` ∈ [0, 1] (nearest-rank), `None` if no match.
    pub fn latency_percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "percentile in [0, 1]");
        if self.match_latencies.is_empty() {
            return None;
        }
        let mut sorted = self.match_latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let idx = ((sorted.len() as f64 * q).ceil() as usize)
            .saturating_sub(1)
            .min(sorted.len() - 1);
        Some(sorted[idx])
    }
}

/// The pipeline simulator. See the crate docs for the model.
pub struct PipelineSim<'a> {
    emitter: &'a mut dyn ComparisonEmitter,
    matcher: &'a dyn MatchFunction,
    config: SimConfig,
    observer: Observer,
}

impl<'a> PipelineSim<'a> {
    /// Creates a simulator around an emitter and a matcher.
    pub fn new(
        emitter: &'a mut dyn ComparisonEmitter,
        matcher: &'a dyn MatchFunction,
        config: SimConfig,
    ) -> Self {
        PipelineSim {
            emitter,
            matcher,
            config,
            observer: Observer::disabled(),
        }
    }

    /// Attaches a pipeline observer, propagated to the blocker, emitter and
    /// adaptive `K` controller on the next [`PipelineSim::run`].
    ///
    /// Timestamps inside the events ([`Event::MatchConfirmed::at_secs`],
    /// [`Event::PhaseTiming::secs`]) are **virtual** seconds of the
    /// simulation clock, not wall time; a `StatsObserver`'s own receive-time
    /// PC timeline is therefore meaningless here — replay the JSONL export
    /// instead (`pier_observe::replay_trajectory` with `at_secs`).
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// Runs the pipeline over `arrivals` — `(arrival time, profiles)`
    /// increments, sorted by time — and returns the outcome.
    ///
    /// # Panics
    /// Panics if arrival times are not non-decreasing.
    pub fn run(
        &mut self,
        kind: ErKind,
        arrivals: &[(f64, Vec<EntityProfile>)],
        ground_truth: &GroundTruth,
    ) -> SimOutcome {
        assert!(
            arrivals.windows(2).all(|w| w[0].0 <= w[1].0),
            "arrivals must be sorted by time"
        );
        let budget = self.config.time_budget;
        let cost = self.config.cost;
        let observer = self.observer.clone();
        let mut adaptive = self.config.k.clone();
        adaptive.set_observer(observer.clone());
        // The step machine on a virtual clock: every step returns the ops
        // it spent and the cost model turns them into seconds.
        let mut stage_a = StageA::new(
            IncrementalBlocker::with_config(kind, Tokenizer::default(), self.config.purge_policy),
            &mut *self.emitter,
        );
        stage_a.set_observer(observer.clone());
        let mut trajectory = ProgressTrajectory::for_ground_truth(ground_truth);
        let mut ledger = MatchLedger::new();
        // Stage B's table prepares each profile once; `CostOnly` reads the
        // cost model's size statistic off the prepared profile.
        let mut stage_b = StageB::new(self.matcher);

        let mut a_free = 0.0f64; // when stage A becomes free
        let mut b_free = 0.0f64; // when stage B becomes free
        let mut arr_idx = 0usize;
        let mut b_starved = false;
        let mut all_ingested_at: Option<f64> = None;
        let mut consumed_at: Option<f64> = None;
        let mut comparisons = 0u64;
        let mut classified = 0u64;
        let mut end_time = 0.0f64;
        // Arrival time per profile id (for match-latency accounting).
        let mut arrived_at: Vec<f64> = Vec::new();
        let mut match_latencies: Vec<f64> = Vec::new();
        let mut ingest_errors: Vec<String> = Vec::new();

        'sim: loop {
            // Candidate start times for the two resources.
            let a_start = (arr_idx < arrivals.len()).then(|| a_free.max(arrivals[arr_idx].0));
            let b_start = (!b_starved).then_some(b_free);

            let do_a = match (a_start, b_start) {
                (Some(a), Some(b)) => a <= b,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break 'sim, // B starved, no arrivals left
            };

            if do_a {
                let t0 = a_start.expect("A chosen");
                if t0 >= budget {
                    end_time = budget;
                    break 'sim;
                }
                let (arrival_time, increment) = &arrivals[arr_idx];
                adaptive.record_arrival(*arrival_time);
                let blocking_ops: u64 = increment.iter().map(CostModel::blocking_ops).sum();
                let ingested = stage_a.ingest(increment);
                for &id in &ingested.ids {
                    if arrived_at.len() <= id.index() {
                        arrived_at.resize(id.index() + 1, 0.0);
                    }
                    arrived_at[id.index()] = *arrival_time;
                }
                ingest_errors.extend(ingested.errors.iter().map(PierError::to_string));
                let update_ops = ingested.ops;
                a_free = t0 + cost.stage_a_secs(blocking_ops + update_ops);
                end_time = end_time.max(a_free.min(budget));
                // Phase timings in *virtual* seconds, per the cost model.
                observer.emit(|| Event::PhaseTiming {
                    phase: Phase::Block,
                    secs: cost.stage_a_secs(blocking_ops),
                });
                observer.emit(|| Event::PhaseTiming {
                    phase: Phase::Weight,
                    secs: cost.stage_a_secs(update_ops),
                });
                arr_idx += 1;
                if arr_idx == arrivals.len() {
                    all_ingested_at = Some(a_free).filter(|&t| t <= budget);
                }
                if b_starved {
                    // New data may unblock the matcher.
                    b_free = b_free.max(a_free);
                    b_starved = false;
                }
                continue;
            }

            // Stage B: pull and process one batch.
            let t0 = b_start.expect("B chosen");
            if t0 >= budget {
                // The matcher cannot start within the budget; arrivals may
                // also be beyond it.
                end_time = budget;
                break 'sim;
            }
            let k = adaptive.k();
            let (batch, pull_ops) = stage_a.pull(k);
            if !batch.is_empty() {
                observer.emit(|| Event::PhaseTiming {
                    phase: Phase::Prune,
                    secs: cost.stage_a_secs(pull_ops),
                });
            }
            if batch.is_empty() {
                if consumed_at.is_none()
                    && arr_idx == arrivals.len()
                    && !stage_a.emitter().has_pending()
                {
                    // The stream is fully consumed: everything ingested and
                    // the emitter's backlog drained (the × marker).
                    consumed_at = Some(t0);
                }
                // Ticks fire only while the blocking stage is idle: no
                // pending increment and none being processed. Then blocking
                // emits an empty increment (§3.2), giving the emitter a
                // chance to generate further work from older data
                // (`GetComparisons`).
                let a_idle =
                    a_free <= t0 && (arr_idx == arrivals.len() || arrivals[arr_idx].0 > t0);
                if a_idle {
                    let tick = stage_a.tick();
                    if tick.made_work {
                        // The tick occupies stage A, then the matcher retries.
                        a_free = a_free.max(t0) + cost.stage_a_secs(tick.ops);
                        b_free = b_free.max(a_free);
                        end_time = end_time.max(b_free.min(budget));
                        continue;
                    }
                    if arr_idx == arrivals.len() {
                        // No input left and the tick produced nothing: done.
                        end_time = end_time.max(t0.min(budget));
                        break 'sim;
                    }
                } else if arr_idx == arrivals.len() {
                    // Stage A is still finishing the tail of the stream and
                    // no future arrival will wake the matcher: wait for A.
                    b_free = b_free.max(a_free);
                    continue;
                }
                b_starved = true;
                continue;
            }
            let mut t = t0 + cost.stage_a_secs(pull_ops);
            let classify_started = t;
            let blocker = stage_a.blocker();
            let pairs =
                stage_b.materialize(batch, |id| (blocker.profile(id), blocker.tokens_handle(id)));
            for pair in &pairs {
                let cmp = pair.comparison();
                let (ops, similarity) = match self.config.matcher_mode {
                    MatcherMode::Real => {
                        let outcome = stage_b.classify(pair);
                        classified += u64::from(outcome.is_match);
                        (outcome.ops, outcome.similarity)
                    }
                    // PC counts ground-truth hits among emissions, so a
                    // credited pair is reported with similarity 1.0.
                    MatcherMode::CostOnly => (
                        self.matcher
                            .pair_ops(pair.a.prepared.size(), pair.b.prepared.size()),
                        1.0,
                    ),
                };
                t += cost.matcher_secs(ops);
                if t > budget {
                    end_time = budget;
                    break 'sim;
                }
                comparisons += 1;
                let was_match = ledger.credit(ground_truth, cmp);
                trajectory.record(t, was_match);
                if was_match {
                    let later = arrived_at[cmp.a.index()].max(arrived_at[cmp.b.index()]);
                    match_latencies.push((t - later).max(0.0));
                    let at_secs = t;
                    observer.emit(|| Event::MatchConfirmed {
                        cmp,
                        similarity,
                        at_secs,
                    });
                }
                if comparisons >= self.config.max_comparisons {
                    end_time = t;
                    break 'sim;
                }
            }
            b_free = t;
            end_time = end_time.max(t);
            let classify_secs = t - classify_started;
            observer.emit(|| Event::PhaseTiming {
                phase: Phase::Classify,
                secs: classify_secs,
            });
            adaptive.record_batch(t - t0);
            if consumed_at.is_none()
                && arr_idx == arrivals.len()
                && !stage_a.emitter().has_pending()
            {
                consumed_at = Some(t);
            }
        }

        trajectory.finish(end_time.min(budget));
        SimOutcome {
            name: stage_a.emitter().name(),
            ingest_errors,
            trajectory,
            all_ingested_at,
            consumed_at,
            comparisons,
            classified_matches: classified,
            final_time: end_time.min(budget),
            match_latencies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::{Ipes, PierConfig};
    use pier_matching::JaccardMatcher;
    use pier_types::{ProfileId, SourceId};

    fn dup_pair(i: u32, text: &str) -> Vec<EntityProfile> {
        vec![
            EntityProfile::new(ProfileId(i), SourceId(0)).with("t", text),
            EntityProfile::new(ProfileId(i + 1), SourceId(0)).with("t", text),
        ]
    }

    fn simple_run(budget: f64) -> SimOutcome {
        let arrivals = vec![
            (0.0, dup_pair(0, "alpha beta gamma")),
            (1.0, dup_pair(2, "delta epsilon zeta")),
        ];
        let gt =
            GroundTruth::from_pairs([(ProfileId(0), ProfileId(1)), (ProfileId(2), ProfileId(3))]);
        let mut emitter = Ipes::new(PierConfig::default());
        let matcher = JaccardMatcher::default();
        let mut sim = PipelineSim::new(
            &mut emitter,
            &matcher,
            SimConfig {
                time_budget: budget,
                matcher_mode: MatcherMode::Real,
                ..SimConfig::default()
            },
        );
        sim.run(ErKind::Dirty, &arrivals, &gt)
    }

    #[test]
    fn finds_all_matches_with_ample_budget() {
        let out = simple_run(100.0);
        assert_eq!(out.trajectory.matches(), 2);
        assert!((out.pc() - 1.0).abs() < 1e-12);
        assert!(out.all_ingested_at.is_some());
        assert!(out.consumed_at.is_some());
        assert_eq!(out.classified_matches, 2);
        assert_eq!(out.name, "I-PES");
    }

    #[test]
    fn a_replayed_id_is_skipped_and_reported() {
        let mut replay = dup_pair(0, "something else entirely");
        replay.truncate(1);
        let arrivals = vec![(0.0, dup_pair(0, "alpha beta gamma")), (1.0, replay)];
        let gt = GroundTruth::from_pairs([(ProfileId(0), ProfileId(1))]);
        let mut emitter = Ipes::new(PierConfig::default());
        let matcher = JaccardMatcher::default();
        let config = SimConfig {
            matcher_mode: MatcherMode::Real,
            ..SimConfig::default()
        };
        let out =
            PipelineSim::new(&mut emitter, &matcher, config).run(ErKind::Dirty, &arrivals, &gt);
        assert_eq!(out.ingest_errors, vec!["profile 0 ingested twice"]);
        // The original profile 0 was kept: it still matches profile 1.
        assert_eq!(out.classified_matches, 1);
        assert!(out.consumed_at.is_some());
    }

    #[test]
    fn matches_cannot_precede_their_arrival() {
        let out = simple_run(100.0);
        // The second duplicate pair arrives at t=1.0; its match must be
        // found at or after that time.
        assert!(out.trajectory.pc_at_time(0.99) <= 0.5 + 1e-12);
    }

    #[test]
    fn zero_budget_yields_nothing() {
        let out = simple_run(0.0);
        assert_eq!(out.comparisons, 0);
        assert_eq!(out.pc(), 0.0);
        assert!(out.consumed_at.is_none());
    }

    #[test]
    fn cost_only_mode_matches_pc_of_real_mode() {
        let arrivals = vec![(0.0, dup_pair(0, "one two three"))];
        let gt = GroundTruth::from_pairs([(ProfileId(0), ProfileId(1))]);
        let matcher = JaccardMatcher::default();
        let run = |mode| {
            let mut emitter = Ipes::new(PierConfig::default());
            let mut sim = PipelineSim::new(
                &mut emitter,
                &matcher,
                SimConfig {
                    matcher_mode: mode,
                    ..SimConfig::default()
                },
            );
            sim.run(ErKind::Dirty, &arrivals, &gt)
        };
        let real = run(MatcherMode::Real);
        let cheap = run(MatcherMode::CostOnly);
        assert_eq!(real.pc(), cheap.pc());
        assert_eq!(real.comparisons, cheap.comparisons);
        assert_eq!(cheap.classified_matches, 0);
    }

    #[test]
    fn max_comparisons_caps_the_run() {
        let arrivals = vec![(
            0.0,
            (0..10)
                .map(|i| EntityProfile::new(ProfileId(i), SourceId(0)).with("t", "shared token"))
                .collect::<Vec<_>>(),
        )];
        let gt = GroundTruth::new();
        let mut emitter = Ipes::new(PierConfig::default());
        let matcher = JaccardMatcher::default();
        let mut sim = PipelineSim::new(
            &mut emitter,
            &matcher,
            SimConfig {
                max_comparisons: 5,
                ..SimConfig::default()
            },
        );
        let out = sim.run(ErKind::Dirty, &arrivals, &gt);
        assert_eq!(out.comparisons, 5);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_arrivals_panic() {
        let arrivals = vec![(1.0, dup_pair(0, "aa bb")), (0.0, dup_pair(2, "cc dd"))];
        let gt = GroundTruth::new();
        let mut emitter = Ipes::new(PierConfig::default());
        let matcher = JaccardMatcher::default();
        let mut sim = PipelineSim::new(&mut emitter, &matcher, SimConfig::default());
        let _ = sim.run(ErKind::Dirty, &arrivals, &gt);
    }

    #[test]
    fn idle_ticks_sweep_blocks_after_the_stream() {
        // Three profiles share one token; per-profile generation (ghosting
        // + I-WNP) retains only the strongest candidates, but the idle-tick
        // fallback must eventually emit every blocked pair.
        let arrivals = vec![(
            0.0,
            vec![
                EntityProfile::new(ProfileId(0), SourceId(0)).with("t", "tok aa1 aa2 aa3"),
                EntityProfile::new(ProfileId(1), SourceId(0)).with("t", "tok aa1 aa2 aa3"),
                EntityProfile::new(ProfileId(2), SourceId(0)).with("t", "tok bb1 bb2"),
            ],
        )];
        let gt = GroundTruth::from_pairs([
            (ProfileId(0), ProfileId(1)),
            (ProfileId(0), ProfileId(2)),
            (ProfileId(1), ProfileId(2)),
        ]);
        let mut emitter = Ipes::new(PierConfig::default());
        let matcher = JaccardMatcher::default();
        let mut sim = PipelineSim::new(&mut emitter, &matcher, SimConfig::default());
        let out = sim.run(ErKind::Dirty, &arrivals, &gt);
        assert_eq!(out.comparisons, 3, "fallback must cover all pairs");
        assert!((out.pc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matcher_waits_for_stage_a_tail() {
        // A single large increment: the matcher drains the first
        // generation output while stage A is still busy; it must wait for
        // A instead of terminating (regression test for the stream-tail
        // deadlock-break).
        let profiles: Vec<EntityProfile> = (0..40)
            .map(|i| {
                EntityProfile::new(ProfileId(i), SourceId(0))
                    .with("t", format!("pair{} shared", i / 2))
            })
            .collect();
        let mut gt = GroundTruth::new();
        for i in (0..40).step_by(2) {
            gt.insert(ProfileId(i), ProfileId(i + 1));
        }
        // Two increments so the matcher can overlap with ingestion.
        let (first, second) = profiles.split_at(20);
        let arrivals = vec![(0.0, first.to_vec()), (0.0, second.to_vec())];
        let mut emitter = Ipes::new(PierConfig::default());
        let matcher = JaccardMatcher::default();
        let mut sim = PipelineSim::new(&mut emitter, &matcher, SimConfig::default());
        let out = sim.run(ErKind::Dirty, &arrivals, &gt);
        assert!((out.pc() - 1.0).abs() < 1e-12, "pc = {}", out.pc());
    }

    #[test]
    fn consumed_marker_precedes_fallback_work() {
        // The × marker (backlog drained) must not wait for the idle-time
        // block sweep to finish.
        let arrivals = vec![(
            0.0,
            (0..10u32)
                .map(|i| {
                    EntityProfile::new(ProfileId(i), SourceId(0))
                        .with("t", format!("common uniq{i}"))
                })
                .collect::<Vec<_>>(),
        )];
        let gt = GroundTruth::new();
        let mut emitter = Ipes::new(PierConfig::default());
        let matcher = JaccardMatcher::default();
        let mut sim = PipelineSim::new(&mut emitter, &matcher, SimConfig::default());
        let out = sim.run(ErKind::Dirty, &arrivals, &gt);
        let consumed = out.consumed_at.expect("stream consumed");
        assert!(consumed <= out.final_time);
        // The "common" block yields 45 pairs via the fallback after ×.
        assert!(out.comparisons >= 45);
    }

    #[test]
    fn match_latency_measures_time_since_arrival() {
        // Pair 1 arrives at t=0, pair 2 at t=1.0; latencies are measured
        // from each pair's own (later) arrival.
        let out = simple_run(100.0);
        assert_eq!(out.match_latencies.len(), 2);
        for &l in &out.match_latencies {
            assert!((0.0..1.0).contains(&l), "latency {l} should be sub-second");
        }
        let p100 = out.latency_percentile(1.0).unwrap();
        let p50 = out.latency_percentile(0.5).unwrap();
        assert!(p100 >= p50);
    }

    #[test]
    fn no_matches_means_no_latency() {
        let arrivals = vec![(0.0, dup_pair(0, "alpha beta gamma"))];
        let gt = GroundTruth::new(); // nothing is a true match
        let mut emitter = Ipes::new(PierConfig::default());
        let matcher = JaccardMatcher::default();
        let mut sim = PipelineSim::new(&mut emitter, &matcher, SimConfig::default());
        let out = sim.run(ErKind::Dirty, &arrivals, &gt);
        assert!(out.match_latencies.is_empty());
        assert_eq!(out.latency_percentile(0.9), None);
    }

    #[test]
    fn observed_sim_reports_virtual_time_events() {
        use pier_observe::{Observer, PipelineObserver, StatsObserver};
        use std::sync::Arc;

        // Sink that captures MatchConfirmed timestamps (virtual seconds).
        #[derive(Default)]
        struct MatchTimes(std::sync::Mutex<Vec<f64>>);
        impl PipelineObserver for MatchTimes {
            fn on_event(&self, event: &pier_observe::Event) {
                if let pier_observe::Event::MatchConfirmed { at_secs, .. } = event {
                    self.0.lock().unwrap().push(*at_secs);
                }
            }
        }

        let arrivals = vec![
            (0.0, dup_pair(0, "alpha beta gamma")),
            (1.0, dup_pair(2, "delta epsilon zeta")),
        ];
        let gt =
            GroundTruth::from_pairs([(ProfileId(0), ProfileId(1)), (ProfileId(2), ProfileId(3))]);
        let stats = Arc::new(StatsObserver::new());
        let times = Arc::new(MatchTimes::default());

        let run = |sink: Arc<dyn PipelineObserver>| {
            let mut emitter = Ipes::new(PierConfig::default());
            let matcher = JaccardMatcher::default();
            let mut sim = PipelineSim::new(&mut emitter, &matcher, SimConfig::default());
            sim.set_observer(Observer::new(sink));
            sim.run(ErKind::Dirty, &arrivals, &gt)
        };
        let out = run(stats.clone());
        let snap = stats.snapshot();
        assert_eq!(snap.increments, 2);
        assert_eq!(snap.profiles, 4);
        assert_eq!(snap.matches_confirmed, out.trajectory.matches());
        assert_eq!(snap.comparisons_emitted, out.comparisons);
        assert!(snap.phases.iter().all(|ph| ph.count >= 1));

        // Virtual timestamps: the second pair's match cannot precede its
        // t=1.0 arrival, even though the whole sim runs in microseconds of
        // wall time.
        let out2 = run(times.clone());
        let captured = times.0.lock().unwrap().clone();
        assert_eq!(captured.len() as u64, out2.trajectory.matches());
        assert!(captured.iter().any(|&t| t >= 1.0), "times: {captured:?}");
    }

    #[test]
    fn trajectory_time_is_bounded_by_budget() {
        let out = simple_run(100.0);
        for p in out.trajectory.points() {
            assert!(p.time <= 100.0);
        }
        assert!(out.final_time <= 100.0);
    }
}
