//! The event→metrics bridge: a [`PipelineObserver`] that publishes every
//! pipeline event into a [`MetricsRegistry`], plus the [`Telemetry`]
//! configuration handle the runtime threads through its drivers.

use std::sync::Arc;

use pier_observe::{AtomSource, Event, PipelineObserver, StatsObserver};
use pier_types::GroundTruth;

use crate::{FloatGauge, MetricsRegistry};

/// Telemetry configuration for a runtime driver.
///
/// Carries the shared registry every instrumented component publishes
/// into, plus the recall-estimation inputs. Attach one to
/// `RuntimeConfig::telemetry` and the driver wires queue gauges, live
/// counters, and phase histograms automatically; scrape the registry
/// mid-run with [`crate::MetricsServer`] or render it directly.
#[derive(Debug, Clone)]
pub struct Telemetry {
    registry: Arc<MetricsRegistry>,
    ground_truth: Option<GroundTruth>,
    expected_matches: Option<u64>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Telemetry into a fresh registry.
    pub fn new() -> Self {
        Self::with_registry(MetricsRegistry::shared())
    }

    /// Telemetry into an existing (possibly shared) registry.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        Telemetry {
            registry,
            ground_truth: None,
            expected_matches: None,
        }
    }

    /// Estimates recall exactly, against a known ground truth (emitted
    /// comparisons are credited once per true match — the paper's PC).
    pub fn with_ground_truth(mut self, ground_truth: GroundTruth) -> Self {
        self.ground_truth = Some(ground_truth);
        self
    }

    /// Estimates recall as `confirmed / expected` when no ground truth is
    /// available (the operator's prior for the stream's duplicate count).
    pub fn with_expected_matches(mut self, expected: u64) -> Self {
        self.expected_matches = Some(expected.max(1));
        self
    }

    /// The registry drivers and exporters share.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Builds the event bridge for this configuration.
    pub fn observer(&self) -> Arc<MetricsObserver> {
        Arc::new(MetricsObserver::new(self))
    }
}

/// The event→metrics bridge: [`StatsObserver`] — the one fold of the event
/// stream — folding into this registry's atoms, so every counter and
/// histogram a scrape shows *is* the word a [`StatsSnapshot`] of
/// [`MetricsObserver::stats`] reads (the attribution rules are the fold's;
/// see its docs). On top of the fold, only what a scrape has and a snapshot
/// has not:
///
/// * `pier_recall_estimate` — the fold's live PC when a ground truth is
///   attached, else `confirmed / expected` (PC over time is the fold's
///   [`StatsObserver::trajectory`], or a replay of the event log);
/// * the supervision families broken down by label
///   (`pier_worker_restarts_total{role}`, `pier_recovery_seconds{role}`,
///   `pier_dead_letters_total{reason}`), whose totals the fold keeps.
///
/// [`StatsSnapshot`]: pier_observe::StatsSnapshot
pub struct MetricsObserver {
    registry: Arc<MetricsRegistry>,
    fold: StatsObserver,
    recall: Arc<FloatGauge>,
    expected_matches: Option<u64>,
}

impl MetricsObserver {
    /// Builds the bridge, registering the global families up front so a
    /// scrape taken before any event still shows the full schema.
    pub fn new(telemetry: &Telemetry) -> Self {
        let registry = Arc::clone(&telemetry.registry);
        MetricsObserver {
            fold: StatsObserver::with_atoms(
                Arc::clone(&registry) as Arc<dyn AtomSource>,
                telemetry.ground_truth.clone(),
            ),
            recall: registry.float_gauge(
                "pier_recall_estimate",
                "Estimated progressive recall (PC against ground truth, or confirmed/expected).",
                &[],
            ),
            registry,
            // The operator's prior only counts where there is no truth.
            expected_matches: match telemetry.ground_truth {
                Some(_) => None,
                None => telemetry.expected_matches,
            },
        }
    }

    /// The fold behind the scrape: its snapshot reads the registry's atoms.
    pub fn stats(&self) -> &StatsObserver {
        &self.fold
    }

    /// The labelled supervision families, before the fold sees the event
    /// (a tagged restart registers them ahead of its lane's own families).
    /// Supervision events are orders of magnitude rarer than the fold's hot
    /// counters, so they resolve through the registry on demand instead of
    /// being cached per label.
    fn publish_supervision(&self, event: &Event) {
        let r = &self.registry;
        match *event {
            Event::WorkerRestarted {
                role,
                recovery_secs,
                ..
            } => {
                let role: &[(&str, &str)] = &[("role", role.name())];
                let help = "Supervisor worker restarts.";
                r.counter("pier_worker_restarts_total", help, role).inc();
                let help = "Panic-to-resumed-stream recovery latency.";
                r.histogram("pier_recovery_seconds", help, role)
                    .record_secs(recovery_secs);
            }
            Event::DeadLettered { reason, .. } => {
                let help = "Profiles/pairs quarantined into the dead-letter queue.";
                r.counter(
                    "pier_dead_letters_total",
                    help,
                    &[("reason", reason.name())],
                )
                .inc();
            }
            _ => {}
        }
    }

    /// The recall gauge, after the fold has counted the event.
    fn publish_recall(&self, event: &Event) {
        match *event {
            Event::ComparisonEmitted { .. } => {
                if let Some(pc) = self.fold.pc() {
                    self.recall.set(pc);
                }
            }
            Event::MatchConfirmed { .. } => {
                if let Some(expected) = self.expected_matches {
                    let confirmed = self.fold.matches_confirmed() as f64;
                    self.recall.set((confirmed / expected as f64).min(1.0));
                }
            }
            _ => {}
        }
    }
}

impl PipelineObserver for MetricsObserver {
    fn on_event(&self, event: &Event) {
        self.publish_supervision(event);
        self.fold.on_event(event);
        self.publish_recall(event);
    }

    fn on_shard_event(&self, shard: u16, event: &Event) {
        self.publish_supervision(event);
        self.fold.on_shard_event(shard, event);
        self.publish_recall(event);
    }

    fn on_worker_event(&self, worker: u16, event: &Event) {
        self.publish_supervision(event);
        self.fold.on_worker_event(worker, event);
        self.publish_recall(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_observe::Phase;
    use pier_types::{Comparison, ProfileId};

    fn cmp(a: u32, b: u32) -> Comparison {
        Comparison::new(ProfileId(a), ProfileId(b))
    }

    fn read_counter(t: &Telemetry, name: &str, labels: &[(&str, &str)]) -> u64 {
        t.registry().counter(name, "", labels).get()
    }

    #[test]
    fn events_become_counters() {
        let t = Telemetry::new();
        let obs = t.observer();
        obs.on_event(&Event::IncrementIngested {
            seq: 0,
            profiles: 3,
        });
        obs.on_event(&Event::BlockBuilt { block: 1 });
        obs.on_event(&Event::BlockPurged { block: 1, size: 9 });
        obs.on_event(&Event::BlockGhosted {
            profile: ProfileId(0),
            kept: 2,
            dropped: 1,
        });
        obs.on_event(&Event::ComparisonEmitted {
            cmp: cmp(0, 1),
            weight: 1.0,
        });
        obs.on_event(&Event::CfFiltered { cmp: cmp(0, 1) });
        obs.on_event(&Event::MatchConfirmed {
            cmp: cmp(0, 1),
            similarity: 0.9,
            at_secs: 0.1,
        });
        obs.on_event(&Event::AdaptiveKChanged {
            old_k: 64,
            new_k: 80,
        });
        obs.on_event(&Event::PhaseTiming {
            phase: Phase::Block,
            secs: 1e-5,
        });
        assert_eq!(read_counter(&t, "pier_increments_total", &[]), 1);
        assert_eq!(read_counter(&t, "pier_profiles_total", &[]), 3);
        assert_eq!(read_counter(&t, "pier_blocks_built_total", &[]), 1);
        assert_eq!(read_counter(&t, "pier_blocks_purged_total", &[]), 1);
        assert_eq!(read_counter(&t, "pier_ghost_kept_total", &[]), 2);
        assert_eq!(read_counter(&t, "pier_ghost_dropped_total", &[]), 1);
        assert_eq!(read_counter(&t, "pier_comparisons_emitted_total", &[]), 1);
        assert_eq!(read_counter(&t, "pier_cf_filtered_total", &[]), 1);
        assert_eq!(read_counter(&t, "pier_matches_confirmed_total", &[]), 1);
        assert_eq!(read_counter(&t, "pier_adaptive_k_changes_total", &[]), 1);
        assert_eq!(t.registry().gauge("pier_adaptive_k", "", &[]).get(), 80);
        let h = t
            .registry()
            .histogram("pier_phase_seconds", "", &[("phase", "block")]);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn ground_truth_recall_tracks_pc() {
        let gt =
            GroundTruth::from_pairs([(ProfileId(0), ProfileId(1)), (ProfileId(2), ProfileId(3))]);
        let t = Telemetry::new().with_ground_truth(gt);
        let obs = t.observer();
        let emit = |c| {
            obs.on_event(&Event::ComparisonEmitted {
                cmp: c,
                weight: 1.0,
            })
        };
        emit(cmp(0, 1)); // match
        emit(cmp(0, 2)); // miss
        emit(cmp(0, 1)); // repeat — no double credit
        let recall = t.registry().float_gauge("pier_recall_estimate", "", &[]);
        assert!((recall.get() - 0.5).abs() < 1e-12);
        emit(cmp(2, 3));
        assert!((recall.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_matches_recall_is_a_ratio() {
        let t = Telemetry::new().with_expected_matches(4);
        let obs = t.observer();
        for i in 0..2 {
            obs.on_event(&Event::MatchConfirmed {
                cmp: cmp(i, i + 10),
                similarity: 1.0,
                at_secs: 0.0,
            });
        }
        let recall = t.registry().float_gauge("pier_recall_estimate", "", &[]);
        assert!((recall.get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shard_increments_stay_per_shard() {
        let t = Telemetry::new();
        let obs = t.observer();
        obs.on_shard_event(
            1,
            &Event::IncrementIngested {
                seq: 0,
                profiles: 5,
            },
        );
        obs.on_shard_event(1, &Event::BlockBuilt { block: 3 });
        // Fan-out duplicates must not pollute the global profile total.
        assert_eq!(read_counter(&t, "pier_profiles_total", &[]), 0);
        assert_eq!(read_counter(&t, "pier_increments_total", &[]), 0);
        assert_eq!(read_counter(&t, "pier_blocks_built_total", &[]), 1);
        assert_eq!(
            read_counter(&t, "pier_shard_profiles_total", &[("shard", "1")]),
            5
        );
        assert_eq!(
            read_counter(&t, "pier_shard_blocks_built_total", &[("shard", "1")]),
            1
        );
        // Shard 0's families were registered (lazily) up to the max id.
        assert_eq!(
            read_counter(&t, "pier_shard_profiles_total", &[("shard", "0")]),
            0
        );
    }

    #[test]
    fn worker_classify_timings_stay_out_of_global_histogram() {
        let t = Telemetry::new();
        let obs = t.observer();
        obs.on_event(&Event::PhaseTiming {
            phase: Phase::Classify,
            secs: 0.010,
        });
        obs.on_worker_event(
            0,
            &Event::PhaseTiming {
                phase: Phase::Classify,
                secs: 0.004,
            },
        );
        let global = t
            .registry()
            .histogram("pier_phase_seconds", "", &[("phase", "classify")]);
        assert_eq!(global.count(), 1);
        let per_worker =
            t.registry()
                .histogram("pier_worker_classify_seconds", "", &[("worker", "0")]);
        assert_eq!(per_worker.count(), 1);
        // Worker-tagged non-classify events still count globally.
        obs.on_worker_event(
            0,
            &Event::MatchConfirmed {
                cmp: cmp(0, 1),
                similarity: 1.0,
                at_secs: 0.0,
            },
        );
        assert_eq!(read_counter(&t, "pier_matches_confirmed_total", &[]), 1);
        assert_eq!(
            read_counter(
                &t,
                "pier_worker_matches_confirmed_total",
                &[("worker", "0")]
            ),
            1
        );
    }

    #[test]
    fn schema_is_registered_before_any_event() {
        let t = Telemetry::new();
        let _obs = t.observer();
        assert!(t.registry().family_count() >= 10, "global schema up front");
        let text = t.registry().render_prometheus();
        assert!(text.contains("# TYPE pier_comparisons_emitted_total counter"));
        assert!(text.contains("# TYPE pier_phase_seconds histogram"));
    }
}
