//! The four named workloads: what each feeds the pipeline and how the
//! pipeline is configured for it. The seed reaches only the corpus
//! generator; the program under test receives generated profiles.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pier_core::{PierConfig, Strategy};
use pier_datagen::{
    generate_census, generate_dbpedia, generate_movies, CensusConfig, DbpediaConfig, MoviesConfig,
};
use pier_entity::EntityIndex;
use pier_matching::{EditDistanceMatcher, JaccardMatcher, MatchFunction};
use pier_metrics::Telemetry;
use pier_observe::{PipelineObserver, StatsObserver};
use pier_runtime::{Pipeline, PipelineBuilder, RuntimeConfig};
use pier_shard::ShardedConfig;
use pier_types::{Dataset, EntityProfile};

/// One common factor on every workload's profile count (ISSUE 11: "scale
/// all profile counts by one common factor before shortening any single
/// workload"). The issue's sizes (33 600 / 33 000 / 16 800 / 30 000
/// profiles) give passes of 11–22 s; the acceptance protocol makes 92 runs
/// inside 57 minutes and wants a median over several passes from each, so
/// one pass has to last 3–4 s.
pub const SCALE: f64 = 0.3;

/// `--smoke` multiplies [`SCALE`] by this.
pub const SMOKE_FACTOR: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corpus {
    /// `generate_dbpedia`, sized as a multiple of its default scale.
    Dbpedia { factor: f64 },
    /// `generate_movies`, sized as a multiple of its default scale.
    Movies { factor: f64 },
    /// `generate_census` with this many target profiles (Dirty ER).
    Census { profiles: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatcherKind {
    Js,
    Ed,
}

/// One workload: inputs, pipeline shape, and the recall floor a correct
/// run clears.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub corpus: Corpus,
    /// Profiles per increment (the last increments may hold one fewer).
    pub increment_size: usize,
    /// Open-loop source period; 0 is the paper's static setting.
    pub interarrival_ms: u64,
    pub matcher: MatcherKind,
    /// The "everything switched on" shape: 2 shards (I-PCS/CBS) × 2 match
    /// workers with telemetry, the entity index and a `StatsObserver`.
    pub wide: bool,
    /// `final_pc` below this fails the run. The lowest value seen over 20
    /// seeds at [`SCALE`] and 6 at smoke size is 0.9996 / 0.9884 / 0.9941 /
    /// 0.9942 for the four workloads; each floor sits about 0.01 below.
    pub pc_floor: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dbpedia-js-static",
        why: "Static setting, heavy-token corpus, cheap matcher: tokenize, block, weight \
              and prioritize set t_pc90_s and the drain tail measures emitter, CF \
              and materialize; the matcher does little",
        corpus: Corpus::Dbpedia { factor: 1.0 },
        increment_size: 112,
        interarrival_ms: 0,
        matcher: MatcherKind::Js,
        wide: false,
        pc_floor: 0.99,
    },
    Workload {
        name: "movies-ed-static",
        why: "Same executor with stage B dominant: edit distance is about three \
              quarters of wall_s, so a stage-A change must not move it and a \
              matcher change must",
        corpus: Corpus::Movies { factor: 3.0 },
        increment_size: 110,
        interarrival_ms: 0,
        matcher: MatcherKind::Ed,
        wide: false,
        pc_floor: 0.98,
    },
    Workload {
        name: "dbpedia-js-stream",
        why: "Open loop, 100 profiles every 60 ms: ingest interleaves with pulls, \
              idle ticks and AdaptiveK run; a change that batches ingest helps \
              the static workload and hurts match delay here",
        corpus: Corpus::Dbpedia { factor: 0.5 },
        increment_size: 100,
        interarrival_ms: 60,
        matcher: MatcherKind::Js,
        wide: false,
        pc_floor: 0.98,
    },
    Workload {
        name: "census-ed-wide-stream",
        why: "Dirty ER, 200 profiles every 50 ms through 2 shards x 2 match workers \
              with telemetry, entity index and StatsObserver: the only workload \
              that runs shard, pool, entity, observe and metrics",
        corpus: Corpus::Census { profiles: 30_000 },
        increment_size: 200,
        interarrival_ms: 50,
        matcher: MatcherKind::Ed,
        wide: true,
        pc_floor: 0.98,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload's generated inputs.
pub struct Inputs {
    pub dataset: Dataset,
    pub increments: Vec<Vec<EntityProfile>>,
    /// Increment sequence number each profile arrives in, by profile id.
    pub arrival_seq: Vec<u32>,
    /// Seconds spent generating the corpus and splitting it.
    pub setup_s: f64,
}

impl Workload {
    pub fn interarrival(&self) -> Duration {
        Duration::from_millis(self.interarrival_ms)
    }

    pub fn matcher(&self) -> Arc<dyn MatchFunction> {
        match self.matcher {
            MatcherKind::Js => Arc::new(JaccardMatcher::default()),
            MatcherKind::Ed => Arc::new(EditDistanceMatcher::default()),
        }
    }

    pub fn shards(&self) -> Option<ShardedConfig> {
        self.wide.then(|| ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        })
    }

    /// Generates the corpus from `seed` and splits it into increments.
    /// `scale` multiplies the profile count; the increment size stays, so
    /// the number of increments (and a stream's duration) scales with it.
    pub fn prepare(&self, seed: u64, scale: f64) -> Inputs {
        let t0 = Instant::now();
        let sized = |n: usize, factor: f64| ((n as f64 * factor * scale).round() as usize).max(2);
        let dataset = match self.corpus {
            Corpus::Dbpedia { factor } => {
                let d = DbpediaConfig::default();
                generate_dbpedia(&DbpediaConfig {
                    seed,
                    source0_size: sized(d.source0_size, factor),
                    source1_size: sized(d.source1_size, factor),
                    matches: sized(d.matches, factor),
                })
            }
            Corpus::Movies { factor } => {
                let d = MoviesConfig::default();
                generate_movies(&MoviesConfig {
                    seed,
                    source0_size: sized(d.source0_size, factor),
                    source1_size: sized(d.source1_size, factor),
                    matches: sized(d.matches, factor),
                })
            }
            Corpus::Census { profiles } => generate_census(&CensusConfig {
                seed,
                target_profiles: sized(profiles, 1.0),
            }),
        };
        let n = dataset.len().div_ceil(self.increment_size).max(1);
        let increments: Vec<Vec<EntityProfile>> = dataset
            .into_increments(n)
            .expect("1 <= n <= profiles")
            .into_iter()
            .map(|inc| inc.profiles)
            .collect();
        let mut arrival_seq = vec![0u32; dataset.len()];
        for (seq, inc) in increments.iter().enumerate() {
            for p in inc {
                arrival_seq[p.id.index()] = seq as u32;
            }
        }
        Inputs {
            dataset,
            increments,
            arrival_seq,
            setup_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// The pipeline this workload measures, and its telemetry handle if it
    /// has one. `traced` switches telemetry on for workloads that run
    /// without it, and `extra` attaches one more observer.
    pub fn pipeline(
        &self,
        inputs: &Inputs,
        traced: bool,
        extra: Option<Arc<dyn PipelineObserver>>,
    ) -> (Pipeline, Option<Telemetry>) {
        let telemetry = (self.wide || traced).then(Telemetry::new);
        let entities = self.wide.then(EntityIndex::shared);
        let stats = self.wide.then(|| Arc::new(StatsObserver::new()));
        let config = RuntimeConfig {
            interarrival: self.interarrival(),
            match_workers: if self.wide { 2 } else { 1 },
            // Full drain: neither cap may end a run (checked afterwards).
            max_comparisons: MAX_COMPARISONS,
            deadline: DEADLINE,
            telemetry: telemetry.clone(),
            entities,
            ..RuntimeConfig::default()
        };
        let mut builder: PipelineBuilder = Pipeline::builder(inputs.dataset.kind).config(config);
        builder = match self.shards() {
            Some(sharded) => builder.sharded(sharded),
            None => builder.emitter(Strategy::Pes.build(PierConfig::default())),
        };
        if let Some(stats) = stats {
            builder = builder.observe("stats", stats as Arc<dyn PipelineObserver>);
        }
        if let Some(extra) = extra {
            builder = builder.observe("e2e-recorder", extra);
        }
        let pipeline = builder.build().expect("workload configurations are valid");
        (pipeline, telemetry)
    }
}

/// Comparison cap no workload comes near (the largest executes ~2 M).
pub const MAX_COMPARISONS: u64 = 1_000_000_000;
/// Wall-clock cap no healthy run reaches; a run that does is reported as
/// failed instead of hanging the benchmark.
pub const DEADLINE: Duration = Duration::from_secs(150);
