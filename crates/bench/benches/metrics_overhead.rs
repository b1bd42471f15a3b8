//! The ≤5% overhead contract of `pier-metrics`, measured.
//!
//! Three comparisons:
//!
//! 1. **pipeline** — the full synchronous PIER pipeline (stage A + B on
//!    one thread, so the timing is deterministic) in three rungs: no
//!    observer at all, an enabled observer with a do-nothing sink, and a
//!    live [`MetricsObserver`] publishing into a registry that is never
//!    scraped. The gated measurement is metered vs. noop — the marginal
//!    cost of the metrics sink itself, with the cost of the observation
//!    substrate (the e2e ledger's `observe.ns_per_event` and
//!    `runtime.trace_overhead_pct` report it) held equal on both sides.
//!    The contract from DESIGN.md §11: within 5%.
//! 2. **queue** — passing messages through the [`GaugedSender`] /
//!    [`GaugedReceiver`] wrappers with gauges attached vs. the same
//!    wrappers in plain mode (what an unmetered run uses). Reported, not
//!    gated: the absolute cost is a few atomics per message.
//! 3. **run** — the real threaded streaming driver, unmetered vs. with
//!    [`Telemetry`] attached. Reported (median and min) but not gated:
//!    on a shared single-CPU host the wall clock of a multi-threaded
//!    pipeline swings ±15% run-to-run from scheduler interference alone,
//!    so a 5% gate on it would measure the container, not the code.
//!
//! A final instrumented run samples the registry from a monitor thread
//! while the pipeline executes and writes the observed queue-depth,
//! recall-estimate, and comparison timelines as CSVs — the raw material
//! for the `metrics_overhead` figure. Run with
//! `cargo bench --bench metrics_overhead`; CSVs land in
//! `target/experiments/metrics_overhead/`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, Criterion};

use pier_bench::{write_note, FigureReport};
use pier_core::{Ipes, PierConfig, PierPipeline, Strategy};
use pier_datagen::{generate_bibliographic, BibliographicConfig};
use pier_matching::{JaccardMatcher, MatchFunction};
use pier_metrics::{queue, MetricsRegistry, QueueGauges, Telemetry};
use pier_observe::{NoopObserver, Observer, PipelineObserver};
use pier_runtime::{Pipeline, RuntimeConfig};
use pier_types::{Dataset, EntityProfile};

const ID: &str = "metrics_overhead";
const INCREMENTS: usize = 10;

fn corpus() -> Dataset {
    generate_bibliographic(&BibliographicConfig {
        seed: 23,
        source0_size: 700,
        source1_size: 550,
        matches: 450,
    })
}

fn increments(dataset: &Dataset) -> Vec<Vec<EntityProfile>> {
    dataset
        .into_increments(INCREMENTS)
        .unwrap()
        .into_iter()
        .map(|i| i.profiles)
        .collect()
}

fn config(telemetry: Option<Telemetry>, interarrival: Duration) -> RuntimeConfig {
    RuntimeConfig {
        interarrival,
        deadline: Duration::from_secs(30),
        match_workers: 2,
        telemetry,
        ..RuntimeConfig::default()
    }
}

fn threaded_run(
    dataset: &Dataset,
    incs: &[Vec<EntityProfile>],
    telemetry: Option<Telemetry>,
) -> usize {
    let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
    let report = Pipeline::builder(dataset.kind)
        .config(config(telemetry, Duration::ZERO))
        .emitter(Box::new(Ipes::new(PierConfig::default())))
        .build()
        .expect("bench config validates")
        .run(incs.to_vec(), matcher, |_| {});
    report.matches.len()
}

fn sync_pipeline(dataset: &Dataset, observer: Option<Observer>) -> usize {
    let mut pl = PierPipeline::new(
        dataset.kind,
        Strategy::Pes,
        PierConfig::default(),
        JaccardMatcher::default(),
    );
    if let Some(obs) = observer {
        pl.set_observer(obs);
    }
    for chunk in dataset.profiles.chunks(125) {
        pl.push_increment(chunk);
        pl.drain(10_000);
    }
    pl.duplicates().len()
}

fn overhead_pct(base_ns: f64, other_ns: f64) -> f64 {
    (other_ns / base_ns - 1.0) * 100.0
}

fn main() {
    let dataset = corpus();
    let incs = increments(&dataset);
    println!(
        "corpus: {} profiles in {} increments, {} true matches",
        incs.iter().map(Vec::len).sum::<usize>(),
        incs.len(),
        dataset.ground_truth.len()
    );

    let mut c = Criterion::default().sample_size(15);

    // 1. Gated: the deterministic synchronous pipeline — unmetered, then
    // an enabled observer with a do-nothing sink, then a live metrics
    // bridge counting every event into the registry. The three configs
    // are timed in interleaved rounds (one run of each per round) so that
    // slow drift on a shared host — CPU frequency, co-tenant load — hits
    // every config equally, and the gate reads the median of the
    // per-round metered/noop ratios, which that drift cancels out of.
    let telemetry = Telemetry::new();
    let noop: Arc<dyn PipelineObserver> = Arc::new(NoopObserver);
    let sink: Arc<dyn PipelineObserver> = telemetry.observer();
    let time_one = |observer: Option<Observer>| {
        let start = Instant::now();
        black_box(sync_pipeline(&dataset, observer));
        start.elapsed().as_nanos() as f64
    };
    const ROUNDS: usize = 21;
    let mut unmetered_ns = Vec::with_capacity(ROUNDS);
    let mut noop_ns = Vec::with_capacity(ROUNDS);
    let mut metered_ns = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS + 2 {
        let u = time_one(None);
        let n = time_one(Some(Observer::new(noop.clone())));
        let m = time_one(Some(Observer::new(sink.clone())));
        if round < 2 {
            continue; // warm-up rounds
        }
        unmetered_ns.push(u);
        noop_ns.push(n);
        metered_ns.push(m);
        ratios.push(m / n);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    let pipeline_unmetered = median(&mut unmetered_ns);
    let pipeline_noop = median(&mut noop_ns);
    let pipeline_metered = median(&mut metered_ns);
    let pipeline_pct = (median(&mut ratios) - 1.0) * 100.0;
    println!("\n=== pipeline ladder (sync, {ROUNDS} interleaved rounds, median ns/run) ===");
    println!("pipeline/unmetered           {pipeline_unmetered:>14.0} ns");
    println!(
        "pipeline/observed-noop       {:>14.0} ns  ({:+6.2}% vs unmetered)",
        pipeline_noop,
        overhead_pct(pipeline_unmetered, pipeline_noop)
    );
    println!(
        "pipeline/metered-unscraped   {:>14.0} ns  ({:+6.2}% vs noop, median of per-round ratios)",
        pipeline_metered, pipeline_pct
    );

    // 2. Reported: the gauged-channel wrapper with and without gauges.
    const MSGS: usize = 4096;
    let queue_plain = c.measure("queue/plain", &mut |bench| {
        let (tx, rx) = queue::gauged(crossbeam::channel::bounded::<u64>(MSGS), None);
        bench.iter(|| {
            for i in 0..MSGS as u64 {
                tx.send(black_box(i)).unwrap();
            }
            let mut drained = 0usize;
            while rx.try_recv().is_some() {
                drained += 1;
            }
            drained
        })
    });
    let registry = MetricsRegistry::new();
    let gauges = QueueGauges::register(&registry, &[("queue", "bench")], Some(MSGS));
    let queue_gauged = c.measure("queue/gauged", &mut |bench| {
        let (tx, rx) = queue::gauged(
            crossbeam::channel::bounded::<u64>(MSGS),
            Some(gauges.clone()),
        );
        bench.iter(|| {
            for i in 0..MSGS as u64 {
                tx.send(black_box(i)).unwrap();
            }
            let mut drained = 0usize;
            while rx.try_recv().is_some() {
                drained += 1;
            }
            drained
        })
    });

    // 3. Reported: the real threaded driver. Median and min both shown;
    // see the module docs for why this one carries no gate.
    let run_unmetered = c.measure("run/unmetered", &mut |bench| {
        bench.iter(|| threaded_run(&dataset, &incs, None))
    });
    let run_metered = c.measure("run/metered-unscraped", &mut |bench| {
        bench.iter(|| threaded_run(&dataset, &incs, Some(telemetry.clone())))
    });

    println!("\n=== queue wrapper and threaded driver ===");
    for (m, base) in [
        (&queue_plain, &queue_plain),
        (&queue_gauged, &queue_plain),
        (&run_unmetered, &run_unmetered),
        (&run_metered, &run_unmetered),
    ] {
        println!(
            "{:28} median {:>12.0} ns ({:+6.2}%)   min {:>12.0} ns ({:+6.2}%)",
            m.name,
            m.median_ns,
            overhead_pct(base.median_ns, m.median_ns),
            m.min_ns,
            overhead_pct(base.min_ns, m.min_ns),
        );
    }

    // Instrumented showcase run: sample the registry mid-flight the way a
    // Prometheus scraper would see it, and keep the timelines.
    let live = Telemetry::new().with_ground_truth(dataset.ground_truth.clone());
    let registry = Arc::clone(live.registry());
    let depth_increments = registry.gauge("pier_queue_depth", "", &[("queue", "increments")]);
    let depth_matches = registry.gauge("pier_queue_depth", "", &[("queue", "matches")]);
    let recall = registry.float_gauge("pier_recall_estimate", "", &[]);
    let comparisons = registry.counter("pier_comparisons_total", "", &[]);

    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let start = Instant::now();
            let mut depth_inc_rows = Vec::new();
            let mut depth_match_rows = Vec::new();
            let mut recall_rows = Vec::new();
            let mut comparison_rows = Vec::new();
            while !done.load(Ordering::Relaxed) {
                let t = start.elapsed().as_secs_f64();
                // Depth inc (send side) and dec (recv side) are separate
                // atomics, so a sample can catch a transient -1; clamp.
                depth_inc_rows.push((t, depth_increments.get().max(0) as f64));
                depth_match_rows.push((t, depth_matches.get().max(0) as f64));
                recall_rows.push((t, recall.get()));
                comparison_rows.push((t, comparisons.get() as f64));
                std::thread::sleep(Duration::from_millis(1));
            }
            (
                depth_inc_rows,
                depth_match_rows,
                recall_rows,
                comparison_rows,
            )
        })
    };
    // A small interarrival gap stretches the run so the sampler catches
    // the queues both filling and draining.
    let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
    let report = Pipeline::builder(dataset.kind)
        .config(config(Some(live), Duration::from_millis(2)))
        .emitter(Box::new(Ipes::new(PierConfig::default())))
        .build()
        .expect("bench config validates")
        .run(incs.clone(), matcher, |_| {});
    done.store(true, Ordering::Relaxed);
    let (depth_inc_rows, depth_match_rows, recall_rows, comparison_rows) = sampler.join().unwrap();
    println!(
        "\nsampled run: {} matches, {} comparisons, {} registry samples",
        report.matches.len(),
        report.comparisons,
        recall_rows.len()
    );

    let mut fig = FigureReport::new(ID);
    fig.add_series(
        "overhead_pct",
        "config",
        vec![(0.0, 0.0), (1.0, pipeline_pct.max(0.0))],
    );
    fig.add_series("queue_depth_increments", "time_s", depth_inc_rows);
    fig.add_series("queue_depth_matches", "time_s", depth_match_rows);
    fig.add_series("recall_trajectory", "time_s", recall_rows);
    fig.add_series("comparisons_total", "time_s", comparison_rows);
    fig.emit();
    write_note(
        ID,
        "NOTE.txt",
        &format!(
            "metrics_overhead: {} profiles, {} increments.\n\
             pipeline (sync): unmetered {:.0} ns, noop-observed {:.0} ns,\n\
             metered {:.0} ns ({:+.2}% vs noop -- the gated marginal cost\n\
             of the metrics sink; the e2e ledger's observe.ns_per_event and\n\
             runtime.trace_overhead_pct report the substrate)\n\
             queue wrapper per {} msgs: plain {:.0} ns, gauged {:.0} ns ({:+.2}%)\n\
             threaded run (reported): unmetered median {:.0} / min {:.0} ns,\n\
                                      metered   median {:.0} / min {:.0} ns\n\
             The gate runs on the synchronous pipeline because the threaded\n\
             wall clock on a shared 1-CPU host swings +/-15% from scheduler\n\
             interference alone.\n\
             Timelines sampled every 1 ms from a live registry during an\n\
             instrumented run with a 2 ms interarrival gap.\n",
            incs.iter().map(Vec::len).sum::<usize>(),
            incs.len(),
            pipeline_unmetered,
            pipeline_noop,
            pipeline_metered,
            pipeline_pct,
            MSGS,
            queue_plain.median_ns,
            queue_gauged.median_ns,
            overhead_pct(queue_plain.median_ns, queue_gauged.median_ns),
            run_unmetered.median_ns,
            run_unmetered.min_ns,
            run_metered.median_ns,
            run_metered.min_ns,
        ),
    );

    println!(
        "\nmetered-but-unscraped pipeline overhead: {pipeline_pct:+.2}% (contract: within 5%)"
    );
    assert!(
        pipeline_pct < 5.0,
        "telemetry overhead {pipeline_pct:.2}% exceeds the 5% contract"
    );
}
