//! Live observability of a streaming ER run.
//!
//! Builds one [`Pipeline`] — whatever the flags say — and attaches a
//! [`StatsObserver`] sink that a monitor thread snapshots *while the
//! pipeline runs*: increments ingested, blocks built/purged, comparisons
//! emitted, matches confirmed, the live pair-completeness timeline, and
//! per-phase latency percentiles. At startup the example prints the
//! composed observer list (`observers: [...]`) — the caller's labelled
//! sinks plus the implicit `metrics` / `entities` sinks the configuration
//! adds.
//!
//! Run with: `cargo run --release --example observed_stream`
//!
//! Pass `--shards N` to run the hash-partitioned stage A instead
//! (`PipelineBuilder::sharded` with `N` shard threads); the final
//! snapshot then includes a per-shard work breakdown.
//!
//! Pass `--intern-stats` to print the shared token dictionary's footprint
//! after the run: distinct tokens interned, token occurrences streamed,
//! and the bytes the id-based data path saved over shipping an owned
//! `String` per occurrence.
//!
//! Pass `--stage-a-stats` to print the end-of-run occupancy of the
//! stage-A hot-path structures: the dense block slab (slots allocated vs
//! blocks created) and the epoch-stamped I-WNP scratch accumulator (slot
//! capacity and the largest single-arrival neighborhood it accumulated).
//!
//! Pass `--match-workers N` to fan stage-B matcher evaluations out over
//! `N` parallel workers (default: the machine's available parallelism;
//! `1` reproduces the sequential executor exactly). The final snapshot
//! then includes a per-worker classify breakdown.
//!
//! Pass `--metrics-addr HOST:PORT` (port 0 for an OS-assigned port) to
//! attach the live telemetry subsystem and serve a Prometheus text
//! endpoint while the pipeline runs — the example prints a one-line
//! scrape hint and a final gauge snapshot. Add `--hold-metrics-secs N`
//! to keep the endpoint alive after the run until it has served at least
//! one scrape (or `N` seconds pass), which makes external scrapers
//! race-free.
//!
//! Pass `--trace-out FILE` to export a chrome-trace/Perfetto JSON of the
//! run's phase timings (openable at <https://ui.perfetto.dev>). The run is
//! logged by a [`JsonlObserver`] (labelled `events`) to `FILE.events.jsonl`,
//! and the trace is replayed from that log once the run is over.
//!
//! Pass `--entity-addr HOST:PORT` (port 0 for an OS-assigned port) to
//! maintain a live [`EntityIndex`] over the confirmed-match stream and
//! serve it over HTTP while the pipeline runs (`GET /entity/{id}`,
//! `GET /clusters`, `GET /healthz`). The example prints a one-line query
//! hint and a final entity summary. `--hold-metrics-secs N` also keeps
//! this endpoint alive until it has served at least one request.
//!
//! Pass `--fault-plan FILE` to arm deterministic chaos injection from a
//! JSON [`FaultPlan`] (see `FaultPlan::to_json` for the format), and/or
//! `--chaos-seed N` to override the plan's seed (alone, it arms an
//! empty plan — every chaos check taken, no fault fired). The final
//! report then prints the supervision ledger: dead letters, worker
//! restarts, and shed comparisons.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pier::prelude::*;

fn parse_shards() -> Option<u16> {
    let args: Vec<String> = std::env::args().collect();
    let pos = args.iter().position(|a| a == "--shards")?;
    let n = args
        .get(pos + 1)
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .expect("--shards takes a positive shard count");
    Some(n)
}

fn parse_intern_stats() -> bool {
    std::env::args().any(|a| a == "--intern-stats")
}

fn parse_stage_a_stats() -> bool {
    std::env::args().any(|a| a == "--stage-a-stats")
}

fn parse_match_workers() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let pos = args.iter().position(|a| a == "--match-workers")?;
    let n = args
        .get(pos + 1)
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .expect("--match-workers takes a positive worker count");
    Some(n)
}

fn parse_value_arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let pos = args.iter().position(|a| a == flag)?;
    Some(
        args.get(pos + 1)
            .unwrap_or_else(|| panic!("{flag} takes a value"))
            .clone(),
    )
}

fn main() {
    let shards = parse_shards();
    let intern_stats = parse_intern_stats();
    let stage_a_stats = parse_stage_a_stats();
    let match_workers = parse_match_workers();
    let metrics_addr = parse_value_arg("--metrics-addr");
    let entity_addr = parse_value_arg("--entity-addr");
    let trace_out = parse_value_arg("--trace-out");
    let hold_metrics_secs: u64 = parse_value_arg("--hold-metrics-secs")
        .map(|v| v.parse().expect("--hold-metrics-secs takes seconds"))
        .unwrap_or(0);
    // Chaos flags: a JSON fault plan, an optional seed override, or a
    // seed alone (arms the chaos checks without firing any fault).
    let fault_plan = parse_value_arg("--fault-plan").map(|path| {
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("--fault-plan {path} is unreadable: {e}"));
        FaultPlan::from_json(&json).unwrap_or_else(|e| panic!("--fault-plan {path}: {e}"))
    });
    let chaos_seed: Option<u64> =
        parse_value_arg("--chaos-seed").map(|v| v.parse().expect("--chaos-seed takes an integer"));
    let fault_plan = match (fault_plan, chaos_seed) {
        (Some(mut plan), Some(seed)) => {
            plan.seed = seed;
            Some(plan)
        }
        (plan @ Some(_), None) => plan,
        (None, Some(seed)) => Some(FaultPlan::empty(seed)),
        (None, None) => None,
    };
    if let Some(plan) = &fault_plan {
        println!(
            "chaos: armed with {} fault(s), seed {}",
            plan.faults.len(),
            plan.seed
        );
    }
    // The bibliographic corpus: two clean sources with known duplicates.
    let dataset = generate_bibliographic(&BibliographicConfig {
        seed: 42,
        source0_size: 600,
        source1_size: 500,
        matches: 450,
    });
    let increments: Vec<Vec<EntityProfile>> = dataset
        .into_increments(20)
        .unwrap()
        .into_iter()
        .map(|i| i.profiles)
        .collect();
    println!(
        "streaming {} profiles in {} increments ({} true matches)",
        increments.iter().map(Vec::len).sum::<usize>(),
        increments.len(),
        dataset.ground_truth.len()
    );

    // A StatsObserver with the ground truth keeps a live PC timeline.
    let stats = Arc::new(StatsObserver::with_ground_truth(
        dataset.ground_truth.clone(),
    ));

    // Monitor thread: print a progress line every 20 ms until the run ends.
    let done = Arc::new(AtomicBool::new(false));
    let monitor = {
        let stats = Arc::clone(&stats);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                let s = stats.snapshot();
                println!(
                    "[{:6.3}s] inc={:<3} blocks={:<5} emitted={:<6} matches={:<4} pc={}",
                    s.uptime_secs,
                    s.increments,
                    s.blocks_built,
                    s.comparisons_emitted,
                    s.matches_confirmed,
                    s.pc.map_or("n/a".into(), |pc| format!("{pc:.3}")),
                );
            }
        })
    };

    // Live telemetry: a Prometheus endpoint over a shared registry,
    // optional.
    let telemetry = metrics_addr
        .is_some()
        .then(|| Telemetry::new().with_ground_truth(dataset.ground_truth.clone()));
    let mut server = match (&metrics_addr, &telemetry) {
        (Some(addr), Some(t)) => {
            let server = MetricsServer::serve(addr.as_str(), Arc::clone(t.registry()))
                .expect("--metrics-addr binds");
            println!(
                "metrics: scrape with `curl http://{}/metrics`",
                server.local_addr()
            );
            Some(server)
        }
        _ => None,
    };
    // Live entity clustering: a union-find index over the confirmed-match
    // stream; `serve_entities` below exposes it over HTTP while the
    // pipeline runs.
    let entities = entity_addr.as_ref().map(|_| EntityIndex::shared());
    // The Perfetto trace is a replay of the event log: log the run beside
    // the trace file, and write the trace from the log after the run.
    let events = trace_out.as_ref().map(|path| {
        let log = format!("{path}.events.jsonl");
        Arc::new(JsonlObserver::create(log).expect("--trace-out directory is writable"))
    });

    let matcher = Arc::new(JaccardMatcher::default()) as Arc<dyn MatchFunction>;
    let mut runtime_config = RuntimeConfig {
        interarrival: Duration::from_millis(10),
        deadline: Duration::from_secs(30),
        telemetry: telemetry.clone(),
        entities: entities.clone(),
        fault_plan,
        ..RuntimeConfig::default()
    };
    if let Some(n) = match_workers {
        runtime_config.match_workers = n;
    }
    println!("stage-B match workers: {}", runtime_config.match_workers);

    // One construction path for every flag combination: the builder picks
    // the stage-A topology, composes the labelled observer sinks, and
    // binds the entity endpoint.
    let mut builder = Pipeline::builder(dataset.kind)
        .config(runtime_config)
        .observe("stats", stats.clone());
    if let Some(events) = &events {
        builder = builder.observe("events", Arc::clone(events) as Arc<dyn PipelineObserver>);
    }
    builder = match shards {
        Some(n) => {
            println!("running hash-partitioned stage A with {n} shards");
            builder.sharded(ShardedConfig {
                shards: n,
                ..ShardedConfig::default()
            })
        }
        None => builder.emitter(Box::new(Ipes::new(PierConfig::default()))),
    };
    if let Some(addr) = &entity_addr {
        builder = builder.serve_entities(addr.as_str());
    }
    let mut pipeline = builder.build().expect("observed_stream flags validate");
    println!("observers: [{}]", pipeline.observer_labels().join(", "));
    // Detach the entity server so it can outlive the run for the hold
    // contract below.
    let mut entity_server = pipeline.take_entity_server();
    if let Some(server) = &entity_server {
        println!(
            "entities: query with `curl http://{}/clusters`",
            server.local_addr()
        );
    }

    let report = pipeline.run(increments, matcher, |_| {});
    done.store(true, Ordering::Relaxed);
    monitor.join().unwrap();

    if let (Some(path), Some(events)) = (&trace_out, &events) {
        let replayed = events.flush().and_then(|()| {
            let log = read_events(events.path())?;
            write_chrome_trace(&log, std::fs::File::create(path)?)?;
            Ok(log.len())
        });
        match replayed {
            Ok(n) => {
                println!("trace: {n} logged events -> {path} (open at https://ui.perfetto.dev)")
            }
            Err(e) => eprintln!("trace export failed: {e}"),
        }
    }

    if let (Some(server), Some(telemetry)) = (&mut server, &telemetry) {
        // Hold the endpoint for external scrapers (CI smoke) before the
        // final gauge snapshot and shutdown.
        let hold = Duration::from_secs(hold_metrics_secs);
        let held = Instant::now();
        while server.requests_served() == 0 && held.elapsed() < hold {
            std::thread::sleep(Duration::from_millis(50));
        }
        let registry = telemetry.registry();
        println!("\n=== final metrics gauges ===");
        for (name, value) in [
            (
                "pier_comparisons_total",
                registry.counter("pier_comparisons_total", "", &[]).get() as f64,
            ),
            (
                "pier_matches_confirmed_total",
                registry
                    .counter("pier_matches_confirmed_total", "", &[])
                    .get() as f64,
            ),
            (
                "pier_budget_remaining",
                registry.gauge("pier_budget_remaining", "", &[]).get() as f64,
            ),
            (
                "pier_recall_estimate",
                registry.float_gauge("pier_recall_estimate", "", &[]).get(),
            ),
            (
                "pier_run_elapsed_seconds",
                registry
                    .float_gauge("pier_run_elapsed_seconds", "", &[])
                    .get(),
            ),
        ] {
            println!("{name:<28} {value}");
        }
        println!("scrapes served               {}", server.requests_served());
        server.shutdown();
    }

    if let Some(server) = &mut entity_server {
        // Hold contract for external scrapers (CI smoke): unlike the
        // single-scrape metrics endpoint, a validation pass makes several
        // queries back-to-back, so stay up until at least one request has
        // arrived *and* the client has been quiet for a second.
        let hold = Duration::from_secs(hold_metrics_secs);
        let held = Instant::now();
        let mut served = 0;
        let mut last_activity = Instant::now();
        while held.elapsed() < hold {
            let now_served = server.requests_served();
            if now_served != served {
                served = now_served;
                last_activity = Instant::now();
            }
            if served > 0 && last_activity.elapsed() >= Duration::from_secs(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        println!(
            "\nentity queries served        {}",
            server.requests_served()
        );
        server.shutdown();
    }
    if let Some(summary) = &report.entity_summary {
        let snapshot = entities.as_ref().expect("index configured").snapshot();
        let top_sizes: Vec<usize> = snapshot.largest.iter().map(|c| c.size).collect();
        println!("\n=== resolved entities ===");
        println!(
            "clusters          {} ({} profiles linked, {} singletons)",
            summary.clusters, summary.matched_profiles, summary.singletons
        );
        println!(
            "cluster sizes     max {} / mean {:.2}, top-5 {:?}",
            summary.max_size, summary.mean_size, top_sizes
        );
    }

    // Final snapshot: totals and per-phase latency histograms.
    let s = stats.snapshot();
    println!("\n=== final snapshot ===");
    println!("increments        {}", s.increments);
    println!("profiles          {}", s.profiles);
    println!(
        "blocks built      {} (purged {})",
        s.blocks_built, s.blocks_purged
    );
    println!(
        "ghosting          kept {} / dropped {} block entries",
        s.ghost_kept, s.ghost_dropped
    );
    println!(
        "comparisons       {} emitted, {} cf-filtered, {:.0}/s",
        s.comparisons_emitted,
        s.cf_filtered,
        s.comparisons_per_second()
    );
    println!("matches confirmed {}", s.matches_confirmed);
    if let Some(k) = s.current_k {
        println!("adaptive K        {k} after {} changes", s.k_changes);
    }
    for ph in &s.phases {
        if ph.count == 0 {
            continue;
        }
        println!(
            "phase {:8} n={:<5} total={:8.4}s p50={:.2e}s p95={:.2e}s p99={:.2e}s",
            ph.phase.name(),
            ph.count,
            ph.total_secs,
            ph.p50_secs,
            ph.p95_secs,
            ph.p99_secs,
        );
    }
    if !s.shards.is_empty() {
        println!("\n=== per-shard breakdown ===");
        for sh in &s.shards {
            println!(
                "shard {:<2} profiles={:<5} blocks={:<5} (purged {}) emitted={:<6} cf-filtered={}",
                sh.shard,
                sh.profiles,
                sh.blocks_built,
                sh.blocks_purged,
                sh.comparisons_emitted,
                sh.cf_filtered,
            );
        }
    }

    if !s.workers.is_empty() {
        println!("\n=== per-worker breakdown ===");
        for w in &s.workers {
            println!(
                "worker {:<2} chunks={:<5} classify={:8.4}s matches={}",
                w.worker, w.classify_chunks, w.classify_secs, w.matches_confirmed,
            );
        }
    }

    // The RuntimeReport tells the same story from the match-event side.
    println!("\n=== runtime report ===");
    println!("matches           {}", report.matches.len());
    println!("comparisons/s     {:.0}", report.comparisons_per_second());
    println!(
        "match workers     {} (per-worker comparisons {:?})",
        report.match_workers, report.worker_comparisons
    );
    for (label, v) in [
        ("latency p50", report.match_latency_p50()),
        ("latency p95", report.match_latency_p95()),
        ("latency p99", report.match_latency_p99()),
    ] {
        if let Some(d) = v {
            println!("{label}       {:.1} ms", d.as_secs_f64() * 1e3);
        }
    }
    if !report.dead_letters.is_empty() || report.worker_restarts > 0 || report.comparisons_shed > 0
    {
        println!("\n=== supervision ledger ===");
        println!("worker restarts   {}", report.worker_restarts);
        println!("comparisons shed  {}", report.comparisons_shed);
        for letter in &report.dead_letters {
            println!("dead letter       {letter:?}");
        }
    }
    let trajectory = report.progress_trajectory(&dataset.ground_truth);
    println!(
        "final PC          {:.3} ({} of {} true matches)",
        trajectory.pc(),
        trajectory.matches(),
        trajectory.total_matches()
    );
    if let Some(t) = trajectory.time_to_pc(0.5) {
        println!("time to PC=0.5    {t:.3}s");
    }

    if stage_a_stats {
        println!("\n=== stage-A structure stats ===");
        match report.stage_a {
            Some(st) => {
                println!(
                    "block slab        {} slots for {} blocks ({:.1}% occupied)",
                    st.slab_slots,
                    st.blocks,
                    if st.slab_slots > 0 {
                        100.0 * st.blocks as f64 / st.slab_slots as f64
                    } else {
                        100.0
                    }
                );
                println!("scratch slots     {}", st.scratch_slots);
                println!(
                    "scratch high-water {} neighbors in one arrival",
                    st.scratch_high_water
                );
            }
            None => println!("this run collected no stage-A stats"),
        }
    }

    if intern_stats {
        println!("\n=== intern stats ===");
        match report.dictionary {
            Some(d) => {
                println!("distinct tokens   {}", d.distinct_tokens);
                println!("token text        {} bytes", d.string_bytes);
                println!("occurrences       {}", d.token_occurrences);
                println!(
                    "est. bytes saved  {} (vs one owned String per occurrence)",
                    d.estimated_bytes_saved()
                );
            }
            None => println!("this driver did not intern tokens"),
        }
    }
}
