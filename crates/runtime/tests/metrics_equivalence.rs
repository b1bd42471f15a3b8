//! End-to-end telemetry equivalence: the totals scraped over HTTP from a
//! live [`MetricsServer`] must equal the final [`RuntimeReport`] exactly —
//! comparisons, matches, profiles, and the per-worker breakdown — for both
//! the single-blocker streaming driver and the sharded driver.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use pier_core::{Ipes, PierConfig};
use pier_datagen::{generate_bibliographic, BibliographicConfig};
use pier_matching::{JaccardMatcher, MatchFunction};
use pier_metrics::{MetricsServer, Telemetry};
use pier_runtime::{Pipeline, RuntimeConfig, RuntimeReport};
use pier_shard::ShardedConfig;
use pier_types::{Dataset, EntityProfile};

fn dataset() -> Dataset {
    generate_bibliographic(&BibliographicConfig {
        seed: 42,
        source0_size: 200,
        source1_size: 150,
        matches: 100,
    })
}

fn increments(dataset: &Dataset) -> Vec<Vec<EntityProfile>> {
    dataset
        .into_increments(8)
        .unwrap()
        .into_iter()
        .map(|i| i.profiles)
        .collect()
}

fn runtime_config(telemetry: Telemetry, match_workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        interarrival: Duration::from_millis(2),
        deadline: Duration::from_secs(30),
        match_workers,
        telemetry: Some(telemetry),
        ..RuntimeConfig::default()
    }
}

/// One HTTP scrape, parsed into `name{labels} -> value` samples.
fn scrape(addr: SocketAddr) -> HashMap<String, f64> {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: pier\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let mut samples = HashMap::new();
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').unwrap();
        samples.insert(key.to_string(), value.parse::<f64>().unwrap());
    }
    samples
}

/// The acceptance contract: scraped counters == report totals, exactly.
fn assert_scrape_equals_report(samples: &HashMap<String, f64>, report: &RuntimeReport) {
    assert_eq!(samples["pier_comparisons_total"] as u64, report.comparisons);
    assert_eq!(
        samples["pier_matches_confirmed_total"] as u64,
        report.matches.len() as u64
    );
    assert_eq!(
        samples["pier_profiles_total"] as u64,
        report.profiles as u64
    );
    assert_eq!(report.worker_comparisons.len(), report.match_workers);
    for (worker, &want) in report.worker_comparisons.iter().enumerate() {
        let key = format!("pier_worker_comparisons_total{{worker=\"{worker}\"}}");
        assert_eq!(samples[&key] as u64, want, "{key}");
    }
    // publish_final landed the same totals as run gauges.
    assert_eq!(
        samples["pier_run_matches"] as u64,
        report.matches.len() as u64
    );
    assert_eq!(samples["pier_run_profiles"] as u64, report.profiles as u64);
    assert!(samples["pier_run_elapsed_seconds"] > 0.0);
}

#[test]
fn streaming_scrape_equals_report() {
    let dataset = dataset();
    let telemetry = Telemetry::new().with_ground_truth(dataset.ground_truth.clone());
    let mut server = MetricsServer::serve("127.0.0.1:0", Arc::clone(telemetry.registry())).unwrap();
    let addr = server.local_addr();

    // A scrape before the run answers cleanly (the driver registers the
    // schema when it starts, so the body may still be empty).
    scrape(addr);

    let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
    let report = Pipeline::builder(dataset.kind)
        .config(runtime_config(telemetry, 2))
        .emitter(Box::new(Ipes::new(PierConfig::default())))
        .build()
        .unwrap()
        .run(increments(&dataset), matcher, |_| {});
    assert!(report.matches.len() > 10, "run found matches");

    let samples = scrape(addr);
    assert_scrape_equals_report(&samples, &report);
    // Pooled run, drained: each comparison counts once, on the worker
    // that computed it.
    let worker_sum: u64 = report.worker_comparisons.iter().sum();
    assert_eq!(worker_sum, report.comparisons);
    // Worker 0's chunks, the classifier's and the lane's, are timed per
    // worker as a helper's are.
    let chunks = samples[r#"pier_worker_classify_seconds_count{worker="0"}"#];
    let secs = samples[r#"pier_worker_classify_seconds_sum{worker="0"}"#];
    assert!(
        chunks > 0.0 && secs > 0.0,
        "worker 0: {chunks} chunks, {secs} s"
    );
    // Ground-truth recall was estimated and is a valid fraction.
    let recall = samples["pier_recall_estimate"];
    assert!(recall > 0.0 && recall <= 1.0, "recall {recall}");
    // Queue gauges drained; stall accounting never goes negative.
    assert_eq!(samples[r#"pier_queue_depth{queue="matches"}"#] as i64, 0);
    assert!(samples[r#"pier_queue_sends_total{queue="increments"}"#] >= 8.0);
    // The counter increments after the response socket closes, so the
    // last scrape may not be visible yet — at least the first one is.
    assert!(server.requests_served() >= 1);
    server.shutdown();
}

#[test]
fn sharded_scrape_equals_report() {
    let dataset = dataset();
    let telemetry = Telemetry::new().with_expected_matches(100);
    let mut server = MetricsServer::serve("127.0.0.1:0", Arc::clone(telemetry.registry())).unwrap();
    let addr = server.local_addr();

    let matcher: Arc<dyn MatchFunction> = Arc::new(JaccardMatcher::default());
    let report = Pipeline::builder(dataset.kind)
        .config(runtime_config(telemetry, 1))
        .sharded(ShardedConfig::default())
        .build()
        .unwrap()
        .run(increments(&dataset), matcher, |_| {});
    assert!(report.matches.len() > 10, "run found matches");

    let samples = scrape(addr);
    assert_scrape_equals_report(&samples, &report);
    // Sequential mode: the single worker entry is the comparison total.
    assert_eq!(report.worker_comparisons, vec![report.comparisons]);
    // Per-shard emission counters sum to the global emitted total.
    let shards = ShardedConfig::default().shards;
    let shard_emitted: f64 = (0..shards)
        .map(|s| {
            samples
                .get(&format!(
                    "pier_shard_comparisons_emitted_total{{shard=\"{s}\"}}"
                ))
                .copied()
                .unwrap_or(0.0)
        })
        .sum();
    assert_eq!(
        shard_emitted as u64,
        samples["pier_comparisons_emitted_total"] as u64
    );
    server.shutdown();
}
