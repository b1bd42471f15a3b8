//! Live telemetry for PIER: a lock-free metrics registry and its one
//! zero-dependency exporter.
//!
//! Where [`pier_observe`] answers *what happened* (typed events, JSONL
//! export, replay), this crate answers *what is happening right now*: the
//! runtime publishes counters, gauges, and latency histograms into a
//! [`MetricsRegistry`] that can be scraped mid-run — while a stream is
//! still being ingested — without stopping, locking, or slowing the
//! pipeline.
//!
//! The design mirrors the observer's cost contract:
//!
//! * metric handles ([`Counter`], [`Gauge`], [`FloatGauge`], [`Histogram`])
//!   are `Arc`-shared plain atomics — updating one is a relaxed atomic op,
//!   never a lock, never an allocation;
//! * the registry itself is only touched at registration time (cold) and
//!   scrape time (the exporter thread), behind a `parking_lot` lock the hot
//!   path never takes;
//! * a pipeline with no telemetry attached pays a single `Option` branch,
//!   exactly like a disabled [`pier_observe::Observer`].
//!
//! The exporter is [`MetricsServer`]: a Prometheus text-exposition
//! endpoint (`GET /metrics`) on the workspace's one hand-rolled listener
//! thread ([`http::HttpServer`], which the entity endpoint shares), with a
//! bounded request head and graceful shutdown. A Perfetto trace of a run
//! is not kept here: it is a replay of the event log
//! ([`pier_observe::write_chrome_trace`]).

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::RwLock;
use pier_observe::AtomSource;

pub mod http;
mod observer;
pub mod queue;
mod server;

pub use observer::{MetricsObserver, Telemetry};
// The atoms live in `pier-observe`, next to the one fold that fills them
// (`StatsObserver`); these are their historical paths.
pub use pier_observe::{Counter, FloatGauge, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use queue::{GaugedReceiver, GaugedSender, QueueGauges};
pub use server::MetricsServer;

/// One registered metric, behind its shared handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Float(Arc<FloatGauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) | Metric::Float(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Label pairs attached to one instance of a family, sorted by key.
type LabelSet = Vec<(String, String)>;

/// One metric family: a name + help + type and its labeled instances.
#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: &'static str,
    instances: Vec<(LabelSet, Metric)>,
}

/// A registry of named metric families.
///
/// Registration is idempotent: asking for the same (name, labels) twice
/// returns the *same* shared handle, so independent components — the
/// runtime, a bench harness, a monitor thread — can all resolve
/// `pier_queue_depth{queue="increments"}` and observe one atom. The hot
/// path never touches the registry: handles are plain `Arc`ed atomics.
///
/// # Panics
/// Registering a name with a different metric type than before (or an
/// invalid Prometheus metric/label name) panics: both are programming
/// errors, not runtime conditions.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: RwLock<Vec<Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A fresh, shareable registry handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Registers (or resolves) a counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or resolves) an integer gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or resolves) a floating-point gauge.
    pub fn float_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<FloatGauge> {
        match self.register(name, help, labels, || {
            Metric::Float(Arc::new(FloatGauge::new()))
        }) {
            Metric::Float(g) => g,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or resolves) a histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, help, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?}");
        }
        let mut labels: LabelSet = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let mut families = self.families.write();
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            if let Some((_, metric)) = family.instances.iter().find(|(l, _)| *l == labels) {
                return metric.clone();
            }
            let metric = make();
            assert_eq!(
                metric.kind(),
                family.kind,
                "{name} already registered as a {}",
                family.kind
            );
            family.instances.push((labels, metric.clone()));
            return metric;
        }
        let metric = make();
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind: metric.kind(),
            instances: vec![(labels, metric.clone())],
        });
        metric
    }

    /// Number of registered metric families.
    pub fn family_count(&self) -> usize {
        self.families.read().len()
    }

    /// Renders the whole registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers followed by one sample
    /// line per instance (histograms expand to `_bucket`/`_sum`/`_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for family in self.families.read().iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind);
            for (labels, metric) in &family.instances {
                let value = match metric {
                    Metric::Counter(c) => c.get().to_string(),
                    Metric::Gauge(g) => g.get().to_string(),
                    Metric::Float(g) => render_f64(g.get()),
                    Metric::Histogram(h) => {
                        render_histogram(&mut out, &family.name, labels, h);
                        continue;
                    }
                };
                let _ = writeln!(
                    out,
                    "{}{} {value}",
                    family.name,
                    render_labels(labels, None)
                );
            }
        }
        out
    }
}

/// Expands one histogram to its `_bucket` / `_sum` / `_count` sample lines.
fn render_histogram(out: &mut String, name: &str, labels: &LabelSet, h: &Histogram) {
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cumulative += c;
        // Skip interior empty buckets to keep scrapes small; always keep
        // the last so the cumulative series stays well-formed.
        if *c == 0 && i + 1 < counts.len() {
            continue;
        }
        let le = render_labels(labels, Some(&render_f64(Histogram::bucket_upper_secs(i))));
        let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
    }
    let (inf, plain) = (
        render_labels(labels, Some("+Inf")),
        render_labels(labels, None),
    );
    let _ = writeln!(out, "{name}_bucket{inf} {}", h.count());
    let _ = writeln!(out, "{name}_sum{plain} {}", render_f64(h.sum_secs()));
    let _ = writeln!(out, "{name}_count{plain} {}", h.count());
}

/// A fold handed the registry resolves the very handles a scrape renders.
impl AtomSource for MetricsRegistry {
    fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        MetricsRegistry::counter(self, name, help, labels) // the inherent one
    }
    fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        MetricsRegistry::gauge(self, name, help, labels)
    }
    fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        MetricsRegistry::histogram(self, name, help, labels)
    }
}

/// Renders `{k="v",...}` (with an optional trailing `le`), or nothing when
/// there are no labels.
fn render_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Formats an f64 the way Prometheus expects (finite decimal, no exponent
/// surprises; non-finite degrades to 0).
fn render_f64(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        let mut s = format!("{x:.9}");
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.pop();
        }
        s
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_float_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), 4);
        let f = FloatGauge::new();
        assert_eq!(f.get(), 0.0);
        f.set(0.625);
        assert_eq!(f.get(), 0.625);
    }

    #[test]
    fn histogram_buckets_by_log2_nanos() {
        let h = Histogram::new();
        h.record_nanos(1); // bucket 0
        h.record_nanos(3); // bucket 1
        h.record_secs(1e-6); // 1000 ns -> bucket 9
        h.record_secs(-1.0); // clamps to 0 -> bucket 0
        assert_eq!(h.count(), 4);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[9], 1);
        assert!(h.sum_secs() > 0.0);
        assert!((Histogram::bucket_upper_secs(0) - 2e-9).abs() < 1e-18);
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = MetricsRegistry::new();
        let a = r.counter("pier_test_total", "help", &[("queue", "inc")]);
        let b = r.counter("pier_test_total", "help", &[("queue", "inc")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        // A different label set is a new instance of the same family.
        let c = r.counter("pier_test_total", "help", &[("queue", "match")]);
        assert_eq!(c.get(), 0);
        assert_eq!(r.family_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflicts_panic() {
        let r = MetricsRegistry::new();
        let _ = r.counter("pier_conflict", "help", &[]);
        let _ = r.gauge("pier_conflict", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        let r = MetricsRegistry::new();
        let _ = r.counter("0bad", "help", &[]);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let r = MetricsRegistry::new();
        r.counter("pier_events_total", "Events seen.", &[]).add(42);
        r.gauge("pier_depth", "Queue depth.", &[("queue", "inc")])
            .set(3);
        r.float_gauge("pier_recall", "Live recall.", &[]).set(0.5);
        let h = r.histogram(
            "pier_phase_seconds",
            "Phase latency.",
            &[("phase", "block")],
        );
        h.record_secs(1e-6);
        h.record_secs(1e-3);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE pier_events_total counter"));
        assert!(text.contains("pier_events_total 42"));
        assert!(text.contains("pier_depth{queue=\"inc\"} 3"));
        assert!(text.contains("pier_recall 0.5"));
        assert!(text.contains("# TYPE pier_phase_seconds histogram"));
        assert!(text.contains("pier_phase_seconds_bucket{phase=\"block\",le=\"+Inf\"} 2"));
        assert!(text.contains("pier_phase_seconds_count{phase=\"block\"} 2"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name_part.is_empty());
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let r = MetricsRegistry::new();
        let h = r.histogram("pier_h", "h", &[]);
        h.record_nanos(1);
        h.record_nanos(1);
        h.record_nanos(1 << 20);
        let text = r.render_prometheus();
        // The +Inf bucket equals the count.
        assert!(text.contains("pier_h_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("pier_h_count 3"));
    }

    #[test]
    fn render_f64_is_prometheus_safe() {
        assert_eq!(render_f64(3.0), "3");
        assert_eq!(render_f64(0.625), "0.625");
        assert_eq!(render_f64(f64::NAN), "0");
        assert_eq!(render_f64(f64::INFINITY), "0");
    }
}
