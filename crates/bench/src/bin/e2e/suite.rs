//! Orchestration: one measured run of one workload (the unit the
//! acceptance driver calls), and `--all` / `--smoke`, which repeat it over
//! every workload and write a result file.
//!
//! A run spends `--seconds` making passes. Every pass is a child process
//! of this binary, so `peak_rss_mb` and allocator state are per pass, and
//! a run reports the median of its passes.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::pass::END_TO_END;
use crate::stats::{median, percentile, Summary};
use crate::trace::{experiments_dir, span_dump_path, PER_LAYER};
use crate::workloads::{Workload, SCALE, SMOKE_FACTOR, WORKLOADS};

/// A canary reading this far from the run's median marks the pass as
/// disturbed.
const CANARY_TOLERANCE: f64 = 0.10;

/// Share of a run's `--seconds` spent on the warm-up in front of it (see
/// [`host::warm_up`]): 3 s of 25. A smoke run (`--seconds 0`) has none.
const WARM_UP_SHARE: f64 = 0.12;

/// One measured run that passed its output checks.
pub struct RunOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub passes: usize,
    /// Passes whose canary stayed off after one re-run.
    pub disturbed_passes: usize,
    /// Match-delay samples behind the run's percentiles.
    pub delay_samples: usize,
    pub calib_s: f64,
}

impl RunOutcome {
    fn metrics_json(&self, keep: impl Fn(&str) -> bool) -> Json {
        let kept = self.metrics.iter().filter(|(name, ..)| keep(name));
        Json::obj(kept.map(|(name, value, unit)| {
            (
                *name,
                Json::obj([("value", Json::num(*value)), ("unit", Json::str(*unit))]),
            )
        }))
    }

    /// The benchmark contract's last line: the metrics `BENCHMARK.json`
    /// lists. Only a correct run gets here.
    pub fn to_line(&self) -> String {
        let outside_contract = |name: &str| {
            END_TO_END
                .iter()
                .any(|m| m.name == name && m.contract_bound.is_none())
        };
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(|name| !outside_contract(name))),
        ])
        .to_line()
    }
}

/// Runs this binary again as `--child <kind>`, waits for it, and parses
/// the JSON object on the last line of its output.
fn child(kind: &str, workload: &Workload, seed: u64, scale: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", kind, "--workload", workload.name])
        .args(["--seed", &seed.to_string(), "--scale", &scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {kind} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{kind} child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("{kind} child printed no result: {e}"))
}

fn number(value: &Json, key: &str) -> f64 {
    value.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Metric `name` of a child's result; NaN (printed as `null`) if absent.
fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// The failed output checks a child reported.
fn failed_checks(result: &Json) -> Vec<String> {
    result
        .get("errors")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(String::from)
                .collect()
        })
        .unwrap_or_default()
}

fn checked(workload: &Workload, errors: Vec<String>) -> Result<(), String> {
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} failed its output checks:\n  {}",
            workload.name,
            errors.join("\n  ")
        ))
    }
}

/// Untraced run: passes until `seconds` are spent, medians over passes.
fn measure(workload: &Workload, seed: u64, seconds: f64, scale: f64) -> Result<RunOutcome, String> {
    let t0 = Instant::now();
    // Every pass made counts towards the output checks, including one the
    // canary later replaces.
    let mut errors: Vec<String> = Vec::new();
    let mut made = 0;
    let mut pass = || -> Result<Json, String> {
        let result = child("pass", workload, seed, scale)?;
        let failed = failed_checks(&result);
        errors.extend(failed.into_iter().map(|e| format!("pass {made}: {e}")));
        made += 1;
        Ok(result)
    };
    let mut passes: Vec<Json> = Vec::new();
    // A further pass starts only if an average one still fits.
    while passes.is_empty()
        || t0.elapsed().as_secs_f64() * (1.0 + 1.0 / passes.len() as f64) <= seconds
    {
        passes.push(pass()?);
    }
    // Noise canary: a pass whose canary is off the run's median ran beside
    // something else. Re-run it once; if the re-run is off too, keep it
    // and flag it.
    let calibs: Vec<f64> = passes.iter().map(|p| number(p, "calib_s")).collect();
    let calib_s = median(&calibs).unwrap_or(0.0);
    let off = |p: &Json| (number(p, "calib_s") / calib_s - 1.0).abs() > CANARY_TOLERANCE;
    let mut disturbed_passes = 0;
    for slot in &mut passes {
        if off(slot) {
            *slot = pass()?;
            disturbed_passes += usize::from(off(slot));
        }
    }
    checked(workload, errors)?;

    // Match delay is read off the samples of all passes together, so that
    // p99 has enough of them beyond it; every other metric is the median
    // over passes.
    let delays_ms: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.get("delays_ms").and_then(Json::as_arr))
        .flatten()
        .filter_map(Json::as_f64)
        .collect();
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "match_delay_p50_ms" => percentile(&delays_ms, 0.50),
                "match_delay_p99_ms" => percentile(&delays_ms, 0.99),
                name => {
                    let values: Vec<f64> = passes.iter().map(|p| metric(p, name)).collect();
                    median(&values)
                }
            };
            (m.name, value.unwrap_or(f64::NAN), m.unit)
        })
        .collect();
    Ok(RunOutcome {
        attempted: passes.iter().map(|p| number(p, "attempted") as u64).sum(),
        failed: passes.iter().map(|p| number(p, "failed") as u64).sum(),
        metrics,
        passes: passes.len(),
        disturbed_passes,
        delay_samples: delays_ms.len(),
        calib_s,
    })
}

/// Traced run: one traced pass (it holds four executions of the workload,
/// so it is not repeated inside a run).
fn trace(workload: &Workload, seed: u64, scale: f64) -> Result<RunOutcome, String> {
    let result = child("trace", workload, seed, scale)?;
    checked(workload, failed_checks(&result))?;
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, metric(&result, name), *unit))
        .collect();
    Ok(RunOutcome {
        attempted: number(&result, "attempted") as u64,
        failed: number(&result, "failed") as u64,
        calib_s: metric(&result, "host.calib_s"),
        metrics,
        passes: 1,
        disturbed_passes: 0,
        delay_samples: 0,
    })
}

/// One run of one workload, as the acceptance driver asks for it. Prints
/// every metric by name and unit; a run that fails an output check is an
/// error naming the checks, and prints no metric.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: f64,
) -> Result<RunOutcome, String> {
    let warm_up = seconds * WARM_UP_SHARE;
    host::warm_up(warm_up);
    let outcome = if traced {
        trace(workload, seed, scale)?
    } else {
        measure(workload, seed, seconds - warm_up, scale)?
    };
    println!(
        "{} seed {seed} scale {scale} {}: {} pass(es), canary {:.4} s, {} disturbed, \
         {} match-delay samples",
        workload.name,
        if traced { "traced" } else { "untraced" },
        outcome.passes,
        outcome.calib_s,
        outcome.disturbed_passes,
        outcome.delay_samples
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    if traced {
        println!("span dump: {}", span_dump_path(workload, seed).display());
    }
    Ok(outcome)
}

/// `--all` and `--smoke`: `reps` untraced runs and one traced run of every
/// workload; prints every run and writes the result file. Returns whether
/// every run was correct.
pub fn run_all(seed: u64, reps: usize, seconds: f64, smoke: bool, out: Option<PathBuf>) -> bool {
    let scale = if smoke { SCALE * SMOKE_FACTOR } else { SCALE };
    let mut failures: Vec<String> = Vec::new();
    let mut workloads_json = Vec::new();
    for (index, workload) in WORKLOADS.iter().enumerate() {
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut calibs = Vec::new();
        let mut disturbed = 0;
        let mut delay_samples: Option<usize> = None;
        for _ in 0..reps {
            match run(workload, seed, seconds, false, scale) {
                Ok(outcome) => {
                    calibs.push(outcome.calib_s);
                    disturbed += outcome.disturbed_passes;
                    let n = outcome.delay_samples;
                    delay_samples = Some(delay_samples.map_or(n, |least| least.min(n)));
                    for (values, (_, v, _)) in per_metric.iter_mut().zip(&outcome.metrics) {
                        values.push(*v);
                    }
                }
                Err(e) => failures.push(e),
            }
        }
        let per_layer = match run(workload, seed, seconds, true, scale) {
            Ok(outcome) => outcome.metrics_json(|_| true),
            Err(e) => {
                failures.push(e);
                Json::Null
            }
        };
        let end_to_end = Json::obj(END_TO_END.iter().zip(&per_metric).map(|(metric, values)| {
            let summary = Summary::of(values);
            (
                metric.name,
                Json::obj([
                    ("unit", Json::str(metric.unit)),
                    ("better", Json::str(metric.better.name())),
                    ("gate", metric.gates[index].to_json()),
                    ("median", Json::num(summary.map(|s| s.median))),
                    ("q1", Json::num(summary.map(|s| s.q1))),
                    ("q3", Json::num(summary.map(|s| s.q3))),
                    ("n", Json::Num(values.len() as f64)),
                    (
                        "values",
                        Json::Arr(values.iter().map(|v| Json::num(*v)).collect()),
                    ),
                ]),
            )
        }));
        workloads_json.push((
            workload.name,
            Json::obj([
                ("why", Json::str(workload.why)),
                ("host.calib_s", Json::num(median(&calibs))),
                ("disturbed_passes", Json::Num(disturbed as f64)),
                // The fewest any run had behind its match-delay percentiles.
                (
                    "match_delay_samples",
                    Json::num(delay_samples.map(|n| n as f64)),
                ),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
            ]),
        ));
    }
    for failure in &failures {
        eprintln!("e2e: {failure}");
    }
    let doc = Json::obj([
        ("benchmark", Json::str("pier e2e")),
        ("host", host::fingerprint()),
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("scale", Json::Num(scale)),
        (
            "failed_runs",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
        ("workloads", Json::obj(workloads_json)),
    ]);
    let path = out.unwrap_or_else(|| {
        let kind = if smoke { "smoke" } else { "results" };
        experiments_dir().join(format!("{kind}-seed{seed}.json"))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.to_pretty()));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("e2e: writing {}: {e}", path.display());
            return false;
        }
    }
    failures.is_empty()
}
