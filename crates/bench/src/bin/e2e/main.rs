//! `e2e`: the wall-clock benchmark of the threaded `pier_runtime::Pipeline`.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one measured run (BENCHMARK.json's command)
//! e2e --all   [--seed N] [--reps R] [--seconds S] [--out FILE]   every workload, result file
//! e2e --smoke [--seed N] [--out FILE]                    every workload at 1/10 size, one pass
//! e2e --compare A.json B.json                            regression verdicts between two result files
//! ```
//!
//! See README.md beside this file for the workloads, the metrics and how
//! later changes use them.

mod compare;
mod host;
mod json;
mod pass;
mod stats;
mod suite;
mod trace;
mod walk;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Workload, SCALE, WORKLOADS};

const USAGE: &str = "usage:
  e2e --workload NAME --seed N --seconds S --trace 0|1
  e2e --all [--seed N] [--reps R] [--seconds S] [--out FILE]
  e2e --smoke [--seed N] [--out FILE]
  e2e --compare A.json B.json";

/// Default length of one run, the `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: f64 = 25.0;

/// `--flag value` pairs and bare flags, in order.
struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn values(&self, flag: &str, n: usize) -> Option<&[String]> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1..at + 1 + n)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.values(flag, 1) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v[0]
                .parse()
                .map_err(|_| format!("{flag}: cannot read {:?}", v[0])),
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name: String = self.parsed("--workload", String::new())?;
        workloads::find(&name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name:?}; the workloads are {}",
                names.join(", ")
            )
        })
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    if let Some(kind) = args.values("--child", 1) {
        // One pass in a process of its own; the parent reads the last line.
        let workload = args.workload()?;
        let scale: f64 = args.parsed("--scale", SCALE)?;
        let line = match kind[0].as_str() {
            "pass" => pass::run_pass(workload, seed, scale).to_json(),
            "trace" => trace::run_trace(workload, seed, scale).to_json(),
            other => return Err(format!("unknown child kind {other:?}")),
        };
        println!("{}", line.to_line());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(files) = args.values("--compare", 2) {
        let (_, regressed, _) = compare::compare(&files[0], &files[1])?;
        return Ok(if regressed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let seconds: f64 = args.parsed("--seconds", RUN_SECONDS)?;
    if args.has("--all") || args.has("--smoke") {
        let smoke = args.has("--smoke");
        // A smoke run is one pass per workload: `--seconds 0` stops after
        // the first.
        let (reps, seconds) = if smoke {
            (1, 0.0)
        } else {
            (args.parsed("--reps", 5)?, seconds)
        };
        let out = args.values("--out", 1).map(|v| PathBuf::from(&v[0]));
        let correct = suite::run_all(seed, reps, seconds, smoke, out);
        return Ok(if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if args.has("--workload") {
        let workload = args.workload()?;
        let traced = match args.parsed("--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        };
        let outcome = suite::run(workload, seed, seconds, traced, SCALE)?;
        println!("{}", outcome.to_line());
        return Ok(ExitCode::SUCCESS);
    }
    Err(USAGE.to_string())
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn text<'a>(value: &'a Json, key: &str) -> &'a str {
        value.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    /// `BENCHMARK.json` is data the acceptance driver reads; the tables in
    /// this directory are what the program prints. They must not drift.
    #[test]
    fn benchmark_json_lists_exactly_what_the_program_prints() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(list("paths"), [Json::str("crates/bench/src/bin/e2e")]);
        assert!(list("command").contains(&Json::str("crates/bench/src/bin/e2e/Cargo.toml")));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );

        assert_eq!(list("workloads").len(), WORKLOADS.len());
        for (entry, workload) in list("workloads").iter().zip(&WORKLOADS) {
            assert_eq!(text(entry, "name"), workload.name);
            assert_eq!(text(entry, "why"), workload.why);
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }

        // Its end-to-end list is the part of the program's that holds one
        // bound on every workload.
        let in_contract: Vec<_> = pass::END_TO_END
            .iter()
            .filter_map(|m| Some((m, m.contract_bound?)))
            .collect();
        assert_eq!(list("end_to_end").len(), in_contract.len());
        for (entry, (m, bound)) in list("end_to_end").iter().zip(in_contract) {
            assert_eq!((text(entry, "name"), text(entry, "unit")), (m.name, m.unit));
            assert_eq!(text(entry, "better"), m.better.name());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(m
                .gates
                .iter()
                .all(|g| matches!(g, pass::Gate::Share(_) | pass::Gate::Absolute(_))));
        }
        assert!(pass::END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.contract_bound) == ("setup_s", "s", Some(0.25))));

        assert_eq!(list("per_layer").len(), trace::PER_LAYER.len());
        for (entry, (name, unit, better)) in list("per_layer").iter().zip(trace::PER_LAYER) {
            assert_eq!((text(entry, "name"), text(entry, "unit")), (name, unit));
            assert_eq!(text(entry, "better"), better.name());
        }
    }

    #[test]
    fn arguments_are_read_by_flag() {
        let args = Args(
            [
                "--workload",
                "movies-ed-static",
                "--seed",
                "7",
                "--trace",
                "1",
            ]
            .map(String::from)
            .to_vec(),
        );
        assert_eq!(args.parsed("--seed", 1u64), Ok(7));
        assert_eq!(args.parsed("--seconds", 25.0), Ok(25.0));
        assert_eq!(args.workload().map(|w| w.name), Ok("movies-ed-static"));
        assert!(args.has("--trace") && !args.has("--all"));
        let bad = Args(
            ["--seed", "x", "--workload", "nope"]
                .map(String::from)
                .to_vec(),
        );
        assert!(bad.parsed("--seed", 1u64).is_err());
        assert!(bad.workload().is_err());
        assert!(Args(vec!["--seed".into()]).parsed("--seed", 1u64).is_err());
    }
}
