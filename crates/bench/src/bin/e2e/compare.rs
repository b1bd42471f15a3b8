//! `--compare A.json B.json`: the regression rule between two result
//! files of `--all`, per end-to-end metric and workload.

use crate::json::Json;
use crate::pass::{Better, Gate, END_TO_END};
use crate::stats::Summary;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, so "no worse"
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `change` is than `base` (negative when it is better):
/// as a share of `base`, or in the metric's unit when `absolute`.
fn worsening(base: f64, change: f64, better: Better, absolute: bool) -> f64 {
    let delta = match better {
        Better::Higher => base - change,
        Better::Lower => change - base,
    };
    if absolute {
        delta
    } else {
        delta / base.abs()
    }
}

/// The verdict for one metric on one workload from both sides' runs;
/// `None` where the metric is not gated.
pub fn verdict(base: &[f64], change: &[f64], better: Better, gate: Gate) -> Option<Verdict> {
    let (bound, absolute) = match gate {
        Gate::Share(bound) => (bound, false),
        Gate::Absolute(bound) => (bound, true),
        Gate::Demoted { .. } | Gate::Absent => return None,
    };
    let (Some(a), Some(b)) = (Summary::of(base), Summary::of(change)) else {
        return Some(Verdict::Unresolved);
    };
    if worsening(a.median, b.median, better, absolute) > bound {
        return Some(Verdict::Regressed);
    }
    let spread = |s: &Summary| {
        if absolute {
            s.q3 - s.q1
        } else {
            s.spread()
        }
    };
    if spread(&a).max(spread(&b)) > bound {
        // Still resolved if every run of the change beats every run of the
        // base.
        let all_better = change.iter().all(|&c| {
            base.iter()
                .all(|&p| worsening(p, c, better, absolute) < 0.0)
        });
        if !all_better {
            return Some(Verdict::Unresolved);
        }
    }
    Some(Verdict::Ok)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the comparison table; returns the verdict counts
/// `(ok, regressed, unresolved)`.
pub fn compare(path_a: &str, path_b: &str) -> Result<(usize, usize, usize), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path_a} has no workloads"))?
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    println!("base   A = {path_a}\nchange B = {path_b}");
    println!(
        "{:<24} {:<20} {:>36} {:>36} {:>9} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "B/A", "bound"
    );
    let mut counts = (0, 0, 0);
    for workload in workloads {
        let Some(index) = WORKLOADS.iter().position(|w| w.name == workload) else {
            return Err(format!("{path_a} names an unknown workload {workload:?}"));
        };
        for m in END_TO_END {
            let gate = m.gates[index];
            if gate == Gate::Absent {
                continue;
            }
            let (va, vb) = (values(&a, workload, m.name), values(&b, workload, m.name));
            let v = verdict(&va, &vb, m.better, gate);
            match v {
                Some(Verdict::Ok) => counts.0 += 1,
                Some(Verdict::Regressed) => counts.1 += 1,
                Some(Verdict::Unresolved) => counts.2 += 1,
                None => {}
            }
            let cell = |values: &[f64]| match Summary::of(values) {
                Some(s) => format!("{:.5} [{:.5}, {:.5}] {}", s.median, s.q1, s.q3, s.n),
                None => "no runs".to_string(),
            };
            let ratio = match (Summary::of(&va), Summary::of(&vb)) {
                (Some(sa), Some(sb)) if sa.median != 0.0 => format!("{:.4}", sb.median / sa.median),
                _ => "-".to_string(),
            };
            println!(
                "{workload:<24} {:<20} {:>36} {:>36} {ratio:>9} {:>8}  {}",
                m.name,
                cell(&va),
                cell(&vb),
                gate.bound_text(),
                v.map_or("not gated", Verdict::name)
            );
        }
    }
    println!(
        "{} ok, {} regressed, {} unresolved (ratios are B's median over A's)",
        counts.0, counts.1, counts.2
    );
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_regression_rule() {
        let verdict = |base: &[f64], change: &[f64], better, bound| {
            super::verdict(base, change, better, Gate::Share(bound)).unwrap()
        };
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound, tight spread.
        assert_eq!(
            verdict(&base, &[10.4, 10.5, 10.3, 10.4, 10.45], Better::Lower, 0.10),
            Verdict::Ok
        );
        // Median worse by more than the bound.
        assert_eq!(
            verdict(&base, &[11.4, 11.5, 11.3, 11.4, 11.45], Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Higher-is-better metrics regress downwards.
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 8.2, 8.0, 8.1], Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[12.0, 12.1, 12.2, 12.0, 12.1], Better::Higher, 0.10),
            Verdict::Ok
        );
        // Not worse by the bound, but one side's runs spread wider than it.
        assert_eq!(
            verdict(&base, &[8.0, 12.0, 10.0, 9.0, 11.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // A wide spread is still resolved when every run beats every base run.
        assert_eq!(
            verdict(&base, &[5.0, 7.0, 6.0, 8.0, 9.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        // Nothing to compare.
        assert_eq!(
            verdict(&base, &[], Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn absolute_gates_compare_in_the_metrics_own_unit() {
        let verdict = |base: &[f64], change: &[f64], better, bound| {
            super::verdict(base, change, better, Gate::Absolute(bound))
        };
        // final_pc may drop by 0.002, whatever its level.
        let pc = [0.995, 0.995, 0.9951];
        assert_eq!(
            verdict(&pc, &[0.9935, 0.9936, 0.9935], Better::Higher, 0.002),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict(&pc, &[0.9925, 0.9926, 0.9925], Better::Higher, 0.002),
            Some(Verdict::Regressed)
        );
        // failed_share must stay 0.
        let zero = [0.0, 0.0, 0.0];
        assert_eq!(verdict(&zero, &zero, Better::Lower, 0.0), Some(Verdict::Ok));
        assert_eq!(
            verdict(&zero, &[0.0, 1e-6, 1e-6], Better::Lower, 0.0),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn demoted_and_absent_pairs_get_no_verdict() {
        let runs = [1.0, 5.0, 9.0];
        let demoted = Gate::Demoted { spread: 0.4 };
        assert_eq!(super::verdict(&runs, &runs, Better::Lower, demoted), None);
        assert_eq!(
            super::verdict(&runs, &runs, Better::Lower, Gate::Absent),
            None
        );
    }
}
