//! Order statistics and the two scans that turn a run's match events into
//! the progressive metrics (time-to-PC, match delay).

use std::collections::HashSet;

use pier_types::{Comparison, GroundTruth};

/// The `q`-quantile (`q` ∈ [0, 1]) by the nearest-rank method: the smallest
/// value with at least `q·n` values at or below it. `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q.clamp(0.0, 1.0)).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median (mean of the middle two for an even count). `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so the spread this harness reports is the one the acceptance
/// protocol measures. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        len => {
            let cut = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Median, quartiles and count of one metric over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let (q1, q3) = quartiles(values)?;
        Some(Summary {
            median: median(values)?,
            q1,
            q3,
            n: values.len(),
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// One confirmed match: the pair and its confirmation time in seconds
/// since the run started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Confirmed {
    pub pair: Comparison,
    pub at: f64,
}

/// What the PC scan reads off a run's match stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PcScan {
    /// Time at which the confirmed share of the ground truth first reached
    /// each requested target; `None` if the run never got there.
    pub time_to: Vec<Option<f64>>,
    /// Distinct ground-truth pairs confirmed.
    pub true_matches: usize,
    /// `true_matches / |ground truth|`.
    pub final_pc: f64,
    /// Pairs reported more than once.
    pub duplicates: usize,
}

/// Walks `matches` in confirmation order, crediting each ground-truth pair
/// once, and records when PC crosses each of `targets` (ascending shares in
/// (0, 1]). `RuntimeReport::progress_trajectory` computes the same curve;
/// the benchmark keeps its own scan so that a change to the program under
/// test cannot move the yardstick.
pub fn pc_scan(matches: &[Confirmed], ground_truth: &GroundTruth, targets: &[f64]) -> PcScan {
    let total = ground_truth.len();
    let needed: Vec<usize> = targets
        .iter()
        .map(|t| ((total as f64 * t).ceil() as usize).max(1))
        .collect();
    let mut time_to = vec![None; targets.len()];
    let mut seen: HashSet<Comparison> = HashSet::with_capacity(matches.len());
    let mut duplicates = 0;
    let mut hits = 0usize;
    for m in matches {
        if !seen.insert(m.pair) {
            duplicates += 1;
            continue;
        }
        if ground_truth.is_match(m.pair) {
            hits += 1;
            for (slot, need) in time_to.iter_mut().zip(&needed) {
                if slot.is_none() && hits >= *need {
                    *slot = Some(m.at);
                }
            }
        }
    }
    PcScan {
        time_to,
        true_matches: hits,
        final_pc: if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        },
        duplicates,
    }
}

/// Match delay of every confirmed ground-truth pair, in milliseconds: the
/// confirmation time minus the *due* time of the later-arriving profile,
/// `arrival_seq × interarrival`. Timing from when the increment was due
/// rather than when the source got round to sending it charges source
/// lateness to the system (open-loop accounting). With `interarrival` 0
/// every profile is due at the start, so the delay is time since start.
pub fn match_delays_ms(
    matches: &[Confirmed],
    ground_truth: &GroundTruth,
    arrival_seq: &[u32],
    interarrival_s: f64,
) -> Vec<f64> {
    let mut seen: HashSet<Comparison> = HashSet::with_capacity(matches.len());
    matches
        .iter()
        .filter(|m| ground_truth.is_match(m.pair) && seen.insert(m.pair))
        .map(|m| {
            let later = arrival_seq[m.pair.a.index()].max(arrival_seq[m.pair.b.index()]);
            (m.at - later as f64 * interarrival_s) * 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::ProfileId;

    fn pair(a: u32, b: u32) -> Comparison {
        Comparison::new(ProfileId(a), ProfileId(b))
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.99), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.34), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.median, s.n), (5.5, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pc_scan_credits_each_true_pair_once_in_confirmation_order() {
        let gt = GroundTruth::from_pairs(
            [(0, 1), (2, 3), (4, 5), (6, 7)].map(|(a, b)| (ProfileId(a), ProfileId(b))),
        );
        let matches = [
            Confirmed {
                pair: pair(0, 1),
                at: 0.1,
            },
            Confirmed {
                pair: pair(8, 9),
                at: 0.2,
            }, // matcher false positive
            Confirmed {
                pair: pair(1, 0),
                at: 0.3,
            }, // repeat of the first
            Confirmed {
                pair: pair(2, 3),
                at: 0.4,
            },
            Confirmed {
                pair: pair(4, 5),
                at: 0.9,
            },
        ];
        let scan = pc_scan(&matches, &gt, &[0.5, 0.75, 0.9]);
        assert_eq!(scan.time_to, vec![Some(0.4), Some(0.9), None]);
        assert_eq!(scan.true_matches, 3);
        assert_eq!(scan.final_pc, 0.75);
        assert_eq!(scan.duplicates, 1);
    }

    #[test]
    fn match_delay_is_timed_from_the_later_profiles_due_time() {
        let gt =
            GroundTruth::from_pairs([(0, 3), (1, 2)].map(|(a, b)| (ProfileId(a), ProfileId(b))));
        // Profiles 0,1 arrive in increment 0; 2 in increment 4; 3 in 10.
        let arrival = [0, 0, 4, 10];
        let matches = [
            Confirmed {
                pair: pair(1, 2),
                at: 0.5,
            },
            Confirmed {
                pair: pair(0, 3),
                at: 1.25,
            },
            Confirmed {
                pair: pair(0, 1),
                at: 2.0,
            }, // not in the ground truth
        ];
        let delays = match_delays_ms(&matches, &gt, &arrival, 0.1);
        assert_eq!(delays.len(), 2);
        assert!((delays[0] - 100.0).abs() < 1e-9, "{delays:?}");
        assert!((delays[1] - 250.0).abs() < 1e-9, "{delays:?}");
        // Static setting: everything is due at the start.
        let since_start = match_delays_ms(&matches, &gt, &arrival, 0.0);
        assert_eq!(since_start, vec![500.0, 1250.0]);
    }
}
