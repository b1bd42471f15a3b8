//! Ablation — adaptive `findK` vs. fixed `K`.
//!
//! Algorithm 1 chooses the per-round emission budget `K` adaptively from
//! the observed input and service rates. This ablation pits the adaptive
//! controller against small and large fixed budgets on a fast stream with
//! the expensive matcher, where the choice matters most: a too-large `K`
//! commits the matcher to stale comparisons, a too-small `K` wastes
//! prioritization rounds.

use pier_bench::{experiment_cost, params_for, FigureReport};
use pier_core::{AdaptiveK, PierConfig};
use pier_datagen::StandardDataset;
use pier_matching::EditDistanceMatcher;
use pier_sim::experiment::{run_method, Method, StreamPlan};
use pier_sim::SimConfig;

fn main() {
    let mut report = FigureReport::new("ablation_findk");
    for ds in [StandardDataset::Movies, StandardDataset::Dbpedia] {
        let params = params_for(ds);
        let dataset = ds.generate();
        let plan = StreamPlan::streaming(params.increments, 32.0);
        println!(
            "-- {} @ 32 ΔD/s, ED matcher, budget {:.0}s --",
            ds.name(),
            params.budget
        );
        // A fixed `K` is a controller clamped to one value.
        let fixed = |k| AdaptiveK::new(k, k, k);
        let policies: Vec<(String, AdaptiveK)> = vec![
            ("adaptive".into(), AdaptiveK::default()),
            ("fixed-8".into(), fixed(8)),
            ("fixed-512".into(), fixed(512)),
            ("fixed-32768".into(), fixed(32_768)),
        ];
        for (label, k) in policies {
            let sim = SimConfig {
                time_budget: params.budget,
                cost: experiment_cost(),
                k,
                ..SimConfig::default()
            };
            let out = run_method(
                Method::IPes,
                &dataset,
                &plan,
                &EditDistanceMatcher::default(),
                &sim,
                PierConfig::default(),
            );
            println!(
                "  {:<12} PC@25%={:.3} PC final={:.3} AUC={:.3} cmp={}",
                label,
                out.trajectory.pc_at_time(params.budget * 0.25),
                out.pc(),
                out.trajectory.auc_time(params.budget),
                out.comparisons
            );
            report.add_time_series(format!("{}-{label}", ds.name()), &out, params.budget);
        }
        println!();
    }
    report.emit();
}
