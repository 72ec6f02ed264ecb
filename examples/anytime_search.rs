//! Budgeted, anytime search: stop the compaction at a training budget and
//! still ship the best frontier found so far.
//!
//! ```text
//! cargo run --release --example anytime_search
//! ```
//!
//! The greedy elimination retrains one classifier pair per examined
//! candidate, so wall-clock and training effort — not solution quality — is
//! what limits a production sweep.  The 0.6 `SearchBudget` is enforced
//! centrally by the evaluator, so *every* strategy is anytime: a truncated
//! run returns the best committed frontier with `BudgetStats::exhausted`
//! set, never an error.  This example sweeps the training budget on one
//! population (the quality-vs-budget curve), then runs the seeded
//! simulated-annealing walk under the same configuration, with and without a
//! training cap.

use spec_test_compaction::prelude::*;

fn main() -> Result<(), CompactionError> {
    // Six specs, strongly correlated: most of them are redundant.
    let device = SyntheticDevice::new(6, 1.8, 0.92);
    let pipeline = |budget: SearchBudget| {
        CompactionPipeline::for_device(&device)
            .monte_carlo(MonteCarloConfig::new(400).with_seed(2005))
            .test_instances(200)
            .compaction(CompactionConfig::paper_default().with_tolerance(0.1).with_budget(budget))
            .classifier(SvmBackend::paper_default())
    };
    let capped_at = |trainings: usize| SearchBudget::unlimited().with_max_trainings(trainings);

    // The quality-vs-budget curve: how much of the greedy answer each
    // training budget buys.
    let full = pipeline(SearchBudget::unlimited()).run()?;
    println!("budget (trainings)   eliminated   cost reduction   exhausted");
    for budget in [1usize, 2, 4, 8, 16] {
        let report = pipeline(capped_at(budget)).run()?;
        assert!(report.budget().trainings <= budget, "budget {budget} exceeded");
        assert!(!report.kept().is_empty(), "a truncated run is still a valid result");
        println!(
            "{budget:>18}   {:>10}   {:>13.1}%   {}",
            report.eliminated().len(),
            100.0 * report.cost.reduction,
            report.budget().exhausted,
        );
    }
    println!(
        "{:>18}   {:>10}   {:>13.1}%   {}\n",
        "unlimited",
        full.eliminated().len(),
        100.0 * full.cost.reduction,
        full.budget().exhausted,
    );

    // A hard truncation still ships a deployable program and says so.
    let truncated = pipeline(capped_at(1)).run()?;
    assert!(truncated.budget().exhausted);
    assert_eq!(truncated.budget().provenance, FrontierProvenance::Truncated);
    println!("{}\n", truncated.summary());

    // The stochastic walk under the same configuration, uncapped and capped.
    let walk = SimulatedAnnealing::new(7)
        .with_schedule(AnnealingSchedule { steps: 60, ..AnnealingSchedule::default() });
    let annealing = pipeline(SearchBudget::unlimited()).search(walk).run()?;
    let capped = pipeline(capped_at(4)).search(walk).run()?;
    println!("strategy             eliminated   cost reduction   trainings   provenance");
    for report in [&full, &annealing, &capped] {
        println!(
            "{:<19}  {:>10}   {:>13.1}%   {:>9}   {}",
            report.search,
            report.eliminated().len(),
            100.0 * report.cost.reduction,
            report.budget().trainings,
            report.budget().provenance,
        );
    }

    // The capped walk ships its best committed frontier, never an error.
    assert!(capped.budget().trainings <= 4, "the annealing cap was exceeded");
    assert!(!capped.kept().is_empty(), "a truncated walk is still a valid result");
    assert!(
        capped.cost.reduction <= annealing.cost.reduction + 1e-12,
        "a capped walk cannot beat the uncapped walk of the same seed"
    );
    println!(
        "\nthe capped walk shipped its best frontier after {} trainings",
        capped.budget().trainings
    );
    Ok(())
}
