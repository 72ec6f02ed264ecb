//! Integration tests of the anytime/budgeted search through the public
//! pipeline API: a budget in the compaction stage of pipeline and batch,
//! `BudgetStats` on the report, the summary's exhaustion note, and the
//! stochastic strategy end to end on the ε-SVM backend.

use spec_test_compaction::prelude::*;

fn base_config() -> CompactionConfig {
    CompactionConfig::paper_default().with_tolerance(0.1)
}

fn base_pipeline(device: &SyntheticDevice) -> CompactionPipeline<'_> {
    CompactionPipeline::for_device(device)
        .monte_carlo(MonteCarloConfig::new(200).with_seed(29))
        .test_instances(100)
        .compaction(base_config())
}

#[test]
fn unbudgeted_pipeline_reports_a_completed_frontier() {
    let device = SyntheticDevice::new(5, 1.8, 0.92);
    let report = base_pipeline(&device).run().unwrap();
    assert!(!report.budget().exhausted);
    assert_eq!(report.budget().provenance, FrontierProvenance::Completed);
    assert!(report.budget().trainings > 0);
    assert!(!report.summary().contains("budget exhausted"));
}

#[test]
fn budget_stage_truncates_the_search_and_the_summary_says_so() {
    let device = SyntheticDevice::new(5, 1.8, 0.92);
    let full = base_pipeline(&device).run().unwrap();
    assert!(!full.eliminated().is_empty(), "population is redundant by construction");

    let budgeted = base_pipeline(&device)
        .compaction(base_config().with_budget(SearchBudget::unlimited().with_max_trainings(1)))
        .run()
        .unwrap();
    // A truncated run is a valid, conservative result — never an error.
    assert!(budgeted.budget().exhausted);
    assert_eq!(budgeted.budget().provenance, FrontierProvenance::Truncated);
    assert!(budgeted.budget().trainings <= 1);
    assert!(!budgeted.kept().is_empty());
    assert!(budgeted.eliminated().len() <= full.eliminated().len());
    assert!(budgeted.summary().contains("budget exhausted"));
    // The shipped tester covers exactly the (larger) kept set.
    assert_eq!(budgeted.tester.kept(), budgeted.kept());
}

#[test]
fn solver_iteration_budget_bites_on_the_svm_backend() {
    let device = SyntheticDevice::new(5, 1.8, 0.92);
    let full = base_pipeline(&device).classifier(SvmBackend::paper_default()).run().unwrap();
    let consumed = full.budget().solver_iterations;
    assert!(consumed > 0, "the ε-SVM reports solver iterations");

    // A fraction of the full run's iterations must truncate the search.
    let budgeted = base_pipeline(&device)
        .classifier(SvmBackend::paper_default())
        .compaction(
            base_config()
                .with_budget(SearchBudget::unlimited().with_max_solver_iterations(consumed / 4)),
        )
        .run()
        .unwrap();
    assert!(budgeted.budget().exhausted);
    assert!(!budgeted.kept().is_empty());
    assert!(budgeted.eliminated().len() <= full.eliminated().len());
}

#[test]
fn stochastic_strategies_run_end_to_end_on_the_svm_backend() {
    let device = SyntheticDevice::new(5, 1.8, 0.92);
    let annealing = base_pipeline(&device)
        .classifier(SvmBackend::paper_default())
        .search(
            SimulatedAnnealing::new(11)
                .with_schedule(AnnealingSchedule { steps: 40, ..AnnealingSchedule::default() }),
        )
        .run()
        .unwrap();
    assert_eq!(annealing.search, "simulated-annealing");
    if !annealing.eliminated().is_empty() {
        assert!(annealing.final_breakdown().prediction_error() <= 0.1 + 1e-9);
    }
    // The walk is anytime too: a training cap truncates it to its best
    // committed frontier.
    let capped = base_pipeline(&device)
        .classifier(SvmBackend::paper_default())
        .search(SimulatedAnnealing::new(11))
        .compaction(base_config().with_budget(SearchBudget::unlimited().with_max_trainings(3)))
        .run()
        .unwrap();
    assert!(capped.budget().trainings <= 3);
    assert!(!capped.kept().is_empty());
}

#[test]
fn batch_budget_stage_applies_per_entry() {
    let a = SyntheticDevice::new(4, 1.8, 0.9);
    let b = SyntheticDevice::new(5, 1.8, 0.92);
    let report = PipelineBatch::new()
        .monte_carlo(MonteCarloConfig::new(150).with_seed(5))
        .test_instances(80)
        .compaction(base_config().with_budget(SearchBudget::unlimited().with_max_trainings(1)))
        .device(&a)
        .device(&b)
        .batch_threads(2)
        .run()
        .unwrap();
    for run in &report.runs {
        assert!(run.report.budget().trainings <= 1, "entry {}", run.label);
        assert!(!run.report.kept().is_empty(), "entry {}", run.label);
    }
}
