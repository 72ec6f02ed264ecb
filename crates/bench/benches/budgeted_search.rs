//! Benchmark of budgeted anytime search on the op-amp pipeline — the
//! quality-vs-budget curve, plus wall time per budget point and for the
//! stochastic annealing strategy.
//!
//! The 0.6 `SearchBudget` is enforced centrally by the `CandidateEvaluator`,
//! so a budgeted run pays for exactly the trainings it admits and a
//! truncated search still returns its best committed frontier.  Before
//! timing, the harness sweeps the training budget over the paper's greedy
//! elimination and prints how much of the unbudgeted answer each budget
//! buys (eliminated tests, cost reduction, solver iterations, exhaustion),
//! then does the same for seeded simulated annealing.  `STC_SCALE` scales
//! the population sizes as in the other benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spec_test_compaction::adapters::OpAmpDevice;
use stc_core::search::{GreedyBackward, SearchBudget, SearchStrategy, SimulatedAnnealing};
use stc_core::{
    generate_train_test, CompactionConfig, CompactionResult, Compactor, MonteCarloConfig,
    TestCostModel,
};
use stc_svm::SvmBackend;

fn compactor() -> Compactor {
    let device = OpAmpDevice::paper_setup();
    let train_instances = stc_bench::scaled(150, 60);
    let monte_carlo = MonteCarloConfig::new(train_instances)
        .with_seed(404)
        .with_threads(stc_bench::threads())
        .with_calibration_quantiles(0.02, 0.98);
    let (train, test) =
        generate_train_test(&device, &monte_carlo, train_instances / 2).expect("op-amp MC runs");
    Compactor::new(train, test).expect("populations are valid")
}

/// The op-amp cost model of the `search_strategies` bench: DC specs are
/// cheap, AC specs need a network analyser, transient specs are the most
/// expensive insertion.
fn opamp_costs(spec_count: usize) -> TestCostModel {
    let per_test: Vec<f64> = (0..spec_count).map(|i| 1.0 + (i % 3) as f64).collect();
    let insertion_of_test: Vec<usize> = (0..spec_count).map(|i| i * 3 / spec_count).collect();
    TestCostModel::new(per_test, insertion_of_test, vec![2.0, 5.0, 12.0])
        .expect("cost model is valid")
}

fn run(
    compactor: &Compactor,
    strategy: &dyn SearchStrategy,
    cost: &TestCostModel,
    budget: SearchBudget,
) -> CompactionResult {
    let config = CompactionConfig::paper_default().with_tolerance(0.05).with_budget(budget);
    compactor
        .compact_with_strategy(&SvmBackend::paper_default(), &config, strategy, Some(cost))
        .expect("a budgeted compaction never errors")
}

fn describe(label: &str, cost: &TestCostModel, result: &CompactionResult) {
    println!(
        "budgeted_search/{label}: eliminated {} (cost reduction {:.1}%), \
         {} trainings / {} solver iterations, exhausted {}, {} frontier",
        result.eliminated.len(),
        100.0 * result.cost_reduction_ratio(cost).expect("kept set is valid"),
        result.budget.trainings,
        result.budget.solver_iterations,
        result.budget.exhausted,
        result.budget.provenance,
    );
}

fn bench_budgeted_search(c: &mut Criterion) {
    let compactor = compactor();
    let cost = opamp_costs(compactor.training().specs().len());

    // The quality-vs-budget curve on the greedy default.
    let unbudgeted = run(&compactor, &GreedyBackward, &cost, SearchBudget::unlimited());
    let budgets: [(&str, SearchBudget); 4] = [
        ("greedy/2-trainings", SearchBudget::unlimited().with_max_trainings(2)),
        ("greedy/5-trainings", SearchBudget::unlimited().with_max_trainings(5)),
        ("greedy/10-trainings", SearchBudget::unlimited().with_max_trainings(10)),
        ("greedy/unlimited", SearchBudget::unlimited()),
    ];
    for (label, budget) in &budgets {
        let result = run(&compactor, &GreedyBackward, &cost, *budget);
        if let Some(max) = budget.max_trainings {
            assert!(result.budget.trainings <= max, "budget must cap trainings");
            assert!(
                result.eliminated.len() <= unbudgeted.eliminated.len(),
                "a truncated run never eliminates more than the full run"
            );
        }
        describe(label, &cost, &result);
    }
    let annealing = SimulatedAnnealing::new(404);
    describe(
        "simulated-annealing",
        &cost,
        &run(&compactor, &annealing, &cost, SearchBudget::unlimited()),
    );

    let mut group = c.benchmark_group("budgeted_search");
    group.sample_size(10);
    for (label, budget) in budgets {
        group.bench_with_input(BenchmarkId::new("op-amp", label), &(), |b, ()| {
            b.iter(|| run(&compactor, &GreedyBackward, &cost, budget));
        });
    }
    group.bench_with_input(BenchmarkId::new("op-amp", "simulated-annealing"), &(), |b, ()| {
        b.iter(|| run(&compactor, &annealing, &cost, SearchBudget::unlimited()));
    });
    group.finish();
}

criterion_group!(benches, bench_budgeted_search);
criterion_main!(benches);
