//! Benchmark of the three bundled search strategies on the op-amp pipeline
//! — wall time and total SMO iterations per strategy.
//!
//! The 0.5 `SearchStrategy` seam splits the search procedure from the
//! evaluation machinery (model cache, warm starts, speculative threads), so
//! the strategies differ only in *which* kept sets they ask the shared
//! `CandidateEvaluator` to train:
//!
//! * `greedy-backward` — the paper's Figure 2 loop (the 0.4 baseline),
//! * `cost-aware-greedy` — maximises cost saving per unit error under the
//!   op-amp's insertion cost model,
//! * `simulated-annealing` — the seeded single-flip walk over kept sets.
//!
//! Before timing, the harness runs each strategy once and prints its kept
//! set, solver-iteration total and model-cache counters, so the search-cost
//! trade-off is visible alongside the wall-clock numbers.  `STC_SCALE`
//! scales the population sizes as in the other benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spec_test_compaction::adapters::OpAmpDevice;
use stc_core::search::{CostAwareGreedy, GreedyBackward, SearchStrategy, SimulatedAnnealing};
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

/// A plausible cost model for the op-amp's 11 specifications: DC specs are
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
) -> CompactionResult {
    let config = CompactionConfig::paper_default().with_tolerance(0.05);
    compactor
        .compact_with_strategy(&SvmBackend::paper_default(), &config, strategy, Some(cost))
        .expect("compaction runs")
}

fn bench_search_strategies(c: &mut Criterion) {
    let compactor = compactor();
    let cost = opamp_costs(compactor.training().specs().len());

    let annealing = SimulatedAnnealing::new(404);
    let strategies: [(&str, &dyn SearchStrategy); 3] = [
        ("greedy-backward", &GreedyBackward),
        ("cost-aware-greedy", &CostAwareGreedy),
        ("simulated-annealing", &annealing),
    ];

    let mut group = c.benchmark_group("search_strategies");
    group.sample_size(10);
    for (label, strategy) in strategies {
        let result = run(&compactor, strategy, &cost);
        println!(
            "search_strategies/{label}: kept {:?} (cost {:.1}, reduction {:.1}%), \
             {} SMO iterations ({} warm / {} cold trainings), cache {} hits / {} misses",
            result.kept,
            cost.cost_of(&result.kept).expect("kept set is valid"),
            100.0 * result.cost_reduction_ratio(&cost).expect("kept set is valid"),
            result.warm_start.total_iterations(),
            result.warm_start.warm_trainings,
            result.warm_start.cold_trainings,
            result.cache.hits,
            result.cache.misses,
        );
        group.bench_with_input(BenchmarkId::new("op-amp", label), &(), |b, ()| {
            b.iter(|| run(&compactor, strategy, &cost));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search_strategies);
criterion_main!(benches);
