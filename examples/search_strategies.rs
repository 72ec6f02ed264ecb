//! The three search strategies: the paper's greedy loop against the
//! two alternatives, each on a workload where it ships a strictly cheaper
//! tester.
//!
//! ```text
//! cargo run --release --example search_strategies
//! ```
//!
//! The greedy backward elimination of the paper commits to the *first*
//! acceptable elimination in examination order; `SearchStrategy` selects
//! one of two alternatives instead, and every strategy shares the same
//! evaluation machinery (model cache, warm starts, speculative threads).
//! Two cases, each pinned by an assertion:
//!
//! * a synthetic device with strongly correlated specifications — so the
//!   *choice* of surviving tests is up to the strategy — under a cost model
//!   where test 5 sits alone in an expensive thermal insertion.  The
//!   functional examination order ranks the cheap tests first, which makes
//!   count-greedy elimination strand the expensive test as the survivor;
//!   cost-aware search finds a strictly cheaper kept set;
//! * the paper's MEMS accelerometer (4,000 + 4,000 devices) under its
//!   thermal-insertion cost model.  Greedy keeps two hot-insertion tests;
//!   simulated annealing keeps two room-temperature tests and so removes
//!   both the hot and the cold insertion, the paper's MEMS result.

use spec_test_compaction::prelude::*;

fn main() -> Result<(), CompactionError> {
    cost_aware_beats_greedy_on_a_thermal_outlier()?;
    annealing_drops_both_thermal_insertions_on_the_accelerometer()
}

fn print_table(reports: &[&PipelineReport]) {
    println!("strategy              kept            cost   cost reduction   prediction error");
    for report in reports {
        println!(
            "{:<20}  {:<14}  {:>5.1}   {:>13.1}%   {:>15.2}%",
            report.search,
            format!("{:?}", report.kept()),
            report.cost.compacted_cost,
            100.0 * report.cost.reduction,
            100.0 * report.final_breakdown().prediction_error(),
        );
    }
}

fn cost_aware_beats_greedy_on_a_thermal_outlier() -> Result<(), CompactionError> {
    // Six specs, strongly correlated: most of them are redundant.
    let device = SyntheticDevice::new(6, 1.8, 0.92);

    // Tests 0..=4 share a cheap room-temperature insertion; test 5 needs an
    // expensive thermal soak on top of a pricey measurement.
    let cost = TestCostModel::new(
        vec![1.0, 1.0, 1.0, 1.0, 1.0, 10.0],
        vec![0, 0, 0, 0, 0, 1],
        vec![1.0, 25.0],
    )?;

    let pipeline = || {
        CompactionPipeline::for_device(&device)
            .monte_carlo(MonteCarloConfig::new(400).with_seed(2005))
            .test_instances(200)
            .compaction(
                CompactionConfig::paper_default()
                    .with_tolerance(0.1)
                    .with_order(EliminationOrder::Functional(vec![0, 1, 2, 3, 4, 5])),
            )
            .cost_model(cost.clone())
            .classifier(SvmBackend::paper_default())
    };

    let greedy = pipeline().run()?;
    let aware = pipeline().search(SearchStrategy::CostAware).run()?;
    print_table(&[&greedy, &aware]);

    let greedy_cost = cost.cost_of(greedy.kept())?;
    let aware_cost = cost.cost_of(aware.kept())?;
    assert!(
        aware_cost < greedy_cost,
        "cost-aware search must be strictly cheaper than greedy here \
         (aware {aware_cost} vs greedy {greedy_cost})"
    );
    println!(
        "\ncost-aware search saves {:.1} cost units over greedy elimination \
         ({:.1} vs {:.1})\n",
        greedy_cost - aware_cost,
        aware_cost,
        greedy_cost,
    );
    Ok(())
}

fn annealing_drops_both_thermal_insertions_on_the_accelerometer() -> Result<(), CompactionError> {
    let device = AccelerometerDevice::paper_setup();
    let pipeline = || {
        device
            .paper_pipeline()
            .monte_carlo(
                MonteCarloConfig::new(4000)
                    .with_seed(2005)
                    .with_threads(2)
                    .with_calibration_quantiles(0.075, 0.925),
            )
            .test_instances(4000)
            .compaction(CompactionConfig::paper_default().with_threads(2))
    };

    let greedy = pipeline().run()?;
    let annealing = pipeline()
        .search(SearchStrategy::Annealing { seed: 6, schedule: AnnealingSchedule::default() })
        .run()?;
    print_table(&[&greedy, &annealing]);

    let room = AccelerometerDevice::temperature_group(TestTemperature::Room);
    assert!(
        annealing.kept().iter().all(|test| room.contains(test)),
        "annealing must keep only room-temperature tests, kept {:?}",
        annealing.kept()
    );
    assert!(
        annealing.cost.reduction > greedy.cost.reduction,
        "annealing must be strictly cheaper than greedy here \
         (annealing {:.3} vs greedy {:.3})",
        annealing.cost.reduction,
        greedy.cost.reduction,
    );
    println!(
        "\nannealing removes both thermal insertions: cost reduction {:.1}% against \
         greedy's {:.1}%",
        100.0 * annealing.cost.reduction,
        100.0 * greedy.cost.reduction,
    );
    Ok(())
}
