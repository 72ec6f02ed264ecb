//! Integration test of the accelerometer case study: temperature tests are
//! predictable from room-temperature measurements with small error, which is
//! the headline Table 3 result of the paper — driven through the staged
//! pipeline with both classifier backends.

use spec_test_compaction::prelude::*;

#[test]
fn temperature_insertions_are_predictable_from_room_temperature() {
    let device = AccelerometerDevice::paper_setup();
    let config = MonteCarloConfig::new(500)
        .with_seed(505)
        .with_threads(4)
        .with_calibration_quantiles(0.075, 0.925);
    let (train, test) = generate_train_test(&device, &config, 300).expect("MEMS MC succeeds");
    assert_eq!(train.specs().len(), 12);
    let training_yield = train.yield_fraction();
    assert!(training_yield > 0.5 && training_yield < 0.95, "yield {training_yield}");

    let compactor = Compactor::new(train, test).unwrap();
    let svm = SvmBackend::paper_default();
    let guard_band = GuardBandConfig::paper_default();
    let cold = AccelerometerDevice::temperature_group(TestTemperature::Cold);
    let hot = AccelerometerDevice::temperature_group(TestTemperature::Hot);
    let both: Vec<usize> = cold.iter().chain(hot.iter()).copied().collect();

    let cold_breakdown = compactor.eliminate_group_with(&svm, &cold, &guard_band).unwrap();
    let both_breakdown = compactor.eliminate_group_with(&svm, &both, &guard_band).unwrap();

    // The paper reports sub-1 % errors; at reduced scale we only require the
    // qualitative result: the temperature outcomes are highly predictable.
    assert!(
        cold_breakdown.prediction_error() < 0.05,
        "cold-test prediction should be accurate: {cold_breakdown:?}"
    );
    assert!(
        both_breakdown.prediction_error() < 0.08,
        "both-insertion prediction should stay accurate: {both_breakdown:?}"
    );
    // Removing more tests cannot make the prediction problem easier.
    assert!(
        both_breakdown.prediction_error() + both_breakdown.guard_band_fraction()
            >= cold_breakdown.prediction_error() - 0.02
    );

    // And the cost argument of the paper: dropping both insertions saves more
    // than half of the test cost.
    let cost_model = AccelerometerDevice::cost_model();
    let kept: Vec<usize> = (0..12).filter(|c| !both.contains(c)).collect();
    assert!(cost_model.cost_reduction(&kept).unwrap() > 0.5);
}

#[test]
fn mems_pipeline_runs_with_both_backends() {
    let device = AccelerometerDevice::paper_setup();
    // Examine only the cold insertion to keep the run fast; the thermal
    // tests are the redundant ones in this case study.
    let cold = AccelerometerDevice::temperature_group(TestTemperature::Cold);
    for (backend, expect_name) in [
        (Box::new(SvmBackend::paper_default()) as Box<dyn ClassifierFactory>, "svm"),
        (Box::new(GridBackend::default()) as Box<dyn ClassifierFactory>, "grid"),
    ] {
        let report = CompactionPipeline::for_device(&device)
            .monte_carlo(
                MonteCarloConfig::new(200)
                    .with_seed(505)
                    .with_threads(4)
                    .with_calibration_quantiles(0.075, 0.925),
            )
            .test_instances(100)
            .compaction(
                CompactionConfig::paper_default()
                    .with_tolerance(0.08)
                    .with_order(EliminationOrder::Functional(cold.clone()))
                    .with_threads(2),
            )
            .cost_model(AccelerometerDevice::cost_model())
            .classifier_arc(std::sync::Arc::from(backend))
            .run()
            .expect("MEMS pipeline runs");
        assert_eq!(report.backend, expect_name);
        assert_eq!(report.device, "MEMS lateral comb accelerometer");
        assert_eq!(report.kept().len() + report.eliminated().len(), 12);
        // Eliminated thermal tests translate into insertion-cost savings.
        if report.eliminated().len() == 4 {
            assert!(report.cost.reduction > 0.3, "reduction {}", report.cost.reduction);
        }
    }
}

/// The `mems_search` benchmark's run at full scale, pinned: 4,000 + 4,000
/// accelerometers at seed 2005, calibrated at the 7.5 % and 92.5 %
/// quantiles, compacted by the paper's SVM under the thermal-insertion cost
/// model.  Kept set, deployed and sequential figures, solver iterations and
/// kernel-row bank counters are the same at one and two threads.
#[test]
fn full_scale_mems_run_is_pinned() {
    let device = AccelerometerDevice::paper_setup();
    let monte_carlo = MonteCarloConfig::new(4000)
        .with_seed(2005)
        .with_threads(2)
        .with_calibration_quantiles(0.075, 0.925);
    let (train, test) = generate_train_test(&device, &monte_carlo, 4000).expect("MEMS MC succeeds");
    for threads in [1, 2] {
        let report = CompactionPipeline::for_device(&device)
            .monte_carlo(monte_carlo)
            .test_instances(4000)
            .compaction(CompactionConfig::paper_default().with_threads(threads))
            .cost_model(AccelerometerDevice::cost_model())
            .classifier(SvmBackend::paper_default())
            .run_with_population(train.clone(), test.clone())
            .expect("MEMS pipeline runs");
        assert_eq!(report.kept(), [10, 11], "threads {threads}");
        let deployed = &report.deployed;
        assert_eq!(
            (
                deployed.true_good,
                deployed.true_bad,
                deployed.yield_loss_count,
                deployed.defect_escape_count,
                deployed.guard_band_count
            ),
            (2845, 798, 1, 11, 345),
            "threads {threads}"
        );
        let sequential = report.sequential.as_ref().expect("sequential stats ship by default");
        assert_eq!(sequential.decision_depths, [598, 3402], "threads {threads}");
        let warm_start = report.warm_start();
        assert_eq!(
            (warm_start.warm_iterations, warm_start.cold_iterations),
            (8234, 1297),
            "threads {threads}"
        );
        let bank = &warm_start.bank;
        assert_eq!(
            (bank.seeded_rows, bank.rebuilt_rows, bank.ignored_banks),
            (1728, 9236, 4),
            "threads {threads}"
        );
    }
}
