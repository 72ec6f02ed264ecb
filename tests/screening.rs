//! Screen-then-verify integration tests on the bundled op-amp fixture.
//!
//! The Nyström screen never decides outcomes — every shortlisted candidate
//! is re-trained exactly — so the properties pinned here are the two the
//! design leans on: the approximate model's *decisions* track the exact
//! ε-SVM closely enough to rank candidates (sign agreement), and a
//! shortlist at least as large as the candidate batch leaves the whole
//! pipeline byte-identical to the exact path.

use spec_test_compaction::prelude::*;

/// Fraction of training instances on which the Nyström screen's sign must
/// agree with the exact SVM, for every probed kept set.  This is the
/// tolerance documented in `stc_svm::nystrom`: decision *values* differ
/// (squared loss vs hinge loss) but the classification rarely flips.
const MIN_SIGN_AGREEMENT: f64 = 0.90;

fn opamp_training_set(instances: usize) -> MeasurementSet {
    let device = OpAmpDevice::paper_setup();
    let config = MonteCarloConfig::new(instances)
        .with_seed(2005)
        .with_threads(4)
        .with_calibration_quantiles(0.02, 0.98);
    generate_measurement_set(&device, &config).expect("op-amp Monte Carlo succeeds")
}

/// The Nyström approximate trainer agrees in sign with the exact SVM on at
/// least [`MIN_SIGN_AGREEMENT`] of the op-amp training population, on the
/// full kept set and on each of the leave-one-out sets the backward search
/// actually screens.
#[test]
fn nystrom_screen_sign_agrees_with_the_exact_svm_on_the_opamp_fixture() {
    let train = opamp_training_set(500);
    let backend = SvmBackend::paper_default();
    let all: Vec<usize> = (0..train.specs().len()).collect();

    let mut kept_sets: Vec<Vec<usize>> = vec![all.clone()];
    // The step-response specs (rise time, overshoot, settling) are the
    // paper's most redundant tests — the kept sets the search examines
    // first.
    for dropped in [4usize, 5, 6] {
        kept_sets.push(all.iter().copied().filter(|&c| c != dropped).collect());
    }

    for kept in &kept_sets {
        let view = TrainingView::new(&train, kept, 0.0).expect("valid kept set");
        let exact = backend.train(&view).expect("exact SVM trains");
        let screen = backend.train_screen(&view, 64).expect("Nyström screen trains");
        let agreements = (0..view.len())
            .filter(|&i| {
                let features = view.features(i);
                (exact.decision(&features) >= 0.0) == (screen.decision(&features) >= 0.0)
            })
            .count();
        let fraction = agreements as f64 / view.len() as f64;
        assert!(
            fraction >= MIN_SIGN_AGREEMENT,
            "kept {kept:?}: only {agreements}/{} sign agreements ({fraction:.3})",
            view.len(),
        );
    }
}

/// With the shortlist at least as large as any candidate batch the screen
/// verifies everything exactly, so the op-amp pipeline must produce a
/// byte-identical [`CompactionResult`] — same kept and eliminated sets,
/// same steps, same training count.
#[test]
fn oversized_shortlist_keeps_the_opamp_pipeline_byte_identical() {
    let device = OpAmpDevice::paper_setup();
    let monte_carlo = MonteCarloConfig::new(150)
        .with_seed(404)
        .with_threads(4)
        .with_calibration_quantiles(0.02, 0.98);
    // Examine only the three step-response specs to keep the run fast.
    let config = CompactionConfig::paper_default()
        .with_tolerance(0.10)
        .with_order(EliminationOrder::Functional(vec![4, 6, 5]))
        .with_threads(2);
    let run = |screening: Option<ScreeningConfig>| {
        let mut pipeline = CompactionPipeline::for_device(&device)
            .monte_carlo(monte_carlo)
            .test_instances(80)
            .compaction(config.clone())
            .classifier(SvmBackend::paper_default());
        if let Some(screening) = screening {
            pipeline = pipeline.screening(screening);
        }
        pipeline.run().expect("op-amp pipeline runs").compaction
    };
    let exact = run(None);
    let screened = run(Some(ScreeningConfig::screened(24, 64)));
    assert_eq!(screened, exact, "oversized shortlist must change nothing");
    assert_eq!(screened.screening.batches, 0, "the screen must never engage");
}

/// An *active* screen (shortlist smaller than the greedy batch) still
/// reproduces the exact path's kept and eliminated sets on the op-amp
/// fixture while training strictly fewer exact models, and screened
/// rejections never consume the training budget.
#[test]
fn active_screening_reproduces_exact_opamp_decisions_with_fewer_trainings() {
    let device = OpAmpDevice::paper_setup();
    let monte_carlo = MonteCarloConfig::new(150)
        .with_seed(404)
        .with_threads(4)
        .with_calibration_quantiles(0.02, 0.98);
    let config = CompactionConfig::paper_default()
        .with_tolerance(0.10)
        .with_order(EliminationOrder::Functional(vec![4, 6, 5]))
        .with_threads(3);
    let run = |screening: Option<ScreeningConfig>| {
        let mut pipeline = CompactionPipeline::for_device(&device)
            .monte_carlo(monte_carlo)
            .test_instances(80)
            .compaction(config.clone())
            .classifier(SvmBackend::paper_default());
        if let Some(screening) = screening {
            pipeline = pipeline.screening(screening);
        }
        pipeline.run().expect("op-amp pipeline runs").compaction
    };
    let exact = run(None);
    let screened = run(Some(ScreeningConfig::screened(32, 1)));

    assert_eq!(screened.kept, exact.kept);
    assert_eq!(screened.eliminated, exact.eliminated);
    assert!(screened.screening.batches > 0, "the screen must engage: {:?}", screened.screening);
    assert!(
        screened.budget.trainings < exact.budget.trainings,
        "the screen must save exact trainings: {} vs {}",
        screened.budget.trainings,
        exact.budget.trainings,
    );
}
