//! Integration tests of the compaction methodology with the ε-SVM backend —
//! the model family of the paper.  These live here (rather than in the unit
//! tests) because `stc-svm` is a dev-dependency: the backend implements the
//! `ClassifierFactory` trait of the already-built `stc-core` rlib.

use stc_core::{
    generate_train_test, CompactionConfig, Compactor, GuardBandConfig, GuardBandedClassifier,
    MonteCarloConfig, SyntheticDevice,
};
use stc_svm::SvmBackend;

fn svm() -> SvmBackend {
    SvmBackend::paper_default()
}

/// Five specs where consecutive specs are strongly correlated: several of
/// them are redundant by construction.
fn redundant_population() -> Compactor {
    let device = SyntheticDevice::new(5, 1.8, 0.92);
    let (train, test) =
        generate_train_test(&device, &MonteCarloConfig::new(500).with_seed(31), 300).unwrap();
    Compactor::new(train, test).unwrap()
}

/// Independent specs: nothing should be removable at a tight tolerance.
fn independent_population() -> Compactor {
    let device = SyntheticDevice::new(4, 1.5, 0.0);
    let (train, test) =
        generate_train_test(&device, &MonteCarloConfig::new(500).with_seed(32), 300).unwrap();
    Compactor::new(train, test).unwrap()
}

#[test]
fn redundant_specs_are_eliminated_with_controlled_error() {
    let compactor = redundant_population();
    let config = CompactionConfig::paper_default().with_tolerance(0.03);
    let result = compactor.compact_with(&svm(), &config).unwrap();
    assert!(
        !result.eliminated.is_empty(),
        "highly correlated specs should allow compaction: {result:?}"
    );
    assert!(result.final_breakdown.prediction_error() <= 0.03 + 1e-9);
    assert!(!result.kept.is_empty());
    assert_eq!(result.kept.len() + result.eliminated.len(), 5);
    assert!(result.compaction_ratio() > 0.0);
    // Every examined candidate logs one step; the loop stops early only when
    // a single test remains.
    assert!(result.steps.len() >= result.eliminated.len());
    assert!(result.steps.len() <= 5);
}

#[test]
fn independent_specs_resist_compaction_at_tight_tolerance() {
    let compactor = independent_population();
    let config = CompactionConfig::paper_default().with_tolerance(0.005);
    let result = compactor.compact_with(&svm(), &config).unwrap();
    // With fully independent specs, dropping any of them forfeits real
    // information; at a 0.5 % tolerance almost nothing should go.
    assert!(result.eliminated.len() <= 1, "eliminated {:?}", result.eliminated);
}

#[test]
fn loose_tolerance_eliminates_more_than_tight_tolerance() {
    let compactor = redundant_population();
    let tight = compactor
        .compact_with(&svm(), &CompactionConfig::paper_default().with_tolerance(0.01))
        .unwrap();
    let loose = compactor
        .compact_with(&svm(), &CompactionConfig::paper_default().with_tolerance(0.2))
        .unwrap();
    assert!(loose.eliminated.len() >= tight.eliminated.len());
    // The loop never removes every test.
    assert!(!loose.kept.is_empty());
}

#[test]
fn parallel_svm_evaluation_matches_sequential() {
    let compactor = redundant_population();
    let sequential = compactor
        .compact_with(&svm(), &CompactionConfig::paper_default().with_tolerance(0.05))
        .unwrap();
    let parallel = compactor
        .compact_with(
            &svm(),
            &CompactionConfig::paper_default().with_tolerance(0.05).with_threads(4),
        )
        .unwrap();
    assert_eq!(sequential, parallel);
}

/// The tentpole contract of the warm-started greedy loop: warm starts change
/// solver trajectories, never the compaction outcome.  Kept and eliminated
/// sets, every per-step `ErrorBreakdown` and the final breakdown must be
/// byte-identical to a cold-start run, across seeds and thread counts.
#[test]
fn warm_started_compaction_equals_cold_start_across_seeds_and_threads() {
    for seed in [7u64, 31, 32, 99, 2005] {
        let device = SyntheticDevice::new(5, 1.8, 0.92);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(400).with_seed(seed), 200).unwrap();
        let compactor = Compactor::new(train, test).unwrap();
        let base = CompactionConfig::paper_default().with_tolerance(0.05);
        let cold_sequential =
            compactor.compact_with(&svm(), &base.clone().with_warm_start(false)).unwrap();
        for threads in [1usize, 2, 4] {
            let warm = compactor.compact_with(&svm(), &base.clone().with_threads(threads)).unwrap();
            assert_eq!(warm, cold_sequential, "seed {seed} threads {threads}");
            assert_eq!(
                warm.final_breakdown, cold_sequential.final_breakdown,
                "seed {seed} threads {threads}"
            );
            for (warm_step, cold_step) in warm.steps.iter().zip(cold_sequential.steps.iter()) {
                assert_eq!(warm_step.breakdown, cold_step.breakdown, "seed {seed}");
            }
        }
    }
}

/// Warm starts must save solver work on populations where the greedy loop
/// actually eliminates (every training after the first acceptance starts
/// from the overlapping parent kept set's model).
#[test]
fn warm_started_compaction_spends_fewer_solver_iterations() {
    for seed in [7u64, 31, 32, 99, 2005] {
        let device = SyntheticDevice::new(5, 1.8, 0.92);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(400).with_seed(seed), 200).unwrap();
        let compactor = Compactor::new(train, test).unwrap();
        let base = CompactionConfig::paper_default().with_tolerance(0.05);
        let warm = compactor.compact_with(&svm(), &base).unwrap();
        let cold = compactor.compact_with(&svm(), &base.clone().with_warm_start(false)).unwrap();
        assert!(!warm.eliminated.is_empty(), "seed {seed}: population is redundant");
        assert!(warm.warm_start.warm_trainings >= 1, "seed {seed}: {:?}", warm.warm_start);
        assert_eq!(cold.warm_start.warm_trainings, 0);
        assert!(
            warm.warm_start.total_iterations() <= cold.warm_start.total_iterations(),
            "seed {seed}: warm {:?} vs cold {:?}",
            warm.warm_start,
            cold.warm_start
        );
    }
}

/// The SVM backend surfaces per-training solver iterations through the
/// guard-banded pair; the grid backend has none to report.
#[test]
fn solver_iterations_surface_through_the_guard_banded_pair() {
    let compactor = redundant_population();
    let guard_band = GuardBandConfig::paper_default();
    let kept = [0usize, 1, 2, 3];
    let (classifier, _) = compactor.evaluate_kept_set_with(&svm(), &kept, &guard_band).unwrap();
    assert!(classifier.solver_iterations().expect("svm reports iterations") > 0);

    let (grid_classifier, _) = compactor
        .evaluate_kept_set_with(&stc_core::GridBackend::default(), &kept, &guard_band)
        .unwrap();
    assert_eq!(grid_classifier.solver_iterations(), None);
}

/// Warm-starting the pair training directly (outside the loop) from a parent
/// kept set reproduces the cold decisions on the held-out population.
#[test]
fn warm_pair_training_matches_cold_pair_training() {
    let compactor = redundant_population();
    let guard_band = GuardBandConfig::paper_default();
    let parent_kept = [0usize, 1, 2, 3, 4];
    let parent =
        GuardBandedClassifier::train_with(&svm(), compactor.training(), &parent_kept, &guard_band)
            .unwrap();
    let kept = [0usize, 1, 2, 3];
    let cold = GuardBandedClassifier::train_with(&svm(), compactor.training(), &kept, &guard_band)
        .unwrap();
    let warm = GuardBandedClassifier::train_with_warm(
        &svm(),
        compactor.training(),
        &kept,
        &guard_band,
        Some(&parent),
    )
    .unwrap();
    assert_eq!(warm.evaluate(compactor.testing()), cold.evaluate(compactor.testing()));
    assert!(
        warm.solver_iterations().unwrap() <= cold.solver_iterations().unwrap(),
        "warm {:?} cold {:?}",
        warm.solver_iterations(),
        cold.solver_iterations()
    );
}

#[test]
fn eliminate_single_error_shrinks_with_more_training_data() {
    let compactor = redundant_population();
    let guard_band = GuardBandConfig::paper_default();
    let small = compactor.eliminate_single_with(&svm(), 4, 60, &guard_band).unwrap();
    let large = compactor.eliminate_single_with(&svm(), 4, 500, &guard_band).unwrap();
    assert!(
        large.prediction_error() <= small.prediction_error() + 0.02,
        "more data should not hurt: small {small:?} large {large:?}"
    );
}

#[test]
fn dropping_a_highly_correlated_spec_keeps_error_low() {
    let device = SyntheticDevice::new(4, 1.5, 0.8);
    let (train, test) =
        generate_train_test(&device, &MonteCarloConfig::new(400).with_seed(21), 200).unwrap();
    // Keep specs 0..3, drop spec 3 (highly correlated with spec 2).
    let classifier = GuardBandedClassifier::train_with(
        &svm(),
        &train,
        &[0, 1, 2],
        &GuardBandConfig::paper_default(),
    )
    .unwrap();
    let breakdown = classifier.evaluate(&test);
    assert!(breakdown.prediction_error() < 0.08, "error {breakdown:?}");
    assert!(breakdown.guard_band_fraction() < 0.5);
    assert_eq!(breakdown.total, test.len());
    assert_eq!(classifier.backend(), "svm");

    // Keeping everything gives nearly perfect prediction.
    let full = GuardBandedClassifier::train_with(
        &svm(),
        &train,
        &[0, 1, 2, 3],
        &GuardBandConfig::paper_default(),
    )
    .unwrap();
    assert!(full.evaluate(&test).prediction_error() < 0.03);
}

#[test]
fn wider_guard_band_captures_more_devices() {
    let device = SyntheticDevice::new(4, 1.5, 0.8);
    let (train, test) =
        generate_train_test(&device, &MonteCarloConfig::new(400).with_seed(21), 200).unwrap();
    let narrow = GuardBandedClassifier::train_with(
        &svm(),
        &train,
        &[0, 1, 2],
        &GuardBandConfig::paper_default().with_guard_band(0.02).unwrap(),
    )
    .unwrap()
    .evaluate(&test);
    let wide = GuardBandedClassifier::train_with(
        &svm(),
        &train,
        &[0, 1, 2],
        &GuardBandConfig::paper_default().with_guard_band(0.15).unwrap(),
    )
    .unwrap()
    .evaluate(&test);
    assert!(wide.guard_band_count >= narrow.guard_band_count);
    // Devices in the band are not counted as misclassified, so the error of
    // the wide band cannot exceed the narrow one by much.
    assert!(wide.prediction_error() <= narrow.prediction_error() + 0.02);
}

#[test]
fn single_class_population_compacts_to_the_complete_suite() {
    // Every instance passes (very wide limits): the SVM cannot train on a
    // single class, so every candidate is kept and the pipeline still
    // succeeds, shipping the trivial complete-suite program.
    use stc_core::{CompactionPipeline, TesterModel};
    let device = SyntheticDevice::new(3, 50.0, 0.5);
    let report = CompactionPipeline::for_device(&device)
        .monte_carlo(MonteCarloConfig::new(150).with_seed(5))
        .classifier(svm())
        .run()
        .unwrap();
    assert!(report.eliminated().is_empty());
    assert!(matches!(report.tester.model(), TesterModel::CompleteSuite));
    assert_eq!(report.final_breakdown().prediction_error(), 0.0);
    assert_eq!(report.guard_band.retest_count, 0);
}

/// The 0.8 kernel-engine contract at the compaction level: the blocked
/// columnar path (precomputed norms, incremental candidate rows) produces
/// kept and eliminated sets byte-identical to [`stc_svm::KernelPath::Naive`]
/// — the pre-engine per-element row assembly — for the greedy loop and every
/// bundled search strategy, at every thread count.  Per-step
/// `ErrorBreakdown`s are *not* compared: the two paths' Q matrices differ by
/// ulps, so a device sitting within the solver's stopping tolerance of a
/// guard-band boundary can land on either side without perturbing any
/// accept/reject decision.
#[test]
fn blocked_kernel_path_reproduces_the_naive_kept_sets() {
    use stc_core::{CompactionResult, SearchStrategy};
    use stc_svm::{Kernel, KernelPath, SvcParams};

    fn decisions(result: &CompactionResult) -> (Vec<usize>, Vec<usize>, Vec<(usize, bool)>) {
        (
            result.kept.clone(),
            result.eliminated.clone(),
            result.steps.iter().map(|step| (step.spec_index, step.eliminated)).collect(),
        )
    }

    let naive = SvmBackend::new(
        SvcParams::new()
            .with_c(10.0)
            .with_kernel(Kernel::rbf(1.0))
            .with_kernel_path(KernelPath::Naive),
    );
    let device = SyntheticDevice::new(5, 1.8, 0.92);
    for seed in [31u64, 99] {
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(400).with_seed(seed), 200).unwrap();
        let compactor = Compactor::new(train, test).unwrap();
        for threads in [1usize, 4] {
            let config =
                CompactionConfig::paper_default().with_tolerance(0.05).with_threads(threads);
            let fast = compactor.compact_with(&svm(), &config).unwrap();
            let reference = compactor.compact_with(&naive, &config).unwrap();
            assert_eq!(
                decisions(&fast),
                decisions(&reference),
                "greedy seed {seed} threads {threads}"
            );

            let aware = SearchStrategy::CostAware;
            let fast = compactor.compact_with_strategy(&svm(), &config, aware, None).unwrap();
            let reference = compactor.compact_with_strategy(&naive, &config, aware, None).unwrap();
            assert_eq!(
                decisions(&fast),
                decisions(&reference),
                "strategy {} seed {seed} threads {threads}",
                aware.name()
            );
        }
    }
}

/// The search strategies on the paper's backend: each one is thread-count
/// invariant with the ε-SVM, warm starts and all, and meets the tolerance.
#[test]
fn search_strategies_are_consistent_with_the_svm_backend() {
    use stc_core::SearchStrategy;

    let compactor = redundant_population();
    let config = CompactionConfig::paper_default().with_tolerance(0.05);
    let annealing = SearchStrategy::Annealing { seed: 5, schedule: Default::default() };
    for strategy in [SearchStrategy::Greedy, SearchStrategy::CostAware, annealing] {
        let sequential = compactor.compact_with_strategy(&svm(), &config, strategy, None).unwrap();
        let threaded = compactor
            .compact_with_strategy(&svm(), &config.clone().with_threads(4), strategy, None)
            .unwrap();
        assert_eq!(sequential, threaded, "strategy {}", strategy.name());
        assert!(
            sequential.final_breakdown.prediction_error() <= 0.05 + 1e-9,
            "strategy {} breaks the tolerance: {:?}",
            strategy.name(),
            sequential.final_breakdown
        );
    }
}

/// The search trains each candidate's strict and loose models as two jobs
/// and scores their decisions on the held-out devices that pass the kept
/// ranges.  At any thread count, each breakdown greedy elimination logs
/// equals the breakdown of the pair `GuardBandedClassifier::train_with_warm`
/// trains warm-started from the current frontier's pair (the complete suite,
/// the first frontier, has none), on a held-out set where some devices fail
/// a kept range.
#[test]
fn evaluator_breakdowns_equal_the_trained_pairs_at_any_thread_count() {
    let compactor = redundant_population();
    let (train, test) = (compactor.training(), compactor.testing());
    let guard_band = GuardBandConfig::paper_default();
    let spec_count = train.specs().len();
    for threads in [1usize, 2, 4] {
        let config = CompactionConfig::paper_default().with_tolerance(0.03).with_threads(threads);
        let result = compactor.compact_with(&svm(), &config).unwrap();
        let accepted = result.steps.iter().position(|step| step.eliminated);
        assert!(
            accepted.is_some_and(|first| first + 1 < result.steps.len()),
            "some step must follow an elimination at {threads} threads: {:?}",
            result.steps
        );
        let mut eliminated: Vec<usize> = Vec::new();
        let mut frontier: Option<GuardBandedClassifier> = None;
        for step in &result.steps {
            let kept: Vec<usize> = (0..spec_count)
                .filter(|&c| c != step.spec_index && !eliminated.contains(&c))
                .collect();
            let pair = GuardBandedClassifier::train_with_warm(
                &svm(),
                train,
                &kept,
                &guard_band,
                frontier.as_ref(),
            )
            .unwrap();
            assert_eq!(step.breakdown, pair.evaluate(test), "kept {kept:?} at {threads} threads");
            let fails_a_kept_range =
                |i: usize| kept.iter().any(|&c| !test.specs().spec(c).passes(test.value(i, c)));
            let failing = (0..test.len()).filter(|&i| fails_a_kept_range(i)).count();
            assert!(0 < failing && failing < test.len(), "kept {kept:?}: {failing} fail");
            if step.eliminated {
                eliminated.push(step.spec_index);
                frontier = Some(pair);
            }
        }
        assert_eq!(eliminated, result.eliminated);
    }
}
