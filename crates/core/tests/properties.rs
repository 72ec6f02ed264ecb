//! Property-based tests of the compaction invariants, including the 0.3
//! columnar-storage contract: every measurement accessor and every model
//! trained over a zero-copy view must behave exactly like the pre-0.3
//! row-major path.

use proptest::prelude::*;
use stc_core::classifier::{ClassifierFactory, GridBackend};
use stc_core::search::{CostAwareGreedy, GreedyBackward, SimulatedAnnealing};
use stc_core::{
    baseline, generate_train_test, CompactionConfig, CompactionError, CompactionStep, Compactor,
    DeviceLabel, ErrorBreakdown, GuardBandConfig, MeasurementSet, MonteCarloConfig, Specification,
    SpecificationSet, SyntheticDevice,
};
use stc_svm::SvmBackend;

/// The pre-0.5 greedy backward elimination (the 0.4 `compact_with` loop),
/// reimplemented sequentially, cold and uncached, as the reference the
/// `SearchStrategy` seam must reproduce byte for byte: same kept and
/// eliminated sets, same per-candidate steps, same final breakdown.
#[allow(clippy::type_complexity)]
fn reference_greedy_loop(
    compactor: &Compactor,
    backend: &dyn ClassifierFactory,
    config: &CompactionConfig,
) -> (Vec<usize>, Vec<usize>, Vec<CompactionStep>, ErrorBreakdown) {
    let training = compactor.training();
    let spec_count = training.specs().len();
    let order = config.order.resolve(training).unwrap();
    let mut eliminated: Vec<usize> = Vec::new();
    let mut steps = Vec::new();
    for &candidate in &order {
        if let Some(max) = config.max_eliminated {
            if eliminated.len() >= max {
                break;
            }
        }
        if eliminated.contains(&candidate) {
            continue;
        }
        let kept: Vec<usize> =
            (0..spec_count).filter(|c| !eliminated.contains(c) && *c != candidate).collect();
        if kept.is_empty() {
            // Never eliminate the last remaining test.
            break;
        }
        match compactor.evaluate_kept_set_with(backend, &kept, &config.guard_band) {
            Ok((_, breakdown)) => {
                let eliminate = breakdown.prediction_error() <= config.error_tolerance;
                if eliminate {
                    eliminated.push(candidate);
                }
                steps.push(CompactionStep {
                    spec_index: candidate,
                    spec_name: training.specs().spec(candidate).name().to_string(),
                    eliminated: eliminate,
                    breakdown,
                });
            }
            Err(CompactionError::Classifier { .. })
            | Err(CompactionError::InsufficientData { .. }) => {
                steps.push(CompactionStep {
                    spec_index: candidate,
                    spec_name: training.specs().spec(candidate).name().to_string(),
                    eliminated: false,
                    breakdown: ErrorBreakdown::default(),
                });
            }
            Err(other) => panic!("reference loop failed: {other:?}"),
        }
    }
    let kept: Vec<usize> = (0..spec_count).filter(|c| !eliminated.contains(c)).collect();
    let final_breakdown = if eliminated.is_empty() {
        baseline::evaluate_complete_test_set(compactor.testing())
    } else {
        compactor.evaluate_kept_set_with(backend, &kept, &config.guard_band).unwrap().1
    };
    (kept, eliminated, steps, final_breakdown)
}

fn spec_set(dimension: usize) -> SpecificationSet {
    let specs = (0..dimension)
        .map(|i| Specification::new(&format!("s{i}"), "-", 0.0, -1.0, 1.0).unwrap())
        .collect();
    SpecificationSet::new(specs).unwrap()
}

/// The pre-0.3 row-major label computation, kept here as the reference the
/// columnar path must reproduce bit-for-bit.
fn row_major_label(specs: &SpecificationSet, row: &[f64]) -> DeviceLabel {
    if specs.passes(row) {
        DeviceLabel::Good
    } else {
        DeviceLabel::Bad
    }
}

proptest! {
    /// Normalisation maps the acceptability range onto [0, 1] and is strictly
    /// monotonic, for arbitrary range placement.
    #[test]
    fn normalisation_is_monotonic(lower in -1e6f64..1e6, width in 1e-3f64..1e6, a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let spec = Specification::new("x", "-", lower, lower, lower + width).unwrap();
        prop_assert!(spec.normalize(lower).abs() < 1e-12);
        prop_assert!((spec.normalize(lower + width) - 1.0).abs() < 1e-12);
        let va = lower + a * width;
        let vb = lower + b * width;
        if va < vb {
            prop_assert!(spec.normalize(va) < spec.normalize(vb));
        }
    }

    /// Tightening the ranges (positive margin) can only turn good devices bad,
    /// never the reverse; widening does the opposite.
    #[test]
    fn margin_labelling_is_monotonic(
        rows in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 1..50),
        margin in 0.0f64..0.4,
    ) {
        let data = MeasurementSet::new(spec_set(3), rows).unwrap();
        for i in 0..data.len() {
            let plain = data.label(i);
            let strict = data.label_with_margin(i, margin);
            let loose = data.label_with_margin(i, -margin);
            if plain == DeviceLabel::Bad {
                prop_assert_eq!(strict, DeviceLabel::Bad);
            }
            if plain == DeviceLabel::Good {
                prop_assert_eq!(loose, DeviceLabel::Good);
            }
        }
    }

    /// Ad-hoc compaction never causes yield loss and its defect escape never
    /// exceeds the bad fraction of the population; dropping more tests can
    /// only increase (or keep) the escape.
    #[test]
    fn adhoc_defect_escape_is_monotone_in_dropped_tests(
        rows in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 4), 5..60),
    ) {
        let data = MeasurementSet::new(spec_set(4), rows).unwrap();
        let one = baseline::evaluate_adhoc(&data, &[3]).unwrap();
        let two = baseline::evaluate_adhoc(&data, &[2, 3]).unwrap();
        prop_assert_eq!(one.breakdown.yield_loss_count, 0);
        prop_assert_eq!(two.breakdown.yield_loss_count, 0);
        prop_assert!(two.breakdown.defect_escape_count >= one.breakdown.defect_escape_count);
        let bad_count = data.len() - (data.yield_fraction() * data.len() as f64).round() as usize;
        prop_assert!(two.breakdown.defect_escape_count <= bad_count);
    }

    /// The overall yield never exceeds any single specification's yield.
    #[test]
    fn overall_yield_is_bounded_by_per_spec_yield(
        rows in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 1..60),
    ) {
        let data = MeasurementSet::new(spec_set(3), rows).unwrap();
        let overall = data.yield_fraction();
        for column in 0..3 {
            prop_assert!(overall <= data.per_spec_yield(column).unwrap() + 1e-12);
        }
    }

    /// The columnar storage is an exact stand-in for the seed's row-major
    /// representation: round-tripping through `to_rows` is lossless, every
    /// accessor agrees with the original rows, and labels match a row-major
    /// reference computation.
    #[test]
    fn columnar_storage_is_behaviour_identical_to_row_major(
        rows in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 1..50),
    ) {
        let specs = spec_set(3);
        let data = MeasurementSet::new(specs.clone(), rows.clone()).unwrap();
        prop_assert_eq!(data.to_rows(), rows.clone());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(data.row_values(i), row.clone());
            for (c, &value) in row.iter().enumerate() {
                prop_assert_eq!(data.value(i, c), value);
                prop_assert_eq!(data.column(c)[i], value);
            }
            prop_assert_eq!(data.label(i), row_major_label(&specs, row));
        }
        let batch = data.labels();
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(batch[i], row_major_label(&specs, row));
        }
    }

    /// Warm-started greedy elimination keeps the cold-start compaction
    /// outcome (kept and eliminated sets) for arbitrary populations and
    /// tolerances, and is *exactly* invariant under the speculative thread
    /// count: the warm-start source is always the committed parent kept
    /// set's model, which no speculative evaluation can perturb, so every
    /// thread count trains byte-identical models.  (Warm and cold solver
    /// trajectories may converge to KKT-equivalent models whose decisions
    /// differ on devices within the stopping tolerance of a boundary —
    /// `ErrorBreakdown` identity against cold starts is pinned on the
    /// curated seeds in `svm_backend.rs`.  The cold kept/eliminated
    /// comparison below is safe to run over random populations because the
    /// vendored proptest draws its cases deterministically from the test
    /// name: the sweep is the same every run, so it cannot flake in CI.
    /// When swapping in the real proptest crate, pin this property to a
    /// fixed seed.)
    #[test]
    fn warm_started_compaction_keeps_the_cold_outcome_and_is_thread_invariant(
        seed in 0u64..10_000,
        correlation in 0.5f64..0.95,
        tolerance in 0.01f64..0.2,
        threads in 2usize..5,
    ) {
        let device = SyntheticDevice::new(4, 1.6, correlation);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(160).with_seed(seed), 80).unwrap();
        let compactor = Compactor::new(train, test).unwrap();
        let backend = SvmBackend::paper_default();
        let base = CompactionConfig::paper_default().with_tolerance(tolerance);
        let warm_sequential = compactor.compact_with(&backend, &base).unwrap();
        let warm_threaded = compactor
            .compact_with(&backend, &base.clone().with_threads(threads))
            .unwrap();
        // Exact invariance across thread counts: kept/eliminated sets, every
        // per-step breakdown and the final breakdown.
        prop_assert_eq!(&warm_sequential, &warm_threaded);
        prop_assert_eq!(&warm_sequential.final_breakdown, &warm_threaded.final_breakdown);
        for (a, b) in warm_sequential.steps.iter().zip(warm_threaded.steps.iter()) {
            prop_assert_eq!(&a.breakdown, &b.breakdown);
        }
        // The compaction outcome matches the cold start.
        let cold = compactor
            .compact_with(&backend, &base.with_warm_start(false))
            .unwrap();
        prop_assert_eq!(&warm_sequential.kept, &cold.kept);
        prop_assert_eq!(&warm_sequential.eliminated, &cold.eliminated);
    }

    /// Zero-copy views (split/truncate) are behaviour-identical to the
    /// materialised row-major subsets the seed produced: same labels, same
    /// features and the same `ErrorBreakdown` from a model trained on them.
    #[test]
    fn views_equal_materialised_subsets(
        rows in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 12..60),
        split in 10usize..12,
    ) {
        let specs = spec_set(3);
        let data = MeasurementSet::new(specs.clone(), rows.clone()).unwrap();
        let (train_view, test_view) = data.split_at(split);
        // The views share the parent's allocation …
        prop_assert!(train_view.matrix().shares_allocation_with(data.matrix()));
        // … and equal independently materialised row-major sets.
        let train_copy =
            MeasurementSet::new(specs.clone(), rows[..split].to_vec()).unwrap();
        let test_copy = MeasurementSet::new(specs.clone(), rows[split..].to_vec()).unwrap();
        prop_assert_eq!(&train_view, &train_copy);
        prop_assert_eq!(&test_view, &test_copy);
        prop_assert_eq!(train_view.labels(), train_copy.labels());
        prop_assert_eq!(data.truncated(split), train_copy.clone());
        for i in 0..test_view.len() {
            prop_assert_eq!(test_view.features(i, &[0, 2]), test_copy.features(i, &[0, 2]));
        }

        // A model trained/evaluated over the views produces the same error
        // breakdown (and the same kept/eliminated sets) as over the copies.
        if !test_view.is_empty() {
            let config = CompactionConfig::paper_default().with_tolerance(0.2);
            let viewed = Compactor::new(train_view, test_view).unwrap();
            let copied = Compactor::new(train_copy, test_copy).unwrap();
            let backend = GridBackend::default();
            let from_view = viewed.compact_with(&backend, &config);
            let from_copy = copied.compact_with(&backend, &config);
            match (from_view, from_copy) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.kept, &b.kept);
                    prop_assert_eq!(&a.eliminated, &b.eliminated);
                    prop_assert_eq!(a.final_breakdown, b.final_breakdown);
                }
                (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
            }
            let guard_band = GuardBandConfig::paper_default();
            let view_eval = viewed.evaluate_kept_set_with(&backend, &[0, 1], &guard_band);
            let copy_eval = copied.evaluate_kept_set_with(&backend, &[0, 1], &guard_band);
            match (view_eval, copy_eval) {
                (Ok((_, a)), Ok((_, b))) => prop_assert_eq!(a, b),
                (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
            }
        }
    }
}

proptest! {
    /// `GreedyBackward` through the 0.5 `SearchStrategy` seam is
    /// byte-identical to the pre-refactor hard-coded loop on the grid
    /// backend — kept and eliminated sets, every per-candidate step and the
    /// final breakdown — for any speculative thread count.
    #[test]
    fn greedy_through_the_search_seam_matches_the_reference_loop_on_grid(
        seed in 0u64..10_000,
        correlation in 0.3f64..0.95,
        tolerance in 0.01f64..0.3,
        threads in 1usize..5,
    ) {
        let device = SyntheticDevice::new(4, 1.6, correlation);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(160).with_seed(seed), 80).unwrap();
        let compactor = Compactor::new(train, test).unwrap();
        let backend = GridBackend::default();
        let config = CompactionConfig::paper_default()
            .with_tolerance(tolerance)
            .with_threads(threads);
        let (kept, eliminated, steps, final_breakdown) =
            reference_greedy_loop(&compactor, &backend, &config);
        // Both entry points route through the seam; pin both anyway.
        let via_compact = compactor.compact_with(&backend, &config).unwrap();
        let via_strategy = compactor
            .compact_with_strategy(&backend, &config, &GreedyBackward, None)
            .unwrap();
        for result in [&via_compact, &via_strategy] {
            prop_assert_eq!(&result.kept, &kept);
            prop_assert_eq!(&result.eliminated, &eliminated);
            prop_assert_eq!(&result.steps, &steps);
            prop_assert_eq!(&result.final_breakdown, &final_breakdown);
        }
    }

    /// The model-cache and warm-start invariants restated per strategy:
    /// every bundled search is byte-identical across speculative thread
    /// counts (the warm source depends only on accepted frontiers), and the
    /// deploy-stage model of an eliminating run is always a cache hit.
    #[test]
    fn every_bundled_strategy_is_thread_invariant_with_a_cached_final_model(
        seed in 0u64..10_000,
        tolerance in 0.05f64..0.3,
        threads in 2usize..5,
    ) {
        let device = SyntheticDevice::new(4, 1.8, 0.9);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(160).with_seed(seed), 80).unwrap();
        let compactor = Compactor::new(train, test).unwrap();
        let backend = GridBackend::default();
        let base = CompactionConfig::paper_default().with_tolerance(tolerance);
        let annealing = SimulatedAnnealing::new(seed);
        let strategies: [&dyn stc_core::SearchStrategy; 3] =
            [&GreedyBackward, &CostAwareGreedy, &annealing];
        for strategy in strategies {
            let sequential =
                compactor.compact_with_strategy(&backend, &base, strategy, None).unwrap();
            let parallel = compactor
                .compact_with_strategy(&backend, &base.clone().with_threads(threads), strategy, None)
                .unwrap();
            prop_assert_eq!(&sequential, &parallel);
            prop_assert_eq!(&sequential.steps, &parallel.steps);
            if !sequential.eliminated.is_empty() {
                prop_assert!(
                    sequential.cache.hits >= 1,
                    "final model must be a cache hit for {} ({:?})",
                    strategy.name(),
                    sequential.cache
                );
            }
        }
    }

    /// The stochastic strategy is byte-identical across speculative thread
    /// counts for a fixed seed — the evaluator owns all training, and the
    /// walk evaluates one kept set at a time and draws every random number
    /// on the search thread.
    #[test]
    fn stochastic_strategies_are_thread_invariant(
        seed in 0u64..10_000,
        tolerance in 0.05f64..0.3,
        threads in 2usize..5,
    ) {
        let device = SyntheticDevice::new(4, 1.8, 0.9);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(160).with_seed(seed), 80).unwrap();
        let compactor = Compactor::new(train, test).unwrap();
        let backend = GridBackend::default();
        let base = CompactionConfig::paper_default().with_tolerance(tolerance);
        let annealing = SimulatedAnnealing::new(seed ^ 0x5eed);
        let sequential = compactor.compact_with_strategy(&backend, &base, &annealing, None).unwrap();
        let parallel = compactor
            .compact_with_strategy(&backend, &base.clone().with_threads(threads), &annealing, None)
            .unwrap();
        prop_assert_eq!(&sequential, &parallel);
        prop_assert_eq!(&sequential.steps, &parallel.steps);
        // Even the trainings and their solver iterations are invariant.
        prop_assert_eq!(sequential.cache, parallel.cache);
        prop_assert_eq!(sequential.warm_start, parallel.warm_start);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The seam identity on the ε-SVM backend (the paper's model family):
    /// with warm starts disabled the seam must reproduce the pre-refactor
    /// loop byte for byte (warm-started runs are pinned against cold runs
    /// separately, on curated seeds, because KKT-equivalent solutions may
    /// disagree on boundary devices).  Fewer cases: each one trains dozens
    /// of SVM pairs.
    #[test]
    fn greedy_through_the_search_seam_matches_the_reference_loop_on_svm(
        seed in 0u64..10_000,
        tolerance in 0.02f64..0.2,
        threads in 1usize..4,
    ) {
        let device = SyntheticDevice::new(4, 1.6, 0.85);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(120).with_seed(seed), 60).unwrap();
        let compactor = Compactor::new(train, test).unwrap();
        let backend = SvmBackend::paper_default();
        let config = CompactionConfig::paper_default()
            .with_tolerance(tolerance)
            .with_threads(threads)
            .with_warm_start(false);
        let (kept, eliminated, steps, final_breakdown) =
            reference_greedy_loop(&compactor, &backend, &config);
        let result = compactor.compact_with(&backend, &config).unwrap();
        prop_assert_eq!(&result.kept, &kept);
        prop_assert_eq!(&result.eliminated, &eliminated);
        prop_assert_eq!(&result.steps, &steps);
        prop_assert_eq!(&result.final_breakdown, &final_breakdown);
    }
}
