//! Property-based tests of the SVM building blocks.

use proptest::prelude::*;
use stc_svm::{Dataset, Kernel, KernelEngine, KernelPath, Svc, SvcParams};

fn finite_vector(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, len)
}

/// Feature vectors in a moderate range, so kernel-row tolerances below are
/// meaningful absolute bounds (norms and dot products stay O(100)).
fn moderate_vector(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, len)
}

/// Alternating `+1`/`-1` labels for `len` samples.
fn alternating_labels(len: usize) -> Vec<f64> {
    (0..len).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect()
}

proptest! {
    /// The kernel is symmetric in its arguments at every width.
    #[test]
    fn kernels_are_symmetric(x in finite_vector(5), y in finite_vector(5), gamma in 0.01f64..5.0) {
        let kernel = Kernel::rbf(gamma);
        let forward = kernel.eval(&x, &y);
        let backward = kernel.eval(&y, &x);
        prop_assert!((forward - backward).abs() <= 1e-9 * forward.abs().max(1.0));
    }

    /// The RBF kernel is bounded in [0, 1] (it may underflow to exactly 0 for
    /// very distant points) and equals 1 at zero distance.
    #[test]
    fn rbf_is_bounded(x in finite_vector(4), y in finite_vector(4), gamma in 0.01f64..2.0) {
        let value = Kernel::rbf(gamma).eval(&x, &y);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&value));
        let self_value = Kernel::rbf(gamma).eval(&x, &x);
        prop_assert!((self_value - 1.0).abs() < 1e-12);
    }

    /// A linearly separable problem with a generous margin is always solved
    /// perfectly by the paper's RBF SVC, wherever the threshold sits.
    #[test]
    fn separable_problems_are_learned(threshold in -0.5f64..0.5, count in 10usize..40) {
        let mut data = Dataset::new(1).unwrap();
        for i in 0..count {
            let offset = 0.2 + (i as f64) / count as f64;
            data.push(vec![threshold + offset], 1.0).unwrap();
            data.push(vec![threshold - offset], -1.0).unwrap();
        }
        let model = Svc::train(
            &data,
            &SvcParams::new().with_c(100.0).with_kernel(Kernel::rbf(1.0)),
        )
        .unwrap();
        for i in 0..data.len() {
            prop_assert_eq!(model.predict(&data.features(i)), data.label(i));
        }
        prop_assert_eq!(model.predict(&[threshold + 1.0]), 1.0);
        prop_assert_eq!(model.predict(&[threshold - 1.0]), -1.0);
    }

    /// Warm-starting from the cold model of the *same* problem never costs
    /// more solver iterations than the cold start did, for arbitrary
    /// two-cluster geometries and box sizes: the projected optimum already
    /// satisfies the stopping test (up to support-vector truncation noise).
    #[test]
    fn warm_restarts_never_cost_more_iterations(
        separation in 0.05f64..1.0,
        spread in 0.01f64..0.5,
        c in 0.5f64..50.0,
        count in 8usize..30,
    ) {
        let mut data = Dataset::new(1).unwrap();
        for i in 0..count {
            let jitter = spread * (i as f64 / count as f64);
            data.push(vec![separation + jitter], 1.0).unwrap();
            data.push(vec![-separation - jitter], -1.0).unwrap();
        }
        let params = SvcParams::new().with_c(c).with_kernel(Kernel::rbf(1.0));
        let cold = Svc::train(&data, &params).unwrap();
        let warm = Svc::train_warm(&data, &params, Some(&cold)).unwrap();
        prop_assert!(
            warm.iterations() <= cold.iterations(),
            "warm {} vs cold {}", warm.iterations(), cold.iterations()
        );
        for i in 0..data.len() {
            let x = data.features(i);
            prop_assert_eq!(warm.predict(&x), cold.predict(&x));
        }
    }

    /// Warm-starting across an *added* feature column — the annealing walk's
    /// restore moves, where the committed kept set is a subset of the
    /// candidate kept set — always converges to decisions that agree with
    /// the cold-started model wherever the cold model is confident.  Alphas
    /// are mapped by training-instance index, so the direction of the column
    /// difference must not matter.
    ///
    /// "Confident" must leave real headroom: warm and cold are two *different*
    /// solutions of the same KKT stopping tolerance, and on near-degenerate
    /// data (near-duplicate samples across classes) their decision values can
    /// differ by ~0.1 even though both optima are equally valid.
    #[test]
    fn warm_starts_across_added_columns_agree_with_cold_training(
        slope in 0.2f64..2.0,
        count in 12usize..40,
    ) {
        let mut data = Dataset::new(2).unwrap();
        for i in 0..count {
            let x = i as f64 / count as f64;
            data.push(vec![x, slope * x + 0.4], 1.0).unwrap();
            data.push(vec![x, slope * x - 0.4], -1.0).unwrap();
        }
        let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(1.0));
        // The parent sees only the informative column; the child adds one.
        let narrow = data.select_columns(&[1]).unwrap();
        let parent = Svc::train(&narrow, &params).unwrap();
        let cold = Svc::train(&data, &params).unwrap();
        let warm = Svc::train_warm(&data, &params, Some(&parent)).unwrap();
        for i in 0..data.len() {
            let x = data.features(i);
            if cold.decision_function(&x).abs() > 0.25 {
                prop_assert_eq!(warm.predict(&x), cold.predict(&x));
            }
        }
    }

    /// Warm-starting across a dropped feature column — the backward
    /// strategies' access pattern — always converges to decisions that agree
    /// with the cold-started model wherever the cold model is confident
    /// (with the same degeneracy headroom as the added-column test above).
    #[test]
    fn warm_starts_across_dropped_columns_agree_with_cold_training(
        slope in 0.2f64..2.0,
        count in 12usize..40,
    ) {
        let mut data = Dataset::new(2).unwrap();
        for i in 0..count {
            let x = i as f64 / count as f64;
            data.push(vec![x, slope * x + 0.4], 1.0).unwrap();
            data.push(vec![x, slope * x - 0.4], -1.0).unwrap();
        }
        let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(1.0));
        let parent = Svc::train(&data, &params).unwrap();
        let narrow = data.select_columns(&[1]).unwrap();
        let cold = Svc::train(&narrow, &params).unwrap();
        let warm = Svc::train_warm(&narrow, &params, Some(&parent)).unwrap();
        for i in 0..narrow.len() {
            let x = narrow.features(i);
            if cold.decision_function(&x).abs() > 0.25 {
                prop_assert_eq!(warm.predict(&x), cold.predict(&x));
            }
        }
    }

    /// The blocked kernel engine (precomputed norms, columnar dot rows)
    /// reproduces the naive per-element [`Kernel::eval`] rows to within
    /// `1e-12` (the norm expansion rounds differently from the explicit
    /// squared distance).
    #[test]
    fn blocked_kernel_rows_match_naive_eval(
        rows in prop::collection::vec(moderate_vector(6), 4..24),
        gamma in 0.01f64..2.0,
    ) {
        let labels = alternating_labels(rows.len());
        let data = Dataset::from_rows(&rows, &labels).unwrap();
        let kernel = Kernel::rbf(gamma);
        let blocked = KernelEngine::new(&data, kernel, KernelPath::Blocked);
        let naive = KernelEngine::new(&data, kernel, KernelPath::Naive);
        let mut fast = vec![0.0; data.len()];
        let mut reference = vec![0.0; data.len()];
        for i in 0..data.len() {
            blocked.kernel_row(i, &mut fast);
            naive.kernel_row(i, &mut reference);
            let row_i = data.features(i);
            for j in 0..data.len() {
                // The naive path *is* per-element eval over gathered rows.
                prop_assert_eq!(reference[j], kernel.eval(&row_i, &data.features(j)));
                prop_assert!(
                    (fast[j] - reference[j]).abs() <= 1e-12,
                    "({i},{j}): {} vs {}", fast[j], reference[j]
                );
            }
            prop_assert!((blocked.diag(i) - naive.diag(i)).abs() <= 1e-12);
        }
    }

    /// Incrementally seeded candidate rows (a parent's [`DotRowBank`]
    /// adjusted by the dropped column) match rows computed from scratch to
    /// within `1e-12` *relative* error.
    #[test]
    fn bank_seeded_candidate_rows_match_scratch(
        rows in prop::collection::vec(moderate_vector(6), 4..24),
        gamma in 0.01f64..2.0,
        dropped in 0usize..6,
    ) {
        let labels = alternating_labels(rows.len());
        let parent_data = Dataset::from_rows(&rows, &labels).unwrap();
        let kept: Vec<usize> = (0..6).filter(|&c| c != dropped).collect();
        // Zero-copy projection: the child shares the parent's column Arcs,
        // exactly like consecutive candidate kept sets in the greedy loop.
        let child_data = parent_data.select_columns(&kept).unwrap();
        let kernel = Kernel::rbf(gamma);
        let parent = KernelEngine::new(&parent_data, kernel, KernelPath::Blocked);
        let mut scratch_row = vec![0.0; parent_data.len()];
        for i in 0..parent_data.len() {
            parent.kernel_row(i, &mut scratch_row); // record dot rows
        }
        let bank = parent.into_bank();
        let seeded = KernelEngine::with_bank(
            &child_data,
            kernel,
            KernelPath::Blocked,
            Some(&bank),
        );
        prop_assert!(seeded.seeded_rows() > 0, "bank must apply to the child");
        let fresh = KernelEngine::new(&child_data, kernel, KernelPath::Blocked);
        let mut fast = vec![0.0; child_data.len()];
        let mut reference = vec![0.0; child_data.len()];
        for i in 0..child_data.len() {
            seeded.kernel_row(i, &mut fast);
            fresh.kernel_row(i, &mut reference);
            for j in 0..child_data.len() {
                prop_assert!(
                    (fast[j] - reference[j]).abs() <= 1e-12 * reference[j].abs().max(1.0),
                    "kernel {:?} ({i},{j}): {} vs {}", kernel, fast[j], reference[j]
                );
            }
        }
    }
}
