//! Pluggable pass/fail classifier backends — the seam of the compaction
//! pipeline.
//!
//! The paper trains an ε-SVM to predict the overall pass/fail outcome from a
//! subset of the specification measurements, but nothing in the methodology
//! depends on the model family.  This module extracts that dependency into a
//! [`Classifier`]/[`ClassifierFactory`] trait pair: a factory trains on a
//! [`TrainingView`] (a measurement set restricted to the kept columns, with
//! the acceptability ranges tightened or widened for guard-band labelling)
//! and returns a decision function over normalised feature vectors.
//!
//! Two backends prove the seam:
//!
//! * [`GridBackend`] (here) — the paper's Section 4.3 grid model turned into
//!   a standalone classifier: training instances are binned on a sparse grid
//!   over the normalised measurement space and a device is classified by the
//!   vote of its cell (falling back to the nearest occupied cell),
//! * `SvmBackend` (in `stc-svm`) — the SMO-trained ε-SVM of the paper.
//!
//! Additional backends only need to implement the two traits.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::dataset::{DeviceLabel, MeasurementSet};
use crate::{CompactionError, Result};

/// Normalised-space band the grid models cover: a little more than the
/// acceptance box so devices slightly outside still land in a cell.
pub(crate) const GRID_LOWER: f64 = -0.25;
pub(crate) const GRID_UPPER: f64 = 1.25;

/// Bins one normalised value onto the `[GRID_LOWER, GRID_UPPER]` grid,
/// clamping outliers into the outermost cells.  Shared by the grid backend
/// and the training-data compression of [`crate::gridmodel`] so training and
/// inference always agree on cell boundaries.
pub(crate) fn grid_cell(normalised: f64, cells_per_dim: usize) -> u16 {
    let position = (normalised - GRID_LOWER) / (GRID_UPPER - GRID_LOWER);
    ((position * cells_per_dim as f64) as isize).clamp(0, cells_per_dim as isize - 1) as u16
}

/// A borrowed view of a training population restricted to a set of *kept*
/// specification columns, with pass/fail labels computed after tightening
/// (`label_margin > 0`) or widening (`label_margin < 0`) every acceptability
/// range by that fraction of its width.
///
/// This is what classifier backends train on: features are the kept
/// measurements normalised to their acceptability ranges (paper Section 4.3),
/// the target is the overall pass/fail outcome of the *complete*
/// specification set under the margin.
#[derive(Debug, Clone, Copy)]
pub struct TrainingView<'a> {
    data: &'a MeasurementSet,
    kept: &'a [usize],
    label_margin: f64,
}

impl<'a> TrainingView<'a> {
    /// Creates a view, validating the kept columns.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::EmptyTestSet`] when `kept` is empty and
    /// [`CompactionError::UnknownSpecification`] for an out-of-range column.
    pub fn new(data: &'a MeasurementSet, kept: &'a [usize], label_margin: f64) -> Result<Self> {
        if kept.is_empty() {
            return Err(CompactionError::EmptyTestSet);
        }
        if let Some(&bad) = kept.iter().find(|&&c| c >= data.specs().len()) {
            return Err(CompactionError::UnknownSpecification {
                index: bad,
                count: data.specs().len(),
            });
        }
        Ok(TrainingView { data, kept, label_margin })
    }

    /// The underlying measurement set.
    pub fn measurements(&self) -> &'a MeasurementSet {
        self.data
    }

    /// The kept specification columns, in feature order.
    pub fn kept(&self) -> &'a [usize] {
        self.kept
    }

    /// The labelling margin (fraction of each range width).
    pub fn label_margin(&self) -> f64 {
        self.label_margin
    }

    /// Number of training instances.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the view holds no instances.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of features (kept columns).
    pub fn dimension(&self) -> usize {
        self.kept.len()
    }

    /// Normalised feature vector of instance `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn features(&self, i: usize) -> Vec<f64> {
        self.data.features(i, self.kept)
    }

    /// Margin-adjusted pass/fail label of instance `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label(&self, i: usize) -> DeviceLabel {
        self.data.label_with_margin(i, self.label_margin)
    }

    /// The raw (unnormalised) measurement column backing feature `j` —
    /// zero-copy into the shared population allocation.
    ///
    /// # Panics
    ///
    /// Panics if `j >= dimension()`.
    pub fn raw_column(&self, j: usize) -> &'a [f64] {
        self.data.matrix().column(self.kept[j])
    }

    /// The normalised values of feature `j` for every instance, as an owned
    /// vector.  Prefer [`TrainingView::shared_column`] in hot paths — it
    /// returns the memoized shared allocation without copying.
    ///
    /// # Panics
    ///
    /// Panics if `j >= dimension()`.
    pub fn normalized_column(&self, j: usize) -> Vec<f64> {
        self.shared_column(j).to_vec()
    }

    /// The normalised values of feature `j`, memoized on the underlying
    /// measurement set ([`MeasurementSet::normalized_column_shared`]).
    ///
    /// Every view borrowed from the same set — every candidate kept set of a
    /// compaction round — receives pointer-identical `Arc`s for the columns
    /// it shares with other candidates, which is what lets the SVM kernel
    /// engine reuse per-column dot-product contributions across candidates.
    ///
    /// # Panics
    ///
    /// Panics if `j >= dimension()`.
    pub fn shared_column(&self, j: usize) -> Arc<[f64]> {
        self.data.normalized_column_shared(self.kept[j])
    }

    /// All normalised feature columns as shared allocations, one per kept
    /// specification, in feature order.
    pub fn shared_feature_columns(&self) -> Vec<Arc<[f64]>> {
        (0..self.dimension()).map(|j| self.shared_column(j)).collect()
    }

    /// All normalised feature columns, one owned `Vec` per kept
    /// specification.
    pub fn feature_columns(&self) -> Vec<Vec<f64>> {
        (0..self.dimension()).map(|j| self.normalized_column(j)).collect()
    }

    /// All feature vectors, one per instance.
    pub fn feature_rows(&self) -> Vec<Vec<f64>> {
        (0..self.len()).map(|i| self.features(i)).collect()
    }

    /// Margin-adjusted labels of every instance (one columnar pass).
    pub fn labels(&self) -> Vec<DeviceLabel> {
        self.data.labels_with_margin(self.label_margin)
    }

    /// All labels in the SVM-style `+1` / `-1` encoding.
    pub fn class_labels(&self) -> Vec<f64> {
        self.labels().into_iter().map(DeviceLabel::to_class).collect()
    }
}

/// How a backend's incremental kernel-row bank fared during one training (or
/// several, when merged): rows seeded from the parent's bank versus rebuilt
/// from scratch, plus banks that were supplied but could not be applied at
/// all.  Backends without a bank mechanism report nothing
/// ([`Classifier::bank_stats`] stays `None`) and the counters stay zero.
///
/// Before 0.10 an inapplicable bank was ignored *silently*; these counters
/// make the failure mode — and the hit rate of the happy path — observable
/// in [`WarmStartStats`](crate::WarmStartStats) and the pipeline summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankStats {
    /// Kernel rows seeded by adjusting parent-bank rows.
    pub seeded_rows: usize,
    /// Kernel rows rebuilt from scratch (full column sweeps).
    pub rebuilt_rows: usize,
    /// Parent banks supplied but inapplicable (foreign column universe,
    /// naive kernel path, or an adjustment no cheaper than recomputation).
    pub ignored_banks: usize,
}

impl BankStats {
    /// Accumulates another training's counters into this one.
    pub fn merge(&mut self, other: &BankStats) {
        self.seeded_rows += other.seeded_rows;
        self.rebuilt_rows += other.rebuilt_rows;
        self.ignored_banks += other.ignored_banks;
    }

    /// Whether any counter is non-zero (i.e. a bank-aware backend ran).
    pub fn any(&self) -> bool {
        self.seeded_rows > 0 || self.rebuilt_rows > 0 || self.ignored_banks > 0
    }
}

/// A trained pass/fail decision function over normalised kept-column feature
/// vectors.
pub trait Classifier: fmt::Debug + Send + Sync {
    /// Signed decision value: positive predicts the device passes the full
    /// specification set, negative that it fails.  The magnitude is a
    /// backend-specific confidence and is only compared against zero by the
    /// methodology.
    fn decision(&self, features: &[f64]) -> f64;

    /// Whether the device is predicted to pass.
    fn predict_good(&self, features: &[f64]) -> bool {
        self.decision(features) > 0.0
    }

    /// Type-erased view of the concrete model, letting a factory recognise
    /// (and warm-start from) models it trained itself.  Backends that do not
    /// support warm starts keep the default `None`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Iterations the backend's iterative solver spent training this model,
    /// or `None` for backends without an iterative solver (for example the
    /// single-pass [`GridBackend`]).  Feeds the
    /// [`WarmStartStats`](crate::WarmStartStats) diagnostics of the
    /// compaction loop.
    fn solver_iterations(&self) -> Option<usize> {
        None
    }

    /// Decision over an axis-aligned box of feature space: `Some(true)` when
    /// *every* point of `[lower, upper]` (per-dimension inclusive bounds, in
    /// the same normalised feature coordinates as
    /// [`Classifier::decision`]) is predicted good, `Some(false)` when every
    /// point is predicted bad, and `None` when the backend cannot prove the
    /// decision sign is constant over the box (including when it genuinely
    /// is not).
    ///
    /// Powers the sequential tester's early exits
    /// ([`SequentialSession`](crate::tester::SequentialSession)): with only
    /// a prefix of the kept specs measured, the unmeasured coordinates span
    /// a box, and a provably-constant bad verdict over that box decides the
    /// device without further measurements.  The default is `None` — box
    /// reasoning is an optional capability, and a backend without it merely
    /// forgoes model-based early exits (range-check exits still apply).
    fn predict_good_within(&self, lower: &[f64], upper: &[f64]) -> Option<bool> {
        let _ = (lower, upper);
        None
    }

    /// Kernel-row bank diagnostics of the training that produced this model,
    /// or `None` for backends without an incremental bank (for example the
    /// [`GridBackend`]).  Feeds the [`BankStats`] rolled up in
    /// [`WarmStartStats`](crate::WarmStartStats).
    fn bank_stats(&self) -> Option<BankStats> {
        None
    }
}

/// Warm-start hint handed to [`ClassifierFactory::train_warm`]: a model this
/// factory previously trained on the *same training population* over an
/// overlapping kept set, together with the parent-candidate relation
/// between the two kept sets ([`WarmStartContext::removed_columns`] /
/// [`WarmStartContext::added_columns`]).
///
/// In the backward-elimination strategies the hint is the model of the
/// committed frontier (the candidate's kept set plus the candidate column
/// itself), so the two training problems differ by exactly one feature
/// column; forward selection hands the frontier as a *subset* of the
/// candidate kept set instead.  Either way the instances — and therefore
/// their pass/fail labels, which depend only on the full specification set
/// — are identical, which is what makes the parent's dual solution a
/// useful starting point.
#[derive(Debug, Clone, Copy)]
pub struct WarmStartContext<'a> {
    model: &'a dyn Classifier,
    kept: &'a [usize],
}

impl<'a> WarmStartContext<'a> {
    /// Wraps a previously trained model and the kept columns it was trained
    /// on.
    pub fn new(model: &'a dyn Classifier, kept: &'a [usize]) -> Self {
        WarmStartContext { model, kept }
    }

    /// The previously trained model.
    pub fn model(&self) -> &'a dyn Classifier {
        self.model
    }

    /// The kept specification columns the model was trained on.
    pub fn kept(&self) -> &'a [usize] {
        self.kept
    }

    /// Whether this parent's kept set shares at least one column with a
    /// child kept set — the minimum relation for a warm start to carry any
    /// useful geometry.  Backends should fall back to a cold start when
    /// this is `false`.
    pub fn overlaps(&self, child_kept: &[usize]) -> bool {
        self.kept.iter().any(|column| child_kept.contains(column))
    }

    /// The columns this parent was trained on that a child kept set
    /// dropped.  In backward-elimination strategies this is exactly the
    /// candidate under examination (one column).
    pub fn removed_columns(&self, child_kept: &[usize]) -> Vec<usize> {
        self.kept.iter().copied().filter(|column| !child_kept.contains(column)).collect()
    }

    /// The columns a child kept set adds over this parent — the annealing
    /// walk's restore moves, where the parent is the current kept set and
    /// the child extends it by the restored test.
    pub fn added_columns(&self, child_kept: &[usize]) -> Vec<usize> {
        child_kept.iter().copied().filter(|column| !self.kept.contains(column)).collect()
    }
}

/// Trains [`Classifier`]s from labelled measurement views.
///
/// Factories are shared across worker threads by the compaction loop, so
/// implementations must be `Send + Sync`.
pub trait ClassifierFactory: fmt::Debug + Send + Sync {
    /// Short backend name used in reports (for example `"svm"` or `"grid"`).
    fn name(&self) -> &str;

    /// Trains one classifier on a training view.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::Classifier`] when the model cannot be
    /// trained (the compaction loop treats this as "the candidate test cannot
    /// be eliminated" rather than aborting) and data errors for malformed
    /// views.
    fn train(&self, view: &TrainingView<'_>) -> Result<Arc<dyn Classifier>>;

    /// [`ClassifierFactory::train`] with an optional warm-start hint.
    ///
    /// The hint is strictly an accelerator: implementations must return a
    /// model meeting the same convergence guarantees as a cold
    /// [`ClassifierFactory::train`], and must fall back to a cold start when
    /// the hint is unusable (wrong concrete type, different population, …).
    /// The default ignores the hint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClassifierFactory::train`].
    fn train_warm(
        &self,
        view: &TrainingView<'_>,
        warm: Option<&WarmStartContext<'_>>,
    ) -> Result<Arc<dyn Classifier>> {
        let _ = warm;
        self.train(view)
    }

    /// Whether [`ClassifierFactory::train_screen`] returns a genuinely
    /// cheaper approximate model.  The evaluator's screen-then-verify path
    /// only engages when this is `true`; the default (`false`) keeps
    /// screening inert for backends without an approximate trainer, so
    /// enabling [`ScreeningConfig`](crate::search::ScreeningConfig) on such
    /// a backend is a no-op rather than an error.
    fn supports_screening(&self) -> bool {
        false
    }

    /// Trains a cheap *approximate* classifier used only to rank candidate
    /// kept sets before exact verification (see
    /// [`ScreeningConfig`](crate::search::ScreeningConfig)).  `landmarks`
    /// bounds the approximation budget (for the SVM backend: Nyström
    /// landmark count).  Implementations must be deterministic; accuracy
    /// only matters for ranking quality, never for committed outcomes —
    /// every screened winner is re-trained exactly.  The default falls back
    /// to the exact [`ClassifierFactory::train`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClassifierFactory::train`].
    fn train_screen(
        &self,
        view: &TrainingView<'_>,
        landmarks: usize,
    ) -> Result<Arc<dyn Classifier>> {
        let _ = landmarks;
        self.train(view)
    }
}

impl<F: ClassifierFactory + ?Sized> ClassifierFactory for &F {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn train(&self, view: &TrainingView<'_>) -> Result<Arc<dyn Classifier>> {
        (**self).train(view)
    }

    fn train_warm(
        &self,
        view: &TrainingView<'_>,
        warm: Option<&WarmStartContext<'_>>,
    ) -> Result<Arc<dyn Classifier>> {
        (**self).train_warm(view, warm)
    }

    fn supports_screening(&self) -> bool {
        (**self).supports_screening()
    }

    fn train_screen(
        &self,
        view: &TrainingView<'_>,
        landmarks: usize,
    ) -> Result<Arc<dyn Classifier>> {
        (**self).train_screen(view, landmarks)
    }
}

/// The grid/lookup classifier backend (paper Sections 3.3 and 4.3).
///
/// Training instances are binned on a sparse grid over the normalised
/// measurement space; each cell accumulates good/bad votes.  A device is
/// classified by the net vote of its own cell, or — when the cell is empty or
/// tied — by the nearest occupied cell with a decisive vote.  Training is a
/// single pass over the data, which makes this backend far cheaper than the
/// SVM at a modest accuracy cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridBackend {
    cells_per_dim: usize,
}

impl GridBackend {
    /// A backend with the given grid resolution per feature dimension.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::InvalidConfig`] when `cells_per_dim < 2`.
    pub fn with_resolution(cells_per_dim: usize) -> Result<Self> {
        if cells_per_dim < 2 {
            return Err(CompactionError::InvalidConfig {
                parameter: "cells_per_dim",
                value: cells_per_dim as f64,
            });
        }
        Ok(GridBackend { cells_per_dim })
    }

    /// The grid resolution per feature dimension.
    pub fn cells_per_dim(&self) -> usize {
        self.cells_per_dim
    }
}

impl Default for GridBackend {
    /// A 12-cells-per-dimension grid, a good balance for the population sizes
    /// the paper uses.
    fn default() -> Self {
        GridBackend { cells_per_dim: 12 }
    }
}

impl ClassifierFactory for GridBackend {
    fn name(&self) -> &str {
        "grid"
    }

    fn train(&self, view: &TrainingView<'_>) -> Result<Arc<dyn Classifier>> {
        if view.is_empty() {
            return Err(CompactionError::InsufficientData {
                reason: "grid backend needs at least one training instance".to_string(),
            });
        }
        // One columnar pass: labels and grid cells are both derived from the
        // shared column storage without materialising per-instance rows.
        let labels = view.labels();
        let cell_columns: Vec<Vec<u16>> = (0..view.dimension())
            .map(|j| {
                view.shared_column(j)
                    .iter()
                    .map(|&value| grid_cell(value, self.cells_per_dim))
                    .collect()
            })
            .collect();
        let mut votes: HashMap<Vec<u16>, i64> = HashMap::new();
        let mut net = 0i64;
        for (i, label) in labels.into_iter().enumerate() {
            let vote = match label {
                DeviceLabel::Good => 1,
                DeviceLabel::Bad => -1,
            };
            let key: Vec<u16> = cell_columns.iter().map(|column| column[i]).collect();
            *votes.entry(key).or_insert(0) += vote;
            net += vote;
        }
        // Deterministic order for nearest-cell tie breaking.
        let mut cells: Vec<(Vec<u16>, i64)> =
            votes.into_iter().filter(|(_, vote)| *vote != 0).collect();
        cells.sort_unstable();
        Ok(Arc::new(GridClassifier {
            cells_per_dim: self.cells_per_dim,
            dimension: view.dimension(),
            cells,
            majority: if net >= 0 { 1.0 } else { -1.0 },
        }))
    }
}

/// Classifier trained by [`GridBackend`].
#[derive(Debug, Clone)]
struct GridClassifier {
    cells_per_dim: usize,
    dimension: usize,
    /// Occupied cells with a decisive net vote, sorted by cell key.
    cells: Vec<(Vec<u16>, i64)>,
    /// Fallback when no cell is decisive (single-class training data).
    majority: f64,
}

impl Classifier for GridClassifier {
    fn decision(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.dimension, "feature vector length mismatch");
        let key: Vec<u16> =
            features.iter().map(|&value| grid_cell(value, self.cells_per_dim)).collect();
        if let Ok(index) = self.cells.binary_search_by(|(cell, _)| cell.cmp(&key)) {
            return self.cells[index].1 as f64;
        }
        // Nearest decisive cell, scaled down with distance so far-away
        // fallbacks carry less confidence than direct hits.
        let mut best: Option<(u64, i64)> = None;
        for (cell, vote) in &self.cells {
            let distance: u64 = cell
                .iter()
                .zip(key.iter())
                .map(|(&a, &b)| {
                    let d = a as i64 - b as i64;
                    (d * d) as u64
                })
                .sum();
            if best.map(|(best_distance, _)| distance < best_distance).unwrap_or(true) {
                best = Some((distance, *vote));
            }
        }
        match best {
            Some((distance, vote)) => vote as f64 / (1.0 + distance as f64),
            None => self.majority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Specification, SpecificationSet};

    fn band_set(dimension: usize) -> SpecificationSet {
        let specs = (0..dimension)
            .map(|i| Specification::new(&format!("s{i}"), "-", 0.0, -1.0, 1.0).unwrap())
            .collect();
        SpecificationSet::new(specs).unwrap()
    }

    fn linear_population() -> MeasurementSet {
        // Spec 1 mirrors spec 0; devices fail when either is above 1.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let x = -1.5 + 3.0 * (i as f64) / 199.0;
                vec![x, x * 0.9]
            })
            .collect();
        MeasurementSet::new(band_set(2), rows).unwrap()
    }

    #[test]
    fn view_validates_columns() {
        let data = linear_population();
        assert!(TrainingView::new(&data, &[], 0.0).is_err());
        assert!(TrainingView::new(&data, &[7], 0.0).is_err());
        let view = TrainingView::new(&data, &[1], 0.05).unwrap();
        assert_eq!(view.dimension(), 1);
        assert_eq!(view.len(), 200);
        assert_eq!(view.feature_rows().len(), 200);
        assert_eq!(view.class_labels().len(), 200);
        assert_eq!(view.kept(), &[1]);
        assert!(!view.is_empty());
        assert_eq!(view.label_margin(), 0.05);
    }

    #[test]
    fn columnar_accessors_match_the_row_major_view() {
        let data = linear_population();
        let view = TrainingView::new(&data, &[1, 0], 0.05).unwrap();
        let columns = view.feature_columns();
        let rows = view.feature_rows();
        assert_eq!(columns.len(), 2);
        for (i, row) in rows.iter().enumerate() {
            for (j, column) in columns.iter().enumerate() {
                assert_eq!(row[j], column[i], "instance {i} feature {j}");
            }
        }
        assert_eq!(view.raw_column(0), data.column(1));
        let labels = view.labels();
        for (i, &label) in labels.iter().enumerate() {
            assert_eq!(label, view.label(i));
        }
    }

    #[test]
    fn shared_columns_are_pointer_identical_across_views() {
        let data = linear_population();
        // Two different candidate views over the same set — different kept
        // sets, different margins — still share the normalized columns.
        let strict = TrainingView::new(&data, &[0, 1], 0.2).unwrap();
        let loose = TrainingView::new(&data, &[1], -0.2).unwrap();
        assert!(Arc::ptr_eq(&strict.shared_column(1), &loose.shared_column(0)));
        assert_eq!(strict.shared_column(0).as_ref(), strict.normalized_column(0).as_slice());
        let shared = strict.shared_feature_columns();
        let owned = strict.feature_columns();
        assert_eq!(shared.len(), owned.len());
        for (a, b) in shared.iter().zip(&owned) {
            assert_eq!(a.as_ref(), b.as_slice());
        }
    }

    #[test]
    fn margin_shifts_view_labels() {
        let data = linear_population();
        let plain = TrainingView::new(&data, &[0], 0.0).unwrap();
        let strict = TrainingView::new(&data, &[0], 0.2).unwrap();
        let plain_good = plain.class_labels().iter().filter(|&&l| l > 0.0).count();
        let strict_good = strict.class_labels().iter().filter(|&&l| l > 0.0).count();
        assert!(strict_good < plain_good, "{strict_good} vs {plain_good}");
    }

    #[test]
    fn grid_backend_learns_a_linear_boundary() {
        let data = linear_population();
        let view = TrainingView::new(&data, &[0], 0.0).unwrap();
        let model = GridBackend::default().train(&view).unwrap();
        // Normalised feature: 0.5 is the centre of the acceptability range.
        assert!(model.predict_good(&[0.5]));
        assert!(!model.predict_good(&[1.4]));
        assert!(!model.predict_good(&[-0.4]));
    }

    #[test]
    fn grid_backend_falls_back_to_nearest_cell() {
        let data = linear_population();
        let view = TrainingView::new(&data, &[0, 1], 0.0).unwrap();
        let model = GridBackend::default().train(&view).unwrap();
        // Far outside the training support: classified via the nearest cell.
        assert!(!model.predict_good(&[9.0, 9.0]));
        assert!(model.predict_good(&[0.5, 0.55]));
    }

    #[test]
    fn single_class_data_uses_the_majority_vote() {
        let rows = vec![vec![0.0, 0.0]; 30];
        let data = MeasurementSet::new(band_set(2), rows).unwrap();
        let view = TrainingView::new(&data, &[0], 0.0).unwrap();
        let model = GridBackend::default().train(&view).unwrap();
        assert!(model.predict_good(&[0.5]));
        assert!(model.predict_good(&[42.0]));
    }

    #[test]
    fn resolution_is_validated() {
        assert!(GridBackend::with_resolution(1).is_err());
        let backend = GridBackend::with_resolution(8).unwrap();
        assert_eq!(backend.cells_per_dim(), 8);
        assert_eq!(backend.name(), "grid");
    }
}
