//! Grid-based training-data compaction and the lookup-table tester model
//! (paper Sections 4.3 and 3.3).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::dataset::{DeviceLabel, MeasurementSet};
use crate::guardband::{GuardBandedClassifier, Prediction};
use crate::{CompactionError, Result};

/// Largest number of cells a lookup table is allowed to have.
const LOOKUP_TABLE_CELL_LIMIT: u128 = 4_000_000;

/// Compresses a training population by gridding the normalised measurement
/// space (paper Section 4.3): cells containing both good and bad instances
/// keep all their instances (they straddle the class boundary and carry the
/// information the classifier needs); homogeneous cells are merged into a
/// single representative at the cell centre.
///
/// Returns the compressed rows (in original measurement units) so they can be
/// wrapped in a new [`MeasurementSet`]: the cells in ascending order of
/// their grid coordinates, a boundary cell's instances in population order.
/// The same population therefore always compresses to the same rows.
///
/// # Errors
///
/// Returns [`CompactionError::InvalidConfig`] when `cells_per_dim < 2` and
/// [`CompactionError::InsufficientData`] for an empty population.
pub fn compress_training_data(
    data: &MeasurementSet,
    cells_per_dim: usize,
) -> Result<MeasurementSet> {
    if cells_per_dim < 2 {
        return Err(CompactionError::InvalidConfig {
            parameter: "cells_per_dim",
            value: cells_per_dim as f64,
        });
    }
    if data.is_empty() {
        return Err(CompactionError::InsufficientData {
            reason: "cannot compress an empty population".to_string(),
        });
    }
    let specs = data.specs();
    let dims = specs.len();

    #[derive(Default)]
    struct Cell {
        rows: Vec<usize>,
        good: usize,
        bad: usize,
    }

    // Cells cover the shared normalised grid band around the acceptance box
    // (see `classifier::grid_cell`); anything further out is clamped into the
    // outermost cells so gross outliers do not explode the key space.
    // Cell keys and labels both come from one sequential pass per column of
    // the shared columnar storage.
    let cell_columns: Vec<Vec<u16>> = (0..dims)
        .map(|c| {
            let spec = specs.spec(c);
            data.column(c)
                .iter()
                .map(|&value| crate::classifier::grid_cell(spec.normalize(value), cells_per_dim))
                .collect()
        })
        .collect();
    let labels = data.labels();
    let mut cells: BTreeMap<Vec<u16>, Cell> = BTreeMap::new();
    for (i, &label) in labels.iter().enumerate() {
        let key: Vec<u16> = cell_columns.iter().map(|column| column[i]).collect();
        let cell = cells.entry(key).or_default();
        cell.rows.push(i);
        match label {
            DeviceLabel::Good => cell.good += 1,
            DeviceLabel::Bad => cell.bad += 1,
        }
    }

    let mut compressed: Vec<Vec<f64>> = Vec::new();
    for cell in cells.values() {
        if cell.good > 0 && cell.bad > 0 {
            // Boundary cell: keep every instance.
            for &i in &cell.rows {
                compressed.push(data.row_values(i));
            }
        } else {
            // Homogeneous cell: merge to the centroid (which preserves the
            // label because the cell is single-class).
            let mut centroid = vec![0.0; dims];
            for &i in &cell.rows {
                for (c, slot) in centroid.iter_mut().enumerate() {
                    *slot += data.value(i, c) / cell.rows.len() as f64;
                }
            }
            compressed.push(centroid);
        }
    }
    MeasurementSet::new(specs.clone(), compressed)
}

/// A tester-side lookup table over the compacted specification space
/// (paper Section 3.3): the space of kept, normalised measurements is divided
/// into a regular grid and each cell centre is classified once by the
/// statistical model; production devices are then classified by a table
/// lookup, which costs almost nothing on the tester.
///
/// Decoding checks that the table can classify: it keeps at least one
/// specification, has at least two cells per dimension and one attribute
/// per cell (`cells_per_dim ^ kept`), and spans a finite, non-empty range.
/// A document that fails is a decode error, never a table that panics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LookupTableTester {
    kept: Vec<usize>,
    cells_per_dim: usize,
    /// Normalised-space coverage: cells span `[lower, upper]` in every kept
    /// dimension.
    lower: f64,
    upper: f64,
    attributes: Vec<Prediction>,
}

impl<'de> Deserialize<'de> for LookupTableTester {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Wire {
            kept: Vec<usize>,
            cells_per_dim: usize,
            lower: f64,
            upper: f64,
            attributes: Vec<Prediction>,
        }
        let Wire { kept, cells_per_dim, lower, upper, attributes } =
            Wire::deserialize(deserializer)?;
        let error = |message: String| Err(serde::de::Error::custom(message));
        if kept.is_empty() {
            return error("lookup table keeps no specification".to_owned());
        }
        if cells_per_dim < 2 {
            return error(format!("lookup table has {cells_per_dim} cells per dimension"));
        }
        let cells = u32::try_from(kept.len()).ok().and_then(|dims| cells_per_dim.checked_pow(dims));
        if cells != Some(attributes.len()) {
            return error(format!(
                "lookup table has {} attributes, but {cells_per_dim} cells per dimension over {} \
                 kept specifications",
                attributes.len(),
                kept.len()
            ));
        }
        if !(lower.is_finite() && upper.is_finite() && lower < upper) {
            return error(format!("lookup table spans [{lower}, {upper}]"));
        }
        Ok(LookupTableTester { kept, cells_per_dim, lower, upper, attributes })
    }
}

impl LookupTableTester {
    /// Builds the table by sampling the classifier at every cell centre.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::LookupTableTooLarge`] when
    /// `cells_per_dim ^ kept` exceeds the internal limit and
    /// [`CompactionError::InvalidConfig`] for a degenerate grid.
    pub fn build(
        classifier: &GuardBandedClassifier,
        cells_per_dim: usize,
    ) -> Result<LookupTableTester> {
        if cells_per_dim < 2 {
            return Err(CompactionError::InvalidConfig {
                parameter: "cells_per_dim",
                value: cells_per_dim as f64,
            });
        }
        let kept = classifier.kept().to_vec();
        let cells = (cells_per_dim as u128).saturating_pow(kept.len() as u32);
        if cells > LOOKUP_TABLE_CELL_LIMIT {
            return Err(CompactionError::LookupTableTooLarge {
                cells,
                limit: LOOKUP_TABLE_CELL_LIMIT,
            });
        }
        // Cover a bit more than the acceptability box so devices slightly
        // outside still hit a cell (the shared grid band of `classifier`).
        let lower = crate::classifier::GRID_LOWER;
        let upper = crate::classifier::GRID_UPPER;
        let mut attributes = Vec::with_capacity(cells as usize);
        let mut index = vec![0usize; kept.len()];
        loop {
            let centre: Vec<f64> = index
                .iter()
                .map(|&i| lower + (i as f64 + 0.5) * (upper - lower) / cells_per_dim as f64)
                .collect();
            attributes.push(classifier.classify_features(&centre));
            // Odometer increment.
            let mut dim = 0;
            loop {
                if dim == kept.len() {
                    return Ok(LookupTableTester { kept, cells_per_dim, lower, upper, attributes });
                }
                index[dim] += 1;
                if index[dim] < cells_per_dim {
                    break;
                }
                index[dim] = 0;
                dim += 1;
            }
        }
    }

    /// The kept specification indices the table expects.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Classifies a normalised kept-column feature vector by table lookup.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the kept set.
    pub fn classify_features(&self, features: &[f64]) -> Prediction {
        assert_eq!(features.len(), self.kept.len(), "feature vector length mismatch");
        let mut flat = 0usize;
        let mut stride = 1usize;
        for &value in features {
            let position = (value - self.lower) / (self.upper - self.lower);
            let cell = ((position * self.cells_per_dim as f64) as isize)
                .clamp(0, self.cells_per_dim as isize - 1) as usize;
            flat += cell * stride;
            stride *= self.cells_per_dim;
        }
        self.attributes[flat]
    }

    /// Classifies instance `i` of a measurement set.
    ///
    /// # Panics
    ///
    /// Panics if the measurement set does not contain the kept columns.
    pub fn classify_instance(&self, data: &MeasurementSet, i: usize) -> Prediction {
        self.classify_features(&data.features(i, &self.kept))
    }

    /// Classifies an axis-aligned box of normalised feature space, when the
    /// table's verdict is constant over it.
    ///
    /// Every point of `[lower, upper]` falls into a cell of the
    /// hyper-rectangle spanned by the corner cells; if all those cells carry
    /// the same attribute the box verdict is that attribute, otherwise (or
    /// when the sub-grid is too large to scan cheaply) `None`.  The decision
    /// seam of the sequential tester for table-backed programs
    /// ([`SequentialSession`](crate::SequentialSession)).
    ///
    /// # Panics
    ///
    /// Panics if the bound lengths do not match the kept set.
    pub fn classify_within(&self, lower: &[f64], upper: &[f64]) -> Option<Prediction> {
        /// Sub-grids larger than this are not worth scanning per step.
        const BOX_SCAN_CELL_LIMIT: u128 = 1 << 16;
        assert_eq!(lower.len(), self.kept.len(), "lower bound length mismatch");
        assert_eq!(upper.len(), self.kept.len(), "upper bound length mismatch");
        let cell_of = |value: f64| -> usize {
            let position = (value - self.lower) / (self.upper - self.lower);
            ((position * self.cells_per_dim as f64) as isize)
                .clamp(0, self.cells_per_dim as isize - 1) as usize
        };
        let ranges: Vec<(usize, usize)> = lower
            .iter()
            .zip(upper.iter())
            .map(|(&lo, &hi)| (cell_of(lo), cell_of(hi.max(lo))))
            .collect();
        let cells = ranges.iter().map(|&(lo, hi)| (hi - lo + 1) as u128).product::<u128>();
        if cells > BOX_SCAN_CELL_LIMIT {
            return None;
        }
        let mut index: Vec<usize> = ranges.iter().map(|&(lo, _)| lo).collect();
        let mut verdict: Option<Prediction> = None;
        loop {
            let mut flat = 0usize;
            let mut stride = 1usize;
            for &cell in &index {
                flat += cell * stride;
                stride *= self.cells_per_dim;
            }
            let attribute = self.attributes[flat];
            match verdict {
                None => verdict = Some(attribute),
                Some(seen) if seen != attribute => return None,
                Some(_) => {}
            }
            // Odometer increment over the sub-grid.
            let mut dim = 0;
            loop {
                if dim == index.len() {
                    return verdict;
                }
                index[dim] += 1;
                if index[dim] <= ranges[dim].1 {
                    break;
                }
                index[dim] = ranges[dim].0;
                dim += 1;
            }
        }
    }

    /// Fraction of a population on which the table and the exact classifier
    /// agree (a sanity metric for choosing the grid resolution).
    pub fn agreement_with(&self, classifier: &GuardBandedClassifier, data: &MeasurementSet) -> f64 {
        if data.is_empty() {
            return 1.0;
        }
        let matching = (0..data.len())
            .filter(|&i| self.classify_instance(data, i) == classifier.classify_instance(data, i))
            .count();
        matching as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SyntheticDevice;
    use crate::guardband::GuardBandConfig;
    use crate::montecarlo::{generate_measurement_set, generate_train_test, MonteCarloConfig};

    fn train_pair(train: &MeasurementSet, kept: &[usize]) -> GuardBandedClassifier {
        GuardBandedClassifier::train_with(
            &crate::classifier::GridBackend::default(),
            train,
            kept,
            &GuardBandConfig::paper_default(),
        )
        .unwrap()
    }

    fn population() -> (MeasurementSet, MeasurementSet) {
        let device = SyntheticDevice::new(3, 1.5, 0.85);
        generate_train_test(&device, &MonteCarloConfig::new(400).with_seed(77), 200).unwrap()
    }

    #[test]
    fn compression_reduces_size_and_keeps_both_classes() {
        let (train, _) = population();
        let compressed = compress_training_data(&train, 6).unwrap();
        assert!(compressed.len() < train.len(), "{} -> {}", train.len(), compressed.len());
        assert!(!compressed.is_empty());
        // Merging homogeneous cells cannot erase a class entirely.
        let yield_fraction = compressed.yield_fraction();
        assert!(yield_fraction > 0.0 && yield_fraction < 1.0, "yield {yield_fraction}");
    }

    #[test]
    fn compressed_data_still_trains_an_accurate_model() {
        let (train, test) = population();
        let compressed = compress_training_data(&train, 10).unwrap();
        let full = train_pair(&train, &[0, 1]);
        let compact = train_pair(&compressed, &[0, 1]);
        let full_error = full.evaluate(&test).prediction_error();
        let compact_error = compact.evaluate(&test).prediction_error();
        assert!(
            compact_error <= full_error + 0.06,
            "compressed-model error {compact_error} vs {full_error}"
        );
    }

    /// The rows come in cell order, not in the order of a hash map, which
    /// differs from one map to the next: every call on one population gives
    /// the same bytes, and so trains the same model.
    #[test]
    fn compression_is_deterministic() {
        let device = SyntheticDevice::new(3, 1.5, 0.85);
        let train =
            generate_measurement_set(&device, &MonteCarloConfig::new(300).with_seed(5)).unwrap();
        let bytes = |set: &MeasurementSet| -> Vec<u64> {
            (0..set.len()).flat_map(|i| set.row_values(i)).map(f64::to_bits).collect()
        };
        let first = compress_training_data(&train, 6).unwrap();
        assert!(first.len() > 20 && first.len() < train.len(), "{} rows", first.len());
        for _ in 0..4 {
            let again = compress_training_data(&train, 6).unwrap();
            assert_eq!(bytes(&again), bytes(&first));
            assert_eq!(again.labels(), first.labels());
        }
    }

    #[test]
    fn compression_validates_inputs() {
        let (train, _) = population();
        assert!(compress_training_data(&train, 1).is_err());
        let empty = MeasurementSet::new(train.specs().clone(), vec![]).unwrap();
        assert!(compress_training_data(&empty, 4).is_err());
    }

    #[test]
    fn lookup_table_matches_the_exact_classifier_closely() {
        let (train, test) = population();
        let classifier = train_pair(&train, &[0, 1]);
        let table = LookupTableTester::build(&classifier, 48).unwrap();
        assert_eq!(table.attributes.len(), 48 * 48);
        assert_eq!(table.kept(), &[0, 1]);
        let agreement = table.agreement_with(&classifier, &test);
        assert!(agreement > 0.93, "agreement {agreement}");
    }

    #[test]
    fn finer_tables_agree_at_least_as_well() {
        let (train, test) = population();
        let classifier = train_pair(&train, &[0, 1]);
        let coarse = LookupTableTester::build(&classifier, 8).unwrap();
        let fine = LookupTableTester::build(&classifier, 64).unwrap();
        assert!(
            fine.agreement_with(&classifier, &test)
                >= coarse.agreement_with(&classifier, &test) - 0.02
        );
    }

    #[test]
    fn box_verdicts_are_sound_for_every_contained_point() {
        let (train, _) = population();
        let classifier = train_pair(&train, &[0, 1]);
        let table = LookupTableTester::build(&classifier, 16).unwrap();
        // A degenerate box (a single point) reproduces the point lookup.
        let point = [0.4, 0.6];
        assert_eq!(table.classify_within(&point, &point), Some(table.classify_features(&point)));
        // Any constant box verdict must match the lookup of every sampled
        // point inside the box; a box covering disagreeing points must
        // return `None`.
        let (lo, hi) = ([0.0, 0.0], [1.0, 1.0]);
        let samples: Vec<[f64; 2]> = (0..=10)
            .flat_map(|a| (0..=10).map(move |b| [a as f64 / 10.0, b as f64 / 10.0]))
            .collect();
        let verdicts: Vec<Prediction> =
            samples.iter().map(|p| table.classify_features(p)).collect();
        // `None` is always a legal answer (no constant verdict proven).
        if let Some(v) = table.classify_within(&lo, &hi) {
            assert!(verdicts.iter().all(|&seen| seen == v));
        }
        assert!(verdicts.len() == 121);
    }

    #[test]
    fn oversized_tables_are_rejected() {
        let (train, _) = population();
        let classifier = train_pair(&train, &[0, 1, 2]);
        assert!(matches!(
            LookupTableTester::build(&classifier, 2000),
            Err(CompactionError::LookupTableTooLarge { .. })
        ));
        assert!(LookupTableTester::build(&classifier, 1).is_err());
    }

    /// `(2^32)^4` cells do not fit a `u128`: the count saturates, so the
    /// table is rejected rather than wrapped to a small count.
    #[test]
    fn tables_whose_cell_count_overflows_are_rejected() {
        let device = SyntheticDevice::new(4, 1.5, 0.85);
        let (train, _) =
            generate_train_test(&device, &MonteCarloConfig::new(200).with_seed(77), 100).unwrap();
        let classifier = train_pair(&train, &[0, 1, 2, 3]);
        assert!(matches!(
            LookupTableTester::build(&classifier, 1 << 32),
            Err(CompactionError::LookupTableTooLarge { cells: u128::MAX, .. })
        ));
    }
}
