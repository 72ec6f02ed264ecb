//! The training data container.
//!
//! A [`Dataset`] stores features **column-major** in `Arc`-shared
//! allocations: one contiguous slice per feature, shared (not copied) with
//! whatever produced it — in the compaction flow, the normalized-column cache
//! of `stc_core`'s `MeasurementSet`.  This is the layout the SMO kernel
//! engine ([`crate::engine`]) consumes: kernel rows are assembled as fused
//! per-column passes over contiguous lanes, and column `Arc` identity lets
//! consecutive candidate kept sets (which differ by one column) reuse each
//! other's per-column dot-product contributions.  A dataset lives only in
//! memory; nothing serializes one.
//!
//! Validation happens **once, at construction**: every constructor rejects
//! ragged shapes and non-finite values, so the kernel and solver hot paths
//! can assume consistent finite data without re-checking per element.

use std::sync::Arc;

use crate::{Result, SvmError};

/// A dense, fixed-dimension collection of labelled samples, stored
/// column-major.
///
/// The dataset validates every inserted value so that downstream training
/// code can assume consistent, finite data.  Feature columns are `Arc`-shared
/// slices: [`Dataset::select_columns`] is zero-copy over the feature storage,
/// and [`Dataset::from_shared_columns`] adopts caller-owned allocations
/// without copying.  For classification a label is `+1.0` or `-1.0`; for
/// regression it is any finite real number.
///
/// Row-oriented accessors remain available — [`Dataset::features`] *gathers*
/// a row into an owned vector, which is the slow path; hot code should read
/// whole columns via [`Dataset::column`].
///
/// # Example
///
/// ```
/// use stc_svm::Dataset;
///
/// # fn main() -> Result<(), stc_svm::SvmError> {
/// let mut data = Dataset::new(2)?;
/// data.push(vec![0.0, 1.0], 1.0)?;
/// data.push(vec![1.0, 0.0], -1.0)?;
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.dimension(), 2);
/// assert_eq!(data.column(0), &[0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dimension: usize,
    /// One `Arc`-shared slice per feature, each of length `labels.len()`.
    columns: Vec<Arc<[f64]>>,
    labels: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset whose samples all have `dimension` features.
    ///
    /// # Errors
    ///
    /// Returns [`SvmError::EmptyDimension`] if `dimension == 0`.
    pub fn new(dimension: usize) -> Result<Self> {
        if dimension == 0 {
            return Err(SvmError::EmptyDimension);
        }
        let columns = (0..dimension).map(|_| Arc::from(Vec::<f64>::new())).collect();
        Ok(Dataset { dimension, columns, labels: Vec::new() })
    }

    /// Creates a dataset from parallel slices of feature vectors and labels
    /// (one transpose pass; total cost `O(len · dimension)`).
    ///
    /// # Errors
    ///
    /// Returns an error if `rows` is empty, `rows` and `labels` disagree in
    /// length, any row has the wrong dimension, or any value is non-finite.
    pub fn from_rows(rows: &[Vec<f64>], labels: &[f64]) -> Result<Self> {
        if rows.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        if rows.len() != labels.len() {
            return Err(SvmError::DimensionMismatch { expected: rows.len(), found: labels.len() });
        }
        let dimension = rows[0].len();
        if dimension == 0 {
            return Err(SvmError::EmptyDimension);
        }
        let mut columns = vec![Vec::with_capacity(rows.len()); dimension];
        for row in rows {
            if row.len() != dimension {
                return Err(SvmError::DimensionMismatch { expected: dimension, found: row.len() });
            }
            for (index, (&value, column)) in row.iter().zip(columns.iter_mut()).enumerate() {
                if !value.is_finite() {
                    return Err(SvmError::NonFiniteFeature { index, value });
                }
                column.push(value);
            }
        }
        validate_labels(labels)?;
        Ok(Dataset {
            dimension,
            columns: columns.into_iter().map(Arc::from).collect(),
            labels: labels.to_vec(),
        })
    }

    /// Creates a dataset from feature *columns* (one slice per feature, each
    /// of length `labels.len()`) — the natural entry point for column-major
    /// measurement storage, avoiding a caller-side transpose.
    ///
    /// # Errors
    ///
    /// Returns [`SvmError::EmptyDimension`] for zero columns,
    /// [`SvmError::DimensionMismatch`] for a column whose length disagrees
    /// with `labels` and [`SvmError::NonFiniteFeature`] for NaN/infinite
    /// values (checked column-sequentially before assembly).
    pub fn from_columns(columns: &[&[f64]], labels: &[f64]) -> Result<Self> {
        validate_columns(columns.iter().map(|c| &c[..]), columns.len(), labels)?;
        Ok(Dataset {
            dimension: columns.len(),
            columns: columns.iter().map(|&column| Arc::from(column)).collect(),
            labels: labels.to_vec(),
        })
    }

    /// Creates a dataset that *adopts* already-shared feature columns without
    /// copying them.
    ///
    /// This is the zero-copy entry point of the compaction flow: the
    /// normalized columns cached on a `stc_core` measurement set flow
    /// straight into SVM training, and because two candidate kept sets that
    /// share a specification receive pointer-identical `Arc`s, the kernel
    /// engine can recognise shared columns across datasets by pointer
    /// identity.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dataset::from_columns`].
    pub fn from_shared_columns(columns: Vec<Arc<[f64]>>, labels: Vec<f64>) -> Result<Self> {
        validate_columns(columns.iter().map(|c| &c[..]), columns.len(), &labels)?;
        Ok(Dataset { dimension: columns.len(), columns, labels })
    }

    /// Appends a sample.
    ///
    /// This is the **slow path**: column-major shared storage means every
    /// push re-allocates each feature column (`O(len · dimension)` per call).
    /// It remains for convenient test/example construction; bulk data should
    /// arrive through [`Dataset::from_rows`], [`Dataset::from_columns`] or
    /// [`Dataset::from_shared_columns`].
    ///
    /// # Errors
    ///
    /// Returns [`SvmError::DimensionMismatch`] if the feature vector has the
    /// wrong length and [`SvmError::NonFiniteFeature`] if any entry (or the
    /// label) is NaN or infinite.
    pub fn push(&mut self, features: Vec<f64>, label: f64) -> Result<()> {
        if features.len() != self.dimension {
            return Err(SvmError::DimensionMismatch {
                expected: self.dimension,
                found: features.len(),
            });
        }
        for (index, &value) in features.iter().enumerate() {
            if !value.is_finite() {
                return Err(SvmError::NonFiniteFeature { index, value });
            }
        }
        if !label.is_finite() {
            return Err(SvmError::NonFiniteFeature { index: usize::MAX, value: label });
        }
        for (column, &value) in self.columns.iter_mut().zip(&features) {
            let mut grown = Vec::with_capacity(column.len() + 1);
            grown.extend_from_slice(column);
            grown.push(value);
            *column = grown.into();
        }
        self.labels.push(label);
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per sample.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The contiguous values of feature `c`, one per sample — zero-copy.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn column(&self, c: usize) -> &[f64] {
        &self.columns[c]
    }

    /// The `Arc`-shared feature columns, in feature order.
    pub fn shared_columns(&self) -> &[Arc<[f64]>] {
        &self.columns
    }

    /// Feature vector of sample `i`, gathered from the column storage into an
    /// owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn features(&self, i: usize) -> Vec<f64> {
        assert!(i < self.len(), "sample {i} out of range ({} samples)", self.len());
        self.columns.iter().map(|column| column[i]).collect()
    }

    /// Label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// All labels, in insertion order.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Returns a new dataset keeping only the feature columns in `columns`
    /// (in the given order) — zero-copy: the result shares this dataset's
    /// column allocations.
    ///
    /// This is the primitive the compaction methodology uses to "remove a
    /// specification from the training data" (paper Section 3.2).
    ///
    /// # Errors
    ///
    /// Returns [`SvmError::EmptyDimension`] if `columns` is empty and
    /// [`SvmError::DimensionMismatch`] if any column index is out of range.
    pub fn select_columns(&self, columns: &[usize]) -> Result<Dataset> {
        if columns.is_empty() {
            return Err(SvmError::EmptyDimension);
        }
        if let Some(&bad) = columns.iter().find(|&&c| c >= self.dimension) {
            return Err(SvmError::DimensionMismatch { expected: self.dimension, found: bad });
        }
        Ok(Dataset {
            dimension: columns.len(),
            columns: columns.iter().map(|&c| Arc::clone(&self.columns[c])).collect(),
            labels: self.labels.clone(),
        })
    }

    /// Counts samples with a strictly positive label.
    pub fn positive_count(&self) -> usize {
        self.labels.iter().filter(|&&l| l > 0.0).count()
    }
}

/// Shared constructor validation: non-empty dimension, column lengths equal
/// to the label count, all values and labels finite.
fn validate_columns<'a, I>(columns: I, dimension: usize, labels: &[f64]) -> Result<()>
where
    I: Iterator<Item = &'a [f64]>,
{
    if dimension == 0 {
        return Err(SvmError::EmptyDimension);
    }
    let count = labels.len();
    for (feature, column) in columns.enumerate() {
        if column.len() != count {
            return Err(SvmError::DimensionMismatch { expected: count, found: column.len() });
        }
        // `index` is the *feature* index, matching `push`'s convention.
        if let Some(&value) = column.iter().find(|v| !v.is_finite()) {
            return Err(SvmError::NonFiniteFeature { index: feature, value });
        }
    }
    validate_labels(labels)
}

fn validate_labels(labels: &[f64]) -> Result<()> {
    if let Some(&label) = labels.iter().find(|l| !l.is_finite()) {
        return Err(SvmError::NonFiniteFeature { index: usize::MAX, value: label });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(3).unwrap();
        d.push(vec![1.0, 2.0, 3.0], 1.0).unwrap();
        d.push(vec![4.0, 5.0, 6.0], -1.0).unwrap();
        d.push(vec![7.0, 8.0, 9.0], 1.0).unwrap();
        d
    }

    #[test]
    fn new_rejects_zero_dimension() {
        assert_eq!(Dataset::new(0).unwrap_err(), SvmError::EmptyDimension);
    }

    #[test]
    fn push_rejects_wrong_dimension() {
        let mut d = Dataset::new(2).unwrap();
        let err = d.push(vec![1.0], 1.0).unwrap_err();
        assert_eq!(err, SvmError::DimensionMismatch { expected: 2, found: 1 });
    }

    #[test]
    fn push_rejects_nan_feature_and_label() {
        let mut d = Dataset::new(1).unwrap();
        assert!(matches!(
            d.push(vec![f64::NAN], 1.0),
            Err(SvmError::NonFiniteFeature { index: 0, .. })
        ));
        assert!(d.push(vec![0.0], f64::INFINITY).is_err());
    }

    #[test]
    fn storage_is_column_major() {
        let d = toy();
        assert_eq!(d.column(0), &[1.0, 4.0, 7.0]);
        assert_eq!(d.column(2), &[3.0, 6.0, 9.0]);
        assert_eq!(d.features(1), &[4.0, 5.0, 6.0]);
        assert_eq!(d.shared_columns().len(), 3);
    }

    #[test]
    fn select_columns_keeps_order_and_validates() {
        let d = toy();
        let projected = d.select_columns(&[2, 0]).unwrap();
        assert_eq!(projected.dimension(), 2);
        assert_eq!(projected.features(0), &[3.0, 1.0]);
        // Zero-copy: the projection shares the parent's column allocations.
        assert!(Arc::ptr_eq(&projected.shared_columns()[0], &d.shared_columns()[2]));
        assert!(Arc::ptr_eq(&projected.shared_columns()[1], &d.shared_columns()[0]));
        assert!(d.select_columns(&[]).is_err());
        assert!(d.select_columns(&[5]).is_err());
    }

    #[test]
    fn from_shared_columns_adopts_allocations() {
        let a: Arc<[f64]> = vec![1.0, 2.0].into();
        let b: Arc<[f64]> = vec![3.0, 4.0].into();
        let d = Dataset::from_shared_columns(vec![Arc::clone(&a), Arc::clone(&b)], vec![1.0, -1.0])
            .unwrap();
        assert!(Arc::ptr_eq(&d.shared_columns()[0], &a));
        assert!(Arc::ptr_eq(&d.shared_columns()[1], &b));
        assert_eq!(d.features(0), &[1.0, 3.0]);
        // Validation still applies to adopted columns.
        let ragged: Arc<[f64]> = vec![1.0].into();
        assert!(Dataset::from_shared_columns(vec![ragged], vec![1.0, -1.0]).is_err());
        let nan: Arc<[f64]> = vec![f64::NAN, 0.0].into();
        assert!(Dataset::from_shared_columns(vec![nan], vec![1.0, -1.0]).is_err());
        assert!(Dataset::from_shared_columns(vec![], vec![]).is_err());
    }

    #[test]
    fn from_columns_matches_from_rows() {
        let rows = vec![vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]];
        let labels = vec![1.0, -1.0, 1.0];
        let by_rows = Dataset::from_rows(&rows, &labels).unwrap();
        let by_columns =
            Dataset::from_columns(&[&[0.0, 2.0, 4.0], &[1.0, 3.0, 5.0]], &labels).unwrap();
        assert_eq!(by_rows, by_columns);
        assert!(Dataset::from_columns(&[], &labels).is_err());
        assert!(Dataset::from_columns(&[&[0.0, 1.0]], &labels).is_err());
        assert!(Dataset::from_columns(&[&[0.0, f64::NAN, 1.0]], &labels).is_err());
        assert!(Dataset::from_columns(&[&[0.0, 1.0, 2.0]], &[1.0, f64::INFINITY, 1.0]).is_err());
    }

    #[test]
    fn from_rows_round_trip() {
        let rows = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        let labels = vec![1.0, -1.0];
        let d = Dataset::from_rows(&rows, &labels).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.labels(), labels);
        assert!(Dataset::from_rows(&[], &[]).is_err());
        // Row/label count mismatches are rejected, not silently truncated.
        assert!(Dataset::from_rows(&rows, &[1.0]).is_err());
        assert!(Dataset::from_rows(&[vec![0.0], vec![1.0, 2.0]], &[1.0, -1.0]).is_err());
    }
}
