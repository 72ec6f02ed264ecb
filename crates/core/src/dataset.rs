//! Measurement datasets: the training/test data of the compaction flow.
//!
//! Since 0.3 the storage is column-major and `Arc`-shared: a
//! [`MeasurementMatrix`] holds one allocation per population, and every
//! derived set — train/test splits, truncations, training views — is a cheap
//! view (column subset + row range) over that allocation instead of a copy.
//! The greedy elimination loop re-slices the same population once per
//! candidate kept set, so this is the hot data structure of the whole flow.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::spec::SpecificationSet;
use crate::{CompactionError, Result};

/// Pass/fail status of one device instance against the full specification set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceLabel {
    /// Every specification value is inside its acceptability range.
    Good,
    /// At least one specification value is outside its range.
    Bad,
}

impl DeviceLabel {
    /// The `+1` / `-1` encoding used by the SVM classifier.
    pub fn to_class(self) -> f64 {
        match self {
            DeviceLabel::Good => 1.0,
            DeviceLabel::Bad => -1.0,
        }
    }

    /// Decodes a signed class value or decision value.
    ///
    /// Only the sign matters: strictly positive decodes to
    /// [`DeviceLabel::Good`], everything else — including exactly `0.0` — to
    /// [`DeviceLabel::Bad`].  Classifier decision functions output continuous
    /// values, and a device *on* the decision boundary has no evidence of
    /// passing, so the tie breaks to the conservative side (rejecting a good
    /// device costs yield; shipping a bad one costs a defect escape).
    ///
    /// ```
    /// use stc_core::DeviceLabel;
    /// assert_eq!(DeviceLabel::from_class(1.0), DeviceLabel::Good);
    /// assert_eq!(DeviceLabel::from_class(-1.0), DeviceLabel::Bad);
    /// // The boundary itself is Bad, by choice:
    /// assert_eq!(DeviceLabel::from_class(0.0), DeviceLabel::Bad);
    /// ```
    pub fn from_class(class: f64) -> Self {
        if class > 0.0 {
            DeviceLabel::Good
        } else {
            DeviceLabel::Bad
        }
    }
}

/// Column-major, `Arc`-shared measurement storage.
///
/// One allocation holds the whole population (`column count × allocation
/// rows` values, one contiguous run per column); a matrix value is a *view*
/// into that allocation — a row range over all columns.  Cloning a matrix or
/// taking a sub-view ([`MeasurementMatrix::rows_view`]) never copies
/// measurement data, so train/test splits and truncations share storage with
/// the population they came from.
///
/// ```
/// use stc_core::MeasurementMatrix;
///
/// # fn main() -> Result<(), stc_core::CompactionError> {
/// let matrix = MeasurementMatrix::from_rows(
///     vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]],
///     2,
/// )?;
/// assert_eq!(matrix.row_count(), 3);
/// assert_eq!(matrix.column(1), &[10.0, 20.0, 30.0]);
///
/// // A zero-copy view of the last two rows: same allocation, no clone of
/// // the measurement data.
/// let tail = matrix.rows_view(1, 2);
/// assert_eq!(tail.column(0), &[2.0, 3.0]);
/// assert!(tail.shares_allocation_with(&matrix));
/// # Ok(())
/// # }
/// ```
///
/// **Serialisation:** the hand-written serde impls describe the matrix as
/// `{columns, rows}` with `rows = to_rows()` — a view serialises only the
/// rows it exposes (never its parent allocation), and deserialisation
/// rebuilds a fresh allocation through the validating
/// [`MeasurementMatrix::from_rows`].
#[derive(Debug, Clone)]
pub struct MeasurementMatrix {
    /// Column-major values of the *full* allocation: column `c` occupies
    /// `values[c * alloc_rows .. (c + 1) * alloc_rows]`.
    values: Arc<[f64]>,
    /// Rows in the allocation (the stride between columns).
    alloc_rows: usize,
    columns: usize,
    /// First allocation row this view exposes.
    row_start: usize,
    /// Number of rows this view exposes.
    row_count: usize,
}

impl MeasurementMatrix {
    /// Builds a matrix from row-major data (one `Vec` per device instance).
    ///
    /// `columns` disambiguates the empty population (no rows still has a
    /// column count).
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::DimensionMismatch`] if any row does not
    /// have `columns` values and [`CompactionError::NonFiniteMeasurement`]
    /// for the first NaN or infinite value.
    pub fn from_rows(rows: Vec<Vec<f64>>, columns: usize) -> Result<Self> {
        if let Some(bad) = rows.iter().find(|r| r.len() != columns) {
            return Err(CompactionError::DimensionMismatch { expected: columns, found: bad.len() });
        }
        check_finite_rows(&rows)?;
        let row_count = rows.len();
        let mut values = vec![0.0; columns * row_count];
        for (i, row) in rows.iter().enumerate() {
            for (c, &value) in row.iter().enumerate() {
                values[c * row_count + i] = value;
            }
        }
        Ok(MeasurementMatrix {
            values: values.into(),
            alloc_rows: row_count,
            columns,
            row_start: 0,
            row_count,
        })
    }

    /// Builds a matrix directly from its columns (no transpose needed).
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::EmptyTestSet`] for zero columns,
    /// [`CompactionError::DimensionMismatch`] for ragged column lengths and
    /// [`CompactionError::NonFiniteMeasurement`] for the first NaN or
    /// infinite value.
    pub fn from_columns(columns: Vec<Vec<f64>>) -> Result<Self> {
        if columns.is_empty() {
            return Err(CompactionError::EmptyTestSet);
        }
        let row_count = columns[0].len();
        if let Some(bad) = columns.iter().find(|c| c.len() != row_count) {
            return Err(CompactionError::DimensionMismatch {
                expected: row_count,
                found: bad.len(),
            });
        }
        for (column, values) in columns.iter().enumerate() {
            if let Some(row) = values.iter().position(|value| !value.is_finite()) {
                let value = values[row];
                return Err(CompactionError::NonFiniteMeasurement { row, column, value });
            }
        }
        let column_count = columns.len();
        let mut values = Vec::with_capacity(column_count * row_count);
        for column in &columns {
            values.extend_from_slice(column);
        }
        Ok(MeasurementMatrix {
            values: values.into(),
            alloc_rows: row_count,
            columns: column_count,
            row_start: 0,
            row_count,
        })
    }

    /// Number of device instances (rows) this view exposes.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of measurement columns.
    pub fn column_count(&self) -> usize {
        self.columns
    }

    /// Whether the view holds no instances.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// The contiguous values of column `c` (restricted to this view's rows)
    /// — zero-copy.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn column(&self, c: usize) -> &[f64] {
        assert!(c < self.columns, "column {c} out of range ({} columns)", self.columns);
        let start = c * self.alloc_rows + self.row_start;
        &self.values[start..start + self.row_count]
    }

    /// Value of row `r`, column `c`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn value(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.row_count, "row {r} out of range ({} rows)", self.row_count);
        assert!(c < self.columns, "column {c} out of range ({} columns)", self.columns);
        self.values[c * self.alloc_rows + self.row_start + r]
    }

    /// Gathers row `r` into an owned vector (column-major storage has no
    /// contiguous rows).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_values(&self, r: usize) -> Vec<f64> {
        (0..self.columns).map(|c| self.value(r, c)).collect()
    }

    /// Materialises the view as row-major data (the pre-0.3 representation).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.row_count).map(|r| self.row_values(r)).collect()
    }

    /// A zero-copy view of `count` rows starting at `start`: the result
    /// shares this matrix's allocation.
    ///
    /// # Panics
    ///
    /// Panics if `start + count` exceeds the view's row count.
    pub fn rows_view(&self, start: usize, count: usize) -> MeasurementMatrix {
        assert!(
            start + count <= self.row_count,
            "row range {start}..{} out of bounds ({} rows)",
            start + count,
            self.row_count
        );
        MeasurementMatrix {
            values: Arc::clone(&self.values),
            alloc_rows: self.alloc_rows,
            columns: self.columns,
            row_start: self.row_start + start,
            row_count: count,
        }
    }

    /// Whether two matrices are views over the same allocation (diagnostic
    /// for the zero-copy contract; equality compares *values*, not storage).
    pub fn shares_allocation_with(&self, other: &MeasurementMatrix) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }
}

/// Fails on the first NaN or infinite value of row-major `rows`, naming its
/// row and column.
pub(crate) fn check_finite_rows(rows: &[Vec<f64>]) -> Result<()> {
    for (row, values) in rows.iter().enumerate() {
        if let Some(column) = values.iter().position(|value| !value.is_finite()) {
            let value = values[column];
            return Err(CompactionError::NonFiniteMeasurement { row, column, value });
        }
    }
    Ok(())
}

impl Serialize for MeasurementMatrix {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut state = serializer.serialize_struct("MeasurementMatrix", 2)?;
        state.serialize_field("columns", &self.columns)?;
        state.serialize_field("rows", &self.to_rows())?;
        state.end()
    }
}

impl<'de> Deserialize<'de> for MeasurementMatrix {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        use serde::de::{Error as _, IgnoredAny, MapAccess, Visitor};
        struct MatrixVisitor;
        impl<'de> Visitor<'de> for MatrixVisitor {
            type Value = MeasurementMatrix;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("a measurement matrix as {columns, rows}")
            }
            fn visit_map<A: MapAccess<'de>>(
                self,
                mut map: A,
            ) -> std::result::Result<MeasurementMatrix, A::Error> {
                let mut columns: Option<usize> = None;
                let mut rows: Option<Vec<Vec<f64>>> = None;
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "columns" => columns = Some(map.next_value()?),
                        "rows" => rows = Some(map.next_value()?),
                        _ => {
                            map.next_value::<IgnoredAny>()?;
                        }
                    }
                }
                let columns = columns.ok_or_else(|| A::Error::missing_field("columns"))?;
                let rows = rows.ok_or_else(|| A::Error::missing_field("rows"))?;
                MeasurementMatrix::from_rows(rows, columns)
                    .map_err(|error| A::Error::custom(format!("invalid matrix: {error}")))
            }
        }
        deserializer.deserialize_any(MatrixVisitor)
    }
}

impl PartialEq for MeasurementMatrix {
    /// Semantic equality: same shape and the same values, regardless of
    /// whether the two matrices share an allocation or where their views
    /// start.
    fn eq(&self, other: &Self) -> bool {
        self.row_count == other.row_count
            && self.columns == other.columns
            && (0..self.columns).all(|c| self.column(c) == other.column(c))
    }
}

/// Lazily filled per-column normalized values of a measurement set.
///
/// Normalization maps each measurement to its acceptability range (paper
/// Section 4.3) and depends only on the specification and the raw column —
/// not on the labelling margin and not on which columns a candidate kept set
/// retains.  One cache per measurement set therefore serves every
/// guard-banded strict/loose view and every candidate kept set of a
/// compaction run, and the `Arc` identity of each cached column lets
/// downstream consumers (the SVM kernel engine) recognise shared columns
/// across candidate datasets by pointer equality.
#[derive(Debug, Default)]
struct NormalizedColumns {
    columns: Vec<std::sync::OnceLock<Arc<[f64]>>>,
}

impl NormalizedColumns {
    fn with_capacity(count: usize) -> Arc<Self> {
        Arc::new(NormalizedColumns { columns: (0..count).map(|_| Default::default()).collect() })
    }
}

/// A set of measured device instances: one row of specification measurements
/// per instance, together with the specification set that defines pass/fail.
///
/// This is the "training data" produced by the Figure 1 flow and consumed by
/// the Figure 2 compaction loop.  Backed by a [`MeasurementMatrix`], so
/// cloning, [`MeasurementSet::split_at`] and [`MeasurementSet::truncated`]
/// are zero-copy views over the shared population allocation.
///
/// Equality and serialization cover the specifications and measurements
/// only; the internal normalized-column cache is an invisible accelerator.
#[derive(Debug, Clone)]
pub struct MeasurementSet {
    specs: SpecificationSet,
    matrix: MeasurementMatrix,
    /// Lazy normalized columns, shared by clones (identical rows) but not by
    /// derived views (different row ranges).
    normalized: Arc<NormalizedColumns>,
}

impl PartialEq for MeasurementSet {
    /// Semantic equality over specifications and measurements; the lazy
    /// normalization cache never participates.
    fn eq(&self, other: &Self) -> bool {
        self.specs == other.specs && self.matrix == other.matrix
    }
}

impl Serialize for MeasurementSet {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut state = serializer.serialize_struct("MeasurementSet", 2)?;
        state.serialize_field("specs", &self.specs)?;
        state.serialize_field("matrix", &self.matrix)?;
        state.end()
    }
}

impl<'de> Deserialize<'de> for MeasurementSet {
    /// Deserialises through [`MeasurementSet::from_matrix`], so a decoded set
    /// upholds the same column/specification invariant as a constructed one.
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        use serde::de::{Error as _, IgnoredAny, MapAccess, Visitor};
        struct SetVisitor;
        impl<'de> Visitor<'de> for SetVisitor {
            type Value = MeasurementSet;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("a measurement set as {specs, matrix}")
            }
            fn visit_map<A: MapAccess<'de>>(
                self,
                mut map: A,
            ) -> std::result::Result<MeasurementSet, A::Error> {
                let mut specs: Option<SpecificationSet> = None;
                let mut matrix: Option<MeasurementMatrix> = None;
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "specs" => specs = Some(map.next_value()?),
                        "matrix" => matrix = Some(map.next_value()?),
                        _ => {
                            map.next_value::<IgnoredAny>()?;
                        }
                    }
                }
                let specs = specs.ok_or_else(|| A::Error::missing_field("specs"))?;
                let matrix = matrix.ok_or_else(|| A::Error::missing_field("matrix"))?;
                MeasurementSet::from_matrix(specs, matrix)
                    .map_err(|error| A::Error::custom(format!("invalid measurement set: {error}")))
            }
        }
        deserializer.deserialize_any(SetVisitor)
    }
}

impl MeasurementSet {
    /// Creates a measurement set from row-major data, validating row
    /// dimensions and values.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::DimensionMismatch`] if any row does not have
    /// one value per specification and
    /// [`CompactionError::NonFiniteMeasurement`] for the first NaN or infinite
    /// value.
    pub fn new(specs: SpecificationSet, rows: Vec<Vec<f64>>) -> Result<Self> {
        let matrix = MeasurementMatrix::from_rows(rows, specs.len())?;
        MeasurementSet::from_matrix(specs, matrix)
    }

    /// Creates a measurement set over an existing (possibly shared) matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::DimensionMismatch`] if the matrix does not
    /// have one column per specification.
    pub fn from_matrix(specs: SpecificationSet, matrix: MeasurementMatrix) -> Result<Self> {
        if matrix.column_count() != specs.len() {
            return Err(CompactionError::DimensionMismatch {
                expected: specs.len(),
                found: matrix.column_count(),
            });
        }
        let normalized = NormalizedColumns::with_capacity(specs.len());
        Ok(MeasurementSet { specs, matrix, normalized })
    }

    /// The specification set describing the columns.
    pub fn specs(&self) -> &SpecificationSet {
        &self.specs
    }

    /// The underlying column-major measurement storage.
    pub fn matrix(&self) -> &MeasurementMatrix {
        &self.matrix
    }

    /// Number of device instances.
    pub fn len(&self) -> usize {
        self.matrix.row_count()
    }

    /// Whether the set holds no instances.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// All measurements of specification `column`, one value per instance —
    /// zero-copy.
    ///
    /// # Panics
    ///
    /// Panics if `column` is out of bounds.
    pub fn column(&self, column: usize) -> &[f64] {
        self.matrix.column(column)
    }

    /// Measurement of instance `i` for specification `column`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn value(&self, i: usize, column: usize) -> f64 {
        self.matrix.value(i, column)
    }

    /// Measurement row of instance `i`, gathered into an owned vector
    /// (replaces the pre-0.3 `row()` borrow, which column-major storage
    /// cannot provide).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_values(&self, i: usize) -> Vec<f64> {
        self.matrix.row_values(i)
    }

    /// Materialises all instances as row-major data (replaces the pre-0.3
    /// `rows()` borrow).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.matrix.to_rows()
    }

    /// Pass/fail label of instance `i` against the full specification set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label(&self, i: usize) -> DeviceLabel {
        self.label_with_margin(i, 0.0)
    }

    /// Pass/fail label of instance `i` with all ranges tightened/widened by a
    /// fraction of their width (used for guard-band labelling).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label_with_margin(&self, i: usize, delta: f64) -> DeviceLabel {
        for (c, spec) in self.specs.iter().enumerate() {
            if !spec.passes_with_margin(self.matrix.value(i, c), delta) {
                return DeviceLabel::Bad;
            }
        }
        DeviceLabel::Good
    }

    /// Labels of every instance.
    pub fn labels(&self) -> Vec<DeviceLabel> {
        self.labels_with_margin(0.0)
    }

    /// Margin-adjusted labels of every instance, computed in one sequential
    /// pass per column (the batch counterpart of
    /// [`MeasurementSet::label_with_margin`]).
    pub fn labels_with_margin(&self, delta: f64) -> Vec<DeviceLabel> {
        let mut good = vec![true; self.len()];
        for (c, spec) in self.specs.iter().enumerate() {
            for (flag, &value) in good.iter_mut().zip(self.matrix.column(c)) {
                if *flag && !spec.passes_with_margin(value, delta) {
                    *flag = false;
                }
            }
        }
        good.into_iter()
            .map(|flag| if flag { DeviceLabel::Good } else { DeviceLabel::Bad })
            .collect()
    }

    /// Overall yield: fraction of instances that pass every specification.
    pub fn yield_fraction(&self) -> f64 {
        if self.is_empty() {
            return 1.0;
        }
        let good = self.labels().iter().filter(|&&l| l == DeviceLabel::Good).count();
        good as f64 / self.len() as f64
    }

    /// Fraction of instances that pass specification `column` alone.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::UnknownSpecification`] for a bad column.
    pub fn per_spec_yield(&self, column: usize) -> Result<f64> {
        if column >= self.specs.len() {
            return Err(CompactionError::UnknownSpecification {
                index: column,
                count: self.specs.len(),
            });
        }
        if self.is_empty() {
            return Ok(1.0);
        }
        let spec = self.specs.spec(column);
        let pass = self.matrix.column(column).iter().filter(|&&v| spec.passes(v)).count();
        Ok(pass as f64 / self.len() as f64)
    }

    /// Splits the instances into two measurement sets at `index`
    /// (first `index` rows, remaining rows).  Both halves are zero-copy views
    /// sharing this set's allocation.
    ///
    /// # Panics
    ///
    /// Panics if `index > len()`.
    pub fn split_at(&self, index: usize) -> (MeasurementSet, MeasurementSet) {
        // Derived views expose different row ranges, so each gets its own
        // (empty) normalization cache rather than sharing this set's.
        (
            MeasurementSet {
                specs: self.specs.clone(),
                matrix: self.matrix.rows_view(0, index),
                normalized: NormalizedColumns::with_capacity(self.specs.len()),
            },
            MeasurementSet {
                specs: self.specs.clone(),
                matrix: self.matrix.rows_view(index, self.len() - index),
                normalized: NormalizedColumns::with_capacity(self.specs.len()),
            },
        )
    }

    /// Returns a measurement set viewing the first `count` instances
    /// (or all of them when `count >= len()`), sharing this set's allocation.
    pub fn truncated(&self, count: usize) -> MeasurementSet {
        let count = count.min(self.len());
        MeasurementSet {
            specs: self.specs.clone(),
            matrix: self.matrix.rows_view(0, count),
            normalized: NormalizedColumns::with_capacity(self.specs.len()),
        }
    }

    /// Normalised kept-column feature vector of instance `i` (the tester-side
    /// view of the measurements after compaction).
    ///
    /// # Panics
    ///
    /// Panics if `i` or any column index is out of bounds.
    pub fn features(&self, i: usize, kept: &[usize]) -> Vec<f64> {
        kept.iter().map(|&c| self.specs.spec(c).normalize(self.matrix.value(i, c))).collect()
    }

    /// The normalized values of specification `column`, one per instance, as
    /// a shared allocation.
    ///
    /// The column is normalized once per set and memoized; clones of this set
    /// (and every [`crate::classifier::TrainingView`] borrowed from it) hand
    /// out `Arc`s over the *same* allocation, so two candidate kept sets of
    /// one compaction run that both retain `column` see pointer-identical
    /// feature columns.  The SVM backend relies on that identity to assemble
    /// candidate kernel rows incrementally instead of from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `column` is out of bounds.
    pub fn normalized_column_shared(&self, column: usize) -> Arc<[f64]> {
        let slot = &self.normalized.columns[column];
        Arc::clone(slot.get_or_init(|| {
            let spec = self.specs.spec(column);
            self.matrix.column(column).iter().map(|&v| spec.normalize(v)).collect()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::TrainingView;
    use crate::spec::Specification;

    fn two_spec_set() -> SpecificationSet {
        SpecificationSet::new(vec![
            Specification::new("a", "-", 0.5, 0.0, 1.0).unwrap(),
            Specification::new("b", "-", 5.0, 0.0, 10.0).unwrap(),
        ])
        .unwrap()
    }

    fn sample_set() -> MeasurementSet {
        MeasurementSet::new(
            two_spec_set(),
            vec![
                vec![0.5, 5.0],  // good
                vec![0.9, 9.0],  // good
                vec![1.5, 5.0],  // bad (a out of range)
                vec![0.5, 12.0], // bad (b out of range)
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_dimensions() {
        let specs = two_spec_set();
        assert!(MeasurementSet::new(specs, vec![vec![1.0]]).is_err());
    }

    #[test]
    fn matrix_round_trips_rows_and_columns() {
        let rows = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let matrix = MeasurementMatrix::from_rows(rows.clone(), 2).unwrap();
        assert_eq!(matrix.row_count(), 3);
        assert_eq!(matrix.column_count(), 2);
        assert_eq!(matrix.column(0), &[1.0, 2.0, 3.0]);
        assert_eq!(matrix.column(1), &[10.0, 20.0, 30.0]);
        assert_eq!(matrix.value(1, 1), 20.0);
        assert_eq!(matrix.row_values(2), vec![3.0, 30.0]);
        assert_eq!(matrix.to_rows(), rows);
        let from_columns =
            MeasurementMatrix::from_columns(vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]])
                .unwrap();
        assert_eq!(matrix, from_columns);
        assert!(!matrix.shares_allocation_with(&from_columns));
    }

    #[test]
    fn matrix_construction_validates_shapes() {
        assert!(MeasurementMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]], 1).is_err());
        assert!(MeasurementMatrix::from_columns(vec![]).is_err());
        assert!(MeasurementMatrix::from_columns(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        let empty = MeasurementMatrix::from_rows(vec![], 3).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.column_count(), 3);
        assert_eq!(empty.column(2), &[] as &[f64]);
    }

    #[test]
    fn from_rows_rejects_non_finite_values_by_row_and_column() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rows = vec![vec![0.5, 5.0], vec![0.9, bad], vec![0.5, 6.0]];
            for error in [
                MeasurementMatrix::from_rows(rows.clone(), 2).unwrap_err(),
                MeasurementSet::new(two_spec_set(), rows).unwrap_err(),
            ] {
                assert!(
                    matches!(
                        error,
                        CompactionError::NonFiniteMeasurement { row: 1, column: 1, .. }
                    ),
                    "{error}"
                );
            }
        }
    }

    #[test]
    fn from_columns_rejects_non_finite_values_by_row_and_column() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let columns = vec![vec![0.5, 0.9, 0.5], vec![5.0, 9.0, bad]];
            let error = MeasurementMatrix::from_columns(columns).unwrap_err();
            assert!(
                matches!(error, CompactionError::NonFiniteMeasurement { row: 2, column: 1, .. }),
                "{error}"
            );
        }
    }

    #[test]
    fn rows_view_is_zero_copy_and_composes() {
        let matrix = MeasurementMatrix::from_rows(
            (0..10).map(|i| vec![i as f64, 100.0 + i as f64]).collect(),
            2,
        )
        .unwrap();
        let middle = matrix.rows_view(2, 6);
        assert!(middle.shares_allocation_with(&matrix));
        assert_eq!(middle.column(0), &[2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        // A view of a view stays anchored to the original allocation.
        let inner = middle.rows_view(1, 2);
        assert!(inner.shares_allocation_with(&matrix));
        assert_eq!(inner.column(1), &[103.0, 104.0]);
        assert_eq!(inner.row_values(0), vec![3.0, 103.0]);
        // Equality is semantic: a view equals its materialised copy.
        let copy = MeasurementMatrix::from_rows(inner.to_rows(), 2).unwrap();
        assert_eq!(inner, copy);
    }

    #[test]
    fn labels_and_yield() {
        let set = sample_set();
        assert_eq!(set.label(0), DeviceLabel::Good);
        assert_eq!(set.label(2), DeviceLabel::Bad);
        assert_eq!(set.yield_fraction(), 0.5);
        assert_eq!(set.labels().len(), 4);
        assert_eq!(DeviceLabel::Good.to_class(), 1.0);
        assert_eq!(DeviceLabel::from_class(-2.0), DeviceLabel::Bad);
    }

    #[test]
    fn from_class_boundary_is_bad() {
        // `to_class` only ever produces +1/-1, but `from_class` also decodes
        // raw decision values: the boundary itself must break to Bad.
        assert_eq!(DeviceLabel::from_class(0.0), DeviceLabel::Bad);
        assert_eq!(DeviceLabel::from_class(-0.0), DeviceLabel::Bad);
        assert_eq!(DeviceLabel::from_class(f64::MIN_POSITIVE), DeviceLabel::Good);
        assert_eq!(DeviceLabel::from_class(f64::NAN), DeviceLabel::Bad);
        // Round trip of the two canonical encodings.
        for label in [DeviceLabel::Good, DeviceLabel::Bad] {
            assert_eq!(DeviceLabel::from_class(label.to_class()), label);
        }
    }

    #[test]
    fn batch_labels_match_per_instance_labels() {
        let set = sample_set();
        for delta in [0.0, 0.15, -0.15] {
            let batch = set.labels_with_margin(delta);
            for (i, &label) in batch.iter().enumerate() {
                assert_eq!(label, set.label_with_margin(i, delta), "delta {delta} row {i}");
            }
        }
    }

    #[test]
    fn per_spec_yield_isolates_columns() {
        let set = sample_set();
        assert_eq!(set.per_spec_yield(0).unwrap(), 0.75);
        assert_eq!(set.per_spec_yield(1).unwrap(), 0.75);
        assert!(set.per_spec_yield(7).is_err());
    }

    #[test]
    fn margin_labelling_shrinks_the_good_region() {
        let set = sample_set();
        // Instance 1 is at 0.9/9.0 — inside the plain ranges but outside a
        // 15 % guard-banded (tightened) range.
        assert_eq!(set.label(1), DeviceLabel::Good);
        assert_eq!(set.label_with_margin(1, 0.15), DeviceLabel::Bad);
        // Widening never turns a good device bad.
        assert_eq!(set.label_with_margin(1, -0.15), DeviceLabel::Good);
    }

    #[test]
    fn split_and_truncate_share_the_allocation() {
        let set = sample_set();
        let (a, b) = set.split_at(1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 3);
        assert!(a.matrix().shares_allocation_with(set.matrix()));
        assert!(b.matrix().shares_allocation_with(set.matrix()));
        assert_eq!(b.value(0, 0), set.value(1, 0));
        let head = set.truncated(2);
        assert_eq!(head.len(), 2);
        assert!(head.matrix().shares_allocation_with(set.matrix()));
        assert_eq!(set.truncated(99).len(), 4);
    }

    #[test]
    fn from_matrix_validates_column_count() {
        let matrix = MeasurementMatrix::from_rows(vec![vec![1.0]], 1).unwrap();
        assert!(MeasurementSet::from_matrix(two_spec_set(), matrix).is_err());
        let matrix = MeasurementMatrix::from_rows(vec![vec![0.5, 5.0]], 2).unwrap();
        let set = MeasurementSet::from_matrix(two_spec_set(), matrix).unwrap();
        assert_eq!(set.label(0), DeviceLabel::Good);
    }

    #[test]
    fn training_view_uses_normalised_kept_columns() {
        let set = sample_set();
        let kept = [1usize];
        let view = TrainingView::new(&set, &kept, 0.0).unwrap();
        assert_eq!(view.dimension(), 1);
        assert_eq!(view.len(), 4);
        // Column b of instance 0 is 5.0 in range [0, 10] -> 0.5.
        assert_eq!(view.features(0), &[0.5]);
        // Labels reflect the *overall* pass/fail, not just the kept column:
        // instance 2 passes spec b but fails spec a, so its label is bad.
        assert_eq!(view.label(2), DeviceLabel::Bad);
        assert!(TrainingView::new(&set, &[], 0.0).is_err());
        assert!(TrainingView::new(&set, &[9], 0.0).is_err());
    }

    #[test]
    fn features_match_training_view_rows() {
        let set = sample_set();
        let kept = [0usize, 1];
        let view = TrainingView::new(&set, &kept, 0.0).unwrap();
        for i in 0..set.len() {
            assert_eq!(set.features(i, &[0, 1]), view.features(i));
        }
    }

    #[test]
    fn normalized_columns_are_memoized_and_shared_by_clones() {
        let set = sample_set();
        let first = set.normalized_column_shared(1);
        // Memoized: repeated access and clones return the same allocation.
        assert!(Arc::ptr_eq(&first, &set.normalized_column_shared(1)));
        assert!(Arc::ptr_eq(&first, &set.clone().normalized_column_shared(1)));
        // Values match the per-instance normalization path.
        for i in 0..set.len() {
            assert_eq!(first[i], set.features(i, &[1])[0]);
        }
        // Derived views cover different rows, so they build their own columns.
        let head = set.truncated(2);
        let head_col = head.normalized_column_shared(1);
        assert!(!Arc::ptr_eq(&first, &head_col));
        assert_eq!(&head_col[..], &first[..2]);
        // The cache is invisible to equality and serialization.
        assert_eq!(set, sample_set());
    }

    #[test]
    fn empty_set_has_full_yield() {
        let empty = MeasurementSet::new(two_spec_set(), vec![]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.yield_fraction(), 1.0);
        assert_eq!(empty.per_spec_yield(0).unwrap(), 1.0);
    }
}
