//! Specifications and acceptability ranges (paper Section 2.1).

use serde::{Deserialize, Serialize};

use crate::dataset::check_finite_rows;
use crate::{CompactionError, Result};

/// One device specification: a named performance parameter with an
/// acceptability range.
///
/// A device is *good* when every measured specification value falls inside its
/// range and *bad* otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Specification {
    name: String,
    unit: String,
    nominal: f64,
    lower: f64,
    upper: f64,
}

impl Specification {
    /// Creates a specification.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::InvalidSpecification`] for an empty name, a
    /// reversed/degenerate range or non-finite bounds.
    pub fn new(name: &str, unit: &str, nominal: f64, lower: f64, upper: f64) -> Result<Self> {
        if name.is_empty() {
            return Err(CompactionError::InvalidSpecification {
                name: name.to_string(),
                reason: "name must not be empty".to_string(),
            });
        }
        if !(upper > lower) || !lower.is_finite() || !upper.is_finite() {
            return Err(CompactionError::InvalidSpecification {
                name: name.to_string(),
                reason: format!("range [{lower}, {upper}] is not a proper interval"),
            });
        }
        Ok(Specification { name: name.to_string(), unit: unit.to_string(), nominal, lower, upper })
    }

    /// Specification name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Unit string used in reports.
    pub fn unit(&self) -> &str {
        &self.unit
    }

    /// Nominal (design-target) value.
    pub fn nominal(&self) -> f64 {
        self.nominal
    }

    /// Lower acceptability bound.
    pub fn lower(&self) -> f64 {
        self.lower
    }

    /// Upper acceptability bound.
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// Width of the acceptability range.
    pub fn range_width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Whether a measured value passes this specification.
    pub fn passes(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }

    /// Whether a value passes the range tightened (`delta > 0`) or widened
    /// (`delta < 0`) by `delta` expressed as a fraction of the range width.
    ///
    /// This is the primitive the guard-banding scheme of Section 4.2 uses:
    /// the strict labelling shrinks every range by the guard-band fraction,
    /// the loose labelling expands it.
    pub fn passes_with_margin(&self, value: f64, delta: f64) -> bool {
        let margin = delta * self.range_width();
        value >= self.lower + margin && value <= self.upper - margin
    }

    /// Normalises a value so the acceptability range maps to `[0, 1]`
    /// (paper Section 4.3).
    pub fn normalize(&self, value: f64) -> f64 {
        (value - self.lower) / self.range_width()
    }
}

/// An ordered set of specifications — the complete specification-based test
/// set `T` of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecificationSet {
    specs: Vec<Specification>,
}

impl SpecificationSet {
    /// Creates a set from a list of specifications.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::EmptyTestSet`] for an empty list and
    /// [`CompactionError::InvalidSpecification`] for duplicate names.
    pub fn new(specs: Vec<Specification>) -> Result<Self> {
        if specs.is_empty() {
            return Err(CompactionError::EmptyTestSet);
        }
        for (i, spec) in specs.iter().enumerate() {
            if specs[..i].iter().any(|other| other.name() == spec.name()) {
                return Err(CompactionError::InvalidSpecification {
                    name: spec.name().to_string(),
                    reason: "duplicate specification name".to_string(),
                });
            }
        }
        Ok(SpecificationSet { specs })
    }

    /// Number of specifications.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The specifications in order.
    pub fn specs(&self) -> &[Specification] {
        &self.specs
    }

    /// Specification at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn spec(&self, index: usize) -> &Specification {
        &self.specs[index]
    }

    /// Finds a specification index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.specs.iter().position(|s| s.name() == name)
    }

    /// Iterator over the specifications.
    pub fn iter(&self) -> std::slice::Iter<'_, Specification> {
        self.specs.iter()
    }

    /// Whether a full measurement vector passes every specification.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the set size.
    pub fn passes(&self, measurements: &[f64]) -> bool {
        assert_eq!(measurements.len(), self.len(), "measurement vector length mismatch");
        self.specs.iter().zip(measurements.iter()).all(|(s, &v)| s.passes(v))
    }

    /// Pass/fail with every range tightened (`delta > 0`) or widened
    /// (`delta < 0`) by a fraction of its width (see
    /// [`Specification::passes_with_margin`]).
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the set size.
    pub fn passes_with_margin(&self, measurements: &[f64], delta: f64) -> bool {
        assert_eq!(measurements.len(), self.len(), "measurement vector length mismatch");
        self.specs.iter().zip(measurements.iter()).all(|(s, &v)| s.passes_with_margin(v, delta))
    }

    /// Normalises a full measurement vector (each value mapped so its range
    /// becomes `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the set size.
    pub fn normalize(&self, measurements: &[f64]) -> Vec<f64> {
        assert_eq!(measurements.len(), self.len(), "measurement vector length mismatch");
        self.specs.iter().zip(measurements.iter()).map(|(s, &v)| s.normalize(v)).collect()
    }

    /// Acceptability ranges as `(lower, upper)` pairs.
    pub fn ranges(&self) -> Vec<(f64, f64)> {
        self.specs.iter().map(|s| (s.lower(), s.upper())).collect()
    }

    /// Derives a specification set from a measured population by placing the
    /// acceptability bounds at the given lower/upper quantiles of each
    /// specification's empirical distribution.
    ///
    /// The scanned table of the paper does not give machine-readable ranges,
    /// so the reproduction calibrates ranges from the simulated population
    /// such that the resulting yield matches the paper's reported yield (the
    /// `calibrate` binary of `stc-bench` sweeps the quantiles, and
    /// `stc_bench::populations` pins the chosen ones).  `names`, `units` and
    /// `nominals` describe the columns of `rows`.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::InsufficientData`] when `rows` is empty,
    /// [`CompactionError::InvalidConfig`] for quantiles outside `(0, 1)` and
    /// [`CompactionError::NonFiniteMeasurement`] for the first NaN or infinite
    /// value.
    pub fn from_population_quantiles(
        names: &[&str],
        units: &[&str],
        nominals: &[f64],
        rows: &[Vec<f64>],
        lower_quantile: f64,
        upper_quantile: f64,
    ) -> Result<Self> {
        if rows.is_empty() {
            return Err(CompactionError::InsufficientData {
                reason: "population is empty".to_string(),
            });
        }
        if !(lower_quantile > 0.0 && upper_quantile < 1.0 && lower_quantile < upper_quantile) {
            return Err(CompactionError::InvalidConfig {
                parameter: "quantiles",
                value: lower_quantile,
            });
        }
        let dims = names.len();
        if units.len() != dims || nominals.len() != dims || rows.iter().any(|r| r.len() != dims) {
            return Err(CompactionError::DimensionMismatch {
                expected: dims,
                found: rows.first().map(|r| r.len()).unwrap_or(0),
            });
        }
        check_finite_rows(rows)?;
        let mut specs = Vec::with_capacity(dims);
        for column in 0..dims {
            let mut values: Vec<f64> = rows.iter().map(|r| r[column]).collect();
            values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
            let lower = quantile(&values, lower_quantile);
            let mut upper = quantile(&values, upper_quantile);
            if upper <= lower {
                // Degenerate column (constant measurement): widen artificially.
                upper = lower + lower.abs().max(1e-12);
            }
            specs.push(Specification::new(
                names[column],
                units[column],
                nominals[column],
                lower,
                upper,
            )?);
        }
        SpecificationSet::new(specs)
    }
}

impl<'a> IntoIterator for &'a SpecificationSet {
    type Item = &'a Specification;
    type IntoIter = std::slice::Iter<'a, Specification>;

    fn into_iter(self) -> Self::IntoIter {
        self.specs.iter()
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    if low == high {
        sorted[low]
    } else {
        let fraction = position - low as f64;
        sorted[low] * (1.0 - fraction) + sorted[high] * fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gain_spec() -> Specification {
        Specification::new("gain", "V/V", 14_000.0, 10_000.0, 20_000.0).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(Specification::new("", "V", 0.0, 0.0, 1.0).is_err());
        assert!(Specification::new("x", "V", 0.0, 1.0, 1.0).is_err());
        assert!(Specification::new("x", "V", 0.0, 2.0, 1.0).is_err());
        assert!(Specification::new("x", "V", 0.0, f64::NAN, 1.0).is_err());
        assert!(gain_spec().range_width() > 0.0);
    }

    #[test]
    fn pass_fail_and_margins() {
        let spec = gain_spec();
        assert!(spec.passes(15_000.0));
        assert!(spec.passes(10_000.0));
        assert!(!spec.passes(9_999.0));
        // 5 % guard band shrinks the range by 500 on each side.
        assert!(!spec.passes_with_margin(10_200.0, 0.05));
        assert!(spec.passes_with_margin(10_200.0, -0.05));
        assert!(spec.passes_with_margin(15_000.0, 0.05));
    }

    #[test]
    fn normalization_maps_range_to_unit_interval() {
        let spec = gain_spec();
        assert_eq!(spec.normalize(10_000.0), 0.0);
        assert_eq!(spec.normalize(20_000.0), 1.0);
        assert_eq!(spec.normalize(15_000.0), 0.5);
        assert!(spec.normalize(25_000.0) > 1.0);
    }

    #[test]
    fn set_rejects_duplicates_and_empties() {
        assert!(matches!(SpecificationSet::new(vec![]), Err(CompactionError::EmptyTestSet)));
        let duplicated = vec![gain_spec(), gain_spec()];
        assert!(SpecificationSet::new(duplicated).is_err());
    }

    #[test]
    fn set_pass_fail_uses_every_spec() {
        let set = SpecificationSet::new(vec![
            gain_spec(),
            Specification::new("slew", "V/us", 0.44, 0.35, 0.55).unwrap(),
        ])
        .unwrap();
        assert!(set.passes(&[15_000.0, 0.4]));
        assert!(!set.passes(&[15_000.0, 0.6]));
        assert!(!set.passes(&[9_000.0, 0.4]));
        assert_eq!(set.normalize(&[15_000.0, 0.45]), vec![0.5, 0.5]);
        assert_eq!(set.index_of("slew"), Some(1));
        assert_eq!(set.index_of("nope"), None);
        assert_eq!(set.ranges()[1], (0.35, 0.55));
        assert_eq!(set.iter().count(), 2);
        assert_eq!((&set).into_iter().count(), 2);
    }

    #[test]
    fn quantile_calibration_produces_requested_yield() {
        // A synthetic population of 1000 devices with two independent
        // uniform measurements; 5 %/95 % quantile ranges should give a yield
        // near 0.9 * 0.9 = 81 %.
        let rows: Vec<Vec<f64>> = (0..1000)
            .map(|i| {
                let a = (i % 100) as f64 / 100.0;
                let b = ((i * 7) % 100) as f64 / 100.0;
                vec![a, b]
            })
            .collect();
        let set = SpecificationSet::from_population_quantiles(
            &["a", "b"],
            &["-", "-"],
            &[0.5, 0.5],
            &rows,
            0.05,
            0.95,
        )
        .unwrap();
        let yield_fraction =
            rows.iter().filter(|r| set.passes(r)).count() as f64 / rows.len() as f64;
        assert!((yield_fraction - 0.81).abs() < 0.05, "yield {yield_fraction}");
    }

    #[test]
    fn quantile_calibration_validates_inputs() {
        let rows = vec![vec![1.0]];
        assert!(SpecificationSet::from_population_quantiles(
            &["a"],
            &["-"],
            &[1.0],
            &[],
            0.05,
            0.95
        )
        .is_err());
        assert!(SpecificationSet::from_population_quantiles(
            &["a"],
            &["-"],
            &[1.0],
            &rows,
            0.9,
            0.1
        )
        .is_err());
        assert!(SpecificationSet::from_population_quantiles(
            &["a", "b"],
            &["-"],
            &[1.0],
            &rows,
            0.05,
            0.95
        )
        .is_err());
    }

    #[test]
    fn quantile_calibration_rejects_non_finite_measurements() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rows = vec![vec![0.1, 0.2], vec![bad, 0.3], vec![0.4, 0.5], vec![0.6, 0.7]];
            let error = SpecificationSet::from_population_quantiles(
                &["a", "b"],
                &["-", "-"],
                &[0.5, 0.5],
                &rows,
                0.05,
                0.95,
            )
            .unwrap_err();
            assert!(
                matches!(error, CompactionError::NonFiniteMeasurement { row: 1, column: 0, .. }),
                "{error}"
            );
        }
    }
}
