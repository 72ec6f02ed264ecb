//! Error type for the compaction methodology.

use std::error::Error;
use std::fmt;

/// Errors produced by data generation, model building or compaction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompactionError {
    /// A specification definition was invalid (empty name, reversed range, …).
    InvalidSpecification {
        /// Name of the offending specification.
        name: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A measurement matrix did not match the specification set.
    DimensionMismatch {
        /// Number of specifications expected.
        expected: usize,
        /// Number of measurement columns found.
        found: usize,
    },
    /// The referenced specification index does not exist.
    UnknownSpecification {
        /// The offending index.
        index: usize,
        /// Number of specifications in the set.
        count: usize,
    },
    /// The operation needs at least one specification to remain testable.
    EmptyTestSet,
    /// A dataset was empty or single-class where a model had to be trained.
    InsufficientData {
        /// Human-readable reason.
        reason: String,
    },
    /// A measured value was NaN or infinite.  Measured data is checked where
    /// it enters: both [`MeasurementMatrix`](crate::MeasurementMatrix)
    /// constructors (and so `MeasurementSet::new` and deserialization) and
    /// `SpecificationSet::from_population_quantiles`.
    NonFiniteMeasurement {
        /// Row (device instance) of the offending value.
        row: usize,
        /// Column (specification) of the offending value.
        column: usize,
        /// The offending value.
        value: f64,
    },
    /// An invalid configuration value (tolerance, guard band, grid size, …).
    InvalidConfig {
        /// Name of the configuration parameter.
        parameter: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The device simulation failed while generating Monte-Carlo data.
    SimulationFailed {
        /// Instance index that failed.
        instance: usize,
        /// Error message from the device model.
        message: String,
    },
    /// A lookup-table tester model would be too large to build.
    LookupTableTooLarge {
        /// Number of cells the requested table would need (`u128::MAX` when
        /// the count overflows).
        cells: u128,
        /// The configured limit.
        limit: u128,
    },
    /// A classifier backend could not train a model.  The compaction loop
    /// treats this as "the candidate test cannot be eliminated" rather than
    /// aborting the run.
    Classifier {
        /// Name of the backend that failed (for example `"svm"`).
        backend: String,
        /// Human-readable reason.
        message: String,
    },
    /// Two batch entries share a label.  Labels key the population cache, so
    /// a collision would silently reuse one entry's population for the other.
    DuplicateBatchLabel {
        /// The colliding label.
        label: String,
    },
    /// A pipeline batch was run without any device entries.
    EmptyBatch,
}

impl fmt::Display for CompactionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompactionError::InvalidSpecification { name, reason } => {
                write!(f, "invalid specification {name}: {reason}")
            }
            CompactionError::DimensionMismatch { expected, found } => {
                write!(f, "measurement row has {found} values, expected {expected}")
            }
            CompactionError::UnknownSpecification { index, count } => {
                write!(f, "specification index {index} out of range (set has {count})")
            }
            CompactionError::EmptyTestSet => {
                write!(f, "at least one specification test must remain")
            }
            CompactionError::InsufficientData { reason } => {
                write!(f, "insufficient training data: {reason}")
            }
            CompactionError::NonFiniteMeasurement { row, column, value } => {
                write!(f, "measurement at row {row}, column {column} is not finite ({value})")
            }
            CompactionError::InvalidConfig { parameter, value } => {
                write!(f, "invalid configuration: {parameter} = {value}")
            }
            CompactionError::SimulationFailed { instance, message } => {
                write!(f, "device simulation failed for instance {instance}: {message}")
            }
            CompactionError::LookupTableTooLarge { cells, limit } => {
                write!(f, "lookup table would need {cells} cells (limit {limit})")
            }
            CompactionError::Classifier { backend, message } => {
                write!(f, "{backend} backend failed to train: {message}")
            }
            CompactionError::DuplicateBatchLabel { label } => {
                write!(f, "batch entry label {label:?} is used more than once")
            }
            CompactionError::EmptyBatch => {
                write!(f, "pipeline batch has no device entries")
            }
        }
    }
}

impl Error for CompactionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CompactionError::DimensionMismatch { expected: 11, found: 10 };
        assert!(e.to_string().contains("11"));
        let e = CompactionError::Classifier {
            backend: "svm".to_string(),
            message: "single class".to_string(),
        };
        assert!(e.to_string().contains("svm"));
        assert!(e.to_string().contains("single class"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompactionError>();
    }
}
