//! Error type shared by all SVM operations.

use std::error::Error;
use std::fmt;

/// Errors produced while building datasets or training/evaluating SVM models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SvmError {
    /// A sample's feature vector length did not match the dataset dimension.
    DimensionMismatch {
        /// Dimension the dataset was created with.
        expected: usize,
        /// Dimension of the offending vector.
        found: usize,
    },
    /// The dataset dimension was zero.
    EmptyDimension,
    /// Training was attempted on an empty dataset.
    EmptyDataset,
    /// Classification training requires both a positive and a negative class.
    SingleClass,
    /// A label other than `+1`/`-1` was supplied to a classifier.
    InvalidLabel(f64),
    /// A hyper-parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the parameter (for example `"C"` or `"gamma"`).
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The SMO solver failed to converge within its iteration budget.
    NotConverged {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// A feature vector contained a non-finite value.
    NonFiniteFeature {
        /// Index of the offending feature.
        index: usize,
        /// The non-finite value.
        value: f64,
    },
}

impl fmt::Display for SvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvmError::DimensionMismatch { expected, found } => {
                write!(f, "feature vector has {found} entries, expected {expected}")
            }
            SvmError::EmptyDimension => write!(f, "dataset dimension must be non-zero"),
            SvmError::EmptyDataset => write!(f, "dataset contains no samples"),
            SvmError::SingleClass => {
                write!(f, "classification requires both positive and negative samples")
            }
            SvmError::InvalidLabel(l) => {
                write!(f, "classification label must be +1 or -1, got {l}")
            }
            SvmError::InvalidParameter { name, value } => {
                write!(f, "invalid value {value} for parameter {name}")
            }
            SvmError::NotConverged { iterations } => {
                write!(f, "SMO solver did not converge after {iterations} iterations")
            }
            SvmError::NonFiniteFeature { index, value } => {
                write!(f, "feature {index} is not finite ({value})")
            }
        }
    }
}

impl Error for SvmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SvmError::DimensionMismatch { expected: 3, found: 2 };
        assert!(e.to_string().contains("expected 3"));
        let e = SvmError::InvalidParameter { name: "C", value: -1.0 };
        assert!(e.to_string().contains('C'));
        let e = SvmError::NotConverged { iterations: 10 };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SvmError>();
    }
}
