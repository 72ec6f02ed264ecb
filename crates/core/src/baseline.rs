//! Ad-hoc test compaction baseline (paper Section 1).
//!
//! Industry practice before the paper: an engineer drops "probably redundant"
//! tests and keeps checking the remaining specifications against their
//! original acceptability ranges, with *no* statistical model of the dropped
//! ones.  The resulting defect escape is uncontrolled; this module quantifies
//! it so the benefit of the statistical approach can be measured.

use serde::{Deserialize, Serialize};

use crate::dataset::{DeviceLabel, MeasurementSet};
use crate::guardband::Prediction;
use crate::metrics::ErrorBreakdown;
use crate::{CompactionError, Result};

/// Result of evaluating an ad-hoc compacted test set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdHocResult {
    /// Indices of the specifications still being tested.
    pub kept: Vec<usize>,
    /// Indices of the dropped specifications.
    pub dropped: Vec<usize>,
    /// Error breakdown on the evaluated population.
    pub breakdown: ErrorBreakdown,
}

/// Evaluates an ad-hoc compaction: the tests in `dropped` are simply not
/// applied, and a device is accepted when every *kept* measurement is within
/// its original range.
///
/// Because no model replaces the dropped tests, a device that fails only a
/// dropped specification is always shipped (defect escape), and yield loss is
/// zero by construction.
///
/// # Errors
///
/// Returns [`CompactionError::UnknownSpecification`] for bad indices and
/// [`CompactionError::EmptyTestSet`] when every test is dropped.
pub fn evaluate_adhoc(data: &MeasurementSet, dropped: &[usize]) -> Result<AdHocResult> {
    let spec_count = data.specs().len();
    if let Some(&bad) = dropped.iter().find(|&&c| c >= spec_count) {
        return Err(CompactionError::UnknownSpecification { index: bad, count: spec_count });
    }
    let kept: Vec<usize> = (0..spec_count).filter(|c| !dropped.contains(c)).collect();
    if kept.is_empty() {
        return Err(CompactionError::EmptyTestSet);
    }
    let breakdown = crate::metrics::evaluate_population(data, |data, i| {
        let kept_pass = kept.iter().all(|&c| data.specs().spec(c).passes(data.value(i, c)));
        if kept_pass {
            Prediction::Good
        } else {
            Prediction::Bad
        }
    });
    Ok(AdHocResult { kept, dropped: dropped.to_vec(), breakdown })
}

/// Labels a population with the complete specification test set: the
/// reference point with zero yield loss and zero defect escape (the starting
/// point of the compaction loop, "no initial escape or yield loss").
pub fn evaluate_complete_test_set(data: &MeasurementSet) -> ErrorBreakdown {
    crate::metrics::evaluate_population(data, |data, i| match data.label(i) {
        DeviceLabel::Good => Prediction::Good,
        DeviceLabel::Bad => Prediction::Bad,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Specification, SpecificationSet};

    fn population() -> MeasurementSet {
        let specs = SpecificationSet::new(vec![
            Specification::new("a", "-", 0.0, -1.0, 1.0).unwrap(),
            Specification::new("b", "-", 0.0, -1.0, 1.0).unwrap(),
        ])
        .unwrap();
        // 6 devices: 3 good, 1 fails only a, 1 fails only b, 1 fails both.
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.5, -0.5],
            vec![-0.9, 0.9],
            vec![2.0, 0.0],
            vec![0.0, 2.0],
            vec![2.0, 2.0],
        ];
        MeasurementSet::new(specs, rows).unwrap()
    }

    #[test]
    fn dropping_a_test_creates_defect_escape_but_no_yield_loss() {
        let data = population();
        let result = evaluate_adhoc(&data, &[1]).unwrap();
        // The device failing only spec b now escapes.
        assert_eq!(result.breakdown.defect_escape_count, 1);
        assert_eq!(result.breakdown.yield_loss_count, 0);
        assert_eq!(result.breakdown.true_good, 3);
        assert_eq!(result.breakdown.true_bad, 2);
        assert_eq!(result.kept, vec![0]);
    }

    #[test]
    fn complete_test_set_is_error_free() {
        let breakdown = evaluate_complete_test_set(&population());
        assert_eq!(breakdown.defect_escape_count, 0);
        assert_eq!(breakdown.yield_loss_count, 0);
        assert_eq!(breakdown.total, 6);
    }

    #[test]
    fn invalid_drops_are_rejected() {
        let data = population();
        assert!(evaluate_adhoc(&data, &[5]).is_err());
        assert!(evaluate_adhoc(&data, &[0, 1]).is_err());
    }
}
