//! The Monte-Carlo populations of the experiments, with the calibration
//! quantiles that put their training yields near the paper's.

use spec_test_compaction::adapters::{AccelerometerDevice, OpAmpDevice};
use stc_core::{generate_train_test, MeasurementSet, MonteCarloConfig};

/// Quantiles used to calibrate the op-amp acceptability ranges so the
/// training yield lands near the paper's 75.4 %
/// (calibrated with the `calibrate` binary: 2 % tails give 75.5 % training yield).
const OPAMP_QUANTILES: (f64, f64) = (0.02, 0.98);

/// Quantiles used to calibrate the accelerometer ranges so the training yield
/// lands near the paper's 77.4 % (the 12 temperature tests are strongly correlated,
/// so the per-spec tails must be much wider than 1/12th of the target).
const MEMS_QUANTILES: (f64, f64) = (0.075, 0.925);

/// Builds the op-amp training/test population.
///
/// # Panics
///
/// Panics if the Monte-Carlo generation fails, which indicates a broken
/// simulator rather than a recoverable condition in an experiment harness.
pub fn opamp_population(
    train_instances: usize,
    test_instances: usize,
    seed: u64,
    threads: usize,
) -> (MeasurementSet, MeasurementSet) {
    let device = OpAmpDevice::paper_setup();
    let config = MonteCarloConfig::new(train_instances)
        .with_seed(seed)
        .with_threads(threads)
        .with_calibration_quantiles(OPAMP_QUANTILES.0, OPAMP_QUANTILES.1);
    generate_train_test(&device, &config, test_instances)
        .expect("op-amp population generation failed")
}

/// Builds the accelerometer training/test population with all twelve
/// temperature tests.
///
/// # Panics
///
/// Panics if the Monte-Carlo generation fails.
pub fn mems_population(
    train_instances: usize,
    test_instances: usize,
    seed: u64,
    threads: usize,
) -> (MeasurementSet, MeasurementSet) {
    let device = AccelerometerDevice::paper_setup();
    let config = MonteCarloConfig::new(train_instances)
        .with_seed(seed)
        .with_threads(threads)
        .with_calibration_quantiles(MEMS_QUANTILES.0, MEMS_QUANTILES.1);
    generate_train_test(&device, &config, test_instances)
        .expect("accelerometer population generation failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opamp_population_is_cached_and_labelled() {
        let (train, test) = opamp_population(40, 20, 11, 4);
        assert_eq!(train.len(), 40);
        assert_eq!(test.len(), 20);
        assert_eq!(train.specs().len(), 11);
        // The same arguments build the same population.
        let (train2, _) = opamp_population(40, 20, 11, 4);
        assert_eq!(train.row_values(0), train2.row_values(0));
    }

    #[test]
    fn mems_population_has_twelve_tests() {
        let (train, test) = mems_population(60, 30, 13, 4);
        assert_eq!(train.specs().len(), 12);
        assert_eq!(test.specs().len(), 12);
        let yield_fraction = train.yield_fraction();
        assert!(yield_fraction > 0.3 && yield_fraction < 1.0, "yield {yield_fraction}");
    }
}
