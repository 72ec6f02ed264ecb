//! Monte-Carlo training-data generation (Figure 1 of the paper).

use std::sync::atomic::AtomicBool;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dataset::MeasurementSet;
use crate::device::DeviceUnderTest;
use crate::pool;
use crate::spec::SpecificationSet;
use crate::{CompactionError, Result};

/// Configuration of a Monte-Carlo data-generation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Number of device instances to simulate.
    pub instances: usize,
    /// Seed of the master random-number generator.
    pub seed: u64,
    /// Number of worker threads (1 = sequential).
    pub threads: usize,
    /// If `true`, instances whose simulation fails are skipped (and replaced
    /// by additional draws); if `false` the first failure aborts the run.
    pub skip_failures: bool,
    /// Quantiles used to calibrate acceptability ranges when the device does
    /// not define explicit ranges (see DESIGN.md on range calibration).
    pub calibration_quantiles: (f64, f64),
}

impl MonteCarloConfig {
    /// A sequential run with `instances` devices and the default seed.
    pub fn new(instances: usize) -> Self {
        MonteCarloConfig {
            instances,
            seed: 0x5eed,
            threads: 1,
            skip_failures: true,
            calibration_quantiles: (0.015, 0.985),
        }
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the range-calibration quantiles.
    pub fn with_calibration_quantiles(mut self, lower: f64, upper: f64) -> Self {
        self.calibration_quantiles = (lower, upper);
        self
    }

    /// Aborts instead of skipping when an instance fails to simulate.
    pub fn fail_fast(mut self) -> Self {
        self.skip_failures = false;
        self
    }
}

/// Raw Monte-Carlo output: measurement rows before ranges are attached.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloRun {
    /// Measurement rows, one per successfully simulated instance.
    pub rows: Vec<Vec<f64>>,
    /// Number of simulation attempts that failed and were skipped.
    pub skipped: usize,
}

/// Simulates `config.instances` perturbed devices and collects their
/// measurement rows (the Figure 1 loop: inject process disturbances, set up
/// and run the device simulation, take measurements, store).
///
/// # Errors
///
/// Returns [`CompactionError::SimulationFailed`] when `skip_failures` is off
/// and an instance fails, or when so many instances fail that the requested
/// count cannot be reached within a 2× attempt budget.
pub fn run_monte_carlo(
    device: &dyn DeviceUnderTest,
    config: &MonteCarloConfig,
) -> Result<MonteCarloRun> {
    if config.instances == 0 {
        return Err(CompactionError::InvalidConfig { parameter: "instances", value: 0.0 });
    }
    // Pre-draw one independent seed per attempt so results do not depend on
    // the number of threads.  The budget leaves generous room for devices
    // whose simulation occasionally fails under process variation.
    let attempt_budget = config.instances * 3 + 32;
    let mut master = StdRng::seed_from_u64(config.seed);
    let seeds: Vec<u64> = (0..attempt_budget).map(|_| master.gen()).collect();

    // Every attempt is simulated; outcomes come back in attempt order, so
    // the kept rows are the same for any thread count.
    let results =
        pool::run_indexed(seeds.len(), config.threads, &AtomicBool::new(false), |index| {
            device.simulate_instance(&mut StdRng::seed_from_u64(seeds[index]))
        });

    let mut rows = Vec::with_capacity(config.instances);
    let mut skipped = 0usize;
    // Nothing sets the stop flag, so every attempt has an outcome.
    for (index, result) in results.into_iter().flatten().enumerate() {
        if rows.len() == config.instances {
            break;
        }
        match result {
            Ok(row) => rows.push(row),
            Err(message) => {
                if config.skip_failures {
                    skipped += 1;
                } else {
                    return Err(CompactionError::SimulationFailed { instance: index, message });
                }
            }
        }
    }
    if rows.len() < config.instances {
        return Err(CompactionError::SimulationFailed {
            instance: rows.len(),
            message: format!(
                "only {} of {} instances could be simulated within a {attempt_budget}-attempt budget ({skipped} failures)",
                rows.len(),
                config.instances
            ),
        });
    }
    Ok(MonteCarloRun { rows, skipped })
}

/// Generates a labelled [`MeasurementSet`] for a device: runs the Monte-Carlo
/// loop and attaches acceptability ranges (either the device's own ranges or
/// ranges calibrated from the population quantiles).
///
/// # Errors
///
/// Propagates simulation and calibration errors.
pub fn generate_measurement_set(
    device: &dyn DeviceUnderTest,
    config: &MonteCarloConfig,
) -> Result<MeasurementSet> {
    let run = run_monte_carlo(device, config)?;
    let specs = match device.specification_set() {
        Some(specs) => specs,
        None => {
            let names = device.spec_names();
            let units = device.spec_units();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let unit_refs: Vec<&str> = units.iter().map(String::as_str).collect();
            let nominals: Vec<f64> = (0..names.len())
                .map(|c| {
                    let mut values: Vec<f64> = run.rows.iter().map(|r| r[c]).collect();
                    values.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
                    values[values.len() / 2]
                })
                .collect();
            SpecificationSet::from_population_quantiles(
                &name_refs,
                &unit_refs,
                &nominals,
                &run.rows,
                config.calibration_quantiles.0,
                config.calibration_quantiles.1,
            )?
        }
    };
    MeasurementSet::new(specs, run.rows)
}

/// Generates a training set and an independent test set with different seed
/// streams but a *shared* specification set (ranges calibrated on the
/// training population only, as a real flow would).
///
/// # Errors
///
/// Propagates simulation and calibration errors.
pub fn generate_train_test(
    device: &dyn DeviceUnderTest,
    train_config: &MonteCarloConfig,
    test_instances: usize,
) -> Result<(MeasurementSet, MeasurementSet)> {
    let train = generate_measurement_set(device, train_config)?;
    let test_config = MonteCarloConfig {
        instances: test_instances,
        seed: train_config.seed.wrapping_add(0x9e3779b97f4a7c15),
        ..*train_config
    };
    let test_run = run_monte_carlo(device, &test_config)?;
    let test = MeasurementSet::new(train.specs().clone(), test_run.rows)?;
    Ok((train, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SyntheticDevice;

    #[test]
    fn sequential_and_parallel_runs_agree() {
        let device = SyntheticDevice::new(3, 2.0, 0.3);
        let sequential = run_monte_carlo(&device, &MonteCarloConfig::new(50).with_seed(9)).unwrap();
        let parallel =
            run_monte_carlo(&device, &MonteCarloConfig::new(50).with_seed(9).with_threads(4))
                .unwrap();
        assert_eq!(sequential.rows, parallel.rows);
        assert_eq!(sequential.skipped, 0);
    }

    #[test]
    fn zero_instances_is_rejected() {
        let device = SyntheticDevice::new(2, 2.0, 0.0);
        assert!(run_monte_carlo(&device, &MonteCarloConfig::new(0)).is_err());
    }

    #[test]
    fn measurement_set_uses_device_ranges_when_available() {
        let device = SyntheticDevice::new(4, 1.5, 0.0);
        let set = generate_measurement_set(&device, &MonteCarloConfig::new(200)).unwrap();
        assert_eq!(set.specs().len(), 4);
        assert_eq!(set.specs().spec(2).upper(), 1.5);
        assert_eq!(set.len(), 200);
        // With ±1.5 sigma limits on 4 independent normals the yield is
        // roughly 0.866^4 ≈ 0.56.
        let yield_fraction = set.yield_fraction();
        assert!((yield_fraction - 0.56).abs() < 0.12, "yield {yield_fraction}");
    }

    #[test]
    fn train_and_test_sets_share_specs_but_not_rows() {
        let device = SyntheticDevice::new(3, 2.0, 0.2);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(100).with_seed(5), 60).unwrap();
        assert_eq!(train.len(), 100);
        assert_eq!(test.len(), 60);
        assert_eq!(train.specs(), test.specs());
        assert_ne!(train.row_values(0), test.row_values(0));
    }

    /// A device whose simulation fails half the time.
    struct FlakyDevice;

    impl DeviceUnderTest for FlakyDevice {
        fn name(&self) -> &str {
            "flaky"
        }
        fn spec_names(&self) -> Vec<String> {
            vec!["x".to_string()]
        }
        fn spec_units(&self) -> Vec<String> {
            vec!["-".to_string()]
        }
        fn simulate_instance(&self, rng: &mut StdRng) -> std::result::Result<Vec<f64>, String> {
            let value: f64 = rng.gen_range(-1.0..1.0);
            if value > 0.0 {
                Ok(vec![value])
            } else {
                Err("negative draw".to_string())
            }
        }
    }

    #[test]
    fn failures_are_skipped_or_fatal_depending_on_config() {
        let skipping = run_monte_carlo(&FlakyDevice, &MonteCarloConfig::new(20)).unwrap();
        assert_eq!(skipping.rows.len(), 20);
        assert!(skipping.skipped > 0);
        let strict = run_monte_carlo(&FlakyDevice, &MonteCarloConfig::new(20).fail_fast());
        assert!(matches!(strict, Err(CompactionError::SimulationFailed { .. })));
    }

    /// A device that always fails: even the skip budget cannot save it.
    struct BrokenDevice;

    impl DeviceUnderTest for BrokenDevice {
        fn name(&self) -> &str {
            "broken"
        }
        fn spec_names(&self) -> Vec<String> {
            vec!["x".to_string()]
        }
        fn spec_units(&self) -> Vec<String> {
            vec!["-".to_string()]
        }
        fn simulate_instance(&self, _rng: &mut StdRng) -> std::result::Result<Vec<f64>, String> {
            Err("always fails".to_string())
        }
    }

    #[test]
    fn exhausted_attempt_budget_is_an_error() {
        let result = run_monte_carlo(&BrokenDevice, &MonteCarloConfig::new(10));
        assert!(matches!(result, Err(CompactionError::SimulationFailed { .. })));
    }
}
