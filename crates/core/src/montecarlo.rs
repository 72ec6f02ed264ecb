//! Monte-Carlo training-data generation (Figure 1 of the paper).

use std::panic::{self, AssertUnwindSafe};
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
    /// If `true`, instances whose simulation fails are skipped and replaced by
    /// the next pre-drawn seeds; if `false` the first failure aborts the run.
    /// A failure is an error returned by the device model, a panic inside
    /// it, a row whose length differs from the device's specification count,
    /// or a row with a NaN or infinite value.
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
/// One seed per attempt is pre-drawn from `config.seed`, `3 × instances + 32`
/// of them: that list is the attempt budget.  The first `instances` seeds are
/// simulated; each later round simulates only as many further seeds, in list
/// order, as failures left rows missing.  The rows are therefore the first
/// `instances` successes of the seed list at any thread count, and a run
/// simulates `rows.len() + skipped` instances.
///
/// # Errors
///
/// Returns [`CompactionError::SimulationFailed`] when `skip_failures` is off
/// and an instance fails (the lowest failing attempt is reported), or when
/// so many instances fail that the seed list runs out before `instances`
/// rows are complete.
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
    let spec_count = device.spec_names().len();

    let mut rows = Vec::with_capacity(config.instances);
    let mut skipped = 0usize;
    let mut next = 0;
    while rows.len() < config.instances && next < seeds.len() {
        // A round simulates exactly as many seeds as rows are missing, so the
        // rows never overshoot and `skipped` counts only the failures before
        // the last kept row.
        let round = (config.instances - rows.len()).min(seeds.len() - next);
        let outcomes =
            pool::run_indexed(round, config.threads, &AtomicBool::new(false), |offset| {
                simulate_attempt(device, seeds[next + offset], spec_count)
            });
        // Nothing sets the stop flag, so every attempt has an outcome, and
        // walking them in attempt order keeps the rows thread-count free.
        for (offset, outcome) in outcomes.into_iter().flatten().enumerate() {
            match outcome {
                Ok(row) => rows.push(row),
                Err(_) if config.skip_failures => skipped += 1,
                Err(message) => {
                    return Err(CompactionError::SimulationFailed {
                        instance: next + offset,
                        message,
                    })
                }
            }
        }
        next += round;
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

/// Simulates the instance drawn from `seed`.  A panicking device model, a
/// row without one value per specification and a non-finite value all fail
/// the attempt like an ordinary simulation error.
fn simulate_attempt(
    device: &dyn DeviceUnderTest,
    seed: u64,
    spec_count: usize,
) -> std::result::Result<Vec<f64>, String> {
    let row = panic::catch_unwind(AssertUnwindSafe(|| {
        device.simulate_instance(&mut StdRng::seed_from_u64(seed))
    }))
    .map_err(|payload| {
        format!("simulation panicked: {}", pool::panic_message(payload.as_ref()))
    })??;
    if row.len() != spec_count {
        return Err(format!(
            "measurement row has {} values for {spec_count} specifications",
            row.len()
        ));
    }
    if let Some(index) = row.iter().position(|value| !value.is_finite()) {
        return Err(format!("measurement {index} is not finite ({})", row[index]));
    }
    Ok(row)
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
                    values.sort_by(|a, b| {
                        a.partial_cmp(b).expect("run_monte_carlo keeps only finite rows")
                    });
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        // Topped-up runs agree too.
        let config = MonteCarloConfig::new(50).with_seed(9);
        let sequential = run_monte_carlo(&FlakyDevice, &config).unwrap();
        let parallel = run_monte_carlo(&FlakyDevice, &config.with_threads(4)).unwrap();
        assert_eq!(sequential, parallel);
        assert!(sequential.skipped > 0);
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

    /// Counts the simulations of the wrapped device.
    struct Counted<D> {
        inner: D,
        simulations: AtomicUsize,
    }

    impl<D: DeviceUnderTest> DeviceUnderTest for Counted<D> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn spec_names(&self) -> Vec<String> {
            self.inner.spec_names()
        }
        fn spec_units(&self) -> Vec<String> {
            self.inner.spec_units()
        }
        fn simulate_instance(&self, rng: &mut StdRng) -> std::result::Result<Vec<f64>, String> {
            self.simulations.fetch_add(1, Ordering::Relaxed);
            self.inner.simulate_instance(rng)
        }
    }

    /// Simulates every pre-drawn seed in order and keeps the first
    /// `instances` successes, counting the failures before the last kept row.
    fn simulate_every_seed(
        device: &dyn DeviceUnderTest,
        config: &MonteCarloConfig,
    ) -> MonteCarloRun {
        let mut master = StdRng::seed_from_u64(config.seed);
        let seeds: Vec<u64> = (0..config.instances * 3 + 32).map(|_| master.gen()).collect();
        let mut run = MonteCarloRun { rows: Vec::new(), skipped: 0 };
        for outcome in
            seeds.iter().map(|&seed| device.simulate_instance(&mut StdRng::seed_from_u64(seed)))
        {
            if run.rows.len() == config.instances {
                break;
            }
            match outcome {
                Ok(row) => run.rows.push(row),
                Err(_) => run.skipped += 1,
            }
        }
        run
    }

    #[test]
    fn failures_are_topped_up_from_the_seed_list() {
        let config = MonteCarloConfig::new(20).with_seed(3);
        let reference = simulate_every_seed(&FlakyDevice, &config);
        assert_eq!(reference.rows.len(), 20);
        for threads in [1, 4] {
            let device = Counted { inner: FlakyDevice, simulations: AtomicUsize::new(0) };
            let run = run_monte_carlo(&device, &config.with_threads(threads)).unwrap();
            assert_eq!(run, reference, "{threads} threads");
            assert_eq!(
                device.simulations.load(Ordering::Relaxed),
                run.rows.len() + run.skipped,
                "{threads} threads"
            );
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

    /// How [`FaultyDevice`] goes wrong.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        NonFinite,
        ShortRow,
        Panic,
    }

    /// A two-specification device without explicit ranges whose model
    /// misbehaves on about one draw in ten.
    struct FaultyDevice(Fault);

    impl DeviceUnderTest for FaultyDevice {
        fn name(&self) -> &str {
            "faulty"
        }
        fn spec_names(&self) -> Vec<String> {
            vec!["x".to_string(), "y".to_string()]
        }
        fn spec_units(&self) -> Vec<String> {
            vec!["-".to_string(), "-".to_string()]
        }
        fn simulate_instance(&self, rng: &mut StdRng) -> std::result::Result<Vec<f64>, String> {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            if x > 0.8 {
                match self.0 {
                    Fault::NonFinite => return Ok(vec![f64::NAN, y]),
                    Fault::ShortRow => return Ok(vec![x]),
                    Fault::Panic => panic!("model diverged"),
                }
            }
            Ok(vec![x, y])
        }
    }

    #[test]
    fn device_faults_fail_their_attempt_instead_of_panicking() {
        for (fault, message) in [
            (Fault::NonFinite, "measurement 0 is not finite (NaN)"),
            (Fault::ShortRow, "measurement row has 1 values for 2 specifications"),
            (Fault::Panic, "simulation panicked: model diverged"),
        ] {
            let device = FaultyDevice(fault);
            let set = generate_measurement_set(&device, &MonteCarloConfig::new(200)).unwrap();
            assert_eq!(set.len(), 200, "{fault:?}");
            let run =
                run_monte_carlo(&device, &MonteCarloConfig::new(200).with_threads(4)).unwrap();
            assert!(run.skipped > 0, "{fault:?}");
            assert!(run.rows.iter().all(|row| row.len() == 2 && row.iter().all(|v| v.is_finite())));
            match run_monte_carlo(&device, &MonteCarloConfig::new(200).fail_fast()) {
                Err(CompactionError::SimulationFailed { message: reported, .. }) => {
                    assert_eq!(reported, message, "{fault:?}");
                }
                other => panic!("{fault:?}: expected SimulationFailed, got {other:?}"),
            }
        }
    }
}
