//! The device-under-test abstraction used by Monte-Carlo data generation.

use rand::rngs::StdRng;

use crate::spec::SpecificationSet;

/// A device family whose instances can be simulated to produce specification
/// measurements.
///
/// Implementors wrap a simulatable device model (the op-amp of
/// `stc-circuit`, the accelerometer of `stc-mems`, or any synthetic model)
/// together with its process-variation description.  The Monte-Carlo driver
/// ([`crate::montecarlo`]) repeatedly asks for perturbed instances and
/// collects their measurements into a [`crate::MeasurementSet`], which is the
/// Figure 1 "training data generation" flow of the paper.
///
/// The random-number generator is passed in by the driver so that data
/// generation is reproducible and so instances can be generated from disjoint
/// seed streams when parallelised.
pub trait DeviceUnderTest: Sync {
    /// Human-readable name of the device family ("two-stage op-amp", …).
    fn name(&self) -> &str;

    /// Names of the measured specifications, in measurement-vector order.
    fn spec_names(&self) -> Vec<String>;

    /// Units of the measured specifications, in the same order.
    fn spec_units(&self) -> Vec<String>;

    /// Simulates one process-perturbed instance and returns its measurement
    /// vector (one value per specification, in the same order as
    /// [`DeviceUnderTest::spec_names`]).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the instance cannot be
    /// simulated or measured; [`crate::montecarlo::run_monte_carlo`] skips
    /// the failed instance and simulates the next seed in its place.
    fn simulate_instance(&self, rng: &mut StdRng) -> Result<Vec<f64>, String>;

    /// The acceptability ranges for this device, if the device family defines
    /// them explicitly.  Returning `None` means the ranges are to be
    /// calibrated from the simulated population (see
    /// [`SpecificationSet::from_population_quantiles`]).
    fn specification_set(&self) -> Option<SpecificationSet> {
        None
    }

    /// Nothing calls this: the device wrapper of the benchmark harness under
    /// `perfbench/` still forwards it.
    #[doc(hidden)]
    fn fingerprint(&self) -> String {
        self.name().to_string()
    }
}

/// A trivial synthetic device useful for tests and examples: `dimension`
/// independent Gaussian measurements centred at zero.
///
/// Specification `i` has nominal 0 and acceptability range `[-limit, limit]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticDevice {
    dimension: usize,
    limit: f64,
    correlation: f64,
}

impl SyntheticDevice {
    /// Creates a synthetic device with `dimension` measurements, acceptance
    /// limit `limit` (in standard deviations) and pairwise correlation
    /// `correlation` between consecutive measurements.
    pub fn new(dimension: usize, limit: f64, correlation: f64) -> Self {
        SyntheticDevice { dimension, limit, correlation: correlation.clamp(0.0, 0.99) }
    }
}

impl DeviceUnderTest for SyntheticDevice {
    fn name(&self) -> &str {
        "synthetic gaussian device"
    }

    fn spec_names(&self) -> Vec<String> {
        (0..self.dimension).map(|i| format!("spec{i}")).collect()
    }

    fn spec_units(&self) -> Vec<String> {
        vec!["-".to_string(); self.dimension]
    }

    fn simulate_instance(&self, rng: &mut StdRng) -> Result<Vec<f64>, String> {
        use rand::Rng;
        let mut values = Vec::with_capacity(self.dimension);
        let mut previous = 0.0;
        for i in 0..self.dimension {
            // Box-Muller standard normal.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let value = if i == 0 {
                z
            } else {
                self.correlation * previous + (1.0 - self.correlation * self.correlation).sqrt() * z
            };
            values.push(value);
            previous = value;
        }
        Ok(values)
    }

    fn specification_set(&self) -> Option<SpecificationSet> {
        let specs = (0..self.dimension)
            .map(|i| {
                crate::spec::Specification::new(
                    &format!("spec{i}"),
                    "-",
                    0.0,
                    -self.limit,
                    self.limit,
                )
                .expect("synthetic ranges are well-formed")
            })
            .collect();
        Some(SpecificationSet::new(specs).expect("synthetic set is non-empty"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn synthetic_device_produces_consistent_dimensions() {
        let device = SyntheticDevice::new(5, 2.0, 0.5);
        assert_eq!(device.spec_names().len(), 5);
        assert_eq!(device.spec_units().len(), 5);
        let mut rng = StdRng::seed_from_u64(3);
        let row = device.simulate_instance(&mut rng).unwrap();
        assert_eq!(row.len(), 5);
        let specs = device.specification_set().unwrap();
        assert_eq!(specs.len(), 5);
        assert_eq!(specs.spec(0).lower(), -2.0);
    }

    #[test]
    fn correlation_links_consecutive_measurements() {
        let correlated = SyntheticDevice::new(2, 2.0, 0.95);
        let independent = SyntheticDevice::new(2, 2.0, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let corr = sample_correlation(&correlated, &mut rng);
        let mut rng = StdRng::seed_from_u64(7);
        let ind = sample_correlation(&independent, &mut rng);
        assert!(corr > 0.8, "correlated {corr}");
        assert!(ind.abs() < 0.2, "independent {ind}");
    }

    fn sample_correlation(device: &SyntheticDevice, rng: &mut StdRng) -> f64 {
        let rows: Vec<Vec<f64>> =
            (0..2000).map(|_| device.simulate_instance(rng).unwrap()).collect();
        let mean = |col: usize| rows.iter().map(|r| r[col]).sum::<f64>() / rows.len() as f64;
        let (m0, m1) = (mean(0), mean(1));
        let cov: f64 =
            rows.iter().map(|r| (r[0] - m0) * (r[1] - m1)).sum::<f64>() / rows.len() as f64;
        let sd = |col: usize, m: f64| {
            (rows.iter().map(|r| (r[col] - m).powi(2)).sum::<f64>() / rows.len() as f64).sqrt()
        };
        cov / (sd(0, m0) * sd(1, m1))
    }

    #[test]
    fn correlation_is_clamped() {
        let device = SyntheticDevice::new(2, 1.0, 5.0);
        let mut rng = StdRng::seed_from_u64(1);
        // Would produce NaN if the correlation were allowed to exceed 1.
        let row = device.simulate_instance(&mut rng).unwrap();
        assert!(row.iter().all(|v| v.is_finite()));
    }
}
