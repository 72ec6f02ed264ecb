//! Adapters connecting the device substrates to the compaction methodology.
//!
//! `stc-core` is device-agnostic: it consumes measurement vectors through the
//! [`DeviceUnderTest`] trait.  This module wires in the two case studies of
//! the paper — the two-stage CMOS op-amp simulated by `stc-circuit` and the
//! MEMS accelerometer modelled by `stc-mems`.

use rand::rngs::StdRng;

use stc_circuit::devices::opamp::{OpAmp, OpAmpMeasurements, OpAmpParams};
use stc_circuit::variation::VariationModel;
use stc_core::pipeline::CompactionPipeline;
use stc_core::{DeviceUnderTest, MonteCarloConfig};
use stc_mems::{Accelerometer, AccelerometerMeasurements, MemsVariation, TestTemperature};
use stc_svm::SvmBackend;

/// The op-amp case study (paper Section 5.1): eleven specifications measured
/// by transistor-level simulation under ±10 % geometric process variation.
///
/// # Example
///
/// ```
/// use spec_test_compaction::adapters::OpAmpDevice;
/// use spec_test_compaction::core::DeviceUnderTest;
///
/// let device = OpAmpDevice::paper_setup();
/// assert_eq!(device.spec_names().len(), 11);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OpAmpDevice {
    nominal: OpAmpParams,
    variation: VariationModel,
}

impl OpAmpDevice {
    /// The paper's setup: nominal textbook sizing, ±10 % uniform variation on
    /// every transistor width/length and capacitor, ranges calibrated from
    /// the training population.
    pub fn paper_setup() -> Self {
        OpAmpDevice { nominal: OpAmpParams::nominal(), variation: VariationModel::paper_default() }
    }

    /// A [`CompactionPipeline`] preconfigured the way the paper runs this
    /// case study: population-calibrated ranges (2 % tails, matching the
    /// reported 75.4 % training yield) and the ε-SVM classifier.
    pub fn paper_pipeline(&self) -> CompactionPipeline<'_> {
        CompactionPipeline::for_device(self)
            .monte_carlo(
                MonteCarloConfig::new(500).with_seed(2005).with_calibration_quantiles(0.02, 0.98),
            )
            .classifier(SvmBackend::paper_default())
    }
}

impl DeviceUnderTest for OpAmpDevice {
    fn name(&self) -> &str {
        "two-stage CMOS operational amplifier"
    }

    fn spec_names(&self) -> Vec<String> {
        OpAmpMeasurements::names().iter().map(|s| s.to_string()).collect()
    }

    fn spec_units(&self) -> Vec<String> {
        OpAmpMeasurements::units().iter().map(|s| s.to_string()).collect()
    }

    fn simulate_instance(&self, rng: &mut StdRng) -> Result<Vec<f64>, String> {
        let params = self.variation.perturb_opamp(&self.nominal, rng);
        let measurements = OpAmp::new(params).measure().map_err(|e| e.to_string())?;
        Ok(measurements.to_vec())
    }
}

/// The MEMS accelerometer case study (paper Section 5.2): four specifications
/// measured at -40 °C, 27 °C and +80 °C (twelve tests in total).
///
/// The measurement vector is ordered `[cold spec1..4, room spec1..4, hot
/// spec1..4]`; [`AccelerometerDevice::temperature_group`] returns the test
/// indices belonging to one insertion, which is what the Table 3 experiment
/// eliminates.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelerometerDevice {
    nominal: Accelerometer,
    variation: MemsVariation,
}

impl AccelerometerDevice {
    /// The paper's setup: nominal CMU-style design, ±5 % dimension variation
    /// plus flexure-angle misalignment, ranges calibrated from the training
    /// population.
    pub fn paper_setup() -> Self {
        AccelerometerDevice {
            nominal: Accelerometer::nominal(),
            variation: MemsVariation::paper_default(),
        }
    }

    /// Indices of the four tests applied at `temperature`
    /// (into the 12-entry measurement vector).
    pub fn temperature_group(temperature: TestTemperature) -> Vec<usize> {
        let offset = match temperature {
            TestTemperature::Cold => 0,
            TestTemperature::Room => 4,
            TestTemperature::Hot => 8,
        };
        (offset..offset + 4).collect()
    }

    /// Per-test insertion labels and insertion costs for
    /// [`stc_core::TestCostModel`]: twelve tests in three insertions, with
    /// the thermal soak dominating the hot and cold insertions.
    pub fn cost_model() -> stc_core::TestCostModel {
        let per_test = vec![1.0; 12];
        let insertion_of_test = vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2];
        let insertion_cost = vec![12.0, 1.0, 10.0];
        stc_core::TestCostModel::new(per_test, insertion_of_test, insertion_cost)
            .expect("static cost model is well-formed")
    }

    /// A [`CompactionPipeline`] preconfigured the way the paper runs this
    /// case study: population-calibrated ranges (7.5 % tails, matching the
    /// reported 77.4 % training yield), the thermal-insertion cost model and
    /// the ε-SVM classifier.
    pub fn paper_pipeline(&self) -> CompactionPipeline<'_> {
        CompactionPipeline::for_device(self)
            .monte_carlo(
                MonteCarloConfig::new(500).with_seed(2005).with_calibration_quantiles(0.075, 0.925),
            )
            .cost_model(AccelerometerDevice::cost_model())
            .classifier(SvmBackend::paper_default())
    }
}

impl DeviceUnderTest for AccelerometerDevice {
    fn name(&self) -> &str {
        "MEMS lateral comb accelerometer"
    }

    fn spec_names(&self) -> Vec<String> {
        TestTemperature::all()
            .iter()
            .flat_map(|t| {
                AccelerometerMeasurements::names()
                    .iter()
                    .map(move |n| format!("{n} @ {}", t.label()))
            })
            .collect()
    }

    fn spec_units(&self) -> Vec<String> {
        TestTemperature::all()
            .iter()
            .flat_map(|_| AccelerometerMeasurements::units().iter().map(|u| u.to_string()))
            .collect()
    }

    fn simulate_instance(&self, rng: &mut StdRng) -> Result<Vec<f64>, String> {
        let instance = self.variation.perturb(&self.nominal, rng);
        instance.measure_all_temperatures().map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn opamp_adapter_produces_eleven_measurements() {
        let device = OpAmpDevice::paper_setup();
        assert_eq!(device.spec_names().len(), 11);
        assert_eq!(device.spec_units().len(), 11);
        assert!(device.specification_set().is_none());
        let mut rng = StdRng::seed_from_u64(2);
        let row = device.simulate_instance(&mut rng).expect("op-amp instance simulates");
        assert_eq!(row.len(), 11);
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn accelerometer_adapter_produces_twelve_measurements() {
        let device = AccelerometerDevice::paper_setup();
        assert_eq!(device.spec_names().len(), 12);
        assert_eq!(device.spec_units().len(), 12);
        let mut rng = StdRng::seed_from_u64(3);
        let row = device.simulate_instance(&mut rng).expect("accelerometer simulates");
        assert_eq!(row.len(), 12);
        assert!(device.spec_names()[0].contains("-40C"));
        assert!(device.spec_names()[11].contains("80C"));
    }

    #[test]
    fn temperature_groups_partition_the_test_set() {
        let mut all: Vec<usize> = TestTemperature::all()
            .iter()
            .flat_map(|&t| AccelerometerDevice::temperature_group(t))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
        assert_eq!(AccelerometerDevice::temperature_group(TestTemperature::Room), vec![4, 5, 6, 7]);
    }

    #[test]
    fn cost_model_charges_temperature_insertions() {
        let model = AccelerometerDevice::cost_model();
        let room_only: Vec<usize> = AccelerometerDevice::temperature_group(TestTemperature::Room);
        assert!(model.cost_reduction(&room_only).unwrap() > 0.5);
    }
}
