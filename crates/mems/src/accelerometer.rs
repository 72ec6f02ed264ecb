//! The accelerometer device model and its specification measurements.

use crate::geometry::AccelerometerGeometry;
use crate::lumped::{derive_lumped_model, LumpedModel};
use crate::material::Material;
use crate::temperature::TestTemperature;
use crate::{MemsError, Result};

/// Standard gravity used to express the scale factor per g.
const STANDARD_GRAVITY: f64 = 9.80665;

/// The four specifications of Table 2, measured at one temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelerometerMeasurements {
    /// Capacitive readout scale factor in millivolts per g.
    pub scale_factor: f64,
    /// Frequency of the resonant peak of the acceleration response, in kHz
    /// (0 when the device is overdamped and has no peak).
    pub peak_frequency: f64,
    /// Mechanical quality factor (dimensionless).
    pub quality_factor: f64,
    /// -3 dB bandwidth of the acceleration response, in kHz.
    pub bandwidth_3db: f64,
}

impl AccelerometerMeasurements {
    /// The measurements as a vector in the canonical Table 2 order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![self.scale_factor, self.peak_frequency, self.quality_factor, self.bandwidth_3db]
    }

    /// Names of the four specifications in the same order as
    /// [`AccelerometerMeasurements::to_vec`].
    pub fn names() -> &'static [&'static str] {
        &["scale factor", "peak frequency", "quality factor", "3-dB bandwidth"]
    }

    /// Units of the four specifications.
    pub fn units() -> &'static [&'static str] {
        &["mV/g", "kHz", "-", "kHz"]
    }
}

/// A lateral comb-drive MEMS accelerometer with a capacitive readout.
///
/// # Example
///
/// ```
/// use stc_mems::{Accelerometer, TestTemperature};
///
/// # fn main() -> Result<(), stc_mems::MemsError> {
/// let device = Accelerometer::nominal();
/// let room = device.measure(TestTemperature::Room)?;
/// assert!(room.peak_frequency > 4.0 && room.peak_frequency < 6.2);
/// let hot = device.measure(TestTemperature::Hot)?;
/// assert_ne!(room.peak_frequency, hot.peak_frequency);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accelerometer {
    geometry: AccelerometerGeometry,
    material: Material,
    /// Readout-chain gain from relative capacitance change to output volts
    /// (chopper-stabilised capacitive readout amplifier).
    readout_gain: f64,
}

impl Accelerometer {
    /// Creates an accelerometer from explicit geometry, material and readout
    /// gain.
    pub fn new(geometry: AccelerometerGeometry, material: Material, readout_gain: f64) -> Self {
        Accelerometer { geometry, material, readout_gain }
    }

    /// The nominal design used in the paper's second case study.
    pub fn nominal() -> Self {
        Accelerometer {
            geometry: AccelerometerGeometry::nominal(),
            material: Material::polysilicon(),
            readout_gain: 5.0,
        }
    }

    /// Returns a copy with different geometry (used by process variation).
    pub fn with_geometry(&self, geometry: AccelerometerGeometry) -> Self {
        Accelerometer { geometry, ..*self }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &AccelerometerGeometry {
        &self.geometry
    }

    /// The structural material.
    pub fn material(&self) -> &Material {
        &self.material
    }

    /// The lumped spring–mass–damper model at a test temperature.
    ///
    /// # Errors
    ///
    /// Propagates geometry-validation and non-physical-model errors from
    /// [`derive_lumped_model`].
    pub fn lumped_model(&self, temperature: TestTemperature) -> Result<LumpedModel> {
        derive_lumped_model(&self.geometry, &self.material, temperature.delta_from_room())
    }

    /// Measures the four Table 2 specifications at one test temperature.
    ///
    /// # Errors
    ///
    /// Returns [`MemsError::NonPhysical`] when process variation drives the
    /// mechanical model out of its valid domain and
    /// [`MemsError::MeasurementFailed`] when the frequency response is too
    /// degenerate to characterise.
    pub fn measure(&self, temperature: TestTemperature) -> Result<AccelerometerMeasurements> {
        let model = self.lumped_model(temperature)?;
        let natural_frequency = model.natural_frequency();
        let quality_factor = model.quality_factor();
        if !natural_frequency.is_finite() || !quality_factor.is_finite() {
            return Err(MemsError::MeasurementFailed {
                measurement: "frequency_response",
                reason: "natural frequency or quality factor is not finite".to_string(),
            });
        }

        // Second-order acceleration-to-displacement response
        //   H(j w) = (1/wn^2) / (1 - u + j u / Q),  u = (w/wn)^2.
        // Peak frequency (0 if the response is overdamped and peak-free).
        let peak_frequency = if quality_factor > std::f64::consts::FRAC_1_SQRT_2 {
            natural_frequency * (1.0 - 1.0 / (2.0 * quality_factor * quality_factor)).sqrt()
        } else {
            0.0
        };

        // -3 dB bandwidth of the low-pass response (closed form).
        let inv_q2 = 1.0 / (quality_factor * quality_factor);
        let u = (2.0 - inv_q2 + ((2.0 - inv_q2).powi(2) + 4.0).sqrt()) / 2.0;
        let bandwidth_3db = natural_frequency * u.sqrt();

        // Scale factor: static displacement per g converted to a differential
        // capacitance change and then to the readout output voltage.
        let displacement_per_g = model.static_compliance() * STANDARD_GRAVITY;
        let relative_capacitance_change =
            model.capacitance_gradient * displacement_per_g / model.sense_capacitance;
        let scale_factor = self.readout_gain * relative_capacitance_change * 1e3;

        Ok(AccelerometerMeasurements {
            scale_factor,
            peak_frequency: peak_frequency / 1e3,
            quality_factor,
            bandwidth_3db: bandwidth_3db / 1e3,
        })
    }

    /// Measures the device at every insertion (cold, room, hot) and returns
    /// the twelve values in the order
    /// `[cold spec1..4, room spec1..4, hot spec1..4]`.
    ///
    /// # Errors
    ///
    /// Propagates the first measurement failure.
    pub fn measure_all_temperatures(&self) -> Result<Vec<f64>> {
        let mut values = Vec::with_capacity(12);
        for temperature in TestTemperature::all() {
            values.extend(self.measure(temperature)?.to_vec());
        }
        Ok(values)
    }
}

impl Default for Accelerometer {
    fn default() -> Self {
        Accelerometer::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_measurements_fall_in_table2_ranges() {
        let m = Accelerometer::nominal().measure(TestTemperature::Room).unwrap();
        assert!(m.peak_frequency > 4.0 && m.peak_frequency < 6.2, "peak {}", m.peak_frequency);
        assert!(m.quality_factor > 1.0 && m.quality_factor < 2.8, "Q {}", m.quality_factor);
        assert!(m.bandwidth_3db > 2.0 && m.bandwidth_3db < 3.8 * 3.0, "bw {}", m.bandwidth_3db);
        assert!(m.scale_factor > 0.1 && m.scale_factor < 1000.0, "sf {}", m.scale_factor);
    }

    #[test]
    fn temperature_shifts_every_specification() {
        let device = Accelerometer::nominal();
        let room = device.measure(TestTemperature::Room).unwrap();
        let hot = device.measure(TestTemperature::Hot).unwrap();
        let cold = device.measure(TestTemperature::Cold).unwrap();
        // Hot: tensioned (stiffer) suspension => lower compliance => lower
        // scale factor; more viscous gas => lower Q.  Cold is the opposite.
        assert!(hot.scale_factor < room.scale_factor);
        assert!(cold.scale_factor > room.scale_factor);
        assert!(hot.quality_factor < room.quality_factor);
        assert!(cold.quality_factor > room.quality_factor);
        // Every spec shifts measurably with temperature, but the device is
        // still recognisably the same part (the shifts stay within 20 %) —
        // this correlation is what makes the temperature tests predictable
        // from the room-temperature measurements.
        for (h, (r, c)) in hot.to_vec().iter().zip(room.to_vec().iter().zip(cold.to_vec().iter())) {
            assert_ne!(h, r);
            assert_ne!(c, r);
            assert!((h / r - 1.0).abs() < 0.2, "hot shift too large: {h} vs {r}");
            assert!((c / r - 1.0).abs() < 0.2, "cold shift too large: {c} vs {r}");
        }
    }

    #[test]
    fn measure_all_temperatures_orders_cold_room_hot() {
        let device = Accelerometer::nominal();
        let all = device.measure_all_temperatures().unwrap();
        assert_eq!(all.len(), 12);
        let cold = device.measure(TestTemperature::Cold).unwrap().to_vec();
        let room = device.measure(TestTemperature::Room).unwrap().to_vec();
        let hot = device.measure(TestTemperature::Hot).unwrap().to_vec();
        assert_eq!(&all[0..4], cold.as_slice());
        assert_eq!(&all[4..8], room.as_slice());
        assert_eq!(&all[8..12], hot.as_slice());
    }

    #[test]
    fn overdamped_variant_reports_zero_peak_frequency() {
        // Shrink the finger gap drastically: squeeze-film damping explodes and
        // the response loses its resonant peak.
        let mut geometry = AccelerometerGeometry::nominal();
        geometry.finger_gap = 0.4e-6;
        let device = Accelerometer::nominal().with_geometry(geometry);
        let m = device.measure(TestTemperature::Room).unwrap();
        assert!(m.quality_factor < std::f64::consts::FRAC_1_SQRT_2);
        assert_eq!(m.peak_frequency, 0.0);
        assert!(m.bandwidth_3db > 0.0);
    }

    #[test]
    fn invalid_geometry_propagates_as_error() {
        let mut geometry = AccelerometerGeometry::nominal();
        geometry.beam_length = -1.0;
        let device = Accelerometer::nominal().with_geometry(geometry);
        assert!(device.measure(TestTemperature::Room).is_err());
    }

    #[test]
    fn names_units_and_vector_are_consistent() {
        let m = Accelerometer::nominal().measure(TestTemperature::Room).unwrap();
        assert_eq!(m.to_vec().len(), AccelerometerMeasurements::names().len());
        assert_eq!(
            AccelerometerMeasurements::names().len(),
            AccelerometerMeasurements::units().len()
        );
    }
}
