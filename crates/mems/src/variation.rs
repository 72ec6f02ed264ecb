//! Process variation for accelerometer Monte-Carlo instances.
//!
//! The paper generates instances "by adding variations to the accelerometer
//! component lengths, widths and relative angles" (Section 5.2).

use rand::Rng;

use crate::accelerometer::Accelerometer;

/// Perturbation model for the accelerometer geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemsVariation {
    /// Relative half-width of the uniform variation applied to lengths and
    /// widths (0.05 = ±5 %).
    pub dimension_spread: f64,
    /// Absolute half-width (radians) of the uniform variation applied to the
    /// flexure angle.
    pub angle_spread: f64,
}

impl MemsVariation {
    /// The variation used for the paper's accelerometer study: ±5 % on every
    /// length/width and ±20 mrad of flexure misalignment.
    pub fn paper_default() -> Self {
        MemsVariation { dimension_spread: 0.05, angle_spread: 0.02 }
    }

    /// Draws one perturbed device from the nominal design.
    pub fn perturb<R: Rng>(&self, nominal: &Accelerometer, rng: &mut R) -> Accelerometer {
        let mut geometry = *nominal.geometry();
        for (name, value) in nominal.geometry().varying_fields() {
            let factor = rng.gen_range(1.0 - self.dimension_spread..=1.0 + self.dimension_spread);
            geometry.set_varying_field(name, value * factor);
        }
        geometry.flexure_angle = nominal.geometry().flexure_angle
            + rng.gen_range(-self.angle_spread..=self.angle_spread);
        nominal.with_geometry(geometry)
    }

    /// Convenience helper drawing `count` perturbed devices.
    pub fn sample<R: Rng>(
        &self,
        nominal: &Accelerometer,
        count: usize,
        rng: &mut R,
    ) -> Vec<Accelerometer> {
        (0..count).map(|_| self.perturb(nominal, rng)).collect()
    }
}

impl Default for MemsVariation {
    fn default() -> Self {
        MemsVariation::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temperature::TestTemperature;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perturbation_stays_in_band_and_changes_geometry() {
        let variation = MemsVariation::paper_default();
        let nominal = Accelerometer::nominal();
        let mut rng = StdRng::seed_from_u64(5);
        let device = variation.perturb(&nominal, &mut rng);
        let g = device.geometry();
        let n = nominal.geometry();
        assert_ne!(g, n);
        assert!((g.beam_length / n.beam_length - 1.0).abs() <= 0.05 + 1e-12);
        assert!(g.flexure_angle.abs() <= 0.02 + 1e-12);
    }

    #[test]
    fn most_perturbed_devices_still_measure() {
        let variation = MemsVariation::paper_default();
        let nominal = Accelerometer::nominal();
        let mut rng = StdRng::seed_from_u64(9);
        let devices = variation.sample(&nominal, 200, &mut rng);
        let ok = devices.iter().filter(|d| d.measure(TestTemperature::Room).is_ok()).count();
        assert_eq!(ok, 200, "every mildly perturbed device should still evaluate");
    }

    #[test]
    fn population_spreads_the_specifications() {
        let variation = MemsVariation::paper_default();
        let nominal = Accelerometer::nominal();
        let mut rng = StdRng::seed_from_u64(11);
        let values: Vec<f64> = variation
            .sample(&nominal, 100, &mut rng)
            .iter()
            .map(|d| d.measure(TestTemperature::Room).unwrap().peak_frequency)
            .collect();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min > 1.05, "population should spread: {min}..{max}");
    }
}
