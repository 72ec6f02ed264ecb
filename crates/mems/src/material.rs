//! Material and ambient properties used by the accelerometer model.

/// Mechanical properties of the structural layer (polysilicon by default)
/// and of the surrounding gas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Young's modulus in pascals.
    pub youngs_modulus: f64,
    /// Density in kg/m³.
    pub density: f64,
    /// Linear thermal-expansion coefficient of the structural layer (1/K).
    pub thermal_expansion: f64,
    /// Linear thermal-expansion coefficient of the substrate (1/K); the
    /// mismatch with the structural layer is what moves the anchors when the
    /// chip heats or cools (paper Section 5.2).
    pub substrate_expansion: f64,
    /// Temperature coefficient of Young's modulus (1/K, negative: silicon
    /// softens when heated).
    pub modulus_temperature_coefficient: f64,
    /// Gas (air) dynamic viscosity at the reference temperature, Pa·s.
    pub gas_viscosity: f64,
}

impl Material {
    /// CMU-MEMS-style polysilicon over a silicon substrate in air.
    pub fn polysilicon() -> Self {
        Material {
            youngs_modulus: 160e9,
            density: 2_330.0,
            thermal_expansion: 2.6e-6,
            substrate_expansion: 3.2e-6,
            modulus_temperature_coefficient: -60e-6,
            gas_viscosity: 1.82e-5,
        }
    }

    /// Young's modulus at `delta_t` kelvin away from the reference
    /// temperature.
    pub fn youngs_modulus_at(&self, delta_t: f64) -> f64 {
        self.youngs_modulus * (1.0 + self.modulus_temperature_coefficient * delta_t)
    }

    /// Gas viscosity at `delta_t` kelvin away from the reference temperature
    /// (Sutherland-like power law around 300 K).
    pub fn gas_viscosity_at(&self, delta_t: f64) -> f64 {
        let t = 300.0 + delta_t;
        self.gas_viscosity * (t / 300.0).powf(0.7)
    }

    /// Differential expansion strain between substrate and structural layer
    /// for a temperature offset `delta_t` (positive strain pulls the anchors
    /// away from the proof mass when the chip heats up).
    pub fn mismatch_strain(&self, delta_t: f64) -> f64 {
        (self.substrate_expansion - self.thermal_expansion) * delta_t
    }
}

impl Default for Material {
    fn default() -> Self {
        Material::polysilicon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polysilicon_has_expected_magnitudes() {
        let m = Material::polysilicon();
        assert!(m.youngs_modulus > 1e11);
        assert!(m.density > 2_000.0 && m.density < 3_000.0);
        assert!(m.gas_viscosity > 1e-5 && m.gas_viscosity < 3e-5);
    }

    #[test]
    fn modulus_softens_when_heated() {
        let m = Material::polysilicon();
        assert!(m.youngs_modulus_at(80.0) < m.youngs_modulus);
        assert!(m.youngs_modulus_at(-40.0) > m.youngs_modulus);
    }

    #[test]
    fn viscosity_increases_with_temperature() {
        let m = Material::polysilicon();
        assert!(m.gas_viscosity_at(53.0) > m.gas_viscosity_at(0.0));
        assert!(m.gas_viscosity_at(-67.0) < m.gas_viscosity_at(0.0));
    }

    #[test]
    fn mismatch_strain_is_signed_with_temperature() {
        let m = Material::polysilicon();
        assert!(m.mismatch_strain(53.0) > 0.0);
        assert!(m.mismatch_strain(-67.0) < 0.0);
        assert_eq!(m.mismatch_strain(0.0), 0.0);
    }
}
