//! Reduction of the accelerometer layout to a lumped spring–mass–damper model.
//!
//! This is the behavioural-model substitute for the NODAS component library
//! used by the paper: each physical effect (flexure bending, comb sensing,
//! film damping, thermal anchor motion) is reduced to its standard lumped
//! expression, so the device is ultimately a second-order system whose
//! coefficients depend on geometry, material and temperature.

use crate::geometry::AccelerometerGeometry;
use crate::material::Material;
use crate::{MemsError, Result};

/// Permittivity of free space (F/m).
const EPSILON_0: f64 = 8.854e-12;

/// Calibration constant absorbing higher-order gas-film effects that the
/// simple Couette/squeeze expressions underestimate; chosen so the nominal
/// device has a quality factor near the centre of the paper's Table 2 range.
const DAMPING_FIT: f64 = 8.3;

/// Fraction of the substrate/structural-layer mismatch strain that is
/// transferred into axial load on the flexures (the anchors sit on a frame
/// that absorbs part of the motion).
const ANCHOR_STRAIN_TRANSFER: f64 = 0.6;

/// Lumped second-order model of the accelerometer at one temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LumpedModel {
    /// Moving mass in kilograms.
    pub mass: f64,
    /// Suspension stiffness along the sense axis in newtons per metre.
    pub stiffness: f64,
    /// Viscous damping coefficient in newton-seconds per metre.
    pub damping: f64,
    /// Rest sense capacitance in farads.
    pub sense_capacitance: f64,
    /// Capacitance gradient dC/dx in farads per metre.
    pub capacitance_gradient: f64,
}

impl LumpedModel {
    /// Undamped natural frequency in hertz.
    pub fn natural_frequency(&self) -> f64 {
        (self.stiffness / self.mass).sqrt() / std::f64::consts::TAU
    }

    /// Quality factor `sqrt(k m) / b`.
    pub fn quality_factor(&self) -> f64 {
        (self.stiffness * self.mass).sqrt() / self.damping
    }

    /// Static displacement per unit acceleration (m per m/s²).
    pub fn static_compliance(&self) -> f64 {
        self.mass / self.stiffness
    }
}

/// Derives the lumped model from geometry and material at a temperature
/// offset `delta_t` (kelvin) from the room-temperature reference.
///
/// The temperature enters in four ways, mirroring the paper's description of
/// the effect as "chip shrinkage or expansion" that moves the anchors:
///
/// 1. the substrate/structural-layer expansion mismatch puts the flexures
///    under axial load, stress-stiffening (hot) or stress-softening (cold)
///    the suspension,
/// 2. Young's modulus drifts with temperature,
/// 3. the gas viscosity (and with it the damping) follows a power law in the
///    absolute temperature,
/// 4. the comb gaps dilate slightly, changing the sense capacitance.
///
/// # Errors
///
/// Returns [`MemsError::InvalidParameter`] for invalid geometry and
/// [`MemsError::NonPhysical`] when variation plus temperature drives the
/// stiffness or damping non-positive.
pub fn derive_lumped_model(
    geometry: &AccelerometerGeometry,
    material: &Material,
    delta_t: f64,
) -> Result<LumpedModel> {
    geometry.validate()?;

    // --- Mass: plate plus movable fingers plus one third of the beams. -----
    let plate_volume = geometry.plate_length * geometry.plate_width * geometry.thickness;
    let finger_volume = geometry.finger_count as f64
        * geometry.finger_length
        * geometry.finger_width
        * geometry.thickness;
    let beam_volume = geometry.beam_count as f64
        * geometry.beam_length
        * geometry.beam_width
        * geometry.thickness;
    let mass = material.density * (plate_volume + finger_volume + beam_volume / 3.0);

    // --- Stiffness: guided-end beams in parallel, with angular misalignment
    //     projecting the bending stiffness onto the sense axis. -------------
    let youngs = material.youngs_modulus_at(delta_t);
    let inertia = geometry.thickness * geometry.beam_width.powi(3) / 12.0;
    let bending = 12.0 * youngs * inertia / geometry.beam_length.powi(3);
    let alignment = geometry.flexure_angle.cos().powi(2);
    let mut stiffness = geometry.beam_count as f64 * bending * alignment;

    // Stress stiffening from the anchor motion: axial strain eps loads each
    // beam with N = E A eps; the lateral stiffness of a guided beam changes by
    // ~(6/5) N / L, i.e. by a factor (1 + (1/10) eps (L/w)^2) relative to pure
    // bending.
    let strain = ANCHOR_STRAIN_TRANSFER * material.mismatch_strain(delta_t);
    let slenderness = geometry.beam_length / geometry.beam_width;
    stiffness *= 1.0 + 0.1 * strain * slenderness * slenderness;
    if !(stiffness > 0.0) {
        return Err(MemsError::NonPhysical { quantity: "stiffness", value: stiffness });
    }

    // --- Damping: Couette film under the plate plus squeeze film in the
    //     comb gaps, scaled by the fitted film constant. --------------------
    let viscosity = material.gas_viscosity_at(delta_t);
    let couette = viscosity * geometry.plate_length * geometry.plate_width / geometry.substrate_gap;
    let squeeze = viscosity
        * geometry.finger_count as f64
        * geometry.finger_overlap
        * geometry.thickness.powi(3)
        / geometry.finger_gap.powi(3);
    let damping = DAMPING_FIT * (couette + squeeze);
    if !(damping > 0.0) {
        return Err(MemsError::NonPhysical { quantity: "damping", value: damping });
    }

    // --- Capacitive sense: parallel-plate combs on both sides of each
    //     finger; the gap dilates with the substrate expansion. -------------
    let gap = geometry.finger_gap * (1.0 + material.substrate_expansion * delta_t);
    let overlap_area = geometry.finger_overlap * geometry.thickness * geometry.flexure_angle.cos();
    let sense_capacitance = 2.0 * geometry.finger_count as f64 * EPSILON_0 * overlap_area / gap;
    let capacitance_gradient = sense_capacitance / gap;

    Ok(LumpedModel { mass, stiffness, damping, sense_capacitance, capacitance_gradient })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> LumpedModel {
        derive_lumped_model(&AccelerometerGeometry::nominal(), &Material::polysilicon(), 0.0)
            .unwrap()
    }

    #[test]
    fn nominal_model_is_in_the_papers_spec_ranges() {
        let model = nominal();
        // Table 2: peak frequency 4–6.2 kHz, quality factor 1–2.8.
        let fn_hz = model.natural_frequency();
        assert!(fn_hz > 4_000.0 && fn_hz < 6_500.0, "natural frequency {fn_hz}");
        let q = model.quality_factor();
        assert!(q > 1.0 && q < 2.8, "quality factor {q}");
        assert!(model.mass > 1e-10 && model.mass < 1e-8, "mass {}", model.mass);
        assert!(model.stiffness > 0.1 && model.stiffness < 10.0, "k {}", model.stiffness);
        assert!(model.sense_capacitance > 1e-14, "C {}", model.sense_capacitance);
    }

    #[test]
    fn longer_beams_soften_the_suspension() {
        let mut soft_geometry = AccelerometerGeometry::nominal();
        soft_geometry.beam_length *= 1.2;
        let soft = derive_lumped_model(&soft_geometry, &Material::polysilicon(), 0.0).unwrap();
        assert!(soft.stiffness < nominal().stiffness);
        assert!(soft.natural_frequency() < nominal().natural_frequency());
    }

    #[test]
    fn heating_stiffens_and_damps_this_design() {
        let material = Material::polysilicon();
        let geometry = AccelerometerGeometry::nominal();
        let room = derive_lumped_model(&geometry, &material, 0.0).unwrap();
        let hot = derive_lumped_model(&geometry, &material, 53.0).unwrap();
        let cold = derive_lumped_model(&geometry, &material, -67.0).unwrap();
        // Substrate expands faster than polysilicon => tension when hot.
        assert!(hot.stiffness > room.stiffness);
        assert!(cold.stiffness < room.stiffness);
        assert!(hot.damping > room.damping);
        assert!(cold.damping < room.damping);
        // The shift is a clearly measurable few percent, not a numerical blip.
        assert!(hot.stiffness / room.stiffness > 1.02);
        assert!(cold.stiffness / room.stiffness < 0.98);
    }

    #[test]
    fn angular_misalignment_reduces_stiffness_and_capacitance() {
        let mut tilted_geometry = AccelerometerGeometry::nominal();
        tilted_geometry.flexure_angle = 0.2;
        let tilted = derive_lumped_model(&tilted_geometry, &Material::polysilicon(), 0.0).unwrap();
        assert!(tilted.stiffness < nominal().stiffness);
        assert!(tilted.sense_capacitance < nominal().sense_capacitance);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let mut geometry = AccelerometerGeometry::nominal();
        geometry.beam_width = 0.0;
        assert!(derive_lumped_model(&geometry, &Material::polysilicon(), 0.0).is_err());
    }

    #[test]
    fn extreme_cold_cannot_produce_negative_stiffness_silently() {
        // A pathologically slender beam under strong compression buckles; the
        // model reports it as a non-physical stiffness instead of returning a
        // negative value.
        let mut geometry = AccelerometerGeometry::nominal();
        geometry.beam_width = 0.4e-6;
        geometry.beam_length = 500e-6;
        let result = derive_lumped_model(&geometry, &Material::polysilicon(), -400.0);
        match result {
            Err(MemsError::NonPhysical { quantity, .. }) => assert_eq!(quantity, "stiffness"),
            Ok(model) => assert!(model.stiffness > 0.0),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
