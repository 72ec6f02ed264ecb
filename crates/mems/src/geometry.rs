//! Layout geometry of the surface-micromachined accelerometer.

use crate::{MemsError, Result};

/// Geometric description of the accelerometer (all lengths in metres, angles
/// in radians).
///
/// The device is a conventional lateral comb accelerometer: a rectangular
/// proof-mass plate suspended by four folded-flexure beams anchored to the
/// substrate, with interdigitated comb fingers for capacitive position
/// sensing.  These are exactly the quantities the paper perturbs to create
/// Monte-Carlo instances ("component lengths, widths and relative angles",
/// Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelerometerGeometry {
    /// Proof-mass plate edge length along the sense axis.
    pub plate_length: f64,
    /// Proof-mass plate edge length across the sense axis.
    pub plate_width: f64,
    /// Structural-layer thickness.
    pub thickness: f64,
    /// Suspension beam length (one beam of the folded flexure).
    pub beam_length: f64,
    /// Suspension beam width.
    pub beam_width: f64,
    /// Number of suspension beams (4 for the classic folded flexure).
    pub beam_count: usize,
    /// Angular misalignment of the flexures relative to the sense axis.
    pub flexure_angle: f64,
    /// Number of movable comb fingers.
    pub finger_count: usize,
    /// Comb finger length.
    pub finger_length: f64,
    /// Comb finger width.
    pub finger_width: f64,
    /// Comb finger overlap with the stator fingers.
    pub finger_overlap: f64,
    /// Lateral gap between rotor and stator fingers.
    pub finger_gap: f64,
    /// Vertical gap between the proof mass and the substrate.
    pub substrate_gap: f64,
}

impl AccelerometerGeometry {
    /// Nominal geometry of the CMU-style accelerometer used in the paper's
    /// second case study (sized so the nominal specifications fall inside the
    /// Table 2 acceptance ranges).
    pub fn nominal() -> Self {
        AccelerometerGeometry {
            plate_length: 400e-6,
            plate_width: 400e-6,
            thickness: 2.0e-6,
            beam_length: 230e-6,
            beam_width: 2.0e-6,
            beam_count: 4,
            flexure_angle: 0.0,
            finger_count: 42,
            finger_length: 120e-6,
            finger_width: 2.0e-6,
            finger_overlap: 100e-6,
            finger_gap: 1.5e-6,
            substrate_gap: 2.0e-6,
        }
    }

    /// Validates that every dimension is physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`MemsError::InvalidParameter`] naming the first bad field.
    pub fn validate(&self) -> Result<()> {
        let positive = [
            ("plate_length", self.plate_length),
            ("plate_width", self.plate_width),
            ("thickness", self.thickness),
            ("beam_length", self.beam_length),
            ("beam_width", self.beam_width),
            ("finger_length", self.finger_length),
            ("finger_width", self.finger_width),
            ("finger_overlap", self.finger_overlap),
            ("finger_gap", self.finger_gap),
            ("substrate_gap", self.substrate_gap),
        ];
        for (parameter, value) in positive {
            if !(value > 0.0) || !value.is_finite() {
                return Err(MemsError::InvalidParameter { parameter, value });
            }
        }
        if self.beam_count == 0 {
            return Err(MemsError::InvalidParameter { parameter: "beam_count", value: 0.0 });
        }
        if self.finger_count == 0 {
            return Err(MemsError::InvalidParameter { parameter: "finger_count", value: 0.0 });
        }
        if self.flexure_angle.abs() > 0.5 {
            return Err(MemsError::InvalidParameter {
                parameter: "flexure_angle",
                value: self.flexure_angle,
            });
        }
        if self.finger_overlap > self.finger_length {
            return Err(MemsError::InvalidParameter {
                parameter: "finger_overlap",
                value: self.finger_overlap,
            });
        }
        Ok(())
    }

    /// The continuously-varying fields as `(name, value)` pairs, used by the
    /// process-variation machinery (counts are not perturbed).
    pub fn varying_fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("plate_length", self.plate_length),
            ("plate_width", self.plate_width),
            ("thickness", self.thickness),
            ("beam_length", self.beam_length),
            ("beam_width", self.beam_width),
            ("finger_length", self.finger_length),
            ("finger_width", self.finger_width),
            ("finger_overlap", self.finger_overlap),
            ("finger_gap", self.finger_gap),
            ("substrate_gap", self.substrate_gap),
        ]
    }

    /// Sets a varying field by name (inverse of
    /// [`AccelerometerGeometry::varying_fields`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a varying field.
    pub fn set_varying_field(&mut self, name: &str, value: f64) {
        match name {
            "plate_length" => self.plate_length = value,
            "plate_width" => self.plate_width = value,
            "thickness" => self.thickness = value,
            "beam_length" => self.beam_length = value,
            "beam_width" => self.beam_width = value,
            "finger_length" => self.finger_length = value,
            "finger_width" => self.finger_width = value,
            "finger_overlap" => self.finger_overlap = value,
            "finger_gap" => self.finger_gap = value,
            "substrate_gap" => self.substrate_gap = value,
            other => panic!("unknown accelerometer geometry field {other}"),
        }
    }
}

impl Default for AccelerometerGeometry {
    fn default() -> Self {
        AccelerometerGeometry::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_geometry_is_valid() {
        assert!(AccelerometerGeometry::nominal().validate().is_ok());
    }

    #[test]
    fn negative_or_zero_dimensions_are_rejected() {
        let mut g = AccelerometerGeometry::nominal();
        g.beam_length = 0.0;
        assert!(matches!(
            g.validate(),
            Err(MemsError::InvalidParameter { parameter: "beam_length", .. })
        ));
        let mut g = AccelerometerGeometry::nominal();
        g.finger_gap = -1e-6;
        assert!(g.validate().is_err());
        let mut g = AccelerometerGeometry::nominal();
        g.beam_count = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn excessive_angle_and_overlap_are_rejected() {
        let mut g = AccelerometerGeometry::nominal();
        g.flexure_angle = 1.0;
        assert!(g.validate().is_err());
        let mut g = AccelerometerGeometry::nominal();
        g.finger_overlap = g.finger_length * 2.0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn varying_fields_round_trip() {
        let mut g = AccelerometerGeometry::nominal();
        let fields = g.varying_fields();
        assert_eq!(fields.len(), 10);
        for (name, value) in fields {
            g.set_varying_field(name, value * 1.5);
        }
        assert!(
            (g.plate_length / AccelerometerGeometry::nominal().plate_length - 1.5).abs() < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "unknown accelerometer geometry field")]
    fn unknown_field_panics() {
        AccelerometerGeometry::nominal().set_varying_field("bogus", 1.0);
    }
}
