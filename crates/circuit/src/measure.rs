//! Frequency-response measurements used by the specification tests.

use crate::ac::AcSweep;
use crate::netlist::NodeId;
use crate::{CircuitError, Result};

/// Low-frequency (first sweep point) magnitude of a node, the usual estimate
/// of DC gain when the sweep starts well below the first pole.
pub fn dc_gain(sweep: &AcSweep, node: NodeId) -> f64 {
    sweep.phasor(node, 0).norm()
}

/// Interpolated frequency at which the magnitude response of `node` falls to
/// `1/sqrt(2)` of its low-frequency value (the -3 dB bandwidth).
///
/// # Errors
///
/// Returns [`CircuitError::MeasurementFailed`] when the response never drops
/// below the -3 dB level inside the sweep.
pub fn bandwidth_3db(sweep: &AcSweep, node: NodeId) -> Result<f64> {
    let magnitudes = sweep.magnitude(node);
    let reference = magnitudes[0];
    let target = reference * std::f64::consts::FRAC_1_SQRT_2;
    crossing_frequency(sweep.frequencies(), &magnitudes, target).ok_or_else(|| {
        CircuitError::MeasurementFailed {
            measurement: "bandwidth_3db",
            reason: "response never drops 3 dB below its low-frequency value".to_string(),
        }
    })
}

/// Interpolated frequency at which the magnitude response of `node` crosses
/// unity (the unity-gain frequency of an open-loop amplifier response).
///
/// # Errors
///
/// Returns [`CircuitError::MeasurementFailed`] when the response never crosses
/// 1.0 inside the sweep (for example because the amplifier gain is below one
/// everywhere).
pub fn unity_gain_frequency(sweep: &AcSweep, node: NodeId) -> Result<f64> {
    let magnitudes = sweep.magnitude(node);
    if magnitudes[0] <= 1.0 {
        return Err(CircuitError::MeasurementFailed {
            measurement: "unity_gain_frequency",
            reason: "low-frequency gain is already below unity".to_string(),
        });
    }
    crossing_frequency(sweep.frequencies(), &magnitudes, 1.0).ok_or_else(|| {
        CircuitError::MeasurementFailed {
            measurement: "unity_gain_frequency",
            reason: "gain never falls to unity inside the sweep".to_string(),
        }
    })
}

fn interpolate(f0: f64, f1: f64, m0: f64, m1: f64, target: f64) -> Option<f64> {
    if (m1 - m0).abs() < f64::EPSILON {
        return Some(f1);
    }
    let fraction = (target - m0) / (m1 - m0);
    if (0.0..=1.0).contains(&fraction) {
        Some(f0 + fraction * (f1 - f0))
    } else {
        None
    }
}

/// First frequency (descending search from the low end) at which `values`
/// crosses `target` downward, linearly interpolated; `None` if it never does.
fn crossing_frequency(frequencies: &[f64], values: &[f64], target: f64) -> Option<f64> {
    for i in 1..values.len() {
        if values[i - 1] >= target && values[i] < target {
            return interpolate(
                frequencies[i - 1],
                frequencies[i],
                values[i - 1],
                values[i],
                target,
            );
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::{ac_analysis, log_frequency_sweep};
    use crate::dc::dc_operating_point;
    use crate::elements::SourceWaveform;
    use crate::netlist::Circuit;

    /// A single-pole response of gain 1000 with its pole at 1 kHz: an RC
    /// low-pass driven by a 1000 V AC source.
    fn single_pole_amplifier() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.ac_voltage_source("V1", vin, Circuit::ground(), SourceWaveform::dc(0.0), 1000.0).unwrap();
        // Pole = 1/(2*pi*R*C).
        c.resistor("R1", vin, vout, 1_000.0).unwrap();
        c.capacitor("C1", vout, Circuit::ground(), 159.154943e-9).unwrap();
        (c, vout)
    }

    #[test]
    fn single_pole_gain_bandwidth_and_unity_crossing() {
        let (c, vout) = single_pole_amplifier();
        let op = dc_operating_point(&c).unwrap();
        let sweep = ac_analysis(&c, &op, &log_frequency_sweep(1.0, 100e6, 401)).unwrap();
        let gain = dc_gain(&sweep, vout);
        assert!((gain - 1000.0).abs() / 1000.0 < 0.01, "gain {gain}");
        let bw = bandwidth_3db(&sweep, vout).unwrap();
        assert!((bw / 1_000.0 - 1.0).abs() < 0.05, "bandwidth {bw}");
        let fu = unity_gain_frequency(&sweep, vout).unwrap();
        // Gain-bandwidth product: fu ≈ gain * pole = 1 MHz.
        assert!((fu / 1e6 - 1.0).abs() < 0.05, "unity-gain frequency {fu}");
    }

    #[test]
    fn measurements_fail_gracefully_when_out_of_range() {
        let (c, vout) = single_pole_amplifier();
        let op = dc_operating_point(&c).unwrap();
        // A sweep entirely inside the passband never reaches -3 dB or unity.
        let sweep = ac_analysis(&c, &op, &log_frequency_sweep(1.0, 10.0, 11)).unwrap();
        assert!(bandwidth_3db(&sweep, vout).is_err());
        assert!(unity_gain_frequency(&sweep, vout).is_err());
    }
}
