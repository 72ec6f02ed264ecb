//! Small-signal AC analysis.
//!
//! A sweep linearises the circuit once around its DC operating point: one
//! assembly yields the frequency-independent system and the reactive stamps,
//! and each frequency adds `j·ω` times those stamps to a copy of that system
//! and solves it in place, in buffers allocated once per sweep.
//!
//! Every system of a sweep has the same structure, the frequency-independent
//! nonzeros and the reactive positions, so the sweep solves through the
//! thread's factorization plans for that structure (see [`crate::linalg`]):
//! each point replays the plan that solved the last point (at the first
//! point, the last sweep's of that structure), and a point that leaves it is
//! reloaded and tries the structure's other plans, then the dense LU.  Each
//! solution has the dense LU's bits.

use crate::dc::DcSolution;
use crate::linalg::{Complex, Matrix, Planner};
use crate::mna::{AcSystem, MnaLayout};
use crate::netlist::{Circuit, NodeId};
use crate::{CircuitError, Result};

/// Result of an AC frequency sweep: one complex solution vector per frequency.
#[derive(Debug, Clone)]
pub struct AcSweep {
    layout: MnaLayout,
    frequencies: Vec<f64>,
    /// The solution vectors back to back, `layout.size()` each.
    solutions: Vec<Complex>,
}

impl AcSweep {
    /// The swept frequencies in hertz.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Complex node voltage at sweep point `index`.
    pub fn phasor(&self, node: NodeId, index: usize) -> Complex {
        let size = self.layout.size();
        self.layout.voltage_complex(&self.solutions[index * size..(index + 1) * size], node)
    }

    /// Magnitude response of a node over the whole sweep.
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        (0..self.frequencies.len()).map(|i| self.phasor(node, i).norm()).collect()
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.frequencies.len()
    }

    /// Whether the sweep contains no points.
    pub fn is_empty(&self) -> bool {
        self.frequencies.is_empty()
    }
}

/// Generates `points` logarithmically spaced frequencies between `start` and
/// `stop` (inclusive), the usual grid for Bode-style sweeps.
///
/// # Panics
///
/// Panics if `start` or `stop` are non-positive or `points < 2`.
pub fn log_frequency_sweep(start: f64, stop: f64, points: usize) -> Vec<f64> {
    assert!(start > 0.0 && stop > start, "invalid frequency range");
    assert!(points >= 2, "need at least two sweep points");
    let log_start = start.log10();
    let log_stop = stop.log10();
    (0..points)
        .map(|i| {
            let frac = i as f64 / (points - 1) as f64;
            10f64.powf(log_start + frac * (log_stop - log_start))
        })
        .collect()
}

/// Runs an AC analysis at the given frequencies, linearising the circuit
/// once around the DC operating point `op`.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidAnalysis`] for an empty frequency list or
/// non-positive frequencies, and propagates matrix errors from the solver.
pub fn ac_analysis(circuit: &Circuit, op: &DcSolution, frequencies: &[f64]) -> Result<AcSweep> {
    ac_sweep_until(circuit, op, frequencies, |_| false)
}

/// [`ac_analysis`] that ends after the first frequency at which `stop`, given
/// the sweep so far, returns `true`.
///
/// # Errors
///
/// See [`ac_analysis`].
pub(crate) fn ac_sweep_until(
    circuit: &Circuit,
    op: &DcSolution,
    frequencies: &[f64],
    mut stop: impl FnMut(&AcSweep) -> bool,
) -> Result<AcSweep> {
    if frequencies.is_empty() {
        return Err(CircuitError::InvalidAnalysis {
            reason: "AC sweep needs at least one frequency".to_string(),
        });
    }
    if frequencies.iter().any(|&f| !(f > 0.0) || !f.is_finite()) {
        return Err(CircuitError::InvalidAnalysis {
            reason: "AC sweep frequencies must be positive and finite".to_string(),
        });
    }
    let layout = MnaLayout::new(circuit);
    let size = layout.size();
    if size != op.layout().size() {
        return Err(CircuitError::InvalidAnalysis {
            reason: "operating point does not match circuit".to_string(),
        });
    }
    let system = AcSystem::new(circuit, &layout, op.solution_vector());
    let mut a = Matrix::zeros(size);
    let mut b = vec![Complex::zero(); size];
    let mut planner = Planner::new(system.structure());
    let mut sweep = AcSweep {
        layout,
        frequencies: Vec::with_capacity(frequencies.len()),
        solutions: vec![Complex::zero(); frequencies.len() * size],
    };
    for (index, &frequency) in frequencies.iter().enumerate() {
        let omega = std::f64::consts::TAU * frequency;
        let x = &mut sweep.solutions[index * size..(index + 1) * size];
        planner.solve(&mut a, &mut b, x, |a, b| system.load(omega, a, b))?;
        sweep.frequencies.push(frequency);
        if stop(&sweep) {
            break;
        }
    }
    sweep.solutions.truncate(sweep.frequencies.len() * size);
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::dc_operating_point;
    use crate::elements::{MosfetModel, MosfetPolarity, SourceWaveform};
    use crate::mna::assemble_ac;

    fn rc_low_pass() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.ac_voltage_source("V1", vin, Circuit::ground(), SourceWaveform::dc(0.0), 1.0).unwrap();
        c.resistor("R1", vin, vout, 1_000.0).unwrap();
        c.capacitor("C1", vout, Circuit::ground(), 159.154943e-9).unwrap(); // fc = 1 kHz
        (c, vout)
    }

    #[test]
    fn low_pass_corner_and_rolloff() {
        let (c, vout) = rc_low_pass();
        let op = dc_operating_point(&c).unwrap();
        let freqs = [10.0, 1_000.0, 100_000.0];
        let sweep = ac_analysis(&c, &op, &freqs).unwrap();
        let mag = sweep.magnitude(vout);
        assert!((mag[0] - 1.0).abs() < 1e-3, "passband {mag:?}");
        assert!((mag[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-2, "corner {mag:?}");
        assert!(mag[2] < 0.02, "stopband {mag:?}");
        // Phase approaches -90° far above the corner.
        let phase = sweep.phasor(vout, 2).arg();
        assert!(phase < -1.4, "phase {phase}");
    }

    #[test]
    fn lc_resonance_peaks_at_resonant_frequency() {
        // Series RLC driven by 1 V AC, output across the capacitor.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        let vout = c.node("vout");
        c.ac_voltage_source("V1", vin, Circuit::ground(), SourceWaveform::dc(0.0), 1.0).unwrap();
        c.resistor("R1", vin, mid, 10.0).unwrap();
        c.inductor("L1", mid, vout, 1e-3).unwrap();
        c.capacitor("C1", vout, Circuit::ground(), 1e-6).unwrap();
        let op = dc_operating_point(&c).unwrap();
        // f0 = 1/(2 pi sqrt(LC)) ≈ 5.03 kHz; Q = sqrt(L/C)/R ≈ 3.16.
        let sweep = ac_analysis(&c, &op, &log_frequency_sweep(100.0, 100_000.0, 201)).unwrap();
        let mag = sweep.magnitude(vout);
        let (peak_index, peak) =
            mag.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
        let f_peak = sweep.frequencies()[peak_index];
        assert!((f_peak / 5_033.0 - 1.0).abs() < 0.1, "peak at {f_peak}");
        assert!(*peak > 2.0 && *peak < 4.0, "Q-limited peak {peak}");
    }

    /// The per-frequency path the sweep replaces: every stamp assembled as a
    /// complex number at each frequency, and an LU that divides by the pivot
    /// for each factor.
    fn per_frequency_reference(circuit: &Circuit, op: &DcSolution, frequency: f64) -> Vec<Complex> {
        let layout = MnaLayout::new(circuit);
        let omega = std::f64::consts::TAU * frequency;
        let (mut a, mut b) = assemble_ac(circuit, &layout, op.solution_vector(), omega);
        let n = a.size();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_mag = a[(k, k)].norm();
            for r in (k + 1)..n {
                let mag = a[(r, k)].norm();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            assert!(pivot_mag >= 1e-300, "singular at {frequency} Hz");
            if pivot_row != k {
                for c in 0..n {
                    let tmp = a[(k, c)];
                    a[(k, c)] = a[(pivot_row, c)];
                    a[(pivot_row, c)] = tmp;
                }
                b.swap(k, pivot_row);
            }
            let pivot = a[(k, k)];
            for r in (k + 1)..n {
                let factor = a[(r, k)] / pivot;
                if factor.norm() == 0.0 {
                    continue;
                }
                for c in k..n {
                    let v = a[(k, c)];
                    a[(r, c)] -= factor * v;
                }
                b[r] = b[r] - factor * b[k];
            }
        }
        let mut x = vec![Complex::zero(); n];
        for k in (0..n).rev() {
            let mut sum = b[k];
            for c in (k + 1)..n {
                sum -= a[(k, c)] * x[c];
            }
            x[k] = sum / a[(k, k)];
        }
        x
    }

    #[test]
    fn the_once_linearised_sweep_matches_the_per_frequency_reference_bit_for_bit() {
        // A common-source NMOS stage driven through an RC, with a Miller
        // capacitor and an LC output filter.
        let mut c = Circuit::new();
        let (vdd, src, gate, drain, out) =
            (c.node("vdd"), c.node("src"), c.node("gate"), c.node("drain"), c.node("out"));
        let gnd = Circuit::ground();
        c.voltage_source("VDD", vdd, gnd, SourceWaveform::dc(5.0)).unwrap();
        c.ac_voltage_source("VIN", src, gnd, SourceWaveform::dc(1.2), 1.0).unwrap();
        c.resistor("RG", src, gate, 1_000.0).unwrap();
        c.capacitor("CG", gate, gnd, 1e-12).unwrap();
        c.capacitor("CM", gate, drain, 0.5e-12).unwrap();
        let nmos = MosfetModel::nmos_default();
        c.mosfet("M1", drain, gate, gnd, MosfetPolarity::Nmos, nmos, 10e-6, 1e-6).unwrap();
        c.resistor("RD", vdd, drain, 10_000.0).unwrap();
        c.inductor("LO", drain, out, 1e-3).unwrap();
        c.capacitor("CO", out, gnd, 1e-9).unwrap();
        let op = dc_operating_point(&c).unwrap();
        let frequencies = log_frequency_sweep(1.0, 1e9, 61);
        let sweep = ac_analysis(&c, &op, &frequencies).unwrap();
        let size = sweep.layout.size();
        let bits = |x: &[Complex]| -> Vec<(u64, u64)> {
            x.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for (index, &frequency) in frequencies.iter().enumerate() {
            // Every node voltage and branch current.
            let solution = &sweep.solutions[index * size..(index + 1) * size];
            let reference = per_frequency_reference(&c, &op, frequency);
            assert_eq!(bits(solution), bits(&reference), "at {frequency} Hz");
        }
    }

    #[test]
    fn invalid_sweeps_are_rejected() {
        let (c, _) = rc_low_pass();
        let op = dc_operating_point(&c).unwrap();
        assert!(ac_analysis(&c, &op, &[]).is_err());
        assert!(ac_analysis(&c, &op, &[-1.0]).is_err());
        assert!(ac_analysis(&c, &op, &[0.0]).is_err());
    }

    #[test]
    fn log_sweep_is_monotonic_and_hits_endpoints() {
        let f = log_frequency_sweep(1.0, 1e6, 61);
        assert_eq!(f.len(), 61);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[60] - 1e6).abs() < 1e-6);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    #[should_panic(expected = "invalid frequency range")]
    fn log_sweep_rejects_bad_range() {
        log_frequency_sweep(10.0, 1.0, 10);
    }
}
