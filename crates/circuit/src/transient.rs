//! Fixed-step transient analysis that skips its quiet lead-in and ends once
//! the circuit has settled.
//!
//! Until the first step at whose end some independent source has left its DC
//! value, the circuit rests at its operating point, which the analysis records
//! instead of solving.  After the last change of every independent source, the
//! analysis stops at the first step that moved no node voltage by more than
//! `ABSTOL · time_step / (stop_time − t)`, so the skipped steps could move the
//! final value by at most `ABSTOL`, the 1 nV Newton tolerance.  A window may
//! hold at most a million steps (see [`transient_analysis`]).

use crate::dc::{dc_operating_point, newton_solve, DcSolution, NewtonWorkspace, ABSTOL};
use crate::elements::{Element, SourceWaveform};
use crate::mna::{AssemblyOptions, DynamicState, IntegrationMethod, MnaLayout};
use crate::netlist::{Circuit, NodeId};
use crate::waveform::Waveform;
use crate::{CircuitError, Result};

/// The most steps a window may hold, `stop_time / time_step`: a window the
/// settle rule never ends early runs every one of its steps.
const MAX_TIME_STEPS: usize = 1_000_000;

/// Parameters of a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientParams {
    /// Upper end of the simulated window in seconds.  The analysis ends
    /// earlier once the circuit has settled after its last source change
    /// (see [`transient_analysis`]).
    pub stop_time: f64,
    /// Fixed time step in seconds.
    pub time_step: f64,
}

impl TransientParams {
    /// Creates parameters for a window of `stop_time` seconds in steps of
    /// `time_step` seconds.
    pub fn new(stop_time: f64, time_step: f64) -> Self {
        TransientParams { stop_time, time_step }
    }
}

/// Result of a transient analysis.
#[derive(Debug, Clone)]
pub struct TransientResult {
    layout: MnaLayout,
    times: Vec<f64>,
    /// The accepted solution vectors back to back, `layout.size()` each.
    solutions: Vec<f64>,
}

impl TransientResult {
    /// Simulated time points in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of accepted time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage of `node` at time-point index `index`.
    pub fn voltage(&self, node: NodeId, index: usize) -> f64 {
        self.layout.voltage(self.solution(index), node)
    }

    /// Full waveform of a node voltage.
    pub fn waveform(&self, node: NodeId) -> Waveform {
        let values = (0..self.len()).map(|i| self.voltage(node, i)).collect();
        Waveform::new(self.times.clone(), values)
    }

    /// Branch current of element `element_index` at time-point `index`
    /// (only for elements carrying a branch unknown).
    pub fn branch_current(&self, element_index: usize, index: usize) -> Option<f64> {
        self.layout.branch_row(element_index).map(|row| self.solution(index)[row])
    }

    /// The solution vector at time-point index `index`.
    fn solution(&self, index: usize) -> &[f64] {
        let size = self.layout.size();
        &self.solutions[index * size..(index + 1) * size]
    }
}

/// Runs a fixed-step transient analysis.
///
/// The initial condition is the DC operating point with every source at its
/// `t = 0` value.  The first step uses backward Euler (no history is available
/// for the trapezoidal rule); subsequent steps use the trapezoidal rule.  If
/// a Newton solve fails at some time point, the step is retried with backward
/// Euler and half the step size before giving up.
///
/// Steps at whose end every independent source still holds its DC value,
/// before any step has been solved, record the operating point exactly, with
/// zero capacitor currents, instead of solving for it again: nothing has
/// moved the circuit yet, and a solve would only add rounding.  The first
/// solved step uses backward Euler only if it is the run's first step.
///
/// The analysis ends before `stop_time` once the circuit has settled: at the
/// first step that begins at or after the last change of every independent
/// source and moves no node voltage by more than
/// `ABSTOL · time_step / (stop_time − t)`, with `t` the step's end and
/// `ABSTOL` the 1 nV Newton tolerance.  A DC source last changes at 0 and a
/// step at its delay.  While a circuit with constant sources settles towards
/// a stable operating point, no node's per-step change grows again, so the
/// skipped steps could move the final value by at most `ABSTOL`.  The result
/// may therefore hold fewer than `1 + stop_time / time_step` points;
/// [`Waveform::value_at`] past its last sample returns the settled value.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidAnalysis`] unless `0 < time_step <
/// stop_time < ∞` and the window holds at most a million steps
/// (`stop_time / time_step ≤ 10⁶`), and propagates DC/Newton failures.
///
/// # Example
///
/// ```
/// use stc_circuit::{transient_analysis, Circuit, SourceWaveform, TransientParams};
///
/// # fn main() -> Result<(), stc_circuit::CircuitError> {
/// // RC charging curve: v(t) = 1 - exp(-t/RC), RC = 1 ms.
/// let mut circuit = Circuit::new();
/// let vin = circuit.node("vin");
/// let vout = circuit.node("vout");
/// circuit.voltage_source("V1", vin, Circuit::ground(), SourceWaveform::step(0.0, 1.0, 0.0))?;
/// circuit.resistor("R1", vin, vout, 1_000.0)?;
/// circuit.capacitor("C1", vout, Circuit::ground(), 1e-6)?;
/// let result = transient_analysis(&circuit, &TransientParams::new(5e-3, 5e-6))?;
/// let wave = result.waveform(vout);
/// assert!((wave.final_value() - 1.0).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn transient_analysis(circuit: &Circuit, params: &TransientParams) -> Result<TransientResult> {
    transient_analysis_from(circuit, params, None)
}

/// Same as [`transient_analysis`] but starting from a caller-supplied DC
/// operating point (which must belong to the same circuit).
///
/// # Errors
///
/// See [`transient_analysis`].
pub fn transient_analysis_from(
    circuit: &Circuit,
    params: &TransientParams,
    initial: Option<&DcSolution>,
) -> Result<TransientResult> {
    if !(params.time_step > 0.0)
        || !(params.stop_time > params.time_step)
        || !params.stop_time.is_finite()
    {
        return Err(CircuitError::InvalidAnalysis {
            reason: format!(
                "transient needs 0 < time_step ({}) < stop_time ({}) < ∞",
                params.time_step, params.stop_time
            ),
        });
    }
    let steps = params.stop_time / params.time_step;
    if steps > MAX_TIME_STEPS as f64 {
        return Err(CircuitError::InvalidAnalysis {
            reason: format!("transient window of {steps:e} steps exceeds {MAX_TIME_STEPS}"),
        });
    }
    let layout = MnaLayout::new(circuit);
    let sources_constant_from =
        source_waveforms(circuit).map(SourceWaveform::last_change).fold(0.0, f64::max);
    let node_rows = layout.node_count() - 1;
    let op;
    let initial_x: &[f64] = match initial {
        Some(solution) if solution.layout().size() == layout.size() => solution.solution_vector(),
        _ => {
            op = dc_operating_point(circuit)?;
            op.solution_vector()
        }
    };

    let element_count = circuit.elements().len();
    let mut state =
        DynamicState { x: initial_x.to_vec(), capacitor_currents: vec![0.0; element_count] };
    let mut times = vec![0.0];
    let mut solutions = state.x.clone();
    let mut work = NewtonWorkspace::new(circuit, &layout, true);
    let mut x_new = vec![0.0; layout.size()];

    let mut time = 0.0;
    let mut first_step = true;
    let mut lead_in = true;
    while time < params.stop_time - 0.5 * params.time_step {
        let h = params.time_step;
        let t_new = time + h;
        lead_in = lead_in
            && source_waveforms(circuit).all(|source| source.value_at(t_new) == source.dc_value());
        if lead_in {
            // Nothing has moved the circuit off its operating point yet.
            x_new.copy_from_slice(&state.x);
        } else {
            let method = if first_step {
                IntegrationMethod::BackwardEuler
            } else {
                IntegrationMethod::Trapezoidal
            };
            if step(&state, &mut x_new, (t_new, h, method), &mut work).is_err() {
                // Retry with the more robust combination: backward Euler and
                // two half-steps.
                let half = h / 2.0;
                let be = IntegrationMethod::BackwardEuler;
                let mut mid_state = state.clone();
                step(&mid_state, &mut x_new, (time + half, half, be), &mut work)?;
                advance_state(circuit, &layout, &mut mid_state, &mut x_new, half, be);
                step(&mid_state, &mut x_new, (t_new, half, be), &mut work)?;
            }
            advance_state(circuit, &layout, &mut state, &mut x_new, h, method);
        }
        times.push(t_new);
        solutions.extend_from_slice(&state.x);
        // `x_new` now holds the previous solution.
        let tolerance = ABSTOL * h / (params.stop_time - t_new);
        if time >= sources_constant_from
            && state.x[..node_rows]
                .iter()
                .zip(&x_new[..node_rows])
                .all(|(new, old)| (new - old).abs() <= tolerance)
        {
            break;
        }
        time = t_new;
        first_step = false;
    }
    Ok(TransientResult { layout, times, solutions })
}

/// The waveforms of `circuit`'s independent sources.
fn source_waveforms(circuit: &Circuit) -> impl Iterator<Item = &SourceWaveform> {
    circuit.elements().iter().filter_map(|element| match element {
        Element::VoltageSource { waveform, .. } | Element::CurrentSource { waveform, .. } => {
            Some(waveform)
        }
        _ => None,
    })
}

/// Solves the time step `(t_new, h, method)` from `state` into `x_new`.
fn step(
    state: &DynamicState,
    x_new: &mut Vec<f64>,
    time_step: (f64, f64, IntegrationMethod),
    work: &mut NewtonWorkspace,
) -> Result<()> {
    let options = AssemblyOptions { gmin: 1e-12, source_scale: 1.0, time_step: Some(time_step) };
    x_new.copy_from_slice(&state.x);
    newton_solve(x_new, Some(state), &options, work)
}

/// Accepts the step to `x_new`: updates the capacitor currents in place and
/// swaps `x_new` into the state (leaving the previous solution in `x_new`).
fn advance_state(
    circuit: &Circuit,
    layout: &MnaLayout,
    state: &mut DynamicState,
    x_new: &mut Vec<f64>,
    h: f64,
    method: IntegrationMethod,
) {
    for (index, element) in circuit.elements().iter().enumerate() {
        if let Element::Capacitor { a, b, capacitance, .. } = element {
            let v_new = layout.voltage(x_new, *a) - layout.voltage(x_new, *b);
            let v_old = layout.voltage(&state.x, *a) - layout.voltage(&state.x, *b);
            let current = &mut state.capacitor_currents[index];
            *current = match method {
                IntegrationMethod::BackwardEuler => capacitance / h * (v_new - v_old),
                IntegrationMethod::Trapezoidal => {
                    2.0 * capacitance / h * (v_new - v_old) - *current
                }
            };
        }
    }
    std::mem::swap(&mut state.x, x_new);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_step_response_matches_analytic_solution() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("V1", vin, Circuit::ground(), SourceWaveform::step(0.0, 1.0, 0.0))
            .unwrap();
        c.resistor("R1", vin, vout, 1_000.0).unwrap();
        c.capacitor("C1", vout, Circuit::ground(), 1e-6).unwrap();
        let result = transient_analysis(&c, &TransientParams::new(5e-3, 2e-6)).unwrap();
        let wave = result.waveform(vout);
        // Compare against 1 - exp(-t/RC) at a few points.
        for &t in &[0.5e-3, 1e-3, 2e-3] {
            let expected = 1.0 - (-t / 1e-3_f64).exp();
            assert!(
                (wave.value_at(t) - expected).abs() < 0.01,
                "t={t}: {} vs {expected}",
                wave.value_at(t)
            );
        }
    }

    #[test]
    fn rlc_step_rings_with_expected_overshoot() {
        // Series RLC: R = 50, L = 1 mH, C = 1 µF -> zeta ≈ 0.79 overshoot small;
        // use R = 10 for zeta ≈ 0.158 -> overshoot ≈ exp(-pi*z/sqrt(1-z^2)) ≈ 0.60.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        let vout = c.node("vout");
        c.voltage_source("V1", vin, Circuit::ground(), SourceWaveform::step(0.0, 1.0, 0.0))
            .unwrap();
        c.resistor("R1", vin, mid, 10.0).unwrap();
        c.inductor("L1", mid, vout, 1e-3).unwrap();
        c.capacitor("C1", vout, Circuit::ground(), 1e-6).unwrap();
        let result = transient_analysis(&c, &TransientParams::new(3e-3, 1e-6)).unwrap();
        let wave = result.waveform(vout);
        let zeta = 10.0 / 2.0 * (1e-6f64 / 1e-3).sqrt();
        let expected = (-std::f64::consts::PI * zeta / (1.0 - zeta * zeta).sqrt()).exp();
        let measured = wave.overshoot();
        assert!((measured - expected).abs() < 0.08, "overshoot {measured} vs analytic {expected}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source("V1", a, Circuit::ground(), SourceWaveform::dc(1.0)).unwrap();
        c.resistor("R1", a, Circuit::ground(), 1.0).unwrap();
        assert!(transient_analysis(&c, &TransientParams::new(0.0, 1e-6)).is_err());
        assert!(transient_analysis(&c, &TransientParams::new(1e-3, 0.0)).is_err());
        assert!(transient_analysis(&c, &TransientParams::new(1e-6, 1e-3)).is_err());
        // A circuit that never settles would run every step: an infinite
        // window would never return, nor would a finite one of 1e306 steps.
        assert!(matches!(
            transient_analysis(&c, &TransientParams::new(f64::INFINITY, 1e-6)),
            Err(CircuitError::InvalidAnalysis { .. })
        ));
        assert!(matches!(
            transient_analysis(&c, &TransientParams::new(1e300, 1e-6)),
            Err(CircuitError::InvalidAnalysis { .. })
        ));
    }

    #[test]
    fn the_quiet_lead_in_holds_the_operating_point_exactly() {
        let (c, vout) = rc_driven_by(SourceWaveform::step(0.3, 1.0, 50e-6));
        let op = dc_operating_point(&c).unwrap();
        let result = transient_analysis(&c, &TransientParams::new(200e-6, 1e-6)).unwrap();
        let vin = c.find_node("vin").unwrap();
        let lead_in = result.times().iter().take_while(|&&t| t <= 50e-6).count();
        assert_eq!(lead_in, 51);
        for index in 0..lead_in {
            for node in [vin, vout] {
                assert_eq!(result.voltage(node, index).to_bits(), op.voltage(node).to_bits());
            }
            assert_eq!(result.branch_current(0, index), op.branch_current(0));
        }
        assert!((result.waveform(vout).final_value() - 1.0).abs() < 1e-6);
        // A circuit whose sources never change still ends after one step.
        let (dc, _) = rc_driven_by(SourceWaveform::dc(0.3));
        assert_eq!(transient_analysis(&dc, &TransientParams::new(200e-6, 1e-6)).unwrap().len(), 2);
    }

    #[test]
    fn a_step_at_zero_has_no_lead_in_and_keeps_its_samples() {
        // Its first step is solved, with backward Euler, as before the lead-in
        // rule; the bits were captured before it.
        let (c, vout) = rc_driven_by(SourceWaveform::step(0.0, 1.0, 0.0));
        let result = transient_analysis(&c, &TransientParams::new(100e-6, 0.1e-6)).unwrap();
        assert_eq!(result.len(), 252);
        let pinned = [
            (1, 0x3fb745d174540109),
            (2, 0x3fc6b7f7224fbcc5),
            (10, 0x3fe42e703408515c),
            (251, 0x3fefffffff74dca0),
        ];
        for (index, bits) in pinned {
            assert_eq!(result.voltage(vout, index).to_bits(), bits, "sample {index}");
        }
    }

    /// An RC low-pass (τ = 1 µs) driven by `source`, with its output node.
    fn rc_driven_by(source: SourceWaveform) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("V1", vin, Circuit::ground(), source).unwrap();
        c.resistor("R1", vin, vout, 1_000.0).unwrap();
        c.capacitor("C1", vout, Circuit::ground(), 1e-9).unwrap();
        (c, vout)
    }

    #[test]
    fn a_delayed_step_is_never_cut_before_its_delay() {
        // The circuit sits still at its operating point until the step.
        let (c, vout) = rc_driven_by(SourceWaveform::step(0.0, 1.0, 50e-6));
        let result = transient_analysis(&c, &TransientParams::new(200e-6, 0.1e-6)).unwrap();
        let end = *result.times().last().unwrap();
        assert!(end > 60e-6 && end < 200e-6, "ended at {end}");
        let wave = result.waveform(vout);
        assert_eq!(wave.value_at(49e-6), 0.0);
        assert!((wave.final_value() - 1.0).abs() < 1e-6, "final {}", wave.final_value());
    }

    #[test]
    fn a_settled_run_ends_early_within_abstol_of_the_full_window() {
        let (stop_time, h) = (100e-6, 0.1e-6);
        let params = TransientParams::new(stop_time, h);
        let (c, vout) = rc_driven_by(SourceWaveform::step(0.0, 1.0, 0.0));
        let settled = transient_analysis(&c, &params).unwrap();
        // Per-step change 0.1·e^(−t/τ) meets 1e-9·h / (stop_time − t) near 25 τ.
        let end = *settled.times().last().unwrap();
        assert!(end > 20e-6 && end < 30e-6, "ended at {end}");
        // The full window's figures: the same drive at every sample time from a
        // piece-wise-linear source that kept changing until `stop_time`, run to
        // all 1,001 points.
        let (full_final, full_at_10us) =
            (f64::from_bits(0x3fefffffff768fa7), f64::from_bits(0x3fefffa1207be615));
        let settled = settled.waveform(vout);
        assert!((settled.final_value() - full_final).abs() <= ABSTOL);
        assert_eq!(settled.value_at(10e-6).to_bits(), full_at_10us.to_bits());
    }
}
