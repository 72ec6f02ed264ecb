//! DC operating-point analysis (Newton–Raphson with gmin and source stepping).
//!
//! The Newton iterations of one analysis (a DC operating point here, every
//! time step of a transient) assemble their Jacobians from one
//! [`StampProgram`], compiled once per analysis, and stamp the same entries,
//! whose structure the program reports up front.  So they solve through the
//! thread's factorization plans for that structure (see [`crate::linalg`]):
//! each iteration replays the plan that solved the last system on a copy of
//! the assembled system, and one that leaves it is copied again for each of
//! the structure's other plans, then for the dense LU.  Each solution has
//! the dense LU's bits.

use crate::linalg::{Matrix, Planner};
use crate::mna::{AssemblyOptions, DynamicState, MnaLayout, StampProgram};
use crate::netlist::{Circuit, NodeId};
use crate::{CircuitError, Result};

/// Maximum Newton iterations per solve attempt.
const MAX_NEWTON_ITERATIONS: usize = 300;
/// Largest node-voltage update applied in one Newton step (volts).
const VOLTAGE_STEP_LIMIT: f64 = 0.5;
/// Absolute convergence tolerance on node voltages (volts).
pub(crate) const ABSTOL: f64 = 1e-9;
/// Relative convergence tolerance on node voltages.
const RELTOL: f64 = 1e-6;

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    layout: MnaLayout,
    x: Vec<f64>,
}

impl DcSolution {
    pub(crate) fn new(layout: MnaLayout, x: Vec<f64>) -> Self {
        DcSolution { layout, x }
    }

    /// Voltage of a node (0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.layout.voltage(&self.x, node)
    }

    /// Current through an element that carries a branch unknown (a voltage
    /// source or an inductor), by element index.
    ///
    /// The current flows from the element's positive/first terminal through
    /// the element to its negative/second terminal.
    pub fn branch_current(&self, element_index: usize) -> Option<f64> {
        self.layout.branch_row(element_index).map(|row| self.x[row])
    }

    /// The raw solution vector (node voltages then branch currents).
    pub fn solution_vector(&self) -> &[f64] {
        &self.x
    }

    /// The MNA layout used to interpret [`DcSolution::solution_vector`].
    pub fn layout(&self) -> &MnaLayout {
        &self.layout
    }
}

/// One analysis's stamp program, which assembles each Newton iteration's
/// system into its own buffers, the buffers a copy of that system is
/// factorized and solved in, allocated once per analysis, and the analysis's
/// planner.
pub(crate) struct NewtonWorkspace {
    program: StampProgram,
    /// Whether the iterations assemble transient systems (else DC ones).
    transient: bool,
    /// Node rows, which come first in the solution vector.
    node_rows: usize,
    /// The copy of the assembled system a factorization overwrites.
    jacobian: Matrix<f64>,
    rhs: Vec<f64>,
    next: Vec<f64>,
    planner: Planner,
}

impl NewtonWorkspace {
    /// The workspace of DC or, with `transient`, transient Newton solves of
    /// `circuit`.
    pub(crate) fn new(circuit: &Circuit, layout: &MnaLayout, transient: bool) -> Self {
        let program = StampProgram::new(circuit, layout);
        let structure =
            if transient { program.transient_structure() } else { program.dc_structure() };
        let planner = Planner::new(structure.to_vec());
        let size = layout.size();
        NewtonWorkspace {
            program,
            transient,
            node_rows: layout.node_count() - 1,
            jacobian: Matrix::zeros(size),
            rhs: vec![0.0; size],
            next: vec![0.0; size],
            planner,
        }
    }
}

/// Runs one Newton–Raphson solve, iterating in place from the initial guess
/// in `x`.  On success `x` holds the solution; on failure its contents are
/// unspecified.
///
/// Each iteration assembles its Jacobian once and solves a copy of it
/// through the workspace's planner, which copies it again before every
/// further try.
pub(crate) fn newton_solve(
    x: &mut Vec<f64>,
    dynamic: Option<&DynamicState>,
    options: &AssemblyOptions,
    work: &mut NewtonWorkspace,
) -> Result<()> {
    debug_assert_eq!(options.time_step.is_some(), work.transient, "assembly of another kind");
    let node_rows = work.node_rows;
    let analysis = if work.transient { "transient" } else { "dc" };
    for _iteration in 0..MAX_NEWTON_ITERATIONS {
        work.program.assemble(x, dynamic, options);
        let (matrix, rhs) = work.program.system();
        let load = |jacobian: &mut Matrix<f64>, jacobian_rhs: &mut [f64]| {
            jacobian.values_mut().copy_from_slice(matrix);
            jacobian_rhs.copy_from_slice(rhs);
        };
        work.planner.solve(&mut work.jacobian, &mut work.rhs, &mut work.next, load)?;
        let x_new = &work.next;
        // Largest node-voltage change decides convergence and damping; branch
        // currents follow the voltages.
        let mut max_delta = 0.0f64;
        for row in 0..node_rows {
            max_delta = max_delta.max((x_new[row] - x[row]).abs());
        }
        let converged = (0..node_rows)
            .all(|row| (x_new[row] - x[row]).abs() <= ABSTOL + RELTOL * x_new[row].abs());
        if max_delta > VOLTAGE_STEP_LIMIT {
            let scale = VOLTAGE_STEP_LIMIT / max_delta;
            for row in 0..x.len() {
                x[row] += (x_new[row] - x[row]) * scale;
            }
        } else {
            std::mem::swap(x, &mut work.next);
        }
        if converged {
            return Ok(());
        }
    }
    Err(CircuitError::NoConvergence { analysis, iterations: MAX_NEWTON_ITERATIONS })
}

/// Computes the DC operating point of a circuit.
///
/// Every circuit, linear or not, is solved by Newton–Raphson from all zeros,
/// with each iteration's node-voltage step limited to 0.5 V, falling back to
/// gmin stepping and then source stepping when the plain iteration fails to
/// converge.
///
/// # Errors
///
/// Returns [`CircuitError::EmptyCircuit`] for circuits without elements,
/// [`CircuitError::SingularMatrix`] for structurally defective netlists and
/// [`CircuitError::NoConvergence`] when all continuation strategies fail.
///
/// # Example
///
/// ```
/// use stc_circuit::{dc_operating_point, Circuit, SourceWaveform};
///
/// # fn main() -> Result<(), stc_circuit::CircuitError> {
/// let mut circuit = Circuit::new();
/// let vin = circuit.node("vin");
/// let vout = circuit.node("vout");
/// circuit.voltage_source("V1", vin, Circuit::ground(), SourceWaveform::dc(2.0))?;
/// circuit.resistor("R1", vin, vout, 1_000.0)?;
/// circuit.resistor("R2", vout, Circuit::ground(), 3_000.0)?;
/// let op = dc_operating_point(&circuit)?;
/// assert!((op.voltage(vout) - 1.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(circuit: &Circuit) -> Result<DcSolution> {
    if circuit.elements().is_empty() || circuit.node_count() < 2 {
        return Err(CircuitError::EmptyCircuit);
    }
    let layout = MnaLayout::new(circuit);
    let mut work = NewtonWorkspace::new(circuit, &layout, false);

    // 1. Plain Newton from all zeros.
    let mut x = vec![0.0; layout.size()];
    if newton_solve(&mut x, None, &AssemblyOptions::default(), &mut work).is_ok() {
        return Ok(DcSolution::new(layout, x));
    }

    // 2. gmin stepping: start with a heavily damped circuit and relax.
    x.fill(0.0);
    let gmin_ok =
        [-3.0f64, -4.0, -5.0, -6.0, -7.0, -8.0, -9.0, -10.0, -11.0, -12.0].iter().all(|exponent| {
            let options =
                AssemblyOptions { gmin: 10f64.powf(*exponent), ..AssemblyOptions::default() };
            newton_solve(&mut x, None, &options, &mut work).is_ok()
        });
    if gmin_ok {
        return Ok(DcSolution::new(layout, x));
    }

    // 3. Source stepping: ramp all independent sources from 10 % to 100 %.
    x.fill(0.0);
    for step in 1..=10 {
        let options =
            AssemblyOptions { source_scale: step as f64 / 10.0, ..AssemblyOptions::default() };
        newton_solve(&mut x, None, &options, &mut work)?;
    }
    Ok(DcSolution::new(layout, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{MosfetModel, MosfetPolarity, SourceWaveform};

    #[test]
    fn empty_circuit_is_rejected() {
        let c = Circuit::new();
        assert!(matches!(dc_operating_point(&c), Err(CircuitError::EmptyCircuit)));
    }

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("V1", vin, Circuit::ground(), SourceWaveform::dc(10.0)).unwrap();
        c.resistor("R1", vin, vout, 7000.0).unwrap();
        c.resistor("R2", vout, Circuit::ground(), 3000.0).unwrap();
        let op = dc_operating_point(&c).unwrap();
        assert!((op.voltage(vout) - 3.0).abs() < 1e-6);
        // Supply current = 10 V / 10 kΩ = 1 mA, flowing out of the + terminal
        // through the external circuit, i.e. -1 mA through the source branch.
        let i = op.branch_current(0).unwrap();
        assert!((i + 1e-3).abs() < 1e-9, "source current {i}");
    }

    #[test]
    fn nmos_source_follower_tracks_gate_minus_threshold() {
        // Gate at 2.5 V, drain at 5 V, source through 10 kΩ to ground:
        // the source settles near Vg - Vth - Vov.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let gate = c.node("gate");
        let src = c.node("src");
        c.voltage_source("VDD", vdd, Circuit::ground(), SourceWaveform::dc(5.0)).unwrap();
        c.voltage_source("VG", gate, Circuit::ground(), SourceWaveform::dc(2.5)).unwrap();
        c.mosfet(
            "M1",
            vdd,
            gate,
            src,
            MosfetPolarity::Nmos,
            MosfetModel::nmos_default(),
            50e-6,
            1e-6,
        )
        .unwrap();
        c.resistor("RS", src, Circuit::ground(), 10_000.0).unwrap();
        let op = dc_operating_point(&c).unwrap();
        let vs = op.voltage(src);
        assert!(vs > 1.4 && vs < 1.9, "source voltage {vs}");
    }

    #[test]
    fn nmos_inverter_output_swings_low_when_input_high() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("VDD", vdd, Circuit::ground(), SourceWaveform::dc(5.0)).unwrap();
        c.voltage_source("VIN", vin, Circuit::ground(), SourceWaveform::dc(5.0)).unwrap();
        c.resistor("RD", vdd, vout, 10_000.0).unwrap();
        c.mosfet(
            "M1",
            vout,
            vin,
            Circuit::ground(),
            MosfetPolarity::Nmos,
            MosfetModel::nmos_default(),
            20e-6,
            1e-6,
        )
        .unwrap();
        let op = dc_operating_point(&c).unwrap();
        assert!(op.voltage(vout) < 0.5, "inverter output {}", op.voltage(vout));
    }

    #[test]
    fn floating_node_reports_singular_or_resolves_via_gmin() {
        // A node connected only through a capacitor has no DC path; the gmin
        // conductance keeps the matrix solvable and pins it near ground.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.voltage_source("V1", a, Circuit::ground(), SourceWaveform::dc(1.0)).unwrap();
        c.capacitor("C1", a, b, 1e-9).unwrap();
        let op = dc_operating_point(&c).unwrap();
        assert!(op.voltage(b).abs() < 1e-6);
    }
}
