//! Modified nodal analysis (MNA) assembly.
//!
//! The unknown vector `x` contains the voltages of every non-ground node
//! followed by one branch current per element that requires it (voltage
//! sources and inductors).  The assembler produces `A x = b` systems for
//! DC / transient Newton iterations (real) and for AC small-signal analysis
//! (complex).
//!
//! A Newton analysis compiles the circuit once into a [`StampProgram`]: every
//! element's matrix slots and right-hand-side rows, with the values that
//! depend only on the element.  Each iteration then runs the program, which
//! performs the additions of stamping element by element in the same order,
//! so the bits are those of stamping, at about 0.7× of its cost on the
//! op-amp's transient systems.  An AC sweep linearises the circuit once
//! ([`AcSystem`]) and adds the reactive stamps per frequency.

use crate::elements::mosfet::{self, MosfetConstants};
use crate::elements::{Element, SourceWaveform};
use crate::linalg::{Complex, Matrix};
use crate::netlist::{Circuit, NodeId};

/// Time-integration scheme of one transient step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntegrationMethod {
    /// First-order backward Euler (the first step and the half-step retry).
    BackwardEuler,
    /// Second-order trapezoidal rule (every other step; preserves
    /// ringing/overshoot).
    Trapezoidal,
}

/// Mapping from circuit nodes/elements to rows of the MNA system.
#[derive(Debug, Clone)]
pub struct MnaLayout {
    node_count: usize,
    branch_index: Vec<Option<usize>>,
    size: usize,
}

impl MnaLayout {
    /// Builds the layout for a circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let node_count = circuit.node_count();
        let mut branch_index = vec![None; circuit.elements().len()];
        let mut next = node_count - 1;
        for (index, element) in circuit.elements().iter().enumerate() {
            if element.needs_branch_current() {
                branch_index[index] = Some(next);
                next += 1;
            }
        }
        MnaLayout { node_count, branch_index, size: next }
    }

    /// Number of unknowns.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Row/column of a node, or `None` for ground.
    pub fn node_row(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Row/column of an element's branch current (if it has one).
    pub fn branch_row(&self, element_index: usize) -> Option<usize> {
        self.branch_index.get(element_index).copied().flatten()
    }

    /// Voltage of `node` in the solution vector `x` (0 for ground).
    pub fn voltage(&self, x: &[f64], node: NodeId) -> f64 {
        match self.node_row(node) {
            Some(row) => x[row],
            None => 0.0,
        }
    }

    /// Complex voltage of `node` in an AC solution vector.
    pub fn voltage_complex(&self, x: &[Complex], node: NodeId) -> Complex {
        match self.node_row(node) {
            Some(row) => x[row],
            None => Complex::zero(),
        }
    }

    /// Number of circuit nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

/// State carried between transient time points.
#[derive(Debug, Clone)]
pub struct DynamicState {
    /// Solution vector at the previous accepted time point.
    pub x: Vec<f64>,
    /// Capacitor currents at the previous time point, indexed by element.
    pub capacitor_currents: Vec<f64>,
}

/// Options controlling one real-valued assembly.
#[derive(Debug, Clone, Copy)]
pub struct AssemblyOptions {
    /// Conductance added from every non-ground node to ground
    /// (gmin stepping uses large values; the final solve uses `1e-12`).
    pub gmin: f64,
    /// Multiplier applied to every independent source (source stepping).
    pub source_scale: f64,
    /// For transient assemblies: the new time point, the step size and the
    /// integration method.  `None` selects DC assembly.
    pub time_step: Option<(f64, f64, IntegrationMethod)>,
}

impl Default for AssemblyOptions {
    fn default() -> Self {
        AssemblyOptions { gmin: 1e-12, source_scale: 1.0, time_step: None }
    }
}

/// The real MNA stamps of one circuit, compiled once per analysis from the
/// circuit and its layout.
///
/// The program holds every element's matrix slots (`row * size + col`) and
/// right-hand-side rows, in element order, with the values that depend only
/// on the element: each resistor's conductance and each MOSFET's `β`,
/// `|V_th|` and `λ` ([`MosfetConstants`]).  [`StampProgram::assemble`]
/// performs the additions of stamping the circuit element by element, in the
/// same order, so each entry gets the same bits.  It assembles into the
/// program's own buffers, which hold one trash entry past the matrix and one
/// past the right-hand side: a stamp in a ground row or column is aimed at
/// the trash entry when the program is compiled (as SPICE3's sparse matrix
/// package aims it at its `TrashCan`), so that assembling never tests for
/// ground, and [`StampProgram::system`] leaves the trash out.
///
/// The entries a stamp touches depend only on the circuit and on whether the
/// assembly is DC or transient, never on a value, so the program reports the
/// structure of both kinds of system up front.
#[derive(Debug, Clone)]
pub(crate) struct StampProgram {
    size: usize,
    /// The matrix of the last assembly, row-major, then the trash entry.
    matrix: Vec<f64>,
    /// The right-hand side of the last assembly, then the trash entry.
    rhs: Vec<f64>,
    /// The diagonal slot of every non-ground node, where gmin goes.
    gmin: Vec<usize>,
    elements: Vec<Stamp>,
    dc_structure: Vec<bool>,
    transient_structure: Vec<bool>,
}

/// One element's stamps.  Conductance-like slots are `[aa, bb, ab, ba]`,
/// couplings of a branch `br` to rows `a` and `b` are `[(a, br), (b, br),
/// (br, a), (br, b)]`, each stamped in that order.
#[derive(Debug, Clone)]
enum Stamp {
    /// A resistor's conductance `g`.
    Resistor { g: f64, slots: [usize; 4] },
    /// A capacitor, stamped in transient assemblies only: its companion
    /// conductance at `slots` and its companion current at `rows`.  `a` and
    /// `b` are its node rows (`None` for ground).
    Capacitor {
        capacitance: f64,
        /// The element's index, which keys its current in [`DynamicState`].
        index: usize,
        a: Option<usize>,
        b: Option<usize>,
        slots: [usize; 4],
        rows: [usize; 2],
    },
    /// An inductor's coupling, then, in transient assemblies only, its
    /// companion terms at `(br, br)` and in row `br`.
    Inductor {
        inductance: f64,
        a: Option<usize>,
        b: Option<usize>,
        branch: usize,
        coupling: [usize; 4],
        diagonal: usize,
    },
    /// A voltage source's coupling and its value in row `br`.
    VoltageSource { waveform: SourceWaveform, branch: usize, coupling: [usize; 4] },
    /// A current source's value, leaving row `rows[0]` and entering
    /// `rows[1]`.
    CurrentSource { waveform: SourceWaveform, rows: [usize; 2] },
    /// A MOSFET's companion model at `[dg, dd, ds, sg, sd, ss]` and in rows
    /// `[d, s]`; `drain`, `gate` and `source` are its node rows.
    Mosfet {
        device: MosfetConstants,
        drain: Option<usize>,
        gate: Option<usize>,
        source: Option<usize>,
        slots: [usize; 6],
        rows: [usize; 2],
    },
}

impl StampProgram {
    /// Compiles the stamps of `circuit`, laid out by `layout`.
    pub(crate) fn new(circuit: &Circuit, layout: &MnaLayout) -> Self {
        let size = layout.size();
        let trash = size * size;
        let slot = |row: Option<usize>, col: Option<usize>| match (row, col) {
            (Some(row), Some(col)) => row * size + col,
            _ => trash,
        };
        let conductance = |a, b| [slot(a, a), slot(b, b), slot(a, b), slot(b, a)];
        let coupling = |a, b, branch| {
            let branch = Some(branch);
            [slot(a, branch), slot(b, branch), slot(branch, a), slot(branch, b)]
        };
        let row = |row: Option<usize>| row.unwrap_or(size);
        let elements: Vec<Stamp> = circuit
            .elements()
            .iter()
            .enumerate()
            .map(|(index, element)| match element {
                Element::Resistor { a, b, resistance, .. } => Stamp::Resistor {
                    g: 1.0 / resistance,
                    slots: conductance(layout.node_row(*a), layout.node_row(*b)),
                },
                Element::Capacitor { a, b, capacitance, .. } => {
                    let (a, b) = (layout.node_row(*a), layout.node_row(*b));
                    let (slots, rows) = (conductance(a, b), [row(a), row(b)]);
                    Stamp::Capacitor { capacitance: *capacitance, index, a, b, slots, rows }
                }
                Element::Inductor { a, b, inductance, .. } => {
                    let (a, b) = (layout.node_row(*a), layout.node_row(*b));
                    let branch = layout.branch_row(index).expect("an inductor has a branch row");
                    let (coupling, diagonal) = (coupling(a, b, branch), branch * size + branch);
                    Stamp::Inductor { inductance: *inductance, a, b, branch, coupling, diagonal }
                }
                Element::VoltageSource { pos, neg, waveform, .. } => {
                    let branch =
                        layout.branch_row(index).expect("a voltage source has a branch row");
                    let coupling = coupling(layout.node_row(*pos), layout.node_row(*neg), branch);
                    Stamp::VoltageSource { waveform: waveform.clone(), branch, coupling }
                }
                Element::CurrentSource { pos, neg, waveform, .. } => Stamp::CurrentSource {
                    waveform: waveform.clone(),
                    rows: [row(layout.node_row(*pos)), row(layout.node_row(*neg))],
                },
                Element::Mosfet { drain, gate, source, polarity, model, width, length, .. } => {
                    let (d, g, s) =
                        (layout.node_row(*drain), layout.node_row(*gate), layout.node_row(*source));
                    Stamp::Mosfet {
                        device: MosfetConstants::new(model, *polarity, *width, *length),
                        drain: d,
                        gate: g,
                        source: s,
                        slots: [
                            slot(d, g),
                            slot(d, d),
                            slot(d, s),
                            slot(s, g),
                            slot(s, d),
                            slot(s, s),
                        ],
                        rows: [row(d), row(s)],
                    }
                }
            })
            .collect();
        let gmin: Vec<usize> =
            (0..layout.node_count() - 1).map(|row| slot(Some(row), Some(row))).collect();
        let mut dc_structure = vec![false; trash + 1];
        let mut transient_structure = vec![false; trash + 1];
        for &slot in &gmin {
            dc_structure[slot] = true;
            transient_structure[slot] = true;
        }
        for element in &elements {
            let (both, transient_only): (&[usize], &[usize]) = match element {
                Stamp::Resistor { slots, .. } => (slots, &[]),
                Stamp::Mosfet { slots, .. } => (slots, &[]),
                Stamp::Capacitor { slots, .. } => (&[], slots),
                Stamp::Inductor { coupling, diagonal, .. } => {
                    (coupling, std::slice::from_ref(diagonal))
                }
                Stamp::VoltageSource { coupling, .. } => (coupling, &[]),
                Stamp::CurrentSource { .. } => (&[], &[]),
            };
            for &slot in both {
                dc_structure[slot] = true;
                transient_structure[slot] = true;
            }
            transient_only.iter().for_each(|&slot| transient_structure[slot] = true);
        }
        dc_structure.truncate(trash);
        transient_structure.truncate(trash);
        StampProgram {
            size,
            matrix: vec![0.0; trash + 1],
            rhs: vec![0.0; size + 1],
            gmin,
            elements,
            dc_structure,
            transient_structure,
        }
    }

    /// The entries any DC system of the circuit may hold nonzero, row-major.
    pub(crate) fn dc_structure(&self) -> &[bool] {
        &self.dc_structure
    }

    /// The entries any transient system of the circuit may hold nonzero,
    /// row-major.
    pub(crate) fn transient_structure(&self) -> &[bool] {
        &self.transient_structure
    }

    /// The system of the last assembly: its matrix, row-major, and its
    /// right-hand side.
    pub(crate) fn system(&self) -> (&[f64], &[f64]) {
        (&self.matrix[..self.size * self.size], &self.rhs[..self.size])
    }

    /// Assembles the real MNA system for a DC or transient Newton iteration,
    /// linearised around the iterate `x_guess`, into the program's buffers
    /// (see [`StampProgram::system`]), which are cleared first.
    ///
    /// # Panics
    ///
    /// Panics if a transient assembly of a circuit with a capacitor or an
    /// inductor has no `dynamic` state.
    pub(crate) fn assemble(
        &mut self,
        x_guess: &[f64],
        dynamic: Option<&DynamicState>,
        options: &AssemblyOptions,
    ) {
        let (matrix, rhs) = (&mut self.matrix, &mut self.rhs);
        matrix.fill(0.0);
        rhs.fill(0.0);
        // gmin from every node to ground keeps floating nodes and cut-off
        // devices from producing a singular Jacobian.
        for &slot in &self.gmin {
            matrix[slot] += options.gmin;
        }
        let source_value = |waveform: &SourceWaveform| match options.time_step {
            None => waveform.dc_value(),
            Some((t, _, _)) => waveform.value_at(t),
        };
        for element in &self.elements {
            match element {
                Stamp::Resistor { g, slots } => stamp_conductance(matrix, slots, *g),
                Stamp::Capacitor { capacitance, index, a, b, slots, rows } => {
                    // DC: a capacitor is an open circuit — no stamp.
                    let Some((_, h, method)) = options.time_step else { continue };
                    let dynamic = dynamic.expect("transient assembly requires dynamic state");
                    let v_prev = voltage(&dynamic.x, *a) - voltage(&dynamic.x, *b);
                    let i_prev = dynamic.capacitor_currents[*index];
                    let (geq, irhs) = match method {
                        IntegrationMethod::BackwardEuler => {
                            let geq = capacitance / h;
                            (geq, geq * v_prev)
                        }
                        IntegrationMethod::Trapezoidal => {
                            let geq = 2.0 * capacitance / h;
                            (geq, geq * v_prev + i_prev)
                        }
                    };
                    stamp_conductance(matrix, slots, geq);
                    rhs[rows[0]] += irhs;
                    rhs[rows[1]] += -irhs;
                }
                Stamp::Inductor { inductance, a, b, branch, coupling, diagonal } => {
                    // KCL coupling: the branch current leaves `a` and enters
                    // `b`; the branch equation reads `v_a − v_b`, and DC adds
                    // nothing else (an ideal short).
                    stamp_coupling(matrix, coupling);
                    let Some((_, h, method)) = options.time_step else { continue };
                    let dynamic = dynamic.expect("transient assembly requires dynamic state");
                    let i_prev = dynamic.x[*branch];
                    match method {
                        IntegrationMethod::BackwardEuler => {
                            // v - (L/h)(i - i_prev) = 0
                            let leq = inductance / h;
                            matrix[*diagonal] += -leq;
                            rhs[*branch] += -leq * i_prev;
                        }
                        IntegrationMethod::Trapezoidal => {
                            // v + v_prev = (2L/h)(i - i_prev)
                            let leq = 2.0 * inductance / h;
                            let v_prev = voltage(&dynamic.x, *a) - voltage(&dynamic.x, *b);
                            matrix[*diagonal] += -leq;
                            rhs[*branch] += -leq * i_prev + v_prev;
                            // Move the +v_prev term to the RHS with a sign
                            // flip: row reads v_new - leq*i_new = -leq*i_prev - v_prev.
                            rhs[*branch] += -2.0 * v_prev;
                        }
                    }
                }
                Stamp::VoltageSource { waveform, branch, coupling } => {
                    stamp_coupling(matrix, coupling);
                    rhs[*branch] += source_value(waveform) * options.source_scale;
                }
                Stamp::CurrentSource { waveform, rows } => {
                    let value = source_value(waveform) * options.source_scale;
                    // Current flows from `pos` through the source to `neg`.
                    rhs[rows[0]] += -value;
                    rhs[rows[1]] += value;
                }
                Stamp::Mosfet { device, drain, gate, source, slots, rows } => {
                    let vg = voltage(x_guess, *gate);
                    let vd = voltage(x_guess, *drain);
                    let vs = voltage(x_guess, *source);
                    let op = device.linearize(vg, vd, vs);
                    // Linearised drain current:
                    //   ids ≈ ids0 + d_vg (Vg - vg) + d_vd (Vd - vd) + d_vs (Vs - vs)
                    // KCL: ids leaves the drain node and enters the source node.
                    let ieq = op.ids - op.d_vg * vg - op.d_vd * vd - op.d_vs * vs;
                    matrix[slots[0]] += op.d_vg;
                    matrix[slots[1]] += op.d_vd;
                    matrix[slots[2]] += op.d_vs;
                    matrix[slots[3]] += -op.d_vg;
                    matrix[slots[4]] += -op.d_vd;
                    matrix[slots[5]] += -op.d_vs;
                    rhs[rows[0]] += -ieq;
                    rhs[rows[1]] += ieq;
                }
            }
        }
    }
}

/// Stamps a conductance `g` at `[aa, bb, ab, ba]`.
fn stamp_conductance(matrix: &mut [f64], slots: &[usize; 4], g: f64) {
    matrix[slots[0]] += g;
    matrix[slots[1]] += g;
    matrix[slots[2]] += -g;
    matrix[slots[3]] += -g;
}

/// Stamps a branch's coupling `[(a, br), (b, br), (br, a), (br, b)]`.
fn stamp_coupling(matrix: &mut [f64], slots: &[usize; 4]) {
    matrix[slots[0]] += 1.0;
    matrix[slots[1]] += -1.0;
    matrix[slots[2]] += 1.0;
    matrix[slots[3]] += -1.0;
}

/// The voltage of the node at `row` in `x` (0 for ground).
fn voltage(x: &[f64], row: Option<usize>) -> f64 {
    row.map_or(0.0, |row| x[row])
}

/// Complex stamps accumulator with ground-row elision.
struct ComplexStamps {
    a: Matrix<Complex>,
    b: Vec<Complex>,
}

impl ComplexStamps {
    fn new(size: usize) -> Self {
        ComplexStamps { a: Matrix::zeros(size), b: vec![Complex::zero(); size] }
    }

    fn add_a(&mut self, row: Option<usize>, col: Option<usize>, value: Complex) {
        if let (Some(r), Some(c)) = (row, col) {
            self.a.add(r, c, value);
        }
    }

    fn add_b(&mut self, row: Option<usize>, value: Complex) {
        if let Some(r) = row {
            self.b[r] += value;
        }
    }

    fn admittance(&mut self, ra: Option<usize>, rb: Option<usize>, y: Complex) {
        self.add_a(ra, ra, y);
        self.add_a(rb, rb, y);
        self.add_a(ra, rb, -y);
        self.add_a(rb, ra, -y);
    }
}

/// The small-signal MNA system of a circuit linearised once around a DC
/// operating point, split into its frequency-independent part and the
/// reactive stamps that scale with the angular frequency.
pub struct AcSystem {
    /// gmin, conductances, the linearised devices and the source and inductor
    /// couplings.
    a: Matrix<Complex>,
    /// The AC source magnitudes.
    b: Vec<Complex>,
    /// `(row, col, value)` in element order: each capacitor's `±C` and each
    /// inductor's `−L`, which add `j·ω·value` to entry `(row, col)`.
    reactive: Vec<(usize, usize, f64)>,
}

impl AcSystem {
    /// Assembles the system of `circuit`, linearising nonlinear devices
    /// around the DC operating point `op_x`.
    pub fn new(circuit: &Circuit, layout: &MnaLayout, op_x: &[f64]) -> Self {
        let mut stamps = ComplexStamps::new(layout.size());
        let mut reactive = Vec::new();
        stamp_small_signal(circuit, layout, op_x, &mut stamps, |_, row, col, value| {
            reactive.push((row, col, value));
        });
        AcSystem { a: stamps.a, b: stamps.b, reactive }
    }

    /// The structure of every system [`AcSystem::load`] writes, row-major:
    /// the frequency-independent nonzeros and the reactive positions.
    pub fn structure(&self) -> Vec<bool> {
        let mut structure: Vec<bool> =
            self.a.values().iter().map(|value| value.re != 0.0 || value.im != 0.0).collect();
        let n = self.a.size();
        for &(row, col, _) in &self.reactive {
            structure[row * n + col] = true;
        }
        structure
    }

    /// Writes the system at angular frequency `omega` into `a` and `b`.
    ///
    /// Each entry gets the bits that stamping at `omega` in element order
    /// gives (`assemble_ac`): `Complex` addition adds the real and imaginary
    /// parts separately, and no entry is ever `−0`.
    pub fn load(&self, omega: f64, a: &mut Matrix<Complex>, b: &mut [Complex]) {
        a.copy_from(&self.a);
        b.copy_from_slice(&self.b);
        for &(row, col, value) in &self.reactive {
            a[(row, col)].im += omega * value;
        }
    }
}

/// Assembles the complex small-signal MNA system at angular frequency `omega`
/// stamp by stamp, in element order: the per-frequency reference that
/// [`AcSystem::load`] reproduces bit for bit.
#[cfg(test)]
pub(crate) fn assemble_ac(
    circuit: &Circuit,
    layout: &MnaLayout,
    op_x: &[f64],
    omega: f64,
) -> (Matrix<Complex>, Vec<Complex>) {
    let mut stamps = ComplexStamps::new(layout.size());
    stamp_small_signal(circuit, layout, op_x, &mut stamps, |stamps, row, col, value| {
        stamps.a.add(row, col, Complex::new(0.0, omega * value));
    });
    (stamps.a, stamps.b)
}

/// Stamps the small-signal model of every element of `circuit`, linearised
/// around the DC operating point `op_x`, into `stamps` in element order, and
/// hands each reactive stamp `(row, col, value)`, which adds `j·ω·value` to
/// entry `(row, col)`, to `reactive` at its place in that order.
fn stamp_small_signal(
    circuit: &Circuit,
    layout: &MnaLayout,
    op_x: &[f64],
    stamps: &mut ComplexStamps,
    mut reactive: impl FnMut(&mut ComplexStamps, usize, usize, f64),
) {
    let mut add_reactive =
        |stamps: &mut ComplexStamps, row: Option<usize>, col: Option<usize>, value: f64| {
            if let (Some(r), Some(c)) = (row, col) {
                reactive(stamps, r, c, value);
            }
        };
    let gmin = Complex::real(1e-12);
    for node in 1..layout.node_count() {
        let row = layout.node_row(NodeId(node));
        stamps.add_a(row, row, gmin);
    }

    for (index, element) in circuit.elements().iter().enumerate() {
        match element {
            Element::Resistor { a, b, resistance, .. } => {
                stamps.admittance(
                    layout.node_row(*a),
                    layout.node_row(*b),
                    Complex::real(1.0 / resistance),
                );
            }
            Element::Capacitor { a, b, capacitance, .. } => {
                let ra = layout.node_row(*a);
                let rb = layout.node_row(*b);
                add_reactive(stamps, ra, ra, *capacitance);
                add_reactive(stamps, rb, rb, *capacitance);
                add_reactive(stamps, ra, rb, -capacitance);
                add_reactive(stamps, rb, ra, -capacitance);
            }
            Element::Inductor { a, b, inductance, .. } => {
                let ra = layout.node_row(*a);
                let rb = layout.node_row(*b);
                let br = layout.branch_row(index);
                stamps.add_a(ra, br, Complex::one());
                stamps.add_a(rb, br, -Complex::one());
                stamps.add_a(br, ra, Complex::one());
                stamps.add_a(br, rb, -Complex::one());
                add_reactive(stamps, br, br, -inductance);
            }
            Element::VoltageSource { pos, neg, ac_magnitude, .. } => {
                let rp = layout.node_row(*pos);
                let rn = layout.node_row(*neg);
                let br = layout.branch_row(index);
                stamps.add_a(rp, br, Complex::one());
                stamps.add_a(rn, br, -Complex::one());
                stamps.add_a(br, rp, Complex::one());
                stamps.add_a(br, rn, -Complex::one());
                stamps.add_b(br, Complex::real(*ac_magnitude));
            }
            // An independent current source has no AC component: an open
            // circuit.
            Element::CurrentSource { .. } => {}
            Element::Mosfet { drain, gate, source, polarity, model, width, length, .. } => {
                let rd = layout.node_row(*drain);
                let rg = layout.node_row(*gate);
                let rs = layout.node_row(*source);
                let vg = layout.voltage(op_x, *gate);
                let vd = layout.voltage(op_x, *drain);
                let vs = layout.voltage(op_x, *source);
                let op = mosfet::linearize(model, *polarity, *width, *length, vg, vd, vs);
                stamps.add_a(rd, rg, Complex::real(op.d_vg));
                stamps.add_a(rd, rd, Complex::real(op.d_vd));
                stamps.add_a(rd, rs, Complex::real(op.d_vs));
                stamps.add_a(rs, rg, Complex::real(-op.d_vg));
                stamps.add_a(rs, rd, Complex::real(-op.d_vd));
                stamps.add_a(rs, rs, Complex::real(-op.d_vs));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{MosfetModel, MosfetPolarity};
    use crate::linalg::solve_real;

    #[test]
    fn layout_assigns_branches_after_nodes() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.voltage_source("V1", a, Circuit::ground(), SourceWaveform::dc(1.0)).unwrap();
        c.resistor("R1", a, b, 1.0).unwrap();
        c.inductor("L1", b, Circuit::ground(), 1e-3).unwrap();
        let layout = MnaLayout::new(&c);
        assert_eq!(layout.size(), 2 + 2);
        assert_eq!(layout.node_row(Circuit::ground()), None);
        assert_eq!(layout.node_row(a), Some(0));
        assert_eq!(layout.branch_row(0), Some(2));
        assert_eq!(layout.branch_row(1), None);
        assert_eq!(layout.branch_row(2), Some(3));
    }

    /// Solves the system `program` assembled last.
    fn solve_system(program: &StampProgram) -> Vec<f64> {
        let (matrix, rhs) = program.system();
        let mut a = Matrix::zeros(rhs.len());
        a.values_mut().copy_from_slice(matrix);
        solve_real(a, rhs.to_vec()).unwrap()
    }

    #[test]
    fn divider_assembly_solves_to_half_supply() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("V1", vin, Circuit::ground(), SourceWaveform::dc(2.0)).unwrap();
        c.resistor("R1", vin, vout, 1000.0).unwrap();
        c.resistor("R2", vout, Circuit::ground(), 1000.0).unwrap();
        let layout = MnaLayout::new(&c);
        let x0 = vec![0.0; layout.size()];
        let mut program = StampProgram::new(&c, &layout);
        program.assemble(&x0, None, &AssemblyOptions::default());
        let x = solve_system(&program);
        assert!((layout.voltage(&x, vin) - 2.0).abs() < 1e-9);
        assert!((layout.voltage(&x, vout) - 1.0).abs() < 1e-6);
    }

    /// Every entry an assembly writes lies in the structure the program
    /// reports for its kind, with every kind of element, terminals at
    /// ground included, and nothing stamped at ground reaches the system.
    #[test]
    fn assemblies_stay_inside_the_reported_structures() {
        let mut c = Circuit::new();
        let (a, b, d) = (c.node("a"), c.node("b"), c.node("d"));
        let gnd = Circuit::ground();
        c.voltage_source("V1", a, gnd, SourceWaveform::step(1.0, 2.0, 1e-6)).unwrap();
        c.resistor("R1", a, b, 1_000.0).unwrap();
        c.resistor("R2", d, gnd, 10_000.0).unwrap();
        c.capacitor("C1", a, b, 1e-9).unwrap();
        c.capacitor("C2", d, gnd, 1e-12).unwrap();
        c.inductor("L1", b, gnd, 1e-3).unwrap();
        c.current_source("I1", gnd, d, SourceWaveform::dc(1e-4)).unwrap();
        let (nmos, pmos) = (MosfetModel::nmos_default(), MosfetModel::pmos_default());
        c.mosfet("M1", d, a, gnd, MosfetPolarity::Nmos, nmos, 10e-6, 1e-6).unwrap();
        c.mosfet("M2", d, d, a, MosfetPolarity::Pmos, pmos, 20e-6, 1e-6).unwrap();
        let layout = MnaLayout::new(&c);
        let n = layout.size();
        let mut program = StampProgram::new(&c, &layout);
        let count = |structure: &[bool]| structure.iter().filter(|&&s| s).count();
        // The three node diagonals (gmin), R1's (a, b) and (b, a), the
        // couplings (b, br), (br, b), (a, br) and (br, a), M1's (d, a) and
        // M2's (a, d); the capacitors touch none but these, and transient
        // systems add L1's (br, br).
        assert_eq!((count(program.dc_structure()), count(program.transient_structure())), (11, 12));
        let x: Vec<f64> = (0..n).map(|i| 0.3 + 0.7 * i as f64).collect();
        let dynamic = DynamicState {
            x: x.iter().map(|v| v / 2.0).collect(),
            capacitor_currents: vec![1e-6; 9],
        };
        let transient = |method| Some((2e-6, 1e-8, method));
        for (time_step, structure) in [
            (None, program.dc_structure().to_vec()),
            (transient(IntegrationMethod::BackwardEuler), program.transient_structure().to_vec()),
            (transient(IntegrationMethod::Trapezoidal), program.transient_structure().to_vec()),
        ] {
            let options = AssemblyOptions { time_step, ..AssemblyOptions::default() };
            program.assemble(&x, Some(&dynamic), &options);
            let (matrix, rhs) = program.system();
            assert_eq!((matrix.len(), rhs.len()), (n * n, n));
            for (slot, (&value, &structural)) in matrix.iter().zip(&structure).enumerate() {
                assert!(structural || value == 0.0, "{time_step:?}: entry {slot} is {value}");
            }
            // Every structural entry holds a stamp here.
            assert!(matrix.iter().zip(&structure).all(|(&v, &s)| !s || v != 0.0), "{time_step:?}");
        }
    }

    #[test]
    fn current_source_direction_follows_spice_convention() {
        // 1 A flowing from ground through the source into node `a`
        // (source written as pos=ground? no: pos=a, neg=ground means current
        // leaves node a). Check the polarity explicitly with a 1 Ω resistor.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.current_source("I1", a, Circuit::ground(), SourceWaveform::dc(1.0)).unwrap();
        c.resistor("R1", a, Circuit::ground(), 1.0).unwrap();
        let layout = MnaLayout::new(&c);
        let x0 = vec![0.0; layout.size()];
        let mut program = StampProgram::new(&c, &layout);
        program.assemble(&x0, None, &AssemblyOptions::default());
        let x = solve_system(&program);
        // Current leaves node a through the source => node a is pulled low.
        assert!((layout.voltage(&x, a) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn ac_assembly_produces_rc_low_pass_response() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.ac_voltage_source("V1", vin, Circuit::ground(), SourceWaveform::dc(0.0), 1.0).unwrap();
        c.resistor("R1", vin, vout, 1000.0).unwrap();
        c.capacitor("C1", vout, Circuit::ground(), 1e-6).unwrap();
        let layout = MnaLayout::new(&c);
        let op = vec![0.0; layout.size()];
        // At the corner frequency w = 1/RC the magnitude is 1/sqrt(2).
        let omega = 1.0 / (1000.0 * 1e-6);
        let (mut a, mut b) = (Matrix::zeros(layout.size()), vec![Complex::zero(); layout.size()]);
        AcSystem::new(&c, &layout, &op).load(omega, &mut a, &mut b);
        let x = crate::linalg::solve_complex(a, b).unwrap();
        let gain = layout.voltage_complex(&x, vout).norm();
        assert!((gain - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3, "gain {gain}");
    }
}
