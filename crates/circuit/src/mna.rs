//! Modified nodal analysis (MNA) assembly.
//!
//! The unknown vector `x` contains the voltages of every non-ground node
//! followed by one branch current per element that requires it (voltage
//! sources and inductors).  The assembler produces `A x = b` systems for
//! DC / transient Newton iterations (real) and for AC small-signal analysis
//! (complex).

use crate::elements::{mosfet, Element};
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

/// Real stamps accumulator with ground-row elision, over borrowed buffers.
struct RealStamps<'a> {
    a: &'a mut Matrix<f64>,
    b: &'a mut [f64],
    /// Marks each stamped entry, row-major, when recording.
    structure: Option<&'a mut [bool]>,
}

impl RealStamps<'_> {
    fn add_a(&mut self, row: Option<usize>, col: Option<usize>, value: f64) {
        if let (Some(r), Some(c)) = (row, col) {
            self.a.add(r, c, value);
            if let Some(structure) = self.structure.as_deref_mut() {
                structure[r * self.b.len() + c] = true;
            }
        }
    }

    fn add_b(&mut self, row: Option<usize>, value: f64) {
        if let Some(r) = row {
            self.b[r] += value;
        }
    }

    /// Conductance `g` between nodes `a` and `b`.
    fn conductance(&mut self, ra: Option<usize>, rb: Option<usize>, g: f64) {
        self.add_a(ra, ra, g);
        self.add_a(rb, rb, g);
        self.add_a(ra, rb, -g);
        self.add_a(rb, ra, -g);
    }
}

/// Assembles the real MNA system `a x = b` for a DC or transient Newton
/// iteration, linearised around the iterate `x_guess`.  Both buffers are
/// cleared first, so they can be reused from one iteration to the next.
///
/// With `structure`, also records which entries the stamps touch, row-major,
/// as the structure of a [`crate::linalg::LuPlan`].  The entries stamped
/// depend only on the circuit and on whether the assembly is DC or transient,
/// never on a value, so every system of one analysis shares them.
#[allow(clippy::too_many_arguments)]
pub fn assemble_real(
    circuit: &Circuit,
    layout: &MnaLayout,
    x_guess: &[f64],
    dynamic: Option<&DynamicState>,
    options: &AssemblyOptions,
    a: &mut Matrix<f64>,
    b: &mut [f64],
    structure: Option<&mut Vec<bool>>,
) {
    a.clear();
    b.fill(0.0);
    let structure = structure.map(|structure| {
        structure.clear();
        structure.resize(b.len() * b.len(), false);
        structure.as_mut_slice()
    });
    let mut stamps = RealStamps { a, b, structure };

    // gmin from every node to ground keeps floating nodes and cut-off devices
    // from producing a singular Jacobian.
    for node in 1..layout.node_count() {
        let row = layout.node_row(NodeId(node));
        stamps.add_a(row, row, options.gmin);
    }

    for (index, element) in circuit.elements().iter().enumerate() {
        match element {
            Element::Resistor { a, b, resistance, .. } => {
                let g = 1.0 / resistance;
                stamps.conductance(layout.node_row(*a), layout.node_row(*b), g);
            }
            Element::Capacitor { a, b, capacitance, .. } => {
                if let Some((_, h, method)) = options.time_step {
                    let dynamic = dynamic.expect("transient assembly requires dynamic state");
                    let ra = layout.node_row(*a);
                    let rb = layout.node_row(*b);
                    let v_prev = layout.voltage(&dynamic.x, *a) - layout.voltage(&dynamic.x, *b);
                    let i_prev = dynamic.capacitor_currents[index];
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
                    stamps.conductance(ra, rb, geq);
                    stamps.add_b(ra, irhs);
                    stamps.add_b(rb, -irhs);
                }
                // DC: a capacitor is an open circuit — no stamp.
            }
            Element::Inductor { a, b, inductance, .. } => {
                let ra = layout.node_row(*a);
                let rb = layout.node_row(*b);
                let br = layout.branch_row(index);
                // KCL coupling: branch current leaves `a`, enters `b`.
                stamps.add_a(ra, br, 1.0);
                stamps.add_a(rb, br, -1.0);
                // Branch equation.
                stamps.add_a(br, ra, 1.0);
                stamps.add_a(br, rb, -1.0);
                match options.time_step {
                    None => {
                        // DC: v_a - v_b = 0 (ideal short); nothing else to add.
                    }
                    Some((_, h, method)) => {
                        let dynamic = dynamic.expect("transient assembly requires dynamic state");
                        let br_row = br.expect("inductor always has a branch row");
                        let i_prev = dynamic.x[br_row];
                        match method {
                            IntegrationMethod::BackwardEuler => {
                                // v - (L/h)(i - i_prev) = 0
                                let leq = inductance / h;
                                stamps.add_a(br, br, -leq);
                                stamps.add_b(br, -leq * i_prev);
                            }
                            IntegrationMethod::Trapezoidal => {
                                // v + v_prev = (2L/h)(i - i_prev)
                                let leq = 2.0 * inductance / h;
                                let v_prev =
                                    layout.voltage(&dynamic.x, *a) - layout.voltage(&dynamic.x, *b);
                                stamps.add_a(br, br, -leq);
                                stamps.add_b(br, -leq * i_prev + v_prev);
                                // Move the +v_prev term to the RHS with a sign
                                // flip: row reads v_new - leq*i_new = -leq*i_prev - v_prev.
                                stamps.add_b(br, -2.0 * v_prev);
                            }
                        }
                    }
                }
            }
            Element::VoltageSource { pos, neg, waveform, .. } => {
                let rp = layout.node_row(*pos);
                let rn = layout.node_row(*neg);
                let br = layout.branch_row(index);
                stamps.add_a(rp, br, 1.0);
                stamps.add_a(rn, br, -1.0);
                stamps.add_a(br, rp, 1.0);
                stamps.add_a(br, rn, -1.0);
                let value = match options.time_step {
                    None => waveform.dc_value(),
                    Some((t, _, _)) => waveform.value_at(t),
                };
                stamps.add_b(br, value * options.source_scale);
            }
            Element::CurrentSource { pos, neg, waveform, .. } => {
                let value = match options.time_step {
                    None => waveform.dc_value(),
                    Some((t, _, _)) => waveform.value_at(t),
                } * options.source_scale;
                // Current flows from `pos` through the source to `neg`.
                stamps.add_b(layout.node_row(*pos), -value);
                stamps.add_b(layout.node_row(*neg), value);
            }
            Element::Mosfet { drain, gate, source, polarity, model, width, length, .. } => {
                let rd = layout.node_row(*drain);
                let rg = layout.node_row(*gate);
                let rs = layout.node_row(*source);
                let vg = layout.voltage(x_guess, *gate);
                let vd = layout.voltage(x_guess, *drain);
                let vs = layout.voltage(x_guess, *source);
                let op = mosfet::linearize(model, *polarity, *width, *length, vg, vd, vs);
                // Linearised drain current:
                //   ids ≈ ids0 + d_vg (Vg - vg) + d_vd (Vd - vd) + d_vs (Vs - vs)
                // KCL: ids leaves the drain node and enters the source node.
                let ieq = op.ids - op.d_vg * vg - op.d_vd * vd - op.d_vs * vs;
                stamps.add_a(rd, rg, op.d_vg);
                stamps.add_a(rd, rd, op.d_vd);
                stamps.add_a(rd, rs, op.d_vs);
                stamps.add_a(rs, rg, -op.d_vg);
                stamps.add_a(rs, rd, -op.d_vd);
                stamps.add_a(rs, rs, -op.d_vs);
                stamps.add_b(rd, -ieq);
                stamps.add_b(rs, ieq);
            }
        }
    }
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
    use crate::elements::SourceWaveform;
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
        let (mut a, mut b) = (Matrix::zeros(layout.size()), vec![0.0; layout.size()]);
        assemble_real(&c, &layout, &x0, None, &AssemblyOptions::default(), &mut a, &mut b, None);
        let x = solve_real(a, b).unwrap();
        assert!((layout.voltage(&x, vin) - 2.0).abs() < 1e-9);
        assert!((layout.voltage(&x, vout) - 1.0).abs() < 1e-6);
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
        let (mut m, mut b) = (Matrix::zeros(layout.size()), vec![0.0; layout.size()]);
        assemble_real(&c, &layout, &x0, None, &AssemblyOptions::default(), &mut m, &mut b, None);
        let x = solve_real(m, b).unwrap();
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
