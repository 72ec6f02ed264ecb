//! Circuit (netlist) construction.

use crate::elements::{Element, MosfetModel, MosfetPolarity, SourceWaveform};
use crate::{CircuitError, Result};

/// Identifier of a circuit node.  Node `0` is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index of the node.
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// A flat netlist: named nodes plus a list of [`Element`]s.
///
/// # Example
///
/// Build a resistive divider and check the node count:
///
/// ```
/// use stc_circuit::{Circuit, SourceWaveform};
///
/// # fn main() -> Result<(), stc_circuit::CircuitError> {
/// let mut circuit = Circuit::new();
/// let vin = circuit.node("vin");
/// let vout = circuit.node("vout");
/// circuit.voltage_source("V1", vin, Circuit::ground(), SourceWaveform::dc(5.0))?;
/// circuit.resistor("R1", vin, vout, 1_000.0)?;
/// circuit.resistor("R2", vout, Circuit::ground(), 1_000.0)?;
/// assert_eq!(circuit.node_count(), 3); // ground, vin, vout
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    node_names: Vec<String>,
    elements: Vec<Element>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit { node_names: vec!["0".to_string()], elements: Vec::new() }
    }

    /// The ground node.
    pub fn ground() -> NodeId {
        NodeId::GROUND
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(index) = self.node_names.iter().position(|n| n == name) {
            NodeId(index)
        } else {
            self.node_names.push(name.to_string());
            NodeId(self.node_names.len() - 1)
        }
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_names.iter().position(|n| n == name).map(NodeId)
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Finds an element index by instance name.
    pub fn find_element(&self, name: &str) -> Option<usize> {
        self.elements.iter().position(|e| e.name() == name)
    }

    fn check_node(&self, node: NodeId) -> Result<()> {
        if node.0 >= self.node_names.len() {
            Err(CircuitError::UnknownNode { node: node.0, node_count: self.node_names.len() })
        } else {
            Ok(())
        }
    }

    fn check_positive(&self, name: &str, parameter: &'static str, value: f64) -> Result<()> {
        if value > 0.0 && value.is_finite() {
            Ok(())
        } else {
            Err(CircuitError::InvalidParameter { element: name.to_string(), parameter, value })
        }
    }

    fn check_finite(&self, name: &str, parameter: &'static str, value: f64) -> Result<()> {
        if value.is_finite() {
            Ok(())
        } else {
            Err(CircuitError::InvalidParameter { element: name.to_string(), parameter, value })
        }
    }

    fn check_waveform(&self, name: &str, waveform: &SourceWaveform) -> Result<()> {
        match *waveform {
            SourceWaveform::Dc(value) => self.check_finite(name, "dc value", value),
            SourceWaveform::Step { initial, final_value, delay } => {
                self.check_finite(name, "step initial value", initial)?;
                self.check_finite(name, "step final value", final_value)?;
                self.check_finite(name, "step delay", delay)
            }
        }
    }

    fn push(&mut self, element: Element) -> Result<usize> {
        for node in element.nodes() {
            self.check_node(node)?;
        }
        self.elements.push(element);
        Ok(self.elements.len() - 1)
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes or a non-positive resistance.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, resistance: f64) -> Result<usize> {
        self.check_positive(name, "resistance", resistance)?;
        self.push(Element::Resistor { name: name.to_string(), a, b, resistance })
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes or a non-positive capacitance.
    pub fn capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        capacitance: f64,
    ) -> Result<usize> {
        self.check_positive(name, "capacitance", capacitance)?;
        self.push(Element::Capacitor { name: name.to_string(), a, b, capacitance })
    }

    /// Adds an inductor.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes or a non-positive inductance.
    pub fn inductor(&mut self, name: &str, a: NodeId, b: NodeId, inductance: f64) -> Result<usize> {
        self.check_positive(name, "inductance", inductance)?;
        self.push(Element::Inductor { name: name.to_string(), a, b, inductance })
    }

    /// Adds an independent voltage source with no AC component.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes or a non-finite waveform value (DC
    /// value, step level or step delay).
    pub fn voltage_source(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: SourceWaveform,
    ) -> Result<usize> {
        self.ac_voltage_source(name, pos, neg, waveform, 0.0)
    }

    /// Adds an independent voltage source that also acts as the AC stimulus
    /// with the given small-signal magnitude.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes, a non-finite waveform value or a
    /// non-finite AC magnitude.
    pub fn ac_voltage_source(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: SourceWaveform,
        ac_magnitude: f64,
    ) -> Result<usize> {
        self.check_waveform(name, &waveform)?;
        self.check_finite(name, "ac magnitude", ac_magnitude)?;
        self.push(Element::VoltageSource {
            name: name.to_string(),
            pos,
            neg,
            waveform,
            ac_magnitude,
        })
    }

    /// Adds an independent current source (current flows from `pos` through
    /// the source to `neg`).  It has no AC component.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes or a non-finite waveform value.
    pub fn current_source(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: SourceWaveform,
    ) -> Result<usize> {
        self.check_waveform(name, &waveform)?;
        self.push(Element::CurrentSource { name: name.to_string(), pos, neg, waveform })
    }

    /// Adds a MOSFET.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes or non-positive geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn mosfet(
        &mut self,
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        polarity: MosfetPolarity,
        model: MosfetModel,
        width: f64,
        length: f64,
    ) -> Result<usize> {
        self.check_positive(name, "width", width)?;
        self.check_positive(name, "length", length)?;
        self.push(Element::Mosfet {
            name: name.to_string(),
            drain,
            gate,
            source,
            polarity,
            model,
            width,
            length,
        })
    }
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_deduplicated_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("zz"), None);
        assert!(Circuit::ground().is_ground());
        assert!(!a.is_ground());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.resistor("R1", a, Circuit::ground(), -5.0).is_err());
        assert!(c.capacitor("C1", a, Circuit::ground(), 0.0).is_err());
        assert!(c.inductor("L1", a, Circuit::ground(), f64::NAN).is_err());
        assert!(c
            .mosfet(
                "M1",
                a,
                a,
                Circuit::ground(),
                MosfetPolarity::Nmos,
                MosfetModel::nmos_default(),
                0.0,
                1e-6
            )
            .is_err());
    }

    #[test]
    fn non_finite_source_values_are_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let gnd = Circuit::ground();
        let rejects = |result: Result<usize>, expected: &str| {
            assert!(
                matches!(&result, Err(CircuitError::InvalidParameter { parameter, value, .. })
                    if *parameter == expected && !value.is_finite()),
                "{expected}: {result:?}"
            );
        };
        rejects(c.voltage_source("V1", a, gnd, SourceWaveform::dc(f64::NAN)), "dc value");
        rejects(c.current_source("I1", a, gnd, SourceWaveform::dc(f64::INFINITY)), "dc value");
        let step = |initial, final_value, delay| SourceWaveform::step(initial, final_value, delay);
        rejects(c.voltage_source("V2", a, gnd, step(f64::NAN, 1.0, 0.0)), "step initial value");
        rejects(
            c.current_source("I2", a, gnd, step(0.0, f64::NEG_INFINITY, 0.0)),
            "step final value",
        );
        rejects(c.voltage_source("V3", a, gnd, step(0.0, 1.0, f64::NAN)), "step delay");
        rejects(
            c.ac_voltage_source("V4", a, gnd, SourceWaveform::dc(0.0), f64::NAN),
            "ac magnitude",
        );
        rejects(
            c.ac_voltage_source("V5", a, gnd, SourceWaveform::dc(f64::INFINITY), 1.0),
            "dc value",
        );
        assert!(c.elements().is_empty());
    }

    #[test]
    fn a_nan_supply_fails_where_it_enters() {
        // Accepted, it would reach `dc_operating_point`, which spent 900 Newton
        // iterations (plain Newton, the first gmin level and the first source
        // step) before reporting a misleading `NoConvergence`.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let result = c.voltage_source("VDD", vdd, Circuit::ground(), SourceWaveform::dc(f64::NAN));
        assert!(matches!(
            result,
            Err(CircuitError::InvalidParameter { parameter: "dc value", .. })
        ));
    }

    #[test]
    fn a_nan_step_delay_is_not_a_step_at_zero() {
        // Accepted, `value_at(t) = if t <= NaN { initial } else { final }`
        // would read the final value at every t, a step at t = 0.
        let step = SourceWaveform::step(0.0, 1.0, f64::NAN);
        assert_eq!(step.value_at(0.0), 1.0);
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(matches!(
            c.voltage_source("VIN", a, Circuit::ground(), step),
            Err(CircuitError::InvalidParameter { parameter: "step delay", .. })
        ));
    }

    #[test]
    fn unknown_nodes_are_rejected() {
        let mut c = Circuit::new();
        let bogus = NodeId(17);
        assert!(matches!(
            c.resistor("R1", bogus, Circuit::ground(), 1.0),
            Err(CircuitError::UnknownNode { node: 17, .. })
        ));
    }

    #[test]
    fn elements_are_recorded_and_searchable() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::ground(), 10.0).unwrap();
        c.capacitor("C1", a, Circuit::ground(), 1e-9).unwrap();
        assert_eq!(c.elements().len(), 2);
        assert_eq!(c.find_element("C1"), Some(1));
        assert_eq!(c.find_element("Q9"), None);
    }
}
