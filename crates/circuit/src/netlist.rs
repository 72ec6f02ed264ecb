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
    /// Returns an error for unknown nodes.
    pub fn voltage_source(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: SourceWaveform,
    ) -> Result<usize> {
        self.push(Element::VoltageSource {
            name: name.to_string(),
            pos,
            neg,
            waveform,
            ac_magnitude: 0.0,
        })
    }

    /// Adds an independent voltage source that also acts as the AC stimulus
    /// with the given small-signal magnitude.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes.
    pub fn ac_voltage_source(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: SourceWaveform,
        ac_magnitude: f64,
    ) -> Result<usize> {
        self.push(Element::VoltageSource {
            name: name.to_string(),
            pos,
            neg,
            waveform,
            ac_magnitude,
        })
    }

    /// Adds an independent current source (current flows from `pos` through
    /// the source to `neg`).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes.
    pub fn current_source(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: SourceWaveform,
    ) -> Result<usize> {
        self.push(Element::CurrentSource {
            name: name.to_string(),
            pos,
            neg,
            waveform,
            ac_magnitude: 0.0,
        })
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
