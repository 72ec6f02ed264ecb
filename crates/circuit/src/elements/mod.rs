//! Circuit element definitions.
//!
//! Elements are a closed set modelled as the [`Element`] enum; the crate's
//! (private) MNA assembler pattern-matches over it.  The set is what the
//! op-amp testbenches build: R, L, C, independent voltage and current sources
//! and the MOSFET, whose device equations live in [`mosfet`].

pub mod mosfet;
pub mod sources;

pub use mosfet::{MosfetModel, MosfetOperatingPoint, MosfetPolarity};
pub use sources::SourceWaveform;

use crate::netlist::NodeId;

/// One netlist element.
///
/// Node fields refer to [`NodeId`]s of the owning [`crate::Circuit`]; the
/// circuit validates them when the element is added.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (must be positive).
        resistance: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (must be positive).
        capacitance: f64,
    },
    /// Linear inductor between `a` and `b` (adds one branch-current unknown).
    Inductor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries (must be positive).
        inductance: f64,
    },
    /// Independent voltage source from `pos` to `neg`
    /// (adds one branch-current unknown; the branch current flows from `pos`
    /// through the source to `neg`).
    VoltageSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Time-domain waveform (also provides the DC value).
        waveform: SourceWaveform,
        /// Small-signal AC magnitude used by AC analysis.
        ac_magnitude: f64,
    },
    /// Independent current source; the current flows from `pos` through the
    /// source to `neg` (SPICE convention).  It has no AC component, so AC
    /// analysis sees an open circuit.
    CurrentSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Time-domain waveform (also provides the DC value).
        waveform: SourceWaveform,
    },
    /// Square-law (SPICE level-1) MOSFET.
    Mosfet {
        /// Instance name.
        name: String,
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal.
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
        /// NMOS or PMOS.
        polarity: MosfetPolarity,
        /// Device model card.
        model: MosfetModel,
        /// Channel width in metres.
        width: f64,
        /// Channel length in metres.
        length: f64,
    },
}

impl Element {
    /// The instance name of the element.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::Inductor { name, .. }
            | Element::VoltageSource { name, .. }
            | Element::CurrentSource { name, .. }
            | Element::Mosfet { name, .. } => name,
        }
    }

    /// Whether this element introduces an extra MNA branch-current unknown.
    pub fn needs_branch_current(&self) -> bool {
        matches!(self, Element::VoltageSource { .. } | Element::Inductor { .. })
    }

    /// All node indices referenced by the element.
    pub fn nodes(&self) -> Vec<NodeId> {
        match *self {
            Element::Resistor { a, b, .. }
            | Element::Capacitor { a, b, .. }
            | Element::Inductor { a, b, .. } => vec![a, b],
            Element::VoltageSource { pos, neg, .. } | Element::CurrentSource { pos, neg, .. } => {
                vec![pos, neg]
            }
            Element::Mosfet { drain, gate, source, .. } => vec![drain, gate, source],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_current_classification() {
        let v = Element::VoltageSource {
            name: "v1".into(),
            pos: NodeId(1),
            neg: NodeId(0),
            waveform: SourceWaveform::dc(1.0),
            ac_magnitude: 0.0,
        };
        let r =
            Element::Resistor { name: "r1".into(), a: NodeId(1), b: NodeId(0), resistance: 1.0 };
        assert!(v.needs_branch_current());
        assert!(!r.needs_branch_current());
        assert_eq!(v.name(), "v1");
        assert_eq!(r.nodes(), vec![NodeId(1), NodeId(0)]);
    }
}
