//! # stc-circuit
//!
//! A small, self-contained analog circuit simulator used as the substitute
//! for Cadence Virtuoso Spectre in the reproduction of *"Specification Test
//! Compaction for Analog Circuits and MEMS"* (DATE 2005).
//!
//! The simulator provides the three analyses the paper's specification tests
//! need:
//!
//! * [`dc_operating_point`] — Newton–Raphson DC solution with gmin and source
//!   stepping,
//! * [`ac_analysis`] — small-signal frequency sweeps around the operating
//!   point, which is linearised once per sweep,
//! * [`transient_analysis`] — fixed-step trapezoidal time integration
//!   (backward Euler on the first step) that records the operating point,
//!   without solving, until a source first leaves its DC value, and ends once
//!   the circuit has settled after its last source change (no node moving by
//!   more than the 1 nV Newton tolerance over the rest of the window).
//!
//! Each analysis solves its many linear systems of one structure through a
//! factorization plan that replays the dense LU's pivot order over the
//! structural nonzeros.  Every thread keeps the plans it has built, per
//! structure, and a system whose pivot order differs from one plan's tries
//! the thread's other plans of its structure before the dense LU (see
//! [`linalg`]).  Every result has the dense LU's bits, so it never depends on
//! what the thread simulated before.
//!
//! Circuits are built programmatically with [`Circuit`]; the element set
//! (R, L, C, independent voltage and current sources held constant or
//! stepped, and level-1 MOSFETs) is what the two-stage CMOS operational
//! amplifier of the paper's first case study needs.  The amplifier is
//! available ready-made in [`devices::opamp`] together with testbenches for
//! all eleven Table 1 specifications.
//!
//! ## Example
//!
//! ```
//! use stc_circuit::{dc_operating_point, Circuit, SourceWaveform};
//!
//! # fn main() -> Result<(), stc_circuit::CircuitError> {
//! let mut circuit = Circuit::new();
//! let vin = circuit.node("vin");
//! let vout = circuit.node("vout");
//! circuit.voltage_source("V1", vin, Circuit::ground(), SourceWaveform::dc(1.0))?;
//! circuit.resistor("R1", vin, vout, 1_000.0)?;
//! circuit.resistor("R2", vout, Circuit::ground(), 1_000.0)?;
//! let op = dc_operating_point(&circuit)?;
//! assert!((op.voltage(vout) - 0.5).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod dc;
mod error;
mod measure;
mod mna;
mod netlist;
mod transient;
mod waveform;

pub mod devices;
pub mod elements;
pub mod linalg;
pub mod variation;

pub use ac::{ac_analysis, log_frequency_sweep, AcSweep};
pub use dc::{dc_operating_point, DcSolution};
pub use elements::{Element, MosfetModel, MosfetPolarity, SourceWaveform};
pub use error::CircuitError;
pub use measure::{bandwidth_3db, dc_gain, unity_gain_frequency};
pub use mna::MnaLayout;
pub use netlist::{Circuit, NodeId};
pub use transient::{
    transient_analysis, transient_analysis_from, TransientParams, TransientResult,
};
pub use waveform::Waveform;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CircuitError>;
