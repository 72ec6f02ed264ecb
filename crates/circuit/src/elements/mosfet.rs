//! Square-law (SPICE level-1) MOSFET model.
//!
//! The model covers cut-off, triode and saturation regions with channel-length
//! modulation, and is symmetric in drain/source (the terminals are swapped
//! internally when `Vds < 0`).  Body effect and intrinsic capacitances are not
//! modelled; the op-amp bandwidth in this crate is set by its explicit
//! compensation and load capacitors, which is sufficient for reproducing the
//! statistical behaviour the paper relies on.

/// N-channel or P-channel device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosfetPolarity {
    /// N-channel (conducts for positive `Vgs` above threshold).
    Nmos,
    /// P-channel (conducts for negative `Vgs` below `-|Vth|`).
    Pmos,
}

/// Level-1 model card.
///
/// The same card is shared by all transistors of one polarity in a design;
/// geometry (`W`, `L`) is per-instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetModel {
    /// Threshold voltage magnitude in volts.
    pub threshold_voltage: f64,
    /// Transconductance parameter `k' = µ Cox` in A/V².
    pub transconductance: f64,
    /// Channel-length modulation parameter λ in 1/V.
    pub lambda: f64,
}

impl MosfetModel {
    /// A generic 0.5 µm-class NMOS card (`Vth = 0.7 V`, `k' = 110 µA/V²`,
    /// `λ = 0.04 V⁻¹`).
    pub fn nmos_default() -> Self {
        MosfetModel { threshold_voltage: 0.7, transconductance: 110e-6, lambda: 0.04 }
    }

    /// A generic 0.5 µm-class PMOS card (`Vth = 0.7 V`, `k' = 50 µA/V²`,
    /// `λ = 0.05 V⁻¹`).
    pub fn pmos_default() -> Self {
        MosfetModel { threshold_voltage: 0.7, transconductance: 50e-6, lambda: 0.05 }
    }
}

/// Linearised large-signal operating point of a MOSFET, expressed with respect
/// to the *absolute* terminal voltages so the MNA assembler can stamp it
/// directly.
///
/// `ids` is the current flowing from the drain terminal through the channel to
/// the source terminal; `d_vg`, `d_vd`, `d_vs` are its partial derivatives
/// with respect to the gate, drain and source node voltages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosfetOperatingPoint {
    /// Drain-to-source channel current in amperes.
    pub ids: f64,
    /// ∂ids/∂Vg.
    pub d_vg: f64,
    /// ∂ids/∂Vd.
    pub d_vd: f64,
    /// ∂ids/∂Vs.
    pub d_vs: f64,
    /// Saturation-region transconductance magnitude (for reporting).
    pub gm: f64,
    /// Output conductance magnitude (for reporting).
    pub gds: f64,
}

/// Region-aware square-law drain current and derivatives for an N-type device
/// with `vds >= 0`.
///
/// Returns `(id, gm, gds)` where `gm = ∂id/∂vgs` and `gds = ∂id/∂vds`.
fn nmos_equations(vgs: f64, vds: f64, vth: f64, beta: f64, lambda: f64) -> (f64, f64, f64) {
    debug_assert!(vds >= 0.0);
    let gleak = 1e-12;
    let vov = vgs - vth;
    if vov <= 0.0 {
        // Cut-off: tiny leakage keeps the Jacobian non-singular.
        return (gleak * vds, 0.0, gleak);
    }
    let clm = 1.0 + lambda * vds;
    if vds >= vov {
        // Saturation.
        let id = 0.5 * beta * vov * vov * clm;
        let gm = beta * vov * clm;
        let gds = 0.5 * beta * vov * vov * lambda + gleak;
        (id + gleak * vds, gm, gds)
    } else {
        // Triode.
        let shape = vov * vds - 0.5 * vds * vds;
        let id = beta * shape * clm;
        let gm = beta * vds * clm;
        let gds = beta * (vov - vds) * clm + beta * shape * lambda + gleak;
        (id + gleak * vds, gm, gds)
    }
}

/// Evaluates the MOSFET at the given absolute terminal voltages.
///
/// Handles polarity and drain/source swapping, returning derivatives with
/// respect to the node voltages so the Newton assembler can stamp the
/// companion model without further sign juggling.
pub fn linearize(
    model: &MosfetModel,
    polarity: MosfetPolarity,
    width: f64,
    length: f64,
    vg: f64,
    vd: f64,
    vs: f64,
) -> MosfetOperatingPoint {
    MosfetConstants::new(model, polarity, width, length).linearize(vg, vd, vs)
}

/// The parts of [`linearize`] that depend only on the device: its polarity,
/// `β = k′·W/L`, `|V_th|` and `λ`, computed once by the expressions
/// `linearize` uses, so that [`MosfetConstants::linearize`] returns its bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MosfetConstants {
    polarity: MosfetPolarity,
    beta: f64,
    vth: f64,
    lambda: f64,
}

impl MosfetConstants {
    pub(crate) fn new(
        model: &MosfetModel,
        polarity: MosfetPolarity,
        width: f64,
        length: f64,
    ) -> Self {
        MosfetConstants {
            polarity,
            beta: model.transconductance * width / length,
            vth: model.threshold_voltage.abs(),
            lambda: model.lambda,
        }
    }

    /// [`linearize`] at the given absolute terminal voltages.
    pub(crate) fn linearize(&self, vg: f64, vd: f64, vs: f64) -> MosfetOperatingPoint {
        let MosfetConstants { polarity, beta, vth, lambda } = *self;
        match polarity {
            MosfetPolarity::Nmos => {
                if vd >= vs {
                    let (id, gm, gds) = nmos_equations(vg - vs, vd - vs, vth, beta, lambda);
                    MosfetOperatingPoint {
                        ids: id,
                        d_vg: gm,
                        d_vd: gds,
                        d_vs: -(gm + gds),
                        gm,
                        gds,
                    }
                } else {
                    // Source and drain exchange roles; channel current reverses.
                    let (id, gm, gds) = nmos_equations(vg - vd, vs - vd, vth, beta, lambda);
                    MosfetOperatingPoint {
                        ids: -id,
                        d_vg: -gm,
                        d_vd: gm + gds,
                        d_vs: -gds,
                        gm,
                        gds,
                    }
                }
            }
            MosfetPolarity::Pmos => {
                // Evaluate the symmetric N-type equations in the source-referred
                // frame (vsg, vsd); the channel current then flows source->drain,
                // i.e. ids (drain->source) is negative in normal operation.
                if vs >= vd {
                    let (id, gm, gds) = nmos_equations(vs - vg, vs - vd, vth, beta, lambda);
                    MosfetOperatingPoint {
                        ids: -id,
                        d_vg: gm,
                        d_vd: gds,
                        d_vs: -(gm + gds),
                        gm,
                        gds,
                    }
                } else {
                    let (id, gm, gds) = nmos_equations(vd - vg, vd - vs, vth, beta, lambda);
                    MosfetOperatingPoint { ids: id, d_vg: -gm, d_vd: gm + gds, d_vs: -gds, gm, gds }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: f64 = 10e-6;
    const L: f64 = 1e-6;

    #[test]
    fn nmos_cutoff_saturation_triode_regions() {
        let m = MosfetModel::nmos_default();
        // Cut-off.
        let op = linearize(&m, MosfetPolarity::Nmos, W, L, 0.3, 2.0, 0.0);
        assert!(op.ids.abs() < 1e-9);
        // Saturation: vgs = 1.2, vds = 2.0 > vov = 0.5.
        let sat = linearize(&m, MosfetPolarity::Nmos, W, L, 1.2, 2.0, 0.0);
        let beta = m.transconductance * W / L;
        let expected = 0.5 * beta * 0.5 * 0.5 * (1.0 + m.lambda * 2.0);
        assert!((sat.ids - expected).abs() / expected < 1e-3, "{} vs {expected}", sat.ids);
        // Triode: vds = 0.1 < vov.
        let tri = linearize(&m, MosfetPolarity::Nmos, W, L, 1.2, 0.1, 0.0);
        assert!(tri.ids < sat.ids);
        assert!(tri.ids > 0.0);
    }

    #[test]
    fn pmos_conducts_with_negative_vgs() {
        let m = MosfetModel::pmos_default();
        // Source at 2.5 V, gate at 1.0 V => vsg = 1.5 V > vth, drain low.
        let op = linearize(&m, MosfetPolarity::Pmos, W, L, 1.0, 0.0, 2.5);
        assert!(op.ids < 0.0, "PMOS channel current should flow source->drain: {}", op.ids);
        // Off when gate is at the source potential.
        let off = linearize(&m, MosfetPolarity::Pmos, W, L, 2.5, 0.0, 2.5);
        assert!(off.ids.abs() < 1e-9);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = MosfetModel::nmos_default();
        let cases = [
            (MosfetPolarity::Nmos, 1.3, 2.0, 0.0),
            (MosfetPolarity::Nmos, 1.3, 0.2, 0.0),
            (MosfetPolarity::Nmos, 1.0, -0.5, 0.0), // swapped terminals
            (MosfetPolarity::Pmos, 1.0, 0.2, 2.5),
            (MosfetPolarity::Pmos, 1.5, 2.3, 2.5), // swapped terminals
        ];
        let h = 1e-6;
        for (pol, vg, vd, vs) in cases {
            let model = if pol == MosfetPolarity::Nmos { m } else { MosfetModel::pmos_default() };
            let base = linearize(&model, pol, W, L, vg, vd, vs);
            let num_g = (linearize(&model, pol, W, L, vg + h, vd, vs).ids
                - linearize(&model, pol, W, L, vg - h, vd, vs).ids)
                / (2.0 * h);
            let num_d = (linearize(&model, pol, W, L, vg, vd + h, vs).ids
                - linearize(&model, pol, W, L, vg, vd - h, vs).ids)
                / (2.0 * h);
            let num_s = (linearize(&model, pol, W, L, vg, vd, vs + h).ids
                - linearize(&model, pol, W, L, vg, vd, vs - h).ids)
                / (2.0 * h);
            let tol = 1e-6 + 1e-3 * base.ids.abs().max(1e-6);
            assert!((num_g - base.d_vg).abs() < tol, "{pol:?} d_vg {num_g} vs {}", base.d_vg);
            assert!((num_d - base.d_vd).abs() < tol, "{pol:?} d_vd {num_d} vs {}", base.d_vd);
            assert!((num_s - base.d_vs).abs() < tol, "{pol:?} d_vs {num_s} vs {}", base.d_vs);
        }
    }

    #[test]
    fn current_scales_with_geometry() {
        let m = MosfetModel::nmos_default();
        let narrow = linearize(&m, MosfetPolarity::Nmos, W, L, 1.5, 2.0, 0.0);
        let wide = linearize(&m, MosfetPolarity::Nmos, 2.0 * W, L, 1.5, 2.0, 0.0);
        assert!((wide.ids / narrow.ids - 2.0).abs() < 1e-6);
        let long = linearize(&m, MosfetPolarity::Nmos, W, 2.0 * L, 1.5, 2.0, 0.0);
        assert!((narrow.ids / long.ids - 2.0).abs() < 1e-6);
    }

    #[test]
    fn symmetric_in_drain_source_swap() {
        let m = MosfetModel::nmos_default();
        let forward = linearize(&m, MosfetPolarity::Nmos, W, L, 1.5, 0.3, 0.0);
        let reverse = linearize(&m, MosfetPolarity::Nmos, W, L, 1.5, 0.0, 0.3);
        // Swapping drain and source voltages reverses the current.
        assert!((forward.ids + reverse.ids).abs() < 1e-9);
    }
}
