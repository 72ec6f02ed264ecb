//! Process-variation models for Monte-Carlo data generation.
//!
//! The paper generates training instances "by randomly altering the MOSFET
//! lengths and widths and capacitor values within ±x % of their nominal
//! values" (Section 5.1).  [`VariationModel`] reproduces that scheme.

use rand::Rng;

use crate::devices::opamp::OpAmpParams;

/// Distribution used to perturb each geometric parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum VariationModel {
    /// Uniform multiplicative variation: each parameter is scaled by a factor
    /// drawn uniformly from `[1 - spread, 1 + spread]`.
    Uniform {
        /// Half-width of the relative variation (0.1 = ±10 %).
        spread: f64,
    },
}

impl VariationModel {
    /// The ±10 % uniform model used for the op-amp study in the paper.
    pub fn paper_default() -> Self {
        VariationModel::Uniform { spread: 0.10 }
    }

    /// Draws one multiplicative perturbation factor.
    pub fn draw_factor<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
            VariationModel::Uniform { spread } => rng.gen_range(1.0 - spread..=1.0 + spread),
        }
    }

    /// Applies independent perturbations to every geometric parameter of an
    /// op-amp (transistor widths/lengths and both capacitors), matching the
    /// paper's Monte-Carlo setup.
    pub fn perturb_opamp<R: Rng>(&self, nominal: &OpAmpParams, rng: &mut R) -> OpAmpParams {
        let mut perturbed = *nominal;
        for (name, value) in nominal.geometry_fields() {
            perturbed.set_geometry_field(name, value * self.draw_factor(rng));
        }
        perturbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_factors_stay_in_band() {
        let model = VariationModel::Uniform { spread: 0.1 };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f = model.draw_factor(&mut rng);
            assert!((0.9..=1.1).contains(&f));
        }
    }

    #[test]
    fn perturbation_changes_geometry_but_not_models() {
        let model = VariationModel::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let nominal = OpAmpParams::nominal();
        let perturbed = model.perturb_opamp(&nominal, &mut rng);
        assert_ne!(perturbed.w_diff, nominal.w_diff);
        assert_ne!(perturbed.load_capacitance, nominal.load_capacitance);
        assert!((perturbed.w_diff / nominal.w_diff - 1.0).abs() <= 0.1 + 1e-12);
        // Electrical model cards and bias are not part of geometric variation.
        assert_eq!(perturbed.nmos, nominal.nmos);
        assert_eq!(perturbed.bias_current, nominal.bias_current);
        assert_eq!(perturbed.supply, nominal.supply);
    }

    #[test]
    fn different_seeds_give_different_instances() {
        let model = VariationModel::paper_default();
        let nominal = OpAmpParams::nominal();
        let a = model.perturb_opamp(&nominal, &mut StdRng::seed_from_u64(10));
        let b = model.perturb_opamp(&nominal, &mut StdRng::seed_from_u64(11));
        assert_ne!(a, b);
    }
}
