//! Test-cost model (paper Section 6 lists an accurate cost model as future
//! work; this module provides a simple, configurable one so the "reduce test
//! cost by more than half" claim for the accelerometer can be quantified).

use serde::{Deserialize, Serialize};

use crate::{CompactionError, Result};

/// Per-specification test-cost description.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TestCostModel {
    /// Cost of applying each specification test, in arbitrary cost units
    /// (one entry per specification, in specification order).
    per_test: Vec<f64>,
    /// Fixed overhead per *insertion* (a group of tests sharing a setup, for
    /// example one temperature); keyed by an insertion label per test.
    insertion_of_test: Vec<usize>,
    /// Fixed cost of each insertion, incurred once if any of its tests runs.
    insertion_cost: Vec<f64>,
}

impl<'de> Deserialize<'de> for TestCostModel {
    /// Deserialises through [`TestCostModel::new`], so a decoded model
    /// upholds the same invariants (consistent lengths, non-negative finite
    /// costs, in-range insertion indices) as a constructed one.
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Wire {
            per_test: Vec<f64>,
            insertion_of_test: Vec<usize>,
            insertion_cost: Vec<f64>,
        }
        let Wire { per_test, insertion_of_test, insertion_cost } = Wire::deserialize(deserializer)?;
        TestCostModel::new(per_test, insertion_of_test, insertion_cost)
            .map_err(|error| serde::de::Error::custom(format!("invalid cost model: {error}")))
    }
}

impl TestCostModel {
    /// Builds a cost model.
    ///
    /// `per_test[i]` is the marginal cost of test `i`; `insertion_of_test[i]`
    /// names the insertion (setup group) test `i` belongs to, and
    /// `insertion_cost[g]` is charged once when any test of group `g` is
    /// applied — this captures the expensive thermal soak of the hot/cold
    /// accelerometer insertions.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::InvalidConfig`] for inconsistent lengths,
    /// negative costs or out-of-range insertion indices.
    pub fn new(
        per_test: Vec<f64>,
        insertion_of_test: Vec<usize>,
        insertion_cost: Vec<f64>,
    ) -> Result<Self> {
        if per_test.len() != insertion_of_test.len() {
            return Err(CompactionError::InvalidConfig {
                parameter: "insertion_of_test",
                value: insertion_of_test.len() as f64,
            });
        }
        if per_test.iter().any(|&c| c < 0.0 || !c.is_finite()) {
            return Err(CompactionError::InvalidConfig { parameter: "per_test", value: -1.0 });
        }
        if insertion_cost.iter().any(|&c| c < 0.0 || !c.is_finite()) {
            return Err(CompactionError::InvalidConfig {
                parameter: "insertion_cost",
                value: -1.0,
            });
        }
        if let Some(&bad) = insertion_of_test.iter().find(|&&g| g >= insertion_cost.len()) {
            return Err(CompactionError::InvalidConfig {
                parameter: "insertion_of_test",
                value: bad as f64,
            });
        }
        Ok(TestCostModel { per_test, insertion_of_test, insertion_cost })
    }

    /// A uniform model: every test costs 1, no insertion overhead.
    pub fn uniform(test_count: usize) -> Self {
        TestCostModel {
            per_test: vec![1.0; test_count],
            insertion_of_test: vec![0; test_count],
            insertion_cost: vec![0.0],
        }
    }

    /// Number of tests the model describes.
    pub fn test_count(&self) -> usize {
        self.per_test.len()
    }

    /// Total cost of applying exactly the *set* of tests in `kept`.
    ///
    /// `kept` is treated as a set: a test listed more than once is applied —
    /// and charged — once, exactly like its insertion overhead.  (Summing
    /// per occurrence used to double-count duplicates, which would hand
    /// cost-aware search strategies an inflated saving.)
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::UnknownSpecification`] for bad indices.
    pub fn cost_of(&self, kept: &[usize]) -> Result<f64> {
        if let Some(&bad) = kept.iter().find(|&&t| t >= self.per_test.len()) {
            return Err(CompactionError::UnknownSpecification {
                index: bad,
                count: self.per_test.len(),
            });
        }
        let mut applied = vec![false; self.per_test.len()];
        let mut cost = 0.0;
        for &test in kept {
            if !applied[test] {
                applied[test] = true;
                cost += self.per_test[test];
            }
        }
        for (group, &group_cost) in self.insertion_cost.iter().enumerate() {
            if kept.iter().any(|&t| self.insertion_of_test[t] == group) {
                cost += group_cost;
            }
        }
        Ok(cost)
    }

    /// Cost of the complete test set.
    pub fn full_cost(&self) -> f64 {
        let all: Vec<usize> = (0..self.per_test.len()).collect();
        self.cost_of(&all).expect("full set is always valid")
    }

    /// Relative cost reduction achieved by testing only `kept`
    /// (0 = no saving, 1 = everything free).
    ///
    /// # Errors
    ///
    /// Propagates index errors from [`TestCostModel::cost_of`].
    pub fn cost_reduction(&self, kept: &[usize]) -> Result<f64> {
        let full = self.full_cost();
        if full <= 0.0 {
            return Ok(0.0);
        }
        Ok(1.0 - self.cost_of(kept)? / full)
    }

    /// Orders `kept` cheapest-first by *incremental* cost: each position is
    /// filled with the remaining test whose marginal cost — per-test cost
    /// plus its insertion's setup cost if no earlier pick already opened
    /// that insertion — is smallest, ties broken by test index.  The
    /// default stage order of a sequential
    /// [`TestPlan`](crate::tester::TestPlan): devices that exit early skip
    /// the most expensive tail.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::UnknownSpecification`] for bad indices.
    pub fn cheapest_order(&self, kept: &[usize]) -> Result<Vec<usize>> {
        if let Some(&bad) = kept.iter().find(|&&t| t >= self.per_test.len()) {
            return Err(CompactionError::UnknownSpecification {
                index: bad,
                count: self.per_test.len(),
            });
        }
        let mut remaining: Vec<usize> = Vec::new();
        for &test in kept {
            if !remaining.contains(&test) {
                remaining.push(test);
            }
        }
        let mut opened = vec![false; self.insertion_cost.len()];
        let mut order = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            for (position, &test) in remaining.iter().enumerate() {
                let group = self.insertion_of_test[test];
                let setup = if opened[group] { 0.0 } else { self.insertion_cost[group] };
                let cost = self.per_test[test] + setup;
                if cost < best_cost || (cost == best_cost && test < remaining[best]) {
                    best = position;
                    best_cost = cost;
                }
            }
            let test = remaining.remove(best);
            opened[self.insertion_of_test[test]] = true;
            order.push(test);
        }
        Ok(order)
    }

    /// Expected measurement cost per device of walking `plan` sequentially
    /// over `population` — the mean, over the devices, of the cumulative
    /// cost of the stages each device actually needed before its session
    /// decided (see
    /// [`SequentialStats`](crate::tester::SequentialStats)).  Always at most
    /// the static kept-set cost, and strictly below it as soon as one
    /// device exits early on a strictly cheaper prefix.
    ///
    /// # Errors
    ///
    /// Propagates index errors and session errors (a detached program that
    /// must consult its model).
    pub fn expected_cost(
        &self,
        plan: &crate::tester::TestPlan<'_>,
        population: &crate::dataset::MeasurementSet,
    ) -> Result<f64> {
        crate::tester::SequentialStats::collect(plan, self, population)
            .map(|stats| stats.expected_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cost model mirroring the accelerometer: 12 tests in 3 insertions where
    /// the hot and cold insertions carry a large thermal-soak overhead.
    fn accelerometer_costs() -> TestCostModel {
        let per_test = vec![1.0; 12];
        let insertion_of_test = vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]; // cold, room, hot
        let insertion_cost = vec![12.0, 1.0, 10.0];
        TestCostModel::new(per_test, insertion_of_test, insertion_cost).unwrap()
    }

    #[test]
    fn removing_temperature_insertions_halves_the_cost() {
        let model = accelerometer_costs();
        let full = model.full_cost();
        // Keep only the room-temperature tests (indices 4..8).
        let kept: Vec<usize> = (4..8).collect();
        let reduced = model.cost_of(&kept).unwrap();
        assert!(reduced < full / 2.0, "cost {reduced} vs full {full}");
        let reduction = model.cost_reduction(&kept).unwrap();
        assert!(reduction > 0.5, "reduction {reduction}");
    }

    #[test]
    fn insertion_overhead_is_charged_once() {
        let model = accelerometer_costs();
        let one_cold = model.cost_of(&[0]).unwrap();
        let two_cold = model.cost_of(&[0, 1]).unwrap();
        assert_eq!(two_cold - one_cold, 1.0);
    }

    #[test]
    fn uniform_model_counts_tests() {
        let model = TestCostModel::uniform(11);
        assert_eq!(model.test_count(), 11);
        assert_eq!(model.full_cost(), 11.0);
        assert_eq!(model.cost_of(&[0, 1, 2, 3]).unwrap(), 4.0);
        assert!((model.cost_reduction(&[0, 1, 2, 3]).unwrap() - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_indices_are_charged_once() {
        let model = accelerometer_costs();
        assert_eq!(model.cost_of(&[0, 0, 0]).unwrap(), model.cost_of(&[0]).unwrap());
        assert_eq!(model.cost_of(&[4, 5, 4]).unwrap(), model.cost_of(&[4, 5]).unwrap());
        let uniform = TestCostModel::uniform(4);
        assert_eq!(uniform.cost_of(&[1, 1, 2]).unwrap(), 2.0);
        assert_eq!(
            uniform.cost_reduction(&[1, 1, 2]).unwrap(),
            uniform.cost_reduction(&[1, 2]).unwrap()
        );
    }

    #[test]
    fn cheapest_order_defers_expensive_insertions() {
        let model = accelerometer_costs();
        // Room (1 + 1 setup) before hot (1 + 10) before cold (1 + 12).
        assert_eq!(model.cheapest_order(&[0, 4, 8]).unwrap(), vec![4, 8, 0]);
        // An opened insertion makes its siblings cheap; ties fall back to
        // the test index.
        assert_eq!(model.cheapest_order(&[0, 1, 4, 8]).unwrap(), vec![4, 8, 0, 1]);
        assert!(model.cheapest_order(&[99]).is_err());
    }

    #[test]
    fn invalid_models_and_indices_are_rejected() {
        assert!(TestCostModel::new(vec![1.0], vec![0, 0], vec![0.0]).is_err());
        assert!(TestCostModel::new(vec![-1.0], vec![0], vec![0.0]).is_err());
        assert!(TestCostModel::new(vec![1.0], vec![3], vec![0.0]).is_err());
        assert!(TestCostModel::new(vec![1.0], vec![0], vec![-2.0]).is_err());
        let model = TestCostModel::uniform(3);
        assert!(model.cost_of(&[7]).is_err());
    }
}
