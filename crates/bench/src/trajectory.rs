//! Machine-readable performance trajectories for the compaction stack.
//!
//! Two reports, both deterministic and byte-diffed on CI:
//!
//! * [`TrajectoryReport`] — **solver counters** (trainings, SMO iterations,
//!   warm-start and cache statistics) for a fixed compaction workload across
//!   population scales and search strategies.  Every field is an exact
//!   integer or a literal configuration constant, so the enveloped JSON is
//!   byte-identical across machines and CI *diffs* the regenerated file
//!   against the committed `crates/bench/snapshots/BENCH_trajectory.json`,
//!   exactly like `BENCH_pipeline.json`.
//! * [`SequentialReport`] — **sequential-deploy accounting** (stage orders,
//!   decision-depth histograms, expected versus static cost) for fixed
//!   pipelines under uniform and non-uniform cost models, diffed against
//!   `BENCH_sequential.json`.
//!
//! Both files are wrapped in the versioned `stc-serve` envelope
//! (`{"schema_version": 1, "payload": ...}`), produced and checked by the
//! `trajectory` binary.  Wall time is not measured here: the `perfbench`
//! workspace times the whole flow and each layer under it.

use serde::{Deserialize, Serialize};
use stc_core::pipeline::CompactionPipeline;
use stc_core::{
    generate_train_test, CompactionConfig, CompactionResult, Compactor, MonteCarloConfig,
    SearchStrategy, SyntheticDevice, TestCostModel,
};
use stc_svm::SvmBackend;

/// Deterministic counters for one `(population, strategy)` compaction run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// Training population size (devices).
    pub train_devices: usize,
    /// Held-out population size (devices).
    pub test_devices: usize,
    /// Specification count of the synthetic device.
    pub specs: usize,
    /// Search strategy that produced this point.
    pub strategy: String,
    /// Error tolerance the run was configured with.
    pub tolerance: f64,
    /// Kept specification indices.
    pub kept: Vec<usize>,
    /// Eliminated specification indices, in elimination order.
    pub eliminated: Vec<usize>,
    /// Model trainings the run started: one per model-cache miss.
    pub trainings: usize,
    /// Total SMO iterations across all trainings, warm and cold.
    pub solver_iterations: usize,
    /// Trainings that warm-started from a parent model.
    pub warm_trainings: usize,
    /// Trainings that started cold.
    pub cold_trainings: usize,
    /// SMO iterations spent by warm-started trainings.
    pub warm_iterations: usize,
    /// SMO iterations spent by cold trainings.
    pub cold_iterations: usize,
    /// Model-cache hits observed by the evaluator.
    pub cache_hits: usize,
    /// Model-cache misses observed by the evaluator.
    pub cache_misses: usize,
}

impl TrajectoryPoint {
    fn from_result(
        train_devices: usize,
        test_devices: usize,
        specs: usize,
        strategy: &str,
        tolerance: f64,
        result: &CompactionResult,
    ) -> Self {
        TrajectoryPoint {
            train_devices,
            test_devices,
            specs,
            strategy: strategy.to_string(),
            tolerance,
            kept: result.kept.clone(),
            eliminated: result.eliminated.clone(),
            trainings: result.cache.misses,
            solver_iterations: result.warm_start.total_iterations(),
            warm_trainings: result.warm_start.warm_trainings,
            cold_trainings: result.warm_start.cold_trainings,
            warm_iterations: result.warm_start.warm_iterations,
            cold_iterations: result.warm_start.cold_iterations,
            cache_hits: result.cache.hits,
            cache_misses: result.cache.misses,
        }
    }
}

/// The deterministic performance trajectory of the ε-SVM compaction stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryReport {
    /// One point per `(population, strategy)` pair, in workload order.
    pub points: Vec<TrajectoryPoint>,
}

impl TrajectoryReport {
    /// Structural sanity of a decoded report (used by `trajectory --check`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("trajectory has no points".to_string());
        }
        for (i, point) in self.points.iter().enumerate() {
            if point.kept.is_empty() {
                return Err(format!("point {i}: kept set is empty"));
            }
            if point.kept.len() + point.eliminated.len() != point.specs {
                return Err(format!("point {i}: kept + eliminated != specs"));
            }
            if point.trainings == 0 || point.solver_iterations == 0 {
                return Err(format!("point {i}: no solver work recorded"));
            }
            if point.warm_trainings + point.cold_trainings != point.trainings {
                return Err(format!("point {i}: warm + cold trainings != trainings"));
            }
        }
        Ok(())
    }
}

/// The fixed workload behind [`TrajectoryReport`]: two synthetic populations
/// (fixed seeds, sizes independent of `STC_SCALE`), each compacted with the
/// greedy loop and the cost-aware strategy on the paper's ε-SVM backend.  Pure integer counters out of a deterministic stack: running
/// this twice — or on two machines — produces byte-identical reports.
///
/// # Panics
///
/// Panics if a population cannot be generated or a compaction fails (both
/// indicate a broken build, not bad input).
pub fn collect_trajectory() -> TrajectoryReport {
    let backend = SvmBackend::paper_default();
    let tolerance = 0.05;
    let mut points = Vec::new();
    for (specs, train_devices, test_devices, seed) in [(5, 300, 150, 31u64), (6, 400, 200, 7)] {
        let device = SyntheticDevice::new(specs, 1.8, 0.92);
        let monte_carlo = MonteCarloConfig::new(train_devices).with_seed(seed);
        let (train, test) =
            generate_train_test(&device, &monte_carlo, test_devices).expect("population generates");
        let compactor = Compactor::new(train, test).expect("populations are valid");
        let config = CompactionConfig::paper_default().with_tolerance(tolerance);

        let greedy = compactor.compact_with(&backend, &config).expect("greedy compaction runs");
        points.push(TrajectoryPoint::from_result(
            train_devices,
            test_devices,
            specs,
            "greedy",
            tolerance,
            &greedy,
        ));

        let aware = compactor
            .compact_with_strategy(&backend, &config, SearchStrategy::CostAware, None)
            .expect("strategy compaction runs");
        points.push(TrajectoryPoint::from_result(
            train_devices,
            test_devices,
            specs,
            SearchStrategy::CostAware.name(),
            tolerance,
            &aware,
        ));
    }
    TrajectoryReport { points }
}

/// Deterministic sequential-deploy accounting for one `(population, cost
/// model)` pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequentialPoint {
    /// Specification count of the synthetic device.
    pub specs: usize,
    /// Training population size (devices).
    pub train_devices: usize,
    /// Held-out population size (devices).
    pub test_devices: usize,
    /// Error tolerance the run was configured with.
    pub tolerance: f64,
    /// `"uniform"` or `"grouped"` — the cost model driving the stage order.
    pub cost_model: String,
    /// Kept specification indices.
    pub kept: Vec<usize>,
    /// Cheapest-first stage order the deploy ran.
    pub stage_order: Vec<usize>,
    /// Devices that exited before the final stage.
    pub early_exits: usize,
    /// `decision_depths[d]` devices decided after `d + 1` measurements.
    pub decision_depths: Vec<usize>,
    /// Mean decision depth (measurements per device).
    pub mean_depth: f64,
    /// Expected cost per device of the sequential deploy.
    pub expected_cost: f64,
    /// Cost of measuring the whole kept set up front.
    pub static_cost: f64,
}

/// The deterministic sequential-deploy trajectory (byte-diffed on CI).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequentialReport {
    /// One point per `(population, cost model)` pair, in workload order.
    pub points: Vec<SequentialPoint>,
}

impl SequentialReport {
    /// Structural sanity of a decoded report (used by `trajectory --check`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("sequential report has no points".to_string());
        }
        for (i, point) in self.points.iter().enumerate() {
            if point.kept.is_empty() {
                return Err(format!("point {i}: kept set is empty"));
            }
            let mut staged = point.stage_order.clone();
            let mut kept = point.kept.clone();
            staged.sort_unstable();
            kept.sort_unstable();
            if staged != kept {
                return Err(format!("point {i}: stage order is not a permutation of kept"));
            }
            let decided: usize = point.decision_depths.iter().sum();
            if decided != point.test_devices {
                return Err(format!("point {i}: decision depths do not cover the population"));
            }
            if point.early_exits > point.test_devices {
                return Err(format!("point {i}: more early exits than devices"));
            }
            if point.expected_cost > point.static_cost + 1e-9 {
                return Err(format!(
                    "point {i}: expected cost {} exceeds static cost {}",
                    point.expected_cost, point.static_cost
                ));
            }
        }
        Ok(())
    }
}

/// A non-uniform cost model over `tests` specifications: rising per-test
/// costs split across two insertions, the second expensive to open.
fn grouped_cost_model(tests: usize) -> TestCostModel {
    let per_test: Vec<f64> = (0..tests).map(|i| 1.0 + i as f64).collect();
    let groups: Vec<usize> = (0..tests).map(|i| usize::from(i >= tests / 2)).collect();
    TestCostModel::new(per_test, groups, vec![2.0, 10.0]).expect("grouped cost model is valid")
}

/// The fixed workload behind [`SequentialReport`]: the trajectory's two
/// synthetic populations, each compacted once on the ε-SVM backend and
/// deployed sequentially under a uniform and a grouped cost model.
/// Eliminations are capped so the deployed plans keep several stages — a
/// single-stage plan cannot exit early and prices nothing.  The whole stack
/// — simulation, training, staging, cost accounting — is deterministic, so
/// the report is byte-identical across machines.
///
/// # Panics
///
/// Panics if a pipeline run fails (a broken build, not bad input).
pub fn collect_sequential() -> SequentialReport {
    let tolerance = 0.05;
    let mut points = Vec::new();
    for (specs, train_devices, test_devices, seed) in [(5, 300, 150, 31u64), (6, 400, 200, 7)] {
        let device = SyntheticDevice::new(specs, 1.8, 0.92);
        for (name, cost_model) in
            [("uniform", TestCostModel::uniform(specs)), ("grouped", grouped_cost_model(specs))]
        {
            let report = CompactionPipeline::for_device(&device)
                .monte_carlo(MonteCarloConfig::new(train_devices).with_seed(seed))
                .test_instances(test_devices)
                .compaction(
                    CompactionConfig::paper_default()
                        .with_tolerance(tolerance)
                        .with_max_eliminated(2),
                )
                .classifier(SvmBackend::paper_default())
                .cost_model(cost_model)
                .run()
                .expect("sequential workload pipeline runs");
            let stats = report.sequential.as_ref().expect("sequential deploy is on by default");
            points.push(SequentialPoint {
                specs,
                train_devices,
                test_devices,
                tolerance,
                cost_model: name.to_string(),
                kept: report.compaction.kept.clone(),
                stage_order: stats.stage_order.clone(),
                early_exits: stats.early_exits,
                decision_depths: stats.decision_depths.clone(),
                mean_depth: stats.mean_depth,
                expected_cost: stats.expected_cost,
                static_cost: stats.static_cost,
            });
        }
    }
    SequentialReport { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_validation_rejects_inconsistent_points() {
        let mut report = SequentialReport {
            points: vec![SequentialPoint {
                specs: 4,
                train_devices: 100,
                test_devices: 50,
                tolerance: 0.05,
                cost_model: "uniform".to_string(),
                kept: vec![0, 2],
                stage_order: vec![2, 0],
                early_exits: 5,
                decision_depths: vec![5, 45],
                mean_depth: 1.9,
                expected_cost: 1.9,
                static_cost: 2.0,
            }],
        };
        report.validate().expect("consistent point validates");
        report.points[0].stage_order = vec![2, 1];
        assert!(report.validate().is_err());
        report.points[0].stage_order = vec![2, 0];
        report.points[0].decision_depths = vec![5, 40];
        assert!(report.validate().is_err());
        report.points[0].decision_depths = vec![5, 45];
        report.points[0].expected_cost = 2.5;
        assert!(report.validate().is_err());
        assert!(SequentialReport { points: vec![] }.validate().is_err());
    }

    #[test]
    fn trajectory_validation_rejects_inconsistent_points() {
        let mut report = TrajectoryReport {
            points: vec![TrajectoryPoint {
                train_devices: 10,
                test_devices: 5,
                specs: 3,
                strategy: "greedy".to_string(),
                tolerance: 0.05,
                kept: vec![0, 1],
                eliminated: vec![2],
                trainings: 4,
                solver_iterations: 100,
                warm_trainings: 3,
                cold_trainings: 1,
                warm_iterations: 60,
                cold_iterations: 40,
                cache_hits: 0,
                cache_misses: 4,
            }],
        };
        report.validate().expect("consistent point validates");
        report.points[0].warm_trainings = 4;
        assert!(report.validate().is_err());
        assert!(TrajectoryReport { points: vec![] }.validate().is_err());
    }
}
