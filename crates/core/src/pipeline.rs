//! The staged compaction pipeline: one builder for the paper's entire flow.
//!
//! The methodology is a single conceptual pipeline — simulate a
//! process-perturbed population (Figure 1), greedily eliminate redundant
//! specification tests under an error tolerance (Figure 2), guard-band the
//! decision boundary (Section 4.2) and emit a deployable tester program
//! (Section 3.3) with its cost savings.  [`CompactionPipeline`] exposes that
//! flow as one staged builder instead of five hand-wired APIs:
//!
//! ```
//! use stc_core::classifier::GridBackend;
//! use stc_core::pipeline::CompactionPipeline;
//! use stc_core::{CompactionConfig, GuardBandConfig, MonteCarloConfig, SyntheticDevice};
//!
//! # fn main() -> Result<(), stc_core::CompactionError> {
//! let device = SyntheticDevice::new(4, 1.8, 0.9);
//! let report = CompactionPipeline::for_device(&device)
//!     .monte_carlo(MonteCarloConfig::new(300).with_seed(1))
//!     .compaction(
//!         CompactionConfig::paper_default()
//!             .with_tolerance(0.05)
//!             .with_guard_band(GuardBandConfig::paper_default()),
//!     )
//!     .classifier(GridBackend::default())
//!     .run()?;
//! assert_eq!(report.kept().len() + report.eliminated().len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! The classifier stage is pluggable (see [`crate::classifier`]); the
//! ε-SVM backend of the paper lives in `stc-svm` as `SvmBackend`.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::classifier::{ClassifierFactory, GridBackend};
use crate::compaction::{CompactionConfig, CompactionResult, Compactor};
use crate::costmodel::TestCostModel;
use crate::dataset::MeasurementSet;
use crate::device::DeviceUnderTest;
use crate::metrics::ErrorBreakdown;
use crate::montecarlo::{generate_train_test, MonteCarloConfig};
use crate::report::percent;
use crate::search::{GreedyBackward, ProgressObserver, SearchStrategy};
use crate::tester::{SequentialStats, TestPlan, TesterProgram};
use crate::Result;

/// The stage configuration [`CompactionPipeline`] and
/// [`crate::batch::PipelineBatch`] share: everything a run needs besides the
/// population it runs on.
#[derive(Debug, Clone)]
pub(crate) struct Stages {
    pub(crate) monte_carlo: MonteCarloConfig,
    pub(crate) test_instances: Option<usize>,
    pub(crate) compaction: CompactionConfig,
    pub(crate) cost_model: Option<TestCostModel>,
    pub(crate) classifier: Arc<dyn ClassifierFactory>,
    pub(crate) search: Arc<dyn SearchStrategy>,
    pub(crate) lookup_table: Option<usize>,
    pub(crate) observer: Option<Arc<dyn ProgressObserver>>,
}

impl Default for Stages {
    /// The paper's default configuration with the built-in [`GridBackend`].
    fn default() -> Self {
        Stages {
            monte_carlo: MonteCarloConfig::new(400),
            test_instances: None,
            compaction: CompactionConfig::paper_default(),
            cost_model: None,
            classifier: Arc::new(GridBackend::default()),
            search: Arc::new(GreedyBackward),
            lookup_table: None,
            observer: None,
        }
    }
}

impl Stages {
    /// The held-out population size (the explicit test-instance count or
    /// the default of half the training population).
    pub(crate) fn resolved_test_instances(&self) -> usize {
        self.test_instances.unwrap_or_else(|| (self.monte_carlo.instances / 2).max(1))
    }

    /// Runs the compaction/guard-band/deployment/cost stages on an existing
    /// population and reports it under `device_name`.
    pub(crate) fn run_with_population(
        &self,
        device_name: &str,
        train: MeasurementSet,
        test: MeasurementSet,
    ) -> Result<PipelineReport> {
        let config = &self.compaction;
        let compactor = Compactor::new(train, test)?;
        let backend = self.classifier.as_ref();
        let (compaction, final_model) = compactor.compact_search_observed(
            backend,
            config,
            self.search.as_ref(),
            self.cost_model.as_ref(),
            self.observer.clone(),
        )?;

        let train = compactor.training();
        let test = compactor.testing();
        // Reuse the model pair the loop trained on the final kept set; when
        // nothing was eliminated the complete suite needs no model at all.
        let tester = match (final_model, self.lookup_table) {
            (None, _) => TesterProgram::complete(train.specs().clone()),
            (Some(classifier), Some(cells_per_dim)) => {
                TesterProgram::with_lookup_table(train.specs().clone(), &classifier, cells_per_dim)?
            }
            (Some(classifier), None) => {
                TesterProgram::with_model(train.specs().clone(), classifier)
            }
        };

        let cost_model = match &self.cost_model {
            Some(model) => model.clone(),
            None => TestCostModel::uniform(train.specs().len()),
        };
        let cost = CostSummary {
            full_cost: cost_model.full_cost(),
            compacted_cost: cost_model.cost_of(&compaction.kept)?,
            reduction: cost_model.cost_reduction(&compaction.kept)?,
        };

        // Evaluate the *shipped* program on the held-out data: when a lookup
        // table is substituted for the exact model pair, its numbers differ
        // from the loop's `final_breakdown`, and the report must describe the
        // tester that is actually deployed.  Its cheapest-first sessions
        // reach every device's final verdict, so one pass yields both the
        // breakdown and the sequential statistics.
        let plan = TestPlan::cheapest_first(&tester, &cost_model)?;
        let (sequential, deployed) =
            SequentialStats::deploy(&plan, &cost_model, test, config.threads)?;
        let guard_band = GuardBandStats {
            band_fraction: config.guard_band.guard_band_fraction,
            retest_count: deployed.guard_band_count,
            retest_fraction: deployed.guard_band_fraction(),
        };

        Ok(PipelineReport {
            device: device_name.to_string(),
            backend: self.classifier.name().to_string(),
            search: self.search.name().to_string(),
            train_instances: train.len(),
            test_instances: test.len(),
            train_yield: train.yield_fraction(),
            test_yield: test.yield_fraction(),
            compaction,
            deployed,
            guard_band,
            tester,
            cost,
            sequential: Some(sequential),
        })
    }
}

/// The stage setters [`CompactionPipeline`] and
/// [`PipelineBatch`](crate::batch::PipelineBatch) share, written once over
/// their `stages: Stages` field.
macro_rules! stage_setters {
    () => {
        /// Configures the Monte-Carlo training-data generation stage.
        pub fn monte_carlo(mut self, config: $crate::MonteCarloConfig) -> Self {
            self.stages.monte_carlo = config;
            self
        }

        /// Sets the size of the held-out test population (defaults to half
        /// the training population).
        pub fn test_instances(mut self, instances: usize) -> Self {
            self.stages.test_instances = Some(instances);
            self
        }

        /// Configures the compaction stage: tolerance, order, guard band,
        /// elimination cap, threads and warm starts.  The classifier's own
        /// hyper-parameters belong to the [`classifier`](Self::classifier)
        /// stage.
        pub fn compaction(mut self, config: $crate::CompactionConfig) -> Self {
            self.stages.compaction = config;
            self
        }

        /// Attaches a test-cost model (defaults to a uniform unit cost per
        /// test).
        pub fn cost_model(mut self, model: $crate::TestCostModel) -> Self {
            self.stages.cost_model = Some(model);
            self
        }

        /// Selects the classifier backend trained at every elimination step.
        pub fn classifier(mut self, factory: impl $crate::ClassifierFactory + 'static) -> Self {
            self.stages.classifier = std::sync::Arc::new(factory);
            self
        }

        /// Selects an already-shared classifier backend.
        pub fn classifier_arc(
            mut self,
            factory: std::sync::Arc<dyn $crate::ClassifierFactory>,
        ) -> Self {
            self.stages.classifier = factory;
            self
        }

        /// Selects the search strategy the compaction stage runs (defaults to
        /// the paper's [`GreedyBackward`](crate::GreedyBackward) elimination;
        /// see [`crate::search`] for the bundled alternatives — cost-aware
        /// greedy and simulated annealing — or plug in a custom
        /// [`SearchStrategy`](crate::SearchStrategy)).
        ///
        /// Cost-aware strategies read the [`cost_model`](Self::cost_model)
        /// stage (uniform unit costs when none is attached).
        pub fn search(mut self, strategy: impl $crate::SearchStrategy + 'static) -> Self {
            self.stages.search = std::sync::Arc::new(strategy);
            self
        }

        /// Selects an already-shared search strategy.
        pub fn search_arc(mut self, strategy: std::sync::Arc<dyn $crate::SearchStrategy>) -> Self {
            self.stages.search = strategy;
            self
        }

        /// Deploys the final model as a grid lookup table with the given
        /// resolution instead of shipping the model itself (paper Section
        /// 3.3).
        pub fn lookup_table(mut self, cells_per_dim: usize) -> Self {
            self.stages.lookup_table = Some(cells_per_dim);
            self
        }

        /// Attaches a [`ProgressObserver`](crate::ProgressObserver) to the
        /// compaction stage: one event per model training and one snapshot
        /// per committed frontier, streamed while the search runs (see the
        /// trait for the callback contract).
        pub fn observer(mut self, observer: std::sync::Arc<dyn $crate::ProgressObserver>) -> Self {
            self.stages.observer = Some(observer);
            self
        }
    };
}
pub(crate) use stage_setters;

/// Staged builder for the end-to-end compaction flow.
///
/// Stages may be configured in any order; [`CompactionPipeline::run`]
/// executes Monte-Carlo generation → the compaction search (greedy by
/// default), run to completion → guard-banded final model → tester-program
/// deployment → cost accounting and bundles everything into a
/// [`PipelineReport`].  The guard band is part of the compaction stage
/// ([`CompactionConfig::with_guard_band`]).
#[derive(Clone)]
pub struct CompactionPipeline<'d> {
    device: &'d dyn DeviceUnderTest,
    stages: Stages,
}

impl std::fmt::Debug for CompactionPipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompactionPipeline")
            .field("device", &self.device.name())
            .field("stages", &self.stages)
            .finish()
    }
}

impl<'d> CompactionPipeline<'d> {
    /// Starts a pipeline for a device with the paper's default configuration
    /// and the built-in [`GridBackend`] classifier.
    pub fn for_device(device: &'d dyn DeviceUnderTest) -> Self {
        CompactionPipeline { device, stages: Stages::default() }
    }

    stage_setters!();

    /// Runs every stage and bundles the outcome.
    ///
    /// # Errors
    ///
    /// Propagates simulation, configuration and training errors from the
    /// individual stages.
    pub fn run(&self) -> Result<PipelineReport> {
        let (train, test) = generate_train_test(
            self.device,
            &self.stages.monte_carlo,
            self.stages.resolved_test_instances(),
        )?;
        self.run_with_population(train, test)
    }

    /// Runs the compaction/guard-band/deployment/cost stages on an existing
    /// training and held-out population, skipping Monte-Carlo generation.
    ///
    /// Measurement sets are cheap to pass by value: they are zero-copy views
    /// over `Arc`-shared columnar storage.  (To compact measured production
    /// data without a device model, add it to a
    /// [`crate::batch::PipelineBatch`] with
    /// [`measured`](crate::batch::PipelineBatch::measured).)
    ///
    /// # Errors
    ///
    /// Propagates configuration and training errors; the populations must be
    /// non-empty and share a specification set.
    pub fn run_with_population(
        &self,
        train: MeasurementSet,
        test: MeasurementSet,
    ) -> Result<PipelineReport> {
        self.stages.run_with_population(self.device.name(), train, test)
    }
}

/// Guard-band retest statistics of the final compacted test set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardBandStats {
    /// Guard-band half-width (fraction of each range) of the deployed model.
    pub band_fraction: f64,
    /// Devices of the held-out population that fell in the band (candidates
    /// for retest with the full specification suite).
    pub retest_count: usize,
    /// The same count as a fraction of the held-out population.
    pub retest_fraction: f64,
}

/// Test-cost accounting of the compacted test set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostSummary {
    /// Cost of applying the complete specification test set.
    pub full_cost: f64,
    /// Cost of applying only the kept tests.
    pub compacted_cost: f64,
    /// Relative saving (0 = none, 1 = everything free).
    pub reduction: f64,
}

/// Everything one pipeline run produces.
///
/// Serialises completely: the embedded [`TesterProgram`]'s exact model turns
/// into its `Detached` descriptor on the wire (see
/// [`crate::TesterModel`]'s serialisation notes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Device family name.
    pub device: String,
    /// Classifier backend name.
    pub backend: String,
    /// Search strategy name (`"greedy-backward"` unless a
    /// [`CompactionPipeline::search`] stage selected an alternative).
    pub search: String,
    /// Number of training instances simulated.
    pub train_instances: usize,
    /// Number of held-out test instances simulated.
    pub test_instances: usize,
    /// Training-population yield against the full specification set.
    pub train_yield: f64,
    /// Test-population yield.
    pub test_yield: f64,
    /// Kept/eliminated sets, the per-step error breakdowns and the final
    /// breakdown of the greedy loop.
    pub compaction: CompactionResult,
    /// Error breakdown of the *deployed* tester program on the held-out data
    /// (identical to the loop's final breakdown for the exact model pair;
    /// differs when a lookup table is substituted).  It comes from the
    /// verdicts of the cheapest-first sessions that also yield
    /// [`PipelineReport::sequential`], which equal
    /// [`TesterProgram::try_evaluate`]'s.
    pub deployed: ErrorBreakdown,
    /// Guard-band retest statistics of the deployed program on the held-out
    /// population.
    pub guard_band: GuardBandStats,
    /// Deployable tester program for the compacted test set.
    pub tester: TesterProgram,
    /// Cost savings the compaction buys.
    pub cost: CostSummary,
    /// Per-device expected-cost statistics of the staged sequential deploy
    /// over the held-out population: the decision-depth histogram, the
    /// early-exit fraction and the expected cost per device of driving the
    /// deployed program through a cheapest-first [`TestPlan`] instead of
    /// measuring every kept test up front, next to the static kept-set
    /// cost.  A run always fills it; `None` only in a report that predates
    /// the field on the wire, or that was produced with the sequential
    /// stage turned off before 0.22.
    #[serde(default)]
    pub sequential: Option<SequentialStats>,
}

impl PipelineReport {
    /// Indices of the specifications that must still be tested.
    pub fn kept(&self) -> &[usize] {
        &self.compaction.kept
    }

    /// Indices of the eliminated specifications, in elimination order.
    pub fn eliminated(&self) -> &[usize] {
        &self.compaction.eliminated
    }

    /// Fraction of tests removed from the complete set.
    pub fn compaction_ratio(&self) -> f64 {
        self.compaction.compaction_ratio()
    }

    /// Warm-start diagnostics of the greedy loop: trainings and solver
    /// iterations, split warm versus cold (see
    /// [`crate::CompactionConfig::with_warm_start`]).
    pub fn warm_start(&self) -> &crate::WarmStartStats {
        &self.compaction.warm_start
    }

    /// Error breakdown of the final compacted test set on the held-out data.
    pub fn final_breakdown(&self) -> &ErrorBreakdown {
        &self.compaction.final_breakdown
    }

    /// One-paragraph human-readable summary of the deployed program.
    pub fn summary(&self) -> String {
        let sequential_note = match &self.sequential {
            Some(stats) => format!(
                "; sequential deploy expects {expected:.3} per device against a \
                 static kept-set cost of {static_cost:.3} ({exits} early exits)",
                expected = stats.expected_cost,
                static_cost = stats.static_cost,
                exits = percent(stats.early_exit_fraction()),
            ),
            None => String::new(),
        };
        let bank = &self.compaction.warm_start.bank;
        let bank_note = if bank.any() {
            format!(
                "; row bank seeded {seeded} kernel rows ({rebuilt} rebuilt, \
                 {ignored} banks ignored)",
                seeded = bank.seeded_rows,
                rebuilt = bank.rebuilt_rows,
                ignored = bank.ignored_banks,
            )
        } else {
            String::new()
        };
        format!(
            "{device} [{backend}, {search}]: eliminated {eliminated} of {total} tests \
             (yield loss {yl}, defect escape {de}, {retest} retested in a {band} \
             band), cost reduced by {cost}{bank_note}{sequential_note}",
            device = self.device,
            backend = self.backend,
            search = self.search,
            eliminated = self.compaction.eliminated.len(),
            total = self.compaction.kept.len() + self.compaction.eliminated.len(),
            yl = percent(self.deployed.yield_loss()),
            de = percent(self.deployed.defect_escape()),
            retest = percent(self.guard_band.retest_fraction),
            band = percent(self.guard_band.band_fraction),
            cost = percent(self.cost.reduction),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SyntheticDevice;

    fn pipeline(device: &SyntheticDevice) -> CompactionPipeline<'_> {
        CompactionPipeline::for_device(device)
            .monte_carlo(MonteCarloConfig::new(400).with_seed(13))
            .test_instances(200)
            .compaction(CompactionConfig::paper_default().with_tolerance(0.05))
    }

    #[test]
    fn pipeline_runs_with_the_grid_backend() {
        let device = SyntheticDevice::new(5, 1.8, 0.92);
        let report = pipeline(&device).run().unwrap();
        assert_eq!(report.backend, "grid");
        assert_eq!(report.kept().len() + report.eliminated().len(), 5);
        assert!(!report.kept().is_empty());
        assert!(report.final_breakdown().prediction_error() <= 0.05 + 1e-9);
        assert_eq!(report.train_instances, 400);
        assert_eq!(report.test_instances, 200);
        assert!(report.summary().contains("grid"));
        // Uniform default cost model: reduction equals the compaction ratio.
        assert!((report.cost.reduction - report.compaction_ratio()).abs() < 1e-9);
    }

    #[test]
    fn pipeline_is_deterministic_for_a_fixed_seed() {
        let device = SyntheticDevice::new(4, 1.8, 0.9);
        let first = pipeline(&device).run().unwrap();
        let second = pipeline(&device).run().unwrap();
        assert_eq!(first.compaction, second.compaction);
        assert_eq!(first.train_yield, second.train_yield);
        assert_eq!(first.test_yield, second.test_yield);
    }

    #[test]
    fn threaded_and_sequential_runs_agree() {
        let device = SyntheticDevice::new(5, 1.8, 0.9);
        let sequential = pipeline(&device).run().unwrap();
        let threaded = pipeline(&device)
            .compaction(CompactionConfig::paper_default().with_tolerance(0.05).with_threads(4))
            .run()
            .unwrap();
        assert_eq!(sequential.compaction, threaded.compaction);
    }

    #[test]
    fn lookup_table_stage_changes_the_tester_model() {
        let device = SyntheticDevice::new(3, 1.5, 0.85);
        let report = pipeline(&device).lookup_table(16).run().unwrap();
        assert!(matches!(report.tester.model(), crate::TesterModel::LookupTable(_)));
        let direct = pipeline(&device).run().unwrap();
        assert!(matches!(direct.tester.model(), crate::TesterModel::Exact(_)));
    }

    #[test]
    fn nothing_eliminated_ships_the_complete_suite() {
        // A zero tolerance rejects every elimination; the report must stay
        // internally consistent: no model, no retests, zero error — both in
        // the breakdown and in the deployed tester program.
        let device = SyntheticDevice::new(4, 1.8, 0.9);
        let report = pipeline(&device)
            .compaction(CompactionConfig::paper_default().with_tolerance(0.0))
            .run()
            .unwrap();
        assert!(report.eliminated().is_empty());
        assert!(matches!(report.tester.model(), crate::TesterModel::CompleteSuite));
        assert_eq!(report.guard_band.retest_count, 0);
        assert_eq!(report.final_breakdown().prediction_error(), 0.0);
        assert_eq!(report.cost.reduction, 0.0);
    }

    #[test]
    fn search_stage_selects_the_strategy() {
        use crate::search::{CostAwareGreedy, SimulatedAnnealing};

        let device = SyntheticDevice::new(5, 1.8, 0.92);
        let default_run = pipeline(&device).run().unwrap();
        assert_eq!(default_run.search, "greedy-backward");
        assert!(default_run.summary().contains("greedy-backward"));

        let aware_run = pipeline(&device).search(CostAwareGreedy).run().unwrap();
        assert_eq!(aware_run.search, "cost-aware-greedy");
        assert!(aware_run.final_breakdown().prediction_error() <= 0.05 + 1e-9);

        let annealing_run = pipeline(&device).search(SimulatedAnnealing::new(3)).run().unwrap();
        assert_eq!(annealing_run.search, "simulated-annealing");
        assert!(annealing_run.final_breakdown().prediction_error() <= 0.05 + 1e-9);
    }

    #[test]
    fn sequential_stats_ship_with_every_report() {
        let device = SyntheticDevice::new(5, 1.8, 0.92);
        let report = pipeline(&device).run().unwrap();
        let stats = report.sequential.as_ref().expect("every run reports sequential stats");
        assert_eq!(stats.devices, report.test_instances);
        assert_eq!(stats.stage_order.len(), report.kept().len());
        assert!(stats.expected_cost <= stats.static_cost + 1e-12);
        assert!(report.summary().contains("sequential deploy"));
    }

    #[test]
    fn sequential_stage_orders_by_the_attached_cost_model() {
        let device = SyntheticDevice::new(4, 1.8, 0.9);
        let cost =
            TestCostModel::new(vec![9.0, 1.0, 1.0, 1.0], vec![0, 0, 1, 1], vec![0.0, 0.0]).unwrap();
        let report = pipeline(&device).cost_model(cost).run().unwrap();
        let stats = report.sequential.as_ref().unwrap();
        // Cheapest-first: if test 0 (cost 9) was kept alongside any other
        // kept test, it must not lead the stage order.
        if stats.stage_order.len() > 1 && report.kept().contains(&0) {
            assert_ne!(stats.stage_order[0], 0);
        }
        assert!(stats.expected_cost <= stats.static_cost + 1e-12);
    }

    #[test]
    fn cost_model_stage_is_honoured() {
        let device = SyntheticDevice::new(4, 1.8, 0.9);
        let cost =
            TestCostModel::new(vec![1.0, 1.0, 1.0, 1.0], vec![0, 0, 1, 1], vec![5.0, 5.0]).unwrap();
        let report = pipeline(&device).cost_model(cost.clone()).run().unwrap();
        assert!((report.cost.full_cost - cost.full_cost()).abs() < 1e-12);
        assert!(report.cost.compacted_cost <= report.cost.full_cost);
    }
}
