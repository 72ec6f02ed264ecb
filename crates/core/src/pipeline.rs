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
//!     .compaction(CompactionConfig::paper_default().with_tolerance(0.05))
//!     .guard_band(GuardBandConfig::paper_default())
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
use crate::guardband::GuardBandConfig;
use crate::metrics::ErrorBreakdown;
use crate::montecarlo::{generate_train_test, MonteCarloConfig};
use crate::report::percent;
use crate::search::{
    BudgetStats, GreedyBackward, ProgressObserver, ScreeningConfig, ScreeningStats, SearchBudget,
    SearchStrategy,
};
use crate::tester::{SequentialStats, TestPlan, TesterProgram};
use crate::Result;

/// Staged builder for the end-to-end compaction flow.
///
/// Stages may be configured in any order; [`CompactionPipeline::run`]
/// executes Monte-Carlo generation → greedy compaction → guard-banded final
/// model → tester-program deployment → cost accounting and bundles everything
/// into a [`PipelineReport`].
#[derive(Clone)]
pub struct CompactionPipeline<'d> {
    device: &'d dyn DeviceUnderTest,
    monte_carlo: MonteCarloConfig,
    test_instances: Option<usize>,
    compaction: CompactionConfig,
    guard_band: Option<GuardBandConfig>,
    budget: Option<SearchBudget>,
    screening: Option<ScreeningConfig>,
    cost_model: Option<TestCostModel>,
    classifier: Arc<dyn ClassifierFactory>,
    search: Arc<dyn SearchStrategy>,
    lookup_table: Option<usize>,
    observer: Option<Arc<dyn ProgressObserver>>,
    sequential: bool,
}

impl std::fmt::Debug for CompactionPipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompactionPipeline")
            .field("device", &self.device.name())
            .field("monte_carlo", &self.monte_carlo)
            .field("test_instances", &self.test_instances)
            .field("compaction", &self.compaction)
            .field("guard_band", &self.guard_band)
            .field("budget", &self.budget)
            .field("screening", &self.screening)
            .field("cost_model", &self.cost_model)
            .field("classifier", &self.classifier)
            .field("search", &self.search)
            .field("lookup_table", &self.lookup_table)
            .field("observer", &self.observer)
            .field("sequential", &self.sequential)
            .finish()
    }
}

impl<'d> CompactionPipeline<'d> {
    /// Starts a pipeline for a device with the paper's default configuration
    /// and the built-in [`GridBackend`] classifier.
    pub fn for_device(device: &'d dyn DeviceUnderTest) -> Self {
        CompactionPipeline {
            device,
            monte_carlo: MonteCarloConfig::new(400),
            test_instances: None,
            compaction: CompactionConfig::paper_default(),
            guard_band: None,
            budget: None,
            screening: None,
            cost_model: None,
            classifier: Arc::new(GridBackend::default()),
            search: Arc::new(GreedyBackward),
            lookup_table: None,
            observer: None,
            sequential: true,
        }
    }

    /// Configures the Monte-Carlo training-data generation stage.
    pub fn monte_carlo(mut self, config: MonteCarloConfig) -> Self {
        self.monte_carlo = config;
        self
    }

    /// Sets the size of the held-out test population (defaults to half the
    /// training population).
    pub fn test_instances(mut self, instances: usize) -> Self {
        self.test_instances = Some(instances);
        self
    }

    /// Configures the greedy compaction stage.
    pub fn compaction(mut self, config: CompactionConfig) -> Self {
        self.compaction = config;
        self
    }

    /// Configures guard banding (overrides the guard-band settings embedded
    /// in the compaction configuration).
    ///
    /// Only `guard_band_fraction` and `enforce_kept_ranges` act here: the
    /// `svm_c` / `svm_gamma` fields are *hints for SVM backends* and are not
    /// applied to the classifier stage automatically.  To adopt them,
    /// construct the backend from the same config —
    /// `.classifier(SvmBackend::from_guard_band(&gb))`.
    pub fn guard_band(mut self, config: GuardBandConfig) -> Self {
        self.guard_band = Some(config);
        self
    }

    /// Attaches a test-cost model (defaults to a uniform unit cost per test).
    pub fn cost_model(mut self, model: TestCostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Selects the classifier backend trained at every elimination step.
    pub fn classifier(mut self, factory: impl ClassifierFactory + 'static) -> Self {
        self.classifier = Arc::new(factory);
        self
    }

    /// Selects an already-shared classifier backend.
    pub fn classifier_arc(mut self, factory: Arc<dyn ClassifierFactory>) -> Self {
        self.classifier = factory;
        self
    }

    /// Selects the search strategy the compaction stage runs (defaults to
    /// the paper's [`GreedyBackward`] elimination; see [`crate::search`]
    /// for the bundled alternatives — cost-aware greedy and simulated
    /// annealing — or plug in a custom [`SearchStrategy`]).
    ///
    /// Cost-aware strategies read the pipeline's
    /// [`CompactionPipeline::cost_model`] stage (uniform unit costs when
    /// none is attached).
    pub fn search(mut self, strategy: impl SearchStrategy + 'static) -> Self {
        self.search = Arc::new(strategy);
        self
    }

    /// Selects an already-shared search strategy.
    pub fn search_arc(mut self, strategy: Arc<dyn SearchStrategy>) -> Self {
        self.search = strategy;
        self
    }

    /// Caps the training effort the compaction search may spend (overrides
    /// the budget embedded in the compaction configuration, like
    /// [`CompactionPipeline::guard_band`] — stages stay order-independent).
    /// Every strategy is anytime under a budget: a truncated run returns
    /// its best committed frontier with [`BudgetStats::exhausted`] set,
    /// never an error.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Configures screen-then-verify candidate evaluation (overrides the
    /// screening settings embedded in the compaction configuration, like
    /// [`CompactionPipeline::guard_band`] — stages stay order-independent).
    /// Off by default; inert on backends without screening support.  See
    /// [`ScreeningConfig`] for the exactness guarantees.
    pub fn screening(mut self, config: ScreeningConfig) -> Self {
        self.screening = Some(config);
        self
    }

    /// Deploys the final model as a grid lookup table with the given
    /// resolution instead of shipping the model itself (paper Section 3.3).
    pub fn lookup_table(mut self, cells_per_dim: usize) -> Self {
        self.lookup_table = Some(cells_per_dim);
        self
    }

    /// Attaches a [`ProgressObserver`] to the compaction stage: one event
    /// per model training and one snapshot per committed frontier, streamed
    /// while the search runs (see the trait for the callback contract).
    pub fn observer(mut self, observer: Arc<dyn ProgressObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Enables or disables the staged sequential deploy accounting
    /// (default: enabled).
    ///
    /// When enabled, the report's [`PipelineReport::sequential`] carries the
    /// per-device expected-cost statistics of driving the deployed program
    /// through a cheapest-first [`TestPlan`] instead of measuring every kept
    /// test up front: decision-depth histogram, early-exit fraction and the
    /// expected cost per device next to the static kept-set cost.  One-shot
    /// deployment numbers ([`PipelineReport::deployed`]) are unaffected —
    /// the sequential session is verdict-identical by construction.
    pub fn sequential_deploy(mut self, enabled: bool) -> Self {
        self.sequential = enabled;
        self
    }

    /// The held-out population size the pipeline will simulate (the explicit
    /// [`CompactionPipeline::test_instances`] or the default of half the
    /// training population).
    pub(crate) fn resolved_test_instances(&self) -> usize {
        self.test_instances.unwrap_or_else(|| (self.monte_carlo.instances / 2).max(1))
    }

    /// Runs every stage and bundles the outcome.
    ///
    /// # Errors
    ///
    /// Propagates simulation, configuration and training errors from the
    /// individual stages.
    pub fn run(&self) -> Result<PipelineReport> {
        let (train, test) =
            generate_train_test(self.device, &self.monte_carlo, self.resolved_test_instances())?;
        self.run_with_population(train, test)
    }

    /// Runs the compaction/guard-band/deployment/cost stages on an existing
    /// training and held-out population, skipping Monte-Carlo generation.
    ///
    /// This is how [`crate::batch::PipelineBatch`] reuses cached populations
    /// across runs, and how measured (non-simulated) production data enters
    /// the pipeline.  Measurement sets are cheap to pass by value: they are
    /// zero-copy views over `Arc`-shared columnar storage.
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
        let mut config = self.compaction.clone();
        if let Some(guard_band) = self.guard_band {
            config.guard_band = guard_band;
        }
        if let Some(budget) = self.budget {
            config.budget = budget;
        }
        if let Some(screening) = self.screening {
            config.screening = screening;
        }

        let compactor = Compactor::new(train, test)?;
        let backend = self.classifier.as_ref();
        let (compaction, final_model) = compactor.compact_search_observed(
            backend,
            &config,
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
        // tester that is actually deployed.
        let deployed = tester.try_evaluate(test)?;
        let guard_band = GuardBandStats {
            band_fraction: config.guard_band.guard_band_fraction,
            retest_count: deployed.guard_band_count,
            retest_fraction: deployed.guard_band_fraction(),
        };

        let sequential = if self.sequential {
            let plan = TestPlan::cheapest_first(&tester, &cost_model)?;
            Some(SequentialStats::collect(&plan, &cost_model, test)?)
        } else {
            None
        };

        Ok(PipelineReport {
            device: self.device.name().to_string(),
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
            sequential,
        })
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
    /// differs when a lookup table is substituted).
    pub deployed: ErrorBreakdown,
    /// Guard-band retest statistics of the deployed program on the held-out
    /// population.
    pub guard_band: GuardBandStats,
    /// Deployable tester program for the compacted test set.
    pub tester: TesterProgram,
    /// Cost savings the compaction buys.
    pub cost: CostSummary,
    /// Per-device expected-cost statistics of the staged sequential deploy
    /// over the held-out population (`None` when the
    /// [`CompactionPipeline::sequential_deploy`] stage disabled it, or when
    /// the report predates the field on the wire).
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

    /// Search-budget diagnostics of the run: effort consumed, whether the
    /// budget truncated the search, and the provenance of the returned
    /// frontier (see [`crate::CompactionConfig::with_budget`]).
    pub fn budget(&self) -> &BudgetStats {
        &self.compaction.budget
    }

    /// Screening diagnostics of the run: candidates scored by the low-rank
    /// screen, candidates promoted to exact verification, and how often the
    /// screen's favourite matched the exact winner (see
    /// [`crate::CompactionConfig::with_screening`]).
    pub fn screening(&self) -> &ScreeningStats {
        &self.compaction.screening
    }

    /// Error breakdown of the final compacted test set on the held-out data.
    pub fn final_breakdown(&self) -> &ErrorBreakdown {
        &self.compaction.final_breakdown
    }

    /// One-paragraph human-readable summary of the deployed program.  A
    /// budget-truncated search is called out explicitly, with the effort it
    /// consumed and the provenance of the frontier it shipped.
    pub fn summary(&self) -> String {
        let budget = &self.compaction.budget;
        let budget_note = if budget.exhausted {
            format!(
                "; search budget exhausted after {trainings} trainings / \
                 {iterations} solver iterations ({provenance} frontier)",
                trainings = budget.trainings,
                iterations = budget.solver_iterations,
                provenance = budget.provenance,
            )
        } else {
            String::new()
        };
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
        let screening = &self.compaction.screening;
        let screening_note = if screening.any() {
            format!(
                "; screen scored {screened} candidates and verified {verified} \
                 exactly over {batches} batches ({agreed} screen/exact agreements)",
                screened = screening.screened,
                verified = screening.verified,
                batches = screening.batches,
                agreed = screening.agreed,
            )
        } else {
            String::new()
        };
        format!(
            "{device} [{backend}, {search}]: eliminated {eliminated} of {total} tests \
             (yield loss {yl}, defect escape {de}, {retest} retested in a {band} \
             band), cost reduced by \
             {cost}{budget_note}{bank_note}{screening_note}{sequential_note}",
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
    fn sequential_stats_ship_by_default_and_can_be_disabled() {
        let device = SyntheticDevice::new(5, 1.8, 0.92);
        let report = pipeline(&device).run().unwrap();
        let stats = report.sequential.as_ref().expect("sequential deploy is on by default");
        assert_eq!(stats.devices, report.test_instances);
        assert_eq!(stats.stage_order.len(), report.kept().len());
        assert!(stats.expected_cost <= stats.static_cost + 1e-12);
        assert!(report.summary().contains("sequential deploy"));

        let opted_out = pipeline(&device).sequential_deploy(false).run().unwrap();
        assert!(opted_out.sequential.is_none());
        assert!(!opted_out.summary().contains("sequential deploy"));
        // The stage only adds accounting: the deployed program is unchanged.
        assert_eq!(opted_out.deployed, report.deployed);
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
