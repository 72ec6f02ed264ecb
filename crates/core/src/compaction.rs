//! The compaction shell: configuration, result assembly and the
//! [`Compactor`] entry points over the search layer.
//!
//! The search itself lives in [`crate::search`]: the chosen
//! [`SearchStrategy`] proposes kept-set candidates through the run's
//! candidate evaluator (the only component that trains models — it owns
//! the per-run model cache, the warm-start bookkeeping and the worker
//! threads), and this module takes the eliminations it committed, reuses
//! the deploy-stage model and assembles the [`CompactionResult`].  The
//! paper's greedy backward elimination (Figure 2) is the default strategy
//! and is byte-identical to the pre-0.5 hard-coded loop.

use serde::{Deserialize, Serialize};

use crate::classifier::{BankStats, ClassifierFactory};
use crate::costmodel::TestCostModel;
use crate::dataset::MeasurementSet;
use crate::guardband::{GuardBandConfig, GuardBandedClassifier};
use crate::metrics::ErrorBreakdown;
use crate::ordering::EliminationOrder;
use crate::search::{CandidateEvaluator, ProgressObserver, SearchStrategy};
use crate::{CompactionError, Result};

/// Configuration of the compaction loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactionConfig {
    /// User-defined tolerance on the prediction error (`e_T` in the paper):
    /// a candidate test stays eliminated only if the prediction error of the
    /// model built without it is at or below this fraction.
    pub error_tolerance: f64,
    /// Order in which candidate tests are examined.
    pub order: EliminationOrder,
    /// Guard-band settings shared by every model trained in the loop.
    pub guard_band: GuardBandConfig,
    /// Optional cap on how many tests may be eliminated (`None` = unlimited).
    pub max_eliminated: Option<usize>,
    /// Worker threads that train the search's models (1 = sequential).
    /// Each candidate kept set trains as two jobs, its strict and its loose
    /// model, so two threads train one candidate's pair at once, and greedy
    /// elimination speculates on ⌈threads / 2⌉ candidates per batch.  A
    /// pipeline run also deploys its tester on the held-out devices on this
    /// many threads.  The result is identical for any thread count; see
    /// [`Compactor::compact_with`].
    pub threads: usize,
    /// Whether candidate trainings may warm-start from the cached model of
    /// the current committed kept set (the candidate's parent, differing by
    /// exactly one column).  Warm-started models converge to the same KKT
    /// tolerance as cold ones and the run is byte-identical for any thread
    /// count; against a *cold* run, kept/eliminated sets match in practice
    /// (pinned by the test suite), though individual breakdown counts may
    /// differ by devices sitting within the solver tolerance of a decision
    /// boundary.  Disable to measure the cold-start baseline.
    pub warm_start: bool,
}

impl CompactionConfig {
    /// The paper's defaults: 1 % error tolerance, 5 % guard band,
    /// classification-power ordering, sequential evaluation, warm starts
    /// enabled.
    pub fn paper_default() -> Self {
        CompactionConfig {
            error_tolerance: 0.01,
            order: EliminationOrder::ByClassificationPower,
            guard_band: GuardBandConfig::paper_default(),
            max_eliminated: None,
            threads: 1,
            warm_start: true,
        }
    }

    /// Sets the error tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.error_tolerance = tolerance;
        self
    }

    /// Sets the elimination order.
    pub fn with_order(mut self, order: EliminationOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the guard-band configuration.
    pub fn with_guard_band(mut self, guard_band: GuardBandConfig) -> Self {
        self.guard_band = guard_band;
        self
    }

    /// Caps the number of eliminated tests.
    pub fn with_max_eliminated(mut self, max: usize) -> Self {
        self.max_eliminated = Some(max);
        self
    }

    /// Sets the number of worker threads that train the search's models
    /// and deploy a pipeline's tester (see [`CompactionConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables warm-started candidate training (enabled by
    /// default; see [`CompactionConfig::warm_start`] for the guarantees).
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    fn validate(&self) -> Result<()> {
        if !(self.error_tolerance >= 0.0 && self.error_tolerance < 1.0) {
            return Err(CompactionError::InvalidConfig {
                parameter: "error_tolerance",
                value: self.error_tolerance,
            });
        }
        Ok(())
    }
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig::paper_default()
    }
}

/// Outcome of one examined candidate test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactionStep {
    /// Index of the specification that was examined.
    pub spec_index: usize,
    /// Name of the specification.
    pub spec_name: String,
    /// Whether the test was (permanently) eliminated.
    pub eliminated: bool,
    /// Prediction-error breakdown on the held-out test data for the model
    /// built *without* this test (and without all previously eliminated ones).
    pub breakdown: ErrorBreakdown,
}

/// Hit/miss counters of the trained-model cache the greedy loop keeps per
/// run (see [`Compactor::compact_with`]).
///
/// Every successfully trained canonicalised kept set is trained at most once
/// per run; re-requesting the same kept set — most prominently the
/// final-model training after the loop, whose kept set was already evaluated
/// when the last elimination was accepted, and kept sets revisited by the
/// annealing walk — is a hit.  The counters are diagnostics: from three
/// threads up they depend on the speculative-evaluation thread count
/// (discarded speculative trainings still count as misses) even though the
/// compaction outcome does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelCacheStats {
    /// Kept-set requests served from the cache (trained model and test-set
    /// breakdown reused).
    pub hits: usize,
    /// Kept-set requests not served from the cache: the model was trained
    /// from scratch, or training failed (failed trainings are never cached,
    /// so an untrainable kept set counts a miss on every request).
    pub misses: usize,
}

/// Warm-start diagnostics of the greedy loop (see
/// [`CompactionConfig::with_warm_start`]).
///
/// Every successful candidate training is counted once: as *warm* when the
/// loop offered the backend the cached parent-kept-set model to start from,
/// as *cold* otherwise (first batch of a run, warm starts disabled, or no
/// parent model cached yet).  The iteration counters accumulate the
/// backend's reported solver iterations ([`Classifier::solver_iterations`](
/// crate::classifier::Classifier::solver_iterations)); backends without an
/// iterative solver — for example the grid backend — contribute zero.
///
/// Like [`ModelCacheStats`], these are diagnostics: speculative evaluation
/// makes them depend on the thread count even though the compaction outcome
/// does not, and [`CompactionResult`] equality ignores them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStartStats {
    /// Successful trainings that were offered a warm-start hint.
    pub warm_trainings: usize,
    /// Successful trainings performed from a cold start.
    pub cold_trainings: usize,
    /// Solver iterations summed over the warm trainings.
    pub warm_iterations: usize,
    /// Solver iterations summed over the cold trainings.
    pub cold_iterations: usize,
    /// Kernel row-bank diagnostics summed over every training whose backend
    /// reports them ([`Classifier::bank_stats`](
    /// crate::classifier::Classifier::bank_stats)): rows seeded from a warm
    /// parent's bank, rows rebuilt from scratch, and banks the engine had
    /// to ignore as inapplicable (previously dropped silently).  All zeros
    /// for backends without a kernel row bank.
    #[serde(default)]
    pub bank: BankStats,
}

impl WarmStartStats {
    /// Solver iterations summed over every training of the run.
    pub fn total_iterations(&self) -> usize {
        self.warm_iterations + self.cold_iterations
    }

    /// Adds another run's counters into this one (used by batch reports).
    pub fn merge(&mut self, other: &WarmStartStats) {
        self.warm_trainings += other.warm_trainings;
        self.cold_trainings += other.cold_trainings;
        self.warm_iterations += other.warm_iterations;
        self.cold_iterations += other.cold_iterations;
        self.bank.merge(&other.bank);
    }
}

/// Result of a compaction run.
///
/// Equality compares the compaction outcome (kept/eliminated sets, steps and
/// final breakdown) and deliberately ignores the
/// [`CompactionResult::cache`] and [`CompactionResult::warm_start`]
/// diagnostics: those counters vary with the speculative thread count (and
/// with warm starts being on or off) while the outcome is guaranteed not to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompactionResult {
    /// Indices of the specifications that must still be tested, in original
    /// order.
    pub kept: Vec<usize>,
    /// Indices of the eliminated specifications, in elimination order.
    pub eliminated: Vec<usize>,
    /// Per-candidate log of the loop.
    pub steps: Vec<CompactionStep>,
    /// Error breakdown of the final compacted test set on the test data.
    pub final_breakdown: ErrorBreakdown,
    /// Trained-model cache diagnostics of this run.
    pub cache: ModelCacheStats,
    /// Warm-start diagnostics of this run (trainings and solver iterations,
    /// split warm versus cold).
    pub warm_start: WarmStartStats,
}

impl PartialEq for CompactionResult {
    fn eq(&self, other: &Self) -> bool {
        self.kept == other.kept
            && self.eliminated == other.eliminated
            && self.steps == other.steps
            && self.final_breakdown == other.final_breakdown
    }
}

impl CompactionResult {
    /// Fraction of tests removed from the complete specification test set,
    /// *by count*: every specification weighs the same, regardless of how
    /// expensive it is to apply.  An empty result (no tests at all) reports
    /// `0.0`.
    ///
    /// This is **not** the relative cost saving — a run that eliminates one
    /// test of an expensive thermal insertion and a run that eliminates one
    /// free ride-along test report the same ratio here.  For the quantity
    /// cost-aware runs optimise, see [`TestCostModel::cost_reduction`] of
    /// the kept set.
    pub fn compaction_ratio(&self) -> f64 {
        let total = self.kept.len() + self.eliminated.len();
        if total == 0 {
            0.0
        } else {
            self.eliminated.len() as f64 / total as f64
        }
    }
}

/// The compaction engine: owns the training and held-out test populations.
#[derive(Debug, Clone)]
pub struct Compactor {
    training: MeasurementSet,
    testing: MeasurementSet,
}

impl Compactor {
    /// Creates a compactor from a training population (used to fit the
    /// classifier models) and an independent test population (used to measure
    /// the prediction error that gates each elimination).
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::DimensionMismatch`] when the two sets do not
    /// share a specification set and [`CompactionError::InsufficientData`]
    /// when either population is empty.
    pub fn new(training: MeasurementSet, testing: MeasurementSet) -> Result<Self> {
        if training.specs() != testing.specs() {
            return Err(CompactionError::DimensionMismatch {
                expected: training.specs().len(),
                found: testing.specs().len(),
            });
        }
        if training.is_empty() || testing.is_empty() {
            return Err(CompactionError::InsufficientData {
                reason: "training and test populations must be non-empty".to_string(),
            });
        }
        Ok(Compactor { training, testing })
    }

    /// The training population.
    pub fn training(&self) -> &MeasurementSet {
        &self.training
    }

    /// The held-out test population.
    pub fn testing(&self) -> &MeasurementSet {
        &self.testing
    }

    /// Trains a guard-banded classifier for an explicit kept set with the
    /// given backend and evaluates it on the test population.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn evaluate_kept_set_with(
        &self,
        backend: &dyn ClassifierFactory,
        kept: &[usize],
        guard_band: &GuardBandConfig,
    ) -> Result<(GuardBandedClassifier, ErrorBreakdown)> {
        let classifier =
            GuardBandedClassifier::train_with(backend, &self.training, kept, guard_band)?;
        let breakdown = classifier.evaluate(&self.testing);
        Ok((classifier, breakdown))
    }

    /// Runs the greedy compaction loop of Figure 2 with an explicit
    /// classifier backend.
    ///
    /// Every candidate test (in the configured order) is tentatively removed;
    /// a model predicting overall pass/fail from the remaining tests is
    /// trained and scored on the held-out data.  If the prediction error is at
    /// or below the tolerance the removal becomes permanent, otherwise the
    /// test is restored.  At least one test always remains.
    ///
    /// Each candidate's strict and loose models train as two parallel jobs,
    /// so `config.threads = 2` trains one candidate on both threads.  With
    /// more threads the next ⌈threads / 2⌉ candidates are evaluated
    /// speculatively in parallel (each against the same eliminated set) and
    /// their verdicts are committed in order; evaluations invalidated by an
    /// earlier acceptance are discarded, so the result is identical to the
    /// sequential loop for any thread count.
    ///
    /// # Errors
    ///
    /// Returns configuration/data errors; backend training failures for one
    /// candidate are treated as "cannot eliminate" rather than aborting the
    /// whole run.
    pub fn compact_with(
        &self,
        backend: &dyn ClassifierFactory,
        config: &CompactionConfig,
    ) -> Result<CompactionResult> {
        self.compact_search_observed(backend, config, SearchStrategy::Greedy, None, None)
            .map(|(result, _)| result)
    }

    /// Runs the compaction with an explicit [`SearchStrategy`] — cost-aware
    /// greedy or simulated annealing — instead of the default greedy
    /// backward elimination.
    ///
    /// `cost_model` feeds the cost-aware and annealing strategies (and
    /// defaults to a uniform unit cost per test); greedy elimination ignores
    /// it.  All strategies share the evaluation machinery: the per-run model
    /// cache, warm-started trainings and speculative evaluation threads of
    /// [`Compactor::compact_with`].
    ///
    /// # Errors
    ///
    /// Returns configuration/data errors, including an invalid annealing
    /// schedule; per-candidate training failures are handled inside the
    /// strategies as "cannot eliminate".
    pub fn compact_with_strategy(
        &self,
        backend: &dyn ClassifierFactory,
        config: &CompactionConfig,
        strategy: SearchStrategy,
        cost_model: Option<&TestCostModel>,
    ) -> Result<CompactionResult> {
        self.compact_search_observed(backend, config, strategy, cost_model, None)
            .map(|(result, _)| result)
    }

    /// The core every compaction entry point funnels into: resolve the
    /// order, run the strategy over a [`CandidateEvaluator`] and assemble
    /// the [`CompactionResult`] plus the deploy-stage model (`None` when
    /// nothing was eliminated, in which case the complete suite needs no
    /// model).  An attached [`ProgressObserver`] streams per-training events
    /// and committed-frontier snapshots while the search runs.
    pub(crate) fn compact_search_observed(
        &self,
        backend: &dyn ClassifierFactory,
        config: &CompactionConfig,
        strategy: SearchStrategy,
        cost_model: Option<&TestCostModel>,
        observer: Option<std::sync::Arc<dyn ProgressObserver>>,
    ) -> Result<(CompactionResult, Option<GuardBandedClassifier>)> {
        config.validate()?;
        let spec_count = self.training.specs().len();
        let order = config.order.resolve_validated(&self.training)?;
        let uniform;
        let cost_model = match cost_model {
            Some(model) => model,
            None => {
                uniform = TestCostModel::uniform(spec_count);
                &uniform
            }
        };
        let mut evaluator = CandidateEvaluator::new(&self.training, &self.testing, backend, config);
        evaluator.set_observer(observer);
        let (eliminated, steps) = strategy.search(&evaluator, &order, config, cost_model)?;
        let kept: Vec<usize> = (0..spec_count).filter(|c| !eliminated.contains(c)).collect();
        // Every strategy draws its candidates from the validated order,
        // eliminates each at most once and never the last test.
        debug_assert!(
            !kept.is_empty() && kept.len() + eliminated.len() == spec_count,
            "{} eliminated {eliminated:?} of {spec_count} tests",
            strategy.name()
        );

        let (final_breakdown, final_model) = if eliminated.is_empty() {
            // Nothing was removed: the complete test set has no prediction
            // error by construction, and deployment needs no model.
            (crate::baseline::evaluate_complete_test_set(&self.testing), None)
        } else {
            // Every strategy evaluated the final kept set when its last
            // elimination was accepted, so this is a guaranteed cache hit:
            // the search's last accepted model doubles as the deployed
            // model.
            let entry = evaluator.final_entry(&kept)?;
            (entry.1, Some(entry.0.clone()))
        };

        let result = CompactionResult {
            kept,
            eliminated,
            steps,
            final_breakdown,
            cache: evaluator.cache_stats(),
            warm_start: evaluator.warm_start_stats(),
        };
        Ok((result, final_model))
    }

    /// Forces the elimination of the tests in `order`, one after another,
    /// regardless of any tolerance, and records the error breakdown after each
    /// cumulative elimination.  This regenerates the Figure 5 sweep of the
    /// paper (yield loss / defect escape / guard band versus eliminated
    /// tests).
    ///
    /// Since 0.5 the sweep is a thin wrapper over the run's candidate
    /// evaluator: every cumulative kept set goes through the
    /// per-run model cache and warm-starts from the previous step's model
    /// (consecutive sweep steps are exact parent/child kept sets — the
    /// ideal warm-start chain), so long sweeps on iterative backends cost a
    /// fraction of the pre-0.5 cold trainings.
    ///
    /// # Errors
    ///
    /// Propagates training errors and invalid indices; the sweep stops before
    /// eliminating the last remaining test.
    pub fn elimination_sweep_with(
        &self,
        backend: &dyn ClassifierFactory,
        order: &[usize],
        guard_band: &GuardBandConfig,
    ) -> Result<Vec<CompactionStep>> {
        let spec_count = self.training.specs().len();
        if let Some(&bad) = order.iter().find(|&&c| c >= spec_count) {
            return Err(CompactionError::UnknownSpecification { index: bad, count: spec_count });
        }
        let config =
            CompactionConfig::paper_default().with_guard_band(*guard_band).with_warm_start(true);
        let evaluator = CandidateEvaluator::new(&self.training, &self.testing, backend, &config);
        let mut eliminated: Vec<usize> = Vec::new();
        let mut steps = Vec::new();
        for &candidate in order {
            if eliminated.contains(&candidate) {
                continue;
            }
            let parent: Vec<usize> = (0..spec_count).filter(|c| !eliminated.contains(c)).collect();
            let kept: Vec<usize> = parent.iter().copied().filter(|&c| c != candidate).collect();
            if kept.is_empty() {
                break;
            }
            eliminated.push(candidate);
            let breakdown = evaluator.evaluate(&kept, Some(&parent))?;
            steps.push(CompactionStep {
                spec_index: candidate,
                spec_name: self.training.specs().spec(candidate).name().to_string(),
                eliminated: true,
                breakdown,
            });
        }
        Ok(steps)
    }

    /// Eliminates a single specification and reports the resulting error
    /// breakdown for a given number of training instances (used for the
    /// Figure 6 training-set-size study).
    ///
    /// # Errors
    ///
    /// Propagates training errors and invalid indices.
    pub fn eliminate_single_with(
        &self,
        backend: &dyn ClassifierFactory,
        spec_index: usize,
        training_instances: usize,
        guard_band: &GuardBandConfig,
    ) -> Result<ErrorBreakdown> {
        let spec_count = self.training.specs().len();
        if spec_index >= spec_count {
            return Err(CompactionError::UnknownSpecification {
                index: spec_index,
                count: spec_count,
            });
        }
        let kept: Vec<usize> = (0..spec_count).filter(|&c| c != spec_index).collect();
        let truncated = self.training.truncated(training_instances.max(1));
        let config =
            CompactionConfig::paper_default().with_guard_band(*guard_band).with_warm_start(false);
        let evaluator = CandidateEvaluator::new(&truncated, &self.testing, backend, &config);
        evaluator.evaluate(&kept, None)
    }

    /// Eliminates a *group* of specifications at once (for example every
    /// hot-temperature test of the accelerometer) and reports the error
    /// breakdown of the model built on the remaining tests.  This regenerates
    /// the Table 3 experiment.
    ///
    /// # Errors
    ///
    /// Propagates training errors, invalid indices and an empty remaining set.
    pub fn eliminate_group_with(
        &self,
        backend: &dyn ClassifierFactory,
        group: &[usize],
        guard_band: &GuardBandConfig,
    ) -> Result<ErrorBreakdown> {
        let spec_count = self.training.specs().len();
        if let Some(&bad) = group.iter().find(|&&c| c >= spec_count) {
            return Err(CompactionError::UnknownSpecification { index: bad, count: spec_count });
        }
        let kept: Vec<usize> = (0..spec_count).filter(|c| !group.contains(c)).collect();
        if kept.is_empty() {
            return Err(CompactionError::EmptyTestSet);
        }
        let config =
            CompactionConfig::paper_default().with_guard_band(*guard_band).with_warm_start(false);
        let evaluator = CandidateEvaluator::new(&self.training, &self.testing, backend, &config);
        evaluator.evaluate(&kept, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::GridBackend;
    use crate::device::SyntheticDevice;
    use crate::montecarlo::{generate_train_test, MonteCarloConfig};

    fn grid() -> GridBackend {
        GridBackend::default()
    }

    /// Five specs where consecutive specs are strongly correlated: several of
    /// them are redundant by construction.
    fn redundant_population() -> Compactor {
        let device = SyntheticDevice::new(5, 1.8, 0.92);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(500).with_seed(31), 300).unwrap();
        Compactor::new(train, test).unwrap()
    }

    /// Independent specs at a loose limit.
    fn independent_population() -> Compactor {
        let device = SyntheticDevice::new(4, 1.5, 0.0);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(500).with_seed(32), 300).unwrap();
        Compactor::new(train, test).unwrap()
    }

    #[test]
    fn compaction_respects_the_tolerance_with_the_grid_backend() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.05);
        let result = compactor.compact_with(&grid(), &config).unwrap();
        assert!(result.final_breakdown.prediction_error() <= 0.05 + 1e-9);
        assert!(!result.kept.is_empty());
        assert_eq!(result.kept.len() + result.eliminated.len(), 5);
        assert!(result.steps.len() >= result.eliminated.len());
        assert!(result.steps.len() <= 5);
    }

    #[test]
    fn model_cache_reuses_the_final_kept_set() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.05);
        let result = compactor.compact_with(&grid(), &config).unwrap();
        assert!(!result.eliminated.is_empty(), "population is redundant by construction");
        // The final model retrains the kept set of the last accepted
        // elimination — always a cache hit.
        assert!(result.cache.hits >= 1, "cache stats {:?}", result.cache);
        // Every examined candidate (and nothing else) was a miss in the
        // sequential loop: distinct kept set per examination.
        assert_eq!(result.cache.misses, result.steps.len());
    }

    #[test]
    fn cached_loop_matches_across_thread_counts_with_differing_stats() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.3);
        let sequential = compactor.compact_with(&grid(), &config).unwrap();
        let parallel = compactor.compact_with(&grid(), &config.clone().with_threads(4)).unwrap();
        // Outcome identical (equality ignores the cache diagnostics) …
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.final_breakdown, parallel.final_breakdown);
        // … while the speculative loop may train (and discard) more models.
        assert!(parallel.cache.misses >= sequential.cache.misses);
    }

    #[test]
    fn warm_start_toggle_does_not_change_grid_results() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.05);
        let warm = compactor.compact_with(&grid(), &config).unwrap();
        let cold = compactor.compact_with(&grid(), &config.clone().with_warm_start(false)).unwrap();
        assert_eq!(warm, cold);
        // The grid backend has no iterative solver: iteration counters stay
        // zero, but the loop still records which trainings were offered a
        // warm-start hint (everything after the first acceptance).
        assert_eq!(warm.warm_start.total_iterations(), 0);
        assert!(!warm.eliminated.is_empty());
        assert!(warm.warm_start.warm_trainings >= 1, "stats {:?}", warm.warm_start);
        assert_eq!(cold.warm_start.warm_trainings, 0);
        assert!(cold.warm_start.cold_trainings >= cold.steps.len());
        assert_eq!(
            warm.warm_start.warm_trainings + warm.warm_start.cold_trainings,
            cold.warm_start.warm_trainings + cold.warm_start.cold_trainings,
        );
    }

    #[test]
    fn max_eliminated_caps_the_loop() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.5).with_max_eliminated(1);
        let result = compactor.compact_with(&grid(), &config).unwrap();
        assert_eq!(result.eliminated.len(), 1);
    }

    #[test]
    fn parallel_candidate_evaluation_matches_sequential() {
        let compactor = redundant_population();
        for tolerance in [0.01, 0.05, 0.3] {
            let sequential = compactor
                .compact_with(&grid(), &CompactionConfig::paper_default().with_tolerance(tolerance))
                .unwrap();
            let parallel = compactor
                .compact_with(
                    &grid(),
                    &CompactionConfig::paper_default().with_tolerance(tolerance).with_threads(4),
                )
                .unwrap();
            assert_eq!(sequential, parallel, "tolerance {tolerance}");
        }
    }

    #[test]
    fn parallel_evaluation_respects_max_eliminated() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default()
            .with_tolerance(0.5)
            .with_max_eliminated(2)
            .with_threads(4);
        let result = compactor.compact_with(&grid(), &config).unwrap();
        assert_eq!(result.eliminated.len(), 2);
    }

    #[test]
    fn elimination_sweep_reports_monotonically_growing_eliminated_set() {
        let compactor = redundant_population();
        let steps = compactor
            .elimination_sweep_with(&grid(), &[4, 3, 2, 1, 0], &GuardBandConfig::paper_default())
            .unwrap();
        // The last test is never eliminated.
        assert_eq!(steps.len(), 4);
        assert!(steps.iter().all(|s| s.eliminated));
        assert!(steps.last().unwrap().breakdown.prediction_error() >= 0.0);
    }

    #[test]
    fn eliminate_group_validates_inputs() {
        let compactor = independent_population();
        let guard_band = GuardBandConfig::paper_default();
        assert!(compactor.eliminate_group_with(&grid(), &[9], &guard_band).is_err());
        assert!(compactor.eliminate_group_with(&grid(), &[0, 1, 2, 3], &guard_band).is_err());
        let breakdown = compactor.eliminate_group_with(&grid(), &[3], &guard_band).unwrap();
        assert!(breakdown.total > 0);
    }

    #[test]
    fn mismatched_populations_are_rejected() {
        let a = redundant_population();
        let b = independent_population();
        assert!(Compactor::new(a.training().clone(), b.testing().clone()).is_err());
    }

    #[test]
    fn invalid_tolerance_is_rejected() {
        let compactor = independent_population();
        let config = CompactionConfig::paper_default().with_tolerance(1.5);
        assert!(compactor.compact_with(&grid(), &config).is_err());
    }

    #[test]
    fn functional_order_is_respected() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default()
            .with_tolerance(0.5)
            .with_order(EliminationOrder::Functional(vec![2, 0]));
        let result = compactor.compact_with(&grid(), &config).unwrap();
        // Only the listed candidates are ever examined.
        assert!(result.steps.len() <= 2);
        assert!(result.steps.iter().all(|s| s.spec_index == 2 || s.spec_index == 0));
    }

    /// `compact_with` is `compact_with_strategy` pinned to the greedy
    /// default — the invariant the removed 0.2-era shims used to exercise,
    /// now stated against the real entry points.
    #[test]
    fn compact_with_equals_the_explicit_greedy_strategy() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.05);
        let implicit = compactor.compact_with(&grid(), &config).unwrap();
        let explicit = compactor
            .compact_with_strategy(&grid(), &config, SearchStrategy::Greedy, None)
            .unwrap();
        assert_eq!(implicit, explicit);
    }
}
