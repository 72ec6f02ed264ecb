//! Batched pipeline runs: one compaction configuration across many devices
//! and populations.
//!
//! A production test-development flow rarely compacts a single device: it
//! sweeps a device family (corners, variants, temperature splits) under one
//! methodology configuration and compares the outcomes.  [`PipelineBatch`]
//! runs one [`CompactionPipeline`] configuration across many
//! [`DeviceUnderTest`] entries, spreading the runs over a work-stealing
//! worker pool (each worker may additionally use the speculative
//! candidate-evaluation threads of
//! [`CompactionConfig::with_threads`](crate::CompactionConfig::with_threads))
//! and sharing one Monte-Carlo [`PopulationCache`] so repeated runs over the
//! same device + configuration never re-simulate.
//!
//! Results are deterministic and independent of the worker count: the batch
//! report equals the reports of the same pipelines run one by one.
//!
//! ```
//! use stc_core::batch::PipelineBatch;
//! use stc_core::{CompactionConfig, MonteCarloConfig, SyntheticDevice};
//!
//! # fn main() -> Result<(), stc_core::CompactionError> {
//! let loose = SyntheticDevice::new(4, 1.8, 0.9);
//! let tight = SyntheticDevice::new(4, 1.2, 0.9);
//! let report = PipelineBatch::new()
//!     .monte_carlo(MonteCarloConfig::new(200).with_seed(5))
//!     .compaction(CompactionConfig::paper_default().with_tolerance(0.05))
//!     .device_labelled("loose limits", &loose)
//!     .device_labelled("tight limits", &tight)
//!     .batch_threads(2)
//!     .run()?;
//! assert_eq!(report.runs.len(), 2);
//! assert_eq!(report.aggregate.devices, 2);
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::classifier::{ClassifierFactory, GridBackend};
use crate::compaction::CompactionConfig;
use crate::costmodel::TestCostModel;
use crate::dataset::MeasurementSet;
use crate::device::DeviceUnderTest;
use crate::guardband::GuardBandConfig;
use crate::metrics::ErrorBreakdown;
use crate::montecarlo::{generate_train_test, MonteCarloConfig};
use crate::pipeline::{CompactionPipeline, PipelineReport};
use crate::report::percent;
use crate::search::{
    GreedyBackward, ProgressObserver, ScreeningConfig, SearchBudget, SearchStrategy,
};
use crate::Result;

/// Cache key for one generated population: the batch entry label, a device
/// fingerprint and every configuration value that influences the simulated
/// data.  Quantiles are stored as bit patterns so the key can be hashed
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PopulationKey {
    label: String,
    device_fingerprint: String,
    instances: usize,
    seed: u64,
    test_instances: usize,
    quantile_bits: (u64, u64),
    skip_failures: bool,
}

impl PopulationKey {
    fn new(
        label: &str,
        device: &dyn DeviceUnderTest,
        config: &MonteCarloConfig,
        test_instances: usize,
    ) -> Self {
        PopulationKey {
            label: label.to_string(),
            device_fingerprint: device.fingerprint(),
            instances: config.instances,
            seed: config.seed,
            test_instances,
            quantile_bits: (
                config.calibration_quantiles.0.to_bits(),
                config.calibration_quantiles.1.to_bits(),
            ),
            skip_failures: config.skip_failures,
        }
    }
}

/// Shared cache of Monte-Carlo populations keyed by batch-entry label +
/// generation configuration.
///
/// Simulating the population dominates every experiment on the real device
/// models (thousands of transistor-level simulations), so a batch generates
/// each population once and every later [`PipelineBatch::run`] against the
/// same cache reuses it.  Cached measurement sets are `Arc`-shared columnar
/// views, so a hit costs no measurement copies.
///
/// Entries are keyed by the entry *label* plus the device's
/// [`fingerprint`](DeviceUnderTest::fingerprint).  A cache shared across
/// batches therefore assumes equal labels + fingerprints mean the same
/// device model; implement `fingerprint` for device types whose simulation
/// depends on parameters the default fingerprint cannot see.
#[derive(Debug, Default)]
pub struct PopulationCache {
    populations: Mutex<HashMap<PopulationKey, Arc<(MeasurementSet, MeasurementSet)>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl PopulationCache {
    /// An empty cache, ready to be shared across batches via `Arc`.
    pub fn new() -> Self {
        PopulationCache::default()
    }

    /// Returns the cached population for the key, or generates, caches and
    /// returns it.
    fn get_or_generate(
        &self,
        label: &str,
        device: &dyn DeviceUnderTest,
        config: &MonteCarloConfig,
        test_instances: usize,
    ) -> Result<Arc<(MeasurementSet, MeasurementSet)>> {
        let key = PopulationKey::new(label, device, config, test_instances);
        if let Some(found) = self.populations.lock().expect("population cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Generate outside the lock so concurrent workers build *different*
        // populations in parallel; duplicate keys racing is harmless because
        // generation is deterministic for a fixed key.
        let population = Arc::new(generate_train_test(device, config, test_instances)?);
        self.populations
            .lock()
            .expect("population cache poisoned")
            .entry(key)
            .or_insert_with(|| Arc::clone(&population));
        Ok(population)
    }

    /// Hit/miss counters accumulated over the cache's lifetime.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Hit/miss counters of a [`PopulationCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Populations served from the cache.
    pub hits: usize,
    /// Populations generated because the key was absent.
    pub misses: usize,
}

/// One device entry of a batch.
struct BatchEntry<'d> {
    label: String,
    device: &'d dyn DeviceUnderTest,
    /// Per-entry Monte-Carlo seed override (`None` = the shared seed), so one
    /// device model can contribute several independent populations.
    seed: Option<u64>,
}

/// Runs one [`CompactionPipeline`] configuration across many devices.
///
/// Builder methods mirror the single-device pipeline stages; devices are
/// appended with [`PipelineBatch::device`] (and friends) and the whole batch
/// executes with [`PipelineBatch::run`].  See the [module docs](self) for an
/// example.
pub struct PipelineBatch<'d> {
    entries: Vec<BatchEntry<'d>>,
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
    batch_threads: usize,
    populations: Arc<PopulationCache>,
    observer: Option<Arc<dyn ProgressObserver>>,
    sequential: bool,
}

impl std::fmt::Debug for PipelineBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBatch")
            .field("devices", &self.entries.iter().map(|e| e.label.as_str()).collect::<Vec<_>>())
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
            .field("batch_threads", &self.batch_threads)
            .field("observer", &self.observer)
            .field("sequential", &self.sequential)
            .finish()
    }
}

impl Default for PipelineBatch<'_> {
    fn default() -> Self {
        PipelineBatch::new()
    }
}

impl<'d> PipelineBatch<'d> {
    /// An empty batch with the paper's default configuration and the built-in
    /// [`GridBackend`] classifier (mirrors
    /// [`CompactionPipeline::for_device`]).
    pub fn new() -> Self {
        PipelineBatch {
            entries: Vec::new(),
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
            batch_threads: 1,
            populations: Arc::new(PopulationCache::new()),
            observer: None,
            sequential: true,
        }
    }

    /// Appends a device, labelled `"<device name>#<index>"`.
    pub fn device(self, device: &'d dyn DeviceUnderTest) -> Self {
        let label = format!("{}#{}", device.name(), self.entries.len());
        self.push(label, device, None)
    }

    /// Appends a device under an explicit label (the label keys the
    /// population cache and the per-run report).
    pub fn device_labelled(
        self,
        label: impl Into<String>,
        device: &'d dyn DeviceUnderTest,
    ) -> Self {
        self.push(label.into(), device, None)
    }

    /// Appends an independent *population* of an already-used device model:
    /// the entry runs with the given Monte-Carlo seed instead of the shared
    /// one, so N seeds of one device model behave like N devices.
    pub fn device_seeded(self, device: &'d dyn DeviceUnderTest, seed: u64) -> Self {
        let label = format!("{}#{}@{seed}", device.name(), self.entries.len());
        self.push(label, device, Some(seed))
    }

    fn push(mut self, label: String, device: &'d dyn DeviceUnderTest, seed: Option<u64>) -> Self {
        self.entries.push(BatchEntry { label, device, seed });
        self
    }

    /// Configures the shared Monte-Carlo stage (per-entry seeds from
    /// [`PipelineBatch::device_seeded`] override its seed).
    pub fn monte_carlo(mut self, config: MonteCarloConfig) -> Self {
        self.monte_carlo = config;
        self
    }

    /// Sets the held-out population size (defaults to half the training
    /// population).
    pub fn test_instances(mut self, instances: usize) -> Self {
        self.test_instances = Some(instances);
        self
    }

    /// Configures the greedy compaction stage.
    pub fn compaction(mut self, config: CompactionConfig) -> Self {
        self.compaction = config;
        self
    }

    /// Configures guard banding (see [`CompactionPipeline::guard_band`]).
    pub fn guard_band(mut self, config: GuardBandConfig) -> Self {
        self.guard_band = Some(config);
        self
    }

    /// Attaches a test-cost model shared by every entry.
    pub fn cost_model(mut self, model: TestCostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Selects the classifier backend shared by every entry.
    pub fn classifier(mut self, factory: impl ClassifierFactory + 'static) -> Self {
        self.classifier = Arc::new(factory);
        self
    }

    /// Selects an already-shared classifier backend.
    pub fn classifier_arc(mut self, factory: Arc<dyn ClassifierFactory>) -> Self {
        self.classifier = factory;
        self
    }

    /// Selects the search strategy shared by every entry of the batch
    /// (defaults to the paper's greedy backward elimination; see
    /// [`crate::search`] for the bundled alternatives).
    pub fn search(mut self, strategy: impl SearchStrategy + 'static) -> Self {
        self.search = Arc::new(strategy);
        self
    }

    /// Selects an already-shared search strategy.
    pub fn search_arc(mut self, strategy: Arc<dyn SearchStrategy>) -> Self {
        self.search = strategy;
        self
    }

    /// Caps the training effort *each entry's* compaction search may spend
    /// (see [`CompactionPipeline::budget`]; the budget is per run, not
    /// shared across the batch, and overrides the budget embedded in the
    /// compaction configuration, so stages stay order-independent).
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Configures screen-then-verify candidate evaluation for every entry
    /// (see [`CompactionPipeline::screening`]; overrides the screening
    /// embedded in the compaction configuration, so stages stay
    /// order-independent).
    pub fn screening(mut self, config: ScreeningConfig) -> Self {
        self.screening = Some(config);
        self
    }

    /// Deploys every final model as a lookup table with the given resolution.
    pub fn lookup_table(mut self, cells_per_dim: usize) -> Self {
        self.lookup_table = Some(cells_per_dim);
        self
    }

    /// Number of worker threads running whole pipelines concurrently
    /// (1 = sequential).  Workers steal the next unstarted device from a
    /// shared queue, so slow devices never serialise the batch behind them.
    pub fn batch_threads(mut self, threads: usize) -> Self {
        self.batch_threads = threads.max(1);
        self
    }

    /// Shares an external population cache (for example one cache across
    /// several batches sweeping classifier backends over the same devices).
    pub fn with_population_cache(mut self, cache: Arc<PopulationCache>) -> Self {
        self.populations = cache;
        self
    }

    /// The population cache this batch reads and fills.
    pub fn population_cache(&self) -> &Arc<PopulationCache> {
        &self.populations
    }

    /// Attaches a [`ProgressObserver`] shared by every entry's compaction
    /// stage (see [`CompactionPipeline::observer`]).  With several batch
    /// threads, events of different entries interleave; observers that need
    /// per-entry streams should run entries through per-entry batches (or
    /// pipelines) with distinct observers.
    pub fn observer(mut self, observer: Arc<dyn ProgressObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Enables or disables the staged sequential deploy accounting for every
    /// entry (see [`CompactionPipeline::sequential_deploy`]; default:
    /// enabled).
    pub fn sequential_deploy(mut self, enabled: bool) -> Self {
        self.sequential = enabled;
        self
    }

    /// The single-device pipeline for entry `index` — exactly what
    /// [`PipelineBatch::run`] executes for that entry.
    fn pipeline_for(&self, entry: &BatchEntry<'d>) -> (CompactionPipeline<'d>, MonteCarloConfig) {
        let mut monte_carlo = self.monte_carlo;
        if let Some(seed) = entry.seed {
            monte_carlo = monte_carlo.with_seed(seed);
        }
        let mut pipeline = CompactionPipeline::for_device(entry.device)
            .monte_carlo(monte_carlo)
            .compaction(self.compaction.clone())
            .classifier_arc(Arc::clone(&self.classifier))
            .search_arc(Arc::clone(&self.search));
        if let Some(instances) = self.test_instances {
            pipeline = pipeline.test_instances(instances);
        }
        if let Some(guard_band) = self.guard_band {
            pipeline = pipeline.guard_band(guard_band);
        }
        if let Some(budget) = self.budget {
            pipeline = pipeline.budget(budget);
        }
        if let Some(screening) = self.screening {
            pipeline = pipeline.screening(screening);
        }
        if let Some(cost_model) = &self.cost_model {
            pipeline = pipeline.cost_model(cost_model.clone());
        }
        if let Some(cells) = self.lookup_table {
            pipeline = pipeline.lookup_table(cells);
        }
        if let Some(observer) = &self.observer {
            pipeline = pipeline.observer(Arc::clone(observer));
        }
        pipeline = pipeline.sequential_deploy(self.sequential);
        (pipeline, monte_carlo)
    }

    /// Runs one entry: cached (or freshly generated) population, then the
    /// compaction pipeline stages.
    fn run_entry(&self, entry: &BatchEntry<'d>) -> Result<PipelineReport> {
        let (pipeline, monte_carlo) = self.pipeline_for(entry);
        let population = self.populations.get_or_generate(
            &entry.label,
            entry.device,
            &monte_carlo,
            pipeline.resolved_test_instances(),
        )?;
        pipeline.run_with_population(population.0.clone(), population.1.clone())
    }

    /// Runs every entry and aggregates the outcome.
    ///
    /// The result is identical for any [`PipelineBatch::batch_threads`]
    /// value: workers only decide *when* an entry runs, each entry's pipeline
    /// is deterministic for its seed.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::EmptyBatch`](crate::CompactionError) when
    /// no device was added and
    /// [`CompactionError::DuplicateBatchLabel`](crate::CompactionError) when
    /// two entries share a label (labels key the population cache, so a
    /// collision would silently run one entry on the other's population);
    /// propagates the first per-entry error in entry order.
    pub fn run(&self) -> Result<BatchReport> {
        if self.entries.is_empty() {
            return Err(crate::CompactionError::EmptyBatch);
        }
        for (i, entry) in self.entries.iter().enumerate() {
            if self.entries[..i].iter().any(|other| other.label == entry.label) {
                return Err(crate::CompactionError::DuplicateBatchLabel {
                    label: entry.label.clone(),
                });
            }
        }
        let workers = self.batch_threads.min(self.entries.len()).max(1);
        // An entry failure cancels the entries that have not *started* yet
        // (in-flight ones finish and are discarded) so the error path does
        // not pay for simulating the rest of the batch.
        let cancelled = AtomicBool::new(false);
        let run_one = |index: usize, entry: &BatchEntry<'d>| {
            let outcome = self.run_entry(entry);
            if outcome.is_err() {
                cancelled.store(true, Ordering::Relaxed);
            }
            (index, outcome)
        };
        let mut outcomes: Vec<(usize, Result<PipelineReport>)> = if workers <= 1 {
            let mut collected = Vec::with_capacity(self.entries.len());
            for (index, entry) in self.entries.iter().enumerate() {
                collected.push(run_one(index, entry));
                if cancelled.load(Ordering::Relaxed) {
                    break;
                }
            }
            collected
        } else {
            // Work stealing: each worker pulls the next unstarted entry from
            // a shared counter until the queue drains (or an error cancels
            // the remainder).
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        let cancelled = &cancelled;
                        let run_one = &run_one;
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            while !cancelled.load(Ordering::Relaxed) {
                                let index = next.fetch_add(1, Ordering::Relaxed);
                                let Some(entry) = self.entries.get(index) else { break };
                                local.push(run_one(index, entry));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|handle| handle.join().expect("batch worker panicked"))
                    .collect()
            })
        };
        outcomes.sort_by_key(|(index, _)| *index);

        // Propagate the lowest-index error that was collected.  When several
        // entries fail, cancellation timing decides which failures were
        // collected, so the *reported* error may vary with scheduling; the
        // success path is unaffected (all entries completed, in order).
        let mut runs = Vec::with_capacity(self.entries.len());
        for (index, outcome) in outcomes {
            runs.push(BatchRun { label: self.entries[index].label.clone(), report: outcome? });
        }
        debug_assert_eq!(runs.len(), self.entries.len(), "no entry may be skipped on success");
        let aggregate = BatchAggregate::from_runs(&runs);
        let population_cache = self.populations.stats();
        Ok(BatchReport {
            runs,
            aggregate,
            population_cache_hits: population_cache.hits,
            population_cache_misses: population_cache.misses,
        })
    }
}

/// One entry's outcome within a [`BatchReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchRun {
    /// The batch-entry label (defaults to `"<device name>#<index>"`).
    pub label: String,
    /// The full single-device pipeline report.
    pub report: PipelineReport,
}

/// Aggregate compaction/cost statistics over every run of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchAggregate {
    /// Number of device entries.
    pub devices: usize,
    /// Specification tests across all entries.
    pub total_tests: usize,
    /// Eliminated tests across all entries.
    pub total_eliminated: usize,
    /// Mean per-device compaction ratio.
    pub mean_compaction_ratio: f64,
    /// Mean per-device cost reduction.
    pub mean_cost_reduction: f64,
    /// Deployed-program error breakdown merged over every held-out
    /// population.
    pub deployed: ErrorBreakdown,
    /// Greedy-loop model-cache hits summed over all runs.
    pub model_cache_hits: usize,
    /// Greedy-loop model-cache misses summed over all runs.
    pub model_cache_misses: usize,
    /// Greedy-loop warm-start diagnostics summed over all runs (trainings
    /// and solver iterations, split warm versus cold).
    pub warm_start: crate::WarmStartStats,
    /// Screen-then-verify diagnostics summed over all runs (zero everywhere
    /// when screening is off).
    #[serde(default)]
    pub screening: crate::ScreeningStats,
}

impl BatchAggregate {
    /// Builds the aggregate from per-entry runs — public so services
    /// assembling a [`BatchReport`] from independently executed shards (for
    /// example a job queue dispatching one shard per device) produce the
    /// exact statistics [`PipelineBatch::run`] would.
    pub fn from_runs(runs: &[BatchRun]) -> Self {
        let devices = runs.len();
        let mut aggregate = BatchAggregate {
            devices,
            total_tests: 0,
            total_eliminated: 0,
            mean_compaction_ratio: 0.0,
            mean_cost_reduction: 0.0,
            deployed: ErrorBreakdown::default(),
            model_cache_hits: 0,
            model_cache_misses: 0,
            warm_start: crate::WarmStartStats::default(),
            screening: crate::ScreeningStats::default(),
        };
        for run in runs {
            let report = &run.report;
            aggregate.total_tests += report.kept().len() + report.eliminated().len();
            aggregate.total_eliminated += report.eliminated().len();
            aggregate.mean_compaction_ratio += report.compaction_ratio();
            aggregate.mean_cost_reduction += report.cost.reduction;
            aggregate.deployed.merge(&report.deployed);
            aggregate.model_cache_hits += report.compaction.cache.hits;
            aggregate.model_cache_misses += report.compaction.cache.misses;
            aggregate.warm_start.merge(&report.compaction.warm_start);
            aggregate.screening.merge(&report.compaction.screening);
        }
        if devices > 0 {
            aggregate.mean_compaction_ratio /= devices as f64;
            aggregate.mean_cost_reduction /= devices as f64;
        }
        aggregate
    }
}

/// Everything one batch run produces: per-device reports plus aggregates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchReport {
    /// Per-entry outcomes, in the order the devices were added.
    pub runs: Vec<BatchRun>,
    /// Aggregate compaction/cost statistics.
    pub aggregate: BatchAggregate,
    /// Population-cache hits of the cache used for this run (lifetime
    /// counters when the cache is shared across batches).
    pub population_cache_hits: usize,
    /// Population-cache misses.
    pub population_cache_misses: usize,
}

impl BatchReport {
    /// The per-device pipeline reports, in entry order.
    pub fn reports(&self) -> impl Iterator<Item = &PipelineReport> {
        self.runs.iter().map(|run| &run.report)
    }

    /// Search-strategy name shared by every run of the batch, or `"mixed"`
    /// when per-run reports disagree (only possible for hand-assembled
    /// reports; [`PipelineBatch::run`] applies one strategy to all entries).
    pub fn search_strategy(&self) -> &str {
        let Some(first) = self.runs.first() else { return "none" };
        if self.runs.iter().all(|run| run.report.search == first.report.search) {
            &first.report.search
        } else {
            "mixed"
        }
    }

    /// Number of runs whose search budget was exhausted before the search
    /// finished on its own.
    pub fn budget_exhausted_runs(&self) -> usize {
        self.runs.iter().filter(|run| run.report.budget().exhausted).count()
    }

    /// One-paragraph human-readable summary of the batch.  Mirrors
    /// [`PipelineReport::summary`]: the search-strategy name is always named
    /// and budget exhaustion is called out explicitly with the number of
    /// truncated runs.
    pub fn summary(&self) -> String {
        let budget_note = match self.budget_exhausted_runs() {
            0 => String::new(),
            exhausted => format!(
                "; search budget exhausted in {exhausted} of {devices} runs",
                devices = self.aggregate.devices,
            ),
        };
        format!(
            "{devices} devices [{search}]: eliminated {eliminated} of {total} tests \
             (mean compaction {ratio}, mean cost reduction {cost}; \
             aggregate yield loss {yl}, defect escape {de}; \
             model cache {hits} hits / {misses} misses){budget_note}",
            devices = self.aggregate.devices,
            search = self.search_strategy(),
            eliminated = self.aggregate.total_eliminated,
            total = self.aggregate.total_tests,
            ratio = percent(self.aggregate.mean_compaction_ratio),
            cost = percent(self.aggregate.mean_cost_reduction),
            yl = percent(self.aggregate.deployed.yield_loss()),
            de = percent(self.aggregate.deployed.defect_escape()),
            hits = self.aggregate.model_cache_hits,
            misses = self.aggregate.model_cache_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SyntheticDevice;

    fn batch(devices: &[SyntheticDevice]) -> PipelineBatch<'_> {
        let mut batch = PipelineBatch::new()
            .monte_carlo(MonteCarloConfig::new(200).with_seed(17))
            .test_instances(100)
            .compaction(CompactionConfig::paper_default().with_tolerance(0.05));
        for device in devices {
            batch = batch.device(device);
        }
        batch
    }

    #[test]
    fn sequential_deploy_knob_threads_through() {
        let devices = vec![SyntheticDevice::new(4, 1.8, 0.9)];
        let on = batch(&devices).run().unwrap();
        assert!(on.runs[0].report.sequential.is_some());
        let off = batch(&devices).sequential_deploy(false).run().unwrap();
        assert!(off.runs[0].report.sequential.is_none());
    }

    fn devices() -> Vec<SyntheticDevice> {
        (0..4).map(|i| SyntheticDevice::new(3 + i % 3, 1.8, 0.9)).collect()
    }

    #[test]
    fn empty_batches_are_rejected() {
        assert!(matches!(PipelineBatch::new().run(), Err(crate::CompactionError::EmptyBatch)));
    }

    #[test]
    fn entry_failures_propagate_and_cancel_the_remainder() {
        /// A device whose every simulation attempt fails.
        #[derive(Debug)]
        struct BrokenDevice;
        impl crate::device::DeviceUnderTest for BrokenDevice {
            fn name(&self) -> &str {
                "broken"
            }
            fn spec_names(&self) -> Vec<String> {
                vec!["x".to_string()]
            }
            fn spec_units(&self) -> Vec<String> {
                vec!["-".to_string()]
            }
            fn simulate_instance(
                &self,
                _rng: &mut rand::rngs::StdRng,
            ) -> std::result::Result<Vec<f64>, String> {
                Err("always fails".to_string())
            }
        }

        let broken = BrokenDevice;
        let good = SyntheticDevice::new(3, 1.8, 0.9);
        let result = PipelineBatch::new()
            .monte_carlo(MonteCarloConfig::new(50).with_seed(2))
            .test_instances(25)
            .device(&broken)
            .device(&good)
            .run();
        assert!(matches!(result, Err(crate::CompactionError::SimulationFailed { .. })));
    }

    #[test]
    fn shared_cache_distinguishes_devices_behind_one_label() {
        // Two *different* device models under the same label across two
        // batches: the device fingerprint keeps their populations apart.
        let a = SyntheticDevice::new(3, 1.8, 0.9);
        let b = SyntheticDevice::new(3, 1.2, 0.9);
        let cache = Arc::new(PopulationCache::new());
        let run = |device: &SyntheticDevice| {
            PipelineBatch::new()
                .monte_carlo(MonteCarloConfig::new(150).with_seed(9))
                .test_instances(80)
                .device_labelled("corner", device)
                .with_population_cache(Arc::clone(&cache))
                .run()
                .unwrap()
        };
        let first = run(&a);
        let second = run(&b);
        // The second batch must NOT reuse the first device's population.
        assert_eq!(second.population_cache_hits, 0);
        assert_eq!(second.population_cache_misses, 2);
        assert_ne!(first.runs[0].report.train_yield, second.runs[0].report.train_yield);
        // The same device under the same label does hit.
        let third = run(&a);
        assert_eq!(third.population_cache_hits, 1);
        // A device differing only in an *unobservable* parameter (the
        // correlation) is still distinguished, via the overridden
        // `DeviceUnderTest::fingerprint`.
        let c = SyntheticDevice::new(3, 1.8, 0.2);
        let fourth = run(&c);
        assert_eq!(fourth.population_cache_hits, 1);
        assert_eq!(fourth.population_cache_misses, 3);
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let a = SyntheticDevice::new(3, 1.8, 0.9);
        let b = SyntheticDevice::new(4, 1.5, 0.9);
        let result =
            PipelineBatch::new().device_labelled("corner", &a).device_labelled("corner", &b).run();
        assert!(matches!(
            result,
            Err(crate::CompactionError::DuplicateBatchLabel { ref label }) if label == "corner"
        ));
        // Auto-generated labels carry the entry index, so the same device
        // model added twice stays unambiguous.
        let ok = PipelineBatch::new()
            .monte_carlo(MonteCarloConfig::new(120).with_seed(3))
            .test_instances(60)
            .device(&a)
            .device(&a)
            .run()
            .unwrap();
        assert_eq!(ok.runs.len(), 2);
        assert_ne!(ok.runs[0].label, ok.runs[1].label);
    }

    #[test]
    fn batch_equals_independent_pipeline_runs() {
        let devices = devices();
        let report = batch(&devices).run().unwrap();
        assert_eq!(report.runs.len(), devices.len());
        for (run, device) in report.runs.iter().zip(devices.iter()) {
            let single = CompactionPipeline::for_device(device)
                .monte_carlo(MonteCarloConfig::new(200).with_seed(17))
                .test_instances(100)
                .compaction(CompactionConfig::paper_default().with_tolerance(0.05))
                .run()
                .unwrap();
            assert_eq!(run.report.compaction, single.compaction);
            assert_eq!(run.report.deployed, single.deployed);
            assert_eq!(run.report.cost, single.cost);
        }
    }

    #[test]
    fn worker_count_never_changes_the_outcome() {
        let devices = devices();
        let sequential = batch(&devices).run().unwrap();
        let parallel = batch(&devices).batch_threads(4).run().unwrap();
        assert_eq!(sequential.runs.len(), parallel.runs.len());
        for (a, b) in sequential.runs.iter().zip(parallel.runs.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.report.compaction, b.report.compaction);
            assert_eq!(a.report.deployed, b.report.deployed);
        }
        assert_eq!(sequential.aggregate, parallel.aggregate);
    }

    #[test]
    fn population_cache_hits_on_the_second_run() {
        let devices = devices();
        let batch = batch(&devices);
        let first = batch.run().unwrap();
        assert_eq!(first.population_cache_hits, 0);
        assert_eq!(first.population_cache_misses, devices.len());
        let second = batch.run().unwrap();
        assert_eq!(second.population_cache_hits, devices.len());
        assert_eq!(second.population_cache_misses, devices.len());
        // Cached populations reproduce the same reports.
        for (a, b) in first.runs.iter().zip(second.runs.iter()) {
            assert_eq!(a.report.compaction, b.report.compaction);
        }
    }

    #[test]
    fn seeded_entries_are_independent_populations() {
        let device = SyntheticDevice::new(4, 1.8, 0.9);
        let report = PipelineBatch::new()
            .monte_carlo(MonteCarloConfig::new(150))
            .test_instances(80)
            .compaction(CompactionConfig::paper_default().with_tolerance(0.05))
            .device_seeded(&device, 1)
            .device_seeded(&device, 2)
            .run()
            .unwrap();
        assert_eq!(report.runs.len(), 2);
        assert_ne!(report.runs[0].report.train_yield, report.runs[1].report.train_yield);
        assert!(report.runs[0].label.contains("@1"));
    }

    #[test]
    fn batch_carries_the_search_strategy_to_every_entry() {
        use crate::search::CostAwareGreedy;

        let devices = devices();
        let report = batch(&devices).search(CostAwareGreedy).batch_threads(2).run().unwrap();
        for run in &report.runs {
            assert_eq!(run.report.search, "cost-aware-greedy");
        }
        assert_eq!(report.search_strategy(), "cost-aware-greedy");
        // Every entry runs the strategy it was given: the parallel batch
        // equals a sequential one.
        let sequential = batch(&devices).search(CostAwareGreedy).run().unwrap();
        for (a, b) in report.runs.iter().zip(sequential.runs.iter()) {
            assert_eq!(a.report.compaction, b.report.compaction);
        }
    }

    #[test]
    fn aggregate_sums_and_averages() {
        let devices = devices();
        let report = batch(&devices).run().unwrap();
        let total: usize = report.reports().map(|r| r.kept().len() + r.eliminated().len()).sum();
        assert_eq!(report.aggregate.total_tests, total);
        let mean: f64 =
            report.reports().map(|r| r.compaction_ratio()).sum::<f64>() / devices.len() as f64;
        assert!((report.aggregate.mean_compaction_ratio - mean).abs() < 1e-12);
        assert_eq!(
            report.aggregate.deployed.total,
            report.reports().map(|r| r.deployed.total).sum::<usize>()
        );
        assert!(report.summary().contains("4 devices"));
    }

    #[test]
    fn shared_caches_span_batches() {
        let devices = devices();
        let cache = Arc::new(PopulationCache::new());
        let first = batch(&devices).with_population_cache(Arc::clone(&cache)).run().unwrap();
        let second = batch(&devices).with_population_cache(Arc::clone(&cache)).run().unwrap();
        assert_eq!(first.population_cache_misses, devices.len());
        assert_eq!(second.population_cache_hits, devices.len());
    }
}
