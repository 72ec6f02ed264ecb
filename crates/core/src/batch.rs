//! Batched pipeline runs: one compaction configuration across many devices
//! and populations.
//!
//! A production test-development flow rarely compacts a single device: it
//! sweeps a device family (corners, variants, temperature splits) under one
//! methodology configuration and compares the outcomes.  [`PipelineBatch`]
//! runs one [`CompactionPipeline`](crate::CompactionPipeline) configuration
//! across many [`DeviceUnderTest`] entries and measured populations,
//! spreading the runs over the shared work-stealing [`crate::pool`] (each
//! run may additionally train its search's models on the threads of
//! [`CompactionConfig::with_threads`](crate::CompactionConfig::with_threads),
//! two jobs per candidate: its strict and its loose model) and sharing one
//! Monte-Carlo [`PopulationCache`] so repeated runs over the same device +
//! configuration never re-simulate.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::dataset::MeasurementSet;
use crate::device::DeviceUnderTest;
use crate::metrics::ErrorBreakdown;
use crate::montecarlo::{generate_train_test, MonteCarloConfig};
use crate::pipeline::{stage_setters, PipelineReport, Stages};
use crate::pool;
use crate::report::percent;
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

/// One entry of a batch.
struct BatchEntry<'d> {
    label: String,
    population: Population<'d>,
}

/// Where an entry's population comes from.
enum Population<'d> {
    /// Simulated through the shared Monte-Carlo stage and population cache.
    Simulated(&'d dyn DeviceUnderTest),
    /// Measured data: no simulation, no population cache.
    Measured { train: MeasurementSet, test: MeasurementSet },
}

/// Runs one [`CompactionPipeline`](crate::CompactionPipeline) configuration
/// across many devices.
///
/// The stage setters are the single-device pipeline's, and every stage
/// applies to each entry on its own: each entry runs its own search over
/// its own population.  With several batch threads, observer
/// events of different entries interleave; observers that need per-entry
/// streams should run entries through per-entry batches (or pipelines) with
/// distinct observers.  Devices are appended with [`PipelineBatch::device`]
/// (and friends), measured populations with [`PipelineBatch::measured`], and
/// the whole batch executes with [`PipelineBatch::run`].  See the
/// [module docs](self) for an example.
pub struct PipelineBatch<'d> {
    entries: Vec<BatchEntry<'d>>,
    stages: Stages,
    batch_threads: usize,
    populations: Arc<PopulationCache>,
}

impl std::fmt::Debug for PipelineBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBatch")
            .field("devices", &self.entries.iter().map(|e| e.label.as_str()).collect::<Vec<_>>())
            .field("stages", &self.stages)
            .field("batch_threads", &self.batch_threads)
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
    /// [`GridBackend`](crate::GridBackend) classifier (mirrors
    /// [`CompactionPipeline::for_device`](crate::CompactionPipeline::for_device)).
    pub fn new() -> Self {
        PipelineBatch {
            entries: Vec::new(),
            stages: Stages::default(),
            batch_threads: 1,
            populations: Arc::new(PopulationCache::new()),
        }
    }

    /// Appends a device, labelled `"<device name>#<index>"`.
    pub fn device(self, device: &'d dyn DeviceUnderTest) -> Self {
        let label = format!("{}#{}", device.name(), self.entries.len());
        self.push(label, Population::Simulated(device))
    }

    /// Appends a device under an explicit label (the label keys the
    /// population cache and the per-run report).
    pub fn device_labelled(
        self,
        label: impl Into<String>,
        device: &'d dyn DeviceUnderTest,
    ) -> Self {
        self.push(label.into(), Population::Simulated(device))
    }

    /// Appends a measured (non-simulated) population, for example production
    /// data: the entry skips the Monte-Carlo stage and the population cache
    /// (it counts neither a hit nor a miss) and reports `label` as its
    /// device.  Measurement sets are zero-copy views over `Arc`-shared
    /// columnar storage, so they are cheap to pass by value.
    pub fn measured(
        self,
        label: impl Into<String>,
        train: MeasurementSet,
        test: MeasurementSet,
    ) -> Self {
        self.push(label.into(), Population::Measured { train, test })
    }

    fn push(mut self, label: String, population: Population<'d>) -> Self {
        self.entries.push(BatchEntry { label, population });
        self
    }

    stage_setters!();

    /// Number of worker threads running whole pipelines concurrently
    /// (1 = sequential).  Workers steal the next unstarted entry from a
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

    /// Runs one entry: its measured population, or the cached (or freshly
    /// generated) simulated one, then the compaction pipeline stages.
    fn run_entry(&self, entry: &BatchEntry<'d>) -> Result<PipelineReport> {
        match &entry.population {
            Population::Measured { train, test } => {
                self.stages.run_with_population(&entry.label, train.clone(), test.clone())
            }
            Population::Simulated(device) => {
                let population = self.populations.get_or_generate(
                    &entry.label,
                    *device,
                    &self.stages.monte_carlo,
                    self.stages.resolved_test_instances(),
                )?;
                self.stages.run_with_population(
                    device.name(),
                    population.0.clone(),
                    population.1.clone(),
                )
            }
        }
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
    /// propagates the lowest-index per-entry error.  An entry failure
    /// cancels the entries that have not started yet, so the error path
    /// does not pay for simulating the rest of the batch.
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
        let reports = pool::try_run_indexed(self.entries.len(), self.batch_threads, |index| {
            self.run_entry(&self.entries[index])
        })?;
        let runs: Vec<BatchRun> = self
            .entries
            .iter()
            .zip(reports)
            .map(|(entry, report)| BatchRun { label: entry.label.clone(), report })
            .collect();
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

    /// One-paragraph human-readable summary of the batch.  Mirrors
    /// [`PipelineReport::summary`]: the search-strategy name is always
    /// named.
    pub fn summary(&self) -> String {
        format!(
            "{devices} devices [{search}]: eliminated {eliminated} of {total} tests \
             (mean compaction {ratio}, mean cost reduction {cost}; \
             aggregate yield loss {yl}, defect escape {de}; \
             model cache {hits} hits / {misses} misses)",
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
    use crate::pipeline::CompactionPipeline;
    use crate::CompactionConfig;

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
