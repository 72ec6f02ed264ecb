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
//! two jobs per candidate: its strict and its loose model).  Each device
//! entry simulates its population on every run; to run several batches
//! over one population, generate it once with
//! [`generate_train_test`](crate::generate_train_test) and add the sets with
//! [`PipelineBatch::measured`].
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

use serde::{Deserialize, Serialize};

use crate::dataset::MeasurementSet;
use crate::device::DeviceUnderTest;
use crate::metrics::ErrorBreakdown;
use crate::pipeline::{stage_setters, PipelineReport, Stages};
use crate::pool;
use crate::report::percent;
use crate::Result;

/// One entry of a batch.
struct BatchEntry<'d> {
    label: String,
    population: Population<'d>,
}

/// Where an entry's population comes from.
enum Population<'d> {
    /// Simulated through the batch's Monte-Carlo stage.
    Simulated(&'d dyn DeviceUnderTest),
    /// Measured data: no simulation.
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
        PipelineBatch { entries: Vec::new(), stages: Stages::default(), batch_threads: 1 }
    }

    /// Appends a device, labelled `"<device name>#<index>"`.
    pub fn device(self, device: &'d dyn DeviceUnderTest) -> Self {
        let label = format!("{}#{}", device.name(), self.entries.len());
        self.push(label, Population::Simulated(device))
    }

    /// Appends a device under an explicit label (the label names the
    /// entry's run in the report).
    pub fn device_labelled(
        self,
        label: impl Into<String>,
        device: &'d dyn DeviceUnderTest,
    ) -> Self {
        self.push(label.into(), Population::Simulated(device))
    }

    /// Appends a measured (non-simulated) population, for example production
    /// data or a population from
    /// [`generate_train_test`](crate::generate_train_test) that several
    /// batches reuse: the entry skips the Monte-Carlo stage and reports
    /// `label` as its device.  Measurement sets are zero-copy views over
    /// `Arc`-shared columnar storage, so they are cheap to pass by value.
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

    /// Runs one entry: its measured population, or one it simulates, then
    /// the compaction pipeline stages.
    fn run_entry(&self, entry: &BatchEntry<'d>) -> Result<PipelineReport> {
        match &entry.population {
            Population::Measured { train, test } => {
                self.stages.run_with_population(&entry.label, train.clone(), test.clone())
            }
            Population::Simulated(device) => self.stages.run_device(*device),
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
    /// two entries share a label (labels name the report's runs, so a
    /// collision would leave two runs that cannot be told apart);
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
        Ok(BatchReport { runs, aggregate })
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
    use crate::{CompactionConfig, MonteCarloConfig};

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
    fn batch_carries_the_search_strategy_to_every_entry() {
        use crate::search::SearchStrategy;

        let devices = devices();
        let report =
            batch(&devices).search(SearchStrategy::CostAware).batch_threads(2).run().unwrap();
        for run in &report.runs {
            assert_eq!(run.report.search, "cost-aware-greedy");
        }
        assert_eq!(report.search_strategy(), "cost-aware-greedy");
        // Every entry runs the strategy it was given: the parallel batch
        // equals a sequential one.
        let sequential = batch(&devices).search(SearchStrategy::CostAware).run().unwrap();
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
}
