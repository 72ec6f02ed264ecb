//! Serializable job specifications.
//!
//! A [`JobSpec`] is the wire-side description of one batch compaction job:
//! which devices to compact (bundled fixtures, synthetic models, or
//! pre-measured populations), which search strategy and classifier to run,
//! and every pipeline knob the [`stc_core::CompactionPipeline`] builder
//! exposes.  Specs are plain data — `spec -> JSON -> spec` round-trips
//! exactly — and resolve to live pipeline parts only inside the service
//! workers.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spec_test_compaction::adapters::{AccelerometerDevice, OpAmpDevice};
use stc_core::{
    ClassifierFactory, CompactionConfig, DeviceUnderTest, GridBackend, GuardBandConfig,
    MeasurementSet, MonteCarloConfig, PipelineBatch, SearchStrategy, SyntheticDevice,
    TestCostModel,
};
use stc_svm::SvmBackend;

use crate::error::ServeError;

/// The most threads a spec may ask for in `monte_carlo.threads`,
/// `compaction.threads` or `shard_threads`.  Each count starts up to that
/// many OS threads of the shared pool (one per instance, training job or
/// shard at most), so without a bound one submitted spec could ask for
/// millions.
const MAX_THREADS: usize = 256;

/// One device entry of a batch job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeviceSpec {
    /// The bundled two-stage CMOS op-amp fixture
    /// ([`OpAmpDevice::paper_setup`]).
    OpAmp,
    /// The bundled MEMS lateral comb accelerometer fixture
    /// ([`AccelerometerDevice::paper_setup`]).
    MemsAccelerometer,
    /// A synthetic device with correlated Gaussian measurements
    /// ([`SyntheticDevice::new`]).
    Synthetic {
        /// Number of specifications.
        specs: usize,
        /// Acceptability half-range of every specification.
        limit: f64,
        /// Pairwise correlation between measurements.
        correlation: f64,
    },
    /// A pre-measured population: the job skips Monte-Carlo simulation and
    /// feeds these sets straight into the compaction stages.
    Measured {
        /// Label identifying this entry in the batch report.
        label: String,
        /// Training population.
        train: MeasurementSet,
        /// Held-out population the final tester is evaluated on.
        test: MeasurementSet,
    },
}

/// A [`DeviceSpec`] resolved for one job: a simulatable device model, or
/// the measured population as it is.
pub(crate) enum ResolvedDevice<'s> {
    Model(Box<dyn DeviceUnderTest>),
    Measured { label: &'s str, train: &'s MeasurementSet, test: &'s MeasurementSet },
}

impl ResolvedDevice<'_> {
    /// The shard's batch label: a measured entry's own label, or
    /// `"<device name>#<index>"` like [`PipelineBatch::device`].
    pub(crate) fn label(&self, index: usize) -> String {
        match self {
            ResolvedDevice::Model(device) => format!("{}#{index}", device.name()),
            ResolvedDevice::Measured { label, .. } => label.to_string(),
        }
    }

    /// Appends this device to `batch` as its entry labelled `label`.
    pub(crate) fn add_to<'d>(&'d self, batch: PipelineBatch<'d>, label: &str) -> PipelineBatch<'d> {
        match self {
            ResolvedDevice::Model(device) => batch.device_labelled(label, device.as_ref()),
            ResolvedDevice::Measured { train, test, .. } => {
                batch.measured(label, (*train).clone(), (*test).clone())
            }
        }
    }
}

impl DeviceSpec {
    /// Resolves the spec: bundled fixtures and synthetic models become
    /// device models, measured data passes through.
    pub(crate) fn resolve(&self) -> ResolvedDevice<'_> {
        match self {
            DeviceSpec::OpAmp => ResolvedDevice::Model(Box::new(OpAmpDevice::paper_setup())),
            DeviceSpec::MemsAccelerometer => {
                ResolvedDevice::Model(Box::new(AccelerometerDevice::paper_setup()))
            }
            DeviceSpec::Synthetic { specs, limit, correlation } => {
                ResolvedDevice::Model(Box::new(SyntheticDevice::new(*specs, *limit, *correlation)))
            }
            DeviceSpec::Measured { label, train, test } => {
                ResolvedDevice::Measured { label, train, test }
            }
        }
    }
}

/// The classifier backend a job trains at every elimination step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClassifierSpec {
    /// The built-in per-spec grid model ([`GridBackend`]).
    #[default]
    Grid,
    /// The paper's ε-SVM backend ([`SvmBackend::paper_default`]).
    Svm,
}

impl ClassifierSpec {
    /// Instantiates the described [`ClassifierFactory`].
    pub fn build(&self) -> Arc<dyn ClassifierFactory> {
        match self {
            ClassifierSpec::Grid => Arc::new(GridBackend::default()),
            ClassifierSpec::Svm => Arc::new(SvmBackend::paper_default()),
        }
    }
}

/// A complete, serializable description of one batch compaction job.
///
/// The mandatory fields are the device list, the Monte-Carlo stage and the
/// compaction stage; everything else defaults to the corresponding
/// [`stc_core::CompactionPipeline`] default, so a minimal JSON spec is just
/// `{"devices": [...], "monte_carlo": {...}, "compaction": {...}}`.
///
/// The strategy is a [`SearchStrategy`] and encodes as its variant name:
/// `"Greedy"`, `"CostAware"` or `{"Annealing":{"seed":…,"schedule":…}}`,
/// where an annealing strategy without a `schedule` runs the default one.
/// A spec naming any other strategy fails to decode with a typed error.
///
/// Decoding skips unknown keys, so a spec written by an older version
/// still decodes without the settings that have since gone: a search
/// `budget` (here or in `compaction`) or a guard-band flag that turned the
/// kept-range check off is ignored, and the job runs the full search with
/// every kept range checked.  A `skip_failures` key in `monte_carlo` is
/// ignored too: a failed simulation is always skipped and replaced, so a
/// legacy `false` now skips failures as well.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Devices to compact; each becomes one shard of the job.
    pub devices: Vec<DeviceSpec>,
    /// Monte-Carlo configuration shared by every simulated shard.
    pub monte_carlo: MonteCarloConfig,
    /// Held-out population size (defaults to half the training population).
    #[serde(default)]
    pub test_instances: Option<usize>,
    /// Compaction-stage configuration.
    pub compaction: CompactionConfig,
    /// Search strategy (defaults to the paper's greedy elimination).
    #[serde(default)]
    pub strategy: SearchStrategy,
    /// Classifier backend (defaults to the grid model).
    #[serde(default)]
    pub classifier: ClassifierSpec,
    /// Guard-band override folded into `compaction`
    /// ([`CompactionConfig::with_guard_band`]).
    #[serde(default)]
    pub guard_band: Option<GuardBandConfig>,
    /// Test-cost model (defaults to uniform unit costs).
    #[serde(default)]
    pub cost_model: Option<TestCostModel>,
    /// Deploys lookup-table testers with this resolution instead of exact
    /// models.
    #[serde(default)]
    pub lookup_table: Option<usize>,
    /// Worker threads the service spends on this job's shards (`0` means
    /// one, and at most 256).
    #[serde(default)]
    pub shard_threads: usize,
}

impl JobSpec {
    /// A spec with the mandatory stages set and every optional stage at its
    /// pipeline default.
    pub fn new(
        devices: Vec<DeviceSpec>,
        monte_carlo: MonteCarloConfig,
        compaction: CompactionConfig,
    ) -> Self {
        JobSpec {
            devices,
            monte_carlo,
            test_instances: None,
            compaction,
            strategy: SearchStrategy::default(),
            classifier: ClassifierSpec::default(),
            guard_band: None,
            cost_model: None,
            lookup_table: None,
            shard_threads: 0,
        }
    }

    /// The job's stages as an empty batch: the one place a spec turns into
    /// pipeline configuration.  The guard-band override folds into the
    /// compaction stage.
    pub(crate) fn batch<'d>(&self) -> PipelineBatch<'d> {
        let mut compaction = self.compaction.clone();
        if let Some(guard_band) = self.guard_band {
            compaction = compaction.with_guard_band(guard_band);
        }
        let mut batch = PipelineBatch::new()
            .monte_carlo(self.monte_carlo)
            .compaction(compaction)
            .search(self.strategy)
            .classifier_arc(self.classifier.build());
        if let Some(instances) = self.test_instances {
            batch = batch.test_instances(instances);
        }
        if let Some(cost_model) = &self.cost_model {
            batch = batch.cost_model(cost_model.clone());
        }
        if let Some(cells) = self.lookup_table {
            batch = batch.lookup_table(cells);
        }
        batch
    }

    /// Checks the parts of a spec the service cannot discover lazily.
    ///
    /// # Errors
    ///
    /// Rejects an empty device list, a `monte_carlo.threads`,
    /// `compaction.threads` or `shard_threads` above 256, measured entries
    /// with empty labels, and synthetic devices without specifications, with
    /// a limit that is not finite and positive, or with a non-finite
    /// correlation.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.devices.is_empty() {
            return Err(ServeError::InvalidSpec("a job needs at least one device".into()));
        }
        for (name, threads) in [
            ("monte_carlo.threads", self.monte_carlo.threads),
            ("compaction.threads", self.compaction.threads),
            ("shard_threads", self.shard_threads),
        ] {
            if threads > MAX_THREADS {
                return Err(ServeError::InvalidSpec(format!(
                    "{name} is {threads}, above the limit of {MAX_THREADS}"
                )));
            }
        }
        for device in &self.devices {
            let problem = match device {
                DeviceSpec::Measured { label, .. } if label.is_empty() => {
                    "measured devices need a non-empty label"
                }
                DeviceSpec::Synthetic { specs: 0, .. } => {
                    "synthetic devices need at least one specification"
                }
                DeviceSpec::Synthetic { limit, .. } if !(limit.is_finite() && *limit > 0.0) => {
                    "synthetic device limits must be finite and positive"
                }
                DeviceSpec::Synthetic { correlation, .. } if !correlation.is_finite() => {
                    "synthetic device correlations must be finite"
                }
                _ => continue,
            };
            return Err(ServeError::InvalidSpec(problem.into()));
        }
        Ok(())
    }
}
