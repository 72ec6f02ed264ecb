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

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use spec_test_compaction::adapters::{AccelerometerDevice, OpAmpDevice};
use stc_core::search::{
    AnnealingSchedule, CostAwareGreedy, GreedyBackward, ScreeningConfig, SearchBudget,
    SearchStrategy, SimulatedAnnealing,
};
use stc_core::{
    ClassifierFactory, CompactionConfig, DeviceUnderTest, GridBackend, GuardBandConfig,
    MeasurementSet, MonteCarloConfig, SyntheticDevice, TestCostModel,
};
use stc_svm::SvmBackend;

use crate::error::ServeError;

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

/// A name-only [`DeviceUnderTest`] stub standing in for measured data: the
/// service runs measured entries through
/// [`stc_core::CompactionPipeline::run_with_population`], which never
/// simulates, so only [`DeviceUnderTest::name`] is ever consulted.
#[derive(Debug)]
pub(crate) struct MeasuredDevice {
    pub(crate) label: String,
}

impl DeviceUnderTest for MeasuredDevice {
    fn name(&self) -> &str {
        &self.label
    }

    fn spec_names(&self) -> Vec<String> {
        Vec::new()
    }

    fn spec_units(&self) -> Vec<String> {
        Vec::new()
    }

    fn simulate_instance(&self, _rng: &mut StdRng) -> Result<Vec<f64>, String> {
        Err(format!("measured device `{}` cannot be simulated", self.label))
    }
}

/// Simulatable devices a [`DeviceSpec`] can resolve to.
#[derive(Debug)]
pub(crate) enum ResolvedDevice {
    OpAmp(Box<OpAmpDevice>),
    Mems(Box<AccelerometerDevice>),
    Synthetic(SyntheticDevice),
}

impl ResolvedDevice {
    pub(crate) fn as_device(&self) -> &dyn DeviceUnderTest {
        match self {
            ResolvedDevice::OpAmp(device) => device.as_ref(),
            ResolvedDevice::Mems(device) => device.as_ref(),
            ResolvedDevice::Synthetic(device) => device,
        }
    }
}

impl DeviceSpec {
    /// Builds the simulatable device for this spec, or `None` for measured
    /// data (which bypasses simulation entirely).
    pub(crate) fn resolve(&self) -> Option<ResolvedDevice> {
        match self {
            DeviceSpec::OpAmp => Some(ResolvedDevice::OpAmp(Box::new(OpAmpDevice::paper_setup()))),
            DeviceSpec::MemsAccelerometer => {
                Some(ResolvedDevice::Mems(Box::new(AccelerometerDevice::paper_setup())))
            }
            DeviceSpec::Synthetic { specs, limit, correlation } => {
                Some(ResolvedDevice::Synthetic(SyntheticDevice::new(*specs, *limit, *correlation)))
            }
            DeviceSpec::Measured { .. } => None,
        }
    }
}

/// The search strategy a job runs, by name (resolved via
/// [`StrategySpec::build`]).  A spec naming any other strategy fails to
/// decode with a typed error.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// The paper's greedy backward elimination ([`GreedyBackward`]).
    #[default]
    Greedy,
    /// Cost-weighted greedy elimination ([`CostAwareGreedy`]).
    CostAware,
    /// Seeded simulated annealing ([`SimulatedAnnealing`]).
    Annealing {
        /// RNG seed of the walk.
        seed: u64,
        /// Cooling schedule (defaults to [`AnnealingSchedule::default`]).
        #[serde(default)]
        schedule: AnnealingSchedule,
    },
}

impl StrategySpec {
    /// Instantiates the described [`SearchStrategy`].
    pub fn build(&self) -> Arc<dyn SearchStrategy> {
        match self {
            StrategySpec::Greedy => Arc::new(GreedyBackward),
            StrategySpec::CostAware => Arc::new(CostAwareGreedy),
            StrategySpec::Annealing { seed, schedule } => {
                Arc::new(SimulatedAnnealing::new(*seed).with_schedule(*schedule))
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
    pub strategy: StrategySpec,
    /// Classifier backend (defaults to the grid model).
    #[serde(default)]
    pub classifier: ClassifierSpec,
    /// Guard-band override applied on top of `compaction`.
    #[serde(default)]
    pub guard_band: Option<GuardBandConfig>,
    /// Search-budget override applied on top of `compaction`.
    #[serde(default)]
    pub budget: Option<SearchBudget>,
    /// Screen-then-verify override applied on top of `compaction` (see
    /// [`stc_core::CompactionPipeline::screening`]).
    #[serde(default)]
    pub screening: Option<ScreeningConfig>,
    /// Test-cost model (defaults to uniform unit costs).
    #[serde(default)]
    pub cost_model: Option<TestCostModel>,
    /// Deploys lookup-table testers with this resolution instead of exact
    /// models.
    #[serde(default)]
    pub lookup_table: Option<usize>,
    /// Staged sequential deploy accounting (`None` keeps the pipeline
    /// default, which is enabled; `Some(false)` opts a job out — see
    /// [`stc_core::CompactionPipeline::sequential_deploy`]).
    #[serde(default)]
    pub sequential: Option<bool>,
    /// Worker threads the service spends on this job's shards (`0` means
    /// one).
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
            strategy: StrategySpec::default(),
            classifier: ClassifierSpec::default(),
            guard_band: None,
            budget: None,
            screening: None,
            cost_model: None,
            lookup_table: None,
            sequential: None,
            shard_threads: 0,
        }
    }

    /// Checks the parts of a spec the service cannot discover lazily.
    ///
    /// # Errors
    ///
    /// Rejects an empty device list, measured entries with empty labels, and
    /// synthetic devices without specifications, with a limit that is not
    /// finite and positive, or with a non-finite correlation.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.devices.is_empty() {
            return Err(ServeError::InvalidSpec("a job needs at least one device".into()));
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
