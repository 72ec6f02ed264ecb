//! One-stop imports for the compaction flow.
//!
//! ```
//! use spec_test_compaction::prelude::*;
//! ```
//!
//! brings in the [`CompactionPipeline`] builder, both bundled classifier
//! backends ([`SvmBackend`], [`GridBackend`]), the three bundled search
//! strategies (the paper's [`GreedyBackward`], [`CostAwareGreedy`] for
//! insertion-heavy cost models and the seeded [`SimulatedAnnealing`] walk),
//! the staged sequential deploy types ([`TestPlan`], [`SequentialSession`],
//! [`StepVerdict`], [`SequentialStats`]), the device adapters and every
//! configuration type the pipeline stages take.

pub use crate::adapters::{AccelerometerDevice, OpAmpDevice};

pub use stc_core::classifier::{
    Classifier, ClassifierFactory, GridBackend, TrainingView, WarmStartContext,
};
pub use stc_core::pipeline::{CompactionPipeline, CostSummary, GuardBandStats, PipelineReport};
pub use stc_core::search::{
    AnnealingSchedule, CandidateEvaluator, CandidateVerdict, CostAwareGreedy, GreedyBackward,
    SearchContext, SearchOutcome, SearchStrategy, SimulatedAnnealing,
};
pub use stc_core::{
    baseline, generate_measurement_set, generate_train_test, gridmodel, run_monte_carlo,
    BatchAggregate, BatchReport, BatchRun, CompactionConfig, CompactionError, CompactionResult,
    CompactionStep, Compactor, DeviceLabel, DeviceUnderTest, EliminationOrder, ErrorBreakdown,
    GuardBandConfig, GuardBandedClassifier, MeasurementMatrix, MeasurementSet, ModelCacheStats,
    MonteCarloConfig, PipelineBatch, PopulationCache, Prediction, SequentialSession,
    SequentialStats, Specification, SpecificationSet, StepVerdict, SyntheticDevice, TestCostModel,
    TestPlan, TesterModel, TesterProgram, WarmStartStats,
};

pub use stc_svm::SvmBackend;

pub use stc_mems::TestTemperature;
