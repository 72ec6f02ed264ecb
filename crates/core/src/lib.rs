//! # stc-core
//!
//! Statistical-learning-based specification test compaction — a reproduction
//! of *"Specification Test Compaction for Analog Circuits and MEMS"*
//! (Biswas, Li, Blanton, Pileggi — DATE 2005).
//!
//! Testing a non-digital component against all of its datasheet
//! specifications is expensive; this crate removes *redundant* specification
//! tests while keeping yield loss and defect escape below a user-defined
//! tolerance.  The whole flow is exposed as one staged builder,
//! [`CompactionPipeline`]:
//!
//! 1. the **monte_carlo** stage simulates process-perturbed device instances
//!    (Figure 1 of the paper) through any [`DeviceUnderTest`] implementation,
//! 2. the **compaction** stage searches for a small kept set, training a
//!    classifier per candidate that predicts overall pass/fail from the
//!    remaining measurements; the search procedure is pluggable (see
//!    [`search`]): the paper's greedy elimination loop (Figure 2) is the
//!    default, with cost-aware and simulated-annealing strategies bundled,
//!    and every strategy runs to completion, as the paper's loop does,
//! 3. the guard band, set in the same compaction configuration
//!    ([`CompactionConfig::with_guard_band`]), brackets the decision boundary
//!    with a strict/loose model pair (Section 4.2); devices on which they
//!    disagree are routed to retest,
//! 4. the **classifier** stage picks the model family: the ε-SVM backend of
//!    `stc-svm` (the paper's choice) or the built-in
//!    [`GridBackend`] — any
//!    [`classifier::ClassifierFactory`] plugs in,
//! 5. the **cost_model** stage turns the kept set into test-cost savings, and
//!    [`TesterProgram`] packages the result for deployment (Section 3.3) —
//!    including the staged sequential mode ([`TestPlan`] /
//!    [`SequentialSession`]) that stops measuring a device as soon as its
//!    verdict is settled and reports the expected cost per device.
//!
//! ## Quick start
//!
//! ```
//! use stc_core::pipeline::CompactionPipeline;
//! use stc_core::{CompactionConfig, MonteCarloConfig, SyntheticDevice};
//! use stc_svm::SvmBackend;
//!
//! # fn main() -> Result<(), stc_core::CompactionError> {
//! // A synthetic device with strongly correlated specifications: some of its
//! // tests are redundant by construction.
//! let device = SyntheticDevice::new(4, 1.8, 0.9);
//! let report = CompactionPipeline::for_device(&device)
//!     .monte_carlo(MonteCarloConfig::new(300).with_seed(1))
//!     .compaction(CompactionConfig::paper_default().with_tolerance(0.05))
//!     .classifier(SvmBackend::paper_default())
//!     .run()?;
//! assert_eq!(report.kept().len() + report.eliminated().len(), 4);
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```
//!
//! The lower-level building blocks ([`Compactor`], [`GuardBandedClassifier`],
//! [`montecarlo`], [`gridmodel`], [`baseline`], [`TestCostModel`]) remain
//! public for custom flows.  (The pre-0.2 entry points that hard-wired the
//! SVM into the loop were removed in 0.9 — pass a
//! [`classifier::ClassifierFactory`] explicitly.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compaction;
mod costmodel;
mod dataset;
mod device;
mod error;
mod guardband;
mod metrics;
mod ordering;
mod spec;

pub mod baseline;
pub mod batch;
pub mod classifier;
pub mod gridmodel;
pub mod montecarlo;
pub mod pipeline;
pub mod pool;
pub mod report;
pub mod search;
pub mod tester;

pub use batch::{
    BatchAggregate, BatchReport, BatchRun, CacheStats, PipelineBatch, PopulationCache,
};
pub use classifier::{
    BankStats, Classifier, ClassifierFactory, GridBackend, TrainingView, WarmStartContext,
};
pub use compaction::{
    CompactionConfig, CompactionResult, CompactionStep, Compactor, ModelCacheStats, WarmStartStats,
};
pub use costmodel::TestCostModel;
pub use dataset::{DeviceLabel, MeasurementMatrix, MeasurementSet};
pub use device::{DeviceUnderTest, SyntheticDevice};
pub use error::CompactionError;
pub use guardband::{GuardBandConfig, GuardBandedClassifier, Prediction};
pub use metrics::ErrorBreakdown;
pub use montecarlo::{
    generate_measurement_set, generate_train_test, run_monte_carlo, MonteCarloConfig, MonteCarloRun,
};
pub use ordering::EliminationOrder;
pub use pipeline::{CompactionPipeline, CostSummary, GuardBandStats, PipelineReport};
pub use search::{
    AnnealingSchedule, CandidateEvaluator, CandidateVerdict, CostAwareGreedy, FrontierSnapshot,
    GreedyBackward, ProgressObserver, SearchContext, SearchOutcome, SearchStrategy,
    SimulatedAnnealing, TrainingEvent,
};
pub use spec::{Specification, SpecificationSet};
pub use tester::{
    SequentialSession, SequentialStats, StepVerdict, TestPlan, TesterModel, TesterProgram,
};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CompactionError>;
