//! # spec-test-compaction
//!
//! A complete reproduction of *"Specification Test Compaction for Analog
//! Circuits and MEMS"* (Biswas, Li, Blanton, Pileggi — DATE 2005) in Rust.
//!
//! The paper eliminates redundant specification tests of analog and MEMS
//! devices using ε-SVM classification, with guard-banded decision boundaries
//! to keep yield loss and defect escape below a user-chosen tolerance.  This
//! workspace implements the methodology and every substrate it needs:
//!
//! | Crate | Role |
//! |-------|------|
//! | [`core`] (`stc-core`) | the [`CompactionPipeline`](prelude::CompactionPipeline): Monte-Carlo data generation, greedy elimination, guard banding, pluggable classifier backends, grid/lookup tester models, cost model, ad-hoc baseline |
//! | [`svm`] (`stc-svm`) | SMO-trained support-vector classification/regression and the [`SvmBackend`](prelude::SvmBackend) classifier |
//! | [`circuit`] (`stc-circuit`) | MNA analog circuit simulator + two-stage CMOS op-amp testbenches (Spectre substitute) |
//! | [`mems`] (`stc-mems`) | lumped MEMS accelerometer behavioural model with temperature effects (NODAS substitute) |
//! | this crate | [`adapters`] wiring the devices into the methodology, the [`prelude`], runnable examples |
//!
//! ## Quick start
//!
//! The whole flow — simulate a process-perturbed population, greedily
//! eliminate redundant tests under an error tolerance, guard-band the
//! decision boundary, emit a deployable tester program with its cost savings
//! — is one staged builder:
//!
//! ```no_run
//! use spec_test_compaction::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Compact the 11-test suite of the paper's two-stage op-amp.
//! let device = OpAmpDevice::paper_setup();
//! let report = CompactionPipeline::for_device(&device)
//!     .monte_carlo(MonteCarloConfig::new(500).with_seed(7).with_threads(4))
//!     .test_instances(200)
//!     .compaction(
//!         CompactionConfig::paper_default()
//!             .with_tolerance(0.01)
//!             .with_guard_band(GuardBandConfig::paper_default()),
//!     )
//!     .classifier(SvmBackend::paper_default())
//!     .run()?;
//! println!("{}", report.summary());
//! println!("kept {:?}, eliminated {:?}", report.kept(), report.eliminated());
//! # Ok(())
//! # }
//! ```
//!
//! The classifier stage is pluggable: swap `SvmBackend` for the cheaper
//! [`GridBackend`](prelude::GridBackend) (or any custom
//! [`ClassifierFactory`](prelude::ClassifierFactory)) without touching the
//! rest of the flow.  (The pre-0.2 entry points that hard-wired the SVM into
//! the call chain were removed in 0.9 — drive the explicit seam,
//! `generate_train_test` → `Compactor::compact_with(&backend, …)` → ….)
//!
//! The deployed [`TesterProgram`](prelude::TesterProgram) classifies devices
//! one-shot from a full kept-set measurement vector, or *sequentially*
//! through a staged [`TestPlan`](prelude::TestPlan) that stops measuring the
//! moment a verdict is settled; the report's `sequential` statistics price
//! that mode per device (see the `adaptive_tester` example).
//!
//! To sweep one configuration across a whole device family, wrap the same
//! stages in a [`PipelineBatch`](prelude::PipelineBatch): devices run on a
//! work-stealing worker pool, simulated populations are cached and
//! `Arc`-shared (storage is column-major and zero-copy as of 0.3), and the
//! [`BatchReport`](prelude::BatchReport) aggregates the per-device outcomes
//! (see the `batch_compaction` example).
//!
//! The experiment harness reproducing every table and figure of the paper
//! lives in the `stc-bench` crate (`cargo run -p stc-bench --bin table1`,
//! `figure5`, …); EXPERIMENTS.md records paper-versus-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod prelude;

pub use stc_circuit as circuit;
pub use stc_core as core;
pub use stc_mems as mems;
pub use stc_svm as svm;
