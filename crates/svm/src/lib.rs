//! # stc-svm
//!
//! A self-contained support-vector-machine library used by the specification
//! test compaction methodology of the DATE 2005 paper *"Specification Test
//! Compaction for Analog Circuits and MEMS"*.
//!
//! The paper uses ε-SVM **classification** (trained with SVM-light) to predict
//! the overall pass/fail outcome of a device from a subset of its specification
//! measurements.  This crate provides the equivalent functionality built from
//! scratch:
//!
//! * [`SvmBackend`] — the crate's [`stc_core::classifier::ClassifierFactory`]
//!   implementation, plugging the SVM into the `stc-core` compaction
//!   pipeline,
//! * [`Svc`] — soft-margin C-SVM classification trained with a
//!   LIBSVM-style SMO solver ([`smo`]),
//! * [`Svr`] — ε-support-vector regression, used only for the
//!   classification-vs-regression ablation of Section 4.1,
//! * [`Kernel`] — linear, polynomial, RBF and sigmoid kernels.
//!
//! ## Example
//!
//! ```
//! use stc_svm::{Dataset, Kernel, SvcParams, Svc};
//!
//! # fn main() -> Result<(), stc_svm::SvmError> {
//! // A linearly separable toy problem: class +1 above the diagonal.
//! let mut data = Dataset::new(2)?;
//! for i in 0..40 {
//!     let x = i as f64 / 40.0;
//!     data.push(vec![x, x + 0.3], 1.0)?;
//!     data.push(vec![x, x - 0.3], -1.0)?;
//! }
//! let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::linear());
//! let model = Svc::train(&data, &params)?;
//! assert_eq!(model.predict(&[0.5, 0.9]), 1.0);
//! assert_eq!(model.predict(&[0.5, 0.1]), -1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
mod kernel;
mod svc;
mod svr;

pub mod backend;
pub mod engine;
pub mod nystrom;
pub mod smo;

pub use backend::SvmBackend;
pub use dataset::{Dataset, Sample};
pub use engine::{DotRowBank, EngineUsage, KernelEngine, KernelPath};
pub use error::SvmError;
pub use kernel::Kernel;
pub use nystrom::{NystromModel, NystromParams};
pub use svc::{Svc, SvcParams};
pub use svr::{Svr, SvrParams};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, SvmError>;
