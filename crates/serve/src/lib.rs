//! # stc-serve
//!
//! Compaction-as-a-service on top of `stc-core`: a job queue that takes
//! serializable [`JobSpec`]s, shards each batch into per-device sub-jobs on
//! a bounded worker pool, streams anytime search progress while jobs run,
//! and returns [`stc_core::BatchReport`]s that survive a JSON round-trip.
//!
//! The crate has three layers:
//!
//! * [`json`] + [`envelope`] — a self-contained JSON codec for the vendored
//!   `serde` data model, plus the versioned
//!   `{"schema_version": N, "payload": ...}` wrapper every document ships
//!   in.  Unknown versions are rejected with
//!   [`ServeError::UnsupportedSchemaVersion`] *before* the payload is
//!   parsed.
//! * [`spec`] — the wire-side job description: devices (bundled fixtures,
//!   synthetic models, or pre-measured populations), the
//!   [`stc_core::SearchStrategy`] to run, classifier backend and every
//!   pipeline knob, all plain serializable data.
//! * [`service`] — [`CompactionService`]: `submit` / `status` / `cancel` /
//!   `await_result` over a worker pool; running jobs expose
//!   [`JobStatus::Running`] with per-shard best-frontier-so-far snapshots
//!   fed by the `stc_core::search::ProgressObserver` seam.
//!
//! ## Quick start
//!
//! ```
//! use stc_serve::{
//!     envelope, CompactionService, DeviceSpec, JobSpec, JobStatus,
//! };
//! use stc_core::{CompactionConfig, MonteCarloConfig};
//!
//! # fn main() -> Result<(), stc_serve::ServeError> {
//! let service = CompactionService::new(1);
//! let spec = JobSpec::new(
//!     vec![DeviceSpec::Synthetic { specs: 4, limit: 1.8, correlation: 0.9 }],
//!     MonteCarloConfig::new(120).with_seed(7),
//!     CompactionConfig::paper_default().with_tolerance(0.05),
//! );
//! let id = service.submit(spec)?;
//! let status = service.await_result(id)?;
//! let report = status.report().expect("job completed");
//! println!("{}", envelope::encode(report)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
mod error;
pub mod json;
pub mod service;
pub mod spec;

pub use envelope::{Envelope, SCHEMA_VERSION};
pub use error::ServeError;
pub use service::{CompactionService, JobId, JobProgress, JobStatus, ShardProgress};
pub use spec::{ClassifierSpec, DeviceSpec, JobSpec};
