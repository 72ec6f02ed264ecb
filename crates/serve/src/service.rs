//! The compaction job queue.
//!
//! [`CompactionService`] owns a bounded pool of worker threads draining a
//! FIFO queue of [`JobSpec`]s.  Each job is sharded into one single-entry
//! [`PipelineBatch`](stc_core::PipelineBatch) per device; the shards run
//! on the shared work-stealing [`stc_core::pool`] (`shard_threads` wide),
//! each simulating its own population, so the assembled
//! [`BatchReport`] is *identical* — field for field, byte for byte once
//! serialized — to what a direct
//! [`PipelineBatch::run`](stc_core::PipelineBatch::run) over the same
//! devices would produce.
//!
//! While a job runs, a [`ProgressObserver`] per shard streams training
//! counts and committed frontiers into the job's [`JobProgress`], which
//! [`CompactionService::status`] exposes as [`JobStatus::Running`] — an
//! anytime view of the search: the best frontier so far, per device, long
//! before the job completes.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use serde::{Deserialize, Serialize};
use stc_core::pool;
use stc_core::search::{FrontierSnapshot, ProgressObserver, TrainingEvent};
use stc_core::{BatchAggregate, BatchReport, CompactionError};

use crate::error::ServeError;
use crate::spec::{DeviceSpec, JobSpec, ResolvedDevice};

/// Handle to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobId(u64);

impl JobId {
    /// Rebuilds a handle from its raw value (say, parsed from a CLI
    /// argument); only ids issued by the same service instance resolve.
    pub fn from_raw(id: u64) -> Self {
        JobId(id)
    }

    /// The raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Live progress of one shard (one device) of a running job.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardProgress {
    /// The shard's batch label.
    pub label: String,
    /// Whether a worker has picked the shard up.
    pub started: bool,
    /// Whether the shard's pipeline has completed.
    pub finished: bool,
    /// Models trained so far (cumulative, from [`TrainingEvent`]).
    pub trainings: usize,
    /// SMO solver iterations spent so far.
    pub solver_iterations: usize,
    /// The best committed elimination frontier so far.
    pub best_frontier: Vec<usize>,
    /// Held-out prediction error of that frontier, when already scored.
    pub prediction_error: Option<f64>,
}

/// Live progress of a running job: one entry per shard, in device order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobProgress {
    /// Per-shard progress, in the order the devices appear in the spec.
    pub shards: Vec<ShardProgress>,
}

/// The externally visible lifecycle of a job.
//
// The `Done` report dwarfs the other variants, but the wire shape is pinned
// byte-for-byte by the round-trip suite and statuses are few and short-lived,
// so boxing the report buys nothing worth the format risk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running the job's shards.
    Running {
        /// Anytime progress snapshot.
        progress: JobProgress,
    },
    /// All shards completed; the report is final.
    Done {
        /// The assembled batch report.
        report: BatchReport,
    },
    /// A shard failed; the job stopped at the first error.
    Failed {
        /// Human-readable failure description.
        error: String,
    },
    /// Cancelled before completion (a job cancelled while queued never
    /// trains a model).
    Cancelled,
}

impl JobStatus {
    /// Whether the status is final ([`Done`](JobStatus::Done),
    /// [`Failed`](JobStatus::Failed) or [`Cancelled`](JobStatus::Cancelled)).
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done { .. } | JobStatus::Failed { .. } | JobStatus::Cancelled)
    }

    /// The completed report, when [`Done`](JobStatus::Done).
    pub fn report(&self) -> Option<&BatchReport> {
        match self {
            JobStatus::Done { report } => Some(report),
            _ => None,
        }
    }
}

/// Internal job state; [`JobStatus`] is composed from this plus the live
/// progress on demand.
#[allow(clippy::large_enum_variant)] // one entry per job; mirrors JobStatus
#[derive(Debug)]
enum JobState {
    Queued,
    Running,
    Done(BatchReport),
    Failed(String),
    Cancelled,
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    progress: Arc<Mutex<JobProgress>>,
    cancelled: Arc<AtomicBool>,
}

#[derive(Debug)]
struct ServiceState {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobEntry>,
    shutdown: bool,
}

#[derive(Debug)]
struct ServiceShared {
    state: Mutex<ServiceState>,
    /// Wakes workers when work arrives or the service shuts down.
    work: Condvar,
    /// Wakes [`CompactionService::await_result`] when a job turns terminal.
    done: Condvar,
}

/// A bounded-worker compaction job queue; see the [module docs](self).
#[derive(Debug)]
pub struct CompactionService {
    shared: Arc<ServiceShared>,
    workers: Vec<JoinHandle<()>>,
}

impl CompactionService {
    /// Starts a service with `workers` job workers (clamped to at least
    /// one).  Each worker runs one job at a time; a job's shards additionally
    /// fan out over its own [`JobSpec::shard_threads`].
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(ServiceShared {
            state: Mutex::new(ServiceState {
                next_id: 0,
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        CompactionService { shared, workers }
    }

    /// Validates and enqueues a job, returning its handle immediately.
    ///
    /// # Errors
    ///
    /// Rejects invalid specs ([`JobSpec::validate`]) and submissions to a
    /// shutting-down service.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        spec.validate()?;
        let mut state = self.shared.state.lock().expect("service state poisoned");
        if state.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(
            id,
            JobEntry {
                spec,
                state: JobState::Queued,
                progress: Arc::new(Mutex::new(JobProgress::default())),
                cancelled: Arc::new(AtomicBool::new(false)),
            },
        );
        state.queue.push_back(id);
        drop(state);
        self.shared.work.notify_one();
        Ok(JobId(id))
    }

    /// The job's current status; `Running` statuses carry a fresh progress
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Fails on ids this service never issued.
    pub fn status(&self, id: JobId) -> Result<JobStatus, ServeError> {
        let state = self.shared.state.lock().expect("service state poisoned");
        let entry = state.jobs.get(&id.0).ok_or(ServeError::UnknownJob(id.0))?;
        Ok(compose_status(entry))
    }

    /// Requests cancellation.  A queued job is cancelled immediately and
    /// never trains; a running job stops at its next shard boundary.
    /// Returns `false` when the job had already finished.
    ///
    /// # Errors
    ///
    /// Fails on ids this service never issued.
    pub fn cancel(&self, id: JobId) -> Result<bool, ServeError> {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        let entry = state.jobs.get_mut(&id.0).ok_or(ServeError::UnknownJob(id.0))?;
        match entry.state {
            JobState::Queued => {
                entry.state = JobState::Cancelled;
                entry.cancelled.store(true, Ordering::SeqCst);
                drop(state);
                self.shared.done.notify_all();
                Ok(true)
            }
            JobState::Running => {
                entry.cancelled.store(true, Ordering::SeqCst);
                Ok(true)
            }
            JobState::Done(_) | JobState::Failed(_) | JobState::Cancelled => Ok(false),
        }
    }

    /// Blocks until the job reaches a terminal status and returns it.
    ///
    /// # Errors
    ///
    /// Fails on ids this service never issued.
    pub fn await_result(&self, id: JobId) -> Result<JobStatus, ServeError> {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        loop {
            let entry = state.jobs.get(&id.0).ok_or(ServeError::UnknownJob(id.0))?;
            let status = compose_status(entry);
            if status.is_terminal() {
                return Ok(status);
            }
            state = self.shared.done.wait(state).expect("service state poisoned");
        }
    }

    /// Convenience wrapper: submit one job, block for its report.
    ///
    /// # Errors
    ///
    /// Propagates submission errors; failed jobs surface as
    /// [`ServeError::JobFailed`], cancelled jobs as
    /// [`ServeError::Cancelled`].
    pub fn run_blocking(&self, spec: JobSpec) -> Result<BatchReport, ServeError> {
        let id = self.submit(spec)?;
        match self.await_result(id)? {
            JobStatus::Done { report } => Ok(report),
            JobStatus::Failed { error } => Err(ServeError::JobFailed(error)),
            JobStatus::Cancelled => Err(ServeError::Cancelled),
            status => unreachable!("await_result returned non-terminal status {status:?}"),
        }
    }
}

impl Drop for CompactionService {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("service state poisoned");
            state.shutdown = true;
            // Cancel whatever is still running so workers return promptly.
            for entry in state.jobs.values() {
                entry.cancelled.store(true, Ordering::SeqCst);
            }
        }
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn compose_status(entry: &JobEntry) -> JobStatus {
    match &entry.state {
        JobState::Queued => JobStatus::Queued,
        JobState::Running => JobStatus::Running {
            progress: entry.progress.lock().expect("progress poisoned").clone(),
        },
        JobState::Done(report) => JobStatus::Done { report: report.clone() },
        JobState::Failed(error) => JobStatus::Failed { error: error.clone() },
        JobState::Cancelled => JobStatus::Cancelled,
    }
}

fn worker_loop(shared: &ServiceShared) {
    loop {
        let claimed = {
            let mut state = shared.state.lock().expect("service state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(id) = state.queue.pop_front() {
                    let entry = state.jobs.get_mut(&id).expect("queued job must exist");
                    // Cancelled while queued: skip without running anything.
                    if matches!(entry.state, JobState::Cancelled) {
                        continue;
                    }
                    entry.state = JobState::Running;
                    break Some((
                        id,
                        entry.spec.clone(),
                        Arc::clone(&entry.progress),
                        Arc::clone(&entry.cancelled),
                    ));
                }
                state = shared.work.wait(state).expect("service state poisoned");
            }
        };
        let Some((id, spec, progress, cancelled)) = claimed else { return };
        // A panicking job fails alone: the worker survives to run the next.
        let outcome =
            panic::catch_unwind(AssertUnwindSafe(|| run_job(&spec, &progress, &cancelled)))
                .unwrap_or_else(|payload| {
                    Err(JobError::Panicked(pool::panic_message(payload.as_ref())))
                });
        {
            let mut state = shared.state.lock().expect("service state poisoned");
            let entry = state.jobs.get_mut(&id).expect("running job must exist");
            entry.state = match outcome {
                Ok(report) => JobState::Done(report),
                Err(JobError::Cancelled) => JobState::Cancelled,
                Err(JobError::Shard(error)) => JobState::Failed(error.to_string()),
                Err(JobError::Panicked(message)) => {
                    JobState::Failed(format!("job panicked: {message}"))
                }
            };
        }
        shared.done.notify_all();
    }
}

enum JobError {
    Cancelled,
    Shard(CompactionError),
    Panicked(String),
}

/// Observer bridging one shard's search events into the job's progress.
#[derive(Debug)]
struct ShardObserver {
    index: usize,
    progress: Arc<Mutex<JobProgress>>,
}

impl ProgressObserver for ShardObserver {
    fn on_training(&self, event: &TrainingEvent) {
        let mut progress = self.progress.lock().expect("progress poisoned");
        let shard = &mut progress.shards[self.index];
        shard.trainings = event.trainings;
        shard.solver_iterations = event.solver_iterations;
    }

    fn on_frontier(&self, snapshot: &FrontierSnapshot) {
        let mut progress = self.progress.lock().expect("progress poisoned");
        let shard = &mut progress.shards[self.index];
        shard.best_frontier = snapshot.eliminated.clone();
        shard.prediction_error = snapshot.prediction_error;
    }
}

/// Runs every shard of one job on the shared pool and assembles the batch
/// report ([`BatchAggregate::from_runs`] keeps the statistics identical to
/// a direct [`PipelineBatch::run`](stc_core::PipelineBatch::run)).  Each
/// shard is a single-entry batch, so it streams into its own progress
/// slot.
fn run_job(
    spec: &JobSpec,
    progress: &Arc<Mutex<JobProgress>>,
    cancelled: &AtomicBool,
) -> Result<BatchReport, JobError> {
    let devices: Vec<ResolvedDevice<'_>> = spec.devices.iter().map(DeviceSpec::resolve).collect();
    let labels: Vec<String> =
        devices.iter().enumerate().map(|(index, device)| device.label(index)).collect();
    // Each shard runs as its own batch, so check the labels across shards
    // the way `PipelineBatch::run` checks its entries.
    for (index, label) in labels.iter().enumerate() {
        if labels[..index].contains(label) {
            return Err(JobError::Shard(CompactionError::DuplicateBatchLabel {
                label: label.clone(),
            }));
        }
    }
    progress.lock().expect("progress poisoned").shards = labels
        .iter()
        .map(|label| ShardProgress { label: label.clone(), ..ShardProgress::default() })
        .collect();
    if cancelled.load(Ordering::SeqCst) {
        return Err(JobError::Cancelled);
    }

    let outcomes = pool::run_indexed(devices.len(), spec.shard_threads, cancelled, |index| {
        progress.lock().expect("progress poisoned").shards[index].started = true;
        let observer = Arc::new(ShardObserver { index, progress: Arc::clone(progress) });
        let batch = spec.batch().observer(observer);
        let outcome = devices[index].add_to(batch, &labels[index]).run();
        progress.lock().expect("progress poisoned").shards[index].finished = outcome.is_ok();
        outcome
    });

    if cancelled.load(Ordering::SeqCst) {
        return Err(JobError::Cancelled);
    }
    let mut runs = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            Some(Ok(shard)) => runs.extend(shard.runs),
            // Report the lowest-index failure, like `PipelineBatch::run`.
            Some(Err(error)) => return Err(JobError::Shard(error)),
            None => return Err(JobError::Cancelled),
        }
    }
    let aggregate = BatchAggregate::from_runs(&runs);
    Ok(BatchReport { runs, aggregate })
}
