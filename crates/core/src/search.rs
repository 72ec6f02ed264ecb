//! The compaction search: which kept sets a run examines and which
//! eliminations it accepts.
//!
//! The paper explores the defect-level/test-cost trade-off with one greedy
//! backward elimination (Figure 2), but the *search procedure* is
//! orthogonal to the evaluation machinery this crate has been optimising
//! (the per-run model cache, warm-started trainings and the worker
//! threads).  This module keeps the two apart:
//!
//! * the crate-private candidate evaluator owns the expensive part — it is
//!   the only thing that trains models.  Every kept set it evaluates goes
//!   through a per-run model cache and, when enabled, warm-starts from the
//!   cached model of an explicitly named *parent* kept set, so every
//!   strategy inherits the accelerators for free.  The warm-start source is
//!   always a committed frontier, never an artefact of speculative
//!   evaluation order, so results stay identical for any thread count.
//! * [`SearchStrategy`] names the loop that decides *which* kept sets to
//!   examine and which eliminations to accept against the error tolerance;
//!   the [`Compactor`](crate::Compactor) shell turns what it committed into
//!   a [`CompactionResult`](crate::CompactionResult).
//!
//! Three strategies exist, each kept because it ships the cheapest tester
//! on some measured workload:
//!
//! * [`SearchStrategy::Greedy`] — the paper's Figure 2 loop, byte-identical
//!   to the pre-0.5 hard-coded implementation (pinned by the property
//!   tests),
//! * [`SearchStrategy::CostAware`] — accepts the elimination maximising
//!   [`TestCostModel`] saving per unit prediction error instead of raw spec
//!   count, so expensive insertions are dismantled first (strictly cheaper
//!   than greedy on the op-amp under a per-insertion cost model),
//! * [`SearchStrategy::Annealing`] — seeded single-flip annealing over kept
//!   sets, escaping greedy local minima (on the accelerometer it drops both
//!   the hot and the cold insertion, which greedy cannot).
//!
//! Every strategy runs to completion, as the paper's loop does: greedy
//! stops when no remaining candidate meets the tolerance, and annealing
//! when its schedule ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::classifier::{BankStats, Classifier, ClassifierFactory};
use crate::compaction::{CompactionConfig, CompactionStep, ModelCacheStats, WarmStartStats};
use crate::costmodel::TestCostModel;
use crate::dataset::MeasurementSet;
use crate::guardband::{
    fails_kept_range, GuardBandConfig, GuardBandedClassifier, Prediction, Side,
};
use crate::metrics::{evaluate_population, ErrorBreakdown};
use crate::pool;
use crate::{CompactionError, Result};

/// One model training, as reported to a [`ProgressObserver`].
///
/// Counters are cumulative over the run (this training included), so an
/// observer can render the effort spent without keeping its own tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainingEvent {
    /// Model trainings started so far this run.
    pub trainings: usize,
    /// Solver iterations consumed so far this run.
    pub solver_iterations: usize,
    /// Whether this training was warm-started from a cached parent model.
    pub warm: bool,
}

/// A frontier a strategy committed, as reported to a [`ProgressObserver`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierSnapshot {
    /// Indices of the eliminated specifications, in elimination order.
    pub eliminated: Vec<usize>,
    /// Held-out prediction error of the frontier's kept-set model, when the
    /// run has one cached (`None` for the complete suite, whose error is
    /// zero by construction).
    pub prediction_error: Option<f64>,
}

/// Streaming progress events of one compaction search.
///
/// Attach an observer through [`CompactionPipeline::observer`](
/// crate::CompactionPipeline::observer) (or
/// [`PipelineBatch::observer`](crate::batch::PipelineBatch::observer)) to
/// watch a search as it runs: one [`TrainingEvent`] per model training, and
/// one [`FrontierSnapshot`] per frontier a strategy commits — the
/// "best answer so far" stream a service can publish while a job runs.
///
/// Contract:
///
/// * callbacks fire on the thread that drives the search and **block the
///   search**; implementations must be cheap and non-blocking (copy the
///   event into a channel or an atomic cell and return),
/// * callbacks must not panic — a panic unwinds into the search and aborts
///   the run,
/// * with speculative evaluation threads, [`ProgressObserver::on_training`]
///   events may include discarded speculative trainings;
///   [`ProgressObserver::on_frontier`] snapshots are always committed
///   frontiers in commit order,
/// * an unset observer costs one `Option` check per event — the seam is
///   free when unused.
///
/// Both methods default to no-ops, so implementations override only what
/// they consume.
pub trait ProgressObserver: Send + Sync + std::fmt::Debug {
    /// One model training completed (cache hits do not report).
    fn on_training(&self, event: &TrainingEvent) {
        let _ = event;
    }

    /// A strategy committed a new frontier (its best-so-far answer).
    fn on_frontier(&self, snapshot: &FrontierSnapshot) {
        let _ = snapshot;
    }
}

/// A cached trained model together with its held-out error breakdown.
pub(crate) type CachedModel = Arc<(GuardBandedClassifier, ErrorBreakdown)>;

/// The held-out devices a kept set's two models are scored on, computed
/// once per kept set and shared by its strict and its loose job.
#[derive(Debug)]
struct HeldOut {
    /// Held-out devices that pass every kept range.  The others are bad
    /// whatever the models say.
    rows: Vec<usize>,
    /// The normalised kept features of those devices, one row after the
    /// other.
    features: Vec<f64>,
    /// Features per row: the size of the kept set.
    dimension: usize,
}

impl HeldOut {
    fn new(testing: &MeasurementSet, kept: &[usize]) -> Self {
        let rows: Vec<usize> =
            (0..testing.len()).filter(|&i| !fails_kept_range(testing, kept, i)).collect();
        let mut features = Vec::with_capacity(rows.len() * kept.len());
        for &i in &rows {
            features.extend(testing.features(i, kept));
        }
        HeldOut { rows, features, dimension: kept.len() }
    }

    /// One model's "passes" decision for every row.
    fn decide(&self, model: &dyn Classifier) -> Vec<bool> {
        self.features.chunks_exact(self.dimension).map(|row| model.predict_good(row)).collect()
    }

    /// The breakdown on `testing` of the pair whose sides decided `strict`
    /// and `loose` on the rows: the same figures as
    /// [`GuardBandedClassifier::evaluate`].
    fn breakdown(
        &self,
        testing: &MeasurementSet,
        strict: &[bool],
        loose: &[bool],
    ) -> ErrorBreakdown {
        let mut predictions = vec![Prediction::Bad; testing.len()];
        for ((&i, &strict_good), &loose_good) in self.rows.iter().zip(strict).zip(loose) {
            predictions[i] = Prediction::of_pair(strict_good, loose_good);
        }
        evaluate_population(testing, |_, i| predictions[i])
    }
}

/// One trained side of a pair and its decisions on the kept set's
/// [`HeldOut`] rows.
struct SideFit {
    model: Arc<dyn Classifier>,
    good: Vec<bool>,
}

/// Per-run cache of guard-banded models keyed by canonicalised kept set.
///
/// Training is deterministic for a fixed kept set, training population and
/// guard-band configuration, so reusing a cached model is byte-identical to
/// retraining it — the cache changes wall-clock time, never results.
///
/// Memory: at most one model pair per *distinct* evaluated kept set is
/// retained for the duration of the run.  For the greedy loop that is
/// bounded by the examined-candidate count; the annealing walk revisits
/// kept sets, which is exactly where the cache pays off.
#[derive(Debug, Default)]
struct ModelCache {
    models: Mutex<HashMap<Vec<usize>, CachedModel>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ModelCache {
    /// Canonical cache key: the kept set in ascending order.
    fn key(kept: &[usize]) -> Vec<usize> {
        let mut sorted = kept.to_vec();
        sorted.sort_unstable();
        sorted
    }

    fn lookup(&self, kept: &[usize]) -> Option<CachedModel> {
        let found = self.peek(kept);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// [`ModelCache::lookup`] without touching the hit/miss counters — used
    /// to fetch warm-start sources, which are an accelerator rather than a
    /// kept-set request and must not distort the cache diagnostics.
    fn peek(&self, kept: &[usize]) -> Option<CachedModel> {
        self.models.lock().expect("model cache poisoned").get(&Self::key(kept)).cloned()
    }

    fn insert(&self, kept: &[usize], entry: CachedModel) {
        self.models.lock().expect("model cache poisoned").insert(Self::key(kept), entry);
    }

    fn stats(&self) -> ModelCacheStats {
        ModelCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Thread-safe accumulator behind [`WarmStartStats`].
#[derive(Debug, Default)]
struct WarmStartTracker {
    warm_trainings: AtomicUsize,
    cold_trainings: AtomicUsize,
    warm_iterations: AtomicUsize,
    cold_iterations: AtomicUsize,
    seeded_rows: AtomicUsize,
    rebuilt_rows: AtomicUsize,
    ignored_banks: AtomicUsize,
}

impl WarmStartTracker {
    /// Records one successful training: whether a warm-start hint was
    /// offered, the solver iterations the trained pair reports, and its
    /// kernel row-bank diagnostics (when the backend reports them).
    fn record(&self, warmed: bool, iterations: Option<usize>, bank: Option<BankStats>) {
        let (trainings, iteration_sum) = if warmed {
            (&self.warm_trainings, &self.warm_iterations)
        } else {
            (&self.cold_trainings, &self.cold_iterations)
        };
        trainings.fetch_add(1, Ordering::Relaxed);
        iteration_sum.fetch_add(iterations.unwrap_or(0), Ordering::Relaxed);
        if let Some(bank) = bank {
            self.seeded_rows.fetch_add(bank.seeded_rows, Ordering::Relaxed);
            self.rebuilt_rows.fetch_add(bank.rebuilt_rows, Ordering::Relaxed);
            self.ignored_banks.fetch_add(bank.ignored_banks, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> WarmStartStats {
        WarmStartStats {
            warm_trainings: self.warm_trainings.load(Ordering::Relaxed),
            cold_trainings: self.cold_trainings.load(Ordering::Relaxed),
            warm_iterations: self.warm_iterations.load(Ordering::Relaxed),
            cold_iterations: self.cold_iterations.load(Ordering::Relaxed),
            bank: BankStats {
                seeded_rows: self.seeded_rows.load(Ordering::Relaxed),
                rebuilt_rows: self.rebuilt_rows.load(Ordering::Relaxed),
                ignored_banks: self.ignored_banks.load(Ordering::Relaxed),
            },
        }
    }
}

/// What one candidate evaluation produced.
#[derive(Debug, Clone)]
pub(crate) enum Verdict {
    /// Removing the candidate would leave no test at all: the elimination is
    /// categorically impossible (only produced by
    /// [`CandidateEvaluator::evaluate_removals`]).
    LastTest,
    /// A model was trained (or reused from the cache) and scored on the
    /// held-out population.
    Scored(ErrorBreakdown),
    /// The backend could not build a model for this kept set (for example a
    /// single-class training population); strategies treat the candidate as
    /// "cannot eliminate" rather than aborting.
    Untrainable,
}

/// The evaluation engine strategies drive: the only component of a
/// compaction run that trains models.
///
/// The evaluator owns the per-run model cache, the warm-start bookkeeping
/// and the worker threads.  Strategies name kept sets (directly or as
/// removals/additions against a committed frontier) and receive held-out
/// [`ErrorBreakdown`]s; every evaluation of a kept set this run has already
/// trained is served from the cache, and cache-missing trainings are
/// warm-started from the cached model of the *parent* kept set the strategy
/// names.
///
/// The unit of parallel work is one model, not one kept set: a cache miss
/// becomes two pool jobs, its strict and its loose model, each warm-started
/// from the same side of the parent's pair and scored on the held-out
/// devices that pass the kept ranges.  So a single evaluation keeps two
/// threads busy, and a batch of `n` kept sets offers `2n` jobs to the
/// [`CompactionConfig::threads`] workers.  Because the parent is always a
/// committed frontier — never a function of speculative evaluation order —
/// the trained models, and with them the search outcome, are identical for
/// any thread count.
#[derive(Debug)]
pub(crate) struct CandidateEvaluator<'a> {
    training: &'a MeasurementSet,
    testing: &'a MeasurementSet,
    backend: &'a dyn ClassifierFactory,
    guard_band: GuardBandConfig,
    threads: usize,
    warm_start: bool,
    cache: ModelCache,
    tracker: WarmStartTracker,
    observer: Option<Arc<dyn ProgressObserver>>,
}

impl<'a> CandidateEvaluator<'a> {
    /// Attaches (or clears) the progress observer subsequent evaluations
    /// report to (see [`ProgressObserver`] for the callback contract).
    pub(crate) fn set_observer(&mut self, observer: Option<Arc<dyn ProgressObserver>>) {
        self.observer = observer;
    }

    /// An evaluator configured from a [`CompactionConfig`].
    pub(crate) fn new(
        training: &'a MeasurementSet,
        testing: &'a MeasurementSet,
        backend: &'a dyn ClassifierFactory,
        config: &CompactionConfig,
    ) -> Self {
        CandidateEvaluator {
            training,
            testing,
            backend,
            guard_band: config.guard_band,
            threads: config.threads.max(1),
            warm_start: config.warm_start,
            cache: ModelCache::default(),
            tracker: WarmStartTracker::default(),
            observer: None,
        }
    }

    /// Number of specifications in the populations.
    fn spec_count(&self) -> usize {
        self.training.specs().len()
    }

    /// A [`CompactionStep`] log entry for an examined candidate.
    fn step(
        &self,
        candidate: usize,
        eliminated: bool,
        breakdown: ErrorBreakdown,
    ) -> CompactionStep {
        CompactionStep {
            spec_index: candidate,
            spec_name: self.training.specs().spec(candidate).name().to_string(),
            eliminated,
            breakdown,
        }
    }

    /// How many candidates one speculative batch holds: every candidate
    /// trains as two pool jobs (its strict and its loose model), so
    /// ⌈threads / 2⌉ candidates keep every worker busy.
    fn candidates_per_batch(&self) -> usize {
        self.threads.div_ceil(2)
    }

    /// Evaluates one kept set through [`CandidateEvaluator::evaluate_sets`].
    fn evaluate_cached(
        &self,
        kept: &[usize],
        warm_parent: Option<&[usize]>,
    ) -> Result<CachedModel> {
        self.evaluate_sets(&[kept], warm_parent).pop().expect("one outcome per kept set")
    }

    /// Evaluates kept sets through the cache and returns one outcome per
    /// set, in order.
    ///
    /// Every miss becomes two pool jobs, its strict and its loose model.
    /// Each job warm-starts from the same side of `warm_parent`'s cached
    /// model (when warm starts are enabled and the parent was evaluated
    /// earlier in this run) and then decides the held-out devices that pass
    /// the kept ranges; those devices and their kept features are computed
    /// once per set and shared by its two jobs.  A set whose strict side
    /// fails reports the strict side's error, whatever the loose side did.
    fn evaluate_sets(
        &self,
        sets: &[&[usize]],
        warm_parent: Option<&[usize]>,
    ) -> Vec<Result<CachedModel>> {
        /// What one set needs after the cache lookup.
        enum Plan {
            Done(Result<CachedModel>),
            Train(HeldOut),
        }
        let plans: Vec<Plan> = sets
            .iter()
            .map(|kept| {
                if let Some(entry) = self.cache.lookup(kept) {
                    return Plan::Done(Ok(entry));
                }
                match GuardBandedClassifier::check_training(self.training, kept, &self.guard_band) {
                    Ok(()) => Plan::Train(HeldOut::new(self.testing, kept)),
                    Err(error) => Plan::Done(Err(error)),
                }
            })
            .collect();
        let warm_entry = match warm_parent {
            Some(parent) if self.warm_start => self.cache.peek(parent),
            _ => None,
        };
        let warm = warm_entry.as_ref().map(|entry| &entry.0);
        let jobs: Vec<(&[usize], &HeldOut, Side)> = sets
            .iter()
            .zip(&plans)
            .filter_map(|(kept, plan)| match plan {
                Plan::Train(held_out) => Some((*kept, held_out)),
                Plan::Done(_) => None,
            })
            .flat_map(|(kept, held_out)| Side::BOTH.map(|side| (kept, held_out, side)))
            .collect();
        let fits: Vec<Result<SideFit>> =
            pool::run_indexed(jobs.len(), self.threads, &AtomicBool::new(false), |job| {
                let (kept, held_out, side) = jobs[job];
                let model = GuardBandedClassifier::train_side(
                    self.backend,
                    self.training,
                    kept,
                    &self.guard_band,
                    side,
                    warm,
                )?;
                Ok(SideFit { good: held_out.decide(model.as_ref()), model })
            })
            .into_iter()
            // Nothing sets the stop flag, so every job has an outcome.
            .flatten()
            .collect();
        let mut strict_job = 0;
        plans
            .into_iter()
            .zip(sets)
            .map(|(plan, kept)| {
                let held_out = match plan {
                    Plan::Done(outcome) => return outcome,
                    Plan::Train(held_out) => held_out,
                };
                let pair = &fits[strict_job..strict_job + 2];
                strict_job += 2;
                let strict = pair[0].as_ref().map_err(Clone::clone)?;
                let loose = pair[1].as_ref().map_err(Clone::clone)?;
                let breakdown = held_out.breakdown(self.testing, &strict.good, &loose.good);
                let classifier = GuardBandedClassifier::from_sides(
                    self.backend,
                    kept,
                    &self.guard_band,
                    Arc::clone(&strict.model),
                    Arc::clone(&loose.model),
                );
                self.record_training(&classifier, warm.is_some());
                let entry = Arc::new((classifier, breakdown));
                self.cache.insert(kept, Arc::clone(&entry));
                Ok(entry)
            })
            .collect()
    }

    /// Counts one trained pair in the diagnostics and reports it to the
    /// observer: the trainings so far are the cache misses, each of which
    /// started one.
    fn record_training(&self, classifier: &GuardBandedClassifier, warm: bool) {
        self.tracker.record(warm, classifier.solver_iterations(), classifier.bank_stats());
        if let Some(observer) = &self.observer {
            observer.on_training(&TrainingEvent {
                trainings: self.cache.misses.load(Ordering::Relaxed),
                solver_iterations: self.tracker.stats().total_iterations(),
                warm,
            });
        }
    }

    /// Trains (or reuses) the model of an explicit kept set and returns its
    /// held-out error breakdown, propagating training failures.
    ///
    /// `warm_parent` names the kept set whose cached model may seed the
    /// training (typically the committed frontier the kept set descends
    /// from); pass `None` for a cold start.
    ///
    /// # Errors
    ///
    /// Propagates backend training failures and data errors.
    pub(crate) fn evaluate(
        &self,
        kept: &[usize],
        warm_parent: Option<&[usize]>,
    ) -> Result<ErrorBreakdown> {
        Ok(self.evaluate_cached(kept, warm_parent)?.1)
    }

    /// [`CandidateEvaluator::evaluate`], treating "the backend cannot build
    /// a model for this kept set" as `Ok(None)` instead of an error — the
    /// per-candidate rule every strategy follows.
    ///
    /// # Errors
    ///
    /// Propagates configuration and data errors other than
    /// [`CompactionError::Classifier`] /
    /// [`CompactionError::InsufficientData`].
    fn try_evaluate(
        &self,
        kept: &[usize],
        warm_parent: Option<&[usize]>,
    ) -> Result<Option<ErrorBreakdown>> {
        match self.evaluate_cached(kept, warm_parent) {
            Ok(entry) => Ok(Some(entry.1)),
            Err(CompactionError::Classifier { .. })
            | Err(CompactionError::InsufficientData { .. }) => Ok(None),
            Err(other) => Err(other),
        }
    }

    /// Reports a committed frontier to the attached [`ProgressObserver`]
    /// (free when none is attached).  The snapshot's prediction error is
    /// looked up from the run's model cache, so strategies only name the
    /// eliminated set.  Every strategy calls this at its commit points.
    fn notify_frontier(&self, eliminated: &[usize]) {
        let Some(observer) = &self.observer else { return };
        let kept = self.kept_without(eliminated, None);
        let prediction_error = self.cache.peek(&kept).map(|entry| entry.1.prediction_error());
        observer
            .on_frontier(&FrontierSnapshot { eliminated: eliminated.to_vec(), prediction_error });
    }

    /// The kept set implied by an eliminated set, minus an optional extra
    /// candidate, in ascending specification order.
    fn kept_without(&self, eliminated: &[usize], candidate: Option<usize>) -> Vec<usize> {
        (0..self.spec_count())
            .filter(|c| !eliminated.contains(c) && Some(*c) != candidate)
            .collect()
    }

    /// Evaluates removing each candidate from the frontier committed by
    /// `eliminated`, in parallel when the evaluator has worker threads.
    ///
    /// Each candidate missing from the cache trains as two jobs, its strict
    /// and its loose model, and all the batch's jobs share the worker
    /// threads, so `n` candidates keep up to `2n` threads busy.  Every
    /// training is warm-started from the same side of the cached model of
    /// the shared *parent* kept set (the frontier itself — the maximal
    /// overlap this run can have trained), so verdicts are identical for
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Propagates configuration and data errors; per-candidate training
    /// failures surface as [`Verdict::Untrainable`].
    fn evaluate_removals(
        &self,
        eliminated: &[usize],
        candidates: &[usize],
    ) -> Result<Vec<Verdict>> {
        let parent = self.kept_without(eliminated, None);
        let kept_sets: Vec<Option<Vec<usize>>> = candidates
            .iter()
            .map(|&candidate| {
                let kept = self.kept_without(eliminated, Some(candidate));
                // Never eliminate the last remaining test.
                (!kept.is_empty()).then_some(kept)
            })
            .collect();
        self.evaluate_candidate_sets(&kept_sets, &parent)
    }

    /// The batch core behind [`CandidateEvaluator::evaluate_removals`]: a
    /// deduplication pass on the caller's thread, then the evaluations over
    /// the worker pool.  `None` entries stand for "the removal would leave
    /// no test" and report [`Verdict::LastTest`].  Duplicates of
    /// the same kept set (ascending, as [`CandidateEvaluator::kept_without`]
    /// builds them) collapse onto their first occurrence: one training, one
    /// shared verdict.
    fn evaluate_candidate_sets(
        &self,
        kept_sets: &[Option<Vec<usize>>],
        warm_parent: &[usize],
    ) -> Result<Vec<Verdict>> {
        // Each candidate maps onto the first occurrence of its kept set
        // (`None` = the removal would leave no test).
        let mut unique: Vec<&[usize]> = Vec::new();
        let slots: Vec<Option<usize>> = kept_sets
            .iter()
            .map(|candidate| {
                let kept = candidate.as_deref()?;
                Some(match unique.iter().position(|seen| *seen == kept) {
                    Some(found) => found,
                    None => {
                        unique.push(kept);
                        unique.len() - 1
                    }
                })
            })
            .collect();
        let verdicts = self
            .evaluate_sets(&unique, Some(warm_parent))
            .into_iter()
            .map(|outcome| match outcome {
                Ok(entry) => Ok(Verdict::Scored(entry.1)),
                Err(CompactionError::Classifier { .. })
                | Err(CompactionError::InsufficientData { .. }) => Ok(Verdict::Untrainable),
                Err(other) => Err(other),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(slots
            .into_iter()
            .map(|slot| match slot {
                None => Verdict::LastTest,
                Some(index) => verdicts[index].clone(),
            })
            .collect())
    }

    /// The deploy-stage model of the final kept set.  Every strategy
    /// evaluated the final kept set when it accepted its last elimination,
    /// so this is a guaranteed cache hit.
    pub(crate) fn final_entry(&self, kept: &[usize]) -> Result<CachedModel> {
        self.evaluate_cached(kept, None)
    }

    /// Model-cache hit/miss counters accumulated so far.
    pub(crate) fn cache_stats(&self) -> ModelCacheStats {
        self.cache.stats()
    }

    /// Warm-start diagnostics accumulated so far.
    pub(crate) fn warm_start_stats(&self) -> WarmStartStats {
        self.tracker.stats()
    }
}

/// The search procedure of a compaction run: the paper's greedy backward
/// elimination (the default) or one of the two alternatives that each ship
/// a cheaper tester on a measured workload.
///
/// Every strategy proposes kept sets through the run's candidate evaluator,
/// which owns all model training, caching and warm starts, and accepts an
/// elimination only when the held-out prediction error of the model
/// trained without it meets the tolerance (`e_T` in the paper).  Each one
/// draws its candidates from the validated elimination order, eliminates a
/// test at most once and never eliminates the last one.  A strategy
/// encodes as its variant name (`"Greedy"`, `"CostAware"` or
/// `{"Annealing":{"seed":…,"schedule":…}}`); an annealing document without
/// a schedule runs the default one.
///
/// ```
/// use stc_core::classifier::GridBackend;
/// use stc_core::{
///     generate_train_test, CompactionConfig, Compactor, MonteCarloConfig, SearchStrategy,
///     SyntheticDevice,
/// };
///
/// # fn main() -> Result<(), stc_core::CompactionError> {
/// let device = SyntheticDevice::new(4, 1.8, 0.9);
/// let (train, test) =
///     generate_train_test(&device, &MonteCarloConfig::new(200).with_seed(1), 100)?;
/// let compactor = Compactor::new(train, test)?;
/// let config = CompactionConfig::paper_default().with_tolerance(0.1);
/// let annealing = SearchStrategy::Annealing { seed: 3, schedule: Default::default() };
/// let result =
///     compactor.compact_with_strategy(&GridBackend::default(), &config, annealing, None)?;
/// assert_eq!(result.kept.len() + result.eliminated.len(), 4);
/// assert_eq!(annealing.name(), "simulated-annealing");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// The paper's greedy backward elimination (Figure 2), byte-identical
    /// to the pre-0.5 hard-coded loop for any thread count.
    ///
    /// Every candidate (in the configured order) is tentatively removed;
    /// the removal becomes permanent when the held-out prediction error of
    /// the model trained without it stays at or below the tolerance.  Each
    /// candidate trains as two jobs (its strict and its loose model), so
    /// with `threads` workers the next ⌈threads / 2⌉ candidates are
    /// evaluated speculatively against the same frontier and their
    /// verdicts committed in order; evaluations invalidated by an earlier
    /// acceptance are discarded.  At two threads that means both threads
    /// train the one candidate whose verdict comes next, and nothing is
    /// speculated.  The steps log every examined candidate.
    #[default]
    Greedy,
    /// Cost-aware greedy backward elimination: each round evaluates
    /// removing *every* remaining candidate and accepts the one maximising
    /// [`TestCostModel`] saving per unit prediction error (instead of the
    /// first acceptable candidate in order), until no candidate passes the
    /// tolerance.
    ///
    /// With an insertion-heavy cost model this dismantles expensive setup
    /// groups (for example the thermal soaks of the accelerometer's hot and
    /// cold insertions) before spending tolerance on cheap tests, which
    /// regularly yields a strictly cheaper kept set than count-greedy
    /// elimination.  Under the default uniform cost model every saving is
    /// identical, so the strategy degenerates to lowest-error-first
    /// backward elimination.  The steps log one entry per accepted
    /// elimination.
    CostAware,
    /// Seeded simulated annealing over kept sets: a single-flip random walk
    /// through the elimination lattice with Boltzmann acceptance.
    ///
    /// Each proposal flips one random candidate of the examination order —
    /// eliminating a kept test or restoring an eliminated one — and
    /// evaluates the resulting kept set (warm-started from the current
    /// state's cached model).  Proposals whose model misses the tolerance
    /// (or cannot be trained) are rejected outright; feasible proposals are
    /// accepted when they lower the [`TestCostModel`] cost of the kept set,
    /// or with probability `exp(-Δcost / T)` otherwise, and `T` cools
    /// geometrically.  The best feasible state ever visited is returned.
    ///
    /// The walk is fully deterministic for a fixed `seed`, *and*
    /// thread-count invariant: it evaluates exactly one kept set per
    /// proposal and draws every random number on the search thread, so the
    /// worker pool never influences the trajectory.  The steps log one
    /// entry per accepted move (`eliminated` reflects the flip direction).
    Annealing {
        /// RNG seed driving proposal selection and acceptance draws.
        seed: u64,
        /// Cooling schedule of the walk (the default one when a document
        /// omits it).
        #[serde(default)]
        schedule: AnnealingSchedule,
    },
}

impl SearchStrategy {
    /// Short strategy name used in reports: `"greedy-backward"`,
    /// `"cost-aware-greedy"` or `"simulated-annealing"`.
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Greedy => "greedy-backward",
            SearchStrategy::CostAware => "cost-aware-greedy",
            SearchStrategy::Annealing { .. } => "simulated-annealing",
        }
    }

    /// The strategy itself: the benchmark harness under `perfbench/` still
    /// builds each job's strategy from its spec this way.
    #[doc(hidden)]
    pub fn build(&self) -> SearchStrategy {
        *self
    }

    /// Runs the search and returns the committed eliminations, in
    /// elimination order, with the examination log.  `order` is the
    /// validated elimination order.
    ///
    /// # Errors
    ///
    /// Propagates configuration and data errors from the evaluator and
    /// rejects an invalid annealing schedule; a candidate the backend
    /// cannot train is one that cannot be eliminated.
    pub(crate) fn search(
        &self,
        eval: &CandidateEvaluator<'_>,
        order: &[usize],
        config: &CompactionConfig,
        cost_model: &TestCostModel,
    ) -> Result<(Vec<usize>, Vec<CompactionStep>)> {
        let ctx = Inputs {
            order,
            tolerance: config.error_tolerance,
            max_eliminated: config.max_eliminated,
            cost_model,
        };
        match *self {
            SearchStrategy::Greedy => greedy_backward(eval, &ctx),
            SearchStrategy::CostAware => cost_aware_greedy(eval, &ctx),
            SearchStrategy::Annealing { seed, schedule } => {
                simulated_annealing(eval, &ctx, seed, &schedule)
            }
        }
    }
}

/// Immutable inputs of one search.
struct Inputs<'a> {
    /// The examination order: which specifications may be eliminated, and
    /// in which preference order.  It references only existing
    /// specifications, each at most once
    /// ([`EliminationOrder::resolve_validated`](
    /// crate::EliminationOrder::resolve_validated)); specifications absent
    /// from it are kept unconditionally.
    order: &'a [usize],
    /// Error tolerance an accepted frontier must meet (`e_T` in the paper).
    tolerance: f64,
    /// Optional cap on how many tests may be eliminated.
    max_eliminated: Option<usize>,
    /// The run's test-cost model (uniform unit costs unless the caller
    /// attached one).
    cost_model: &'a TestCostModel,
}

impl Inputs<'_> {
    /// Whether a frontier with `eliminated_len` eliminations may still grow.
    fn within_budget(&self, eliminated_len: usize) -> bool {
        self.max_eliminated.is_none_or(|max| eliminated_len < max)
    }
}

/// The loop of [`SearchStrategy::Greedy`].
fn greedy_backward(
    eval: &CandidateEvaluator<'_>,
    ctx: &Inputs<'_>,
) -> Result<(Vec<usize>, Vec<CompactionStep>)> {
    let order = ctx.order;
    let width = eval.candidates_per_batch();
    let mut eliminated: Vec<usize> = Vec::new();
    let mut steps = Vec::new();
    let mut index = 0;
    'outer: while index < order.len() {
        if !ctx.within_budget(eliminated.len()) {
            break;
        }
        // The next batch of examinations: up to `width` order positions
        // whose candidates are not yet eliminated, all speculatively
        // assuming the current eliminated set.
        let mut batch: Vec<usize> = Vec::new();
        let mut scan = index;
        while scan < order.len() && batch.len() < width {
            if !eliminated.contains(&order[scan]) {
                batch.push(scan);
            }
            scan += 1;
        }
        if batch.is_empty() {
            break;
        }
        let candidates: Vec<usize> = batch.iter().map(|&position| order[position]).collect();
        let verdicts = eval.evaluate_removals(&eliminated, &candidates)?;

        // Commit verdicts in examination order; an acceptance invalidates
        // the later speculative evaluations, which are simply discarded.
        let mut accepted = false;
        for (&position, verdict) in batch.iter().zip(verdicts) {
            let candidate = order[position];
            index = position + 1;
            match verdict {
                Verdict::LastTest => break 'outer,
                Verdict::Scored(breakdown) => {
                    let eliminate = breakdown.prediction_error() <= ctx.tolerance;
                    if eliminate {
                        eliminated.push(candidate);
                        eval.notify_frontier(&eliminated);
                    }
                    steps.push(eval.step(candidate, eliminate, breakdown));
                    if eliminate {
                        accepted = true;
                        break;
                    }
                }
                Verdict::Untrainable => {
                    // Model could not be built without this test: keep it.
                    steps.push(eval.step(candidate, false, ErrorBreakdown::default()));
                }
            }
        }
        if !accepted {
            index = index.max(scan);
        }
    }
    Ok((eliminated, steps))
}

/// Guards the saving-per-error ratio against division by zero when a
/// candidate model makes no held-out errors at all.
const COST_ERROR_FLOOR: f64 = 1e-9;

/// The loop of [`SearchStrategy::CostAware`].
fn cost_aware_greedy(
    eval: &CandidateEvaluator<'_>,
    ctx: &Inputs<'_>,
) -> Result<(Vec<usize>, Vec<CompactionStep>)> {
    let pool = ctx.order;
    let cost_model = ctx.cost_model;
    let mut eliminated: Vec<usize> = Vec::new();
    let mut steps: Vec<CompactionStep> = Vec::new();
    loop {
        if !ctx.within_budget(eliminated.len()) {
            break;
        }
        let remaining: Vec<usize> =
            pool.iter().copied().filter(|c| !eliminated.contains(c)).collect();
        if remaining.is_empty() {
            break;
        }
        let kept_now = eval.kept_without(&eliminated, None);
        let current_cost = cost_model.cost_of(&kept_now)?;
        let verdicts = eval.evaluate_removals(&eliminated, &remaining)?;
        // The acceptable candidate with the best saving-per-error ratio;
        // ties fall to the higher absolute saving, then to examination
        // order (the iteration order below).
        let mut best: Option<(f64, f64, usize, ErrorBreakdown)> = None;
        for (&candidate, verdict) in remaining.iter().zip(verdicts) {
            let Verdict::Scored(breakdown) = verdict else { continue };
            let error = breakdown.prediction_error();
            if error > ctx.tolerance {
                continue;
            }
            let kept_without: Vec<usize> =
                kept_now.iter().copied().filter(|&c| c != candidate).collect();
            if kept_without.is_empty() {
                // Never eliminate the last remaining test.
                continue;
            }
            let saving = current_cost - cost_model.cost_of(&kept_without)?;
            let score = saving / (error + COST_ERROR_FLOOR);
            let better = match &best {
                None => true,
                Some((incumbent_score, incumbent_saving, _, _)) => {
                    score > *incumbent_score
                        || (score == *incumbent_score && saving > *incumbent_saving)
                }
            };
            if better {
                best = Some((score, saving, candidate, breakdown));
            }
        }
        let Some((_, _, candidate, breakdown)) = best else { break };
        eliminated.push(candidate);
        eval.notify_frontier(&eliminated);
        steps.push(eval.step(candidate, true, breakdown));
    }
    Ok((eliminated, steps))
}

/// Cooling schedule of a [`SearchStrategy::Annealing`] search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealingSchedule {
    /// Starting temperature of the Boltzmann acceptance rule (must be
    /// finite and non-negative; `0` degenerates to stochastic hill
    /// climbing).
    pub initial_temperature: f64,
    /// Geometric cooling factor applied after every proposal (must be in
    /// `(0, 1]`).
    pub cooling: f64,
    /// Number of single-flip proposals to examine.
    pub steps: usize,
}

impl Default for AnnealingSchedule {
    fn default() -> Self {
        AnnealingSchedule { initial_temperature: 1.0, cooling: 0.95, steps: 200 }
    }
}

impl AnnealingSchedule {
    fn validate(&self) -> Result<()> {
        if !self.initial_temperature.is_finite() || self.initial_temperature < 0.0 {
            return Err(CompactionError::InvalidConfig {
                parameter: "annealing_initial_temperature",
                value: self.initial_temperature,
            });
        }
        if !(self.cooling > 0.0 && self.cooling <= 1.0) {
            return Err(CompactionError::InvalidConfig {
                parameter: "annealing_cooling",
                value: self.cooling,
            });
        }
        Ok(())
    }
}

/// The walk of [`SearchStrategy::Annealing`].
fn simulated_annealing(
    eval: &CandidateEvaluator<'_>,
    ctx: &Inputs<'_>,
    seed: u64,
    schedule: &AnnealingSchedule,
) -> Result<(Vec<usize>, Vec<CompactionStep>)> {
    schedule.validate()?;
    let pool = ctx.order;
    if pool.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    let cost_model = ctx.cost_model;
    let mut rng = StdRng::seed_from_u64(seed);
    // The walk starts at the complete suite: trivially feasible (zero
    // prediction error by construction) at the full test cost.
    let mut current: Vec<usize> = Vec::new();
    let mut current_cost = cost_model.full_cost();
    let mut best: Vec<usize> = current.clone();
    let mut best_cost = current_cost;
    let mut steps: Vec<CompactionStep> = Vec::new();
    let mut temperature = schedule.initial_temperature;
    for step in 0..schedule.steps {
        // Cool after every proposal: the first one sees the initial
        // temperature (rejected and skipped proposals cool too).
        if step > 0 {
            temperature *= schedule.cooling;
        }
        let flip = pool[rng.gen_range(0..pool.len())];
        let restoring = current.contains(&flip);
        if !restoring && !ctx.within_budget(current.len()) {
            // The elimination cap is reached: only restores may move.
            continue;
        }
        let proposal: Vec<usize> = if restoring {
            current.iter().copied().filter(|&c| c != flip).collect()
        } else {
            let mut grown = current.clone();
            grown.push(flip);
            grown
        };
        let kept = eval.kept_without(&proposal, None);
        if kept.is_empty() {
            // Never eliminate the last remaining test.
            continue;
        }
        // Warm-start from the current state's cached model (the initial
        // complete suite has none, which simply falls back to cold).
        let parent = eval.kept_without(&current, None);
        let Some(breakdown) = eval.try_evaluate(&kept, Some(&parent))? else {
            // Untrainable proposal: reject and walk on.
            continue;
        };
        if breakdown.prediction_error() > ctx.tolerance {
            continue;
        }
        let proposal_cost = cost_model.cost_of(&kept)?;
        let delta = proposal_cost - current_cost;
        let accept = delta < 0.0 || {
            let heat = temperature.max(f64::MIN_POSITIVE);
            rng.gen::<f64>() < (-delta / heat).exp()
        };
        if !accept {
            continue;
        }
        steps.push(eval.step(flip, !restoring, breakdown));
        current = proposal;
        current_cost = proposal_cost;
        if current_cost < best_cost || (current_cost == best_cost && current.len() > best.len()) {
            best = current.clone();
            best_cost = current_cost;
            eval.notify_frontier(&best);
        }
    }
    Ok((best, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::GridBackend;
    use crate::device::SyntheticDevice;
    use crate::montecarlo::{generate_train_test, MonteCarloConfig};
    use crate::ordering::EliminationOrder;
    use crate::Compactor;

    fn grid() -> GridBackend {
        GridBackend::default()
    }

    fn annealing(seed: u64) -> SearchStrategy {
        SearchStrategy::Annealing { seed, schedule: AnnealingSchedule::default() }
    }

    /// Five specs where consecutive specs are strongly correlated: several
    /// of them are redundant by construction.
    fn redundant_population() -> Compactor {
        let device = SyntheticDevice::new(5, 1.8, 0.92);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(500).with_seed(31), 300).unwrap();
        Compactor::new(train, test).unwrap()
    }

    /// The acceptance fixture: with a cost model whose expensive
    /// test heads the examination order's survivors, count-greedy keeps an
    /// expensive test while the cost-aware strategy keeps a cheap one.
    #[test]
    fn cost_aware_greedy_finds_a_strictly_cheaper_kept_set_than_greedy() {
        let compactor = redundant_population();
        // Loose tolerance: any single kept test suffices on this population,
        // so the *choice* of survivor is entirely up to the strategy.
        let config = CompactionConfig::paper_default()
            .with_tolerance(0.4)
            .with_order(EliminationOrder::Functional(vec![0, 1, 2, 3, 4]));
        // Test 4 is two orders of magnitude more expensive than the rest.
        let cost =
            TestCostModel::new(vec![1.0, 1.0, 1.0, 1.0, 100.0], vec![0; 5], vec![0.0]).unwrap();
        let greedy = compactor
            .compact_with_strategy(&grid(), &config, SearchStrategy::Greedy, Some(&cost))
            .unwrap();
        let aware = compactor
            .compact_with_strategy(&grid(), &config, SearchStrategy::CostAware, Some(&cost))
            .unwrap();
        // Greedy eliminates in examination order and strands the expensive
        // test 4 as the survivor; the cost-aware strategy spends its budget
        // eliminating the expensive test first and survives on a cheap one.
        let greedy_cost = cost.cost_of(&greedy.kept).unwrap();
        let aware_cost = cost.cost_of(&aware.kept).unwrap();
        assert!(
            aware_cost < greedy_cost,
            "cost-aware kept {:?} (cost {aware_cost}) vs greedy kept {:?} (cost {greedy_cost})",
            aware.kept,
            greedy.kept
        );
        assert!(aware.final_breakdown.prediction_error() <= 0.4 + 1e-9);
        assert!(
            cost.cost_reduction(&aware.kept).unwrap() > cost.cost_reduction(&greedy.kept).unwrap()
        );
    }

    #[test]
    fn cost_aware_greedy_respects_budget_and_tolerance() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.3).with_max_eliminated(2);
        let result = compactor
            .compact_with_strategy(&grid(), &config, SearchStrategy::CostAware, None)
            .unwrap();
        assert!(result.eliminated.len() <= 2);
        assert!(result.final_breakdown.prediction_error() <= 0.3 + 1e-9);
        // Steps log exactly the accepted eliminations.
        assert_eq!(result.steps.len(), result.eliminated.len());
        assert!(result.steps.iter().all(|s| s.eliminated));
    }

    #[test]
    fn alternative_strategies_are_thread_count_invariant() {
        let compactor = redundant_population();
        let base = CompactionConfig::paper_default().with_tolerance(0.1);
        for strategy in [SearchStrategy::CostAware, annealing(7)] {
            let sequential =
                compactor.compact_with_strategy(&grid(), &base, strategy, None).unwrap();
            let threaded = compactor
                .compact_with_strategy(&grid(), &base.clone().with_threads(4), strategy, None)
                .unwrap();
            assert_eq!(sequential, threaded, "strategy {:?}", strategy);
        }
    }

    #[test]
    fn duplicate_kept_sets_in_a_batch_share_one_training() {
        let compactor = redundant_population();
        let backend = grid();
        let config = CompactionConfig::paper_default().with_tolerance(0.05).with_threads(4);
        let eval =
            CandidateEvaluator::new(compactor.training(), compactor.testing(), &backend, &config);
        // Removing the same candidate twice names the same kept set twice.
        let verdicts = eval.evaluate_removals(&[], &[3, 3]).unwrap();
        // The duplicate collapses onto the first occurrence: both score, and
        // one model pair is trained (cold: the complete suite was never
        // evaluated, so there is no parent to warm-start from).
        assert!(matches!(verdicts[0], Verdict::Scored(_)));
        assert!(matches!(verdicts[1], Verdict::Scored(_)));
        assert_eq!(eval.cache_stats(), ModelCacheStats { hits: 0, misses: 1 });
        let warm_start = eval.warm_start_stats();
        assert_eq!((warm_start.warm_trainings, warm_start.cold_trainings), (0, 1));
    }

    /// Two search threads train the one candidate whose verdict greedy
    /// needs, one model per thread, instead of speculating on a second
    /// candidate that an acceptance discards: on a run that eliminates
    /// several candidates in a row, two threads train exactly what one
    /// does.
    #[test]
    fn two_threads_train_no_candidate_that_one_thread_skips() {
        let compactor = redundant_population();
        let base = CompactionConfig::paper_default()
            .with_tolerance(0.3)
            .with_order(EliminationOrder::Functional(vec![0, 1, 2, 3, 4]));
        let sequential = compactor.compact_with(&grid(), &base).unwrap();
        let in_a_row =
            sequential.steps.windows(2).any(|pair| pair[0].eliminated && pair[1].eliminated);
        assert!(in_a_row, "steps {:?}", sequential.steps);
        let threaded = compactor.compact_with(&grid(), &base.clone().with_threads(2)).unwrap();
        assert_eq!(threaded, sequential);
        assert_eq!(threaded.cache.misses, sequential.cache.misses);
    }

    /// Wraps the grid backend and fails chosen sides of the pair for kept
    /// sets of one size: the strict side trains with a positive labelling
    /// margin and the loose side with a negative one.
    #[derive(Debug)]
    struct FailingSides {
        kept_len: usize,
        strict: Option<CompactionError>,
        loose: Option<CompactionError>,
    }

    impl ClassifierFactory for FailingSides {
        fn name(&self) -> &str {
            "failing-sides"
        }

        fn train(
            &self,
            view: &crate::classifier::TrainingView<'_>,
        ) -> Result<Arc<dyn crate::classifier::Classifier>> {
            let failure = if view.label_margin() > 0.0 { &self.strict } else { &self.loose };
            match failure {
                Some(error) if view.dimension() == self.kept_len => Err(error.clone()),
                _ => grid().train(view),
            }
        }
    }

    #[test]
    fn a_failing_side_makes_its_candidate_untrainable_or_propagates_strict_first() {
        let compactor = redundant_population();
        let classifier_error =
            || CompactionError::Classifier { backend: "test".into(), message: "no fit".into() };
        let config_error = |parameter| CompactionError::InvalidConfig { parameter, value: 0.0 };
        for threads in [1, 2, 4] {
            let config =
                CompactionConfig::paper_default().with_tolerance(0.3).with_threads(threads);
            let untrainable = [
                (Some(classifier_error()), None),
                (None, Some(classifier_error())),
                (Some(classifier_error()), Some(config_error("loose"))),
                (None, Some(CompactionError::InsufficientData { reason: "few".into() })),
            ];
            for (strict, loose) in untrainable {
                let backend = FailingSides { kept_len: 4, strict, loose };
                let eval = CandidateEvaluator::new(
                    compactor.training(),
                    compactor.testing(),
                    &backend,
                    &config,
                );
                let verdicts = eval.evaluate_removals(&[], &[0, 1, 2]).unwrap();
                assert!(
                    verdicts.iter().all(|verdict| matches!(verdict, Verdict::Untrainable)),
                    "{backend:?} at {threads} threads: {verdicts:?}"
                );
                assert!(eval.try_evaluate(&[0, 1, 2, 3], None).unwrap().is_none());
            }
            let propagating = [
                (Some(config_error("strict")), Some(config_error("loose")), "strict"),
                (Some(config_error("strict")), Some(classifier_error()), "strict"),
                (None, Some(config_error("loose")), "loose"),
            ];
            for (strict, loose, expected) in propagating {
                let backend = FailingSides { kept_len: 4, strict, loose };
                let eval = CandidateEvaluator::new(
                    compactor.training(),
                    compactor.testing(),
                    &backend,
                    &config,
                );
                for error in [
                    eval.evaluate_removals(&[], &[0, 1, 2]).unwrap_err(),
                    eval.evaluate(&[0, 1, 2, 3], None).unwrap_err(),
                ] {
                    assert!(
                        matches!(error, CompactionError::InvalidConfig { parameter, .. } if parameter == expected),
                        "{backend:?} at {threads} threads: {error:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn annealing_is_seed_deterministic_and_thread_invariant() {
        let compactor = redundant_population();
        let strategy = annealing(42);
        let base = CompactionConfig::paper_default().with_tolerance(0.3);
        let sequential = compactor.compact_with_strategy(&grid(), &base, strategy, None).unwrap();
        let repeated = compactor.compact_with_strategy(&grid(), &base, strategy, None).unwrap();
        let threaded = compactor
            .compact_with_strategy(&grid(), &base.clone().with_threads(4), strategy, None)
            .unwrap();
        assert_eq!(sequential, repeated);
        assert_eq!(sequential, threaded);
        assert_eq!(sequential.steps, threaded.steps);
        // Single-evaluation batches: even the *diagnostics* agree.
        assert_eq!(sequential.cache, threaded.cache);
        assert_eq!(sequential.warm_start, threaded.warm_start);
    }

    #[test]
    fn annealing_finds_eliminations_on_a_redundant_population() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.4);
        let result = compactor.compact_with_strategy(&grid(), &config, annealing(5), None).unwrap();
        assert!(!result.eliminated.is_empty(), "kept {:?}", result.kept);
        assert!(result.final_breakdown.prediction_error() <= 0.4 + 1e-9);
        // Accepted moves are logged; the best state is reachable from them.
        assert!(!result.steps.is_empty());
    }

    #[test]
    fn annealing_respects_the_elimination_cap() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.5).with_max_eliminated(2);
        let result = compactor.compact_with_strategy(&grid(), &config, annealing(5), None).unwrap();
        assert!(result.eliminated.len() <= 2, "eliminated {:?}", result.eliminated);
    }

    #[test]
    fn annealing_schedules_are_validated() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.1);
        for schedule in [
            AnnealingSchedule { initial_temperature: f64::NAN, ..AnnealingSchedule::default() },
            AnnealingSchedule { initial_temperature: -1.0, ..AnnealingSchedule::default() },
            AnnealingSchedule { cooling: 0.0, ..AnnealingSchedule::default() },
            AnnealingSchedule { cooling: 1.5, ..AnnealingSchedule::default() },
            AnnealingSchedule { cooling: f64::NAN, ..AnnealingSchedule::default() },
        ] {
            let strategy = SearchStrategy::Annealing { seed: 1, schedule };
            assert!(
                compactor.compact_with_strategy(&grid(), &config, strategy, None).is_err(),
                "schedule {schedule:?} must be rejected"
            );
        }
    }
}
