//! Pluggable search strategies for specification-test compaction.
//!
//! The paper explores the defect-level/test-cost trade-off with one
//! hard-coded greedy backward elimination (Figure 2), but the *search
//! procedure* is orthogonal to the evaluation machinery this crate has been
//! optimising (the per-run model cache, warm-started trainings and the
//! speculative evaluation threads).  This module separates the two:
//!
//! * [`CandidateEvaluator`] owns the expensive part — it is the only thing
//!   that trains models.  Every kept set it evaluates goes through a per-run
//!   model cache and, when enabled, warm-starts from the cached model of an
//!   explicitly named *parent* kept set, so every strategy inherits the
//!   accelerators for free.  The warm-start source is always a committed
//!   frontier a strategy names, never an artefact of speculative evaluation
//!   order, so results stay identical for any thread count.
//! * [`SearchStrategy`] decides *which* kept sets to examine and which
//!   eliminations to accept against the error tolerance; it returns a
//!   [`SearchOutcome`] that the [`Compactor`](crate::Compactor) shell turns
//!   into a [`CompactionResult`](crate::CompactionResult).
//!
//! Three strategies ship with the crate, each kept because it ships the
//! cheapest tester on some measured workload:
//!
//! * [`GreedyBackward`] — the paper's Figure 2 loop, byte-identical to the
//!   pre-0.5 hard-coded implementation (pinned by the property tests),
//! * [`CostAwareGreedy`] — accepts the elimination maximising
//!   [`TestCostModel`] saving per unit prediction error instead of raw spec
//!   count, so expensive insertions are dismantled first (strictly cheaper
//!   than greedy on the op-amp under a per-insertion cost model),
//! * [`SimulatedAnnealing`] — seeded single-flip annealing over kept sets,
//!   escaping greedy local minima (on the accelerometer it drops both the
//!   hot and the cold insertion, which greedy cannot).
//!
//! Custom procedures plug in through the [`SearchStrategy`] trait.
//!
//! # Budgeted, anytime search
//!
//! Every strategy is *anytime*: the evaluator enforces a [`SearchBudget`]
//! (maximum trainings, maximum total solver iterations, optional wall-clock
//! deadline) centrally, before each model training.  When the budget runs
//! out, further evaluations report [`CandidateVerdict::Exhausted`] (batch
//! paths) or `Ok(None)` ([`CandidateEvaluator::try_evaluate`]) instead of
//! training, and the strategy returns the best frontier it has committed so
//! far — a truncated run produces a valid, conservative
//! [`CompactionResult`](crate::CompactionResult) with
//! [`BudgetStats::exhausted`] set, never an error.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::classifier::{BankStats, ClassifierFactory};
use crate::compaction::{CompactionConfig, CompactionStep, ModelCacheStats, WarmStartStats};
use crate::costmodel::TestCostModel;
use crate::dataset::MeasurementSet;
use crate::guardband::{GuardBandConfig, GuardBandedClassifier};
use crate::metrics::ErrorBreakdown;
use crate::pool;
use crate::{CompactionError, Result};

/// Deterministic limits on the training effort one search may spend, plus an
/// opt-in wall-clock deadline.
///
/// The budget is enforced centrally by the [`CandidateEvaluator`] — the only
/// component that trains models — so *every* strategy, bundled or custom,
/// becomes anytime for free: cache hits stay free, and once a limit is
/// reached no further model is trained.  The two deterministic limits
/// (`max_trainings`, `max_solver_iterations`) preserve byte-identical
/// reproducibility for a fixed configuration; the wall-clock `deadline` is
/// off by default precisely because it trades that reproducibility for a
/// hard latency bound.
///
/// Semantics worth knowing:
///
/// * limits are checked *before* each training: a run never starts more than
///   `max_trainings` trainings, while `max_solver_iterations` may overshoot
///   by the iterations of the trainings already admitted but not yet
///   finished — up to a whole evaluation batch (one speculative greedy
///   batch, or one cost-aware round), since iteration counts are only
///   known after each training completes,
/// * with speculative evaluation threads, discarded speculative trainings
///   consume budget too, so a budgeted [`GreedyBackward`] run may stop at a
///   different frontier depending on the thread count.
///   [`SimulatedAnnealing`] evaluates one kept set at a time and stays
///   thread-count invariant under any budget,
/// * the deploy-stage model of the final kept set is exempt: shipping the
///   result of a truncated search never fails on the budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchBudget {
    /// Maximum number of model trainings (cache misses) the search may
    /// start; `None` = unlimited.
    pub max_trainings: Option<usize>,
    /// Maximum total solver iterations (as reported by
    /// [`Classifier::solver_iterations`](crate::classifier::Classifier::solver_iterations))
    /// the search may consume; `None` = unlimited.  Backends without an
    /// iterative solver report zero iterations, so this limit only bites on
    /// iterative backends such as the ε-SVM.
    pub max_solver_iterations: Option<usize>,
    /// Optional wall-clock deadline measured from the start of the search.
    /// **Off by default**: enabling it makes results depend on machine speed
    /// and load, breaking byte-identical reproducibility.
    pub deadline: Option<Duration>,
}

impl SearchBudget {
    /// The default budget: no limits at all.
    pub fn unlimited() -> Self {
        SearchBudget::default()
    }

    /// Caps the number of model trainings.
    pub fn with_max_trainings(mut self, trainings: usize) -> Self {
        self.max_trainings = Some(trainings);
        self
    }

    /// Caps the total solver iterations.
    pub fn with_max_solver_iterations(mut self, iterations: usize) -> Self {
        self.max_solver_iterations = Some(iterations);
        self
    }

    /// Sets the opt-in wall-clock deadline (see [`SearchBudget::deadline`]
    /// for the reproducibility caveat).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether any limit is configured.
    pub fn is_limited(&self) -> bool {
        self.max_trainings.is_some()
            || self.max_solver_iterations.is_some()
            || self.deadline.is_some()
    }
}

/// Screen-then-verify candidate evaluation (off by default).
///
/// When enabled on a backend that supports it
/// ([`ClassifierFactory::supports_screening`]), every speculative
/// evaluation batch is first scored with a cheap low-rank *screening*
/// model ([`ClassifierFactory::train_screen`] — the Nyström approximation
/// for the ε-SVM backend) and only the `shortlist` most promising
/// candidates are trained exactly; the rest report
/// [`CandidateVerdict::Screened`] without ever touching the
/// [`SearchBudget`].  The shortlist serves both winner rules at once: its
/// first slot is reserved for the *earliest* candidate the screen predicts
/// within the search tolerance (the winner under the greedy
/// commit-in-order rule) and the remaining slots fill by ascending
/// predicted error (the argmin winner of frontier searches).  Screening
/// changes wall-clock time, not semantics, under two guarantees:
///
/// * **default off ⇒ byte-identical**: a disabled screen (or a backend
///   without screening support, or a batch no larger than the shortlist)
///   takes exactly the pre-0.10 evaluation path,
/// * **conditional exactness**: every shortlisted candidate is trained
///   exactly before any frontier commit, so the kept/eliminated sets match
///   the unscreened run whenever the shortlist contains the exact winner
///   — with `shortlist` at least the batch size this holds always (pinned
///   by the property tests).
///
/// Cache hits are always admitted for free and never screened; screened
/// candidates never claim [`SearchBudget::max_trainings`] slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScreeningConfig {
    /// Whether screening is active (defaults to `false`: byte-identical to
    /// the exact path).
    #[serde(default)]
    pub enabled: bool,
    /// Landmark count of the low-rank screening model (the Nyström rank for
    /// the SVM backend); higher is more faithful and more expensive.  A
    /// spec file enabling the screen must set this explicitly (a missing
    /// field deserializes to `0`, which an enabled screen rejects).
    #[serde(default)]
    pub landmarks: usize,
    /// How many screened candidates per batch survive to exact training.
    /// Like `landmarks`, required whenever the screen is enabled.
    #[serde(default)]
    pub shortlist: usize,
}

impl Default for ScreeningConfig {
    fn default() -> Self {
        ScreeningConfig {
            enabled: false,
            landmarks: Self::default_landmarks(),
            shortlist: Self::default_shortlist(),
        }
    }
}

impl ScreeningConfig {
    fn default_landmarks() -> usize {
        32
    }

    fn default_shortlist() -> usize {
        4
    }

    /// An enabled screen with explicit landmark and shortlist sizes.
    pub fn screened(landmarks: usize, shortlist: usize) -> Self {
        ScreeningConfig { enabled: true, landmarks, shortlist }
    }

    /// Enables (or disables) the screen.
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Replaces the landmark count.
    pub fn with_landmarks(mut self, landmarks: usize) -> Self {
        self.landmarks = landmarks;
        self
    }

    /// Replaces the shortlist size.
    pub fn with_shortlist(mut self, shortlist: usize) -> Self {
        self.shortlist = shortlist;
        self
    }

    /// Validates the configuration (only an *enabled* screen constrains the
    /// sizes, so a default-off config is always valid).
    pub fn validate(&self) -> Result<()> {
        if self.enabled && self.landmarks == 0 {
            return Err(CompactionError::InvalidConfig {
                parameter: "screening_landmarks",
                value: 0.0,
            });
        }
        if self.enabled && self.shortlist == 0 {
            return Err(CompactionError::InvalidConfig {
                parameter: "screening_shortlist",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// Screen-then-verify diagnostics of one search (see [`ScreeningConfig`]).
///
/// Fully deterministic for a fixed configuration — screening decisions are
/// made from deterministically trained models over deterministically
/// composed batches — and all zeros when screening never ran.  Like the
/// other evaluator diagnostics,
/// [`CompactionResult`](crate::CompactionResult) equality ignores this
/// field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScreeningStats {
    /// Candidates scored by the approximate screening model.
    pub screened: usize,
    /// Screened candidates that went on to exact training (shortlist
    /// survivors actually admitted).
    pub verified: usize,
    /// Batches whose screen-preferred candidate also scored best in exact
    /// training — the screen agreed with the exact ranking where it
    /// mattered.
    pub agreed: usize,
    /// Evaluation batches on which screening actually ran (batches at or
    /// under the shortlist size bypass the screen entirely).
    pub batches: usize,
}

impl ScreeningStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &ScreeningStats) {
        self.screened += other.screened;
        self.verified += other.verified;
        self.agreed += other.agreed;
        self.batches += other.batches;
    }

    /// Whether screening ever ran.
    pub fn any(&self) -> bool {
        self.batches > 0
    }
}

/// How the frontier a search returned came to be.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FrontierProvenance {
    /// The search ran to natural completion and returned its final frontier.
    #[default]
    Completed,
    /// The budget ran out mid-search: the frontier is the best one the
    /// strategy had committed before exhaustion.
    Truncated,
}

impl std::fmt::Display for FrontierProvenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            FrontierProvenance::Completed => "completed",
            FrontierProvenance::Truncated => "truncated",
        };
        write!(f, "{label}")
    }
}

/// Budget diagnostics of one search (see [`SearchBudget`]).
///
/// Like [`ModelCacheStats`] and [`WarmStartStats`], the counters are
/// diagnostics: with speculative evaluation threads the consumed effort can
/// vary with the thread count even when the outcome does not, and
/// [`CompactionResult`](crate::CompactionResult) equality ignores this
/// field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetStats {
    /// Model trainings started (cache misses, successful or not); the
    /// deploy-stage retraining of the final kept set is exempt and not
    /// counted.
    pub trainings: usize,
    /// Solver iterations consumed across those trainings.
    pub solver_iterations: usize,
    /// Whether the budget denied at least one training: the search was
    /// truncated and returned its best committed frontier instead of its
    /// natural answer.
    pub exhausted: bool,
    /// How the returned frontier came to be.
    pub provenance: FrontierProvenance,
}

/// Central budget enforcement: claims are made deterministically on the
/// strategy's thread (single evaluations claim inline, batch evaluations
/// pre-claim in candidate order before any worker runs), so which
/// evaluations a limited budget admits never depends on the speculative
/// thread count.
#[derive(Debug)]
struct BudgetLedger {
    budget: SearchBudget,
    start: Instant,
    trainings: AtomicUsize,
    iterations: AtomicUsize,
    exhausted: AtomicBool,
}

impl BudgetLedger {
    fn new(budget: SearchBudget) -> Self {
        BudgetLedger {
            budget,
            start: Instant::now(),
            trainings: AtomicUsize::new(0),
            iterations: AtomicUsize::new(0),
            exhausted: AtomicBool::new(false),
        }
    }

    /// Claims one training slot; on denial the exhaustion flag latches and
    /// no further training may start.
    fn try_claim_training(&self) -> bool {
        let denied = self
            .budget
            .max_trainings
            .is_some_and(|max| self.trainings.load(Ordering::Relaxed) >= max)
            || self
                .budget
                .max_solver_iterations
                .is_some_and(|max| self.iterations.load(Ordering::Relaxed) >= max)
            || self.budget.deadline.is_some_and(|deadline| self.start.elapsed() >= deadline);
        if denied {
            self.exhausted.store(true, Ordering::Relaxed);
            return false;
        }
        self.trainings.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn record_iterations(&self, iterations: usize) {
        self.iterations.fetch_add(iterations, Ordering::Relaxed);
    }

    fn exhausted(&self) -> bool {
        self.exhausted.load(Ordering::Relaxed)
    }

    fn stats(&self, provenance: FrontierProvenance) -> BudgetStats {
        BudgetStats {
            trainings: self.trainings.load(Ordering::Relaxed),
            solver_iterations: self.iterations.load(Ordering::Relaxed),
            exhausted: self.exhausted(),
            provenance,
        }
    }
}

/// One model training, as reported to a [`ProgressObserver`].
///
/// Counters are cumulative over the run (this training included), so an
/// observer can render budget consumption without keeping its own tally.
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
/// one [`FrontierSnapshot`] per frontier a strategy commits — the anytime
/// "best answer so far" stream a service can publish while a job runs.
///
/// Contract:
///
/// * callbacks fire on the evaluator's worker threads and **block the
///   search**; implementations must be cheap and non-blocking (copy the
///   event into a channel or an atomic cell and return),
/// * callbacks must not panic — a panic unwinds into the search and aborts
///   the run,
/// * with speculative evaluation threads, [`ProgressObserver::on_training`]
///   events may arrive out of commit order and include discarded
///   speculative trainings; [`ProgressObserver::on_frontier`] snapshots are
///   always committed frontiers in commit order,
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

    /// Whether a kept set is cached, without touching the hit/miss counters
    /// — used by the budget pre-pass, which must not distort the
    /// diagnostics.
    fn contains(&self, kept: &[usize]) -> bool {
        self.models.lock().expect("model cache poisoned").contains_key(&Self::key(kept))
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

/// Thread-safe accumulator behind [`ScreeningStats`].
#[derive(Debug, Default)]
struct ScreeningTracker {
    screened: AtomicUsize,
    verified: AtomicUsize,
    agreed: AtomicUsize,
    batches: AtomicUsize,
}

impl ScreeningTracker {
    fn stats(&self) -> ScreeningStats {
        ScreeningStats {
            screened: self.screened.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            agreed: self.agreed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

/// What one candidate evaluation produced.
#[derive(Debug, Clone)]
pub enum CandidateVerdict {
    /// Removing the candidate would leave no test at all: the elimination is
    /// categorically impossible (only produced by
    /// [`CandidateEvaluator::evaluate_removals`]).
    LastTest,
    /// A model was trained (or reused from the cache) and scored on the
    /// held-out population.
    Scored(ErrorBreakdown),
    /// The backend could not build a model for this kept set (for example a
    /// single-class training population); strategies must treat the
    /// candidate as "cannot eliminate" rather than aborting.
    Untrainable,
    /// The evaluator's [`SearchBudget`] was exhausted before this candidate
    /// could be trained.  Strategies must stop searching and return the best
    /// frontier they have committed so far (never an error); see
    /// [`SearchOutcome::provenance`].
    Exhausted,
    /// The screen-then-verify pass ([`ScreeningConfig`]) ranked this
    /// candidate outside the shortlist: no exact model was trained and no
    /// budget was spent.  Strategies must treat the candidate as "not
    /// eliminated this round" and keep scanning — exactly like
    /// [`CandidateVerdict::Untrainable`], but without an examination log
    /// entry (the candidate was screened, not examined).
    Screened,
}

/// The evaluation engine strategies drive: the only component of a
/// compaction run that trains models.
///
/// The evaluator owns the per-run model cache, the warm-start bookkeeping
/// and the speculative thread pool.  Strategies name kept sets (directly or
/// as removals/additions against a committed frontier) and receive
/// held-out [`ErrorBreakdown`]s; every evaluation of a kept set this run
/// has already trained is served from the cache, and cache-missing
/// trainings are warm-started from the cached model of the *parent* kept
/// set the strategy names.  Because the parent is always a committed
/// frontier — never a function of speculative evaluation order — the
/// trained models, and with them the search outcome, are identical for any
/// thread count.
#[derive(Debug)]
pub struct CandidateEvaluator<'a> {
    training: &'a MeasurementSet,
    testing: &'a MeasurementSet,
    backend: &'a dyn ClassifierFactory,
    guard_band: GuardBandConfig,
    threads: usize,
    warm_start: bool,
    screening: ScreeningConfig,
    /// Error tolerance of the surrounding search — the screen uses it to
    /// keep the earliest candidate it predicts acceptable in the shortlist
    /// (the winner under the greedy commit rule).
    tolerance: f64,
    cache: ModelCache,
    tracker: WarmStartTracker,
    screen_tracker: ScreeningTracker,
    /// Memoized approximate screen scores keyed by canonical kept set
    /// (`None` = the screen could not train a model for that set).
    screen_scores: Mutex<HashMap<Vec<usize>, Option<f64>>>,
    ledger: BudgetLedger,
    observer: Option<Arc<dyn ProgressObserver>>,
}

/// How one evaluation settles its budget claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BudgetMode {
    /// Claim a training slot inline before a cache-missing training (the
    /// single-evaluation path strategies drive sequentially).
    Charged,
    /// The slot was already claimed by the deterministic batch pre-pass.
    Prepaid,
    /// Exempt from the budget entirely (the deploy-stage final model).
    Exempt,
}

/// What the screen decided for one deduplicated evaluation batch.
#[derive(Debug)]
struct ScreenPass {
    /// `(batch index, approximate score)` for every candidate the screen
    /// scored (`None` score = the screen could not train a model, which
    /// conservatively admits the candidate to exact verification).
    scored: Vec<(usize, Option<f64>)>,
    /// Per-batch-index: `true` when the candidate was ranked outside the
    /// shortlist and must not be trained exactly.
    rejected: Vec<bool>,
}

/// Adapter presenting a backend's *screening* trainer
/// ([`ClassifierFactory::train_screen`]) as a plain factory, so the
/// screen reuses [`GuardBandedClassifier`] — strict/loose margins,
/// kept-range enforcement and the error metrics — unchanged.
#[derive(Debug, Clone, Copy)]
struct ScreenFactory<'a> {
    inner: &'a dyn ClassifierFactory,
    landmarks: usize,
}

impl ClassifierFactory for ScreenFactory<'_> {
    fn name(&self) -> &str {
        "screen"
    }

    fn train(
        &self,
        view: &crate::classifier::TrainingView<'_>,
    ) -> Result<Arc<dyn crate::classifier::Classifier>> {
        self.inner.train_screen(view, self.landmarks)
    }
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
            screening: config.screening,
            tolerance: config.error_tolerance,
            cache: ModelCache::default(),
            tracker: WarmStartTracker::default(),
            screen_tracker: ScreeningTracker::default(),
            screen_scores: Mutex::new(HashMap::new()),
            ledger: BudgetLedger::new(config.budget),
            observer: None,
        }
    }

    /// Number of specifications in the populations.
    pub fn spec_count(&self) -> usize {
        self.training.specs().len()
    }

    /// Name of specification `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn spec_name(&self, index: usize) -> &str {
        self.training.specs().spec(index).name()
    }

    /// The training population models are fitted on.
    pub fn training(&self) -> &MeasurementSet {
        self.training
    }

    /// The held-out population breakdowns are scored on.
    pub fn testing(&self) -> &MeasurementSet {
        self.testing
    }

    /// Worker threads available for speculative candidate evaluation.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A [`CompactionStep`] log entry for an examined candidate.
    pub fn step(
        &self,
        candidate: usize,
        eliminated: bool,
        breakdown: ErrorBreakdown,
    ) -> CompactionStep {
        CompactionStep {
            spec_index: candidate,
            spec_name: self.spec_name(candidate).to_string(),
            eliminated,
            breakdown,
        }
    }

    /// Evaluates one kept set through the cache, warm-started from the
    /// cached model of `warm_parent` when warm starts are enabled and the
    /// parent was evaluated earlier in this run.  `mode` decides how a
    /// cache-missing training settles its [`SearchBudget`] claim.
    fn evaluate_cached(
        &self,
        kept: &[usize],
        warm_parent: Option<&[usize]>,
        mode: BudgetMode,
    ) -> Result<CachedModel> {
        if let Some(entry) = self.cache.lookup(kept) {
            return Ok(entry);
        }
        if mode == BudgetMode::Charged && !self.ledger.try_claim_training() {
            return Err(CompactionError::BudgetExhausted);
        }
        let warm_entry = match warm_parent {
            Some(parent) if self.warm_start => self.cache.peek(parent),
            _ => None,
        };
        let warm = warm_entry.as_ref().map(|entry| &entry.0);
        let classifier = GuardBandedClassifier::train_with_warm(
            self.backend,
            self.training,
            kept,
            &self.guard_band,
            warm,
        )?;
        let breakdown = classifier.evaluate(self.testing);
        let iterations = classifier.solver_iterations();
        self.tracker.record(warm.is_some(), iterations, classifier.bank_stats());
        if mode != BudgetMode::Exempt {
            self.ledger.record_iterations(iterations.unwrap_or(0));
        }
        if let Some(observer) = &self.observer {
            observer.on_training(&TrainingEvent {
                trainings: self.ledger.trainings.load(Ordering::Relaxed),
                solver_iterations: self.ledger.iterations.load(Ordering::Relaxed),
                warm: warm.is_some(),
            });
        }
        let entry = Arc::new((classifier, breakdown));
        self.cache.insert(kept, Arc::clone(&entry));
        Ok(entry)
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
    /// Propagates backend training failures and data errors, and returns
    /// [`CompactionError::BudgetExhausted`] when the [`SearchBudget`] denies
    /// the training (cache hits stay free).
    pub fn evaluate(
        &self,
        kept: &[usize],
        warm_parent: Option<&[usize]>,
    ) -> Result<ErrorBreakdown> {
        Ok(self.evaluate_cached(kept, warm_parent, BudgetMode::Charged)?.1)
    }

    /// [`CandidateEvaluator::evaluate`], treating "the backend cannot build
    /// a model for this kept set" **and** an exhausted [`SearchBudget`] as
    /// `Ok(None)` instead of an error — the per-candidate rule every
    /// bundled strategy follows.  After a `None`, check
    /// [`CandidateEvaluator::budget_exhausted`] to distinguish "this
    /// candidate is untrainable" (keep scanning) from "the budget is spent"
    /// (stop and return the best committed frontier).
    ///
    /// # Errors
    ///
    /// Propagates configuration and data errors other than
    /// [`CompactionError::Classifier`] /
    /// [`CompactionError::InsufficientData`] /
    /// [`CompactionError::BudgetExhausted`].
    pub fn try_evaluate(
        &self,
        kept: &[usize],
        warm_parent: Option<&[usize]>,
    ) -> Result<Option<ErrorBreakdown>> {
        match self.evaluate_cached(kept, warm_parent, BudgetMode::Charged) {
            Ok(entry) => Ok(Some(entry.1)),
            Err(CompactionError::Classifier { .. })
            | Err(CompactionError::InsufficientData { .. })
            | Err(CompactionError::BudgetExhausted) => Ok(None),
            Err(other) => Err(other),
        }
    }

    /// Whether the [`SearchBudget`] has denied a training: no further model
    /// will be trained this run, and strategies should return their best
    /// committed frontier.
    pub fn budget_exhausted(&self) -> bool {
        self.ledger.exhausted()
    }

    /// Reports a committed frontier to the attached [`ProgressObserver`]
    /// (free when none is attached).  The snapshot's prediction error is
    /// looked up from the run's model cache, so strategies only name the
    /// eliminated set.  Every bundled strategy calls this at its commit
    /// points; custom strategies should too, or their progress stream stays
    /// silent between trainings.
    pub fn notify_frontier(&self, eliminated: &[usize]) {
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
    /// `eliminated`, speculatively in parallel when the evaluator has
    /// worker threads.
    ///
    /// Every candidate's training is warm-started from the cached model of
    /// the shared *parent* kept set (the frontier itself — the maximal
    /// overlap this run can have trained), so verdicts are identical for
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Propagates configuration and data errors; per-candidate training
    /// failures surface as [`CandidateVerdict::Untrainable`] and budget
    /// denials as [`CandidateVerdict::Exhausted`].
    pub fn evaluate_removals(
        &self,
        eliminated: &[usize],
        candidates: &[usize],
    ) -> Result<Vec<CandidateVerdict>> {
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
    /// deduplication pass, an optional screen-then-verify shortlist pass
    /// ([`ScreeningConfig`]), then a deterministic budget pre-pass on the
    /// caller's thread (in first-occurrence order: cache hits are free,
    /// misses claim a training slot, denials become
    /// [`CandidateVerdict::Exhausted`]) followed by the admitted
    /// evaluations over the worker pool.  `None` entries stand for "the
    /// removal would leave no test" and report
    /// [`CandidateVerdict::LastTest`].  Duplicates of the same kept set
    /// (ascending, as [`CandidateEvaluator::kept_without`] builds them)
    /// collapse onto their first occurrence: one claim, one training, one
    /// shared verdict.
    fn evaluate_candidate_sets(
        &self,
        kept_sets: &[Option<Vec<usize>>],
        warm_parent: &[usize],
    ) -> Result<Vec<CandidateVerdict>> {
        /// What the admission passes decided for one distinct kept set.
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Status {
            /// Admitted: evaluate exactly as job `index`.
            Run(usize),
            /// The budget denied the training.
            Denied,
            /// The screen ranked the candidate outside the shortlist.
            Screened,
        }
        // Pass 1 — deduplicate, with no side effects on the budget: each
        // candidate maps onto the first occurrence of its kept set (`None`
        // = the removal would leave no test).
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
        // Pass 2 — the screen (inactive unless configured, supported by
        // the backend, and the batch outgrows the shortlist).
        let screen = self.screen_shortlist(&unique)?;
        // Pass 3 — budget admission, in first-occurrence order exactly like
        // the pre-0.10 single-pass code: cache hits are free, misses claim
        // a training slot, denials latch exhaustion.
        let mut jobs: Vec<usize> = Vec::new();
        let statuses: Vec<Status> = unique
            .iter()
            .enumerate()
            .map(|(index, kept)| {
                if screen.as_ref().is_some_and(|pass| pass.rejected[index]) {
                    Status::Screened
                } else if self.cache.contains(kept) || self.ledger.try_claim_training() {
                    jobs.push(index);
                    Status::Run(jobs.len() - 1)
                } else {
                    Status::Denied
                }
            })
            .collect();
        let verdicts = pool::try_run_indexed(jobs.len(), self.threads, |job| {
            match self.evaluate_cached(unique[jobs[job]], Some(warm_parent), BudgetMode::Prepaid) {
                Ok(entry) => Ok(CandidateVerdict::Scored(entry.1)),
                Err(CompactionError::Classifier { .. })
                | Err(CompactionError::InsufficientData { .. }) => {
                    Ok(CandidateVerdict::Untrainable)
                }
                Err(other) => Err(other),
            }
        })?;
        if let Some(pass) = &screen {
            self.record_screen_agreement(pass, &statuses_as_jobs(&statuses), &verdicts);
        }
        return Ok(slots
            .into_iter()
            .map(|slot| match slot {
                None => CandidateVerdict::LastTest,
                Some(index) => match statuses[index] {
                    Status::Screened => CandidateVerdict::Screened,
                    Status::Denied => CandidateVerdict::Exhausted,
                    Status::Run(job) => verdicts[job].clone(),
                },
            })
            .collect());

        /// Projects the status list onto per-unique job indices (admitted
        /// candidates only), for the agreement bookkeeping.
        fn statuses_as_jobs(statuses: &[Status]) -> Vec<Option<usize>> {
            statuses
                .iter()
                .map(|status| match status {
                    Status::Run(job) => Some(*job),
                    _ => None,
                })
                .collect()
        }
    }

    /// The screen-then-verify pass over one deduplicated batch: scores
    /// every cache-missing candidate with the approximate screening model
    /// and rejects everything ranked outside the shortlist.  Returns `None`
    /// when screening does not apply to this batch (disabled, unsupported
    /// backend, or not enough cache misses to outgrow the shortlist) — the
    /// caller then takes the exact path untouched.
    fn screen_shortlist(&self, unique: &[&[usize]]) -> Result<Option<ScreenPass>> {
        let config = self.screening;
        if !config.enabled || !self.backend.supports_screening() || unique.len() <= config.shortlist
        {
            return Ok(None);
        }
        // Cache hits are admitted for free by the budget pass and never
        // screened; only the candidates that would cost an exact training
        // compete for shortlist slots.
        let misses: Vec<usize> =
            (0..unique.len()).filter(|&index| !self.cache.contains(unique[index])).collect();
        if misses.len() <= config.shortlist {
            return Ok(None);
        }
        // Score the cache misses with the approximate model, in parallel
        // but collected in batch order (deterministic for any thread
        // count).  A candidate the screen cannot train scores `None` and is
        // conservatively ranked ahead of every scored candidate, so it is
        // always verified exactly.
        let scores: Vec<Option<f64>> = pool::try_run_indexed(misses.len(), self.threads, |job| {
            Ok::<_, CompactionError>(self.screen_score(unique[misses[job]]))
        })?;
        let mut ranked: Vec<usize> = (0..misses.len()).collect();
        ranked.sort_by(|&a, &b| {
            let score_a = scores[a].unwrap_or(f64::NEG_INFINITY);
            let score_b = scores[b].unwrap_or(f64::NEG_INFINITY);
            score_a.partial_cmp(&score_b).expect("finite screen scores").then(a.cmp(&b))
        });
        // Two winner notions share the shortlist: the *earliest* candidate
        // the screen predicts acceptable takes the first slot (the winner
        // under the greedy commit-in-order rule), the remaining slots fill
        // by ascending score (the low-error candidates a cost-aware round
        // chooses among).
        // An unscorable candidate (`None`) counts as predicted-acceptable —
        // conservative on both axes.
        if let Some(earliest) = (0..misses.len())
            .find(|&index| scores[index].is_none_or(|score| score <= self.tolerance))
        {
            let position =
                ranked.iter().position(|&rank| rank == earliest).expect("ranked is a permutation");
            let slot = ranked.remove(position);
            ranked.insert(0, slot);
        }
        let mut rejected = vec![false; unique.len()];
        for &rank in ranked.iter().skip(config.shortlist) {
            rejected[misses[rank]] = true;
        }
        self.screen_tracker.screened.fetch_add(misses.len(), Ordering::Relaxed);
        self.screen_tracker.batches.fetch_add(1, Ordering::Relaxed);
        Ok(Some(ScreenPass { scored: misses.into_iter().zip(scores).collect(), rejected }))
    }

    /// Trains (or recalls) the approximate screening model of one kept set
    /// and returns its held-out prediction error, `None` when the screen
    /// cannot build a model for the set.  Scores are memoized for the run:
    /// kept sets revisited by later rounds screen for free.
    fn screen_score(&self, kept: &[usize]) -> Option<f64> {
        let key = ModelCache::key(kept);
        if let Some(score) = self.screen_scores.lock().expect("screen memo poisoned").get(&key) {
            return *score;
        }
        let screen = ScreenFactory { inner: self.backend, landmarks: self.screening.landmarks };
        let score =
            GuardBandedClassifier::train_with(&screen, self.training, kept, &self.guard_band)
                .ok()
                .map(|classifier| classifier.evaluate(self.testing).prediction_error());
        self.screen_scores.lock().expect("screen memo poisoned").insert(key, score);
        score
    }

    /// Screen-agreement bookkeeping of one batch: did the screen's
    /// top-ranked verified candidate also score best in exact training?
    /// (Ties resolve to the lower batch index on both sides, mirroring the
    /// shortlist ranking.)
    fn record_screen_agreement(
        &self,
        pass: &ScreenPass,
        jobs_of: &[Option<usize>],
        verdicts: &[CandidateVerdict],
    ) {
        // The screened candidates that were admitted and trained exactly.
        let verified: Vec<(usize, Option<f64>, usize)> = pass
            .scored
            .iter()
            .filter(|(index, _)| !pass.rejected[*index])
            .filter_map(|&(index, score)| jobs_of[index].map(|job| (index, score, job)))
            .collect();
        self.screen_tracker.verified.fetch_add(verified.len(), Ordering::Relaxed);
        let screen_best = verified
            .iter()
            .min_by(|a, b| {
                let score_a = a.1.unwrap_or(f64::NEG_INFINITY);
                let score_b = b.1.unwrap_or(f64::NEG_INFINITY);
                score_a.partial_cmp(&score_b).expect("finite screen scores").then(a.0.cmp(&b.0))
            })
            .map(|(index, _, _)| *index);
        let exact_best = verified
            .iter()
            .filter_map(|&(index, _, job)| match &verdicts[job] {
                CandidateVerdict::Scored(breakdown) => Some((index, breakdown.prediction_error())),
                _ => None,
            })
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1).expect("finite prediction errors").then(a.0.cmp(&b.0))
            })
            .map(|(index, _)| index);
        if let (Some(screen_best), Some(exact_best)) = (screen_best, exact_best) {
            if screen_best == exact_best {
                self.screen_tracker.agreed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The deploy-stage model of the final kept set.  For every bundled
    /// strategy the final kept set was already evaluated when its last
    /// elimination was accepted, so this is a guaranteed cache hit.  Exempt
    /// from the [`SearchBudget`]: shipping the result of a truncated search
    /// never fails on the budget.
    pub(crate) fn final_entry(&self, kept: &[usize]) -> Result<CachedModel> {
        self.evaluate_cached(kept, None, BudgetMode::Exempt)
    }

    /// Model-cache hit/miss counters accumulated so far.
    pub fn cache_stats(&self) -> ModelCacheStats {
        self.cache.stats()
    }

    /// Warm-start diagnostics accumulated so far.
    pub fn warm_start_stats(&self) -> WarmStartStats {
        self.tracker.stats()
    }

    /// Screen-then-verify diagnostics accumulated so far (all zeros when
    /// screening never ran — see [`ScreeningConfig`]).
    pub fn screening_stats(&self) -> ScreeningStats {
        self.screen_tracker.stats()
    }

    /// Budget diagnostics accumulated so far, stamped with the provenance of
    /// the frontier the search returned.
    pub(crate) fn budget_stats(&self, provenance: FrontierProvenance) -> BudgetStats {
        self.ledger.stats(provenance)
    }
}

/// Immutable inputs of one search: the resolved examination order, the
/// acceptance tolerance, the elimination budget and the test-cost model
/// cost-aware strategies optimise against.
#[derive(Debug, Clone, Copy)]
pub struct SearchContext<'a> {
    order: &'a [usize],
    tolerance: f64,
    max_eliminated: Option<usize>,
    cost_model: &'a TestCostModel,
}

impl<'a> SearchContext<'a> {
    /// Bundles the inputs of one search.  `order` must already be resolved
    /// (see [`EliminationOrder::resolve_validated`](
    /// crate::EliminationOrder::resolve_validated)): strategies treat it as
    /// the candidate pool and examination preference.
    pub fn new(
        order: &'a [usize],
        tolerance: f64,
        max_eliminated: Option<usize>,
        cost_model: &'a TestCostModel,
    ) -> Self {
        SearchContext { order, tolerance, max_eliminated, cost_model }
    }

    /// The resolved examination order: which specifications may be
    /// eliminated, and in which preference order.  Specifications absent
    /// from the order are kept unconditionally.
    pub fn order(&self) -> &'a [usize] {
        self.order
    }

    /// Error tolerance an accepted frontier must meet (`e_T` in the paper).
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Optional cap on how many tests may be eliminated.
    pub fn max_eliminated(&self) -> Option<usize> {
        self.max_eliminated
    }

    /// The test-cost model of this run (uniform unit costs unless the
    /// caller attached one).
    pub fn cost_model(&self) -> &'a TestCostModel {
        self.cost_model
    }

    /// Whether a frontier with `eliminated_len` eliminations may still grow.
    pub fn within_budget(&self, eliminated_len: usize) -> bool {
        self.max_eliminated.is_none_or(|max| eliminated_len < max)
    }

    /// The candidate pool: the order with duplicates removed (first
    /// occurrence wins), preserving examination preference.
    pub fn candidate_pool(&self) -> Vec<usize> {
        let mut pool: Vec<usize> = Vec::with_capacity(self.order.len());
        for &candidate in self.order {
            if !pool.contains(&candidate) {
                pool.push(candidate);
            }
        }
        pool
    }
}

/// What a search decided: the eliminations it committed, its examination
/// log, and how the returned frontier came to be.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// Indices of the eliminated specifications, in elimination order.
    /// Must be duplicate-free, in range, and leave at least one test kept.
    pub eliminated: Vec<usize>,
    /// Per-examination log (strategy-specific granularity: the greedy loop
    /// logs every examined candidate, cost-aware greedy logs each accepted
    /// elimination and the annealing strategy logs each accepted move).
    pub steps: Vec<CompactionStep>,
    /// How the frontier came to be: a natural completion or a
    /// budget-truncated best-committed frontier
    /// ([`FrontierProvenance::Completed`] by default; surfaced as
    /// [`BudgetStats::provenance`]).
    pub provenance: FrontierProvenance,
}

impl SearchOutcome {
    /// An outcome that ran to natural completion.
    pub fn completed(eliminated: Vec<usize>, steps: Vec<CompactionStep>) -> Self {
        SearchOutcome { eliminated, steps, provenance: FrontierProvenance::Completed }
    }

    /// A budget-truncated outcome: the best frontier committed before
    /// exhaustion.
    pub fn truncated(eliminated: Vec<usize>, steps: Vec<CompactionStep>) -> Self {
        SearchOutcome { eliminated, steps, provenance: FrontierProvenance::Truncated }
    }

    /// The conservative outcome: eliminate nothing, keep the complete
    /// suite.
    pub fn keep_everything() -> Self {
        SearchOutcome::default()
    }

    /// [`SearchOutcome::completed`] or [`SearchOutcome::truncated`],
    /// depending on whether the evaluator's budget stopped the search.
    fn finished(eliminated: Vec<usize>, steps: Vec<CompactionStep>, exhausted: bool) -> Self {
        if exhausted {
            SearchOutcome::truncated(eliminated, steps)
        } else {
            SearchOutcome::completed(eliminated, steps)
        }
    }
}

/// A search procedure over kept-set candidates.
///
/// Strategies propose kept sets through the [`CandidateEvaluator`] (which
/// owns all model training, caching and warm starts) and decide which
/// eliminations to accept against [`SearchContext::tolerance`].  The
/// [`Compactor`](crate::Compactor) shell validates the outcome, trains the
/// deploy-stage model and assembles the
/// [`CompactionResult`](crate::CompactionResult).
///
/// # Implementing a custom strategy
///
/// A strategy only needs the two methods.  This one eliminates a caller
/// supplied blocklist in one shot when the remaining tests meet the
/// tolerance, and keeps everything otherwise:
///
/// ```
/// use stc_core::classifier::GridBackend;
/// use stc_core::search::{CandidateEvaluator, SearchContext, SearchOutcome, SearchStrategy};
/// use stc_core::{
///     generate_train_test, CompactionConfig, Compactor, MonteCarloConfig, SyntheticDevice,
/// };
///
/// /// All-or-nothing elimination of a fixed set of tests.
/// #[derive(Debug)]
/// struct DropSet {
///     drop: Vec<usize>,
/// }
///
/// impl SearchStrategy for DropSet {
///     fn name(&self) -> &str {
///         "drop-set"
///     }
///
///     fn search(
///         &self,
///         eval: &mut CandidateEvaluator<'_>,
///         ctx: &SearchContext<'_>,
///     ) -> stc_core::Result<SearchOutcome> {
///         let kept: Vec<usize> =
///             (0..eval.spec_count()).filter(|c| !self.drop.contains(c)).collect();
///         let steps = Vec::new();
///         match eval.try_evaluate(&kept, None)? {
///             Some(b) if b.prediction_error() <= ctx.tolerance() => {
///                 Ok(SearchOutcome::completed(self.drop.clone(), steps))
///             }
///             _ => Ok(SearchOutcome::keep_everything()),
///         }
///     }
/// }
///
/// # fn main() -> Result<(), stc_core::CompactionError> {
/// let device = SyntheticDevice::new(4, 1.8, 0.9);
/// let (train, test) =
///     generate_train_test(&device, &MonteCarloConfig::new(200).with_seed(1), 100)?;
/// let compactor = Compactor::new(train, test)?;
/// let config = CompactionConfig::paper_default().with_tolerance(0.1);
/// let result = compactor.compact_with_strategy(
///     &GridBackend::default(),
///     &config,
///     &DropSet { drop: vec![3] },
///     None,
/// )?;
/// assert_eq!(result.kept.len() + result.eliminated.len(), 4);
/// # Ok(())
/// # }
/// ```
pub trait SearchStrategy: std::fmt::Debug + Send + Sync {
    /// Short strategy name used in reports (for example `"greedy-backward"`
    /// or `"simulated-annealing"`).
    fn name(&self) -> &str;

    /// Runs the search over the evaluator and returns the committed
    /// eliminations plus the examination log.
    ///
    /// # Errors
    ///
    /// Propagates configuration/data errors from the evaluator; strategies
    /// must treat per-candidate training failures
    /// ([`CandidateVerdict::Untrainable`]) as "cannot eliminate".
    fn search(
        &self,
        eval: &mut CandidateEvaluator<'_>,
        ctx: &SearchContext<'_>,
    ) -> Result<SearchOutcome>;
}

/// The paper's greedy backward elimination (Figure 2), byte-identical to
/// the pre-0.5 hard-coded loop for any speculative thread count.
///
/// Every candidate (in the configured order) is tentatively removed; the
/// removal becomes permanent when the held-out prediction error of the
/// model trained without it stays at or below the tolerance.  With worker
/// threads the next few candidates are evaluated speculatively against the
/// same frontier and their verdicts committed in order; evaluations
/// invalidated by an earlier acceptance are discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyBackward;

impl SearchStrategy for GreedyBackward {
    fn name(&self) -> &str {
        "greedy-backward"
    }

    fn search(
        &self,
        eval: &mut CandidateEvaluator<'_>,
        ctx: &SearchContext<'_>,
    ) -> Result<SearchOutcome> {
        let order = ctx.order();
        let threads = eval.threads();
        let mut eliminated: Vec<usize> = Vec::new();
        let mut steps = Vec::new();
        let mut index = 0;
        'outer: while index < order.len() {
            if !ctx.within_budget(eliminated.len()) {
                break;
            }
            // The next batch of examinations: up to `threads` order positions
            // whose candidates are not yet eliminated, all speculatively
            // assuming the current eliminated set.
            let mut batch: Vec<usize> = Vec::new();
            let mut scan = index;
            while scan < order.len() && batch.len() < threads {
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
                    CandidateVerdict::LastTest => break 'outer,
                    // Budget spent: the committed frontier is the answer.
                    CandidateVerdict::Exhausted => break 'outer,
                    CandidateVerdict::Scored(breakdown) => {
                        let eliminate = breakdown.prediction_error() <= ctx.tolerance();
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
                    CandidateVerdict::Untrainable => {
                        // Model could not be built without this test: keep it.
                        steps.push(eval.step(candidate, false, ErrorBreakdown::default()));
                    }
                    // Screened out: not eliminated this round, no exact
                    // examination to log.
                    CandidateVerdict::Screened => {}
                }
            }
            if !accepted {
                index = index.max(scan);
            }
        }
        Ok(SearchOutcome::finished(eliminated, steps, eval.budget_exhausted()))
    }
}

/// Guards the saving-per-error ratio against division by zero when a
/// candidate model makes no held-out errors at all.
const COST_ERROR_FLOOR: f64 = 1e-9;

/// Cost-aware greedy backward elimination: each round evaluates removing
/// *every* remaining candidate and accepts the one maximising
/// [`TestCostModel`] saving per unit prediction error (instead of the first
/// acceptable candidate in order), until no candidate passes the
/// tolerance.
///
/// With an insertion-heavy cost model this dismantles expensive setup
/// groups (for example the thermal soaks of the accelerometer's hot and
/// cold insertions) before spending tolerance budget on cheap tests, which
/// regularly yields a strictly cheaper kept set than count-greedy
/// elimination.  Under the default uniform cost model every saving is
/// identical, so the strategy degenerates to lowest-error-first backward
/// elimination.  [`SearchOutcome::steps`] logs one entry per accepted
/// elimination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostAwareGreedy;

impl SearchStrategy for CostAwareGreedy {
    fn name(&self) -> &str {
        "cost-aware-greedy"
    }

    fn search(
        &self,
        eval: &mut CandidateEvaluator<'_>,
        ctx: &SearchContext<'_>,
    ) -> Result<SearchOutcome> {
        let pool = ctx.candidate_pool();
        let cost_model = ctx.cost_model();
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
            if verdicts.iter().any(|v| matches!(v, CandidateVerdict::Exhausted)) {
                // Budget spent mid-round: accepting from a partially
                // evaluated round would bias the choice, so the committed
                // frontier is the answer.
                break;
            }
            // The acceptable candidate with the best saving-per-error ratio;
            // ties fall to the higher absolute saving, then to examination
            // order (the iteration order below).
            let mut best: Option<(f64, f64, usize, ErrorBreakdown)> = None;
            for (&candidate, verdict) in remaining.iter().zip(verdicts) {
                let CandidateVerdict::Scored(breakdown) = verdict else { continue };
                let error = breakdown.prediction_error();
                if error > ctx.tolerance() {
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
        Ok(SearchOutcome::finished(eliminated, steps, eval.budget_exhausted()))
    }
}

/// Cooling schedule of a [`SimulatedAnnealing`] search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealingSchedule {
    /// Starting temperature of the Boltzmann acceptance rule (must be
    /// finite and non-negative; `0` degenerates to stochastic hill
    /// climbing).
    pub initial_temperature: f64,
    /// Geometric cooling factor applied after every proposal (must be in
    /// `(0, 1]`).
    pub cooling: f64,
    /// Number of single-flip proposals to examine (the [`SearchBudget`] may
    /// stop the walk earlier).
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

/// Seeded simulated annealing over kept sets: a single-flip random walk
/// through the elimination lattice with Boltzmann acceptance.
///
/// Each proposal flips one random candidate of the examination order —
/// eliminating a kept test or restoring an eliminated one — and evaluates
/// the resulting kept set (warm-started from the current state's cached
/// model).  Proposals whose model misses the tolerance (or cannot be
/// trained) are rejected outright; feasible proposals are accepted when they
/// lower the [`TestCostModel`] cost of the kept set, or with probability
/// `exp(-Δcost / T)` otherwise, and `T` cools geometrically.  The best
/// feasible state ever visited is returned, so a truncated walk degrades to
/// its best committed frontier.
///
/// The walk is fully deterministic for a fixed `seed`, *and* thread-count
/// invariant under any budget: the strategy evaluates exactly one kept set
/// per proposal and draws every random number on the search thread, so the
/// speculative worker pool never influences the trajectory.
/// [`SearchOutcome::steps`] logs one entry per accepted move (`eliminated`
/// reflects the flip direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    /// RNG seed driving proposal selection and acceptance draws.
    pub seed: u64,
    /// Cooling schedule of the walk.
    pub schedule: AnnealingSchedule,
}

impl SimulatedAnnealing {
    /// An annealing search with the default schedule.
    pub fn new(seed: u64) -> Self {
        SimulatedAnnealing { seed, schedule: AnnealingSchedule::default() }
    }

    /// Replaces the cooling schedule.
    pub fn with_schedule(mut self, schedule: AnnealingSchedule) -> Self {
        self.schedule = schedule;
        self
    }
}

impl SearchStrategy for SimulatedAnnealing {
    fn name(&self) -> &str {
        "simulated-annealing"
    }

    fn search(
        &self,
        eval: &mut CandidateEvaluator<'_>,
        ctx: &SearchContext<'_>,
    ) -> Result<SearchOutcome> {
        self.schedule.validate()?;
        let pool = ctx.candidate_pool();
        if pool.is_empty() {
            return Ok(SearchOutcome::keep_everything());
        }
        let cost_model = ctx.cost_model();
        let mut rng = StdRng::seed_from_u64(self.seed);
        // The walk starts at the complete suite: trivially feasible (zero
        // prediction error by construction) at the full test cost.
        let mut current: Vec<usize> = Vec::new();
        let mut current_cost = cost_model.full_cost();
        let mut best: Vec<usize> = current.clone();
        let mut best_cost = current_cost;
        let mut steps: Vec<CompactionStep> = Vec::new();
        let mut temperature = self.schedule.initial_temperature;
        for step in 0..self.schedule.steps {
            if eval.budget_exhausted() {
                break;
            }
            // Cool after every proposal: the first one sees the initial
            // temperature (rejected and skipped proposals cool too).
            if step > 0 {
                temperature *= self.schedule.cooling;
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
                if eval.budget_exhausted() {
                    break;
                }
                // Untrainable proposal: reject and walk on.
                continue;
            };
            if breakdown.prediction_error() > ctx.tolerance() {
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
            if current_cost < best_cost || (current_cost == best_cost && current.len() > best.len())
            {
                best = current.clone();
                best_cost = current_cost;
                eval.notify_frontier(&best);
            }
        }
        Ok(SearchOutcome::finished(best, steps, eval.budget_exhausted()))
    }
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
            .compact_with_strategy(&grid(), &config, &GreedyBackward, Some(&cost))
            .unwrap();
        let aware = compactor
            .compact_with_strategy(&grid(), &config, &CostAwareGreedy, Some(&cost))
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
            aware.cost_reduction_ratio(&cost).unwrap()
                > greedy.cost_reduction_ratio(&cost).unwrap()
        );
    }

    #[test]
    fn cost_aware_greedy_respects_budget_and_tolerance() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.3).with_max_eliminated(2);
        let result =
            compactor.compact_with_strategy(&grid(), &config, &CostAwareGreedy, None).unwrap();
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
        let strategies: [&dyn SearchStrategy; 2] = [&CostAwareGreedy, &SimulatedAnnealing::new(7)];
        for strategy in strategies {
            let sequential =
                compactor.compact_with_strategy(&grid(), &base, strategy, None).unwrap();
            let threaded = compactor
                .compact_with_strategy(&grid(), &base.clone().with_threads(4), strategy, None)
                .unwrap();
            assert_eq!(sequential, threaded, "strategy {:?}", strategy);
        }
    }

    #[test]
    fn unlimited_budget_reproduces_the_default_results() {
        let compactor = redundant_population();
        let base = CompactionConfig::paper_default().with_tolerance(0.1);
        let budgeted = base.clone().with_budget(SearchBudget::unlimited());
        let strategies: [&dyn SearchStrategy; 3] =
            [&GreedyBackward, &CostAwareGreedy, &SimulatedAnnealing::new(7)];
        for strategy in strategies {
            let default = compactor.compact_with_strategy(&grid(), &base, strategy, None).unwrap();
            let unlimited =
                compactor.compact_with_strategy(&grid(), &budgeted, strategy, None).unwrap();
            assert_eq!(default, unlimited, "strategy {:?}", strategy);
            assert!(!unlimited.budget.exhausted, "strategy {:?}", strategy);
            assert_ne!(
                unlimited.budget.provenance,
                FrontierProvenance::Truncated,
                "strategy {:?}",
                strategy
            );
            assert!(unlimited.budget.trainings > 0, "strategy {:?}", strategy);
        }
    }

    #[test]
    fn training_budget_is_never_exceeded_and_truncates_to_a_greedy_prefix() {
        let compactor = redundant_population();
        let base = CompactionConfig::paper_default().with_tolerance(0.3);
        let full = compactor.compact_with(&grid(), &base).unwrap();
        assert!(!full.eliminated.is_empty());
        for budget in 0..=full.budget.trainings + 1 {
            let config =
                base.clone().with_budget(SearchBudget::unlimited().with_max_trainings(budget));
            let result = compactor.compact_with(&grid(), &config).unwrap();
            assert!(
                result.budget.trainings <= budget,
                "budget {budget} exceeded: {:?}",
                result.budget
            );
            // A sequential budgeted greedy run walks the same examination
            // sequence, so its eliminations are a prefix of the full run's.
            assert_eq!(
                result.eliminated,
                full.eliminated[..result.eliminated.len()].to_vec(),
                "budget {budget}"
            );
            if budget > full.budget.trainings {
                assert!(!result.budget.exhausted);
                assert_eq!(result, full);
            }
            if result.budget.exhausted {
                assert_eq!(result.budget.provenance, FrontierProvenance::Truncated);
            }
        }
        // A zero budget keeps everything, exhausted.
        let none = compactor
            .compact_with(
                &grid(),
                &base.clone().with_budget(SearchBudget::unlimited().with_max_trainings(0)),
            )
            .unwrap();
        assert!(none.eliminated.is_empty());
        assert_eq!(none.kept.len(), 5);
        assert!(none.budget.exhausted);
        assert_eq!(none.budget.trainings, 0);
    }

    #[test]
    fn iteration_and_deadline_budgets_exhaust_immediately_at_zero() {
        let compactor = redundant_population();
        let base = CompactionConfig::paper_default().with_tolerance(0.3);
        // The grid backend reports no solver iterations, so only a zero
        // iteration cap can deny (checked before the first training).
        let by_iterations = compactor
            .compact_with(
                &grid(),
                &base.clone().with_budget(SearchBudget::unlimited().with_max_solver_iterations(0)),
            )
            .unwrap();
        assert!(by_iterations.eliminated.is_empty());
        assert!(by_iterations.budget.exhausted);
        let by_deadline = compactor
            .compact_with(
                &grid(),
                &base.clone().with_budget(SearchBudget::unlimited().with_deadline(Duration::ZERO)),
            )
            .unwrap();
        assert!(by_deadline.eliminated.is_empty());
        assert!(by_deadline.budget.exhausted);
    }

    #[test]
    fn every_strategy_is_anytime_under_any_training_budget() {
        let compactor = redundant_population();
        let base = CompactionConfig::paper_default().with_tolerance(0.3);
        let strategies: [&dyn SearchStrategy; 3] =
            [&GreedyBackward, &CostAwareGreedy, &SimulatedAnnealing::new(3)];
        for strategy in strategies {
            for budget in [0usize, 1, 2, 3, 5, 8, 13] {
                let config =
                    base.clone().with_budget(SearchBudget::unlimited().with_max_trainings(budget));
                let result = compactor
                    .compact_with_strategy(&grid(), &config, strategy, None)
                    .unwrap_or_else(|e| {
                        panic!("strategy {:?} failed under budget {budget}: {e}", strategy)
                    });
                assert!(result.budget.trainings <= budget, "strategy {:?}", strategy);
                assert!(!result.kept.is_empty(), "strategy {:?}", strategy);
                assert_eq!(result.kept.len() + result.eliminated.len(), 5);
                if !result.eliminated.is_empty() {
                    assert!(result.final_breakdown.prediction_error() <= 0.3 + 1e-9);
                }
            }
        }
    }

    #[test]
    fn duplicate_kept_sets_in_a_batch_share_one_claim_and_one_training() {
        let compactor = redundant_population();
        let backend = grid();
        let config = CompactionConfig::paper_default()
            .with_tolerance(0.05)
            .with_threads(4)
            .with_budget(SearchBudget::unlimited().with_max_trainings(1));
        let eval =
            CandidateEvaluator::new(compactor.training(), compactor.testing(), &backend, &config);
        // Removing the same candidate twice names the same kept set twice.
        let verdicts = eval.evaluate_removals(&[], &[3, 3]).unwrap();
        // The duplicate collapses onto the first occurrence: both score,
        // only one training slot is claimed, and the budget never latches.
        assert!(matches!(verdicts[0], CandidateVerdict::Scored(_)));
        assert!(matches!(verdicts[1], CandidateVerdict::Scored(_)));
        assert!(!eval.budget_exhausted());
        assert_eq!(eval.budget_stats(FrontierProvenance::Completed).trainings, 1);
    }

    #[test]
    fn annealing_is_seed_deterministic_and_thread_invariant() {
        let compactor = redundant_population();
        let strategy = SimulatedAnnealing::new(42);
        for budget in [None, Some(6), Some(25)] {
            let mut base = CompactionConfig::paper_default().with_tolerance(0.3);
            if let Some(max) = budget {
                base = base.with_budget(SearchBudget::unlimited().with_max_trainings(max));
            }
            let sequential =
                compactor.compact_with_strategy(&grid(), &base, &strategy, None).unwrap();
            let repeated =
                compactor.compact_with_strategy(&grid(), &base, &strategy, None).unwrap();
            let threaded = compactor
                .compact_with_strategy(&grid(), &base.clone().with_threads(4), &strategy, None)
                .unwrap();
            assert_eq!(sequential, repeated, "budget {budget:?}");
            assert_eq!(sequential, threaded, "budget {budget:?}");
            assert_eq!(sequential.steps, threaded.steps, "budget {budget:?}");
            // Single-evaluation batches: even the *diagnostics* agree.
            assert_eq!(sequential.budget, threaded.budget, "budget {budget:?}");
        }
    }

    #[test]
    fn annealing_finds_eliminations_on_a_redundant_population() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.4);
        let result = compactor
            .compact_with_strategy(&grid(), &config, &SimulatedAnnealing::new(5), None)
            .unwrap();
        assert!(!result.eliminated.is_empty(), "kept {:?}", result.kept);
        assert!(result.final_breakdown.prediction_error() <= 0.4 + 1e-9);
        // Accepted moves are logged; the best state is reachable from them.
        assert!(!result.steps.is_empty());
    }

    #[test]
    fn annealing_respects_the_elimination_cap() {
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.5).with_max_eliminated(2);
        let result = compactor
            .compact_with_strategy(&grid(), &config, &SimulatedAnnealing::new(5), None)
            .unwrap();
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
            let strategy = SimulatedAnnealing::new(1).with_schedule(schedule);
            assert!(
                compactor.compact_with_strategy(&grid(), &config, &strategy, None).is_err(),
                "schedule {schedule:?} must be rejected"
            );
        }
    }

    #[test]
    fn strategy_outcomes_are_validated_by_the_shell() {
        /// A deliberately broken strategy eliminating everything.
        #[derive(Debug)]
        struct EliminateAll;
        impl SearchStrategy for EliminateAll {
            fn name(&self) -> &str {
                "eliminate-all"
            }
            fn search(
                &self,
                eval: &mut CandidateEvaluator<'_>,
                _ctx: &SearchContext<'_>,
            ) -> Result<SearchOutcome> {
                Ok(SearchOutcome::completed((0..eval.spec_count()).collect(), Vec::new()))
            }
        }
        /// A strategy reporting an out-of-range elimination.
        #[derive(Debug)]
        struct OutOfRange;
        impl SearchStrategy for OutOfRange {
            fn name(&self) -> &str {
                "out-of-range"
            }
            fn search(
                &self,
                _eval: &mut CandidateEvaluator<'_>,
                _ctx: &SearchContext<'_>,
            ) -> Result<SearchOutcome> {
                Ok(SearchOutcome::completed(vec![99], Vec::new()))
            }
        }
        /// A strategy reporting a duplicate elimination.
        #[derive(Debug)]
        struct Duplicated;
        impl SearchStrategy for Duplicated {
            fn name(&self) -> &str {
                "duplicated"
            }
            fn search(
                &self,
                _eval: &mut CandidateEvaluator<'_>,
                _ctx: &SearchContext<'_>,
            ) -> Result<SearchOutcome> {
                Ok(SearchOutcome::completed(vec![0, 0], Vec::new()))
            }
        }
        let compactor = redundant_population();
        let config = CompactionConfig::paper_default().with_tolerance(0.1);
        assert!(compactor.compact_with_strategy(&grid(), &config, &EliminateAll, None).is_err());
        assert!(compactor.compact_with_strategy(&grid(), &config, &OutOfRange, None).is_err());
        assert!(compactor.compact_with_strategy(&grid(), &config, &Duplicated, None).is_err());
    }
}
