//! Deployment of a compacted test set on the production tester
//! (paper Section 3.3).
//!
//! Since 0.9 the deploy layer is staged: a [`TestPlan`] fixes the order in
//! which the kept specifications are measured (cheapest-first under the
//! run's [`TestCostModel`] by default), and a [`SequentialSession`] walks
//! that plan one measurement at a time, emitting a verdict the moment a
//! kept-range violation — or a guard-banded model pair that is provably
//! decided over every possible completion — makes the remaining
//! measurements irrelevant.  The one-shot [`TesterProgram::classify`] is a
//! thin wrapper that drives a kept-order session to completion, so its
//! verdicts are identical to the pre-0.9 monolithic implementation.

use serde::{Deserialize, Serialize};

use crate::costmodel::TestCostModel;
use crate::dataset::MeasurementSet;
use crate::gridmodel::LookupTableTester;
use crate::guardband::{GuardBandedClassifier, Prediction};
use crate::metrics::ErrorBreakdown;
use crate::spec::SpecificationSet;
use crate::{pool, CompactionError, Result};

/// Devices per pool job of [`SequentialStats::deploy`]: a population of at
/// most this many runs inline on the caller's thread.
const DEPLOY_CHUNK: usize = 256;

/// How the acceptance region of the compacted test set is represented on the
/// tester.
///
/// # Serialisation
///
/// `CompleteSuite` and `LookupTable` round-trip exactly.  `Exact` carries
/// live classifier trait objects that cannot cross a process boundary, so it
/// serialises as a [`TesterModel::Detached`] descriptor (backend name + kept
/// set); decoding yields `Detached`, which reserialises to the same bytes.
/// Jobs that need a fully serialisable deployed model should ship a lookup
/// table instead.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum TesterModel {
    /// Apply the complete specification suite directly — no statistical
    /// model is needed when no test was eliminated.
    CompleteSuite,
    /// Ship the trained guard-banded model pair to the tester (needs more
    /// tester compute).
    Exact(GuardBandedClassifier),
    /// Ship a grid lookup table derived from the model (cheap on the tester,
    /// slightly approximate).
    LookupTable(LookupTableTester),
    /// A deserialised stand-in for [`TesterModel::Exact`]: records which
    /// backend trained the model and which tests it kept, but cannot classify
    /// devices.  Produced only by deserialisation.
    Detached {
        /// Name of the classifier backend that trained the original model.
        backend: String,
        /// Specification indices the original model kept.
        kept: Vec<usize>,
    },
}

impl Serialize for TesterModel {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeStructVariant;
        match self {
            TesterModel::CompleteSuite => {
                serializer.serialize_unit_variant("TesterModel", 0, "CompleteSuite")
            }
            TesterModel::Exact(classifier) => {
                let mut state =
                    serializer.serialize_struct_variant("TesterModel", 3, "Detached", 2)?;
                state.serialize_field("backend", classifier.backend())?;
                state.serialize_field("kept", &classifier.kept().to_vec())?;
                state.end()
            }
            TesterModel::LookupTable(table) => {
                serializer.serialize_newtype_variant("TesterModel", 2, "LookupTable", table)
            }
            TesterModel::Detached { backend, kept } => {
                let mut state =
                    serializer.serialize_struct_variant("TesterModel", 3, "Detached", 2)?;
                state.serialize_field("backend", backend)?;
                state.serialize_field("kept", kept)?;
                state.end()
            }
        }
    }
}

impl<'de> Deserialize<'de> for TesterModel {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        use serde::de::{EnumAccess, Error as _, IgnoredAny, MapAccess, VariantAccess, Visitor};
        const VARIANTS: &[&str] = &["CompleteSuite", "LookupTable", "Detached"];
        struct DetachedVisitor;
        impl<'de> Visitor<'de> for DetachedVisitor {
            type Value = TesterModel;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("struct variant TesterModel::Detached")
            }
            fn visit_map<A: MapAccess<'de>>(
                self,
                mut map: A,
            ) -> std::result::Result<TesterModel, A::Error> {
                let mut backend: Option<String> = None;
                let mut kept: Option<Vec<usize>> = None;
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "backend" => backend = Some(map.next_value()?),
                        "kept" => kept = Some(map.next_value()?),
                        _ => {
                            map.next_value::<IgnoredAny>()?;
                        }
                    }
                }
                Ok(TesterModel::Detached {
                    backend: backend.ok_or_else(|| A::Error::missing_field("backend"))?,
                    kept: kept.ok_or_else(|| A::Error::missing_field("kept"))?,
                })
            }
        }
        struct ModelVisitor;
        impl<'de> Visitor<'de> for ModelVisitor {
            type Value = TesterModel;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("enum TesterModel")
            }
            fn visit_enum<A: EnumAccess<'de>>(
                self,
                data: A,
            ) -> std::result::Result<TesterModel, A::Error> {
                let (tag, variant): (String, _) = data.variant()?;
                match tag.as_str() {
                    "CompleteSuite" => {
                        variant.unit_variant()?;
                        Ok(TesterModel::CompleteSuite)
                    }
                    "LookupTable" => Ok(TesterModel::LookupTable(variant.newtype_variant()?)),
                    "Detached" => variant.struct_variant(&["backend", "kept"], DetachedVisitor),
                    "Exact" => Err(A::Error::custom(
                        "TesterModel::Exact never serialises under its own tag; \
                         expected its `Detached` descriptor",
                    )),
                    other => Err(A::Error::unknown_variant(other, VARIANTS)),
                }
            }
        }
        deserializer.deserialize_enum("TesterModel", VARIANTS, ModelVisitor)
    }
}

/// A complete tester program: which specifications to measure and how to turn
/// the measurements into an accept/reject/retest decision.
///
/// Decoding checks the kept set: it must be non-empty, in range and free of
/// duplicates, and it must be the model's own kept set (every
/// specification in order for the complete suite).  A document that fails
/// is a decode error, never a program that panics or skips a test.
#[derive(Debug, Clone, Serialize)]
pub struct TesterProgram {
    specs: SpecificationSet,
    kept: Vec<usize>,
    model: TesterModel,
}

impl<'de> Deserialize<'de> for TesterProgram {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Wire {
            specs: SpecificationSet,
            kept: Vec<usize>,
            model: TesterModel,
        }
        let Wire { specs, kept, model } = Wire::deserialize(deserializer)?;
        let program = TesterProgram { specs, kept, model };
        match program.kept_set_error() {
            Some(message) => Err(serde::de::Error::custom(message)),
            None => Ok(program),
        }
    }
}

impl TesterProgram {
    /// Builds the trivial program that applies the complete specification
    /// suite: every test is kept and the accept/reject decision is the
    /// range check itself.
    pub fn complete(specs: SpecificationSet) -> Self {
        let kept = (0..specs.len()).collect();
        TesterProgram { specs, kept, model: TesterModel::CompleteSuite }
    }

    /// Builds a tester program that ships the trained model pair itself
    /// (whatever classifier backend produced it).
    pub fn with_model(specs: SpecificationSet, classifier: GuardBandedClassifier) -> Self {
        let kept = classifier.kept().to_vec();
        TesterProgram { specs, kept, model: TesterModel::Exact(classifier) }
    }

    /// Builds a tester program that ships a lookup table with the given grid
    /// resolution (the paper's low-cost option).
    ///
    /// # Errors
    ///
    /// Propagates table-size errors from [`LookupTableTester::build`].
    pub fn with_lookup_table(
        specs: SpecificationSet,
        classifier: &GuardBandedClassifier,
        cells_per_dim: usize,
    ) -> Result<Self> {
        let table = LookupTableTester::build(classifier, cells_per_dim)?;
        Ok(TesterProgram {
            specs,
            kept: classifier.kept().to_vec(),
            model: TesterModel::LookupTable(table),
        })
    }

    /// Why the kept set cannot be classified, if it cannot: the checks
    /// [`TesterProgram`]'s decoder applies.
    fn kept_set_error(&self) -> Option<String> {
        let count = self.specs.len();
        if self.kept.is_empty() {
            return Some("tester program keeps no specification".to_owned());
        }
        for (position, &index) in self.kept.iter().enumerate() {
            if index >= count {
                return Some(format!(
                    "tester program keeps specification {index}, but the set has {count}"
                ));
            }
            if self.kept[..position].contains(&index) {
                return Some(format!("tester program keeps specification {index} twice"));
            }
        }
        let model_kept: Vec<usize> = match &self.model {
            TesterModel::CompleteSuite => (0..count).collect(),
            TesterModel::Exact(classifier) => classifier.kept().to_vec(),
            TesterModel::LookupTable(table) => table.kept().to_vec(),
            TesterModel::Detached { kept, .. } => kept.clone(),
        };
        (model_kept != self.kept).then(|| {
            format!("tester program keeps {:?}, but its model covers {model_kept:?}", self.kept)
        })
    }

    /// The complete specification table the program was built against.
    pub fn specs(&self) -> &SpecificationSet {
        &self.specs
    }

    /// The specifications that must still be measured on the tester.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Names of the kept specifications, in measurement order.
    pub fn kept_names(&self) -> Vec<&str> {
        self.kept.iter().map(|&c| self.specs.spec(c).name()).collect()
    }

    /// Which model representation the program carries.
    pub fn model(&self) -> &TesterModel {
        &self.model
    }

    /// Starts a sequential session over the kept set in its stored order
    /// (the [`TestPlan::kept_order`] plan).  Use
    /// [`TestPlan::begin`] to drive a reordered plan instead.
    pub fn begin(&self) -> SequentialSession<'_> {
        TestPlan::kept_order(self).begin()
    }

    /// Classifies one device from its *kept* raw measurements (in the same
    /// order as [`TesterProgram::kept`]).
    ///
    /// Since 0.9 this is a thin wrapper that drives a kept-order
    /// [`SequentialSession`] to its verdict; because a session only
    /// early-exits on outcomes that are provably the final verdict, the
    /// result is identical to evaluating every measurement up front.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::DimensionMismatch`] when the number of
    /// measurements does not match the kept set.
    pub fn classify(&self, kept_measurements: &[f64]) -> Result<Prediction> {
        if kept_measurements.len() != self.kept.len() {
            return Err(CompactionError::DimensionMismatch {
                expected: self.kept.len(),
                found: kept_measurements.len(),
            });
        }
        let mut session = self.begin();
        for &value in kept_measurements {
            if let StepVerdict::Decided(prediction) = session.measure(value)? {
                return Ok(prediction);
            }
        }
        unreachable!("a session over the full kept set always reaches a verdict")
    }

    /// Applies the program to a full labelled population (which still carries
    /// every measurement) and reports the error breakdown — the end-to-end
    /// check that deployment behaves like the model it was derived from.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::Classifier`] when the program carries a
    /// detached (deserialised) exact model, which cannot classify devices.
    pub fn try_evaluate(&self, data: &MeasurementSet) -> Result<ErrorBreakdown> {
        crate::metrics::try_evaluate_population(data, |data, i| {
            let kept_measurements: Vec<f64> = self.kept.iter().map(|&c| data.value(i, c)).collect();
            self.classify(&kept_measurements)
        })
    }

    /// [`TesterProgram::try_evaluate`], panicking instead of returning the
    /// detached-model error.
    ///
    /// # Panics
    ///
    /// Panics when the program carries a detached (deserialised) exact
    /// model.  Long-running services should call
    /// [`TesterProgram::try_evaluate`] instead.
    pub fn evaluate(&self, data: &MeasurementSet) -> ErrorBreakdown {
        self.try_evaluate(data)
            .expect("program model must be executable (detached models cannot classify)")
    }
}

/// An ordered measurement schedule over a tester program's kept
/// specifications — the staging that a [`SequentialSession`] walks.
///
/// A plan is always a permutation of the program's kept set: reordering
/// changes *when* a device's verdict is reached (and therefore the expected
/// measurement cost per device), never *what* the verdict is.
#[derive(Debug, Clone)]
pub struct TestPlan<'p> {
    program: &'p TesterProgram,
    /// Specification columns in measurement order.
    stages: Vec<usize>,
    /// `slots[i]` is the position of `stages[i]` within the program's kept
    /// set (the feature-vector index the models expect).
    slots: Vec<usize>,
}

impl<'p> TestPlan<'p> {
    /// The kept set in its stored order — the plan the one-shot
    /// [`TesterProgram::classify`] drives.
    pub fn kept_order(program: &'p TesterProgram) -> Self {
        let stages = program.kept.to_vec();
        let slots = (0..stages.len()).collect();
        TestPlan { program, stages, slots }
    }

    /// Orders the kept set cheapest-first under a cost model: each stage is
    /// the remaining kept specification with the smallest *incremental* cost
    /// (per-test cost plus its insertion's setup cost if no earlier stage
    /// already opened that insertion), ties broken by column index.  This is
    /// the default deploy-time order — devices that exit early skip the most
    /// expensive tail.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::UnknownSpecification`] when the cost model
    /// does not cover the kept columns.
    pub fn cheapest_first(program: &'p TesterProgram, cost_model: &TestCostModel) -> Result<Self> {
        let stages = cost_model.cheapest_order(&program.kept)?;
        TestPlan::with_stages(program, stages)
    }

    /// A plan with an explicit stage order.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::DimensionMismatch`] when the stage count
    /// differs from the kept set,
    /// [`CompactionError::UnknownSpecification`] when a stage is not a kept
    /// column, and [`CompactionError::InvalidConfig`] on duplicates.
    pub fn with_stages(program: &'p TesterProgram, stages: Vec<usize>) -> Result<Self> {
        if stages.len() != program.kept.len() {
            return Err(CompactionError::DimensionMismatch {
                expected: program.kept.len(),
                found: stages.len(),
            });
        }
        let mut slots = Vec::with_capacity(stages.len());
        let mut seen = vec![false; program.kept.len()];
        for &column in &stages {
            let slot = program.kept.iter().position(|&k| k == column).ok_or(
                CompactionError::UnknownSpecification { index: column, count: program.specs.len() },
            )?;
            if seen[slot] {
                return Err(CompactionError::InvalidConfig {
                    parameter: "stages",
                    value: column as f64,
                });
            }
            seen[slot] = true;
            slots.push(slot);
        }
        Ok(TestPlan { program, stages, slots })
    }

    /// The program this plan schedules.
    pub fn program(&self) -> &'p TesterProgram {
        self.program
    }

    /// Specification columns in measurement order.
    pub fn stages(&self) -> &[usize] {
        &self.stages
    }

    /// Number of measurement stages (the kept-set size).
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the plan has no stages (an empty kept set; never produced by
    /// the pipeline).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Cumulative measurement cost after each stage under a cost model:
    /// `prefix_costs(m)[d]` is what a device that exits after `d + 1`
    /// measurements paid.  The last entry equals the static kept-set cost.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::UnknownSpecification`] when the cost model
    /// does not cover the kept columns.
    pub fn prefix_costs(&self, cost_model: &TestCostModel) -> Result<Vec<f64>> {
        let mut costs = Vec::with_capacity(self.stages.len());
        for end in 1..=self.stages.len() {
            costs.push(cost_model.cost_of(&self.stages[..end])?);
        }
        Ok(costs)
    }

    /// Starts a sequential session over this plan.
    pub fn begin(&self) -> SequentialSession<'p> {
        let kept_len = self.program.kept.len();
        SequentialSession {
            program: self.program,
            stages: self.stages.clone(),
            slots: self.slots.clone(),
            next: 0,
            lower: vec![0.0; kept_len],
            upper: vec![1.0; kept_len],
            verdict: None,
        }
    }
}

/// Outcome of one [`SequentialSession::measure`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepVerdict {
    /// The device's verdict is settled; remaining measurements are
    /// irrelevant and the session accepts no further input.
    Decided(Prediction),
    /// More measurements are needed; `next` is the specification column to
    /// measure next.
    NeedMore {
        /// Specification column of the next stage.
        next: usize,
    },
}

/// An in-flight per-device walk of a [`TestPlan`], fed one measurement at a
/// time.
///
/// The session decides as early as soundness allows:
///
/// * a measurement violating its own specification range rejects the device
///   immediately (the one-shot path rejects on any kept-range violation, so
///   this is order-independent), and
/// * once the guard-banded model pair is provably **bad** over the whole box
///   of values the unmeasured stages could still take
///   ([`GuardBandedClassifier::classify_within`]), the device is rejected
///   without measuring them.
///
/// A *good* (or guard-band) verdict can never be emitted early: any
/// unmeasured kept specification could still be violated.  Because both
/// early-exit triggers are provably the final verdict, driving a session to
/// completion yields exactly what [`TesterProgram::classify`] returns — the
/// sequential mode only changes *when* the answer arrives, never what it is.
///
/// # Example
///
/// ```
/// use stc_core::tester::StepVerdict;
/// use stc_core::{Prediction, Specification, SpecificationSet, TesterProgram};
///
/// # fn main() -> Result<(), stc_core::CompactionError> {
/// let specs = SpecificationSet::new(vec![
///     Specification::new("gain", "dB", 60.0, 55.0, 65.0)?,
///     Specification::new("offset", "mV", 0.0, -5.0, 5.0)?,
/// ])?;
/// let program = TesterProgram::complete(specs);
///
/// let mut session = program.begin();
/// // The gain passes its range: the verdict is still open.
/// assert_eq!(session.measure(60.0)?, StepVerdict::NeedMore { next: 1 });
/// // The offset violates its range: rejected without further stages.
/// assert_eq!(session.measure(9.0)?, StepVerdict::Decided(Prediction::Bad));
/// assert_eq!(session.verdict(), Some(Prediction::Bad));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SequentialSession<'p> {
    program: &'p TesterProgram,
    stages: Vec<usize>,
    slots: Vec<usize>,
    next: usize,
    /// Per kept slot: the box of normalised values the device can still
    /// have.  Unmeasured in-range slots span `[0, 1]`; measured slots are
    /// pinned to a point.
    lower: Vec<f64>,
    upper: Vec<f64>,
    verdict: Option<Prediction>,
}

impl SequentialSession<'_> {
    /// Feeds the raw measurement of the current stage and reports whether
    /// the verdict is settled.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::DimensionMismatch`] when the session is
    /// already decided or exhausted, and [`CompactionError::Classifier`]
    /// when a detached (deserialised) model must be consulted for the final
    /// verdict.
    pub fn measure(&mut self, value: f64) -> Result<StepVerdict> {
        if self.verdict.is_some() || self.next >= self.stages.len() {
            return Err(CompactionError::DimensionMismatch {
                expected: self.stages.len(),
                found: self.stages.len() + 1,
            });
        }
        let column = self.stages[self.next];
        let slot = self.slots[self.next];
        let spec = self.program.specs.spec(column);
        self.next += 1;
        // The kept tests are real measurements: a device violating one of
        // their ranges is rejected outright, whatever the model would say.
        if !spec.passes(value) {
            self.verdict = Some(Prediction::Bad);
            return Ok(StepVerdict::Decided(Prediction::Bad));
        }
        let normalised = spec.normalize(value);
        self.lower[slot] = normalised;
        self.upper[slot] = normalised;
        if self.next == self.stages.len() {
            // Every range passed and every slot is pinned: `lower` is the
            // exact feature vector the one-shot path would build.
            let verdict = match &self.program.model {
                TesterModel::CompleteSuite => Prediction::Good,
                TesterModel::Exact(classifier) => classifier.classify_features(&self.lower),
                TesterModel::LookupTable(table) => table.classify_features(&self.lower),
                TesterModel::Detached { backend, .. } => {
                    return Err(CompactionError::Classifier {
                        backend: backend.clone(),
                        message: "a detached (deserialised) exact model cannot classify devices; \
                                  retrain or deploy a lookup table"
                            .to_owned(),
                    })
                }
            };
            self.verdict = Some(verdict);
            return Ok(StepVerdict::Decided(verdict));
        }
        // Model-based early exit.  Only a provably-bad box is sound: every
        // in-range completion classifies bad, and every out-of-range
        // completion is bad by the range check above — so the final verdict
        // is bad whatever the remaining measurements turn out to be.  A
        // provably-good box proves nothing (an unmeasured kept range could
        // still be violated).
        let box_verdict = match &self.program.model {
            TesterModel::Exact(classifier) => classifier.classify_within(&self.lower, &self.upper),
            TesterModel::LookupTable(table) => table.classify_within(&self.lower, &self.upper),
            TesterModel::CompleteSuite | TesterModel::Detached { .. } => None,
        };
        if box_verdict == Some(Prediction::Bad) {
            self.verdict = Some(Prediction::Bad);
            return Ok(StepVerdict::Decided(Prediction::Bad));
        }
        Ok(StepVerdict::NeedMore { next: self.stages[self.next] })
    }

    /// Number of measurements taken so far.
    pub fn measured(&self) -> usize {
        self.next
    }

    /// The settled verdict, or `None` while the session still needs
    /// measurements.
    pub fn verdict(&self) -> Option<Prediction> {
        self.verdict
    }

    /// Specification column of the next stage, or `None` when the session
    /// is decided or exhausted.
    pub fn next_stage(&self) -> Option<usize> {
        if self.verdict.is_some() {
            None
        } else {
            self.stages.get(self.next).copied()
        }
    }
}

/// Deploy-time statistics of running a [`TestPlan`] sequentially over a
/// population: how deep the sessions went and what they cost per device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequentialStats {
    /// Specification columns in the measurement order the stats were
    /// collected under.
    pub stage_order: Vec<usize>,
    /// Devices driven through the plan.
    pub devices: usize,
    /// Devices decided before the last stage (their remaining measurements
    /// were skipped).
    pub early_exits: usize,
    /// Decision-depth histogram: `decision_depths[d]` devices were decided
    /// after exactly `d + 1` measurements (length = stage count).
    pub decision_depths: Vec<usize>,
    /// Mean number of measurements per device.
    pub mean_depth: f64,
    /// Expected measurement cost per device under the observed early-exit
    /// distribution (mean of the per-device prefix costs).
    pub expected_cost: f64,
    /// Cost of measuring the full kept set on every device — the static
    /// compaction result the sequential mode improves on.
    pub static_cost: f64,
}

impl SequentialStats {
    /// Drives every device of a population through the plan and collects
    /// the depth histogram and per-device expected cost under `cost_model`,
    /// on the caller's thread.
    ///
    /// A pipeline run collects the same statistics in the pass that also
    /// scores its deployed tester, on
    /// [`CompactionConfig::threads`](crate::CompactionConfig::threads)
    /// workers; the figures are identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CompactionError::Classifier`] when the program carries a
    /// detached model (a session that survives to the last stage must
    /// consult it) and cost-model coverage errors.
    pub fn collect(
        plan: &TestPlan<'_>,
        cost_model: &TestCostModel,
        data: &MeasurementSet,
    ) -> Result<Self> {
        Ok(SequentialStats::deploy(plan, cost_model, data, 1)?.0)
    }

    /// [`SequentialStats::collect`] on up to `threads` workers that also
    /// scores each device's verdict against its ground truth.
    ///
    /// A session exits early only on its final verdict, and that verdict
    /// is what [`TesterProgram::classify`] returns, so the breakdown equals
    /// [`TesterProgram::try_evaluate`] on the plan's program.  Devices run
    /// in fixed-size chunks whose counts are summed in chunk order, so
    /// neither figure depends on the thread count.
    pub(crate) fn deploy(
        plan: &TestPlan<'_>,
        cost_model: &TestCostModel,
        data: &MeasurementSet,
        threads: usize,
    ) -> Result<(Self, ErrorBreakdown)> {
        let prefix_costs = plan.prefix_costs(cost_model)?;
        let truths = data.labels();
        let chunks = pool::try_run_indexed(data.len().div_ceil(DEPLOY_CHUNK), threads, |chunk| {
            let mut depths = vec![0usize; plan.len()];
            let mut breakdown = ErrorBreakdown::default();
            let devices = chunk * DEPLOY_CHUNK..data.len().min((chunk + 1) * DEPLOY_CHUNK);
            for (i, &truth) in devices.clone().zip(&truths[devices]) {
                let mut session = plan.begin();
                for &column in plan.stages() {
                    if let StepVerdict::Decided(prediction) =
                        session.measure(data.value(i, column))?
                    {
                        breakdown.record(truth, prediction);
                        break;
                    }
                }
                depths[session.measured() - 1] += 1;
            }
            Ok((depths, breakdown))
        })?;
        let mut decision_depths = vec![0usize; plan.len()];
        let mut deployed = ErrorBreakdown::default();
        for (depths, breakdown) in &chunks {
            for (total, count) in decision_depths.iter_mut().zip(depths) {
                *total += count;
            }
            deployed.merge(breakdown);
        }
        let devices = data.len();
        let early_exits = devices - decision_depths.last().copied().unwrap_or(0);
        let scale = if devices == 0 { 0.0 } else { 1.0 / devices as f64 };
        let mean_depth = decision_depths
            .iter()
            .enumerate()
            .map(|(d, &count)| (d + 1) as f64 * count as f64)
            .sum::<f64>()
            * scale;
        let expected_cost = decision_depths
            .iter()
            .zip(prefix_costs.iter())
            .map(|(&count, &cost)| count as f64 * cost)
            .sum::<f64>()
            * scale;
        let static_cost = prefix_costs.last().copied().unwrap_or(0.0);
        let stats = SequentialStats {
            stage_order: plan.stages().to_vec(),
            devices,
            early_exits,
            decision_depths,
            mean_depth,
            expected_cost,
            static_cost,
        };
        Ok((stats, deployed))
    }

    /// Fraction of devices decided before the last stage.
    pub fn early_exit_fraction(&self) -> f64 {
        if self.devices == 0 {
            0.0
        } else {
            self.early_exits as f64 / self.devices as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SyntheticDevice;
    use crate::guardband::GuardBandConfig;
    use crate::montecarlo::{generate_train_test, MonteCarloConfig};

    fn setup() -> (MeasurementSet, MeasurementSet, GuardBandedClassifier) {
        let device = SyntheticDevice::new(3, 1.5, 0.85);
        let (train, test) =
            generate_train_test(&device, &MonteCarloConfig::new(400).with_seed(55), 200).unwrap();
        let classifier = GuardBandedClassifier::train_with(
            &crate::classifier::GridBackend::default(),
            &train,
            &[0, 1],
            &GuardBandConfig::paper_default(),
        )
        .unwrap();
        (train, test, classifier)
    }

    #[test]
    fn exact_program_matches_direct_classifier_evaluation() {
        let (train, test, classifier) = setup();
        let program = TesterProgram::with_model(train.specs().clone(), classifier.clone());
        assert_eq!(program.kept(), &[0, 1]);
        assert_eq!(program.kept_names(), vec!["spec0", "spec1"]);
        assert!(matches!(program.model(), TesterModel::Exact(_)));
        let direct = classifier.evaluate(&test);
        let deployed = program.evaluate(&test);
        assert_eq!(direct.yield_loss_count, deployed.yield_loss_count);
        assert_eq!(direct.defect_escape_count, deployed.defect_escape_count);
    }

    #[test]
    fn lookup_table_program_is_close_to_the_exact_program() {
        let (train, test, classifier) = setup();
        let exact_program = TesterProgram::with_model(train.specs().clone(), classifier.clone());
        let table_program =
            TesterProgram::with_lookup_table(train.specs().clone(), &classifier, 64).unwrap();
        assert!(matches!(table_program.model(), TesterModel::LookupTable(_)));
        let exact_eval = exact_program.evaluate(&test);
        let table_eval = table_program.evaluate(&test);
        assert!(
            (exact_eval.prediction_error() - table_eval.prediction_error()).abs() < 0.03,
            "exact {:?} table {:?}",
            exact_eval,
            table_eval
        );
    }

    #[test]
    fn classify_rejects_wrong_measurement_count_and_bad_kept_values() {
        let (train, _, classifier) = setup();
        let program = TesterProgram::with_model(train.specs().clone(), classifier);
        assert!(program.classify(&[0.0]).is_err());
        // A kept measurement far outside its range is rejected outright.
        assert_eq!(program.classify(&[99.0, 0.0]).unwrap(), Prediction::Bad);
    }

    /// A session driven over every plan order agrees with the one-shot
    /// verdict on every device of the population.
    #[test]
    fn sequential_sessions_match_the_one_shot_verdict() {
        let (train, test, classifier) = setup();
        let programs = [
            TesterProgram::with_model(train.specs().clone(), classifier.clone()),
            TesterProgram::with_lookup_table(train.specs().clone(), &classifier, 32).unwrap(),
            TesterProgram::complete(train.specs().clone()),
        ];
        for program in &programs {
            let orders: Vec<Vec<usize>> =
                vec![program.kept().to_vec(), program.kept().iter().rev().copied().collect()];
            for order in orders {
                let plan = TestPlan::with_stages(program, order).unwrap();
                for i in 0..test.len() {
                    let kept_measurements: Vec<f64> =
                        program.kept().iter().map(|&c| test.value(i, c)).collect();
                    let one_shot = program.classify(&kept_measurements).unwrap();
                    let mut session = plan.begin();
                    let mut verdict = None;
                    for &column in plan.stages() {
                        if let StepVerdict::Decided(p) =
                            session.measure(test.value(i, column)).unwrap()
                        {
                            verdict = Some(p);
                            break;
                        }
                    }
                    assert_eq!(verdict.expect("full plan always decides"), one_shot);
                }
            }
        }
    }

    #[test]
    fn decided_sessions_reject_further_measurements() {
        let (train, _, classifier) = setup();
        let program = TesterProgram::with_model(train.specs().clone(), classifier);
        let mut session = program.begin();
        assert_eq!(session.measure(99.0).unwrap(), StepVerdict::Decided(Prediction::Bad));
        assert_eq!(session.verdict(), Some(Prediction::Bad));
        assert_eq!(session.next_stage(), None);
        assert!(session.measure(0.0).is_err());
    }

    #[test]
    fn plan_validation_rejects_foreign_and_duplicate_stages() {
        let (train, _, classifier) = setup();
        let program = TesterProgram::with_model(train.specs().clone(), classifier);
        assert!(TestPlan::with_stages(&program, vec![0]).is_err());
        assert!(TestPlan::with_stages(&program, vec![0, 2]).is_err());
        assert!(TestPlan::with_stages(&program, vec![0, 0]).is_err());
        assert!(TestPlan::with_stages(&program, vec![1, 0]).is_ok());
    }

    #[test]
    fn cheapest_first_puts_the_expensive_stage_last() {
        let (train, _, classifier) = setup();
        let program = TesterProgram::with_model(train.specs().clone(), classifier);
        let costs = TestCostModel::new(vec![1.0, 5.0, 1.0], vec![0, 0, 0], vec![0.0]).unwrap();
        let plan = TestPlan::cheapest_first(&program, &costs).unwrap();
        assert_eq!(plan.stages(), &[0, 1]);
        let reversed = TestCostModel::new(vec![5.0, 1.0, 1.0], vec![0, 0, 0], vec![0.0]).unwrap();
        let plan = TestPlan::cheapest_first(&program, &reversed).unwrap();
        assert_eq!(plan.stages(), &[1, 0]);
    }

    #[test]
    fn sequential_stats_expected_cost_never_exceeds_static_cost() {
        let (train, test, classifier) = setup();
        let program = TesterProgram::with_model(train.specs().clone(), classifier);
        let costs = TestCostModel::uniform(train.specs().len());
        let plan = TestPlan::cheapest_first(&program, &costs).unwrap();
        let stats = SequentialStats::collect(&plan, &costs, &test).unwrap();
        assert_eq!(stats.devices, test.len());
        assert_eq!(stats.decision_depths.iter().sum::<usize>(), test.len());
        assert!(stats.expected_cost <= stats.static_cost + 1e-12);
        assert!((stats.expected_cost - costs.expected_cost(&plan, &test).unwrap()).abs() < 1e-12);
    }

    /// A deserialised (detached) program fails `try_evaluate` with a
    /// classifier error instead of panicking — unless a range violation
    /// already decided the device.
    #[test]
    fn detached_programs_error_instead_of_panicking() {
        let (train, test, classifier) = setup();
        // What deserialising an `Exact` program yields (see the
        // `TesterModel` serialisation contract).
        let detached = TesterProgram {
            specs: train.specs().clone(),
            kept: classifier.kept().to_vec(),
            model: TesterModel::Detached {
                backend: classifier.backend().to_string(),
                kept: classifier.kept().to_vec(),
            },
        };
        assert!(matches!(detached.model(), TesterModel::Detached { .. }));
        assert!(matches!(detached.try_evaluate(&test), Err(CompactionError::Classifier { .. })));
        // Range violations still decide without the model.
        assert_eq!(detached.classify(&[99.0, 0.0]).unwrap(), Prediction::Bad);
    }
}
