//! Blocked columnar kernel row assembly — the SMO hot path.
//!
//! Training one SVM per candidate kept set makes kernel-**row** evaluation
//! the dominant cost of the compaction loop: the solver asks its `QMatrix`
//! for `Q[i][·]` once per working-set iteration, and the pre-0.8 path
//! answered by calling [`Kernel::eval`] per element over gathered row-major
//! slices — recomputing every squared distance from scratch.
//!
//! [`KernelEngine`] replaces that with three cooperating optimizations:
//!
//! 1. **Blocked columnar dot rows.** The [`Dataset`] stores features
//!    column-major in contiguous `Arc`-shared lanes, so the dot products of
//!    sample `i` against *all* samples are accumulated one feature column at
//!    a time (`out[j] += x[i][c] * x[j][c]` over a contiguous column slice).
//!    Each pass is a bounds-check-free axpy the compiler auto-vectorizes,
//!    and the per-`j` accumulator starts at `0.0` and visits the columns in
//!    ascending feature order, so a row is a pure function of the data.
//! 2. **Precomputed squared norms.** `‖x_i‖²` is computed once per dataset,
//!    so an RBF row reduces to the fused dot-row pass plus one vectorizable
//!    `exp` loop via `‖x_i − x_j‖² = ‖x_i‖² + ‖x_j‖² − 2·x_i·x_j` (clamped
//!    at zero: the expansion can go negative by one ulp where the true
//!    distance vanishes).
//! 3. **Incremental candidate rows.** Consecutive candidates of the
//!    backward searches differ from their committed parent by one feature
//!    column, and every candidate dataset of a run shares its column
//!    allocations through the `stc_core` normalized-column cache.  A parent
//!    training therefore *banks* its hottest dot rows ([`DotRowBank`]), and
//!    a child engine seeds itself by **adjusting** each banked row with only
//!    the differing columns (`row'[j] = row[j] − Σ_removed c[i]·c[j] +
//!    Σ_added c[i]·c[j]`, columns matched by `Arc` pointer identity) instead
//!    of recomputing `O(n·d)` from scratch.
//!
//! # Numerical contract
//!
//! * `KernelPath::Naive` reproduces the pre-engine numerics **bit for bit**:
//!   rows are gathered once and every element goes through [`Kernel::eval`].
//! * `KernelPath::Blocked` without a bank is within one ulp of the
//!   per-element result for off-diagonal entries (the norm expansion
//!   reassociates the subtraction); the diagonal is exactly `1.0` either
//!   way.  Property tests in `tests/properties.rs` pin both statements.
//! * Bank-seeded rows reassociate further (one fused multiply-add per
//!   differing column), staying within a few ulps of the scratch row.  Both
//!   deviations are orders of magnitude below the solver's stopping
//!   tolerance; the compaction-level property tests pin that kept sets are
//!   byte-identical between the `Blocked` and `Naive` paths.
//!
//! # Determinism
//!
//! Row assembly is a pure function of the dataset values, the kernel, and
//! the (deterministically recorded) parent bank.  Banks record the first
//! `record_cap` distinct rows the solver touches — a deterministic sequence
//! for a deterministic solver — so training results never depend on thread
//! count or timing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::kernel::Kernel;

/// Which kernel row-assembly implementation a trainer uses.
///
/// The default is [`KernelPath::Blocked`]; [`KernelPath::Naive`] reproduces
/// the pre-0.8 per-element [`Kernel::eval`] numerics bit-for-bit and exists
/// as the property-test reference and as an escape hatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelPath {
    /// Blocked columnar dot rows with precomputed norms and (when a parent
    /// bank is available) incremental candidate-row adjustment.
    #[default]
    Blocked,
    /// Gathered row-major features and per-element [`Kernel::eval`] — the
    /// reference implementation.
    Naive,
}

/// Soft cap on the total number of `f64`s a bank may hold (rows × samples).
/// 2M values ≈ 16 MiB per committed frontier model.
const BANK_VALUE_BUDGET: usize = 2_000_000;
/// Hard cap on banked rows regardless of population size.
const BANK_MAX_ROWS: usize = 96;
/// Minimum rows worth banking when the population is huge.
const BANK_MIN_ROWS: usize = 8;

fn bank_capacity(samples: usize) -> usize {
    (BANK_VALUE_BUDGET / samples.max(1)).clamp(BANK_MIN_ROWS, BANK_MAX_ROWS)
}

/// Rows assembled together per column sweep of
/// [`KernelEngine::kernel_rows`]: each shared column slice is streamed from
/// memory once per block instead of once per row, which amortizes the
/// memory traffic the dot-row pass is bound by (the arithmetic itself
/// vectorizes either way).  Kept small so a block of row accumulators stays
/// inside the L1/L2 working set alongside the column lane.
const ROW_BLOCK: usize = 4;

/// How an engine used — or could not use — the parent [`DotRowBank`] it was
/// given, captured after training via [`KernelEngine::usage`].
///
/// `ignored_bank` is the previously silent failure mode this surfaces: a
/// bank was supplied but could not be applied (naive path, foreign column
/// universe, or a column-set distance that makes adjustment no cheaper than
/// recomputation), so every row was rebuilt from scratch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineUsage {
    /// Rows seeded by adjusting parent-bank rows.
    pub seeded_rows: usize,
    /// Rows assembled from scratch (full column sweeps).
    pub rebuilt_rows: usize,
    /// Whether a non-empty parent bank was supplied but not applicable.
    pub ignored_bank: bool,
}

/// Dot-product rows banked by a parent training for reuse by its candidate
/// children (see the [module docs](self)).
///
/// A bank remembers the feature columns it was computed over (`Arc`s shared
/// with the parent dataset) and up to [`DotRowBank::len`] rows of
/// `x_i · x_j` values.  Children match columns by pointer identity, so a
/// bank can only ever be applied to datasets drawn from the same shared
/// column universe — anything else degrades to a cold start.
#[derive(Debug, Clone, Default)]
pub struct DotRowBank {
    columns: Vec<Arc<[f64]>>,
    rows: Vec<(usize, Arc<[f64]>)>,
}

impl DotRowBank {
    /// Number of banked rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the bank holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Columnar kernel row assembler for one dataset (see the
/// [module docs](self)).
///
/// An engine borrows its dataset, precomputes the per-sample squared norms
/// (blocked path) or gathers row-major features once (naive path), and then
/// serves [`KernelEngine::kernel_row`] / [`KernelEngine::diag`] to the
/// solver's `QMatrix` implementations.  After training,
/// [`KernelEngine::into_bank`] hands the recorded dot rows to the caller for
/// the next candidate generation.
#[derive(Debug)]
pub struct KernelEngine<'a> {
    data: &'a Dataset,
    kernel: Kernel,
    path: KernelPath,
    /// `‖x_i‖²` per sample (blocked path; empty on the naive path).
    norms: Vec<f64>,
    /// Gathered row-major features (naive path; empty on the blocked path).
    naive_rows: Vec<Vec<f64>>,
    /// Dot rows adjusted from a parent bank, keyed by sample index.
    seeded: BTreeMap<usize, Arc<[f64]>>,
    /// Dot rows recorded during this training, keyed by sample index.
    recorded: RefCell<BTreeMap<usize, Arc<[f64]>>>,
    record_cap: usize,
    /// Scratch dot rows assembled (cache/seed misses), for [`EngineUsage`].
    rebuilt: Cell<usize>,
    /// Whether a non-empty parent bank was supplied but inapplicable.
    ignored_bank: bool,
}

impl<'a> KernelEngine<'a> {
    /// Builds an engine with no parent bank.
    pub fn new(data: &'a Dataset, kernel: Kernel, path: KernelPath) -> Self {
        KernelEngine::with_bank(data, kernel, path, None)
    }

    /// Builds an engine, seeding its dot rows from a parent bank when one is
    /// given and applicable (blocked path, shared column universe, matching
    /// population size).  An inapplicable bank is silently ignored — the
    /// engine then behaves exactly like [`KernelEngine::new`].
    pub fn with_bank(
        data: &'a Dataset,
        kernel: Kernel,
        path: KernelPath,
        bank: Option<&DotRowBank>,
    ) -> Self {
        let mut engine = match path {
            KernelPath::Blocked => {
                let mut norms = vec![0.0; data.len()];
                for column in data.shared_columns() {
                    for (norm, &value) in norms.iter_mut().zip(column.iter()) {
                        *norm += value * value;
                    }
                }
                KernelEngine {
                    data,
                    kernel,
                    path,
                    norms,
                    naive_rows: Vec::new(),
                    seeded: BTreeMap::new(),
                    recorded: RefCell::new(BTreeMap::new()),
                    record_cap: bank_capacity(data.len()),
                    rebuilt: Cell::new(0),
                    ignored_bank: false,
                }
            }
            KernelPath::Naive => KernelEngine {
                data,
                kernel,
                path,
                norms: Vec::new(),
                naive_rows: (0..data.len()).map(|i| data.features(i)).collect(),
                seeded: BTreeMap::new(),
                recorded: RefCell::new(BTreeMap::new()),
                record_cap: 0,
                rebuilt: Cell::new(0),
                ignored_bank: false,
            },
        };
        match (engine.path, bank) {
            (KernelPath::Blocked, Some(bank)) => engine.seed_from(bank),
            // The naive path never seeds: a supplied non-empty bank is
            // ignored, and the diagnostics say so instead of staying silent.
            (KernelPath::Naive, Some(bank)) => engine.ignored_bank = !bank.is_empty(),
            (_, None) => {}
        }
        engine
    }

    /// Number of samples the engine serves rows over.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the engine serves an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The number of rows seeded from the parent bank (diagnostic).
    pub fn seeded_rows(&self) -> usize {
        self.seeded.len()
    }

    /// Bank-usage diagnostics accumulated so far (see [`EngineUsage`]).
    pub fn usage(&self) -> EngineUsage {
        EngineUsage {
            seeded_rows: self.seeded.len(),
            rebuilt_rows: self.rebuilt.get(),
            ignored_bank: self.ignored_bank,
        }
    }

    /// Adjusts the applicable bank rows to this dataset's column set.
    fn seed_from(&mut self, bank: &DotRowBank) {
        if bank.is_empty() {
            return;
        }
        let columns = self.data.shared_columns();
        let removed: Vec<&Arc<[f64]>> = bank
            .columns
            .iter()
            .filter(|parent| !columns.iter().any(|ours| Arc::ptr_eq(ours, parent)))
            .collect();
        let added: Vec<&Arc<[f64]>> = columns
            .iter()
            .filter(|ours| !bank.columns.iter().any(|parent| Arc::ptr_eq(ours, parent)))
            .collect();
        // Adjustment must be strictly cheaper than recomputation, and the
        // bank must describe the same population (row length = sample count).
        if removed.len() + added.len() >= self.data.dimension() {
            self.ignored_bank = true;
            return;
        }
        let n = self.data.len();
        if removed.iter().chain(&added).any(|column| column.len() != n) {
            self.ignored_bank = true;
            return;
        }
        for (index, parent_row) in &bank.rows {
            if *index >= n || parent_row.len() != n {
                continue;
            }
            // One copy, straight into the `Arc` the engine keeps, adjusted
            // in place.
            let mut adjusted: Arc<[f64]> = Arc::from(&parent_row[..]);
            let values = Arc::get_mut(&mut adjusted).expect("a new Arc is unique");
            for column in &removed {
                let xi = column[*index];
                for (value, &xj) in values.iter_mut().zip(column.iter()) {
                    *value -= xi * xj;
                }
            }
            for column in &added {
                let xi = column[*index];
                for (value, &xj) in values.iter_mut().zip(column.iter()) {
                    *value += xi * xj;
                }
            }
            self.seeded.insert(*index, adjusted);
        }
    }

    /// Writes the dot products of sample `i` against every sample into
    /// `out`, one blocked pass per feature column.
    fn dot_row(&self, i: usize, out: &mut [f64]) {
        out.fill(0.0);
        for column in self.data.shared_columns() {
            let xi = column[i];
            for (acc, &xj) in out.iter_mut().zip(column.iter()) {
                *acc += xi * xj;
            }
        }
    }

    /// Maps a dot row to kernel values in place, through the squared
    /// norms.
    fn apply_kernel(&self, i: usize, out: &mut [f64]) {
        let Kernel::Rbf { gamma } = self.kernel;
        let norm_i = self.norms[i];
        for (value, &norm_j) in out.iter_mut().zip(&self.norms) {
            let distance = (norm_i + norm_j - 2.0 * *value).max(0.0);
            *value = (-gamma * distance).exp();
        }
    }

    /// Writes `K(x_i, x_j)` for every `j` into `out`.
    ///
    /// Blocked path: seeded/recorded dot rows are reused when available,
    /// fresh rows are recorded (up to the bank budget) for the next
    /// generation.  Naive path: per-element [`Kernel::eval`] over the
    /// gathered rows, bit-identical to the pre-engine implementation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `out.len() != self.len()`.
    pub fn kernel_row(&self, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "kernel row buffer length mismatch");
        match self.path {
            KernelPath::Naive => {
                let row_i = &self.naive_rows[i];
                for (value, row_j) in out.iter_mut().zip(&self.naive_rows) {
                    *value = self.kernel.eval(row_i, row_j);
                }
            }
            KernelPath::Blocked => {
                {
                    // A row takes a bank slot only while the bank has room,
                    // so a dot row is copied into an `Arc` only then.
                    let mut recorded = self.recorded.borrow_mut();
                    let room = recorded.len() < self.record_cap;
                    if let Some(row) = recorded.get(&i) {
                        out.copy_from_slice(row);
                    } else if let Some(row) = self.seeded.get(&i) {
                        out.copy_from_slice(row);
                        if room {
                            recorded.insert(i, Arc::clone(row));
                        }
                    } else {
                        self.dot_row(i, out);
                        self.rebuilt.set(self.rebuilt.get() + 1);
                        if room {
                            recorded.insert(i, Arc::from(&out[..]));
                        }
                    }
                }
                self.apply_kernel(i, out);
            }
        }
    }

    /// Writes `K(x_{i_r}, x_j)` for every requested row `i_r` of `indices`
    /// and every `j` into `rows[r]`.
    ///
    /// Results and side effects are **identical** to calling
    /// [`KernelEngine::kernel_row`] once per index in order — same
    /// bit-exact values (each row's dot products still accumulate one
    /// ascending feature column at a time from a zero accumulator), same
    /// recorded-row bank contents.  The win is bandwidth: scratch rows are
    /// assembled `ROW_BLOCK` at a time, so each shared column lane
    /// streams from memory once per block instead of once per row, and the
    /// `exp` pass runs per row afterwards as before.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, if `rows` and `indices` differ
    /// in length, or if a row buffer's length is not [`KernelEngine::len`].
    pub fn kernel_rows(&self, indices: &[usize], rows: &mut [&mut [f64]]) {
        let n = self.len();
        assert!(
            rows.len() == indices.len() && rows.iter().all(|row| row.len() == n),
            "kernel rows buffer length mismatch"
        );
        if self.path == KernelPath::Naive {
            for (row, &i) in rows.iter_mut().zip(indices) {
                self.kernel_row(i, row);
            }
            return;
        }
        // Resolve cached rows and find the scratch work: `first[slot]` is
        // the slot whose scratch row an uncached index uses — its own for
        // the first occurrence, which assembles it, and that occurrence's
        // for a later duplicate, which copies it.
        let mut first: Vec<Option<usize>> = vec![None; indices.len()];
        let mut pending: Vec<usize> = Vec::new();
        {
            let recorded = self.recorded.borrow();
            for (slot, &i) in indices.iter().enumerate() {
                if let Some(row) = recorded.get(&i).or_else(|| self.seeded.get(&i)) {
                    rows[slot].copy_from_slice(row);
                } else {
                    let source = pending.iter().copied().find(|&p| indices[p] == i);
                    if source.is_none() {
                        pending.push(slot);
                    }
                    first[slot] = Some(source.unwrap_or(slot));
                }
            }
        }
        // Blocked scratch assembly: per block, one pass over the columns.
        for block in pending.chunks(ROW_BLOCK) {
            for &slot in block {
                rows[slot].fill(0.0);
            }
            for column in self.data.shared_columns() {
                for &slot in block {
                    let xi = column[indices[slot]];
                    for (acc, &xj) in rows[slot].iter_mut().zip(column.iter()) {
                        *acc += xi * xj;
                    }
                }
            }
        }
        self.rebuilt.set(self.rebuilt.get() + pending.len());
        // Record and post-process in request order, replicating the exact
        // per-call bookkeeping of `kernel_row` (first `record_cap` distinct
        // touches win a bank slot).  A first occurrence hands its *dot*
        // values to its duplicates before the kernel maps it in place.
        for slot in 0..indices.len() {
            let i = indices[slot];
            {
                let mut recorded = self.recorded.borrow_mut();
                let room = recorded.len() < self.record_cap;
                match first[slot] {
                    None => {
                        if room && !recorded.contains_key(&i) {
                            recorded.insert(i, Arc::clone(&self.seeded[&i]));
                        }
                    }
                    Some(source) if source == slot => {
                        if room {
                            recorded.insert(i, Arc::from(&*rows[slot]));
                        }
                        let (head, tail) = rows.split_at_mut(slot + 1);
                        for (row, &later) in tail.iter_mut().zip(&first[slot + 1..]) {
                            if later == Some(slot) {
                                row.copy_from_slice(head[slot]);
                            }
                        }
                    }
                    Some(_) => {}
                }
            }
            self.apply_kernel(i, rows[slot]);
        }
    }

    /// `K(x_i, x_i)` without assembling a row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn diag(&self, i: usize) -> f64 {
        match self.path {
            KernelPath::Naive => {
                let row = &self.naive_rows[i];
                self.kernel.eval(row, row)
            }
            // ‖x−x‖² is exactly zero, so the diagonal is exactly one.
            KernelPath::Blocked => 1.0,
        }
    }

    /// Consumes the engine, returning the dot rows recorded during training
    /// (plus this dataset's column identities) as a bank for candidate
    /// children.  Always empty on the naive path.
    pub fn into_bank(self) -> DotRowBank {
        DotRowBank {
            columns: self.data.shared_columns().to_vec(),
            rows: self.recorded.into_inner().into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(dimension: usize, samples: usize) -> Dataset {
        // Deterministic, mildly irregular values spanning sign changes.
        let columns: Vec<Vec<f64>> = (0..dimension)
            .map(|c| {
                (0..samples)
                    .map(|i| ((i * 7 + c * 3) % 11) as f64 * 0.37 - 1.5 + c as f64 * 0.01)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = columns.iter().map(|c| c.as_slice()).collect();
        let labels: Vec<f64> = (0..samples).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
        Dataset::from_columns(&refs, &labels).unwrap()
    }

    fn all_kernels() -> Vec<Kernel> {
        vec![Kernel::rbf(0.05), Kernel::rbf(0.45), Kernel::rbf(2.0)]
    }

    #[test]
    fn blocked_rows_match_naive_rows() {
        let data = toy(5, 37);
        for kernel in all_kernels() {
            let blocked = KernelEngine::new(&data, kernel, KernelPath::Blocked);
            let naive = KernelEngine::new(&data, kernel, KernelPath::Naive);
            let mut b = vec![0.0; data.len()];
            let mut n = vec![0.0; data.len()];
            for i in 0..data.len() {
                blocked.kernel_row(i, &mut b);
                naive.kernel_row(i, &mut n);
                for j in 0..data.len() {
                    // The norm expansion reassociates the subtraction.
                    assert!(
                        (b[j] - n[j]).abs() <= 1e-12,
                        "{kernel:?} row {i} col {j}: {} vs {}",
                        b[j],
                        n[j]
                    );
                }
                assert_eq!(blocked.diag(i), naive.diag(i), "{kernel:?} diag {i}");
            }
        }
    }

    #[test]
    fn bank_seeded_rows_match_scratch_rows() {
        let parent_data = toy(6, 41);
        let kernel = Kernel::rbf(0.3);
        let parent = KernelEngine::new(&parent_data, kernel, KernelPath::Blocked);
        let mut buffer = vec![0.0; parent_data.len()];
        for i in 0..parent_data.len() {
            parent.kernel_row(i, &mut buffer);
        }
        let bank = parent.into_bank();
        assert!(!bank.is_empty());
        // Child drops column 2 — the backward-elimination shape.
        let kept: Vec<usize> = (0..6).filter(|&c| c != 2).collect();
        let child_data = parent_data.select_columns(&kept).unwrap();
        let seeded = KernelEngine::with_bank(&child_data, kernel, KernelPath::Blocked, Some(&bank));
        assert_eq!(seeded.seeded_rows(), bank.len());
        let scratch = KernelEngine::new(&child_data, kernel, KernelPath::Blocked);
        let mut s = vec![0.0; child_data.len()];
        let mut c = vec![0.0; child_data.len()];
        for i in 0..child_data.len() {
            seeded.kernel_row(i, &mut s);
            scratch.kernel_row(i, &mut c);
            for j in 0..child_data.len() {
                assert!(
                    (s[j] - c[j]).abs() <= 1e-12,
                    "row {i} col {j}: seeded {} vs scratch {}",
                    s[j],
                    c[j]
                );
            }
        }
    }

    #[test]
    fn unrelated_bank_is_ignored() {
        let parent_data = toy(4, 20);
        let kernel = Kernel::rbf(0.5);
        let parent = KernelEngine::new(&parent_data, kernel, KernelPath::Blocked);
        let mut buffer = vec![0.0; parent_data.len()];
        parent.kernel_row(0, &mut buffer);
        let bank = parent.into_bank();
        // A dataset with the same values but fresh allocations shares no
        // columns, so the bank must not seed anything.
        let stranger = toy(4, 20);
        let engine = KernelEngine::with_bank(&stranger, kernel, KernelPath::Blocked, Some(&bank));
        assert_eq!(engine.seeded_rows(), 0);
        // A naive engine records nothing.
        let naive = KernelEngine::new(&stranger, kernel, KernelPath::Naive);
        naive.kernel_row(0, &mut buffer);
        assert!(naive.into_bank().is_empty());
    }

    #[test]
    fn batched_rows_match_sequential_rows_bit_for_bit() {
        let data = toy(5, 33);
        // Duplicates and repeats on purpose: the batch must replicate the
        // per-call record bookkeeping exactly.
        let indices = [3usize, 0, 7, 3, 12, 0, 5, 9, 1, 12];
        for kernel in all_kernels() {
            for path in [KernelPath::Blocked, KernelPath::Naive] {
                let sequential = KernelEngine::new(&data, kernel, path);
                let batched = KernelEngine::new(&data, kernel, path);
                let mut expected = vec![0.0; data.len()];
                let mut out = vec![vec![0.0; data.len()]; indices.len()];
                let mut rows: Vec<&mut [f64]> = out.iter_mut().map(Vec::as_mut_slice).collect();
                batched.kernel_rows(&indices, &mut rows);
                for (got, &i) in out.iter().zip(&indices) {
                    sequential.kernel_row(i, &mut expected);
                    for (a, b) in got.iter().zip(expected.iter()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?} {path:?} row {i}");
                    }
                }
                let (a, b) = (sequential.into_bank(), batched.into_bank());
                assert_eq!(a.rows.len(), b.rows.len());
                for ((ia, ra), (ib, rb)) in a.rows.iter().zip(b.rows.iter()) {
                    assert_eq!(ia, ib);
                    assert_eq!(ra.as_ref(), rb.as_ref());
                }
            }
        }
    }

    #[test]
    fn batched_rows_reuse_seeded_rows() {
        let parent_data = toy(6, 29);
        let kernel = Kernel::rbf(0.4);
        let parent = KernelEngine::new(&parent_data, kernel, KernelPath::Blocked);
        let mut buffer = vec![0.0; parent_data.len()];
        for i in 0..parent_data.len() {
            parent.kernel_row(i, &mut buffer);
        }
        let bank = parent.into_bank();
        let kept: Vec<usize> = (0..6).filter(|&c| c != 4).collect();
        let child_data = parent_data.select_columns(&kept).unwrap();
        let seeded = KernelEngine::with_bank(&child_data, kernel, KernelPath::Blocked, Some(&bank));
        let indices: Vec<usize> = (0..child_data.len()).collect();
        let mut out = vec![vec![0.0; child_data.len()]; indices.len()];
        let mut rows: Vec<&mut [f64]> = out.iter_mut().map(Vec::as_mut_slice).collect();
        seeded.kernel_rows(&indices, &mut rows);
        let usage = seeded.usage();
        assert_eq!(usage.seeded_rows, bank.len());
        assert_eq!(usage.rebuilt_rows, child_data.len() - bank.len());
        assert!(!usage.ignored_bank);
    }

    #[test]
    fn usage_reports_ignored_banks() {
        let parent_data = toy(4, 20);
        let kernel = Kernel::rbf(0.5);
        let parent = KernelEngine::new(&parent_data, kernel, KernelPath::Blocked);
        let mut buffer = vec![0.0; parent_data.len()];
        parent.kernel_row(0, &mut buffer);
        let bank = parent.into_bank();
        // Foreign column universe: supplied but inapplicable.
        let stranger = toy(4, 20);
        let engine = KernelEngine::with_bank(&stranger, kernel, KernelPath::Blocked, Some(&bank));
        assert!(engine.usage().ignored_bank);
        // The naive path can never apply a bank either.
        let naive = KernelEngine::with_bank(&stranger, kernel, KernelPath::Naive, Some(&bank));
        assert!(naive.usage().ignored_bank);
        // No bank supplied: nothing to ignore, rebuilt rows still counted.
        let fresh = KernelEngine::new(&stranger, kernel, KernelPath::Blocked);
        fresh.kernel_row(3, &mut buffer);
        fresh.kernel_row(3, &mut buffer);
        let usage = fresh.usage();
        assert!(!usage.ignored_bank);
        assert_eq!(usage.seeded_rows, 0);
        assert_eq!(usage.rebuilt_rows, 1);
    }

    #[test]
    fn bank_capacity_is_bounded() {
        assert_eq!(bank_capacity(0), BANK_MAX_ROWS);
        assert_eq!(bank_capacity(10_000), BANK_MAX_ROWS);
        assert_eq!(bank_capacity(100_000), 20);
        assert_eq!(bank_capacity(1_000_000), BANK_MIN_ROWS);
    }
}
