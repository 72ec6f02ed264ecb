//! Sequential minimal optimization (SMO) solver.
//!
//! This is a LIBSVM-style dual solver for problems of the form
//!
//! ```text
//! minimize    0.5 * a' Q a + p' a
//! subject to  y' a = delta,   0 <= a_i <= C_i
//! ```
//!
//! where `Q[i][j] = y_i * y_j * K(x_i, x_j)`.  Both the C-SVC classifier
//! ([`crate::Svc`]) and the ε-SVR regressor ([`crate::Svr`]) reduce their dual
//! problems to this form and share the solver.
//!
//! The working-set selection picks the maximal violator and pairs it by
//! *second-order gain* (LIBSVM's WSS 2: maximise the two-variable objective
//! decrease); the stopping condition is the duality-gap surrogate
//! `m(a) - M(a) <= tolerance` from Keerthi et al.  Variables pinned at a
//! bound are periodically *shrunk* out of the working set (the standard
//! LIBSVM heuristic); before the solver accepts convergence of a shrunk
//! problem it restores every variable and re-checks the stopping condition
//! on the full set, so the returned solution always satisfies the global
//! KKT tolerance.
//!
//! The solver supports **warm starts** through
//! [`SmoProblem::initial_alpha`]: any box-feasible starting point is
//! accepted, and a start near the optimum (for example the projected
//! solution of a closely related problem) converges in a small fraction of
//! the cold-start iterations.
//!
//! # Row memory
//!
//! Each solve caches up to [`SmoParams::cache_rows`] rows of `Q`, one
//! buffer of [`QMatrix::len`] values per row.  The buffers come from a
//! process-wide free list, and a row the cache evicts, or still holds when
//! the solve returns, goes back on it instead of to the allocator, so the
//! next training (on whichever thread) reuses memory that is already
//! mapped instead of faulting fresh pages in.  The list is the same for
//! every thread because the search trains on scoped workers that end with
//! each step.  It holds at most 4 Mi values (32 MiB, `FREE_ROW_VALUE_BUDGET`):
//! the rows of two concurrent 512-row caches at 4,000 variables.  A row
//! beyond the budget is freed, and up to the budget stays allocated after
//! the last solve until the process exits.  A recycled buffer still holds
//! another row's values; every [`QMatrix::row`]/[`QMatrix::rows`] writes
//! every entry before the solver reads one, so those values never reach a
//! result.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::{Result, SvmError};

/// Value used in place of a non-positive second derivative of the
/// two-variable sub-problem (guards against a numerically indefinite kernel).
const TAU: f64 = 1e-12;

/// Warm-start gradient rows fetched per batched [`QMatrix::rows`] call.
const WARM_ROW_BLOCK: usize = 8;

/// Status bit of a variable in the "up" index set (it can still grow along
/// its sign: `y > 0` below its bound or `y < 0` above zero).
const IN_UP: u8 = 1;
/// Status bit of a variable in the "low" index set (`y > 0` above zero or
/// `y < 0` below its bound).
const IN_LOW: u8 = 2;
/// Status bit of a variable shrunk out of the selection scans.
const SHRUNK: u8 = 4;

/// The up/low status bits of one variable, the solver's counterpart of
/// LIBSVM's `alpha_status`.
fn membership(y: f64, alpha: f64, c: f64) -> u8 {
    let mut status = 0;
    if (y > 0.0 && alpha < c) || (y < 0.0 && alpha > 0.0) {
        status |= IN_UP;
    }
    if (y > 0.0 && alpha > 0.0) || (y < 0.0 && alpha < c) {
        status |= IN_LOW;
    }
    status
}

/// Working-set selection, first pass: the maximal violator over the
/// unshrunk "up" set, and the minimal value over the unshrunk "low" set for
/// the stopping test (`m(a) - M(a) <= tolerance`, Keerthi et al.), both of
/// `-y_t G_t`.  Returns `(g_max, i, g_min, low)`; an index is `None` when
/// no value beats the initial `-inf` / `+inf`, for example when its set is
/// empty.
///
/// The scan is branch-free on the status bytes: a variable outside the up
/// set (or shrunk) competes as `-inf`, which never beats `g_max`, and one
/// outside the low set as `+inf`, which never beats `g_min`.  The strict
/// comparisons keep the first index of a tie and never take a NaN, so the
/// result equals, to the bit, that of skipping those variables.
fn select_first(
    status: &[u8],
    y: &[f64],
    grad: &[f64],
) -> (f64, Option<usize>, f64, Option<usize>) {
    let mut g_max = f64::NEG_INFINITY;
    let mut g_min = f64::INFINITY;
    let mut i_sel = usize::MAX;
    let mut low_sel = usize::MAX;
    for (t, ((&flags, &yt), &gt)) in status.iter().zip(y).zip(grad).enumerate() {
        let value = -yt * gt;
        let up = if flags & (IN_UP | SHRUNK) == IN_UP { value } else { f64::NEG_INFINITY };
        let low = if flags & (IN_LOW | SHRUNK) == IN_LOW { value } else { f64::INFINITY };
        if up > g_max {
            g_max = up;
            i_sel = t;
        }
        if low < g_min {
            g_min = low;
            low_sel = t;
        }
    }
    let found = |t: usize| (t != usize::MAX).then_some(t);
    (g_max, found(i_sel), g_min, found(low_sel))
}

/// Abstract view of the `Q` matrix (`Q[i][j] = y_i y_j K(i, j)`).
///
/// Implementations compute rows on demand; the solver caches recently used
/// rows internally so implementations can stay simple.
pub trait QMatrix {
    /// Number of optimization variables.
    fn len(&self) -> usize;

    /// Returns `true` when the problem has no variables.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes row `i` of `Q` into `out` (which has length [`QMatrix::len`]).
    ///
    /// Every entry must be written: `out` is a recycled buffer that may
    /// still hold another row's values (see the [module docs](self)).
    fn row(&self, i: usize, out: &mut [f64]);

    /// Writes row `indices[r]` into `out[r]` (of length [`QMatrix::len`])
    /// for every `r`.
    ///
    /// Must be element-for-element identical to calling [`QMatrix::row`]
    /// once per index in order — the default does exactly that.
    /// Implementations backed by a batched kernel engine override it to
    /// amortize memory traffic across the rows (used by the solver's
    /// warm-start gradient reconstruction, which touches one row per
    /// initially non-zero variable).
    fn rows(&self, indices: &[usize], out: &mut [&mut [f64]]) {
        debug_assert_eq!(out.len(), indices.len());
        for (row, &i) in out.iter_mut().zip(indices) {
            self.row(i, row);
        }
    }

    /// Diagonal entry `Q[i][i]`.
    fn diag(&self, i: usize) -> f64;
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoParams {
    /// Stopping tolerance on the maximal KKT violation (LIBSVM default 1e-3).
    /// Must be finite and strictly positive: a NaN tolerance would silently
    /// disable the stopping test (`gap <= NaN` is always false) and burn the
    /// whole iteration budget.
    pub tolerance: f64,
    /// Hard cap on the number of SMO iterations (must be non-zero).
    pub max_iterations: usize,
    /// Number of `Q` rows kept in the internal cache (must be non-zero; the
    /// solver raises it to at least 2 so the active pair always fits).
    pub cache_rows: usize,
}

impl Default for SmoParams {
    fn default() -> Self {
        SmoParams { tolerance: 1e-3, max_iterations: 200_000, cache_rows: 512 }
    }
}

/// Description of one dual problem instance.
#[derive(Debug, Clone)]
pub struct SmoProblem {
    /// Sign of each variable in the equality constraint (`+1` or `-1`).
    pub y: Vec<f64>,
    /// Linear term of the objective.
    pub p: Vec<f64>,
    /// Upper bound of each variable (per-variable `C`).
    pub upper_bound: Vec<f64>,
    /// Initial values of the variables.  All zero for a cold start; a warm
    /// start supplies a box-feasible point (each entry in `[0, C_i]`), and
    /// the implied equality-constraint value `y' a` is preserved by the
    /// solver, so warm starts must also repair `y' a` to the target value
    /// before solving.
    pub initial_alpha: Vec<f64>,
}

/// Redistributes `alpha` so that `y' alpha == 0` while keeping every entry
/// inside its `[0, C]` box.  Used by warm starts that project the solution
/// of a related problem onto a new feasible region.
///
/// The heavier side is first scaled down proportionally — preserving the
/// *shape* of the projected solution, which matters for warm-start quality —
/// and the last floating-point crumbs of the surplus are then drained from
/// individual entries in index order so the constraint holds to the last
/// bit.  Both moves only shrink entries toward zero, so the box is never
/// left.
pub(crate) fn repair_equality_constraint(alpha: &mut [f64], y: &[f64]) {
    let surplus: f64 = alpha.iter().zip(y).map(|(&a, &sign)| a * sign).sum();
    if surplus != 0.0 {
        let heavy: f64 =
            alpha.iter().zip(y).filter(|&(_, &sign)| sign * surplus > 0.0).map(|(&a, _)| a).sum();
        if heavy > 0.0 {
            let factor = ((heavy - surplus.abs()) / heavy).max(0.0);
            for (a, &sign) in alpha.iter_mut().zip(y) {
                if sign * surplus > 0.0 {
                    *a *= factor;
                }
            }
        }
    }
    // Proportional scaling leaves a rounding-level residual; drain it.
    let mut residual: f64 = alpha.iter().zip(y).map(|(&a, &sign)| a * sign).sum();
    for (a, &sign) in alpha.iter_mut().zip(y) {
        if residual == 0.0 {
            break;
        }
        if *a > 0.0 && sign * residual > 0.0 {
            let take = (*a).min(residual.abs());
            *a -= take;
            residual -= sign * take;
        }
    }
}

/// Result of a successful SMO run.
#[derive(Debug, Clone)]
pub struct SmoSolution {
    /// Optimal dual variables.
    pub alpha: Vec<f64>,
    /// Offset `rho` of the decision function (`f(x) = sum_i a_i y_i K(x_i,x) - rho`).
    pub rho: f64,
    /// Final objective value.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// Most values the free list of row buffers keeps (see the
/// [module docs](self)).
const FREE_ROW_VALUE_BUDGET: usize = 4 << 20;

/// Row buffers released by [`RowCache`]s, kept for the next cache instead
/// of being freed.
struct FreeRows {
    rows: Vec<Vec<f64>>,
    /// Sum of the held buffers' capacities, at most
    /// [`FREE_ROW_VALUE_BUDGET`].
    values: usize,
}

static FREE_ROWS: Mutex<FreeRows> = Mutex::new(FreeRows { rows: Vec::new(), values: 0 });

/// Locks the free list.  No panic can strike between the updates of its
/// two fields (at worst `values` over-counts, which only shrinks the
/// budget), so a poisoned lock is recovered instead of failing the solve.
fn free_rows() -> MutexGuard<'static, FreeRows> {
    FREE_ROWS.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FreeRows {
    /// A buffer of `n` values, recycled when one is held.  Its contents are
    /// unspecified.
    fn take(&mut self, n: usize) -> Vec<f64> {
        let mut row = self.rows.pop().unwrap_or_default();
        self.values -= row.capacity();
        row.resize(n, 0.0);
        #[cfg(test)]
        if POISON_TAKEN_ROWS.with(std::cell::Cell::get) {
            row.fill(f64::NAN);
        }
        row
    }

    /// Keeps `row` for a later cache while the budget allows, and frees it
    /// otherwise.
    fn give(&mut self, row: Vec<f64>) {
        let capacity = row.capacity();
        if self.values + capacity <= FREE_ROW_VALUE_BUDGET {
            self.rows.push(row);
            self.values += capacity;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: while set, every buffer this thread takes from the free
    /// list is filled with NaN first, so a `Q` value the solver read without
    /// its `QMatrix` writing it would reach the result.
    static POISON_TAKEN_ROWS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// LRU row cache keyed by row index.
///
/// Every access refreshes a row's recency stamp, so the rows of the current
/// working pair — touched on every iteration — survive arbitrary cache
/// pressure while cold rows are evicted first.  (The pre-0.4 cache evicted
/// in pure FIFO insertion order, which could throw out the two hot rows
/// while one-shot rows survived.)
///
/// Residency ([`RowCache::ensure`]) is separated from access
/// ([`RowCache::row`]) so the solver can hold shared borrows of several rows
/// at once instead of copying them out.  Row buffers come from and return
/// to the free list ([`FREE_ROWS`]).
struct RowCache {
    capacity: usize,
    clock: u64,
    /// The indices of the resident rows, at most `capacity`, which an
    /// eviction scans instead of every slot.
    resident: Vec<usize>,
    /// One slot per row: `(last-use stamp, row values)` when resident.
    rows: Vec<Option<(u64, Vec<f64>)>>,
}

impl RowCache {
    fn new(capacity: usize, n: usize) -> Self {
        let capacity = capacity.max(2);
        let resident = Vec::with_capacity(capacity.min(n));
        RowCache { capacity, clock: 0, resident, rows: vec![None; n] }
    }

    /// Makes row `i` resident (computing it if needed, evicting the
    /// least-recently-used row when at capacity) and refreshes its recency.
    fn ensure<Q: QMatrix>(&mut self, q: &Q, i: usize) {
        if self.touch(i) {
            return;
        }
        let mut row = free_rows().take(q.len());
        q.row(i, &mut row);
        self.insert(i, row);
    }

    /// Makes every row of `batch` resident with one batched
    /// [`QMatrix::rows`] fetch for the misses, which are fetched straight
    /// into the buffers the cache keeps.
    ///
    /// Bookkeeping — recency stamps, eviction order, resident set — is
    /// identical to calling [`RowCache::ensure`] on each index in order,
    /// because the fetch is a pure function of the index and only the
    /// insertion order touches the cache state.  `batch` must hold distinct
    /// indices and be no longer than the cache capacity (so no row of the
    /// batch can evict another).
    fn ensure_batch<Q: QMatrix>(&mut self, q: &Q, batch: &[usize]) {
        debug_assert!(batch.len() <= self.capacity);
        let misses: Vec<usize> =
            batch.iter().copied().filter(|&i| self.rows[i].is_none()).collect();
        let mut fetched: Vec<Vec<f64>> = {
            let mut free = free_rows();
            misses.iter().map(|_| free.take(q.len())).collect()
        };
        let mut out: Vec<&mut [f64]> = fetched.iter_mut().map(Vec::as_mut_slice).collect();
        q.rows(&misses, &mut out);
        let mut fetched = fetched.into_iter();
        for &i in batch {
            if !self.touch(i) {
                self.insert(i, fetched.next().expect("one fetched row per miss"));
            }
        }
    }

    /// Advances the clock and refreshes row `i`'s recency; returns whether
    /// the row is resident.
    fn touch(&mut self, i: usize) -> bool {
        self.clock += 1;
        match self.rows[i].as_mut() {
            Some((stamp, _)) => {
                *stamp = self.clock;
                true
            }
            None => false,
        }
    }

    /// Stores row `i` under the current clock, evicting the
    /// least-recently-used row (the one with the least stamp, which no other
    /// row shares) when the cache is at capacity.
    fn insert(&mut self, i: usize, row: Vec<f64>) {
        if self.resident.len() >= self.capacity {
            let (at, _) = self
                .resident
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| self.rows[t].as_ref().map(|(stamp, _)| *stamp))
                .expect("a full cache has a least-recently-used row");
            let evict = self.resident.swap_remove(at);
            if let Some((_, row)) = self.rows[evict].take() {
                free_rows().give(row);
            }
        }
        self.rows[i] = Some((self.clock, row));
        self.resident.push(i);
    }

    /// Borrows a row previously made resident with [`RowCache::ensure`].
    ///
    /// # Panics
    ///
    /// Panics if the row is not resident.
    fn row(&self, i: usize) -> &[f64] {
        self.rows[i].as_ref().map(|(_, row)| row.as_slice()).expect("row is resident")
    }
}

impl Drop for RowCache {
    /// Hands every resident row back to the free list.
    fn drop(&mut self) {
        let mut free = free_rows();
        for (_, row) in self.rows.iter_mut().filter_map(Option::take) {
            free.give(row);
        }
    }
}

/// Validates the solver configuration.
fn validate_params(params: &SmoParams) -> Result<()> {
    if !(params.tolerance > 0.0 && params.tolerance.is_finite()) {
        return Err(SvmError::InvalidParameter { name: "tolerance", value: params.tolerance });
    }
    if params.max_iterations == 0 {
        return Err(SvmError::InvalidParameter { name: "max_iterations", value: 0.0 });
    }
    if params.cache_rows == 0 {
        return Err(SvmError::InvalidParameter { name: "cache_rows", value: 0.0 });
    }
    Ok(())
}

/// Solves the dual problem.
///
/// The equality-constraint constant `delta` is *implied by the starting
/// point* (`delta = y' initial_alpha`) and preserved by every pair update:
/// a cold start solves the `delta = 0` problem of the SVC/SVR duals, and a
/// warm start must repair its projected alphas to the intended constant
/// (see [`SmoProblem::initial_alpha`]) — the solver cannot distinguish a
/// deliberate non-zero `delta` from an unrepaired one.
///
/// # Errors
///
/// Returns [`SvmError::EmptyDataset`] for a zero-variable problem,
/// [`SvmError::InvalidParameter`] if the problem vectors have inconsistent
/// lengths, if a solver parameter is outside its domain (non-finite or
/// non-positive `tolerance`, zero `max_iterations` or `cache_rows`) or if
/// the starting point is not box-feasible, and [`SvmError::NotConverged`] if
/// the iteration budget is exhausted before the KKT conditions are met.
pub fn solve<Q: QMatrix>(q: &Q, problem: &SmoProblem, params: &SmoParams) -> Result<SmoSolution> {
    let n = q.len();
    if n == 0 {
        return Err(SvmError::EmptyDataset);
    }
    if problem.y.len() != n
        || problem.p.len() != n
        || problem.upper_bound.len() != n
        || problem.initial_alpha.len() != n
    {
        return Err(SvmError::InvalidParameter { name: "problem size", value: n as f64 });
    }
    validate_params(params)?;
    for (&a, &upper) in problem.initial_alpha.iter().zip(problem.upper_bound.iter()) {
        if !(a >= 0.0 && a <= upper) {
            return Err(SvmError::InvalidParameter { name: "initial_alpha", value: a });
        }
    }

    let y = &problem.y;
    let p = &problem.p;
    let c = &problem.upper_bound;
    let mut alpha = problem.initial_alpha.clone();
    let mut cache = RowCache::new(params.cache_rows, n);

    // Gradient of the objective: G_t = sum_s Q[t][s] alpha_s + p_t.  For a
    // cold start this is just `p`; a warm start pays one row per initially
    // non-zero variable, which a start near the optimum amortises many times
    // over in saved iterations.
    let mut grad: Vec<f64> = p.clone();
    let warm_rows: Vec<usize> =
        alpha.iter().enumerate().filter(|(_, &a)| a != 0.0).map(|(s, _)| s).collect();
    let warm = !warm_rows.is_empty();
    // Rows are fetched in blocks through `QMatrix::rows` so a batched
    // backend amortizes its column traffic; the block never exceeds the
    // cache capacity, so every row of a block is still resident when its
    // gradient contribution is accumulated.
    for block in warm_rows.chunks(WARM_ROW_BLOCK.min(cache.capacity)) {
        cache.ensure_batch(q, block);
        for &s in block {
            let alpha_s = alpha[s];
            let row = cache.row(s);
            for (g, &value) in grad.iter_mut().zip(row.iter()) {
                *g += value * alpha_s;
            }
        }
    }

    // A projected warm start can land *uphill* of the zero start when the
    // related problem it came from differs too much.  The objective along
    // the ray `t * alpha0` is the exact quadratic `0.5 t^2 (a'Qa) + t (p'a)`
    // and the gradient rescales linearly along it, so the best point of the
    // segment — cold start, full warm start, or anywhere between — costs
    // nothing beyond the gradient already computed.  Scaling preserves the
    // box (t <= 1) and, for the zero-delta problems warm starts arise from
    // (`y' a = 0`), the equality constraint.
    if warm {
        let delta: f64 = alpha.iter().zip(y.iter()).map(|(&a, &sign)| a * sign).sum();
        let quadratic: f64 =
            alpha.iter().zip(grad.iter().zip(p.iter())).map(|(&a, (&g, &pp))| a * (g - pp)).sum();
        let linear: f64 = alpha.iter().zip(p.iter()).map(|(&a, &pp)| a * pp).sum();
        if delta.abs() < 1e-9 {
            let t = if quadratic > 0.0 {
                (-linear / quadratic).clamp(0.0, 1.0)
            } else if linear >= 0.0 {
                0.0
            } else {
                1.0
            };
            if t < 1.0 {
                for a in alpha.iter_mut() {
                    *a *= t;
                }
                for (g, &pp) in grad.iter_mut().zip(p.iter()) {
                    *g = t * (*g - pp) + pp;
                }
            }
        }
    }

    // Shrinking (LIBSVM heuristic): variables pinned at a bound whose
    // gradient keeps them out of every violating pair are periodically
    // dropped from the selection scan.  Gradients are maintained for all
    // variables, so restoring the full set is free and convergence is always
    // re-verified on the full problem before the solver returns.
    //
    // Each variable carries one status byte (up, low, shrunk), updated for
    // the working pair after every step, so the scans below read flags
    // instead of re-deriving the index sets from `alpha` and `C`; they visit
    // the unshrunk variables in ascending index order.
    let memberships = |alpha: &[f64]| -> Vec<u8> {
        y.iter().zip(alpha).zip(c).map(|((&yt, &at), &ct)| membership(yt, at, ct)).collect()
    };
    let mut status = memberships(&alpha);
    let mut shrunk = 0usize;
    let diag: Vec<f64> = (0..n).map(|t| q.diag(t)).collect();
    let shrink_interval = n.clamp(1, 1000);
    let mut since_shrink = 0usize;

    let mut iterations = 0;
    loop {
        let (g_max, i_sel, g_min, low_sel) = select_first(&status, y, &grad);

        // `None` pair: every variable is stuck at a bound in a way that
        // leaves one of the index sets empty — the current point is optimal
        // for the feasible region.
        let converged = match (i_sel, low_sel) {
            (Some(_), Some(_)) => g_max - g_min <= params.tolerance,
            _ => true,
        };
        if converged {
            if shrunk == 0 {
                break;
            }
            // The *shrunk* problem converged; restore every variable and
            // re-check optimality on the full set before accepting.
            status = memberships(&alpha);
            shrunk = 0;
            since_shrink = 0;
            continue;
        }
        let i = i_sel.expect("pair exists");

        if iterations >= params.max_iterations {
            return Err(SvmError::NotConverged { iterations });
        }
        iterations += 1;

        // Second pass: second-order selection of `j` (LIBSVM's WSS 2).
        // Among the "low" variables violating against `i`, pick the one whose
        // two-variable sub-problem yields the largest objective decrease
        // `(g_max - value_t)^2 / a_it` — far fewer iterations than the
        // first-order maximal-violating-pair rule, especially from a
        // warm-started point whose remaining violations are diffuse.
        cache.ensure(q, i);
        let j = {
            let q_i = cache.row(i);
            let (diag_i, y_i) = (diag[i], y[i]);
            let mut j_sel: Option<usize> = None;
            let mut best_gain = f64::NEG_INFINITY;
            let scan = status.iter().zip(y).zip(&grad).zip(diag.iter().zip(q_i));
            for (t, (((&flags, &yt), &gt), (&diag_t, &q_it))) in scan.enumerate() {
                if flags & (IN_LOW | SHRUNK) != IN_LOW {
                    continue;
                }
                let grad_diff = g_max + yt * gt;
                if grad_diff <= 0.0 {
                    continue;
                }
                // `a_it = K_ii + K_tt - 2 K_it`; `Q[i][t] = y_i y_t K_it`.
                let mut quad = diag_i + diag_t - 2.0 * y_i * yt * q_it;
                if quad <= 0.0 {
                    quad = TAU;
                }
                let gain = grad_diff * grad_diff / quad;
                if gain > best_gain {
                    best_gain = gain;
                    j_sel = Some(t);
                }
            }
            // The stopping test failed, so the minimal "low" value violates
            // against `i` by more than the tolerance and is always a valid
            // fallback candidate.
            j_sel.or(low_sel).expect("a violating pair exists")
        };

        // Periodically shrink bound variables that cannot join a violating
        // pair (their `value` lies strictly outside the current
        // `[g_min, g_max]` violation window on their only side).
        since_shrink += 1;
        if since_shrink >= shrink_interval {
            since_shrink = 0;
            for (flags, (&yt, &gt)) in status.iter_mut().zip(y.iter().zip(&grad)) {
                if *flags & SHRUNK != 0 {
                    continue;
                }
                let value = -yt * gt;
                let keep = match (*flags & IN_UP != 0, *flags & IN_LOW != 0) {
                    (true, true) => true,
                    (true, false) => value >= g_min,
                    (false, true) => value <= g_max,
                    (false, false) => false,
                };
                if !keep {
                    *flags |= SHRUNK;
                    shrunk += 1;
                }
            }
        }

        cache.ensure(q, j);
        cache.ensure(q, i);
        let (q_i, q_j) = (cache.row(i), cache.row(j));
        let old_ai = alpha[i];
        let old_aj = alpha[j];

        if (y[i] - y[j]).abs() > f64::EPSILON {
            // Opposite signs.
            let mut quad = diag[i] + diag[j] + 2.0 * q_i[j];
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (-grad[i] - grad[j]) / quad;
            let diff = alpha[i] - alpha[j];
            alpha[i] += delta;
            alpha[j] += delta;
            if diff > 0.0 {
                if alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = diff;
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = -diff;
            }
            if diff > c[i] - c[j] {
                if alpha[i] > c[i] {
                    alpha[i] = c[i];
                    alpha[j] = c[i] - diff;
                }
            } else if alpha[j] > c[j] {
                alpha[j] = c[j];
                alpha[i] = c[j] + diff;
            }
        } else {
            // Same sign.
            let mut quad = diag[i] + diag[j] - 2.0 * q_i[j];
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (grad[i] - grad[j]) / quad;
            let sum = alpha[i] + alpha[j];
            alpha[i] -= delta;
            alpha[j] += delta;
            if sum > c[i] {
                if alpha[i] > c[i] {
                    alpha[i] = c[i];
                    alpha[j] = sum - c[i];
                }
            } else if alpha[j] < 0.0 {
                alpha[j] = 0.0;
                alpha[i] = sum;
            }
            if sum > c[j] {
                if alpha[j] > c[j] {
                    alpha[j] = c[j];
                    alpha[i] = sum - c[j];
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = sum;
            }
        }
        for t in [i, j] {
            status[t] = (status[t] & SHRUNK) | membership(y[t], alpha[t], c[t]);
        }

        let delta_i = alpha[i] - old_ai;
        let delta_j = alpha[j] - old_aj;
        if delta_i == 0.0 && delta_j == 0.0 {
            // Numerically stuck pair; the violating gap is below what the
            // arithmetic can resolve.  Restore any shrunk variables first so
            // the conclusion is reached on the full problem.
            if shrunk == 0 {
                break;
            }
            status = memberships(&alpha);
            shrunk = 0;
            since_shrink = 0;
            continue;
        }
        for ((g, &q_it), &q_jt) in grad.iter_mut().zip(q_i).zip(q_j) {
            *g += q_it * delta_i + q_jt * delta_j;
        }
    }

    // rho (decision-function offset).
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    let mut sum_free = 0.0;
    let mut count_free = 0usize;
    for t in 0..n {
        let yg = y[t] * grad[t];
        if alpha[t] >= c[t] - f64::EPSILON {
            if y[t] < 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else if alpha[t] <= f64::EPSILON {
            if y[t] > 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else {
            count_free += 1;
            sum_free += yg;
        }
    }
    let rho = if count_free > 0 {
        sum_free / count_free as f64
    } else if upper.is_finite() && lower.is_finite() {
        (upper + lower) / 2.0
    } else if upper.is_finite() {
        upper
    } else if lower.is_finite() {
        lower
    } else {
        0.0
    };

    // Objective value: 0.5 * a'(G + p) = 0.5 * (a'Qa) + a'p + 0.5*a'p - 0.5*a'p
    let objective = 0.5
        * alpha
            .iter()
            .zip(grad.iter().zip(p.iter()))
            .map(|(&a, (&g, &pp))| a * (g + pp))
            .sum::<f64>();

    Ok(SmoSolution { alpha, rho, objective, iterations })
}

/// Dense `Q` matrix backed by an explicit kernel evaluation closure.
///
/// Useful for tests and small problems; the SVC/SVR wrappers provide their own
/// implementations that work directly from datasets.
pub struct DenseQ {
    n: usize,
    values: Vec<f64>,
}

impl DenseQ {
    /// Builds the full matrix from `q(i, j)`.
    pub fn from_fn<F: Fn(usize, usize) -> f64>(n: usize, q: F) -> Self {
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = q(i, j);
            }
        }
        DenseQ { n, values }
    }
}

impl QMatrix for DenseQ {
    fn len(&self) -> usize {
        self.n
    }

    fn row(&self, i: usize, out: &mut [f64]) {
        out.copy_from_slice(&self.values[i * self.n..(i + 1) * self.n]);
    }

    fn diag(&self, i: usize) -> f64 {
        self.values[i * self.n + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;

    /// Tiny hand-checkable SVC problem: two points at -1 and +1 on a line.
    /// The optimal separating hyperplane is x = 0 with margin 1, which for the
    /// linear kernel `K(x, y) = x · y` gives alpha_1 = alpha_2 = 0.5 (when C
    /// is large).
    #[test]
    fn two_point_classification_recovers_known_alphas() {
        let xs = [-1.0, 1.0];
        let ys = [-1.0, 1.0];
        let q = DenseQ::from_fn(2, |i, j| ys[i] * ys[j] * xs[i] * xs[j]);
        let problem = SmoProblem {
            y: ys.to_vec(),
            p: vec![-1.0; 2],
            upper_bound: vec![100.0; 2],
            initial_alpha: vec![0.0; 2],
        };
        let solution = solve(&q, &problem, &SmoParams::default()).unwrap();
        assert!((solution.alpha[0] - 0.5).abs() < 1e-3, "{:?}", solution.alpha);
        assert!((solution.alpha[1] - 0.5).abs() < 1e-3);
        // Decision boundary exactly between the points => rho = 0.
        assert!(solution.rho.abs() < 1e-6);
    }

    #[test]
    fn equality_constraint_is_preserved() {
        // Four points, alternating labels.
        let xs = [vec![0.0], vec![0.4], vec![0.6], vec![1.0]];
        let ys = [-1.0, -1.0, 1.0, 1.0];
        let kernel = Kernel::rbf(1.0);
        let q = DenseQ::from_fn(4, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
        let problem = SmoProblem {
            y: ys.to_vec(),
            p: vec![-1.0; 4],
            upper_bound: vec![10.0; 4],
            initial_alpha: vec![0.0; 4],
        };
        let solution = solve(&q, &problem, &SmoParams::default()).unwrap();
        let balance: f64 = solution.alpha.iter().zip(ys.iter()).map(|(a, y)| a * y).sum();
        assert!(balance.abs() < 1e-9, "constraint violated: {balance}");
        for (a, &c) in solution.alpha.iter().zip(problem.upper_bound.iter()) {
            assert!(*a >= -1e-12 && *a <= c + 1e-12);
        }
    }

    #[test]
    fn empty_problem_is_rejected() {
        let q = DenseQ::from_fn(0, |_, _| 0.0);
        let problem =
            SmoProblem { y: vec![], p: vec![], upper_bound: vec![], initial_alpha: vec![] };
        assert!(matches!(solve(&q, &problem, &SmoParams::default()), Err(SvmError::EmptyDataset)));
    }

    #[test]
    fn inconsistent_lengths_are_rejected() {
        let q = DenseQ::from_fn(2, |_, _| 1.0);
        let problem = SmoProblem {
            y: vec![1.0, -1.0],
            p: vec![-1.0],
            upper_bound: vec![1.0, 1.0],
            initial_alpha: vec![0.0, 0.0],
        };
        assert!(solve(&q, &problem, &SmoParams::default()).is_err());
    }

    fn tiny_problem() -> (DenseQ, SmoProblem) {
        let q = DenseQ::from_fn(2, |i, j| if i == j { 1.0 } else { 0.0 });
        let problem = SmoProblem {
            y: vec![1.0, -1.0],
            p: vec![-1.0, -1.0],
            upper_bound: vec![1.0, 1.0],
            initial_alpha: vec![0.0, 0.0],
        };
        (q, problem)
    }

    #[test]
    fn bad_tolerance_is_rejected() {
        let (q, problem) = tiny_problem();
        for tolerance in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let params = SmoParams { tolerance, ..SmoParams::default() };
            assert!(
                matches!(
                    solve(&q, &problem, &params),
                    Err(SvmError::InvalidParameter { name: "tolerance", .. })
                ),
                "tolerance {tolerance} must be rejected"
            );
        }
    }

    /// Regression test: a NaN tolerance used to pass the `<= 0.0` validation
    /// and silently disable the stopping test (`gap <= NaN` is always
    /// false), burning the entire iteration budget before failing with
    /// `NotConverged`.  It must be rejected up front instead.
    #[test]
    fn nan_tolerance_fails_fast_instead_of_burning_the_budget() {
        let (q, problem) = tiny_problem();
        let params = SmoParams { tolerance: f64::NAN, ..SmoParams::default() };
        match solve(&q, &problem, &params) {
            Err(SvmError::InvalidParameter { name: "tolerance", value }) => {
                assert!(value.is_nan());
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn zero_iteration_budget_and_zero_cache_are_rejected() {
        let (q, problem) = tiny_problem();
        let no_budget = SmoParams { max_iterations: 0, ..SmoParams::default() };
        assert!(matches!(
            solve(&q, &problem, &no_budget),
            Err(SvmError::InvalidParameter { name: "max_iterations", .. })
        ));
        let no_cache = SmoParams { cache_rows: 0, ..SmoParams::default() };
        assert!(matches!(
            solve(&q, &problem, &no_cache),
            Err(SvmError::InvalidParameter { name: "cache_rows", .. })
        ));
    }

    #[test]
    fn box_infeasible_starting_points_are_rejected() {
        let (q, mut problem) = tiny_problem();
        problem.initial_alpha = vec![-0.1, 0.0];
        assert!(matches!(
            solve(&q, &problem, &SmoParams::default()),
            Err(SvmError::InvalidParameter { name: "initial_alpha", .. })
        ));
        problem.initial_alpha = vec![0.0, 1.5];
        assert!(solve(&q, &problem, &SmoParams::default()).is_err());
        problem.initial_alpha = vec![f64::NAN, 0.0];
        assert!(solve(&q, &problem, &SmoParams::default()).is_err());
    }

    #[test]
    fn iteration_budget_is_enforced() {
        // A moderately sized separable problem with a budget of one iteration
        // cannot converge.
        let n = 40;
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let ys: Vec<f64> = (0..n).map(|i| if i < n / 2 { -1.0 } else { 1.0 }).collect();
        let kernel = Kernel::rbf(5.0);
        let q = DenseQ::from_fn(n, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
        let problem = SmoProblem {
            y: ys,
            p: vec![-1.0; n],
            upper_bound: vec![10.0; n],
            initial_alpha: vec![0.0; n],
        };
        let params = SmoParams { max_iterations: 1, ..SmoParams::default() };
        assert!(matches!(solve(&q, &problem, &params), Err(SvmError::NotConverged { .. })));
    }

    /// Regression test: the pre-0.4 row cache evicted in pure FIFO insertion
    /// order without refreshing recency, so a row touched on every access
    /// could be evicted while one-shot rows survived.  Eviction is LRU now.
    #[test]
    fn row_cache_keeps_hot_rows_under_pressure() {
        let q = DenseQ::from_fn(8, |i, j| (i * 8 + j) as f64);
        let mut cache = RowCache::new(2, 8);
        cache.ensure(&q, 0); // hot row
        cache.ensure(&q, 1);
        for cold in 2..8 {
            // Touch the hot row, then fault in a cold one: the cold rows must
            // evict each other while row 0 stays resident throughout.
            cache.ensure(&q, 0);
            cache.ensure(&q, cold);
            assert!(cache.rows[0].is_some(), "hot row evicted by cold row {cold}");
            assert_eq!(cache.row(0)[3], 3.0);
        }
        // Only the capacity's worth of rows is resident.
        assert_eq!(cache.resident.len(), 2);
        assert_eq!(cache.rows.iter().filter(|slot| slot.is_some()).count(), 2);
    }

    /// The two rows of the working pair are touched every iteration, so even
    /// a minimal cache must not recompute them per iteration: the number of
    /// `QMatrix::row` evaluations stays far below one per iteration.
    #[test]
    fn hot_rows_are_not_recomputed_every_iteration() {
        use std::cell::Cell;

        struct CountingQ {
            inner: DenseQ,
            row_calls: Cell<usize>,
        }
        impl QMatrix for CountingQ {
            fn len(&self) -> usize {
                self.inner.len()
            }
            fn row(&self, i: usize, out: &mut [f64]) {
                self.row_calls.set(self.row_calls.get() + 1);
                self.inner.row(i, out);
            }
            fn diag(&self, i: usize) -> f64 {
                self.inner.diag(i)
            }
        }

        let n = 60;
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![(i as f64 / n as f64).sin()]).collect();
        let ys: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { -1.0 } else { 1.0 }).collect();
        let kernel = Kernel::rbf(4.0);
        let q = CountingQ {
            inner: DenseQ::from_fn(n, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j])),
            row_calls: Cell::new(0),
        };
        let problem = SmoProblem {
            y: ys,
            p: vec![-1.0; n],
            upper_bound: vec![10.0; n],
            initial_alpha: vec![0.0; n],
        };
        // A cache smaller than the problem still absorbs the per-iteration
        // row traffic of the working pairs: the old per-iteration full-row
        // copies amounted to two row materialisations every iteration, while
        // the shared-borrow cache recomputes a row only on a genuine miss.
        let params = SmoParams { cache_rows: 8, ..SmoParams::default() };
        let solution = solve(&q, &problem, &params).unwrap();
        assert!(solution.iterations > 0);
        assert!(
            q.row_calls.get() <= solution.iterations + n,
            "{} row computations for {} iterations",
            q.row_calls.get(),
            solution.iterations
        );
    }

    /// Warm-starting from (a projection of) the converged solution must
    /// satisfy the stopping test essentially immediately and reproduce the
    /// same solution.
    #[test]
    fn warm_start_from_the_optimum_converges_immediately() {
        let n = 40;
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let ys: Vec<f64> = (0..n).map(|i| if i < n / 2 { -1.0 } else { 1.0 }).collect();
        let kernel = Kernel::rbf(5.0);
        let q = DenseQ::from_fn(n, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
        let cold_problem = SmoProblem {
            y: ys.clone(),
            p: vec![-1.0; n],
            upper_bound: vec![10.0; n],
            initial_alpha: vec![0.0; n],
        };
        let cold = solve(&q, &cold_problem, &SmoParams::default()).unwrap();
        assert!(cold.iterations > 0);

        let warm_problem = SmoProblem { initial_alpha: cold.alpha.clone(), ..cold_problem };
        let warm = solve(&q, &warm_problem, &SmoParams::default()).unwrap();
        assert_eq!(warm.iterations, 0, "restart from the optimum must not iterate");
        assert_eq!(warm.alpha, cold.alpha);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    /// Two noisy, overlapping RBF classes in the unit square, drawn from a
    /// splitmix64 stream: a fit with `C = 50` runs past `min(n, 1000)`
    /// iterations, so shrinking fires.
    fn shrinking_fixture(n: usize, seed: u64) -> (DenseQ, SmoProblem) {
        let mut state = seed;
        let mut uniform = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x = vec![uniform(), uniform()];
            ys.push(if x[0] + x[1] + 0.5 * uniform() > 1.25 { 1.0 } else { -1.0 });
            xs.push(x);
        }
        let kernel = Kernel::rbf(3.0);
        let q = DenseQ::from_fn(n, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
        let problem = SmoProblem {
            y: ys,
            p: vec![-1.0; n],
            upper_bound: vec![50.0; n],
            initial_alpha: vec![0.0; n],
        };
        (q, problem)
    }

    /// Asserts a solution's iteration count, `rho` and every non-zero
    /// `alpha` (as `(index, bits)`) to the bit; every other `alpha` is zero.
    fn assert_solution(
        solution: &SmoSolution,
        iterations: usize,
        rho: u64,
        alpha: &[(usize, u64)],
    ) {
        let nonzero: Vec<(usize, u64)> = solution
            .alpha
            .iter()
            .enumerate()
            .filter(|(_, &a)| a != 0.0)
            .map(|(i, a)| (i, a.to_bits()))
            .collect();
        assert_eq!(solution.iterations, iterations);
        assert_eq!(solution.rho.to_bits(), rho, "rho {}", solution.rho);
        assert_eq!(nonzero, alpha);
    }

    /// Pins cold fits that shrink (the 40-variable fit runs the shrink pass
    /// three times, the 64-variable one twice, and both restore every
    /// variable before they stop) and a warm fit from a clipped, repaired
    /// start: any change
    /// to the selection scans, the shrink rule or the status bookkeeping
    /// that moves an SMO trajectory moves these bits.
    #[test]
    fn shrinking_fits_are_pinned_to_the_bit() {
        let (q, problem) = shrinking_fixture(40, 1);
        let cold = solve(&q, &problem, &SmoParams::default()).unwrap();
        let bound = 0x4049000000000000; // 50.0
        #[rustfmt::skip]
        assert_solution(&cold, 124, 0x3fc4e49dbcecf310, &[
            (1, bound), (2, 0x3fe28975fac4edf6), (3, bound), (4, bound), (5, 0x403fe6b95237ca87),
            (9, bound), (14, bound), (15, 0x40348a68a3a0668c), (20, 0x40351a140c3c72c0),
            (26, 0x403de125dc8aa3da), (30, bound), (34, 0x4041daf3765dc3ee),
            (39, 0x40406eeb5ef933d3),
        ]);

        let (q, problem) = shrinking_fixture(64, 2005);
        let cold = solve(&q, &problem, &SmoParams::default()).unwrap();
        #[rustfmt::skip]
        assert_solution(&cold, 164, 0xbff5244c717f6880, &[
            (1, bound), (2, bound), (3, bound), (5, bound), (6, bound), (7, bound), (9, bound),
            (10, bound), (14, bound), (15, 0x40269215aaaba48f), (19, 0x4008a5addd91b632),
            (20, bound), (26, bound), (34, bound), (35, 0x40172bdf47ac3543), (38, bound),
            (39, bound), (40, 0x40455819a2f5d984), (44, bound), (48, bound),
            (49, 0x4017e01428769cda), (50, 0x403d15e47fff45fa), (53, bound), (54, bound),
            (56, 0x402f5273ee79bd56), (58, bound), (61, 0x40476e9a57f3b8e9),
        ]);

        let mut alpha: Vec<f64> = cold.alpha.iter().map(|&a| a.min(5.0)).collect();
        repair_equality_constraint(&mut alpha, &problem.y);
        let warm_problem =
            SmoProblem { upper_bound: vec![5.0; 64], initial_alpha: alpha, ..problem };
        let warm = solve(&q, &warm_problem, &SmoParams::default()).unwrap();
        let bound = 0x4014000000000000; // 5.0
        #[rustfmt::skip]
        assert_solution(&warm, 26, 0xbfc437c33feff3df, &[
            (1, bound), (2, bound), (3, bound), (5, bound), (6, bound), (7, bound), (9, bound),
            (10, bound), (13, 0x4012f35a29563556), (14, bound), (15, 0x400a0da7b29a0298),
            (20, bound), (26, bound), (27, 0x3ff26c45114b6b92), (34, bound), (35, bound),
            (38, bound), (39, bound), (40, 0x4012ae8af449a6dc), (44, bound), (48, bound),
            (50, bound), (53, bound), (54, bound), (56, bound), (58, bound), (61, bound),
        ]);
    }

    /// Every buffer the row cache takes is filled with NaN first, so a `Q`
    /// value the solver read from a recycled buffer's old contents instead
    /// of from its `QMatrix` would reach the result.  The pinned shrinking
    /// fits, warm fits that follow a fit of a different size, and fits whose
    /// 8-row cache evicts must all equal the unpoisoned fits bit for bit.
    #[test]
    fn recycled_row_buffers_never_reach_a_result() {
        let fits = || {
            let (q40, problem40) = shrinking_fixture(40, 1);
            let (q64, problem64) = shrinking_fixture(64, 2005);
            let evicting = SmoParams { cache_rows: 8, ..SmoParams::default() };
            let warm =
                |q: &DenseQ, problem: &SmoProblem, cold: &SmoSolution, params: &SmoParams| {
                    let mut alpha: Vec<f64> = cold.alpha.iter().map(|&a| a.min(5.0)).collect();
                    repair_equality_constraint(&mut alpha, &problem.y);
                    let upper_bound = vec![5.0; alpha.len()];
                    let problem =
                        SmoProblem { upper_bound, initial_alpha: alpha, ..problem.clone() };
                    solve(q, &problem, params).unwrap()
                };
            let default = SmoParams::default();
            let cold40 = solve(&q40, &problem40, &default).unwrap();
            let cold64 = solve(&q64, &problem64, &default).unwrap();
            let warm64 = warm(&q64, &problem64, &cold64, &default);
            let warm40 = warm(&q40, &problem40, &cold40, &evicting);
            let evicting64 = solve(&q64, &problem64, &evicting).unwrap();
            let warm64_evicting = warm(&q64, &problem64, &cold64, &evicting);
            [cold40, cold64, warm64, warm40, evicting64, warm64_evicting]
        };
        let clean = fits();
        POISON_TAKEN_ROWS.with(|poison| poison.set(true));
        let poisoned = fits();
        POISON_TAKEN_ROWS.with(|poison| poison.set(false));
        let bits = |solution: &SmoSolution| -> Vec<u64> {
            solution.alpha.iter().map(|a| a.to_bits()).collect()
        };
        for (clean, poisoned) in clean.iter().zip(&poisoned) {
            assert!(clean.iterations > 0);
            assert_eq!(poisoned.iterations, clean.iterations);
            assert_eq!(poisoned.rho.to_bits(), clean.rho.to_bits());
            assert_eq!(bits(poisoned), bits(clean));
        }
    }

    /// The row cache computes the rows a reference LRU misses, in the same
    /// order, hits where it hits and evicts what it evicts, and every row it
    /// serves holds that row's values, whichever buffer it recycled.
    #[test]
    fn row_cache_follows_a_reference_lru() {
        use std::cell::RefCell;

        struct LoggingQ {
            inner: DenseQ,
            computed: RefCell<Vec<usize>>,
        }
        impl QMatrix for LoggingQ {
            fn len(&self) -> usize {
                self.inner.len()
            }
            fn row(&self, i: usize, out: &mut [f64]) {
                self.computed.borrow_mut().push(i);
                self.inner.row(i, out);
            }
            fn diag(&self, i: usize) -> f64 {
                self.inner.diag(i)
            }
        }

        /// Resident rows, least recently used first, and what the requests
        /// so far cost.
        #[derive(Default)]
        struct ReferenceLru {
            order: Vec<usize>,
            misses: Vec<usize>,
            hits: usize,
            evictions: usize,
        }
        impl ReferenceLru {
            /// Requests row `i`; returns whether it was resident.
            fn request(&mut self, i: usize, capacity: usize) -> bool {
                let hit = match self.order.iter().position(|&r| r == i) {
                    Some(at) => {
                        self.order.remove(at);
                        self.hits += 1;
                        true
                    }
                    None => {
                        if self.order.len() == capacity {
                            self.order.remove(0);
                            self.evictions += 1;
                        }
                        self.misses.push(i);
                        false
                    }
                };
                self.order.push(i);
                hit
            }
        }

        let (n, capacity) = (24, 5);
        let q = LoggingQ {
            inner: DenseQ::from_fn(n, |i, j| (i * n + j) as f64),
            computed: RefCell::new(Vec::new()),
        };
        let mut cache = RowCache::new(capacity, n);
        let mut reference = ReferenceLru::default();
        let request = |cache: &mut RowCache, reference: &mut ReferenceLru, batch: &[usize]| {
            for &i in batch {
                let resident = cache.rows[i].is_some();
                assert_eq!(resident, reference.request(i, capacity), "row {i}");
            }
            match batch {
                [i] => cache.ensure(&q, *i),
                _ => cache.ensure_batch(&q, batch),
            }
            let mut expected = reference.order.clone();
            expected.sort_unstable();
            let resident: Vec<usize> = (0..n).filter(|&i| cache.rows[i].is_some()).collect();
            assert_eq!(resident, expected);
            let mut listed = cache.resident.clone();
            listed.sort_unstable();
            assert_eq!(listed, expected);
            assert_eq!(*q.computed.borrow(), reference.misses);
            for &i in batch {
                let row: Vec<f64> = (0..n).map(|j| (i * n + j) as f64).collect();
                assert_eq!(cache.row(i), row.as_slice());
            }
        };

        // Two blocks of a fresh cache, as `solve` fetches its warm-start
        // rows (out of index order, so a reordered fetch shows), then a hot
        // row among random ones, and one batch mixing the most recent row
        // with new ones.
        for block in [[7, 0, 8, 3], [23, 11, 19, 12]] {
            request(&mut cache, &mut reference, &block);
        }
        let mut state = 0x2005_u64;
        for step in 0..300 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = if step % 3 == 0 { 4 } else { (state >> 33) as usize % n };
            request(&mut cache, &mut reference, &[i]);
        }
        let mut batch = vec![*reference.order.last().unwrap()];
        batch.extend((0..n).filter(|i| !reference.order.contains(i)).take(capacity - 1));
        request(&mut cache, &mut reference, &batch);
        assert!(
            reference.hits > 50 && reference.evictions > 50,
            "{} hits, {} evictions",
            reference.hits,
            reference.evictions
        );
    }

    /// The first selection pass `select_first` replaced: shrunk variables
    /// are skipped, and each set's members compete by strict comparison.
    fn sequential_first_pass(
        status: &[u8],
        y: &[f64],
        grad: &[f64],
    ) -> (f64, Option<usize>, f64, Option<usize>) {
        let mut g_max = f64::NEG_INFINITY;
        let mut g_min = f64::INFINITY;
        let mut i_sel: Option<usize> = None;
        let mut low_sel: Option<usize> = None;
        for (t, ((&flags, &yt), &gt)) in status.iter().zip(y).zip(grad).enumerate() {
            if flags & SHRUNK != 0 {
                continue;
            }
            let value = -yt * gt;
            if flags & IN_UP != 0 && value > g_max {
                g_max = value;
                i_sel = Some(t);
            }
            if flags & IN_LOW != 0 && value < g_min {
                g_min = value;
                low_sel = Some(t);
            }
        }
        (g_max, i_sel, g_min, low_sel)
    }

    /// The branch-free first pass selects the same indices and the same
    /// `g_max`/`g_min` bits as the sequential scan, on random vectors, ties
    /// (+0 against -0 among them), NaN and infinite gradients, an all-shrunk
    /// set and empty up and low sets.
    #[test]
    fn branch_free_first_pass_equals_the_sequential_scan() {
        let check = |status: &[u8], y: &[f64], grad: &[f64]| {
            let (g_max, i, g_min, low) = select_first(status, y, grad);
            let (want_max, want_i, want_min, want_low) = sequential_first_pass(status, y, grad);
            let context = format!("status {status:?}, y {y:?}, grad {grad:?}");
            assert_eq!((i, low), (want_i, want_low), "{context}");
            assert_eq!(g_max.to_bits(), want_max.to_bits(), "g_max {g_max}, {context}");
            assert_eq!(g_min.to_bits(), want_min.to_bits(), "g_min {g_min}, {context}");
        };
        let mut state = 104_729_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let special =
            [0.0, -0.0, 1.0, -1.0, 0.25, f64::NAN, -f64::NAN, f64::INFINITY, -f64::INFINITY];
        for case in 0..2000 {
            let n = 1 + next() as usize % 40;
            let status: Vec<u8> =
                (0..n).map(|_| next() as u8 & (IN_UP | IN_LOW | SHRUNK)).collect();
            let y: Vec<f64> = (0..n).map(|_| if next() % 2 == 0 { 1.0 } else { -1.0 }).collect();
            let grad: Vec<f64> = (0..n)
                .map(|_| match case % 3 {
                    // Random values, few ties.
                    0 => (next() as f64 / (1u64 << 31) as f64) * 4.0 - 2.0,
                    // Ties, +0 and -0 among them.
                    1 => special[next() as usize % 5],
                    // Ties, NaN and infinities.
                    _ => special[next() as usize % special.len()],
                })
                .collect();
            check(&status, &y, &grad);
            let shrunk: Vec<u8> = status.iter().map(|&flags| flags | SHRUNK).collect();
            check(&shrunk, &y, &grad);
            let no_up: Vec<u8> = status.iter().map(|&flags| flags & !IN_UP).collect();
            check(&no_up, &y, &grad);
            let no_low: Vec<u8> = status.iter().map(|&flags| flags & !IN_LOW).collect();
            check(&no_low, &y, &grad);
        }
        check(&[], &[], &[]);
        // +0 and -0 tie: the first index and its sign are kept.
        let both = [IN_UP | IN_LOW; 2];
        assert_eq!(select_first(&both, &[1.0, 1.0], &[0.0, -0.0]).1, Some(0));
        assert_eq!(select_first(&both, &[1.0, 1.0], &[0.0, -0.0]).0.to_bits(), (-0.0f64).to_bits());
        assert_eq!(select_first(&both, &[1.0, 1.0], &[-0.0, 0.0]).0.to_bits(), 0.0f64.to_bits());
    }

    /// The equality-constraint repair drains surplus while staying in the
    /// box, whatever the surplus sign.  (The balance lands within absorption
    /// distance of zero — the last crumbs of the residual can be smaller
    /// than one ulp of the entries they are drained from.)
    #[test]
    fn equality_repair_restores_feasibility() {
        let y = [1.0, 1.0, -1.0, -1.0];
        let mut alpha = [0.9, 0.4, 0.2, 0.1];
        repair_equality_constraint(&mut alpha, &y);
        let balance: f64 = alpha.iter().zip(y.iter()).map(|(a, s)| a * s).sum();
        assert!(balance.abs() < 1e-12, "balance {balance}");
        assert!(alpha.iter().all(|&a| (0.0..=1.0).contains(&a)));
        // The lighter side is untouched.
        assert_eq!(&alpha[2..], &[0.2, 0.1]);

        let mut negative_surplus = [0.1, 0.0, 0.8, 0.5];
        repair_equality_constraint(&mut negative_surplus, &y);
        let balance: f64 = negative_surplus.iter().zip(y.iter()).map(|(a, s)| a * s).sum();
        assert!(balance.abs() < 1e-12, "balance {balance}");
        assert!(negative_surplus.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn objective_decreases_with_more_freedom() {
        // With larger C the optimum can only get better (more feasible space).
        let xs = [vec![0.0], vec![0.3], vec![0.7], vec![1.0]];
        let ys = [-1.0, 1.0, -1.0, 1.0];
        let kernel = Kernel::rbf(2.0);
        let q = DenseQ::from_fn(4, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
        let solve_with_c = |c: f64| {
            let problem = SmoProblem {
                y: ys.to_vec(),
                p: vec![-1.0; 4],
                upper_bound: vec![c; 4],
                initial_alpha: vec![0.0; 4],
            };
            solve(&q, &problem, &SmoParams::default()).unwrap().objective
        };
        assert!(solve_with_c(10.0) <= solve_with_c(0.5) + 1e-9);
    }
}
