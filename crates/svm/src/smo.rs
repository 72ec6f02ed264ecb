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

use crate::{Result, SvmError};

/// Value used in place of a non-positive second derivative of the
/// two-variable sub-problem (guards against a numerically indefinite kernel).
const TAU: f64 = 1e-12;

/// Warm-start gradient rows fetched per batched [`QMatrix::rows`] call.
const WARM_ROW_BLOCK: usize = 8;

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
    fn row(&self, i: usize, out: &mut [f64]);

    /// Writes every row of `indices` into `out`, row `r` occupying
    /// `out[r * len .. (r + 1) * len]`.
    ///
    /// Must be element-for-element identical to calling [`QMatrix::row`]
    /// once per index in order — the default does exactly that.
    /// Implementations backed by a batched kernel engine override it to
    /// amortize memory traffic across the rows (used by the solver's
    /// warm-start gradient reconstruction, which touches one row per
    /// initially non-zero variable).
    fn rows(&self, indices: &[usize], out: &mut [f64]) {
        let n = self.len();
        debug_assert_eq!(out.len(), indices.len() * n);
        for (row, &i) in out.chunks_exact_mut(n).zip(indices) {
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
/// at once instead of copying them out.
struct RowCache {
    capacity: usize,
    clock: u64,
    resident: usize,
    /// One slot per row: `(last-use stamp, row values)` when resident.
    rows: Vec<Option<(u64, Vec<f64>)>>,
}

impl RowCache {
    fn new(capacity: usize, n: usize) -> Self {
        RowCache { capacity: capacity.max(2), clock: 0, resident: 0, rows: vec![None; n] }
    }

    /// Makes row `i` resident (computing it if needed, evicting the
    /// least-recently-used row when at capacity) and refreshes its recency.
    fn ensure<Q: QMatrix>(&mut self, q: &Q, i: usize) {
        self.clock += 1;
        if let Some((stamp, _)) = self.rows[i].as_mut() {
            *stamp = self.clock;
            return;
        }
        if self.resident >= self.capacity {
            let evict = self
                .rows
                .iter()
                .enumerate()
                .filter_map(|(t, slot)| slot.as_ref().map(|(stamp, _)| (*stamp, t)))
                .min()
                .map(|(_, t)| t)
                .expect("a full cache has a least-recently-used row");
            self.rows[evict] = None;
            self.resident -= 1;
        }
        let mut row = vec![0.0; q.len()];
        q.row(i, &mut row);
        self.rows[i] = Some((self.clock, row));
        self.resident += 1;
    }

    /// Makes every row of `batch` resident with one batched
    /// [`QMatrix::rows`] fetch for the misses.
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
        let mut fetched = vec![0.0; misses.len() * q.len()];
        q.rows(&misses, &mut fetched);
        let mut chunks = fetched.chunks_exact(q.len());
        for &i in batch {
            self.clock += 1;
            if let Some((stamp, _)) = self.rows[i].as_mut() {
                *stamp = self.clock;
                continue;
            }
            if self.resident >= self.capacity {
                let evict = self
                    .rows
                    .iter()
                    .enumerate()
                    .filter_map(|(t, slot)| slot.as_ref().map(|(stamp, _)| (*stamp, t)))
                    .min()
                    .map(|(_, t)| t)
                    .expect("a full cache has a least-recently-used row");
                self.rows[evict] = None;
                self.resident -= 1;
            }
            let row = chunks.next().expect("one fetched row per miss").to_vec();
            self.rows[i] = Some((self.clock, row));
            self.resident += 1;
        }
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
    let mut active: Vec<usize> = (0..n).collect();
    let shrink_interval = n.clamp(1, 1000);
    let mut since_shrink = 0usize;

    let mut iterations = 0;
    loop {
        // Working-set selection, first pass: the maximal violator `i` over
        // the active set's "up" index set, plus the minimal "low" value for
        // the stopping test (`m(a) - M(a) <= tolerance`, Keerthi et al.).
        let mut g_max = f64::NEG_INFINITY;
        let mut g_min = f64::INFINITY;
        let mut i_sel: Option<usize> = None;
        let mut low_sel: Option<usize> = None;
        for &t in &active {
            let value = -y[t] * grad[t];
            let in_up = (y[t] > 0.0 && alpha[t] < c[t]) || (y[t] < 0.0 && alpha[t] > 0.0);
            let in_low = (y[t] > 0.0 && alpha[t] > 0.0) || (y[t] < 0.0 && alpha[t] < c[t]);
            if in_up && value > g_max {
                g_max = value;
                i_sel = Some(t);
            }
            if in_low && value < g_min {
                g_min = value;
                low_sel = Some(t);
            }
        }

        // `None` pair: every variable is stuck at a bound in a way that
        // leaves one of the index sets empty — the current point is optimal
        // for the feasible region.
        let converged = match (i_sel, low_sel) {
            (Some(_), Some(_)) => g_max - g_min <= params.tolerance,
            _ => true,
        };
        if converged {
            if active.len() == n {
                break;
            }
            // The *shrunk* problem converged; restore every variable and
            // re-check optimality on the full set before accepting.
            active = (0..n).collect();
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
            let diag_i = q.diag(i);
            let mut j_sel: Option<usize> = None;
            let mut best_gain = f64::NEG_INFINITY;
            for &t in &active {
                let in_low = (y[t] > 0.0 && alpha[t] > 0.0) || (y[t] < 0.0 && alpha[t] < c[t]);
                if !in_low {
                    continue;
                }
                let grad_diff = g_max + y[t] * grad[t];
                if grad_diff <= 0.0 {
                    continue;
                }
                // `a_it = K_ii + K_tt - 2 K_it`; `Q[i][t] = y_i y_t K_it`.
                let mut quad = diag_i + q.diag(t) - 2.0 * y[i] * y[t] * q_i[t];
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
            active.retain(|&t| {
                let value = -y[t] * grad[t];
                let in_up = (y[t] > 0.0 && alpha[t] < c[t]) || (y[t] < 0.0 && alpha[t] > 0.0);
                let in_low = (y[t] > 0.0 && alpha[t] > 0.0) || (y[t] < 0.0 && alpha[t] < c[t]);
                match (in_up, in_low) {
                    (true, true) => true,
                    (true, false) => value >= g_min,
                    (false, true) => value <= g_max,
                    (false, false) => false,
                }
            });
        }

        cache.ensure(q, j);
        cache.ensure(q, i);
        let (q_i, q_j) = (cache.row(i), cache.row(j));
        let old_ai = alpha[i];
        let old_aj = alpha[j];

        if (y[i] - y[j]).abs() > f64::EPSILON {
            // Opposite signs.
            let mut quad = q.diag(i) + q.diag(j) + 2.0 * q_i[j];
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
            let mut quad = q.diag(i) + q.diag(j) - 2.0 * q_i[j];
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

        let delta_i = alpha[i] - old_ai;
        let delta_j = alpha[j] - old_aj;
        if delta_i == 0.0 && delta_j == 0.0 {
            // Numerically stuck pair; the violating gap is below what the
            // arithmetic can resolve.  Restore any shrunk variables first so
            // the conclusion is reached on the full problem.
            if active.len() == n {
                break;
            }
            active = (0..n).collect();
            since_shrink = 0;
            continue;
        }
        for t in 0..n {
            grad[t] += q_i[t] * delta_i + q_j[t] * delta_j;
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
    /// linear kernel gives alpha_1 = alpha_2 = 0.5 (when C is large).
    #[test]
    fn two_point_classification_recovers_known_alphas() {
        let xs = [vec![-1.0], vec![1.0]];
        let ys = [-1.0, 1.0];
        let kernel = Kernel::linear();
        let q = DenseQ::from_fn(2, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
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
        assert_eq!(cache.resident, 2);
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
