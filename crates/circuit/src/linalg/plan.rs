//! Replaying a dense LU's pivot order over a system's structural nonzeros.

use std::ops::Range;

use super::dense::{LuScalar, Matrix, MIN_PIVOT};
use crate::CircuitError;

/// A factorization plan: the elimination a dense LU ran on a system, cut to
/// the entries that can be nonzero.
///
/// [`LuPlan::rebuild`] builds the plan from the pivot positions a dense LU
/// (`lu_solve_into`) chose and the system's structure, every entry that any
/// system of that structure may hold nonzero.  The build follows the dense
/// LU's row swaps symbolically, once, to find the fill and the rows and
/// columns each step touches.  [`LuPlan::solve`] then replays that LU on a
/// system of the same structure, without moving its rows:
///
/// * the same pivot test: the magnitudes of the rows that may hold the
///   pivot, scanned in the dense LU's position order with a strict `>`;
/// * the same factors (`row[k] / pivot` in `f64`, `row[k] * pivot.recip()`
///   in [`super::Complex`]), skipped when exactly zero as the dense LU skips
///   them;
/// * the same `entry -= factor * v` updates, step by step in ascending `k`,
///   and the same back substitution in ascending columns.
///
/// An entry outside the structure is an exact zero, and the dense LU only
/// adds or subtracts exact zeros for it.  So every nonzero result has the
/// dense LU's bits, and only the sign of an exact zero may differ.  Four
/// cases leave the plan, and the caller then restores the system and tries
/// another plan or the dense LU (see [`super::book`]): a pivot that differs
/// from the plan's; an `f64` pivot or a factor that is not finite, for the
/// dense LU would then spread NaN over entries the plan skips (`0 / NaN`,
/// `0 · ∞`); and a solution that is not finite.  A vanishing pivot, or a
/// complex pivot whose reciprocal is not finite or is zero, is the dense
/// LU's [`CircuitError::SingularMatrix`] at the same step.
///
/// A replay that completes has chosen, at every step, the pivot the dense
/// LU's rule chooses on that system, so two plans of one structure that both
/// complete on a system are the same plan: which plan solves a system never
/// changes its bits.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuPlan {
    /// Matrix size; 0 before the first build.
    n: usize,
    /// One step per pivot column.
    steps: Vec<Step>,
    /// The candidate and eliminated rows of every step.
    rows: Vec<usize>,
    /// The pivot-row columns of every step.
    columns: Vec<usize>,
    /// The pivot positions of the dense LU the plan replays, which with the
    /// structure determine the plan.
    pivots: Vec<usize>,
    /// Build scratch: the structure with the fill so far.
    filled: Vec<bool>,
    /// Build scratch: the row at each position of the dense LU.
    position: Vec<usize>,
}

/// Step `k` of a [`LuPlan`], whose pivot column is `k`.
#[derive(Debug, Clone)]
struct Step {
    /// The rows that may hold the pivot, in `LuPlan::rows`: the row at
    /// position `k` of the dense LU, then each row below it whose entry in
    /// column `k` is structural, in position order.
    candidates: Range<usize>,
    /// The candidate the dense LU chose, if it is one.
    pivot: Option<usize>,
    /// The pivot row.
    pivot_row: usize,
    /// The rows below the pivot whose entry in column `k` is structural, in
    /// `LuPlan::rows`.
    eliminated: Range<usize>,
    /// The pivot row's structural columns right of `k`, ascending, in
    /// `LuPlan::columns`.
    upper: Range<usize>,
}

/// What [`LuPlan::solve`] did with a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Replay {
    /// The system is solved.
    Solved,
    /// The system left the plan, and its buffers hold partial results: the
    /// caller restores it before solving it another way.
    Fallback,
}

impl LuPlan {
    /// The pivot positions of the dense LU the plan replays.
    pub(crate) fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Builds, reusing the plan's buffers, the plan of `structure`, a
    /// row-major map of every entry that a system the plan will solve may
    /// hold nonzero, and `pivots`, the positions a dense LU of such a system
    /// chose.
    ///
    /// # Panics
    ///
    /// Panics unless `structure` has `pivots.len()²` entries.
    pub(crate) fn rebuild(&mut self, structure: &[bool], pivots: &[usize]) {
        let n = pivots.len();
        assert_eq!(structure.len(), n * n, "structure must cover the matrix");
        self.n = n;
        self.steps.clear();
        self.rows.clear();
        self.columns.clear();
        self.pivots.clear();
        self.pivots.extend_from_slice(pivots);
        self.filled.clear();
        self.filled.extend_from_slice(structure);
        self.position.clear();
        self.position.extend(0..n);
        for (k, &pivot_position) in pivots.iter().enumerate() {
            let start = self.rows.len();
            self.rows.push(self.position[k]);
            for &row in &self.position[k + 1..] {
                if self.filled[row * n + k] {
                    self.rows.push(row);
                }
            }
            let candidates = start..self.rows.len();
            let pivot_row = self.position[pivot_position];
            let pivot = self.rows[candidates.clone()].iter().position(|&row| row == pivot_row);
            self.position.swap(k, pivot_position);

            let start = self.columns.len();
            for column in k + 1..n {
                if self.filled[pivot_row * n + column] {
                    self.columns.push(column);
                }
            }
            let upper = start..self.columns.len();
            let start = self.rows.len();
            for &row in &self.position[k + 1..] {
                if self.filled[row * n + k] {
                    self.rows.push(row);
                    for &column in &self.columns[upper.clone()] {
                        self.filled[row * n + column] = true;
                    }
                }
            }
            let eliminated = start..self.rows.len();
            self.steps.push(Step { candidates, pivot, pivot_row, eliminated, upper });
        }
    }

    /// Solves `a x = b` by replaying the plan, like the dense LU: factorizes
    /// `a` in place, overwrites `b` and writes the solution to `x`, whose
    /// previous contents are never read.  An empty plan, or one of another
    /// size, falls back at once.
    ///
    /// Every entry of `a` outside the structure the plan was built from must
    /// be zero.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] at the step where the dense
    /// LU would.
    pub(crate) fn solve<T: LuScalar>(
        &self,
        a: &mut Matrix<T>,
        b: &mut [T],
        x: &mut [T],
    ) -> Result<Replay, CircuitError> {
        let n = self.n;
        if a.size() != n {
            return Ok(Replay::Fallback);
        }
        let values = a.values_mut();
        for (k, step) in self.steps.iter().enumerate() {
            let candidates = &self.rows[step.candidates.clone()];
            let mut chosen = 0;
            let mut pivot_mag = values[candidates[0] * n + k].magnitude();
            for (index, &row) in candidates.iter().enumerate().skip(1) {
                let mag = values[row * n + k].magnitude();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    chosen = index;
                }
            }
            if pivot_mag < MIN_PIVOT {
                return Err(CircuitError::SingularMatrix { pivot: k });
            }
            if Some(chosen) != step.pivot {
                return Ok(Replay::Fallback);
            }
            let pivot_at = step.pivot_row * n;
            let Some(scale) = values[pivot_at + k].scale() else {
                return Err(CircuitError::SingularMatrix { pivot: k });
            };
            if !scale.is_finite() {
                // The dense LU would give the rows the plan skips a NaN factor.
                return Ok(Replay::Fallback);
            }
            let columns = &self.columns[step.upper.clone()];
            for &row in &self.rows[step.eliminated.clone()] {
                let row_at = row * n;
                let factor = values[row_at + k].factor(scale);
                if factor.is_zero() {
                    continue;
                }
                if !factor.is_finite() {
                    return Ok(Replay::Fallback);
                }
                for &column in columns {
                    let v = values[pivot_at + column];
                    values[row_at + column] -= factor * v;
                }
                let pivot_b = b[step.pivot_row];
                b[row] -= factor * pivot_b;
            }
        }
        for (k, step) in self.steps.iter().enumerate().rev() {
            let pivot_at = step.pivot_row * n;
            let mut sum = b[step.pivot_row];
            for &column in &self.columns[step.upper.clone()] {
                sum -= values[pivot_at + column] * x[column];
            }
            x[k] = sum / values[pivot_at + k];
        }
        if !x.iter().all(|value| value.is_finite()) {
            return Ok(Replay::Fallback);
        }
        #[cfg(test)]
        count_factorization(true);
        Ok(Replay::Solved)
    }
}

/// Factorizations run on one thread, counted for tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Factorizations {
    /// Systems a plan solved.
    pub(crate) replayed: usize,
    /// Systems the dense LU factorized.
    pub(crate) dense: usize,
}

#[cfg(test)]
thread_local! {
    static FACTORIZATIONS: std::cell::Cell<Factorizations> =
        const { std::cell::Cell::new(Factorizations { replayed: 0, dense: 0 }) };
}

/// Counts one factorization on this thread.
#[cfg(test)]
pub(crate) fn count_factorization(replayed: bool) {
    FACTORIZATIONS.with(|cell| {
        let mut counts = cell.get();
        if replayed {
            counts.replayed += 1;
        } else {
            counts.dense += 1;
        }
        cell.set(counts);
    });
}

/// The factorizations run on this thread since the last call.
#[cfg(test)]
pub(crate) fn take_factorizations() -> Factorizations {
    FACTORIZATIONS.with(|cell| cell.replace(Factorizations::default()))
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::super::book::{PlanBook, PLANS_PER_STRUCTURE};
    use super::super::dense::lu_solve_into;
    use super::super::{solve_complex, Complex};
    use super::*;

    /// What one system did, counted so that the property test shows it met
    /// every case it is meant to.
    #[derive(Debug, Default)]
    struct Cases {
        /// Systems the plan that solved the last system of their structure
        /// solved.
        replayed_first: usize,
        /// Systems another plan of the book solved.
        replayed_other: usize,
        /// Finite systems that left every plan: a changed pivot order (or a
        /// factor that overflowed).
        finite_fallbacks: usize,
        non_finite_fallbacks: usize,
        singular_in_plan: usize,
        singular_dense: usize,
        /// Dense LUs whose new plan took the place of a shelf's least
        /// recently used one.
        plans_dropped: usize,
        /// Structures the book dropped and met again.
        shelves_dropped: usize,
        /// Solutions holding an exact zero of a system without a `−0`
        /// entry, whose bits must match the dense LU's zeros included.
        exact_zeros: usize,
    }

    /// Solves a sequence of random systems of random sparse structures both
    /// densely and through a plan book, as the analyses do, checks that both
    /// give the same singular pivot or the same solution bits, and counts
    /// the cases met in `cases`.
    ///
    /// The structures outnumber the shelves a book keeps, and the systems
    /// of one structure redraw some of their entries from one system to the
    /// next, like the iterations of an analysis, so that their pivot orders
    /// recur, change and come back.  Only the sign of an exact zero may
    /// differ from the dense LU, and not even that for a system without a
    /// `−0` entry, which is every system an analysis assembles.
    fn planned_solves_match_dense<T: LuScalar + std::fmt::Debug>(
        seed: u64,
        mut draw: impl FnMut(&mut StdRng) -> T,
        non_finite: T,
        to_bits: impl Fn(T) -> Vec<u64> + Copy,
        cases: &mut Cases,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut book = PlanBook::new();
        let structures: Vec<Vec<bool>> = (0..40)
            .map(|_| {
                let n = rng.gen_range(1..10usize);
                let density = rng.gen_range(0.1..0.6);
                (0..n * n)
                    .map(|i| rng.gen_range(0.0..1.0) < if i / n == i % n { 0.85 } else { density })
                    .collect()
            })
            .collect();
        let mut shelves = vec![0u64; structures.len()];
        for _ in 0..400 {
            let which = rng.gen_range(0..structures.len());
            let structure = &structures[which];
            let n = (structure.len() as f64).sqrt() as usize;
            let mut a = Matrix::zeros(n);
            for system in 0..8 {
                for (i, &structural) in structure.iter().enumerate() {
                    if structural && (system == 0 || rng.gen_range(0.0..1.0) < 0.3) {
                        a[(i / n, i % n)] = draw(&mut rng);
                    }
                }
                let mut b: Vec<T> = (0..n).map(|_| draw(&mut rng)).collect();
                let mut a = a.clone();
                let has_non_finite = system == 7 && rng.gen_range(0.0..1.0) < 0.5;
                if has_non_finite {
                    let i = rng.gen_range(0..n * n + n);
                    if i < n * n {
                        if structure[i] {
                            a[(i / n, i % n)] = non_finite;
                        }
                    } else {
                        b[i - n * n] = non_finite;
                    }
                }
                if system == 6 {
                    // A structurally present but all-zero column.
                    let column = rng.gen_range(0..n);
                    for row in 0..n {
                        a[(row, column)] = T::default();
                    }
                }
                let non_finite_input = !a.values().iter().chain(&b).all(|v| v.is_finite());
                let negative_zero = (-0.0f64).to_bits();
                let exact =
                    !a.values().iter().chain(&b).any(|&v| to_bits(v).contains(&negative_zero));

                let (mut dense_a, mut dense_b, mut dense_x) =
                    (a.clone(), b.clone(), vec![T::default(); n]);
                let dense =
                    lu_solve_into(&mut dense_a, &mut dense_b, &mut dense_x, &mut Vec::new()).map(
                        |()| dense_x.iter().flat_map(|&value| to_bits(value)).collect::<Vec<_>>(),
                    );

                let (mut plan_a, mut plan_b, mut plan_x) =
                    (a.clone(), b.clone(), vec![T::default(); n]);
                let known = shelves[which];
                let shelf = book.shelf(&mut shelves[which], structure);
                if known != 0 && shelves[which] != known {
                    cases.shelves_dropped += 1;
                }
                let before: Vec<Vec<usize>> =
                    shelf.plans().iter().map(|plan| plan.pivots().to_vec()).collect();
                take_factorizations();
                let load = |plan_a: &mut Matrix<T>, plan_b: &mut [T]| {
                    plan_a.copy_from(&a);
                    plan_b.copy_from_slice(&b);
                };
                let planned = shelf.solve(&mut plan_a, &mut plan_b, &mut plan_x, load);
                let counts = take_factorizations();
                let after: Vec<Vec<usize>> =
                    shelf.plans().iter().map(|plan| plan.pivots().to_vec()).collect();
                match (&planned, counts.dense) {
                    (Ok(()), 0) if before.first() == after.first() => cases.replayed_first += 1,
                    (Ok(()), 0) => cases.replayed_other += 1,
                    (Err(_), 0) => cases.singular_in_plan += 1,
                    (Err(_), _) => cases.singular_dense += 1,
                    (Ok(()), _) if non_finite_input => cases.non_finite_fallbacks += 1,
                    (Ok(()), _) => cases.finite_fallbacks += 1,
                }
                if counts.dense > 0 && planned.is_ok() && !before.contains(&after[0]) {
                    if before.len() == after.len() {
                        cases.plans_dropped += 1;
                    }
                    assert!(after.len() <= PLANS_PER_STRUCTURE, "{} plans", after.len());
                }
                let planned = planned
                    .map(|()| plan_x.iter().flat_map(|&value| to_bits(value)).collect::<Vec<_>>());
                if exact {
                    if matches!(&planned, Ok(x) if x.iter().any(|&bits| bits << 1 == 0)) {
                        cases.exact_zeros += 1;
                    }
                    assert_eq!(planned, dense, "n = {n}, system {system}: {a:?}, {b:?}");
                } else {
                    let plus_zero = |x: Vec<u64>| {
                        x.into_iter()
                            .map(|bits| if bits == negative_zero { 0 } else { bits })
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(
                        planned.map(plus_zero),
                        dense.map(plus_zero),
                        "n = {n}, system {system}: {a:?}, {b:?}"
                    );
                }
            }
        }
    }

    fn assert_every_case_met(cases: &Cases) {
        assert!(cases.replayed_first > 500, "{cases:?}");
        assert!(cases.replayed_other > 100, "{cases:?}");
        assert!(cases.finite_fallbacks > 100, "{cases:?}");
        assert!(cases.non_finite_fallbacks > 20, "{cases:?}");
        assert!(cases.singular_in_plan > 20, "{cases:?}");
        assert!(cases.singular_dense > 20, "{cases:?}");
        assert!(cases.plans_dropped > 20, "{cases:?}");
        assert!(cases.shelves_dropped > 20, "{cases:?}");
        assert!(cases.exact_zeros > 20, "{cases:?}");
    }

    #[test]
    fn replayed_real_solves_equal_the_dense_lu() {
        let draw = |rng: &mut StdRng| match rng.gen_range(0..20) {
            // Ties in magnitude, and structurally present exact zeros.
            0..=5 => [1.0, -1.0][rng.gen_range(0..2usize)],
            6 | 7 => [0.0, -0.0][rng.gen_range(0..2usize)],
            // Factors that overflow.
            8 => rng.gen_range(-2.0..2.0) * 1e-170,
            9 => rng.gen_range(-2.0..2.0) * 1e170,
            _ => rng.gen_range(-2.0..2.0) * 10f64.powi(rng.gen_range(-3..4)),
        };
        let mut cases = Cases::default();
        for (seed, non_finite) in [(1, f64::NAN), (2, f64::INFINITY), (3, f64::NEG_INFINITY)] {
            planned_solves_match_dense(seed, draw, non_finite, |v| vec![v.to_bits()], &mut cases);
        }
        assert_every_case_met(&cases);
    }

    /// `[[s, 0], [s, 1]] x = [s, s + 1]`, whose solution is `[1, 1]`, has a
    /// complex pivot `s` whose reciprocal is not finite at s = 1e-170 (its
    /// squared magnitude underflows) and is zero at s = 1e170 (it
    /// overflows).  Both are singular, densely and through a plan: an LU
    /// that took them would return `[NaN, NaN]` and `[0, 1e170]`.
    #[test]
    fn complex_pivots_without_a_usable_reciprocal_are_singular() {
        let singular = CircuitError::SingularMatrix { pivot: 0 };
        for s in [1e-170, 1e170].map(Complex::real) {
            let mut a = Matrix::zeros(2);
            a[(0, 0)] = s;
            a[(1, 0)] = s;
            a[(1, 1)] = Complex::one();
            let b = vec![s, s + Complex::one()];
            assert_eq!(solve_complex(a.clone(), b.clone()), Err(singular.clone()), "s = {s}");

            // A plan of the full structure whose pivots stay in place, as the
            // system's would.
            let mut plan = LuPlan::default();
            plan.rebuild(&[true; 4], &[0, 1]);
            let (mut b, mut x) = (b, vec![Complex::zero(); 2]);
            assert_eq!(plan.solve(&mut a, &mut b, &mut x), Err(singular.clone()), "s = {s}");
        }
    }

    #[test]
    fn replayed_complex_solves_equal_the_dense_lu() {
        let draw = |rng: &mut StdRng| match rng.gen_range(0..20) {
            // 1, −1, j and −j tie in magnitude.
            0..=5 => [Complex::one(), -Complex::one(), Complex::j(), -Complex::j()]
                [rng.gen_range(0..4usize)],
            6 | 7 => Complex::new(
                [0.0, -0.0][rng.gen_range(0..2usize)],
                [0.0, -0.0][rng.gen_range(0..2usize)],
            ),
            8 | 9 => Complex::real(rng.gen_range(-2.0..2.0)),
            // A pivot whose reciprocal overflows, and factors that do.
            10 => Complex::new(rng.gen_range(-2.0..2.0), 0.0) * 1e-170,
            11 => Complex::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)) * 1e170,
            _ => {
                Complex::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0))
                    * 10f64.powi(rng.gen_range(-3..4))
            }
        };
        let to_bits = |z: Complex| vec![z.re.to_bits(), z.im.to_bits()];
        let mut cases = Cases::default();
        for (seed, non_finite) in [
            (4, Complex::new(f64::NAN, 0.0)),
            (5, Complex::new(0.0, f64::INFINITY)),
            (6, Complex::new(f64::INFINITY, 1.0)),
        ] {
            planned_solves_match_dense(seed, draw, non_finite, to_bits, &mut cases);
        }
        assert_every_case_met(&cases);
    }
}
