//! Replaying a dense LU's pivot order over a system's structural nonzeros.

use std::ops::Range;

use super::dense::{lu_solve_into, LuScalar, Matrix, MIN_PIVOT};
use crate::CircuitError;

/// A factorization plan: the elimination a dense LU ran on a system, cut to
/// the entries that can be nonzero.
///
/// [`LuPlan::solve_dense`] solves a system with the dense LU and builds the
/// plan from the pivot positions it chose and the system's structure, every
/// entry that any system of one analysis may hold nonzero.  The build follows
/// the dense LU's row swaps symbolically, once, to find the fill and the rows
/// and columns each step touches.  [`LuPlan::solve`] then replays that LU on
/// the next system of the same structure, without moving its rows:
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
/// cases leave the plan, and the caller then reassembles or reloads the
/// system and calls [`LuPlan::solve_dense`], which plans the next systems
/// after it: a pivot that differs from the plan's; an `f64` pivot or a
/// factor that is not finite, for the dense LU would then spread NaN over
/// entries the plan skips (`0 / NaN`, `0 · ∞`); and a solution that is not
/// finite.  A vanishing pivot, or a complex pivot whose reciprocal is not
/// finite or is zero, is the dense LU's [`CircuitError::SingularMatrix`] at
/// the same step.
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
    /// The structure the plan was built from, row-major.
    structure: Vec<bool>,
    /// The pivot positions the last dense LU chose.
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
    /// caller reassembles it and calls [`LuPlan::solve_dense`].
    Fallback,
}

impl LuPlan {
    /// Solves `a x = b` with the dense LU (`lu_solve_into`) and, if it
    /// succeeds, rebuilds the plan, reusing its buffers, from the pivot
    /// positions it chose and `structure`, a row-major map of every entry
    /// that a system the plan will solve may hold nonzero.
    ///
    /// # Errors
    ///
    /// Returns the dense LU's [`CircuitError::SingularMatrix`]; the plan is
    /// then unchanged.
    ///
    /// # Panics
    ///
    /// Panics unless `structure` has an entry for each of `a`'s.
    pub(crate) fn solve_dense<T: LuScalar>(
        &mut self,
        a: &mut Matrix<T>,
        b: &mut [T],
        x: &mut [T],
        structure: &[bool],
    ) -> Result<(), CircuitError> {
        assert_eq!(structure.len(), a.values().len(), "structure must cover the matrix");
        let mut pivots = std::mem::take(&mut self.pivots);
        let solved = lu_solve_into(a, b, x, &mut pivots);
        if solved.is_ok() {
            self.rebuild(structure, &pivots);
        }
        self.pivots = pivots;
        solved
    }

    /// Builds the plan of `structure` and the dense LU's `pivots`.
    fn rebuild(&mut self, structure: &[bool], pivots: &[usize]) {
        let n = pivots.len();
        self.n = n;
        self.steps.clear();
        self.rows.clear();
        self.columns.clear();
        self.structure.clear();
        self.structure.extend_from_slice(structure);
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
    /// Every entry of `a` outside the plan's structure must be zero.
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
        debug_assert!(
            a.values()
                .iter()
                .zip(&self.structure)
                .all(|(value, &structural)| structural || value.is_zero()),
            "a nonzero entry lies outside the plan's structure"
        );
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

    use super::super::{solve_complex, Complex};
    use super::*;

    /// What one system did, counted so that the property test shows it met
    /// every case it is meant to.
    #[derive(Debug, Default)]
    struct Cases {
        replayed: usize,
        /// Finite systems that left the plan: a changed pivot order (or a
        /// factor that overflowed).
        finite_fallbacks: usize,
        non_finite_fallbacks: usize,
        singular_in_plan: usize,
        singular_dense: usize,
    }

    /// Bits of each solution value with −0 read as +0.
    fn bits<T: LuScalar>(x: &[T], to_bits: impl Fn(T) -> Vec<u64>) -> Vec<u64> {
        let plus_zero = |bits: u64| if bits == (-0.0f64).to_bits() { 0 } else { bits };
        x.iter().flat_map(|&value| to_bits(value)).map(plus_zero).collect()
    }

    /// Solves a sequence of random systems of random sparse structures both
    /// densely and through a plan rebuilt after each fallback, as the
    /// analyses do, checks that both give the same singular pivot or the
    /// same solution bits, and counts the cases met in `cases`.
    fn planned_solves_match_dense<T: LuScalar + std::fmt::Debug>(
        seed: u64,
        mut draw: impl FnMut(&mut StdRng) -> T,
        non_finite: T,
        to_bits: impl Fn(T) -> Vec<u64> + Copy,
        cases: &mut Cases,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = LuPlan::default();
        for _ in 0..400 {
            let n = rng.gen_range(1..10usize);
            let density = rng.gen_range(0.1..0.6);
            let structure: Vec<bool> = (0..n * n)
                .map(|i| rng.gen_range(0.0..1.0) < if i / n == i % n { 0.85 } else { density })
                .collect();
            // Each structure starts from the plan of a full one whose pivots
            // stay in place, which its systems either happen to fit or leave.
            // Its pivots must be invertible.
            let mut identity = Matrix::<T>::zeros(n);
            for k in 0..n {
                while identity[(k, k)].is_zero() || identity[(k, k)].scale().is_none() {
                    identity[(k, k)] = draw(&mut rng);
                }
            }
            let (mut b, mut x) = (vec![T::default(); n], vec![T::default(); n]);
            plan.solve_dense(&mut identity, &mut b, &mut x, &vec![true; n * n]).unwrap();
            for system in 0..8 {
                let mut a = Matrix::zeros(n);
                for (i, &structural) in structure.iter().enumerate() {
                    if structural {
                        a[(i / n, i % n)] = draw(&mut rng);
                    }
                }
                let mut b: Vec<T> = (0..n).map(|_| draw(&mut rng)).collect();
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

                let (mut dense_a, mut dense_b, mut dense_x) =
                    (a.clone(), b.clone(), vec![T::default(); n]);
                let dense =
                    lu_solve_into(&mut dense_a, &mut dense_b, &mut dense_x, &mut Vec::new())
                        .map(|()| bits(&dense_x, to_bits));

                let (mut plan_a, mut plan_b, mut plan_x) =
                    (a.clone(), b.clone(), vec![T::default(); n]);
                let planned = match plan.solve(&mut plan_a, &mut plan_b, &mut plan_x) {
                    Ok(Replay::Solved) => {
                        cases.replayed += 1;
                        Ok(bits(&plan_x, to_bits))
                    }
                    Err(error) => {
                        cases.singular_in_plan += 1;
                        Err(error)
                    }
                    Ok(Replay::Fallback) => {
                        if non_finite_input {
                            cases.non_finite_fallbacks += 1;
                        } else {
                            cases.finite_fallbacks += 1;
                        }
                        let (mut a, mut b) = (a.clone(), b.clone());
                        let solved = plan.solve_dense(&mut a, &mut b, &mut plan_x, &structure);
                        if solved.is_err() {
                            cases.singular_dense += 1;
                        }
                        solved.map(|()| bits(&plan_x, to_bits))
                    }
                };
                assert_eq!(planned, dense, "n = {n}, system {system}: {a:?}, {b:?}");
            }
        }
    }

    fn assert_every_case_met(cases: &Cases) {
        assert!(cases.replayed > 1000, "{cases:?}");
        assert!(cases.finite_fallbacks > 100, "{cases:?}");
        assert!(cases.non_finite_fallbacks > 20, "{cases:?}");
        assert!(cases.singular_in_plan > 20, "{cases:?}");
        assert!(cases.singular_dense > 20, "{cases:?}");
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
            let mut identity = Matrix::zeros(2);
            identity[(0, 0)] = Complex::one();
            identity[(1, 1)] = Complex::one();
            let (mut rhs, mut x) = (vec![Complex::zero(); 2], vec![Complex::zero(); 2]);
            plan.solve_dense(&mut identity, &mut rhs, &mut x, &[true; 4]).unwrap();
            let mut b = b;
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
