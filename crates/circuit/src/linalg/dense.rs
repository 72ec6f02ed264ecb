//! Dense matrices and the dense LU solve (real and complex).

use std::ops::{Div, Mul, SubAssign};

use super::Complex;
use crate::CircuitError;

/// A dense, row-major `n × n` matrix of generic scalars.
///
/// # Example
///
/// ```
/// use stc_circuit::linalg::{solve_real, Matrix};
///
/// # fn main() -> Result<(), stc_circuit::CircuitError> {
/// let mut a = Matrix::zeros(2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// let x = solve_real(a, vec![2.0, 8.0])?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    n: usize,
    values: Vec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// Creates an `n × n` matrix filled with the default scalar (zero).
    pub fn zeros(n: usize) -> Self {
        Matrix { n, values: vec![T::default(); n * n] }
    }

    /// Matrix dimension.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Resets every entry to the default scalar, keeping the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.values {
            *v = T::default();
        }
    }

    /// The entries, row-major.
    pub(crate) fn values(&self) -> &[T] {
        &self.values
    }

    /// The entries, row-major, for writing.
    pub(crate) fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Overwrites every entry with `other`'s, keeping the allocation.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices differ in size.
    pub(crate) fn copy_from(&mut self, other: &Matrix<T>) {
        self.values.copy_from_slice(&other.values);
    }
}

impl<T> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (row, col): (usize, usize)) -> &T {
        &self.values[row * self.n + col]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        &mut self.values[row * self.n + col]
    }
}

impl Matrix<f64> {
    /// Adds `value` to entry `(row, col)` — the MNA "stamp" primitive.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self.values[row * self.n + col] += value;
    }
}

impl Matrix<Complex> {
    /// Adds `value` to entry `(row, col)` — the MNA "stamp" primitive.
    pub fn add(&mut self, row: usize, col: usize, value: Complex) {
        let entry = &mut self.values[row * self.n + col];
        *entry += value;
    }
}

/// A scalar the LU factorizations run over: `f64` for DC and transient
/// systems, [`Complex`] for AC ones.
pub(crate) trait LuScalar:
    Copy + Default + SubAssign + Mul<Output = Self> + Div<Output = Self>
{
    /// The magnitude partial pivoting compares.
    fn magnitude(self) -> f64;

    /// What the factors of the pivot `self` are computed from: the pivot
    /// itself for `f64`, its reciprocal for [`Complex`].  `None` when the
    /// pivot cannot be inverted: a complex pivot whose reciprocal is not
    /// finite (its squared magnitude underflows, or it is not finite) or is
    /// exactly zero (its squared magnitude overflows).
    fn scale(self) -> Option<Self>;

    /// The factor of the entry `self` below a pivot of scale `scale`.
    fn factor(self, scale: Self) -> Self;

    /// Whether the value is exactly zero (either sign).
    fn is_zero(self) -> bool;

    /// Whether the value is finite.
    fn is_finite(self) -> bool;
}

impl LuScalar for f64 {
    fn magnitude(self) -> f64 {
        self.abs()
    }

    fn scale(self) -> Option<f64> {
        Some(self)
    }

    fn factor(self, pivot: f64) -> f64 {
        self / pivot
    }

    fn is_zero(self) -> bool {
        self == 0.0
    }

    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl LuScalar for Complex {
    fn magnitude(self) -> f64 {
        self.norm()
    }

    fn scale(self) -> Option<Complex> {
        let inverse = self.recip();
        (inverse.is_finite() && !inverse.is_zero()).then_some(inverse)
    }

    // `Div` multiplies by the reciprocal, so each factor has the bits of
    // `entry / pivot`.
    fn factor(self, inverse: Complex) -> Complex {
        self * inverse
    }

    fn is_zero(self) -> bool {
        self.re == 0.0 && self.im == 0.0
    }

    fn is_finite(self) -> bool {
        Complex::is_finite(&self)
    }
}

/// The smallest pivot magnitude an LU factorization accepts.
pub(crate) const MIN_PIVOT: f64 = 1e-300;

/// Solves `A x = b` for real `A` by LU factorization with partial pivoting.
///
/// Consumes the matrix (the factorization is done in place).
///
/// # Errors
///
/// Returns [`CircuitError::SingularMatrix`] when a pivot is (numerically)
/// zero, which for MNA systems indicates a floating node or an inconsistent
/// source loop.
pub fn solve_real(mut a: Matrix<f64>, mut b: Vec<f64>) -> Result<Vec<f64>, CircuitError> {
    let mut x = vec![0.0; a.size()];
    lu_solve_into(&mut a, &mut b, &mut x, &mut Vec::new())?;
    Ok(x)
}

/// Solves `A x = b` for complex `A` by LU factorization with partial pivoting.
///
/// # Errors
///
/// Returns [`CircuitError::SingularMatrix`] when a pivot magnitude vanishes,
/// or when a pivot's reciprocal is not finite or is zero (magnitudes below
/// about 1.5e-154 or above about 1.3e154, where its squared magnitude
/// underflows or overflows).
pub fn solve_complex(
    mut a: Matrix<Complex>,
    mut b: Vec<Complex>,
) -> Result<Vec<Complex>, CircuitError> {
    let mut x = vec![Complex::zero(); a.size()];
    lu_solve_into(&mut a, &mut b, &mut x, &mut Vec::new())?;
    Ok(x)
}

/// The dense LU of [`solve_real`] and [`solve_complex`] into caller buffers:
/// factorizes `a` in place, overwrites `b` with the forward-eliminated
/// right-hand side, writes the solution to `x`, whose previous contents are
/// never read, and records in `pivots` the position of the row each step
/// swapped into place, the order a [`super::plan::LuPlan`] replays.
///
/// Each step picks the first row, in position order, whose entry in the
/// pivot column is strictly largest in magnitude.
///
/// # Errors
///
/// See [`solve_real`]: a pivot below [`MIN_PIVOT`] in magnitude, or a
/// complex pivot [`LuScalar::scale`] cannot invert, is singular.  `pivots`
/// then holds the steps before the failing one.
pub(crate) fn lu_solve_into<T: LuScalar>(
    a: &mut Matrix<T>,
    b: &mut [T],
    x: &mut [T],
    pivots: &mut Vec<usize>,
) -> Result<(), CircuitError> {
    #[cfg(test)]
    super::plan::count_factorization(false);
    let n = a.size();
    assert_eq!(b.len(), n, "rhs length must match matrix size");
    assert_eq!(x.len(), n, "solution length must match matrix size");
    pivots.clear();
    for k in 0..n {
        // Partial pivoting.
        let mut pivot_row = k;
        let mut pivot_mag = a[(k, k)].magnitude();
        for r in (k + 1)..n {
            let mag = a[(r, k)].magnitude();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag < MIN_PIVOT {
            return Err(CircuitError::SingularMatrix { pivot: k });
        }
        let Some(scale) = a[(pivot_row, k)].scale() else {
            return Err(CircuitError::SingularMatrix { pivot: k });
        };
        pivots.push(pivot_row);
        if pivot_row != k {
            let (above, from_pivot) = a.values.split_at_mut(pivot_row * n);
            above[k * n..(k + 1) * n].swap_with_slice(&mut from_pivot[..n]);
            b.swap(k, pivot_row);
        }
        let (upper, lower) = a.values.split_at_mut((k + 1) * n);
        let pivot_slice = &upper[k * n + k..];
        for (r, row) in lower.chunks_exact_mut(n).enumerate() {
            let factor = row[k].factor(scale);
            if factor.is_zero() {
                continue;
            }
            for (entry, &v) in row[k..].iter_mut().zip(pivot_slice) {
                *entry -= factor * v;
            }
            let pivot_b = b[k];
            b[k + 1 + r] -= factor * pivot_b;
        }
    }
    // Back substitution.
    for k in (0..n).rev() {
        let mut sum = b[k];
        for c in (k + 1)..n {
            sum -= a[(k, c)] * x[c];
        }
        x[k] = sum / a[(k, k)];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_small_real_system() {
        // [2 1; 1 3] x = [3; 5]  =>  x = [0.8, 1.4]
        let mut a = Matrix::zeros(2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let x = solve_real(a, vec![3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] x = [2; 3]  =>  x = [3, 2]
        let mut a = Matrix::zeros(2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = solve_real(a, vec![2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut a = Matrix::zeros(2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        assert!(matches!(solve_real(a, vec![1.0, 2.0]), Err(CircuitError::SingularMatrix { .. })));
    }

    #[test]
    fn random_real_systems_round_trip() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for n in [1usize, 3, 7, 15] {
            let mut a = Matrix::zeros(n);
            for r in 0..n {
                for c in 0..n {
                    a[(r, c)] = rng.gen_range(-1.0..1.0);
                }
                a[(r, r)] += 3.0; // diagonally dominant => well conditioned
            }
            let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
            let mut b = vec![0.0; n];
            for r in 0..n {
                for c in 0..n {
                    b[r] += a[(r, c)] * x_true[c];
                }
            }
            let x = solve_real(a, b).unwrap();
            for (xi, ti) in x.iter().zip(x_true.iter()) {
                assert!((xi - ti).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn solves_complex_system() {
        // (1 + j) x = 2j  =>  x = 1 + j
        let mut a = Matrix::zeros(1);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        let x = solve_complex(a, vec![Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0].re - 1.0).abs() < 1e-12);
        assert!((x[0].im - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complex_round_trip() {
        let n = 5;
        let mut a = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = Complex::new((r + c) as f64 * 0.1, (r as f64 - c as f64) * 0.2);
            }
            a[(r, r)] += Complex::real(4.0);
        }
        let x_true: Vec<Complex> =
            (0..n).map(|i| Complex::new(i as f64, -(i as f64) / 2.0)).collect();
        let mut b = vec![Complex::zero(); n];
        for r in 0..n {
            for c in 0..n {
                b[r] += a[(r, c)] * x_true[c];
            }
        }
        let x = solve_complex(a, b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((*xi - *ti).norm() < 1e-9);
        }
    }

    #[test]
    fn clear_resets_entries() {
        let mut a: Matrix<f64> = Matrix::zeros(2);
        a.add(0, 0, 5.0);
        a.clear();
        assert_eq!(a[(0, 0)], 0.0);
        assert_eq!(a.size(), 2);
    }
}
