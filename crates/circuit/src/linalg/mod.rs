//! Minimal dense linear algebra used by the MNA solver.
//!
//! The circuits simulated in this crate have a few dozen unknowns at most, so
//! a dense LU factorization with partial pivoting is entirely adequate and
//! keeps the crate free of external linear-algebra dependencies.

mod complex;
mod dense;

pub use complex::Complex;
pub(crate) use dense::{lu_solve_into, solve_complex_into};
pub use dense::{solve_complex, solve_real, Matrix};
