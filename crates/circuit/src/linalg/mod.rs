//! Minimal linear algebra used by the MNA solver, free of external
//! dependencies.
//!
//! The circuits simulated in this crate have a few dozen unknowns at most,
//! so a system is stored dense, and [`solve_real`] and [`solve_complex`]
//! solve it by a dense LU factorization with partial pivoting.  Yet an MNA
//! system is sparse (the op-amp's real systems of order 13–15 stamp 43–50
//! of their 169–225 entries), and one analysis solves hundreds of systems
//! whose entries sit in the same places, so the analyses solve through a
//! factorization plan instead (`LuPlan`, after the symbolic factorization
//! with a checked pivot order of KLU: Davis & Palamadai Natarajan, *ACM
//! TOMS* 36(3), 2010).  A plan replays the pivot order the dense LU chose on
//! one system over the structural nonzeros of the next: the same pivot test,
//! factors and updates, in the same order, on those entries only.  A system
//! whose pivot order differs, or in which a pivot, a factor or the solution
//! is not finite, falls back to the dense LU, which records the pivot order
//! of the next plan.  Every nonzero result has the dense LU's bits; only the
//! sign of an exact zero may differ, since the dense LU also adds `±0` to
//! entries the plan never touches.

mod complex;
mod dense;
mod plan;

pub use complex::Complex;
pub use dense::{solve_complex, solve_real, Matrix};
#[cfg(test)]
pub(crate) use plan::{take_factorizations, Factorizations};
pub(crate) use plan::{LuPlan, Replay};
