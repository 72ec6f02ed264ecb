//! Minimal linear algebra used by the MNA solver, free of external
//! dependencies.
//!
//! The circuits simulated in this crate have a few dozen unknowns at most,
//! so a system is stored dense, and [`solve_real`] and [`solve_complex`]
//! solve it by a dense LU factorization with partial pivoting.  Yet an MNA
//! system is sparse (the op-amp's real systems of order 13–15 stamp 43–50
//! of their 169–225 entries), and one analysis solves hundreds of systems
//! whose entries sit in the same places, so the analyses solve through
//! factorization plans instead (`LuPlan`, after the symbolic factorization
//! with a checked pivot order of KLU: Davis & Palamadai Natarajan, *ACM
//! TOMS* 36(3), 2010).  A plan replays the pivot order the dense LU chose on
//! one system over the structural nonzeros of another: the same pivot test,
//! factors and updates, in the same order, on those entries only.  A system
//! whose pivot order differs, or in which a pivot, a factor or the solution
//! is not finite, leaves the plan.  Every nonzero result has the dense LU's
//! bits.  Only the sign of an exact zero may differ, since the dense LU also
//! subtracts `±0` from entries the plan never touches, and only in a system
//! that holds a `−0` itself: subtracting `±0` from a value that is not `−0`
//! keeps its bits, and a difference is `−0` only if its first operand is.
//! The systems the analyses assemble hold no `−0`, for each entry is a sum
//! that starts at `+0`, so on them a replay has every bit of the dense LU.
//!
//! Every thread keeps the plans it has built in a book, per structure
//! (`book`, at most 8 plans for each of at most 32 structures, dropping the
//! least recently used): a system that leaves one plan tries the others of
//! its structure before the dense LU, whose pivot order joins the book, and
//! the next analysis of that structure, on any instance, starts from them.
//! A replay that completes is the plan of the dense LU's own pivot order, so
//! which plan solves a system, and so what the thread solved before, never
//! changes a bit.

mod book;
mod complex;
mod dense;
mod plan;

pub(crate) use book::Planner;
pub use complex::Complex;
pub use dense::{solve_complex, solve_real, Matrix};
#[cfg(test)]
pub(crate) use plan::{take_factorizations, Factorizations};
