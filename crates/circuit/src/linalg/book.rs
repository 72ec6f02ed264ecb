//! The factorization plans a thread has built, kept for every analysis it
//! runs later.
//!
//! One analysis solves hundreds of systems of one structure, and a
//! Monte-Carlo worker runs the same analyses on hundreds of instances whose
//! systems share that structure and, mostly, a few pivot orders.  So every
//! thread keeps a book of the plans it has built, per structure, for `f64`
//! and for [`super::Complex`] systems: KLU's reuse of one symbolic analysis
//! across matrices of one structure (Davis & Palamadai Natarajan, *ACM TOMS*
//! 36(3), 2010), carried from one analysis to every analysis a thread runs.
//!
//! * A system first tries the plan that solved the last system of its
//!   structure (at the start of an analysis, the one the last analysis of
//!   that structure used).
//! * A system that leaves that plan is loaded again from its source and
//!   tries the structure's other plans, most recently used first, and then
//!   the dense LU, whose pivot order becomes a plan of the book.
//! * A book keeps at most [`PLANS_PER_STRUCTURE`] plans per structure and
//!   [`STRUCTURES`] structures, dropping the least recently used.
//!
//! Which plan solves a system never changes its bits: a replay that
//! completes has checked every pivot against the dense LU's rule, so it is
//! the plan of the dense LU's pivot order (see [`LuPlan`]), and on the
//! systems the analyses assemble it has the dense LU's every bit (see
//! [`super`]).  So the bits of an analysis never depend on what its thread
//! solved before.  The Monte-Carlo workers of `stc_core::pool::run_indexed`
//! are scoped threads of one call, so a paper run fills its workers' books
//! during their first instances; a run on one thread simulates on the
//! caller's thread, whose book outlives the run.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::LocalKey;

use super::dense::{lu_solve_into, LuScalar, Matrix};
use super::plan::{LuPlan, Replay};
use super::Complex;
use crate::CircuitError;

/// The most plans a book keeps for one structure.
pub(super) const PLANS_PER_STRUCTURE: usize = 8;
/// The most structures a book keeps plans for.
const STRUCTURES: usize = 32;

/// A scalar whose systems have a plan book on every thread.
pub(crate) trait Booked: LuScalar {
    /// This thread's book for systems of this scalar.
    fn book() -> &'static LocalKey<RefCell<PlanBook>>;
}

thread_local! {
    static REAL_PLANS: RefCell<PlanBook> = const { RefCell::new(PlanBook::new()) };
    static COMPLEX_PLANS: RefCell<PlanBook> = const { RefCell::new(PlanBook::new()) };
}

impl Booked for f64 {
    fn book() -> &'static LocalKey<RefCell<PlanBook>> {
        &REAL_PLANS
    }
}

impl Booked for Complex {
    fn book() -> &'static LocalKey<RefCell<PlanBook>> {
        &COMPLEX_PLANS
    }
}

/// Names every shelf of every book, so that a [`Planner`]'s remembered
/// shelf can never be another structure's.
static NEXT_SHELF: AtomicU64 = AtomicU64::new(1);

/// The plans a thread has built, per structure, most recently used first.
#[derive(Debug)]
pub(crate) struct PlanBook {
    shelves: Vec<Shelf>,
}

impl PlanBook {
    pub(super) const fn new() -> Self {
        PlanBook { shelves: Vec::new() }
    }

    /// The shelf of `structure`, made the most recently used: the shelf
    /// named `id` if the book still has it, else the one of `structure`,
    /// else a new one (dropping the least recently used shelf of a full
    /// book), whose name is then written to `id`.
    pub(super) fn shelf(&mut self, id: &mut u64, structure: &[bool]) -> &mut Shelf {
        let found = self
            .shelves
            .iter()
            .position(|shelf| shelf.id == *id)
            .or_else(|| self.shelves.iter().position(|shelf| shelf.structure == structure));
        let index = found.unwrap_or_else(|| {
            if self.shelves.len() == STRUCTURES {
                self.shelves.pop();
            }
            self.shelves.push(Shelf::new(structure));
            self.shelves.len() - 1
        });
        self.shelves[..=index].rotate_right(1);
        let shelf = &mut self.shelves[0];
        debug_assert_eq!(shelf.structure, structure, "a shelf of another structure");
        *id = shelf.id;
        shelf
    }
}

/// The plans of one structure, most recently used first.
#[derive(Debug)]
pub(super) struct Shelf {
    id: u64,
    structure: Vec<bool>,
    plans: Vec<LuPlan>,
    /// Scratch for the pivot positions of the dense LU.
    pivots: Vec<usize>,
}

impl Shelf {
    pub(super) fn new(structure: &[bool]) -> Self {
        Shelf {
            id: NEXT_SHELF.fetch_add(1, Ordering::Relaxed),
            structure: structure.to_vec(),
            plans: Vec::new(),
            pivots: Vec::new(),
        }
    }

    /// Solves the system `load` writes into `a` and `b`, which must be zero
    /// outside the shelf's structure: by the first of the shelf's plans that
    /// completes, which becomes the most recently used, or else by the dense
    /// LU, whose pivot order joins the shelf as its most recently used plan
    /// unless a plan of the shelf already has it.  `load` runs before every
    /// try; the solution goes to `x`.
    ///
    /// # Errors
    ///
    /// Returns the dense LU's [`CircuitError::SingularMatrix`], from the
    /// first plan that meets it or from the dense LU itself.
    pub(super) fn solve<T: LuScalar>(
        &mut self,
        a: &mut Matrix<T>,
        b: &mut [T],
        x: &mut [T],
        mut load: impl FnMut(&mut Matrix<T>, &mut [T]),
    ) -> Result<(), CircuitError> {
        load(a, b);
        debug_assert!(
            a.values()
                .iter()
                .zip(&self.structure)
                .all(|(value, &structural)| structural || value.is_zero()),
            "a nonzero entry lies outside the structure"
        );
        for index in 0..self.plans.len() {
            if index > 0 {
                load(a, b);
            }
            if self.plans[index].solve(a, b, x)? == Replay::Solved {
                self.plans[..=index].rotate_right(1);
                return Ok(());
            }
        }
        if !self.plans.is_empty() {
            load(a, b);
        }
        lu_solve_into(a, b, x, &mut self.pivots)?;
        let index = match self.plans.iter().position(|plan| plan.pivots() == self.pivots) {
            // A plan of this pivot order left on a value that is not finite.
            Some(index) => index,
            None => {
                let mut plan = if self.plans.len() == PLANS_PER_STRUCTURE {
                    self.plans.pop().expect("a full shelf has plans")
                } else {
                    LuPlan::default()
                };
                plan.rebuild(&self.structure, &self.pivots);
                self.plans.push(plan);
                self.plans.len() - 1
            }
        };
        self.plans[..=index].rotate_right(1);
        Ok(())
    }

    /// The shelf's plans, most recently used first.
    #[cfg(test)]
    pub(super) fn plans(&self) -> &[LuPlan] {
        &self.plans
    }
}

/// Solves the systems of one structure, an analysis's, through this
/// thread's plan book.
#[derive(Debug)]
pub(crate) struct Planner {
    structure: Vec<bool>,
    /// The shelf last used, if any.
    shelf: u64,
}

impl Planner {
    /// A planner for systems of `structure`, a row-major map of every entry
    /// they may hold nonzero.
    pub(crate) fn new(structure: Vec<bool>) -> Self {
        Planner { structure, shelf: 0 }
    }

    /// Solves the system `load` writes into `a` and `b` (see
    /// [`Shelf::solve`]) into `x`.  `load` runs before every try and must
    /// not solve through a planner itself.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] where the dense LU would.
    pub(crate) fn solve<T: Booked>(
        &mut self,
        a: &mut Matrix<T>,
        b: &mut [T],
        x: &mut [T],
        load: impl FnMut(&mut Matrix<T>, &mut [T]),
    ) -> Result<(), CircuitError> {
        T::book().with(|book| {
            book.borrow_mut().shelf(&mut self.shelf, &self.structure).solve(a, b, x, load)
        })
    }
}
