//! A from-scratch linear/mixed-integer programming substrate.
//!
//! The paper solves its §3.1 MILP (and the rational relaxation used by the
//! RRND/RRNZ rounding algorithms) with GLPK or CPLEX. Neither is available
//! here, so this crate implements the required solver stack natively:
//!
//! * [`sparse`] — compressed sparse column matrices;
//! * [`lu`] — sparse LU factorisation with partial pivoting
//!   (left-looking Gilbert–Peierls), including transpose solves and
//!   pattern-tracking sparse right-hand-side solves;
//! * [`simplex`] — a bounded-variable, two-phase revised simplex method
//!   with a dense explicit inverse for small bases and a sparse LU + eta
//!   file for large ones, periodic refactorisation, candidate-list partial
//!   pricing, and a persistent [`SimplexSolver`] that warm-starts from
//!   [`BasisSnapshot`]s through a bounded dual simplex;
//! * [`milp`] — depth-first branch & bound on integer variables, each node
//!   warm-started from its parent's basis;
//! * [`yield_lp`] — the paper's Equations 1–7 encoded from a
//!   [`vmplace_model::ProblemInstance`], with a presolve pass that removes
//!   impossible placements and never-binding elementary rows.
//!
//! The simplex method is deliberately general (arbitrary bounds, ≤/≥/=
//! rows) so the MILP search can tighten variable bounds without rebuilding
//! the matrix.

#![warn(missing_docs)]
// Index-based loops are kept where they mirror the paper's subscript
// notation (d over dimensions, i/j over rows/services) or index several
// arrays in lockstep.
#![allow(clippy::needless_range_loop)]

mod dense;
pub mod lu;
pub mod milp;
pub mod problem;
pub mod simplex;
pub mod sparse;
pub mod yield_lp;

pub use milp::{solve_milp, MilpOptions, MilpResult, MilpSolver, MilpStatus};
pub use problem::{LinearProgram, RowSense, VarId};
pub use simplex::{
    BasisSnapshot, FactorStats, LpSolution, LpStatus, SimplexOptions, SimplexSolver,
};
pub use yield_lp::{RelaxedSolution, YieldLp};
