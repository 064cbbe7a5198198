//! # explain3d-milp
//!
//! Mixed-integer linear programming substrate for the Explain3D reproduction
//! (VLDB 2019). The paper's Stage 2 encodes the optimal-explanation problem
//! as a MILP and hands it to IBM CPLEX; this crate is the CPLEX substitute:
//!
//! * [`expr`] — linear expressions over variables;
//! * [`model`] — variables (continuous / integer / binary), linear
//!   constraints, objective, and solution types;
//! * [`revised`] — the production LP kernel: a sparse revised simplex with
//!   an LU-factorised basis, eta-file (product-form) updates with periodic
//!   refactorisation, Dantzig + partial pricing, and dual-simplex warm
//!   starts across bound changes;
//! * [`simplex`] — the dense two-phase tableau kernel, kept as the
//!   equivalence baseline and numerical fallback;
//! * [`branch_bound`] — best-effort depth-first branch-and-bound with
//!   most-fractional branching, bound pruning, a deterministic node
//!   budget, an optional known incumbent, and warm-started LP re-solves
//!   (each child node starts from its parent's optimal basis instead of
//!   phase 1).
//!
//! The encodings produced by Explain3D (especially after the
//! smart-partitioning optimiser splits the problem) are small enough that an
//! exact textbook solver returns the same optimum as a commercial solver;
//! only absolute runtimes differ.
//!
//! ```
//! use explain3d_milp::prelude::*;
//!
//! let mut m = Model::new();
//! let x = m.add_binary("x");
//! let y = m.add_binary("y");
//! m.add_le("capacity", LinExpr::term(x, 2.0) + LinExpr::term(y, 2.0), 3.0);
//! m.maximize(LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0));
//! let sol = solve_default(&m);
//! assert_eq!(sol.status, SolveStatus::Optimal);
//! assert_eq!(sol.objective.round() as i64, 1);
//! ```

#![warn(missing_docs)]

pub mod branch_bound;
pub mod expr;
pub mod model;
pub mod revised;
pub mod simplex;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::branch_bound::{solve, solve_default, solve_with_stats, MilpConfig, SolveStats};
    pub use crate::expr::{LinExpr, VarId};
    pub use crate::model::{
        Constraint, Direction, Model, Sense, Solution, SolveStatus, VarKind, Variable,
    };
    pub use crate::revised::{solve_lp_sparse, SparseBasis, SparseLp};
    pub use crate::simplex::{solve_lp, solve_lp_dense, LpResult, LpStatus};
}

pub use prelude::*;
