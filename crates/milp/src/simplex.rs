//! Dense two-phase primal simplex for LP relaxations — the reference
//! baseline kernel.
//!
//! The solver works on a bounded-variable LP derived from a
//! [`Model`]: every variable has a finite lower bound
//! (shifted to zero internally) and an optional finite upper bound (added as
//! a row). Phase 1 drives artificial variables out of the basis; phase 2
//! optimises the user objective. Pivoting uses Dantzig's rule with a Bland's
//! rule fallback to guarantee termination on degenerate problems.
//!
//! Production solves go through [`solve_lp`], which dispatches to the
//! sparse revised simplex of [`revised`](crate::revised); the dense kernel
//! ([`solve_lp_dense`]) is kept as the equivalence baseline, the numerical
//! fallback, and the `LpKernel::Dense` configuration of the
//! branch-and-bound solver.

// Dense-tableau kernel: index arithmetic over a flat row-major buffer is the
// clearest way to express simplex pivots, so the indexing-style lint is
// opted out for this module.
#![allow(clippy::needless_range_loop)]
use crate::model::{Direction, Model, Sense};

/// Status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpResult {
    /// Solve status.
    pub status: LpStatus,
    /// Variable values in the *original* model space (empty unless optimal).
    pub values: Vec<f64>,
    /// Objective value in the model's own direction (0 unless optimal).
    pub objective: f64,
}

const EPS: f64 = 1e-9;
const FEAS_EPS: f64 = 1e-7;

/// Solves the LP relaxation of `model` with the production kernel (the
/// sparse revised simplex, falling back to the dense kernel on numerical
/// trouble).
///
/// `bound_overrides`, when non-empty, supplies per-variable `(lower, upper)`
/// bounds replacing the model's (used by branch-and-bound).
pub fn solve_lp(model: &Model, bound_overrides: &[(f64, f64)]) -> LpResult {
    crate::revised::solve_lp_sparse(model, bound_overrides)
}

/// Solves the LP relaxation of `model` with the dense reference kernel.
///
/// `bound_overrides`, when non-empty, supplies per-variable `(lower, upper)`
/// bounds replacing the model's (used by branch-and-bound).
pub fn solve_lp_dense(model: &Model, bound_overrides: &[(f64, f64)]) -> LpResult {
    let n = model.num_vars();
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    for (i, v) in model.variables().iter().enumerate() {
        let (lb, ub) =
            if bound_overrides.is_empty() { (v.lower, v.upper) } else { bound_overrides[i] };
        if lb > ub + EPS {
            return LpResult { status: LpStatus::Infeasible, values: vec![], objective: 0.0 };
        }
        lower.push(lb);
        upper.push(ub);
    }

    // Objective in "maximise" form, over shifted variables x' = x - lb.
    let max_sign = match model.direction() {
        Direction::Maximize => 1.0,
        Direction::Minimize => -1.0,
    };
    let mut obj_coeffs = vec![0.0; n];
    let mut obj_const = model.objective().constant_part() * max_sign;
    for (var, c) in model.objective().terms() {
        obj_coeffs[var.index()] = c * max_sign;
        obj_const += c * max_sign * lower[var.index()];
    }

    // Assemble rows: model constraints plus upper-bound rows.
    // Each row: (coeffs over structural vars, sense, rhs) in shifted space.
    let mut rows: Vec<SparseRow> = Vec::new();
    for c in model.constraints() {
        let mut coeffs = Vec::with_capacity(c.expr.num_terms());
        let mut shift = 0.0;
        for (var, coef) in c.expr.terms() {
            coeffs.push((var.index(), coef));
            shift += coef * lower[var.index()];
        }
        rows.push((coeffs, c.sense, c.rhs - shift));
    }
    for i in 0..n {
        if upper[i].is_finite() {
            let span = upper[i] - lower[i];
            rows.push((vec![(i, 1.0)], Sense::Le, span));
        }
    }

    let m = rows.len();
    if m == 0 {
        // No constraints at all: each variable sits at whichever bound its
        // objective coefficient prefers.
        let mut values = vec![0.0; n];
        let mut obj = model.objective().constant_part();
        for i in 0..n {
            let c = obj_coeffs[i];
            values[i] = if c > EPS {
                if upper[i].is_infinite() {
                    return LpResult {
                        status: LpStatus::Unbounded,
                        values: vec![],
                        objective: 0.0,
                    };
                }
                upper[i]
            } else {
                lower[i]
            };
        }
        for (var, c) in model.objective().terms() {
            obj += c * values[var.index()];
        }
        return LpResult { status: LpStatus::Optimal, values, objective: obj };
    }

    // Column layout: [0, n) structural, [n, n + n_slack) slack/surplus,
    // [n + n_slack, total) artificial.
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for (_, sense, _) in &rows {
        match sense {
            Sense::Le | Sense::Ge => n_slack += 1,
            Sense::Eq => {}
        }
        match sense {
            Sense::Ge | Sense::Eq => n_art += 1,
            Sense::Le => {}
        }
    }
    // A Le row with negative rhs flips into a Ge row, which needs an
    // artificial; conservatively allocate artificials for every row.
    let n_art_cap = n_art + rows.len();
    let ncols = n + n_slack + n_art_cap;
    let stride = ncols + 1; // last column = rhs

    let mut tab = vec![0.0f64; m * stride];
    let mut basis = vec![usize::MAX; m];
    let mut art_cols: Vec<usize> = Vec::new();

    let mut next_slack = n;
    let mut next_art = n + n_slack;

    for (i, (coeffs, sense, rhs)) in rows.iter().enumerate() {
        let mut sense = *sense;
        let mut rhs = *rhs;
        let mut sign = 1.0;
        if rhs < 0.0 {
            // Normalise to non-negative rhs by flipping the row.
            rhs = -rhs;
            sign = -1.0;
            sense = match sense {
                Sense::Le => Sense::Ge,
                Sense::Ge => Sense::Le,
                Sense::Eq => Sense::Eq,
            };
        }
        let row = &mut tab[i * stride..(i + 1) * stride];
        for &(j, c) in coeffs {
            row[j] += c * sign;
        }
        row[ncols] = rhs;
        match sense {
            Sense::Le => {
                row[next_slack] = 1.0;
                basis[i] = next_slack;
                next_slack += 1;
            }
            Sense::Ge => {
                row[next_slack] = -1.0;
                next_slack += 1;
                row[next_art] = 1.0;
                basis[i] = next_art;
                art_cols.push(next_art);
                next_art += 1;
            }
            Sense::Eq => {
                row[next_art] = 1.0;
                basis[i] = next_art;
                art_cols.push(next_art);
                next_art += 1;
            }
        }
    }

    let is_artificial = |j: usize| j >= n + n_slack;

    // ---- Phase 1: minimise the sum of artificial variables. ----
    if !art_cols.is_empty() {
        // Objective row for "maximise -(sum of artificials)".
        let mut obj_row = vec![0.0f64; stride];
        for &j in &art_cols {
            obj_row[j] = 1.0; // -c_j with c_j = -1
        }
        price_out(&mut obj_row, &tab, &basis, stride, m);
        let status = run_simplex(&mut tab, &mut basis, &mut obj_row, m, ncols, stride, &|_| true);
        if status == LpStatus::Unbounded {
            // Phase 1 objective is bounded by 0; unbounded here means a
            // numerical pathology — treat as infeasible.
            return LpResult { status: LpStatus::Infeasible, values: vec![], objective: 0.0 };
        }
        // Sum of artificials = -(phase-1 objective value).
        let infeas = -obj_row[ncols];
        if infeas > FEAS_EPS {
            return LpResult { status: LpStatus::Infeasible, values: vec![], objective: 0.0 };
        }
        // Drive any remaining basic artificials out of the basis.
        for i in 0..m {
            if is_artificial(basis[i]) {
                let row_start = i * stride;
                let mut pivot_col = None;
                for j in 0..(n + n_slack) {
                    if tab[row_start + j].abs() > 1e-7 {
                        pivot_col = Some(j);
                        break;
                    }
                }
                if let Some(j) = pivot_col {
                    pivot(&mut tab, &mut basis, &mut vec![0.0; stride], m, stride, i, j);
                }
                // If the whole row is zero the constraint is redundant; the
                // artificial stays basic at value zero, which is harmless as
                // long as artificial columns are barred from re-entering.
            }
        }
    }

    // ---- Phase 2: optimise the user objective. ----
    let mut obj_row = vec![0.0f64; stride];
    for (j, &c) in obj_coeffs.iter().enumerate() {
        obj_row[j] = -c;
    }
    price_out(&mut obj_row, &tab, &basis, stride, m);
    let allow = |j: usize| !is_artificial(j);
    let status = run_simplex(&mut tab, &mut basis, &mut obj_row, m, ncols, stride, &allow);
    if status == LpStatus::Unbounded {
        return LpResult { status: LpStatus::Unbounded, values: vec![], objective: 0.0 };
    }

    // Extract the solution.
    let mut shifted = vec![0.0f64; ncols];
    for i in 0..m {
        if basis[i] < ncols {
            shifted[basis[i]] = tab[i * stride + ncols];
        }
    }
    let mut values = vec![0.0; n];
    for i in 0..n {
        values[i] = shifted[i] + lower[i];
    }
    let raw_obj = obj_row[ncols] + obj_const;
    let objective = match model.direction() {
        Direction::Maximize => raw_obj,
        Direction::Minimize => -raw_obj,
    };
    LpResult { status: LpStatus::Optimal, values, objective }
}

/// Makes the objective row consistent with the current basis (zero reduced
/// cost for basic columns).
fn price_out(obj_row: &mut [f64], tab: &[f64], basis: &[usize], stride: usize, m: usize) {
    for i in 0..m {
        let b = basis[i];
        let coeff = obj_row[b];
        if coeff.abs() > EPS {
            let row = &tab[i * stride..(i + 1) * stride];
            for j in 0..stride {
                obj_row[j] -= coeff * row[j];
            }
        }
    }
}

/// A constraint row in sparse form: `(coefficients, sense, rhs)`.
type SparseRow = (Vec<(usize, f64)>, Sense, f64);

/// Runs primal simplex iterations until optimality or unboundedness.
/// `allow` filters which columns may enter the basis.
fn run_simplex(
    tab: &mut [f64],
    basis: &mut [usize],
    obj_row: &mut [f64],
    m: usize,
    ncols: usize,
    stride: usize,
    allow: &dyn Fn(usize) -> bool,
) -> LpStatus {
    let dantzig_limit = 50 * (m + ncols) + 1000;
    let hard_limit = 400 * (m + ncols) + 20000;
    let mut iter = 0usize;

    loop {
        iter += 1;
        if iter > hard_limit {
            // Termination safety valve: accept the current (feasible) basis.
            return LpStatus::Optimal;
        }
        let use_bland = iter > dantzig_limit;

        // Choose the entering column.
        let mut entering: Option<usize> = None;
        if use_bland {
            for j in 0..ncols {
                if allow(j) && obj_row[j] < -EPS {
                    entering = Some(j);
                    break;
                }
            }
        } else {
            let mut best = -EPS;
            for j in 0..ncols {
                if allow(j) && obj_row[j] < best {
                    best = obj_row[j];
                    entering = Some(j);
                }
            }
        }
        let Some(col) = entering else {
            return LpStatus::Optimal;
        };

        // Ratio test.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = tab[i * stride + col];
            if a > EPS {
                let ratio = tab[i * stride + ncols] / a;
                let better = ratio < best_ratio - EPS
                    || (use_bland
                        && (ratio - best_ratio).abs() <= EPS
                        && leave.map(|l| basis[i] < basis[l]).unwrap_or(false));
                if better || leave.is_none() && ratio.is_finite() && ratio < best_ratio {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(row) = leave else {
            return LpStatus::Unbounded;
        };

        pivot(tab, basis, obj_row, m, stride, row, col);
    }
}

/// Performs a pivot on `(row, col)`, updating the tableau, basis, and
/// objective row.
fn pivot(
    tab: &mut [f64],
    basis: &mut [usize],
    obj_row: &mut [f64],
    m: usize,
    stride: usize,
    row: usize,
    col: usize,
) {
    let pivot_val = tab[row * stride + col];
    debug_assert!(pivot_val.abs() > EPS, "pivot on a (near) zero element");
    // Normalise the pivot row.
    for j in 0..stride {
        tab[row * stride + j] /= pivot_val;
    }
    // Eliminate from every other row.
    for i in 0..m {
        if i == row {
            continue;
        }
        let factor = tab[i * stride + col];
        if factor.abs() > EPS {
            for j in 0..stride {
                tab[i * stride + j] -= factor * tab[row * stride + j];
            }
        }
    }
    // Eliminate from the objective row.
    if !obj_row.is_empty() {
        let factor = obj_row[col];
        if factor.abs() > EPS {
            for j in 0..stride {
                obj_row[j] -= factor * tab[row * stride + j];
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Model, VarKind};

    fn term(v: crate::expr::VarId, c: f64) -> LinExpr {
        LinExpr::term(v, c)
    }

    #[test]
    fn simple_two_variable_lp() {
        // max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6, x,y >= 0  -> x=4, y=0, obj=12
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_le("c1", term(x, 1.0) + term(y, 1.0), 4.0);
        m.add_le("c2", term(x, 1.0) + term(y, 3.0), 6.0);
        m.maximize(term(x, 3.0) + term(y, 2.0));
        let r = solve_lp_dense(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 12.0).abs() < 1e-6);
        assert!((r.values[0] - 4.0).abs() < 1e-6);
        assert!(r.values[1].abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // max x + y  s.t. x + y = 10, x >= 3, y >= 2  -> obj 10
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_eq("sum", term(x, 1.0) + term(y, 1.0), 10.0);
        m.add_ge("xmin", term(x, 1.0), 3.0);
        m.add_ge("ymin", term(y, 1.0), 2.0);
        m.maximize(term(x, 1.0) + term(y, 1.0));
        let r = solve_lp_dense(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 10.0).abs() < 1e-6);
        assert!(r.values[0] >= 3.0 - 1e-6);
        assert!(r.values[1] >= 2.0 - 1e-6);
    }

    #[test]
    fn infeasible_problem_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 5.0);
        m.add_ge("hi", term(x, 1.0), 10.0);
        m.maximize(term(x, 1.0));
        let r = solve_lp_dense(&m, &[]);
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_problem_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_ge("c", term(x, 1.0) - term(y, 1.0), 1.0);
        m.maximize(term(x, 1.0));
        let r = solve_lp_dense(&m, &[]);
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn minimisation_direction() {
        // min 2x + 3y  s.t. x + y >= 4  -> x=4, y=0, obj=8
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_ge("c", term(x, 1.0) + term(y, 1.0), 4.0);
        m.minimize(term(x, 2.0) + term(y, 3.0));
        let r = solve_lp_dense(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 8.0).abs() < 1e-6);
    }

    #[test]
    fn negative_lower_bounds_are_shifted() {
        // max x  s.t. x <= -1, with x in [-5, 0]  -> x = -1
        let mut m = Model::new();
        let x = m.add_continuous("x", -5.0, 0.0);
        m.add_le("cap", term(x, 1.0), -1.0);
        m.maximize(term(x, 1.0));
        let r = solve_lp_dense(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] + 1.0).abs() < 1e-6);
        assert!((r.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn bound_overrides_take_precedence() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        m.maximize(term(x, 1.0));
        let r = solve_lp_dense(&m, &[(0.0, 3.0)]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 3.0).abs() < 1e-6);
        // Inconsistent override -> infeasible.
        let r = solve_lp_dense(&m, &[(5.0, 3.0)]);
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unconstrained_model_uses_bounds() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 7.0);
        let y = m.add_continuous("y", -2.0, 3.0);
        m.maximize(term(x, 2.0) - term(y, 1.0));
        let r = solve_lp_dense(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 7.0).abs() < 1e-9);
        assert!((r.values[1] + 2.0).abs() < 1e-9);
        assert!((r.objective - 16.0).abs() < 1e-9);

        let mut unb = Model::new();
        let z = unb.add_continuous("z", 0.0, f64::INFINITY);
        unb.maximize(term(z, 1.0));
        assert_eq!(solve_lp_dense(&unb, &[]).status, LpStatus::Unbounded);
    }

    #[test]
    fn binary_relaxation_is_a_unit_box() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Binary, 0.0, 1.0);
        let y = m.add_var("y", VarKind::Binary, 0.0, 1.0);
        m.add_le("c", term(x, 2.0) + term(y, 2.0), 3.0);
        m.maximize(term(x, 1.0) + term(y, 1.0));
        let r = solve_lp_dense(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        // LP relaxation achieves 1.5 (e.g. x=1, y=0.5).
        assert!((r.objective - 1.5).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the same vertex.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        for i in 0..20 {
            m.add_le(format!("c{i}"), term(x, 1.0) + term(y, 1.0 + i as f64 * 1e-9), 1.0);
        }
        m.maximize(term(x, 1.0) + term(y, 1.0));
        let r = solve_lp_dense(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 1.0).abs() < 1e-6);
    }
}
