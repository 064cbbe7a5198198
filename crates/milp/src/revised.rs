//! Sparse revised simplex for LP relaxations.
//!
//! This is the production LP kernel behind [`solve_lp`](crate::simplex::solve_lp)
//! (the dense tableau of [`simplex`](crate::simplex) is retained as the
//! reference baseline and numerical fallback). Instead of carrying an
//! `m × (n + slacks + artificials)` tableau through every pivot, the solver
//! keeps
//!
//! * the constraint matrix as immutable **sparse columns**,
//! * the basis inverse as an **LU factorisation** (computed by sparse
//!   Gaussian elimination with partial pivoting) composed with an
//!   **eta file** of product-form updates — one eta per pivot — that is
//!   folded back into a fresh LU every `REFACTOR_EVERY` pivots,
//! * reduced costs priced on demand via BTRAN (`B⁻ᵀ c_B`) with **Dantzig
//!   selection over partial-pricing segments** and a Bland's-rule fallback
//!   for degenerate stalls.
//!
//! A [`SparseLp`] context is reusable across **bound changes**: the
//! branch-and-bound search re-solves each child node by reusing the parent's
//! optimal basis ([`SparseLp::solve_warm`]) — reduced costs do not depend on
//! the right-hand side, so the parent basis stays dual feasible and a short
//! **dual simplex** run restores primal feasibility without re-running
//! phase 1 from scratch.
//!
//! Every sparse solve ends with an independent feasibility check of the
//! extracted solution; any numerical trouble (singular refactorisation,
//! stalled iteration, residual infeasibility) silently falls back to the
//! dense reference kernel, so callers always get a trustworthy
//! [`LpResult`].

use crate::model::{Direction, Model, Sense};
use crate::simplex::{solve_lp_dense, LpResult, LpStatus};

const EPS: f64 = 1e-9;
const FEAS_EPS: f64 = 1e-7;
/// Entries smaller than this are treated as structural zeros when building
/// etas and factors (keeps the eta file sparse under fill-in).
const DROP_TOL: f64 = 1e-12;
/// Refactorisation declares the basis singular below this pivot magnitude.
const PIVOT_TOL: f64 = 1e-10;
/// Number of eta updates accumulated before the basis is refactorised (and
/// the basic solution recomputed from scratch to purge drift).
const REFACTOR_EVERY: usize = 48;

/// An opaque snapshot of a simplex basis, as returned by an optimal sparse
/// solve. Feeding it to [`SparseLp::solve_warm`] re-solves a neighbouring
/// LP (same constraint structure, different variable bounds) starting from
/// this basis instead of from scratch — the branch-and-bound warm start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseBasis {
    basis: Vec<usize>,
}

impl SparseBasis {
    /// Number of basic columns (equals the row count of the LP the basis
    /// was extracted from).
    pub fn len(&self) -> usize {
        self.basis.len()
    }

    /// True when the basis is empty (a zero-row LP).
    pub fn is_empty(&self) -> bool {
        self.basis.is_empty()
    }
}

/// A sparse LP context: the constraint matrix of a [`Model`] in equality
/// standard form (shifted variables, upper bounds as rows, slack and
/// artificial columns), reusable across solves that only change variable
/// bounds.
#[derive(Debug, Clone)]
pub struct SparseLp {
    /// Structural variables.
    n: usize,
    /// Rows: model constraints plus one upper-bound row per finite-upper
    /// variable (at build time).
    m: usize,
    /// Total columns: structural + slack/surplus + artificial.
    ncols: usize,
    /// First artificial column id; `j >= art_start` ⇒ artificial.
    art_start: usize,
    /// All columns as sparse `(row, value)` lists.
    cols: Vec<Vec<(usize, f64)>>,
    /// Model rows in the build-time sign convention: `(terms, rhs)` with any
    /// row flip folded into both, so `b_i = rhs_i - Σ coef · lower` for any
    /// bounds.
    rows: Vec<(Vec<(usize, f64)>, f64)>,
    /// For each row past the model rows, the variable whose upper bound it
    /// caps (`b = upper - lower`).
    ub_row_var: Vec<usize>,
    /// Whether variable `i` has an upper-bound row in this context.
    has_ub_row: Vec<bool>,
    /// Cold-start basis: one slack or artificial column per row.
    init_basis: Vec<usize>,
    /// Whether the cold start places any artificial in the basis (phase 1
    /// required).
    needs_phase1: bool,
    /// Objective coefficients in maximise form, length `ncols` (zero beyond
    /// the structural block). Independent of bounds.
    obj: Vec<f64>,
    /// Bounds the context was built with (cold starts use these).
    build_bounds: Vec<(f64, f64)>,
}

impl SparseLp {
    /// Builds a context for `model` under the given bound overrides (the
    /// model's own bounds when empty).
    pub fn new(model: &Model, bound_overrides: &[(f64, f64)]) -> SparseLp {
        let n = model.num_vars();
        let build_bounds: Vec<(f64, f64)> =
            model
                .variables()
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    if bound_overrides.is_empty() {
                        (v.lower, v.upper)
                    } else {
                        bound_overrides[i]
                    }
                })
                .collect();
        let max_sign = match model.direction() {
            Direction::Maximize => 1.0,
            Direction::Minimize => -1.0,
        };

        // Model rows, flipped to non-negative rhs in the *build* bounds (the
        // flip is a pure row scaling by -1 — equivalent for any rhs — so
        // warm solves under different bounds simply reuse the convention).
        let mut rows: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
        let mut senses: Vec<Sense> = Vec::new();
        for c in model.constraints() {
            let mut terms: Vec<(usize, f64)> = Vec::with_capacity(c.expr.num_terms());
            let mut shift = 0.0;
            for (var, coef) in c.expr.terms() {
                terms.push((var.index(), coef));
                shift += coef * build_bounds[var.index()].0;
            }
            let (mut sense, mut rhs) = (c.sense, c.rhs);
            if rhs - shift < 0.0 {
                for t in &mut terms {
                    t.1 = -t.1;
                }
                rhs = -rhs;
                sense = match sense {
                    Sense::Le => Sense::Ge,
                    Sense::Ge => Sense::Le,
                    Sense::Eq => Sense::Eq,
                };
            }
            rows.push((terms, rhs));
            senses.push(sense);
        }
        // Upper-bound rows (always `x' ≤ upper - lower ≥ 0`, never flipped).
        let mut ub_row_var = Vec::new();
        let mut has_ub_row = vec![false; n];
        for (i, &(_, ub)) in build_bounds.iter().enumerate() {
            if ub.is_finite() {
                ub_row_var.push(i);
                has_ub_row[i] = true;
            }
        }
        let n_model_rows = rows.len();
        let m = n_model_rows + ub_row_var.len();

        // Columns: structural, then slack/surplus (all rows except Eq),
        // then one artificial per Ge/Eq row.
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (i, (terms, _)) in rows.iter().enumerate() {
            for &(j, v) in terms {
                cols[j].push((i, v));
            }
        }
        for (k, &v) in ub_row_var.iter().enumerate() {
            cols[v].push((n_model_rows + k, 1.0));
        }
        // Merge duplicate row entries within each structural column (a
        // `LinExpr` holds one term per variable, so this only defends
        // against repeated variables across future row kinds).
        for col in &mut cols {
            col.sort_unstable_by_key(|&(r, _)| r);
        }

        let mut init_basis = vec![usize::MAX; m];
        let row_sense = |i: usize| if i < n_model_rows { senses[i] } else { Sense::Le };
        for (i, slot) in init_basis.iter_mut().enumerate() {
            if row_sense(i) != Sense::Eq {
                let slack = cols.len();
                let sign = if row_sense(i) == Sense::Le { 1.0 } else { -1.0 };
                cols.push(vec![(i, sign)]);
                if row_sense(i) == Sense::Le {
                    *slot = slack;
                }
            }
        }
        let art_start = cols.len();
        let mut needs_phase1 = false;
        for (i, slot) in init_basis.iter_mut().enumerate() {
            if *slot == usize::MAX {
                let art = cols.len();
                cols.push(vec![(i, 1.0)]);
                *slot = art;
                needs_phase1 = true;
            }
        }
        let ncols = cols.len();

        let mut obj = vec![0.0; ncols];
        for (var, c) in model.objective().terms() {
            obj[var.index()] = c * max_sign;
        }

        SparseLp {
            n,
            m,
            ncols,
            art_start,
            cols,
            rows,
            ub_row_var,
            has_ub_row,
            init_basis,
            needs_phase1,
            obj,
            build_bounds,
        }
    }

    /// True when `bounds` fit this context's structure: same variable count
    /// and the same finite-upper-bound pattern (upper bounds are rows, so a
    /// bound turning finite/infinite changes the matrix).
    pub fn compatible(&self, bounds: &[(f64, f64)]) -> bool {
        bounds.len() == self.n
            && bounds
                .iter()
                .zip(self.has_ub_row.iter())
                .all(|(&(_, ub), &has)| ub.is_finite() == has)
    }

    /// The right-hand side in shifted space for the given bounds.
    fn rhs_for(&self, bounds: &[(f64, f64)]) -> Vec<f64> {
        let mut b = Vec::with_capacity(self.m);
        for (terms, rhs) in &self.rows {
            let shift: f64 = terms.iter().map(|&(j, v)| v * bounds[j].0).sum();
            b.push(rhs - shift);
        }
        for &v in &self.ub_row_var {
            b.push(bounds[v].1 - bounds[v].0);
        }
        b
    }

    /// Solves the LP cold (two-phase, from the all-logical basis) under the
    /// context's build bounds. Falls back to the dense reference kernel on
    /// numerical trouble, in which case no reusable basis is returned.
    pub fn solve_cold(&self, model: &Model) -> (LpResult, Option<SparseBasis>) {
        match self.try_cold(model) {
            Some(out) => out,
            None => (solve_lp_dense(model, &self.build_bounds), None),
        }
    }

    fn try_cold(&self, model: &Model) -> Option<(LpResult, Option<SparseBasis>)> {
        for &(lb, ub) in &self.build_bounds {
            if lb > ub + EPS {
                return Some((infeasible(), None));
            }
        }
        let mut sim = Sim::new(self, &self.build_bounds, self.init_basis.clone())?;
        if self.needs_phase1 {
            let mut c1 = vec![0.0; self.ncols];
            for c in c1.iter_mut().skip(self.art_start) {
                *c = -1.0;
            }
            match sim.primal(&c1, |_| true, false) {
                Phase::Optimal => {}
                // Phase 1 is bounded by 0; "unbounded" is a numerical
                // pathology — mirror the dense kernel and report infeasible.
                Phase::Unbounded => return Some((infeasible(), None)),
                Phase::Numerical => return None,
            }
            let infeas: f64 = (0..self.m)
                .filter(|&i| sim.basis[i] >= self.art_start)
                .map(|i| sim.x[i].max(0.0))
                .sum();
            if infeas > FEAS_EPS {
                return Some((infeasible(), None));
            }
            if !sim.drive_out_artificials() {
                return None;
            }
        }
        self.finish(model, &self.build_bounds, sim)
    }

    /// Re-solves the LP under `bounds`, starting from a previous optimal
    /// basis of this context. Returns `None` when the warm path cannot
    /// deliver a trustworthy answer (structure mismatch, singular basis,
    /// stalled dual simplex, possible infeasibility) — the caller should
    /// fall back to a cold solve on a fresh context.
    pub fn solve_warm(
        &self,
        model: &Model,
        bounds: &[(f64, f64)],
        warm: &SparseBasis,
    ) -> Option<(LpResult, Option<SparseBasis>)> {
        if !self.compatible(bounds) || warm.basis.len() != self.m {
            return None;
        }
        for &(lb, ub) in bounds {
            if lb > ub + EPS {
                return Some((infeasible(), None));
            }
        }
        let mut sim = Sim::new(self, bounds, warm.basis.clone())?;
        // The parent basis is dual feasible (reduced costs are independent
        // of the rhs), so a dual-simplex run restores primal feasibility.
        let mut verdict = sim.dual(&self.obj);
        if matches!(verdict, DualOutcome::Infeasible) && !sim.factor.etas.is_empty() {
            // A completed dual ray is an infeasibility certificate — but
            // this one was priced through the eta file accumulated during
            // the run. Refactorise (purging that drift) and re-run before
            // letting branch-and-bound prune the child on it.
            if !sim.refresh() {
                return None;
            }
            verdict = sim.dual(&self.obj);
        }
        match verdict {
            DualOutcome::Feasible => {}
            // Confirmed from a freshly factorised basis: as exact as the
            // dense kernel's phase-1 verdict, so the child is pruned
            // without a cold re-solve.
            DualOutcome::Infeasible => return Some((infeasible(), None)),
            DualOutcome::Numerical => return None,
        }
        self.finish(model, bounds, sim)
    }

    /// Shared tail of the cold and warm paths: phase-2 primal iterations,
    /// artificial-residue check, extraction, and the final feasibility
    /// verification.
    fn finish(
        &self,
        model: &Model,
        bounds: &[(f64, f64)],
        mut sim: Sim<'_>,
    ) -> Option<(LpResult, Option<SparseBasis>)> {
        match sim.primal(&self.obj, |j| j < self.art_start, true) {
            Phase::Optimal => {}
            Phase::Unbounded => {
                return Some((
                    LpResult { status: LpStatus::Unbounded, values: vec![], objective: 0.0 },
                    None,
                ));
            }
            Phase::Numerical => return None,
        }
        // A basic artificial that drifted away from zero means the basis
        // no longer represents the real problem.
        if (0..self.m).any(|i| sim.basis[i] >= self.art_start && sim.x[i].abs() > FEAS_EPS) {
            return None;
        }

        let mut values = vec![0.0; self.n];
        for i in 0..self.m {
            let j = sim.basis[i];
            if j < self.n {
                values[j] = sim.x[i];
            }
        }
        for (i, v) in values.iter_mut().enumerate() {
            *v += bounds[i].0;
        }
        if !self.solution_feasible(model, bounds, &values) {
            return None;
        }
        let objective = model.objective().evaluate(&values);
        Some((
            LpResult { status: LpStatus::Optimal, values, objective },
            Some(SparseBasis { basis: sim.basis }),
        ))
    }

    /// Independent feasibility check of an extracted solution (bounds and
    /// model constraints, relative tolerance). Integrality is not checked —
    /// this is an LP relaxation.
    fn solution_feasible(&self, model: &Model, bounds: &[(f64, f64)], values: &[f64]) -> bool {
        let tol = |scale: f64| 1e-6 * (1.0 + scale.abs());
        for (i, &v) in values.iter().enumerate() {
            let (lb, ub) = bounds[i];
            if v < lb - tol(lb) || v > ub + tol(ub) {
                return false;
            }
        }
        for c in model.constraints() {
            let lhs = c.expr.evaluate(values);
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol(c.rhs),
                Sense::Ge => lhs >= c.rhs - tol(c.rhs),
                Sense::Eq => (lhs - c.rhs).abs() <= tol(c.rhs),
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

fn infeasible() -> LpResult {
    LpResult { status: LpStatus::Infeasible, values: vec![], objective: 0.0 }
}

/// Solves the LP relaxation of `model` with the sparse revised simplex
/// (cold start), falling back to the dense kernel on numerical trouble.
///
/// `bound_overrides`, when non-empty, supplies per-variable `(lower, upper)`
/// bounds replacing the model's.
pub fn solve_lp_sparse(model: &Model, bound_overrides: &[(f64, f64)]) -> LpResult {
    SparseLp::new(model, bound_overrides).solve_cold(model).0
}

/// One product-form update: replacing the basis column at position `pos`
/// with a column whose FTRAN image had `diag` at `pos` and `col` elsewhere.
#[derive(Debug, Clone)]
struct Eta {
    pos: usize,
    diag: f64,
    col: Vec<(usize, f64)>,
}

/// The basis inverse: an LU factorisation from sparse left-looking Gaussian
/// elimination with partial pivoting, plus the eta file of product-form
/// updates appended since the last refactorisation.
///
/// Columns are eliminated in a fill-reducing order (fewest nonzeros first,
/// so the many unit slack/artificial columns of a typical LP basis pivot
/// for free); `cpos` records the basis position each elimination step
/// corresponds to. Steps whose `L` transform is empty — the common case —
/// are skipped entirely in FTRAN/BTRAN via the `nontrivial` index.
#[derive(Debug, Clone)]
struct Factor {
    /// Pivot row (original index) of each elimination step.
    perm: Vec<usize>,
    /// Basis position eliminated at each step (column permutation).
    cpos: Vec<usize>,
    /// Per step, the below-pivot multipliers `(row, factor)`.
    l_etas: Vec<Vec<(usize, f64)>>,
    /// Steps with a non-empty `L` transform, ascending.
    nontrivial: Vec<usize>,
    /// Per step `k`, the already-pivotal entries `(step, value)` of the
    /// eliminated column — column `k` of `U` above the diagonal.
    ucols: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U`.
    udiag: Vec<f64>,
    /// Product-form updates since the factorisation (in basis-position
    /// space).
    etas: Vec<Eta>,
}

impl Factor {
    /// Factorises the basis given by `basis` over the context's columns.
    /// Returns `None` when the basis matrix is (numerically) singular.
    fn refactor(lp: &SparseLp, basis: &[usize]) -> Option<Factor> {
        let m = lp.m;
        let mut f = Factor {
            perm: Vec::with_capacity(m),
            cpos: Vec::with_capacity(m),
            l_etas: Vec::with_capacity(m),
            nontrivial: Vec::new(),
            ucols: Vec::with_capacity(m),
            udiag: Vec::with_capacity(m),
            etas: Vec::new(),
        };
        // Eliminate sparsest columns first: the unit slack/artificial
        // columns of a typical LP basis then pivot with no fill at all, and
        // only the structural "kernel" does real elimination work.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&k| (lp.cols[basis[k]].len(), k));

        // Sparse workspace: dense value vector plus the list of touched
        // rows, reset per column (never a full O(m) sweep).
        let mut w = vec![0.0f64; m];
        let mut mark = vec![false; m];
        let mut touched: Vec<usize> = Vec::new();
        // Row → elimination step that pivoted it (usize::MAX when open).
        let mut step_of_row = vec![usize::MAX; m];

        for (k, &bpos) in order.iter().enumerate() {
            for &(r, v) in &lp.cols[basis[bpos]] {
                w[r] = v;
                if !mark[r] {
                    mark[r] = true;
                    touched.push(r);
                }
            }
            for &t in &f.nontrivial {
                let wp = w[f.perm[t]];
                if wp.abs() > DROP_TOL {
                    for &(r, fac) in &f.l_etas[t] {
                        if !mark[r] {
                            mark[r] = true;
                            touched.push(r);
                        }
                        w[r] -= fac * wp;
                    }
                }
            }
            let mut ucol: Vec<(usize, f64)> = Vec::new();
            let mut pivot: Option<(usize, f64)> = None;
            for &r in &touched {
                let v = w[r];
                if v.abs() <= DROP_TOL {
                    continue;
                }
                let t = step_of_row[r];
                if t != usize::MAX {
                    ucol.push((t, v));
                } else if pivot.map(|(_, best)| v.abs() > best).unwrap_or(true) {
                    pivot = Some((r, v.abs()));
                }
            }
            let singular = match pivot {
                None => true,
                Some((_, mag)) => mag < PIVOT_TOL,
            };
            if singular {
                for &r in &touched {
                    w[r] = 0.0;
                    mark[r] = false;
                }
                return None;
            }
            let (p, _) = pivot.unwrap();
            let piv = w[p];
            let mut letas: Vec<(usize, f64)> = Vec::new();
            for &r in &touched {
                if r != p && step_of_row[r] == usize::MAX && w[r].abs() > DROP_TOL {
                    letas.push((r, w[r] / piv));
                }
            }
            for &r in &touched {
                w[r] = 0.0;
                mark[r] = false;
            }
            touched.clear();
            if !letas.is_empty() {
                f.nontrivial.push(k);
            }
            step_of_row[p] = k;
            f.perm.push(p);
            f.cpos.push(bpos);
            f.udiag.push(piv);
            f.ucols.push(ucol);
            f.l_etas.push(letas);
        }
        Some(f)
    }

    /// FTRAN: solves `B d = a` for a dense right-hand side, returning `d`
    /// indexed by basis position.
    fn ftran(&self, a: &mut [f64]) -> Vec<f64> {
        let m = self.perm.len();
        for &t in &self.nontrivial {
            let wp = a[self.perm[t]];
            if wp.abs() > DROP_TOL {
                for &(r, fac) in &self.l_etas[t] {
                    a[r] -= fac * wp;
                }
            }
        }
        let mut step = vec![0.0f64; m];
        for k in (0..m).rev() {
            let v = a[self.perm[k]];
            if v.abs() <= DROP_TOL {
                continue;
            }
            let x = v / self.udiag[k];
            step[k] = x;
            for &(t, uval) in &self.ucols[k] {
                a[self.perm[t]] -= uval * x;
            }
        }
        // Undo the elimination's column permutation, then apply the
        // position-space update etas.
        let mut d = vec![0.0f64; m];
        for (k, &bpos) in self.cpos.iter().enumerate() {
            d[bpos] = step[k];
        }
        for eta in &self.etas {
            let piv = d[eta.pos] / eta.diag;
            d[eta.pos] = piv;
            if piv.abs() > DROP_TOL {
                for &(i, v) in &eta.col {
                    d[i] -= v * piv;
                }
            }
        }
        d
    }

    /// BTRAN: solves `Bᵀ y = c` for `c` indexed by basis position,
    /// returning `y` indexed by row.
    fn btran(&self, c: &[f64]) -> Vec<f64> {
        let m = self.perm.len();
        let mut v = c.to_vec();
        for eta in self.etas.iter().rev() {
            let mut s = v[eta.pos];
            for &(i, val) in &eta.col {
                s -= val * v[i];
            }
            v[eta.pos] = s / eta.diag;
        }
        // Gather into elimination-step space, then solve Uᵀ z = v
        // (forward, U stored by columns).
        let mut z = vec![0.0f64; m];
        for k in 0..m {
            let mut s = v[self.cpos[k]];
            for &(t, uval) in &self.ucols[k] {
                s -= uval * z[t];
            }
            z[k] = s / self.udiag[k];
        }
        // Apply the transposed L transforms in reverse.
        let mut y = vec![0.0f64; m];
        for (k, &p) in self.perm.iter().enumerate() {
            y[p] = z[k];
        }
        for &t in self.nontrivial.iter().rev() {
            let mut s = y[self.perm[t]];
            for &(r, fac) in &self.l_etas[t] {
                s -= fac * y[r];
            }
            y[self.perm[t]] = s;
        }
        y
    }
}

/// Outcome of a primal simplex phase.
enum Phase {
    Optimal,
    Unbounded,
    Numerical,
}

/// Outcome of a dual simplex run.
enum DualOutcome {
    Feasible,
    Infeasible,
    Numerical,
}

/// Mutable solver state for one solve over a [`SparseLp`] context.
struct Sim<'a> {
    lp: &'a SparseLp,
    /// Right-hand side under the solve's bounds.
    b: Vec<f64>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Basis position per column (`usize::MAX` when nonbasic).
    pos_of: Vec<usize>,
    /// Basic variable values by position.
    x: Vec<f64>,
    factor: Factor,
    /// Partial-pricing cursor (column to start the next scan at).
    cursor: usize,
}

impl<'a> Sim<'a> {
    fn new(lp: &'a SparseLp, bounds: &[(f64, f64)], basis: Vec<usize>) -> Option<Sim<'a>> {
        let b = lp.rhs_for(bounds);
        let factor = Factor::refactor(lp, &basis)?;
        let mut pos_of = vec![usize::MAX; lp.ncols];
        for (i, &j) in basis.iter().enumerate() {
            if pos_of[j] != usize::MAX {
                return None; // repeated basic column: corrupt warm basis
            }
            pos_of[j] = i;
        }
        let x = factor.ftran(&mut b.clone());
        Some(Sim { lp, b, basis, pos_of, x, factor, cursor: 0 })
    }

    fn sparse_dot(y: &[f64], col: &[(usize, f64)]) -> f64 {
        col.iter().map(|&(r, v)| y[r] * v).sum()
    }

    /// Scatters column `j` into a dense work vector and FTRANs it.
    fn ftran_col(&self, j: usize) -> Vec<f64> {
        let mut a = vec![0.0f64; self.lp.m];
        for &(r, v) in &self.lp.cols[j] {
            a[r] += v;
        }
        self.factor.ftran(&mut a)
    }

    fn btran(&self, c_basic: &[f64]) -> Vec<f64> {
        self.factor.btran(c_basic)
    }

    /// Simplex multipliers `y = B⁻ᵀ c_B` for the given objective.
    fn multipliers(&self, c: &[f64]) -> Vec<f64> {
        let c_basic: Vec<f64> = self.basis.iter().map(|&j| c[j]).collect();
        self.btran(&c_basic)
    }

    /// Entering-column selection.
    ///
    /// * `bland` — Bland's lowest-index rule (degeneracy fallback);
    /// * `full` — Dantzig's rule over **all** columns with first-lowest
    ///   tie-breaking, the same walk as the dense reference kernel (used in
    ///   phase 2 so both kernels land on the same optimal vertex);
    /// * otherwise — Dantzig over **partial-pricing segments**: scan from
    ///   the persistent cursor and stop at the first segment containing an
    ///   improving column (used in phase 1, where only feasibility matters
    ///   and full pricing would dominate the iteration cost).
    fn price(
        &mut self,
        c: &[f64],
        y: &[f64],
        allow: &dyn Fn(usize) -> bool,
        bland: bool,
        full: bool,
    ) -> Option<usize> {
        let ncols = self.lp.ncols;
        if bland {
            return (0..ncols).find(|&j| {
                allow(j)
                    && self.pos_of[j] == usize::MAX
                    && c[j] - Self::sparse_dot(y, &self.lp.cols[j]) > EPS
            });
        }
        let seg = if full { ncols } else { (ncols / 8).clamp(64, 512).min(ncols.max(1)) };
        let start = if full { 0 } else { self.cursor.min(ncols.saturating_sub(1)) };
        let mut best: Option<(usize, f64)> = None;
        for k in 0..ncols {
            let j = (start + k) % ncols;
            if allow(j) && self.pos_of[j] == usize::MAX {
                let rc = c[j] - Self::sparse_dot(y, &self.lp.cols[j]);
                if rc > EPS && best.map(|(_, b)| rc > b).unwrap_or(true) {
                    best = Some((j, rc));
                }
            }
            if (k + 1) % seg == 0 && best.is_some() {
                break;
            }
        }
        best.map(|(j, _)| {
            self.cursor = (j + 1) % ncols;
            j
        })
    }

    /// Primal ratio test: the leaving row minimising `x_i / d_i` over
    /// `d_i > 0` (Bland tie-break on the basic column index when `bland`).
    fn ratio_test(&self, d: &[f64], bland: bool) -> Option<usize> {
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for (i, &di) in d.iter().enumerate() {
            if di > EPS {
                let ratio = self.x[i].max(0.0) / di;
                let better = match leave {
                    None => ratio.is_finite(),
                    Some(l) => {
                        ratio < best - EPS
                            || (bland
                                && (ratio - best).abs() <= EPS
                                && self.basis[i] < self.basis[l])
                    }
                };
                if better {
                    best = ratio;
                    leave = Some(i);
                }
            }
        }
        leave
    }

    /// Pivots column `q` into basis position `r` given its FTRAN image `d`,
    /// updating the basic solution and appending an eta (refactorising when
    /// the eta file is full). `false` signals numerical failure.
    fn pivot(&mut self, r: usize, q: usize, d: Vec<f64>) -> bool {
        let dr = d[r];
        if dr.abs() <= EPS {
            return false;
        }
        let t = self.x[r] / dr;
        for (i, &di) in d.iter().enumerate() {
            if i != r && di.abs() > DROP_TOL {
                self.x[i] -= di * t;
            }
        }
        self.x[r] = t;
        self.pos_of[self.basis[r]] = usize::MAX;
        self.basis[r] = q;
        self.pos_of[q] = r;
        let col: Vec<(usize, f64)> = d
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != r && v.abs() > DROP_TOL)
            .map(|(i, &v)| (i, v))
            .collect();
        self.factor.etas.push(Eta { pos: r, diag: dr, col });
        if self.factor.etas.len() >= REFACTOR_EVERY && !self.refresh() {
            return false;
        }
        true
    }

    /// Refactorises the current basis from scratch and recomputes the
    /// basic solution, purging eta-file drift. `false` signals a
    /// (numerically) singular basis.
    fn refresh(&mut self) -> bool {
        let Some(factor) = Factor::refactor(self.lp, &self.basis) else {
            return false;
        };
        self.factor = factor;
        self.x = self.factor.ftran(&mut self.b.clone());
        true
    }

    /// Primal simplex iterations until optimality or unboundedness, with
    /// the same Dantzig→Bland degeneracy ladder and hard safety valve as
    /// the dense kernel.
    fn primal(&mut self, c: &[f64], allow: impl Fn(usize) -> bool, full_pricing: bool) -> Phase {
        let scale = self.lp.m + self.lp.ncols;
        let dantzig_limit = 50 * scale + 1000;
        let hard_limit = 400 * scale + 20000;
        let mut iter = 0usize;
        loop {
            iter += 1;
            if iter > hard_limit {
                // Termination safety valve: accept the current basis.
                return Phase::Optimal;
            }
            let bland = iter > dantzig_limit;
            let y = self.multipliers(c);
            let Some(q) = self.price(c, &y, &allow, bland, full_pricing) else {
                return Phase::Optimal;
            };
            let d = self.ftran_col(q);
            let Some(r) = self.ratio_test(&d, bland) else {
                return Phase::Unbounded;
            };
            if !self.pivot(r, q, d) {
                return Phase::Numerical;
            }
        }
    }

    /// Dual simplex iterations from a dual-feasible basis, restoring primal
    /// feasibility after a right-hand-side change (the warm-start path).
    /// Artificial columns are barred from entering.
    fn dual(&mut self, c: &[f64]) -> DualOutcome {
        let limit = 200 * (self.lp.m + self.lp.ncols) + 10000;
        for _ in 0..limit {
            let Some(r) = (0..self.lp.m)
                .filter(|&i| self.x[i] < -FEAS_EPS)
                .min_by(|&a, &b| self.x[a].total_cmp(&self.x[b]))
            else {
                return DualOutcome::Feasible;
            };
            let y = self.multipliers(c);
            let mut unit = vec![0.0f64; self.lp.m];
            unit[r] = 1.0;
            let rho = self.btran(&unit);
            let mut enter: Option<(usize, f64)> = None;
            for (j, col) in self.lp.cols.iter().enumerate().take(self.lp.art_start) {
                if self.pos_of[j] != usize::MAX {
                    continue;
                }
                let alpha = Self::sparse_dot(&rho, col);
                if alpha < -EPS {
                    let rc = (c[j] - Self::sparse_dot(&y, col)).min(0.0);
                    let ratio = rc / alpha;
                    if enter.map(|(_, best)| ratio < best - EPS).unwrap_or(true) {
                        enter = Some((j, ratio));
                    }
                }
            }
            let Some((q, _)) = enter else {
                // No column can absorb the violation: the LP is infeasible
                // (the caller confirms the verdict from a freshly
                // refactorised basis before pruning on it).
                return DualOutcome::Infeasible;
            };
            let d = self.ftran_col(q);
            if !self.pivot(r, q, d) {
                return DualOutcome::Numerical;
            }
        }
        DualOutcome::Numerical
    }

    /// Pivots basic artificials out of the basis after phase 1 where a
    /// non-artificial replacement column exists; redundant rows keep their
    /// zero-valued artificial (barred from re-entering). `false` signals
    /// numerical failure.
    fn drive_out_artificials(&mut self) -> bool {
        for i in 0..self.lp.m {
            if self.basis[i] < self.lp.art_start {
                continue;
            }
            let mut unit = vec![0.0f64; self.lp.m];
            unit[i] = 1.0;
            let rho = self.btran(&unit);
            let replacement = (0..self.lp.art_start).find(|&j| {
                self.pos_of[j] == usize::MAX
                    && Self::sparse_dot(&rho, &self.lp.cols[j]).abs() > 1e-7
            });
            if let Some(j) = replacement {
                let d = self.ftran_col(j);
                if !self.pivot(i, j, d) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Model, VarKind};

    fn term(v: crate::expr::VarId, c: f64) -> LinExpr {
        LinExpr::term(v, c)
    }

    /// The sparse kernel itself (no dense fallback): `None` means the
    /// sparse path gave up, which these tests treat as a failure.
    fn sparse_strict(model: &Model, overrides: &[(f64, f64)]) -> LpResult {
        let ctx = SparseLp::new(model, overrides);
        ctx.try_cold(model).expect("sparse kernel fell back to dense").0
    }

    #[test]
    fn simple_two_variable_lp() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_le("c1", term(x, 1.0) + term(y, 1.0), 4.0);
        m.add_le("c2", term(x, 1.0) + term(y, 3.0), 6.0);
        m.maximize(term(x, 3.0) + term(y, 2.0));
        let r = sparse_strict(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 12.0).abs() < 1e-6);
        assert!((r.values[0] - 4.0).abs() < 1e-6);
        assert!(r.values[1].abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_constraints() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_eq("sum", term(x, 1.0) + term(y, 1.0), 10.0);
        m.add_ge("xmin", term(x, 1.0), 3.0);
        m.add_ge("ymin", term(y, 1.0), 2.0);
        m.maximize(term(x, 1.0) + term(y, 1.0));
        let r = sparse_strict(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 10.0).abs() < 1e-6);
        assert!(r.values[0] >= 3.0 - 1e-6);
        assert!(r.values[1] >= 2.0 - 1e-6);
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 5.0);
        m.add_ge("hi", term(x, 1.0), 10.0);
        m.maximize(term(x, 1.0));
        assert_eq!(sparse_strict(&m, &[]).status, LpStatus::Infeasible);

        let mut u = Model::new();
        let x = u.add_continuous("x", 0.0, f64::INFINITY);
        let y = u.add_continuous("y", 0.0, f64::INFINITY);
        u.add_ge("c", term(x, 1.0) - term(y, 1.0), 1.0);
        u.maximize(term(x, 1.0));
        assert_eq!(sparse_strict(&u, &[]).status, LpStatus::Unbounded);
    }

    #[test]
    fn minimisation_and_shifted_bounds() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_ge("c", term(x, 1.0) + term(y, 1.0), 4.0);
        m.minimize(term(x, 2.0) + term(y, 3.0));
        let r = sparse_strict(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 8.0).abs() < 1e-6);

        let mut s = Model::new();
        let x = s.add_continuous("x", -5.0, 0.0);
        s.add_le("cap", term(x, 1.0), -1.0);
        s.maximize(term(x, 1.0));
        let r = sparse_strict(&s, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn unconstrained_model_uses_bounds() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 7.0);
        let y = m.add_continuous("y", -2.0, 3.0);
        m.maximize(term(x, 2.0) - term(y, 1.0));
        let r = sparse_strict(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 7.0).abs() < 1e-6);
        assert!((r.values[1] + 2.0).abs() < 1e-6);
        assert!((r.objective - 16.0).abs() < 1e-6);
    }

    #[test]
    fn binary_relaxation_and_degenerate_problem() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Binary, 0.0, 1.0);
        let y = m.add_var("y", VarKind::Binary, 0.0, 1.0);
        m.add_le("c", term(x, 2.0) + term(y, 2.0), 3.0);
        m.maximize(term(x, 1.0) + term(y, 1.0));
        let r = sparse_strict(&m, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 1.5).abs() < 1e-6);

        let mut d = Model::new();
        let x = d.add_continuous("x", 0.0, f64::INFINITY);
        let y = d.add_continuous("y", 0.0, f64::INFINITY);
        for i in 0..20 {
            d.add_le(format!("c{i}"), term(x, 1.0) + term(y, 1.0 + i as f64 * 1e-9), 1.0);
        }
        d.maximize(term(x, 1.0) + term(y, 1.0));
        let r = sparse_strict(&d, &[]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bound_overrides_take_precedence() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        m.maximize(term(x, 1.0));
        let r = sparse_strict(&m, &[(0.0, 3.0)]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 3.0).abs() < 1e-6);
        assert_eq!(sparse_strict(&m, &[(5.0, 3.0)]).status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_start_resolves_branch_children() {
        // A 0/1 knapsack relaxation: branch on x0 and re-solve both
        // children from the parent basis.
        let mut m = Model::new();
        let vars: Vec<_> =
            (0..4).map(|i| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0)).collect();
        let mut cap = LinExpr::zero();
        let mut obj = LinExpr::zero();
        for (i, &v) in vars.iter().enumerate() {
            cap.add_term(v, [5.0, 4.0, 3.0, 2.0][i]);
            obj.add_term(v, [10.0, 7.0, 4.0, 3.0][i]);
        }
        m.add_le("cap", cap, 9.0);
        m.maximize(obj);

        let root_bounds: Vec<(f64, f64)> = vec![(0.0, 1.0); 4];
        let ctx = SparseLp::new(&m, &root_bounds);
        let (root, basis) = ctx.try_cold(&m).expect("cold solve stayed sparse");
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.expect("optimal solve returns a basis");

        for (lo, hi) in [(0.0, 0.0), (1.0, 1.0)] {
            let mut child = root_bounds.clone();
            child[0] = (lo, hi);
            let (warm, _) = ctx
                .solve_warm(&m, &child, &basis)
                .expect("warm path should handle a pure bound change");
            let cold = solve_lp_dense(&m, &child);
            assert_eq!(warm.status, cold.status, "child ({lo}, {hi})");
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "child ({lo}, {hi}): warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
    }

    #[test]
    fn warm_start_rejects_structure_changes() {
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, f64::INFINITY);
        m.add_le("cap", term(x, 1.0), 7.5);
        m.maximize(term(x, 1.0));
        let bounds = vec![(0.0, f64::INFINITY)];
        let ctx = SparseLp::new(&m, &bounds);
        let (_, basis) = ctx.try_cold(&m).expect("cold solve stayed sparse");
        let basis = basis.expect("basis");
        // Branching down makes the upper bound finite — a new row — so the
        // warm path must refuse rather than mis-solve.
        assert!(ctx.solve_warm(&m, &[(0.0, 7.0)], &basis).is_none());
    }

    #[test]
    fn eta_file_refactorises_on_long_runs() {
        // Enough constraints/pivots to exceed REFACTOR_EVERY.
        let mut m = Model::new();
        let vars: Vec<_> = (0..30).map(|i| m.add_continuous(format!("x{i}"), 0.0, 10.0)).collect();
        let mut obj = LinExpr::zero();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(v, 1.0 + (i % 7) as f64);
            let mut row = LinExpr::term(v, 1.0);
            if i + 1 < vars.len() {
                row.add_term(vars[i + 1], 0.5);
            }
            m.add_le(format!("r{i}"), row, 3.0 + (i % 5) as f64);
        }
        m.maximize(obj);
        let sparse = sparse_strict(&m, &[]);
        let dense = solve_lp_dense(&m, &[]);
        assert_eq!(sparse.status, LpStatus::Optimal);
        assert!(
            (sparse.objective - dense.objective).abs() < 1e-6 * (1.0 + dense.objective.abs()),
            "sparse {} vs dense {}",
            sparse.objective,
            dense.objective
        );
    }
}
