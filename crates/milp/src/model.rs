//! MILP model: variables, linear constraints, and an objective.

use crate::expr::{LinExpr, VarId};
use std::fmt;

/// The integrality class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Continuous variable.
    Continuous,
    /// General integer variable.
    Integer,
    /// Binary (0/1) variable.
    Binary,
}

/// A decision variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Human-readable name (used in debugging output).
    pub name: String,
    /// Integrality class.
    pub kind: VarKind,
    /// Lower bound (must be finite).
    pub lower: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub upper: f64,
}

impl Variable {
    /// True when the variable must take an integral value.
    pub fn is_integral(&self) -> bool {
        matches!(self.kind, VarKind::Integer | VarKind::Binary)
    }
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `expr ≤ rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Ge,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sense::Le => "<=",
            Sense::Eq => "=",
            Sense::Ge => ">=",
        })
    }
}

/// A linear constraint `expr sense rhs` (the expression's constant is folded
/// into the right-hand side at construction time).
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Optional label for diagnostics.
    pub name: String,
    /// Left-hand side (constant part always zero after normalisation).
    pub expr: LinExpr,
    /// Sense of the constraint.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Maximise the objective (Explain3D maximises log-probability).
    #[default]
    Maximize,
    /// Minimise the objective.
    Minimize,
}

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal solution was found (within tolerances).
    Optimal,
    /// A feasible solution was found, but optimality was not proven before
    /// the node budget ran out.
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// The LP relaxation (and hence the problem) is unbounded.
    Unbounded,
    /// No feasible solution was found before hitting a limit.
    LimitReached,
}

impl SolveStatus {
    /// True when a usable assignment is available.
    pub fn has_solution(&self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

/// A solution: one value per variable plus the objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Status of the solve.
    pub status: SolveStatus,
    /// Variable values, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Objective value (in the model's direction).
    pub objective: f64,
}

impl Solution {
    /// The value of a variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values.get(var.index()).copied().unwrap_or(0.0)
    }

    /// The value of a binary/integer variable rounded to the nearest integer.
    pub fn int_value(&self, var: VarId) -> i64 {
        self.value(var).round() as i64
    }

    /// True when a binary variable is set (≥ 0.5).
    pub fn is_set(&self, var: VarId) -> bool {
        self.value(var) >= 0.5
    }
}

/// A mixed-integer linear program.
#[derive(Debug, Clone, Default)]
pub struct Model {
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
    objective: LinExpr,
    direction: Direction,
}

impl Model {
    /// Creates an empty maximisation model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a variable with explicit kind and bounds.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
    ) -> VarId {
        assert!(
            lower.is_finite(),
            "variable lower bounds must be finite (got {lower} for {})",
            name.into()
        );
        let id = VarId(self.variables.len());
        self.variables.push(Variable { name: name.into(), kind, lower, upper });
        id
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0)
    }

    /// Adds a bounded integer variable.
    pub fn add_integer(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, VarKind::Integer, lower, upper)
    }

    /// Adds a bounded continuous variable.
    pub fn add_continuous(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, VarKind::Continuous, lower, upper)
    }

    /// Adds the constraint `expr sense rhs`. Any constant in `expr` is moved
    /// to the right-hand side.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        sense: Sense,
        rhs: f64,
    ) {
        let constant = expr.constant_part();
        let mut normalised = expr;
        normalised.add_constant(-constant);
        self.constraints.push(Constraint {
            name: name.into(),
            expr: normalised,
            sense,
            rhs: rhs - constant,
        });
    }

    /// Convenience: `expr ≤ rhs`.
    pub fn add_le(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) {
        self.add_constraint(name, expr, Sense::Le, rhs);
    }

    /// Convenience: `expr ≥ rhs`.
    pub fn add_ge(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) {
        self.add_constraint(name, expr, Sense::Ge, rhs);
    }

    /// Convenience: `expr = rhs`.
    pub fn add_eq(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) {
        self.add_constraint(name, expr, Sense::Eq, rhs);
    }

    /// Sets the objective expression and direction.
    pub fn set_objective(&mut self, expr: LinExpr, direction: Direction) {
        self.objective = expr;
        self.direction = direction;
    }

    /// Sets a maximisation objective.
    pub fn maximize(&mut self, expr: LinExpr) {
        self.set_objective(expr, Direction::Maximize);
    }

    /// Sets a minimisation objective.
    pub fn minimize(&mut self, expr: LinExpr) {
        self.set_objective(expr, Direction::Minimize);
    }

    /// The variables.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The variable with the given id.
    pub fn variable(&self, id: VarId) -> &Variable {
        &self.variables[id.index()]
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective expression.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// The optimisation direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Ids of all integral (binary or integer) variables.
    pub fn integral_vars(&self) -> Vec<VarId> {
        self.variables
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_integral())
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Verifies that an assignment satisfies all constraints and variable
    /// bounds within `tol`, returning the list of violated constraint names.
    pub fn violations(&self, values: &[f64], tol: f64) -> Vec<String> {
        let mut out = Vec::new();
        for (i, var) in self.variables.iter().enumerate() {
            let v = values.get(i).copied().unwrap_or(0.0);
            if v < var.lower - tol || v > var.upper + tol {
                out.push(format!("bounds:{}", var.name));
            }
            if var.is_integral() && (v - v.round()).abs() > tol {
                out.push(format!("integrality:{}", var.name));
            }
        }
        for c in &self.constraints {
            let lhs = c.expr.evaluate(values);
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                out.push(c.name.clone());
            }
        }
        out
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {}",
            match self.direction {
                Direction::Maximize => "maximize",
                Direction::Minimize => "minimize",
            },
            self.objective
        )?;
        writeln!(f, "subject to")?;
        for c in &self.constraints {
            writeln!(f, "  [{}] {} {} {}", c.name, c.expr, c.sense, c.rhs)?;
        }
        writeln!(f, "variables")?;
        for (i, v) in self.variables.iter().enumerate() {
            writeln!(f, "  x{i} = {} ({:?}) in [{}, {}]", v.name, v.kind, v.lower, v.upper)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_construction() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_integer("y", 0.0, 10.0);
        let z = m.add_continuous("z", -5.0, 5.0);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.integral_vars(), vec![x, y]);
        assert!(m.variable(z).kind == VarKind::Continuous);
        assert!(m.variable(x).is_integral());

        m.add_le("c1", LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0), 5.0);
        m.add_eq("c2", LinExpr::term(z, 2.0), 3.0);
        m.maximize(LinExpr::term(x, 1.0) + LinExpr::term(y, 2.0));
        assert_eq!(m.num_constraints(), 2);
        assert_eq!(m.direction(), Direction::Maximize);
    }

    #[test]
    fn constraint_constants_fold_into_rhs() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let expr = LinExpr::term(x, 1.0) + LinExpr::constant(2.0);
        m.add_le("c", expr, 5.0);
        let c = &m.constraints()[0];
        assert_eq!(c.rhs, 3.0);
        assert_eq!(c.expr.constant_part(), 0.0);
    }

    #[test]
    fn violation_checking() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_integer("y", 0.0, 10.0);
        m.add_le("cap", LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0), 5.0);
        m.add_ge("floor", LinExpr::term(y, 1.0), 2.0);

        assert!(m.violations(&[1.0, 3.0], 1e-6).is_empty());
        let v = m.violations(&[1.0, 7.0], 1e-6);
        assert!(v.contains(&"cap".to_string()));
        let v = m.violations(&[0.5, 2.0], 1e-6);
        assert!(v.contains(&"integrality:x".to_string()));
        let v = m.violations(&[2.0, 2.0], 1e-6);
        assert!(v.contains(&"bounds:x".to_string()));
        let v = m.violations(&[0.0, 0.0], 1e-6);
        assert!(v.contains(&"floor".to_string()));
    }

    #[test]
    fn solution_accessors() {
        let s = Solution {
            status: SolveStatus::Optimal,
            values: vec![0.99999, 2.0000001, 0.2],
            objective: 3.0,
        };
        assert!(s.status.has_solution());
        assert!(s.is_set(VarId(0)));
        assert!(!s.is_set(VarId(2)));
        assert_eq!(s.int_value(VarId(1)), 2);
        assert_eq!(s.value(VarId(9)), 0.0);
        assert!(!SolveStatus::Infeasible.has_solution());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_lower_bound_is_rejected() {
        let mut m = Model::new();
        m.add_continuous("bad", f64::NEG_INFINITY, 0.0);
    }

    #[test]
    fn display_lists_structure() {
        let mut m = Model::new();
        let x = m.add_binary("pick");
        m.add_le("only_one", LinExpr::term(x, 1.0), 1.0);
        m.maximize(LinExpr::term(x, 3.0));
        let s = m.to_string();
        assert!(s.contains("maximize"));
        assert!(s.contains("only_one"));
        assert!(s.contains("pick"));
    }
}
