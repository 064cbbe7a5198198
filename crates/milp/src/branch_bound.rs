//! Branch-and-bound MILP solver on top of the simplex LP relaxation.
//!
//! Each node's LP relaxation is solved with the sparse revised simplex, and
//! child nodes are **warm-started**: a child re-solves from its parent's
//! optimal basis with a short dual-simplex run instead of running phase 1
//! from scratch (only the branched variable's bound — i.e. the right-hand
//! side — changed, so the parent basis is still dual feasible). The search
//! reads no clock: it is bounded by a node budget alone
//! ([`MilpConfig::node_budget_for`]), so every run of the same model
//! explores the same tree and returns the same solution.

use crate::expr::VarId;
use crate::model::{Direction, Model, Solution, SolveStatus};
use crate::revised::{SparseBasis, SparseLp};
use crate::simplex::{LpResult, LpStatus};
use std::rc::Rc;
use std::time::Duration;

/// Integrality tolerance: a value within this distance of an integer is
/// considered integral.
const INT_TOLERANCE: f64 = 1e-6;

/// Absolute optimality gap: nodes whose LP bound improves the incumbent by
/// less than this are pruned.
const GAP_TOLERANCE: f64 = 1e-7;

/// Calibrated per-node cost model of the sparse warm-started search on the
/// reference single-core container: a branch-and-bound node on a model with
/// `s = num_vars + num_constraints` costs roughly
/// `NODE_COST_BASE_SECS + NODE_COST_SCALE_SECS · s^1.5` seconds. Fitted on
/// packed synthetic Stage-2 components (small `s`) and the large academic
/// component (`s ≈ 2600`, ≈ 0.7 ms/node warm). Used to convert a wall-clock
/// target into a *deterministic* per-model node budget — see
/// [`MilpConfig::node_budget_for`].
pub const NODE_COST_BASE_SECS: f64 = 2e-6;
/// See [`NODE_COST_BASE_SECS`].
pub const NODE_COST_SCALE_SECS: f64 = 5.2e-9;

/// The wall-clock target the default deterministic deadline approximates.
/// The sparse warm-started kernel explores roughly 40× more nodes per
/// second than the dense baseline did, so two seconds of budget buy more
/// search than the old ten-second wall-clock default — deterministically.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(2);

/// The smallest node budget a deadline resolves to (tiny models always get
/// a meaningful search).
pub const MIN_NODE_BUDGET: usize = 1_000;

/// Models smaller than this (`num_vars + num_constraints`) skip the root
/// diving heuristic: a tiny search proves optimality in a handful of nodes
/// anyway, and the dive's extra LP solves would dominate the solve time.
pub const DIVE_MIN_SIZE: usize = 256;

/// Configuration of the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct MilpConfig {
    /// Hard cap on the number of branch-and-bound nodes to explore
    /// (combined with [`deadline`](MilpConfig::deadline) via
    /// [`MilpConfig::node_budget_for`]).
    pub max_nodes: usize,
    /// Deterministic deadline: converted per model into a node budget via
    /// the calibrated cost model ([`MilpConfig::node_budget_for`]), so a
    /// "deadline-hit" search stops at exactly the same node on every run —
    /// default-configured solves are byte-reproducible even under thread
    /// contention. `Some(DEFAULT_DEADLINE)` by default.
    pub deadline: Option<Duration>,
    /// Reuse the parent node's optimal basis when solving children.
    /// Disable to force every node to solve cold, e.g. to check warm/cold
    /// equivalence.
    pub warm_start: bool,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig { max_nodes: 200_000, deadline: Some(DEFAULT_DEADLINE), warm_start: true }
    }
}

impl MilpConfig {
    /// A configuration with a specific node limit.
    pub fn with_max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Enables or disables warm-started LP re-solves.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// A configuration with a specific deterministic deadline (`None`
    /// disables it, leaving only [`max_nodes`](MilpConfig::max_nodes)).
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The effective node budget for `model`: [`max_nodes`] capped by the
    /// [`deadline`] converted through the calibrated per-node cost model
    /// ([`NODE_COST_BASE_SECS`], [`NODE_COST_SCALE_SECS`]). Deterministic
    /// given the model, so — unlike a wall-clock limit — a budget-hit
    /// search stops at exactly the same point of the tree on every run.
    ///
    /// [`max_nodes`]: MilpConfig::max_nodes
    /// [`deadline`]: MilpConfig::deadline
    pub fn node_budget_for(&self, model: &Model) -> usize {
        let Some(target) = self.deadline else {
            return self.max_nodes;
        };
        let size = (model.num_vars() + model.num_constraints()) as f64;
        let per_node = NODE_COST_BASE_SECS + NODE_COST_SCALE_SECS * size.powf(1.5);
        let nodes = (target.as_secs_f64() / per_node) as usize;
        // An explicit `max_nodes` below MIN_NODE_BUDGET always wins.
        nodes.max(MIN_NODE_BUDGET).min(self.max_nodes.max(1))
    }
}

/// Statistics about a branch-and-bound run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Number of nodes explored.
    pub nodes: usize,
    /// LP relaxations solved warm (from the parent node's basis).
    pub warm_lp_solves: usize,
}

/// Solves a MILP, returning the best solution found and search statistics.
///
/// `incumbent` is the objective value of a known feasible solution (in the
/// model's direction), used only for pruning: branches that cannot beat it
/// are cut, and a solution equal to it is still found and returned.
pub fn solve_with_stats(
    model: &Model,
    config: &MilpConfig,
    incumbent: Option<f64>,
) -> (Solution, SolveStats) {
    let n = model.num_vars();
    let sign = match model.direction() {
        Direction::Maximize => 1.0,
        Direction::Minimize => -1.0,
    };

    let int_vars: Vec<VarId> = model.integral_vars();
    let root_bounds: Vec<(f64, f64)> =
        model.variables().iter().map(|v| (v.lower, v.upper)).collect();

    let mut stats = SolveStats::default();
    // `best` holds (objective in max-sense, values).
    let mut best: Option<(f64, Vec<f64>)> = None;
    // The incumbent is relaxed by a small epsilon so a solution equal to it
    // is still discovered (and reported) by the search.
    let mut incumbent_bound = incumbent.map(|o| o * sign - 1e-6);

    let mut root_warm: Option<NodeLp> = None;
    // Root diving heuristic: greedily round the relaxation
    // to a feasible integral solution through warm-started re-solves. The
    // resulting incumbent both unlocks bound pruning from the first node
    // and guarantees a usable solution when the node budget is hit. The
    // dive's root solve doubles as the root node's warm state, so the main
    // loop does not re-solve the same LP cold.
    if config.warm_start
        && !int_vars.is_empty()
        && model.num_vars() + model.num_constraints() >= DIVE_MIN_SIZE
    {
        let (warm, dived) = dive_heuristic(model, &int_vars, &root_bounds, &mut stats);
        root_warm = warm;
        if let Some(values) = dived {
            let obj_max = evaluate_objective(model, &values) * sign;
            if incumbent_bound.map(|b| obj_max > b).unwrap_or(true) {
                incumbent_bound = Some(obj_max);
                best = Some((obj_max, values));
            }
        }
    }

    // Depth-first stack of nodes, each carrying its own bound vector plus
    // the LP context and optimal basis of its parent, from
    // which the node's relaxation is warm-started.
    type Node = (Vec<(f64, f64)>, Option<NodeLp>);
    let mut stack: Vec<Node> = vec![(root_bounds, root_warm)];
    let mut fully_explored = true;
    let node_budget = config.node_budget_for(model);

    while let Some((bounds, warm)) = stack.pop() {
        if stats.nodes >= node_budget {
            fully_explored = false;
            break;
        }
        stats.nodes += 1;

        let (lp, node_lp) = solve_node(model, config, &bounds, warm.as_ref(), &mut stats);
        match lp.status {
            LpStatus::Infeasible => continue,
            LpStatus::Unbounded => {
                // An unbounded relaxation at the root means the MILP itself is
                // unbounded (or has no useful bound); report it directly.
                return (
                    Solution {
                        status: SolveStatus::Unbounded,
                        values: vec![0.0; n],
                        objective: 0.0,
                    },
                    stats,
                );
            }
            LpStatus::Optimal => {}
        }
        let node_bound = lp.objective * sign;
        if let Some(inc) = incumbent_bound {
            if node_bound <= inc + GAP_TOLERANCE {
                continue; // cannot improve the incumbent
            }
        }

        // Find the most fractional integral variable.
        let mut branch_var: Option<(VarId, f64)> = None;
        let mut best_frac = INT_TOLERANCE;
        for &v in &int_vars {
            let x = lp.values[v.index()];
            let frac = (x - x.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch_var = Some((v, x));
            }
        }

        match branch_var {
            None => {
                // Integral solution: candidate incumbent.
                let mut values = lp.values.clone();
                for &v in &int_vars {
                    values[v.index()] = values[v.index()].round();
                }
                let obj = evaluate_objective(model, &values);
                let obj_max = obj * sign;
                if best.as_ref().map(|(b, _)| obj_max > *b).unwrap_or(true) {
                    incumbent_bound = Some(obj_max);
                    best = Some((obj_max, values));
                }
            }
            Some((v, x)) => {
                let idx = v.index();
                let floor = x.floor();
                let ceil = x.ceil();
                // Child with x >= ceil.
                let mut up = bounds.clone();
                up[idx].0 = up[idx].0.max(ceil);
                // Child with x <= floor.
                let mut down = bounds.clone();
                down[idx].1 = down[idx].1.min(floor);
                // Explore the side closer to the fractional value first
                // (pushed last so it is popped first). Both children
                // warm-start from this node's optimal basis.
                if x - floor > 0.5 {
                    if down[idx].0 <= down[idx].1 {
                        stack.push((down, node_lp.clone()));
                    }
                    if up[idx].0 <= up[idx].1 {
                        stack.push((up, node_lp));
                    }
                } else {
                    if up[idx].0 <= up[idx].1 {
                        stack.push((up, node_lp.clone()));
                    }
                    if down[idx].0 <= down[idx].1 {
                        stack.push((down, node_lp));
                    }
                }
            }
        }
    }

    match best {
        Some((_, values)) => {
            let objective = evaluate_objective(model, &values);
            let status = if fully_explored { SolveStatus::Optimal } else { SolveStatus::Feasible };
            (Solution { status, values, objective }, stats)
        }
        None => {
            let status =
                if fully_explored { SolveStatus::Infeasible } else { SolveStatus::LimitReached };
            (Solution { status, values: vec![0.0; n], objective: 0.0 }, stats)
        }
    }
}

/// The reusable LP state a node hands to its children: the sparse LP
/// context (shared across the whole subtree with an unchanged constraint
/// structure) and the node's optimal basis.
#[derive(Clone)]
struct NodeLp {
    ctx: Rc<SparseLp>,
    basis: Rc<SparseBasis>,
}

/// LP-guided diving heuristic: starting from the root relaxation, round the
/// most fractional integral variable to its nearest integer, fix it, and
/// warm-start the re-solve from the previous basis; repeat until the
/// solution is integral or a fix is infeasible (the opposite rounding is
/// tried once before giving up). Deterministic, and bounded by
/// `2 · |int_vars|` warm LP solves.
///
/// Returns the root node's warm state (context + optimal basis of the root
/// relaxation, so the main search does not re-solve the root cold) plus a
/// feasible integral assignment when the dive reached one.
fn dive_heuristic(
    model: &Model,
    int_vars: &[VarId],
    root_bounds: &[(f64, f64)],
    stats: &mut SolveStats,
) -> (Option<NodeLp>, Option<Vec<f64>>) {
    let ctx = Rc::new(SparseLp::new(model, root_bounds));
    let (mut lp, mut basis) = ctx.solve_cold(model);
    let root_warm = basis.clone().map(|b| NodeLp { ctx: ctx.clone(), basis: Rc::new(b) });
    let mut bounds = root_bounds.to_vec();
    // Each iteration fixes exactly one (new) fractional variable, so after
    // at most `int_vars.len()` fixes the solution is integral — the extra
    // iteration runs the integrality check after the final fix.
    for _ in 0..=int_vars.len() {
        if lp.status != LpStatus::Optimal {
            return (root_warm, None);
        }
        // Most fractional integral variable.
        let mut pick: Option<(usize, f64)> = None;
        let mut best_frac = INT_TOLERANCE;
        for &v in int_vars {
            let x = lp.values[v.index()];
            let frac = (x - x.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                pick = Some((v.index(), x));
            }
        }
        let Some((idx, x)) = pick else {
            // Integral: round and double-check feasibility.
            let mut values = lp.values.clone();
            for &v in int_vars {
                values[v.index()] = values[v.index()].round();
            }
            if model.violations(&values, 1e-6).is_empty() {
                return (root_warm, Some(values));
            }
            return (root_warm, None);
        };
        let (lb, ub) = bounds[idx];
        let mut fixed = x.round().clamp(lb, ub);
        let mut next = solve_fixed(&ctx, model, &mut bounds, idx, fixed, basis.as_ref(), stats);
        if next.as_ref().map(|(lp, _)| lp.status != LpStatus::Optimal).unwrap_or(true) {
            // The nearest rounding closed the problem: try the other side.
            fixed = if fixed > x { x.floor().clamp(lb, ub) } else { x.ceil().clamp(lb, ub) };
            next = solve_fixed(&ctx, model, &mut bounds, idx, fixed, basis.as_ref(), stats);
        }
        let Some((next_lp, next_basis)) = next else {
            return (root_warm, None);
        };
        lp = next_lp;
        basis = next_basis;
    }
    (root_warm, None)
}

/// One diving step: fixes variable `idx` to `value` in `bounds` and
/// re-solves, warm when a basis is available.
fn solve_fixed(
    ctx: &SparseLp,
    model: &Model,
    bounds: &mut [(f64, f64)],
    idx: usize,
    value: f64,
    basis: Option<&SparseBasis>,
    stats: &mut SolveStats,
) -> Option<(LpResult, Option<SparseBasis>)> {
    bounds[idx] = (value, value);
    if let Some(b) = basis {
        if let Some(out) = ctx.solve_warm(model, bounds, b) {
            stats.warm_lp_solves += 1;
            return Some(out);
        }
    }
    let fresh = SparseLp::new(model, bounds);
    Some(fresh.solve_cold(model))
}

/// Solves one node's LP relaxation, warm-starting from the parent basis
/// when available and falling back to a cold solve on a
/// fresh context otherwise. Returns the LP result plus the state the
/// node's children warm-start from.
fn solve_node(
    model: &Model,
    config: &MilpConfig,
    bounds: &[(f64, f64)],
    warm: Option<&NodeLp>,
    stats: &mut SolveStats,
) -> (LpResult, Option<NodeLp>) {
    if config.warm_start {
        if let Some(w) = warm {
            if let Some((lp, basis)) = w.ctx.solve_warm(model, bounds, &w.basis) {
                stats.warm_lp_solves += 1;
                let next = basis.map(|b| NodeLp { ctx: w.ctx.clone(), basis: Rc::new(b) });
                return (lp, next);
            }
        }
    }
    let ctx = Rc::new(SparseLp::new(model, bounds));
    let (lp, basis) = ctx.solve_cold(model);
    let next = basis.map(|b| NodeLp { ctx, basis: Rc::new(b) });
    (lp, next)
}

/// Solves a MILP with the given configuration.
pub fn solve(model: &Model, config: &MilpConfig) -> Solution {
    solve_with_stats(model, config, None).0
}

/// Solves a MILP with default configuration.
pub fn solve_default(model: &Model) -> Solution {
    solve(model, &MilpConfig::default())
}

fn evaluate_objective(model: &Model, values: &[f64]) -> f64 {
    model.objective().evaluate(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Model, Sense};

    fn term(v: VarId, c: f64) -> LinExpr {
        LinExpr::term(v, c)
    }

    #[test]
    fn knapsack_is_solved_to_optimality() {
        // Items (value, weight): (10,5) (7,4) (4,3) (3,2); capacity 9.
        // Optimum: items 0 and 1 -> value 17, weight 9.
        let values = [10.0, 7.0, 4.0, 3.0];
        let weights = [5.0, 4.0, 3.0, 2.0];
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut cap = LinExpr::zero();
        let mut obj = LinExpr::zero();
        for i in 0..4 {
            cap.add_term(vars[i], weights[i]);
            obj.add_term(vars[i], values[i]);
        }
        m.add_le("capacity", cap, 9.0);
        m.maximize(obj);

        let sol = solve_default(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 17.0).abs() < 1e-6);
        assert!(sol.is_set(vars[0]));
        assert!(sol.is_set(vars[1]));
        assert!(!sol.is_set(vars[2]));
        assert!(!sol.is_set(vars[3]));
        assert!(m.violations(&sol.values, 1e-6).is_empty());
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 3, binary -> LP gives 1.5 but MILP 1.
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_le("c", term(x, 2.0) + term(y, 2.0), 3.0);
        m.maximize(term(x, 1.0) + term(y, 1.0));
        let sol = solve_default(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn general_integer_variables() {
        // max 3x + 4y s.t. x + 2y <= 7, 3x + y <= 9, x,y integer >= 0.
        // Optimum: x=2, y=2 (obj 14) or better? x=2,y=2: c1=6<=7, c2=8<=9 obj=14.
        // x=1,y=3: c1=7, c2=6, obj=15. x=0,y=3: obj 12. x=1,y=3 is feasible -> 15.
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 100.0);
        let y = m.add_integer("y", 0.0, 100.0);
        m.add_le("c1", term(x, 1.0) + term(y, 2.0), 7.0);
        m.add_le("c2", term(x, 3.0) + term(y, 1.0), 9.0);
        m.maximize(term(x, 3.0) + term(y, 4.0));
        let sol = solve_default(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 15.0).abs() < 1e-6);
        assert_eq!(sol.int_value(x), 1);
        assert_eq!(sol.int_value(y), 3);
    }

    #[test]
    fn infeasible_milp_detected() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.add_ge("impossible", term(x, 1.0), 2.0);
        m.maximize(term(x, 1.0));
        let sol = solve_default(&m);
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_milp_detected() {
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, f64::INFINITY);
        m.maximize(term(x, 1.0));
        let sol = solve_default(&m);
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn minimisation_milp() {
        // min 5x + 4y s.t. x + y >= 3, x integer, y integer.
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.add_ge("cover", term(x, 1.0) + term(y, 1.0), 3.0);
        m.minimize(term(x, 5.0) + term(y, 4.0));
        let sol = solve_default(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 12.0).abs() < 1e-6);
        assert_eq!(sol.int_value(y), 3);
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // max 2x + 3c s.t. x + c <= 4.5, c <= 2.2, x binary*3 slots.
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 3.0);
        let c = m.add_continuous("c", 0.0, 2.2);
        m.add_le("cap", term(x, 1.0) + term(c, 1.0), 4.5);
        m.maximize(term(x, 2.0) + term(c, 3.0));
        let sol = solve_default(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        // c at its bound 2.2, x at floor(4.5-2.2)=2 -> obj = 4 + 6.6 = 10.6
        assert!((sol.objective - 10.6).abs() < 1e-6);
        assert_eq!(sol.int_value(x), 2);
        assert!((sol.value(c) - 2.2).abs() < 1e-6);
    }

    #[test]
    fn equality_constrained_assignment() {
        // Pick exactly one of three options, maximise utility.
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint("one", term(a, 1.0) + term(b, 1.0) + term(c, 1.0), Sense::Eq, 1.0);
        m.maximize(term(a, 1.0) + term(b, 5.0) + term(c, 3.0));
        let sol = solve_default(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(sol.is_set(b));
        assert!(!sol.is_set(a));
        assert!(!sol.is_set(c));
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_reports_feasible_or_limit() {
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..12).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut cap = LinExpr::zero();
        let mut obj = LinExpr::zero();
        for (i, &v) in vars.iter().enumerate() {
            cap.add_term(v, 1.0 + (i % 3) as f64);
            obj.add_term(v, 1.0 + (i % 5) as f64 * 0.37);
        }
        m.add_le("cap", cap, 7.0);
        m.maximize(obj);
        let cfg = MilpConfig::default().with_max_nodes(2);
        let (sol, stats) = solve_with_stats(&m, &cfg, None);
        assert!(stats.nodes <= 2);
        assert!(matches!(sol.status, SolveStatus::Feasible | SolveStatus::LimitReached));
        // With enough nodes the same model solves to optimality.
        let full = solve_default(&m);
        assert_eq!(full.status, SolveStatus::Optimal);
        assert!(m.violations(&full.values, 1e-6).is_empty());
    }

    #[test]
    fn incumbent_hint_prunes_without_losing_optimum() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_le("c", term(x, 1.0) + term(y, 1.0), 1.0);
        m.maximize(term(x, 2.0) + term(y, 3.0));
        // Hint below the optimum: search still proves optimality of 3.
        let (sol, _) = solve_with_stats(&m, &MilpConfig::default(), Some(1.0));
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_equal_to_optimum_still_finds_it() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.add_le("cap", term(x, 1.0), 1.0);
        m.maximize(term(x, 1.0));
        let (sol, _) = solve_with_stats(&m, &MilpConfig::default(), Some(1.0));
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
        assert!(sol.is_set(x));
    }
}
