//! Equivalence suite for the sparse revised simplex (PR 3).
//!
//! The sparse kernel replaced the dense tableau as the production LP
//! solver; these tests pin its contract:
//!
//! 1. on randomized LPs — mixed senses, negative lower bounds, infinite
//!    upper bounds, redundant (degenerate) rows — the sparse kernel agrees
//!    with the dense reference on **status** and, when optimal, on the
//!    **objective**, and its solution is feasible;
//! 2. crafted degenerate / unbounded / infeasible families agree too;
//! 3. warm-started branch-and-bound (child nodes re-solved from the parent
//!    basis via dual simplex) proves the **same optimum** as cold-started
//!    searches on randomized MILPs, with every reported solution verified
//!    against the model (`exact_equivalence` checks the search's optimum
//!    against brute-force enumeration);
//! 4. the warm path solves the bulk of the nodes (the point of the
//!    exercise), and limit-hit node-budget searches stay deterministic.

use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::milp::branch_bound::{solve_with_stats, MilpConfig};
use explain3d::milp::expr::LinExpr;
use explain3d::milp::model::{Model, Sense, VarKind};
use explain3d::milp::simplex::{solve_lp, solve_lp_dense, LpStatus};

/// A random LP/MILP on a coarse coefficient grid (multiples of 0.25, so
/// comparisons do not sit on knife-edge numerical boundaries).
fn random_model(rng: &mut StdRng, integral: bool) -> Model {
    let mut m = Model::new();
    let n = rng.gen_range(1..10usize);
    let mut vars = Vec::with_capacity(n);
    for i in 0..n {
        let lower = rng.gen_range(-12..=4i64) as f64 * 0.5;
        let upper = if rng.gen_range(0..10u32) < 3 {
            f64::INFINITY
        } else {
            lower + rng.gen_range(0..=16i64) as f64 * 0.5
        };
        let kind = if integral && rng.gen_range(0..10u32) < 7 {
            if upper.is_finite() && upper - lower <= 1.0 {
                VarKind::Binary
            } else {
                VarKind::Integer
            }
        } else {
            VarKind::Continuous
        };
        let (lower, upper) = if kind == VarKind::Binary { (0.0, 1.0) } else { (lower, upper) };
        vars.push(m.add_var(format!("x{i}"), kind, lower, upper));
    }
    for c in 0..rng.gen_range(0..8usize) {
        let mut expr = LinExpr::zero();
        for _ in 0..rng.gen_range(1..=3usize) {
            let coef = rng.gen_range(-16..=16i64) as f64 * 0.25;
            if coef != 0.0 {
                expr.add_term(vars[rng.gen_range(0..n)], coef);
            }
        }
        let sense = match rng.gen_range(0..6u32) {
            0 => Sense::Eq,
            1 | 2 => Sense::Ge,
            _ => Sense::Le,
        };
        // Bias the right-hand side towards satisfiable rows so the suite
        // sees a healthy mix of outcomes (unbiased rows make almost every
        // multi-row instance infeasible).
        let rhs = match sense {
            Sense::Le => rng.gen_range(-8..=60i64) as f64 * 0.25,
            Sense::Ge => rng.gen_range(-60..=8i64) as f64 * 0.25,
            Sense::Eq => rng.gen_range(-12..=12i64) as f64 * 0.25,
        };
        m.add_constraint(format!("c{c}"), expr, sense, rhs);
    }
    let mut obj = LinExpr::zero();
    for &v in &vars {
        obj.add_term(v, rng.gen_range(-12..=12i64) as f64 * 0.25);
    }
    if rng.gen_range(0..2u32) == 0 {
        m.maximize(obj);
    } else {
        m.minimize(obj);
    }
    m
}

/// LP-level feasibility (bounds + constraints, no integrality).
fn lp_feasible(m: &Model, values: &[f64], tol: f64) -> bool {
    m.variables().iter().enumerate().all(|(i, v)| {
        let x = values[i];
        x >= v.lower - tol && x <= v.upper + tol
    }) && m.constraints().iter().all(|c| {
        let lhs = c.expr.evaluate(values);
        match c.sense {
            Sense::Le => lhs <= c.rhs + tol,
            Sense::Ge => lhs >= c.rhs - tol,
            Sense::Eq => (lhs - c.rhs).abs() <= tol,
        }
    })
}

#[test]
fn sparse_and_dense_lp_agree_on_randomized_models() {
    let mut optimal = 0usize;
    let mut infeasible = 0usize;
    let mut unbounded = 0usize;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(3_000 + seed);
        let m = random_model(&mut rng, false);
        let dense = solve_lp_dense(&m, &[]);
        let sparse = solve_lp(&m, &[]);
        assert_eq!(sparse.status, dense.status, "seed {seed}: status diverged on\n{m}");
        match dense.status {
            LpStatus::Optimal => {
                optimal += 1;
                let tol = 1e-6 * (1.0 + dense.objective.abs());
                assert!(
                    (sparse.objective - dense.objective).abs() <= tol,
                    "seed {seed}: sparse {} vs dense {} on\n{m}",
                    sparse.objective,
                    dense.objective
                );
                assert!(lp_feasible(&m, &sparse.values, 1e-6), "seed {seed}: infeasible values");
            }
            LpStatus::Infeasible => infeasible += 1,
            LpStatus::Unbounded => unbounded += 1,
        }
    }
    // The generator must actually exercise every outcome.
    assert!(optimal > 50, "only {optimal} optimal instances");
    assert!(infeasible > 5, "only {infeasible} infeasible instances");
    assert!(unbounded > 5, "only {unbounded} unbounded instances");
}

#[test]
fn sparse_lp_handles_degenerate_and_redundant_rows() {
    // Many redundant constraints through one vertex (degenerate pivots) and
    // duplicated rows (redundant equalities keep an artificial basic at 0).
    let mut m = Model::new();
    let x = m.add_continuous("x", 0.0, f64::INFINITY);
    let y = m.add_continuous("y", 0.0, f64::INFINITY);
    for i in 0..25 {
        m.add_le(format!("cap{i}"), LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0), 2.0);
    }
    m.add_eq("fix", LinExpr::term(x, 1.0) - LinExpr::term(y, 1.0), 0.0);
    m.add_eq("fix_again", LinExpr::term(x, 2.0) - LinExpr::term(y, 2.0), 0.0);
    m.maximize(LinExpr::term(x, 1.0) + LinExpr::term(y, 3.0));
    let dense = solve_lp_dense(&m, &[]);
    let sparse = solve_lp(&m, &[]);
    assert_eq!(sparse.status, LpStatus::Optimal);
    assert!((sparse.objective - dense.objective).abs() < 1e-6);
    assert!((sparse.objective - 4.0).abs() < 1e-6);
}

#[test]
fn sparse_lp_agrees_on_bound_overrides() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(7_000 + seed);
        let m = random_model(&mut rng, false);
        let overrides: Vec<(f64, f64)> = m
            .variables()
            .iter()
            .map(|v| {
                let lo = v.lower + rng.gen_range(0..=2i64) as f64 * 0.5;
                let hi = if v.upper.is_finite() { v.upper } else { lo + 4.0 };
                (lo.min(hi), hi)
            })
            .collect();
        let dense = solve_lp_dense(&m, &overrides);
        let sparse = solve_lp(&m, &overrides);
        assert_eq!(sparse.status, dense.status, "seed {seed}");
        if dense.status == LpStatus::Optimal {
            assert!(
                (sparse.objective - dense.objective).abs() <= 1e-6 * (1.0 + dense.objective.abs()),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn warm_and_cold_branch_and_bound_prove_the_same_optimum() {
    let mut warm_total = 0usize;
    let mut optimal_seen = 0usize;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(11_000 + seed);
        let m = random_model(&mut rng, true);
        let base = MilpConfig { max_nodes: 50_000, ..Default::default() };
        let (warm, warm_stats) = solve_with_stats(&m, &base, None);
        let (cold, _) = solve_with_stats(&m, &base.clone().with_warm_start(false), None);
        assert_eq!(warm.status, cold.status, "seed {seed}: warm vs cold status on\n{m}");
        if warm.status.has_solution() {
            optimal_seen += 1;
            let tol = 1e-6 * (1.0 + cold.objective.abs());
            assert!(
                (warm.objective - cold.objective).abs() <= tol,
                "seed {seed}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            // Every reported solution must satisfy the model it solves.
            assert!(m.violations(&warm.values, 1e-5).is_empty(), "seed {seed}: warm violations");
            assert!(m.violations(&cold.values, 1e-5).is_empty(), "seed {seed}: cold violations");
        }
        warm_total += warm_stats.warm_lp_solves;
    }
    assert!(optimal_seen > 20, "only {optimal_seen} solvable instances");
    // The warm path must actually carry the search, not silently cold-solve
    // every node.
    assert!(warm_total > 50, "only {warm_total} warm LP re-solves across the suite");
}

#[test]
fn node_budget_is_deterministic_and_size_aware() {
    // Two models of very different size: the deadline-derived budget must
    // shrink for the big one, never exceed max_nodes, and stay identical
    // across repeated calls (that is what makes limit-hit searches
    // byte-reproducible).
    let mut small = Model::new();
    let a = small.add_binary("a");
    small.add_le("c", LinExpr::term(a, 1.0), 1.0);
    small.maximize(LinExpr::term(a, 1.0));

    let mut big = Model::new();
    let mut obj = LinExpr::zero();
    let vars: Vec<_> = (0..400).map(|i| big.add_binary(format!("x{i}"))).collect();
    for (i, &v) in vars.iter().enumerate() {
        obj.add_term(v, 1.0 + (i % 7) as f64);
        big.add_le(format!("r{i}"), LinExpr::term(v, 1.0), 1.0);
    }
    big.maximize(obj);

    let cfg = MilpConfig::default();
    let small_budget = cfg.node_budget_for(&small);
    let big_budget = cfg.node_budget_for(&big);
    assert_eq!(small_budget, cfg.node_budget_for(&small));
    assert_eq!(big_budget, cfg.node_budget_for(&big));
    assert!(small_budget <= cfg.max_nodes);
    assert!(big_budget < small_budget, "budget must shrink with model size");
    // Disabling the deadline falls back to the raw cap.
    assert_eq!(cfg.clone().with_deadline(None).node_budget_for(&big), cfg.max_nodes);
    // An explicit tiny max_nodes always wins.
    assert_eq!(cfg.with_max_nodes(3).node_budget_for(&big), 3);
}

#[test]
fn limit_hit_searches_are_reproducible() {
    // A model large enough that a 2-node budget is hit: repeated runs must
    // agree exactly (outputs and stats), the definition of a deterministic
    // deadline.
    let mut rng = StdRng::seed_from_u64(99);
    let m = random_model(&mut rng, true);
    let cfg = MilpConfig { max_nodes: 2, ..Default::default() };
    let (s1, st1) = solve_with_stats(&m, &cfg, None);
    let (s2, st2) = solve_with_stats(&m, &cfg, None);
    assert_eq!(s1, s2);
    assert_eq!(st1, st2);
    assert!(st1.nodes <= 2);
}
