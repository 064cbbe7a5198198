//! Stage 2: MILP encoding of the EXP-3D problem (Section 3.2, Eq. 7–13),
//! and an exact enumerator of the same objective for small components.
//!
//! For a sub-problem (a subset of canonical tuples of both relations plus the
//! tuple matches among them) the encoder introduces:
//!
//! * per tuple `t`: a binary `x_t` (provenance-based explanation), an impact
//!   variable `I*_t`, a binary `y_t` (impact unchanged), and a continuous
//!   `P_t` carrying the linearised tuple log-probability of Eq. 8;
//! * per match `m = (t_i, t_j, p)`: a binary `z_ij` (evidence membership) and
//!   a continuous `w_ij` linearising the product `z_ij · I*_i` of Eq. 11;
//! * validity constraints (Eq. 10), impact-equality constraints (Eq. 12), and
//!   the objective of Eq. 13.
//!
//! Once the evidence (the kept matches) is fixed, the rest of the optimum
//! is forced: a matched source tuple keeps its impact, a matched anchor
//! keeps its impact when its sources sum to it and changes it otherwise,
//! and an unmatched tuple is removed or kept, whichever scores higher.
//! [`exact_solution`] therefore enumerates the valid kept-match sets of a
//! sub-problem with at most [`EXACT_MAX_MATCHES`] matches and scores each
//! one directly, without building a MILP. The pipeline solves those
//! components this way and keeps the MILP (the paper's Algorithm 1, and the
//! test oracle for the enumerator) for larger ones.
//!
//! Both solvers report a group's value change in one place. A matched group
//! needs at most one change, and it may sit on the anchor or on one source
//! at the same objective. It is always reported on the anchor, as
//! `I_A → Σ` of the sources' original impacts ([`decode`] moves it there;
//! [`heuristic_solution`] and [`exact_solution`] put it there directly).

use crate::attr_match::SemanticRelation;
use crate::canonical::CanonicalRelation;
use crate::explanation::{ExplanationSet, Side, IMPACT_TOLERANCE};
use crate::probability::ProbabilityParams;
use explain3d_linkage::{TupleMapping, TupleMatch};
use explain3d_milp::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// The largest number of matches a sub-problem may have for
/// [`exact_solution`] to solve it; larger ones go to the MILP. Enumeration
/// scores up to `2^12 = 4096` kept-match sets. In the benchmark's first 20
/// synthetic cases (n = 1000) this covers 18,139 of the 18,143 connected
/// components, almost all of them 1–4 tuples, at ~1 µs each (19 ms in
/// total, where the MILP takes 1.3 s on them). The other four have 13–17
/// matches and cost the MILP 6 ms together, so a larger limit buys little.
pub const EXACT_MAX_MATCHES: usize = 12;

/// A sub-problem handed to the MILP encoder: canonical tuple indexes of both
/// sides plus the matches among them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubProblem {
    /// Canonical tuple ids of `T1` participating in the sub-problem.
    pub left_tuples: Vec<usize>,
    /// Canonical tuple ids of `T2` participating in the sub-problem.
    pub right_tuples: Vec<usize>,
    /// Tuple matches restricted to the above tuples.
    pub matches: Vec<TupleMatch>,
}

impl SubProblem {
    /// A sub-problem covering both relations entirely.
    pub fn full(
        left: &CanonicalRelation,
        right: &CanonicalRelation,
        mapping: &TupleMapping,
    ) -> Self {
        SubProblem {
            left_tuples: (0..left.len()).collect(),
            right_tuples: (0..right.len()).collect(),
            matches: mapping.matches().to_vec(),
        }
    }

    /// Number of tuples in the sub-problem.
    pub fn size(&self) -> usize {
        self.left_tuples.len() + self.right_tuples.len()
    }

    /// True when the sub-problem has no tuples.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }
}

/// Variable handles for one tuple. The `y`/`p` handles are kept for
/// debugging and model inspection even though decoding only needs `x` and
/// `istar`.
#[derive(Debug, Clone, Copy)]
#[allow(dead_code)]
struct TupleVars {
    x: VarId,
    istar: VarId,
    y: VarId,
    p: VarId,
}

/// An encoded sub-problem: the MILP model plus the bookkeeping needed to
/// decode a solution back into explanations.
#[derive(Debug, Clone)]
pub struct EncodedProblem {
    /// The MILP model (maximisation of Eq. 13).
    pub model: Model,
    left_vars: HashMap<usize, TupleVars>,
    right_vars: HashMap<usize, TupleVars>,
    match_vars: Vec<(TupleMatch, VarId)>,
    left_impacts: HashMap<usize, f64>,
    right_impacts: HashMap<usize, f64>,
    /// The side whose tuples anchor the impact-equality constraints.
    anchor_side: Side,
}

impl EncodedProblem {
    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.model.num_vars()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.model.num_constraints()
    }
}

/// Encodes a sub-problem into a MILP (Algorithm 1, lines 1–10).
pub fn encode(
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    relation: SemanticRelation,
    params: &ProbabilityParams,
    sub: &SubProblem,
) -> EncodedProblem {
    let mut model = Model::new();
    let mut objective = LinExpr::zero();

    let a = params.log_removed();
    let b = params.log_kept_correct();
    let c = params.log_kept_changed();
    let p_lower = b.min(c); // lower bound L for the linearised P_t

    // Impact bound U: the largest total impact either side of the sub-problem
    // can accumulate (plus head-room), used as the big-M constant.
    let left_total: f64 = sub.left_tuples.iter().map(|&i| left.tuples[i].impact).sum();
    let right_total: f64 = sub.right_tuples.iter().map(|&j| right.tuples[j].impact).sum();
    let impact_bound = (left_total.max(right_total).max(1.0)).ceil() + 1.0;

    // Impacts are encoded as integer variables when every impact in the
    // sub-problem is integral (COUNT / SUM over integers), continuous
    // otherwise (e.g. SUM over floats).
    let integral_impacts = sub
        .left_tuples
        .iter()
        .map(|&i| left.tuples[i].impact)
        .chain(sub.right_tuples.iter().map(|&j| right.tuples[j].impact))
        .all(|imp| (imp - imp.round()).abs() < 1e-9);

    let mut left_vars: HashMap<usize, TupleVars> = HashMap::new();
    let mut right_vars: HashMap<usize, TupleVars> = HashMap::new();
    let mut left_impacts: HashMap<usize, f64> = HashMap::new();
    let mut right_impacts: HashMap<usize, f64> = HashMap::new();

    // --- Per-tuple variables, constraints and objective terms (Eq. 7-8). ---
    let encode_tuple = |model: &mut Model,
                        objective: &mut LinExpr,
                        side: Side,
                        idx: usize,
                        impact: f64|
     -> TupleVars {
        let tag = match side {
            Side::Left => format!("l{idx}"),
            Side::Right => format!("r{idx}"),
        };
        let x = model.add_binary(format!("x_{tag}"));
        let istar = if integral_impacts {
            model.add_integer(format!("istar_{tag}"), 0.0, impact_bound)
        } else {
            model.add_continuous(format!("istar_{tag}"), 0.0, impact_bound)
        };
        let y = model.add_binary(format!("y_{tag}"));
        let p = model.add_continuous(format!("p_{tag}"), p_lower, 0.0);

        // Equation 7: y_t = 1 ⟺ I*_t = I_t, via big-M in both directions.
        // I* - I <= M(1 - y)  and  I - I* <= M(1 - y).
        let m_big = impact_bound;
        model.add_le(
            format!("y_link_up_{tag}"),
            LinExpr::term(istar, 1.0) + LinExpr::term(y, m_big),
            impact + m_big,
        );
        model.add_ge(
            format!("y_link_down_{tag}"),
            LinExpr::term(istar, 1.0) - LinExpr::term(y, m_big),
            impact - m_big,
        );

        // Equation 8: P_t = (1 - x_t)((1 - y_t) b + y_t c') where the paper's
        // b/c constants correspond to kept-correct / kept-changed here.
        // Written with B = log_kept_correct (y=1) and C = log_kept_changed (y=0):
        // value(y) = C + (B - C) y.
        // P >= L (1 - x)
        model.add_ge(
            format!("p_floor_{tag}"),
            LinExpr::term(p, 1.0) + LinExpr::term(x, p_lower),
            p_lower,
        );
        // P >= value(y) - U x  (U = 0)
        model.add_ge(format!("p_lo_{tag}"), LinExpr::term(p, 1.0) - LinExpr::term(y, b - c), c);
        // P <= value(y) - L x
        model.add_le(
            format!("p_hi_{tag}"),
            LinExpr::term(p, 1.0) - LinExpr::term(y, b - c) + LinExpr::term(x, p_lower),
            c,
        );

        // Objective contribution: a·x_t + P_t.
        objective.add_term(x, a);
        objective.add_term(p, 1.0);

        TupleVars { x, istar, y, p }
    };

    for &i in &sub.left_tuples {
        let impact = left.tuples[i].impact;
        let vars = encode_tuple(&mut model, &mut objective, Side::Left, i, impact);
        left_vars.insert(i, vars);
        left_impacts.insert(i, impact);
    }
    for &j in &sub.right_tuples {
        let impact = right.tuples[j].impact;
        let vars = encode_tuple(&mut model, &mut objective, Side::Right, j, impact);
        right_vars.insert(j, vars);
        right_impacts.insert(j, impact);
    }

    // --- Per-match variables and constraints (Eq. 9). ---
    let mut match_vars: Vec<(TupleMatch, VarId)> = Vec::new();
    let mut left_degree: HashMap<usize, LinExpr> = HashMap::new();
    let mut right_degree: HashMap<usize, LinExpr> = HashMap::new();
    // w_ij products grouped by the component anchor side.
    let mut anchored_sums: HashMap<(Side, usize), LinExpr> = HashMap::new();

    // The side whose tuples have degree ≤ 1 in a valid mapping; components
    // are anchored at tuples of the *other* side (Eq. 11-12).
    let anchor_side = if relation.left_degree_limited() { Side::Right } else { Side::Left };

    for m in &sub.matches {
        let (Some(lv), Some(rv)) = (left_vars.get(&m.left), right_vars.get(&m.right)) else {
            continue; // match references a tuple outside the sub-problem
        };
        let tag = format!("l{}_r{}", m.left, m.right);
        let z = model.add_binary(format!("z_{tag}"));

        // z ≤ 1 - x_i and z ≤ 1 - x_j.
        model.add_le(
            format!("z_left_{tag}"),
            LinExpr::term(z, 1.0) + LinExpr::term(lv.x, 1.0),
            1.0,
        );
        model.add_le(
            format!("z_right_{tag}"),
            LinExpr::term(z, 1.0) + LinExpr::term(rv.x, 1.0),
            1.0,
        );

        // Objective: z·log p + (1 - z)·log(1 - p).
        let lp = params.log_match_kept(m.prob);
        let lnp = params.log_match_dropped(m.prob);
        objective.add_term(z, lp - lnp);
        objective.add_constant(lnp);

        // Degree expressions for the validity constraints.
        left_degree.entry(m.left).or_insert_with(LinExpr::zero).add_term(z, 1.0);
        right_degree.entry(m.right).or_insert_with(LinExpr::zero).add_term(z, 1.0);

        // w_ij = z_ij · I*_source, where "source" is the degree-limited side.
        let (source_vars, anchor_idx) = match anchor_side {
            Side::Right => (lv, m.right),
            Side::Left => (rv, m.left),
        };
        let w = model.add_continuous(format!("w_{tag}"), 0.0, impact_bound);
        // w ≤ U z ; w ≤ I* ; w ≥ I* − U(1 − z) ; w ≥ 0.
        model.add_le(
            format!("w_cap_{tag}"),
            LinExpr::term(w, 1.0) - LinExpr::term(z, impact_bound),
            0.0,
        );
        model.add_le(
            format!("w_le_istar_{tag}"),
            LinExpr::term(w, 1.0) - LinExpr::term(source_vars.istar, 1.0),
            0.0,
        );
        model.add_ge(
            format!("w_ge_istar_{tag}"),
            LinExpr::term(w, 1.0)
                - LinExpr::term(source_vars.istar, 1.0)
                - LinExpr::term(z, impact_bound),
            -impact_bound,
        );
        anchored_sums
            .entry((anchor_side, anchor_idx))
            .or_insert_with(LinExpr::zero)
            .add_term(w, 1.0);

        match_vars.push((*m, z));
    }

    // --- Validity constraints (Eq. 10). ---
    // Rows follow the sub-problem's tuple order, never the degree maps'
    // per-process hash order: the simplex picks among tied optima by row
    // order, so a hash-ordered model would break ties differently per run.
    if relation.left_degree_limited() {
        for i in &sub.left_tuples {
            if let Some(expr) = left_degree.get(i) {
                model.add_le(format!("valid_left_{i}"), expr.clone(), 1.0);
            }
        }
    }
    if relation.right_degree_limited() {
        for j in &sub.right_tuples {
            if let Some(expr) = right_degree.get(j) {
                model.add_le(format!("valid_right_{j}"), expr.clone(), 1.0);
            }
        }
    }

    // --- Impact equality (Eq. 12) anchored at the unlimited side. ---
    match anchor_side {
        Side::Right => {
            for &j in &sub.right_tuples {
                let sum =
                    anchored_sums.get(&(Side::Right, j)).cloned().unwrap_or_else(LinExpr::zero);
                let rv = &right_vars[&j];
                model.add_eq(format!("impact_eq_r{j}"), sum - LinExpr::term(rv.istar, 1.0), 0.0);
            }
            // Completeness closure: a kept-but-unmatched left tuple must have
            // zero refined impact (it forms a singleton component).
            for &i in &sub.left_tuples {
                let lv = &left_vars[&i];
                let degree = left_degree.get(&i).cloned().unwrap_or_else(LinExpr::zero);
                model.add_le(
                    format!("closure_l{i}"),
                    LinExpr::term(lv.istar, 1.0)
                        - degree.scaled(impact_bound)
                        - LinExpr::term(lv.x, impact_bound),
                    0.0,
                );
            }
        }
        Side::Left => {
            for &i in &sub.left_tuples {
                let sum =
                    anchored_sums.get(&(Side::Left, i)).cloned().unwrap_or_else(LinExpr::zero);
                let lv = &left_vars[&i];
                model.add_eq(format!("impact_eq_l{i}"), sum - LinExpr::term(lv.istar, 1.0), 0.0);
            }
            for &j in &sub.right_tuples {
                let rv = &right_vars[&j];
                let degree = right_degree.get(&j).cloned().unwrap_or_else(LinExpr::zero);
                model.add_le(
                    format!("closure_r{j}"),
                    LinExpr::term(rv.istar, 1.0)
                        - degree.scaled(impact_bound)
                        - LinExpr::term(rv.x, impact_bound),
                    0.0,
                );
            }
        }
    }

    model.maximize(objective);

    EncodedProblem {
        model,
        left_vars,
        right_vars,
        match_vars,
        left_impacts,
        right_impacts,
        anchor_side,
    }
}

/// Decodes a MILP solution back into explanations (Algorithm 1, line 12).
///
/// A kept tuple whose refined impact differs from its original by more than
/// [`IMPACT_TOLERANCE`] is a value change. A matched group whose only change
/// is on one of its tuples reports it on the anchor, as `I_A → Σ` of the
/// sources' original impacts (see the module docs).
pub fn decode(encoded: &EncodedProblem, solution: &Solution) -> ExplanationSet {
    let mut out = ExplanationSet::new();
    if !solution.status.has_solution() {
        return out;
    }

    // (side, tuple) → (original, refined) for every changed kept tuple.
    let mut changes: BTreeMap<(Side, usize), (f64, f64)> = BTreeMap::new();
    for (side, vars, impacts) in [
        (Side::Left, &encoded.left_vars, &encoded.left_impacts),
        (Side::Right, &encoded.right_vars, &encoded.right_impacts),
    ] {
        let mut indexes: Vec<&usize> = vars.keys().collect();
        indexes.sort();
        for &idx in indexes {
            let v = &vars[&idx];
            let original = impacts[&idx];
            if solution.is_set(v.x) {
                out.add_provenance(side, idx);
                continue;
            }
            let refined = solution.value(v.istar);
            if (refined - original).abs() > IMPACT_TOLERANCE {
                changes.insert((side, idx), (original, refined));
            }
        }
    }

    // Kept matches grouped by anchor, sources in match order.
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (m, z) in &encoded.match_vars {
        if solution.is_set(*z) {
            out.evidence.push(*m);
            let (anchor, source) = match encoded.anchor_side {
                Side::Right => (m.right, m.left),
                Side::Left => (m.left, m.right),
            };
            groups.entry(anchor).or_default().push(source);
        }
    }
    let (anchor_side, source_side, anchor_impacts, source_impacts) = match encoded.anchor_side {
        Side::Right => (Side::Right, Side::Left, &encoded.right_impacts, &encoded.left_impacts),
        Side::Left => (Side::Left, Side::Right, &encoded.left_impacts, &encoded.right_impacts),
    };
    for (anchor, sources) in groups {
        let mut changed = std::iter::once((anchor_side, anchor))
            .chain(sources.iter().map(|&s| (source_side, s)))
            .filter(|key| changes.contains_key(key));
        if let (Some(only), None) = (changed.next(), changed.next()) {
            changes.remove(&only);
            let total = sources.iter().fold(0.0, |acc, s| acc + source_impacts[s]);
            changes.insert((anchor_side, anchor), (anchor_impacts[&anchor], total));
        }
    }
    for ((side, idx), (original, refined)) in changes {
        out.add_value(side, idx, original, refined);
    }
    out.normalise();
    out
}

/// Builds a quickly-constructed *complete* solution of the sub-problem and
/// its objective value (Eq. 13). Used both as the incumbent of the
/// branch-and-bound search and as a fallback when the exact search hits its
/// node budget without producing a solution.
///
/// The heuristic greedily keeps matches by descending probability subject to
/// the validity constraints, removes every unmatched tuple, and repairs any
/// residual impact imbalance with a value change on the anchor-side tuple.
/// The result is complete by construction, so its score is a valid lower
/// bound on the optimal objective.
pub fn heuristic_solution(
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    relation: SemanticRelation,
    params: &ProbabilityParams,
    sub: &SubProblem,
) -> (ExplanationSet, f64) {
    use std::collections::HashSet;
    let in_left: HashSet<usize> = sub.left_tuples.iter().copied().collect();
    let in_right: HashSet<usize> = sub.right_tuples.iter().copied().collect();

    // Greedy valid evidence by descending probability.
    let mut sorted = sub.matches.clone();
    sorted.sort_by(TupleMatch::cmp_by_prob_desc);
    let mut left_deg: HashMap<usize, usize> = HashMap::new();
    let mut right_deg: HashMap<usize, usize> = HashMap::new();
    let mut kept: Vec<TupleMatch> = Vec::new();
    for m in &sorted {
        if !in_left.contains(&m.left) || !in_right.contains(&m.right) {
            continue;
        }
        // Keeping an unlikely match costs more (log p vs log(1-p)) than it
        // can possibly save in tuple terms, so the heuristic only keeps
        // confident matches.
        if m.prob < 0.5 {
            continue;
        }
        if relation.left_degree_limited() && left_deg.get(&m.left).copied().unwrap_or(0) >= 1 {
            continue;
        }
        if relation.right_degree_limited() && right_deg.get(&m.right).copied().unwrap_or(0) >= 1 {
            continue;
        }
        *left_deg.entry(m.left).or_insert(0) += 1;
        *right_deg.entry(m.right).or_insert(0) += 1;
        kept.push(*m);
    }
    let kept_pairs: HashSet<(usize, usize)> = kept.iter().map(|m| (m.left, m.right)).collect();

    // Impact balance per anchored group.
    let anchor_right = relation.left_degree_limited();
    let mut group_sum: HashMap<usize, f64> = HashMap::new();
    for m in &kept {
        if anchor_right {
            *group_sum.entry(m.right).or_insert(0.0) += left.tuples[m.left].impact;
        } else {
            *group_sum.entry(m.left).or_insert(0.0) += right.tuples[m.right].impact;
        }
    }

    let mut explanations = ExplanationSet::new();
    for m in &kept {
        explanations.evidence.push(*m);
    }
    let mut score = 0.0;
    // Tuple terms (and the corresponding explanations).
    for &i in &sub.left_tuples {
        if left_deg.contains_key(&i) {
            let balanced = if anchor_right {
                true // the anchor-side tuple absorbs any imbalance
            } else {
                (group_sum.get(&i).copied().unwrap_or(0.0) - left.tuples[i].impact).abs()
                    <= IMPACT_TOLERANCE
            };
            if !balanced {
                explanations.add_value(
                    Side::Left,
                    i,
                    left.tuples[i].impact,
                    group_sum.get(&i).copied().unwrap_or(0.0),
                );
            }
            score += if balanced { params.log_kept_correct() } else { params.log_kept_changed() };
        } else {
            explanations.add_provenance(Side::Left, i);
            score += params.log_removed();
        }
    }
    for &j in &sub.right_tuples {
        if right_deg.contains_key(&j) {
            let balanced = if anchor_right {
                (group_sum.get(&j).copied().unwrap_or(0.0) - right.tuples[j].impact).abs()
                    <= IMPACT_TOLERANCE
            } else {
                true
            };
            if !balanced {
                explanations.add_value(
                    Side::Right,
                    j,
                    right.tuples[j].impact,
                    group_sum.get(&j).copied().unwrap_or(0.0),
                );
            }
            score += if balanced { params.log_kept_correct() } else { params.log_kept_changed() };
        } else {
            explanations.add_provenance(Side::Right, j);
            score += params.log_removed();
        }
    }
    // Match terms.
    for m in &sub.matches {
        if !in_left.contains(&m.left) || !in_right.contains(&m.right) {
            continue;
        }
        score += if kept_pairs.contains(&(m.left, m.right)) {
            params.log_match_kept(m.prob)
        } else {
            params.log_match_dropped(m.prob)
        };
    }
    explanations.normalise();
    (explanations, score)
}

/// The objective value of the heuristic warm-start solution (see
/// [`heuristic_solution`]).
pub fn heuristic_objective(
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    relation: SemanticRelation,
    params: &ProbabilityParams,
    sub: &SubProblem,
) -> f64 {
    heuristic_solution(left, right, relation, params, sub).1
}

/// Solves a sub-problem exactly by enumeration, returning its optimal
/// explanations and their objective (Eq. 13, the value the MILP of
/// [`encode`] maximises). Returns `None` when the sub-problem has more than
/// [`EXACT_MAX_MATCHES`] matches whose tuples are both in it.
///
/// Every kept-match set that respects the degree limits is scored, in
/// bitmask order; a later set replaces the best one only when it scores
/// more than `1e-12` higher. With `a`/`b`/`c` the removed / kept-correct /
/// kept-changed tuple terms:
///
/// * each match adds `log p` when kept and `log(1 - p)` when not;
/// * a tuple with no kept match adds `max(a, b)` when its impact is zero
///   (within [`IMPACT_TOLERANCE`]) and `max(a, c)` otherwise — it is removed,
///   or kept with its impact set to 0;
/// * a matched source (degree-limited side) adds `b`;
/// * a matched anchor adds `b` when its sources' impacts sum to its own and
///   `c` otherwise, reported as the change `I_A → Σ sources`.
pub fn exact_solution(
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    relation: SemanticRelation,
    params: &ProbabilityParams,
    sub: &SubProblem,
) -> Option<(ExplanationSet, f64)> {
    const K: usize = EXACT_MAX_MATCHES;
    let a = params.log_removed();
    let b = params.log_kept_correct();
    let c = params.log_kept_changed();
    let lone = |impact: f64| if impact.abs() <= IMPACT_TOLERANCE { b } else { c };

    // The matches inside the sub-problem, with their endpoints as indexes
    // into `touched_left` / `touched_right` (the tuples with any match).
    let mut matches: Vec<TupleMatch> = Vec::new();
    let mut ends: Vec<(usize, usize)> = Vec::new();
    let mut touched_left: Vec<usize> = Vec::new();
    let mut touched_right: Vec<usize> = Vec::new();
    let local = |touched: &mut Vec<usize>, t: usize| match touched.iter().position(|&u| u == t) {
        Some(i) => i,
        None => {
            touched.push(t);
            touched.len() - 1
        }
    };
    for m in &sub.matches {
        if !sub.left_tuples.contains(&m.left) || !sub.right_tuples.contains(&m.right) {
            continue;
        }
        if matches.len() == K {
            return None;
        }
        matches.push(*m);
        ends.push((local(&mut touched_left, m.left), local(&mut touched_right, m.right)));
    }

    // Untouched tuples score the same under every kept-match set.
    let mut base = 0.0;
    for (tuples, touched, rel) in
        [(&sub.left_tuples, &touched_left, left), (&sub.right_tuples, &touched_right, right)]
    {
        for t in tuples.iter().filter(|t| !touched.contains(t)) {
            base += a.max(lone(rel.tuples[*t].impact));
        }
    }
    for m in &matches {
        base += params.log_match_dropped(m.prob);
    }
    let gain: Vec<f64> = matches
        .iter()
        .map(|m| params.log_match_kept(m.prob) - params.log_match_dropped(m.prob))
        .collect();

    let anchor_right = relation.left_degree_limited();
    let left_impact: Vec<f64> = touched_left.iter().map(|&i| left.tuples[i].impact).collect();
    let right_impact: Vec<f64> = touched_right.iter().map(|&j| right.tuples[j].impact).collect();
    // Per kept-match set: the degree and the sum of source impacts of each
    // touched tuple (the sum is only read for anchors).
    let tally = |mask: usize| {
        let mut deg = ([0u8; K], [0u8; K]);
        let mut sum = ([0.0f64; K], [0.0f64; K]);
        for (bit, &(l, r)) in ends.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                deg.0[l] += 1;
                deg.1[r] += 1;
                if anchor_right {
                    sum.1[r] += left_impact[l];
                } else {
                    sum.0[l] += right_impact[r];
                }
            }
        }
        (deg, sum)
    };
    let score_side = |deg: &[u8], sum: &[f64], impacts: &[f64], anchors: bool| -> f64 {
        let mut score = 0.0;
        for (t, &impact) in impacts.iter().enumerate() {
            score += if deg[t] == 0 {
                a.max(lone(impact))
            } else if anchors && (sum[t] - impact).abs() > IMPACT_TOLERANCE {
                c
            } else {
                b
            };
        }
        score
    };

    let mut best: Option<(usize, f64)> = None;
    for mask in 0..1usize << matches.len() {
        let (deg, sum) = tally(mask);
        if (relation.left_degree_limited() && deg.0.iter().any(|&d| d > 1))
            || (relation.right_degree_limited() && deg.1.iter().any(|&d| d > 1))
        {
            continue;
        }
        let mut score = base;
        for (bit, g) in gain.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                score += g;
            }
        }
        score += score_side(&deg.0, &sum.0, &left_impact, !anchor_right);
        score += score_side(&deg.1, &sum.1, &right_impact, anchor_right);
        if best.is_none_or(|(_, incumbent)| score > incumbent + 1e-12) {
            best = Some((mask, score));
        }
    }
    // The empty set is always valid, so there is a best one.
    let (mask, objective) = best?;

    let (deg, sum) = tally(mask);
    let mut out = ExplanationSet::new();
    for (bit, m) in matches.iter().enumerate() {
        if mask >> bit & 1 == 1 {
            out.evidence.push(*m);
        }
    }
    for (side, tuples, touched, deg, sum, rel, anchors) in [
        (Side::Left, &sub.left_tuples, &touched_left, &deg.0, &sum.0, left, !anchor_right),
        (Side::Right, &sub.right_tuples, &touched_right, &deg.1, &sum.1, right, anchor_right),
    ] {
        for &t in tuples {
            let impact = rel.tuples[t].impact;
            match touched.iter().position(|&u| u == t).filter(|&i| deg[i] > 0) {
                Some(i) if anchors && (sum[i] - impact).abs() > IMPACT_TOLERANCE => {
                    out.add_value(side, t, impact, sum[i])
                }
                Some(_) => {}
                None if a >= lone(impact) => out.add_provenance(side, t),
                None if impact.abs() > IMPACT_TOLERANCE => out.add_value(side, t, impact, 0.0),
                None => {}
            }
        }
    }
    out.normalise();
    Some((out, objective))
}

/// Encodes and solves a sub-problem, returning the decoded explanations and
/// the solver's objective value (Eq. 13, including constant terms).
pub fn solve_subproblem(
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    relation: SemanticRelation,
    params: &ProbabilityParams,
    sub: &SubProblem,
    milp_config: &MilpConfig,
) -> (ExplanationSet, Solution) {
    let encoded = encode(left, right, relation, params, sub);
    let solution = explain3d_milp::branch_bound::solve(&encoded.model, milp_config);
    let explanations = decode(&encoded, &solution);
    (explanations, solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::CanonicalTuple;
    use explain3d_relation::prelude::{Row, Schema, Value, ValueType};

    fn canon(name: &str, entries: &[(&str, f64)]) -> CanonicalRelation {
        CanonicalRelation {
            query_name: name.to_string(),
            schema: Schema::from_pairs(&[("k", ValueType::Str)]),
            key_attrs: vec!["k".to_string()],
            tuples: entries
                .iter()
                .enumerate()
                .map(|(i, (k, imp))| CanonicalTuple {
                    id: i,
                    key: vec![Value::str(*k)],
                    impact: *imp,
                    members: vec![i],
                    representative: Row::new(vec![Value::str(*k)]),
                })
                .collect(),
            aggregate: None,
        }
    }

    fn mapping(ms: &[(usize, usize, f64)]) -> TupleMapping {
        ms.iter().map(|&(l, r, p)| TupleMatch::new(l, r, p)).collect()
    }

    fn solve_full(
        left: &CanonicalRelation,
        right: &CanonicalRelation,
        relation: SemanticRelation,
        m: &TupleMapping,
    ) -> ExplanationSet {
        let sub = SubProblem::full(left, right, m);
        let params = ProbabilityParams::default();
        let (explanations, solution) =
            solve_subproblem(left, right, relation, &params, &sub, &MilpConfig::default());
        assert!(solution.status.has_solution(), "solver returned {:?}", solution.status);
        explanations
    }

    #[test]
    fn identical_relations_need_no_explanations() {
        let t1 = canon("Q1", &[("A", 1.0), ("B", 2.0)]);
        let t2 = canon("Q2", &[("A", 1.0), ("B", 2.0)]);
        let m = mapping(&[(0, 0, 0.9), (1, 1, 0.9)]);
        let e = solve_full(&t1, &t2, SemanticRelation::Equivalent, &m);
        assert!(e.is_empty(), "unexpected explanations: {e:?}");
        assert_eq!(e.evidence.len(), 2);
        assert!(e.is_complete(&t1, &t2, SemanticRelation::Equivalent));
    }

    #[test]
    fn running_example_cs_counted_twice_and_design_missing() {
        // T1 (from Q1): Accounting 1, CS 2, Design 1.
        // T2 (from Q2): Accounting 1, CSE 1.
        let t1 = canon("Q1", &[("Accounting", 1.0), ("CS", 2.0), ("Design", 1.0)]);
        let t2 = canon("Q2", &[("Accounting", 1.0), ("CSE", 1.0)]);
        let m = mapping(&[(0, 0, 0.95), (1, 1, 0.7), (2, 1, 0.1)]);
        let e = solve_full(&t1, &t2, SemanticRelation::Equivalent, &m);

        // Evidence keeps Accounting↔Accounting and CS↔CSE.
        assert!(e.evidence.contains_pair(0, 0));
        assert!(e.evidence.contains_pair(1, 1));
        assert!(!e.evidence.contains_pair(2, 1));
        // Design is a provenance-based explanation.
        assert_eq!(e.provenance_tuples(Side::Left), std::collections::BTreeSet::from([2]));
        // The CS/CSE impact mismatch is a value-based explanation.
        assert_eq!(e.value.len(), 1);
        assert!(e.is_complete(&t1, &t2, SemanticRelation::Equivalent));
    }

    #[test]
    fn prefers_unambiguous_one_to_one_matching_over_greedy_best_pair() {
        // The example from Section 5.2: pairs {A, B} vs {A', B'} with
        // p(A,A')=0.8, p(B,B')=0.8, p(A,B')=0.9, p(B,A')=0.5.
        // Record linkage would pick (A,B'); Explain3D keeps (A,A'),(B,B')
        // because leaving tuples unmatched is expensive.
        let t1 = canon("Q1", &[("A", 1.0), ("B", 1.0)]);
        let t2 = canon("Q2", &[("A'", 1.0), ("B'", 1.0)]);
        let m = mapping(&[(0, 0, 0.8), (1, 1, 0.8), (0, 1, 0.9), (1, 0, 0.5)]);
        let e = solve_full(&t1, &t2, SemanticRelation::Equivalent, &m);
        assert!(e.evidence.contains_pair(0, 0));
        assert!(e.evidence.contains_pair(1, 1));
        assert!(e.is_empty());
    }

    #[test]
    fn containment_match_allows_many_to_one() {
        // program ⊑ college: ECE and EE both map to Engineering (impact 2).
        let t1 = canon("Q1", &[("ECE", 1.0), ("EE", 1.0), ("CS", 2.0)]);
        let t2 = canon("Q3", &[("Engineering", 2.0), ("Computer Science", 1.0)]);
        let m = mapping(&[(0, 0, 0.8), (1, 0, 0.8), (2, 1, 0.8)]);
        let e = solve_full(&t1, &t2, SemanticRelation::LessGeneral, &m);
        // Both engineering programs map to the same college; that is valid
        // under ⊑ and balances impacts 1+1=2.
        assert!(e.evidence.contains_pair(0, 0));
        assert!(e.evidence.contains_pair(1, 0));
        assert!(e.evidence.contains_pair(2, 1));
        // CS counted twice vs 1 bachelor listed: one value-based explanation.
        assert_eq!(e.value.len(), 1);
        assert_eq!(e.provenance.len(), 0);
        assert!(e.is_complete(&t1, &t2, SemanticRelation::LessGeneral));
    }

    #[test]
    fn equivalence_forbids_many_to_one() {
        let t1 = canon("Q1", &[("ECE", 1.0), ("EE", 1.0)]);
        let t2 = canon("Q2", &[("Engineering", 2.0)]);
        let m = mapping(&[(0, 0, 0.8), (1, 0, 0.8)]);
        let e = solve_full(&t1, &t2, SemanticRelation::Equivalent, &m);
        // Only one of the two left tuples may match under ≡.
        let matched: usize = [e.evidence.contains_pair(0, 0), e.evidence.contains_pair(1, 0)]
            .iter()
            .filter(|&&b| b)
            .count();
        assert!(matched <= 1);
        assert!(e.is_complete(&t1, &t2, SemanticRelation::Equivalent));
    }

    #[test]
    fn missing_tuple_on_the_right_is_reported() {
        let t1 = canon("Q1", &[("A", 1.0)]);
        let t2 = canon("Q2", &[("A", 1.0), ("Extra", 3.0)]);
        let m = mapping(&[(0, 0, 0.9)]);
        let e = solve_full(&t1, &t2, SemanticRelation::Equivalent, &m);
        // "Extra" has no candidate match at all: it must be explained.
        assert!(
            e.provenance_tuples(Side::Right).contains(&1)
                || e.value_changes(Side::Right).get(&1).map(|v| v.abs() < 1e-6).unwrap_or(false),
            "Extra must be removed or zeroed: {e:?}"
        );
        assert!(e.is_complete(&t1, &t2, SemanticRelation::Equivalent));
    }

    #[test]
    fn empty_subproblem_produces_empty_model() {
        let t1 = canon("Q1", &[]);
        let t2 = canon("Q2", &[]);
        let m = TupleMapping::new();
        let sub = SubProblem::full(&t1, &t2, &m);
        assert!(sub.is_empty());
        let params = ProbabilityParams::default();
        let enc = encode(&t1, &t2, SemanticRelation::Equivalent, &params, &sub);
        assert_eq!(enc.num_vars(), 0);
        let sol = explain3d_milp::branch_bound::solve_default(&enc.model);
        let e = decode(&enc, &sol);
        assert!(e.is_empty());
    }

    #[test]
    fn matches_outside_subproblem_are_ignored() {
        let t1 = canon("Q1", &[("A", 1.0), ("B", 1.0)]);
        let t2 = canon("Q2", &[("A", 1.0), ("B", 1.0)]);
        let m = mapping(&[(0, 0, 0.9), (1, 1, 0.9)]);
        let sub = SubProblem {
            left_tuples: vec![0],
            right_tuples: vec![0],
            matches: m.matches().to_vec(), // includes (1,1) which is outside
        };
        let params = ProbabilityParams::default();
        let enc = encode(&t1, &t2, SemanticRelation::Equivalent, &params, &sub);
        // Only tuple 0 of each side and match (0,0) are encoded: 4+4+2 vars.
        assert_eq!(enc.num_vars(), 10);
        let sol = explain3d_milp::branch_bound::solve_default(&enc.model);
        let e = decode(&enc, &sol);
        assert!(e.evidence.contains_pair(0, 0));
        assert!(!e.evidence.contains_pair(1, 1));
    }

    #[test]
    fn fractional_impacts_use_continuous_variables() {
        let t1 = canon("Q1", &[("A", 1.5)]);
        let t2 = canon("Q2", &[("A", 2.5)]);
        let m = mapping(&[(0, 0, 0.9)]);
        let e = solve_full(&t1, &t2, SemanticRelation::Equivalent, &m);
        // A value-based explanation reconciles 1.5 vs 2.5.
        assert_eq!(e.value.len(), 1);
        assert!(e.is_complete(&t1, &t2, SemanticRelation::Equivalent));
    }

    #[test]
    fn objective_matches_probability_model_on_decoded_solution() {
        let t1 = canon("Q1", &[("Accounting", 1.0), ("CS", 2.0), ("Design", 1.0)]);
        let t2 = canon("Q2", &[("Accounting", 1.0), ("CSE", 1.0)]);
        let m = mapping(&[(0, 0, 0.95), (1, 1, 0.7), (2, 1, 0.1)]);
        let params = ProbabilityParams::default();
        let sub = SubProblem::full(&t1, &t2, &m);
        let (e, sol) = solve_subproblem(
            &t1,
            &t2,
            SemanticRelation::Equivalent,
            &params,
            &sub,
            &MilpConfig::default(),
        );
        let scored = crate::probability::log_probability(&e, &t1, &t2, &m, &params);
        assert!(
            (scored - sol.objective).abs() < 1e-6,
            "decoded score {scored} vs MILP objective {}",
            sol.objective
        );
    }

    #[test]
    fn constraint_order_is_fixed_by_the_subproblem() {
        // Every left tuple matches every right tuple at the same probability
        // with the same impact, so the MILP has many tied optima and the
        // solver's pick among them depends on row order alone.
        let keys: Vec<String> = (0..12).map(|i| format!("k{i}")).collect();
        let entries: Vec<(&str, f64)> = keys.iter().map(|k| (k.as_str(), 1.0)).collect();
        let t1 = canon("Q1", &entries);
        let t2 = canon("Q2", &entries);
        let all: Vec<(usize, usize, f64)> =
            (0..12).flat_map(|l| (0..12).map(move |r| (l, r, 0.6))).collect();
        let mut sub = SubProblem::full(&t1, &t2, &mapping(&all));
        sub.left_tuples.reverse();
        let params = ProbabilityParams::default();
        let names = || -> Vec<String> {
            let enc = encode(&t1, &t2, SemanticRelation::Equivalent, &params, &sub);
            enc.model.constraints().iter().map(|c| c.name.clone()).collect()
        };
        let first = names();
        assert_eq!(first, names(), "two encodings of one sub-problem differ in row order");
        let valid_left: Vec<String> =
            first.iter().filter(|n| n.starts_with("valid_left_")).cloned().collect();
        let expected: Vec<String> =
            sub.left_tuples.iter().map(|i| format!("valid_left_{i}")).collect();
        assert_eq!(valid_left, expected);
    }
}
