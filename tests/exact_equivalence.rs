//! Equivalence of Stage 2's exact enumerator (`exact_solution`) with the
//! MILP it replaces on components of at most `EXACT_MAX_MATCHES` matches.
//!
//! Inputs: every component of the benchmark's `explain_batch` cases (the
//! perfbench case seeds at seed 1, n = 1000), and seeded random
//! sub-problems up to `EXACT_MAX_MATCHES` matches — ≡ / ⊑ / ⊒, integral,
//! fractional and zero impacts, probabilities near 0.5 and at the clamp
//! floor, non-default α/β, and sub-problems that are not connected (as the
//! un-partitioned `no_opt` strategy hands them over).
//!
//! For each one:
//! * the enumerator's objective equals the MILP's to 1e-9 relative;
//! * its explanation scores exactly that objective;
//! * where a brute-force pass over all kept-match sets finds a unique
//!   optimal one, its explanation equals `decode`'s (which reports a
//!   group's value change on the anchor, as the enumerator does).
//!
//! Impacts are chosen so no impact gap falls in (1e-9, 1e-6): there the
//! MILP's answer depends on the LP's feasibility tolerance. The pipeline's
//! unit tests cover that band.

mod common;

use common::benchmark_case;
use explain3d::core::encode::{exact_solution, heuristic_objective, EXACT_MAX_MATCHES};
use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::milp::branch_bound;
use explain3d::prelude::*;
use std::collections::HashMap;

/// What one comparison found.
#[derive(Debug, Default)]
struct Tally {
    compared: usize,
    above_k: usize,
    identical: usize,
    tied: usize,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.compared += other.compared;
        self.above_k += other.above_k;
        self.identical += other.identical;
        self.tied += other.tied;
    }
}

/// Objective of `explanations` restricted to the tuples and matches of
/// `sub`: the Eq. 6 score of every other tuple (kept, impact unchanged)
/// is subtracted from `log_probability` over the whole relations.
fn component_score(
    explanations: &ExplanationSet,
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    sub: &SubProblem,
    params: &ProbabilityParams,
) -> f64 {
    let matches: TupleMapping = sub
        .matches
        .iter()
        .filter(|m| sub.left_tuples.contains(&m.left) && sub.right_tuples.contains(&m.right))
        .copied()
        .collect();
    let outside = left.len() + right.len() - sub.size();
    log_probability(explanations, left, right, &matches, params)
        - outside as f64 * params.log_kept_correct()
}

/// Scores of the best completion of every valid kept-match set, computed
/// directly from the tuple and match terms; `None` for sets that break a
/// degree limit. Only used to decide whether the optimum is unique.
fn kept_set_scores(
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    relation: SemanticRelation,
    params: &ProbabilityParams,
    sub: &SubProblem,
) -> Vec<Option<f64>> {
    let (a, b, c) = (params.log_removed(), params.log_kept_correct(), params.log_kept_changed());
    let inside: Vec<TupleMatch> = sub
        .matches
        .iter()
        .filter(|m| sub.left_tuples.contains(&m.left) && sub.right_tuples.contains(&m.right))
        .copied()
        .collect();
    let lone = |impact: f64| a.max(if impact == 0.0 { b } else { c });
    (0..1usize << inside.len())
        .map(|mask| {
            let kept: Vec<&TupleMatch> = inside
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, m)| m)
                .collect();
            let mut left_deg: HashMap<usize, usize> = HashMap::new();
            let mut right_deg: HashMap<usize, usize> = HashMap::new();
            for m in &kept {
                *left_deg.entry(m.left).or_default() += 1;
                *right_deg.entry(m.right).or_default() += 1;
            }
            if (relation.left_degree_limited() && left_deg.values().any(|&d| d > 1))
                || (relation.right_degree_limited() && right_deg.values().any(|&d| d > 1))
            {
                return None;
            }
            let mut score: f64 = inside
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    if mask >> i & 1 == 1 {
                        params.log_match_kept(m.prob)
                    } else {
                        params.log_match_dropped(m.prob)
                    }
                })
                .sum();
            let anchor_right = relation.left_degree_limited();
            for &i in &sub.left_tuples {
                let impact = left.tuples[i].impact;
                score += if !left_deg.contains_key(&i) {
                    lone(impact)
                } else if anchor_right {
                    b
                } else {
                    let sum: f64 = kept
                        .iter()
                        .filter(|m| m.left == i)
                        .map(|m| right.tuples[m.right].impact)
                        .sum();
                    if (sum - impact).abs() <= 1e-9 {
                        b
                    } else {
                        c
                    }
                };
            }
            for &j in &sub.right_tuples {
                let impact = right.tuples[j].impact;
                score += if !right_deg.contains_key(&j) {
                    lone(impact)
                } else if !anchor_right {
                    b
                } else {
                    let sum: f64 = kept
                        .iter()
                        .filter(|m| m.right == j)
                        .map(|m| left.tuples[m.left].impact)
                        .sum();
                    if (sum - impact).abs() <= 1e-9 {
                        b
                    } else {
                        c
                    }
                };
            }
            Some(score)
        })
        .collect()
}

fn assert_same_explanation(exact: &ExplanationSet, milp: &ExplanationSet, what: &str) {
    assert_eq!(exact.provenance, milp.provenance, "{what}: provenance");
    assert_eq!(exact.evidence.matches(), milp.evidence.matches(), "{what}: evidence");
    assert_eq!(exact.value.len(), milp.value.len(), "{what}: {exact:?} vs {milp:?}");
    for (e, m) in exact.value.iter().zip(&milp.value) {
        assert_eq!((e.side, e.tuple, e.old_impact), (m.side, m.tuple, m.old_impact), "{what}");
        // A lone tuple's `I → 0` comes from the LP, which may leave noise.
        assert!((e.new_impact - m.new_impact).abs() <= 1e-9, "{what}: {e:?} vs {m:?}");
    }
}

/// Compares the enumerator with the MILP on one sub-problem.
fn compare(
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    relation: SemanticRelation,
    params: &ProbabilityParams,
    sub: &SubProblem,
    what: &str,
) -> Tally {
    let mut tally = Tally::default();
    let Some((exact, objective)) = exact_solution(left, right, relation, params, sub) else {
        tally.above_k += 1;
        return tally;
    };
    tally.compared += 1;
    // Search to proven optimality: no deadline, no practical node limit.
    let hint = heuristic_objective(left, right, relation, params, sub);
    let milp = MilpConfig::default().with_deadline(None).with_max_nodes(usize::MAX);
    let encoded = encode(left, right, relation, params, sub);
    let (solution, _) = branch_bound::solve_with_stats(&encoded.model, &milp, Some(hint));
    assert_eq!(solution.status, SolveStatus::Optimal, "{what}");
    let scale = 1.0 + solution.objective.abs();
    assert!(
        (objective - solution.objective).abs() <= 1e-9 * scale,
        "{what}: enumerator {objective} vs MILP {}",
        solution.objective
    );
    let scored = component_score(&exact, left, right, sub, params);
    assert!(
        (scored - objective).abs() <= 1e-9 * scale,
        "{what}: explanation scores {scored}, objective {objective}"
    );

    let scores = kept_set_scores(left, right, relation, params, sub);
    let best = scores.iter().flatten().fold(f64::NEG_INFINITY, |m, &s| m.max(s));
    assert!((best - objective).abs() <= 1e-9 * scale, "{what}: brute force {best}");
    // A runner-up within the MILP's gap tolerance could be returned too.
    let near_best = scores.iter().flatten().filter(|&&s| s >= best - 1e-6).count();
    if near_best == 1 {
        assert_same_explanation(&exact, &decode(&encoded, &solution), what);
        tally.identical += 1;
    } else {
        tally.tied += 1;
    }
    tally
}

/// Every component of the `explain_batch` cases `cases` at `seed`, as the
/// benchmark builds them (Stage 1, then `component_jobs`).
fn compare_benchmark_cases(seed: u64, cases: std::ops::Range<usize>) -> Tally {
    let options = ExplainOptions::default();
    let mut tally = Tally::default();
    for i in cases {
        let case = benchmark_case(seed, i);
        let (left, right) = (&case.left, &case.right);
        let (jobs, _) = component_jobs(options.pipeline.strategy, left, right, &case.mapping);
        let relation = case.matches.mapping_relation();
        for (k, (_, sub)) in jobs.iter().enumerate() {
            let what = format!("case {i} component {k}");
            tally.add(compare(left, right, relation, &options.pipeline.params, sub, &what));
        }
    }
    tally
}

#[test]
fn enumerator_matches_milp_on_benchmark_components() {
    let tally = compare_benchmark_cases(1, 0..2);
    eprintln!("{tally:?}");
    assert!(tally.compared > 1000, "{tally:?}");
    assert!(tally.above_k * 100 < tally.compared, "{tally:?}");
    assert_eq!(tally.tied, 0, "{tally:?}");
}

#[test]
#[ignore = "20 benchmark cases; run in release with --include-ignored"]
fn enumerator_matches_milp_on_all_benchmark_cases() {
    let tally = compare_benchmark_cases(1, 0..20);
    eprintln!("{tally:?}");
    assert!(tally.above_k * 100 < tally.compared, "{tally:?}");
    assert_eq!(tally.tied, 0, "{tally:?}");
}

fn relation_of(tuples: &[f64], name: &str) -> CanonicalRelation {
    CanonicalRelation {
        query_name: name.to_string(),
        schema: Schema::from_pairs(&[("k", ValueType::Str)]),
        key_attrs: vec!["k".to_string()],
        tuples: tuples
            .iter()
            .enumerate()
            .map(|(i, &impact)| CanonicalTuple {
                id: i,
                key: vec![Value::str(format!("{name}{i}"))],
                impact,
                members: vec![i],
                representative: Row::new(vec![Value::str(format!("{name}{i}"))]),
            })
            .collect(),
        aggregate: None,
    }
}

/// Impacts drawn so that any two sums of them are equal or differ by at
/// least 0.05 (fractional ones are tenths), never in (1e-9, 1e-6).
fn impact(rng: &mut StdRng, kind: usize) -> f64 {
    match kind {
        0 => rng.gen_range(0..4usize) as f64,
        1 => rng.gen_range(0..40usize) as f64 / 10.0,
        _ => {
            if rng.gen_bool(0.6) {
                0.0
            } else {
                rng.gen_range(1..3usize) as f64
            }
        }
    }
}

/// Uniform in `[lo, hi)` at a resolution of 1e-6.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen_range(0..1_000_000u64) as f64 / 1e6
}

fn probability(rng: &mut StdRng, kind: usize) -> f64 {
    match kind {
        0 => uniform(rng, 0.45, 0.55),
        1 => {
            if rng.gen_bool(0.5) {
                0.0
            } else {
                1.0
            }
        }
        _ => uniform(rng, 0.02, 0.98),
    }
}

/// A random sub-problem over relations it covers completely.
fn random_case(
    rng: &mut StdRng,
    max_side: usize,
) -> (CanonicalRelation, CanonicalRelation, SemanticRelation, ProbabilityParams, SubProblem) {
    let relation = [
        SemanticRelation::Equivalent,
        SemanticRelation::LessGeneral,
        SemanticRelation::MoreGeneral,
    ][rng.gen_range(0..3usize)];
    let params = if rng.gen_bool(0.5) {
        ProbabilityParams::default()
    } else {
        ProbabilityParams::new(uniform(rng, 0.52, 0.99), uniform(rng, 0.52, 0.99))
    };
    let impact_kind = rng.gen_range(0..3usize);
    let prob_kind = rng.gen_range(0..3usize);
    let nl = rng.gen_range(1..=max_side);
    let nr = rng.gen_range(1..=max_side);
    let left_impacts: Vec<f64> = (0..nl).map(|_| impact(rng, impact_kind)).collect();
    let right_impacts: Vec<f64> = (0..nr).map(|_| impact(rng, impact_kind)).collect();
    // Sparse draws leave isolated tuples and several components in one
    // sub-problem; dense ones make many-to-one groups.
    let density = uniform(rng, 0.1, 0.8);
    let mut matches = Vec::new();
    for l in 0..nl {
        for r in 0..nr {
            if matches.len() < EXACT_MAX_MATCHES && rng.gen_bool(density) {
                matches.push(TupleMatch::new(l, r, probability(rng, prob_kind)));
            }
        }
    }
    let sub =
        SubProblem { left_tuples: (0..nl).collect(), right_tuples: (0..nr).collect(), matches };
    (relation_of(&left_impacts, "l"), relation_of(&right_impacts, "r"), relation, params, sub)
}

/// Compares `count` random sub-problems of at most `max_side` tuples per
/// side, drawn from `seed`.
fn compare_random_subproblems(seed: u64, count: usize, max_side: usize) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    for n in 0..count {
        let (left, right, relation, params, sub) = random_case(&mut rng, max_side);
        let what = format!("random case {n} ({relation:?}, {params:?}): {sub:?}");
        tally.add(compare(&left, &right, relation, &params, &sub, &what));
        // The sub-problem covers both relations, so its answer is a whole
        // report and must be complete.
        let (exact, _) = exact_solution(&left, &right, relation, &params, &sub).unwrap();
        assert!(exact.is_complete(&left, &right, relation), "{what}: {exact:?}");
    }
    eprintln!("{tally:?}");
    assert_eq!(tally.compared, count);
    assert!(tally.identical * 10 > count * 9, "{tally:?}");
    tally
}

#[test]
fn enumerator_matches_milp_on_random_subproblems() {
    compare_random_subproblems(0xE3D_0016, 150, 4);
}

#[test]
#[ignore = "larger random sub-problems; run in release with --include-ignored"]
fn enumerator_matches_milp_on_larger_random_subproblems() {
    compare_random_subproblems(0xE3D_1016, 200, 5);
}

#[test]
fn enumerator_declines_above_the_match_limit() {
    let left = relation_of(&[1.0; 4], "l");
    let right = relation_of(&[1.0; 4], "r");
    let all: Vec<TupleMatch> =
        (0..4).flat_map(|l| (0..4).map(move |r| TupleMatch::new(l, r, 0.6))).collect();
    let params = ProbabilityParams::default();
    let sub = |n: usize| SubProblem {
        left_tuples: (0..4).collect(),
        right_tuples: (0..4).collect(),
        matches: all[..n].to_vec(),
    };
    let relation = SemanticRelation::Equivalent;
    assert!(exact_solution(&left, &right, relation, &params, &sub(EXACT_MAX_MATCHES)).is_some());
    assert!(exact_solution(&left, &right, relation, &params, &sub(EXACT_MAX_MATCHES + 1)).is_none());
    // Matches outside the sub-problem do not count towards the limit.
    let mut narrow = sub(16);
    narrow.left_tuples = vec![0, 1];
    assert!(exact_solution(&left, &right, relation, &params, &narrow).is_some());
}
