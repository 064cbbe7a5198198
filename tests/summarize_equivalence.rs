//! Stage-3 equivalence: the indexed `summarize` against a brute-force
//! reference that follows the definition directly — enumerate the
//! candidates, count every coverage with `Pattern::covers`, then run the
//! greedy cover — on pipeline output (synthetic and academic cases) and on
//! seeded mixed-type inputs built to stress loose equality and column
//! resolution. Summaries must be `Debug`-identical.

use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::datagen::{
    generate_academic, generate_synthetic, AcademicConfig, GeneratedCase, SyntheticConfig,
};
use explain3d::prelude::*;
use explain3d::summarize::{summarize, Pattern};

/// The summariser by definition. A single-condition candidate is formed by
/// each target value that its own pattern covers (so not NULL, NaN or a
/// column whose name does not resolve to it), unless a value `loose_eq` to
/// it on the same column came first.
fn reference(
    schema: &Schema,
    targets: &[Row],
    background: &[Row],
    cfg: &SummarizerConfig,
) -> Summary {
    let count = |p: &Pattern, rows: &[Row]| rows.iter().filter(|r| p.covers(schema, r)).count();
    let mut singles: Vec<(usize, Pattern)> = Vec::new();
    for row in targets {
        for (ci, value) in row.values().iter().enumerate() {
            let Some(column) = schema.column(ci) else { continue };
            let conditions = vec![(column.name.clone(), value.clone())];
            let p = Pattern { conditions, target_coverage: 0, other_coverage: 0 };
            let seen = singles.iter().any(|(c, q)| *c == ci && q.conditions[0].1.loose_eq(value));
            if !value.is_null() && p.covers(schema, row) && !seen {
                singles.push((ci, p));
            }
        }
    }
    for (_, p) in &mut singles {
        p.target_coverage = count(p, targets);
        p.other_coverage = count(p, background);
    }
    singles.sort_by_key(|(ci, p)| (*ci, p.conditions[0].1.to_string().to_ascii_lowercase()));
    singles.sort_by_key(|(_, p)| std::cmp::Reverse(p.target_coverage));

    let mut candidates: Vec<Pattern> = Vec::new();
    if cfg.max_conditions >= 2 {
        let top = &singles[..singles.len().min(12)];
        for (i, (ca, a)) in top.iter().enumerate() {
            for (cb, b) in &top[i + 1..] {
                let conditions = vec![a.conditions[0].clone(), b.conditions[0].clone()];
                let mut p = Pattern { conditions, target_coverage: 0, other_coverage: 0 };
                p.target_coverage = count(&p, targets);
                if ca != cb && p.target_coverage > 0 {
                    p.other_coverage = count(&p, background);
                    candidates.push(p);
                }
            }
        }
    }
    candidates.extend(singles.into_iter().map(|(_, p)| p));

    let mut covered = vec![false; targets.len()];
    let mut patterns: Vec<Pattern> = Vec::new();
    while !targets.is_empty() && (cfg.max_patterns == 0 || patterns.len() < cfg.max_patterns) {
        let mut best: Option<(&Pattern, usize)> = None;
        for p in &candidates {
            if p.precision() < cfg.min_precision || p.target_coverage < cfg.min_coverage {
                continue;
            }
            let new = (0..targets.len())
                .filter(|&t| !covered[t] && p.covers(schema, &targets[t]))
                .count();
            let better = best.is_none_or(|(b, bc)| {
                new > bc || (new == bc && p.precision() > b.precision() + 1e-12)
            });
            if new > 0 && better {
                best = Some((p, new));
            }
        }
        let Some((p, new)) = best else { break };
        if new < cfg.min_coverage && !patterns.is_empty() {
            break;
        }
        for (t, row) in targets.iter().enumerate() {
            covered[t] |= p.covers(schema, row);
        }
        patterns.push(p.clone());
        if covered.iter().all(|&c| c) {
            break;
        }
    }
    let uncovered_targets = (0..targets.len()).filter(|&t| !covered[t]).collect();
    Summary { patterns, uncovered_targets, num_targets: targets.len() }
}

/// Asserts the indexed summariser equals the reference on one input.
fn assert_equivalent(
    what: &str,
    schema: &Schema,
    targets: &[Row],
    background: &[Row],
    cfg: &SummarizerConfig,
) -> Summary {
    let fast = summarize(schema, targets, background, cfg);
    let slow = reference(schema, targets, background, cfg);
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{what}: summaries differ");
    fast
}

/// Splits one side's canonical relation into explanation targets and
/// background, as `summarize_side` does.
fn side_rows(
    explanations: &ExplanationSet,
    side: Side,
    relation: &CanonicalRelation,
) -> (Vec<Row>, Vec<Row>) {
    let mut ids = explanations.provenance_tuples(side);
    ids.extend(explanations.value_changes(side).into_keys());
    let (targets, background): (Vec<_>, Vec<_>) =
        relation.tuples.iter().enumerate().partition(|(i, _)| ids.contains(i));
    let rows = |ts: Vec<(usize, &CanonicalTuple)>| {
        ts.into_iter().map(|(_, t)| t.representative.clone()).collect()
    };
    (rows(targets), rows(background))
}

/// Runs the three-stage pipeline on `case` and checks both sides' summaries.
fn check_pipeline_case(what: &str, case: &GeneratedCase) {
    let outcome =
        explain_disagreement(&case.left, &case.right, &case.attribute_matches, &Default::default())
            .expect("pipeline runs");
    let cfg = SummarizerConfig::default();
    let sides = [
        (Side::Left, &outcome.prepared.left_canonical, &outcome.left_summary),
        (Side::Right, &outcome.prepared.right_canonical, &outcome.right_summary),
    ];
    for (side, relation, summary) in sides {
        let (targets, background) = side_rows(&outcome.report.explanations, side, relation);
        let what = format!("{what} {side:?}");
        let expected = assert_equivalent(&what, &relation.schema, &targets, &background, &cfg);
        assert_eq!(format!("{summary:?}"), format!("{expected:?}"), "{what}: pipeline summary");
    }
}

#[test]
fn synthetic_pipeline_summaries_match_the_reference() {
    for seed in 1..=5 {
        let case = generate_synthetic(&SyntheticConfig::new(300, 0.2, 600).with_seed(seed));
        check_pipeline_case(&format!("synthetic seed {seed}"), &case);
    }
}

#[test]
fn academic_summary_matches_the_reference() {
    let case = generate_academic(&AcademicConfig {
        num_programs: 70,
        associate_only_fraction: 0.25,
        ..AcademicConfig::umass()
    });
    let report = Explain3D::new(Explain3DConfig::batched(60)).explain(
        &case.prepared.left_canonical,
        &case.prepared.right_canonical,
        &case.attribute_matches,
        &case.initial_mapping,
    );
    for (side, relation) in
        [(Side::Left, &case.prepared.left_canonical), (Side::Right, &case.prepared.right_canonical)]
    {
        let (targets, background) = side_rows(&report.explanations, side, relation);
        let cfg = SummarizerConfig::default();
        let summary = assert_equivalent(
            &format!("academic {side:?}"),
            &relation.schema,
            &targets,
            &background,
            &cfg,
        );
        if side == Side::Left {
            assert!(!summary.patterns.is_empty(), "the academic case has left-side patterns");
        }
    }
}

/// Column names with duplicates, case variants and a qualified twin, so
/// `index_of` is ambiguous for some schemas.
const NAMES: [&str; 6] = ["a", "A", "b", "t.a", "c", "a"];

/// A value from a pool of numerically equal `Int`/`Float`/`Bool`s, NaN,
/// ±0.0, NULL and case-variant strings.
fn mixed_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..12u32) {
        0 => Value::Null,
        1 | 2 => Value::Int(rng.gen_range(-1..=3i64)),
        3 | 4 => Value::Float(rng.gen_range(-1..=3i64) as f64),
        5 => Value::Float([f64::NAN, -0.0, 0.5][rng.gen_range(0..3usize)]),
        6 => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::str(["x", "X", "true", "1", "s0", "S0", "s1", "0"][rng.gen_range(0..8usize)]),
    }
}

#[test]
fn seeded_mixed_type_inputs_match_the_reference() {
    for seed in 0..3000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let arity = rng.gen_range(1..=4usize);
        let names: Vec<(&str, ValueType)> = (0..arity)
            .map(|_| (NAMES[rng.gen_range(0..NAMES.len())], ValueType::Unknown))
            .collect();
        let schema = Schema::from_pairs(&names);
        // Rows are usually as wide as the schema, sometimes one short or long.
        let mut rows = |n: usize| -> Vec<Row> {
            (0..n)
                .map(|_| {
                    let width = match rng.gen_range(0..10u32) {
                        0 => arity - 1,
                        1 => arity + 1,
                        _ => arity,
                    };
                    Row::new((0..width).map(|_| mixed_value(&mut rng)).collect())
                })
                .collect()
        };
        let targets = rows(seed as usize % 24);
        let background = rows(seed as usize % 17);
        let cfg = SummarizerConfig {
            max_conditions: 1 + (seed % 2) as usize,
            max_patterns: (seed / 2 % 3) as usize,
            min_coverage: (seed / 6 % 3) as usize,
            min_precision: [0.0, 0.3, 0.6, 0.9][(seed / 18 % 4) as usize],
        };
        assert_equivalent(&format!("mixed seed {seed}"), &schema, &targets, &background, &cfg);
    }
}

/// The first 20 cases of a seed-1 `explain_batch` run (perfbench's
/// `case_seed(1, i)`, n=1000, d=0.2, v=1000); slow in debug builds, so it
/// runs in the `--include-ignored` stress lane.
#[test]
#[ignore]
fn explain_batch_cases_match_the_reference() {
    for i in 0..20u64 {
        let seed = 1u64.wrapping_mul(1_000_003).wrapping_add(i);
        let case = generate_synthetic(&SyntheticConfig::new(1000, 0.2, 1000).with_seed(seed));
        check_pipeline_case(&format!("explain_batch case {i}"), &case);
    }
}
