//! Greedy pattern-tableau mining over "target" tuples.
//!
//! Candidates are single `attribute = value` conditions built from the
//! targets' values, one per [`Value::loose_eq`] class and column, plus pairs
//! of the twelve best-covering singles. Their coverage is counted from
//! indexes (see [`summarize`]), never with `Schema::index_of` per row.

use explain3d_relation::prelude::{Row, Schema, Value};
use std::collections::HashMap;
use std::fmt;

/// A conjunctive pattern: `attr1 = v1 AND attr2 = v2 AND ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// `(attribute name, value)` conditions, all of which must hold.
    pub conditions: Vec<(String, Value)>,
    /// Number of target tuples covered by the pattern.
    pub target_coverage: usize,
    /// Number of non-target tuples covered by the pattern (false positives).
    pub other_coverage: usize,
}

impl Pattern {
    /// Precision of the pattern: covered targets over all covered tuples.
    ///
    /// A pattern covering nothing at all (0/0) has precision 1.0 by the
    /// repository-wide empty-denominator convention (see
    /// `eval::metrics::Accuracy::from_counts`) — never NaN. Such a pattern
    /// is still never *selected*: selection requires
    /// `target_coverage >= min_coverage` and a positive newly-covered count.
    pub fn precision(&self) -> f64 {
        let total = self.target_coverage + self.other_coverage;
        if total == 0 {
            1.0
        } else {
            self.target_coverage as f64 / total as f64
        }
    }

    /// True when the pattern covers the row (all conditions hold).
    pub fn covers(&self, schema: &Schema, row: &Row) -> bool {
        self.conditions.iter().all(|(attr, value)| {
            schema
                .index_of(attr)
                .ok()
                .and_then(|i| row.get(i))
                .map(|v| v.loose_eq(value))
                .unwrap_or(false)
        })
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let conds: Vec<String> =
            self.conditions.iter().map(|(a, v)| format!("{a} = \"{v}\"")).collect();
        write!(
            f,
            "{} (covers {} targets, {} others)",
            conds.join(" AND "),
            self.target_coverage,
            self.other_coverage
        )
    }
}

/// Configuration of the summariser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummarizerConfig {
    /// Maximum number of conjuncts per pattern (1 or 2 are typical).
    pub max_conditions: usize,
    /// Minimum precision a pattern must reach to be selected.
    pub min_precision: f64,
    /// Minimum number of targets a pattern must cover to be selected.
    pub min_coverage: usize,
    /// Maximum number of patterns in the summary (0 = unlimited).
    pub max_patterns: usize,
}

impl Default for SummarizerConfig {
    fn default() -> Self {
        SummarizerConfig { max_conditions: 2, min_precision: 0.6, min_coverage: 2, max_patterns: 0 }
    }
}

/// The result of summarisation: selected patterns plus the targets that no
/// acceptable pattern covered (reported individually, as the paper notes that
/// detailed Stage-2 explanations remain available).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// The selected patterns, in selection order (highest coverage first).
    pub patterns: Vec<Pattern>,
    /// Indexes (into the target list) of targets not covered by any pattern.
    pub uncovered_targets: Vec<usize>,
    /// Total number of target tuples.
    pub num_targets: usize,
}

impl Summary {
    /// The size of the summary `|E_S|`: patterns plus individually-reported
    /// leftover targets.
    pub fn size(&self) -> usize {
        self.patterns.len() + self.uncovered_targets.len()
    }

    /// Fraction of targets covered by at least one selected pattern. An
    /// empty target list counts as fully covered (0/0 → 1.0, per the
    /// repository-wide empty-denominator convention) — never NaN.
    pub fn coverage(&self) -> f64 {
        if self.num_targets == 0 {
            return 1.0;
        }
        (self.num_targets - self.uncovered_targets.len()) as f64 / self.num_targets as f64
    }

    /// Renders the summary as human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Summary: {} pattern(s) covering {:.0}% of {} explanation tuple(s)\n",
            self.patterns.len(),
            self.coverage() * 100.0,
            self.num_targets
        ));
        for p in &self.patterns {
            out.push_str(&format!("  - {p}\n"));
        }
        if !self.uncovered_targets.is_empty() {
            out.push_str(&format!(
                "  ({} explanation tuple(s) reported individually)\n",
                self.uncovered_targets.len()
            ));
        }
        out
    }
}

/// Summarises the target tuples against a background population.
///
/// * `schema` — schema shared by targets and background rows;
/// * `targets` — the rows touched by explanations;
/// * `background` — all other rows of the same relation (used to measure a
///   pattern's false-positive coverage).
///
/// Coverage is counted from indexes, not by testing rows with
/// [`Pattern::covers`], but the result is exactly what that would give.
/// Each column name is resolved once. A single condition's targets are its
/// value's `loose_eq` group, and its false positives are one lookup in a
/// per-column count of the background. A pair's targets are the
/// intersection of its singles' lists, and its false positives one
/// background pass. The greedy cover counts the not yet covered entries of
/// each selectable candidate's target list. Cost: one pass per column over
/// targets and background, plus pairs (at most 66) × background rows, plus
/// rounds × the candidates' target lists.
pub fn summarize(
    schema: &Schema,
    targets: &[Row],
    background: &[Row],
    config: &SummarizerConfig,
) -> Summary {
    let mut summary = Summary { num_targets: targets.len(), ..Default::default() };
    if targets.is_empty() {
        return summary;
    }

    // Enumerate candidate patterns: single conditions and (optionally) pairs,
    // built from values that actually appear in target tuples. Only those
    // that can be selected take part in the greedy cover.
    let candidates: Vec<Candidate> = candidate_patterns(schema, targets, background, config)
        .into_iter()
        .filter(|c| {
            !(c.pattern.precision() < config.min_precision
                || c.pattern.target_coverage < config.min_coverage)
        })
        .collect();

    // Greedy weighted set cover over the targets.
    let mut covered = vec![false; targets.len()];
    let mut selected: Vec<Pattern> = Vec::new();
    loop {
        if config.max_patterns > 0 && selected.len() >= config.max_patterns {
            break;
        }
        let mut best: Option<(&Candidate, usize)> = None; // (candidate, new coverage)
        for cand in &candidates {
            let new_cover = cand.targets.iter().filter(|&&ti| !covered[ti]).count();
            if new_cover == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((b, bc)) => {
                    new_cover > bc
                        || (new_cover == bc
                            && cand.pattern.precision() > b.pattern.precision() + 1e-12)
                }
            };
            if better {
                best = Some((cand, new_cover));
            }
        }
        let Some((chosen, new_cover)) = best else { break };
        if new_cover < config.min_coverage && !selected.is_empty() {
            break;
        }
        for &ti in &chosen.targets {
            covered[ti] = true;
        }
        selected.push(chosen.pattern.clone());
        if covered.iter().all(|&c| c) {
            break;
        }
    }

    summary.uncovered_targets =
        covered.iter().enumerate().filter(|(_, &c)| !c).map(|(i, _)| i).collect();
    summary.patterns = selected;
    summary
}

/// A candidate pattern with the (ascending) indexes of the targets it covers.
struct Candidate {
    pattern: Pattern,
    targets: Vec<usize>,
}

/// A value's class under [`Value::loose_eq`]: two values are `loose_eq`
/// exactly when their keys are equal. Numbers (`Int`, `Float`, `Bool`) key
/// by the bits of `as_f64()` with `-0.0` folded into `0.0`; NaN has no key
/// because it is `loose_eq` to nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum LooseKey<'a> {
    Null,
    Num(u64),
    Str(&'a str),
}

fn loose_key(value: &Value) -> Option<LooseKey<'_>> {
    match value {
        Value::Null => Some(LooseKey::Null),
        Value::Str(s) => Some(LooseKey::Str(s)),
        _ => {
            let x = value.as_f64()?;
            if x.is_nan() {
                None
            } else {
                Some(LooseKey::Num(if x == 0.0 { 0 } else { x.to_bits() }))
            }
        }
    }
}

/// The key of the value in column `ci` of `row`, if it has one.
fn key_at(row: &Row, ci: usize) -> Option<LooseKey<'_>> {
    row.get(ci).and_then(loose_key)
}

/// Builds candidate patterns (width 1 and optionally 2) with their coverage
/// statistics.
fn candidate_patterns(
    schema: &Schema,
    targets: &[Row],
    background: &[Row],
    config: &SummarizerConfig,
) -> Vec<Candidate> {
    // A pattern names its column, and `covers` resolves that name: a column
    // whose name is ambiguous (duplicate or case-variant) covers no row, so
    // it forms no pattern. Any other name resolves to its own column.
    let resolvable: Vec<bool> = schema
        .columns()
        .iter()
        .enumerate()
        .map(|(ci, c)| matches!(schema.index_of(&c.name), Ok(i) if i == ci))
        .collect();
    let usable = |ci: usize| resolvable.get(ci).copied().unwrap_or(false);

    // Group target values per column by loose-equality class, in order of
    // first occurrence; a group's members are exactly the targets its
    // single-condition pattern covers. NULL and NaN form no pattern.
    let mut index: HashMap<(usize, LooseKey<'_>), usize> = HashMap::new();
    let mut groups: Vec<(usize, LooseKey<'_>, &Value, Vec<usize>)> = Vec::new();
    for (ti, row) in targets.iter().enumerate() {
        for (ci, value) in row.values().iter().enumerate() {
            if value.is_null() || !usable(ci) {
                continue;
            }
            let Some(key) = loose_key(value) else { continue };
            let gi = *index.entry((ci, key)).or_insert_with(|| {
                groups.push((ci, key, value, Vec::new()));
                groups.len() - 1
            });
            groups[gi].3.push(ti);
        }
    }
    // Order by column and lower-cased display of the first value; the sort
    // is stable, so ties keep their first-occurrence order.
    groups.sort_by_cached_key(|(ci, _, value, _)| (*ci, value.to_string().to_ascii_lowercase()));

    // Background counts: one pass per usable column.
    let counts: Vec<HashMap<LooseKey<'_>, usize>> = (0..schema.arity())
        .map(|ci| {
            let mut column_counts = HashMap::new();
            if usable(ci) {
                for key in background.iter().filter_map(|r| key_at(r, ci)) {
                    *column_counts.entry(key).or_insert(0) += 1;
                }
            }
            column_counts
        })
        .collect();

    let mut singles: Vec<(usize, LooseKey<'_>, Candidate)> = groups
        .into_iter()
        .map(|(ci, key, value, covered)| {
            let pattern = Pattern {
                conditions: vec![(schema.columns()[ci].name.clone(), value.clone())],
                target_coverage: covered.len(),
                other_coverage: counts[ci].get(&key).copied().unwrap_or(0),
            };
            (ci, key, Candidate { pattern, targets: covered })
        })
        .collect();
    // Highest coverage first so pair generation combines promising singles.
    singles.sort_by_key(|(_, _, c)| std::cmp::Reverse(c.pattern.target_coverage));

    let mut patterns: Vec<Candidate> = Vec::new();
    if config.max_conditions >= 2 {
        let top = &singles[..singles.len().min(12)];
        for (i, (ca, ka, a)) in top.iter().enumerate() {
            for (cb, kb, b) in &top[i + 1..] {
                if ca == cb {
                    continue; // same attribute twice is unsatisfiable
                }
                let covered: Vec<usize> = (a.targets.iter().copied())
                    .filter(|&ti| key_at(&targets[ti], *cb) == Some(*kb))
                    .collect();
                if covered.is_empty() {
                    continue;
                }
                let other = background
                    .iter()
                    .filter(|r| key_at(r, *ca) == Some(*ka) && key_at(r, *cb) == Some(*kb))
                    .count();
                let pattern = Pattern {
                    conditions: vec![
                        a.pattern.conditions[0].clone(),
                        b.pattern.conditions[0].clone(),
                    ],
                    target_coverage: covered.len(),
                    other_coverage: other,
                };
                patterns.push(Candidate { pattern, targets: covered });
            }
        }
    }
    patterns.extend(singles.into_iter().map(|(_, _, c)| c));
    patterns
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain3d_relation::prelude::ValueType;
    use explain3d_relation::row;

    fn schema() -> Schema {
        Schema::from_pairs(&[("major", ValueType::Str), ("degree", ValueType::Str)])
    }

    #[test]
    fn finds_the_common_degree_pattern() {
        // The paper's running summary: a large portion of mismatches are
        // majors with Degree = "Associate degree".
        let targets = vec![
            row!["Turfgrass Management", "Associate degree"],
            row!["Equine Management", "Associate degree"],
            row!["Culinary Arts", "Associate degree"],
            row!["Dance", "B.A."],
        ];
        let background = vec![
            row!["Computer Science", "B.S."],
            row!["Biology", "B.S."],
            row!["History", "B.A."],
        ];
        let summary = summarize(&schema(), &targets, &background, &SummarizerConfig::default());
        assert!(!summary.patterns.is_empty());
        let first = &summary.patterns[0];
        assert_eq!(first.conditions.len(), 1);
        assert_eq!(first.conditions[0].0, "degree");
        assert_eq!(first.conditions[0].1, Value::str("Associate degree"));
        assert_eq!(first.target_coverage, 3);
        assert_eq!(first.other_coverage, 0);
        assert_eq!(first.precision(), 1.0);
        // The leftover B.A. target is reported individually.
        assert_eq!(summary.uncovered_targets.len(), 1);
        assert_eq!(summary.size(), 2);
        assert!(summary.coverage() > 0.7);
        assert!(summary.render().contains("Associate degree"));
    }

    #[test]
    fn summary_is_smaller_than_the_explanation_list() {
        // 20 targets sharing one value should compress to a single pattern.
        let mut targets = Vec::new();
        for i in 0..20 {
            targets.push(row![format!("major {i}"), "Associate degree"]);
        }
        let background: Vec<Row> = (0..50).map(|i| row![format!("other {i}"), "B.S."]).collect();
        let summary = summarize(&schema(), &targets, &background, &SummarizerConfig::default());
        assert_eq!(summary.patterns.len(), 1);
        assert!(summary.size() < targets.len());
        assert_eq!(summary.coverage(), 1.0);
    }

    #[test]
    fn low_precision_patterns_are_rejected() {
        // "B.S." appears in targets but overwhelmingly in the background, so
        // it should not be used as a pattern.
        let targets = vec![row!["A", "B.S."], row!["B", "B.S."]];
        let background: Vec<Row> = (0..40).map(|i| row![format!("bg {i}"), "B.S."]).collect();
        let cfg = SummarizerConfig { min_precision: 0.5, ..Default::default() };
        let summary = summarize(&schema(), &targets, &background, &cfg);
        assert!(
            summary.patterns.iter().all(|p| p.precision() >= 0.5),
            "selected low-precision patterns: {:?}",
            summary.patterns
        );
        // The targets end up reported individually instead.
        assert_eq!(
            summary.uncovered_targets.len()
                + summary.patterns.iter().map(|p| p.target_coverage).sum::<usize>().min(2),
            2
        );
    }

    #[test]
    fn two_condition_patterns_when_needed() {
        // Targets are exactly the Associate-degree Management majors; either
        // condition alone is imprecise, the conjunction is exact.
        let schema = Schema::from_pairs(&[("dept", ValueType::Str), ("degree", ValueType::Str)]);
        let targets = vec![
            row!["Management", "Associate"],
            row!["Management", "Associate"],
            row!["Management", "Associate"],
        ];
        let background = vec![
            row!["Management", "B.S."],
            row!["Management", "B.S."],
            row!["Biology", "Associate"],
            row!["Biology", "Associate"],
        ];
        let cfg = SummarizerConfig { min_precision: 0.9, ..Default::default() };
        let summary = summarize(&schema, &targets, &background, &cfg);
        assert_eq!(summary.patterns.len(), 1);
        assert_eq!(summary.patterns[0].conditions.len(), 2);
        assert_eq!(summary.patterns[0].precision(), 1.0);
    }

    #[test]
    fn empty_targets_give_empty_summary() {
        let summary = summarize(&schema(), &[], &[], &SummarizerConfig::default());
        assert!(summary.patterns.is_empty());
        assert_eq!(summary.size(), 0);
        assert_eq!(summary.coverage(), 1.0);
    }

    #[test]
    fn max_patterns_limit_is_respected() {
        let targets = vec![
            row!["A", "x"],
            row!["A", "x"],
            row!["B", "y"],
            row!["B", "y"],
            row!["C", "z"],
            row!["C", "z"],
        ];
        let cfg = SummarizerConfig { max_patterns: 1, min_coverage: 1, ..Default::default() };
        let summary = summarize(&schema(), &targets, &[], &cfg);
        assert_eq!(summary.patterns.len(), 1);
        assert!(!summary.uncovered_targets.is_empty());
    }

    #[test]
    fn zero_coverage_corners_never_produce_nan() {
        // 0/0 precision follows the 1.0 convention and never goes NaN …
        let empty_pattern = Pattern { conditions: vec![], target_coverage: 0, other_coverage: 0 };
        assert_eq!(empty_pattern.precision(), 1.0);
        assert!(!empty_pattern.precision().is_nan());
        // … and an empty summary reports full coverage, not NaN.
        let summary = summarize(&schema(), &[], &[], &SummarizerConfig::default());
        assert_eq!(summary.coverage(), 1.0);
        assert!(!summary.coverage().is_nan());
        // A zero-coverage pattern must never be selected even though its
        // precision now passes any threshold.
        let targets = vec![row!["A", "x"], row!["B", "y"]];
        let cfg = SummarizerConfig { min_coverage: 0, min_precision: 0.0, ..Default::default() };
        let s = summarize(&schema(), &targets, &[], &cfg);
        assert!(s.patterns.iter().all(|p| p.target_coverage > 0));
    }

    /// Summarises one-column targets with the default config and checks
    /// every selected pattern's `target_coverage` against `covers`.
    fn summarize_one_column(values: Vec<Value>) -> Summary {
        let schema = Schema::from_pairs(&[("flag", ValueType::Unknown)]);
        let targets: Vec<Row> = values.into_iter().map(|v| Row::new(vec![v])).collect();
        let summary = summarize(&schema, &targets, &[], &SummarizerConfig::default());
        for p in &summary.patterns {
            let covered = targets.iter().filter(|r| p.covers(&schema, r)).count();
            assert_eq!(p.target_coverage, covered, "{p} disagrees with covers");
        }
        summary
    }

    #[test]
    fn case_variant_strings_are_separate_patterns() {
        // "Foo" does not cover "foo": no pattern reaches min_coverage 2.
        let summary = summarize_one_column(vec![Value::str("Foo"), Value::str("foo")]);
        assert!(summary.patterns.is_empty(), "{:?}", summary.patterns);
        assert_eq!(summary.uncovered_targets, vec![0, 1]);
    }

    #[test]
    fn a_string_is_not_grouped_with_a_bool_of_the_same_display() {
        let summary = summarize_one_column(vec![Value::str("true"), Value::Bool(true)]);
        assert!(summary.patterns.is_empty(), "{:?}", summary.patterns);
        assert_eq!(summary.uncovered_targets, vec![0, 1]);
    }

    #[test]
    fn loosely_equal_values_form_one_pattern() {
        // Bool(true) and Int(1) are loose_eq, so one pattern covers both.
        let summary = summarize_one_column(vec![Value::Bool(true), Value::Int(1)]);
        assert_eq!(summary.patterns.len(), 1, "{:?}", summary.patterns);
        assert_eq!(summary.patterns[0].target_coverage, 2);
        assert!(summary.uncovered_targets.is_empty());
    }

    #[test]
    fn null_values_do_not_form_patterns() {
        let targets = vec![
            Row::new(vec![Value::Null, Value::Null]),
            Row::new(vec![Value::Null, Value::Null]),
        ];
        let summary = summarize(&schema(), &targets, &[], &SummarizerConfig::default());
        assert!(summary.patterns.is_empty());
        assert_eq!(summary.uncovered_targets.len(), 2);
    }
}
