//! Explanations and their evidence (Definition 2.5).
//!
//! The output of Explain3D is `E = (Δ, δ | M*_tuple)`:
//! * Δ — provenance-based explanations: canonical tuples of one relation
//!   that have no counterpart in the other;
//! * δ — value-based explanations: canonical tuples whose impact must change;
//! * M*_tuple — the evidence mapping, a refined subset of the initial tuple
//!   mapping that justifies the explanations.

use crate::attr_match::SemanticRelation;
use crate::canonical::CanonicalRelation;
use explain3d_linkage::TupleMapping;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How far two impacts may differ and still count as equal: the tolerance
/// of [`ExplanationSet::is_complete`], and the one Stage 2 uses to decide
/// whether an impact changed (`encode::decode`, `encode::heuristic_solution`,
/// `encode::exact_solution`). A solver that paid for a value change larger
/// than this always reports it, so its explanations stay complete.
pub const IMPACT_TOLERANCE: f64 = 1e-6;

/// Which canonical relation a tuple-level explanation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// The first query / canonical relation (`T1`).
    Left,
    /// The second query / canonical relation (`T2`).
    Right,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Left => "T1",
            Side::Right => "T2",
        })
    }
}

/// A provenance-based explanation: canonical tuple `tuple` of `side` does not
/// map to any tuple of the other relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProvenanceExplanation {
    /// The relation the tuple belongs to.
    pub side: Side,
    /// Canonical tuple index.
    pub tuple: usize,
}

/// A value-based explanation: canonical tuple `tuple` of `side` should have
/// impact `new_impact` instead of `old_impact`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueExplanation {
    /// The relation the tuple belongs to.
    pub side: Side,
    /// Canonical tuple index.
    pub tuple: usize,
    /// The tuple's original impact.
    pub old_impact: f64,
    /// The refined impact suggested by the explanation.
    pub new_impact: f64,
}

/// A complete explanation result `E = (Δ, δ | M*_tuple)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplanationSet {
    /// Provenance-based explanations Δ.
    pub provenance: Vec<ProvenanceExplanation>,
    /// Value-based explanations δ.
    pub value: Vec<ValueExplanation>,
    /// The evidence mapping M*_tuple (canonical tuple index pairs).
    pub evidence: TupleMapping,
}

impl ExplanationSet {
    /// Creates an empty explanation set.
    pub fn new() -> Self {
        ExplanationSet::default()
    }

    /// Total number of explanations `|E| = |Δ| + |δ|`.
    pub fn len(&self) -> usize {
        self.provenance.len() + self.value.len()
    }

    /// True when there are no explanations (the queries agree under the
    /// evidence mapping).
    pub fn is_empty(&self) -> bool {
        self.provenance.is_empty() && self.value.is_empty()
    }

    /// Adds a provenance-based explanation.
    pub fn add_provenance(&mut self, side: Side, tuple: usize) {
        self.provenance.push(ProvenanceExplanation { side, tuple });
    }

    /// Adds a value-based explanation.
    pub fn add_value(&mut self, side: Side, tuple: usize, old_impact: f64, new_impact: f64) {
        self.value.push(ValueExplanation { side, tuple, old_impact, new_impact });
    }

    /// The provenance-explanation tuples of one side, as a set.
    pub fn provenance_tuples(&self, side: Side) -> BTreeSet<usize> {
        self.provenance.iter().filter(|e| e.side == side).map(|e| e.tuple).collect()
    }

    /// The value-explanation tuples of one side, keyed by tuple index.
    pub fn value_changes(&self, side: Side) -> BTreeMap<usize, f64> {
        self.value.iter().filter(|e| e.side == side).map(|e| (e.tuple, e.new_impact)).collect()
    }

    /// Merges another explanation set (used when sub-problems are solved
    /// independently and their results combined).
    pub fn merge(&mut self, other: ExplanationSet) {
        self.provenance.extend(other.provenance);
        self.value.extend(other.value);
        for m in other.evidence.matches() {
            self.evidence.push(*m);
        }
    }

    /// Sorts the explanations deterministically (for stable reports/tests).
    pub fn normalise(&mut self) {
        self.provenance.sort();
        self.value.sort_by_key(|e| (e.side, e.tuple));
    }

    /// Checks the *completeness* of the explanations (Definition 3.4): after
    /// removing Δ tuples and applying δ impact changes, the evidence mapping
    /// must be valid (Definition 3.2) and every connected component must
    /// satisfy impact equality (Definition 3.3). Unmatched surviving tuples
    /// must have zero refined impact. Returns the list of violations.
    pub fn completeness_violations(
        &self,
        left: &CanonicalRelation,
        right: &CanonicalRelation,
        relation: SemanticRelation,
        tolerance: f64,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let removed_left = self.provenance_tuples(Side::Left);
        let removed_right = self.provenance_tuples(Side::Right);
        let changed_left = self.value_changes(Side::Left);
        let changed_right = self.value_changes(Side::Right);

        let impact_left = |i: usize| -> f64 {
            changed_left.get(&i).copied().unwrap_or_else(|| left.tuples[i].impact)
        };
        let impact_right = |j: usize| -> f64 {
            changed_right.get(&j).copied().unwrap_or_else(|| right.tuples[j].impact)
        };

        // Evidence must not touch removed tuples.
        for m in self.evidence.matches() {
            if removed_left.contains(&m.left) {
                violations.push(format!("evidence uses removed left tuple {}", m.left));
            }
            if removed_right.contains(&m.right) {
                violations.push(format!("evidence uses removed right tuple {}", m.right));
            }
        }

        // Mapping validity (degree constraints).
        if relation.left_degree_limited() {
            for (l, ms) in self.evidence.by_left() {
                if ms.len() > 1 {
                    violations.push(format!("left tuple {l} matched {} times", ms.len()));
                }
            }
        }
        if relation.right_degree_limited() {
            for (r, ms) in self.evidence.by_right() {
                if ms.len() > 1 {
                    violations.push(format!("right tuple {r} matched {} times", ms.len()));
                }
            }
        }

        // Impact equality per connected component of the evidence graph.
        let mut dsu = explain3d_partition::DisjointSet::new(left.len() + right.len());
        for m in self.evidence.matches() {
            dsu.union(m.left, left.len() + m.right);
        }
        let mut component_balance: BTreeMap<usize, f64> = BTreeMap::new();
        let mut matched_left: BTreeSet<usize> = BTreeSet::new();
        let mut matched_right: BTreeSet<usize> = BTreeSet::new();
        for m in self.evidence.matches() {
            matched_left.insert(m.left);
            matched_right.insert(m.right);
        }
        for i in 0..left.len() {
            if removed_left.contains(&i) {
                continue;
            }
            if !matched_left.contains(&i) {
                if impact_left(i).abs() > tolerance {
                    violations.push(format!(
                        "left tuple {i} is unmatched but keeps impact {}",
                        impact_left(i)
                    ));
                }
                continue;
            }
            *component_balance.entry(dsu.find(i)).or_insert(0.0) += impact_left(i);
        }
        for j in 0..right.len() {
            if removed_right.contains(&j) {
                continue;
            }
            if !matched_right.contains(&j) {
                if impact_right(j).abs() > tolerance {
                    violations.push(format!(
                        "right tuple {j} is unmatched but keeps impact {}",
                        impact_right(j)
                    ));
                }
                continue;
            }
            *component_balance.entry(dsu.find(left.len() + j)).or_insert(0.0) -= impact_right(j);
        }
        for (root, balance) in component_balance {
            if balance.abs() > tolerance {
                violations.push(format!(
                    "impact imbalance {balance:+.3} in component rooted at node {root}"
                ));
            }
        }
        violations
    }

    /// True when the explanation set is complete (Definition 3.4).
    pub fn is_complete(
        &self,
        left: &CanonicalRelation,
        right: &CanonicalRelation,
        relation: SemanticRelation,
    ) -> bool {
        self.completeness_violations(left, right, relation, IMPACT_TOLERANCE).is_empty()
    }

    /// Renders the explanations against the canonical relations, using the
    /// tuples' key values (human-readable report).
    pub fn render(&self, left: &CanonicalRelation, right: &CanonicalRelation) -> String {
        let mut out = String::new();
        let key_of = |side: Side, idx: usize| -> String {
            let rel = match side {
                Side::Left => left,
                Side::Right => right,
            };
            rel.tuple(idx).map(|t| t.key_text()).unwrap_or_else(|| format!("#{idx}"))
        };
        out.push_str(&format!(
            "Explanations ({} provenance-based, {} value-based, {} evidence matches)\n",
            self.provenance.len(),
            self.value.len(),
            self.evidence.len()
        ));
        for e in &self.provenance {
            out.push_str(&format!(
                "  [Δ] {} tuple `{}` has no counterpart\n",
                e.side,
                key_of(e.side, e.tuple)
            ));
        }
        for e in &self.value {
            out.push_str(&format!(
                "  [δ] {} tuple `{}` impact {} ↦ {}\n",
                e.side,
                key_of(e.side, e.tuple),
                e.old_impact,
                e.new_impact
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::{CanonicalRelation, CanonicalTuple};
    use explain3d_linkage::TupleMatch;
    use explain3d_relation::prelude::{Row, Schema, Value, ValueType};

    fn canon(name: &str, attr: &str, entries: &[(&str, f64)]) -> CanonicalRelation {
        CanonicalRelation {
            query_name: name.to_string(),
            schema: Schema::from_pairs(&[(attr, ValueType::Str)]),
            key_attrs: vec![attr.to_string()],
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

    /// T1 = {Accounting:1, CS:2, Design:1}, T2 = {Accounting:1, CSE:1}.
    fn pair() -> (CanonicalRelation, CanonicalRelation) {
        (
            canon("Q1", "program", &[("Accounting", 1.0), ("CS", 2.0), ("Design", 1.0)]),
            canon("Q2", "major", &[("Accounting", 1.0), ("CSE", 1.0)]),
        )
    }

    #[test]
    fn building_and_accessors() {
        let mut e = ExplanationSet::new();
        assert!(e.is_empty());
        e.add_provenance(Side::Left, 2);
        e.add_value(Side::Right, 1, 1.0, 2.0);
        e.evidence.push(TupleMatch::new(0, 0, 1.0));
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
        assert_eq!(e.provenance_tuples(Side::Left), BTreeSet::from([2]));
        assert!(e.provenance_tuples(Side::Right).is_empty());
        assert_eq!(e.value_changes(Side::Right).get(&1), Some(&2.0));
    }

    #[test]
    fn complete_explanation_for_the_running_example() {
        let (t1, t2) = pair();
        // Evidence: Accounting↔Accounting, CS↔CSE. Explanations: Design is
        // missing from T2 (Δ), CSE should have impact 2 (δ).
        let mut e = ExplanationSet::new();
        e.evidence.push(TupleMatch::new(0, 0, 1.0));
        e.evidence.push(TupleMatch::new(1, 1, 0.9));
        e.add_provenance(Side::Left, 2);
        e.add_value(Side::Right, 1, 1.0, 2.0);
        assert!(e.is_complete(&t1, &t2, SemanticRelation::Equivalent));
    }

    #[test]
    fn incomplete_when_impacts_do_not_balance() {
        let (t1, t2) = pair();
        let mut e = ExplanationSet::new();
        e.evidence.push(TupleMatch::new(0, 0, 1.0));
        e.evidence.push(TupleMatch::new(1, 1, 0.9));
        e.add_provenance(Side::Left, 2);
        // Missing the value explanation for CSE: CS has impact 2 vs CSE 1.
        let violations = e.completeness_violations(&t1, &t2, SemanticRelation::Equivalent, 1e-6);
        assert!(violations.iter().any(|v| v.contains("imbalance")));
        assert!(!e.is_complete(&t1, &t2, SemanticRelation::Equivalent));
    }

    #[test]
    fn incomplete_when_unmatched_tuple_keeps_impact() {
        let (t1, t2) = pair();
        let mut e = ExplanationSet::new();
        e.evidence.push(TupleMatch::new(0, 0, 1.0));
        e.evidence.push(TupleMatch::new(1, 1, 0.9));
        e.add_value(Side::Right, 1, 1.0, 2.0);
        // Design (left tuple 2) is neither removed nor matched.
        let violations = e.completeness_violations(&t1, &t2, SemanticRelation::Equivalent, 1e-6);
        assert!(violations.iter().any(|v| v.contains("unmatched")));
    }

    #[test]
    fn invalid_mapping_degree_is_reported() {
        let (t1, t2) = pair();
        let mut e = ExplanationSet::new();
        // Left tuple 1 matched twice violates the ≡ cardinality.
        e.evidence.push(TupleMatch::new(1, 0, 0.9));
        e.evidence.push(TupleMatch::new(1, 1, 0.9));
        e.add_provenance(Side::Left, 0);
        e.add_provenance(Side::Left, 2);
        let violations = e.completeness_violations(&t1, &t2, SemanticRelation::Equivalent, 1e-6);
        assert!(violations.iter().any(|v| v.contains("matched 2 times")));
        // Under ⊒ (only right side limited) the same evidence passes the
        // degree check (though impacts may still be off).
        let v2 = e.completeness_violations(&t1, &t2, SemanticRelation::MoreGeneral, 1e-6);
        assert!(!v2.iter().any(|v| v.contains("left tuple 1 matched")));
    }

    #[test]
    fn evidence_on_removed_tuples_is_flagged() {
        let (t1, t2) = pair();
        let mut e = ExplanationSet::new();
        e.evidence.push(TupleMatch::new(2, 1, 0.5));
        e.add_provenance(Side::Left, 2);
        let violations = e.completeness_violations(&t1, &t2, SemanticRelation::Equivalent, 1e-6);
        assert!(violations.iter().any(|v| v.contains("removed left tuple 2")));
    }

    #[test]
    fn merge_and_normalise() {
        let mut a = ExplanationSet::new();
        a.add_provenance(Side::Right, 5);
        let mut b = ExplanationSet::new();
        b.add_provenance(Side::Left, 1);
        b.add_value(Side::Left, 0, 1.0, 0.0);
        b.evidence.push(TupleMatch::new(0, 0, 0.8));
        a.merge(b);
        a.normalise();
        assert_eq!(a.len(), 3);
        assert_eq!(a.provenance[0].side, Side::Left);
        assert_eq!(a.evidence.len(), 1);
    }

    #[test]
    fn render_mentions_key_values() {
        let (t1, t2) = pair();
        let mut e = ExplanationSet::new();
        e.add_provenance(Side::Left, 2);
        e.add_value(Side::Right, 1, 1.0, 2.0);
        let text = e.render(&t1, &t2);
        assert!(text.contains("Design"));
        assert!(text.contains("CSE"));
        assert!(text.contains("↦"));
    }
}
