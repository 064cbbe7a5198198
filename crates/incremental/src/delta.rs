//! Relation deltas: the edit language of [`crate::ExplainSession::re_explain`].
//!
//! A [`RelationDelta`] is an ordered list of tuple operations against the
//! two canonical relations of a session. Operations are applied
//! sequentially, each interpreted against the relation state *at the time
//! it is applied* (so a `Delete { index: 3 }` followed by another
//! `Delete { index: 3 }` removes two adjacent tuples). Application tracks,
//! per side,
//!
//! * the **index map** from pre-delta tuple indices to post-delta indices
//!   (`None` for deleted or replaced tuples), and
//! * per post-delta tuple, a **dirty flag** — `true` for inserted tuples
//!   and for updates that change the representative row, whose pairs must
//!   be re-scored.
//!
//! An update whose replacement has exactly the same representative row (a
//! value correction: same tuple, new impact) is *not* a replacement: pair
//! similarities are a pure function of the representative rows, so the
//! tuple keeps its index-map entry and dirty flag and its candidates carry
//! over. "Exactly" is per value variant and bit pattern — `Int(2)` versus
//! `Float(2.0)`, or `0.0` versus `-0.0`, still count as changes.
//!
//! Surviving untouched tuples keep their relative order (inserts append,
//! deletes shift), so the index maps are monotone — the property that lets
//! the session carry sorted candidate lists across a delta without
//! re-sorting.

use explain3d_core::prelude::{CanonicalRelation, CanonicalTuple, Side};
use explain3d_relation::prelude::{Row, Value};
use std::fmt;

/// One tuple edit against a canonical relation.
#[derive(Debug, Clone)]
pub enum TupleOp {
    /// Appends a tuple to the given side.
    Insert {
        /// Which relation the tuple joins.
        side: Side,
        /// The new canonical tuple (its `id` is reassigned on application).
        tuple: CanonicalTuple,
    },
    /// Replaces the tuple at `index` (current state) on the given side.
    Update {
        /// Which relation is edited.
        side: Side,
        /// Index of the tuple to replace, in the relation state reached by
        /// the preceding operations.
        index: usize,
        /// The replacement tuple.
        tuple: CanonicalTuple,
    },
    /// Removes the tuple at `index` (current state) on the given side.
    Delete {
        /// Which relation is edited.
        side: Side,
        /// Index of the tuple to remove, in the relation state reached by
        /// the preceding operations.
        index: usize,
    },
}

/// An ordered batch of tuple edits.
#[derive(Debug, Clone, Default)]
pub struct RelationDelta {
    /// The operations, applied in order.
    pub ops: Vec<TupleOp>,
}

impl RelationDelta {
    /// An empty delta.
    pub fn new() -> Self {
        RelationDelta::default()
    }

    /// True when the delta contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends an insert.
    pub fn insert(mut self, side: Side, tuple: CanonicalTuple) -> Self {
        self.ops.push(TupleOp::Insert { side, tuple });
        self
    }

    /// Appends an update.
    pub fn update(mut self, side: Side, index: usize, tuple: CanonicalTuple) -> Self {
        self.ops.push(TupleOp::Update { side, index, tuple });
        self
    }

    /// Appends a delete.
    pub fn delete(mut self, side: Side, index: usize) -> Self {
        self.ops.push(TupleOp::Delete { side, index });
        self
    }
}

/// A delta operation referenced a tuple index that does not exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaError {
    /// Which side the bad operation addressed.
    pub side: Side,
    /// The out-of-range index.
    pub index: usize,
    /// The relation length at the time the operation was applied.
    pub len: usize,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delta references tuple {} of the {:?} relation, which has {} tuples at that point",
            self.index, self.side, self.len
        )
    }
}

impl std::error::Error for DeltaError {}

/// Per-side application result: the index map and the dirty flags.
#[derive(Debug, Clone, Default)]
pub struct SideTrace {
    /// `old index → new index` for surviving tuples whose representative
    /// row is unchanged (untouched, or updated with an exactly equal row);
    /// `None` for deleted or replaced ones. Monotone over the `Some`
    /// entries.
    pub index_map: Vec<Option<usize>>,
    /// Per post-delta tuple: `true` when inserted by the delta or updated
    /// to a different representative row — the tuples whose pairs must be
    /// re-scored.
    pub dirty: Vec<bool>,
}

impl SideTrace {
    /// Number of dirty (inserted or row-changing updated) post-delta tuples.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }
}

/// Applies a delta to the pair of canonical relations in place, returning
/// the per-side traces. On error the relations are left **unmodified**.
pub fn apply_delta(
    left: &mut CanonicalRelation,
    right: &mut CanonicalRelation,
    delta: &RelationDelta,
) -> Result<(SideTrace, SideTrace), DeltaError> {
    // Work on tracked copies so a failing op cannot half-apply.
    struct Tracked {
        tuple: CanonicalTuple,
        origin: Option<usize>,
        dirty: bool,
    }
    let mut sides: [Vec<Tracked>; 2] = [
        left.tuples
            .iter()
            .enumerate()
            .map(|(i, t)| Tracked { tuple: t.clone(), origin: Some(i), dirty: false })
            .collect(),
        right
            .tuples
            .iter()
            .enumerate()
            .map(|(i, t)| Tracked { tuple: t.clone(), origin: Some(i), dirty: false })
            .collect(),
    ];
    let slot = |side: Side| match side {
        Side::Left => 0usize,
        Side::Right => 1usize,
    };
    for op in &delta.ops {
        match op {
            TupleOp::Insert { side, tuple } => {
                sides[slot(*side)].push(Tracked {
                    tuple: tuple.clone(),
                    origin: None,
                    dirty: true,
                });
            }
            TupleOp::Update { side, index, tuple } => {
                let entries = &mut sides[slot(*side)];
                if *index >= entries.len() {
                    return Err(DeltaError { side: *side, index: *index, len: entries.len() });
                }
                let entry = &mut entries[*index];
                if same_row(&entry.tuple.representative, &tuple.representative) {
                    // Similarities cannot change: keep origin and dirty flag
                    // so the entry's candidates carry over.
                    entry.tuple = tuple.clone();
                } else {
                    *entry = Tracked { tuple: tuple.clone(), origin: None, dirty: true };
                }
            }
            TupleOp::Delete { side, index } => {
                let entries = &mut sides[slot(*side)];
                if *index >= entries.len() {
                    return Err(DeltaError { side: *side, index: *index, len: entries.len() });
                }
                entries.remove(*index);
            }
        }
    }

    let [tracked_left, tracked_right] = sides;
    let commit = |relation: &mut CanonicalRelation, tracked: Vec<Tracked>| -> SideTrace {
        let mut trace = SideTrace {
            index_map: vec![None; relation.tuples.len()],
            dirty: Vec::with_capacity(tracked.len()),
        };
        relation.tuples.clear();
        for (new_idx, entry) in tracked.into_iter().enumerate() {
            if let Some(old) = entry.origin {
                trace.index_map[old] = Some(new_idx);
            }
            trace.dirty.push(entry.dirty);
            let mut tuple = entry.tuple;
            tuple.id = new_idx;
            relation.tuples.push(tuple);
        }
        trace
    };
    let lt = commit(left, tracked_left);
    let rt = commit(right, tracked_right);
    Ok((lt, rt))
}

/// Exact row equality: same arity and, per value, the same variant and
/// bits (`Int` by `i64`, `Float` by `to_bits`, `Str` by bytes). Unlike
/// `Value`'s `PartialEq`, `Int(2)` and `Float(2.0)` differ here.
fn same_row(a: &Row, b: &Row) -> bool {
    let (a, b) = (a.values(), b.values());
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Value::Null, Value::Null) => true,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain3d_relation::prelude::{Row, Schema, Value, ValueType};

    fn tuple(key: &str, impact: f64) -> CanonicalTuple {
        CanonicalTuple {
            id: 0,
            key: vec![Value::str(key)],
            impact,
            members: vec![],
            representative: Row::new(vec![Value::str(key)]),
        }
    }

    fn relation(keys: &[&str]) -> CanonicalRelation {
        CanonicalRelation {
            query_name: "Q".to_string(),
            schema: Schema::from_pairs(&[("k", ValueType::Str)]),
            key_attrs: vec!["k".to_string()],
            tuples: keys
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    let mut t = tuple(k, 1.0);
                    t.id = i;
                    t
                })
                .collect(),
            aggregate: None,
        }
    }

    #[test]
    fn inserts_append_and_are_dirty() {
        let mut l = relation(&["a", "b"]);
        let mut r = relation(&["x"]);
        let delta = RelationDelta::new().insert(Side::Left, tuple("c", 2.0));
        let (lt, rt) = apply_delta(&mut l, &mut r, &delta).unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.tuples[2].key, vec![Value::str("c")]);
        assert_eq!(l.tuples[2].id, 2);
        assert_eq!(lt.index_map, vec![Some(0), Some(1)]);
        assert_eq!(lt.dirty, vec![false, false, true]);
        assert_eq!(rt.index_map, vec![Some(0)]);
        assert_eq!(rt.dirty_count(), 0);
    }

    #[test]
    fn deletes_shift_monotonically() {
        let mut l = relation(&["a", "b", "c", "d"]);
        let mut r = relation(&[]);
        let delta = RelationDelta::new().delete(Side::Left, 1).delete(Side::Left, 1);
        // Removes "b" then (shifted) "c".
        let (lt, _) = apply_delta(&mut l, &mut r, &delta).unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(l.tuples[1].key, vec![Value::str("d")]);
        assert_eq!(lt.index_map, vec![Some(0), None, None, Some(1)]);
        assert_eq!(lt.dirty, vec![false, false]);
        // Ids are re-densified.
        assert_eq!(l.tuples[1].id, 1);
    }

    #[test]
    fn updates_replace_in_place() {
        let mut l = relation(&["a", "b"]);
        let mut r = relation(&["x"]);
        let delta = RelationDelta::new().update(Side::Right, 0, tuple("y", 3.0));
        let (lt, rt) = apply_delta(&mut l, &mut r, &delta).unwrap();
        assert_eq!(r.tuples[0].key, vec![Value::str("y")]);
        assert_eq!(r.tuples[0].impact, 3.0);
        // The replaced slot maps to None: the old tuple's candidates must
        // not be carried over.
        assert_eq!(rt.index_map, vec![None]);
        assert_eq!(rt.dirty, vec![true]);
        assert_eq!(lt.dirty_count(), 0);
    }

    #[test]
    fn out_of_range_ops_leave_relations_untouched() {
        let mut l = relation(&["a"]);
        let mut r = relation(&["x"]);
        let delta = RelationDelta::new().insert(Side::Left, tuple("b", 1.0)).delete(Side::Right, 5);
        let err = apply_delta(&mut l, &mut r, &delta).unwrap_err();
        assert_eq!(err.index, 5);
        assert_eq!(err.len, 1);
        assert!(err.to_string().contains("tuple 5"));
        // The earlier insert of the same failing delta was rolled back too.
        assert_eq!(l.len(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn mixed_sequence_keeps_traces_consistent() {
        let mut l = relation(&["a", "b", "c"]);
        let mut r = relation(&["x", "y"]);
        let delta = RelationDelta::new()
            .delete(Side::Left, 0)
            .insert(Side::Left, tuple("d", 1.0))
            .update(Side::Left, 0, tuple("B", 2.0))
            .insert(Side::Right, tuple("z", 1.0));
        let (lt, rt) = apply_delta(&mut l, &mut r, &delta).unwrap();
        // Left: delete a → [b, c]; insert d → [b, c, d]; update 0 → [B, c, d].
        assert_eq!(l.len(), 3);
        assert_eq!(l.tuples[0].key, vec![Value::str("B")]);
        assert_eq!(lt.index_map, vec![None, None, Some(1)]);
        assert_eq!(lt.dirty, vec![true, false, true]);
        // Survivor order is monotone.
        let survivors: Vec<usize> = lt.index_map.iter().flatten().copied().collect();
        let mut sorted = survivors.clone();
        sorted.sort_unstable();
        assert_eq!(survivors, sorted);
        assert_eq!(rt.index_map, vec![Some(0), Some(1)]);
        assert_eq!(rt.dirty, vec![false, false, true]);
    }

    fn with_row(impact: f64, values: Vec<Value>) -> CanonicalTuple {
        CanonicalTuple {
            id: 0,
            key: vec![values[0].clone()],
            impact,
            members: vec![],
            representative: Row::new(values),
        }
    }

    #[test]
    fn impact_only_update_keeps_its_candidates() {
        let mut l = relation(&["a", "b"]);
        let mut r = relation(&["x"]);
        let delta = RelationDelta::new().update(Side::Left, 1, tuple("b", 5.0));
        let (lt, _) = apply_delta(&mut l, &mut r, &delta).unwrap();
        assert_eq!(l.tuples[1].impact, 5.0);
        assert_eq!(l.tuples[1].id, 1);
        assert_eq!(lt.index_map, vec![Some(0), Some(1)]);
        assert_eq!(lt.dirty, vec![false, false]);
    }

    #[test]
    fn inexact_row_matches_stay_dirty() {
        for (old, new) in [
            (Value::Int(2), Value::Float(2.0)),
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::str("design"), Value::str("Design")),
            (Value::Null, Value::str("")),
        ] {
            let mut l = relation(&[]);
            l.tuples.push(with_row(1.0, vec![Value::str("k"), old.clone()]));
            let mut r = relation(&[]);
            let delta = RelationDelta::new().update(
                Side::Left,
                0,
                with_row(2.0, vec![Value::str("k"), new]),
            );
            let (lt, _) = apply_delta(&mut l, &mut r, &delta).unwrap();
            assert_eq!(lt.index_map, vec![None], "{old:?}");
            assert_eq!(lt.dirty, vec![true], "{old:?}");
        }
    }

    #[test]
    fn updating_a_tuple_inserted_by_the_same_delta_stays_dirty() {
        let mut l = relation(&["a"]);
        let mut r = relation(&[]);
        let delta = RelationDelta::new().insert(Side::Left, tuple("c", 1.0)).update(
            Side::Left,
            1,
            tuple("c", 4.0),
        );
        let (lt, _) = apply_delta(&mut l, &mut r, &delta).unwrap();
        assert_eq!(l.tuples[1].impact, 4.0);
        assert_eq!(lt.index_map, vec![Some(0)]);
        assert_eq!(lt.dirty, vec![false, true]);
    }
}
