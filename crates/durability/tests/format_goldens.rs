//! Format goldens: a committed `E3DSNAP2` snapshot and `E3DWAL02` WAL of a
//! small fixed session must keep decoding to exactly the session they were
//! written from. The files under `tests/golden/` are never regenerated by
//! the test suite — a codec change that moves a byte fails here instead of
//! silently orphaning data directories written by an earlier build.
//!
//! The snapshot's config was written with the (since removed) pair-score
//! cache cap and MILP incumbent hint set, so the files also pin that the
//! decoder still skips those slots of the `E3DSNAP2` layout.

use explain3d_core::prelude::{
    AttributeMatch, AttributeMatches, CanonicalRelation, CanonicalTuple, PartitioningStrategy, Side,
};
use explain3d_durability::snapshot::SNAPSHOT_MAGIC;
use explain3d_durability::wal::WAL_MAGIC;
use explain3d_durability::{load_snapshot, read_wal};
use explain3d_incremental::TupleOp;
use explain3d_linkage::StringMetric;
use explain3d_relation::prelude::{Aggregate, Row, Schema, Value, ValueType};
use std::path::PathBuf;
use std::time::Duration;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(name)
}

fn tuple(id: usize, key: &str, impact: f64, members: &[usize], rest: Vec<Value>) -> CanonicalTuple {
    let mut representative = vec![Value::str(key)];
    representative.extend(rest);
    CanonicalTuple {
        id,
        key: vec![Value::str(key)],
        impact,
        members: members.to_vec(),
        representative: Row::new(representative),
    }
}

/// The left relation as of seq 2 (after both logged deltas).
fn left_at_seq2() -> CanonicalRelation {
    CanonicalRelation {
        query_name: "Q1".to_string(),
        schema: Schema::from_pairs(&[
            ("program", ValueType::Str),
            ("year", ValueType::Int),
            ("score", ValueType::Float),
        ]),
        key_attrs: vec!["program".to_string()],
        tuples: vec![
            tuple(0, "Computer Science", 2.0, &[0, 3], vec![Value::Int(1999), Value::Float(3.5)]),
            tuple(1, "Electrical Eng", 1.25, &[2], vec![Value::Int(-7), Value::Null]),
            tuple(2, "Art", 0.1, &[], vec![Value::Null, Value::Float(-0.0)]),
        ],
        aggregate: Some(Aggregate::Count),
    }
}

/// The right relation as of seq 2.
fn right_at_seq2() -> CanonicalRelation {
    CanonicalRelation {
        query_name: "Q2".to_string(),
        schema: Schema::from_pairs(&[("dept", ValueType::Str), ("since", ValueType::Int)]),
        key_attrs: vec!["dept".to_string()],
        tuples: vec![
            tuple(0, "CSE", 3.0, &[0], vec![Value::Int(1999)]),
            tuple(1, "Design", -0.0, &[1, 2], vec![Value::Int(2001)]),
        ],
        aggregate: Some(Aggregate::Count),
    }
}

/// Exact value equality: same variant and same bits (so `Int(2)` differs
/// from `Float(2.0)` and `0.0` from `-0.0`).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn assert_same_tuple(got: &CanonicalTuple, want: &CanonicalTuple, what: &str) {
    assert_eq!(got.id, want.id, "{what}: id");
    assert_eq!(got.impact.to_bits(), want.impact.to_bits(), "{what}: impact bits");
    assert_eq!(got.members, want.members, "{what}: members");
    assert_eq!(got.key.len(), want.key.len(), "{what}: key arity");
    for (g, w) in got.key.iter().zip(&want.key) {
        assert!(same_value(g, w), "{what}: key {g:?} != {w:?}");
    }
    let (g, w) = (got.representative.values(), want.representative.values());
    assert_eq!(g.len(), w.len(), "{what}: representative arity");
    for (g, w) in g.iter().zip(w) {
        assert!(same_value(g, w), "{what}: representative {g:?} != {w:?}");
    }
}

fn assert_same_relation(got: &CanonicalRelation, want: &CanonicalRelation) {
    assert_eq!(got.query_name, want.query_name);
    assert_eq!(got.schema, want.schema);
    assert_eq!(got.key_attrs, want.key_attrs);
    assert_eq!(got.aggregate, want.aggregate);
    assert_eq!(got.tuples.len(), want.tuples.len(), "{}: tuple count", want.query_name);
    for (i, (g, w)) in got.tuples.iter().zip(&want.tuples).enumerate() {
        assert_same_tuple(g, w, &format!("{} tuple {i}", want.query_name));
    }
}

#[test]
fn snapshot_golden_decodes_to_the_fixed_session() {
    let path = golden("session.snap");
    let bytes = std::fs::read(&path).expect("golden snapshot is committed");
    assert_eq!(bytes[..8], SNAPSHOT_MAGIC);
    assert_eq!(&SNAPSHOT_MAGIC, b"E3DSNAP2");
    let snap = load_snapshot(&path).expect("golden snapshot decodes").expect("file exists");

    assert_eq!(snap.seq, 2);
    assert!(snap.explained);
    assert_eq!(snap.last_deadline, Some(Duration::from_millis(250)));
    assert_eq!(snap.retry_window, vec![("req-a".to_string(), 1), ("req-b".to_string(), 2)]);
    assert_eq!(
        snap.matches,
        AttributeMatches::new(vec![
            AttributeMatch::equivalent("program", "dept"),
            AttributeMatch::less_general("year", "since"),
        ])
    );
    assert_same_relation(&snap.left, &left_at_seq2());
    assert_same_relation(&snap.right, &right_at_seq2());

    let c = &snap.config;
    assert_eq!(c.explain.params.alpha.to_bits(), 0.25f64.to_bits());
    assert_eq!(c.explain.params.beta.to_bits(), 0.5f64.to_bits());
    assert_eq!(c.explain.params.prob_floor.to_bits(), 1e-6f64.to_bits());
    assert_eq!(c.explain.strategy, PartitioningStrategy::Smart { batch_size: 7 });
    assert_eq!(c.explain.milp.max_nodes, 321);
    assert_eq!(c.explain.milp.deadline, Some(Duration::from_millis(40)));
    assert_eq!(c.explain.threads, Some(2));
    assert_eq!(c.mapping.metric, StringMetric::JaroWinkler);
    assert_eq!(c.mapping.min_similarity.to_bits(), 0.42f64.to_bits());
    assert!(!c.mapping.use_blocking);
    assert_eq!(c.mapping.sample_every, 5);
}

#[test]
fn wal_golden_decodes_to_the_fixed_deltas() {
    let path = golden("session.wal");
    let bytes = std::fs::read(&path).expect("golden WAL is committed");
    assert_eq!(bytes[..8], WAL_MAGIC);
    assert_eq!(&WAL_MAGIC, b"E3DWAL02");
    let wal = read_wal(&path).expect("golden WAL reads");
    assert!(!wal.tail_discarded, "the golden WAL has no torn tail");
    assert_eq!(wal.valid_len, bytes.len() as u64);
    assert_eq!(wal.records.len(), 2);

    let first = &wal.records[0];
    assert_eq!(first.seq, 1);
    assert_eq!(first.deadline, Some(Duration::from_millis(250)));
    assert_eq!(first.request_id.as_deref(), Some("req-a"));
    assert_eq!(first.delta.ops.len(), 2);
    match &first.delta.ops[0] {
        TupleOp::Update { side: Side::Right, index: 0, tuple: t } => assert_same_tuple(
            t,
            &tuple(0, "CSE", 3.0, &[0], vec![Value::Int(1999)]),
            "seq 1 update",
        ),
        other => panic!("seq 1 op 0: {other:?}"),
    }
    match &first.delta.ops[1] {
        TupleOp::Insert { side: Side::Left, tuple: t } => assert_same_tuple(
            t,
            &tuple(0, "Art", 0.1, &[], vec![Value::Null, Value::Float(-0.0)]),
            "seq 1 insert",
        ),
        other => panic!("seq 1 op 1: {other:?}"),
    }

    let second = &wal.records[1];
    assert_eq!(second.seq, 2);
    assert_eq!(second.deadline, None);
    assert_eq!(second.request_id.as_deref(), Some("req-b"));
    assert_eq!(second.delta.ops.len(), 1);
    assert!(matches!(second.delta.ops[0], TupleOp::Delete { side: Side::Left, index: 1 }));
}
