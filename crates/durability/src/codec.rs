//! The binary codec shared by the WAL and the snapshot files.
//!
//! Everything durable is serialised through [`Enc`]/[`Dec`]: little-endian
//! fixed-width integers, floats as IEEE-754 bit patterns (so a round trip
//! is *bit*-identical — the fingerprint invariant tolerates no `-0.0` or
//! NaN-payload drift), and length-prefixed UTF-8 strings. Decoding never
//! panics on arbitrary bytes: every read is bounds-checked and every enum
//! tag validated, returning [`CodecError`] — the WAL reader turns those
//! into "the tail is torn, stop here" and the snapshot loader into a
//! corruption error.
//!
//! The integrity checksum is CRC-32 (IEEE, reflected polynomial
//! `0xEDB88320`), computed over the record payload.

use explain3d_core::prelude::{
    AttributeMatch, AttributeMatches, CanonicalRelation, CanonicalTuple, Explain3DConfig,
    MappingOptions, PartitioningStrategy, ProbabilityParams, SemanticRelation, Side,
};
use explain3d_incremental::{RelationDelta, SessionConfig, TupleOp};
use explain3d_linkage::StringMetric;
use explain3d_milp::prelude::MilpConfig;
use explain3d_relation::prelude::{Aggregate, Column, Row, Schema, Value, ValueType};
use std::fmt;
use std::time::Duration;

/// A decode failure: the bytes do not describe a valid object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the object did.
    Truncated,
    /// A tag, length, or value was out of range.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("truncated input"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        // lint:allow(panic-free-wire): const-evaluated — `i < 256` is the
        // loop bound, and an out-of-range index here would be a compile
        // error, not a runtime panic on attacker bytes.
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        // lint:allow(panic-free-wire): the index is masked to 8 bits against
        // a 256-entry table — in range for every input byte.
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// A growing byte buffer with typed little-endian appends.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends an optional length-prefixed string (presence byte + value).
    pub fn opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }

    /// Appends an optional u64 (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    /// Appends an optional f64.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }

    /// Appends an optional duration as whole nanoseconds (saturating at
    /// `u64::MAX` ≈ 584 years).
    pub fn opt_duration(&mut self, v: Option<Duration>) {
        self.opt_u64(v.map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)));
    }
}

/// A bounds-checked cursor over encoded bytes.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// [`take`](Dec::take) with a compile-time length, as an array.
    fn take_n<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.take(N)?.try_into().map_err(|_| CodecError::Truncated)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_n()?))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_n()?))
    }

    /// Reads a u64 narrowed to usize.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take_n()?))
    }

    /// Reads an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool tag")),
        }
    }

    /// Reads a length-prefixed UTF-8 string. The length is validated
    /// against the remaining bytes *before* allocating, so a corrupt
    /// length cannot trigger a huge allocation.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.usize()?;
        if len > self.buf.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| CodecError::Invalid("non-UTF-8 string"))
    }

    /// Reads an optional length-prefixed string.
    pub fn opt_str(&mut self) -> Result<Option<String>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }

    /// Reads an optional u64.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }

    /// Reads an optional f64.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }

    /// Reads an optional duration stored as whole nanoseconds.
    pub fn opt_duration(&mut self) -> Result<Option<Duration>, CodecError> {
        Ok(self.opt_u64()?.map(Duration::from_nanos))
    }

    /// Reads a collection length and validates it against a per-element
    /// lower bound so corrupt lengths fail fast instead of allocating.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if len > remaining / min_elem_bytes.max(1) {
            return Err(CodecError::Truncated);
        }
        Ok(len)
    }
}

// ---------------------------------------------------------------------------
// Typed encoders/decoders for the durable object graph.
// ---------------------------------------------------------------------------

fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Int(i) => {
            e.u8(1);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(2);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(3);
            e.str(s);
        }
        Value::Bool(b) => {
            e.u8(4);
            e.bool(*b);
        }
    }
}

fn dec_value(d: &mut Dec<'_>) -> Result<Value, CodecError> {
    Ok(match d.u8()? {
        0 => Value::Null,
        1 => Value::Int(d.i64()?),
        2 => Value::Float(d.f64()?),
        3 => Value::Str(d.str()?),
        4 => Value::Bool(d.bool()?),
        _ => return Err(CodecError::Invalid("value tag")),
    })
}

fn enc_value_type(e: &mut Enc, t: ValueType) {
    e.u8(match t {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Str => 2,
        ValueType::Bool => 3,
        ValueType::Unknown => 4,
    });
}

fn dec_value_type(d: &mut Dec<'_>) -> Result<ValueType, CodecError> {
    Ok(match d.u8()? {
        0 => ValueType::Int,
        1 => ValueType::Float,
        2 => ValueType::Str,
        3 => ValueType::Bool,
        4 => ValueType::Unknown,
        _ => return Err(CodecError::Invalid("value-type tag")),
    })
}

fn enc_values(e: &mut Enc, values: &[Value]) {
    e.usize(values.len());
    for v in values {
        enc_value(e, v);
    }
}

fn dec_values(d: &mut Dec<'_>) -> Result<Vec<Value>, CodecError> {
    let n = d.len(1)?;
    (0..n).map(|_| dec_value(d)).collect()
}

fn enc_strings(e: &mut Enc, strings: &[String]) {
    e.usize(strings.len());
    for s in strings {
        e.str(s);
    }
}

fn dec_strings(d: &mut Dec<'_>) -> Result<Vec<String>, CodecError> {
    let n = d.len(8)?;
    (0..n).map(|_| d.str()).collect()
}

fn enc_side(e: &mut Enc, side: Side) {
    e.u8(match side {
        Side::Left => 0,
        Side::Right => 1,
    });
}

fn dec_side(d: &mut Dec<'_>) -> Result<Side, CodecError> {
    Ok(match d.u8()? {
        0 => Side::Left,
        1 => Side::Right,
        _ => return Err(CodecError::Invalid("side tag")),
    })
}

fn enc_tuple(e: &mut Enc, t: &CanonicalTuple) {
    e.usize(t.id);
    enc_values(e, &t.key);
    e.f64(t.impact);
    e.usize(t.members.len());
    for &m in &t.members {
        e.usize(m);
    }
    enc_values(e, t.representative.values());
}

fn dec_tuple(d: &mut Dec<'_>) -> Result<CanonicalTuple, CodecError> {
    let id = d.usize()?;
    let key = dec_values(d)?;
    let impact = d.f64()?;
    let n = d.len(8)?;
    let members = (0..n).map(|_| d.usize()).collect::<Result<Vec<_>, _>>()?;
    let representative = Row::new(dec_values(d)?);
    Ok(CanonicalTuple { id, key, impact, members, representative })
}

/// Encodes a canonical relation (schema, key attributes, tuples, aggregate).
pub fn enc_relation(e: &mut Enc, r: &CanonicalRelation) {
    e.str(&r.query_name);
    e.usize(r.schema.columns().len());
    for c in r.schema.columns() {
        e.str(&c.name);
        enc_value_type(e, c.ty);
    }
    enc_strings(e, &r.key_attrs);
    match r.aggregate {
        None => e.u8(0),
        Some(Aggregate::Count) => e.u8(1),
        Some(Aggregate::Sum) => e.u8(2),
        Some(Aggregate::Avg) => e.u8(3),
        Some(Aggregate::Max) => e.u8(4),
        Some(Aggregate::Min) => e.u8(5),
    }
    e.usize(r.tuples.len());
    for t in &r.tuples {
        enc_tuple(e, t);
    }
}

/// Decodes a canonical relation.
pub fn dec_relation(d: &mut Dec<'_>) -> Result<CanonicalRelation, CodecError> {
    let query_name = d.str()?;
    let ncols = d.len(9)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = d.str()?;
        let ty = dec_value_type(d)?;
        columns.push(Column::new(name, ty));
    }
    let key_attrs = dec_strings(d)?;
    let aggregate = match d.u8()? {
        0 => None,
        1 => Some(Aggregate::Count),
        2 => Some(Aggregate::Sum),
        3 => Some(Aggregate::Avg),
        4 => Some(Aggregate::Max),
        5 => Some(Aggregate::Min),
        _ => return Err(CodecError::Invalid("aggregate tag")),
    };
    let ntuples = d.len(8)?;
    let tuples = (0..ntuples).map(|_| dec_tuple(d)).collect::<Result<Vec<_>, _>>()?;
    Ok(CanonicalRelation { query_name, schema: Schema::new(columns), key_attrs, tuples, aggregate })
}

/// Encodes the attribute matches.
pub fn enc_matches(e: &mut Enc, m: &AttributeMatches) {
    e.usize(m.matches().len());
    for am in m.matches() {
        enc_strings(e, &am.left);
        enc_strings(e, &am.right);
        e.u8(match am.relation {
            SemanticRelation::Equivalent => 0,
            SemanticRelation::LessGeneral => 1,
            SemanticRelation::MoreGeneral => 2,
        });
    }
}

/// Decodes the attribute matches.
pub fn dec_matches(d: &mut Dec<'_>) -> Result<AttributeMatches, CodecError> {
    let n = d.len(17)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let left = dec_strings(d)?;
        let right = dec_strings(d)?;
        let relation = match d.u8()? {
            0 => SemanticRelation::Equivalent,
            1 => SemanticRelation::LessGeneral,
            2 => SemanticRelation::MoreGeneral,
            _ => return Err(CodecError::Invalid("relation tag")),
        };
        out.push(AttributeMatch { left, right, relation });
    }
    Ok(AttributeMatches::new(out))
}

/// Encodes a session configuration.
///
/// Every field that changes the deterministic output of an explain run is
/// persisted bit-exactly. The `E3DSNAP2` layout also keeps the slots of
/// removed settings, each written as the setting's old default:
///
/// - the MILP wall-clock time limit (`None`), integrality tolerance
///   (`1e-6`), optimality gap (`1e-7`), incumbent hint (`None`),
///   basis-export flag (`false`) and LP-kernel tag (`0`, sparse);
/// - the parallel flag, written as `threads != Some(1)`;
/// - the session warm-start flag (`false`) and the pair-score cache cap
///   (`None`).
///
/// [`dec_session_config`] reads and discards them (a stored
/// `parallel = false` decodes as `threads = Some(1)`), so snapshots
/// written with those settings still decode.
pub fn enc_session_config(e: &mut Enc, c: &SessionConfig) {
    let ProbabilityParams { alpha, beta, prob_floor } = c.explain.params;
    e.f64(alpha);
    e.f64(beta);
    e.f64(prob_floor);
    match c.explain.strategy {
        PartitioningStrategy::None => e.u8(0),
        PartitioningStrategy::ConnectedComponents => e.u8(1),
        PartitioningStrategy::Smart { batch_size } => {
            e.u8(2);
            e.usize(batch_size);
        }
    }
    let m = &c.explain.milp;
    e.usize(m.max_nodes);
    e.opt_duration(m.deadline);
    // Removed settings, written as their old defaults: wall-clock time
    // limit, integrality and gap tolerances, incumbent hint, basis-export
    // flag and LP-kernel tag (sparse).
    e.opt_duration(None);
    e.f64(1e-6);
    e.f64(1e-7);
    e.opt_f64(None);
    e.bool(false);
    e.u8(0);
    e.bool(m.warm_start);
    e.bool(c.explain.threads != Some(1)); // removed parallel flag
    e.opt_u64(c.explain.threads.map(|t| t as u64));
    e.u8(match c.mapping.metric {
        StringMetric::Jaccard => 0,
        StringMetric::Jaro => 1,
        StringMetric::JaroWinkler => 2,
    });
    e.f64(c.mapping.min_similarity);
    e.bool(c.mapping.use_blocking);
    e.usize(c.mapping.sample_every);
    e.bool(false); // removed warm-start flag: slot kept in the E3DSNAP2 layout
    e.opt_u64(None); // removed pair-score cache cap: slot kept in the E3DSNAP2 layout
}

/// Decodes a session configuration.
pub fn dec_session_config(d: &mut Dec<'_>) -> Result<SessionConfig, CodecError> {
    let alpha = d.f64()?;
    let beta = d.f64()?;
    let prob_floor = d.f64()?;
    let strategy = match d.u8()? {
        0 => PartitioningStrategy::None,
        1 => PartitioningStrategy::ConnectedComponents,
        2 => PartitioningStrategy::Smart { batch_size: d.usize()? },
        _ => return Err(CodecError::Invalid("strategy tag")),
    };
    let max_nodes = d.usize()?;
    let deadline = d.opt_duration()?;
    // Removed settings, read and discarded: wall-clock time limit,
    // integrality and gap tolerances, incumbent hint, basis-export flag
    // and LP-kernel tag.
    d.opt_duration()?;
    d.f64()?;
    d.f64()?;
    d.opt_f64()?;
    d.bool()?;
    if d.u8()? > 1 {
        return Err(CodecError::Invalid("lp-kernel tag"));
    }
    let milp = MilpConfig { max_nodes, deadline, warm_start: d.bool()? };
    let parallel = d.bool()?;
    let threads = d
        .opt_u64()?
        .map(|t| usize::try_from(t).map_err(|_| CodecError::Invalid("threads overflow")))
        .transpose()?;
    // A session stored with the removed parallel flag off ran sequentially.
    let threads = if parallel { threads } else { Some(1) };
    let metric = match d.u8()? {
        0 => StringMetric::Jaccard,
        1 => StringMetric::Jaro,
        2 => StringMetric::JaroWinkler,
        _ => return Err(CodecError::Invalid("metric tag")),
    };
    let mapping = MappingOptions {
        metric,
        min_similarity: d.f64()?,
        use_blocking: d.bool()?,
        sample_every: d.usize()?,
    };
    d.bool()?; // removed warm-start flag: slot kept in the E3DSNAP2 layout
    d.opt_u64()?; // removed pair-score cache cap: slot kept in the E3DSNAP2 layout
    Ok(SessionConfig {
        explain: Explain3DConfig {
            params: ProbabilityParams { alpha, beta, prob_floor },
            strategy,
            milp,
            threads,
        },
        mapping,
    })
}

/// Encodes a relation delta (its ordered tuple ops).
pub fn enc_delta(e: &mut Enc, delta: &RelationDelta) {
    e.usize(delta.ops.len());
    for op in &delta.ops {
        match op {
            TupleOp::Insert { side, tuple } => {
                e.u8(0);
                enc_side(e, *side);
                enc_tuple(e, tuple);
            }
            TupleOp::Update { side, index, tuple } => {
                e.u8(1);
                enc_side(e, *side);
                e.usize(*index);
                enc_tuple(e, tuple);
            }
            TupleOp::Delete { side, index } => {
                e.u8(2);
                enc_side(e, *side);
                e.usize(*index);
            }
        }
    }
}

/// Decodes a relation delta.
pub fn dec_delta(d: &mut Dec<'_>) -> Result<RelationDelta, CodecError> {
    let n = d.len(2)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(match d.u8()? {
            0 => TupleOp::Insert { side: dec_side(d)?, tuple: dec_tuple(d)? },
            1 => TupleOp::Update { side: dec_side(d)?, index: d.usize()?, tuple: dec_tuple(d)? },
            2 => TupleOp::Delete { side: dec_side(d)?, index: d.usize()? },
            _ => return Err(CodecError::Invalid("op tag")),
        });
    }
    Ok(RelationDelta { ops })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(key: &str, impact: f64) -> CanonicalTuple {
        CanonicalTuple {
            id: 3,
            key: vec![Value::str(key), Value::Int(-7), Value::Float(f64::NAN)],
            impact,
            members: vec![1, 4, 9],
            representative: Row::new(vec![Value::Null, Value::Bool(true)]),
        }
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // The canonical IEEE test vector plus degenerate inputs.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn relation_round_trips_bit_exactly() {
        let rel = CanonicalRelation {
            query_name: "Q1".into(),
            schema: Schema::from_pairs(&[("k", ValueType::Str), ("n", ValueType::Float)]),
            key_attrs: vec!["k".into()],
            tuples: vec![tuple("a", -0.0), tuple("b", 2.5)],
            aggregate: Some(Aggregate::Avg),
        };
        let mut e = Enc::new();
        enc_relation(&mut e, &rel);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_relation(&mut d).unwrap();
        assert!(d.finished());
        assert_eq!(back.query_name, rel.query_name);
        assert_eq!(back.key_attrs, rel.key_attrs);
        assert_eq!(back.aggregate, rel.aggregate);
        assert_eq!(back.schema, rel.schema);
        // Bit-exact float round trip, including -0.0 and NaN payloads.
        assert_eq!(back.tuples[0].impact.to_bits(), (-0.0f64).to_bits());
        for (a, b) in back.tuples.iter().zip(&rel.tuples) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.members, b.members);
            assert_eq!(a.representative, b.representative);
            assert_eq!(a.key.len(), b.key.len());
        }
        match (&back.tuples[0].key[2], &rel.tuples[0].key[2]) {
            (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
            _ => panic!("float key survived as a different type"),
        }
    }

    #[test]
    fn session_config_round_trips() {
        let mut config = SessionConfig::default();
        config.explain.strategy = PartitioningStrategy::Smart { batch_size: 77 };
        config.explain.milp.deadline = Some(Duration::from_millis(123));
        config.explain.threads = Some(3);
        config.mapping.metric = StringMetric::JaroWinkler;
        config.mapping.min_similarity = 0.42;
        let mut e = Enc::new();
        enc_session_config(&mut e, &config);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_session_config(&mut d).unwrap();
        assert!(d.finished());
        assert_eq!(back.explain.strategy, config.explain.strategy);
        assert_eq!(back.explain.milp.deadline, config.explain.milp.deadline);
        assert_eq!(back.explain.threads, config.explain.threads);
        assert_eq!(back.mapping.metric, config.mapping.metric);
        assert_eq!(back.mapping.min_similarity, config.mapping.min_similarity);
    }

    #[test]
    fn removed_config_slots_decode_when_set() {
        // A snapshot of a session written with every removed setting off
        // its default must still decode, and every kept field must survive.
        let mut config = SessionConfig::default();
        config.explain.strategy = PartitioningStrategy::Smart { batch_size: 77 };
        config.explain.milp.max_nodes = 4321;
        config.explain.milp.deadline = Some(Duration::from_millis(123));
        config.explain.milp.warm_start = false;
        config.explain.threads = Some(3);
        config.mapping.metric = StringMetric::Jaro;
        config.mapping.min_similarity = 0.42;
        config.mapping.use_blocking = false;
        config.mapping.sample_every = 9;
        let encode = |c: &SessionConfig| {
            let mut e = Enc::new();
            enc_session_config(&mut e, c);
            e.into_bytes()
        };
        let clean = encode(&config);
        // params (3 × 8), strategy (1 + 8), max_nodes (8) and deadline
        // (1 + 8) precede the removed MILP slots. Written as defaults they
        // span 20 bytes: time limit (1), two tolerances (2 × 8), incumbent
        // hint (1), basis-export flag (1) and LP-kernel tag (1).
        let retired = 24 + 9 + 8 + 9;
        let (export_slot, kernel_slot) = (retired + 18, retired + 19);
        assert_eq!(clean[retired..retired + 20], {
            let mut e = Enc::new();
            e.opt_duration(None);
            e.f64(1e-6);
            e.f64(1e-7);
            e.opt_f64(None);
            e.bool(false);
            e.u8(0);
            e.into_bytes()
        });
        // The parallel slot follows the warm-start flag; the session
        // warm-start slot precedes the one-byte `None` cap slot.
        let parallel_slot = retired + 21;
        let warm_slot = clean.len() - 2;
        assert_eq!(clean[parallel_slot], 1, "threads = Some(3) is written as parallel");
        for slot in [export_slot, parallel_slot, warm_slot] {
            // A non-bool byte is rejected as a bool tag, so `slot` is a
            // bool slot read by the decoder.
            let mut bad = clean.clone();
            bad[slot] = 2;
            let err = dec_session_config(&mut Dec::new(&bad)).unwrap_err();
            assert_eq!(err, CodecError::Invalid("bool tag"));
        }
        let mut bad = clean.clone();
        bad[kernel_slot] = 2;
        let err = dec_session_config(&mut Dec::new(&bad)).unwrap_err();
        assert_eq!(err, CodecError::Invalid("lp-kernel tag"));

        // Every removed slot set: a 5 s time limit, other tolerances, an
        // incumbent hint, basis export, the dense kernel and warm starts.
        let mut e = Enc::new();
        e.opt_duration(Some(Duration::from_secs(5)));
        e.f64(1e-3);
        e.f64(1e-4);
        e.opt_f64(Some(-3.25));
        e.bool(true);
        e.u8(1);
        let mut old = [&clean[..retired], &e.into_bytes(), &clean[retired + 20..]].concat();
        let last = old.len() - 2;
        old[last] = 1;
        let mut d = Dec::new(&old);
        let back = dec_session_config(&mut d).unwrap();
        assert!(d.finished());
        // The encoding is bit-exact, so re-encoding to the clean bytes
        // shows every kept field round-tripped and the removed slots are
        // written back as their defaults.
        assert_eq!(encode(&back), clean);

        // A session stored with parallel solving off ran on one thread.
        let parallel_at = parallel_slot + old.len() - clean.len();
        old[parallel_at] = 0;
        let back = dec_session_config(&mut Dec::new(&old)).unwrap();
        assert_eq!(back.explain.threads, Some(1));
        let mut sequential = config.clone();
        sequential.explain.threads = Some(1);
        let rewritten = encode(&sequential);
        assert_eq!(rewritten[parallel_slot], 0, "threads = Some(1) is written as sequential");
        assert_eq!(encode(&back), rewritten);
    }

    #[test]
    fn delta_round_trips() {
        let delta = RelationDelta::new()
            .insert(Side::Left, tuple("x", 1.0))
            .update(Side::Right, 5, tuple("y", 2.0))
            .delete(Side::Left, 0);
        let mut e = Enc::new();
        enc_delta(&mut e, &delta);
        let bytes = e.into_bytes();
        let back = dec_delta(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.ops.len(), 3);
        assert!(matches!(back.ops[0], TupleOp::Insert { side: Side::Left, .. }));
        assert!(matches!(back.ops[1], TupleOp::Update { side: Side::Right, index: 5, .. }));
        assert!(matches!(back.ops[2], TupleOp::Delete { side: Side::Left, index: 0 }));
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders() {
        // A deterministic xorshift fuzz sweep: every decoder must return
        // Ok or Err on garbage, never panic or over-allocate.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..200usize {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = dec_relation(&mut Dec::new(&bytes));
            let _ = dec_session_config(&mut Dec::new(&bytes));
            let _ = dec_delta(&mut Dec::new(&bytes));
            let _ = dec_matches(&mut Dec::new(&bytes));
        }
        // Truncation of a valid encoding at every prefix length is also
        // always a clean error.
        let mut e = Enc::new();
        enc_delta(&mut e, &RelationDelta::new().insert(Side::Right, tuple("t", 9.0)));
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            assert!(dec_delta(&mut Dec::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn matches_round_trip() {
        let m = AttributeMatches::new(vec![
            AttributeMatch::equivalent("a", "b"),
            AttributeMatch::less_general("p", "c"),
            AttributeMatch::equivalent_sets(vec!["x".into(), "y".into()], vec!["z".into()]),
        ]);
        let mut e = Enc::new();
        enc_matches(&mut e, &m);
        let bytes = e.into_bytes();
        let back = dec_matches(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back, m);
    }
}
