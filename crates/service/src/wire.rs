//! The wire protocol: JSON shapes for relation uploads, delta operations,
//! and explanation reports.
//!
//! Uploads arrive at the **canonical** level — named columns, rows of
//! values, per-tuple impacts — the shape Stage 1 produces, so a client can
//! feed the service from any source without shipping the relational engine
//! over the wire. Every parse failure is a [`ServiceError::BadRequest`]
//! naming the offending field; nothing in this module can panic on
//! malformed input.
//!
//! ## Shapes
//!
//! Create (`POST /sessions/{name}`):
//!
//! ```json
//! {
//!   "left":  {"name": "Q1",
//!             "columns": [["name", "str"], ["year", "int"]],
//!             "key": ["name"],
//!             "tuples": [{"values": ["CS", 1999], "impact": 2.0}]},
//!   "right": {...},
//!   "match": {"left": "name", "right": "name"},
//!   "options": {"min_similarity": 0.4, "use_blocking": true,
//!               "metric": "jaccard", "batch_size": 1000}
//! }
//! ```
//!
//! Delta (`POST /sessions/{name}/delta`):
//!
//! ```json
//! {"ops": [
//!    {"op": "insert", "side": "left",  "tuple": {"values": [...], "impact": 1.0}},
//!    {"op": "update", "side": "right", "index": 3, "tuple": {...}},
//!    {"op": "delete", "side": "left",  "index": 0}
//!  ],
//!  "deadline_ms": 500,
//!  "request_id": "client-chosen-idempotency-key"}
//! ```
//!
//! `request_id` is optional; a retry carrying the same id against the
//! same session is acknowledged from the dedup window (`"deduplicated":
//! true` in the response) instead of being applied twice.
//!
//! Reports serialise explanations, evidence, statistics, and a
//! `fingerprint`: 32 lowercase hex digits of the FNV-1a-128 digest of the
//! authoritative [`report_fingerprint`] bytes (see [`fingerprint_hex`]).
//! The byte-identity contract travels as that digest, immune to float
//! formatting. A served report is encoded once, by [`emit_report`], and
//! every later response is spliced from the stored text
//! ([`ServedReport`]).

use crate::error::ServiceError;
use crate::json::Json;
use explain3d_core::pipeline::{ExplanationReport, PipelineStats};
use explain3d_core::prelude::{AttributeMatches, CanonicalRelation, CanonicalTuple, Side};
use explain3d_incremental::{report_fingerprint, RelationDelta, SessionConfig, TupleOp};
use explain3d_linkage::StringMetric;
use explain3d_relation::prelude::{Row, Schema, Value, ValueType};
use std::ops::Deref;
use std::sync::OnceLock;
use std::time::Duration;

/// The schema-level identity of one uploaded relation — kept by the
/// registry so delta tuples can be parsed without locking the session.
#[derive(Debug, Clone)]
pub struct RelationShape {
    /// Column schema of the uploaded rows.
    pub schema: Schema,
    /// The key (grouping) attribute names.
    pub key_attrs: Vec<String>,
}

impl RelationShape {
    /// The shape of a canonical relation.
    pub fn of(relation: &CanonicalRelation) -> Self {
        RelationShape { schema: relation.schema.clone(), key_attrs: relation.key_attrs.clone() }
    }
}

/// A parsed create request.
#[derive(Debug, Clone)]
pub struct CreateRequest {
    /// The left canonical relation.
    pub left: CanonicalRelation,
    /// The right canonical relation.
    pub right: CanonicalRelation,
    /// The attribute matches between the two.
    pub matches: AttributeMatches,
    /// The session configuration the options resolve to.
    pub config: SessionConfig,
}

/// A parsed delta request.
#[derive(Debug, Clone)]
pub struct DeltaRequest {
    /// The ordered tuple edits.
    pub delta: RelationDelta,
    /// Optional per-request MILP deadline override.
    pub deadline: Option<Duration>,
    /// Optional client-generated idempotency key: a retry carrying the
    /// same id is answered from the dedup window instead of re-applied.
    pub request_id: Option<String>,
}

impl From<RelationDelta> for DeltaRequest {
    /// A request for `delta` alone: no deadline override, no request id.
    fn from(delta: RelationDelta) -> Self {
        DeltaRequest { delta, deadline: None, request_id: None }
    }
}

/// Hard cap on `request_id` length — it is stored per session in the
/// retry window and logged with every WAL record.
pub const MAX_REQUEST_ID_BYTES: usize = 128;

fn bad(field: &str, what: &str) -> ServiceError {
    ServiceError::BadRequest(format!("{field}: {what}"))
}

fn req<'a>(obj: &'a Json, field: &str) -> Result<&'a Json, ServiceError> {
    obj.get(field).ok_or_else(|| bad(field, "missing"))
}

fn req_str<'a>(obj: &'a Json, field: &str) -> Result<&'a str, ServiceError> {
    req(obj, field)?.as_str().ok_or_else(|| bad(field, "must be a string"))
}

fn parse_side(raw: &str, field: &str) -> Result<Side, ServiceError> {
    match raw {
        "left" => Ok(Side::Left),
        "right" => Ok(Side::Right),
        _ => Err(bad(field, "must be \"left\" or \"right\"")),
    }
}

fn parse_value_type(raw: &str, field: &str) -> Result<ValueType, ServiceError> {
    match raw {
        "int" => Ok(ValueType::Int),
        "float" => Ok(ValueType::Float),
        "str" => Ok(ValueType::Str),
        "bool" => Ok(ValueType::Bool),
        _ => Err(bad(field, "must be one of \"int\", \"float\", \"str\", \"bool\"")),
    }
}

/// One wire value → [`Value`], guided by the declared column type (ints
/// widen into float columns; `null` is allowed everywhere).
fn parse_value(json: &Json, ty: ValueType, field: &str) -> Result<Value, ServiceError> {
    match (json, ty) {
        (Json::Null, _) => Ok(Value::Null),
        (Json::Int(i), ValueType::Int) => Ok(Value::Int(*i)),
        (j, ValueType::Float) => {
            j.as_f64().map(Value::Float).ok_or_else(|| bad(field, "expected a number"))
        }
        (Json::Str(s), ValueType::Str) => Ok(Value::Str(s.clone())),
        (Json::Bool(b), ValueType::Bool) => Ok(Value::Bool(*b)),
        (_, ValueType::Int) => Err(bad(field, "expected an integer")),
        (_, ValueType::Str) => Err(bad(field, "expected a string")),
        (_, ValueType::Bool) => Err(bad(field, "expected a boolean")),
        (_, ValueType::Unknown) => Err(bad(field, "column type is unknown")),
    }
}

/// Parses one uploaded tuple (`{"values": [...], "impact": 1.0}`) against a
/// relation shape. The key is extracted from the values of the key columns;
/// `impact` defaults to 1.0; `id` is assigned by the relation.
pub fn parse_tuple(json: &Json, shape: &RelationShape) -> Result<CanonicalTuple, ServiceError> {
    let values = req(json, "values")?.as_arr().ok_or_else(|| bad("values", "must be an array"))?;
    let columns = shape.schema.columns();
    if values.len() != columns.len() {
        return Err(bad(
            "values",
            &format!("expected {} values, got {}", columns.len(), values.len()),
        ));
    }
    let mut row_values = Vec::with_capacity(values.len());
    for (v, c) in values.iter().zip(columns) {
        row_values.push(parse_value(v, c.ty, &format!("values[{}]", c.name))?);
    }
    let impact = match json.get("impact") {
        None => 1.0,
        Some(j) => {
            let f = j.as_f64().ok_or_else(|| bad("impact", "must be a number"))?;
            if !f.is_finite() {
                return Err(bad("impact", "must be finite"));
            }
            f
        }
    };
    let row = Row::new(row_values);
    let mut key = Vec::with_capacity(shape.key_attrs.len());
    for attr in &shape.key_attrs {
        let idx = shape
            .schema
            .index_of(attr)
            .map_err(|_| bad("key", &format!("key attribute {attr:?} not in schema")))?;
        key.push(row.get(idx).cloned().unwrap_or(Value::Null));
    }
    Ok(CanonicalTuple { id: 0, key, impact, members: Vec::new(), representative: row })
}

/// Parses one uploaded relation.
pub fn parse_relation(json: &Json) -> Result<CanonicalRelation, ServiceError> {
    let name = req_str(json, "name")?.to_string();
    let columns_json =
        req(json, "columns")?.as_arr().ok_or_else(|| bad("columns", "must be an array"))?;
    if columns_json.is_empty() {
        return Err(bad("columns", "must not be empty"));
    }
    let mut pairs: Vec<(String, ValueType)> = Vec::with_capacity(columns_json.len());
    for (i, c) in columns_json.iter().enumerate() {
        let field = format!("columns[{i}]");
        let parts = c.as_arr().ok_or_else(|| bad(&field, "must be a [name, type] pair"))?;
        let [name_j, ty_j] = parts else {
            return Err(bad(&field, "must be a [name, type] pair"));
        };
        let col_name = name_j.as_str().ok_or_else(|| bad(&field, "name must be a string"))?;
        let ty_name = ty_j.as_str().ok_or_else(|| bad(&field, "type must be a string"))?;
        if pairs.iter().any(|(n, _)| n == col_name) {
            return Err(bad(&field, "duplicate column name"));
        }
        pairs.push((col_name.to_string(), parse_value_type(ty_name, &field)?));
    }
    let pair_refs: Vec<(&str, ValueType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&pair_refs);

    let key_json = req(json, "key")?.as_arr().ok_or_else(|| bad("key", "must be an array"))?;
    if key_json.is_empty() {
        return Err(bad("key", "must name at least one column"));
    }
    let mut key_attrs = Vec::with_capacity(key_json.len());
    for k in key_json {
        let attr = k.as_str().ok_or_else(|| bad("key", "entries must be strings"))?;
        schema
            .index_of(attr)
            .map_err(|_| bad("key", &format!("key attribute {attr:?} not in columns")))?;
        key_attrs.push(attr.to_string());
    }

    let shape = RelationShape { schema: schema.clone(), key_attrs: key_attrs.clone() };
    let tuples_json =
        req(json, "tuples")?.as_arr().ok_or_else(|| bad("tuples", "must be an array"))?;
    let mut tuples = Vec::with_capacity(tuples_json.len());
    for (i, t) in tuples_json.iter().enumerate() {
        let mut tuple =
            parse_tuple(t, &shape).map_err(|e| bad(&format!("tuples[{i}]"), &e.to_string()))?;
        tuple.id = i;
        tuple.members = vec![i];
        tuples.push(tuple);
    }
    Ok(CanonicalRelation { query_name: name, schema, key_attrs, tuples, aggregate: None })
}

/// Parses the options object into a [`SessionConfig`] (defaults for every
/// absent field).
pub fn parse_options(json: Option<&Json>) -> Result<SessionConfig, ServiceError> {
    let mut config = SessionConfig::default();
    let Some(json) = json else {
        return Ok(config);
    };
    if let Some(ms) = json.get("min_similarity") {
        let v = ms.as_f64().ok_or_else(|| bad("options.min_similarity", "must be a number"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(bad("options.min_similarity", "must be in [0, 1]"));
        }
        config.mapping.min_similarity = v;
    }
    if let Some(b) = json.get("use_blocking") {
        config.mapping.use_blocking =
            b.as_bool().ok_or_else(|| bad("options.use_blocking", "must be a boolean"))?;
    }
    if let Some(m) = json.get("metric") {
        let name = m.as_str().ok_or_else(|| bad("options.metric", "must be a string"))?;
        config.mapping.metric = match name {
            "jaccard" => StringMetric::Jaccard,
            "jaro" => StringMetric::Jaro,
            "jaro_winkler" => StringMetric::JaroWinkler,
            _ => {
                return Err(bad(
                    "options.metric",
                    "must be one of \"jaccard\", \"jaro\", \"jaro_winkler\"",
                ))
            }
        };
    }
    if let Some(bs) = json.get("batch_size") {
        let v = bs.as_i64().ok_or_else(|| bad("options.batch_size", "must be an integer"))?;
        if v < 1 {
            return Err(bad("options.batch_size", "must be positive"));
        }
        config.explain.strategy =
            explain3d_core::pipeline::PartitioningStrategy::Smart { batch_size: v as usize };
    }
    Ok(config)
}

/// Parses a create request body.
pub fn parse_create(body: &str) -> Result<CreateRequest, ServiceError> {
    let json = Json::parse(body)?;
    let left = parse_relation(req(&json, "left")?).map_err(|e| bad("left", &e.to_string()))?;
    let right = parse_relation(req(&json, "right")?).map_err(|e| bad("right", &e.to_string()))?;
    let matches_json = req(&json, "match")?;
    let left_attr = req_str(matches_json, "left")?;
    let right_attr = req_str(matches_json, "right")?;
    left.schema
        .index_of(left_attr)
        .map_err(|_| bad("match.left", "not a column of the left relation"))?;
    right
        .schema
        .index_of(right_attr)
        .map_err(|_| bad("match.right", "not a column of the right relation"))?;
    let matches = AttributeMatches::single_equivalent(left_attr, right_attr);
    let config = parse_options(json.get("options"))?;
    Ok(CreateRequest { left, right, matches, config })
}

/// Parses the optional `deadline_ms` field shared by explain and delta
/// requests.
pub fn parse_deadline(json: &Json) -> Result<Option<Duration>, ServiceError> {
    match json.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let ms = v.as_i64().ok_or_else(|| bad("deadline_ms", "must be an integer"))?;
            if ms < 1 {
                return Err(bad("deadline_ms", "must be positive"));
            }
            Ok(Some(Duration::from_millis(ms as u64)))
        }
    }
}

/// Parses an explain request body (empty bodies allowed).
pub fn parse_explain(body: &str) -> Result<Option<Duration>, ServiceError> {
    if body.trim().is_empty() {
        return Ok(None);
    }
    parse_deadline(&Json::parse(body)?)
}

/// Parses a delta request body against the two relation shapes.
pub fn parse_delta(
    body: &str,
    left: &RelationShape,
    right: &RelationShape,
) -> Result<DeltaRequest, ServiceError> {
    let json = Json::parse(body)?;
    let ops_json = req(&json, "ops")?.as_arr().ok_or_else(|| bad("ops", "must be an array"))?;
    let mut delta = RelationDelta::new();
    for (i, op_json) in ops_json.iter().enumerate() {
        let field = format!("ops[{i}]");
        let kind = req_str(op_json, "op").map_err(|e| bad(&field, &e.to_string()))?;
        let side_raw = req_str(op_json, "side").map_err(|e| bad(&field, &e.to_string()))?;
        let side = parse_side(side_raw, &field)?;
        let shape = match side {
            Side::Left => left,
            Side::Right => right,
        };
        let index = |field: &str| -> Result<usize, ServiceError> {
            let v = req(op_json, "index")?
                .as_i64()
                .ok_or_else(|| bad(field, "index must be an integer"))?;
            usize::try_from(v).map_err(|_| bad(field, "index must be non-negative"))
        };
        let tuple = |field: &str| -> Result<CanonicalTuple, ServiceError> {
            parse_tuple(req(op_json, "tuple")?, shape).map_err(|e| bad(field, &e.to_string()))
        };
        delta.ops.push(match kind {
            "insert" => TupleOp::Insert { side, tuple: tuple(&field)? },
            "update" => TupleOp::Update { side, index: index(&field)?, tuple: tuple(&field)? },
            "delete" => TupleOp::Delete { side, index: index(&field)? },
            _ => return Err(bad(&field, "op must be one of \"insert\", \"update\", \"delete\"")),
        });
    }
    Ok(DeltaRequest {
        delta,
        deadline: parse_deadline(&json)?,
        request_id: parse_request_id(&json)?,
    })
}

/// Parses the optional `request_id` idempotency key of a delta request.
fn parse_request_id(json: &Json) -> Result<Option<String>, ServiceError> {
    match json.get("request_id") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let id = v.as_str().ok_or_else(|| bad("request_id", "must be a string"))?;
            if id.is_empty() {
                return Err(bad("request_id", "must not be empty"));
            }
            if id.len() > MAX_REQUEST_ID_BYTES {
                return Err(bad("request_id", "too long (max 128 bytes)"));
            }
            Ok(Some(id.to_string()))
        }
    }
}

fn side_name(side: Side) -> &'static str {
    match side {
        Side::Left => "left",
        Side::Right => "right",
    }
}

/// The wire fingerprint of a report: the FNV-1a-128 digest of its
/// [`report_fingerprint`] bytes as 32 lowercase hex digits. Stable across
/// builds and Rust releases (no `std` hasher involved). FNV is not
/// collision-resistant against crafted input; it need not be, because the
/// server produces every byte it digests. In-process comparisons use the
/// full `report_fingerprint` bytes instead.
pub fn fingerprint_hex(report: &ExplanationReport) -> String {
    format!("{:032x}", fnv1a_128(&report_fingerprint(report)))
}

/// FNV-1a with the 128-bit offset basis and prime.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut hash: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    hash
}

fn emit_stats(stats: &PipelineStats) -> Json {
    Json::obj()
        .set("partition_secs", stats.partition_time.as_secs_f64())
        .set("solve_secs", stats.solve_time.as_secs_f64())
        .set("total_secs", stats.total_time.as_secs_f64())
        .set("num_subproblems", stats.num_subproblems)
        .set("milp_count", stats.milp_count)
        .set("milp_nodes", stats.milp_nodes)
        .set("suboptimal_subproblems", stats.suboptimal_subproblems)
        .set("threads", stats.threads)
        .set("steals", stats.steals)
        .set(
            "delta",
            Json::obj()
                .set("candidates_reused", stats.delta.candidates_reused)
                .set("component_cache_hits", stats.delta.component_cache_hits)
                .set("component_cache_misses", stats.delta.component_cache_misses),
        )
}

/// Serialises a report (explanations, evidence, statistics, fingerprint)
/// for a named session. `coalesced` is the number of *other* deltas merged
/// into the run that produced this report (0 for explain/report requests).
pub fn emit_report(session: &str, report: &ExplanationReport, coalesced: usize) -> Json {
    let e = &report.explanations;
    let provenance: Vec<Json> = e
        .provenance
        .iter()
        .map(|p| Json::obj().set("side", side_name(p.side)).set("tuple", p.tuple))
        .collect();
    let value: Vec<Json> = e
        .value
        .iter()
        .map(|v| {
            Json::obj()
                .set("side", side_name(v.side))
                .set("tuple", v.tuple)
                .set("old_impact", v.old_impact)
                .set("new_impact", v.new_impact)
        })
        .collect();
    let evidence: Vec<Json> = e
        .evidence
        .matches()
        .iter()
        .map(|m| Json::obj().set("left", m.left).set("right", m.right).set("prob", m.prob))
        .collect();
    Json::obj()
        .set("session", session)
        .set("fingerprint", fingerprint_hex(report))
        .set("log_probability", report.log_probability)
        .set("complete", report.complete)
        .set("coalesced_deltas", coalesced)
        .set(
            "explanations",
            Json::obj().set("provenance", provenance).set("value", value).set("evidence", evidence),
        )
        .set("stats", emit_stats(&report.stats))
}

/// The key whose value varies between responses of one stored report.
const COALESCED_KEY: &str = "\"coalesced_deltas\":";

/// A report as the service publishes it: the report plus its wire
/// encoding, which [`emit_report`] produces at most once, on the first
/// response. Every response after that is spliced from the stored text by
/// [`ServedReport::body`]. Dereferences to the report.
#[derive(Debug)]
pub struct ServedReport {
    session: String,
    report: ExplanationReport,
    /// `emit_report(session, report, 0)` split around the
    /// `coalesced_deltas` value: a head ending at `"coalesced_deltas":`
    /// and a tail from `,"explanations"` through the `stats` object (the
    /// closing `}` excluded). `None` only if the encoder ever stops
    /// emitting that member.
    encoded: OnceLock<Option<(String, String)>>,
}

impl ServedReport {
    /// Wraps the report `session` produced. Nothing is encoded yet.
    pub fn new(session: &str, report: ExplanationReport) -> ServedReport {
        ServedReport { session: session.to_string(), report, encoded: OnceLock::new() }
    }

    /// The response body: byte-identical to
    /// `emit_report(session, report, coalesced)` plus the optional
    /// `durability` and `deduplicated: true` members, in that order. The
    /// first call encodes the report; later calls copy the stored text.
    pub fn body(
        &self,
        coalesced: usize,
        durability: Option<&str>,
        deduplicated: bool,
    ) -> Result<String, ServiceError> {
        let (head, tail) = self
            .encoded
            .get_or_init(|| {
                let text = emit_report(&self.session, &self.report, 0).to_string();
                let (head, rest) = text.split_once(&format!("{COALESCED_KEY}0,"))?;
                let tail = rest.strip_suffix('}')?;
                Some((format!("{head}{COALESCED_KEY}"), format!(",{tail}")))
            })
            .as_ref()
            .ok_or_else(|| {
                ServiceError::Internal("report encoding has no coalesced_deltas member".into())
            })?;
        let coalesced = Json::from(coalesced).to_string();
        let mut body = String::with_capacity(head.len() + tail.len() + 64);
        body.push_str(head);
        body.push_str(&coalesced);
        body.push_str(tail);
        if let Some(label) = durability {
            body.push_str(",\"durability\":");
            body.push_str(&Json::from(label).to_string());
        }
        if deduplicated {
            body.push_str(",\"deduplicated\":true");
        }
        body.push('}');
        Ok(body)
    }
}

impl Deref for ServedReport {
    type Target = ExplanationReport;

    fn deref(&self) -> &ExplanationReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create_body() -> String {
        r#"{
          "left": {"name": "Q1",
                   "columns": [["name", "str"], ["year", "int"]],
                   "key": ["name"],
                   "tuples": [{"values": ["CS", 1999], "impact": 2.0},
                              {"values": ["Design", 2001]}]},
          "right": {"name": "Q2",
                    "columns": [["title", "str"], ["published", "int"]],
                    "key": ["title"],
                    "tuples": [{"values": ["CS", 1999]}]},
          "match": {"left": "name", "right": "title"},
          "options": {"min_similarity": 0.3, "use_blocking": false}
        }"#
        .to_string()
    }

    #[test]
    fn create_round_trips() {
        let req = parse_create(&create_body()).unwrap();
        assert_eq!(req.left.query_name, "Q1");
        assert_eq!(req.left.len(), 2);
        assert_eq!(req.left.tuples[0].impact, 2.0);
        assert_eq!(req.left.tuples[1].impact, 1.0, "impact defaults to 1.0");
        assert_eq!(req.left.tuples[1].id, 1);
        assert_eq!(req.left.tuples[0].key, vec![Value::str("CS")]);
        assert_eq!(req.right.len(), 1);
        assert_eq!(req.config.mapping.min_similarity, 0.3);
        assert!(!req.config.mapping.use_blocking);
    }

    #[test]
    fn create_rejects_malformed_bodies() {
        for (body, needle) in [
            ("{", "byte"),
            ("{}", "left"),
            (r#"{"left": 3, "right": {}, "match": {}}"#, "left"),
            (
                &create_body()
                    .replace("\"match\": {\"left\": \"name\"", "\"match\": {\"left\": \"nope\""),
                "match.left",
            ),
            (&create_body().replace("[\"name\", \"str\"]", "[\"name\", \"decimal\"]"), "left"),
            (&create_body().replace("\"key\": [\"name\"]", "\"key\": []"), "key"),
            (
                &create_body()
                    .replace("[\"CS\", 1999], \"impact\": 2.0", "[\"CS\"], \"impact\": 2.0"),
                "expected 2 values",
            ),
            (&create_body().replace("\"impact\": 2.0", "\"impact\": \"big\""), "impact"),
        ] {
            let err = parse_create(body).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "body {body:.60}... gave {err}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn delta_ops_parse_in_order() {
        let req = parse_create(&create_body()).unwrap();
        let left = RelationShape::of(&req.left);
        let right = RelationShape::of(&req.right);
        let body = r#"{"ops": [
            {"op": "insert", "side": "right", "tuple": {"values": ["Design", 2001]}},
            {"op": "update", "side": "left", "index": 0,
             "tuple": {"values": ["CSE", 1999], "impact": 1.5}},
            {"op": "delete", "side": "left", "index": 1}
        ], "deadline_ms": 250}"#;
        let parsed = parse_delta(body, &left, &right).unwrap();
        assert_eq!(parsed.delta.ops.len(), 3);
        assert_eq!(parsed.deadline, Some(Duration::from_millis(250)));
        match &parsed.delta.ops[1] {
            TupleOp::Update { side: Side::Left, index: 0, tuple } => {
                assert_eq!(tuple.impact, 1.5);
                assert_eq!(tuple.key, vec![Value::str("CSE")]);
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn delta_rejects_malformed_ops() {
        let req = parse_create(&create_body()).unwrap();
        let left = RelationShape::of(&req.left);
        let right = RelationShape::of(&req.right);
        for (body, needle) in [
            (r#"{"ops": 1}"#, "ops"),
            (r#"{"ops": [{"op": "upsert", "side": "left"}]}"#, "op must be"),
            (r#"{"ops": [{"op": "delete", "side": "middle", "index": 0}]}"#, "left"),
            (r#"{"ops": [{"op": "delete", "side": "left", "index": -1}]}"#, "non-negative"),
            (
                r#"{"ops": [{"op": "insert", "side": "left", "tuple": {"values": [1, 2]}}]}"#,
                "string",
            ),
            (r#"{"ops": [], "deadline_ms": 0}"#, "deadline_ms"),
        ] {
            let err = parse_delta(body, &left, &right).unwrap_err();
            assert!(err.to_string().contains(needle), "{body} gave {err}");
        }
    }

    #[test]
    fn report_emission_contains_the_contract_fields() {
        let report = ExplanationReport {
            explanations: Default::default(),
            log_probability: -1.25,
            complete: true,
            stats: Default::default(),
        };
        let json = emit_report("s1", &report, 2);
        let text = json.to_string();
        assert!(text.contains("\"session\":\"s1\""));
        assert!(text.contains("\"log_probability\":-1.25"));
        assert!(text.contains("\"coalesced_deltas\":2"));
        let fp = json.get("fingerprint").and_then(Json::as_str).unwrap();
        assert_eq!(fp, fingerprint_hex(&report));
        assert_eq!(fp.len(), 32);
        assert!(fp.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')));
    }

    #[test]
    fn fingerprint_is_the_fnv1a_128_digest_of_the_canonical_bytes() {
        // Published FNV-1a-128 vectors: the empty input is the offset basis.
        assert_eq!(fnv1a_128(b""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        assert_eq!(fnv1a_128(b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
        assert_eq!(fnv1a_128(b"foobar"), 0x343e_1662_793c_64bf_6f0d_3597_ba44_6f18);
        let mut report = ExplanationReport {
            explanations: Default::default(),
            log_probability: -1.25,
            complete: true,
            stats: Default::default(),
        };
        let digest = fingerprint_hex(&report);
        assert_eq!(digest, format!("{:032x}", fnv1a_128(&report_fingerprint(&report))));
        report.log_probability = -1.5;
        assert_ne!(fingerprint_hex(&report), digest, "a changed assertion changes the digest");
    }

    /// A report with every explanation kind, so the stored text has
    /// non-empty provenance, value and evidence arrays.
    fn populated_report(log_probability: f64) -> ExplanationReport {
        let mut explanations = explain3d_core::prelude::ExplanationSet::new();
        explanations.add_provenance(Side::Left, 3);
        explanations.add_value(Side::Right, 1, 2.0, 1.5);
        explanations.evidence.push(explain3d_linkage::TupleMatch::new(0, 1, 0.75));
        ExplanationReport {
            explanations,
            log_probability,
            complete: false,
            stats: Default::default(),
        }
    }

    #[test]
    fn spliced_body_is_byte_identical_to_the_emitter() {
        for name in ["s1", "quote \" back\\slash \n tab\t \u{1} é"] {
            for log_probability in [-2.5, f64::NEG_INFINITY, f64::NAN] {
                let report = populated_report(log_probability);
                let served = ServedReport::new(name, report.clone());
                // explain / report (coalesced 0), delta (0 and > 0), and
                // deduplicated delta; each under every durability label.
                for (coalesced, deduplicated) in [(0, false), (3, false), (0, true)] {
                    for durability in [None, Some("durable"), Some("degraded"), Some("reconciled")]
                    {
                        let mut expected = emit_report(name, &report, coalesced);
                        if let Some(label) = durability {
                            expected = expected.set("durability", label);
                        }
                        if deduplicated {
                            expected = expected.set("deduplicated", true);
                        }
                        assert_eq!(
                            served.body(coalesced, durability, deduplicated).unwrap(),
                            expected.to_string(),
                            "name {name:?}, log_probability {log_probability}, coalesced \
                             {coalesced}, durability {durability:?}, dedup {deduplicated}"
                        );
                    }
                }
            }
        }
    }
}
