//! # explain3d-incremental
//!
//! Incremental re-explanation for the Explain3D reproduction (VLDB 2019):
//! analysts iterate on *evolving* disjoint datasets, but the stateless
//! pipeline re-runs candidate generation, partitioning, and every MILP from
//! scratch on each call. This crate adds the session layer that makes
//! repeated explanation calls over changing data cheap:
//!
//! * [`RelationDelta`] / [`delta::apply_delta`] — an ordered tuple-edit
//!   language (insert / update / delete) whose application tracks monotone
//!   old→new index maps and per-tuple dirty flags (an update that keeps
//!   the representative row, i.e. changes only the impact, stays clean);
//! * [`ExplainSession`] — owns the relations plus two memo layers: the
//!   carried-over candidate list (only pairs with a dirty endpoint are
//!   re-scored) and a content-hashed per-component MILP solution cache
//!   (local coordinates, so solutions survive index shifts); dirty
//!   components optionally warm-start from persisted `milp::revised`
//!   bases ([`SessionConfig::warm_start_dirty`]);
//! * [`session::report_fingerprint`] — the canonical byte serialisation
//!   under which `re_explain` output is **byte-identical** to a cold run on
//!   the post-delta data (pinned by `tests/incremental_equivalence.rs`).
//!
//! ```
//! use explain3d_incremental::{ExplainSession, RelationDelta, SessionConfig};
//! use explain3d_core::prelude::*;
//! # use explain3d_relation::prelude::{Row, Schema, Value, ValueType};
//! # fn canon(name: &str, entries: &[(&str, f64)]) -> CanonicalRelation {
//! #     CanonicalRelation {
//! #         query_name: name.to_string(),
//! #         schema: Schema::from_pairs(&[("k", ValueType::Str)]),
//! #         key_attrs: vec!["k".to_string()],
//! #         tuples: entries.iter().enumerate().map(|(i, (k, imp))| CanonicalTuple {
//! #             id: i, key: vec![Value::str(*k)], impact: *imp, members: vec![i],
//! #             representative: Row::new(vec![Value::str(*k)]),
//! #         }).collect(),
//! #         aggregate: None,
//! #     }
//! # }
//! let t1 = canon("Q1", &[("CS", 2.0), ("Design", 1.0)]);
//! let t2 = canon("Q2", &[("CSE", 1.0)]);
//! let matches = AttributeMatches::single_equivalent("k", "k");
//! let mut session = ExplainSession::new(t1, t2, matches, SessionConfig::default());
//! let first = session.explain();
//! assert!(first.complete);
//!
//! // The right dataset gains a "Design" row: re-explain incrementally.
//! let delta = RelationDelta::new().insert(Side::Right, CanonicalTuple {
//!     id: 0, key: vec![Value::str("Design")], impact: 1.0, members: vec![],
//!     representative: Row::new(vec![Value::str("Design")]),
//! });
//! let second = session.re_explain(&delta).unwrap();
//! assert!(second.complete);
//! assert!(session.delta_stats().component_cache_hits > 0);
//! ```

#![warn(missing_docs)]

pub mod delta;
pub mod session;

pub use delta::{apply_delta, DeltaError, RelationDelta, SideTrace, TupleOp};
pub use session::{report_fingerprint, ExplainSession, SessionConfig};
