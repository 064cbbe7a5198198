//! # explain3d-core
//!
//! The core of the Explain3D reproduction (VLDB 2019): derive interpretable
//! explanations for the disagreement between the results of two semantically
//! similar queries over two disjoint datasets.
//!
//! The framework has three stages:
//!
//! 1. **Canonicalisation** ([`canonical`], [`prepare`](mod@prepare)): execute both
//!    queries, derive provenance relations, and group provenance tuples by
//!    the matching attributes of [`attr_match::AttributeMatches`].
//! 2. **Optimal explanation search** ([`encode`](mod@encode), [`pipeline`]): encode the
//!    EXP-3D problem as a MILP (Eq. 7–13) — per sub-problem produced by the
//!    configured partitioning strategy — solve it, and decode the result
//!    into provenance-based and value-based [`explanation`]s together with
//!    their evidence mapping.
//! 3. **Summarisation** is provided by the companion `explain3d-summarize`
//!    crate and wired up in the top-level `explain3d` facade.
//!
//! ```
//! use explain3d_core::prelude::*;
//! use explain3d_linkage::{TupleMapping, TupleMatch};
//!
//! // Tiny canonical relations (normally produced by `prepare`).
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
//! let mut mapping = TupleMapping::new();
//! mapping.push(TupleMatch::new(0, 0, 0.8));
//!
//! let matches = AttributeMatches::single_equivalent("k", "k");
//! let report = Explain3D::with_defaults().explain(&t1, &t2, &matches, &mapping);
//! assert!(report.complete);
//! assert_eq!(report.explanations.provenance.len(), 1); // Design is missing
//! assert_eq!(report.explanations.value.len(), 1);      // CS counted twice
//! ```

#![warn(missing_docs)]

pub mod attr_match;
pub mod canonical;
pub mod encode;
pub mod explanation;
pub mod pipeline;
pub mod prepare;
pub mod probability;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::attr_match::{AttributeMatch, AttributeMatches, SemanticRelation};
    pub use crate::canonical::{
        canonicalize, canonicalize_pair, CanonicalRelation, CanonicalTuple,
    };
    pub use crate::encode::{decode, encode, solve_subproblem, EncodedProblem, SubProblem};
    pub use crate::explanation::{ExplanationSet, ProvenanceExplanation, Side, ValueExplanation};
    pub use crate::pipeline::{
        assemble_report, component_jobs, solve_component, ComponentOutcome, DeltaStats, Explain3D,
        Explain3DConfig, ExplanationReport, PartitionMeta, PartitioningStrategy, PipelineStats,
    };
    pub use crate::prepare::{
        build_initial_mapping, prepare, MappingOptions, PreparedComparison, QueryCase,
    };
    pub use crate::probability::{log_probability, ProbabilityParams};
}

pub use prelude::*;
