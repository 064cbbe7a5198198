//! # explain3d
//!
//! A from-scratch Rust reproduction of **"Explain3D: Explaining
//! Disagreements in Disjoint Datasets"** (Wang & Meliou, VLDB 2019).
//!
//! Two semantically similar queries over two disjoint datasets — different
//! schemas, separately maintained — can return different answers. Explain3D
//! explains *why*: it derives **provenance-based explanations** (tuples with
//! no counterpart in the other dataset), **value-based explanations** (tuples
//! whose contribution is wrong), and an **evidence mapping** that justifies
//! them, by solving a probabilistic optimisation problem encoded as a MILP.
//!
//! This facade crate re-exports the workspace crates and wires the three
//! stages together:
//!
//! | Crate | Role |
//! |---|---|
//! | [`relation`] | in-memory relational engine + provenance (Def. 2.3) |
//! | [`linkage`] | similarity, calibration, R-Swoosh, initial mapping |
//! | [`milp`] | simplex + branch-and-bound (CPLEX substitute) |
//! | [`partition`] | mapping graph, smart partitioning (Alg. 2–3) |
//! | [`core`] | canonicalisation, MILP encoding, pipeline (Stages 1–2) |
//! | [`incremental`] | session API + delta-driven re-explanation caches |
//! | [`service`] | multi-session registry + HTTP/1.1 serving surface |
//! | [`summarize`] | pattern-based summarisation (Stage 3) |
//! | [`baselines`] | GREEDY / THRESHOLD / RSWOOSH / EXACTCOVER / FORMALEXP |
//! | [`datagen`] | synthetic, academic, and IMDb-view workloads + gold |
//! | [`eval`] | precision / recall / F-measure metrics |
//! | [`telemetry`] | metrics registry, Prometheus exposition, trace ring |
//!
//! ## Quick start
//!
//! ```
//! use explain3d::prelude::*;
//!
//! // Figure 1 of the paper: two catalogs of the same university's programs.
//! let mut d1 = Database::new();
//! let mut programs = Relation::new(
//!     "D1",
//!     Schema::from_pairs(&[("program", ValueType::Str), ("degree", ValueType::Str)]),
//! );
//! for (p, d) in [("Accounting", "B.S."), ("CS", "B.A."), ("CS", "B.S."), ("Design", "B.A.")] {
//!     programs.insert_values([p, d]).unwrap();
//! }
//! d1.add(programs);
//!
//! let mut d2 = Database::new();
//! let mut majors = Relation::new(
//!     "D2",
//!     Schema::from_pairs(&[("univ", ValueType::Str), ("major", ValueType::Str)]),
//! );
//! for m in ["Accounting", "CSE", "Design"] {
//!     majors.insert_values(["A", m]).unwrap();
//! }
//! d2.add(majors);
//!
//! let q1 = Query::scan("D1").named("Q1").count("program");
//! let q2 = Query::scan("D2").named("Q2")
//!     .filter(Expr::col("univ").eq(Expr::lit("A")))
//!     .count("major");
//!
//! // Short program names like "CS"/"CSE" share no word token, so use a
//! // character-level metric for the initial mapping of this tiny catalog.
//! let mut options = ExplainOptions::default();
//! options.mapping.metric = StringMetric::JaroWinkler;
//! options.mapping.use_blocking = false;
//!
//! let outcome = explain_disagreement(
//!     &QueryCase::new(d1, q1),
//!     &QueryCase::new(d2, q2),
//!     &AttributeMatches::single_equivalent("program", "major"),
//!     &options,
//! ).unwrap();
//!
//! assert_eq!(outcome.results.0, Value::Int(4));
//! assert_eq!(outcome.results.1, Value::Int(3));
//! // CS is counted twice on the left but only once on the right.
//! assert_eq!(outcome.report.explanations.value.len(), 1);
//! assert!(outcome.report.complete);
//! ```

#![warn(missing_docs)]

pub use explain3d_baselines as baselines;
pub use explain3d_core as core;
pub use explain3d_datagen as datagen;
pub use explain3d_durability as durability;
pub use explain3d_eval as eval;
pub use explain3d_incremental as incremental;
pub use explain3d_linkage as linkage;
pub use explain3d_milp as milp;
pub use explain3d_parallel as parallel;
pub use explain3d_partition as partition;
pub use explain3d_relation as relation;
pub use explain3d_service as service;
pub use explain3d_summarize as summarize;
pub use explain3d_telemetry as telemetry;

use explain3d_core::prelude::{
    build_initial_mapping, prepare, AttributeMatches, CanonicalRelation, Explain3D,
    Explain3DConfig, ExplanationReport, ExplanationSet, MappingOptions, PreparedComparison,
    QueryCase, Side,
};
use explain3d_relation::prelude::{RelationError, Row, Value};
use explain3d_summarize::{summarize as summarize_targets, SummarizerConfig, Summary};

/// Options for the end-to-end [`explain_disagreement`] helper.
#[derive(Debug, Clone, Default)]
pub struct ExplainOptions {
    /// Stage-2 pipeline configuration (partitioning strategy, priors, MILP).
    pub pipeline: Explain3DConfig,
    /// Initial-mapping construction options (Stage 1).
    pub mapping: MappingOptions,
    /// Stage-3 summarisation configuration.
    pub summarizer: SummarizerConfig,
}

/// The result of an end-to-end run: Stage-1 outputs, Stage-2 explanations,
/// and Stage-3 summaries.
#[derive(Debug, Clone)]
pub struct ExplainOutcome {
    /// The two query results.
    pub results: (Value, Value),
    /// Stage-1 output (provenance + canonical relations).
    pub prepared: PreparedComparison,
    /// Stage-2 report (explanations, evidence, score, statistics).
    pub report: ExplanationReport,
    /// Stage-3 summary of the left-side explanations.
    pub left_summary: Summary,
    /// Stage-3 summary of the right-side explanations.
    pub right_summary: Summary,
}

impl ExplainOutcome {
    /// Renders a human-readable report of the whole run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} = {}   vs   {} = {}\n",
            self.prepared.left_canonical.query_name,
            self.results.0,
            self.prepared.right_canonical.query_name,
            self.results.1
        ));
        out.push_str(
            &self
                .report
                .explanations
                .render(&self.prepared.left_canonical, &self.prepared.right_canonical),
        );
        out.push_str(&format!("log Pr(E) = {:.3}\n", self.report.log_probability));
        if !self.left_summary.patterns.is_empty() || self.left_summary.num_targets > 0 {
            out.push_str("Left-side summary:\n");
            out.push_str(&self.left_summary.render());
        }
        if !self.right_summary.patterns.is_empty() || self.right_summary.num_targets > 0 {
            out.push_str("Right-side summary:\n");
            out.push_str(&self.right_summary.render());
        }
        out
    }
}

/// Runs the complete three-stage Explain3D pipeline on two query cases.
pub fn explain_disagreement(
    left: &QueryCase,
    right: &QueryCase,
    matches: &AttributeMatches,
    options: &ExplainOptions,
) -> Result<ExplainOutcome, RelationError> {
    // Stage 1: execute, derive provenance, canonicalise, build the mapping.
    let prepared = prepare(left, right, matches)?;
    let mapping = build_initial_mapping(
        &prepared.left_canonical,
        &prepared.right_canonical,
        matches,
        &options.mapping,
        None,
    );

    // Stage 2: optimal explanations via the MILP pipeline.
    let solver = Explain3D::new(options.pipeline.clone());
    let report =
        solver.explain(&prepared.left_canonical, &prepared.right_canonical, matches, &mapping);

    // Stage 3: summarise each side's explanation tuples.
    let left_summary = summarize_side(
        &report.explanations,
        Side::Left,
        &prepared.left_canonical,
        &options.summarizer,
    );
    let right_summary = summarize_side(
        &report.explanations,
        Side::Right,
        &prepared.right_canonical,
        &options.summarizer,
    );

    let results = prepared.results();
    Ok(ExplainOutcome { results, prepared, report, left_summary, right_summary })
}

/// Summarises the explanation tuples of one side against the rest of that
/// side's canonical relation (Stage 3).
pub fn summarize_side(
    explanations: &ExplanationSet,
    side: Side,
    relation: &CanonicalRelation,
    config: &SummarizerConfig,
) -> Summary {
    let mut target_ids = explanations.provenance_tuples(side);
    for (tuple, _) in explanations.value_changes(side) {
        target_ids.insert(tuple);
    }
    let mut targets: Vec<Row> = Vec::new();
    let mut background: Vec<Row> = Vec::new();
    for (i, t) in relation.tuples.iter().enumerate() {
        if target_ids.contains(&i) {
            targets.push(t.representative.clone());
        } else {
            background.push(t.representative.clone());
        }
    }
    summarize_targets(&relation.schema, &targets, &background, config)
}

/// Commonly used items across the whole workspace.
pub mod prelude {
    pub use crate::{explain_disagreement, summarize_side, ExplainOptions, ExplainOutcome};
    pub use explain3d_baselines::{
        ExactCoverBaseline, FormalExpBaseline, GreedyBaseline, RSwooshBaseline, ThresholdBaseline,
    };
    pub use explain3d_core::prelude::*;
    pub use explain3d_eval::{evidence_accuracy, explanation_accuracy, Accuracy, GoldStandard};
    pub use explain3d_incremental::{
        report_fingerprint, ExplainSession, RelationDelta, SessionConfig,
    };
    pub use explain3d_linkage::{BucketCalibrator, StringMetric, TupleMapping, TupleMatch};
    pub use explain3d_milp::prelude::{MilpConfig, SolveStatus};
    pub use explain3d_relation::prelude::*;
    pub use explain3d_service::{
        DeltaOutcome, Server, ServerConfig, ServiceConfig, ServiceError, SessionRegistry,
    };
    pub use explain3d_summarize::{SummarizerConfig, Summary};
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain3d_relation::prelude::*;
    use explain3d_relation::row;

    #[test]
    fn end_to_end_on_the_figure_1_example() {
        let mut d1 = Database::new();
        d1.add(
            Relation::with_rows(
                "D1",
                Schema::from_pairs(&[("program", ValueType::Str), ("degree", ValueType::Str)]),
                vec![
                    row!["Accounting", "B.S."],
                    row!["CS", "B.A."],
                    row!["CS", "B.S."],
                    row!["ECE", "B.S."],
                    row!["EE", "B.S."],
                    row!["Management", "B.A."],
                    row!["Design", "B.A."],
                ],
            )
            .unwrap(),
        );
        let mut d2 = Database::new();
        d2.add(
            Relation::with_rows(
                "D2",
                Schema::from_pairs(&[("univ", ValueType::Str), ("major", ValueType::Str)]),
                vec![
                    row!["A", "Accounting"],
                    row!["A", "CSE"],
                    row!["A", "ECE"],
                    row!["A", "EE"],
                    row!["A", "Management"],
                    row!["A", "Design"],
                    row!["B", "Art"],
                ],
            )
            .unwrap(),
        );
        let q1 = Query::scan("D1").named("Q1").count("program");
        let q2 = Query::scan("D2")
            .named("Q2")
            .filter(Expr::col("univ").eq(Expr::lit("A")))
            .count("major");
        let mut options = ExplainOptions::default();
        options.mapping.metric = explain3d_linkage::StringMetric::JaroWinkler;
        options.mapping.use_blocking = false;
        let outcome = explain_disagreement(
            &QueryCase::new(d1, q1),
            &QueryCase::new(d2, q2),
            &AttributeMatches::single_equivalent("program", "major"),
            &options,
        )
        .unwrap();
        assert_eq!(outcome.results.0, Value::Int(7));
        assert_eq!(outcome.results.1, Value::Int(6));
        assert!(outcome.report.complete);
        // The CS/CSE double-count is the only discrepancy.
        assert_eq!(outcome.report.explanations.value.len(), 1);
        assert!(outcome.report.explanations.provenance.is_empty());
        let text = outcome.render();
        assert!(text.contains("Q1"));
        assert!(text.contains("↦"));
    }
}
