//! # explain3d-linkage
//!
//! Record-linkage substrate for the Explain3D reproduction (VLDB 2019).
//!
//! Explain3D consumes an *initial*, probabilistic tuple mapping `M_tuple`
//! between the canonical relations of the two queries being compared
//! (Definition 2.4). The paper acquires this mapping from off-the-shelf
//! record-linkage machinery; this crate implements that machinery:
//!
//! * [`similarity`] — token-wise Jaccard, normalised Euclidean, Jaro and
//!   Jaro-Winkler similarity, combined per-tuple over the matching attributes
//!   (Section 5.1.2);
//! * [`calibrate`] — the similarity-to-probability bucketing method (50
//!   buckets fitted from a labelled sample);
//! * [`generator`] — candidate generation with token blocking and the
//!   end-to-end initial-mapping construction;
//! * [`rswoosh`] — the R-Swoosh entity-resolution algorithm used as the
//!   paper's record-linkage baseline;
//! * [`matches`](mod@matches) — the [`matches::TupleMatch`] / [`matches::TupleMapping`]
//!   types shared with the core framework.

#![warn(missing_docs)]

pub mod calibrate;
pub mod generator;
pub mod matches;
pub mod rswoosh;
pub mod similarity;
pub mod tokenize;

pub use calibrate::BucketCalibrator;
pub use generator::{
    candidate_pairs, candidate_pairs_naive, generate_calibrated_mapping, generate_mapping,
    label_candidates, Candidate, MappingConfig,
};
pub use matches::{TupleMapping, TupleMatch};
pub use rswoosh::{Cluster, RSwoosh, RSwooshConfig, Side, SwooshRecord};
pub use similarity::{
    jaccard, jaccard_ids, jaro, jaro_winkler, numeric_similarity, tuple_similarity,
    value_similarity, StringMetric,
};
pub use tokenize::{ngrams, token_set, tokens, TokenInterner};
