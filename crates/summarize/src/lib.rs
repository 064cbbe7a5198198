//! # explain3d-summarize
//!
//! Stage 3 of the Explain3D reproduction (VLDB 2019): summarise a large set
//! of tuple-level explanations into a small set of human-readable patterns.
//!
//! The paper delegates this stage to existing tools such as Data Auditor and
//! Data X-Ray: tuples touched by explanations are marked as "targets" and the
//! tool finds the common properties of the targets. This crate implements
//! that component as a greedy pattern-tableau miner: it searches conjunctive
//! `attribute = value` patterns (up to a configurable width) that cover many
//! target tuples while covering few non-target tuples, and greedily selects a
//! small set of patterns that explains all targets.
//!
//! Pattern coverage is counted from per-column indexes built once per call,
//! not by rescanning rows per candidate: a call costs one pass per column
//! over targets and background plus pairs × background rows (at most 66
//! pairs), and returns exactly what counting with [`Pattern::covers`] would.

#![warn(missing_docs)]

pub mod pattern;

pub use pattern::{summarize, Pattern, SummarizerConfig, Summary};
