//! Initial tuple-mapping generation.
//!
//! Explain3D treats record-linkage as a black-box component that produces an
//! *initial*, probabilistic tuple mapping `M_tuple` between the two canonical
//! relations (Section 5.1.2). This module implements that component:
//! pairwise similarity computation (with optional token blocking to avoid a
//! quadratic blow-up on large inputs), followed by similarity-to-probability
//! calibration.
//!
//! ## Candidate scoring is zero-copy, parallel, and streaming
//!
//! [`candidate_pairs`] tokenises every row **once** into interned `u32`
//! token ids ([`TokenInterner`]), scores pairs as a linear merge over sorted
//! id slices ([`jaccard_ids`]), and fans the scoring loop out across CPU
//! cores. It produces exactly the candidates — same pairs, same order, same
//! floating-point similarities — as the straightforward per-pair
//! implementation, which is kept as [`candidate_pairs_naive`] for tests and
//! the performance-trajectory benchmark.
//!
//! Pair enumeration is **streaming**: [`PairChunkStream`] yields blocked (or
//! exhaustive) pairs in bounded chunks that feed the parallel scorer
//! directly, so the full pair list — ~460k pairs on a 5000×5000 comparison,
//! quadratic without blocking — is never materialised. Peak resident pairs
//! are bounded by `worker threads × chunk size`
//! ([`MappingConfig::chunk_pairs`]); [`candidate_pairs_streaming`] reports
//! the observed numbers as [`CandidateGenStats`].

use crate::calibrate::BucketCalibrator;
use crate::matches::{TupleMapping, TupleMatch};
use crate::similarity::{jaccard_ids, jaro, jaro_winkler, tuple_similarity, StringMetric};
use crate::tokenize::TokenInterner;
use explain3d_relation::prelude::{Row, Schema, Value};
use std::collections::{HashMap, HashSet};

/// Configuration for initial-mapping generation.
#[derive(Debug, Clone)]
pub struct MappingConfig {
    /// Pairs of matching attributes `(left column, right column)` derived
    /// from the attribute matches `M_attr`.
    pub attr_pairs: Vec<(String, String)>,
    /// String similarity metric.
    pub metric: StringMetric,
    /// Candidate pairs with similarity strictly below this value are dropped
    /// from the initial mapping (the paper keeps only plausible candidates).
    pub min_similarity: f64,
    /// Use token blocking on the matching attributes: only pairs that share
    /// at least one token (or the exact numeric value) are compared.
    pub use_blocking: bool,
    /// Number of pairs per streamed chunk fed to the parallel scorer. Peak
    /// pair residency is bounded by `worker threads × chunk_pairs`; the
    /// retained candidates are byte-identical for every chunk size.
    pub chunk_pairs: usize,
}

/// Default [`MappingConfig::chunk_pairs`]: large enough to amortise the
/// per-chunk dispatch, small enough that even one chunk per core stays far
/// below the materialised-pair-list footprint it replaces.
pub const DEFAULT_CHUNK_PAIRS: usize = 8192;

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            attr_pairs: Vec::new(),
            metric: StringMetric::Jaccard,
            min_similarity: 0.05,
            use_blocking: true,
            chunk_pairs: DEFAULT_CHUNK_PAIRS,
        }
    }
}

impl MappingConfig {
    /// Creates a config over the given matching attribute pairs.
    pub fn new(attr_pairs: Vec<(String, String)>) -> Self {
        MappingConfig { attr_pairs, ..Default::default() }
    }

    /// Disables blocking (compares every pair of tuples).
    pub fn without_blocking(mut self) -> Self {
        self.use_blocking = false;
        self
    }

    /// Sets the minimum similarity for a candidate to be retained.
    pub fn with_min_similarity(mut self, min: f64) -> Self {
        self.min_similarity = min;
        self
    }

    /// Sets the string metric.
    pub fn with_metric(mut self, metric: StringMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the streaming chunk size (pairs per chunk; clamped to ≥ 1).
    pub fn with_chunk_pairs(mut self, chunk_pairs: usize) -> Self {
        self.chunk_pairs = chunk_pairs.max(1);
        self
    }
}

/// A candidate pair with its raw similarity (before calibration).
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Left tuple index.
    pub left: usize,
    /// Right tuple index.
    pub right: usize,
    /// Raw similarity in `[0, 1]`.
    pub similarity: f64,
}

// Candidates are totally ordered by `(left, right, similarity)` with
// `f64::total_cmp` on the similarity, so sorting and deduplication are
// deterministic for every input (NaNs included). Equality is defined from
// the same ordering so all four comparison traits agree and `Eq` is sound.
impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.left
            .cmp(&other.left)
            .then(self.right.cmp(&other.right))
            .then(self.similarity.total_cmp(&other.similarity))
    }
}

impl PartialOrd for Candidate {
    // lint:allow(float-total-order): mandatory trait method; it delegates to
    // the total `Ord` above (similarity via `total_cmp`), so no NaN
    // partiality can leak through.
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A row value prepared for repeated comparison: its dispatch class plus
/// whatever pre-computation that class needs (cached float, interned token
/// ids of the textual form, raw string reference).
#[derive(Debug, Clone)]
enum Prepared<'a> {
    /// SQL NULL (also used for out-of-schema columns, like the original
    /// per-pair path).
    Null,
    /// A string: raw slice (for Jaro metrics) plus sorted token ids.
    Str { raw: &'a str, tokens: Vec<u32> },
    /// A boolean: the value, its numeric form, and textual-form token ids.
    Bool { value: bool, num: f64, tokens: Vec<u32> },
    /// An Int/Float: the numeric form and textual-form token ids.
    Num { num: f64, tokens: Vec<u32> },
}

impl Prepared<'_> {
    /// The cached `Value::as_f64` result of the original value.
    fn num(&self) -> Option<f64> {
        match self {
            Prepared::Null | Prepared::Str { .. } => None,
            Prepared::Bool { num, .. } | Prepared::Num { num, .. } => Some(*num),
        }
    }

    /// Token ids of the value's textual form (Display), used for
    /// mixed-type comparisons.
    fn tokens(&self) -> &[u32] {
        match self {
            Prepared::Null => &[],
            Prepared::Str { tokens, .. }
            | Prepared::Bool { tokens, .. }
            | Prepared::Num { tokens, .. } => tokens,
        }
    }
}

/// Prepares one column of rows: resolves the column index once and
/// tokenises/caches every value. An unresolvable column yields all-NULL
/// prepared values, mirroring the per-pair path's `unwrap_or(Value::Null)`.
fn prepare_column<'a>(
    schema: &Schema,
    rows: &'a [Row],
    column: &str,
    interner: &mut TokenInterner,
) -> Vec<Prepared<'a>> {
    let Ok(idx) = schema.index_of(column) else {
        return vec![Prepared::Null; rows.len()];
    };
    rows.iter()
        .map(|row| match row.get(idx) {
            None | Some(Value::Null) => Prepared::Null,
            Some(Value::Str(s)) => Prepared::Str { raw: s.as_str(), tokens: interner.token_ids(s) },
            Some(Value::Bool(b)) => Prepared::Bool {
                value: *b,
                num: if *b { 1.0 } else { 0.0 },
                tokens: interner.token_ids(&Value::Bool(*b).to_string()),
            },
            Some(v) => Prepared::Num {
                num: v.as_f64().expect("Int/Float always has a numeric form"),
                tokens: interner.token_ids(&v.to_string()),
            },
        })
        .collect()
}

/// Similarity of two prepared values — the zero-copy twin of
/// [`crate::similarity::value_similarity`] (same dispatch, same results).
fn prepared_similarity(a: &Prepared<'_>, b: &Prepared<'_>, metric: StringMetric) -> f64 {
    match (a, b) {
        (Prepared::Null, Prepared::Null) => 1.0,
        (Prepared::Null, _) | (_, Prepared::Null) => 0.0,
        (Prepared::Str { raw: ra, tokens: ta }, Prepared::Str { raw: rb, tokens: tb }) => {
            match metric {
                StringMetric::Jaccard => jaccard_ids(ta, tb),
                StringMetric::Jaro => jaro(ra, rb),
                StringMetric::JaroWinkler => jaro_winkler(ra, rb),
            }
        }
        (Prepared::Bool { value: x, .. }, Prepared::Bool { value: y, .. }) => {
            if x == y {
                1.0
            } else {
                0.0
            }
        }
        (x, y) => match (x.num(), y.num()) {
            (Some(fx), Some(fy)) => crate::similarity::numeric_similarity(fx, fy),
            // Mixed string/number: compare textual forms.
            _ => jaccard_ids(x.tokens(), y.tokens()),
        },
    }
}

/// Mean prepared-value similarity across the attribute pairs, accumulated in
/// the same order (and therefore with the same floating-point result) as
/// [`tuple_similarity`].
fn prepared_tuple_similarity(
    left_cols: &[Vec<Prepared<'_>>],
    right_cols: &[Vec<Prepared<'_>>],
    i: usize,
    j: usize,
    metric: StringMetric,
) -> f64 {
    let mut total = 0.0;
    for (lcol, rcol) in left_cols.iter().zip(right_cols.iter()) {
        total += prepared_similarity(&lcol[i], &rcol[j], metric);
    }
    total / left_cols.len() as f64
}

/// The zero-copy scoring kernel bundled for reuse: the prepared (tokenised,
/// interned, numeric-cached) columns of both sides plus the metric.
/// [`PreparedScorer::score`] reproduces **exactly** — same dispatch, same
/// accumulation order, same floating-point result — the similarity the
/// per-pair reference path computes, so every caller (streaming, cached,
/// delta re-scoring) scores through one kernel.
pub struct PreparedScorer<'a> {
    left_cols: Vec<Vec<Prepared<'a>>>,
    right_cols: Vec<Vec<Prepared<'a>>>,
    metric: StringMetric,
}

impl<'a> PreparedScorer<'a> {
    /// Prepares both sides' compared columns once (tokenising through
    /// `interner`).
    pub fn new(
        left_schema: &Schema,
        left_rows: &'a [Row],
        right_schema: &Schema,
        right_rows: &'a [Row],
        config: &MappingConfig,
        interner: &mut TokenInterner,
    ) -> Self {
        let left_cols = config
            .attr_pairs
            .iter()
            .map(|(lcol, _)| prepare_column(left_schema, left_rows, lcol, interner))
            .collect();
        let right_cols = config
            .attr_pairs
            .iter()
            .map(|(_, rcol)| prepare_column(right_schema, right_rows, rcol, interner))
            .collect();
        PreparedScorer { left_cols, right_cols, metric: config.metric }
    }

    /// Similarity of left row `i` vs right row `j`.
    pub fn score(&self, i: usize, j: usize) -> f64 {
        prepared_tuple_similarity(&self.left_cols, &self.right_cols, i, j, self.metric)
    }
}

/// Statistics of one streaming candidate-generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateGenStats {
    /// Total pairs enumerated and scored.
    pub pairs_scored: usize,
    /// Number of chunks streamed to the scorer.
    pub chunks: usize,
    /// Configured chunk size (pairs per chunk).
    pub chunk_pairs: usize,
    /// Largest number of pairs resident at once, as observed by the
    /// scheduler: the peak summed size of the chunks held by the worker
    /// pool at one instant (each worker holds at most one chunk, so
    /// ≤ worker threads × chunk size). This is the streaming design's peak
    /// allocation, replacing the full pair-list materialisation of the
    /// pre-streaming implementation.
    pub peak_resident_pairs: usize,
}

/// A streaming source of candidate pairs, yielded as bounded chunks.
///
/// Enumerates exactly the pairs `enumerate_pairs` would produce — blocked
/// pairs in sorted `(left, right)` order with duplicates removed, or the
/// row-major cross product when blocking is off — but one left row at a
/// time, so the full pair list is never resident. Blocking state (the
/// inverted indexes over the right rows and the left rows' key ids) is
/// built up front; its size is linear in the input rows, not in the pair
/// count.
pub struct PairChunkStream {
    source: PairSource,
    buffer: Vec<(usize, usize)>,
    chunk_pairs: usize,
}

enum PairSource {
    /// Row-major cross product (blocking disabled).
    Exhaustive { left_len: usize, right_len: usize, next_row: usize },
    /// Token blocking: per attribute pair, an inverted index over the right
    /// rows plus each left row's blocking-key ids.
    Blocked {
        /// One inverted index (`key id → right rows`) per resolvable
        /// attribute pair.
        indexes: Vec<HashMap<u32, Vec<usize>>>,
        /// `left_keys[attr][row]`: blocking-key ids of the left row.
        left_keys: Vec<Vec<Vec<u32>>>,
        left_len: usize,
        next_row: usize,
    },
}

impl PairChunkStream {
    /// Builds a stream over the pairs the given configuration selects.
    /// `interner` is only used during construction (key interning).
    pub fn new(
        left_schema: &Schema,
        left_rows: &[Row],
        right_schema: &Schema,
        right_rows: &[Row],
        config: &MappingConfig,
        interner: &mut TokenInterner,
    ) -> Self {
        let source = if config.use_blocking {
            let mut indexes = Vec::new();
            let mut left_keys = Vec::new();
            for (lcol, rcol) in &config.attr_pairs {
                let (Ok(li), Ok(ri)) = (left_schema.index_of(lcol), right_schema.index_of(rcol))
                else {
                    continue;
                };
                let mut index: HashMap<u32, Vec<usize>> = HashMap::new();
                for (j, row) in right_rows.iter().enumerate() {
                    for key in blocking_key_ids(row.get(ri).unwrap_or(&Value::Null), interner) {
                        index.entry(key).or_default().push(j);
                    }
                }
                let keys: Vec<Vec<u32>> = left_rows
                    .iter()
                    .map(|row| blocking_key_ids(row.get(li).unwrap_or(&Value::Null), interner))
                    .collect();
                indexes.push(index);
                left_keys.push(keys);
            }
            PairSource::Blocked { indexes, left_keys, left_len: left_rows.len(), next_row: 0 }
        } else {
            PairSource::Exhaustive {
                left_len: left_rows.len(),
                right_len: right_rows.len(),
                next_row: 0,
            }
        };
        PairChunkStream { source, buffer: Vec::new(), chunk_pairs: config.chunk_pairs.max(1) }
    }

    /// Appends the next left row's pairs to the buffer. Returns false when
    /// the source is exhausted.
    fn refill(&mut self) -> bool {
        match &mut self.source {
            PairSource::Exhaustive { left_len, right_len, next_row } => {
                if *next_row >= *left_len || *right_len == 0 {
                    return false;
                }
                let i = *next_row;
                self.buffer.extend((0..*right_len).map(|j| (i, j)));
                *next_row += 1;
                *next_row < *left_len
            }
            PairSource::Blocked { indexes, left_keys, left_len, next_row } => {
                if *next_row >= *left_len {
                    return false;
                }
                let i = *next_row;
                // Union of this row's matches across all attribute pairs,
                // sorted and deduplicated — per-row this reproduces exactly
                // the globally sorted, deduplicated pair list of
                // `enumerate_pairs` restricted to row `i`.
                let mut js: Vec<usize> = Vec::new();
                for (index, keys) in indexes.iter().zip(left_keys.iter()) {
                    for key in &keys[i] {
                        if let Some(matched) = index.get(key) {
                            js.extend_from_slice(matched);
                        }
                    }
                }
                js.sort_unstable();
                js.dedup();
                self.buffer.extend(js.into_iter().map(|j| (i, j)));
                *next_row += 1;
                *next_row < *left_len
            }
        }
    }
}

impl Iterator for PairChunkStream {
    type Item = Vec<(usize, usize)>;

    fn next(&mut self) -> Option<Vec<(usize, usize)>> {
        while self.buffer.len() < self.chunk_pairs && self.refill() {}
        if self.buffer.is_empty() {
            return None;
        }
        let take = self.chunk_pairs.min(self.buffer.len());
        let rest = self.buffer.split_off(take);
        Some(std::mem::replace(&mut self.buffer, rest))
    }
}

/// Computes candidate pairs and their raw similarities.
///
/// Rows are tokenised once up front; pairs are enumerated as a stream of
/// bounded chunks ([`PairChunkStream`]) scored in parallel across CPU
/// cores, so the output is byte-identical to a sequential scan (and to
/// [`candidate_pairs_naive`]) while the full pair list is never resident.
pub fn candidate_pairs(
    left_schema: &Schema,
    left_rows: &[Row],
    right_schema: &Schema,
    right_rows: &[Row],
    config: &MappingConfig,
) -> Vec<Candidate> {
    candidate_pairs_streaming(left_schema, left_rows, right_schema, right_rows, config).0
}

/// [`candidate_pairs`] plus the streaming statistics of the run (total
/// pairs scored, chunk count, peak resident pairs).
pub fn candidate_pairs_streaming(
    left_schema: &Schema,
    left_rows: &[Row],
    right_schema: &Schema,
    right_rows: &[Row],
    config: &MappingConfig,
) -> (Vec<Candidate>, CandidateGenStats) {
    let chunk_pairs = config.chunk_pairs.max(1);
    if config.attr_pairs.is_empty() {
        return (Vec::new(), CandidateGenStats { chunk_pairs, ..Default::default() });
    }

    let mut interner = TokenInterner::new();
    let scorer = PreparedScorer::new(
        left_schema,
        left_rows,
        right_schema,
        right_rows,
        config,
        &mut interner,
    );

    let stream = PairChunkStream::new(
        left_schema,
        left_rows,
        right_schema,
        right_rows,
        config,
        &mut interner,
    );

    let threads = explain3d_parallel::max_threads().max(1);
    let scorer = &scorer;
    let min_similarity = config.min_similarity;

    // The persistent worker pool tracks the in-flight set itself, so the
    // residency metric comes straight from the scheduler (each worker holds
    // at most one chunk, so the peak is bounded by `threads × chunk size`)
    // instead of being reconstructed caller-side from assumed wave
    // boundaries.
    let (scored, sched) = explain3d_parallel::par_map_iter_stealing(
        stream,
        threads,
        Vec::len,
        |chunk: Vec<(usize, usize)>| {
            let mut out = Vec::new();
            for (i, j) in chunk {
                let sim = scorer.score(i, j);
                if sim >= min_similarity {
                    out.push(Candidate { left: i, right: j, similarity: sim });
                }
            }
            out
        },
    );

    let out: Vec<Candidate> = scored.into_iter().flatten().collect();
    (
        out,
        CandidateGenStats {
            pairs_scored: sched.total_weight,
            chunks: sched.executed,
            chunk_pairs,
            peak_resident_pairs: sched.peak_resident_weight,
        },
    )
}

/// The straightforward candidate generator: every pair is scored with
/// [`tuple_similarity`], re-tokenising both rows per comparison.
///
/// This is the reference implementation [`candidate_pairs`] is tested
/// against. Prefer [`candidate_pairs`] everywhere else.
pub fn candidate_pairs_naive(
    left_schema: &Schema,
    left_rows: &[Row],
    right_schema: &Schema,
    right_rows: &[Row],
    config: &MappingConfig,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    if config.attr_pairs.is_empty() {
        return out;
    }

    let mut interner = TokenInterner::new();
    let pairs_to_check =
        enumerate_pairs(left_schema, left_rows, right_schema, right_rows, config, &mut interner);

    for (i, j) in pairs_to_check {
        let sim = tuple_similarity(
            left_schema,
            &left_rows[i],
            right_schema,
            &right_rows[j],
            &config.attr_pairs,
            config.metric,
        );
        if sim >= config.min_similarity {
            out.push(Candidate { left: i, right: j, similarity: sim });
        }
    }
    out
}

/// The pairs a candidate generator must score: the blocked pair list when
/// blocking is enabled, the full row-major cross product otherwise. This is
/// the *reference* enumeration used by [`candidate_pairs_naive`];
/// [`PairChunkStream`] re-implements the same enumeration as a stream and
/// MUST stay in lock-step with it — any change to blocking semantics has to
/// land in both places (the contract is pinned by
/// `pair_chunk_stream_matches_enumerate_pairs` and the seeded equivalence
/// suites in `tests/perf_equivalence.rs`).
fn enumerate_pairs(
    left_schema: &Schema,
    left_rows: &[Row],
    right_schema: &Schema,
    right_rows: &[Row],
    config: &MappingConfig,
    interner: &mut TokenInterner,
) -> Vec<(usize, usize)> {
    if config.use_blocking {
        blocked_pairs(
            left_schema,
            left_rows,
            right_schema,
            right_rows,
            &config.attr_pairs,
            interner,
        )
    } else {
        let mut all = Vec::with_capacity(left_rows.len() * right_rows.len());
        for i in 0..left_rows.len() {
            for j in 0..right_rows.len() {
                all.push((i, j));
            }
        }
        all
    }
}

/// Token blocking: candidate pairs share at least one token (strings) or the
/// exact value (numbers/booleans) on at least one matching attribute.
/// Keys are interned ids, so the inverted index is `u32 → rows` rather than
/// `String → rows`. The result is sorted by `(left, right)`.
fn blocked_pairs(
    left_schema: &Schema,
    left_rows: &[Row],
    right_schema: &Schema,
    right_rows: &[Row],
    attr_pairs: &[(String, String)],
    interner: &mut TokenInterner,
) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();

    for (lcol, rcol) in attr_pairs {
        let (Ok(li), Ok(ri)) = (left_schema.index_of(lcol), right_schema.index_of(rcol)) else {
            continue;
        };
        // Inverted index over the right side's blocking keys.
        let mut index: HashMap<u32, Vec<usize>> = HashMap::new();
        for (j, row) in right_rows.iter().enumerate() {
            for key in blocking_key_ids(row.get(ri).unwrap_or(&Value::Null), interner) {
                index.entry(key).or_default().push(j);
            }
        }
        for (i, row) in left_rows.iter().enumerate() {
            let mut seen: HashSet<usize> = HashSet::new();
            for key in blocking_key_ids(row.get(li).unwrap_or(&Value::Null), interner) {
                if let Some(js) = index.get(&key) {
                    for &j in js {
                        if seen.insert(j) {
                            pairs.push((i, j));
                        }
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Blocking keys of a value as interned ids: word tokens for strings, the
/// canonical text (one key) for numbers and booleans, nothing for NULL.
fn blocking_key_ids(value: &Value, interner: &mut TokenInterner) -> Vec<u32> {
    match value {
        Value::Null => Vec::new(),
        Value::Str(s) => interner.token_ids(s),
        other => vec![interner.intern(&other.to_string())],
    }
}

/// Labels a deterministic sample of candidates against a gold evidence set,
/// producing `(similarity, is_true_match)` pairs for calibrator fitting.
///
/// `sample_every` keeps one candidate out of every `sample_every` (1 = all).
pub fn label_candidates(
    candidates: &[Candidate],
    gold_pairs: &HashSet<(usize, usize)>,
    sample_every: usize,
) -> Vec<(f64, bool)> {
    let step = sample_every.max(1);
    candidates
        .iter()
        .enumerate()
        .filter(|(idx, _)| idx % step == 0)
        .map(|(_, c)| (c.similarity, gold_pairs.contains(&(c.left, c.right))))
        .collect()
}

/// Generates the initial tuple mapping: candidates → calibrated probabilities.
pub fn generate_mapping(
    left_schema: &Schema,
    left_rows: &[Row],
    right_schema: &Schema,
    right_rows: &[Row],
    config: &MappingConfig,
    calibrator: &BucketCalibrator,
) -> TupleMapping {
    let candidates = candidate_pairs(left_schema, left_rows, right_schema, right_rows, config);
    candidates
        .into_iter()
        .map(|c| TupleMatch::new(c.left, c.right, calibrator.probability(c.similarity)))
        .collect()
}

/// Convenience wrapper that also fits the calibrator from a gold standard
/// before producing the mapping — this mirrors the paper's experimental
/// setup, where bucket probabilities are estimated from a labelled sample.
pub fn generate_calibrated_mapping(
    left_schema: &Schema,
    left_rows: &[Row],
    right_schema: &Schema,
    right_rows: &[Row],
    config: &MappingConfig,
    gold_pairs: &HashSet<(usize, usize)>,
    sample_every: usize,
) -> (TupleMapping, BucketCalibrator) {
    let candidates = candidate_pairs(left_schema, left_rows, right_schema, right_rows, config);
    // Use the paper's 50 buckets when there are enough labelled candidates to
    // estimate each bucket; otherwise coarsen so per-bucket ratios are not
    // dominated by sampling noise.
    let buckets = (candidates.len() / 10).clamp(5, BucketCalibrator::DEFAULT_BUCKETS);
    let mut calibrator = BucketCalibrator::new(buckets);
    let labelled = label_candidates(&candidates, gold_pairs, sample_every);
    calibrator.fit(&labelled);
    let mapping = candidates
        .into_iter()
        .map(|c| TupleMatch::new(c.left, c.right, calibrator.probability(c.similarity)))
        .collect();
    (mapping, calibrator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain3d_relation::prelude::ValueType;
    use explain3d_relation::row;

    fn left() -> (Schema, Vec<Row>) {
        (
            Schema::from_pairs(&[("program", ValueType::Str)]),
            vec![
                row!["Accounting"],
                row!["Computer Science"],
                row!["Electrical Engineering"],
                row!["Design"],
            ],
        )
    }

    fn right() -> (Schema, Vec<Row>) {
        (
            Schema::from_pairs(&[("major", ValueType::Str)]),
            vec![
                row!["Accounting"],
                row!["Computer Science and Engineering"],
                row!["Electrical Engineering"],
            ],
        )
    }

    fn config() -> MappingConfig {
        MappingConfig::new(vec![("program".to_string(), "major".to_string())])
    }

    #[test]
    fn candidates_respect_min_similarity() {
        let (ls, lr) = left();
        let (rs, rr) = right();
        let cands = candidate_pairs(&ls, &lr, &rs, &rr, &config());
        // "Design" shares no token with any right tuple, so it produces no candidate.
        assert!(cands.iter().all(|c| c.left != 3));
        // Exact matches have similarity 1.
        assert!(cands
            .iter()
            .any(|c| c.left == 0 && c.right == 0 && (c.similarity - 1.0).abs() < 1e-12));
        // Partial overlap: Computer Science vs Computer Science and Engineering.
        assert!(cands.iter().any(|c| c.left == 1 && c.right == 1 && c.similarity > 0.3));
    }

    #[test]
    fn blocking_matches_exhaustive_comparison_above_threshold() {
        let (ls, lr) = left();
        let (rs, rr) = right();
        let blocked = candidate_pairs(&ls, &lr, &rs, &rr, &config());
        let exhaustive = candidate_pairs(&ls, &lr, &rs, &rr, &config().without_blocking());
        // Every exhaustive candidate above the similarity floor that shares a
        // token must also be found by blocking.
        for c in &exhaustive {
            if c.similarity > 0.0 {
                assert!(
                    blocked.iter().any(|b| b.left == c.left && b.right == c.right),
                    "blocking missed pair ({}, {})",
                    c.left,
                    c.right
                );
            }
        }
    }

    #[test]
    fn interned_kernel_matches_naive_per_pair_scoring() {
        let ls = Schema::from_pairs(&[
            ("name", ValueType::Str),
            ("year", ValueType::Int),
            ("score", ValueType::Float),
        ]);
        let rs = Schema::from_pairs(&[
            ("title", ValueType::Str),
            ("published", ValueType::Int),
            ("rating", ValueType::Float),
        ]);
        let lr = vec![
            row!["Computer Science", 1999, 3.5],
            row!["electrical engineering dept", 2001, 4.0],
            row![Value::Null, 1999, 2.25],
            row!["design", Value::Null, Value::Null],
        ];
        let rr = vec![
            row!["computer science and engineering", 1999, 3.5],
            row!["Design School", 2001, 1.0],
            row![Value::Null, Value::Null, 4.0],
        ];
        let attr_pairs = vec![
            ("name".to_string(), "title".to_string()),
            ("year".to_string(), "published".to_string()),
            ("score".to_string(), "rating".to_string()),
            // Unknown columns contribute NULL-vs-value comparisons.
            ("missing".to_string(), "title".to_string()),
        ];
        for metric in [StringMetric::Jaccard, StringMetric::Jaro, StringMetric::JaroWinkler] {
            for blocking in [true, false] {
                let mut cfg = MappingConfig::new(attr_pairs.clone())
                    .with_metric(metric)
                    .with_min_similarity(0.0);
                cfg.use_blocking = blocking;
                let fast = candidate_pairs(&ls, &lr, &rs, &rr, &cfg);
                let naive = candidate_pairs_naive(&ls, &lr, &rs, &rr, &cfg);
                assert_eq!(fast.len(), naive.len(), "metric {metric:?} blocking {blocking}");
                for (f, n) in fast.iter().zip(naive.iter()) {
                    assert_eq!((f.left, f.right), (n.left, n.right));
                    assert_eq!(
                        f.similarity.to_bits(),
                        n.similarity.to_bits(),
                        "similarity differs for ({}, {}): {} vs {}",
                        f.left,
                        f.right,
                        f.similarity,
                        n.similarity
                    );
                }
            }
        }
    }

    #[test]
    fn numeric_blocking_uses_exact_values() {
        let ls = Schema::from_pairs(&[("year", ValueType::Int)]);
        let rs = Schema::from_pairs(&[("year", ValueType::Int)]);
        let lr = vec![row![1999], row![2000]];
        let rr = vec![row![1999], row![2001]];
        let cfg = MappingConfig::new(vec![("year".to_string(), "year".to_string())]);
        let cands = candidate_pairs(&ls, &lr, &rs, &rr, &cfg);
        assert_eq!(cands.len(), 1);
        assert_eq!((cands[0].left, cands[0].right), (0, 0));
    }

    #[test]
    fn empty_attr_pairs_produce_no_candidates() {
        let (ls, lr) = left();
        let (rs, rr) = right();
        let cfg = MappingConfig::new(vec![]);
        assert!(candidate_pairs(&ls, &lr, &rs, &rr, &cfg).is_empty());
        let (out, stats) = candidate_pairs_streaming(&ls, &lr, &rs, &rr, &cfg);
        assert!(out.is_empty());
        assert_eq!(stats.pairs_scored, 0);
        assert_eq!(stats.chunks, 0);
    }

    #[test]
    fn pair_chunk_stream_matches_enumerate_pairs() {
        let (ls, lr) = left();
        let (rs, rr) = right();
        for blocking in [true, false] {
            for chunk_pairs in [1usize, 2, 3, 7, 1024] {
                let mut cfg = config().with_chunk_pairs(chunk_pairs);
                cfg.use_blocking = blocking;
                let mut interner = TokenInterner::new();
                let expected = enumerate_pairs(&ls, &lr, &rs, &rr, &cfg, &mut interner);
                let mut interner = TokenInterner::new();
                let stream = PairChunkStream::new(&ls, &lr, &rs, &rr, &cfg, &mut interner);
                let mut streamed = Vec::new();
                for chunk in stream {
                    assert!(chunk.len() <= chunk_pairs, "chunk exceeded its bound");
                    streamed.extend(chunk);
                }
                assert_eq!(streamed, expected, "blocking={blocking} chunk={chunk_pairs}");
            }
        }
    }

    #[test]
    fn streaming_stats_bound_peak_residency() {
        let (ls, lr) = left();
        let (rs, rr) = right();
        let cfg = config().without_blocking().with_chunk_pairs(2).with_min_similarity(0.0);
        let (out, stats) = candidate_pairs_streaming(&ls, &lr, &rs, &rr, &cfg);
        assert_eq!(stats.pairs_scored, lr.len() * rr.len());
        assert_eq!(stats.chunk_pairs, 2);
        assert_eq!(stats.chunks, stats.pairs_scored.div_ceil(2));
        let threads = explain3d_parallel::max_threads().max(1);
        assert!(stats.peak_resident_pairs <= threads * stats.chunk_pairs);
        assert!(stats.peak_resident_pairs >= 1);
        // The retained output is unaffected by the chunk size.
        assert_eq!(
            out,
            candidate_pairs(
                &ls,
                &lr,
                &rs,
                &rr,
                &config().without_blocking().with_min_similarity(0.0)
            )
        );
    }

    #[test]
    fn chunk_size_never_changes_the_output() {
        let (ls, lr) = left();
        let (rs, rr) = right();
        let reference = candidate_pairs_naive(&ls, &lr, &rs, &rr, &config());
        for chunk_pairs in [1usize, 3, 5, 4096] {
            let fast = candidate_pairs(&ls, &lr, &rs, &rr, &config().with_chunk_pairs(chunk_pairs));
            assert_eq!(fast.len(), reference.len(), "chunk={chunk_pairs}");
            for (f, n) in fast.iter().zip(reference.iter()) {
                assert_eq!((f.left, f.right), (n.left, n.right));
                assert_eq!(f.similarity.to_bits(), n.similarity.to_bits());
            }
        }
    }

    #[test]
    fn candidate_ordering_is_total_and_deterministic() {
        let mut cands = vec![
            Candidate { left: 1, right: 0, similarity: 0.5 },
            Candidate { left: 0, right: 1, similarity: 0.9 },
            Candidate { left: 0, right: 1, similarity: 0.9 },
            Candidate { left: 0, right: 0, similarity: f64::NAN },
        ];
        cands.sort();
        cands.dedup();
        assert_eq!(cands.len(), 3);
        assert_eq!((cands[0].left, cands[0].right), (0, 0));
        assert_eq!((cands[1].left, cands[1].right), (0, 1));
        assert_eq!((cands[2].left, cands[2].right), (1, 0));
    }

    #[test]
    fn calibrated_mapping_boosts_true_matches() {
        let (ls, lr) = left();
        let (rs, rr) = right();
        let gold: HashSet<(usize, usize)> = HashSet::from([(0, 0), (1, 1), (2, 2)]);
        let (mapping, calibrator) =
            generate_calibrated_mapping(&ls, &lr, &rs, &rr, &config(), &gold, 1);
        assert!(!mapping.is_empty());
        // The exact-match bucket should have learned a high probability.
        assert!(calibrator.probability(1.0) > 0.5);
        let p00 = mapping.prob(0, 0).unwrap();
        assert!(p00 > 0.5);
    }

    #[test]
    fn generate_mapping_with_identity_calibration() {
        let (ls, lr) = left();
        let (rs, rr) = right();
        let calib = BucketCalibrator::new(10);
        let mapping = generate_mapping(&ls, &lr, &rs, &rr, &config(), &calib);
        // Probabilities fall back to bucket mid-points of the raw similarity.
        let p = mapping.prob(0, 0).unwrap();
        assert!(p > 0.9);
    }

    #[test]
    fn label_candidates_samples_deterministically() {
        let cands: Vec<Candidate> =
            (0..10).map(|i| Candidate { left: i, right: i, similarity: 0.5 }).collect();
        let gold: HashSet<(usize, usize)> = HashSet::from([(0, 0), (2, 2)]);
        let all = label_candidates(&cands, &gold, 1);
        assert_eq!(all.len(), 10);
        assert_eq!(all.iter().filter(|(_, l)| *l).count(), 2);
        let sampled = label_candidates(&cands, &gold, 3);
        assert_eq!(sampled.len(), 4); // indexes 0, 3, 6, 9
        let zero_step = label_candidates(&cands, &gold, 0);
        assert_eq!(zero_step.len(), 10);
    }
}
