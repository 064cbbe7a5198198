//! Initial tuple-mapping generation.
//!
//! Explain3D treats record-linkage as a black-box component that produces an
//! *initial*, probabilistic tuple mapping `M_tuple` between the two canonical
//! relations (Section 5.1.2). This module implements that component:
//! pairwise similarity computation (with optional token blocking to avoid a
//! quadratic blow-up on large inputs), followed by similarity-to-probability
//! calibration.
//!
//! ## Candidate generation is one pass over each side
//!
//! [`candidate_pairs`] tokenises every compared value of both sides once
//! into interned `u32` token ids ([`TokenInterner`]); the same pass yields
//! each value's blocking keys. The right side's keys become a dense
//! inverted index: CSR offsets over the token ids plus posting lists of
//! right rows. Left rows are scored in contiguous blocks on the
//! work-stealing pool. Each row walks the postings of its keys, collecting
//! its unique partners and counting, per attribute pair, the keys it shares
//! with each of them; a Jaccard term between two strings is read off that
//! count, every other term is computed from the prepared values. No pair
//! list is ever held: a worker keeps one row's partners plus scratch linear
//! in the right side.
//!
//! The output — same pairs, same order, same floating-point similarities —
//! is that of the straightforward per-pair implementation, kept as
//! [`candidate_pairs_naive`] for tests and the performance-trajectory
//! benchmark.

use crate::calibrate::BucketCalibrator;
use crate::matches::{TupleMapping, TupleMatch};
use crate::similarity::{
    jaccard_counts, jaccard_ids, jaro, jaro_winkler, tuple_similarity, StringMetric,
};
use crate::tokenize::TokenInterner;
use explain3d_parallel::split_ranges;
use explain3d_relation::prelude::{Row, Schema, Value};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

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
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            attr_pairs: Vec::new(),
            metric: StringMetric::Jaccard,
            min_similarity: 0.05,
            use_blocking: true,
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
/// ids of the textual form, raw string reference, blocking key).
#[derive(Debug, Clone)]
enum Prepared<'a> {
    /// SQL NULL (also used for out-of-schema columns, like the original
    /// per-pair path).
    Null,
    /// A string: raw slice (for Jaro metrics) plus sorted token ids.
    Str { raw: &'a str, tokens: Vec<u32> },
    /// A boolean: the value, its numeric form, and textual-form token ids.
    Bool { value: bool, num: f64, tokens: Vec<u32> },
    /// An Int/Float: the numeric form, textual-form token ids, and the
    /// interned id of the whole text (its one blocking key).
    Num { num: f64, tokens: Vec<u32>, key: u32 },
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

    /// Blocking keys, exactly `blocking_key_ids`' on the original value:
    /// the token ids of a string or boolean (a boolean's text is one token),
    /// the whole text of a number, nothing for NULL.
    fn keys(&self) -> &[u32] {
        match self {
            Prepared::Null => &[],
            Prepared::Str { tokens, .. } | Prepared::Bool { tokens, .. } => tokens,
            Prepared::Num { key, .. } => std::slice::from_ref(key),
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
            Some(v) => {
                let text = v.to_string();
                Prepared::Num {
                    num: v.as_f64().expect("Int/Float always has a numeric form"),
                    tokens: interner.token_ids(&text),
                    key: interner.intern(&text),
                }
            }
        })
        .collect()
}

/// Similarity of two prepared values — the zero-copy twin of
/// [`crate::similarity::value_similarity`] (same dispatch, same results).
/// `shared` is the number of blocking keys the two values share; for two
/// strings, whose keys are their token ids, that is the size of their
/// token-set intersection, so their Jaccard is one division.
fn prepared_similarity(
    a: &Prepared<'_>,
    b: &Prepared<'_>,
    metric: StringMetric,
    shared: u32,
) -> f64 {
    match (a, b) {
        (Prepared::Null, Prepared::Null) => 1.0,
        (Prepared::Null, _) | (_, Prepared::Null) => 0.0,
        (Prepared::Str { raw: ra, tokens: ta }, Prepared::Str { raw: rb, tokens: tb }) => {
            match metric {
                StringMetric::Jaccard => jaccard_counts(ta.len(), tb.len(), shared as usize),
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

/// Prepares one side's compared columns in a single pass: `result[p][row]`
/// is the row's value in attribute pair `p`'s column on this side,
/// tokenised once. The same values carry the row's blocking keys
/// ([`Prepared::keys`]). Both sides of a run share one interner, so their
/// token ids and keys are comparable.
fn prepare_side<'a, 'c>(
    schema: &Schema,
    rows: &'a [Row],
    columns: impl Iterator<Item = &'c str>,
    interner: &mut TokenInterner,
) -> Vec<Vec<Prepared<'a>>> {
    columns.map(|column| prepare_column(schema, rows, column, interner)).collect()
}

/// The right side's blocking keys as one inverted index per attribute pair,
/// in CSR form over the dense token ids: the right rows holding key `k` in
/// attribute pair `p`'s column are `rows[p][offsets[p][k]..offsets[p][k + 1]]`,
/// in ascending order, each at most once.
struct PostingIndex {
    offsets: Vec<Vec<u32>>,
    rows: Vec<Vec<u32>>,
}

impl PostingIndex {
    /// Indexes every column of `side`; `tokens` bounds the key ids.
    fn new(side: &[Vec<Prepared<'_>>], tokens: usize) -> Self {
        let mut offsets = Vec::with_capacity(side.len());
        let mut rows = Vec::with_capacity(side.len());
        for column in side {
            // Counting sort: key counts, prefix sums, then a stable scatter.
            let mut offs = vec![0u32; tokens + 1];
            for value in column {
                for &key in value.keys() {
                    offs[key as usize + 1] += 1;
                }
            }
            for k in 0..tokens {
                offs[k + 1] += offs[k];
            }
            let mut next = offs.clone();
            let mut postings = vec![0u32; offs[tokens] as usize];
            for (j, value) in column.iter().enumerate() {
                let j = u32::try_from(j).expect("right side exceeds u32 rows");
                for &key in value.keys() {
                    let at = &mut next[key as usize];
                    postings[*at as usize] = j;
                    *at += 1;
                }
            }
            offsets.push(offs);
            rows.push(postings);
        }
        PostingIndex { offsets, rows }
    }

    /// The right rows holding `key` in attribute pair `attr`'s column.
    fn postings(&self, attr: usize, key: u32) -> &[u32] {
        let offs = &self.offsets[attr];
        let k = key as usize;
        &self.rows[attr][offs[k] as usize..offs[k + 1] as usize]
    }
}

/// Everything one candidate-generation run reads: both prepared sides, the
/// right side's posting index and the scoring settings.
struct CandidateKernel<'a> {
    left: Vec<Vec<Prepared<'a>>>,
    right: Vec<Vec<Prepared<'a>>>,
    index: PostingIndex,
    right_len: usize,
    metric: StringMetric,
    min_similarity: f64,
    use_blocking: bool,
}

impl<'a> CandidateKernel<'a> {
    fn new(
        left_schema: &Schema,
        left_rows: &'a [Row],
        right_schema: &Schema,
        right_rows: &'a [Row],
        config: &MappingConfig,
    ) -> Self {
        let mut interner = TokenInterner::new();
        let pairs = &config.attr_pairs;
        let left = prepare_side(left_schema, left_rows, pairs.iter().map(|p| &*p.0), &mut interner);
        let right =
            prepare_side(right_schema, right_rows, pairs.iter().map(|p| &*p.1), &mut interner);
        let index = PostingIndex::new(&right, interner.len());
        CandidateKernel {
            left,
            right,
            index,
            right_len: right_rows.len(),
            metric: config.metric,
            min_similarity: config.min_similarity,
            use_blocking: config.use_blocking,
        }
    }

    /// The retained candidates of the left rows in `rows`, sorted by
    /// `(left, right)`.
    ///
    /// A row's partners are the right rows sharing a blocking key with it on
    /// some attribute pair (every right row when blocking is off). Walking
    /// the postings also counts, per partner and attribute pair, the keys
    /// the two rows share; [`CandidateKernel::score`] reads string Jaccard
    /// terms off those counts.
    fn score_rows(&self, rows: Range<usize>) -> Vec<Candidate> {
        let attrs = self.left.len();
        // `seen[j] == i`: right row `j` is already a partner of left row `i`.
        let mut seen = vec![usize::MAX; self.right_len];
        // `overlap[j * attrs + p]`: keys shared with right row `j` on pair `p`.
        let mut overlap = vec![0u32; self.right_len * attrs];
        let mut partners: Vec<usize> = Vec::new();
        let mut out = Vec::new();
        for i in rows {
            partners.clear();
            if !self.use_blocking {
                partners.extend(0..self.right_len);
                seen.fill(i);
                overlap.fill(0);
            }
            for (p, column) in self.left.iter().enumerate() {
                for &key in column[i].keys() {
                    for &j in self.index.postings(p, key) {
                        let j = j as usize;
                        if seen[j] != i {
                            seen[j] = i;
                            partners.push(j);
                            overlap[j * attrs..(j + 1) * attrs].fill(0);
                        }
                        overlap[j * attrs + p] += 1;
                    }
                }
            }
            partners.sort_unstable();
            for &j in &partners {
                let similarity = self.score(i, j, &overlap[j * attrs..(j + 1) * attrs]);
                if similarity >= self.min_similarity {
                    out.push(Candidate { left: i, right: j, similarity });
                }
            }
        }
        out
    }

    /// Mean similarity of left row `i` and right row `j` over the attribute
    /// pairs, accumulated in the same order (and therefore with the same
    /// floating-point result) as [`tuple_similarity`]. `overlap[p]` is the
    /// number of blocking keys the two rows share on attribute pair `p`.
    fn score(&self, i: usize, j: usize, overlap: &[u32]) -> f64 {
        let mut total = 0.0;
        for ((lcol, rcol), &shared) in self.left.iter().zip(&self.right).zip(overlap) {
            total += prepared_similarity(&lcol[i], &rcol[j], self.metric, shared);
        }
        total / self.left.len() as f64
    }
}

/// Left rows per scoring block, at least: smaller inputs are not worth a
/// worker thread.
const MIN_BLOCK_ROWS: usize = 32;

/// Computes candidate pairs and their raw similarities, sorted by
/// `(left, right)`.
///
/// Both sides are tokenised once; left rows are then scored in contiguous
/// blocks on the work-stealing pool and the blocks' outputs concatenated in
/// order, so the result is byte-identical to a sequential scan and to
/// [`candidate_pairs_naive`].
pub fn candidate_pairs(
    left_schema: &Schema,
    left_rows: &[Row],
    right_schema: &Schema,
    right_rows: &[Row],
    config: &MappingConfig,
) -> Vec<Candidate> {
    if config.attr_pairs.is_empty() {
        return Vec::new();
    }
    let kernel = CandidateKernel::new(left_schema, left_rows, right_schema, right_rows, config);
    let threads = explain3d_parallel::max_threads();
    // A few blocks per worker, so stealing can even out uneven rows.
    let blocks = left_rows.len().div_ceil(MIN_BLOCK_ROWS).min(4 * threads);
    let (scored, _) = explain3d_parallel::par_map_stealing_weighted(
        split_ranges(left_rows.len(), blocks),
        threads,
        Range::len,
        |rows| kernel.score_rows(rows),
    );
    scored.concat()
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
/// the *reference* enumeration used by [`candidate_pairs_naive`]. The
/// kernel behind [`candidate_pairs`] re-implements the same enumeration
/// (`Prepared::keys` and the posting index) and MUST stay in lock-step with
/// it — any change to blocking semantics has to land in both places (the
/// contract is pinned by `row_partners_match_enumerate_pairs` and the
/// seeded equivalence suites in `tests/perf_equivalence.rs`).
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
        assert!(candidate_pairs_naive(&ls, &lr, &rs, &rr, &cfg).is_empty());
    }

    /// Asserts `candidate_pairs` equals `candidate_pairs_naive` bit for bit
    /// under every metric, with blocking on and off, at a zero floor and at
    /// the default one.
    fn assert_kernel_matches_naive(
        ls: &Schema,
        lr: &[Row],
        rs: &Schema,
        rr: &[Row],
        attr_pairs: &[(&str, &str)],
    ) {
        let attr_pairs: Vec<(String, String)> =
            attr_pairs.iter().map(|(l, r)| (l.to_string(), r.to_string())).collect();
        for metric in [StringMetric::Jaccard, StringMetric::Jaro, StringMetric::JaroWinkler] {
            for blocking in [true, false] {
                for min in [0.0, MappingConfig::default().min_similarity] {
                    let mut cfg = MappingConfig::new(attr_pairs.clone())
                        .with_metric(metric)
                        .with_min_similarity(min);
                    cfg.use_blocking = blocking;
                    let fast = candidate_pairs(ls, lr, rs, rr, &cfg);
                    let naive = candidate_pairs_naive(ls, lr, rs, rr, &cfg);
                    let bits = |c: &[Candidate]| -> Vec<(usize, usize, u64)> {
                        c.iter().map(|c| (c.left, c.right, c.similarity.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&fast),
                        bits(&naive),
                        "{attr_pairs:?} metric {metric:?} blocking {blocking} min {min}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_matches_naive_on_mixed_type_values() {
        // Str "1999" vs Int 1999 share the key "1999"; "-2" and 3.5 split
        // into several tokens but block on their whole text; booleans block
        // on their one token.
        let ls = Schema::from_pairs(&[
            ("a", ValueType::Str),
            ("b", ValueType::Int),
            ("c", ValueType::Bool),
        ]);
        let rs = Schema::from_pairs(&[
            ("x", ValueType::Int),
            ("y", ValueType::Str),
            ("z", ValueType::Bool),
            ("w", ValueType::Str),
        ]);
        let lr = vec![
            row!["1999", -2, true],
            row!["3.5", 1999, false],
            row!["2 3 5", 3, true],
            row!["true", Value::Float(3.5), Value::Null],
            row![Value::Null, Value::Float(-2.0), false],
        ];
        let rr = vec![
            row![1999, "-2", true, "true"],
            row![Value::Float(3.5), "3 5", false, "false"],
            row![-2, "1999", true, "3.5"],
            row![2, "2", Value::Null, "TRUE"],
        ];
        assert_kernel_matches_naive(&ls, &lr, &rs, &rr, &[("a", "x"), ("b", "y"), ("c", "z")]);
        assert_kernel_matches_naive(&ls, &lr, &rs, &rr, &[("a", "y"), ("b", "x")]);
        assert_kernel_matches_naive(&ls, &lr, &rs, &rr, &[("c", "w"), ("a", "w")]);
        assert_kernel_matches_naive(&ls, &lr, &rs, &rr, &[("b", "w"), ("c", "y")]);
    }

    #[test]
    fn kernel_matches_naive_on_token_edge_cases() {
        // Repeated and case-variant tokens, and empty or punctuation-only
        // strings on one side and on both.
        let ls = Schema::from_pairs(&[("s", ValueType::Str)]);
        let rs = Schema::from_pairs(&[("t", ValueType::Str)]);
        let lr = vec![
            row!["Data data DATA science"],
            row![""],
            row!["--!!"],
            row!["data, Science; science"],
            row!["ünïcode Ünïcode x"],
        ];
        let rr = vec![
            row!["data Science science"],
            row!["  "],
            row![""],
            row!["DATA"],
            row!["ÜNÏCODE ünïcode X"],
        ];
        assert_kernel_matches_naive(&ls, &lr, &rs, &rr, &[("s", "t")]);
        // Empty and punctuation-only strings on one side only.
        assert_kernel_matches_naive(&ls, &lr, &rs, &rr[..1], &[("s", "t")]);
        assert_kernel_matches_naive(&ls, &lr[..1], &rs, &rr, &[("s", "t")]);
        // Two attribute pairs over the same columns.
        assert_kernel_matches_naive(&ls, &lr, &rs, &rr, &[("s", "t"), ("s", "t")]);
    }

    #[test]
    fn kernel_matches_naive_on_partial_schemas() {
        let ls = Schema::from_pairs(&[("name", ValueType::Str), ("year", ValueType::Int)]);
        let rs = Schema::from_pairs(&[("title", ValueType::Str), ("year", ValueType::Int)]);
        let lr =
            vec![row!["computer science", 1999], row!["design", 2001], row!["art history", 1999]];
        let rr = vec![
            // Reached from left row 0 through both attribute pairs.
            row!["science", 1999],
            row!["art and design", 2000],
            row!["history", Value::Null],
        ];
        let both = [("name", "title"), ("year", "year")];
        assert_kernel_matches_naive(&ls, &lr, &rs, &rr, &both);
        // A column that resolves on one side only.
        assert_kernel_matches_naive(&ls, &lr, &rs, &rr, &[("name", "missing"), ("year", "year")]);
        assert_kernel_matches_naive(&ls, &lr, &rs, &rr, &[("missing", "title"), ("name", "title")]);
        // An empty right side, and an empty left side.
        assert_kernel_matches_naive(&ls, &lr, &rs, &[], &both);
        assert_kernel_matches_naive(&ls, &[], &rs, &rr, &both);
    }

    #[test]
    fn row_partners_match_enumerate_pairs() {
        // With no floor every partner is retained, so the kernel's pairs are
        // exactly the reference enumeration's.
        let (ls, lr) = left();
        let (rs, rr) = right();
        for blocking in [true, false] {
            let mut cfg = config().with_min_similarity(f64::NEG_INFINITY);
            cfg.use_blocking = blocking;
            let expected = enumerate_pairs(&ls, &lr, &rs, &rr, &cfg, &mut TokenInterner::new());
            let pairs: Vec<(usize, usize)> = candidate_pairs(&ls, &lr, &rs, &rr, &cfg)
                .iter()
                .map(|c| (c.left, c.right))
                .collect();
            assert_eq!(pairs, expected, "blocking={blocking}");
        }
    }

    #[test]
    fn block_split_never_changes_the_output() {
        let ls = Schema::from_pairs(&[("name", ValueType::Str), ("year", ValueType::Int)]);
        let rs = ls.clone();
        let words = ["data", "science", "art", "design", "history", "computer"];
        let rows = |offset: usize| -> Vec<Row> {
            (0..19)
                .map(|k| {
                    let name = format!("{} {}", words[(k + offset) % 6], words[(k * 5) % 6]);
                    row![name, 1999 + (k % 3) as i64]
                })
                .collect()
        };
        let (lr, rr) = (rows(0), rows(2));
        let mut cfg = MappingConfig::new(vec![
            ("name".to_string(), "name".to_string()),
            ("year".to_string(), "year".to_string()),
        ]);
        for blocking in [true, false] {
            cfg.use_blocking = blocking;
            let kernel = CandidateKernel::new(&ls, &lr, &rs, &rr, &cfg);
            let whole = kernel.score_rows(0..lr.len());
            assert!(!whole.is_empty());
            assert_eq!(whole, candidate_pairs_naive(&ls, &lr, &rs, &rr, &cfg));
            for k in [1, 2, 7] {
                let blocks = split_ranges(lr.len(), k);
                assert_eq!(blocks.len(), k);
                let joined: Vec<Candidate> =
                    blocks.into_iter().flat_map(|rows| kernel.score_rows(rows)).collect();
                assert_eq!(joined, whole, "blocking={blocking} k={k}");
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
