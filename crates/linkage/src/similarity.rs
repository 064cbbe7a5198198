//! Similarity measures between attribute values and between tuples.
//!
//! The paper (Section 5.1.2) combines token-wise Jaccard similarity for
//! string attributes with normalised Euclidean distance for numeric
//! attributes, averaging across the matching attributes. Jaro and
//! Jaro-Winkler are also provided because the paper's RSWOOSH baseline
//! experimented with Jaro.

use crate::tokenize::token_set;
use explain3d_relation::prelude::{Row, Schema, Value};

/// Token-wise Jaccard similarity between two strings, in `[0, 1]`.
pub fn jaccard(a: &str, b: &str) -> f64 {
    let sa = token_set(a);
    let sb = token_set(b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

/// Jaccard similarity over two **sorted, deduplicated** token-id slices (as
/// produced by [`crate::tokenize::TokenInterner::token_ids`]), in `[0, 1]`.
///
/// This is the zero-copy twin of [`jaccard`]: intersection and union are
/// counted by a single linear merge, with no allocation and no string
/// comparisons. For ids produced by one interner it returns bit-identical
/// results to [`jaccard`] on the original strings (the intersection and
/// union cardinalities — and therefore the final division — are the same).
pub fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "left ids not sorted/deduped");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "right ids not sorted/deduped");
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    jaccard_counts(a.len(), b.len(), inter)
}

/// Jaccard similarity of two token sets given only their sizes and the size
/// of their intersection, with [`jaccard`]'s empty-set rules: two empty sets
/// score 1, one empty set scores 0. [`jaccard_ids`] ends in this division,
/// so an intersection counted any other way gives a bit-identical result.
pub(crate) fn jaccard_counts(a_len: usize, b_len: usize, inter: usize) -> f64 {
    if a_len == 0 && b_len == 0 {
        return 1.0;
    }
    if a_len == 0 || b_len == 0 {
        return 0.0;
    }
    inter as f64 / (a_len + b_len - inter) as f64
}

/// Normalised Euclidean similarity between two numbers:
/// `1 / (1 + |a - b|^2)`, as used in the paper.
pub fn numeric_similarity(a: f64, b: f64) -> f64 {
    1.0 / (1.0 + (a - b).powi(2))
}

/// Upper length bound (in characters) for the stack-only Jaro fast path:
/// match flags for both sides fit into `u128` bitmasks.
const JARO_STACK_LEN: usize = 128;

/// Jaro similarity between two strings, in `[0, 1]`.
///
/// ASCII inputs up to 128 characters — the overwhelmingly common case for
/// attribute values — are scored **allocation-free**: comparisons run
/// directly over the byte slices (case-folded on the fly) and the match
/// flags of both sides live in `u128` bitmasks on the stack. Longer or
/// non-ASCII inputs fall back to the equivalent buffered implementation.
pub fn jaro(a: &str, b: &str) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a.is_ascii() && b.is_ascii() && a.len() <= JARO_STACK_LEN && b.len() <= JARO_STACK_LEN {
        jaro_ascii(a.as_bytes(), b.as_bytes())
    } else {
        jaro_buffered(a, b)
    }
}

/// Allocation-free Jaro over ASCII byte slices (`len <= 128` each).
fn jaro_ascii(a: &[u8], b: &[u8]) -> f64 {
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut a_matched: u128 = 0;
    let mut b_matched: u128 = 0;
    let mut m = 0usize;

    for (i, &ca) in a.iter().enumerate() {
        let ca = ca.to_ascii_lowercase();
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, &cb) in b.iter().enumerate().take(hi).skip(lo) {
            if b_matched & (1 << j) == 0 && cb.to_ascii_lowercase() == ca {
                a_matched |= 1 << i;
                b_matched |= 1 << j;
                m += 1;
                break;
            }
        }
    }
    if m == 0 {
        return 0.0;
    }

    // Walk the matched characters of both sides in order; every position
    // where they disagree is half a transposition.
    let mut half_transpositions = 0usize;
    let mut j = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        if a_matched & (1 << i) == 0 {
            continue;
        }
        while b_matched & (1 << j) == 0 {
            j += 1;
        }
        if !ca.eq_ignore_ascii_case(&b[j]) {
            half_transpositions += 1;
        }
        j += 1;
    }

    let m = m as f64;
    let transpositions = half_transpositions as f64 / 2.0;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions) / m) / 3.0
}

/// Buffered Jaro fallback for long or non-ASCII inputs.
fn jaro_buffered(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().map(|c| c.to_ascii_lowercase()).collect();
    let b: Vec<char> = b.chars().map(|c| c.to_ascii_lowercase()).collect();
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut a_matched = vec![false; a.len()];
    let mut b_matched = vec![false; b.len()];
    let mut m = 0usize;

    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                a_matched[i] = true;
                b_matched[j] = true;
                m += 1;
                break;
            }
        }
    }
    if m == 0 {
        return 0.0;
    }

    let mut half_transpositions = 0usize;
    let mut j = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        if !a_matched[i] {
            continue;
        }
        while !b_matched[j] {
            j += 1;
        }
        if ca != b[j] {
            half_transpositions += 1;
        }
        j += 1;
    }

    let m = m as f64;
    let transpositions = half_transpositions as f64 / 2.0;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions) / m) / 3.0
}

/// Jaro-Winkler similarity (Jaro boosted by shared prefix up to 4 chars).
/// The prefix scan compares characters case-insensitively in place, without
/// building lower-cased copies.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix =
        a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x.eq_ignore_ascii_case(y)).count()
            as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Similarity between two [`Value`]s: Jaccard for strings, normalised
/// Euclidean for numbers, exact match for booleans, 0 for NULL-vs-non-NULL.
pub fn value_similarity(a: &Value, b: &Value) -> f64 {
    match (a, b) {
        (Value::Null, Value::Null) => 1.0,
        (Value::Null, _) | (_, Value::Null) => 0.0,
        (Value::Str(x), Value::Str(y)) => jaccard(x, y),
        (Value::Bool(x), Value::Bool(y)) => {
            if x == y {
                1.0
            } else {
                0.0
            }
        }
        (x, y) => match (x.as_f64(), y.as_f64()) {
            (Some(fx), Some(fy)) => numeric_similarity(fx, fy),
            // Mixed string/number: compare textual forms.
            _ => jaccard(&x.to_string(), &y.to_string()),
        },
    }
}

/// Which string metric to use for tuple-level similarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StringMetric {
    /// Token-wise Jaccard (the paper's default).
    #[default]
    Jaccard,
    /// Jaro similarity.
    Jaro,
    /// Jaro-Winkler similarity.
    JaroWinkler,
}

/// Computes the similarity of two tuples over pairs of matching attributes:
/// the mean of per-attribute similarities, per Section 5.1.2.
///
/// `attr_pairs` maps a column of `left_schema` to a column of `right_schema`.
/// Unknown columns contribute similarity 0 (they cannot support a match).
pub fn tuple_similarity(
    left_schema: &Schema,
    left: &Row,
    right_schema: &Schema,
    right: &Row,
    attr_pairs: &[(String, String)],
    metric: StringMetric,
) -> f64 {
    if attr_pairs.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (lcol, rcol) in attr_pairs {
        let lv = left_schema
            .index_of(lcol)
            .ok()
            .and_then(|i| left.get(i).cloned())
            .unwrap_or(Value::Null);
        let rv = right_schema
            .index_of(rcol)
            .ok()
            .and_then(|i| right.get(i).cloned())
            .unwrap_or(Value::Null);
        total += match (&lv, &rv, metric) {
            (Value::Str(a), Value::Str(b), StringMetric::Jaro) => jaro(a, b),
            (Value::Str(a), Value::Str(b), StringMetric::JaroWinkler) => jaro_winkler(a, b),
            _ => value_similarity(&lv, &rv),
        };
    }
    total / attr_pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain3d_relation::prelude::ValueType;
    use explain3d_relation::row;

    #[test]
    fn jaccard_basic_properties() {
        assert_eq!(jaccard("computer science", "computer science"), 1.0);
        assert_eq!(jaccard("computer science", "science computer"), 1.0);
        assert!((jaccard("computer science", "computer engineering") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard("art", "biology"), 0.0);
        assert_eq!(jaccard("", ""), 1.0);
        assert_eq!(jaccard("x", ""), 0.0);
    }

    #[test]
    fn jaccard_symmetry_and_bounds() {
        let pairs = [
            ("food business management", "foodservice systems administration"),
            ("equine management", "management"),
            ("cs", "cse"),
        ];
        for (a, b) in pairs {
            let s1 = jaccard(a, b);
            let s2 = jaccard(b, a);
            assert!((s1 - s2).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&s1));
        }
    }

    #[test]
    fn numeric_similarity_decreases_with_distance() {
        assert_eq!(numeric_similarity(2.0, 2.0), 1.0);
        assert!(numeric_similarity(2.0, 3.0) > numeric_similarity(2.0, 5.0));
        assert!((numeric_similarity(1.0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_ids_matches_string_jaccard() {
        use crate::tokenize::TokenInterner;
        let mut interner = TokenInterner::new();
        let texts = [
            "computer science",
            "science computer",
            "computer engineering",
            "food business management",
            "foodservice systems administration",
            "",
            "equine management",
        ];
        let ids: Vec<Vec<u32>> = texts.iter().map(|t| interner.token_ids(t)).collect();
        for (i, a) in texts.iter().enumerate() {
            for (j, b) in texts.iter().enumerate() {
                let expected = jaccard(a, b);
                let got = jaccard_ids(&ids[i], &ids[j]);
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "jaccard_ids({a:?}, {b:?}) = {got} != {expected}"
                );
            }
        }
    }

    #[test]
    fn jaro_fast_path_matches_buffered_fallback() {
        let pairs = [
            ("martha", "marhta"),
            ("dixon", "dicksonx"),
            ("computer", "computation"),
            ("", "abc"),
            ("xyz", "abc"),
            ("The Quick Brown Fox", "the quick brown fox"),
            ("a", "a"),
        ];
        for (a, b) in pairs {
            assert_eq!(
                jaro(a, b).to_bits(),
                jaro_buffered(a, b).to_bits(),
                "jaro({a:?}, {b:?}) fast path diverges from fallback"
            );
        }
        // Long inputs exercise the buffered fallback through the public API.
        let long_a = "lorem ipsum dolor sit amet ".repeat(8);
        let long_b = "lorem ipsum dolor sit amet consectetur ".repeat(6);
        let j = jaro(&long_a, &long_b);
        assert!((0.0..=1.0).contains(&j));
        // Non-ASCII inputs also take the fallback and stay in bounds.
        let j = jaro("café münchen", "cafe munchen");
        assert!((0.0..=1.0).contains(&j));
    }

    #[test]
    fn jaro_and_jaro_winkler() {
        assert_eq!(jaro("martha", "martha"), 1.0);
        assert!(jaro("martha", "marhta") > 0.9);
        assert_eq!(jaro("abc", ""), 0.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("xyz", "abc"), 0.0);
        // Winkler boosts shared prefixes.
        assert!(jaro_winkler("computer", "computation") >= jaro("computer", "computation"));
        assert!(jaro_winkler("dixon", "dicksonx") > jaro("dixon", "dicksonx"));
    }

    #[test]
    fn value_similarity_dispatches_by_type() {
        assert_eq!(value_similarity(&Value::str("cs"), &Value::str("cs")), 1.0);
        assert_eq!(value_similarity(&Value::Int(2), &Value::Int(2)), 1.0);
        assert!(value_similarity(&Value::Int(2), &Value::Int(4)) < 1.0);
        assert_eq!(value_similarity(&Value::Null, &Value::str("x")), 0.0);
        assert_eq!(value_similarity(&Value::Null, &Value::Null), 1.0);
        assert_eq!(value_similarity(&Value::Bool(true), &Value::Bool(true)), 1.0);
        assert_eq!(value_similarity(&Value::Bool(true), &Value::Bool(false)), 0.0);
        // Mixed types compare textually.
        assert_eq!(value_similarity(&Value::Int(1999), &Value::str("1999")), 1.0);
    }

    #[test]
    fn tuple_similarity_averages_attribute_pairs() {
        let ls = Schema::from_pairs(&[("program", ValueType::Str), ("n", ValueType::Int)]);
        let rs = Schema::from_pairs(&[("major", ValueType::Str), ("m", ValueType::Int)]);
        let lrow = row!["computer science", 2];
        let rrow = row!["computer science", 1];
        let pairs =
            vec![("program".to_string(), "major".to_string()), ("n".to_string(), "m".to_string())];
        let s = tuple_similarity(&ls, &lrow, &rs, &rrow, &pairs, StringMetric::Jaccard);
        assert!((s - (1.0 + 0.5) / 2.0).abs() < 1e-12);

        // Empty attribute pair list means no basis for similarity.
        assert_eq!(tuple_similarity(&ls, &lrow, &rs, &rrow, &[], StringMetric::Jaccard), 0.0);
        // Unknown columns contribute zero rather than erroring.
        let bad = vec![("nope".to_string(), "major".to_string())];
        assert_eq!(tuple_similarity(&ls, &lrow, &rs, &rrow, &bad, StringMetric::Jaccard), 0.0);
    }
}
