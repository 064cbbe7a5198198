//! Tokenisation of string attribute values.
//!
//! Token-wise Jaccard similarity (Section 5.1.2 of the paper) operates on
//! word tokens. Tokenisation lower-cases, splits on non-alphanumeric
//! characters, and drops empty tokens.
//!
//! For the candidate-generation hot path, [`TokenInterner`] maps tokens to
//! dense `u32` ids once per *row* instead of rebuilding string sets per
//! *pair*: Jaccard then runs as a linear merge over two sorted id slices
//! with no allocation and no string comparisons
//! (see [`crate::similarity::jaccard_ids`]).

use std::collections::{BTreeSet, HashMap};

/// Splits a string into lower-cased word tokens.
pub fn tokens(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        .collect()
}

/// Splits a string into the *set* of lower-cased word tokens.
pub fn token_set(text: &str) -> BTreeSet<String> {
    tokens(text).into_iter().collect()
}

/// Character n-grams of a string (used by fallback similarity for values
/// without word boundaries). Strings shorter than `n` yield a single gram.
pub fn ngrams(text: &str, n: usize) -> Vec<String> {
    let chars: Vec<char> = text.to_ascii_lowercase().chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() <= n {
        return vec![chars.iter().collect()];
    }
    chars.windows(n).map(|w| w.iter().collect()).collect()
}

/// Interns word tokens as dense `u32` ids.
///
/// Rows are tokenised **once**, up front; every subsequent pairwise
/// similarity works on the interned ids. The id space is per-interner, so
/// two token-id slices are only comparable when produced by the same
/// interner.
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl TokenInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        TokenInterner::default()
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no token has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns one token (assumed already normalised) and returns its id.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.ids.insert(token.to_string(), id);
        self.names.push(token.to_string());
        id
    }

    /// The token interned under `id`, if any.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// The id of an already-interned token, without interning it.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// Tokenises `text` exactly like [`token_set`] — lower-cased word
    /// tokens, deduplicated — and returns the **sorted** slice of interned
    /// ids. Sorted-and-deduplicated is the representation
    /// [`crate::similarity::jaccard_ids`] expects.
    pub fn token_ids(&mut self, text: &str) -> Vec<u32> {
        let mut out = Vec::new();
        let mut scratch = String::new();
        for raw in text.split(|c: char| !c.is_alphanumeric()) {
            if raw.is_empty() {
                continue;
            }
            // Already-lower-case tokens are interned without a copy.
            let token = if raw.bytes().any(|b| b.is_ascii_uppercase()) {
                scratch.clear();
                scratch.push_str(raw);
                scratch.make_ascii_lowercase();
                &scratch
            } else {
                raw
            };
            out.push(self.intern(token));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_split_and_lowercase() {
        assert_eq!(tokens("Computer Science"), vec!["computer", "science"]);
        assert_eq!(tokens("Equine-Management (B.S.)"), vec!["equine", "management", "b", "s"]);
        assert!(tokens("  ").is_empty());
        assert!(tokens("").is_empty());
    }

    #[test]
    fn token_set_deduplicates() {
        let s = token_set("data data Data");
        assert_eq!(s.len(), 1);
        assert!(s.contains("data"));
    }

    #[test]
    fn ngrams_cover_short_strings() {
        assert_eq!(ngrams("cs", 3), vec!["cs".to_string()]);
        assert_eq!(ngrams("abcd", 3), vec!["abc".to_string(), "bcd".to_string()]);
        assert!(ngrams("", 3).is_empty());
    }

    #[test]
    fn interner_assigns_stable_dense_ids() {
        let mut interner = TokenInterner::new();
        let a = interner.intern("computer");
        let b = interner.intern("science");
        assert_ne!(a, b);
        assert_eq!(interner.intern("computer"), a);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a), Some("computer"));
        assert_eq!(interner.get("science"), Some(b));
        assert_eq!(interner.get("absent"), None);
    }

    #[test]
    fn token_ids_match_token_set_semantics() {
        let mut interner = TokenInterner::new();
        for text in ["Computer Science", "data data Data", "Equine-Management (B.S.)", "", "  "] {
            let ids = interner.token_ids(text);
            // Sorted and deduplicated.
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not strictly sorted: {ids:?}");
            // Same token *set* as the string-based tokenisation.
            let via_ids: BTreeSet<String> =
                ids.iter().map(|&id| interner.resolve(id).unwrap().to_string()).collect();
            assert_eq!(via_ids, token_set(text), "mismatch for {text:?}");
        }
    }
}
