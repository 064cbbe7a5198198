//! Relation schemas: ordered, named, typed columns.

use crate::error::RelationError;
use crate::value::ValueType;
use std::fmt;

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name. Qualified names (`movie.title`) are allowed and the
    /// unqualified suffix is also resolvable as long as it is unambiguous.
    pub name: String,
    /// Declared logical type.
    pub ty: ValueType,
}

impl Column {
    /// Creates a column with the given name and type.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Column { name: name.into(), ty }
    }

    /// The unqualified part of the column name (after the last `.`).
    pub fn short_name(&self) -> &str {
        self.name.rsplit('.').next().unwrap_or(&self.name)
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema from a list of columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, ValueType)]) -> Self {
        Schema { columns: pairs.iter().map(|(n, t)| Column::new(*n, *t)).collect() }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Iterates over the columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Returns the column at position `idx`.
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// All column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Resolves a column name to an index.
    ///
    /// Resolution is case-insensitive and accepts either the fully qualified
    /// name or an unambiguous unqualified suffix. Ambiguous or unknown names
    /// return an error that lists the available columns.
    pub fn index_of(&self, name: &str) -> Result<usize, RelationError> {
        // Exact (case-insensitive) match first.
        if let Some(i) = self.unique_match(name, |c| c.name.eq_ignore_ascii_case(name))? {
            return Ok(i);
        }
        // Fall back to matching the unqualified suffix.
        self.unique_match(name, |c| c.short_name().eq_ignore_ascii_case(name))?.ok_or_else(|| {
            RelationError::UnknownColumn {
                name: name.to_string(),
                available: self.columns.iter().map(|c| c.name.clone()).collect(),
            }
        })
    }

    /// The index of the one column satisfying `pred`: `None` when no column
    /// does, an ambiguity error for `name` when several do.
    fn unique_match(
        &self,
        name: &str,
        pred: impl Fn(&Column) -> bool,
    ) -> Result<Option<usize>, RelationError> {
        let mut found = None;
        for (i, c) in self.columns.iter().enumerate() {
            if pred(c) {
                if found.is_some() {
                    return Err(RelationError::AmbiguousColumn { name: name.to_string() });
                }
                found = Some(i);
            }
        }
        Ok(found)
    }

    /// True when the named column resolves in this schema.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_ok()
    }

    /// Creates a new schema with every column name prefixed by `alias.`
    /// (stripping any previous qualifier).
    pub fn qualified(&self, alias: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column::new(format!("{alias}.{}", c.short_name()), c.ty))
                .collect(),
        }
    }

    /// Concatenates two schemas (used by joins / cartesian products).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// Projects the schema onto the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema, RelationError> {
        let mut columns = Vec::with_capacity(names.len());
        for n in names {
            let idx = self.index_of(n)?;
            columns.push(self.columns[idx].clone());
        }
        Ok(Schema { columns })
    }

    /// Checks union compatibility (same arity and compatible column types).
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self.columns.iter().zip(other.columns.iter()).all(|(a, b)| {
                a.ty == b.ty || a.ty == ValueType::Unknown || b.ty == ValueType::Unknown
            })
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::from_pairs(&[
            ("movie.title", ValueType::Str),
            ("movie.release_year", ValueType::Int),
            ("movie.gross", ValueType::Float),
        ])
    }

    #[test]
    fn resolves_qualified_and_short_names() {
        let s = sample();
        assert_eq!(s.index_of("movie.title").unwrap(), 0);
        assert_eq!(s.index_of("title").unwrap(), 0);
        assert_eq!(s.index_of("RELEASE_YEAR").unwrap(), 1);
    }

    #[test]
    fn unknown_column_errors_with_candidates() {
        let s = sample();
        let err = s.index_of("budget").unwrap_err();
        match err {
            RelationError::UnknownColumn { name, available } => {
                assert_eq!(name, "budget");
                assert_eq!(available.len(), 3);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn ambiguous_suffix_is_an_error() {
        let s = Schema::from_pairs(&[("a.id", ValueType::Int), ("b.id", ValueType::Int)]);
        assert!(matches!(s.index_of("id"), Err(RelationError::AmbiguousColumn { .. })));
        assert_eq!(s.index_of("a.id").unwrap(), 0);
    }

    #[test]
    fn exact_match_beats_suffix_match() {
        // "id" is the suffix of "a.id" but the exact name of column 1.
        let s = Schema::from_pairs(&[("a.id", ValueType::Int), ("ID", ValueType::Int)]);
        assert_eq!(s.index_of("id").unwrap(), 1);
        assert_eq!(s.index_of("A.Id").unwrap(), 0);
    }

    #[test]
    fn two_matches_are_ambiguous_at_either_level() {
        let exact = Schema::from_pairs(&[("Name", ValueType::Str), ("name", ValueType::Str)]);
        match exact.index_of("NAME") {
            Err(RelationError::AmbiguousColumn { name }) => assert_eq!(name, "NAME"),
            other => panic!("expected an ambiguity, got {other:?}"),
        }
        // Two exact matches are ambiguous even when a suffix would be unique.
        let with_suffix = Schema::from_pairs(&[
            ("x", ValueType::Int),
            ("X", ValueType::Int),
            ("t.y", ValueType::Int),
        ]);
        assert!(matches!(with_suffix.index_of("x"), Err(RelationError::AmbiguousColumn { .. })));
        assert_eq!(with_suffix.index_of("Y").unwrap(), 2);
    }

    #[test]
    fn unknown_column_lists_every_column_in_order() {
        let s = Schema::from_pairs(&[("t.a", ValueType::Int), ("B", ValueType::Str)]);
        match s.index_of("t.b") {
            Err(RelationError::UnknownColumn { name, available }) => {
                assert_eq!(name, "t.b");
                assert_eq!(available, vec!["t.a".to_string(), "B".to_string()]);
            }
            other => panic!("expected an unknown column, got {other:?}"),
        }
    }

    #[test]
    fn qualify_and_concat() {
        let s = Schema::from_pairs(&[("id", ValueType::Int), ("name", ValueType::Str)]);
        let q = s.qualified("person");
        assert_eq!(q.names(), vec!["person.id", "person.name"]);
        let both = q.concat(&s.qualified("movie"));
        assert_eq!(both.arity(), 4);
        assert!(both.contains("person.id"));
        assert!(both.contains("movie.name"));
    }

    #[test]
    fn project_preserves_order() {
        let s = sample();
        let p = s.project(&["gross", "title"]).unwrap();
        assert_eq!(p.names(), vec!["movie.gross", "movie.title"]);
        assert!(s.project(&["nope"]).is_err());
    }

    #[test]
    fn union_compatibility() {
        let a = Schema::from_pairs(&[("x", ValueType::Int), ("y", ValueType::Str)]);
        let b = Schema::from_pairs(&[("p", ValueType::Int), ("q", ValueType::Str)]);
        let c = Schema::from_pairs(&[("p", ValueType::Str), ("q", ValueType::Str)]);
        let d = Schema::from_pairs(&[("p", ValueType::Unknown), ("q", ValueType::Str)]);
        assert!(a.union_compatible(&b));
        assert!(!a.union_compatible(&c));
        assert!(a.union_compatible(&d));
    }
}
