//! Relations: a schema plus rows.

use crate::schema::{Schema, SchemaError};
use crate::value::Value;
use std::fmt;

/// A tuple of scalar values, positionally aligned with a [`Schema`].
pub type Tuple = Vec<Value>;

/// Errors raised by relation construction and operators.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum RelationError {
    #[error(transparent)]
    Schema(#[from] SchemaError),
    #[error("tuple has {found} values but the schema has {expected} attributes")]
    Arity { expected: usize, found: usize },
    #[error("projection would drop ID attribute {0}; Π̃ keeps all IDs (§2.2)")]
    ProjectsOutId(String),
    #[error("join attribute {0} is not an ID attribute; ⋈̃ joins only on IDs (§2.2)")]
    JoinOnNonId(String),
    #[error("union operands have incompatible schemas: {left} vs {right}")]
    UnionShape { left: String, right: String },
    #[error("attribute name collision in join output: {0}")]
    JoinNameCollision(String),
    #[error("source error: {0}")]
    Source(String),
    /// A structured source failure: a named wrapper's scan failed, with the
    /// transient/permanent classification preserved so the mediator can tell
    /// "retry this scan" (or degrade around it) from a plan-shape bug. The
    /// `Display` form is byte-identical to the stringly [`Self::Source`]
    /// message this variant replaced on the wrapper path.
    #[error("source error: wrapper {source} failed: {cause}")]
    SourceFailure {
        /// The failing wrapper's name.
        source: String,
        /// Whether the failure is worth retrying (see
        /// `bdi_wrappers::FailureKind`).
        transient: bool,
        /// Human-readable cause, as the wrapper reported it.
        cause: String,
    },
}

/// An in-memory relation (bag semantics; [`Relation::distinct`] dedups).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl Relation {
    /// An empty relation over a schema.
    pub fn empty(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
        }
    }

    /// Builds a relation, checking every tuple's arity.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Result<Self, RelationError> {
        for row in &rows {
            if row.len() != schema.len() {
                return Err(RelationError::Arity {
                    expected: schema.len(),
                    found: row.len(),
                });
            }
        }
        Ok(Self { schema, rows })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Consumes the relation, yielding its rows (used by the batch-scan
    /// adapters, which re-chunk an eagerly scanned relation without cloning).
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Keeps only the first `len` rows (no-op when the relation is already
    /// that short). Row-limit enforcement for per-query `max_rows` caps.
    pub fn truncate_rows(&mut self, len: usize) {
        self.rows.truncate(len);
    }

    /// Appends a tuple, checking arity.
    pub fn push(&mut self, row: Tuple) -> Result<(), RelationError> {
        if row.len() != self.schema.len() {
            return Err(RelationError::Arity {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// The value at `(row, attribute)`.
    pub fn value(&self, row: usize, attribute: &str) -> Option<&Value> {
        let idx = self.schema.index_of(attribute)?;
        self.rows.get(row).map(|r| &r[idx])
    }

    /// One whole column by attribute name.
    pub fn column(&self, attribute: &str) -> Result<Vec<Value>, RelationError> {
        let idx = self.schema.require(attribute)?;
        Ok(self.rows.iter().map(|r| r[idx].clone()).collect())
    }

    /// Set-semantics view: sorts and deduplicates rows in place.
    pub fn distinct(&mut self) {
        self.rows.sort();
        self.rows.dedup();
    }

    /// Returns a sorted/deduplicated copy.
    pub fn to_distinct(&self) -> Relation {
        let mut copy = self.clone();
        copy.distinct();
        copy
    }
}

impl fmt::Display for Relation {
    /// Renders the relation as an aligned ASCII table — the format used when
    /// regenerating the paper's Tables 1 and 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .attributes()
            .iter()
            .map(|a| a.name().to_owned())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            f.write_str("|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {cell:<width$} |", width = widths[i])?;
            }
            f.write_str("\n")
        };
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        writeln!(f, "{sep}")?;
        write_row(f, &headers)?;
        writeln!(f, "{sep}")?;
        for row in &rendered {
            write_row(f, row)?;
        }
        writeln!(f, "{sep}")?;
        write!(f, "({} rows)", self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let schema = Schema::from_parts(&["id"], &["x"]).unwrap();
        Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Str("b".into())],
                vec![Value::Int(1), Value::Str("a".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn arity_is_checked() {
        let schema = Schema::from_parts(&["id"], &["x"]).unwrap();
        let err = Relation::new(schema, vec![vec![Value::Int(1)]]).unwrap_err();
        assert!(matches!(
            err,
            RelationError::Arity {
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn distinct_dedups() {
        let mut r = sample();
        r.distinct();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn value_and_column_access() {
        let r = sample();
        assert_eq!(r.value(1, "x"), Some(&Value::Str("b".into())));
        assert_eq!(r.column("id").unwrap().len(), 3);
        assert!(r.column("zz").is_err());
    }

    #[test]
    fn display_renders_table() {
        let r = sample().to_distinct();
        let text = r.to_string();
        assert!(text.contains("| id | x |"));
        assert!(text.contains("(2 rows)"));
    }
}
