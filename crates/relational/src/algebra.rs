//! Relational algebra expressions over named sources.
//!
//! A *walk* (§2.2) is a relational algebra expression
//! `Π̃(w1) ⋈̃ … ⋈̃ Π̃(wk)` over wrappers. The rewriting algorithm in
//! `bdi-core` produces values of [`RelExpr`]; this module gives them a
//! printable form (matching the paper's Π/⋈ notation) and an evaluator that
//! resolves source names to relations through [`SourceResolver`].

use crate::ops;
use crate::relation::{Relation, RelationError};
use std::collections::BTreeSet;
use std::fmt;

/// Resolves a source (wrapper) name to its current relation.
pub trait SourceResolver {
    /// Returns the relation for `name`, or an error if unknown.
    fn resolve(&self, name: &str) -> Result<Relation, RelationError>;
}

/// Blanket impl so closures can act as resolvers in tests and examples.
impl<F> SourceResolver for F
where
    F: Fn(&str) -> Result<Relation, RelationError>,
{
    fn resolve(&self, name: &str) -> Result<Relation, RelationError> {
        self(name)
    }
}

/// Errors raised when evaluating an algebra expression.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum AlgebraError {
    #[error(transparent)]
    Relation(#[from] RelationError),
    #[error("union of zero expressions")]
    EmptyUnion,
}

/// A relational algebra expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelExpr {
    /// A named source (a wrapper).
    Source { name: String },
    /// Π̃ — restricted projection (IDs always kept).
    Project {
        input: Box<RelExpr>,
        attributes: Vec<String>,
    },
    /// ⋈̃ — ID-restricted equi-join.
    Join {
        left: Box<RelExpr>,
        right: Box<RelExpr>,
        left_attr: String,
        right_attr: String,
    },
    /// Set union of walks.
    Union { inputs: Vec<RelExpr> },
    /// ρ — attribute renaming (used to give wrapper attributes their
    /// source-prefixed names, e.g. `VoDmonitorId` → `D1/VoDmonitorId`).
    Rename {
        input: Box<RelExpr>,
        renames: Vec<(String, String)>,
    },
}

impl RelExpr {
    pub fn source(name: impl Into<String>) -> Self {
        RelExpr::Source { name: name.into() }
    }

    pub fn project(self, attributes: Vec<String>) -> Self {
        RelExpr::Project {
            input: Box::new(self),
            attributes,
        }
    }

    pub fn join(
        self,
        right: RelExpr,
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
    ) -> Self {
        RelExpr::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_attr: left_attr.into(),
            right_attr: right_attr.into(),
        }
    }

    pub fn rename(self, renames: Vec<(String, String)>) -> Self {
        RelExpr::Rename {
            input: Box::new(self),
            renames,
        }
    }

    /// The set of source names referenced — the paper's `wrappers(W)`.
    pub fn sources(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_sources(&mut out);
        out
    }

    fn collect_sources<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            RelExpr::Source { name } => {
                out.insert(name.as_str());
            }
            RelExpr::Project { input, .. } => input.collect_sources(out),
            RelExpr::Join { left, right, .. } => {
                left.collect_sources(out);
                right.collect_sources(out);
            }
            RelExpr::Union { inputs } => {
                for i in inputs {
                    i.collect_sources(out);
                }
            }
            RelExpr::Rename { input, .. } => input.collect_sources(out),
        }
    }

    /// Evaluates the expression against `resolver`.
    pub fn eval(&self, resolver: &dyn SourceResolver) -> Result<Relation, AlgebraError> {
        match self {
            RelExpr::Source { name } => Ok(resolver.resolve(name)?),
            RelExpr::Project { input, attributes } => {
                let rel = input.eval(resolver)?;
                let attrs: Vec<&str> = attributes.iter().map(String::as_str).collect();
                Ok(ops::project(&rel, &attrs)?)
            }
            RelExpr::Join {
                left,
                right,
                left_attr,
                right_attr,
            } => {
                let l = left.eval(resolver)?;
                let r = right.eval(resolver)?;
                Ok(ops::join(&l, &r, left_attr, right_attr)?)
            }
            RelExpr::Rename { input, renames } => {
                let rel = input.eval(resolver)?;
                let pairs: Vec<(&str, &str)> = renames
                    .iter()
                    .map(|(a, b)| (a.as_str(), b.as_str()))
                    .collect();
                Ok(ops::rename(&rel, &pairs)?)
            }
            RelExpr::Union { inputs } => {
                let mut iter = inputs.iter();
                let first = iter.next().ok_or(AlgebraError::EmptyUnion)?;
                let mut acc = first.eval(resolver)?;
                for expr in iter {
                    let rel = expr.eval(resolver)?;
                    acc = ops::union(&acc, &rel)?;
                }
                Ok(acc)
            }
        }
    }
}

impl fmt::Display for RelExpr {
    /// Pretty-prints in the paper's notation, e.g.
    /// `Π̃[lagRatio](w1) ⋈̃[VoDmonitorId=MonitorId] Π̃[TargetApp](w3)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelExpr::Source { name } => f.write_str(name),
            RelExpr::Project { input, attributes } => {
                write!(f, "Π̃[{}]({input})", attributes.join(", "))
            }
            RelExpr::Join {
                left,
                right,
                left_attr,
                right_attr,
            } => write!(f, "({left} ⋈̃[{left_attr}={right_attr}] {right})"),
            RelExpr::Union { inputs } => {
                let rendered: Vec<String> = inputs.iter().map(|i| i.to_string()).collect();
                write!(f, "{}", rendered.join(" ∪ "))
            }
            RelExpr::Rename { input, renames } => {
                let pairs: Vec<String> = renames.iter().map(|(a, b)| format!("{a}→{b}")).collect();
                write!(f, "ρ[{}]({input})", pairs.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn resolver(name: &str) -> Result<Relation, RelationError> {
        match name {
            "w1" => Relation::new(
                Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).unwrap(),
                vec![
                    vec![Value::Int(12), Value::Float(0.75)],
                    vec![Value::Int(12), Value::Float(0.90)],
                    vec![Value::Int(18), Value::Float(0.1)],
                ],
            ),
            "w3" => Relation::new(
                Schema::from_parts::<&str>(&["TargetApp", "MonitorId", "FeedbackId"], &[]).unwrap(),
                vec![
                    vec![Value::Int(1), Value::Int(12), Value::Int(77)],
                    vec![Value::Int(2), Value::Int(18), Value::Int(45)],
                ],
            ),
            other => Err(RelationError::Schema(
                crate::schema::SchemaError::UnknownAttribute(other.to_owned()),
            )),
        }
    }

    #[test]
    fn running_example_walk_evaluates() {
        // Π̃[lagRatio](w1) ⋈̃ Π̃[](w3)
        let walk = RelExpr::source("w1").project(vec!["lagRatio".into()]).join(
            RelExpr::source("w3").project(vec![]),
            "VoDmonitorId",
            "MonitorId",
        );
        let rel = walk.eval(&resolver).unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(
            rel.schema().names(),
            vec![
                "VoDmonitorId",
                "lagRatio",
                "TargetApp",
                "MonitorId",
                "FeedbackId"
            ]
        );
    }

    #[test]
    fn sources_are_collected() {
        let walk = RelExpr::source("w1").join(RelExpr::source("w3"), "a", "b");
        let names: Vec<&str> = walk.sources().into_iter().collect();
        assert_eq!(names, vec!["w1", "w3"]);
    }

    #[test]
    fn display_uses_paper_notation() {
        let walk = RelExpr::source("w1").project(vec!["lagRatio".into()]).join(
            RelExpr::source("w3"),
            "VoDmonitorId",
            "MonitorId",
        );
        assert_eq!(
            walk.to_string(),
            "(Π̃[lagRatio](w1) ⋈̃[VoDmonitorId=MonitorId] w3)"
        );
    }

    #[test]
    fn empty_union_errors() {
        assert!(matches!(
            RelExpr::Union { inputs: vec![] }.eval(&resolver),
            Err(AlgebraError::EmptyUnion)
        ));
    }

    #[test]
    fn unknown_source_errors() {
        assert!(RelExpr::source("zz").eval(&resolver).is_err());
    }
}
