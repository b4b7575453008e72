//! Abstract syntax for the restricted SPARQL fragment.
//!
//! The paper restricts OMQs to the template of Code 3: a `SELECT` over
//! invited variables, a `VALUES` clause binding each variable to an attribute
//! IRI, and a basic graph pattern of constant triples. The AST also holds
//! variables and `GRAPH ?g { ... }` blocks, and the Turtle and TriG readers
//! parse into its [`QuadPattern`]s before turning them into quads.

use crate::model::{Iri, Term};
use std::fmt;
use std::sync::Arc;

/// A SPARQL variable (stored without the leading `?`).
///
/// The name lives behind an `Arc<str>` so that building solution bindings —
/// which clones the variable once per row — is a refcount bump, not a string
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variable(Arc<str>);

impl Variable {
    pub fn new(name: impl AsRef<str>) -> Self {
        Self(Arc::from(name.as_ref()))
    }

    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A position in a triple pattern: a constant term or a variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermOrVar {
    Term(Term),
    Var(Variable),
}

impl TermOrVar {
    /// Returns the constant term, if this position is bound.
    pub fn as_term(&self) -> Option<&Term> {
        match self {
            TermOrVar::Term(t) => Some(t),
            TermOrVar::Var(_) => None,
        }
    }

    /// Returns the variable, if this position is one.
    pub(crate) fn as_var(&self) -> Option<&Variable> {
        match self {
            TermOrVar::Var(v) => Some(v),
            TermOrVar::Term(_) => None,
        }
    }
}

impl fmt::Display for TermOrVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermOrVar::Term(t) => t.fmt(f),
            TermOrVar::Var(v) => v.fmt(f),
        }
    }
}

impl From<Term> for TermOrVar {
    fn from(value: Term) -> Self {
        TermOrVar::Term(value)
    }
}

impl From<Iri> for TermOrVar {
    fn from(value: Iri) -> Self {
        TermOrVar::Term(Term::Iri(value))
    }
}

impl From<Variable> for TermOrVar {
    fn from(value: Variable) -> Self {
        TermOrVar::Var(value)
    }
}

/// A triple pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    pub subject: TermOrVar,
    pub predicate: TermOrVar,
    pub object: TermOrVar,
}

impl TriplePattern {
    /// Number of constant positions — used for greedy join ordering.
    pub fn bound_count(&self) -> usize {
        [&self.subject, &self.predicate, &self.object]
            .iter()
            .filter(|p| p.as_term().is_some())
            .count()
    }

    /// All variables mentioned by the pattern.
    pub(crate) fn variables(&self) -> Vec<&Variable> {
        [&self.subject, &self.predicate, &self.object]
            .into_iter()
            .filter_map(|p| p.as_var())
            .collect()
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.subject, self.predicate, self.object)
    }
}

/// The graph selector of a pattern block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSpec {
    /// The query's active graph: the `FROM` graph if given, otherwise the
    /// dataset default (see [`super::eval::EvalOptions`]).
    Active,
    /// `GRAPH <iri> { ... }`.
    Named(Iri),
    /// `GRAPH ?g { ... }` — binds the graph name.
    Var(Variable),
}

/// A triple pattern together with its graph selector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuadPattern {
    pub pattern: TriplePattern,
    pub graph: GraphSpec,
}

/// A `VALUES (?v1 … ?vn) { (t11 … t1n) … }` clause.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValuesClause {
    pub vars: Vec<Variable>,
    pub rows: Vec<Vec<Term>>,
}

/// A parsed `SELECT` query of the supported fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectQuery {
    /// Projected variables; empty means `SELECT *`.
    pub select: Vec<Variable>,
    /// `FROM <g>` — the active graph.
    pub from: Option<Iri>,
    /// Optional `VALUES` clause (Code 3 binds projection vars to attributes).
    pub values: Option<ValuesClause>,
    /// The basic graph pattern, possibly spanning `GRAPH` blocks.
    pub patterns: Vec<QuadPattern>,
}

impl SelectQuery {
    /// All variables projected by the query; for `SELECT *`, every variable
    /// appearing in the pattern (in first-appearance order).
    pub(crate) fn projection(&self) -> Vec<Variable> {
        if !self.select.is_empty() {
            return self.select.clone();
        }
        let mut seen = Vec::new();
        let mut push = |v: &Variable| {
            if !seen.contains(v) {
                seen.push(v.clone());
            }
        };
        if let Some(values) = &self.values {
            values.vars.iter().for_each(&mut push);
        }
        for qp in &self.patterns {
            for v in qp.pattern.variables() {
                push(v);
            }
            if let GraphSpec::Var(v) = &qp.graph {
                push(v);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_display_includes_question_mark() {
        assert_eq!(Variable::new("x").to_string(), "?x");
    }

    #[test]
    fn bound_count_counts_constants() {
        let p = TriplePattern {
            subject: Term::iri("http://e/s").into(),
            predicate: Variable::new("p").into(),
            object: Term::iri("http://e/o").into(),
        };
        assert_eq!(p.bound_count(), 2);
        assert_eq!(p.variables(), vec![&Variable::new("p")]);
    }

    #[test]
    fn select_star_projects_pattern_variables_in_order() {
        let q = SelectQuery {
            select: vec![],
            from: None,
            values: None,
            patterns: vec![
                QuadPattern {
                    pattern: TriplePattern {
                        subject: Variable::new("a").into(),
                        predicate: Term::iri("http://e/p").into(),
                        object: Variable::new("b").into(),
                    },
                    graph: GraphSpec::Active,
                },
                QuadPattern {
                    pattern: TriplePattern {
                        subject: Variable::new("a").into(),
                        predicate: Variable::new("p2").into(),
                        object: Term::iri("http://e/o").into(),
                    },
                    graph: GraphSpec::Var(Variable::new("g")),
                },
            ],
        };
        let names: Vec<String> = q.projection().iter().map(|v| v.name().to_owned()).collect();
        assert_eq!(names, vec!["a", "b", "p2", "g"]);
    }
}
