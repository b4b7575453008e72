//! Restricted SPARQL engine: parser, algebra and evaluator.
//!
//! The supported fragment is what the paper's OMQs need: `SELECT` queries
//! over one `FROM` graph with a `VALUES` table and a basic graph pattern
//! (Code 3), plus variables and `GRAPH ?g { … }` blocks. The tokenizer and
//! the triples grammar are the ones Turtle and TriG are read with.

pub mod algebra;
pub mod ast;
pub mod eval;
pub mod parser;

pub use algebra::to_algebra;
pub use ast::{
    GraphSpec, QuadPattern, SelectQuery, TermOrVar, TriplePattern, ValuesClause, Variable,
};
pub use eval::{evaluate, evaluate_count, Binding, EvalOptions, Solutions};
pub use parser::{parse_query, ParseError};
