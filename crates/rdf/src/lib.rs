//! # bdi-rdf — the RDF substrate of the BDI ontology
//!
//! An in-memory, indexed, thread-safe RDF **named-graph quad store** with:
//!
//! * a compact term model ([`model`]) with interning ([`interner`]),
//! * six permutation indexes answering any quad pattern with one range scan
//!   ([`store`]),
//! * Turtle and TriG subset readers/writers ([`turtle`], [`trig`]),
//! * on-demand `rdfs:subClassOf` reachability under RDFS entailment
//!   ([`reason`]),
//! * a restricted SPARQL engine ([`sparql`]) covering the paper's accepted
//!   query template (Code 3) and its algebra (Code 4), plus variables and
//!   `GRAPH ?g { … }` blocks.
//!
//! The three text formats share one tokenizer and one triples grammar;
//! `parse_query`, `parse_turtle` and `parse_trig` are its front doors.
//!
//! This crate is self-contained: it is the triplestore the paper assumes as
//! its substrate (Jena + Jena TDB in the authors' implementation), built from
//! scratch because no mature pure-Rust option fits the requirements.
//!
//! ## The encode → evaluate → decode pipeline
//!
//! Every term is interned to a dense `u32` id ([`interner::TermId`]) on
//! insertion, and the six indexes hold `[u32; 4]` keys — one permutation per
//! bound-prefix shape:
//!
//! | bound prefix        | index  |
//! |---------------------|--------|
//! | g, g+s, g+s+p, all  | `GSPO` |
//! | g+p, g+p+o          | `GPOS` |
//! | g+o, g+o+s          | `GOSP` |
//! | s, s+p, s+p+o       | `SPOG` |
//! | p, p+o              | `POSG` |
//! | o, o+s              | `OSPG` |
//!
//! Queries run entirely in id space: [`store::QuadStore::reader`] pins the
//! read lock once, pattern constants **encode** to ids up front, the SPARQL
//! evaluator joins fixed-width id rows against range scans, and only the
//! surviving solutions **decode** back to [`model::Term`]s
//! ([`sparql::evaluate`]; [`sparql::evaluate_count`] never decodes at all).
//! `match_quads` and the `objects`/`subjects`/`iri_objects`/`iri_subjects`
//! helpers are thin decoded views over the same primitive. See
//! `BENCH_eval.json` at the workspace root for the measured effect.

pub mod interner;
pub mod model;
pub mod reason;
pub mod sparql;
pub mod store;
mod syntax;
pub mod trig;
pub mod turtle;
pub mod vocab;

pub use model::{BlankNode, GraphName, Iri, Literal, Quad, Subject, Term, Triple};
pub use store::{GraphPattern, QuadStore};
