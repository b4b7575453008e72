//! # bdi-docstore — JSON document store with an aggregation-lite pipeline
//!
//! The paper's wrappers query semi-structured JSON supplied by REST APIs,
//! using MongoDB's aggregation framework (Code 2). This crate simulates that
//! substrate: named collections of JSON documents queried by
//! [`pipeline::Pipeline`]s supporting `$match`, `$project` (with renames and
//! computed fields: `$divide`, `$add`, `$subtract`, `$multiply`, `$concat`)
//! and `$limit` — everything Code 2 needs, nothing it doesn't.

pub mod collection;
pub mod path;
pub mod pipeline;

pub use collection::{DocStore, StoreError};
pub use pipeline::{
    AggExpr, DocPredicate, Pipeline, PipelineError, PipelineRun, Projection, Stage,
};
