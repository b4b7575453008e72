//! # bdi-relational — the mediator-layer relational algebra engine
//!
//! Implements the restricted relational constructs of the paper's §2.2:
//!
//! * [`Schema`]s partitioned into **ID** and **non-ID** attributes,
//! * the restricted projection **Π̃** (never drops IDs) and ID-restricted
//!   equi-join **⋈̃** ([`ops`]),
//! * the [`algebra::RelExpr`] expression tree that walks compile to, with a
//!   paper-notation pretty printer and an evaluator,
//! * the [`plan`] module: compiled [`plan::PhysicalPlan`]s and the streaming
//!   batch executor over interned values — the engine production queries run
//!   on, with the eager [`ops`] kept as its executable reference,
//! * the [`stats`] module: per-column sketches ([`stats::TableStats`])
//!   wrappers maintain at write time and the planner uses for cardinality
//!   estimates and bloom semi-joins.
//!
//! ## Files
//!
//! * `value.rs`, `schema.rs`, `relation.rs` — scalars, ID-partitioned
//!   schemas, relations;
//! * `ops.rs`, `algebra.rs` — the eager §2.2 operators and `RelExpr`;
//! * `plan/` — the streaming executor, one file per seam (map in [`plan`]);
//! * `stats.rs` — per-column sketches.

pub mod algebra;
pub mod ops;
pub mod plan;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod value;

pub use algebra::{AlgebraError, RelExpr, SourceResolver};
pub use plan::{
    BatchIter, ColumnFilter, ContextCounters, ExecContext, ExecPolicy, PhysicalPlan, PlanError,
    PlanSource, Predicate, ScanMark, ScanRequest,
};
pub use relation::{Relation, RelationError, Tuple};
pub use schema::{Attribute, Schema, SchemaError};
pub use stats::{BloomFilter, ColumnStats, StatsBuilder, TableStats};
pub use value::Value;
