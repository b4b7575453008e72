//! # bdi-wrappers — the wrapper layer and REST API simulator
//!
//! Wrappers are the paper's unit of source access (mediator/wrapper
//! architecture): each exposes one schema version of one data source as a
//! flat 1NF relation `w(a_ID, a_nID)`. This crate provides:
//!
//! * the [`wrapper::Wrapper`] trait and a [`wrapper::WrapperRegistry`] that
//!   doubles as the walk evaluator's source resolver,
//! * [`json_wrapper::JsonWrapper`] — wrappers defined as aggregation
//!   pipelines over JSON collections (the paper's Code 2),
//! * [`table_wrapper::TableWrapper`] — in-memory wrappers for synthetic
//!   workloads (Figure 8),
//! * [`remote::RemoteWrapper`] — a fault-tolerant wrapper over a paged,
//!   fallible [`remote::SimulatedEndpoint`], with retries, backoff, and
//!   per-attempt timeouts ([`remote::RetryPolicy`]),
//! * [`api`] — a versioned REST API simulator with deterministic event
//!   generation and schema diffing, standing in for the live third-party
//!   APIs the paper evaluates against,
//! * [`supersede`] — the running example's sources and wrappers with the
//!   exact Table 1 data.

pub mod api;
pub mod json_wrapper;
pub mod remote;
pub mod spec;
pub mod supersede;
pub mod table_wrapper;
pub mod wrapper;

pub use api::{ApiError, ApiSimulator, Endpoint, FieldKind, FieldSpec, SchemaDelta, VersionSchema};
pub use json_wrapper::JsonWrapper;
pub use remote::{FaultProfile, RemoteWrapper, RetryPolicy, SimulatedEndpoint};
pub use spec::WrapperSpec;
pub use table_wrapper::TableWrapper;
pub use wrapper::{FailureKind, RetryStats, Wrapper, WrapperError, WrapperRegistry};
