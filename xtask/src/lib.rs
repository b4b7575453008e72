//! Workspace invariant checker — `cargo xtask analyze`.
//!
//! Token-level static analysis of the repo's own safety contracts (see
//! README § Static analysis): lock-hold discipline, deadline coverage in
//! operator/pager loops, no-panic serving paths, and journal-before-apply
//! durable writes. Pure-library core so every lint unit-tests against its
//! fixture pair; `src/main.rs` is the thin CLI.

pub mod driver;
pub mod lexer;
pub mod lints;
pub mod walker;
