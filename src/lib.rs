//! # bdi — Big Data Integration ontology
//!
//! Umbrella crate re-exporting the whole workspace: a production-quality
//! reproduction of *"An Integration-Oriented Ontology to Govern Evolution in
//! Big Data Ecosystems"* (Nadal et al., EDBT 2017 / arXiv:1801.05161).
//!
//! The paper's system is a two-level RDF ontology — a **Global graph** `G`
//! of domain concepts/features, a **Source graph** `S` of data sources,
//! wrappers and attributes, and a **Mapping graph** `M` of LAV mappings —
//! plus algorithms that (a) adapt the ontology to source *releases* and
//! (b) rewrite ontology-mediated queries into unions of conjunctive queries
//! (*walks*) over the wrappers.
//!
//! ```
//! use bdi::core::{supersede, system::AnswerRequest};
//!
//! // Build the paper's running example (SUPERSEDE) and run the exemplary
//! // query: for each applicationId, all lagRatio instances (Table 2).
//! let system = supersede::build_running_example();
//! let request = AnswerRequest::sparql(supersede::exemplary_query());
//! let result = system.serve(request).unwrap();
//! assert_eq!(result.relation.len(), 3);
//! ```

pub use bdi_core as core;
pub use bdi_docstore as docstore;
pub use bdi_evolution as evolution;
pub use bdi_rdf as rdf;
pub use bdi_relational as relational;
pub use bdi_wrappers as wrappers;
