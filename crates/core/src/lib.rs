//! # bdi-core — the Big Data Integration ontology and its algorithms
//!
//! The paper's primary contribution, in five pieces:
//!
//! * [`ontology`] — the two-level ontology `T = ⟨G, S, M⟩` as RDF named
//!   graphs, with the §3 design constraints enforced;
//! * [`release`] — releases `R = ⟨w, G, F⟩` and **Algorithm 1**
//!   (`NewRelease`), the semi-automatic evolution of `T`;
//! * [`omq`] + [`wellformed`] — ontology-mediated queries `⟨π, φ⟩` and
//!   **Algorithm 2** (well-formedness repair);
//! * [`mod@rewrite`] — **Algorithms 3–5**: query expansion, intra-concept and
//!   inter-concept generation, producing covering & minimal walks;
//! * [`exec`] + [`system`] — execution of the union of walks over the
//!   wrapper registry, and the assembled [`system::BdiSystem`] facade.
//!
//! [`supersede`] assembles the paper's running example end-to-end and is the
//! quickest way to see everything working:
//!
//! ```
//! use bdi_core::{supersede, system::AnswerRequest};
//!
//! let system = supersede::build_running_example();
//! let request = AnswerRequest::sparql(supersede::exemplary_query());
//! let answer = system.serve(request).unwrap();
//! assert_eq!(answer.relation.len(), 3); // Table 2
//! ```

pub mod align;
pub mod durable;
pub mod exec;
pub mod omq;
pub mod ontology;
pub mod release;
pub mod rewrite;
pub mod snapshot;
pub mod subgraph;
pub mod supersede;
pub mod system;
pub mod typing;
pub mod validate;
pub mod vocab;
pub mod wellformed;

pub use durable::{DurabilityStats, DurableError, DurableSystem, RecoveryInfo};
pub use exec::{Engine, ExecError, ExecOptions};
pub use omq::{Omq, OmqError};
pub use ontology::{BdiOntology, OntologyError};
pub use release::{Release, ReleaseError, ReleaseStats};
pub use rewrite::{rewrite, RewriteError, Rewriting, Walk};
pub use system::{Answer, AnswerRequest, BdiSystem, SystemError, VersionScope};
pub use wellformed::{well_formed_query, WellFormedError, WellFormedQuery};
