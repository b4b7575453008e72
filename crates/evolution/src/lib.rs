//! # bdi-evolution — evolution management and the paper's evaluation datasets
//!
//! * [`taxonomy`] — the three-level REST API change taxonomy (Tables 3–5)
//!   with its wrapper/ontology/both handler classification and the
//!   ontology-side action each change triggers (§6.2);
//! * [`industrial`] — the five-API industrial-applicability study (Table 6),
//!   re-derived through the classifier: 48.84% of changes partially and
//!   22.77% fully accommodated — 71.62% overall;
//! * [`wordpress`] — the Wordpress `GET Posts` release series replayed
//!   through Algorithm 1, producing the per-release and cumulative Source
//!   graph growth of Figure 11.

pub mod industrial;
pub mod taxonomy;
pub mod wordpress;

pub use industrial::{table6, AccommodationStats};
pub use taxonomy::{
    ApiLevelChange, Change, Handler, MethodLevelChange, OntologyAction, ParameterLevelChange,
};
pub use wordpress::{replay, ReleaseRecord};
