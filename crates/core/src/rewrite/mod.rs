//! Query rewriting (§5): OMQ → union of conjunctive queries over wrappers.
//!
//! The pipeline chains the paper's algorithms:
//!
//! 1. **Algorithm 2** ([`crate::wellformed`]) — validate/repair the query;
//! 2. **Algorithm 3** ([`expand`]) — identify concepts, expand with IDs;
//! 3. **Algorithm 4** ([`intra`]) — partial walks per concept;
//! 4. **Algorithm 5** ([`inter`]) — join partial walks into complete walks;
//! 5. the §2.3 filter — keep walks that are **covering** and **minimal**
//!    w.r.t. the query pattern, drop walks joining two versions of one
//!    source, and collapse equivalent walks (same wrapper set).

pub mod expand;
pub mod inter;
pub mod intra;
pub mod walk;

use crate::omq::Omq;
use crate::ontology::BdiOntology;
use crate::wellformed::{self, WellFormedQuery};
use bdi_rdf::model::Iri;
use std::collections::BTreeSet;

pub use expand::{ExpandError, ExpandedQuery};
pub use walk::{JoinCondition, Walk, WalkChecks};

/// Errors raised by the rewriting pipeline.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum RewriteError {
    #[error(transparent)]
    WellFormed(#[from] wellformed::WellFormedError),
    #[error(transparent)]
    Expand(#[from] ExpandError),
}

/// The result of rewriting: the final walks plus the intermediate artefacts
/// (useful for explanation, testing and the complexity study).
#[derive(Debug, Clone)]
pub struct Rewriting {
    /// The query after Algorithm 2 (concept projections replaced by IDs).
    pub well_formed: WellFormedQuery,
    /// The query after Algorithm 3 (IDs expanded), with the concept list.
    pub expanded: ExpandedQuery,
    /// Walks produced by Algorithm 5 before the §2.3 filter.
    pub candidates: usize,
    /// The final covering, minimal, non-equivalent walks.
    pub walks: Vec<Walk>,
}

/// Rewrites an OMQ into a union of walks over the `admitted` wrapper URIs
/// (`None`: every wrapper). Algorithms 4 and 5 never see another wrapper.
pub fn rewrite(
    ontology: &BdiOntology,
    query: Omq,
    admitted: Option<&BTreeSet<Iri>>,
) -> Result<Rewriting, RewriteError> {
    // Phase 0 — Algorithm 2.
    let well_formed = wellformed::well_formed_query(ontology, query)?;
    // Phase 1 — Algorithm 3.
    let expanded = expand::query_expansion(ontology, &well_formed.omq)?;
    // Phase 2 — Algorithm 4.
    let partial =
        intra::intra_concept_generation(ontology, &expanded.concepts, &expanded.query, admitted);
    // Phase 3 — Algorithm 5.
    let candidates = inter::inter_concept_generation(ontology, &partial, admitted);
    let candidate_count = candidates.len();

    // §2.3 — coverage, minimality, same-source constraint, non-equivalence.
    let checks = walk::WalkChecks::new(ontology, &well_formed.omq.phi, &candidates);
    let mut seen_keys: BTreeSet<BTreeSet<Iri>> = BTreeSet::new();
    let mut walks = Vec::new();
    for walk in candidates {
        if checks.violates_same_source(&walk) || !checks.is_minimal(&walk) {
            continue;
        }
        if seen_keys.insert(walk.wrapper_key()) {
            walks.push(walk);
        }
    }

    Ok(Rewriting {
        well_formed,
        expanded,
        candidates: candidate_count,
        walks,
    })
}

/// `wrappers` less those a request's `admitted` set (`None`: every wrapper)
/// leaves out — the one scope check Algorithms 4 and 5 share.
fn admitted_only(mut wrappers: Vec<Iri>, admitted: Option<&BTreeSet<Iri>>) -> Vec<Iri> {
    wrappers.retain(|w| admitted.is_none_or(|a| a.contains(w)));
    wrappers
}
