//! Well-known RDF vocabularies used throughout the BDI ontology.
//!
//! Namespaces follow the paper: `rdf:`, `rdfs:`, `owl:`, `xsd:` plus the
//! documentation vocabularies (`voaf:`, `vann:`) referenced by Codes 6 and 7.

use crate::model::Iri;
use std::sync::OnceLock;

/// Declares a lazily-initialised namespaced IRI constant.
macro_rules! iri_const {
    ($(#[$doc:meta])* $name:ident = $value:expr) => {
        $(#[$doc])*
        pub static $name: LazyIri = LazyIri::new($value);
    };
}

/// A lazily constructed IRI constant. Dereferences to [`Iri`].
pub struct LazyIri {
    value: &'static str,
    cell: OnceLock<Iri>,
}

impl LazyIri {
    pub const fn new(value: &'static str) -> Self {
        Self {
            value,
            cell: OnceLock::new(),
        }
    }

    /// The underlying IRI string.
    pub(crate) fn as_str(&self) -> &'static str {
        self.value
    }
}

impl std::ops::Deref for LazyIri {
    type Target = Iri;

    fn deref(&self) -> &Iri {
        self.cell.get_or_init(|| Iri::new(self.value))
    }
}

impl From<&LazyIri> for Iri {
    fn from(value: &LazyIri) -> Iri {
        (**value).clone()
    }
}

impl From<&LazyIri> for crate::model::Term {
    fn from(value: &LazyIri) -> crate::model::Term {
        crate::model::Term::Iri((**value).clone())
    }
}

/// `rdf:` — the RDF syntax namespace.
pub mod rdf {
    use super::*;
    pub(crate) const NS: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
    iri_const!(
        /// `rdf:type`.
        TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    );
    iri_const!(
        /// `rdf:Property`.
        PROPERTY = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property"
    );
}

/// `rdfs:` — RDF Schema.
pub mod rdfs {
    use super::*;
    pub(crate) const NS: &str = "http://www.w3.org/2000/01/rdf-schema#";
    iri_const!(
        /// `rdfs:Class`.
        CLASS = "http://www.w3.org/2000/01/rdf-schema#Class"
    );
    iri_const!(
        /// `rdfs:subClassOf`.
        SUB_CLASS_OF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
    );
    iri_const!(
        /// `rdfs:domain`.
        DOMAIN = "http://www.w3.org/2000/01/rdf-schema#domain"
    );
    iri_const!(
        /// `rdfs:range`.
        RANGE = "http://www.w3.org/2000/01/rdf-schema#range"
    );
    iri_const!(
        /// `rdfs:Datatype`.
        DATATYPE = "http://www.w3.org/2000/01/rdf-schema#Datatype"
    );
}

/// `owl:` — the fragment of OWL the paper uses (`owl:sameAs` for the mapping
/// function `F`).
pub mod owl {
    use super::*;
    pub(crate) const NS: &str = "http://www.w3.org/2002/07/owl#";
    iri_const!(
        /// `owl:sameAs` — links a source attribute to the feature it maps to.
        SAME_AS = "http://www.w3.org/2002/07/owl#sameAs"
    );
}

/// `xsd:` — XML Schema datatypes used for feature typing (§3.1).
pub mod xsd {
    use super::*;
    pub(crate) const NS: &str = "http://www.w3.org/2001/XMLSchema#";
    iri_const!(STRING = "http://www.w3.org/2001/XMLSchema#string");
    iri_const!(INTEGER = "http://www.w3.org/2001/XMLSchema#integer");
    iri_const!(DOUBLE = "http://www.w3.org/2001/XMLSchema#double");
    iri_const!(BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean");
    iri_const!(DATE_TIME = "http://www.w3.org/2001/XMLSchema#dateTime");
    iri_const!(ANY_URI = "http://www.w3.org/2001/XMLSchema#anyURI");
}

/// `voaf:` — vocabulary-of-a-friend, used by the metamodel headers (Code 6/7).
pub mod voaf {
    pub(crate) const NS: &str = "http://purl.org/vocommons/voaf#";
}

/// `vann:` — vocabulary annotation namespace (Code 6/7).
pub mod vann {
    pub(crate) const NS: &str = "http://purl.org/vocab/vann/";
}

/// `sc:` — schema.org, reused by the paper for `sc:identifier` (the feature
/// taxonomy root marking ID semantics).
pub mod sc {
    use super::*;
    pub(crate) const NS: &str = "http://schema.org/";
    iri_const!(
        /// `sc:identifier` — superclass of all ID features (§3.1, Alg. 2/3).
        IDENTIFIER = "http://schema.org/identifier"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_resolve_to_expected_iris() {
        assert_eq!(rdf::TYPE.as_str(), format!("{}type", rdf::NS));
        assert_eq!(
            rdfs::SUB_CLASS_OF.as_str(),
            format!("{}subClassOf", rdfs::NS)
        );
        assert_eq!(owl::SAME_AS.as_str(), format!("{}sameAs", owl::NS));
        assert_eq!(sc::IDENTIFIER.as_str(), "http://schema.org/identifier");
    }

    #[test]
    fn lazy_iri_deref_is_stable() {
        let a: &Iri = &rdf::TYPE;
        let b: &Iri = &rdf::TYPE;
        assert_eq!(a, b);
    }
}
