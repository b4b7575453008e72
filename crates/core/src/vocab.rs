//! The BDI ontology vocabulary (Codes 6 and 7) and URI-minting helpers.
//!
//! Namespaces follow the paper exactly:
//! * `G:` — `http://www.essi.upc.edu/~snadal/BDIOntology/Global/`
//! * `S:` — `http://www.essi.upc.edu/~snadal/BDIOntology/Source/`
//! * `M:` — `http://www.essi.upc.edu/~snadal/BDIOntology/Mapping/`
//!
//! The three graphs of `T = ⟨G, S, M⟩` are RDF *named graphs*; their graph
//! IRIs are exposed here too. Source-level URIs are minted the way
//! Algorithm 1 does: `S:DataSource/<source>`, `S:Wrapper/<wrapper>`, and
//! attribute URIs prefixed by their source (`Sourceuri + "/" + attribute`) so
//! that attributes are only ever reused *within* one source (§3.2).

use bdi_rdf::model::{GraphName, Iri};
use bdi_rdf::vocab::LazyIri;

/// `G:` namespace — the Global graph vocabulary (Code 6).
pub mod g {
    use super::*;
    pub(crate) const NS: &str = "http://www.essi.upc.edu/~snadal/BDIOntology/Global/";
    /// `G:Concept` — metaclass of domain concepts (UML classes).
    pub(crate) static CONCEPT: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/Global/Concept");
    /// `G:Feature` — metaclass of features of analysis (UML attributes).
    pub(crate) static FEATURE: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/Global/Feature");
    /// `G:hasFeature` — links a concept to one of its features.
    pub static HAS_FEATURE: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/Global/hasFeature");
    /// `G:hasDataType` — links a feature to an `rdfs:Datatype` (§3.1).
    pub(crate) static HAS_DATA_TYPE: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/Global/hasDataType");
}

/// `S:` namespace — the Source graph vocabulary (Code 7).
pub mod s {
    use super::*;
    pub(crate) const NS: &str = "http://www.essi.upc.edu/~snadal/BDIOntology/Source/";
    /// `S:DataSource`.
    pub(crate) static DATA_SOURCE: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/Source/DataSource");
    /// `S:Wrapper` — one schema version of a data source.
    pub(crate) static WRAPPER: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/Source/Wrapper");
    /// `S:Attribute` — an attribute projected by a wrapper.
    pub(crate) static ATTRIBUTE: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/Source/Attribute");
    /// `S:hasWrapper`.
    pub(crate) static HAS_WRAPPER: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/Source/hasWrapper");
    /// `S:hasAttribute`.
    pub(crate) static HAS_ATTRIBUTE: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/Source/hasAttribute");
}

/// `M:` namespace — the Mapping graph vocabulary (§3.3).
pub mod m {
    use super::*;
    pub(crate) const NS: &str = "http://www.essi.upc.edu/~snadal/BDIOntology/Mapping/";
    /// `M:mapping` — links a wrapper to the named graph holding its LAV
    /// subgraph of `G`.
    pub(crate) static MAPPING: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/Mapping/mapping");
}

/// Graph IRIs for the three graphs of the ontology `T`.
pub mod graphs {
    use super::*;
    pub static GLOBAL: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/graphs/G");
    pub(crate) static SOURCE: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/graphs/S");
    pub(crate) static MAPPING: LazyIri =
        LazyIri::new("http://www.essi.upc.edu/~snadal/BDIOntology/graphs/M");

    /// The Global graph's name.
    pub fn global() -> GraphName {
        GraphName::Named((*GLOBAL).clone())
    }

    /// The Source graph's name.
    pub fn source() -> GraphName {
        GraphName::Named((*SOURCE).clone())
    }

    /// The Mapping graph's name.
    pub fn mapping() -> GraphName {
        GraphName::Named((*MAPPING).clone())
    }
}

/// `"S:DataSource/" + source` — Algorithm 1, line 2.
pub(crate) fn data_source_uri(source: &str) -> Iri {
    Iri::new(format!("{}DataSource/{}", s::NS, source))
}

/// `"S:Wrapper/" + wrapper` — Algorithm 1, line 6.
pub fn wrapper_uri(wrapper: &str) -> Iri {
    Iri::new(format!("{}Wrapper/{}", s::NS, wrapper))
}

/// `Sourceuri + attribute` — Algorithm 1, line 10. Prefixing by source keeps
/// attribute reuse within one source and avoids cross-source semantic
/// clashes (§3.2).
pub fn attribute_uri(source: &str, attribute: &str) -> Iri {
    Iri::new(format!("{}DataSource/{}/{}", s::NS, source, attribute))
}

/// Inverse of [`wrapper_uri`]: the wrapper name of a wrapper URI.
pub fn wrapper_name_of(uri: &Iri) -> Option<&str> {
    uri.as_str().strip_prefix(&format!("{}Wrapper/", s::NS))
}

/// Inverse of [`attribute_uri`]: `(source, attribute)` of an attribute URI.
pub(crate) fn attribute_parts_of(uri: &Iri) -> Option<(&str, &str)> {
    let rest = uri
        .as_str()
        .strip_prefix(&format!("{}DataSource/", s::NS))?;
    rest.split_once('/')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uris_follow_algorithm1_shapes() {
        assert_eq!(
            data_source_uri("D1").as_str(),
            "http://www.essi.upc.edu/~snadal/BDIOntology/Source/DataSource/D1"
        );
        assert_eq!(
            wrapper_uri("w1").as_str(),
            "http://www.essi.upc.edu/~snadal/BDIOntology/Source/Wrapper/w1"
        );
        assert_eq!(
            attribute_uri("D1", "lagRatio").as_str(),
            "http://www.essi.upc.edu/~snadal/BDIOntology/Source/DataSource/D1/lagRatio"
        );
    }

    #[test]
    fn inverses_round_trip() {
        assert_eq!(wrapper_name_of(&wrapper_uri("w4")), Some("w4"));
        assert_eq!(
            attribute_parts_of(&attribute_uri("D1", "VoDmonitorId")),
            Some(("D1", "VoDmonitorId"))
        );
        assert_eq!(wrapper_name_of(&data_source_uri("D1")), None);
    }

    #[test]
    fn graph_names_are_distinct() {
        assert_ne!(graphs::global(), graphs::source());
        assert_ne!(graphs::source(), graphs::mapping());
    }
}
