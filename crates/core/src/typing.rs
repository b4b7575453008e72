//! Datatype integrity checking (§3.1).
//!
//! Features can be annotated with XSD datatypes via `G:hasDataType`, "widely
//! used in data integrity management". This module puts those annotations to
//! work: given a wrapper and the feature mapping `F`, it validates the
//! wrapper's current output against the declared datatypes and reports every
//! violation — the steward's early-warning signal that a source changed a
//! format *without* announcing a release (the `ChangeFormatOrType` case of
//! Table 5).

use crate::ontology::BdiOntology;
use crate::vocab;
use bdi_rdf::model::Iri;
use bdi_rdf::store::GraphPattern;
use bdi_rdf::vocab::xsd;
use bdi_relational::{Relation, Value};
use bdi_wrappers::{Wrapper, WrapperError};

/// The value kinds a datatype admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedKind {
    Integer,
    Double,
    Boolean,
    String,
    /// Unknown/unmapped datatype: everything is admitted.
    Any,
}

impl ExpectedKind {
    /// Maps an XSD datatype IRI to the relational kind it admits.
    pub(crate) fn from_datatype(datatype: &Iri) -> ExpectedKind {
        match datatype.as_str() {
            s if s == xsd::INTEGER.as_str() => ExpectedKind::Integer,
            s if s == xsd::DOUBLE.as_str() => ExpectedKind::Double,
            s if s == xsd::BOOLEAN.as_str() => ExpectedKind::Boolean,
            s if s == xsd::STRING.as_str() || s == xsd::ANY_URI.as_str() => ExpectedKind::String,
            s if s == xsd::DATE_TIME.as_str() => ExpectedKind::Integer, // epoch seconds
            _ => ExpectedKind::Any,
        }
    }

    /// Whether a scalar value conforms. Nulls always conform — absence is a
    /// completeness concern, not a typing one.
    pub(crate) fn admits(self, value: &Value) -> bool {
        match (self, value) {
            (_, Value::Null) => true,
            (ExpectedKind::Any, _) => true,
            (ExpectedKind::Integer, Value::Int(_)) => true,
            // Integers widen into doubles (JSON numbers are untyped).
            (ExpectedKind::Double, Value::Float(_) | Value::Int(_)) => true,
            (ExpectedKind::Boolean, Value::Bool(_)) => true,
            (ExpectedKind::String, Value::Str(_)) => true,
            _ => false,
        }
    }
}

/// One typing violation found in a wrapper's output.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeViolation {
    pub wrapper: String,
    /// The physical attribute (local name).
    pub attribute: String,
    /// The feature whose datatype was violated.
    pub feature: Iri,
    pub expected: ExpectedKind,
    /// Kind actually observed.
    pub found: &'static str,
    /// First offending row index.
    pub row: usize,
    /// Number of offending rows in total.
    pub count: usize,
}

/// Errors raised by the validator itself (not violations).
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum TypingError {
    #[error(transparent)]
    Wrapper(#[from] WrapperError),
    #[error("wrapper {0} is not registered in the ontology")]
    UnregisteredWrapper(String),
}

/// The declared datatype of a feature, if any.
pub(crate) fn feature_datatype(ontology: &BdiOntology, feature: &Iri) -> Option<Iri> {
    ontology
        .store()
        .iri_objects(
            feature,
            &vocab::g::HAS_DATA_TYPE,
            &GraphPattern::Named((*vocab::graphs::GLOBAL).clone()),
        )
        .into_iter()
        .next()
}

/// Validates one wrapper's *current* output against the datatypes of the
/// features its attributes map to. Returns all violations (empty = clean).
pub(crate) fn validate_wrapper(
    ontology: &BdiOntology,
    wrapper: &dyn Wrapper,
) -> Result<Vec<TypeViolation>, TypingError> {
    let wrapper_uri = vocab::wrapper_uri(wrapper.name());
    if !ontology.is_wrapper(&wrapper_uri) {
        return Err(TypingError::UnregisteredWrapper(wrapper.name().to_owned()));
    }
    let relation = wrapper.scan()?;
    Ok(validate_relation(
        ontology,
        wrapper.name(),
        wrapper.source(),
        &relation,
    ))
}

/// Validates an already-scanned relation (useful in tests and pipelines).
pub fn validate_relation(
    ontology: &BdiOntology,
    wrapper_name: &str,
    source: &str,
    relation: &Relation,
) -> Vec<TypeViolation> {
    let mut violations = Vec::new();
    for (col, attr) in relation.schema().attributes().iter().enumerate() {
        let attr_uri = vocab::attribute_uri(source, attr.name());
        let Some(feature) = ontology.feature_of_attribute(&attr_uri) else {
            continue; // unmapped attributes carry no typing contract
        };
        let Some(datatype) = feature_datatype(ontology, &feature) else {
            continue;
        };
        let expected = ExpectedKind::from_datatype(&datatype);
        let mut first_bad: Option<(usize, &'static str)> = None;
        let mut count = 0;
        for (row_idx, row) in relation.rows().iter().enumerate() {
            let value = &row[col];
            if !expected.admits(value) {
                count += 1;
                if first_bad.is_none() {
                    first_bad = Some((row_idx, value.kind()));
                }
            }
        }
        if let Some((row, found)) = first_bad {
            violations.push(TypeViolation {
                wrapper: wrapper_name.to_owned(),
                attribute: attr.name().to_owned(),
                feature: feature.clone(),
                expected,
                found,
                row,
                count,
            });
        }
    }
    violations
}

/// Validates every wrapper in a registry; returns violations grouped.
pub fn validate_all(
    ontology: &BdiOntology,
    registry: &bdi_wrappers::WrapperRegistry,
) -> Result<Vec<TypeViolation>, TypingError> {
    let mut out = Vec::new();
    for wrapper in registry.iter() {
        out.extend(validate_wrapper(ontology, wrapper.as_ref())?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supersede;
    use bdi_relational::Schema;

    #[test]
    fn running_example_is_type_clean() {
        let system = supersede::build_running_example();
        let violations = validate_all(system.ontology(), system.registry()).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn format_drift_is_detected() {
        let system = supersede::build_running_example();
        // Simulate the VoD source silently switching lagRatio to a string.
        let bad = Relation::new(
            Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).unwrap(),
            vec![
                vec![Value::Int(12), Value::Str("0.75".into())],
                vec![Value::Int(18), Value::Float(0.1)],
                vec![Value::Int(19), Value::Str("n/a".into())],
            ],
        )
        .unwrap();
        let violations = validate_relation(system.ontology(), "w1", "D1", &bad);
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(v.attribute, "lagRatio");
        assert_eq!(v.expected, ExpectedKind::Double);
        assert_eq!(v.found, "string");
        assert_eq!(v.row, 0);
        assert_eq!(v.count, 2);
    }

    #[test]
    fn integers_widen_into_doubles() {
        let system = supersede::build_running_example();
        let ok = Relation::new(
            Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).unwrap(),
            vec![vec![Value::Int(12), Value::Int(1)]], // lagRatio = 1 (int)
        )
        .unwrap();
        assert!(validate_relation(system.ontology(), "w1", "D1", &ok).is_empty());
    }

    #[test]
    fn nulls_always_conform() {
        let system = supersede::build_running_example();
        let with_nulls = Relation::new(
            Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).unwrap(),
            vec![vec![Value::Int(12), Value::Null]],
        )
        .unwrap();
        assert!(validate_relation(system.ontology(), "w1", "D1", &with_nulls).is_empty());
    }

    #[test]
    fn unmapped_attributes_are_skipped() {
        let system = supersede::build_running_example();
        let rel = Relation::new(
            Schema::from_parts(&["VoDmonitorId"], &["unknownAttr"]).unwrap(),
            vec![vec![Value::Int(12), Value::Bool(true)]],
        )
        .unwrap();
        assert!(validate_relation(system.ontology(), "w1", "D1", &rel).is_empty());
    }

    #[test]
    fn unregistered_wrapper_is_an_error() {
        let system = supersede::build_running_example();
        let w = bdi_wrappers::TableWrapper::new(
            "ghost",
            "D9",
            Schema::from_parts::<&str>(&["id"], &[]).unwrap(),
            vec![],
        )
        .unwrap();
        assert!(matches!(
            validate_wrapper(system.ontology(), &w),
            Err(TypingError::UnregisteredWrapper(_))
        ));
    }

    #[test]
    fn expected_kind_mapping() {
        assert_eq!(
            ExpectedKind::from_datatype(&xsd::INTEGER),
            ExpectedKind::Integer
        );
        assert_eq!(
            ExpectedKind::from_datatype(&xsd::DOUBLE),
            ExpectedKind::Double
        );
        assert_eq!(
            ExpectedKind::from_datatype(&xsd::BOOLEAN),
            ExpectedKind::Boolean
        );
        assert_eq!(
            ExpectedKind::from_datatype(&xsd::STRING),
            ExpectedKind::String
        );
        assert_eq!(
            ExpectedKind::from_datatype(&Iri::new("http://custom/dt")),
            ExpectedKind::Any
        );
    }
}
