//! The REST API change taxonomy of §6.2 (after Wang et al. \[27\]) and its
//! handler classification — Tables 3, 4 and 5 of the paper.
//!
//! Changes occur at three levels (API, method, parameter). Each change is
//! handled by the **wrapper** (request-side concerns: auth, URLs, rate
//! limits), by the **BDI ontology** (response-structure concerns, via a new
//! release and Algorithm 1), or by **both**.

use std::fmt;

/// Which component accommodates a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Handler {
    /// Handled entirely by the wrapper's query engine.
    Wrapper,
    /// Handled entirely by the ontology (fully accommodated).
    Ontology,
    /// Requires changes on both sides (partially accommodated).
    Both,
}

impl fmt::Display for Handler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Handler::Wrapper => "Wrapper",
            Handler::Ontology => "BDI Ontology",
            Handler::Both => "Wrapper & BDI Ontology",
        })
    }
}

/// API-level changes (Table 3): concern a whole API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ApiLevelChange {
    AddAuthenticationModel,
    ChangeResourceUrl,
    ChangeAuthenticationModel,
    ChangeRateLimit,
    DeleteResponseFormat,
    AddResponseFormat,
    ChangeResponseFormat,
}

impl ApiLevelChange {
    pub const ALL: [ApiLevelChange; 7] = [
        ApiLevelChange::AddAuthenticationModel,
        ApiLevelChange::ChangeResourceUrl,
        ApiLevelChange::ChangeAuthenticationModel,
        ApiLevelChange::ChangeRateLimit,
        ApiLevelChange::DeleteResponseFormat,
        ApiLevelChange::AddResponseFormat,
        ApiLevelChange::ChangeResponseFormat,
    ];

    /// Table 3's handler column.
    pub fn handler(self) -> Handler {
        match self {
            ApiLevelChange::AddAuthenticationModel
            | ApiLevelChange::ChangeResourceUrl
            | ApiLevelChange::ChangeAuthenticationModel
            | ApiLevelChange::ChangeRateLimit => Handler::Wrapper,
            ApiLevelChange::DeleteResponseFormat
            | ApiLevelChange::AddResponseFormat
            | ApiLevelChange::ChangeResponseFormat => Handler::Ontology,
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            ApiLevelChange::AddAuthenticationModel => "Add authentication model",
            ApiLevelChange::ChangeResourceUrl => "Change resource URL",
            ApiLevelChange::ChangeAuthenticationModel => "Change authentication model",
            ApiLevelChange::ChangeRateLimit => "Change rate limit",
            ApiLevelChange::DeleteResponseFormat => "Delete response format",
            ApiLevelChange::AddResponseFormat => "Add response format",
            ApiLevelChange::ChangeResponseFormat => "Change response format",
        }
    }
}

/// Method-level changes (Table 4): concern one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MethodLevelChange {
    AddErrorCode,
    ChangeRateLimit,
    ChangeAuthenticationModel,
    ChangeDomainUrl,
    AddMethod,
    DeleteMethod,
    ChangeMethodName,
    ChangeResponseFormat,
}

impl MethodLevelChange {
    pub const ALL: [MethodLevelChange; 8] = [
        MethodLevelChange::AddErrorCode,
        MethodLevelChange::ChangeRateLimit,
        MethodLevelChange::ChangeAuthenticationModel,
        MethodLevelChange::ChangeDomainUrl,
        MethodLevelChange::AddMethod,
        MethodLevelChange::DeleteMethod,
        MethodLevelChange::ChangeMethodName,
        MethodLevelChange::ChangeResponseFormat,
    ];

    /// Table 4's handler column.
    pub fn handler(self) -> Handler {
        match self {
            MethodLevelChange::AddErrorCode
            | MethodLevelChange::ChangeRateLimit
            | MethodLevelChange::ChangeAuthenticationModel
            | MethodLevelChange::ChangeDomainUrl => Handler::Wrapper,
            MethodLevelChange::AddMethod
            | MethodLevelChange::DeleteMethod
            | MethodLevelChange::ChangeMethodName => Handler::Both,
            MethodLevelChange::ChangeResponseFormat => Handler::Ontology,
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            MethodLevelChange::AddErrorCode => "Add error code",
            MethodLevelChange::ChangeRateLimit => "Change rate limit",
            MethodLevelChange::ChangeAuthenticationModel => "Change authentication model",
            MethodLevelChange::ChangeDomainUrl => "Change domain URL",
            MethodLevelChange::AddMethod => "Add method",
            MethodLevelChange::DeleteMethod => "Delete method",
            MethodLevelChange::ChangeMethodName => "Change method name",
            MethodLevelChange::ChangeResponseFormat => "Change response format",
        }
    }
}

/// Parameter-level changes (Table 5): schema evolution proper — "the most
/// common on new API releases".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParameterLevelChange {
    ChangeRateLimit,
    ChangeRequireType,
    AddParameter,
    DeleteParameter,
    RenameResponseParameter,
    ChangeFormatOrType,
}

impl ParameterLevelChange {
    pub const ALL: [ParameterLevelChange; 6] = [
        ParameterLevelChange::ChangeRateLimit,
        ParameterLevelChange::ChangeRequireType,
        ParameterLevelChange::AddParameter,
        ParameterLevelChange::DeleteParameter,
        ParameterLevelChange::RenameResponseParameter,
        ParameterLevelChange::ChangeFormatOrType,
    ];

    /// Table 5's handler column.
    pub fn handler(self) -> Handler {
        match self {
            ParameterLevelChange::ChangeRateLimit | ParameterLevelChange::ChangeRequireType => {
                Handler::Wrapper
            }
            ParameterLevelChange::AddParameter | ParameterLevelChange::DeleteParameter => {
                Handler::Both
            }
            ParameterLevelChange::RenameResponseParameter
            | ParameterLevelChange::ChangeFormatOrType => Handler::Ontology,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ParameterLevelChange::ChangeRateLimit => "Change rate limit",
            ParameterLevelChange::ChangeRequireType => "Change require type",
            ParameterLevelChange::AddParameter => "Add parameter",
            ParameterLevelChange::DeleteParameter => "Delete parameter",
            ParameterLevelChange::RenameResponseParameter => "Rename response parameter",
            ParameterLevelChange::ChangeFormatOrType => "Change format or type",
        }
    }
}

/// Any change, across the three levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Change {
    Api(ApiLevelChange),
    Method(MethodLevelChange),
    Parameter(ParameterLevelChange),
}

impl Change {
    pub fn handler(self) -> Handler {
        match self {
            Change::Api(c) => c.handler(),
            Change::Method(c) => c.handler(),
            Change::Parameter(c) => c.handler(),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Change::Api(c) => c.name(),
            Change::Method(c) => c.name(),
            Change::Parameter(c) => c.name(),
        }
    }
}

/// Maps a structural schema delta (from the API simulator) to its
/// parameter-level change classification.
pub fn classify_delta(delta: &bdi_wrappers::SchemaDelta) -> ParameterLevelChange {
    match delta {
        bdi_wrappers::SchemaDelta::AddField(_) => ParameterLevelChange::AddParameter,
        bdi_wrappers::SchemaDelta::DeleteField(_) => ParameterLevelChange::DeleteParameter,
        bdi_wrappers::SchemaDelta::RenameField { .. } => {
            ParameterLevelChange::RenameResponseParameter
        }
        bdi_wrappers::SchemaDelta::RetypeField { .. } => ParameterLevelChange::ChangeFormatOrType,
    }
}

/// The ontology-side action §6.2 prescribes for a change (what the steward
/// does, beyond any wrapper-side work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OntologyAction {
    /// Register a new release and run Algorithm 1.
    NewRelease,
    /// Rename the `S:DataSource` instance (method renamed).
    RenameDataSource,
    /// Nothing — removals keep historic backwards compatibility ("no
    /// elements should be removed from T").
    PreserveHistory,
    /// Nothing — the change never reaches the ontology.
    None,
}

/// What the ontology does for each change kind (§6.2's prose).
pub fn ontology_action(change: Change) -> OntologyAction {
    match change.handler() {
        Handler::Wrapper => OntologyAction::None,
        _ => match change {
            Change::Api(ApiLevelChange::DeleteResponseFormat)
            | Change::Method(MethodLevelChange::DeleteMethod)
            | Change::Parameter(ParameterLevelChange::DeleteParameter) => {
                OntologyAction::PreserveHistory
            }
            Change::Method(MethodLevelChange::ChangeMethodName) => OntologyAction::RenameDataSource,
            _ => OntologyAction::NewRelease,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_handler_split() {
        let wrapper: Vec<_> = ApiLevelChange::ALL
            .iter()
            .filter(|c| c.handler() == Handler::Wrapper)
            .collect();
        let ontology: Vec<_> = ApiLevelChange::ALL
            .iter()
            .filter(|c| c.handler() == Handler::Ontology)
            .collect();
        assert_eq!(wrapper.len(), 4);
        assert_eq!(ontology.len(), 3);
    }

    #[test]
    fn table4_handler_split() {
        let counts = |h: Handler| {
            MethodLevelChange::ALL
                .iter()
                .filter(|c| c.handler() == h)
                .count()
        };
        assert_eq!(counts(Handler::Wrapper), 4);
        assert_eq!(counts(Handler::Both), 3);
        assert_eq!(counts(Handler::Ontology), 1);
    }

    #[test]
    fn table5_handler_split() {
        let counts = |h: Handler| {
            ParameterLevelChange::ALL
                .iter()
                .filter(|c| c.handler() == h)
                .count()
        };
        assert_eq!(counts(Handler::Wrapper), 2);
        assert_eq!(counts(Handler::Both), 2);
        assert_eq!(counts(Handler::Ontology), 2);
    }

    #[test]
    fn every_structural_change_is_semi_automatically_accommodated() {
        // §6.2's claim: all response-structure changes are handled by the
        // ontology (fully or partially) — i.e. every non-wrapper change has
        // a concrete ontology action.
        for c in ApiLevelChange::ALL.map(Change::Api) {
            if c.handler() != Handler::Wrapper {
                assert_ne!(ontology_action(c), OntologyAction::None, "{}", c.name());
            }
        }
        for c in ParameterLevelChange::ALL.map(Change::Parameter) {
            if c.handler() != Handler::Wrapper {
                assert_ne!(ontology_action(c), OntologyAction::None, "{}", c.name());
            }
        }
    }

    #[test]
    fn deletions_preserve_history() {
        assert_eq!(
            ontology_action(Change::Parameter(ParameterLevelChange::DeleteParameter)),
            OntologyAction::PreserveHistory
        );
        assert_eq!(
            ontology_action(Change::Api(ApiLevelChange::DeleteResponseFormat)),
            OntologyAction::PreserveHistory
        );
    }

    #[test]
    fn delta_classification() {
        use bdi_wrappers::{FieldKind, FieldSpec, SchemaDelta};
        assert_eq!(
            classify_delta(&SchemaDelta::AddField(FieldSpec::data(
                "x",
                FieldKind::Bool
            ))),
            ParameterLevelChange::AddParameter
        );
        assert_eq!(
            classify_delta(&SchemaDelta::RenameField {
                from: "a".into(),
                to: "b".into()
            }),
            ParameterLevelChange::RenameResponseParameter
        );
        assert_eq!(
            classify_delta(&SchemaDelta::DeleteField("a".into())),
            ParameterLevelChange::DeleteParameter
        );
        assert_eq!(
            classify_delta(&SchemaDelta::RetypeField {
                name: "a".into(),
                from: FieldKind::Bool,
                to: FieldKind::Timestamp
            }),
            ParameterLevelChange::ChangeFormatOrType
        );
    }
}
