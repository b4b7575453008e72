//! RDF term, triple and quad data model.
//!
//! The model follows RDF 1.1 Concepts: a *term* is an IRI, a blank node, or a
//! literal (plain, language-tagged or datatyped). Terms are cheap to clone —
//! all string payloads live behind [`Arc<str>`] so that the same IRI shared
//! across millions of quads costs one allocation.

use std::fmt;
use std::sync::Arc;

/// An IRI reference (absolute or prefixed-expanded).
///
/// IRIs are compared by string value. Construction does not validate the
/// grammar beyond rejecting embedded whitespace and angle brackets, which is
/// the level of strictness the paper's vocabularies need: all IRIs we handle
/// are produced programmatically from namespace constants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(Arc<str>);

impl Iri {
    /// Creates an IRI from a string, panicking on characters that can never
    /// occur in a serialized IRI (text from outside the program goes through
    /// [`Iri::try_new`] instead).
    pub fn new(value: impl AsRef<str>) -> Self {
        Self::try_new(value.as_ref()).expect("invalid IRI")
    }

    /// Fallible constructor rejecting whitespace, `<`, `>` and `"`.
    pub fn try_new(value: &str) -> Result<Self, InvalidTerm> {
        if value.is_empty() {
            return Err(InvalidTerm::EmptyIri);
        }
        if value
            .chars()
            .any(|c| c.is_whitespace() || matches!(c, '<' | '>' | '"'))
        {
            return Err(InvalidTerm::IllegalIriChar(value.to_owned()));
        }
        Ok(Self(Arc::from(value)))
    }

    /// The IRI string, without angle brackets.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns the *local name*: the suffix after the last `/` or `#`.
    ///
    /// This mirrors the paper's convention of addressing ontology elements by
    /// their suffix (e.g. `sup:lagRatio` → `lagRatio`).
    pub fn local_name(&self) -> &str {
        let s = self.as_str();
        match s.rfind(['/', '#']) {
            Some(idx) => &s[idx + 1..],
            None => s,
        }
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(value: &str) -> Self {
        Iri::new(value)
    }
}

impl From<&Iri> for Iri {
    fn from(value: &Iri) -> Self {
        value.clone()
    }
}

/// A blank node with a store-local label.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    /// Creates a blank node with the given label (no leading `_:`),
    /// panicking where [`BlankNode::try_new`] refuses.
    pub fn new(label: impl AsRef<str>) -> Self {
        Self::try_new(label.as_ref()).expect("invalid blank node label")
    }

    /// Fallible constructor: the label must read back after `_:` as one
    /// name — letters, digits and `_ - : . / ~`, no trailing `.`.
    pub fn try_new(label: &str) -> Result<Self, InvalidTerm> {
        if !crate::syntax::lexer::is_name(label) {
            return Err(InvalidTerm::BlankLabel(label.to_owned()));
        }
        Ok(Self(Arc::from(label)))
    }

    /// The label, without the `_:` prefix.
    pub fn label(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// An RDF literal: a lexical form plus either a language tag or a datatype.
///
/// Plain literals carry the implicit datatype `xsd:string`, per RDF 1.1.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Arc<str>,
    lang: Option<Arc<str>>,
    datatype: Option<Iri>,
}

impl Literal {
    /// A plain (string) literal.
    pub fn string(value: impl AsRef<str>) -> Self {
        Self {
            lexical: Arc::from(value.as_ref()),
            lang: None,
            datatype: None,
        }
    }

    /// A language-tagged literal (`"chat"@en`), panicking where
    /// [`Literal::try_lang_string`] refuses.
    pub fn lang_string(value: impl AsRef<str>, lang: impl AsRef<str>) -> Self {
        Self::try_lang_string(value.as_ref(), lang.as_ref()).expect("invalid language tag")
    }

    /// Fallible constructor: the tag must read back after `@` — letters,
    /// digits and `-`.
    pub fn try_lang_string(value: &str, lang: &str) -> Result<Self, InvalidTerm> {
        if !crate::syntax::lexer::is_lang_tag(lang) {
            return Err(InvalidTerm::LangTag(lang.to_owned()));
        }
        Ok(Self {
            lexical: Arc::from(value),
            lang: Some(Arc::from(lang.to_ascii_lowercase().as_str())),
            datatype: None,
        })
    }

    /// A typed literal (`"12"^^xsd:integer`).
    pub fn typed(value: impl AsRef<str>, datatype: Iri) -> Self {
        Self {
            lexical: Arc::from(value.as_ref()),
            lang: None,
            datatype: Some(datatype),
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Self::typed(value.to_string(), crate::vocab::xsd::INTEGER.clone())
    }

    /// The lexical form.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The language tag, if any (lower-cased).
    pub fn lang(&self) -> Option<&str> {
        self.lang.as_deref()
    }

    /// The explicit datatype, if any. Plain literals return `None`; callers
    /// that need RDF 1.1 semantics should treat that as `xsd:string`.
    pub fn datatype(&self) -> Option<&Iri> {
        self.datatype.as_ref()
    }

    /// Parses the lexical form as an integer if the datatype permits.
    pub fn as_integer(&self) -> Option<i64> {
        self.lexical.parse().ok()
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", crate::turtle::escape_literal(&self.lexical))?;
        if let Some(lang) = &self.lang {
            write!(f, "@{lang}")?;
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^{dt}")?;
        }
        Ok(())
    }
}

/// Any RDF term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    Iri(Iri),
    Blank(BlankNode),
    Literal(Literal),
}

/// `Term`'s hash is written out manually (not derived) so the interner can
/// hash an `Iri` *as if* it were wrapped in `Term::Iri` without building the
/// wrapper — see `hash_term_iri` below. The variant tag is a fixed `u8`.
impl std::hash::Hash for Term {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Term::Iri(iri) => hash_term_iri(iri, state),
            Term::Blank(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Term::Literal(l) => {
                state.write_u8(2);
                l.hash(state);
            }
        }
    }
}

/// Hashes an IRI with the exact byte stream `Term::Iri(iri).hash(..)` would
/// produce. Kept next to `Term`'s impl so the two cannot drift apart.
pub(crate) fn hash_term_iri<H: std::hash::Hasher>(iri: &Iri, state: &mut H) {
    use std::hash::Hash;
    state.write_u8(0);
    iri.hash(state);
}

impl Term {
    /// Convenience constructor for IRI terms.
    pub fn iri(value: impl AsRef<str>) -> Self {
        Term::Iri(Iri::new(value))
    }

    /// Returns the IRI if this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// Returns the literal if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => iri.fmt(f),
            Term::Blank(b) => b.fmt(f),
            Term::Literal(l) => l.fmt(f),
        }
    }
}

impl From<Iri> for Term {
    fn from(value: Iri) -> Self {
        Term::Iri(value)
    }
}

impl From<&Iri> for Term {
    fn from(value: &Iri) -> Self {
        Term::Iri(value.clone())
    }
}

impl From<Literal> for Term {
    fn from(value: Literal) -> Self {
        Term::Literal(value)
    }
}

impl From<BlankNode> for Term {
    fn from(value: BlankNode) -> Self {
        Term::Blank(value)
    }
}

/// What a triple or quad is about: an IRI or a blank node. RDF data
/// cannot hold a literal subject, so the model cannot build one:
///
/// ```compile_fail
/// use bdi_rdf::model::{GraphName, Iri, Literal, Quad};
/// let _ = Quad::new(
///     Literal::string("not a subject"),
///     Iri::new("http://e/p"),
///     Iri::new("http://e/o"),
///     GraphName::Default,
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subject {
    Iri(Iri),
    Blank(BlankNode),
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Iri(iri) => iri.fmt(f),
            Subject::Blank(b) => b.fmt(f),
        }
    }
}

impl From<Iri> for Subject {
    fn from(value: Iri) -> Self {
        Subject::Iri(value)
    }
}

impl From<&Iri> for Subject {
    fn from(value: &Iri) -> Self {
        Subject::Iri(value.clone())
    }
}

impl From<BlankNode> for Subject {
    fn from(value: BlankNode) -> Self {
        Subject::Blank(value)
    }
}

/// A term in subject position; a literal is refused and handed back.
impl TryFrom<Term> for Subject {
    type Error = Literal;

    fn try_from(value: Term) -> Result<Self, Literal> {
        match value {
            Term::Iri(iri) => Ok(Subject::Iri(iri)),
            Term::Blank(b) => Ok(Subject::Blank(b)),
            Term::Literal(l) => Err(l),
        }
    }
}

impl From<Subject> for Term {
    fn from(value: Subject) -> Self {
        match value {
            Subject::Iri(iri) => Term::Iri(iri),
            Subject::Blank(b) => Term::Blank(b),
        }
    }
}

/// A triple in the default graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    pub subject: Subject,
    pub predicate: Iri,
    pub object: Term,
}

impl Triple {
    pub fn new(
        subject: impl Into<Subject>,
        predicate: impl Into<Iri>,
        object: impl Into<Term>,
    ) -> Self {
        Self {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

impl From<String> for Iri {
    fn from(value: String) -> Self {
        Iri::new(value)
    }
}

/// The graph component of a quad: the default graph or a named graph.
///
/// The paper's Mapping graph `M` associates each wrapper with a *named graph*
/// identifying the subgraph of `G` it provides; named graphs are therefore a
/// first-class construct here.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GraphName {
    Default,
    Named(Iri),
}

impl GraphName {
    pub fn named(iri: impl Into<Iri>) -> Self {
        GraphName::Named(iri.into())
    }

    /// The IRI of a named graph, or `None` for the default graph.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            GraphName::Named(iri) => Some(iri),
            GraphName::Default => None,
        }
    }
}

impl fmt::Display for GraphName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphName::Default => f.write_str("DEFAULT"),
            GraphName::Named(iri) => iri.fmt(f),
        }
    }
}

impl From<Iri> for GraphName {
    fn from(value: Iri) -> Self {
        GraphName::Named(value)
    }
}

/// A quad: a triple plus the graph it belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Quad {
    pub subject: Subject,
    pub predicate: Iri,
    pub object: Term,
    pub graph: GraphName,
}

impl Quad {
    pub fn new(
        subject: impl Into<Subject>,
        predicate: impl Into<Iri>,
        object: impl Into<Term>,
        graph: impl Into<GraphName>,
    ) -> Self {
        Self {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
            graph: graph.into(),
        }
    }

    /// Drops the graph component.
    pub fn into_triple(self) -> Triple {
        Triple {
            subject: self.subject,
            predicate: self.predicate,
            object: self.object,
        }
    }
}

impl fmt::Display for Quad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.graph {
            GraphName::Default => {
                write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
            }
            GraphName::Named(g) => write!(
                f,
                "{} {} {} {} .",
                self.subject, self.predicate, self.object, g
            ),
        }
    }
}

/// Errors raised when constructing malformed terms.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum InvalidTerm {
    #[error("IRI must not be empty")]
    EmptyIri,
    #[error("IRI contains an illegal character: {0:?}")]
    IllegalIriChar(String),
    #[error("blank node label {0:?} does not read back after `_:`")]
    BlankLabel(String),
    #[error("language tag {0:?} does not read back after `@`")]
    LangTag(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_local_name_after_slash_and_hash() {
        assert_eq!(Iri::new("http://ex.org/a/b").local_name(), "b");
        assert_eq!(Iri::new("http://ex.org/ns#thing").local_name(), "thing");
        assert_eq!(Iri::new("urn:x").local_name(), "urn:x");
    }

    #[test]
    fn iri_rejects_whitespace_and_brackets() {
        assert!(Iri::try_new("http://ex.org/a b").is_err());
        assert!(Iri::try_new("http://ex.org/<x>").is_err());
        assert!(Iri::try_new("").is_err());
    }

    #[test]
    fn literal_kinds() {
        let plain = Literal::string("hello");
        assert_eq!(plain.lexical(), "hello");
        assert!(plain.datatype().is_none());

        let tagged = Literal::lang_string("hello", "EN");
        assert_eq!(tagged.lang(), Some("en"));

        let typed = Literal::integer(42);
        assert_eq!(typed.as_integer(), Some(42));
        assert_eq!(
            typed.datatype().unwrap().as_str(),
            "http://www.w3.org/2001/XMLSchema#integer"
        );
    }

    #[test]
    fn term_display_round_trip_shapes() {
        assert_eq!(Term::iri("http://e/x").to_string(), "<http://e/x>");
        assert_eq!(
            Term::Literal(Literal::string("a\"b")).to_string(),
            "\"a\\\"b\""
        );
        assert_eq!(Term::Blank(BlankNode::new("b0")).to_string(), "_:b0");
    }

    #[test]
    fn quad_display_includes_graph() {
        let q = Quad::new(
            Iri::new("http://e/s"),
            Iri::new("http://e/p"),
            Iri::new("http://e/o"),
            GraphName::named(Iri::new("http://e/g")),
        );
        assert_eq!(
            q.to_string(),
            "<http://e/s> <http://e/p> <http://e/o> <http://e/g> ."
        );
    }

    #[test]
    fn graph_name_accessors() {
        assert_eq!(GraphName::Default.as_iri(), None);
        let g = GraphName::named(Iri::new("http://e/g"));
        assert_eq!(g.as_iri().unwrap().as_str(), "http://e/g");
    }
}
