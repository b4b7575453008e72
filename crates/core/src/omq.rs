//! Ontology-mediated queries: `Q_G = ⟨π, φ⟩` (§2.2).
//!
//! Analysts pose OMQs in the restricted SPARQL template of Code 3. An OMQ is
//! internally the pair of the projected attribute IRIs `π` and the constant
//! basic graph pattern `φ` (a connected subgraph of `G`). This module parses
//! the template into that pair and provides the graph utilities Algorithms
//! 2–3 need: topological sorting (DAG check) and connectivity.

use bdi_rdf::model::{Iri, Subject, Term, Triple};
use bdi_rdf::sparql::{self, GraphSpec, SelectQuery, TermOrVar};
use bdi_rdf::turtle::PrefixMap;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Errors raised while interpreting an OMQ.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum OmqError {
    #[error("SPARQL parse error: {0}")]
    Parse(String),
    #[error("OMQ template requires a VALUES clause binding each projected variable to an attribute IRI (Code 3)")]
    MissingValues,
    #[error("VALUES must bind projection variables to IRIs; found {0}")]
    NonIriValue(String),
    #[error("the template accepts only constant triple patterns in the WHERE clause; found a variable in `{0}`")]
    VariableInPattern(String),
    #[error("a literal cannot be the subject of `{0}`")]
    NonSubject(String),
    #[error("OMQ graph pattern must be connected; {0} component(s) found")]
    Disconnected(usize),
    #[error("projected attribute {0} does not occur in the graph pattern")]
    ProjectionNotInPattern(String),
}

/// An ontology-mediated query `⟨π, φ⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Omq {
    /// π — the projected attribute IRIs.
    pub pi: Vec<Iri>,
    /// φ — the constant graph pattern (a subgraph of `G`).
    pub phi: Vec<Triple>,
}

impl Omq {
    /// Builds an OMQ directly from `π` and `φ` (the programmatic path; the
    /// well-formedness of the pair is checked by Algorithm 2, not here).
    pub fn new(pi: Vec<Iri>, phi: Vec<Triple>) -> Self {
        Self { pi, phi }
    }

    /// Parses the SPARQL template of Code 3 into an OMQ.
    pub fn parse(query: &str, prefixes: &PrefixMap) -> Result<Self, OmqError> {
        let parsed =
            sparql::parse_query(query, prefixes).map_err(|e| OmqError::Parse(e.to_string()))?;
        Self::from_select(&parsed)
    }

    /// Interprets an already-parsed SPARQL query as an OMQ.
    pub(crate) fn from_select(query: &SelectQuery) -> Result<Self, OmqError> {
        let values = query.values.as_ref().ok_or(OmqError::MissingValues)?;
        let mut pi = Vec::new();
        for row in &values.rows {
            for term in row {
                match term {
                    Term::Iri(iri) => pi.push(iri.clone()),
                    other => return Err(OmqError::NonIriValue(other.to_string())),
                }
            }
        }

        let mut phi = Vec::new();
        for qp in &query.patterns {
            if !matches!(qp.graph, GraphSpec::Active) {
                return Err(OmqError::VariableInPattern(qp.pattern.to_string()));
            }
            let (s, p, o) = (
                &qp.pattern.subject,
                &qp.pattern.predicate,
                &qp.pattern.object,
            );
            let (TermOrVar::Term(s), TermOrVar::Term(Term::Iri(p)), TermOrVar::Term(o)) = (s, p, o)
            else {
                return Err(OmqError::VariableInPattern(qp.pattern.to_string()));
            };
            phi.push(Triple {
                subject: Subject::try_from(s.clone())
                    .map_err(|_| OmqError::NonSubject(qp.pattern.to_string()))?,
                predicate: p.clone(),
                object: o.clone(),
            });
        }

        let omq = Self { pi, phi };
        omq.check_connected()?;
        omq.check_projection()?;
        Ok(omq)
    }

    /// The vertex set `V(φ)`.
    pub(crate) fn vertices(&self) -> BTreeSet<Term> {
        let mut v = BTreeSet::new();
        for t in &self.phi {
            v.insert(t.subject.clone().into());
            v.insert(t.object.clone());
        }
        v
    }

    /// Ensures every projected attribute occurs in `φ` (`π ⊆ V(φ)`).
    fn check_projection(&self) -> Result<(), OmqError> {
        let vertices = self.vertices();
        for p in &self.pi {
            if !vertices.contains(&Term::Iri(p.clone())) {
                return Err(OmqError::ProjectionNotInPattern(p.as_str().to_owned()));
            }
        }
        Ok(())
    }

    /// Ensures `φ` defines one connected subgraph (Code 3's requirement).
    fn check_connected(&self) -> Result<(), OmqError> {
        let mut adjacency: BTreeMap<Term, Vec<Term>> = BTreeMap::new();
        for t in &self.phi {
            let subject = Term::from(t.subject.clone());
            adjacency
                .entry(subject.clone())
                .or_default()
                .push(t.object.clone());
            adjacency.entry(t.object.clone()).or_default().push(subject);
        }
        let mut covered: BTreeSet<&Term> = BTreeSet::new();
        let mut components = 0;
        for start in adjacency.keys() {
            if covered.insert(start) {
                components += 1;
                let mut queue = VecDeque::from([start]);
                while let Some(v) = queue.pop_front() {
                    for next in &adjacency[v] {
                        if covered.insert(next) {
                            queue.push_back(next);
                        }
                    }
                }
            }
        }
        match components {
            0 | 1 => Ok(()),
            n => Err(OmqError::Disconnected(n)),
        }
    }

    /// Kahn topological sort of `φ` viewed as a directed graph. Returns
    /// `None` when the pattern is cyclic (Algorithm 2 rejects such queries).
    pub(crate) fn topological_sort(&self) -> Option<Vec<Term>> {
        let vertices = self.vertices();
        let mut in_degree: BTreeMap<&Term, usize> = vertices.iter().map(|v| (v, 0usize)).collect();
        let mut out_edges: BTreeMap<Term, Vec<&Term>> = BTreeMap::new();
        for t in &self.phi {
            out_edges
                .entry(t.subject.clone().into())
                .or_default()
                .push(&t.object);
            *in_degree.get_mut(&t.object).expect("vertex present") += 1;
        }
        let mut queue: VecDeque<&Term> = in_degree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&v, _)| v)
            .collect();
        let mut order = Vec::with_capacity(vertices.len());
        while let Some(v) = queue.pop_front() {
            order.push(v.clone());
            for next in out_edges.get(v).into_iter().flatten() {
                let d = in_degree.get_mut(next).expect("vertex present");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(next);
                }
            }
        }
        (order.len() == vertices.len()).then_some(order)
    }

    /// All triples of `φ` about `concept`.
    pub(crate) fn triples_from<'a>(&'a self, concept: &'a Iri) -> impl Iterator<Item = &'a Triple> {
        self.phi
            .iter()
            .filter(move |t| matches!(&t.subject, Subject::Iri(iri) if iri == concept))
    }

    /// Adds a triple to `φ` if absent (query expansion, Algorithm 3 l. 12).
    pub(crate) fn extend_phi(&mut self, triple: Triple) -> bool {
        if self.phi.contains(&triple) {
            return false;
        }
        self.phi.push(triple);
        true
    }
}

impl std::fmt::Display for Omq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "π = {{")?;
        for (i, p) in self.pi.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(p.local_name())?;
        }
        writeln!(f, "}}")?;
        writeln!(f, "φ =")?;
        for t in &self.phi {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefixes() -> PrefixMap {
        let mut p = PrefixMap::with_common_vocabularies();
        p.insert("sup", "http://e/sup/");
        p.insert("G", crate::vocab::g::NS);
        p
    }

    const CODE8: &str = "
        SELECT ?x ?y
        FROM <http://www.essi.upc.edu/~snadal/BDIOntology/graphs/G>
        WHERE {
            VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
            sup:SoftwareApplication G:hasFeature sup:applicationId .
            sup:SoftwareApplication sup:hasMonitor sup:Monitor .
            sup:Monitor sup:generatesQoS sup:InfoMonitor .
            sup:InfoMonitor G:hasFeature sup:lagRatio
        }";

    #[test]
    fn parses_code8_into_pi_and_phi() {
        let omq = Omq::parse(CODE8, &prefixes()).unwrap();
        assert_eq!(omq.pi.len(), 2);
        assert_eq!(omq.pi[0].local_name(), "applicationId");
        assert_eq!(omq.phi.len(), 4);
        assert_eq!(omq.vertices().len(), 5);
    }

    #[test]
    fn topological_sort_of_code8_is_a_dag() {
        let omq = Omq::parse(CODE8, &prefixes()).unwrap();
        let order = omq.topological_sort().unwrap();
        assert_eq!(order.len(), 5);
        // SoftwareApplication precedes Monitor precedes InfoMonitor.
        let pos = |name: &str| {
            order
                .iter()
                .position(|t| matches!(t, Term::Iri(i) if i.local_name() == name))
                .unwrap()
        };
        assert!(pos("SoftwareApplication") < pos("Monitor"));
        assert!(pos("Monitor") < pos("InfoMonitor"));
    }

    #[test]
    fn cycles_have_no_topological_sort() {
        let a = Triple::new(
            Iri::new("http://e/A"),
            Iri::new("http://e/p"),
            Iri::new("http://e/B"),
        );
        let b = Triple::new(
            Iri::new("http://e/B"),
            Iri::new("http://e/q"),
            Iri::new("http://e/A"),
        );
        let omq = Omq::new(vec![], vec![a, b]);
        assert!(omq.topological_sort().is_none());
    }

    #[test]
    fn missing_values_is_rejected() {
        let q = "SELECT ?x WHERE { sup:A G:hasFeature sup:f . }";
        assert!(matches!(
            Omq::parse(q, &prefixes()),
            Err(OmqError::MissingValues)
        ));
    }

    /// The `Subject` type cannot hold a literal, so a pattern whose
    /// subject is one is an `Err` at parse time.
    #[test]
    fn a_literal_subject_is_rejected() {
        let q = r#"SELECT ?x WHERE {
            VALUES (?x) { (sup:f) }
            "A" G:hasFeature sup:f .
        }"#;
        assert!(matches!(
            Omq::parse(q, &prefixes()),
            Err(OmqError::NonSubject(_))
        ));
    }

    #[test]
    fn variables_in_patterns_are_rejected() {
        let q = "SELECT ?x WHERE {
            VALUES (?x) { (sup:f) }
            ?c G:hasFeature sup:f .
        }";
        assert!(matches!(
            Omq::parse(q, &prefixes()),
            Err(OmqError::VariableInPattern(_))
        ));
    }

    #[test]
    fn disconnected_patterns_are_rejected() {
        let q = "SELECT ?x ?y WHERE {
            VALUES (?x ?y) { (sup:f sup:g) }
            sup:A G:hasFeature sup:f .
            sup:B G:hasFeature sup:g .
        }";
        assert!(matches!(
            Omq::parse(q, &prefixes()),
            Err(OmqError::Disconnected(2))
        ));
    }

    #[test]
    fn projection_must_occur_in_pattern() {
        let q = "SELECT ?x WHERE {
            VALUES (?x) { (sup:elsewhere) }
            sup:A G:hasFeature sup:f .
        }";
        assert!(matches!(
            Omq::parse(q, &prefixes()),
            Err(OmqError::ProjectionNotInPattern(_))
        ));
    }

    #[test]
    fn extend_phi_is_idempotent() {
        let mut omq = Omq::parse(CODE8, &prefixes()).unwrap();
        let t = omq.phi[0].clone();
        assert!(!omq.extend_phi(t));
        assert_eq!(omq.phi.len(), 4);
        let fresh = Triple::new(
            Iri::new("http://e/sup/Monitor"),
            Iri::new(crate::vocab::g::HAS_FEATURE.as_str()),
            Iri::new("http://e/sup/monitorId"),
        );
        assert!(omq.extend_phi(fresh));
        assert_eq!(omq.phi.len(), 5);
    }

    #[test]
    fn display_renders_pi_and_phi() {
        let omq = Omq::parse(CODE8, &prefixes()).unwrap();
        let text = omq.to_string();
        assert!(text.contains("applicationId"));
        assert!(text.contains("φ ="));
    }
}
