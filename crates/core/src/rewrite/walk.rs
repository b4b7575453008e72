//! Walks — the conjunctive queries over wrappers (§2.2).
//!
//! A walk `W = Π̃(w1) ⋈̃ … ⋈̃ Π̃(wk)` is represented as per-wrapper
//! projection sets plus a list of ID-join conditions. Walks are built up by
//! the intra-/inter-concept phases and finally compiled to a
//! [`RelExpr`] for display and evaluation.

use crate::ontology::BdiOntology;
use crate::vocab;
use bdi_rdf::model::{GraphName, Iri, Quad, Triple};
use bdi_rdf::store::GraphPattern;
use bdi_relational::RelExpr;
use std::collections::{BTreeMap, BTreeSet};

/// One ⋈̃ condition between two wrappers, on source-attribute URIs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinCondition {
    pub left_wrapper: Iri,
    pub left_attribute: Iri,
    pub right_wrapper: Iri,
    pub right_attribute: Iri,
}

/// One growth step of a walk's left-deep join tree:
/// `tree ⋈̃[on = attribute] Π̃(wrapper)` — `on` is the attribute on the
/// tree's side, `wrapper` the leaf being attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Attach<'w> {
    pub on: &'w Iri,
    pub wrapper: &'w Iri,
    pub attribute: &'w Iri,
}

/// How a ⋈̃ condition relates to the wrappers a growing join tree already
/// connects ([`JoinCondition::orient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Orientation<'w> {
    /// Both sides are in the tree: the condition is dropped.
    Connected,
    /// Exactly one side is in the tree: the other attaches through it.
    Attach(Attach<'w>),
    /// Neither side is in the tree (yet).
    Disconnected,
}

impl JoinCondition {
    /// Orients the condition against the wrappers a join tree connects so
    /// far: which side is inside, which leaf it would attach.
    pub(crate) fn orient(&self, connected: &BTreeSet<&Iri>) -> Orientation<'_> {
        let left_in = connected.contains(&self.left_wrapper);
        let right_in = connected.contains(&self.right_wrapper);
        match (left_in, right_in) {
            (true, true) => Orientation::Connected,
            (true, false) => Orientation::Attach(Attach {
                on: &self.left_attribute,
                wrapper: &self.right_wrapper,
                attribute: &self.right_attribute,
            }),
            (false, true) => Orientation::Attach(Attach {
                on: &self.right_attribute,
                wrapper: &self.left_wrapper,
                attribute: &self.left_attribute,
            }),
            (false, false) => Orientation::Disconnected,
        }
    }
}

/// The §2.3 checks over a set of walks. What they ask of each wrapper —
/// which triples of `φ` its LAV graph holds, and the sources it belongs
/// to — is looked up once, not once per walk.
pub struct WalkChecks {
    per_wrapper: BTreeMap<Iri, (Vec<bool>, Vec<Iri>)>,
    phi_len: usize,
}

impl WalkChecks {
    /// The checks against `φ` for `walks`, the only walks they accept.
    pub fn new<'a>(
        ontology: &BdiOntology,
        phi: &[Triple],
        walks: impl IntoIterator<Item = &'a Walk>,
    ) -> Self {
        let store = ontology.store();
        let source_graph = GraphPattern::Named((*vocab::graphs::SOURCE).clone());
        let mut per_wrapper = BTreeMap::new();
        for wrapper in walks.into_iter().flat_map(|walk| walk.projections.keys()) {
            if per_wrapper.contains_key(wrapper) {
                continue;
            }
            let graph = GraphName::Named(wrapper.clone());
            let holds = phi.iter().map(|t| {
                store.contains(&Quad {
                    subject: t.subject.clone(),
                    predicate: t.predicate.clone(),
                    object: t.object.clone(),
                    graph: graph.clone(),
                })
            });
            let owners = store.iri_subjects(&vocab::s::HAS_WRAPPER, wrapper, &source_graph);
            per_wrapper.insert(wrapper.clone(), (holds.collect(), owners));
        }
        WalkChecks {
            per_wrapper,
            phi_len: phi.len(),
        }
    }

    /// §2.3 **coverage**: the union of the walk's wrappers' LAV graphs
    /// subsumes the query pattern `φ`.
    pub fn covers(&self, walk: &Walk) -> bool {
        self.covers_without(&self.rows(walk), None)
    }

    /// §2.3 **minimality**: the walk covers `φ` and no proper sub-walk does.
    pub fn is_minimal(&self, walk: &Walk) -> bool {
        let rows = self.rows(walk);
        self.covers_without(&rows, None)
            && (0..rows.len()).all(|k| !self.covers_without(&rows, Some(k)))
    }

    /// Violation of the same-source constraint: walks must never join two
    /// schema versions of the same data source (§2.2).
    pub fn violates_same_source(&self, walk: &Walk) -> bool {
        let mut sources = BTreeSet::new();
        let mut owners = (walk.projections.keys()).flat_map(|w| &self.per_wrapper[w].1);
        owners.any(|source| !sources.insert(source))
    }

    /// Per wrapper of `walk`, which triples of `φ` it holds.
    fn rows(&self, walk: &Walk) -> Vec<&[bool]> {
        (walk.projections.keys())
            .map(|w| self.per_wrapper[w].0.as_slice())
            .collect()
    }

    /// Whether `rows`, less the one at `skip`, cover all of `φ`.
    fn covers_without(&self, rows: &[&[bool]], skip: Option<usize>) -> bool {
        let kept = |k: &usize| Some(*k) != skip;
        (0..self.phi_len).all(|i| (0..rows.len()).filter(kept).any(|k| rows[k][i]))
    }
}

/// A (partial or complete) walk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Walk {
    /// Wrapper URI → projected attribute URIs (Π̃ keeps IDs implicitly; the
    /// set here is what the phases explicitly projected).
    projections: BTreeMap<Iri, BTreeSet<Iri>>,
    /// The ⋈̃ conditions, in discovery order, without repeats (a walk has
    /// a few, so a scan finds repeats faster than an index would).
    joins: Vec<JoinCondition>,
}

impl Walk {
    /// A single-wrapper walk projecting the given attributes.
    pub(crate) fn single(wrapper: Iri, attributes: impl IntoIterator<Item = Iri>) -> Self {
        let mut w = Walk::default();
        w.projections
            .insert(wrapper, attributes.into_iter().collect());
        w
    }

    /// The wrapper URIs used — the paper's `wrappers(W)`.
    pub fn wrappers(&self) -> BTreeSet<&Iri> {
        self.projections.keys().collect()
    }

    /// Owned wrapper set, used as the walk-equivalence key (§2.2: "two walks
    /// are equivalent if they join the same wrappers").
    pub fn wrapper_key(&self) -> BTreeSet<Iri> {
        self.projections.keys().cloned().collect()
    }

    /// The attributes projected from one wrapper.
    pub(crate) fn projections_of(&self, wrapper: &Iri) -> Option<&BTreeSet<Iri>> {
        self.projections.get(wrapper)
    }

    /// All `(wrapper, attribute)` pairs.
    pub(crate) fn all_projections(&self) -> impl Iterator<Item = (&Iri, &Iri)> {
        self.projections
            .iter()
            .flat_map(|(w, attrs)| attrs.iter().map(move |a| (w, a)))
    }

    pub fn joins(&self) -> &[JoinCondition] {
        &self.joins
    }

    /// Adds (or extends) a wrapper's projection set — the phase-2
    /// `MergeProjections` collapses here because projections are sets.
    pub(crate) fn project(&mut self, wrapper: Iri, attribute: Iri) {
        self.projections
            .entry(wrapper)
            .or_default()
            .insert(attribute);
    }

    /// Merges another walk's projections and joins into this one
    /// (`MergeWalks`, Algorithm 5 step 8).
    pub(crate) fn merge(&mut self, other: &Walk) {
        for (w, attrs) in &other.projections {
            let entry = self.projections.entry(w.clone()).or_default();
            entry.extend(attrs.iter().cloned());
        }
        for j in &other.joins {
            if !self.joins.contains(j) {
                self.joins.push(j.clone());
            }
        }
    }

    /// Records a ⋈̃ condition (Algorithm 5 line 17), ensuring both sides'
    /// join attributes are projected.
    pub(crate) fn add_join(&mut self, condition: JoinCondition) {
        self.project(
            condition.left_wrapper.clone(),
            condition.left_attribute.clone(),
        );
        self.project(
            condition.right_wrapper.clone(),
            condition.right_attribute.clone(),
        );
        if !self.joins.contains(&condition) {
            self.joins.push(condition);
        }
    }

    /// True when this walk shares at least one wrapper with `other`
    /// (Algorithm 5 line 8's disjointness test, negated).
    pub(crate) fn shares_wrapper_with(&self, other: &Walk) -> bool {
        other
            .projections
            .keys()
            .any(|w| self.projections.contains_key(w))
    }

    /// Compiles the walk to a relational algebra expression, renaming only
    /// the projected attributes. Sufficient when unprojected ID names cannot
    /// collide; [`Walk::to_rel_expr_full`] renames every attribute using the
    /// Source graph and is what execution uses.
    pub(crate) fn to_rel_expr(&self) -> RelExpr {
        self.build_rel_expr(|_wrapper, attrs| {
            attrs
                .iter()
                .filter_map(|a| {
                    vocab::attribute_parts_of(a)
                        .map(|(_, local)| (local.to_owned(), prefixed_attr_name(a)))
                })
                .collect()
        })
    }

    /// Compiles the walk, renaming **all** attributes of each wrapper to
    /// their source-prefixed forms (looked up in `S`), so join outputs can
    /// never collide on unprojected ID names.
    pub(crate) fn to_rel_expr_full(&self, ontology: &BdiOntology) -> RelExpr {
        self.build_rel_expr(|wrapper, _attrs| {
            ontology
                .attributes_of_wrapper(wrapper)
                .iter()
                .filter_map(|a| {
                    vocab::attribute_parts_of(a)
                        .map(|(_, local)| (local.to_owned(), prefixed_attr_name(a)))
                })
                .collect()
        })
    }

    fn build_rel_expr(
        &self,
        rename_for: impl Fn(&Iri, &BTreeSet<Iri>) -> Vec<(String, String)>,
    ) -> RelExpr {
        let leaf = |wrapper: &Iri| {
            let Some(attrs) = self.projections.get(wrapper) else {
                return RelExpr::source(wrapper.as_str());
            };
            let wrapper_name = vocab::wrapper_name_of(wrapper).unwrap_or_else(|| wrapper.as_str());
            RelExpr::source(wrapper_name)
                .rename(rename_for(wrapper, attrs))
                .project(attrs.iter().map(prefixed_attr_name).collect())
        };
        let (root, attaches) = self.join_tree(&self.joins);
        let mut expr = root.map_or_else(|| RelExpr::source("∅"), leaf);
        for step in attaches {
            expr = expr.join(
                leaf(step.wrapper),
                prefixed_attr_name(step.on),
                prefixed_attr_name(step.attribute),
            );
        }
        expr
    }

    /// The left-deep join tree the walk grows from `conditions` — its own
    /// [`Walk::joins`], or a reordering of them — as a root wrapper and the
    /// leaves attached to it in order. The first condition's left wrapper is
    /// the root (a join-less walk's only wrapper; `None` for an empty walk);
    /// each later condition attaches as soon as one of its sides is
    /// connected, a condition between two connected wrappers is dropped, and
    /// passes repeat until one makes no progress (a disconnected join graph
    /// stops there rather than loop forever — such walks fail the coverage
    /// check upstream). Both the §2.2 [`RelExpr`] and the engine's physical
    /// plan are folds over this one sequence.
    pub(crate) fn join_tree<'w>(
        &'w self,
        conditions: impl IntoIterator<Item = &'w JoinCondition>,
    ) -> (Option<&'w Iri>, Vec<Attach<'w>>) {
        let mut pending: Vec<&JoinCondition> = conditions.into_iter().collect();
        let root = match pending.first() {
            Some(first) => Some(&first.left_wrapper),
            None => self.projections.keys().next(),
        };
        let mut connected: BTreeSet<&Iri> = root.into_iter().collect();
        let mut attaches = Vec::with_capacity(pending.len());
        loop {
            let before = pending.len();
            pending.retain(|condition| match condition.orient(&connected) {
                Orientation::Connected => false,
                Orientation::Attach(step) => {
                    connected.insert(step.wrapper);
                    attaches.push(step);
                    false
                }
                Orientation::Disconnected => true,
            });
            if pending.is_empty() || pending.len() == before {
                return (root, attaches);
            }
        }
    }
}

/// The display/name form of an attribute URI: `D1/VoDmonitorId`.
pub(crate) fn prefixed_attr_name(attr: &Iri) -> String {
    match vocab::attribute_parts_of(attr) {
        Some((source, local)) => format!("{source}/{local}"),
        None => attr.as_str().to_owned(),
    }
}

impl std::fmt::Display for Walk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_rel_expr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wuri(name: &str) -> Iri {
        vocab::wrapper_uri(name)
    }

    fn auri(src: &str, a: &str) -> Iri {
        vocab::attribute_uri(src, a)
    }

    #[test]
    fn single_wrapper_walk_compiles_to_projection() {
        let walk = Walk::single(
            wuri("w1"),
            vec![auri("D1", "lagRatio"), auri("D1", "VoDmonitorId")],
        );
        let expr = walk.to_rel_expr();
        let text = expr.to_string();
        assert!(text.contains("Π̃[D1/VoDmonitorId, D1/lagRatio]"));
        assert!(text.contains("ρ["));
        assert_eq!(expr.sources().len(), 1);
    }

    #[test]
    fn merge_unions_projections_and_joins() {
        let mut a = Walk::single(wuri("w1"), vec![auri("D1", "x")]);
        let b = Walk::single(wuri("w1"), vec![auri("D1", "y")]);
        a.merge(&b);
        assert_eq!(a.projections_of(&wuri("w1")).unwrap().len(), 2);
        assert_eq!(a.wrappers().len(), 1);
    }

    #[test]
    fn add_join_projects_both_attributes() {
        let mut walk = Walk::single(wuri("w1"), vec![auri("D1", "lagRatio")]);
        walk.merge(&Walk::single(wuri("w3"), vec![auri("D3", "TargetApp")]));
        walk.add_join(JoinCondition {
            left_wrapper: wuri("w3"),
            left_attribute: auri("D3", "MonitorId"),
            right_wrapper: wuri("w1"),
            right_attribute: auri("D1", "VoDmonitorId"),
        });
        assert!(walk
            .projections_of(&wuri("w3"))
            .unwrap()
            .contains(&auri("D3", "MonitorId")));
        assert!(walk
            .projections_of(&wuri("w1"))
            .unwrap()
            .contains(&auri("D1", "VoDmonitorId")));
        let text = walk.to_rel_expr().to_string();
        assert!(text.contains("⋈̃[D3/MonitorId=D1/VoDmonitorId]"));
    }

    #[test]
    fn shares_wrapper_detection() {
        let a = Walk::single(wuri("w1"), vec![]);
        let b = Walk::single(wuri("w1"), vec![auri("D1", "x")]);
        let c = Walk::single(wuri("w2"), vec![]);
        assert!(a.shares_wrapper_with(&b));
        assert!(!a.shares_wrapper_with(&c));
    }

    #[test]
    fn wrapper_key_is_the_equivalence_class() {
        let mut a = Walk::single(wuri("w1"), vec![auri("D1", "x")]);
        a.merge(&Walk::single(wuri("w3"), vec![]));
        let mut b = Walk::single(wuri("w3"), vec![auri("D3", "y")]);
        b.merge(&Walk::single(wuri("w1"), vec![]));
        assert_eq!(a.wrapper_key(), b.wrapper_key());
    }

    #[test]
    fn multi_join_left_deep_tree() {
        let mut walk = Walk::default();
        walk.add_join(JoinCondition {
            left_wrapper: wuri("a"),
            left_attribute: auri("DA", "id"),
            right_wrapper: wuri("b"),
            right_attribute: auri("DB", "id"),
        });
        walk.add_join(JoinCondition {
            left_wrapper: wuri("b"),
            left_attribute: auri("DB", "id2"),
            right_wrapper: wuri("c"),
            right_attribute: auri("DC", "id"),
        });
        let expr = walk.to_rel_expr();
        assert_eq!(expr.sources().len(), 3);
    }
}
