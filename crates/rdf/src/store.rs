//! The in-memory named-graph quad store.
//!
//! This is the triplestore substrate the paper assumes (§2: "a triplestore
//! with a SPARQL endpoint supporting the RDFS entailment regime"). Quads are
//! interned to `u32` ids and kept in six `BTreeSet` permutation indexes so
//! that any triple/quad pattern with any combination of bound positions is
//! answered by a single range scan:
//!
//! | bound prefix        | index  |
//! |---------------------|--------|
//! | g, g+s, g+s+p, all  | `GSPO` |
//! | g+p, g+p+o          | `GPOS` |
//! | g+o, g+o+s          | `GOSP` |
//! | s, s+p, s+p+o       | `SPOG` |
//! | p, p+o              | `POSG` |
//! | o, o+s              | `OSPG` |
//!
//! The store is internally synchronized with a single `parking_lot::RwLock`
//! (interner and indexes are always accessed together, so one lock beats
//! many). All public methods take `&self`.
//!
//! # Id-space access
//!
//! [`QuadStore::reader`] pins the read lock once and exposes the encoded
//! view: terms resolve to [`TermId`]s, scans yield `[u32; 4]` keys, and
//! nothing is decoded until the caller asks. The SPARQL evaluator runs whole
//! queries against one reader — encode once, match in id space, decode only
//! the projected bindings. `match_quads` and the `objects`/`subjects`
//! helpers are thin decoded views over the same primitive.

use crate::interner::{Interner, TermId};
use crate::model::{GraphName, Iri, Quad, Subject, Term, Triple};
use parking_lot::RwLock;
use std::collections::BTreeSet;

/// Encoded graph component: `0` is the default graph, otherwise
/// `TermId + 1` of the graph IRI.
pub(crate) type GraphCode = u32;

const DEFAULT_GRAPH: GraphCode = 0;

/// One quad in id space, in a particular component order.
type Key = [u32; 4];

/// A pattern over the graph position of a quad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphPattern {
    /// Match quads in any graph (default and named).
    Any,
    /// Match only the default graph.
    Default,
    /// Match only the given named graph.
    Named(Iri),
    /// Match any *named* graph (the `GRAPH ?g { ... }` SPARQL construct).
    AnyNamed,
}

impl From<GraphName> for GraphPattern {
    fn from(value: GraphName) -> Self {
        match value {
            GraphName::Default => GraphPattern::Default,
            GraphName::Named(iri) => GraphPattern::Named(iri),
        }
    }
}

impl From<&GraphName> for GraphPattern {
    fn from(value: &GraphName) -> Self {
        GraphPattern::from(value.clone())
    }
}

/// The graph position of an id-space pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdGraph {
    /// Any graph, default included.
    #[default]
    Any,
    /// Any *named* graph.
    AnyNamed,
    /// Exactly this graph code (`0` = default graph).
    Code(GraphCode),
}

/// A quad pattern in id space; `None` positions are wildcards. Bound
/// positions hold raw interner ids — a term that was never interned has no
/// id and therefore cannot be expressed (it matches nothing anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdPattern {
    pub s: Option<u32>,
    pub p: Option<u32>,
    pub o: Option<u32>,
    pub g: IdGraph,
}

#[derive(Debug, Default)]
struct Inner {
    interner: Interner,
    gspo: BTreeSet<Key>,
    gpos: BTreeSet<Key>,
    gosp: BTreeSet<Key>,
    spog: BTreeSet<Key>,
    posg: BTreeSet<Key>,
    ospg: BTreeSet<Key>,
}

/// An in-memory, indexed, thread-safe RDF quad store.
#[derive(Debug, Default)]
pub struct QuadStore {
    inner: RwLock<Inner>,
    /// Monotonic count of successful mutations (inserts, removes, graph
    /// clears) — a change stamp for caches layered above the store, which
    /// quad *count* alone cannot provide (a remove+insert pair is
    /// count-neutral but invalidates derived state).
    mutations: std::sync::atomic::AtomicU64,
}

impl Inner {
    fn graph_code(&mut self, graph: &GraphName) -> GraphCode {
        match graph {
            GraphName::Default => DEFAULT_GRAPH,
            GraphName::Named(iri) => self.interner.intern_iri(iri).raw() + 1,
        }
    }

    fn graph_code_existing(&self, graph: &GraphName) -> Option<GraphCode> {
        match graph {
            GraphName::Default => Some(DEFAULT_GRAPH),
            GraphName::Named(iri) => self.interner.get_iri(iri).map(|id| id.raw() + 1),
        }
    }

    fn decode_graph(&self, code: GraphCode) -> GraphName {
        if code == DEFAULT_GRAPH {
            GraphName::Default
        } else {
            match self.interner.resolve(TermId::from_raw(code - 1)) {
                Term::Iri(iri) => GraphName::Named(iri.clone()),
                other => unreachable!("graph code resolved to non-IRI term {other}"),
            }
        }
    }

    fn encode_quad(&mut self, quad: &Quad) -> Key {
        let g = self.graph_code(&quad.graph);
        let s = match &quad.subject {
            Subject::Iri(iri) => self.interner.intern_iri(iri),
            Subject::Blank(b) => self.interner.intern(&Term::Blank(b.clone())),
        }
        .raw();
        let p = self.interner.intern_iri(&quad.predicate).raw();
        let o = self.interner.intern(&quad.object).raw();
        [g, s, p, o]
    }

    fn encode_quad_existing(&self, quad: &Quad) -> Option<Key> {
        Some([
            self.graph_code_existing(&quad.graph)?,
            match &quad.subject {
                Subject::Iri(iri) => self.interner.get_iri(iri),
                Subject::Blank(b) => self.interner.get(&Term::Blank(b.clone())),
            }?
            .raw(),
            self.interner.get_iri(&quad.predicate)?.raw(),
            self.interner.get(&quad.object)?.raw(),
        ])
    }

    fn insert_ids(&mut self, g: u32, s: u32, p: u32, o: u32) -> bool {
        let fresh = self.gspo.insert([g, s, p, o]);
        if fresh {
            self.gpos.insert([g, p, o, s]);
            self.gosp.insert([g, o, s, p]);
            self.spog.insert([s, p, o, g]);
            self.posg.insert([p, o, s, g]);
            self.ospg.insert([o, s, p, g]);
        }
        fresh
    }

    fn remove_ids(&mut self, g: u32, s: u32, p: u32, o: u32) -> bool {
        let was = self.gspo.remove(&[g, s, p, o]);
        if was {
            self.gpos.remove(&[g, p, o, s]);
            self.gosp.remove(&[g, o, s, p]);
            self.spog.remove(&[s, p, o, g]);
            self.posg.remove(&[p, o, s, g]);
            self.ospg.remove(&[o, s, p, g]);
        }
        was
    }

    fn decode(&self, g: u32, s: u32, p: u32, o: u32) -> Quad {
        let subject = Subject::try_from(self.interner.resolve(TermId::from_raw(s)).clone())
            .unwrap_or_else(|l| unreachable!("subject resolved to the literal {l}"));
        let predicate = match self.interner.resolve(TermId::from_raw(p)) {
            Term::Iri(iri) => iri.clone(),
            other => unreachable!("predicate resolved to non-IRI term {other}"),
        };
        let object = self.interner.resolve(TermId::from_raw(o)).clone();
        Quad {
            subject,
            predicate,
            object,
            graph: self.decode_graph(g),
        }
    }

    /// The single match primitive: invokes `f` with each matching key in
    /// `[g, s, p, o]` order, picking the index whose prefix covers the bound
    /// positions so every shape is one contiguous range scan.
    fn for_each_match(&self, pattern: IdPattern, mut f: impl FnMut(Key)) {
        let IdPattern { s, p, o, g } = pattern;
        let (g, named_only) = match g {
            IdGraph::Any => (None, false),
            IdGraph::AnyNamed => (None, true),
            IdGraph::Code(code) => (Some(code), false),
        };
        let mut push = |g: u32, s: u32, p: u32, o: u32| {
            if named_only && g == DEFAULT_GRAPH {
                return;
            }
            f([g, s, p, o]);
        };
        match (g, s, p, o) {
            (Some(g), Some(s), Some(p), Some(o)) => {
                if self.gspo.contains(&[g, s, p, o]) {
                    push(g, s, p, o);
                }
            }
            (Some(g), Some(s), Some(p), None) => {
                scan_prefix(&self.gspo, &[g, s, p], |[g, s, p, o]| push(g, s, p, o))
            }
            (Some(g), Some(s), None, None) => {
                scan_prefix(&self.gspo, &[g, s], |[g, s, p, o]| push(g, s, p, o))
            }
            (Some(g), Some(s), None, Some(o)) => {
                scan_prefix(&self.gosp, &[g, o, s], |[g, o, s, p]| push(g, s, p, o))
            }
            (Some(g), None, Some(p), Some(o)) => {
                scan_prefix(&self.gpos, &[g, p, o], |[g, p, o, s]| push(g, s, p, o))
            }
            (Some(g), None, Some(p), None) => {
                scan_prefix(&self.gpos, &[g, p], |[g, p, o, s]| push(g, s, p, o))
            }
            (Some(g), None, None, Some(o)) => {
                scan_prefix(&self.gosp, &[g, o], |[g, o, s, p]| push(g, s, p, o))
            }
            (Some(g), None, None, None) => {
                scan_prefix(&self.gspo, &[g], |[g, s, p, o]| push(g, s, p, o))
            }
            (None, Some(s), Some(p), Some(o)) => {
                scan_prefix(&self.spog, &[s, p, o], |[s, p, o, g]| push(g, s, p, o))
            }
            (None, Some(s), Some(p), None) => {
                scan_prefix(&self.spog, &[s, p], |[s, p, o, g]| push(g, s, p, o))
            }
            (None, Some(s), None, None) => {
                scan_prefix(&self.spog, &[s], |[s, p, o, g]| push(g, s, p, o))
            }
            (None, Some(s), None, Some(o)) => {
                scan_prefix(&self.ospg, &[o, s], |[o, s, p, g]| push(g, s, p, o))
            }
            (None, None, Some(p), Some(o)) => {
                scan_prefix(&self.posg, &[p, o], |[p, o, s, g]| push(g, s, p, o))
            }
            (None, None, Some(p), None) => {
                scan_prefix(&self.posg, &[p], |[p, o, s, g]| push(g, s, p, o))
            }
            (None, None, None, Some(o)) => {
                scan_prefix(&self.ospg, &[o], |[o, s, p, g]| push(g, s, p, o))
            }
            (None, None, None, None) => {
                scan_prefix(&self.spog, &[], |[s, p, o, g]| push(g, s, p, o))
            }
        }
    }
}

/// Scans `index` for keys starting with the bound `prefix`, invoking `f` with
/// each full key.
fn scan_prefix(index: &BTreeSet<Key>, prefix: &[u32], mut f: impl FnMut(Key)) {
    let mut lo = [0u32; 4];
    let mut hi = [u32::MAX; 4];
    lo[..prefix.len()].copy_from_slice(prefix);
    hi[..prefix.len()].copy_from_slice(prefix);
    for &key in index.range(lo..=hi) {
        f(key);
    }
}

/// A pinned read view of the store: one lock acquisition, id-space access.
///
/// Holding a reader blocks writers — scope it to one query.
pub struct StoreReader<'a> {
    inner: parking_lot::RwLockReadGuard<'a, Inner>,
}

impl StoreReader<'_> {
    /// The id of an interned term, if it occurs in the store's vocabulary.
    pub(crate) fn term_id(&self, term: &Term) -> Option<TermId> {
        self.inner.interner.get(term)
    }

    /// The id of `Term::Iri(iri)` without building the wrapper.
    pub fn iri_id(&self, iri: &Iri) -> Option<TermId> {
        self.inner.interner.get_iri(iri)
    }

    /// Decodes a term id.
    pub(crate) fn resolve(&self, id: TermId) -> &Term {
        self.inner.interner.resolve(id)
    }

    /// Number of distinct interned terms; also the exclusive upper bound of
    /// the store's id space (ids are dense from 0).
    pub(crate) fn term_count(&self) -> usize {
        self.inner.interner.len()
    }

    /// Runs `f` over every key matching the pattern, in `[g, s, p, o]` order.
    pub(crate) fn for_each_match(&self, pattern: IdPattern, f: impl FnMut([u32; 4])) {
        self.inner.for_each_match(pattern, f)
    }

    /// Number of keys matching the pattern (no decode).
    pub fn match_count(&self, pattern: IdPattern) -> usize {
        let mut n = 0;
        self.inner.for_each_match(pattern, |_| n += 1);
        n
    }
}

impl QuadStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the read lock and returns the id-space view.
    pub fn reader(&self) -> StoreReader<'_> {
        StoreReader {
            inner: self.inner.read(),
        }
    }

    /// Inserts a quad; returns `true` if it was not already present.
    pub fn insert(&self, quad: &Quad) -> bool {
        let mut inner = self.inner.write();
        let [g, s, p, o] = inner.encode_quad(quad);
        let added = inner.insert_ids(g, s, p, o);
        if added {
            self.bump_mutations(1);
        }
        added
    }

    /// Monotonic mutation stamp: advances on every successful insert,
    /// remove or graph clear. Equal stamps ⇒ identical contents (the
    /// converse need not hold), so caches over the store can use it as a
    /// cheap validity check.
    pub fn mutation_count(&self) -> u64 {
        self.mutations.load(std::sync::atomic::Ordering::Acquire)
    }

    fn bump_mutations(&self, by: u64) {
        // Called while holding the write lock, so Release/Acquire pairs
        // with readers sampling the stamp.
        self.mutations
            .fetch_add(by, std::sync::atomic::Ordering::Release);
    }

    /// Overwrites the mutation stamp — recovery only. A freshly booted
    /// store restarts counting at 0, so a cache stamp taken before a
    /// restart could collide with a different post-restart state; restoring
    /// the persisted count before replay keeps the stamp's "equal ⇒
    /// identical contents" guarantee across process lifetimes.
    pub fn restore_mutation_count(&self, count: u64) {
        self.mutations
            .store(count, std::sync::atomic::Ordering::Release);
    }

    /// Inserts a triple into the given graph.
    pub fn insert_in(
        &self,
        graph: &GraphName,
        subject: impl Into<Subject>,
        predicate: impl Into<Iri>,
        object: impl Into<Term>,
    ) -> bool {
        self.insert(&Quad::new(subject, predicate, object, graph.clone()))
    }

    /// Inserts a triple into the default graph.
    pub fn insert_triple(&self, triple: &Triple) -> bool {
        self.insert(&Quad {
            subject: triple.subject.clone(),
            predicate: triple.predicate.clone(),
            object: triple.object.clone(),
            graph: GraphName::Default,
        })
    }

    /// Inserts every quad of an iterator under **one** write-lock
    /// acquisition, returning how many were new.
    ///
    /// When the store is empty (bulk load), keys are encoded first and each
    /// of the six permutation indexes is built from a sorted key vector,
    /// which is substantially faster than six B-tree inserts per quad.
    pub fn extend<I: IntoIterator<Item = Quad>>(&self, quads: I) -> usize {
        let mut inner = self.inner.write();
        if inner.gspo.is_empty() {
            // Bulk path: encode everything, then build each index from a
            // sorted run (BTreeSet bulk-builds efficiently from ordered
            // input).
            let mut keys: Vec<Key> = Vec::new();
            for quad in quads {
                keys.push(inner.encode_quad(&quad));
            }
            keys.sort_unstable();
            keys.dedup();
            let added = keys.len();
            let inner = &mut *inner;
            inner.gspo = keys.iter().copied().collect();
            type Rebuild<'a> = (&'a mut BTreeSet<Key>, fn(Key) -> Key);
            let rebuilds: [Rebuild<'_>; 5] = [
                (&mut inner.gpos, |[g, s, p, o]| [g, p, o, s]),
                (&mut inner.gosp, |[g, s, p, o]| [g, o, s, p]),
                (&mut inner.spog, |[g, s, p, o]| [s, p, o, g]),
                (&mut inner.posg, |[g, s, p, o]| [p, o, s, g]),
                (&mut inner.ospg, |[g, s, p, o]| [o, s, p, g]),
            ];
            for (dest, perm) in rebuilds {
                let mut permuted: Vec<Key> = keys.iter().map(|&k| perm(k)).collect();
                permuted.sort_unstable();
                *dest = permuted.into_iter().collect();
            }
            self.bump_mutations(added as u64);
            added
        } else {
            let mut added = 0;
            for quad in quads {
                let [g, s, p, o] = inner.encode_quad(&quad);
                if inner.insert_ids(g, s, p, o) {
                    added += 1;
                }
            }
            self.bump_mutations(added as u64);
            added
        }
    }

    /// Removes a quad; returns `true` if it was present.
    pub fn remove(&self, quad: &Quad) -> bool {
        let mut inner = self.inner.write();
        let Some([g, s, p, o]) = inner.encode_quad_existing(quad) else {
            return false;
        };
        let removed = inner.remove_ids(g, s, p, o);
        if removed {
            self.bump_mutations(1);
        }
        removed
    }

    /// True when the exact quad is present.
    pub fn contains(&self, quad: &Quad) -> bool {
        let inner = self.inner.read();
        match inner.encode_quad_existing(quad) {
            Some(key) => inner.gspo.contains(&key),
            None => false,
        }
    }

    /// Total number of quads, across all graphs.
    pub fn len(&self) -> usize {
        self.inner.read().gspo.len()
    }

    /// True when the store holds no quads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of quads in one graph.
    pub fn graph_len(&self, graph: &GraphName) -> usize {
        let inner = self.inner.read();
        let Some(g) = inner.graph_code_existing(graph) else {
            return 0;
        };
        let mut n = 0;
        scan_prefix(&inner.gspo, &[g], |_| n += 1);
        n
    }

    /// All named graphs that currently hold at least one quad.
    pub fn named_graphs(&self) -> Vec<Iri> {
        let inner = self.inner.read();
        let mut graphs = Vec::new();
        let mut cursor = 1u32; // skip the default graph
        loop {
            let lo = [cursor, 0, 0, 0];
            match inner.gspo.range(lo..).next() {
                Some(&[g, _, _, _]) if g >= cursor => {
                    if let GraphName::Named(iri) = inner.decode_graph(g) {
                        graphs.push(iri);
                    }
                    if g == u32::MAX {
                        break;
                    }
                    cursor = g + 1;
                }
                _ => break,
            }
        }
        graphs
    }

    /// Encodes a term-space pattern to id space; `None` when a bound term
    /// was never interned (in which case nothing can match).
    fn encode_pattern(
        inner: &Inner,
        subject: Option<&Term>,
        predicate: Option<&Iri>,
        object: Option<&Term>,
        graph: &GraphPattern,
    ) -> Option<IdPattern> {
        let s = match subject {
            Some(t) => Some(inner.interner.get(t)?.raw()),
            None => None,
        };
        let p = match predicate {
            Some(iri) => Some(inner.interner.get_iri(iri)?.raw()),
            None => None,
        };
        let o = match object {
            Some(t) => Some(inner.interner.get(t)?.raw()),
            None => None,
        };
        Self::encode_graph_only(
            inner,
            IdPattern {
                s,
                p,
                o,
                g: IdGraph::Any,
            },
            graph,
        )
    }

    /// Matches quads against a pattern; `None` positions are wildcards.
    ///
    /// This is the decoded view over the store's single query primitive; the
    /// SPARQL evaluator uses the id-space form ([`QuadStore::reader`])
    /// directly and never materializes `Quad`s for intermediate results.
    pub fn match_quads(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Iri>,
        object: Option<&Term>,
        graph: &GraphPattern,
    ) -> Vec<Quad> {
        let inner = self.inner.read();
        let Some(pattern) = Self::encode_pattern(&inner, subject, predicate, object, graph) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        inner.for_each_match(pattern, |[g, s, p, o]| {
            out.push(inner.decode(g, s, p, o));
        });
        out
    }

    /// All quads in the store, graph by graph: the default graph first,
    /// then each named graph's quads in one run (the order
    /// [`crate::trig::write_trig`] writes one block per graph from).
    pub fn quads(&self) -> Vec<Quad> {
        let inner = self.inner.read();
        let mut out = Vec::with_capacity(inner.gspo.len());
        scan_prefix(&inner.gspo, &[], |[g, s, p, o]| {
            out.push(inner.decode(g, s, p, o))
        });
        out
    }

    /// All quads of one graph.
    pub fn graph_quads(&self, graph: &GraphName) -> Vec<Quad> {
        self.match_quads(None, None, None, &GraphPattern::from(graph))
    }

    /// Convenience: the objects of `(subject, predicate, ?o)` in a graph.
    /// Decodes only the object column.
    pub fn objects(&self, subject: &Term, predicate: &Iri, graph: &GraphPattern) -> Vec<Term> {
        let inner = self.inner.read();
        let Some(pattern) =
            Self::encode_pattern(&inner, Some(subject), Some(predicate), None, graph)
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        inner.for_each_match(pattern, |[_, _, _, o]| {
            out.push(inner.interner.resolve(TermId::from_raw(o)).clone());
        });
        out
    }

    /// Convenience: the subjects of `(?s, predicate, object)` in a graph.
    /// Decodes only the subject column.
    pub fn subjects(&self, predicate: &Iri, object: &Term, graph: &GraphPattern) -> Vec<Term> {
        let inner = self.inner.read();
        let Some(pattern) =
            Self::encode_pattern(&inner, None, Some(predicate), Some(object), graph)
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        inner.for_each_match(pattern, |[_, s, _, _]| {
            out.push(inner.interner.resolve(TermId::from_raw(s)).clone());
        });
        out
    }

    /// Like [`QuadStore::objects`] but for IRI subjects and IRI objects:
    /// skips non-IRI hits and never materializes a `Term` wrapper for the
    /// lookup. The fast path for the ontology layer's `G`/`S`/`M` walks.
    pub fn iri_objects(&self, subject: &Iri, predicate: &Iri, graph: &GraphPattern) -> Vec<Iri> {
        let inner = self.inner.read();
        let (Some(s), Some(p)) = (
            inner.interner.get_iri(subject),
            inner.interner.get_iri(predicate),
        ) else {
            return Vec::new();
        };
        let Some(pattern) = Self::encode_graph_only(
            &inner,
            IdPattern {
                s: Some(s.raw()),
                p: Some(p.raw()),
                o: None,
                g: IdGraph::Any,
            },
            graph,
        ) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        inner.for_each_match(pattern, |[_, _, _, o]| {
            if let Term::Iri(iri) = inner.interner.resolve(TermId::from_raw(o)) {
                out.push(iri.clone());
            }
        });
        out
    }

    /// Like [`QuadStore::subjects`] but for IRI objects and IRI subjects —
    /// see [`QuadStore::iri_objects`].
    pub fn iri_subjects(&self, predicate: &Iri, object: &Iri, graph: &GraphPattern) -> Vec<Iri> {
        let inner = self.inner.read();
        let (Some(p), Some(o)) = (
            inner.interner.get_iri(predicate),
            inner.interner.get_iri(object),
        ) else {
            return Vec::new();
        };
        let Some(pattern) = Self::encode_graph_only(
            &inner,
            IdPattern {
                s: None,
                p: Some(p.raw()),
                o: Some(o.raw()),
                g: IdGraph::Any,
            },
            graph,
        ) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        inner.for_each_match(pattern, |[_, s, _, _]| {
            if let Term::Iri(iri) = inner.interner.resolve(TermId::from_raw(s)) {
                out.push(iri.clone());
            }
        });
        out
    }

    /// Fills in the graph position of an otherwise-encoded pattern.
    fn encode_graph_only(
        inner: &Inner,
        mut pattern: IdPattern,
        graph: &GraphPattern,
    ) -> Option<IdPattern> {
        pattern.g = match graph {
            GraphPattern::Any => IdGraph::Any,
            GraphPattern::AnyNamed => IdGraph::AnyNamed,
            GraphPattern::Default => IdGraph::Code(DEFAULT_GRAPH),
            GraphPattern::Named(iri) => {
                IdGraph::Code(inner.interner.get_iri(iri).map(|id| id.raw() + 1)?)
            }
        };
        Some(pattern)
    }

    /// Removes every quad of a named graph, returning how many were removed.
    pub fn clear_graph(&self, graph: &GraphName) -> usize {
        let mut inner = self.inner.write();
        let Some(g) = inner.graph_code_existing(graph) else {
            return 0;
        };
        let mut keys = Vec::new();
        scan_prefix(&inner.gspo, &[g], |key| keys.push(key));
        for &[g, s, p, o] in &keys {
            inner.remove_ids(g, s, p, o);
        }
        self.bump_mutations(keys.len() as u64);
        keys.len()
    }
}

impl Clone for QuadStore {
    /// Deep copy: clones all quads into a fresh store. Used to snapshot the
    /// ontology before speculative updates (e.g. in tests and the evolution
    /// harness).
    fn clone(&self) -> Self {
        let store = QuadStore::new();
        store.extend(self.quads());
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Literal;

    fn iri(s: &str) -> Iri {
        Iri::new(s)
    }

    fn quad(s: &str, p: &str, o: &str) -> Quad {
        Quad::new(iri(s), iri(p), iri(o), GraphName::Default)
    }

    #[test]
    fn insert_is_idempotent() {
        let store = QuadStore::new();
        let q = quad("http://e/s", "http://e/p", "http://e/o");
        assert!(store.insert(&q));
        assert!(!store.insert(&q));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn remove_round_trips() {
        let store = QuadStore::new();
        let q = quad("http://e/s", "http://e/p", "http://e/o");
        store.insert(&q);
        assert!(store.remove(&q));
        assert!(!store.remove(&q));
        assert!(store.is_empty());
    }

    #[test]
    fn contains_distinguishes_graphs() {
        let store = QuadStore::new();
        let named = Quad::new(
            iri("http://e/s"),
            iri("http://e/p"),
            iri("http://e/o"),
            GraphName::named(iri("http://e/g")),
        );
        store.insert(&named);
        assert!(store.contains(&named));
        assert!(!store.contains(&quad("http://e/s", "http://e/p", "http://e/o")));
    }

    #[test]
    fn match_all_sixteen_binding_combinations() {
        let store = QuadStore::new();
        let g = GraphName::named(iri("http://e/g"));
        store.insert(&Quad::new(
            iri("http://e/s1"),
            iri("http://e/p1"),
            iri("http://e/o1"),
            g.clone(),
        ));
        store.insert(&Quad::new(
            iri("http://e/s1"),
            iri("http://e/p2"),
            iri("http://e/o2"),
            g.clone(),
        ));
        store.insert(&Quad::new(
            iri("http://e/s2"),
            iri("http://e/p1"),
            iri("http://e/o1"),
            GraphName::Default,
        ));

        let s1 = Term::iri("http://e/s1");
        let p1 = iri("http://e/p1");
        let o1 = Term::iri("http://e/o1");
        let gp = GraphPattern::Named(iri("http://e/g"));

        // fully bound
        assert_eq!(
            store
                .match_quads(Some(&s1), Some(&p1), Some(&o1), &gp)
                .len(),
            1
        );
        // g+s+p
        assert_eq!(store.match_quads(Some(&s1), Some(&p1), None, &gp).len(), 1);
        // g+s
        assert_eq!(store.match_quads(Some(&s1), None, None, &gp).len(), 2);
        // g+s+o
        assert_eq!(store.match_quads(Some(&s1), None, Some(&o1), &gp).len(), 1);
        // g+p+o
        assert_eq!(store.match_quads(None, Some(&p1), Some(&o1), &gp).len(), 1);
        // g+p
        assert_eq!(store.match_quads(None, Some(&p1), None, &gp).len(), 1);
        // g+o
        assert_eq!(store.match_quads(None, None, Some(&o1), &gp).len(), 1);
        // g only
        assert_eq!(store.match_quads(None, None, None, &gp).len(), 2);
        // s+p+o across graphs
        assert_eq!(
            store
                .match_quads(Some(&s1), Some(&p1), Some(&o1), &GraphPattern::Any)
                .len(),
            1
        );
        // s+p
        assert_eq!(
            store
                .match_quads(Some(&s1), Some(&p1), None, &GraphPattern::Any)
                .len(),
            1
        );
        // s
        assert_eq!(
            store
                .match_quads(Some(&s1), None, None, &GraphPattern::Any)
                .len(),
            2
        );
        // s+o
        assert_eq!(
            store
                .match_quads(Some(&s1), None, Some(&o1), &GraphPattern::Any)
                .len(),
            1
        );
        // p+o
        assert_eq!(
            store
                .match_quads(None, Some(&p1), Some(&o1), &GraphPattern::Any)
                .len(),
            2
        );
        // p
        assert_eq!(
            store
                .match_quads(None, Some(&p1), None, &GraphPattern::Any)
                .len(),
            2
        );
        // o
        assert_eq!(
            store
                .match_quads(None, None, Some(&o1), &GraphPattern::Any)
                .len(),
            2
        );
        // everything
        assert_eq!(
            store
                .match_quads(None, None, None, &GraphPattern::Any)
                .len(),
            3
        );
    }

    #[test]
    fn any_named_excludes_default_graph() {
        let store = QuadStore::new();
        store.insert(&quad("http://e/s", "http://e/p", "http://e/o"));
        store.insert(&Quad::new(
            iri("http://e/s"),
            iri("http://e/p"),
            iri("http://e/o2"),
            GraphName::named(iri("http://e/g")),
        ));
        let named = store.match_quads(None, None, None, &GraphPattern::AnyNamed);
        assert_eq!(named.len(), 1);
        assert_eq!(named[0].graph, GraphName::named(iri("http://e/g")));
    }

    #[test]
    fn unknown_bound_term_matches_nothing() {
        let store = QuadStore::new();
        store.insert(&quad("http://e/s", "http://e/p", "http://e/o"));
        let unknown = Term::iri("http://e/zzz");
        assert!(store
            .match_quads(Some(&unknown), None, None, &GraphPattern::Any)
            .is_empty());
    }

    #[test]
    fn named_graphs_enumerates_each_once() {
        let store = QuadStore::new();
        let g1 = GraphName::named(iri("http://e/g1"));
        let g2 = GraphName::named(iri("http://e/g2"));
        store.insert(&Quad::new(
            iri("http://e/a"),
            iri("http://e/p"),
            iri("http://e/b"),
            g1.clone(),
        ));
        store.insert(&Quad::new(
            iri("http://e/c"),
            iri("http://e/p"),
            iri("http://e/d"),
            g1.clone(),
        ));
        store.insert(&Quad::new(
            iri("http://e/a"),
            iri("http://e/p"),
            iri("http://e/b"),
            g2,
        ));
        store.insert(&quad("http://e/x", "http://e/p", "http://e/y"));
        let mut names: Vec<String> = store
            .named_graphs()
            .iter()
            .map(|i| i.as_str().to_owned())
            .collect();
        names.sort();
        assert_eq!(names, vec!["http://e/g1", "http://e/g2"]);
    }

    #[test]
    fn clear_graph_only_touches_that_graph() {
        let store = QuadStore::new();
        let g1 = GraphName::named(iri("http://e/g1"));
        store.insert(&Quad::new(
            iri("http://e/a"),
            iri("http://e/p"),
            iri("http://e/b"),
            g1.clone(),
        ));
        store.insert(&quad("http://e/x", "http://e/p", "http://e/y"));
        assert_eq!(store.clear_graph(&g1), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.graph_len(&g1), 0);
    }

    #[test]
    fn literals_and_iris_do_not_collide() {
        let store = QuadStore::new();
        store.insert(&Quad::new(
            iri("http://e/s"),
            iri("http://e/p"),
            Literal::string("http://e/o"),
            GraphName::Default,
        ));
        let as_iri = Term::iri("http://e/o");
        assert!(store
            .match_quads(None, None, Some(&as_iri), &GraphPattern::Any)
            .is_empty());
        let as_lit = Term::Literal(Literal::string("http://e/o"));
        assert_eq!(
            store
                .match_quads(None, None, Some(&as_lit), &GraphPattern::Any)
                .len(),
            1
        );
    }

    #[test]
    fn clone_is_deep() {
        let store = QuadStore::new();
        store.insert(&quad("http://e/s", "http://e/p", "http://e/o"));
        let copy = store.clone();
        copy.insert(&quad("http://e/s2", "http://e/p", "http://e/o"));
        assert_eq!(store.len(), 1);
        assert_eq!(copy.len(), 2);
    }

    #[test]
    fn objects_and_subjects_helpers() {
        let store = QuadStore::new();
        store.insert(&quad("http://e/s", "http://e/p", "http://e/o1"));
        store.insert(&quad("http://e/s", "http://e/p", "http://e/o2"));
        let objs = store.objects(
            &Term::iri("http://e/s"),
            &iri("http://e/p"),
            &GraphPattern::Any,
        );
        assert_eq!(objs.len(), 2);
        let subs = store.subjects(
            &iri("http://e/p"),
            &Term::iri("http://e/o1"),
            &GraphPattern::Any,
        );
        assert_eq!(subs, vec![Term::iri("http://e/s")]);
    }

    #[test]
    fn bulk_extend_matches_incremental_inserts() {
        let quads: Vec<Quad> = (0..500)
            .map(|i| {
                Quad::new(
                    iri(&format!("http://e/s/{}", i % 50)),
                    iri(&format!("http://e/p/{}", i % 7)),
                    iri(&format!("http://e/o/{}", i % 31)),
                    if i % 3 == 0 {
                        GraphName::Default
                    } else {
                        GraphName::named(iri(&format!("http://e/g/{}", i % 4)))
                    },
                )
            })
            .collect();
        // Bulk (empty-store) path.
        let bulk = QuadStore::new();
        let added_bulk = bulk.extend(quads.iter().cloned());
        // Incremental path.
        let incr = QuadStore::new();
        let mut added_incr = 0;
        for q in &quads {
            if incr.insert(q) {
                added_incr += 1;
            }
        }
        assert_eq!(added_bulk, added_incr);
        assert_eq!(bulk.len(), incr.len());
        let mut a = bulk.quads();
        let mut b = incr.quads();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Every index permutation answers consistently after bulk build.
        for q in &quads {
            let subject = Term::from(q.subject.clone());
            assert!(bulk.contains(q));
            assert!(!bulk
                .match_quads(
                    Some(&subject),
                    Some(&q.predicate),
                    None,
                    &GraphPattern::from(&q.graph)
                )
                .is_empty());
            assert!(!bulk
                .match_quads(
                    None,
                    Some(&q.predicate),
                    Some(&q.object),
                    &GraphPattern::Any
                )
                .is_empty());
            assert!(!bulk
                .match_quads(Some(&subject), None, Some(&q.object), &GraphPattern::Any)
                .is_empty());
        }
    }

    #[test]
    fn extend_on_nonempty_store_still_counts_fresh_quads() {
        let store = QuadStore::new();
        store.insert(&quad("http://e/a", "http://e/p", "http://e/b"));
        let added = store.extend(vec![
            quad("http://e/a", "http://e/p", "http://e/b"), // duplicate
            quad("http://e/c", "http://e/p", "http://e/d"),
        ]);
        assert_eq!(added, 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn reader_exposes_consistent_id_space() {
        let store = QuadStore::new();
        let g = GraphName::named(iri("http://e/g"));
        store.insert(&Quad::new(
            iri("http://e/s"),
            iri("http://e/p"),
            iri("http://e/o"),
            g.clone(),
        ));
        store.insert(&quad("http://e/s", "http://e/p", "http://e/o2"));

        let reader = store.reader();
        let s = reader.term_id(&Term::iri("http://e/s")).unwrap();
        let p = reader.iri_id(&iri("http://e/p")).unwrap();
        assert_eq!(reader.resolve(s), &Term::iri("http://e/s"));

        // s+p across all graphs: both quads.
        let pattern = IdPattern {
            s: Some(s.raw()),
            p: Some(p.raw()),
            o: None,
            g: IdGraph::Any,
        };
        assert_eq!(reader.match_count(pattern), 2);

        // Named-graphs-only view excludes the default graph quad.
        let pattern = IdPattern {
            g: IdGraph::AnyNamed,
            ..pattern
        };
        let mut graphs = Vec::new();
        reader.for_each_match(pattern, |[g, ..]| graphs.push(g));
        assert_eq!(graphs.len(), 1);
        assert_ne!(graphs[0], 0, "graph code 0 is the default graph");
    }
}
