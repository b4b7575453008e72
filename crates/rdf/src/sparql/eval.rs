//! Evaluation of the SPARQL subset over a [`QuadStore`].
//!
//! Semantics follow the SPARQL algebra of Code 4: the `VALUES` table is
//! joined with the basic graph pattern, then the projection is applied.
//! BGP matching uses greedy most-bound-first pattern ordering, substituting
//! bindings as they accumulate — each step is a single index range scan in
//! the store.
//!
//! # Id-space execution
//!
//! The evaluator pins the store's read lock once per query
//! ([`QuadStore::reader`]) and never leaves id space until projection time:
//!
//! 1. **Encode** — pattern constants and `VALUES` terms are resolved to
//!    `u32` term ids up front. Terms outside the store's vocabulary get
//!    query-local ids above the store's id range (they can never match a
//!    scan, which is exactly their semantics).
//! 2. **Evaluate** — solution rows are fixed-width id slots stored in one
//!    flat arena (`Vec<u32>` with a stride, `u32::MAX` = unbound), indexed
//!    by a per-query variable table; joins extend rows by scanning
//!    `[u32; 4]` keys and comparing ids, with no hashing, no `Term`
//!    cloning and no per-row allocation at all.
//! 3. **Decode** — only the surviving rows are materialized into the
//!    public [`Binding`]/[`Solutions`] view.

use super::ast::*;
use crate::interner::TermId;
use crate::model::{Iri, Term};
use crate::store::{IdGraph, IdPattern, QuadStore, StoreReader};
use std::collections::{HashMap, HashSet};

/// One solution mapping (variable → term).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Binding {
    map: HashMap<Variable, Term>,
}

impl Binding {
    pub(crate) fn get(&self, var: &Variable) -> Option<&Term> {
        self.map.get(var)
    }

    /// Convenience lookup by variable name.
    pub fn get_by_name(&self, name: &str) -> Option<&Term> {
        self.map.get(&Variable::new(name))
    }

    pub(crate) fn set(&mut self, var: Variable, term: Term) {
        self.map.insert(var, term);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Variable, &Term)> {
        self.map.iter()
    }
}

/// The result of a `SELECT` query: projected variables plus solutions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solutions {
    pub vars: Vec<Variable>,
    pub bindings: Vec<Binding>,
}

impl Solutions {
    /// Terms bound to `var` across all solutions, deduplicated, in
    /// first-seen order.
    pub(crate) fn column(&self, var: &str) -> Vec<Term> {
        let v = Variable::new(var);
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for b in &self.bindings {
            if let Some(t) = b.get(&v) {
                if seen.insert(t) {
                    out.push(t.clone());
                }
            }
        }
        out
    }

    /// IRIs bound to `var` (skipping non-IRI bindings), deduplicated.
    pub fn iri_column(&self, var: &str) -> Vec<Iri> {
        self.column(var)
            .into_iter()
            .filter_map(|t| t.as_iri().cloned())
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    pub fn len(&self) -> usize {
        self.bindings.len()
    }
}

/// Evaluation options.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// When `true`, patterns outside `GRAPH` blocks (and queries without
    /// `FROM`) match the *union* of all graphs, mirroring a union-default
    /// SPARQL dataset. When `false`, they match only the default graph.
    ///
    /// The BDI ontology stores `G`, `S` and `M` in separate named graphs and
    /// the paper's internal queries (`FROM T`) range over all of them, so the
    /// ontology layer evaluates with this enabled.
    pub default_graph_as_union: bool,
}

/// A pattern position, compiled to id space: a constant id or a slot in the
/// query's variable table.
#[derive(Debug, Clone, Copy)]
enum Pos {
    Const(u32),
    Var(usize),
}

/// The graph selector, compiled to id space.
#[derive(Debug, Clone, Copy)]
enum GraphSel {
    /// A fixed graph view (`FROM`, `GRAPH <iri>`, default, union).
    Fixed(IdGraph),
    /// `GRAPH ?g` — slot in the variable table (binds the graph IRI's term
    /// id).
    Var(usize),
}

#[derive(Debug, Clone, Copy)]
struct CompiledPattern {
    s: Pos,
    p: Pos,
    o: Pos,
    g: GraphSel,
}

/// Unbound slot sentinel. The interner reserves `u32::MAX` (it aborts before
/// handing it out as an id), so no real term id collides with it.
const UNBOUND: u32 = u32::MAX;

/// Flat row storage: `width` slots per row in one contiguous buffer, so the
/// join loop never allocates per row.
struct RowArena {
    width: usize,
    data: Vec<u32>,
}

impl RowArena {
    fn new(width: usize) -> Self {
        Self {
            width,
            data: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        // `width` is always >= 1: variable-free queries get one pad slot.
        self.data.len() / self.width
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Appends a copy of `row`, returning the new row's mutable slice for
    /// in-place binding.
    fn push(&mut self, row: &[u32]) -> &mut [u32] {
        let start = self.data.len();
        self.data.extend_from_slice(row);
        &mut self.data[start..start + self.width]
    }

    /// Drops the most recently pushed row (consistency check failed).
    fn pop(&mut self) {
        self.data.truncate(self.data.len() - self.width);
    }
}

/// The per-query encoding context: query-local ids for terms outside the
/// store's vocabulary (`VALUES` rows and constants may mention them; they
/// can never match a scan, but they must still project).
struct Encoder {
    base: u32,
    extra: Vec<Term>,
    extra_ids: HashMap<Term, u32>,
}

impl Encoder {
    fn new(reader: &StoreReader<'_>) -> Self {
        let base = u32::try_from(reader.term_count()).expect("id space exceeds u32");
        Self {
            base,
            extra: Vec::new(),
            extra_ids: HashMap::new(),
        }
    }

    /// Encodes a term, assigning a query-local id if the store has none.
    fn encode(&mut self, reader: &StoreReader<'_>, term: &Term) -> u32 {
        if let Some(id) = reader.term_id(term) {
            return id.raw();
        }
        if let Some(&id) = self.extra_ids.get(term) {
            return id;
        }
        let id = self.base + self.extra.len() as u32;
        self.extra.push(term.clone());
        self.extra_ids.insert(term.clone(), id);
        id
    }

    /// Decodes any id this encoder produced.
    fn decode<'a>(&'a self, reader: &'a StoreReader<'a>, id: u32) -> &'a Term {
        if id < self.base {
            reader.resolve(TermId::from_raw(id))
        } else {
            &self.extra[(id - self.base) as usize]
        }
    }

    /// The graph code an id denotes when used in graph position: store ids
    /// shift by one (0 is the default graph); query-local ids cannot name a
    /// stored graph, so they map to an impossible scan.
    fn graph_code_of(&self, id: u32) -> Option<u32> {
        if id < self.base {
            Some(id + 1)
        } else {
            None
        }
    }
}

/// The id-space result of [`solve`]: the variable table, the encoder (for
/// decoding query-local ids) and the surviving rows.
struct Solved {
    vars: Vec<Variable>,
    encoder: Encoder,
    rows: RowArena,
}

/// Evaluates a query against a store, materializing term-space bindings.
pub fn evaluate(store: &QuadStore, query: &SelectQuery, options: &EvalOptions) -> Solutions {
    let reader = store.reader();
    let projection = query.projection();
    let Some(solved) = solve(&reader, query, options) else {
        return Solutions {
            vars: projection,
            bindings: Vec::new(),
        };
    };

    // ---- Decode surviving rows into the public view.
    let Solved {
        vars,
        encoder,
        rows,
    } = solved;
    let bindings = (0..rows.len())
        .map(|i| {
            let mut b = Binding::default();
            for (slot, &id) in rows.row(i).iter().enumerate() {
                if id != UNBOUND && slot < vars.len() {
                    b.set(vars[slot].clone(), encoder.decode(&reader, id).clone());
                }
            }
            b
        })
        .collect();

    Solutions {
        vars: projection,
        bindings,
    }
}

/// Evaluates a query and returns only the number of solutions, never leaving
/// id space — the cheap form for existence checks and cardinalities.
pub fn evaluate_count(store: &QuadStore, query: &SelectQuery, options: &EvalOptions) -> usize {
    let reader = store.reader();
    solve(&reader, query, options).map_or(0, |s| s.rows.len())
}

/// Runs the encode → order → join pipeline in id space. `None` means the
/// query is statically unsatisfiable (a named graph or `FROM` target that
/// holds no quads).
fn solve(reader: &StoreReader<'_>, query: &SelectQuery, options: &EvalOptions) -> Option<Solved> {
    let mut encoder = Encoder::new(reader);

    // ---- Variable table: slot index per variable, first-appearance order.
    let mut vars: Vec<Variable> = Vec::new();
    let mut slot_of = HashMap::new();
    let slot =
        |v: &Variable, vars: &mut Vec<Variable>, slot_of: &mut HashMap<Variable, usize>| -> usize {
            if let Some(&s) = slot_of.get(v) {
                return s;
            }
            vars.push(v.clone());
            slot_of.insert(v.clone(), vars.len() - 1);
            vars.len() - 1
        };
    if let Some(values) = &query.values {
        for v in &values.vars {
            slot(v, &mut vars, &mut slot_of);
        }
    }
    for qp in &query.patterns {
        for v in qp.pattern.variables() {
            slot(v, &mut vars, &mut slot_of);
        }
        if let GraphSpec::Var(v) = &qp.graph {
            slot(v, &mut vars, &mut slot_of);
        }
    }
    // Variable-free queries still need one row to carry existence.
    let width = vars.len().max(1);

    // ---- Seed rows from the VALUES table (Code 4 joins it with the BGP).
    let mut rows = RowArena::new(width);
    let blank_row = vec![UNBOUND; width];
    match &query.values {
        Some(values) => {
            for row in &values.rows {
                let slots = rows.push(&blank_row);
                for (var, term) in values.vars.iter().zip(row) {
                    slots[slot_of[var]] = encoder.encode(reader, term);
                }
            }
        }
        None => {
            rows.push(&blank_row);
        }
    }

    // ---- Compile patterns to id space.
    let active_graph = match &query.from {
        // FROM naming a graph with no quads makes every Active-graph
        // pattern unsatisfiable (encoded as None).
        Some(iri) => reader.iri_id(iri).map(|id| IdGraph::Code(id.raw() + 1)),
        None if options.default_graph_as_union => Some(IdGraph::Any),
        None => Some(IdGraph::Code(0)),
    };

    let mut compiled: Vec<CompiledPattern> = Vec::with_capacity(query.patterns.len());
    for qp in &query.patterns {
        let pos = |tv: &TermOrVar, encoder: &mut Encoder| match tv {
            TermOrVar::Term(t) => Pos::Const(encoder.encode(reader, t)),
            TermOrVar::Var(v) => Pos::Var(slot_of[v]),
        };
        let s = pos(&qp.pattern.subject, &mut encoder);
        let p = pos(&qp.pattern.predicate, &mut encoder);
        let o = pos(&qp.pattern.object, &mut encoder);
        let g = match &qp.graph {
            GraphSpec::Active => match active_graph {
                Some(g) => GraphSel::Fixed(g),
                None => return None,
            },
            GraphSpec::Named(iri) => match reader.iri_id(iri) {
                Some(id) => GraphSel::Fixed(IdGraph::Code(id.raw() + 1)),
                None => return None,
            },
            GraphSpec::Var(v) => GraphSel::Var(slot_of[v]),
        };
        compiled.push(CompiledPattern { s, p, o, g });
    }

    // ---- Greedy ordering: repeatedly pick the pattern with the most bound
    // positions (constants + already-chosen variables).
    let mut bound_slots: Vec<bool> = vec![false; width];
    if let Some(values) = &query.values {
        for v in &values.vars {
            bound_slots[slot_of[v]] = true;
        }
    }
    let mut remaining = compiled;
    let mut ordered: Vec<CompiledPattern> = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, cp)| {
                let mut score = 0usize;
                for pos in [cp.s, cp.p, cp.o] {
                    match pos {
                        Pos::Const(_) => score += 2,
                        Pos::Var(s) if bound_slots[s] => score += 1,
                        Pos::Var(_) => {}
                    }
                }
                score
            })
            .expect("remaining is non-empty");
        let cp = remaining.remove(idx);
        for pos in [cp.s, cp.p, cp.o] {
            if let Pos::Var(s) = pos {
                bound_slots[s] = true;
            }
        }
        if let GraphSel::Var(s) = cp.g {
            bound_slots[s] = true;
        }
        ordered.push(cp);
    }

    // ---- Join loop, entirely over id rows in flat arenas.
    for cp in &ordered {
        let mut next = RowArena::new(width);
        // Heuristic: each surviving row extends to at least one row.
        next.data.reserve(rows.data.len());
        for i in 0..rows.len() {
            extend_row(reader, &encoder, cp, rows.row(i), &mut next);
        }
        rows = next;
        if rows.data.is_empty() {
            break;
        }
    }

    Some(Solved {
        vars,
        encoder,
        rows,
    })
}

/// Extends one row against one pattern: resolves bound positions, scans the
/// store, and pushes every consistent extension into `out`.
fn extend_row(
    reader: &StoreReader<'_>,
    encoder: &Encoder,
    cp: &CompiledPattern,
    row: &[u32],
    out: &mut RowArena,
) {
    let resolve = |pos: Pos| -> Option<u32> {
        match pos {
            Pos::Const(id) => Some(id),
            Pos::Var(slot) if row[slot] != UNBOUND => Some(row[slot]),
            Pos::Var(_) => None,
        }
    };
    let s = resolve(cp.s);
    let p = resolve(cp.p);
    let o = resolve(cp.o);
    let g = match cp.g {
        GraphSel::Fixed(g) => g,
        GraphSel::Var(slot) if row[slot] != UNBOUND => {
            // A bound graph variable scans exactly that named graph; ids
            // outside the store's range (or non-graph terms) match nothing.
            match encoder.graph_code_of(row[slot]) {
                Some(code) => IdGraph::Code(code),
                None => return,
            }
        }
        GraphSel::Var(_) => IdGraph::AnyNamed,
    };

    reader.for_each_match(IdPattern { s, p, o, g }, |[kg, ks, kp, ko]| {
        let extended = out.push(row);
        let mut ok = true;
        let mut bind = |pos: Pos, id: u32, extended: &mut [u32]| match pos {
            Pos::Const(_) => {}
            Pos::Var(slot) => {
                if extended[slot] == UNBOUND {
                    extended[slot] = id;
                } else if extended[slot] != id {
                    // Repeated variable within this pattern disagreeing
                    // (scan-bound occurrences always agree already).
                    ok = false;
                }
            }
        };
        bind(cp.s, ks, extended);
        bind(cp.p, kp, extended);
        bind(cp.o, ko, extended);
        if let GraphSel::Var(slot) = cp.g {
            // kg > 0 always: AnyNamed / Code(named) scans never yield the
            // default graph here.
            debug_assert!(kg > 0);
            bind(Pos::Var(slot), kg - 1, extended);
        }
        if !ok {
            out.pop();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GraphName, Literal};
    use crate::sparql::parser::parse_query;
    use crate::turtle::PrefixMap;

    fn store() -> QuadStore {
        let s = QuadStore::new();
        let g = GraphName::named(Iri::new("http://e/G"));
        let w1 = GraphName::named(Iri::new("http://e/w1"));
        s.insert_in(
            &g,
            Iri::new("http://e/App"),
            Iri::new("http://e/hasMonitor"),
            Iri::new("http://e/Monitor"),
        );
        s.insert_in(
            &g,
            Iri::new("http://e/App"),
            Iri::new("http://e/hasFeature"),
            Iri::new("http://e/appId"),
        );
        s.insert_in(
            &g,
            Iri::new("http://e/Monitor"),
            Iri::new("http://e/hasFeature"),
            Iri::new("http://e/monitorId"),
        );
        s.insert_in(
            &w1,
            Iri::new("http://e/Monitor"),
            Iri::new("http://e/hasFeature"),
            Iri::new("http://e/monitorId"),
        );
        s
    }

    fn prefixes() -> PrefixMap {
        let mut p = PrefixMap::new();
        p.insert("e", "http://e/");
        p
    }

    #[test]
    fn bgp_with_variables_joins() {
        let q = parse_query(
            "SELECT ?c ?f FROM <http://e/G> WHERE { ?c e:hasFeature ?f . }",
            &prefixes(),
        )
        .unwrap();
        let sols = evaluate(&store(), &q, &EvalOptions::default());
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn from_graph_scopes_matching() {
        let q = parse_query(
            "SELECT ?c WHERE { ?c e:hasFeature e:monitorId . }",
            &prefixes(),
        )
        .unwrap();
        // Without FROM and without union default: default graph only → empty.
        let sols = evaluate(&store(), &q, &EvalOptions::default());
        assert!(sols.is_empty());
        // Union default: both G and w1 match, deduplication happens per
        // binding so the same ?c appears twice.
        let sols = evaluate(
            &store(),
            &q,
            &EvalOptions {
                default_graph_as_union: true,
            },
        );
        assert_eq!(sols.column("c").len(), 1);
    }

    #[test]
    fn graph_variable_binds_named_graphs() {
        let q = parse_query(
            "SELECT ?g WHERE { GRAPH ?g { e:Monitor e:hasFeature e:monitorId } }",
            &prefixes(),
        )
        .unwrap();
        let sols = evaluate(&store(), &q, &EvalOptions::default());
        let graphs = sols.iri_column("g");
        assert_eq!(graphs.len(), 2); // both G and w1 contain the triple
    }

    #[test]
    fn values_clause_seeds_bindings() {
        let q = parse_query(
            "SELECT ?f FROM <http://e/G> WHERE {
                VALUES (?f) { (e:appId) (e:monitorId) }
                ?c e:hasFeature ?f .
             }",
            &prefixes(),
        )
        .unwrap();
        let sols = evaluate(&store(), &q, &EvalOptions::default());
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn repeated_variable_must_agree() {
        let s = QuadStore::new();
        s.insert_triple(&crate::model::Triple::new(
            Iri::new("http://e/a"),
            Iri::new("http://e/p"),
            Iri::new("http://e/a"),
        ));
        s.insert_triple(&crate::model::Triple::new(
            Iri::new("http://e/a"),
            Iri::new("http://e/p"),
            Iri::new("http://e/b"),
        ));
        let q = parse_query("SELECT ?x WHERE { ?x e:p ?x . }", &prefixes()).unwrap();
        let sols = evaluate(&s, &q, &EvalOptions::default());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.column("x"), vec![Term::iri("http://e/a")]);
    }

    #[test]
    fn chained_join_over_two_patterns() {
        let q = parse_query(
            "SELECT ?f FROM <http://e/G> WHERE {
                e:App e:hasMonitor ?m .
                ?m e:hasFeature ?f .
             }",
            &prefixes(),
        )
        .unwrap();
        let sols = evaluate(&store(), &q, &EvalOptions::default());
        assert_eq!(sols.column("f"), vec![Term::iri("http://e/monitorId")]);
    }

    #[test]
    fn unmatched_pattern_yields_no_solutions() {
        let q = parse_query(
            "SELECT ?x FROM <http://e/G> WHERE { ?x e:nonexistent ?y . }",
            &prefixes(),
        )
        .unwrap();
        assert!(evaluate(&store(), &q, &EvalOptions::default()).is_empty());
    }

    #[test]
    fn values_terms_outside_store_vocabulary_still_project() {
        // A VALUES row whose term occurs in no quad must survive when no
        // pattern constrains it (the paper's Code 3 binds projection vars to
        // attribute IRIs that may be newer than the data).
        let s = QuadStore::new();
        s.insert_triple(&crate::model::Triple::new(
            Iri::new("http://e/a"),
            Iri::new("http://e/p"),
            Iri::new("http://e/b"),
        ));
        let q = parse_query(
            "SELECT ?v WHERE { VALUES (?v) { (e:unknown) (e:a) } }",
            &prefixes(),
        )
        .unwrap();
        let sols = evaluate(&s, &q, &EvalOptions::default());
        assert_eq!(sols.len(), 2);
        assert_eq!(
            sols.column("v"),
            vec![Term::iri("http://e/unknown"), Term::iri("http://e/a")]
        );
    }

    #[test]
    fn values_term_outside_vocabulary_joined_against_pattern_is_empty() {
        let s = QuadStore::new();
        s.insert_triple(&crate::model::Triple::new(
            Iri::new("http://e/a"),
            Iri::new("http://e/p"),
            Iri::new("http://e/b"),
        ));
        let q = parse_query(
            "SELECT ?o WHERE { VALUES (?s) { (e:unknown) } ?s e:p ?o . }",
            &prefixes(),
        )
        .unwrap();
        let sols = evaluate(
            &s,
            &q,
            &EvalOptions {
                default_graph_as_union: true,
            },
        );
        assert!(sols.is_empty());
    }

    #[test]
    fn from_nonexistent_graph_is_empty() {
        let q = parse_query(
            "SELECT ?s FROM <http://e/no-such-graph> WHERE { ?s e:hasFeature ?f . }",
            &prefixes(),
        )
        .unwrap();
        assert!(evaluate(&store(), &q, &EvalOptions::default()).is_empty());
    }

    #[test]
    fn graph_variable_shared_with_object_position_joins_on_term_identity() {
        // ?g is used both as the graph selector and an object: the same IRI
        // term must satisfy both occurrences.
        let s = QuadStore::new();
        let g1 = GraphName::named(Iri::new("http://e/g1"));
        let g2 = GraphName::named(Iri::new("http://e/g2"));
        // g1 contains a triple pointing at g1 (self-describing); g2 points at g1.
        s.insert_in(
            &g1,
            Iri::new("http://e/x"),
            Iri::new("http://e/inGraph"),
            Iri::new("http://e/g1"),
        );
        s.insert_in(
            &g2,
            Iri::new("http://e/y"),
            Iri::new("http://e/inGraph"),
            Iri::new("http://e/g1"),
        );
        let q = parse_query(
            "SELECT ?s ?g WHERE { GRAPH ?g { ?s e:inGraph ?g } }",
            &prefixes(),
        )
        .unwrap();
        let sols = evaluate(&s, &q, &EvalOptions::default());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.column("s"), vec![Term::iri("http://e/x")]);
    }

    #[test]
    fn evaluate_count_agrees_with_evaluate() {
        let s = store();
        for q in [
            "SELECT ?c ?f FROM <http://e/G> WHERE { ?c e:hasFeature ?f . }",
            "SELECT ?g WHERE { GRAPH ?g { e:Monitor e:hasFeature e:monitorId } }",
            "SELECT ?x FROM <http://e/G> WHERE { ?x e:nonexistent ?y . }",
        ] {
            let q = parse_query(q, &prefixes()).unwrap();
            let opts = EvalOptions::default();
            assert_eq!(evaluate_count(&s, &q, &opts), evaluate(&s, &q, &opts).len());
        }
    }

    #[test]
    fn literal_constants_match_exactly() {
        let s = QuadStore::new();
        s.insert_triple(&crate::model::Triple::new(
            Iri::new("http://e/a"),
            Iri::new("http://e/p"),
            Literal::integer(42),
        ));
        s.insert_triple(&crate::model::Triple::new(
            Iri::new("http://e/b"),
            Iri::new("http://e/p"),
            Literal::string("42"),
        ));
        let q = parse_query("SELECT ?s WHERE { ?s e:p 42 . }", &prefixes()).unwrap();
        let sols = evaluate(
            &s,
            &q,
            &EvalOptions {
                default_graph_as_union: true,
            },
        );
        assert_eq!(sols.column("s"), vec![Term::iri("http://e/a")]);
    }
}
