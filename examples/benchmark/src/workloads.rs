//! The four workloads: what each deploys, asks and writes, and how its
//! answers are checked. README.md says why each exists.
//!
//! Every deployment is *durable* and is assembled the way the paper's
//! steward assembles one: a base system, then one
//! `DurableSystem::register_release` (Algorithm 1 + synchronous checkpoint)
//! per wrapper. That is why the chain fixture is built here rather than by
//! `bdi_bench::synthetic`, which registers its releases on a volatile
//! `BdiSystem` internally; the shape (concepts, features, disjoint
//! wrappers, names) mirrors it.

use crate::stats::Rng;
use bdi_core::durable::{DurableError, DurableSystem, STORE_DOC, STORE_TABLE};
use bdi_core::exec::{Engine, ExecOptions};
use bdi_core::release::Release;
use bdi_core::supersede;
use bdi_core::system::{AnswerRequest, BdiSystem, VersionScope};
use bdi_core::vocab;
use bdi_docstore::DocStore;
use bdi_rdf::model::{Iri, Triple};
use bdi_relational::{Schema, Value as RelValue};
use bdi_wrappers::supersede as data;
use bdi_wrappers::{JsonWrapper, TableWrapper, Wrapper};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What a workload deploys.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// The §5.3 worst case: `concepts` chained concepts, `wrappers`
    /// disjoint table wrappers each, `rows` rows per wrapper.
    Chain {
        concepts: usize,
        wrappers: usize,
        rows: usize,
        asks: ChainAsks,
    },
    /// The SUPERSEDE running example (§2.1): `docs` VoD documents in each of
    /// the v1 and v2 collections, then `releases` further schema versions
    /// of D1 over `release_docs` documents each.
    Supersede {
        docs: usize,
        releases: usize,
        release_docs: usize,
    },
}

/// Which queries a chain workload asks.
#[derive(Debug, Clone, Copy)]
pub enum ChainAsks {
    /// Every sub-chain in full, then two projections of the whole chain:
    /// eight requests for three concepts, well inside the plan cache.
    SubChains,
    /// Only the whole chain, so every answer is full-size.
    WholeChain,
    /// Every sub-chain × every projection × every version scope (the
    /// paper's historical queries): more keys than the plan cache holds.
    EveryKey,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    /// Clients keep one connection (`true`) or open one per request.
    pub keep_alive: bool,
    /// The one caller makes a write before each of its reads, and now and
    /// then a checkpoint (`true`); or an open-loop writer and a checkpointer
    /// run after the read window, on an otherwise idle server.
    pub interleave_writes: bool,
    /// The plan-cache hit ratio (lowest, highest) the read window must show
    /// for the workload to be the one README.md describes.
    pub hit_ratio: (f64, f64),
}

/// VoD documents in each of `evolve_ingest`'s v1 and v2 collections.
const VOD_DOCS: usize = 10_000;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "hot_lookup",
        shape: Shape::Chain {
            concepts: 3,
            wrappers: 3,
            rows: 500,
            asks: ChainAsks::SubChains,
        },
        keep_alive: true,
        interleave_writes: false,
        hit_ratio: (0.99, 1.0),
    },
    Spec {
        name: "wide_scan",
        shape: Shape::Chain {
            concepts: 2,
            wrappers: 4,
            rows: 10_000,
            asks: ChainAsks::WholeChain,
        },
        keep_alive: true,
        interleave_writes: false,
        hit_ratio: (0.99, 1.0),
    },
    Spec {
        name: "plan_churn",
        shape: Shape::Chain {
            concepts: 4,
            wrappers: 3,
            rows: 100,
            asks: ChainAsks::EveryKey,
        },
        keep_alive: false,
        interleave_writes: false,
        hit_ratio: (0.0, 0.05),
    },
    Spec {
        name: "evolve_ingest",
        shape: Shape::Supersede {
            docs: VOD_DOCS,
            releases: 16,
            release_docs: 100,
        },
        keep_alive: false,
        interleave_writes: true,
        hit_ratio: (0.0, 0.05),
    },
];

pub fn spec_named(name: &str) -> Option<Spec> {
    SPECS.into_iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// Deployments
// ---------------------------------------------------------------------------

/// One release waiting to be registered, with the documents its wrapper's
/// collection must hold first.
pub struct StagedRelease {
    pub docs: Option<(String, Vec<Value>)>,
    pub release: Release,
}

/// A deployment before its releases: the base system and store, and the
/// releases in registration order.
pub struct Staged {
    pub system: BdiSystem,
    pub store: DocStore,
    pub releases: Vec<StagedRelease>,
}

pub fn stage(spec: &Spec, seed: u64) -> Staged {
    match spec.shape {
        Shape::Chain {
            concepts,
            wrappers,
            rows,
            ..
        } => stage_chain(concepts, wrappers, rows, seed),
        Shape::Supersede {
            docs,
            releases,
            release_docs,
        } => stage_supersede(docs, releases, release_docs, seed),
    }
}

/// Registers every staged release durably; returns the deployment and each
/// release's latency in ms.
pub fn deploy_durable(
    staged: Staged,
    dir: &std::path::Path,
) -> Result<(DurableSystem, Vec<f64>), DurableError> {
    let mut durable = DurableSystem::create(dir, staged.system, staged.store)?;
    let mut release_ms = Vec::with_capacity(staged.releases.len());
    for StagedRelease { docs, release } in staged.releases {
        if let Some((collection, docs)) = docs {
            durable.insert_docs(&collection, docs)?;
        }
        let started = std::time::Instant::now();
        durable.register_release(release)?;
        release_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok((durable, release_ms))
}

const CHAIN_NS: &str = "http://www.essi.upc.edu/~snadal/synthetic/";
/// Modulus of the chain data generator: prime, so `r ↦ (r·A + b) mod P` is
/// injective over the row ids and every data value is unique in its column.
const CHAIN_P: u64 = 1_000_003;

fn chain_iri(name: String) -> Iri {
    Iri::new(format!("{CHAIN_NS}{name}"))
}
fn concept(i: usize) -> Iri {
    chain_iri(format!("C{i}"))
}
fn id_feature(i: usize) -> Iri {
    chain_iri(format!("id{i}"))
}
fn data_feature(i: usize) -> Iri {
    chain_iri(format!("f{i}"))
}
fn edge(i: usize) -> Iri {
    chain_iri(format!("edge{i}"))
}
fn has_feature(c: &Iri, f: &Iri) -> Triple {
    Triple::new(c.clone(), (*vocab::g::HAS_FEATURE).clone(), f.clone())
}

/// Concept `i`'s data value in row `r`. Every wrapper of a concept serves
/// the same rows, so the `W^C` walks' union collapses to `rows` answers.
/// Never integral: the streaming engine's value pool holds `174` and `174.0`
/// as one value and answers whichever it interned first, which the
/// byte-level answer check would report as a wrong answer.
fn chain_value(seed: u64, i: usize, r: usize) -> f64 {
    let b = seed.wrapping_mul(97).wrapping_add(i as u64) % CHAIN_P;
    (2 * ((r as u64 * 7919 + b) % CHAIN_P) + 1) as f64 / 16.0
}

fn stage_chain(concepts: usize, wrappers: usize, rows: usize, seed: u64) -> Staged {
    let system = BdiSystem::new();
    let ontology = system.ontology();
    for i in 1..=concepts {
        let c = concept(i);
        ontology.add_concept(&c);
        ontology.add_id_feature(&id_feature(i));
        ontology.add_feature(&data_feature(i));
        for f in [id_feature(i), data_feature(i)] {
            ontology.attach_feature(&c, &f).expect("chain model");
        }
        if i > 1 {
            ontology
                .add_object_property(&edge(i - 1), &concept(i - 1), &c)
                .expect("chain model");
        }
    }

    let mut releases = Vec::with_capacity(concepts * wrappers);
    for i in 1..=concepts {
        let last = i == concepts;
        for j in 1..=wrappers {
            let ids: Vec<String> = if last {
                vec![format!("id{i}")]
            } else {
                vec![format!("id{i}"), "next_id".to_owned()]
            };
            let schema = Schema::from_parts(&ids, &[format!("f{i}")]).expect("chain schema");
            let data = (0..rows)
                .map(|r| {
                    let mut row = vec![RelValue::Int(r as i64)];
                    if !last {
                        row.push(RelValue::Int(r as i64));
                    }
                    row.push(RelValue::Float(chain_value(seed, i, r)));
                    row
                })
                .collect();
            let wrapper = TableWrapper::new(
                format!("w_{i}_{j}"),
                format!("D_{i}_{j}"), // disjoint: one source per wrapper
                schema,
                data,
            )
            .expect("chain rows match schema");
            let mut lav = vec![
                has_feature(&concept(i), &id_feature(i)),
                has_feature(&concept(i), &data_feature(i)),
            ];
            let mut mappings = BTreeMap::from([
                (format!("id{i}"), id_feature(i)),
                (format!("f{i}"), data_feature(i)),
            ]);
            if !last {
                lav.push(Triple::new(concept(i), edge(i), concept(i + 1)));
                lav.push(has_feature(&concept(i + 1), &id_feature(i + 1)));
                mappings.insert("next_id".to_owned(), id_feature(i + 1));
            }
            releases.push(StagedRelease {
                docs: None,
                release: Release::new(Arc::new(wrapper), lav, mappings),
            });
        }
    }
    Staged {
        system,
        store: DocStore::new(),
        releases,
    }
}

const APPS: usize = 64;
/// Distinct quality ratios per monitor in the bulk data: 10 000 documents
/// reduce to `APPS × RATIOS` answer rows, so answers stay small while scans
/// stay large, and only a *write* (unique ratio) adds a row.
const RATIOS: usize = 5;

fn monitor_of(i: usize) -> i64 {
    100 + (i % APPS) as i64
}

/// The ratio numerator of bulk document `i` (denominator 16): odd, so no
/// ratio is integral (see [`chain_value`]).
fn ratio_step(seed: u64, i: usize) -> i64 {
    2 * ((seed % 89) as i64 + ((i / APPS) % RATIOS) as i64) + 1
}

fn vod_v2_doc(seed: u64, i: usize, offset: f64) -> Value {
    json!({
        "monitorId": (monitor_of(i)),
        "timestamp": (1_480_000_000_i64 + i as i64),
        "bufferingRatio": (ratio_step(seed, i) as f64 / 16.0 + offset),
    })
}

fn stage_supersede(docs: usize, releases: usize, release_docs: usize, seed: u64) -> Staged {
    let store = DocStore::new();
    let mut rng = Rng::new(seed);
    let relations = (0..APPS).map(
        |a| json!({"appId": (a as i64), "monitor": (monitor_of(a)), "feedback": (1000 + a as i64)}),
    );
    let feedback = (0..APPS).map(
        |a| json!({"feedbackGatheringId": (1000 + a as i64), "text": (format!("feedback {a}"))}),
    );
    let vod_v1 = (0..docs).map(|i| {
        json!({
            "monitorId": (monitor_of(i)),
            "timestamp": (1_475_000_000_i64 + i as i64),
            "bitrate": (4 + (rng.next() % 4) as i64),
            "waitTime": (ratio_step(seed, i)),
            "watchTime": 16,
        })
    });
    let vod_v2 = (0..docs).map(|i| vod_v2_doc(seed, i, 100.0));
    for (collection, batch) in [
        (data::RELATION_COLLECTION, relations.collect::<Vec<_>>()),
        (data::FEEDBACK_COLLECTION, feedback.collect()),
        (data::VOD_COLLECTION, vod_v1.collect()),
        (data::VOD_V2_COLLECTION, vod_v2.collect()),
    ] {
        store
            .insert_many(collection, batch)
            .expect("generated documents are objects");
    }

    let mut system = BdiSystem::from_parts(supersede::build_ontology(), Default::default());
    let w4 = data::wrapper_w4(store.clone());
    let (v2_schema, v2_pipeline) = (w4.schema().clone(), w4.pipeline().clone());
    for release in [
        supersede::release_w1(Arc::new(data::wrapper_w1(store.clone()))),
        supersede::release_w2(Arc::new(data::wrapper_w2(store.clone()))),
        supersede::release_w3(Arc::new(data::wrapper_w3(store.clone()))),
        supersede::release_w4(Arc::new(w4)),
    ] {
        system.register_release(release).expect("running example");
    }

    // Each further version of D1 is a w4-style wrapper (same LAV subgraph
    // and attribute names, so `release_w4` describes it) over a collection
    // of its own.
    let releases = (1..=releases)
        .map(|k| {
            let collection = format!("d1/vod-v{}", 2 + k);
            let wrapper = JsonWrapper::new(
                format!("w{}", 4 + k),
                data::D1,
                v2_schema.clone(),
                store.clone(),
                collection.clone(),
                v2_pipeline.clone(),
            )
            .expect("w4-style wrapper");
            let docs = (0..release_docs)
                .map(|i| vod_v2_doc(seed, i, 200.0))
                .collect();
            StagedRelease {
                docs: Some((collection, docs)),
                release: supersede::release_w4(Arc::new(wrapper)),
            }
        })
        .collect();
    Staged {
        system,
        store,
        releases,
    }
}

/// A document store of its own for the docstore layer's probes, which every
/// workload reports though only one deploys documents: the v2 collection as
/// `evolve_ingest` loads it, with `w4`'s pipeline over it.
pub fn docstore_fixture(seed: u64) -> (DocStore, bdi_docstore::Pipeline) {
    let store = DocStore::new();
    store
        .insert_many(
            data::VOD_V2_COLLECTION,
            (0..VOD_DOCS).map(|i| vod_v2_doc(seed, i, 100.0)),
        )
        .expect("generated documents are objects");
    let pipeline = data::wrapper_w4(store.clone()).pipeline().clone();
    (store, pipeline)
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

/// The workload's `k`-th write: one new source record with a value no other
/// record has, so the growth query's answer gains exactly one row.
pub enum WriteOp {
    Doc {
        collection: &'static str,
        doc: Value,
    },
    Row {
        wrapper: String,
        row: Vec<RelValue>,
    },
}

impl WriteOp {
    pub fn new(spec: &Spec, seed: u64, k: u64) -> Self {
        match spec.shape {
            Shape::Chain { concepts, rows, .. } => WriteOp::Row {
                wrapper: format!("w_{concepts}_1"),
                row: vec![
                    RelValue::Int((k.wrapping_add(seed) % rows as u64) as i64),
                    RelValue::Float(2_000_000.5 + k as f64),
                ],
            },
            Shape::Supersede { .. } => WriteOp::Doc {
                collection: data::VOD_V2_COLLECTION,
                doc: json!({
                    "monitorId": (monitor_of((k.wrapping_add(seed) % APPS as u64) as usize)),
                    "timestamp": (1_490_000_000_i64 + k as i64),
                    "bufferingRatio": (1000.0 + (2 * k + 1) as f64 / 128.0),
                }),
            },
        }
    }

    /// The record as the JSON text a client would have sent: the
    /// denominator of write amplification.
    pub fn json_len(&self) -> usize {
        match self {
            WriteOp::Doc { doc, .. } => doc.to_string().len(),
            WriteOp::Row { row, .. } => Value::Array(row.iter().map(render_value).collect())
                .to_string()
                .len(),
        }
    }

    /// The journal store id and, near enough, the op text `DurableSystem`
    /// appends for this write (its `Op` type is private): what a standalone
    /// WAL is fed to time the log alone.
    pub fn journal_record(&self) -> (u32, String) {
        match self {
            WriteOp::Doc { collection, doc } => (
                STORE_DOC,
                json!({"InsertDoc": {"c": (*collection), "d": (doc.clone())}}).to_string(),
            ),
            WriteOp::Row { wrapper, row } => {
                let row: Vec<Value> = row.iter().map(render_value).collect();
                (
                    STORE_TABLE,
                    json!({"PushRow": {"w": (wrapper.as_str()), "r": (row)}}).to_string(),
                )
            }
        }
    }

    pub fn apply(self, durable: &DurableSystem) -> Result<(), DurableError> {
        match self {
            WriteOp::Doc { collection, doc } => durable.insert_doc(collection, doc),
            WriteOp::Row { wrapper, row } => durable.push_row(&wrapper, row),
        }
    }
}

// ---------------------------------------------------------------------------
// Queries and their checks
// ---------------------------------------------------------------------------

/// How a response is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Exactly the reference's row count and row-multiset hash.
    Exact { rows: usize, hash: u64 },
    /// `base` rows plus one per write visible to the request: at least the
    /// writes acknowledged before it was sent, at most those started before
    /// its response was read.
    Growing { base: usize },
}

/// One distinct `(OMQ, scope)` request.
pub struct Query {
    pub sparql: String,
    pub scope: VersionScope,
    /// The `POST /query` body.
    pub body: String,
    pub check: Check,
}

/// The Code 3 SPARQL template for `π`, `φ`.
fn sparql_of(pi: &[Iri], phi: &[Triple]) -> String {
    let vars: Vec<String> = (0..pi.len()).map(|n| format!("?v{n}")).collect();
    let values: Vec<String> = pi.iter().map(|f| format!("<{}>", f.as_str())).collect();
    let pattern: Vec<String> = phi.iter().map(|t| t.to_string()).collect();
    format!(
        "SELECT {vars} FROM <{graph}> WHERE {{ VALUES ({vars}) {{ ({values}) }} {pattern} }}",
        vars = vars.join(" "),
        graph = vocab::graphs::GLOBAL.as_str(),
        values = values.join(" "),
        pattern = pattern.join(" "),
    )
}

/// The sub-chain `c_from → … → c_to` projecting the data features of the
/// concepts in `pi` (in that order).
fn chain_sparql(from: usize, to: usize, pi: &[usize]) -> String {
    let mut phi = Vec::new();
    for i in from..=to {
        phi.push(has_feature(&concept(i), &data_feature(i)));
        if i > from {
            phi.push(Triple::new(concept(i - 1), edge(i - 1), concept(i)));
        }
    }
    let pi: Vec<Iri> = pi.iter().map(|&i| data_feature(i)).collect();
    sparql_of(&pi, &phi)
}

/// Every sub-chain of `1..=concepts` with every non-empty subset of its data
/// features as `π`, longest sub-chains and fullest projections first.
fn chain_variants(concepts: usize) -> Vec<String> {
    let mut out = Vec::new();
    for len in (1..=concepts).rev() {
        for from in 1..=concepts + 1 - len {
            let to = from + len - 1;
            for mask in (1u32..1 << len).rev() {
                let pi: Vec<usize> = (0..len)
                    .filter(|b| mask & (1 << b) != 0)
                    .map(|b| from + b)
                    .collect();
                out.push(chain_sparql(from, to, &pi));
            }
        }
    }
    out
}

fn scope_json(scope: &VersionScope) -> Value {
    match scope {
        VersionScope::All => json!("all"),
        VersionScope::Latest => json!("latest"),
        VersionScope::UpToRelease(n) => json!({"up_to_release": (*n as i64)}),
        VersionScope::Only(names) => {
            json!({"only": (names.iter().cloned().collect::<Vec<String>>())})
        }
    }
}

/// The workload's distinct requests, each checked against what the eager
/// reference engine (§2.2) answers on `system`.
pub fn queries(spec: &Spec, system: &BdiSystem) -> Vec<Query> {
    let all = || vec![VersionScope::All];
    let (texts, scopes): (Vec<String>, Vec<VersionScope>) = match spec.shape {
        Shape::Supersede { .. } => (
            vec![supersede::exemplary_query()],
            vec![VersionScope::All, VersionScope::Latest],
        ),
        Shape::Chain {
            concepts,
            wrappers,
            asks,
            ..
        } => match asks {
            ChainAsks::EveryKey => {
                // Every wrapper version alone, every pair of versions, and
                // the two whole-history scopes.
                let version = |js: &[usize]| {
                    VersionScope::Only(
                        (1..=concepts)
                            .flat_map(|i| js.iter().map(move |j| format!("w_{i}_{j}")))
                            .collect::<BTreeSet<String>>(),
                    )
                };
                let mut scopes = vec![VersionScope::All, VersionScope::Latest];
                for a in 1..=wrappers {
                    scopes.push(version(&[a]));
                    for b in a + 1..=wrappers {
                        scopes.push(version(&[a, b]));
                    }
                }
                (chain_variants(concepts), scopes)
            }
            ChainAsks::WholeChain => {
                let full: Vec<usize> = (1..=concepts).collect();
                let reversed: Vec<usize> = full.iter().rev().copied().collect();
                let mut texts = vec![
                    chain_sparql(1, concepts, &full),
                    chain_sparql(1, concepts, &reversed),
                ];
                texts.extend([1, concepts].map(|i| chain_sparql(1, concepts, &[i])));
                (texts, all())
            }
            ChainAsks::SubChains => {
                let mut texts: Vec<String> = (1..=concepts)
                    .rev()
                    .flat_map(|len| {
                        (1..=concepts + 1 - len).map(move |from| {
                            let pi: Vec<usize> = (from..from + len).collect();
                            chain_sparql(from, from + len - 1, &pi)
                        })
                    })
                    .collect();
                texts.extend([1, concepts].map(|i| chain_sparql(1, concepts, &[i])));
                (texts, all())
            }
        },
    };

    let mut out = Vec::with_capacity(texts.len() * scopes.len());
    for sparql in &texts {
        for scope in &scopes {
            let (rows, hash) = reference(system, sparql, scope);
            let growing = spec.interleave_writes && matches!(scope, VersionScope::All);
            out.push(Query {
                sparql: sparql.clone(),
                scope: scope.clone(),
                body: json!({"sparql": (sparql.as_str()), "scope": (scope_json(scope))})
                    .to_string(),
                check: if growing {
                    Check::Growing { base: rows }
                } else {
                    Check::Exact { rows, hash }
                },
            });
        }
    }
    out
}

/// The query whose answer gains exactly one row per [`WriteOp`]: the first
/// of [`queries`] (the whole chain in full; the exemplary query over all
/// versions).
pub const GROWTH_QUERY: usize = 0;

/// Row count and row-multiset hash of the eager engine's answer.
pub fn reference(system: &BdiSystem, sparql: &str, scope: &VersionScope) -> (usize, u64) {
    let options = ExecOptions {
        engine: Engine::Eager,
        cache_plans: false,
        reuse_scans: false,
        ..ExecOptions::default()
    };
    let answer = system
        .serve(
            AnswerRequest::sparql(sparql)
                .scope(scope.clone())
                .options(options),
        )
        .expect("reference answer");
    let hash = answer
        .relation
        .rows()
        .iter()
        .map(|row| {
            let text = Value::Array(row.iter().map(render_value).collect()).to_string();
            row_hash(text.as_bytes())
        })
        .fold(0u64, u64::wrapping_add);
    (answer.relation.len(), hash)
}

/// A relational value as the server's `ops::render_answer` writes it.
fn render_value(value: &RelValue) -> Value {
    match value {
        RelValue::Null => Value::Null,
        RelValue::Bool(b) => Value::from(*b),
        RelValue::Int(i) => Value::from(*i),
        RelValue::Float(f) if f.is_finite() => Value::from(*f),
        RelValue::Float(f) => Value::from(f.to_string()),
        RelValue::Str(s) => Value::from(s.as_str()),
    }
}

/// FNV-1a with a final mix, so that the wrapping sum over a response's rows
/// is an order-insensitive hash of the row multiset.
fn row_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 32;
    h.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What a `POST /query` response body says: its `row_count` field, the
/// number of rows actually present, and their multiset hash. Read straight
/// off the JSON text (the rows of a 139 KB answer are not worth a tree),
/// `None` when the body is not the expected shape.
pub fn read_answer(body: &[u8]) -> Option<(usize, usize, u64)> {
    let find = |needle: &[u8]| {
        body.windows(needle.len())
            .position(|w| w == needle)
            .map(|at| at + needle.len())
    };
    let count_at = find(b"\"row_count\":")?;
    let digits = body[count_at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    let row_count: usize = std::str::from_utf8(&body[count_at..count_at + digits])
        .ok()?
        .parse()
        .ok()?;

    let mut at = find(b"\"rows\":[")?;
    let (mut rows, mut hash) = (0usize, 0u64);
    loop {
        match *body.get(at)? {
            b']' => return Some((row_count, rows, hash)),
            b',' => at += 1,
            b'[' => {
                // Values are scalars, so a row ends at the first `]`
                // outside a string.
                let start = at;
                let mut in_string = false;
                loop {
                    match *body.get(at)? {
                        b'\\' if in_string => at += 1,
                        b'"' => in_string = !in_string,
                        b']' if !in_string => break,
                        _ => {}
                    }
                    at += 1;
                }
                at += 1;
                rows += 1;
                hash = hash.wrapping_add(row_hash(&body[start..at]));
            }
            _ => return None,
        }
    }
}

/// The seeded order requests are issued in: one shuffle of the distinct
/// queries, cycled. A cycle longer than the plan cache therefore misses on
/// every request, and a shorter one hits on every request after the first.
/// A growing query takes three places in the cycle: it and the static one
/// beside it cost very differently, and asked equally often the median
/// latency would fall in the gap between them and jump from run to run.
pub fn request_order(queries: &[Query], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..queries.len())
        .flat_map(|q| {
            let places = if matches!(queries[q].check, Check::Growing { .. }) {
                3
            } else {
                1
            };
            std::iter::repeat_n(q, places)
        })
        .collect();
    Rng::new(seed ^ 0x5eed).shuffle(&mut order);
    order
}
