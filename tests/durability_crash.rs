//! Crash-recovery matrix for the durable storage tier.
//!
//! Every cell runs the same scripted workload over a seeded deployment
//! (the SUPERSEDE running example plus a durable table wrapper `w5`),
//! kills it at a crash point — mid-record, mid-fsync, mid-snapshot-rename
//! or between the WAL append and the in-memory apply — recovers with a
//! clean filesystem, and checks the recovered state **differentially**
//! against a reference deployment that applied exactly the acknowledged
//! writes:
//!
//! * **no loss** — every acknowledged mutation survives recovery;
//! * **no ghosts** — at most the single in-flight (journaled but
//!   unacknowledged) mutation may additionally appear, never anything
//!   the caller was told failed;
//! * **no panic** — torn tails are amputated, not unwrapped;
//! * **counters restored** — `mutation_count` / `data_version` /
//!   `collection_version` come back bit-exact, so no pre-restart cache
//!   stamp can validate against different post-restart contents.
//!
//! Crash points derive from `BDI_CRASH_SEED` (see
//! [`bdi_durability::env_crash_seed`]); CI sweeps several seeds.

use bdi::core::durable::{DurableError, Write, IMAGE_FORMAT, SNAPSHOT_FILE};
use bdi::core::supersede;
use bdi::core::system::{AnswerRequest, BdiSystem};
use bdi::rdf::model::{BlankNode, GraphName, Iri, Literal, Quad, Subject, Term};
use bdi::relational::{Schema, Value};
use bdi::wrappers::supersede::VOD_COLLECTION;
use bdi::wrappers::TableWrapper;
use bdi_durability::{env_crash_seed, CrashPlan, CrashyVfs, StdVfs, Wal};
use serde_json::json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Quad-store workload target: a dedicated named graph, so the matrix
/// never mutates the ontology's own graphs.
const TEST_GRAPH: &str = "http://example.org/crash/graph";
/// Doc-store scratch collection (no wrapper reads it; content still
/// fingerprinted via the store dump).
const SCRATCH: &str = "crash/scratch";
/// Ops per workload. Each op costs exactly one WAL fsync, which the
/// fsync-fault mode relies on.
const N_OPS: usize = 10;

// ---------------------------------------------------------------------------
// Deterministic seeding
// ---------------------------------------------------------------------------

/// SplitMix64 — enough PRNG to place crash points, no `rand` needed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `1..=max`.
    fn pick(&mut self, max: u64) -> u64 {
        1 + self.next() % max.max(1)
    }
}

fn cell_rng(tag: &str) -> SplitMix {
    let seed = env_crash_seed(0xEDB7_2017);
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the cell tag
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    SplitMix(seed ^ h)
}

// ---------------------------------------------------------------------------
// Deployment + workload
// ---------------------------------------------------------------------------

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bdi-crash-{}-{:?}-{tag}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_graph() -> GraphName {
    GraphName::Named(Iri::new(TEST_GRAPH))
}

fn probe_quad(n: usize) -> Quad {
    Quad::new(
        Iri::new(format!("http://example.org/crash/s{n}")),
        Iri::new("http://example.org/crash/p"),
        Literal::integer(n as i64),
        test_graph(),
    )
}

/// The seeded deployment every cell starts from: the running example plus
/// a durable table wrapper `w5` sharing `w1`'s LAV subgraph, so pushed
/// rows surface in the exemplary query's answers.
fn seed_deployment(dir: &PathBuf) -> BdiSystem {
    let mut durable =
        BdiSystem::create(dir, supersede::build_running_example()).expect("seed deployment");
    let table = TableWrapper::new(
        "w5",
        "D1",
        Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).expect("static schema"),
        Vec::new(),
    )
    .expect("static wrapper");
    durable
        .register_release(supersede::release_w1(Arc::new(table)))
        .expect("seed release");
    durable
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StoreKind {
    Quad,
    Doc,
    Table,
}

/// The scripted mutation at workload index `i` — deterministic, so the
/// crashed run and the reference run perform bit-identical sequences.
fn apply_op(d: &BdiSystem, kind: StoreKind, i: usize) -> Result<(), DurableError> {
    let doc = |collection: &str, doc| Write::InsertDoc(collection.into(), doc);
    let write = match kind {
        StoreKind::Quad => match i % 5 {
            0 | 1 => Write::InsertQuad(probe_quad(i)),
            2 => Write::ExtendQuads(vec![probe_quad(100 + i), probe_quad(200 + i)]),
            3 => Write::RemoveQuad(probe_quad(i - 2)),
            _ => Write::ClearGraph(test_graph()),
        },
        StoreKind::Doc => match i % 4 {
            // Lands in `w1`'s collection: changes the exemplary answers.
            0 => doc(
                VOD_COLLECTION,
                json!({"monitorId": 12, "timestamp": (1_480_000_000 + i as i64), "waitTime": (i as i64 + 1), "watchTime": 10}),
            ),
            1 => doc(SCRATCH, json!({"n": (i as i64)})),
            2 => Write::InsertDocs(
                SCRATCH.into(),
                vec![json!({"n": (i as i64)}), json!({"n": (i as i64 + 1000)})],
            ),
            _ => Write::ClearCollection(SCRATCH.into()),
        },
        StoreKind::Table => push_w5(vec![
            Value::Int(if i.is_multiple_of(2) { 12 } else { 18 }),
            Value::Float(i as f64 / 10.0),
        ]),
    };
    d.apply(write).map(drop)
}

fn push_w5(row: Vec<Value>) -> Write {
    Write::PushRow("w5".into(), row)
}

// ---------------------------------------------------------------------------
// Differential fingerprinting
// ---------------------------------------------------------------------------

/// Everything state-like, rendered comparably: exemplary answers, the
/// test graph's quads, the whole document store, and every durability
/// counter the cache-validity scheme hangs off.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    answers: Vec<String>,
    quads: Vec<String>,
    docs: String,
    quad_mutations: u64,
    doc_data_version: u64,
    collection_versions: BTreeMap<String, u64>,
    table_version: u64,
}

fn fingerprint(d: &BdiSystem) -> Fingerprint {
    let answer = d
        .serve(AnswerRequest::sparql(supersede::exemplary_query()))
        .expect("exemplary query answers");
    let mut answers: Vec<String> = answer
        .relation
        .rows()
        .iter()
        .map(|row| format!("{row:?}"))
        .collect();
    answers.sort();
    let store = d.ontology().store();
    let mut quads: Vec<String> = store
        .graph_quads(&test_graph())
        .iter()
        .map(|q| format!("{q:?}"))
        .collect();
    quads.sort();
    Fingerprint {
        answers,
        quads,
        docs: format!("{:?}", d.store().dump()),
        quad_mutations: store.mutation_count(),
        doc_data_version: d.store().data_version(),
        collection_versions: d.store().collection_versions(),
        table_version: d
            .registry()
            .get("w5")
            .map(|w| w.data_version())
            .unwrap_or(0),
    }
}

/// The reference: a fresh deployment that applied exactly the first
/// `count` ops, all acknowledged. What recovery must reproduce.
fn reference(kind: StoreKind, count: usize, tag: &str) -> Fingerprint {
    let dir = tmp_dir(&format!("ref-{tag}-{count}"));
    let d = seed_deployment(&dir);
    for i in 0..count {
        apply_op(&d, kind, i).expect("reference ops all succeed");
    }
    let print = fingerprint(&d);
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
    print
}

// ---------------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum CrashMode {
    /// Die after N payload bytes: the write crossing the boundary is torn.
    MidRecord,
    /// The Nth fsync fails (data reached the OS, never the platter).
    MidFsync,
    /// The snapshot's `snap.tmp → snapshot.json` rename fails.
    MidRename,
    /// The op is journaled + fsynced, then the process dies before the
    /// in-memory apply (via the `#[doc(hidden)]` injection hook).
    BetweenLogAndApply,
}

/// Runs the workload until the first error, returning how many ops were
/// acknowledged. `checkpoint_at` inserts a mid-workload snapshot (the
/// snapshot+replay recovery variant); its own failure is tolerated — the
/// WAL already holds everything it would have covered.
fn run_workload(d: &BdiSystem, kind: StoreKind, checkpoint_at: Option<usize>) -> usize {
    let mut acked = 0;
    for i in 0..N_OPS {
        if checkpoint_at == Some(i) && d.checkpoint().is_err() {
            break;
        }
        match apply_op(d, kind, i) {
            Ok(()) => acked += 1,
            Err(_) => break,
        }
    }
    acked
}

/// One matrix cell: seed → crash → recover → differential check.
fn run_cell(kind: StoreKind, mode: CrashMode, with_snapshot: bool) {
    let tag = format!("{kind:?}-{mode:?}-snap{with_snapshot}");
    let mut rng = cell_rng(&tag);
    let checkpoint_at = with_snapshot.then_some(N_OPS / 2);

    // Fault-free pass over a throwaway directory: learn the workload's
    // byte volume so seeded crash points land inside it.
    let measured_bytes = {
        let dir = tmp_dir(&format!("measure-{tag}"));
        seed_deployment(&dir);
        let vfs = CrashyVfs::new(Arc::new(StdVfs), CrashPlan::default());
        let d = BdiSystem::open_with(&dir, Arc::new(vfs.clone())).expect("measuring open");
        let acked = run_workload(&d, kind, checkpoint_at);
        assert_eq!(acked, N_OPS, "fault-free pass must ack everything");
        drop(d);
        let bytes = vfs.bytes_written();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    assert!(measured_bytes > 0, "workload must write something");

    // The crashing pass.
    let dir = tmp_dir(&tag);
    seed_deployment(&dir);
    let plan = match mode {
        CrashMode::MidRecord => CrashPlan {
            kill_after_bytes: Some(rng.pick(measured_bytes)),
            ..CrashPlan::default()
        },
        CrashMode::MidFsync => CrashPlan {
            // One fsync per op (plus the optional checkpoint's own);
            // drawing from 1..=N_OPS always hits the workload.
            fail_fsync_at: Some(rng.pick(N_OPS as u64)),
            ..CrashPlan::default()
        },
        CrashMode::MidRename => CrashPlan {
            fail_rename_at: Some(1),
            ..CrashPlan::default()
        },
        CrashMode::BetweenLogAndApply => CrashPlan::default(),
    };
    let vfs = CrashyVfs::new(Arc::new(StdVfs), plan);
    let crashed = BdiSystem::open_with(&dir, Arc::new(vfs)).expect("pre-crash open");
    if let CrashMode::BetweenLogAndApply = mode {
        crashed.inject_crash_before_apply(rng.pick(N_OPS as u64));
    }
    let acked = run_workload(&crashed, kind, checkpoint_at);
    let crashed_mid_op = acked < N_OPS;
    drop(crashed);

    // Recovery over a clean filesystem must not panic and must reproduce
    // the acknowledged writes — at most the one in-flight op on top.
    let recovered = BdiSystem::open(&dir).expect("recovery");
    let got = fingerprint(&recovered);

    if let CrashMode::BetweenLogAndApply = mode {
        // The in-flight op was journaled + fsynced before the crash, so
        // recovery must apply it: exactly acked + 1.
        assert!(crashed_mid_op, "injection must fire inside the workload");
        assert_eq!(
            got,
            reference(kind, acked + 1, &tag),
            "journaled-but-unapplied op must replay ({tag})"
        );
    } else {
        let want_acked = reference(kind, acked, &tag);
        let matches_acked = got == want_acked;
        let matches_in_flight = crashed_mid_op && got == reference(kind, acked + 1, &tag);
        assert!(
            matches_acked || matches_in_flight,
            "{tag}: recovered state is neither the {acked} acknowledged ops \
             nor those plus the in-flight op.\n got: {got:#?}\nwant: {want_acked:#?}"
        );
    }

    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_matrix(kind: StoreKind) {
    for mode in [
        CrashMode::MidRecord,
        CrashMode::MidFsync,
        CrashMode::MidRename,
        CrashMode::BetweenLogAndApply,
    ] {
        for with_snapshot in [false, true] {
            run_cell(kind, mode, with_snapshot);
        }
    }
}

#[test]
fn crash_matrix_quad_store() {
    run_matrix(StoreKind::Quad);
}

#[test]
fn crash_matrix_doc_store() {
    run_matrix(StoreKind::Doc);
}

#[test]
fn crash_matrix_table_store() {
    run_matrix(StoreKind::Table);
}

// ---------------------------------------------------------------------------
// Counter restoration (the cache-validity pin)
// ---------------------------------------------------------------------------

/// A reboot must restore every validity counter bit-exact and keep it
/// monotonic: a stamp taken before the restart may never equal a stamp
/// of *different* post-restart contents, so no pre-restart cached plan
/// or scan can validate against the recovered stores.
#[test]
fn recovery_restores_counters_bit_exact_and_monotonic() {
    let dir = tmp_dir("counters");
    let before = {
        let d = seed_deployment(&dir);
        // Warm the caches the counters guard, then mutate every store.
        d.serve(AnswerRequest::sparql(supersede::exemplary_query()))
            .expect("warm-up");
        for kind in [StoreKind::Quad, StoreKind::Doc, StoreKind::Table] {
            for i in 0..4 {
                apply_op(&d, kind, i).expect("workload");
            }
        }
        d.checkpoint().expect("checkpoint");
        // One more unsnapshotted round, so recovery exercises replay too.
        apply_op(&d, StoreKind::Doc, 0).expect("tail op");
        fingerprint(&d)
    };

    let recovered = BdiSystem::open(&dir).expect("recovery");
    let after = fingerprint(&recovered);
    assert_eq!(after, before, "state and counters must round-trip");

    // Strictly monotonic from the restored values: post-restart mutations
    // can never reuse a pre-restart stamp for different contents.
    // Index 5 inserts a quad the pre-restart workload never did — a
    // duplicate insert would be a store no-op and bump nothing.
    apply_op(&recovered, StoreKind::Quad, 5).expect("post-restart quad");
    apply_op(&recovered, StoreKind::Doc, 1).expect("post-restart doc");
    apply_op(&recovered, StoreKind::Table, 0).expect("post-restart push");
    let bumped = fingerprint(&recovered);
    assert!(bumped.quad_mutations > before.quad_mutations);
    assert!(bumped.doc_data_version > before.doc_data_version);
    assert!(bumped.table_version > before.table_version);

    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Torn-tail hardening
// ---------------------------------------------------------------------------

/// Arbitrary garbage appended to the log (a torn final record, a partial
/// sector, line noise) must be amputated on open — never a panic, never
/// a lost acknowledged record.
#[test]
fn garbage_wal_tail_is_truncated_not_panicked() {
    let mut rng = cell_rng("garbage-tail");
    for round in 0..4 {
        let dir = tmp_dir(&format!("garbage-{round}"));
        let acked = {
            let d = seed_deployment(&dir);
            for i in 0..4 {
                apply_op(&d, StoreKind::Doc, i).expect("workload");
            }
            fingerprint(&d)
        };

        let wal = dir.join(bdi::core::durable::WAL_FILE);
        let mut bytes = std::fs::read(&wal).expect("wal exists");
        let garbage_len = (rng.pick(64)) as usize;
        for _ in 0..garbage_len {
            bytes.push((rng.next() & 0xFF) as u8);
        }
        std::fs::write(&wal, &bytes).expect("inject garbage");

        let recovered = BdiSystem::open(&dir).expect("recovery must not panic");
        assert!(
            recovered.recovery().unwrap().wal_truncated_at.is_some(),
            "garbage tail must be detected and amputated"
        );
        assert_eq!(fingerprint(&recovered), acked, "acked writes survive");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A record whose frame and CRC are intact but whose quad holds an IRI no
/// writer could produce is corruption at that record's seq, not a panic.
#[test]
fn a_crc_valid_record_with_an_invalid_iri_is_reported_corrupt() {
    let dir = tmp_dir("invalid-iri");
    drop(seed_deployment(&dir));
    let covered = BdiSystem::open(&dir)
        .expect("clean reopen")
        .recovery()
        .unwrap()
        .snapshot_seq;
    let seq = {
        let mut wal = Wal::open(
            Arc::new(StdVfs),
            dir.join(bdi::core::durable::WAL_FILE),
            covered,
        )
        .expect("wal opens")
        .wal;
        let op = json!({"InsertQuad": {"q": "<> <http://example.org/p> <http://example.org/o> ."}});
        // Store id 1 journals quad-store ops.
        let seq = wal.append(1, op.to_string().as_bytes()).expect("append");
        wal.commit().expect("commit");
        seq
    };
    match BdiSystem::open(&dir) {
        Err(DurableError::Corrupt { seq: at, reason }) => {
            assert_eq!(at, seq);
            assert!(reason.contains("empty"), "{reason}");
        }
        Err(other) => panic!("expected a corrupt record, got {other}"),
        Ok(_) => panic!("expected a corrupt record, recovery succeeded"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// One codec: what the log accepts, the image holds
// ---------------------------------------------------------------------------

/// Every term kind with awkward content, in both graph kinds: IRIs with
/// `{}|\^` and a backtick, a blank node label full of name punctuation,
/// literals with quotes, control characters, newlines and multibyte text,
/// a region-subtagged language tag and an odd datatype.
fn awkward_quads() -> Vec<Quad> {
    let odd = |tail: &str| Iri::new(format!("http://example.org/odd/{tail}"));
    let blank = BlankNode::new("b0.x-y:z/~é");
    let objects = [
        Term::Iri(odd("{a}|b\\c^d`e")),
        Term::Blank(blank.clone()),
        Term::Literal(Literal::string(
            "q\"uote\\ new\nline\ttab\r\u{0}\u{1}\u{7f} é日😀 #{}",
        )),
        Term::Literal(Literal::lang_string("chat \"é\"\n", "en-US")),
        Term::Literal(Literal::typed("4.2", odd("type{x}"))),
    ];
    let mut quads = Vec::new();
    for graph in [GraphName::Default, GraphName::Named(odd("graph|`g`"))] {
        for subject in [Subject::Iri(odd("s^1")), Subject::Blank(blank.clone())] {
            for object in &objects {
                quads.push(Quad::new(
                    subject.clone(),
                    odd("p\\`"),
                    object.clone(),
                    graph.clone(),
                ));
            }
        }
    }
    quads
}

/// An acknowledged quad survives both recovery routes: replay of the log
/// alone, and a checkpoint followed by a reopen. Before quads went through
/// the TriG codec, a blank node `a b` or `b.` and a tag `en us` replayed
/// but left an image that no open could read.
#[test]
fn every_term_kind_survives_replay_and_checkpoint() {
    let dir = tmp_dir("awkward");
    let quads = awkward_quads();
    let (half, rest) = quads.split_at(quads.len() / 2);
    {
        let d = seed_deployment(&dir);
        for quad in half {
            let inserted = d.apply(Write::InsertQuad(quad.clone()));
            assert_eq!(inserted.expect("insert acknowledged"), 1);
        }
        let extended = d.apply(Write::ExtendQuads(rest.to_vec()));
        assert_eq!(extended.expect("extend acknowledged"), rest.len());
    }
    let contains_all = |d: &BdiSystem| {
        let store = d.ontology().store();
        quads.iter().all(|q| store.contains(q))
    };

    let replayed = BdiSystem::open(&dir).expect("replay the log");
    assert_eq!(replayed.recovery().unwrap().replayed, half.len() as u64 + 1);
    assert!(contains_all(&replayed));
    replayed.checkpoint().expect("checkpoint");
    drop(replayed);

    let restored = BdiSystem::open(&dir).expect("restore the image");
    assert_eq!(restored.recovery().unwrap().replayed, 0);
    assert!(contains_all(&restored));
    // A removal replays through the same codec.
    let removed = restored.apply(Write::RemoveQuad(quads[0].clone()));
    assert_eq!(removed.expect("remove acknowledged"), 1);
    drop(restored);
    let again = BdiSystem::open(&dir).expect("replay the removal");
    assert!(!again.ontology().store().contains(&quads[0]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The terms the parent's probe broke the image with cannot be built, and
/// a literal subject cannot be built at all (see the `compile_fail`
/// example on `Subject`): outside text that carries one — Turtle, TriG, or
/// a WAL record whose frame and CRC are intact — is an `Err`, never a
/// panic.
#[test]
fn terms_that_would_not_read_back_are_refused() {
    for label in ["a b", "b.", "", "a#b", "a\"b"] {
        assert!(BlankNode::try_new(label).is_err(), "{label:?}");
    }
    for tag in ["en us", "", "en.", "en_us"] {
        assert!(Literal::try_lang_string("x", tag).is_err(), "{tag:?}");
    }
    assert!(BlankNode::try_new("b0.x").is_ok());
    assert!(Literal::try_lang_string("x", "en-US").is_ok());

    let triple = "\"not a subject\" <http://example.org/p> <http://example.org/o> .";
    assert!(bdi::rdf::turtle::parse_turtle(triple).is_err());
    let graph = format!("GRAPH <http://example.org/g> {{ {triple} }}");
    assert!(bdi::rdf::trig::parse_trig(&graph).is_err());

    let dir = tmp_dir("refused-terms");
    drop(seed_deployment(&dir));
    let covered = BdiSystem::open(&dir)
        .expect("clean reopen")
        .recovery()
        .unwrap()
        .snapshot_seq;
    let seq = {
        let mut wal = Wal::open(
            Arc::new(StdVfs),
            dir.join(bdi::core::durable::WAL_FILE),
            covered,
        )
        .expect("wal opens")
        .wal;
        let op = json!({"InsertQuad": {"q": (triple)}});
        // Store id 1 journals quad-store ops.
        let seq = wal.append(1, op.to_string().as_bytes()).expect("append");
        wal.commit().expect("commit");
        seq
    };
    match BdiSystem::open(&dir) {
        Err(DurableError::Corrupt { seq: at, reason }) => {
            assert_eq!(at, seq);
            assert!(reason.contains("subject"), "{reason}");
        }
        Err(other) => panic!("expected a corrupt record, got {other}"),
        Ok(_) => panic!("expected a corrupt record, recovery succeeded"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An image of another format is refused up front, naming both formats,
/// instead of replaying a log this build cannot decode.
#[test]
fn an_image_of_another_format_is_refused() {
    let dir = tmp_dir("format");
    drop(seed_deployment(&dir));
    let path = dir.join(SNAPSHOT_FILE);
    let text = std::fs::read_to_string(&path).expect("image exists");
    let field = format!("\"format\": {IMAGE_FORMAT},");
    assert!(text.contains(&field), "the image declares its format");
    std::fs::write(&path, text.replacen(&field, "\"format\": 1,", 1)).expect("hand-edit the image");

    match BdiSystem::open(&dir) {
        Err(e @ DurableError::UnsupportedFormat { found: 1, expected }) => {
            assert_eq!(expected, IMAGE_FORMAT);
            let message = e.to_string();
            assert!(
                message.contains("format 1") && message.contains("format 2"),
                "{message}"
            );
        }
        Err(other) => panic!("expected an unsupported format, got {other}"),
        Ok(_) => panic!("expected an unsupported format, recovery succeeded"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Poisoning
// ---------------------------------------------------------------------------

/// After a journal failure the handle must refuse further mutations (no
/// acknowledged-but-unlogged writes) while reads keep serving, and a
/// reopen recovers cleanly from whatever reached the disk.
#[test]
fn poisoned_handle_refuses_writes_but_serves_reads() {
    let dir = tmp_dir("poison");
    seed_deployment(&dir);
    let vfs = CrashyVfs::new(
        Arc::new(StdVfs),
        CrashPlan {
            fail_fsync_at: Some(2),
            ..CrashPlan::default()
        },
    );
    let d = BdiSystem::open_with(&dir, Arc::new(vfs)).expect("open");
    assert!(apply_op(&d, StoreKind::Doc, 0).is_ok());
    assert!(apply_op(&d, StoreKind::Doc, 1).is_err(), "fsync 2 fails");
    // Poisoned: later mutations fail fast, including on other stores.
    let err = apply_op(&d, StoreKind::Quad, 0).unwrap_err();
    assert!(
        matches!(err, DurableError::Poisoned(_)),
        "expected poisoning, got {err:?}"
    );
    assert!(d.durability_stats().unwrap().poisoned);
    // Reads still serve: Table 2's three rows plus the one from the
    // acknowledged VoD document.
    assert_eq!(
        d.serve(AnswerRequest::sparql(supersede::exemplary_query()))
            .expect("reads survive poisoning")
            .relation
            .rows()
            .len(),
        4
    );
    drop(d);

    let recovered = BdiSystem::open(&dir).expect("reopen");
    assert!(!recovered.durability_stats().unwrap().poisoned);
    assert!(
        apply_op(&recovered, StoreKind::Doc, 2).is_ok(),
        "writable again"
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pushed row comes back as the variants it was written with, after a
/// replay and after a checkpoint: an integral float stays a float however
/// large, an int past 2⁵³ stays exact, and `-0.0` keeps its sign.
#[test]
fn pushed_rows_recover_as_the_variants_written() {
    let dir = tmp_dir("variants");
    let durable = seed_deployment(&dir);
    let rows = vec![
        vec![Value::Int(12), Value::Float(1e15)],
        vec![Value::Int(12), Value::Float(1e16)],
        vec![Value::Int(12), Value::Float(-0.0)],
        vec![Value::Int(12), Value::Float(1e-7)],
        vec![Value::Int((1 << 53) + 1), Value::Float(0.5)],
    ];
    for row in &rows {
        durable.apply(push_w5(row.clone())).unwrap();
    }
    // Non-finite floats have no JSON form: refused before journaling.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let row = push_w5(vec![Value::Int(12), Value::Float(bad)]);
        assert!(durable.apply(row).is_err());
    }
    // Debug tells `Int(1)` from `Float(1.0)` and `0.0` from `-0.0`.
    let exact = |d: &BdiSystem| {
        let table = d.registry().get("w5").unwrap();
        format!("{:?}", table.scan().unwrap().rows())
    };
    let written = exact(&durable);
    assert_eq!(written, format!("{rows:?}"));
    drop(durable);

    let replayed = BdiSystem::open(&dir).unwrap();
    assert_eq!(replayed.recovery().unwrap().replayed, rows.len() as u64);
    assert_eq!(exact(&replayed), written);
    replayed.checkpoint().unwrap();
    drop(replayed);

    let restored = BdiSystem::open(&dir).unwrap();
    assert_eq!(restored.recovery().unwrap().replayed, 0);
    assert_eq!(exact(&restored), written);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot image holds no NaN or ±∞: JSON would write `null`, and the
/// cell would come back as a different value. Capture refuses, naming the
/// wrapper and the attribute, as the journal does for a pushed row.
#[test]
fn a_snapshot_refuses_a_non_finite_table_cell() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut system = supersede::build_running_example();
        let table = TableWrapper::new(
            "w5",
            "D1",
            Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).expect("static schema"),
            vec![vec![Value::Int(1), Value::Float(bad)]],
        )
        .expect("static wrapper");
        system
            .register_release(supersede::release_w1(Arc::new(table)))
            .expect("release");
        let refused = bdi::core::snapshot::snapshot(&system, system.store()).unwrap_err();
        let message = refused.to_string();
        assert!(
            message.contains("w5") && message.contains("lagRatio"),
            "{message}"
        );
        let dir = tmp_dir("non-finite");
        assert!(BdiSystem::create(&dir, system).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
