//! The durable tier's two decoders read whatever is on disk: a WAL
//! record's op (once its CRC checks out) and the snapshot image. Fed
//! arbitrary bytes through either, `BdiSystem::open` returns `Ok` or a
//! typed decode error — `Corrupt` at the record's seq (0 for the image),
//! or an unsupported image format — and never panics. Inputs are seeded
//! (`BDI_PROP_SEED` draws other ones): op skeletons around TriG token soup,
//! byte-level edits of a real image, and raw bytes.

use bdi::core::durable::{DurableError, SNAPSHOT_FILE, WAL_FILE};
use bdi::core::supersede;
use bdi::core::system::BdiSystem;
use bdi::relational::Schema;
use bdi::wrappers::TableWrapper;
use bdi_durability::{StdVfs, Wal};
use proptest::prelude::*;
use serde_json::json;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Pieces of TriG and JSON, including ones that end a string or a name
/// early.
const FRAGMENTS: &[&str] = &[
    "<http://e/s> ",
    "<http://e/p> ",
    "<> ",
    "GRAPH <http://e/g> { ",
    "} ",
    "_:b ",
    "_:b. ",
    "\"lit\" ",
    "@en ",
    "@ ",
    "^^<http://e/t> ",
    " . ",
    "@prefix e: <http://e/> . ",
    "e:x ",
    "?v ",
    "\\q",
    "日本",
    "😀",
    "\u{0}",
];

fn arb_soup() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        "[<>{}\"\\\\@^:._#?;,]{1,3}",
        "[a-z \n]{1,3}",
        (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_owned()),
    ];
    prop::collection::vec(piece, 0..12).prop_map(|parts| parts.concat())
}

fn arb_json() -> impl Strategy<Value = serde_json::Value> {
    prop_oneof![
        Just(json!({"n": 1})),
        Just(json!([1, 2])),
        Just(json!(null)),
        Just(json!(1.5)),
        arb_soup().prop_map(|s| json!(s)),
    ]
}

/// An op payload: one of the journaled op shapes around arbitrary
/// content, or raw bytes (invalid UTF-8 included).
fn arb_op() -> impl Strategy<Value = Vec<u8>> {
    let shaped = prop_oneof![
        arb_soup().prop_map(|q| json!({ "InsertQuad": { "q": q } })),
        arb_soup().prop_map(|q| json!({ "RemoveQuad": { "q": q } })),
        arb_soup().prop_map(|qs| json!({ "ExtendQuads": { "qs": qs } })),
        prop::option::of(arb_soup()).prop_map(|g| json!({ "ClearGraph": { "g": g } })),
        (arb_soup(), arb_json()).prop_map(|(c, d)| json!({ "InsertDoc": { "c": c, "d": d } })),
        (arb_soup(), prop::collection::vec(arb_json(), 0..3))
            .prop_map(|(c, ds)| json!({ "InsertDocs": { "c": c, "ds": ds } })),
        arb_soup().prop_map(|c| json!({ "ClearCollection": { "c": c } })),
        (
            prop_oneof![Just("w5".to_owned()), arb_soup()],
            prop::collection::vec(arb_json(), 0..3)
        )
            .prop_map(|(w, r)| json!({ "PushRow": { "w": w, "r": r } })),
        arb_json(),
    ];
    prop_oneof![
        shaped.prop_map(|op| op.to_string().into_bytes()),
        prop::collection::vec(any::<u8>(), 0..48),
    ]
}

/// One byte-level edit of an image.
#[derive(Debug, Clone)]
enum Edit {
    Set(usize, u8),
    Delete(usize),
    Insert(usize, &'static str),
    Truncate(usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Edit::Set(at, b)),
        any::<usize>().prop_map(Edit::Delete),
        (any::<usize>(), 0..FRAGMENTS.len()).prop_map(|(at, i)| Edit::Insert(at, FRAGMENTS[i])),
        any::<usize>().prop_map(Edit::Truncate),
    ]
}

fn apply(image: &mut Vec<u8>, edit: &Edit) {
    let at = |i: usize, len: usize| if len == 0 { 0 } else { i % len };
    match *edit {
        Edit::Set(i, b) => {
            let i = at(i, image.len());
            if let Some(byte) = image.get_mut(i) {
                *byte = b;
            }
        }
        Edit::Delete(i) => {
            if !image.is_empty() {
                image.remove(at(i, image.len()));
            }
        }
        Edit::Insert(i, text) => {
            let i = at(i, image.len() + 1);
            image.splice(i..i, text.bytes());
        }
        Edit::Truncate(i) => image.truncate(at(i, image.len() + 1)),
    }
}

/// An image: a real one under a few edits, or raw bytes.
fn arb_image() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(arb_edit(), 1..4).prop_map(|edits| {
            let mut image = base().image.clone();
            for edit in &edits {
                apply(&mut image, edit);
            }
            image
        }),
        prop::collection::vec(any::<u8>(), 0..48),
    ]
}

/// The seeded deployment's image (the running example plus a table
/// wrapper `w5`) and the seq it covers.
struct Base {
    image: Vec<u8>,
    seq: u64,
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| {
        let dir = fresh_dir("base");
        let mut durable =
            BdiSystem::create(&dir, supersede::build_running_example()).expect("create");
        let table = TableWrapper::new(
            "w5",
            "D1",
            Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).expect("static schema"),
            Vec::new(),
        )
        .expect("static wrapper");
        durable
            .register_release(supersede::release_w1(Arc::new(table)))
            .expect("release");
        let seq = durable.checkpoint().expect("checkpoint");
        drop(durable);
        let image = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("image");
        let _ = std::fs::remove_dir_all(&dir);
        Base { image, seq }
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bdi-durable-decode-{}-{:?}-{tag}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Opens `dir`, requiring `Ok` or a typed decode error; returns the error's
/// seq when it is `Corrupt`.
fn open_outcome(dir: &PathBuf) -> Result<Option<u64>, String> {
    match BdiSystem::open(dir) {
        Ok(_) => Ok(None),
        Err(DurableError::Corrupt { seq, .. }) => Ok(Some(seq)),
        Err(DurableError::UnsupportedFormat { .. }) => Ok(Some(0)),
        Err(other) => Err(other.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_crc_valid_record_decodes_or_is_corrupt_at_its_seq(op in arb_op()) {
        let dir = fresh_dir("record");
        std::fs::write(dir.join(SNAPSHOT_FILE), &base().image).expect("image");
        let seq = {
            let mut wal = Wal::open(Arc::new(StdVfs), dir.join(WAL_FILE), base().seq)
                .expect("wal opens")
                .wal;
            // Store id 1 journals quad-store ops; replay dispatches on the op.
            let seq = wal.append(1, &op).expect("append");
            wal.commit().expect("commit");
            seq
        };
        let outcome = open_outcome(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        match outcome {
            Ok(None) => {}
            Ok(Some(at)) => prop_assert_eq!(at, seq),
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }

    #[test]
    fn any_image_restores_or_is_corrupt(image in arb_image()) {
        let dir = fresh_dir("image");
        std::fs::write(dir.join(SNAPSHOT_FILE), &image).expect("image");
        let outcome = open_outcome(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        match outcome {
            Ok(None) => {}
            Ok(Some(at)) => prop_assert_eq!(at, 0),
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }
}
