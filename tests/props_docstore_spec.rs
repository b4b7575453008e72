//! A `WrapperSpec::Json` pipeline arrives from outside — a snapshot image
//! or a WAL release record carries it — so a structurally valid but
//! hostile one must never panic the mediator. Seeded specs (`BDI_PROP_SEED`
//! draws other ones) cover `$match` with every `DocPredicate` kind and the
//! legacy equality form on missing, dotted and array paths; `$project`
//! with deeply nested `AggExpr`s that divide by zero and mix non-numeric
//! operands; and `$limit` of 0 and `usize::MAX`. Each spec round-trips
//! through JSON text, is instantiated over random documents, and is read
//! through `scan`, `scan_batches` at batch sizes {1, 3, 1024} and
//! `resume_batches` after an append. Every call returns `Ok` or `Err`; the
//! batch and eager rows agree whenever both are `Ok`, and so do a marked
//! prefix plus its resumed delta and a full read of the grown collection.

use bdi::docstore::{AggExpr, DocPredicate, DocStore, Pipeline, Projection, Stage};
use bdi::relational::{ScanMark, ScanRequest, Tuple};
use bdi::wrappers::{WrapperError, WrapperSpec};
use proptest::prelude::*;
use proptest::TestRng;
use serde_json::{json, Map, Value};

const COLLECTION: &str = "docs";

/// Field paths a hostile spec reads: present, missing, dotted into nested
/// objects, and indexing arrays in and out of range.
const PATHS: &[&str] = &[
    "a",
    "b",
    "s",
    "zz",
    "o.x",
    "o.y.1",
    "o.missing.deeper",
    "arr.0",
    "arr.9",
    "a.b.c",
    "",
];

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

fn scalar(rng: &mut TestRng) -> Value {
    match rng.below(7) {
        0 => Value::Null,
        1 => json!(rng.below(2) == 0),
        2 => json!(rng.below(7) as i64 - 3),
        3 => json!((rng.below(9) as f64 - 4.0) / 2.0),
        4 => json!(pick(rng, &["", "x", "0", "é"])),
        5 => json!(i64::MAX - rng.below(2) as i64),
        _ => json!(0),
    }
}

fn value(rng: &mut TestRng) -> Value {
    match rng.below(8) {
        0 => Value::Array(vec![scalar(rng), scalar(rng)]),
        1 => {
            let x = scalar(rng);
            json!({ "x": x })
        }
        _ => scalar(rng),
    }
}

/// A document: random scalars under the top-level fields, sometimes a
/// nested object and an array the dotted paths reach into.
fn document(rng: &mut TestRng) -> Value {
    let mut doc = Map::new();
    for field in ["a", "b", "s"] {
        if rng.below(4) != 0 {
            doc.insert(field.to_owned(), value(rng));
        }
    }
    if rng.below(2) == 0 {
        let (x, y) = (scalar(rng), Value::Array(vec![scalar(rng), scalar(rng)]));
        doc.insert("o".to_owned(), json!({ "x": x, "y": y }));
    }
    if rng.below(2) == 0 {
        doc.insert(
            "arr".to_owned(),
            Value::Array(vec![scalar(rng), scalar(rng)]),
        );
    }
    Value::Object(doc)
}

fn doc_predicate(rng: &mut TestRng) -> DocPredicate {
    let bound = |rng: &mut TestRng| (rng.below(3) != 0).then(|| (value(rng), rng.below(2) == 0));
    match rng.below(3) {
        0 => DocPredicate::Eq(value(rng)),
        1 => DocPredicate::In((0..rng.below(4)).map(|_| value(rng)).collect()),
        _ => DocPredicate::Range {
            min: bound(rng),
            max: bound(rng),
        },
    }
}

/// An expression up to `depth` operators deep: mostly a spine with one
/// leaf per level, so deep trees stay small.
fn expr(rng: &mut TestRng, depth: u32) -> AggExpr {
    let leaf = |rng: &mut TestRng| {
        if rng.below(2) == 0 {
            AggExpr::Field(pick(rng, PATHS).to_string())
        } else {
            AggExpr::Literal(value(rng))
        }
    };
    if depth == 0 || rng.below(4) == 0 {
        return leaf(rng);
    }
    let deep = Box::new(expr(rng, depth - 1));
    let other = Box::new(if rng.below(4) == 0 {
        expr(rng, depth / 2)
    } else if rng.below(3) == 0 {
        AggExpr::Literal(json!(0))
    } else {
        leaf(rng)
    });
    let (x, y) = if rng.below(2) == 0 {
        (deep, other)
    } else {
        (other, deep)
    };
    match rng.below(5) {
        0 => AggExpr::Divide(x, y),
        1 => AggExpr::Add(x, y),
        2 => AggExpr::Subtract(x, y),
        3 => AggExpr::Multiply(x, y),
        _ => AggExpr::Concat(x, y),
    }
}

fn stage(rng: &mut TestRng) -> Stage {
    match rng.below(4) {
        0 => Stage::Match(
            (0..rng.below(3))
                .map(|_| (pick(rng, PATHS).to_string(), value(rng)))
                .collect(),
        ),
        1 => Stage::Limit(*pick(rng, &[0, 1, 2, 5, usize::MAX])),
        _ => Stage::MatchPred(
            (0..1 + rng.below(3))
                .map(|_| (pick(rng, PATHS).to_string(), doc_predicate(rng)))
                .collect(),
        ),
    }
}

/// A JSON wrapper spec: a few filtering stages, then (usually) a final
/// `$project` of the schema's attributes — sometimes missing one, which
/// `instantiate` must refuse, and sometimes with a dotted attribute, which
/// takes the wrapper's eager path.
fn spec(rng: &mut TestRng) -> WrapperSpec {
    let dotted = rng.below(5) == 0;
    let mut attributes = vec!["k", "v", "w"];
    if dotted {
        attributes.push("o.x");
    }
    let filters = if rng.below(2) == 0 {
        0
    } else {
        1 + rng.below(3)
    };
    let mut stages: Vec<Stage> = (0..filters).map(|_| stage(rng)).collect();
    if rng.below(8) != 0 {
        let mut projections: Vec<Projection> = attributes
            .iter()
            .map(|name| {
                // Mostly shallow, so some rows survive; a third up to 16 deep.
                let max = if rng.below(3) == 0 { 17 } else { 3 };
                let depth = rng.below(max) as u32;
                Projection::computed(*name, expr(rng, depth))
            })
            .collect();
        if rng.below(8) == 0 {
            projections.pop();
        }
        stages.push(Stage::Project(projections));
        if rng.below(3) == 0 {
            stages.push(stage(rng));
        }
    }
    WrapperSpec::Json {
        name: "wj".to_owned(),
        source: "DJ".to_owned(),
        id_attributes: vec![attributes[0].to_owned()],
        non_id_attributes: attributes[1..].iter().map(|a| a.to_string()).collect(),
        collection: COLLECTION.to_owned(),
        pipeline: Pipeline { stages },
    }
}

/// Drains a batch stream, keeping the first error.
fn collect(
    scanned: Result<
        (
            impl Iterator<Item = Result<Vec<Tuple>, WrapperError>>,
            Option<ScanMark>,
        ),
        WrapperError,
    >,
) -> Result<(Vec<Tuple>, Option<ScanMark>), WrapperError> {
    let (batches, mark) = scanned?;
    let mut rows = Vec::new();
    for batch in batches {
        rows.extend(batch?);
    }
    Ok((rows, mark))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_hostile_docstore_pipeline_spec_errs_or_agrees_and_never_panics(seed in any::<u64>()) {
        let mut rng = TestRng::seeded(seed);
        let spec = spec(&mut rng);
        let text = serde_json::to_string(&spec).expect("a spec serializes");
        let decoded: WrapperSpec = serde_json::from_str(&text).expect("a spec reads back");
        prop_assert_eq!(&decoded, &spec);

        let store = DocStore::new();
        for _ in 0..1 + rng.below(12) {
            store.insert(COLLECTION, document(&mut rng)).expect("object documents insert");
        }
        let Ok(wrapper) = decoded.instantiate(&store) else {
            return Ok(());
        };
        let request = ScanRequest::full(wrapper.schema());
        let eager = wrapper.scan().map(|relation| relation.into_rows());
        let mut marked = None;
        for batch_rows in [1, 3, 1024] {
            let batched = collect(wrapper.scan_batches(&request, batch_rows));
            if let (Ok(eager), Ok((rows, _))) = (&eager, &batched) {
                prop_assert!(rows == eager, "batch size {batch_rows}: {rows:?} vs {eager:?}");
            }
            if batch_rows == 3 {
                marked = batched.ok();
            }
        }

        for _ in 0..1 + rng.below(3) {
            store.insert(COLLECTION, document(&mut rng)).expect("object documents insert");
        }
        let grown = collect(wrapper.scan_batches(&request, 3));
        if let (Ok(eager), Ok((rows, _))) = (wrapper.scan().map(|r| r.into_rows()), &grown) {
            prop_assert_eq!(rows, &eager);
        }
        let Some((prefix, Some(mark))) = marked else {
            return Ok(());
        };
        let resumed = wrapper
            .resume_batches(&request, 3, &mark)
            .map(|resumed| resumed.map(|(batches, mark)| (batches, Some(mark))));
        let resumed = match resumed {
            Ok(Some(stream)) => collect(Ok(stream)),
            Ok(None) => return Ok(()),
            Err(e) => Err(e),
        };
        if let (Ok((delta, _)), Ok((full, _))) = (resumed, grown) {
            let mut rows = prefix;
            rows.extend(delta);
            prop_assert_eq!(rows, full);
        }
    }
}
