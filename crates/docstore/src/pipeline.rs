//! Aggregation-lite pipelines.
//!
//! Implements the fragment of MongoDB's aggregation framework the paper's
//! wrappers use (Code 2): `$project` with field renames and computed fields
//! (`$divide`, `$add`, `$subtract`, `$multiply`, `$concat`, `$literal`), plus
//! `$match` equality filters and `$limit`. Exactly like `aggregate` in the
//! paper's footnote 4, no grouping is performed unless a stage asks for it —
//! and no `$group` stage exists here because no wrapper needs one.

use crate::path::get_path;
use serde_json::{Map, Number, Value};

/// Errors raised during pipeline evaluation.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum PipelineError {
    #[error("$divide by zero (path context: {0})")]
    DivideByZero(String),
    #[error("operator {op} expects numeric operands, got {got}")]
    NonNumeric { op: &'static str, got: String },
}

/// A value-producing aggregation expression.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum AggExpr {
    /// `"$field.path"` — reads a (possibly nested) field.
    Field(String),
    /// `{$literal: v}`.
    Literal(Value),
    /// `{$divide: [a, b]}` — always produces a double.
    Divide(Box<AggExpr>, Box<AggExpr>),
    /// `{$add: [a, b]}`.
    Add(Box<AggExpr>, Box<AggExpr>),
    /// `{$subtract: [a, b]}`.
    Subtract(Box<AggExpr>, Box<AggExpr>),
    /// `{$multiply: [a, b]}`.
    Multiply(Box<AggExpr>, Box<AggExpr>),
    /// `{$concat: [a, b]}` — string concatenation.
    Concat(Box<AggExpr>, Box<AggExpr>),
}

impl AggExpr {
    pub fn field(path: impl Into<String>) -> Self {
        AggExpr::Field(path.into())
    }

    pub fn divide(a: AggExpr, b: AggExpr) -> Self {
        AggExpr::Divide(Box::new(a), Box::new(b))
    }

    /// Evaluates against one document. Missing fields yield `Null` — evolved
    /// schemas must degrade, not crash (that is the point of the paper).
    pub(crate) fn eval(&self, doc: &Value) -> Result<Value, PipelineError> {
        match self {
            AggExpr::Field(path) => Ok(get_path(doc, path).cloned().unwrap_or(Value::Null)),
            AggExpr::Literal(v) => Ok(v.clone()),
            AggExpr::Divide(a, b) => {
                let (x, y) = (a.eval(doc)?, b.eval(doc)?);
                if x.is_null() || y.is_null() {
                    return Ok(Value::Null);
                }
                let (x, y) = numeric_pair("$divide", &x, &y)?;
                if y == 0.0 {
                    return Err(PipelineError::DivideByZero(self_repr(a, b)));
                }
                Ok(json_f64(x / y))
            }
            AggExpr::Add(a, b) => arith("$add", doc, a, b, |x, y| x + y),
            AggExpr::Subtract(a, b) => arith("$subtract", doc, a, b, |x, y| x - y),
            AggExpr::Multiply(a, b) => arith("$multiply", doc, a, b, |x, y| x * y),
            AggExpr::Concat(a, b) => {
                let (x, y) = (a.eval(doc)?, b.eval(doc)?);
                if x.is_null() || y.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::String(format!("{}{}", as_string(&x), as_string(&y))))
            }
        }
    }
}

fn self_repr(a: &AggExpr, b: &AggExpr) -> String {
    format!("{a:?} / {b:?}")
}

fn as_string(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

fn numeric_pair(op: &'static str, x: &Value, y: &Value) -> Result<(f64, f64), PipelineError> {
    match (x.as_f64(), y.as_f64()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(PipelineError::NonNumeric {
            op,
            got: format!("{x} and {y}"),
        }),
    }
}

fn json_f64(v: f64) -> Value {
    Number::from_f64(v)
        .map(Value::Number)
        .unwrap_or(Value::Null)
}

fn arith(
    op: &'static str,
    doc: &Value,
    a: &AggExpr,
    b: &AggExpr,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Value, PipelineError> {
    let (x, y) = (a.eval(doc)?, b.eval(doc)?);
    if x.is_null() || y.is_null() {
        return Ok(Value::Null);
    }
    // Integer-preserving fast path.
    if let (Some(xi), Some(yi)) = (x.as_i64(), y.as_i64()) {
        let exact = f(xi as f64, yi as f64);
        if exact.fract() == 0.0 && exact.abs() < i64::MAX as f64 {
            return Ok(Value::Number(Number::from(exact as i64)));
        }
    }
    let (x, y) = numeric_pair(op, &x, &y)?;
    Ok(json_f64(f(x, y)))
}

/// Total order over JSON values mirroring the relational layer's
/// `Value` order, so `$match` predicates pushed down by wrappers agree with
/// the mediator's reference semantics: `Null < Bool < Number < String`
/// (< Array < Object, which wrappers reject as non-1NF but which stay
/// ordered here for totality). Numbers compare cross-representation and
/// exactly — an `i64`-representable number against a double too, never by
/// widening it to `f64` — like the relational `Int`/`Float` comparison after
/// JSON conversion. JSON numbers cannot be NaN, so the comparison is total.
pub(crate) fn json_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Number(_) => 2,
            Value::String(_) => 3,
            Value::Array(_) => 4,
            Value::Object(_) => 5,
        }
    }
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::String(x), Value::String(y)) => x.cmp(y),
        (Value::Number(x), Value::Number(y)) => {
            let (fx, fy) = (x.as_f64().unwrap_or(0.0), y.as_f64().unwrap_or(0.0));
            match (x.as_i64(), y.as_i64()) {
                (Some(i), Some(j)) => i.cmp(&j),
                (Some(i), None) => int_float_cmp(i, fy),
                (None, Some(j)) => int_float_cmp(j, fx).reverse(),
                (None, None) => fx.partial_cmp(&fy).unwrap_or(Ordering::Equal),
            }
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

/// `i` against the finite `f` exactly (widening `i` would round past 2⁵³).
fn int_float_cmp(i: i64, f: f64) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    // 2⁶³: every double in [-2⁶³, 2⁶³) truncates to an `i64` exactly.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f >= TWO_63 {
        return Ordering::Less;
    }
    if f < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    i.cmp(&(whole as i64))
        .then_with(|| 0.0.partial_cmp(&(f - whole)).unwrap_or(Ordering::Equal))
}

/// A per-field `$match` predicate over JSON values, compared through
/// `json_cmp` — the fragment of MongoDB's `$eq`/`$in`/`$gte`/`$lt` family
/// the mediator's predicate pushdown compiles to.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum DocPredicate {
    /// `{field: {$eq: v}}`.
    Eq(Value),
    /// `{field: {$in: [..]}}`. An empty set matches nothing.
    In(Vec<Value>),
    /// `{field: {$gt(e): min, $lt(e): max}}`; each bound is `(value,
    /// inclusive)`.
    Range {
        min: Option<(Value, bool)>,
        max: Option<(Value, bool)>,
    },
}

impl DocPredicate {
    /// Whether a field value satisfies the predicate.
    pub(crate) fn matches(&self, value: &Value) -> bool {
        use std::cmp::Ordering;
        match self {
            DocPredicate::Eq(v) => json_cmp(value, v) == Ordering::Equal,
            DocPredicate::In(vs) => vs.iter().any(|v| json_cmp(value, v) == Ordering::Equal),
            DocPredicate::Range { min, max } => {
                if let Some((v, inclusive)) = min {
                    match json_cmp(value, v) {
                        Ordering::Less => return false,
                        Ordering::Equal if !inclusive => return false,
                        _ => {}
                    }
                }
                if let Some((v, inclusive)) = max {
                    match json_cmp(value, v) {
                        Ordering::Greater => return false,
                        Ordering::Equal if !inclusive => return false,
                        _ => {}
                    }
                }
                true
            }
        }
    }
}

/// One projected output field.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Projection {
    /// The output field name (e.g. `VoDmonitorId`).
    pub name: String,
    /// The producing expression (e.g. `$monitorId`, or a `$divide`).
    pub expr: AggExpr,
}

impl Projection {
    /// `"out": "$path"` — rename/copy a field.
    pub fn field(name: impl Into<String>, path: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            expr: AggExpr::field(path),
        }
    }

    /// `"out": <computed expression>`.
    pub fn computed(name: impl Into<String>, expr: AggExpr) -> Self {
        Self {
            name: name.into(),
            expr,
        }
    }
}

/// A pipeline stage.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Stage {
    /// `$match` with field-equality predicates (conjunctive). Equality here
    /// is strict JSON equality and a missing field never matches — the
    /// historical wrapper-authored form, kept verbatim for persisted specs.
    Match(Vec<(String, Value)>),
    /// `$match` with [`DocPredicate`]s (conjunctive), compared through
    /// `json_cmp` with a missing field read as `Null` — the form predicate
    /// pushdown appends, mirroring the mediator's relational semantics.
    MatchPred(Vec<(String, DocPredicate)>),
    /// `$project` producing exactly the listed fields.
    Project(Vec<Projection>),
    /// `$limit`.
    Limit(usize),
}

/// An aggregation pipeline: an ordered list of stages.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Pipeline {
    pub stages: Vec<Stage>,
}

impl Pipeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a predicate `$match` conjunct (merged into a trailing
    /// [`Stage::MatchPred`] when one exists).
    pub fn match_pred(mut self, field: impl Into<String>, predicate: DocPredicate) -> Self {
        match self.stages.last_mut() {
            Some(Stage::MatchPred(preds)) => preds.push((field.into(), predicate)),
            _ => self
                .stages
                .push(Stage::MatchPred(vec![(field.into(), predicate)])),
        }
        self
    }

    pub fn project(mut self, projections: Vec<Projection>) -> Self {
        self.stages.push(Stage::Project(projections));
        self
    }

    pub fn limit(mut self, n: usize) -> Self {
        self.stages.push(Stage::Limit(n));
        self
    }

    /// Whether the pipeline emits exactly one output document per input
    /// document — true when no stage can drop or bound documents, i.e. the
    /// pipeline is `$project`-only. Wrappers use this to decide whether the
    /// backing collection's length is an *exact* scan-size hint (a `$match`
    /// or `$limit` makes it merely an upper bound, which disqualifies it
    /// from hint-driven join scheduling).
    pub fn preserves_doc_count(&self) -> bool {
        self.stages
            .iter()
            .all(|stage| matches!(stage, Stage::Project(_)))
    }

    /// Whether every stage decides each document on its own — true unless a
    /// `$limit` is present (`$match` and `$project` are per-document). For
    /// such a pipeline, running a collection's new suffix alone yields
    /// exactly what a full run would append to the earlier output, which is
    /// what lets a wrapper resume a scan after an append; a `$limit`'s
    /// budget depends on every document before it.
    pub fn is_record_local(&self) -> bool {
        !self
            .stages
            .iter()
            .any(|stage| matches!(stage, Stage::Limit(_)))
    }

    /// Runs the pipeline over a document set.
    pub(crate) fn run<'a, I>(&self, docs: I) -> Result<Vec<Value>, PipelineError>
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let mut limits = limit_budgets(&self.stages);
        apply_stages(
            &self.stages,
            &mut limits,
            docs.into_iter().cloned().collect(),
        )
    }

    /// Starts an incremental, batch-at-a-time run of the pipeline —
    /// [`PipelineRun::push_batch`] feeds document chunks through the same
    /// stages `Pipeline::run` applies eagerly, with `$limit` budgets
    /// carried across chunks, so concatenating the per-chunk outputs equals
    /// one eager run over the concatenated input. Takes the pipeline by
    /// value; callers batching a shared pipeline clone it once per run.
    pub fn start(self) -> PipelineRun {
        let limits = limit_budgets(&self.stages);
        PipelineRun {
            pipeline: self,
            limits,
        }
    }

    /// The output field names, when the final stage is a `$project`.
    pub fn output_fields(&self) -> Option<Vec<&str>> {
        match self.stages.last() {
            Some(Stage::Project(ps)) => Some(ps.iter().map(|p| p.name.as_str()).collect()),
            _ => None,
        }
    }
}

/// Per-stage remaining `$limit` budgets (`None` for non-limit stages).
fn limit_budgets(stages: &[Stage]) -> Vec<Option<usize>> {
    stages
        .iter()
        .map(|stage| match stage {
            Stage::Limit(n) => Some(*n),
            _ => None,
        })
        .collect()
}

/// One pass of a document set through the stages, decrementing `$limit`
/// budgets in `limits` (one per stage, as [`limit_budgets`] builds them) —
/// the shared core of the eager [`Pipeline::run`] and the chunked
/// [`PipelineRun`]. `$match` and `$project` are per-document
/// (stateless), so chunking cannot change their output; `$limit` is the one
/// stage whose state must span chunks.
fn apply_stages(
    stages: &[Stage],
    limits: &mut [Option<usize>],
    mut current: Vec<Value>,
) -> Result<Vec<Value>, PipelineError> {
    for (stage, limit) in stages.iter().zip(limits.iter_mut()) {
        current = match stage {
            Stage::Match(preds) => current
                .into_iter()
                .filter(|doc| {
                    preds
                        .iter()
                        .all(|(path, expected)| get_path(doc, path) == Some(expected))
                })
                .collect(),
            Stage::MatchPred(preds) => current
                .into_iter()
                .filter(|doc| {
                    preds.iter().all(|(path, predicate)| {
                        predicate.matches(get_path(doc, path).unwrap_or(&Value::Null))
                    })
                })
                .collect(),
            Stage::Project(projections) => {
                let mut out = Vec::with_capacity(current.len());
                for doc in &current {
                    let mut map = Map::with_capacity(projections.len());
                    for p in projections {
                        map.insert(p.name.clone(), p.expr.eval(doc)?);
                    }
                    out.push(Value::Object(map));
                }
                out
            }
            Stage::Limit(n) => {
                let budget = limit.get_or_insert(*n);
                current.truncate(*budget);
                *budget -= current.len();
                current
            }
        };
    }
    Ok(current)
}

/// An in-progress chunked pipeline run (see [`Pipeline::start`]).
#[derive(Debug, Clone)]
pub struct PipelineRun {
    pipeline: Pipeline,
    limits: Vec<Option<usize>>,
}

impl PipelineRun {
    /// Feeds the next chunk of input documents through the stages,
    /// returning that chunk's output documents.
    pub fn push_batch(&mut self, docs: Vec<Value>) -> Result<Vec<Value>, PipelineError> {
        apply_stages(&self.pipeline.stages, &mut self.limits, docs)
    }

    /// Whether some `$limit` budget has run out — no further input can
    /// produce output, so producers may stop pulling documents early.
    pub fn exhausted(&self) -> bool {
        self.limits.contains(&Some(0))
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
mod tests {
    use super::*;
    use serde_json::json;

    fn field(path: &str) -> Box<AggExpr> {
        Box::new(AggExpr::field(path))
    }

    /// The exact VoD document of Code 1.
    fn vod_doc() -> Value {
        json!({
            "monitorId": 12,
            "timestamp": 1475010424i64,
            "bitrate": 6,
            "waitTime": 3,
            "watchTime": 4
        })
    }

    /// The wrapper query of Code 2: rename monitorId → VoDmonitorId and
    /// compute lagRatio = waitTime / watchTime.
    fn code2_pipeline() -> Pipeline {
        Pipeline::new().project(vec![
            Projection::field("VoDmonitorId", "monitorId"),
            Projection::computed(
                "lagRatio",
                AggExpr::divide(AggExpr::field("waitTime"), AggExpr::field("watchTime")),
            ),
        ])
    }

    #[test]
    fn code2_projects_and_computes() {
        let docs = vec![vod_doc()];
        let out = code2_pipeline().run(&docs).unwrap();
        assert_eq!(out, vec![json!({"VoDmonitorId": 12, "lagRatio": 0.75})]);
    }

    #[test]
    fn missing_fields_become_null() {
        let docs = vec![json!({"monitorId": 9, "waitTime": 1})];
        let out = code2_pipeline().run(&docs).unwrap();
        assert_eq!(out[0]["lagRatio"], Value::Null);
    }

    #[test]
    fn match_filters_conjunctively() {
        let docs = vec![vod_doc(), json!({"monitorId": 18, "bitrate": 6})];
        let p = Pipeline {
            stages: vec![Stage::Match(vec![
                ("bitrate".into(), json!(6)),
                ("monitorId".into(), json!(12)),
            ])],
        };
        assert_eq!(p.run(&docs).unwrap().len(), 1);
    }

    #[test]
    fn limit_truncates() {
        let docs = vec![vod_doc(), vod_doc(), vod_doc()];
        let out = Pipeline::new().limit(2).run(&docs).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn divide_by_zero_is_an_error() {
        let docs = vec![json!({"a": 1, "b": 0})];
        let p = Pipeline::new().project(vec![Projection::computed(
            "r",
            AggExpr::divide(AggExpr::field("a"), AggExpr::field("b")),
        )]);
        assert!(matches!(p.run(&docs), Err(PipelineError::DivideByZero(_))));
    }

    #[test]
    fn arithmetic_preserves_integers() {
        let docs = vec![json!({"a": 2, "b": 3})];
        let p = Pipeline::new().project(vec![
            Projection::computed("sum", AggExpr::Add(field("a"), field("b"))),
            Projection::computed("prod", AggExpr::Multiply(field("a"), field("b"))),
        ]);
        let out = p.run(&docs).unwrap();
        assert_eq!(out[0], json!({"sum": 5, "prod": 6}));
    }

    #[test]
    fn concat_and_literal() {
        let docs = vec![json!({"name": "vod"})];
        let p = Pipeline::new().project(vec![Projection::computed(
            "tag",
            AggExpr::Concat(field("name"), Box::new(AggExpr::Literal(json!("-v2")))),
        )]);
        assert_eq!(p.run(&docs).unwrap()[0]["tag"], json!("vod-v2"));
    }

    #[test]
    fn non_numeric_arithmetic_is_an_error() {
        let docs = vec![json!({"a": "x", "b": 1})];
        let p = Pipeline::new().project(vec![Projection::computed(
            "r",
            AggExpr::Add(field("a"), field("b")),
        )]);
        assert!(matches!(
            p.run(&docs),
            Err(PipelineError::NonNumeric { .. })
        ));
    }

    #[test]
    fn match_pred_ranges_and_sets_follow_json_cmp() {
        let docs = vec![
            json!({"a": 1}),
            json!({"a": 2.0}),
            json!({"a": 3}),
            json!({"a": "x"}),
            json!({}),
        ];
        // Range [1, 3): matches 1 and 2.0 (cross-representation), not 3,
        // not the string (String > Number), not the missing field (Null).
        let p = Pipeline::new().match_pred(
            "a",
            DocPredicate::Range {
                min: Some((json!(1), true)),
                max: Some((json!(3), false)),
            },
        );
        assert_eq!(p.run(&docs).unwrap().len(), 2);
        // IN: the 2.0 document matches the integer member 2 (cross-
        // representation equality); the "x" document matches the string.
        let p = Pipeline::new().match_pred("a", DocPredicate::In(vec![json!(2), json!("x")]));
        assert_eq!(p.run(&docs).unwrap().len(), 2);
        // Empty IN matches nothing.
        let p = Pipeline::new().match_pred("a", DocPredicate::In(vec![]));
        assert!(p.run(&docs).unwrap().is_empty());
        // Eq(Null) matches the missing field, mirroring wrapper conversion.
        let p = Pipeline::new().match_pred("a", DocPredicate::Eq(Value::Null));
        assert_eq!(p.run(&docs).unwrap().len(), 1);
    }

    #[test]
    fn json_cmp_is_exact_for_large_integers() {
        use std::cmp::Ordering;
        let big = i64::MAX - 1;
        assert_eq!(json_cmp(&json!(big), &json!(big + 1)), Ordering::Less);
        assert_eq!(json_cmp(&json!(2), &json!(2.0)), Ordering::Equal);
        let two_53 = 1i64 << 53;
        assert_eq!(
            json_cmp(&json!(two_53), &json!(two_53 as f64)),
            Ordering::Equal
        );
        assert_eq!(
            json_cmp(&json!(two_53 as f64), &json!(two_53 + 1)),
            Ordering::Less
        );
        assert_eq!(json_cmp(&json!(-2.5), &json!(-2)), Ordering::Less);
        assert_eq!(json_cmp(&json!(null), &json!(false)), Ordering::Less);
        assert_eq!(json_cmp(&json!(true), &json!(0)), Ordering::Less);
        assert_eq!(json_cmp(&json!(1e300), &json!("")), Ordering::Less);
    }

    #[test]
    fn chunked_run_equals_eager_run() {
        // $match + $project + $limit over 7 docs, pushed through in chunks
        // of every size: concatenated chunk outputs must equal one eager
        // run — $limit budgets span chunks.
        let docs: Vec<Value> = (0..7)
            .map(|i| {
                let b = i * 10;
                json!({"a": i, "b": b})
            })
            .collect();
        let pipeline = Pipeline::new()
            .match_pred(
                "a",
                DocPredicate::Range {
                    min: Some((json!(1), true)),
                    max: None,
                },
            )
            .limit(3)
            .project(vec![Projection::field("b", "b")]);
        let eager = pipeline.run(&docs).unwrap();
        assert_eq!(eager.len(), 3);
        for chunk_size in [1usize, 2, 7] {
            let mut run = pipeline.clone().start();
            let mut out = Vec::new();
            for chunk in docs.chunks(chunk_size) {
                if run.exhausted() {
                    break;
                }
                out.extend(run.push_batch(chunk.to_vec()).unwrap());
            }
            assert_eq!(out, eager, "chunk_size={chunk_size}");
        }
        // Exhaustion: after the limit budget drains, no input can produce
        // output, and the producer is told to stop pulling.
        let mut run = pipeline.start();
        run.push_batch(docs.clone()).unwrap();
        assert!(run.exhausted());
        assert!(run.push_batch(docs).unwrap().is_empty());
    }

    #[test]
    fn output_fields_reports_projection() {
        assert_eq!(
            code2_pipeline().output_fields(),
            Some(vec!["VoDmonitorId", "lagRatio"])
        );
        assert_eq!(Pipeline::new().output_fields(), None);
    }
}
