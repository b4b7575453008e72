//! The query op: JSON request body → [`AnswerRequest`] →
//! [`BdiSystem::serve`] → JSON answer.
//!
//! Request body shape (exactly one of `sparql` / `omq` required; all other
//! fields optional):
//!
//! ```json
//! {
//!   "sparql": "PREFIX ... SELECT ...",
//!   "omq": {"pi": ["iri", …], "phi": [["s", "p", "o"], …]},
//!   "scope": "all" | "latest" | {"up_to_release": 2} | {"only": ["w1"]},
//!   "deadline_ms": 250,
//!   "max_rows": 1000,
//!   "on_source_failure": "fail" | "degrade"
//! }
//! ```

use crate::ServerConfig;
use bdi_core::durable::DurableError;
use bdi_core::exec::{ExecError, ExecOptions, SourceFailurePolicy};
use bdi_core::omq::Omq;
use bdi_core::system::{Answer, AnswerRequest, BdiSystem, SystemError, VersionScope};
use bdi_rdf::model::{Iri, Triple};
use bdi_relational::plan::PlanError;
use bdi_relational::Value as RelValue;
use bdi_wrappers::spec::value_to_json;
use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::time::Duration;

/// Executes one `POST /query` body; returns `(status, JSON body)`.
pub fn query(system: &BdiSystem, config: &ServerConfig, body: &[u8]) -> (u16, String) {
    let request = match parse_body(config, body) {
        Ok(request) => request,
        Err(message) => return (400, json!({"error": message}).to_string()),
    };
    match system.serve(request) {
        Ok(answer) => (200, render_answer(&answer).to_string()),
        Err(error) => {
            let status = status_of(&error);
            (status, json!({"error": (error.to_string())}).to_string())
        }
    }
}

/// HTTP status for a failed serve: client errors (unparsable or ill-posed
/// queries) are 400, an expired per-request deadline is 504, anything else
/// — a genuine execution failure — is 500.
fn status_of(error: &SystemError) -> u16 {
    match error {
        SystemError::Omq(_) | SystemError::Rewrite(_) => 400,
        SystemError::Exec(ExecError::Plan(PlanError::DeadlineExceeded)) => 504,
        SystemError::Exec(ExecError::EmptyProjection | ExecError::MissingFeature { .. }) => 400,
        _ => 500,
    }
}

fn parse_body(config: &ServerConfig, body: &[u8]) -> Result<AnswerRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let value: Value =
        serde_json::from_str(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let object = value.as_object().ok_or("body must be a JSON object")?;
    for (key, _) in object.iter() {
        if !matches!(
            key.as_str(),
            "sparql" | "omq" | "scope" | "deadline_ms" | "max_rows" | "on_source_failure"
        ) {
            return Err(format!("unknown field {key:?}"));
        }
    }

    let mut request = match (object.get("sparql"), object.get("omq")) {
        (Some(_), Some(_)) => return Err("give either \"sparql\" or \"omq\", not both".to_owned()),
        (Some(sparql), None) => {
            let text = sparql.as_str().ok_or("\"sparql\" must be a string")?;
            AnswerRequest::sparql(text)
        }
        (None, Some(omq)) => AnswerRequest::omq(parse_omq(omq)?),
        (None, None) => return Err("body needs a \"sparql\" or \"omq\" query".to_owned()),
    };

    if let Some(scope) = object.get("scope") {
        request = request.scope(parse_scope(scope)?);
    }

    let mut options = ExecOptions::default();
    if let Some(policy) = object.get("on_source_failure") {
        options.on_source_failure = match policy.as_str() {
            Some("fail") => SourceFailurePolicy::Fail,
            Some("degrade") => SourceFailurePolicy::Degrade,
            _ => return Err("\"on_source_failure\" must be \"fail\" or \"degrade\"".to_owned()),
        };
    }
    request = request.options(options);

    match object.get("deadline_ms") {
        Some(ms) => {
            let ms = ms
                .as_u64()
                .ok_or("\"deadline_ms\" must be a non-negative integer")?;
            request = request.deadline(Duration::from_millis(ms));
        }
        None => {
            if let Some(default) = config.default_deadline {
                request = request.deadline(default);
            }
        }
    }

    let requested_rows = match object.get("max_rows") {
        Some(n) => Some(
            usize::try_from(
                n.as_u64()
                    .ok_or("\"max_rows\" must be a non-negative integer")?,
            )
            .map_err(|_| "\"max_rows\" out of range".to_owned())?,
        ),
        None => None,
    };
    let max_rows = match (requested_rows, config.max_rows_ceiling) {
        (Some(n), Some(ceiling)) => Some(n.min(ceiling)),
        (Some(n), None) => Some(n),
        (None, ceiling) => ceiling,
    };
    if let Some(limit) = max_rows {
        request = request.max_rows(limit);
    }

    Ok(request)
}

/// `{"pi": ["iri", …], "phi": [["s", "p", "o"], …]}` — every term an IRI
/// (OMQs are constant graph patterns over the ontology's concepts and
/// features).
fn parse_omq(value: &Value) -> Result<Omq, String> {
    let object = value.as_object().ok_or("\"omq\" must be an object")?;
    let pi = object
        .get("pi")
        .and_then(Value::as_array)
        .ok_or("\"omq.pi\" must be an array of IRI strings")?
        .iter()
        .map(|v| iri(v, "\"omq.pi\" entries must be IRI strings"))
        .collect::<Result<Vec<_>, _>>()?;
    let phi = object
        .get("phi")
        .and_then(Value::as_array)
        .ok_or("\"omq.phi\" must be an array of [s, p, o] triples")?
        .iter()
        .map(|triple| {
            let terms = triple
                .as_array()
                .ok_or("\"omq.phi\" entries must be [s, p, o] arrays")?;
            let [s, p, o] = terms.as_slice() else {
                return Err("\"omq.phi\" entries must be [s, p, o] arrays".to_owned());
            };
            let term = |t| iri(t, "\"omq.phi\" terms must be IRI strings");
            Ok::<_, String>(Triple::new(term(s)?, term(p)?, term(o)?))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Omq::new(pi, phi))
}

/// A JSON string that is a valid IRI; `expected` names the field otherwise.
fn iri(value: &Value, expected: &str) -> Result<Iri, String> {
    let text = value.as_str().ok_or(expected)?;
    Iri::try_new(text).map_err(|e| format!("{expected}: {e}"))
}

fn parse_scope(value: &Value) -> Result<VersionScope, String> {
    if let Some(name) = value.as_str() {
        return match name {
            "all" => Ok(VersionScope::All),
            "latest" => Ok(VersionScope::Latest),
            other => Err(format!("unknown scope {other:?}")),
        };
    }
    if let Some(object) = value.as_object() {
        if let Some(n) = object.get("up_to_release") {
            let n = n.as_u64().ok_or("\"up_to_release\" must be an integer")?;
            return Ok(VersionScope::UpToRelease(n as usize));
        }
        if let Some(names) = object.get("only").and_then(Value::as_array) {
            let names: BTreeSet<String> = names
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_owned)
                        .ok_or("\"only\" entries must be strings".to_owned())
                })
                .collect::<Result<_, _>>()?;
            return Ok(VersionScope::Only(names));
        }
    }
    Err(
        "scope must be \"all\", \"latest\", {\"up_to_release\": n} or {\"only\": [names]}"
            .to_owned(),
    )
}

fn render_answer(answer: &Answer) -> Value {
    let columns: Vec<Value> = answer
        .relation
        .schema()
        .attributes()
        .iter()
        .map(|a| Value::from(a.name()))
        .collect();
    let rows: Vec<Value> = answer
        .relation
        .rows()
        .iter()
        .map(|row| Value::Array(row.iter().map(render_value).collect()))
        .collect();
    let plan_notes: Vec<Value> = answer
        .plan_notes
        .iter()
        .map(|note| {
            json!({
                "walk": (note.walk),
                "cost_based": (note.cost_based),
                "join_order": (note.join_order.clone()),
                "estimated_rows": (opt_u64(note.estimated_rows)),
                "actual_rows": (opt_u64(note.actual_rows)),
            })
        })
        .collect();
    let source_failures: Vec<Value> = answer
        .source_failures
        .iter()
        .map(|failure| {
            json!({
                "wrapper": (failure.wrapper.clone()),
                "transient": (failure.transient),
                "cause": (failure.cause.clone()),
                "walks_dropped": (failure.walks_dropped),
            })
        })
        .collect();
    json!({
        "columns": (Value::Array(columns)),
        "rows": (Value::Array(rows)),
        "row_count": (answer.relation.len()),
        "truncated": (answer.truncated),
        "walks": (answer.walk_exprs.clone()),
        "plan_notes": (Value::Array(plan_notes)),
        "source_failures": (Value::Array(source_failures)),
    })
}

fn opt_u64(value: Option<u64>) -> Value {
    value.map(|v| Value::from(v as i64)).unwrap_or(Value::Null)
}

/// A relational value as JSON; non-finite floats (unrepresentable in JSON
/// numbers) fall back to their string rendering.
fn render_value(value: &RelValue) -> Value {
    value_to_json(value).unwrap_or_else(|| Value::from(value.to_string()))
}

/// Executes `POST /checkpoint`: 404 without a journal, 500 when the
/// checkpoint fails (which poisons the journal).
pub(crate) fn checkpoint(system: &BdiSystem) -> (u16, String) {
    match system.checkpoint() {
        Ok(seq) => (200, json!({"checkpointed_seq": (seq)}).to_string()),
        Err(DurableError::NoJournal) => (
            404,
            json!({"error": "no journal; start the server with --data-dir"}).to_string(),
        ),
        Err(error) => (500, json!({"error": (error.to_string())}).to_string()),
    }
}
