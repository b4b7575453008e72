//! Serializable wrapper definitions.
//!
//! The MDM persists its deployment (the paper's tool used Jena TDB); to
//! reload a deployment the wrapper *definitions* — not just their data —
//! must survive. A [`WrapperSpec`] is the JSON-serializable description of
//! a wrapper; [`WrapperSpec::instantiate`] rebuilds the live wrapper over a
//! [`DocStore`].
//!
//! It handles bytes from outside (snapshot files, the durable tier's log),
//! so it may not panic: the server crate's six clippy denies hold here.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::json_wrapper::JsonWrapper;
use crate::table_wrapper::TableWrapper;
use crate::wrapper::{Wrapper, WrapperError};
use bdi_docstore::{DocStore, Pipeline};
use bdi_relational::{Schema, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A self-contained, serializable wrapper definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WrapperSpec {
    /// A [`JsonWrapper`]: an aggregation pipeline over one collection.
    Json {
        name: String,
        source: String,
        id_attributes: Vec<String>,
        non_id_attributes: Vec<String>,
        collection: String,
        pipeline: Pipeline,
    },
    /// A [`TableWrapper`]: schema plus inline rows (scalar JSON values).
    Table {
        name: String,
        source: String,
        id_attributes: Vec<String>,
        non_id_attributes: Vec<String>,
        rows: Vec<Vec<serde_json::Value>>,
    },
}

impl WrapperSpec {
    /// The wrapper's name.
    pub fn name(&self) -> &str {
        match self {
            WrapperSpec::Json { name, .. } | WrapperSpec::Table { name, .. } => name,
        }
    }

    /// Builds the live wrapper. JSON wrappers attach to `store`.
    pub fn instantiate(&self, store: &DocStore) -> Result<Arc<dyn Wrapper>, WrapperError> {
        match self {
            WrapperSpec::Json {
                name,
                source,
                id_attributes,
                non_id_attributes,
                collection,
                pipeline,
            } => {
                let schema = Schema::from_parts(id_attributes, non_id_attributes)
                    .map_err(bdi_relational::RelationError::Schema)?;
                Ok(Arc::new(JsonWrapper::new(
                    name,
                    source,
                    schema,
                    store.clone(),
                    collection,
                    pipeline.clone(),
                )?))
            }
            WrapperSpec::Table {
                name,
                source,
                id_attributes,
                non_id_attributes,
                rows,
            } => {
                let schema = Schema::from_parts(id_attributes, non_id_attributes)
                    .map_err(bdi_relational::RelationError::Schema)?;
                let rows: Vec<Vec<Value>> = rows
                    .iter()
                    .map(|row| row.iter().map(json_to_value).collect())
                    .collect();
                Ok(Arc::new(TableWrapper::new(name, source, schema, rows)?))
            }
        }
    }
}

/// Decodes a JSON value into a relational [`Value`] — the inverse of
/// [`value_to_json`] (lossy only for JSON arrays/objects, which become
/// their string rendering). Public because the durability layer encodes
/// journaled table rows through the same JSON mapping the specs use.
pub fn json_to_value(v: &serde_json::Value) -> Value {
    match v {
        serde_json::Value::Null => Value::Null,
        serde_json::Value::Bool(b) => Value::Bool(*b),
        serde_json::Value::Number(n) => n
            .as_i64()
            .map(Value::Int)
            .unwrap_or_else(|| Value::Float(n.as_f64().unwrap_or(f64::NAN))),
        serde_json::Value::String(s) => Value::Str(s.clone()),
        other => Value::Str(other.to_string()),
    }
}

/// Encodes a relational [`Value`] as JSON — see [`json_to_value`] — or
/// `None` when JSON cannot represent it (NaN and infinite floats: JSON
/// numbers are finite). Each caller decides what an unrepresentable value
/// means for it: a row capture refuses ([`row_to_json`]), a pushdown
/// declines, an answer renders it as text.
pub fn value_to_json(v: &Value) -> Option<serde_json::Value> {
    Some(match v {
        Value::Null => serde_json::Value::Null,
        Value::Bool(b) => serde_json::Value::Bool(*b),
        Value::Int(i) => serde_json::Value::Number((*i).into()),
        Value::Float(f) => serde_json::Value::Number(serde_json::Number::from_f64(*f)?),
        Value::Str(s) => serde_json::Value::String(s.clone()),
    })
}

/// Encodes one row of `wrapper` as JSON for a snapshot image or the
/// journal, refusing a value JSON cannot represent with an error naming
/// its attribute: written as `null`, it would come back as a different
/// value.
pub fn row_to_json(
    wrapper: &str,
    schema: &Schema,
    row: &[Value],
) -> Result<Vec<serde_json::Value>, WrapperError> {
    // Sized up front: a snapshot image holds every row at once.
    let mut json = Vec::with_capacity(row.len());
    for (value, attribute) in row.iter().zip(schema.attributes()) {
        let Some(value) = value_to_json(value) else {
            return Err(WrapperError::UnsupportedShape {
                wrapper: wrapper.to_owned(),
                attribute: attribute.name().to_owned(),
            });
        };
        json.push(value);
    }
    Ok(json)
}

impl JsonWrapper {
    /// This wrapper's serializable definition.
    pub(crate) fn spec(&self) -> WrapperSpec {
        WrapperSpec::Json {
            name: self.name().to_owned(),
            source: self.source().to_owned(),
            id_attributes: self
                .schema()
                .id_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            non_id_attributes: self
                .schema()
                .non_id_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            collection: self.collection().to_owned(),
            pipeline: self.pipeline().clone(),
        }
    }
}

impl TableWrapper {
    /// This wrapper's serializable definition (rows inlined).
    pub(crate) fn spec(&self) -> Result<WrapperSpec, WrapperError> {
        let relation = self.scan()?;
        Ok(WrapperSpec::Table {
            name: self.name().to_owned(),
            source: self.source().to_owned(),
            id_attributes: self
                .schema()
                .id_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            non_id_attributes: self
                .schema()
                .non_id_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows: relation
                .rows()
                .iter()
                .map(|row| row_to_json(self.name(), self.schema(), row))
                .collect::<Result<_, _>>()?,
        })
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
    use crate::supersede;

    #[test]
    fn json_wrapper_spec_round_trips() {
        let store = supersede::sample_docstore();
        let w1 = supersede::wrapper_w1(store.clone());
        let spec = w1.spec();

        let serialized = serde_json::to_string_pretty(&spec).unwrap();
        let parsed: WrapperSpec = serde_json::from_str(&serialized).unwrap();
        assert_eq!(parsed, spec);

        let rebuilt = parsed.instantiate(&store).unwrap();
        assert_eq!(rebuilt.name(), "w1");
        assert_eq!(rebuilt.scan().unwrap(), w1.scan().unwrap());
    }

    #[test]
    fn table_wrapper_spec_round_trips() {
        let w = TableWrapper::new(
            "t1",
            "D",
            Schema::from_parts(&["id"], &["x"]).unwrap(),
            vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Null],
            ],
        )
        .unwrap();
        let spec = w.spec().unwrap();
        let rebuilt = spec.instantiate(&DocStore::new()).unwrap();
        assert_eq!(rebuilt.scan().unwrap(), w.scan().unwrap());
    }

    #[test]
    fn invalid_spec_is_rejected_at_instantiation() {
        let spec = WrapperSpec::Json {
            name: "bad".into(),
            source: "D".into(),
            id_attributes: vec!["a".into()],
            non_id_attributes: vec!["a".into()], // duplicate
            collection: "c".into(),
            pipeline: Pipeline::new(),
        };
        assert!(spec.instantiate(&DocStore::new()).is_err());
    }
}
