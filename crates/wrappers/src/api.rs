//! A versioned REST API simulator.
//!
//! The paper ingests from third-party REST APIs (Twitter, VoD monitors,
//! Wordpress) whose response schemas evolve release by release. We have no
//! live feeds, so this module simulates the equivalent: **endpoints** with a
//! list of **versioned response schemas**, a deterministic JSON event
//! generator, and schema diffing between versions. Everything downstream
//! (ontology releases, evolution classification, the Figure 11 growth study)
//! consumes these versions exactly as it would consume real API releases.

use crate::json_wrapper::JsonWrapper;
use crate::wrapper::WrapperError;
use bdi_docstore::{DocStore, Pipeline, Projection};
use bdi_relational::{Attribute, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum ApiError {
    #[error("unknown endpoint: {api}/{method}")]
    UnknownEndpoint { api: String, method: String },
    #[error("unknown version {version} of {api}/{method}")]
    UnknownVersion {
        api: String,
        method: String,
        version: String,
    },
    #[error("version {0} already registered")]
    DuplicateVersion(String),
    #[error("field {0} already exists")]
    DuplicateField(String),
    #[error("field {0} does not exist")]
    UnknownField(String),
    #[error(transparent)]
    Wrapper(#[from] WrapperError),
}

/// The JSON shape of one response field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldKind {
    /// Integer drawn from `[min, max]`.
    Int {
        min: i64,
        max: i64,
    },
    /// Double in `[0, 1)` scaled by `scale`.
    Float {
        scale: u32,
    },
    /// Short string with this prefix plus a counter.
    Str {
        prefix: &'static str,
    },
    Bool,
    /// Unix-epoch seconds.
    Timestamp,
}

/// A named response field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    pub name: String,
    pub kind: FieldKind,
    /// Whether the ontology layer should treat this as an ID attribute.
    pub is_id: bool,
}

impl FieldSpec {
    pub fn id(name: impl Into<String>, kind: FieldKind) -> Self {
        Self {
            name: name.into(),
            kind,
            is_id: true,
        }
    }

    pub fn data(name: impl Into<String>, kind: FieldKind) -> Self {
        Self {
            name: name.into(),
            kind,
            is_id: false,
        }
    }
}

/// One released response schema of an endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionSchema {
    pub version: String,
    pub fields: Vec<FieldSpec>,
    /// Rename provenance: `(old_name, new_name)` pairs relative to the
    /// previous version — real changelogs state renames explicitly, and the
    /// evolution classifier needs them distinguished from add+delete.
    pub renames: Vec<(String, String)>,
}

impl VersionSchema {
    pub fn new(version: impl Into<String>, fields: Vec<FieldSpec>) -> Self {
        Self {
            version: version.into(),
            fields,
            renames: Vec::new(),
        }
    }

    /// Derives the next version by applying field operations.
    pub fn evolve(&self, version: impl Into<String>) -> VersionBuilder {
        VersionBuilder {
            schema: VersionSchema {
                version: version.into(),
                fields: self.fields.clone(),
                renames: Vec::new(),
            },
        }
    }

    pub(crate) fn field(&self, name: &str) -> Option<&FieldSpec> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// The relational schema a full-projection wrapper over this version
    /// exposes.
    pub fn relational_schema(&self) -> Schema {
        let attrs: Vec<Attribute> = self
            .fields
            .iter()
            .map(|f| {
                if f.is_id {
                    Attribute::id(&f.name)
                } else {
                    Attribute::non_id(&f.name)
                }
            })
            .collect();
        Schema::new(attrs).expect("field names are unique by construction")
    }
}

/// Builder applying add/remove/rename/retype operations to derive a release.
#[derive(Debug, Clone)]
pub struct VersionBuilder {
    schema: VersionSchema,
}

#[allow(clippy::should_implement_trait)] // add/remove/rename mirror changelog verbs
impl VersionBuilder {
    pub fn add(mut self, field: FieldSpec) -> Result<Self, ApiError> {
        if self.schema.field(&field.name).is_some() {
            return Err(ApiError::DuplicateField(field.name));
        }
        self.schema.fields.push(field);
        Ok(self)
    }

    pub fn remove(mut self, name: &str) -> Result<Self, ApiError> {
        let before = self.schema.fields.len();
        self.schema.fields.retain(|f| f.name != name);
        if self.schema.fields.len() == before {
            return Err(ApiError::UnknownField(name.to_owned()));
        }
        Ok(self)
    }

    pub fn rename(mut self, from: &str, to: &str) -> Result<Self, ApiError> {
        if self.schema.field(to).is_some() {
            return Err(ApiError::DuplicateField(to.to_owned()));
        }
        let field = self
            .schema
            .fields
            .iter_mut()
            .find(|f| f.name == from)
            .ok_or_else(|| ApiError::UnknownField(from.to_owned()))?;
        field.name = to.to_owned();
        self.schema.renames.push((from.to_owned(), to.to_owned()));
        Ok(self)
    }

    pub fn retype(mut self, name: &str, kind: FieldKind) -> Result<Self, ApiError> {
        let field = self
            .schema
            .fields
            .iter_mut()
            .find(|f| f.name == name)
            .ok_or_else(|| ApiError::UnknownField(name.to_owned()))?;
        field.kind = kind;
        Ok(self)
    }

    pub fn build(self) -> VersionSchema {
        self.schema
    }
}

/// A structural delta between two consecutive versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaDelta {
    AddField(FieldSpec),
    DeleteField(String),
    RenameField {
        from: String,
        to: String,
    },
    RetypeField {
        name: String,
        from: FieldKind,
        to: FieldKind,
    },
}

/// Computes the delta `from → to`, honouring `to`'s rename provenance.
pub fn diff_versions(from: &VersionSchema, to: &VersionSchema) -> Vec<SchemaDelta> {
    let mut deltas = Vec::new();
    let renamed_old: Vec<&str> = to.renames.iter().map(|(o, _)| o.as_str()).collect();
    let renamed_new: Vec<&str> = to.renames.iter().map(|(_, n)| n.as_str()).collect();

    for (old, new) in &to.renames {
        deltas.push(SchemaDelta::RenameField {
            from: old.clone(),
            to: new.clone(),
        });
        // A rename may come with a retype.
        if let (Some(f_old), Some(f_new)) = (from.field(old), to.field(new)) {
            if f_old.kind != f_new.kind {
                deltas.push(SchemaDelta::RetypeField {
                    name: new.clone(),
                    from: f_old.kind.clone(),
                    to: f_new.kind.clone(),
                });
            }
        }
    }
    for f in &to.fields {
        if renamed_new.contains(&f.name.as_str()) {
            continue;
        }
        match from.field(&f.name) {
            None => deltas.push(SchemaDelta::AddField(f.clone())),
            Some(old) if old.kind != f.kind => deltas.push(SchemaDelta::RetypeField {
                name: f.name.clone(),
                from: old.kind.clone(),
                to: f.kind.clone(),
            }),
            Some(_) => {}
        }
    }
    for f in &from.fields {
        if renamed_old.contains(&f.name.as_str()) {
            continue;
        }
        if to.field(&f.name).is_none() {
            deltas.push(SchemaDelta::DeleteField(f.name.clone()));
        }
    }
    deltas
}

/// A REST endpoint (the paper treats each method as an `S:DataSource`).
#[derive(Debug, Clone)]
pub struct Endpoint {
    pub api: String,
    pub method: String,
    pub versions: Vec<VersionSchema>,
}

impl Endpoint {
    pub(crate) fn new(api: impl Into<String>, method: impl Into<String>) -> Self {
        Self {
            api: api.into(),
            method: method.into(),
            versions: Vec::new(),
        }
    }

    /// The docstore collection holding one version's events.
    pub(crate) fn collection(&self, version: &str) -> String {
        format!("{}/{}/{}", self.api, self.method, version)
    }

    pub fn version(&self, version: &str) -> Option<&VersionSchema> {
        self.versions.iter().find(|v| v.version == version)
    }
}

/// The simulator: endpoints + a backing [`DocStore`] of generated events.
#[derive(Debug, Default, Clone)]
pub struct ApiSimulator {
    store: DocStore,
    endpoints: BTreeMap<(String, String), Endpoint>,
}

impl ApiSimulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new endpoint (no versions yet).
    pub fn add_endpoint(&mut self, api: &str, method: &str) {
        self.endpoints
            .entry((api.to_owned(), method.to_owned()))
            .or_insert_with(|| Endpoint::new(api, method));
    }

    /// Publishes a new version of an endpoint's response schema.
    pub fn release(
        &mut self,
        api: &str,
        method: &str,
        schema: VersionSchema,
    ) -> Result<(), ApiError> {
        let endpoint = self
            .endpoints
            .get_mut(&(api.to_owned(), method.to_owned()))
            .ok_or_else(|| ApiError::UnknownEndpoint {
                api: api.to_owned(),
                method: method.to_owned(),
            })?;
        if endpoint.version(&schema.version).is_some() {
            return Err(ApiError::DuplicateVersion(schema.version));
        }
        endpoint.versions.push(schema);
        Ok(())
    }

    pub fn endpoint(&self, api: &str, method: &str) -> Option<&Endpoint> {
        self.endpoints.get(&(api.to_owned(), method.to_owned()))
    }

    /// Generates `count` deterministic events for a version (seeded), storing
    /// them in the version's collection. Returns how many were written.
    pub fn ingest(
        &self,
        api: &str,
        method: &str,
        version: &str,
        count: usize,
        seed: u64,
    ) -> Result<usize, ApiError> {
        let endpoint = self
            .endpoint(api, method)
            .ok_or_else(|| ApiError::UnknownEndpoint {
                api: api.to_owned(),
                method: method.to_owned(),
            })?;
        let schema = endpoint
            .version(version)
            .ok_or_else(|| ApiError::UnknownVersion {
                api: api.to_owned(),
                method: method.to_owned(),
                version: version.to_owned(),
            })?;
        let collection = endpoint.collection(version);
        let mut rng = StdRng::seed_from_u64(seed);
        let docs: Vec<Value> = (0..count)
            .map(|i| generate_doc(schema, &mut rng, i))
            .collect();
        self.store.insert_many(&collection, docs).map_err(|e| {
            ApiError::Wrapper(WrapperError::permanent(collection.clone(), e.to_string()))
        })
    }

    /// Builds a full-projection [`JsonWrapper`] over one version — the
    /// "define a new wrapper providing all attributes for each release"
    /// assumption of §6.4.
    pub fn wrapper_for(
        &self,
        api: &str,
        method: &str,
        version: &str,
        wrapper_name: &str,
    ) -> Result<JsonWrapper, ApiError> {
        let endpoint = self
            .endpoint(api, method)
            .ok_or_else(|| ApiError::UnknownEndpoint {
                api: api.to_owned(),
                method: method.to_owned(),
            })?;
        let schema = endpoint
            .version(version)
            .ok_or_else(|| ApiError::UnknownVersion {
                api: api.to_owned(),
                method: method.to_owned(),
                version: version.to_owned(),
            })?;
        let fields: Vec<&str> = schema.fields.iter().map(|f| f.name.as_str()).collect();
        self.wrapper_for_projection(api, method, version, wrapper_name, &fields)
    }

    /// Builds a [`JsonWrapper`] over one version that exposes **only** the
    /// requested fields — the wrapper-side half of the projection-pushdown
    /// contract: the aggregation pipeline projects nothing but `fields`, so
    /// the exposed relation (and every scan of it) never carries unused
    /// attributes. Field order is preserved; ID flags come from the version
    /// schema.
    pub(crate) fn wrapper_for_projection(
        &self,
        api: &str,
        method: &str,
        version: &str,
        wrapper_name: &str,
        fields: &[&str],
    ) -> Result<JsonWrapper, ApiError> {
        let endpoint = self
            .endpoint(api, method)
            .ok_or_else(|| ApiError::UnknownEndpoint {
                api: api.to_owned(),
                method: method.to_owned(),
            })?;
        let schema = endpoint
            .version(version)
            .ok_or_else(|| ApiError::UnknownVersion {
                api: api.to_owned(),
                method: method.to_owned(),
                version: version.to_owned(),
            })?;
        let mut attrs = Vec::with_capacity(fields.len());
        for name in fields {
            let field = schema
                .field(name)
                .ok_or_else(|| ApiError::UnknownField((*name).to_owned()))?;
            attrs.push(if field.is_id {
                Attribute::id(&field.name)
            } else {
                Attribute::non_id(&field.name)
            });
        }
        let relational_schema = Schema::new(attrs).expect("field names are unique by construction");
        let pipeline =
            Pipeline::new().project(fields.iter().map(|f| Projection::field(*f, *f)).collect());
        Ok(JsonWrapper::new(
            wrapper_name,
            &endpoint.api,
            relational_schema,
            self.store.clone(),
            endpoint.collection(version),
            pipeline,
        )?)
    }
}

fn generate_doc(schema: &VersionSchema, rng: &mut StdRng, ordinal: usize) -> Value {
    let mut map = serde_json::Map::with_capacity(schema.fields.len());
    for field in &schema.fields {
        let value = match &field.kind {
            FieldKind::Int { min, max } => json!(rng.gen_range(*min..=*max)),
            FieldKind::Float { scale } => {
                json!((rng.gen::<f64>() * f64::from(*scale) * 1000.0).round() / 1000.0)
            }
            FieldKind::Str { prefix } => json!(format!("{prefix}-{ordinal}")),
            FieldKind::Bool => json!(rng.gen::<bool>()),
            FieldKind::Timestamp => json!(1_475_000_000i64 + rng.gen_range(0..10_000_000i64)),
        };
        map.insert(field.name.clone(), value);
    }
    Value::Object(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::Wrapper;

    fn vod_v1() -> VersionSchema {
        VersionSchema::new(
            "v1",
            vec![
                FieldSpec::id("monitorId", FieldKind::Int { min: 1, max: 20 }),
                FieldSpec::data("timestamp", FieldKind::Timestamp),
                FieldSpec::data("bitrate", FieldKind::Int { min: 1, max: 12 }),
                FieldSpec::data("waitTime", FieldKind::Int { min: 0, max: 10 }),
                FieldSpec::data("watchTime", FieldKind::Int { min: 1, max: 100 }),
            ],
        )
    }

    #[test]
    fn release_and_ingest_generate_documents() {
        let mut sim = ApiSimulator::new();
        sim.add_endpoint("vod", "GET/events");
        sim.release("vod", "GET/events", vod_v1()).unwrap();
        let n = sim.ingest("vod", "GET/events", "v1", 10, 42).unwrap();
        assert_eq!(n, 10);
        assert_eq!(sim.store.count("vod/GET/events/v1"), 10);
    }

    #[test]
    fn ingest_is_deterministic_per_seed() {
        let mut sim_a = ApiSimulator::new();
        sim_a.add_endpoint("vod", "m");
        sim_a.release("vod", "m", vod_v1()).unwrap();
        sim_a.ingest("vod", "m", "v1", 5, 7).unwrap();

        let mut sim_b = ApiSimulator::new();
        sim_b.add_endpoint("vod", "m");
        sim_b.release("vod", "m", vod_v1()).unwrap();
        sim_b.ingest("vod", "m", "v1", 5, 7).unwrap();

        let a = sim_a.store.aggregate("vod/m/v1", &Pipeline::new()).unwrap();
        let b = sim_b.store.aggregate("vod/m/v1", &Pipeline::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wrapper_for_exposes_full_projection() {
        let mut sim = ApiSimulator::new();
        sim.add_endpoint("vod", "m");
        sim.release("vod", "m", vod_v1()).unwrap();
        sim.ingest("vod", "m", "v1", 3, 1).unwrap();
        let w = sim.wrapper_for("vod", "m", "v1", "w_v1").unwrap();
        assert_eq!(w.schema().len(), 5);
        assert_eq!(w.schema().id_names(), vec!["monitorId"]);
        assert_eq!(w.scan().unwrap().len(), 3);
    }

    #[test]
    fn wrapper_for_projection_exposes_only_requested_fields() {
        let mut sim = ApiSimulator::new();
        sim.add_endpoint("vod", "m");
        sim.release("vod", "m", vod_v1()).unwrap();
        sim.ingest("vod", "m", "v1", 3, 1).unwrap();
        let w = sim
            .wrapper_for_projection("vod", "m", "v1", "w_narrow", &["monitorId", "bitrate"])
            .unwrap();
        assert_eq!(w.schema().names(), vec!["monitorId", "bitrate"]);
        assert_eq!(w.schema().id_names(), vec!["monitorId"]);
        assert_eq!(w.scan().unwrap().len(), 3);
        assert!(matches!(
            sim.wrapper_for_projection("vod", "m", "v1", "w_bad", &["zz"]),
            Err(ApiError::UnknownField(_))
        ));
    }

    #[test]
    fn evolve_builder_applies_operations() {
        let v2 = vod_v1()
            .evolve("v2")
            .rename("waitTime", "bufferTime")
            .unwrap()
            .remove("bitrate")
            .unwrap()
            .add(FieldSpec::data(
                "resolution",
                FieldKind::Str { prefix: "r" },
            ))
            .unwrap()
            .build();
        assert!(v2.field("bufferTime").is_some());
        assert!(v2.field("waitTime").is_none());
        assert!(v2.field("bitrate").is_none());
        assert!(v2.field("resolution").is_some());
        assert_eq!(
            v2.renames,
            vec![("waitTime".to_owned(), "bufferTime".to_owned())]
        );
    }

    #[test]
    fn diff_detects_all_delta_kinds() {
        let v1 = vod_v1();
        let v2 = v1
            .evolve("v2")
            .rename("waitTime", "bufferTime")
            .unwrap()
            .remove("bitrate")
            .unwrap()
            .add(FieldSpec::data(
                "resolution",
                FieldKind::Str { prefix: "r" },
            ))
            .unwrap()
            .retype("watchTime", FieldKind::Float { scale: 1 })
            .unwrap()
            .build();
        let deltas = diff_versions(&v1, &v2);
        assert!(deltas.contains(&SchemaDelta::RenameField {
            from: "waitTime".into(),
            to: "bufferTime".into()
        }));
        assert!(deltas.contains(&SchemaDelta::DeleteField("bitrate".into())));
        assert!(deltas
            .iter()
            .any(|d| matches!(d, SchemaDelta::AddField(f) if f.name == "resolution")));
        assert!(deltas
            .iter()
            .any(|d| matches!(d, SchemaDelta::RetypeField { name, .. } if name == "watchTime")));
        assert_eq!(deltas.len(), 4);
    }

    #[test]
    fn duplicate_versions_and_fields_are_rejected() {
        let mut sim = ApiSimulator::new();
        sim.add_endpoint("a", "m");
        sim.release("a", "m", vod_v1()).unwrap();
        assert!(matches!(
            sim.release("a", "m", vod_v1()),
            Err(ApiError::DuplicateVersion(_))
        ));
        assert!(matches!(
            vod_v1()
                .evolve("v2")
                .add(FieldSpec::data("bitrate", FieldKind::Bool)),
            Err(ApiError::DuplicateField(_))
        ));
    }

    #[test]
    fn unknown_lookups_error() {
        let sim = ApiSimulator::new();
        assert!(matches!(
            sim.ingest("zz", "m", "v1", 1, 0),
            Err(ApiError::UnknownEndpoint { .. })
        ));
        let mut sim = ApiSimulator::new();
        sim.add_endpoint("a", "m");
        sim.release("a", "m", vod_v1()).unwrap();
        assert!(matches!(
            sim.wrapper_for("a", "m", "v9", "w"),
            Err(ApiError::UnknownVersion { .. })
        ));
    }
}
