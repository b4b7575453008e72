//! Ontology growth under real-world releases — §6.4, Figure 11.
//!
//! The paper replays the Wordpress REST API's `GET Posts` method through
//! Algorithm 1: version 1, the major version 2 rewrite, then 13 minor 2.x
//! releases, with a new full-projection wrapper per release. It measures
//! the number of triples added to `S` per release and cumulatively.
//!
//! The original changelog analysis file (ref. \[19\]) is no longer available,
//! so the series here is **reconstructed** from the actual Wordpress REST
//! API v1/v2 response schemas and the shape the paper reports: a big initial
//! batch (v1), a steep major release reusing few attributes (v2), then
//! small minor releases whose dominant cost is re-linking every attribute
//! with `S:hasAttribute` edges.

use crate::taxonomy::{classify_delta, ParameterLevelChange};
use bdi_core::release::{Release, ReleaseStats};
use bdi_core::system::BdiSystem;
use bdi_core::vocab as core_vocab;
use bdi_rdf::model::{Iri, Triple};
use bdi_relational::Schema;
use bdi_wrappers::api::{diff_versions, FieldKind, FieldSpec, VersionSchema};
use bdi_wrappers::TableWrapper;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Namespace for the Wordpress domain ontology.
pub(crate) const WP_NS: &str = "http://www.essi.upc.edu/~snadal/wordpress/";

fn wp(name: &str) -> Iri {
    Iri::new(format!("{WP_NS}{name}"))
}

fn str_field(name: &str) -> FieldSpec {
    FieldSpec::data(name, FieldKind::Str { prefix: "v" })
}

/// The Wordpress `GET Posts` v1 response schema (flattened).
pub(crate) fn v1() -> VersionSchema {
    VersionSchema::new(
        "1",
        vec![
            FieldSpec::id(
                "ID",
                FieldKind::Int {
                    min: 1,
                    max: 100_000,
                },
            ),
            str_field("title"),
            str_field("status"),
            str_field("type"),
            str_field("link"),
            FieldSpec::data("date", FieldKind::Timestamp),
            FieldSpec::data("modified", FieldKind::Timestamp),
            str_field("format"),
            str_field("slug"),
            str_field("guid"),
            str_field("excerpt"),
            str_field("content"),
            FieldSpec::data("author", FieldKind::Int { min: 1, max: 500 }),
            FieldSpec::data(
                "comment_count",
                FieldKind::Int {
                    min: 0,
                    max: 10_000,
                },
            ),
            str_field("comment_status"),
            str_field("ping_status"),
            FieldSpec::data("sticky", FieldKind::Bool),
            str_field("date_tz"),
            FieldSpec::data("date_gmt", FieldKind::Timestamp),
            str_field("modified_tz"),
            FieldSpec::data("modified_gmt", FieldKind::Timestamp),
            FieldSpec::data("menu_order", FieldKind::Int { min: 0, max: 100 }),
            str_field("page_template"),
        ],
    )
}

/// The full reconstructed release series: v1, v2, 2.1 … 2.13.
pub(crate) fn release_series() -> Vec<VersionSchema> {
    let v1 = v1();
    // Version 2 — the major rewrite: ID→id rename, timezone fields and
    // counters dropped, taxonomy/media fields added.
    let v2 = v1
        .evolve("2")
        .rename("ID", "id")
        .expect("static series")
        .remove("comment_count")
        .expect("static series")
        .remove("date_tz")
        .expect("static series")
        .remove("modified_tz")
        .expect("static series")
        .remove("menu_order")
        .expect("static series")
        .remove("page_template")
        .expect("static series")
        .add(FieldSpec::data(
            "featured_media",
            FieldKind::Int {
                min: 0,
                max: 100_000,
            },
        ))
        .expect("static series")
        .add(str_field("categories"))
        .expect("static series")
        .add(str_field("tags"))
        .expect("static series")
        .add(str_field("meta"))
        .expect("static series")
        .build();

    // Thirteen minor 2.x releases: mostly small additions, the occasional
    // rename or deletion — the linear-growth regime of Figure 11.
    let minor_ops: Vec<(&str, Vec<MinorOp>)> = vec![
        ("2.1", vec![MinorOp::Add(str_field("password"))]),
        ("2.2", vec![MinorOp::Add(str_field("template"))]),
        ("2.3", vec![]),
        (
            "2.4",
            vec![
                MinorOp::Add(str_field("permalink_template")),
                MinorOp::Add(str_field("generated_slug")),
            ],
        ),
        ("2.5", vec![MinorOp::Rename("guid", "guid_rendered")]),
        (
            "2.6",
            vec![MinorOp::Add(FieldSpec::data(
                "menu_order",
                FieldKind::Int { min: 0, max: 100 },
            ))],
        ),
        ("2.7", vec![]),
        ("2.8", vec![MinorOp::Add(str_field("block_version"))]),
        ("2.9", vec![MinorOp::Delete("block_version")]),
        ("2.10", vec![MinorOp::Add(str_field("class_list"))]),
        ("2.11", vec![MinorOp::Rename("excerpt", "excerpt_rendered")]),
        (
            "2.12",
            vec![MinorOp::Add(str_field("jetpack_featured_media_url"))],
        ),
        ("2.13", vec![MinorOp::Add(str_field("format_standard"))]),
    ];

    let mut series = vec![v1, v2];
    for (version, ops) in minor_ops {
        let mut builder = series.last().expect("non-empty").evolve(version);
        for op in ops {
            builder = match op {
                MinorOp::Add(f) => builder.add(f).expect("static series"),
                MinorOp::Delete(name) => builder.remove(name).expect("static series"),
                MinorOp::Rename(from, to) => builder.rename(from, to).expect("static series"),
            };
        }
        series.push(builder.build());
    }
    series
}

enum MinorOp {
    Add(FieldSpec),
    Delete(&'static str),
    Rename(&'static str, &'static str),
}

/// The measurements for one replayed release — one bar of Figure 11.
#[derive(Debug, Clone)]
pub struct ReleaseRecord {
    pub version: String,
    /// Number of response fields in this version.
    pub fields: usize,
    /// Parameter-level changes w.r.t. the previous version.
    pub changes: Vec<ParameterLevelChange>,
    /// Algorithm 1's accounting for this release.
    pub stats: ReleaseStats,
    /// |S| after this release (cumulative line of Figure 11).
    pub cumulative_source_triples: usize,
}

/// Replays the whole series through Algorithm 1 on a fresh system,
/// producing the Figure 11 measurements.
pub fn replay() -> Vec<ReleaseRecord> {
    replay_with_system().0
}

/// Like [`replay`], also returning the resulting system for inspection.
pub fn replay_with_system() -> (Vec<ReleaseRecord>, BdiSystem) {
    let mut system = BdiSystem::new();
    let series = release_series();

    // Domain ontology: one Post concept; features created on demand.
    let post = wp("Post");
    system.ontology().add_concept(&post);

    // field name → feature IRI, evolving with renames so a renamed field
    // keeps feeding the same conceptual feature.
    let mut feature_of_field: BTreeMap<String, Iri> = BTreeMap::new();

    let mut records = Vec::with_capacity(series.len());
    let mut previous: Option<&VersionSchema> = None;
    for schema in &series {
        // Maintain the field→feature map.
        for (old, new) in &schema.renames {
            if let Some(feature) = feature_of_field.remove(old) {
                feature_of_field.insert(new.clone(), feature);
            }
        }
        for field in &schema.fields {
            if !feature_of_field.contains_key(&field.name) {
                let feature = wp(&format!("feature/{}", field.name));
                if field.is_id {
                    system.ontology().add_id_feature(&feature);
                } else {
                    system.ontology().add_feature(&feature);
                }
                system
                    .ontology()
                    .attach_feature(&post, &feature)
                    .expect("features are per-field unique");
                feature_of_field.insert(field.name.clone(), feature);
            }
        }

        // Build the release: full-projection wrapper + LAV graph + F.
        let rel_schema: Schema = schema.relational_schema();
        let wrapper = Arc::new(
            TableWrapper::new(
                format!("wp_posts_v{}", schema.version),
                "wordpress/GET_posts",
                rel_schema,
                vec![],
            )
            .expect("schema is valid"),
        );
        let lav: Vec<Triple> = schema
            .fields
            .iter()
            .map(|f| {
                Triple::new(
                    post.clone(),
                    (*core_vocab::g::HAS_FEATURE).clone(),
                    feature_of_field[&f.name].clone(),
                )
            })
            .collect();
        let mappings: BTreeMap<String, Iri> = schema
            .fields
            .iter()
            .map(|f| (f.name.clone(), feature_of_field[&f.name].clone()))
            .collect();

        let stats = system
            .register_release(Release::new(wrapper, lav, mappings))
            .expect("series releases are valid");

        let changes = previous
            .map(|prev| {
                diff_versions(prev, schema)
                    .iter()
                    .map(classify_delta)
                    .collect()
            })
            .unwrap_or_default();

        records.push(ReleaseRecord {
            version: schema.version.clone(),
            fields: schema.fields.len(),
            changes,
            stats,
            cumulative_source_triples: system.ontology().source_graph_len(),
        });
        previous = Some(schema);
    }
    (records, system)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_has_fifteen_releases() {
        let series = release_series();
        assert_eq!(series.len(), 15); // v1, v2, 2.1..2.13
        assert_eq!(series[0].version, "1");
        assert_eq!(series[1].version, "2");
        assert_eq!(series.last().unwrap().version, "2.13");
    }

    #[test]
    fn v1_carries_the_initial_overhead() {
        let records = replay();
        let v1 = &records[0];
        // All elements must be added: 1 source + 1 wrapper + 1 hasWrapper +
        // 23 attribute types + 23 hasAttribute edges.
        assert_eq!(v1.stats.attributes_created, 23);
        assert_eq!(v1.stats.source_triples_added, 3 + 23 + 23);
        assert!(v1.stats.new_source);
    }

    #[test]
    fn v2_is_a_major_release_with_few_reused_attributes() {
        let records = replay();
        let v2 = &records[1];
        assert!(!v2.stats.new_source);
        // Renamed + added fields are new attribute URIs; unchanged names are
        // reused.
        assert!(
            v2.stats.attributes_created >= 5,
            "created {}",
            v2.stats.attributes_created
        );
        assert!(
            v2.stats.attributes_reused >= 15,
            "reused {}",
            v2.stats.attributes_reused
        );
        assert!(v2.stats.source_triples_added > 20);
    }

    #[test]
    fn minor_releases_grow_linearly_dominated_by_has_attribute_edges() {
        let records = replay();
        for r in &records[2..] {
            // Each minor release adds ~2 wrapper triples + one hasAttribute
            // edge per field + a few new attribute types.
            let expected_edges = r.fields;
            assert!(
                r.stats.source_triples_added >= expected_edges + 2,
                "{}: {} < {}",
                r.version,
                r.stats.source_triples_added,
                expected_edges + 2
            );
            assert!(
                r.stats.attributes_created <= 3,
                "{}: minor release created {} attributes",
                r.version,
                r.stats.attributes_created
            );
        }
    }

    #[test]
    fn cumulative_growth_is_monotonic() {
        let records = replay();
        for pair in records.windows(2) {
            assert!(pair[1].cumulative_source_triples > pair[0].cumulative_source_triples);
        }
    }

    #[test]
    fn changes_are_classified_per_release() {
        let records = replay();
        // v2's diff contains the ID rename and several adds/deletes.
        let v2 = &records[1];
        assert!(v2
            .changes
            .contains(&ParameterLevelChange::RenameResponseParameter));
        assert!(v2.changes.contains(&ParameterLevelChange::AddParameter));
        assert!(v2.changes.contains(&ParameterLevelChange::DeleteParameter));
        // 2.3 has no schema changes.
        let quiet = records.iter().find(|r| r.version == "2.3").unwrap();
        assert!(quiet.changes.is_empty());
    }

    #[test]
    fn renamed_fields_keep_their_feature() {
        // 2.5 renames guid → guid_rendered; both physical attributes must
        // map (owl:sameAs) to the same conceptual feature.
        let (_, system) = replay_with_system();
        let o = system.ontology();
        let guid = core_vocab::attribute_uri("wordpress/GET_posts", "guid");
        let renamed = core_vocab::attribute_uri("wordpress/GET_posts", "guid_rendered");
        let f1 = o.feature_of_attribute(&guid).expect("guid mapped");
        let f2 = o
            .feature_of_attribute(&renamed)
            .expect("guid_rendered mapped");
        assert_eq!(f1, f2);
        assert_eq!(f1, wp("feature/guid"));
    }
}
