//! The SUPERSEDE running example's data sources and wrappers (§2.1).
//!
//! Three JSON "REST APIs" backed by the document store, with exactly the
//! sample data of Table 1:
//!
//! * `D1` — the VoD monitoring API (Code 1 documents); wrapper
//!   `w1(VoDmonitorId, lagRatio)` computes `lagRatio = waitTime/watchTime`
//!   (Code 2). A later release renames `lagRatio` → `bufferingRatio`,
//!   yielding wrapper `w4(VoDmonitorId, bufferingRatio)`.
//! * `D2` — the feedback-gathering API; wrapper `w2(FGId, tweet)`.
//! * `D3` — the relationship API; wrapper
//!   `w3(TargetApp, MonitorId, FeedbackId)`.

use crate::json_wrapper::JsonWrapper;
use bdi_docstore::{AggExpr, DocStore, Pipeline, Projection};
use bdi_relational::Schema;
use serde_json::json;

/// Collection names for the three sources.
pub const VOD_COLLECTION: &str = "d1/vod";
pub const VOD_V2_COLLECTION: &str = "d1/vod-v2";
pub const FEEDBACK_COLLECTION: &str = "d2/feedback";
pub const RELATION_COLLECTION: &str = "d3/relations";

/// Data source names, matching the paper's `D1..D3`.
pub const D1: &str = "D1";
pub(crate) const D2: &str = "D2";
pub(crate) const D3: &str = "D3";

/// Populates a fresh [`DocStore`] with the Table 1 sample data.
///
/// `w1` rows (12, 0.75), (12, 0.90), (18, 0.1) arise from the VoD documents'
/// wait/watch times; `w2` and `w3` data is stored directly.
pub fn sample_docstore() -> DocStore {
    let store = DocStore::new();
    store
        .insert_many(
            VOD_COLLECTION,
            vec![
                // Code 1 document: waitTime 3 / watchTime 4 → lagRatio 0.75.
                json!({"monitorId": 12, "timestamp": 1475010424i64, "bitrate": 6, "waitTime": 3, "watchTime": 4}),
                json!({"monitorId": 12, "timestamp": 1475010489i64, "bitrate": 6, "waitTime": 9, "watchTime": 10}),
                json!({"monitorId": 18, "timestamp": 1475010524i64, "bitrate": 4, "waitTime": 1, "watchTime": 10}),
            ],
        )
        .expect("static sample data is well-formed");
    store
        .insert_many(
            FEEDBACK_COLLECTION,
            vec![
                json!({"feedbackGatheringId": 77, "text": "I continuously see the loading symbol"}),
                json!({"feedbackGatheringId": 45, "text": "Your video player is great!"}),
            ],
        )
        .expect("static sample data is well-formed");
    store
        .insert_many(
            RELATION_COLLECTION,
            vec![
                json!({"appId": 1, "monitor": 12, "feedback": 77}),
                json!({"appId": 2, "monitor": 18, "feedback": 45}),
            ],
        )
        .expect("static sample data is well-formed");
    store
}

/// Adds the evolved VoD API's (version 2) documents, where the quality
/// metric arrives precomputed under the renamed key `bufferingRatio`.
pub fn ingest_vod_v2(store: &DocStore) {
    store
        .insert_many(
            VOD_V2_COLLECTION,
            vec![
                json!({"monitorId": 12, "timestamp": 1480010424i64, "bufferingRatio": 0.42}),
                json!({"monitorId": 18, "timestamp": 1480010525i64, "bufferingRatio": 0.05}),
            ],
        )
        .expect("static sample data is well-formed");
}

/// `w1(VoDmonitorId, lagRatio)` — the Code 2 wrapper.
pub fn wrapper_w1(store: DocStore) -> JsonWrapper {
    JsonWrapper::new(
        "w1",
        D1,
        Schema::from_parts(&["VoDmonitorId"], &["lagRatio"]).expect("static schema"),
        store,
        VOD_COLLECTION,
        Pipeline::new().project(vec![
            Projection::field("VoDmonitorId", "monitorId"),
            Projection::computed(
                "lagRatio",
                AggExpr::divide(AggExpr::field("waitTime"), AggExpr::field("watchTime")),
            ),
        ]),
    )
    .expect("static wrapper definition")
}

/// `w2(FGId, tweet)`.
pub fn wrapper_w2(store: DocStore) -> JsonWrapper {
    JsonWrapper::new(
        "w2",
        D2,
        Schema::from_parts(&["FGId"], &["tweet"]).expect("static schema"),
        store,
        FEEDBACK_COLLECTION,
        Pipeline::new().project(vec![
            Projection::field("FGId", "feedbackGatheringId"),
            Projection::field("tweet", "text"),
        ]),
    )
    .expect("static wrapper definition")
}

/// `w3(TargetApp, MonitorId, FeedbackId)` — all IDs, no non-ID attributes.
pub fn wrapper_w3(store: DocStore) -> JsonWrapper {
    JsonWrapper::new(
        "w3",
        D3,
        Schema::from_parts::<&str>(&["TargetApp", "MonitorId", "FeedbackId"], &[])
            .expect("static schema"),
        store,
        RELATION_COLLECTION,
        Pipeline::new().project(vec![
            Projection::field("TargetApp", "appId"),
            Projection::field("MonitorId", "monitor"),
            Projection::field("FeedbackId", "feedback"),
        ]),
    )
    .expect("static wrapper definition")
}

/// `w4(VoDmonitorId, bufferingRatio)` — the post-evolution wrapper for D1's
/// second API version (§2.1: "lagRatio has been renamed to bufferingRatio").
pub fn wrapper_w4(store: DocStore) -> JsonWrapper {
    JsonWrapper::new(
        "w4",
        D1,
        Schema::from_parts(&["VoDmonitorId"], &["bufferingRatio"]).expect("static schema"),
        store,
        VOD_V2_COLLECTION,
        Pipeline::new().project(vec![
            Projection::field("VoDmonitorId", "monitorId"),
            Projection::field("bufferingRatio", "bufferingRatio"),
        ]),
    )
    .expect("static wrapper definition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::Wrapper;
    use bdi_relational::Value;

    #[test]
    fn w1_reproduces_table1() {
        let rel = wrapper_w1(sample_docstore()).scan().unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(
            rel.column("VoDmonitorId").unwrap(),
            vec![Value::Int(12), Value::Int(12), Value::Int(18)]
        );
        assert_eq!(
            rel.column("lagRatio").unwrap(),
            vec![Value::Float(0.75), Value::Float(0.9), Value::Float(0.1)]
        );
    }

    #[test]
    fn w2_reproduces_table1() {
        let rel = wrapper_w2(sample_docstore()).scan().unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(
            rel.value(0, "tweet").unwrap(),
            &Value::Str("I continuously see the loading symbol".into())
        );
    }

    #[test]
    fn w3_reproduces_table1() {
        let rel = wrapper_w3(sample_docstore()).scan().unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(
            rel.schema().id_names(),
            vec!["TargetApp", "MonitorId", "FeedbackId"]
        );
        assert!(rel.schema().non_id_names().is_empty());
    }

    #[test]
    fn w4_serves_the_evolved_schema() {
        let store = sample_docstore();
        ingest_vod_v2(&store);
        let rel = wrapper_w4(store).scan().unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.value(0, "bufferingRatio").unwrap(), &Value::Float(0.42));
    }
}
