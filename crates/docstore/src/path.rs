//! Dotted-path access into JSON documents (`"user.name"` → `doc.user.name`).

use serde_json::Value;

/// Resolves a dotted path inside a JSON value. Returns `None` when any
/// segment is missing or traverses a non-object.
pub(crate) fn get_path<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    let mut current = doc;
    for segment in path.split('.') {
        match current {
            Value::Object(map) => current = map.get(segment)?,
            Value::Array(items) => {
                let idx: usize = segment.parse().ok()?;
                current = items.get(idx)?;
            }
            _ => return None,
        }
    }
    Some(current)
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

    #[test]
    fn get_nested_fields() {
        let doc = json!({"monitor": {"id": 12, "metrics": [1, 2, 3]}});
        assert_eq!(get_path(&doc, "monitor.id"), Some(&json!(12)));
        assert_eq!(get_path(&doc, "monitor.metrics.1"), Some(&json!(2)));
        assert_eq!(get_path(&doc, "monitor.zzz"), None);
        assert_eq!(get_path(&doc, "monitor.id.deeper"), None);
    }

    #[test]
    fn top_level_paths() {
        let doc = json!({"x": true});
        assert_eq!(get_path(&doc, "x"), Some(&json!(true)));
    }
}
