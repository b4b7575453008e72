//! Semi-automatic mapping suggestion — the steward-assist of §4.1.
//!
//! "Regarding the definition of F, probabilistic methods to align and match
//! RDF ontologies, such as paris, can be used." We implement the practical
//! core of that idea: given a new wrapper's attribute names (and ID flags),
//! rank candidate features of `G` by a similarity score combining
//!
//! * normalized-edit-distance over camelCase/snake_case-tokenized names,
//! * a datatype-compatibility factor (an `xsd:double` feature is a poor
//!   match for a boolean attribute),
//! * an ID-agreement factor (ID attributes should map to ID features).
//!
//! The steward reviews the ranked suggestions; nothing is applied
//! automatically — that is exactly the "semi-automatic" division of labour
//! the paper prescribes.

use crate::ontology::BdiOntology;
use crate::typing::{feature_datatype, ExpectedKind};
use bdi_rdf::model::Iri;
use bdi_relational::Schema;

/// One ranked suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingSuggestion {
    pub attribute: String,
    pub feature: Iri,
    /// Combined score in `[0, 1]`; higher is better.
    pub score: f64,
}

/// Tokenizes `VoDmonitorId` / `vod_monitor_id` / `vod-monitor-id` into
/// lower-case words.
pub fn tokenize(name: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut current = String::new();
    let mut prev_is_lower = false;
    for c in name.chars() {
        if c == '_' || c == '-' || c == '/' || c == '.' || c == ' ' {
            if !current.is_empty() {
                words.push(std::mem::take(&mut current));
            }
            prev_is_lower = false;
            continue;
        }
        if c.is_uppercase() && prev_is_lower {
            words.push(std::mem::take(&mut current));
        }
        prev_is_lower = c.is_lowercase() || c.is_ascii_digit();
        current.extend(c.to_lowercase());
    }
    if !current.is_empty() {
        words.push(current);
    }
    words
}

/// Classic dynamic-programming Levenshtein distance.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitution = prev[j] + usize::from(ca != cb);
            current[j + 1] = substitution.min(prev[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// Name similarity in `[0, 1]`: token-set overlap blended with whole-string
/// normalized edit similarity.
pub fn name_similarity(a: &str, b: &str) -> f64 {
    let ta = tokenize(a);
    let tb = tokenize(b);
    let joined_a = ta.join("");
    let joined_b = tb.join("");
    let max_len = joined_a.len().max(joined_b.len()).max(1);
    let edit = 1.0 - levenshtein(&joined_a, &joined_b) as f64 / max_len as f64;

    let overlap = if ta.is_empty() || tb.is_empty() {
        0.0
    } else {
        let shared = ta.iter().filter(|t| tb.contains(t)).count();
        (2.0 * shared as f64) / (ta.len() + tb.len()) as f64
    };
    0.5 * edit + 0.5 * overlap
}

/// How compatible an attribute's observed kind is with a feature's declared
/// datatype (1.0 = compatible or unknown, 0.3 = conflicting).
fn datatype_factor(ontology: &BdiOntology, feature: &Iri, observed: Option<ExpectedKind>) -> f64 {
    let (Some(observed), Some(datatype)) = (observed, feature_datatype(ontology, feature)) else {
        return 1.0;
    };
    let declared = ExpectedKind::from_datatype(&datatype);
    if declared == ExpectedKind::Any || declared == observed {
        1.0
    } else if declared == ExpectedKind::Double && observed == ExpectedKind::Integer {
        0.9 // integers widen
    } else {
        0.3
    }
}

/// ID-agreement factor: ID attributes prefer ID features and vice versa.
fn id_factor(ontology: &BdiOntology, feature: &Iri, attr_is_id: bool) -> f64 {
    if ontology.is_id_feature(feature) == attr_is_id {
        1.0
    } else {
        0.5
    }
}

/// Suggests, for every attribute of `schema`, the `top_k` best-matching
/// features among `candidate_features` (pass `ontology`-wide features of the
/// concepts a wrapper covers). Suggestions are sorted per attribute by
/// descending score.
pub fn suggest_mappings(
    ontology: &BdiOntology,
    schema: &Schema,
    candidate_features: &[Iri],
    observed_kinds: &[Option<ExpectedKind>],
    top_k: usize,
) -> Vec<Vec<MappingSuggestion>> {
    schema
        .attributes()
        .iter()
        .enumerate()
        .map(|(idx, attr)| {
            let observed = observed_kinds.get(idx).copied().flatten();
            let mut scored: Vec<MappingSuggestion> = candidate_features
                .iter()
                .map(|feature| {
                    let name = name_similarity(attr.name(), feature.local_name());
                    // A small prior keeps the datatype/ID factors decisive
                    // even when names share nothing (fresh vocabularies).
                    let score = (0.05 + 0.95 * name)
                        * datatype_factor(ontology, feature, observed)
                        * id_factor(ontology, feature, attr.is_id());
                    MappingSuggestion {
                        attribute: attr.name().to_owned(),
                        feature: feature.clone(),
                        score,
                    }
                })
                .collect();
            scored.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
            scored.truncate(top_k);
            scored
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supersede::{self, features};

    #[test]
    fn tokenization_handles_camel_and_snake_case() {
        assert_eq!(tokenize("VoDmonitorId"), vec!["vo", "dmonitor", "id"]);
        assert_eq!(tokenize("buffering_ratio"), vec!["buffering", "ratio"]);
        assert_eq!(tokenize("lagRatio"), vec!["lag", "ratio"]);
        assert_eq!(tokenize("FGId"), vec!["fgid"]);
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn identical_names_score_one() {
        assert!((name_similarity("lagRatio", "lagRatio") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn renamed_metric_still_ranks_its_feature_first() {
        // bufferingRatio (w4's new name) vs the candidate features of the
        // w1/w4 LAV subgraph: lagRatio must win over monitorId.
        let system = supersede::build_running_example();
        let schema = Schema::from_parts(&["VoDmonitorId"], &["bufferingRatio"]).unwrap();
        let candidates = vec![features::monitor_id(), features::lag_ratio()];
        let suggestions =
            suggest_mappings(system.ontology(), &schema, &candidates, &[None, None], 2);

        // VoDmonitorId → monitorId.
        assert_eq!(suggestions[0][0].feature, features::monitor_id());
        // bufferingRatio → lagRatio (shared "ratio" token + ID penalty on
        // monitorId).
        assert_eq!(suggestions[1][0].feature, features::lag_ratio());
    }

    #[test]
    fn id_agreement_breaks_ties() {
        let system = supersede::build_running_example();
        // An ID attribute with a name that is equally unlike both candidates
        // must prefer the ID feature.
        let schema = Schema::from_parts::<&str>(&["zzz"], &[]).unwrap();
        let candidates = vec![features::lag_ratio(), features::monitor_id()];
        let s = suggest_mappings(system.ontology(), &schema, &candidates, &[None], 2);
        assert_eq!(s[0][0].feature, features::monitor_id());
    }

    #[test]
    fn datatype_conflicts_are_penalized() {
        let system = supersede::build_running_example();
        let schema = Schema::from_parts::<&str>(&[], &["ratio"]).unwrap();
        let candidates = vec![features::lag_ratio()];
        // Observed boolean conflicts with lagRatio's xsd:double.
        let with_conflict = suggest_mappings(
            system.ontology(),
            &schema,
            &candidates,
            &[Some(ExpectedKind::Boolean)],
            1,
        );
        let without = suggest_mappings(system.ontology(), &schema, &candidates, &[None], 1);
        assert!(with_conflict[0][0].score < without[0][0].score);
    }
}
