//! Industrial applicability (§6.3, Table 6).
//!
//! Li et al. \[14\] catalogued 16 change patterns across five widely used
//! APIs. The paper buckets each API's changes into wrapper-only /
//! ontology-only / both and derives the share of changes the BDI ontology
//! accommodates **partially** (changes also touching wrappers) and
//! **fully** (ontology-only). We encode each API's change history as
//! concrete [`Change`] instances and *re-derive* the buckets through the
//! classifier — so Table 6 is regenerated by the taxonomy, not hardcoded.

use crate::taxonomy::{ApiLevelChange, Change, Handler, MethodLevelChange, ParameterLevelChange};

/// One API's change history.
#[derive(Debug, Clone)]
pub(crate) struct ApiChangeProfile {
    pub name: &'static str,
    pub changes: Vec<Change>,
}

/// Accommodation statistics for one API (one row of Table 6).
#[derive(Debug, Clone, PartialEq)]
pub struct AccommodationStats {
    pub name: &'static str,
    pub wrapper_only: usize,
    pub ontology_only: usize,
    pub both: usize,
    /// `both / total` — changes the ontology partially accommodates.
    pub partially_pct: f64,
    /// `ontology_only / total` — changes the ontology fully accommodates.
    pub fully_pct: f64,
}

impl AccommodationStats {
    pub fn total(&self) -> usize {
        self.wrapper_only + self.ontology_only + self.both
    }
}

/// Classifies a profile's changes into a Table 6 row.
pub(crate) fn accommodation(profile: &ApiChangeProfile) -> AccommodationStats {
    let mut wrapper_only = 0;
    let mut ontology_only = 0;
    let mut both = 0;
    for change in &profile.changes {
        match change.handler() {
            Handler::Wrapper => wrapper_only += 1,
            Handler::Ontology => ontology_only += 1,
            Handler::Both => both += 1,
        }
    }
    let total = (wrapper_only + ontology_only + both) as f64;
    AccommodationStats {
        name: profile.name,
        wrapper_only,
        ontology_only,
        both,
        partially_pct: if total > 0.0 {
            both as f64 / total * 100.0
        } else {
            0.0
        },
        fully_pct: if total > 0.0 {
            ontology_only as f64 / total * 100.0
        } else {
            0.0
        },
    }
}

/// The weighted averages the paper reports under Table 6
/// (48.84% partially, 22.77% fully, 71.62% overall).
#[derive(Debug, Clone, PartialEq)]
pub struct AverageAccommodation {
    pub partially_pct: f64,
    pub fully_pct: f64,
    pub solved_pct: f64,
}

/// Aggregates per-API stats into the paper's overall averages (weighted by
/// change count, which is how the reported 48.84/22.77/71.62 arise).
pub(crate) fn weighted_average(stats: &[AccommodationStats]) -> AverageAccommodation {
    let total: usize = stats.iter().map(AccommodationStats::total).sum();
    let both: usize = stats.iter().map(|s| s.both).sum();
    let ontology: usize = stats.iter().map(|s| s.ontology_only).sum();
    let partially_pct = both as f64 / total as f64 * 100.0;
    let fully_pct = ontology as f64 / total as f64 * 100.0;
    AverageAccommodation {
        partially_pct,
        fully_pct,
        solved_pct: partially_pct + fully_pct,
    }
}

/// Expands `(change, count)` pairs into a change list.
fn repeat(groups: &[(Change, usize)]) -> Vec<Change> {
    let mut out = Vec::new();
    for (change, count) in groups {
        out.extend(std::iter::repeat_n(*change, *count));
    }
    out
}

/// The five-API dataset of Table 6, reconstructed from the paper's bucket
/// counts with representative change kinds per bucket (the per-kind split
/// within a bucket is not published; the bucket totals are).
pub(crate) fn dataset() -> Vec<ApiChangeProfile> {
    use Change::{Api, Method, Parameter};
    vec![
        // Google Calendar: 0 wrapper, 24 ontology, 23 both.
        ApiChangeProfile {
            name: "Google Calendar",
            changes: repeat(&[
                (Parameter(ParameterLevelChange::RenameResponseParameter), 14),
                (Parameter(ParameterLevelChange::ChangeFormatOrType), 8),
                (Method(MethodLevelChange::ChangeResponseFormat), 2),
                (Parameter(ParameterLevelChange::AddParameter), 15),
                (Parameter(ParameterLevelChange::DeleteParameter), 6),
                (Method(MethodLevelChange::AddMethod), 2),
            ]),
        },
        // Google Gadgets: 2 wrapper, 6 ontology, 30 both.
        ApiChangeProfile {
            name: "Google Gadgets",
            changes: repeat(&[
                (Method(MethodLevelChange::ChangeRateLimit), 1),
                (Api(ApiLevelChange::ChangeResourceUrl), 1),
                (Parameter(ParameterLevelChange::ChangeFormatOrType), 4),
                (Parameter(ParameterLevelChange::RenameResponseParameter), 2),
                (Parameter(ParameterLevelChange::AddParameter), 18),
                (Parameter(ParameterLevelChange::DeleteParameter), 8),
                (Method(MethodLevelChange::AddMethod), 4),
            ]),
        },
        // Amazon MWS: 22 wrapper, 36 ontology, 14 both.
        ApiChangeProfile {
            name: "Amazon MWS",
            changes: repeat(&[
                (Api(ApiLevelChange::ChangeAuthenticationModel), 4),
                (Method(MethodLevelChange::AddErrorCode), 10),
                (Parameter(ParameterLevelChange::ChangeRequireType), 8),
                (Parameter(ParameterLevelChange::RenameResponseParameter), 20),
                (Parameter(ParameterLevelChange::ChangeFormatOrType), 14),
                (Method(MethodLevelChange::ChangeResponseFormat), 2),
                (Parameter(ParameterLevelChange::AddParameter), 10),
                (Method(MethodLevelChange::DeleteMethod), 4),
            ]),
        },
        // Twitter API: 27 wrapper, 0 ontology, 25 both.
        ApiChangeProfile {
            name: "Twitter API",
            changes: repeat(&[
                (Api(ApiLevelChange::ChangeRateLimit), 12),
                (Api(ApiLevelChange::ChangeAuthenticationModel), 6),
                (Method(MethodLevelChange::ChangeDomainUrl), 9),
                (Parameter(ParameterLevelChange::AddParameter), 14),
                (Parameter(ParameterLevelChange::DeleteParameter), 7),
                (Method(MethodLevelChange::DeleteMethod), 4),
            ]),
        },
        // Sina Weibo: 35 wrapper, 3 ontology, 56 both.
        ApiChangeProfile {
            name: "Sina Weibo",
            changes: repeat(&[
                (Api(ApiLevelChange::ChangeRateLimit), 15),
                (Method(MethodLevelChange::ChangeAuthenticationModel), 12),
                (Parameter(ParameterLevelChange::ChangeRequireType), 8),
                (Parameter(ParameterLevelChange::RenameResponseParameter), 3),
                (Parameter(ParameterLevelChange::AddParameter), 30),
                (Parameter(ParameterLevelChange::DeleteParameter), 16),
                (Method(MethodLevelChange::AddMethod), 6),
                (Method(MethodLevelChange::ChangeMethodName), 4),
            ]),
        },
    ]
}

/// The full Table 6: per-API rows plus weighted averages.
pub fn table6() -> (Vec<AccommodationStats>, AverageAccommodation) {
    let stats: Vec<AccommodationStats> = dataset().iter().map(accommodation).collect();
    let avg = weighted_average(&stats);
    (stats, avg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 6 row values.
    const EXPECTED: [(&str, usize, usize, usize, f64, f64); 5] = [
        ("Google Calendar", 0, 24, 23, 48.94, 51.06),
        ("Google Gadgets", 2, 6, 30, 78.95, 15.79),
        ("Amazon MWS", 22, 36, 14, 19.44, 50.0),
        ("Twitter API", 27, 0, 25, 48.08, 0.0),
        ("Sina Weibo", 35, 3, 56, 59.57, 3.19),
    ];

    #[test]
    fn per_api_rows_match_the_paper() {
        let (stats, _) = table6();
        for (row, (name, w, o, b, partial, full)) in stats.iter().zip(EXPECTED) {
            assert_eq!(row.name, name);
            assert_eq!(
                (row.wrapper_only, row.ontology_only, row.both),
                (w, o, b),
                "{name}"
            );
            assert!(
                (row.partially_pct - partial).abs() < 0.01,
                "{name}: {} vs {partial}",
                row.partially_pct
            );
            assert!(
                (row.fully_pct - full).abs() < 0.01,
                "{name}: {} vs {full}",
                row.fully_pct
            );
        }
    }

    #[test]
    fn weighted_averages_match_the_papers_headline_numbers() {
        let (_, avg) = table6();
        assert!(
            (avg.partially_pct - 48.84).abs() < 0.01,
            "partially: {}",
            avg.partially_pct
        );
        assert!(
            (avg.fully_pct - 22.77).abs() < 0.01,
            "fully: {}",
            avg.fully_pct
        );
        assert!(
            (avg.solved_pct - 71.62).abs() < 0.02,
            "solved: {}",
            avg.solved_pct
        );
    }

    #[test]
    fn totals_match_change_list_lengths() {
        for profile in dataset() {
            let stats = accommodation(&profile);
            assert_eq!(stats.total(), profile.changes.len());
        }
    }

    #[test]
    fn empty_profile_yields_zero_percentages() {
        let stats = accommodation(&ApiChangeProfile {
            name: "empty",
            changes: vec![],
        });
        assert_eq!(stats.partially_pct, 0.0);
        assert_eq!(stats.fully_pct, 0.0);
    }
}
