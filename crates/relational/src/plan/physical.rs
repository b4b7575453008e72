use super::context::ScanKey;
use super::request::ScanRequest;
use super::PlanError;
use crate::relation::RelationError;
use crate::schema::{Attribute, Schema};
use std::fmt;

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// A compiled physical query plan.
///
/// Built through the checked constructors ([`PhysicalPlan::scan`],
/// [`PhysicalPlan::project_columns`], [`PhysicalPlan::hash_join`], …), which compute
/// and validate every node's output schema once, at compile time. The
/// physical layer is deliberately more permissive than the §2.2 logical
/// operators: Π̃/⋈̃ restrictions are enforced when walks are *built*, not
/// re-checked per batch here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysicalPlan {
    /// Pushdown-aware source scan; renames are fused into the request.
    Scan {
        source: String,
        request: ScanRequest,
    },
    /// Positional projection.
    Project {
        input: Box<PhysicalPlan>,
        indices: Vec<usize>,
        schema: Schema,
    },
    /// Equi-join; the executor builds a hash table over the smaller input
    /// (matching the eager [`crate::ops::join`] ordering contract) and
    /// streams the other side.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_key: usize,
        right_key: usize,
        schema: Schema,
    },
    /// Set union of schema-identical inputs; the executor deduplicates,
    /// emitting rows in first-occurrence order. Multi-walk unions run in
    /// the layer above (one plan per walk, deduplicated there), so only unit
    /// tests build this node today; it is kept because factorised rewriting
    /// (`(⋃ Aᵢ) ⋈ (⋃ Bⱼ)`, a union under a hash join) is built on it.
    Union { inputs: Vec<PhysicalPlan> },
}

impl PhysicalPlan {
    /// A scan leaf.
    pub fn scan(source: impl Into<String>, request: ScanRequest) -> Self {
        PhysicalPlan::Scan {
            source: source.into(),
            request,
        }
    }

    /// Projects `indices` of the input, labelling them with `schema`.
    pub(crate) fn project(self, indices: Vec<usize>, schema: Schema) -> Result<Self, PlanError> {
        if indices.len() != schema.len() {
            return Err(PlanError::Relation(RelationError::Arity {
                expected: schema.len(),
                found: indices.len(),
            }));
        }
        for &index in &indices {
            if index >= self.schema().len() {
                return Err(PlanError::ProjectionRange {
                    index,
                    schema: self.schema().to_string(),
                });
            }
        }
        Ok(PhysicalPlan::Project {
            input: Box::new(self),
            indices,
            schema,
        })
    }

    /// Projects columns by name, labelling them with `schema` (positional).
    pub fn project_columns(self, columns: &[&str], schema: Schema) -> Result<Self, PlanError> {
        let mut indices = Vec::with_capacity(columns.len());
        for column in columns {
            indices.push(
                self.schema()
                    .require(column)
                    .map_err(RelationError::Schema)?,
            );
        }
        self.project(indices, schema)
    }

    /// Equi-joins with `right` on `left_attr = right_attr`. The output
    /// schema is left's attributes followed by right's; name collisions are
    /// rejected (walk compilation source-prefixes every attribute, so they
    /// cannot occur there).
    pub fn hash_join(
        self,
        right: PhysicalPlan,
        left_attr: &str,
        right_attr: &str,
    ) -> Result<Self, PlanError> {
        let left_key = self
            .schema()
            .require(left_attr)
            .map_err(RelationError::Schema)?;
        let right_key = right
            .schema()
            .require(right_attr)
            .map_err(RelationError::Schema)?;
        let mut attrs: Vec<Attribute> = self.schema().attributes().to_vec();
        attrs.extend(right.schema().attributes().iter().cloned());
        let schema = Schema::new(attrs).map_err(RelationError::Schema)?;
        Ok(PhysicalPlan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_key,
            right_key,
            schema,
        })
    }

    /// Set union of schema-identical plans (see [`PhysicalPlan::Union`]).
    pub fn union(inputs: Vec<PhysicalPlan>) -> Result<Self, PlanError> {
        let first = inputs.first().ok_or(PlanError::EmptyUnion)?;
        for input in &inputs[1..] {
            if !input.schema().same_shape(first.schema()) {
                return Err(PlanError::UnionShape {
                    left: first.schema().to_string(),
                    right: input.schema().to_string(),
                });
            }
        }
        Ok(PhysicalPlan::Union { inputs })
    }

    /// The node's output schema (computed at construction).
    pub fn schema(&self) -> &Schema {
        match self {
            PhysicalPlan::Scan { request, .. } => request.output(),
            PhysicalPlan::Project { schema, .. } | PhysicalPlan::HashJoin { schema, .. } => schema,
            PhysicalPlan::Union { inputs } => inputs[0].schema(),
        }
    }

    /// The cache key of a scan leaf (`None` for interior nodes). The
    /// `data_version` is a placeholder — plans are compiled before any data
    /// is read — and is filled in from the live source at execution time.
    pub(super) fn scan_key(&self) -> Option<ScanKey> {
        match self {
            PhysicalPlan::Scan { source, request } => Some(ScanKey {
                source: source.clone(),
                columns: request.columns.clone(),
                filters: request.filters.clone(),
                data_version: 0,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for PhysicalPlan {
    /// Renders the plan in a compact physical notation, e.g.
    /// `(scan w1 [monitorId→D1/VoDmonitorId] ⋈H[0=1] scan w3 [...])`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysicalPlan::Scan { source, request } => write!(f, "scan {source} {request}"),
            PhysicalPlan::Project {
                input,
                indices,
                schema,
            } => {
                write!(f, "Π{schema}#{indices:?}({input})")
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                ..
            } => write!(f, "({left} ⋈H[{left_key}={right_key}] {right})"),
            PhysicalPlan::Union { inputs } => {
                let rendered: Vec<String> = inputs.iter().map(|p| p.to_string()).collect();
                write!(f, "∪({})", rendered.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::test_support::*;

    #[test]
    fn union_rejects_shape_mismatch_and_emptiness() {
        assert!(matches!(
            PhysicalPlan::union(vec![]),
            Err(PlanError::EmptyUnion)
        ));
        let err = PhysicalPlan::union(vec![scan_all("w1", &w1()), scan_all("w3", &w3())]);
        assert!(matches!(err, Err(PlanError::UnionShape { .. })));
    }

    #[test]
    fn project_by_indices_and_columns() {
        let plan = scan_all("w1", &w1())
            .project_columns(
                &["lagRatio"],
                Schema::from_parts::<&str>(&[], &["lagRatio"]).unwrap(),
            )
            .unwrap();
        let out = run(&plan, &source).unwrap();
        assert_eq!(out.schema().names(), vec!["lagRatio"]);
        assert_eq!(out.len(), 3);

        let err = scan_all("w1", &w1())
            .project(vec![7], Schema::from_parts::<&str>(&[], &["x"]).unwrap());
        assert!(matches!(err, Err(PlanError::ProjectionRange { .. })));
    }
}
