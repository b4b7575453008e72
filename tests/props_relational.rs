//! Property-based tests for the relational substrate: the Π̃/⋈̃ restrictions
//! of §2.2 and the algebraic laws execution relies on.

use bdi::relational::{ops, Attribute, Relation, Schema, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(|i| Value::Float(i as f64 / 4.0)),
        "[a-c]{1,3}".prop_map(Value::Str),
        arb_extreme_number(),
    ]
}

/// Numbers where widening an `i64` to `f64` rounds: ±2⁵³, ±(2⁵³ + 1),
/// `i64::MIN` / `MAX`, and ±2⁵³, ±2⁶³ as floats.
fn arb_extreme_number() -> impl Strategy<Value = Value> {
    const TWO_53: i64 = 1 << 53;
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    prop_oneof![
        Just(Value::Int(TWO_53)),
        Just(Value::Int(-TWO_53)),
        Just(Value::Int(TWO_53 + 1)),
        Just(Value::Int(-TWO_53 - 1)),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        Just(Value::Float(TWO_53 as f64)),
        Just(Value::Float(-TWO_53 as f64)),
        Just(Value::Float(TWO_63)),
        Just(Value::Float(-TWO_63)),
    ]
}

/// A relation with one ID column and `extra` non-ID columns.
fn arb_relation(ids: usize, non_ids: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    let width = ids + non_ids;
    prop::collection::vec(prop::collection::vec(arb_value(), width), 0..=max_rows).prop_map(
        move |mut rows| {
            // ID columns get non-null ints so joins are meaningful.
            for (r, row) in rows.iter_mut().enumerate() {
                for c in row.iter_mut().take(ids) {
                    if c.is_null() {
                        *c = Value::Int(r as i64 % 5);
                    }
                }
            }
            let mut attrs = Vec::new();
            for i in 0..ids {
                attrs.push(Attribute::id(format!("id{i}")));
            }
            for i in 0..non_ids {
                attrs.push(Attribute::non_id(format!("x{i}")));
            }
            Relation::new(Schema::new(attrs).expect("unique names"), rows).expect("arity ok")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn project_always_keeps_every_id(rel in arb_relation(2, 3, 10)) {
        let out = ops::project(&rel, &["x1"]).unwrap();
        prop_assert_eq!(out.schema().id_names(), vec!["id0", "id1"]);
        prop_assert_eq!(out.schema().names(), vec!["id0", "id1", "x1"]);
        prop_assert_eq!(out.len(), rel.len());
    }

    #[test]
    fn project_empty_keeps_only_ids(rel in arb_relation(1, 3, 10)) {
        let out = ops::project(&rel, &[]).unwrap();
        prop_assert_eq!(out.schema().len(), 1);
    }

    #[test]
    fn union_is_idempotent_and_commutative(
        a in arb_relation(1, 1, 8),
        b in arb_relation(1, 1, 8),
    ) {
        let ab = ops::union(&a, &b).unwrap();
        let ba = ops::union(&b, &a).unwrap();
        prop_assert_eq!(&ab, &ba);
        let aa = ops::union(&a, &a).unwrap();
        prop_assert_eq!(aa, a.to_distinct());
        // Union with self again is a fixpoint.
        let abab = ops::union(&ab, &ab).unwrap();
        prop_assert_eq!(abab, ab);
    }

    #[test]
    fn join_row_count_matches_nested_loop(
        left in arb_relation(1, 1, 10),
        right in arb_relation(1, 0, 10),
    ) {
        let right = ops::rename(&right, &[("id0", "rid0")]).unwrap();
        let joined = ops::join(&left, &right, "id0", "rid0").unwrap();
        let expected = left
            .rows()
            .iter()
            .flat_map(|l| {
                right.rows().iter().filter(move |r| {
                    !l[0].is_null() && !r[0].is_null() && l[0] == r[0]
                })
            })
            .count();
        prop_assert_eq!(joined.len(), expected);
    }

    #[test]
    fn join_is_symmetric_in_cardinality(
        left in arb_relation(1, 1, 10),
        right in arb_relation(1, 1, 10),
    ) {
        let right = ops::rename(&right, &[("id0", "rid0"), ("x0", "rx0")]).unwrap();
        let lr = ops::join(&left, &right, "id0", "rid0").unwrap();
        let rl = ops::join(&right, &left, "rid0", "id0").unwrap();
        prop_assert_eq!(lr.len(), rl.len());
    }

    #[test]
    fn distinct_is_idempotent(rel in arb_relation(1, 2, 12)) {
        let once = rel.to_distinct();
        let twice = once.to_distinct();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn rename_preserves_rows_and_flags(rel in arb_relation(1, 2, 10)) {
        let renamed = ops::rename(&rel, &[("x0", "renamed")]).unwrap();
        prop_assert_eq!(renamed.rows(), rel.rows());
        prop_assert!(!renamed.schema().attribute("renamed").unwrap() .is_id());
        prop_assert!(renamed.schema().attribute("id0").unwrap().is_id());
    }

    #[test]
    fn align_to_reorders_without_losing_rows(rel in arb_relation(1, 2, 10)) {
        let target = Schema::new(vec![
            Attribute::non_id("b"),
            Attribute::id("a"),
        ]).unwrap();
        let aligned = ops::align_to(&rel, &["x1", "id0"], &target).unwrap();
        prop_assert_eq!(aligned.len(), rel.len());
        for (i, row) in aligned.rows().iter().enumerate() {
            prop_assert_eq!(&row[0], rel.value(i, "x1").unwrap());
            prop_assert_eq!(&row[1], rel.value(i, "id0").unwrap());
        }
    }
}

proptest! {
    // A value comparison costs nanoseconds, and a non-transitive triple
    // among the extreme numbers is one draw in ~20 000.
    #![proptest_config(ProptestConfig::with_cases(1 << 16))]

    #[test]
    fn value_order_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        if a.cmp(&b) == Ordering::Equal {
            prop_assert_eq!(b.cmp(&a), Ordering::Equal);
        } else {
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        }
        // Transitivity (of ≤), in every order of the three.
        let orders = [
            (&a, &b, &c),
            (&a, &c, &b),
            (&b, &a, &c),
            (&b, &c, &a),
            (&c, &a, &b),
            (&c, &b, &a),
        ];
        for (x, y, z) in orders {
            if x <= y && y <= z {
                prop_assert!(x <= z, "{:?} <= {:?} <= {:?}", x, y, z);
            }
        }
    }

    #[test]
    fn equal_values_hash_equally(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut hasher = DefaultHasher::new();
            v.hash(&mut hasher);
            hasher.finish()
        }
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }
}

#[test]
fn join_on_non_id_attributes_is_always_rejected() {
    let rel = Relation::new(
        Schema::from_parts(&["id0"], &["x0"]).unwrap(),
        vec![vec![Value::Int(1), Value::Int(2)]],
    )
    .unwrap();
    let other = ops::rename(&rel, &[("id0", "rid"), ("x0", "rx")]).unwrap();
    assert!(ops::join(&rel, &other, "x0", "rid").is_err());
    assert!(ops::join(&rel, &other, "id0", "rx").is_err());
}
