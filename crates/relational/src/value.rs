//! Scalar values flowing through the relational layer.
//!
//! Wrappers expose flat first-normal-form relations (§2), so a small scalar
//! algebra suffices: nulls, booleans, 64-bit integers, doubles and strings.
//! `Value` implements a *total* order (`Null < Bool < Int/Float < Str`,
//! numerics compared cross-type and exactly) so relations can be sorted and
//! deduplicated deterministically.

use std::cmp::Ordering;
use std::fmt;

/// A scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    /// Human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints widen to doubles.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (no float truncation).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Float(x), Value::Float(y)) => x
                .partial_cmp(y)
                .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan())),
            (Value::Int(i), Value::Float(f)) => cmp_int_float(*i, *f),
            (Value::Float(f), Value::Int(i)) => cmp_int_float(*i, *f).reverse(),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            // Numerics hash through a normalized f64 bit pattern so every
            // Eq class hashes equally: Int(2) with Float(2.0), -0.0 with
            // 0.0, and all NaN payloads with each other (Eq goes through the
            // total order, which unifies those pairs while raw to_bits does
            // not). Hash-based dedup must agree with Eq; an `Int` equal to
            // a `Float` is exactly that double, so it has the same bits.
            Value::Int(i) => normalized_bits(*i as f64).hash(state),
            Value::Float(f) => normalized_bits(*f).hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

/// `i` against `f` as numbers, exactly; NaN sorts greatest. Widening `i`
/// to `f64` instead would round past 2⁵³ and make `Int(2⁵³)`, `Float(2⁵³)`
/// and `Int(2⁵³ + 1)` equal, equal and unequal — no order at all.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    // 2⁶³: every double in [-2⁶³, 2⁶³) truncates to an `i64` exactly.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() || f >= TWO_63 {
        return Ordering::Less;
    }
    if f < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    i.cmp(&(whole as i64))
        .then_with(|| 0.0.partial_cmp(&(f - whole)).expect("finite fraction"))
}

/// The f64 bit pattern with Eq-equal values collapsed: `-0.0` → `0.0`, any
/// NaN → the canonical NaN.
fn normalized_bits(f: f64) -> u64 {
    if f == 0.0 {
        0.0f64.to_bits()
    } else if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert_ne!(Value::Int(2), Value::Str("2".into()));
    }

    #[test]
    fn hash_is_consistent_with_eq_on_zero_and_nan() {
        // -0.0 == 0.0 and NaN == NaN under the total order; hash-based
        // dedup (ops::union, the plan executor's value pool) relies on the
        // hashes agreeing too.
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
        assert_eq!(Value::Float(-0.0), Value::Int(0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Int(0)));
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() ^ 1);
        assert!(payload.is_nan());
        assert_eq!(Value::Float(quiet), Value::Float(payload));
        assert_eq!(
            hash_of(&Value::Float(quiet)),
            hash_of(&Value::Float(payload))
        );
    }

    #[test]
    fn int_float_order_is_exact_past_two_to_the_53() {
        let two_53 = 1i64 << 53;
        let (int, float, next) = (
            Value::Int(two_53),
            Value::Float(two_53 as f64),
            Value::Int(two_53 + 1),
        );
        assert_eq!(int, float);
        assert!(float < next && int < next);
        assert!(Value::Int(i64::MAX) < Value::Float(9_223_372_036_854_775_808.0));
        assert_eq!(
            Value::Int(i64::MIN),
            Value::Float(-9_223_372_036_854_775_808.0)
        );
        assert!(Value::Float(-2.5) < Value::Int(-2) && Value::Int(-3) < Value::Float(-2.5));
        assert_eq!(Value::Float(-0.0), Value::Int(0));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
    }

    #[test]
    fn total_order_across_kinds() {
        let mut values = [
            Value::Str("a".into()),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
        ];
        values.sort();
        assert_eq!(
            values.iter().map(Value::kind).collect::<Vec<_>>(),
            vec!["null", "bool", "float", "int", "string"]
        );
    }

    #[test]
    fn nan_is_orderable_and_self_equal() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Float(1.0).cmp(&nan), Ordering::Less);
        assert_eq!(nan.cmp(&Value::Int(5)), Ordering::Greater);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_i64(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Float(0.75).to_string(), "0.75");
        assert_eq!(Value::Str("tweet".into()).to_string(), "tweet");
    }
}
