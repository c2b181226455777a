//! Attribute values for the non-temporal part of a TP tuple.
//!
//! The paper's schema `R^Tp(F, λ, T, p)` carries an ordered set of
//! conventional attributes `F = (A1, …, Am)`, each over a fixed domain.
//! [`Value`] models a single attribute value; a full fact is a sequence of
//! values (see [`crate::fact::Fact`]).
//!
//! Values must be totally ordered and hashable so that relations can be
//! sorted by `(F, Ts)` — the precondition of the LAWA sweep — and grouped by
//! fact in hash-based baselines. Floating-point values are therefore wrapped
//! in [`OrderedF64`], which uses IEEE-754 `total_cmp` semantics.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An `f64` with a total order, suitable for use inside facts.
///
/// Comparison and hashing follow [`f64::total_cmp`] / raw-bit semantics, so
/// `NaN` values are permitted and compare equal to themselves. This is a
/// pragmatic choice for a database value type: grouping must never lose
/// tuples because a measurement happened to be `NaN`.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(pub f64);

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Hash for OrderedF64 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `total_cmp`-equal values have identical bit patterns except for
        // 0.0 vs -0.0, which total_cmp distinguishes as well, so hashing the
        // raw bits is consistent with `Eq`.
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<f64> for OrderedF64 {
    fn from(v: f64) -> Self {
        OrderedF64(v)
    }
}

/// A single attribute value of a fact.
///
/// Strings are reference-counted (`Arc<str>`) because facts are cloned into
/// every output tuple that carries them; cloning a [`Value::Str`] is a
/// refcount bump, not an allocation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Boolean attribute.
    Bool(bool),
    /// 64-bit signed integer attribute.
    Int(i64),
    /// Totally ordered floating-point attribute.
    Float(OrderedF64),
    /// Interned string attribute.
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Construct an integer value.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Construct a float value.
    pub fn float(v: f64) -> Self {
        Value::Float(OrderedF64(v))
    }

    /// Returns the contained integer, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the contained string slice, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the contained float, if this is a [`Value::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(v.0),
            _ => None,
        }
    }

    /// Returns the contained bool, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Name of the value's domain, used in error messages.
    pub fn domain_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn string_values_compare_by_content() {
        assert_eq!(Value::str("milk"), Value::str("milk"));
        assert!(Value::str("chips") < Value::str("milk"));
    }

    #[test]
    fn int_ordering() {
        assert!(Value::int(-3) < Value::int(0));
        assert!(Value::int(0) < Value::int(7));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert!(Value::float(1.0) < Value::float(2.0));
    }

    #[test]
    fn float_hash_consistent_with_eq() {
        let a = OrderedF64(3.25);
        let b = OrderedF64(3.25);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_distinct_from_zero_under_total_cmp() {
        // total_cmp puts -0.0 < 0.0; we accept that for determinism.
        assert!(OrderedF64(-0.0) < OrderedF64(0.0));
    }

    #[test]
    fn accessors_return_expected_variants() {
        assert_eq!(Value::int(5).as_int(), Some(5));
        assert_eq!(Value::int(5).as_str(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::str("milk").to_string(), "'milk'");
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from("a"), Value::str("a"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(2.0), Value::float(2.0));
        assert_eq!(Value::from(String::from("s")), Value::str("s"));
    }

    #[test]
    fn domain_names() {
        assert_eq!(Value::int(1).domain_name(), "int");
        assert_eq!(Value::str("x").domain_name(), "str");
        assert_eq!(Value::float(0.0).domain_name(), "float");
        assert_eq!(Value::Bool(true).domain_name(), "bool");
    }
}
