//! Ground values and their types.
//!
//! The paper's model works over relations of *ground tuples*. Three scalar
//! types cover every schema the paper uses (and Bitcoin's): integers
//! (amounts in satoshis, serial numbers), text (transaction ids, public
//! keys, signatures), and booleans (e.g. flag columns).

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// The type of a [`Value`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer. Monetary amounts are stored in satoshis so
    /// that fractional bitcoin values (e.g. the paper's `0.5`) stay exact.
    Int,
    /// Immutable UTF-8 text (cheaply clonable).
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Text => write!(f, "text"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

/// A ground (constant) value.
///
/// `Text` is an `Arc<str>`: tuples are cloned heavily while materialising
/// possible worlds, and a refcount bump beats a string copy. Equality has a
/// pointer fast path for interned text (see
/// [`Database::intern_value`](crate::instance::Database::intern_value)) —
/// two values interned by the same database compare with one pointer check
/// on the join's innermost loop instead of a string compare.
#[derive(Clone, Debug)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Text value.
    Text(Arc<str>),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// The type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Text(_) => ValueType::Text,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The text inside, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Compares two values of the same type; `None` when the types differ.
    ///
    /// Query comparisons (`<`, `>`) over mismatched types are treated as
    /// unsatisfied rather than panicking, mirroring typed-SQL semantics where
    /// the planner would have rejected the query; the parser/validator also
    /// rejects statically-typed mismatches up front.
    pub fn partial_cmp_same_type(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            // Interned strings share the allocation, so the common case is
            // settled by the pointer check alone.
            (Value::Text(a), Value::Text(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

// Content-based, so it stays consistent with the pointer-accelerated
// equality above: `Arc::ptr_eq` implies content equality implies equal
// hashes.
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Int(i) => i.hash(state),
            Value::Text(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            // Quote and backslash are escaped, so the rendering is
            // injective: it keys the verdict memo and the base-verdict
            // cache, and the query parser reads it back.
            Value::Text(s) => {
                f.write_char('\'')?;
                for ch in s.chars() {
                    if matches!(ch, '\\' | '\'') {
                        f.write_char('\\')?;
                    }
                    f.write_char(ch)?;
                }
                f.write_char('\'')
            }
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
        Value::text(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v.as_str()))
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
    fn display_roundtrip_shapes() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::text("abc").to_string(), "'abc'");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn typed_comparison() {
        assert_eq!(
            Value::Int(1).partial_cmp_same_type(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::text("b").partial_cmp_same_type(&Value::text("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(1).partial_cmp_same_type(&Value::text("1")), None);
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::Int(0).value_type(), ValueType::Int);
        assert_eq!(Value::text("x").value_type(), ValueType::Text);
        assert_eq!(Value::Bool(false).value_type(), ValueType::Bool);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::text("x").as_int(), None);
        assert_eq!(Value::text("x").as_text(), Some("x"));
        assert_eq!(Value::Int(5).as_text(), None);
    }

    #[test]
    fn conversions() {
        let v: Value = 42i64.into();
        assert_eq!(v, Value::Int(42));
        let v: Value = "hi".into();
        assert_eq!(v, Value::text("hi"));
        let v: Value = true.into();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn text_equality_is_by_content() {
        assert_eq!(Value::text("abc"), Value::text(String::from("abc")));
    }
}
